//! The attack's benchmark: one command that runs a named workload,
//! checks every recovered key, and prints every metric by name and
//! unit, ending with one JSON line.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//!           [--victim seeded|test-set-1]
//! perfbench --write-config BENCHMARK.json
//! ```
//!
//! With `--trace 0` it reports the end-to-end metrics; with
//! `--trace 1` the per-layer metrics, measured from outside the
//! program by probes around each layer's public entry points and by
//! the telemetry the program already emits. See `README.md` for the
//! workloads, the seeds and what each metric should move.

mod attack;
mod fleet;
mod ndjson;
mod probe;
mod registry;
mod stats;
mod victim;

use std::collections::BTreeMap;
use std::process::ExitCode;

use registry::{Workload, END_TO_END, WORKLOADS};

/// The seed the documented figures use; see `README.md` for the
/// held-out seeds.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    victims: victim::Source,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: registry::RUN_SECONDS as f64,
        trace: false,
        victims: victim::Source::Seeded,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--victim" => {
                out.victims = match value()?.as_str() {
                    "seeded" => victim::Source::Seeded,
                    "test-set-1" => victim::Source::TestSet1,
                    _ => return Err("--victim takes seeded or test-set-1".into()),
                };
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(out)
}

/// Victims built per run: enough distinct key layouts that a change
/// tuned to one shows, few enough that set-up stays short.
fn victim_count(workload: Workload) -> usize {
    match workload {
        Workload::SerialFull => 8,
        Workload::Composed => 16,
        Workload::NoisyAdaptive => 3,
        Workload::FleetComposed => 0,
    }
}

/// Peak resident set of this process, in MB.
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(0.0, |kb| kb / 1024.0)
}

/// The run's victims: drawn from the seed in index order until `count`
/// can be attacked. A drawn key the attack cannot recover at all (see
/// `README.md`) is reported on stderr and counted, not timed; the
/// second value is that count. The build time of every draw is returned
/// for `setup_s`.
fn draw_victims(
    source: victim::Source,
    seed: u64,
    count: usize,
) -> Result<(Vec<victim::Victim>, usize, Vec<f64>), String> {
    let (mut victims, mut unrecoverable, mut builds) = (Vec::with_capacity(count), 0, Vec::new());
    for index in 0..count * 2 + 4 {
        if victims.len() == count {
            break;
        }
        let mut v = victim::build(source, seed, index)?;
        builds.push(v.build_s);
        match attack::unrecoverable(&mut v).map_err(|e| format!("victim {index}: {e}"))? {
            None => victims.push(v),
            Some(reason) => {
                unrecoverable += 1;
                eprintln!(
                    "perfbench: seed {seed} victim {index} (key {}): the attack cannot recover \
                     this key ({reason}); drawing another",
                    v.secrets.key
                );
            }
        }
    }
    if victims.len() < count {
        return Err(format!("only {} of {count} drawn victims can be attacked", victims.len()));
    }
    Ok((victims, unrecoverable, builds))
}

/// Extra victim builds an untraced run times for `setup_s`, paced
/// between attacks over the whole run. One build takes ~15 or ~25 ms
/// on a shared 2-vCPU host depending on its load of the moment, which
/// shifts over seconds; builds timed back to back before the run gave
/// medians a quarter apart from run to run.
const SETUP_SAMPLES: usize = 60;

fn run_workload(workload: Workload, args: &Args) -> attack::Outcome {
    if workload == Workload::FleetComposed {
        return fleet::run(args.seconds, args.trace);
    }
    let (mut victims, unrecoverable, mut builds) =
        match draw_victims(args.victims, args.seed, victim_count(workload)) {
            Ok(drawn) => drawn,
            Err(e) => return attack::Outcome { problems: vec![e], ..attack::Outcome::default() },
        };
    let victims_len = victims.len();
    let mut out = if args.trace {
        let mut out = attack::run_traced(workload, &mut victims, args.seconds);
        let build_ms = stats::median(&builds).unwrap_or(0.0) * 1e3;
        out.metrics.insert("setup.board_build_ms".into(), build_ms);
        out
    } else {
        // A multi-second noisy attack warms its own caches; the short
        // ones get an untimed attack first.
        let warmup = workload != Workload::NoisyAdaptive;
        let (mut paced, mut errors) = (0, Vec::new());
        let set_up = |progress: f64| {
            let due = (progress.min(1.0) * SETUP_SAMPLES as f64) as usize;
            for index in paced..due {
                match victim::build(args.victims, args.seed, index % victims_len) {
                    Ok(v) => builds.push(v.build_s),
                    Err(e) => errors.push(e),
                }
            }
            paced = paced.max(due);
        };
        let mut out = attack::run_untraced(workload, &mut victims, args.seconds, warmup, set_up);
        out.metrics.insert("setup_s".into(), stats::median(&builds).unwrap_or(0.0));
        out.problems.extend(errors);
        out
    };
    out.metrics.insert("victims.unrecoverable".into(), unrecoverable as f64);
    out
}

fn units() -> BTreeMap<String, &'static str> {
    let mut units: BTreeMap<String, &'static str> =
        END_TO_END.iter().map(|(n, u, _)| ((*n).to_string(), *u)).collect();
    units.extend(registry::per_layer());
    units
}

fn report(name: &str, args: &Args, mut out: attack::Outcome) -> ExitCode {
    let wanted: Vec<(String, &'static str)> = if args.trace {
        registry::per_layer()
    } else {
        out.metrics.entry("peak_rss_mb".into()).or_insert_with(peak_rss_mb);
        END_TO_END.iter().map(|(n, u, _)| ((*n).to_string(), *u)).collect()
    };
    for problem in &out.problems {
        eprintln!("perfbench: {name}: {problem}");
    }
    let all_units = units();
    for (metric, value) in &out.metrics {
        let unit = all_units.get(metric).copied().unwrap_or("?");
        println!("{name:<15} {metric:<32} {value:>16.4} {unit}");
    }
    let tail = stats::tail_percentile(&out.samples)
        .map_or("none with 10 samples beyond it".to_string(), |(p, v)| format!("p{p} {v:.4} s"));
    let (q1, q3) = stats::quartiles(&out.samples).unwrap_or((0.0, 0.0));
    println!(
        "{name:<15} attack time over {} samples: median {:.4} s, quartiles {q1:.4}..{q3:.4} s, \
         {tail}",
        out.samples.len(),
        stats::median(&out.samples).unwrap_or(0.0)
    );
    println!(
        "{name:<15} failed_frac {}/{} = {:.4}",
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted.max(1) as f64
    );

    let mut fields = Vec::with_capacity(wanted.len());
    let mut missing = Vec::new();
    for (metric, unit) in &wanted {
        if !stats::valid_name(metric) {
            missing.push(metric.clone());
        }
        let value = out.metrics.get(metric).copied().filter(|v| v.is_finite());
        // Per-layer metrics a workload does not exercise read 0; an
        // end-to-end metric must be measured.
        let value = match value {
            Some(v) => v,
            None if args.trace => 0.0,
            None => {
                missing.push(metric.clone());
                0.0
            }
        };
        fields.push(format!("\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    for metric in &missing {
        eprintln!("perfbench: {name}: end-to-end metric {metric} was not measured");
    }
    let correct =
        out.failed == 0 && out.problems.is_empty() && missing.is_empty() && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: every workload in its own process, so each one's
/// peak memory is its own.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for (_, name, _) in WORKLOADS {
        let mut child_args: Vec<String> = args.to_vec();
        let at = child_args.iter().position(|a| a == "--workload").expect("parsed") + 1;
        child_args[at] = name.to_string();
        let status = std::process::Command::new(&exe).args(&child_args).status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, path] = argv.as_slice() {
        if flag == "--write-config" {
            return match std::fs::write(path, registry::benchmark_json()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: cannot write {path}: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let Some(workload) = Workload::from_name(&args.workload) else {
        eprintln!("perfbench: unknown workload '{}'", args.workload);
        return ExitCode::from(2);
    };
    let out = run_workload(workload, &args);
    report(&args.workload, &args, out)
}
