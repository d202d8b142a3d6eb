//! The attack workloads: a closed loop of one attack at a time, each
//! on a fresh victim board, timed at `SessionSpec::run_harnessed`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bitmod::campaign::CancelToken;
use bitmod::fleet::session::record_board_faults;
use bitmod::fleet::{ResumePolicy, SessionError, SessionIo, SessionOutcome, SessionSpec};
use bitmod::telemetry::names;
use bitmod::{AttackError, EncryptedOracle, KeystreamOracle, Metrics, Telemetry};
use bitstream::{Bitstream, PartialForge};
use fpga_sim::UnreliableBoard;

use crate::ndjson::{self, SharedBuf};
use crate::probe::{self, Load, Probe};
use crate::registry::{Workload, PHASES};
use crate::stats;
use crate::victim::Victim;

/// The fault seed of every noisy attack: the seed the repository's
/// noisy-mode documentation uses. It is fixed rather than drawn from
/// the benchmark seed because the attack aborts for some fault seeds
/// at the default profile (about one in twelve; `README.md` lists one),
/// and a benchmark run must not fail.
pub const FAULT_SEED: u64 = 7;

/// The session a workload runs.
#[must_use]
pub fn spec_for(workload: Workload) -> SessionSpec {
    let builder = SessionSpec::builder();
    let builder = match workload {
        Workload::SerialFull => builder,
        Workload::Composed | Workload::FleetComposed => composed(builder),
        // The default fault profile: the spec's glitch and load-failure
        // rates.
        Workload::NoisyAdaptive => composed(builder).noisy(true).adaptive(true).seed(FAULT_SEED),
    };
    builder.build().expect("the workload specs are valid")
}

fn composed(builder: bitmod::fleet::SessionSpecBuilder) -> bitmod::fleet::SessionSpecBuilder {
    builder.batch(fpga_sim::GANG_LANES).partial(true).encrypted(true)
}

/// The exact counts one attack produced; they repeat bit for bit for
/// a given victim and spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Physical device loads.
    pub loads: u64,
    /// Configuration bytes delivered to the device oracle: the delta
    /// layer's shipped bytes when partial loading is on, else one
    /// golden-sized image per physical load.
    pub config_bytes: u64,
    /// Modelled backoff on the resilience layer's virtual clock.
    pub backoff_vms: u64,
    /// The delta layer's own byte counter.
    pub pr_bytes: u64,
}

/// One verified attack.
#[derive(Debug, Clone)]
pub struct Attacked {
    /// Host seconds of the timed call.
    pub secs: f64,
    /// Its exact counts.
    pub counts: Counts,
}

fn io_for(victim: &Victim, telemetry: Telemetry) -> SessionIo {
    SessionIo {
        journal: None,
        resume: ResumePolicy::Never,
        telemetry,
        cancel: CancelToken::new(),
        expected_key: Some(victim.secrets.key),
    }
}

/// Runs `f` against the victim's board — wrapped in a fresh
/// fault-injecting board for noisy specs, whose injected faults are
/// then recorded into `telemetry` — and hands the board back.
fn on_board<R>(
    spec: &SessionSpec,
    victim: &mut Victim,
    telemetry: &Telemetry,
    f: impl FnOnce(&dyn KeystreamOracle) -> R,
) -> R {
    let board = victim.board.take().expect("victim board is home between attacks");
    if spec.is_noisy() {
        let noisy = UnreliableBoard::new(board, spec.fault_profile());
        let out = f(&noisy);
        record_board_faults(telemetry, &noisy);
        victim.board = Some(noisy.into_inner());
        out
    } else {
        let out = f(&board);
        victim.board = Some(board);
        out
    }
}

/// Checks a finished session against its own victim and extracts the
/// counts. `Err` means the attack did not recover this victim's key.
fn verify(
    spec: &SessionSpec,
    victim: &Victim,
    report: Result<bitmod::fleet::SessionReport, bitmod::fleet::SessionError>,
) -> Result<Counts, String> {
    let report = report.map_err(|e| e.to_string())?;
    if !matches!(report.outcome, SessionOutcome::Recovered(_)) {
        return Err(format!("session ended {}", report.outcome));
    }
    let attack = report.attack.ok_or("recovered session without an attack report")?;
    if attack.recovered.key != victim.secrets.key {
        return Err("recovered a wrong key".into());
    }
    let loads = attack.resilience.attempts;
    let pr_bytes = report.metrics.counter(names::PR_BYTES_SHIPPED);
    let config_bytes =
        if spec.is_partial() { pr_bytes } else { loads * victim.golden.len() as u64 };
    Ok(Counts { loads, config_bytes, backoff_vms: attack.resilience.backoff_ms, pr_bytes })
}

/// One untraced attack: one `run_harnessed` call, timed, verified
/// against the victim's own key.
///
/// # Errors
///
/// Why the attack did not recover the victim's key.
pub fn attack(spec: &SessionSpec, victim: &mut Victim) -> Result<Attacked, String> {
    let io = io_for(victim, Telemetry::off());
    let golden = victim.golden.clone();
    let (report, secs) = on_board(spec, victim, &io.telemetry, |oracle| {
        let t0 = Instant::now();
        let report = spec.run_harnessed(oracle, golden, &io);
        (report, t0.elapsed().as_secs_f64())
    });
    let counts = verify(spec, victim, report)?;
    Ok(Attacked { secs, counts })
}

/// Why the attack cannot recover this victim's key, if it cannot: one
/// untimed clean composed attack. `Ok(Some(reason))` when the attack
/// gives up on the key with one of its own analysis errors — a defect
/// of the attack for that key layout, in serial and composed runs alike (see
/// `README.md`); `Ok(None)` when it recovers the key.
///
/// # Errors
///
/// The attack recovered a wrong key or failed for another reason.
pub fn unrecoverable(victim: &mut Victim) -> Result<Option<String>, String> {
    let spec = spec_for(Workload::Composed);
    let io = io_for(victim, Telemetry::off());
    let golden = victim.golden.clone();
    let report =
        on_board(&spec, victim, &io.telemetry, |oracle| spec.run_harnessed(oracle, golden, &io));
    match report {
        Err(SessionError::Attack(
            e @ (AttackError::ZPathIncomplete { .. }
            | AttackError::KeyIndependentMismatch
            | AttackError::PairUnresolved { .. }
            | AttackError::Recover(_)),
        )) => Ok(Some(e.to_string())),
        report => verify(&spec, victim, report).map(|_| None),
    }
}

/// One traced attack: the same session with a probe at the device
/// boundary and, on encrypted specs, a second probe above the
/// encrypted oracle, which the benchmark builds from the program's
/// public constructors exactly as `run_harnessed` does.
pub struct Traced {
    /// The verified attack; `secs` covers the encrypted set-up too, so
    /// it compares with an untraced `run_harnessed`.
    pub attacked: Attacked,
    /// Host ms of the `run_against` call alone.
    pub attack_ms: f64,
    /// The device probe's counters.
    pub device: probe::ProbeStats,
    /// The upper probe's counters (default on plaintext specs).
    pub upper: probe::ProbeStats,
    /// Seal, side-channel key recovery and patch-oracle set-up, ms.
    pub encrypted_setup_ms: f64,
    /// Metrics after the board's fault accounting was recorded.
    pub metrics: Metrics,
    /// The session's NDJSON events, summarised.
    pub trace: ndjson::TraceSummary,
}

/// Runs one traced attack.
///
/// # Errors
///
/// Why the attack did not recover the victim's key.
pub fn traced(spec: &SessionSpec, victim: &mut Victim) -> Result<Traced, String> {
    let buf = SharedBuf::default();
    let telemetry = Telemetry::with_sink(Box::new(buf.clone()));
    let io = io_for(victim, telemetry.clone());
    let golden = victim.golden.clone();
    let run: Result<_, String> = on_board(spec, victim, &telemetry, |board| {
        let device = Probe::new(board);
        if !spec.is_encrypted() {
            let t0 = Instant::now();
            let report = spec.run_against(&device, golden, &io);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            return Ok((report, ms, 0.0, device.stats(), probe::ProbeStats::default()));
        }
        let t0 = Instant::now();
        let sealed = bitmod::encrypted::demo_seal(&golden);
        drop(golden);
        let patcher = bitmod::encrypted::open_with_sca(
            &sealed,
            &bitmod::encrypted::demo_sca(),
            spec.sca_trace_budget(),
        )
        .map_err(|e| format!("encrypted set-up: {e}"))?;
        let recovered_golden = patcher.golden().clone();
        let setup_ms = t0.elapsed().as_secs_f64() * 1e3;
        let enc = EncryptedOracle::new(&device, patcher).with_telemetry(io.telemetry.clone());
        let upper = Probe::new(&enc);
        let t1 = Instant::now();
        let report = spec.run_against(&upper, recovered_golden, &io);
        let ms = t1.elapsed().as_secs_f64() * 1e3;
        Ok((report, ms, setup_ms, device.stats(), upper.stats()))
    });
    let (report, attack_ms, encrypted_setup_ms, device, upper) = run?;
    let counts = verify(spec, victim, report)?;
    telemetry.finish().map_err(|e| e.to_string())?;
    let metrics = telemetry.metrics();
    let secs = (attack_ms + encrypted_setup_ms) / 1e3;
    Ok(Traced {
        attacked: Attacked { secs, counts },
        attack_ms,
        device,
        upper,
        encrypted_setup_ms,
        metrics,
        trace: ndjson::summarise(&buf.text()),
    })
}

/// Loads recorded at the device boundary of a clean, plaintext run of
/// `spec`'s load mode (batch width and partial flag) on the victim.
fn capture(spec: &SessionSpec, victim: &mut Victim, partial: bool) -> Result<Vec<Load>, String> {
    const BUDGET_BYTES: usize = 48 << 20;
    let clean = SessionSpec::builder()
        .batch(spec.batch_width())
        .partial(partial)
        .build()
        .expect("a valid spec's batch width is valid");
    let io = io_for(victim, Telemetry::off());
    let golden = victim.golden.clone();
    let board = victim.board.take().expect("victim board is home between attacks");
    let recorder = Probe::recording(&board, BUDGET_BYTES);
    let report = clean.run_against(&recorder, golden, &io);
    let loads = recorder.into_loads();
    victim.board = Some(board);
    verify(&clean, victim, report)?;
    Ok(loads)
}

/// Mean µs `PartialForge::delta` takes per consecutive candidate pair
/// of a non-partial run.
fn diff_us(loads: &[Load]) -> f64 {
    let full: Vec<&Bitstream> = loads
        .iter()
        .flat_map(|l| match l {
            Load::Full(bs) => vec![bs],
            Load::FullBatch(batch) => batch.iter().collect(),
            Load::Partial(_) => Vec::new(),
        })
        .collect();
    let Some(mut forge) = full.first().and_then(|first| PartialForge::new(first)) else {
        return 0.0;
    };
    let t0 = Instant::now();
    for pair in full.windows(2) {
        std::hint::black_box(forge.delta(pair[0], pair[1]));
    }
    let pairs = full.len().saturating_sub(1).max(1);
    t0.elapsed().as_secs_f64() * 1e6 / pairs as f64
}

/// The per-layer metrics of one traced attack, given the fabric
/// replay and delta-diff timings.
fn layer_metrics(t: &Traced, replay: probe::FabricReplay, diff_us: f64) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let dev = &t.device;
    let items = dev.items().max(1) as f64;
    let device_ms = ms(dev.busy);
    let us_per_item = (device_ms - ms(dev.plan)) * 1e3 / items;
    let fabric_us_per_item = (dev.full_items as f64 * replay.decode_us
        + dev.partial_items as f64 * replay.apply_partial_us)
        / items;
    put("device.busy_ms", device_ms);
    put("device.share_pct", 100.0 * device_ms / t.attack_ms);
    put("device.calls", dev.calls as f64);
    put("device.items", dev.items() as f64);
    put("device.full_items", dev.full_items as f64);
    put("device.partial_items", dev.partial_items as f64);
    put("device.lanes_per_call", dev.items() as f64 / dev.load_calls.max(1) as f64);
    put("device.us_per_item", us_per_item);
    put("device.bytes", dev.bytes as f64);
    put("device.errors", dev.errors as f64);
    put("device.plan_ms", ms(dev.plan));
    put("device.sim_us_per_item", us_per_item - fabric_us_per_item);
    put("fabric.decode_us", replay.decode_us);
    put("fabric.apply_partial_us", replay.apply_partial_us);

    let enc_self_ms = if t.upper.calls == 0 { 0.0 } else { ms(t.upper.busy) - device_ms };
    put("encrypted.self_ms", enc_self_ms);
    put("encrypted.us_per_load", enc_self_ms * 1e3 / t.upper.items().max(1) as f64);
    put("encrypted.setup_ms", t.encrypted_setup_ms);
    put("stack.self_ms", stats::stack_self_ms(t.attack_ms, device_ms, enc_self_ms));
    put("trace.attack_ms", t.attack_ms);
    put("partial.diff_us", diff_us);

    let counter = |name: &str| t.metrics.counter(name) as f64;
    let mean = |name: &str| t.metrics.histogram(name).and_then(|h| h.mean()).unwrap_or(0.0);
    for name in [
        names::ENCRYPTED_LOADS,
        names::ENCRYPTED_BLOCKS_REENCRYPTED,
        names::ENCRYPTED_BLOCKS_REUSED,
        names::ENCRYPTED_BLOCKS_DECRYPTED,
        names::ENCRYPTED_MAC_BYTES,
        names::SCA_TRACES,
        names::PR_PARTIAL_LOADS,
        names::PR_FULL_LOADS,
        names::PR_FRAMES_WRITTEN,
        names::PR_BYTES_SHIPPED,
        names::SCAN_CANDIDATES,
        names::ORACLE_RETRIES,
        names::ORACLE_BATCHES,
        names::POLICY_ESCALATIONS,
        names::BOARD_INJECTED,
        names::BOARD_FAULT_GAP,
    ] {
        put(name, counter(name));
    }
    put("oracle.loads_per_query", mean(names::ORACLE_LOADS_PER_QUERY));
    put("oracle.lane_utilisation_pct", mean(names::ORACLE_LANE_UTILISATION_PCT));
    put("backoff_vms_per_key", t.attacked.counts.backoff_vms as f64);
    for phase in PHASES {
        let (us, loads) = t.trace.spans.get(&format!("phase:{phase}")).copied().unwrap_or((0, 0));
        put(&format!("phase.{phase}_ms"), us as f64 / 1e3);
        put(&format!("phase.{phase}.loads"), loads as f64);
    }
    m
}

/// What a run of an attack workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// Attacks attempted (warm-up included).
    pub attempted: u64,
    /// Attacks that did not recover their victim's key.
    pub failed: u64,
    /// Timed samples behind `attack_s`.
    pub samples: Vec<f64>,
    /// Self-check failures (forwarding, count determinism, accounting).
    pub problems: Vec<String>,
}

/// The untraced loop: attacks cycle through `victims` until `seconds`
/// have passed and every victim was attacked once. Counts per key are
/// the mean over the first pass, so they depend on the seed alone;
/// every later attack on a victim must reproduce its counts exactly.
/// `between` runs after each attack, outside the timing, with the
/// share of `seconds` passed so far.
pub fn run_untraced(
    workload: Workload,
    victims: &mut [Victim],
    seconds: f64,
    warmup: bool,
    mut between: impl FnMut(f64),
) -> Outcome {
    let spec = spec_for(workload);
    let mut out = Outcome::default();
    let mut first: Vec<Option<Counts>> = vec![None; victims.len()];
    if warmup {
        out.attempted += 1;
        if let Err(e) = attack(&spec, &mut victims[0]) {
            out.failed += 1;
            out.problems.push(format!("warm-up attack: {e}"));
        }
    }
    let mut busy = 0.0;
    let start = Instant::now();
    for i in 0.. {
        if i >= victims.len() && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let at = i % victims.len();
        let victim = &mut victims[at];
        out.attempted += 1;
        match attack(&spec, victim) {
            Ok(a) => {
                busy += a.secs;
                out.samples.push(a.secs);
                match first[at] {
                    None => first[at] = Some(a.counts),
                    Some(c) if c != a.counts => out.problems.push(format!(
                        "victim {at}: counts changed between attacks ({c:?} then {:?})",
                        a.counts
                    )),
                    Some(_) => {}
                }
            }
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("victim {at}: {e}"));
            }
        }
        between(start.elapsed().as_secs_f64() / seconds);
    }
    between(1.0);
    let pass: Vec<Counts> = first.iter().flatten().copied().collect();
    let per_key = |f: fn(&Counts) -> u64| {
        pass.iter().map(|c| f(c) as f64).sum::<f64>() / pass.len().max(1) as f64
    };
    let m = &mut out.metrics;
    m.insert("attack_s".into(), stats::median(&out.samples).unwrap_or(0.0));
    m.insert("sessions_per_s".into(), out.samples.len() as f64 / f64::max(busy, 1e-9));
    m.insert("loads_per_key".into(), per_key(|c| c.loads));
    m.insert("config_bytes_per_key".into(), per_key(|c| c.config_bytes));
    out
}

/// The traced loop: untraced/traced pairs on the same victim until
/// `seconds` have passed. Every pair must agree exactly on key and
/// counts; the per-layer metrics are those of the pair with the median
/// traced attack time, so they stay mutually consistent.
pub fn run_traced(workload: Workload, victims: &mut [Victim], seconds: f64) -> Outcome {
    let spec = spec_for(workload);
    let mut out = Outcome::default();
    let mut pairs: Vec<(Traced, f64)> = Vec::new();
    let start = Instant::now();
    for i in 0.. {
        if i > 0 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let at = i % victims.len();
        let victim = &mut victims[at];
        out.attempted += 2;
        let pair = attack(&spec, victim).and_then(|plain| {
            let t = traced(&spec, victim)?;
            if plain.counts != t.attacked.counts {
                return Err(format!(
                    "probed run differs from the plain run: {:?} vs {:?}",
                    t.attacked.counts, plain.counts
                ));
            }
            Ok((t, plain.secs))
        });
        match pair {
            Ok(p) => pairs.push(p),
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("victim {at}: {e}"));
            }
        }
    }
    if pairs.is_empty() {
        return out;
    }
    let traced_secs: Vec<f64> = pairs.iter().map(|(t, _)| t.attacked.secs).collect();
    let plain_secs: Vec<f64> = pairs.iter().map(|(_, s)| *s).collect();
    let overhead = stats::median(&traced_secs).unwrap_or(0.0)
        / stats::median(&plain_secs).unwrap_or(1.0)
        - 1.0;
    out.samples = traced_secs.clone();
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    order.sort_by(|&a, &b| traced_secs[a].total_cmp(&traced_secs[b]));
    let (pick, _) = &pairs[order[(order.len() - 1) / 2]];

    // Device-side costs come from clean plaintext captures of the same
    // victim: its own load mode for the fabric replay, full loads for
    // the delta diff.
    let replay = capture(&spec, &mut victims[0], spec.is_partial()).map(|loads| {
        let board = victims[0].board.as_ref().expect("victim board");
        probe::replay_fabric(board.fpga(), &loads)
    });
    let diff = capture(&spec, &mut victims[0], false).map(|loads| diff_us(&loads));
    out.attempted += 2;
    let (replay, diff) = match (replay, diff) {
        (Ok(r), Ok(d)) => (r, d),
        (r, d) => {
            out.failed += u64::from(r.is_err()) + u64::from(d.is_err());
            out.problems.extend(r.err().into_iter().chain(d.err()));
            return out;
        }
    };
    out.metrics = layer_metrics(pick, replay, diff);
    out.metrics.insert("trace.overhead_pct".into(), overhead * 100.0);
    if out.metrics["stack.self_ms"] < 0.0 {
        out.problems.push("probe time exceeds attack time: a probe double counts".into());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::victim::{self, Source};

    #[test]
    fn probes_forward_every_capability() {
        let v = victim::build(Source::Seeded, 3, 0).expect("builds");
        let board = v.board.expect("board");
        let noisy = UnreliableBoard::new(board, fpga_sim::FaultProfile::flaky(FAULT_SEED));
        for oracle in [&noisy as &dyn KeystreamOracle, noisy.inner()] {
            let probe = Probe::new(oracle);
            assert_eq!(probe.partial_capable(), oracle.partial_capable());
            assert_eq!(probe.fault_planning(), oracle.fault_planning());
            assert_eq!(probe.plan_read(0, 2).is_some(), oracle.plan_read(0, 2).is_some());
            assert_eq!(probe.state_snapshot().is_some(), oracle.state_snapshot().is_some());
        }
    }

    #[test]
    fn a_key_the_attack_cannot_recover_is_told_apart() {
        // Seed 159, victim 11 is the README's reproducer of the
        // attack's defect; once the attack recovers it, this reads None.
        let mut bad = victim::build(Source::Seeded, 159, 11).expect("builds");
        let reason = unrecoverable(&mut bad).expect("no wrong key");
        assert!(reason.is_some_and(|r| r.contains("keystream bits covered")));
        let mut good = victim::build(Source::Seeded, 159, 10).expect("builds");
        assert_eq!(unrecoverable(&mut good), Ok(None));
    }

    #[test]
    fn a_probed_attack_matches_the_plain_one_exactly() {
        let mut v = victim::build(Source::Seeded, 3, 1).expect("builds");
        for workload in [Workload::Composed, Workload::SerialFull] {
            let spec = spec_for(workload);
            let plain = attack(&spec, &mut v).expect("recovers");
            let again = attack(&spec, &mut v).expect("recovers");
            let probed = traced(&spec, &mut v).expect("recovers");
            assert_eq!(plain.counts, again.counts, "{workload:?}: counts repeat");
            assert_eq!(plain.counts, probed.attacked.counts, "{workload:?}: probes are inert");
            assert_eq!(probed.device.bytes, plain.counts.config_bytes, "{workload:?}");
            let m = layer_metrics(&probed, probe::FabricReplay::default(), 0.0);
            let sum = m["stack.self_ms"] + m["encrypted.self_ms"] + m["device.busy_ms"];
            assert!((sum - m["trace.attack_ms"]).abs() < 1e-6);
            assert!(m["stack.self_ms"] >= 0.0);
        }
    }
}
