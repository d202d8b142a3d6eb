//! The fleet workload: closed batches of composed sessions on an
//! in-process [`Fleet`] with one worker per core — submit a batch,
//! wait for the fleet to go idle, repeat.
//!
//! Fleet workers build their own boards (the ETSI Test Set 1 victim)
//! and wrap them in their own oracles, so the benchmark cannot probe
//! the device here. Everything per session is read from the NDJSON
//! trace and the journal the fleet writes for each session anyway. For
//! the same reason the benchmark seed has nothing to vary here: every
//! session attacks the same victim on a clean board.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bitmod::fleet::{Fleet, FleetConfig, SessionHandle, SessionState};
use bitmod::telemetry::names;
use fpga_sim::{ImplementOptions, Snow3gBoard};
use netlist::snow3g_circuit::Snow3gCircuitConfig;
use snow3g::vectors::{TEST_SET_1_IV, TEST_SET_1_KEY};

use crate::attack::{spec_for, Outcome};
use crate::ndjson;
use crate::registry::{Workload, PHASES};
use crate::stats;

/// Fleet set-ups timed for `setup_s`: the serving fleet's and the rest
/// paced between batches over the run (see `SETUP_SAMPLES` in
/// `main.rs` for why).
const SET_UPS: usize = 60;

/// A batch holds this many sessions per worker.
const SESSIONS_PER_WORKER: usize = 4;

/// Peak memory is read after this many measured batches. The fleet
/// keeps every finished session's telemetry in memory, so its
/// footprint grows with the sessions served; a fixed session count
/// keeps the figure independent of how fast the host ran.
const RSS_BATCHES: usize = 4;

/// No batch may take longer than this.
const BATCH_TIMEOUT: Duration = Duration::from_secs(150);

/// One finished session as its trace and status report it.
struct Session {
    attack_s: f64,
    loads: u64,
    trace: ndjson::TraceSummary,
}

/// Reads back a finished session; `Err` unless it recovered the key.
fn collect(handle: &SessionHandle) -> Result<Session, String> {
    let status = handle.status();
    if status.state != SessionState::Recovered {
        return Err(format!(
            "session {} ended {}: {}",
            status.id,
            status.state.as_str(),
            status.note
        ));
    }
    let text = std::fs::read_to_string(handle.layout().trace())
        .map_err(|e| format!("session {} trace: {e}", status.id))?;
    let trace = ndjson::summarise(&text);
    let attack_us = trace.attack_us.ok_or(format!("session {} has no attack span", status.id))?;
    Ok(Session { attack_s: attack_us as f64 / 1e6, loads: status.stats.physical, trace })
}

/// A fresh directory for this run's fleet roots, inside the working
/// directory.
fn work_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".perfbench-work").join(format!("fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn remove_work_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// Runs the fleet workload for `seconds` and reports its end-to-end
/// (untraced) or per-layer (traced) metrics.
pub fn run(seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let dir = match work_dir() {
        Ok(dir) => dir,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };
    if let Err(e) = run_in(&dir, seconds, traced, &mut out) {
        out.problems.push(e);
    }
    remove_work_dir(&dir);
    out
}

/// The victim every worker builds before its first session, and its
/// golden bitstream's length.
fn build_worker_board() -> Result<u64, String> {
    let board = Snow3gBoard::build(
        Snow3gCircuitConfig::unprotected(TEST_SET_1_KEY, TEST_SET_1_IV),
        &ImplementOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    Ok(board.extract_bitstream().len() as u64)
}

/// One timed set-up: `Fleet::start` on a fresh root plus the board
/// build its workers run in parallel before their first session, i.e.
/// the time until a fleet can attack. `Fleet::start` alone takes a
/// tenth of a millisecond of syscalls and thread spawns, too little to
/// compare across runs. Returns the fleet, the set-up and build seconds,
/// and the golden bitstream's length.
fn set_up(root: PathBuf) -> Result<(Fleet, f64, f64, u64), String> {
    let t0 = Instant::now();
    let fleet = Fleet::start(FleetConfig::new(root)).map_err(|e| format!("fleet start: {e}"))?;
    let t1 = Instant::now();
    let golden_len = build_worker_board()?;
    Ok((fleet, t0.elapsed().as_secs_f64(), t1.elapsed().as_secs_f64(), golden_len))
}

fn run_in(dir: &Path, seconds: f64, traced: bool, out: &mut Outcome) -> Result<(), String> {
    let (fleet, secs, build_s, golden_len) = set_up(dir.join("root-0"))?;
    let (mut starts, mut builds) = (vec![secs], vec![build_s]);
    let mut more_set_ups = |progress: f64| -> Result<(), String> {
        let due = 1 + (progress.min(1.0) * (SET_UPS - 1) as f64) as usize;
        while starts.len() < due {
            let (extra, secs, build_s, _) = set_up(dir.join(format!("root-{}", starts.len())))?;
            extra.shutdown();
            starts.push(secs);
            builds.push(build_s);
        }
        Ok(())
    };
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let spec = spec_for(Workload::FleetComposed);
    let batch = |n: usize| -> Result<(Vec<SessionHandle>, f64), String> {
        let t0 = Instant::now();
        let mut handles = Vec::with_capacity(n);
        for _ in 0..n {
            handles.push(fleet.submit(spec.clone()).map_err(|e| format!("submit: {e}"))?);
        }
        if !fleet.wait_idle(BATCH_TIMEOUT) {
            return Err("fleet did not go idle within the batch timeout".into());
        }
        Ok((handles, t0.elapsed().as_secs_f64()))
    };

    // Warm-up: every worker builds its board on its first session.
    let (warm, _) = batch(workers)?;
    out.attempted += warm.len() as u64;
    for handle in &warm {
        if let Err(e) = collect(handle) {
            out.failed += 1;
            out.problems.push(e);
        }
    }

    let mut sessions = Vec::new();
    let (mut recovered, mut wall, mut batches, mut rss_mb) = (0usize, 0.0, 0, 0.0);
    let start = Instant::now();
    while batches < RSS_BATCHES || start.elapsed().as_secs_f64() < seconds {
        let (handles, secs) = batch(workers * SESSIONS_PER_WORKER)?;
        batches += 1;
        if batches == RSS_BATCHES {
            rss_mb = crate::peak_rss_mb();
        }
        more_set_ups(start.elapsed().as_secs_f64() / seconds)?;
        out.attempted += handles.len() as u64;
        wall += secs;
        for handle in &handles {
            match collect(handle) {
                Ok(s) => {
                    recovered += 1;
                    sessions.push(s);
                }
                Err(e) => {
                    out.failed += 1;
                    out.problems.push(e);
                }
            }
        }
    }
    more_set_ups(1.0)?;
    let counters = fleet.shutdown();
    out.samples = sessions.iter().map(|s| s.attack_s).collect();
    let build_ms = stats::median(&builds).unwrap_or(0.0) * 1e3;

    let mean = |f: &dyn Fn(&Session) -> f64| {
        sessions.iter().map(f).sum::<f64>() / sessions.len().max(1) as f64
    };
    let m = &mut out.metrics;
    if traced {
        m.insert("journal.writes".into(), mean(&|s| s.trace.journal_writes as f64));
        m.insert("journal.bytes".into(), mean(&|s| s.trace.journal_bytes as f64));
        let util = counters.histogram(names::FLEET_WORKER_UTILISATION_PCT).and_then(|h| h.mean());
        m.insert("fleet.worker_utilisation_pct".into(), util.unwrap_or(0.0));
        m.insert("fleet.steal_count".into(), counters.counter(names::FLEET_STEAL_COUNT) as f64);
        m.insert("scan.candidates".into(), mean(&|s| s.trace.candidates as f64));
        for phase in PHASES {
            let key = format!("phase:{phase}");
            let span = |s: &Session| s.trace.spans.get(&key).copied().unwrap_or((0, 0));
            let ms: Vec<f64> = sessions.iter().map(|s| span(s).0 as f64 / 1e3).collect();
            m.insert(format!("phase.{phase}_ms"), stats::median(&ms).unwrap_or(0.0));
            m.insert(format!("phase.{phase}.loads"), mean(&|s| span(s).1 as f64));
        }
        m.insert("trace.attack_ms".into(), stats::median(&out.samples).unwrap_or(0.0) * 1e3);
        m.insert("setup.board_build_ms".into(), build_ms);
    } else {
        m.insert("attack_s".into(), stats::median(&out.samples).unwrap_or(0.0));
        m.insert("sessions_per_s".into(), recovered as f64 / f64::max(wall, 1e-9));
        m.insert("loads_per_key".into(), mean(&|s| s.loads as f64));
        // Fleet workers ship full images: their kill-switch gate does
        // not forward the partial-reconfiguration port, so the delta
        // layer stays off. The bytes follow from the load count.
        m.insert("config_bytes_per_key".into(), mean(&|s| (s.loads * golden_len) as f64));
        m.insert("setup_s".into(), stats::median(&starts).unwrap_or(0.0));
        m.insert("peak_rss_mb".into(), rss_mb);
    }
    Ok(())
}
