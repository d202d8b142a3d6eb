//! Fleet-layer integration tests: kill-and-steal recovery through the
//! work-stealing scheduler, the loopback line-protocol server/client
//! pair, and a SIGKILL'd `bitmod serve` process whose sessions resume
//! on restart.
//!
//! The central claim under test extends tests/resume.rs one layer up:
//! a session interrupted *by worker death* and stolen by a peer must
//! recover the key with effort totals bit-identical to an
//! uninterrupted serial run of the same spec — the fleet journals
//! write-ahead and the steal replays the exact query trace.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use bitmod::fleet::{
    ClientError, Endpoint, Fleet, FleetClient, FleetConfig, FleetServer, SessionHandle,
    SessionLayout, SessionOutcome, SessionSpec, SessionSpecBuilder, SessionState,
};
use bitmod::telemetry::{names, Metrics};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bitmod-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The attacker's real load path: 64-lane batches of frame-delta
/// partial loads sealed into the encrypted container.
fn composed() -> SessionSpecBuilder {
    SessionSpec::builder().batch(fpga_sim::GANG_LANES).partial(true).encrypted(true)
}

/// [`composed`] on a faulty board under the adaptive policy.
fn noisy_composed() -> SessionSpecBuilder {
    composed().noisy(true).adaptive(true).seed(7)
}

/// Counter `name` from the `summary` event closing a session's NDJSON
/// trace (0 when the summary does not carry it).
fn trace_counter(handle: &SessionHandle, name: &str) -> u64 {
    let trace = std::fs::read_to_string(handle.layout().trace()).expect("session trace readable");
    let summary = trace
        .lines()
        .rev()
        .find(|line| line.contains("\"ev\":\"summary\""))
        .unwrap_or_else(|| panic!("trace of {} ends without a summary event", handle.id()));
    let Some(rest) = summary.split(&format!("\"{name}\":")).nth(1) else { return 0 };
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().expect("counter value")
}

/// The configuration traffic a session's trace or metrics account.
const PR_COUNTERS: [&str; 3] =
    [names::PR_FULL_LOADS, names::PR_PARTIAL_LOADS, names::PR_BYTES_SHIPPED];

fn pr_totals(metrics: &Metrics) -> Vec<u64> {
    PR_COUNTERS.iter().map(|name| metrics.counter(name)).collect()
}

#[test]
fn a_killed_workers_session_is_stolen_and_resumes_to_serial_totals() {
    let spec = SessionSpec::builder().noisy(true).seed(7).build().expect("valid spec");

    // The ground truth: one uninterrupted serial run of the same spec.
    let baseline = spec.run_local().expect("serial baseline completes");
    let SessionOutcome::Recovered(serial_stats) = baseline.outcome else {
        panic!("serial baseline did not recover: {:?}", baseline.outcome);
    };

    let root = temp_root("steal");
    let fleet = Fleet::start(FleetConfig::new(&root).workers(2)).expect("fleet starts");
    let handle = fleet.submit(spec).expect("submits");

    // Wait for the first write-ahead checkpoint, then kill the worker
    // running the session mid-attack.
    let deadline = Instant::now() + Duration::from_secs(600);
    let worker = loop {
        assert!(Instant::now() < deadline, "session never wrote a journal checkpoint");
        let status = handle.status();
        assert!(
            !status.state.is_terminal(),
            "session finished before the kill could land ({})",
            status.state.as_str()
        );
        if handle.layout().journal().exists() {
            if let Some(worker) = status.worker {
                break worker;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    assert!(fleet.kill_worker(worker), "the kill switch reaches worker {worker}");

    let status = handle.wait_timeout(Duration::from_secs(600)).expect("session terminates");
    assert_eq!(status.state, SessionState::Recovered, "stolen session recovers ({})", status.note);
    assert!(status.steals >= 1, "the session changed hands");
    assert_eq!(
        status.stats, serial_stats,
        "stolen-and-resumed totals must be identical to the uninterrupted serial run"
    );
    assert!(handle.layout().result().exists(), "terminal result.json persisted");
    assert!(!handle.layout().journal().exists(), "journal removed after success");

    let counters = fleet.counters();
    assert!(counters.counter(names::FLEET_STEAL_COUNT) >= 1, "steal counted");
    assert!(counters.counter(names::FLEET_WORKERS_KILLED) >= 1, "worker death counted");
    assert!(counters.counter(names::FLEET_SESSIONS_RESUMED) >= 1, "resume-from-journal counted");
    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A fleet session runs the same oracle stack as a local run of its
/// spec: same effort totals and the same partial/full load split, on
/// a pooled board reused across sessions. The fleet's own counters add
/// up every session's configuration traffic.
#[test]
fn fleet_sessions_ship_the_same_frame_deltas_as_local_runs() {
    let dir = temp_root("parity");
    std::fs::create_dir_all(&dir).expect("test root");
    let mut expected = Vec::new();
    for (tag, builder) in [("clean", composed()), ("noisy", noisy_composed())] {
        let spec = builder.clone().build().expect("valid spec");
        let traced = builder.trace(dir.join(format!("local-{tag}.ndjson"))).build();
        let local = traced.expect("valid spec").run_local().expect("local run completes");
        let SessionOutcome::Recovered(stats) = &local.outcome else {
            panic!("local {tag} run did not recover: {:?}", local.outcome);
        };
        let traffic = pr_totals(&local.metrics);
        assert!(traffic[1] > 0, "the local {tag} run loads frame-deltas");
        expected.push((spec, stats.clone(), traffic));
    }

    let fleet = Fleet::start(FleetConfig::new(dir.join("fleet")).workers(1)).expect("starts");
    let mut submitted = Vec::new();
    for (spec, stats, traffic) in &expected {
        for _ in 0..2 {
            submitted.push((fleet.submit(spec.clone()).expect("submits"), stats, traffic));
        }
    }
    let mut sum = vec![0; PR_COUNTERS.len()];
    for (handle, stats, traffic) in &submitted {
        let status = handle.wait_timeout(Duration::from_secs(300)).expect("session terminates");
        assert_eq!(status.state, SessionState::Recovered, "{}: {}", status.id, status.note);
        assert_eq!(&&status.stats, stats, "{}: fleet totals equal the local run's", status.id);
        let fleet_traffic: Vec<u64> =
            PR_COUNTERS.iter().map(|name| trace_counter(handle, name)).collect();
        assert_eq!(
            &&fleet_traffic, traffic,
            "{}: the trace's full/partial/byte split equals the local run's",
            status.id
        );
        for (total, value) in sum.iter_mut().zip(&fleet_traffic) {
            *total += value;
        }
    }
    assert_eq!(
        pr_totals(&fleet.shutdown()),
        sum,
        "the fleet counters sum the sessions' own configuration traffic"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill-and-steal on the composed noisy path: the peer resumes the
/// session from its journal to the local run's totals, and its resumed
/// run ships frame-deltas again once a full load has re-based the
/// device image.
#[test]
fn a_stolen_composed_session_resumes_on_frame_deltas() {
    let spec = noisy_composed().build().expect("valid spec");
    let baseline = spec.run_local().expect("local baseline completes");
    let SessionOutcome::Recovered(local_stats) = baseline.outcome else {
        panic!("local baseline did not recover: {:?}", baseline.outcome);
    };

    // The batched session is short, so a kill can miss it; each try
    // runs on a fresh fleet until one lands mid-session.
    for attempt in 0..8 {
        let root = temp_root(&format!("steal-composed-{attempt}"));
        let fleet = Fleet::start(FleetConfig::new(&root).workers(2)).expect("fleet starts");
        let handle = fleet.submit(spec.clone()).expect("submits");
        let deadline = Instant::now() + Duration::from_secs(300);
        let worker = loop {
            assert!(Instant::now() < deadline, "session never wrote a journal checkpoint");
            let status = handle.status();
            if status.state.is_terminal() {
                break None;
            }
            if handle.layout().journal().exists() {
                break status.worker;
            }
            std::thread::yield_now();
        };
        if let Some(worker) = worker {
            assert!(fleet.kill_worker(worker), "the kill switch reaches worker {worker}");
        }
        let status = handle.wait_timeout(Duration::from_secs(300)).expect("session terminates");
        assert_eq!(status.state, SessionState::Recovered, "session recovers ({})", status.note);
        assert_eq!(status.stats, local_stats, "totals identical to the uninterrupted local run");
        let counters = fleet.shutdown();
        if status.steals == 0 {
            // Finished before the kill landed: try again.
            assert_eq!(counters.counter(names::FLEET_STEAL_COUNT), 0);
            let _ = std::fs::remove_dir_all(&root);
            continue;
        }
        assert!(counters.counter(names::FLEET_STEAL_COUNT) >= 1, "steal counted");
        assert!(counters.counter(names::FLEET_WORKERS_KILLED) >= 1, "worker death counted");
        assert!(counters.counter(names::FLEET_SESSIONS_RESUMED) >= 1, "resume counted");
        // The trace is rewritten by each run, so it holds the resumed
        // run alone.
        assert!(trace_counter(&handle, names::PR_FULL_LOADS) >= 1, "a full load re-bases");
        assert!(
            trace_counter(&handle, names::PR_PARTIAL_LOADS) > 0,
            "the resumed run ships frame-deltas"
        );
        let _ = std::fs::remove_dir_all(&root);
        return;
    }
    panic!("no kill landed mid-session in 8 tries");
}

#[test]
fn the_loopback_server_round_trips_the_line_protocol() {
    let root = temp_root("serve");
    let fleet = Fleet::start(FleetConfig::new(&root).workers(1)).expect("fleet starts");
    let server = FleetServer::bind(&Endpoint::parse("127.0.0.1:0"), fleet).expect("binds");
    let endpoint = server.endpoint().clone();
    let join = server.spawn();

    let mut client = FleetClient::connect(&endpoint).expect("connects");
    client.ping().expect("pong");

    let spec = SessionSpec::builder().batch(fpga_sim::GANG_LANES).build().expect("valid spec");
    let id = client.submit(&spec).expect("submits");
    assert!(id.starts_with('s'), "session ids are s-prefixed: {id}");

    // `tail` streams the worker's live NDJSON telemetry until the
    // session is terminal, then reports the terminal state.
    let mut tailed = Vec::new();
    let state = client.tail(&id, &mut tailed).expect("tails to completion");
    assert_eq!(state, "recovered");
    assert!(!tailed.is_empty(), "telemetry was streamed");

    let status = client.status(&id).expect("status");
    assert!(status.contains("\"state\":\"recovered\""), "unexpected status: {status}");
    let list = client.list().expect("list");
    assert!(list.contains(&id), "list carries the session: {list}");
    let counters = client.counters().expect("counters");
    assert!(counters.contains(names::FLEET_SESSIONS_DONE), "fleet counters exposed: {counters}");

    match client.cancel("s999999") {
        Err(ClientError::Server(message)) => {
            assert!(message.contains("unknown session"), "typed refusal: {message}");
        }
        other => panic!("cancelling an unknown id must fail on the server, got {other:?}"),
    }

    client.shutdown().expect("shutdown acknowledged");
    join.join().expect("server thread exits");
    let _ = std::fs::remove_dir_all(&root);
}

/// SIGKILLs a live `bitmod serve` daemon mid-session and asserts a
/// fresh daemon on the same root boot-scans the fleet directory and
/// resumes the orphaned session from its journal to key recovery.
#[cfg(unix)]
#[test]
fn a_sigkilled_daemon_resumes_its_sessions_on_restart() {
    use std::process::{Child, Command, Stdio};

    let root = temp_root("sigkill");
    std::fs::create_dir_all(&root).expect("test root");
    let fleet_root = root.join("fleet");
    let sock = |n: u32| root.join(format!("serve-{n}.sock"));

    let serve = |sock_path: &std::path::Path| -> Child {
        Command::new(env!("CARGO_BIN_EXE_bitmod"))
            .args([
                "serve",
                "--addr",
                &format!("unix:{}", sock_path.display()),
                "--root",
                &fleet_root.display().to_string(),
                "--workers",
                "1",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("bitmod serve spawns")
    };
    let connect = |sock_path: &std::path::Path| -> FleetClient {
        let endpoint = Endpoint::Unix(sock_path.to_path_buf());
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if let Ok(mut client) = FleetClient::connect(&endpoint) {
                if client.ping().is_ok() {
                    return client;
                }
            }
            assert!(Instant::now() < deadline, "server never came up on {}", sock_path.display());
            std::thread::sleep(Duration::from_millis(20));
        }
    };

    let mut first = serve(&sock(1));
    let mut client = connect(&sock(1));
    let spec = SessionSpec::builder().seed(3).build().expect("valid spec");
    let id = client.submit(&spec).expect("submits");

    // Wait for the session's first write-ahead checkpoint, then
    // SIGKILL the whole daemon — no drop handlers, no cleanup.
    let journal = SessionLayout::for_session(&fleet_root, &id).journal();
    let deadline = Instant::now() + Duration::from_secs(600);
    while !journal.exists() {
        assert!(Instant::now() < deadline, "session never journalled");
        let status = client.status(&id).expect("status");
        assert!(
            !status.contains("\"state\":\"recovered\""),
            "session finished before the SIGKILL could land"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    first.kill().expect("SIGKILL delivered");
    let _ = first.wait();

    let mut second = serve(&sock(2));
    let mut client = connect(&sock(2));
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        let status = client.status(&id).expect("status after restart");
        if status.contains("\"state\":\"recovered\"") {
            break;
        }
        for terminal in ["failed", "cancelled", "exhausted"] {
            assert!(
                !status.contains(&format!("\"state\":\"{terminal}\"")),
                "resumed session must recover, ended: {status}"
            );
        }
        assert!(Instant::now() < deadline, "resumed session never finished");
        std::thread::sleep(Duration::from_millis(50));
    }
    client.shutdown().expect("clean shutdown");
    let _ = second.wait();
    let _ = std::fs::remove_dir_all(&root);
}
