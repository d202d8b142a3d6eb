//! The benchmark's workloads and metrics, by name — the one place
//! `BENCHMARK.json` is generated from.

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Serial, full loads, plaintext, clean board.
    SerialFull,
    /// Batch 64 × partial × encrypted, clean board.
    Composed,
    /// `Composed` on the noisy board with the adaptive policy.
    NoisyAdaptive,
    /// `Composed` sessions on an in-process fleet, closed batches.
    FleetComposed,
}

/// Every workload with its name and the reason it exists.
pub const WORKLOADS: [(Workload, &str, &str); 4] = [
    (
        Workload::SerialFull,
        "serial-full",
        "the paper's serial full-load run; the device is ~97% of it, so it is the control for \
         changes above the device",
    ),
    (
        Workload::Composed,
        "composed",
        "batch 64 x partial x encrypted, the attacker's real load path; software above the \
         device is ~45% here",
    ),
    (
        Workload::NoisyAdaptive,
        "noisy-adaptive",
        "composed on a faulty board with the adaptive policy; the only workload that runs \
         resilience, fault planning and the fault model",
    ),
    (
        Workload::FleetComposed,
        "fleet-composed",
        "closed batches of composed sessions on an in-process fleet with nproc workers; the \
         only workload with journals and attacks on several cores",
    ),
];

impl Workload {
    /// The workload called `name`.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        WORKLOADS.iter().find(|(_, n, _)| *n == name).map(|(w, _, _)| *w)
    }
}

/// An end-to-end metric: name, unit, the bound by which it may worsen
/// (share of the parent's median), and what it measures.
pub const END_TO_END: [(&str, &str, f64); 6] = [
    ("attack_s", "s", 0.2),
    ("sessions_per_s", "1/s", 0.2),
    ("loads_per_key", "count", 0.1),
    ("config_bytes_per_key", "bytes", 0.1),
    ("peak_rss_mb", "MB", 0.1),
    ("setup_s", "s", 0.25),
];

/// The phases the attack opens spans for, in order.
pub const PHASES: [&str; 6] = [
    "candidate-search",
    "z-path-verification",
    "feedback-hypothesis",
    "key-independent",
    "pair-disambiguation",
    "key-extraction",
];

/// Per-layer metrics other than the phase spans, with units.
pub const PER_LAYER: [(&str, &str); 46] = [
    // fpga_sim board/fabric/gang, seen at the device boundary.
    ("device.busy_ms", "ms"),
    ("device.share_pct", "%"),
    ("device.calls", "count"),
    ("device.items", "count"),
    ("device.full_items", "count"),
    ("device.partial_items", "count"),
    ("device.lanes_per_call", "count"),
    ("device.us_per_item", "us"),
    ("device.bytes", "bytes"),
    ("device.errors", "count"),
    ("device.plan_ms", "ms"),
    ("device.sim_us_per_item", "us"),
    // fpga_sim::fabric, replayed.
    ("fabric.decode_us", "us"),
    ("fabric.apply_partial_us", "us"),
    // bitmod::encrypted + bitstream::secure::patch.
    ("encrypted.self_ms", "ms"),
    ("encrypted.us_per_load", "us"),
    ("encrypted.setup_ms", "ms"),
    ("encrypted.loads", "count"),
    ("encrypted.blocks_reencrypted", "count"),
    ("encrypted.blocks_reused", "count"),
    ("encrypted.blocks_decrypted", "count"),
    ("encrypted.mac_bytes", "bytes"),
    ("sca.traces_collected", "count"),
    // bitmod::pr + bitstream::partial.
    ("pr.partial_loads", "count"),
    ("pr.full_loads", "count"),
    ("pr.frames_written", "count"),
    ("pr.bytes_shipped", "bytes"),
    ("partial.diff_us", "us"),
    // Everything between the session entry point and the probes.
    ("stack.self_ms", "ms"),
    // bitmod::findlut.
    ("scan.candidates", "count"),
    // bitmod::resilient + fpga_sim::unreliable.
    ("oracle.loads_per_query", "count"),
    ("oracle.retries", "count"),
    ("oracle.batches", "count"),
    ("oracle.lane_utilisation_pct", "%"),
    ("policy.escalations", "count"),
    ("board.faults.injected", "count"),
    ("board.faults.unobserved_gap", "count"),
    ("backoff_vms_per_key", "vms"),
    // bitmod::journal + bitmod::fleet.
    ("journal.writes", "count"),
    ("journal.bytes", "bytes"),
    ("fleet.worker_utilisation_pct", "%"),
    ("fleet.steal_count", "count"),
    // Victim build and the tracing itself.
    ("setup.board_build_ms", "ms"),
    ("victims.unrecoverable", "count"),
    ("trace.attack_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Every per-layer metric name with its unit, phases included.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|(n, u)| ((*n).to_string(), *u)).collect();
    for phase in PHASES {
        all.push((format!("phase.{phase}_ms"), "ms"));
        all.push((format!("phase.{phase}.loads"), "count"));
    }
    all
}

/// How long one run measures by default (`--seconds`). Longer runs
/// average out more of a shared host's speed swings; 25 s keeps the
/// 4 + 22 runs per workload of a two-set check near 50 minutes.
pub const RUN_SECONDS: u64 = 25;

/// The `BENCHMARK.json` this registry describes.
#[must_use]
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(_, name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, bound)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \
                 \"bound\": {bound}}}",
                better(name)
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|(name, unit)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better(name)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// Which direction is an improvement: throughputs, utilisation, lane
/// occupancy and block reuse are better higher; everything else is a
/// cost.
fn better(name: &str) -> &'static str {
    const HIGHER: [&str; 5] = [
        "sessions_per_s",
        "device.lanes_per_call",
        "oracle.lane_utilisation_pct",
        "fleet.worker_utilisation_pct",
        "encrypted.blocks_reused",
    ];
    if HIGHER.contains(&name) {
        "higher"
    } else {
        "lower"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn every_name_and_unit_is_legal_and_unique() {
        let mut names: Vec<String> = WORKLOADS.iter().map(|(_, n, _)| (*n).to_string()).collect();
        for (name, unit, bound) in END_TO_END {
            assert!(valid_unit(unit), "{unit}");
            assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
            names.push(name.to_string());
        }
        for (name, unit) in per_layer() {
            assert!(valid_unit(unit), "{unit}");
            names.push(name);
        }
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(per_layer().len() <= 128);
        for (_, _, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").expect("setup_s");
        assert_eq!((setup.1, better(setup.0)), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.2 <= setup.2));
    }

    #[test]
    fn committed_benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json(), "regenerate with --write-config BENCHMARK.json");
    }
}
