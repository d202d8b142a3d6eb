//! A forwarding [`KeystreamOracle`] that times and counts every call
//! into the oracle below it, optionally keeping the loads it carried
//! for the fabric replay.
//!
//! The probe forwards all twelve trait methods. A wrapper that left
//! one at its trait default would silently change the program: with
//! `partial_capable` defaulted, delta loading switches off and the
//! attack ships full images; with `fault_planning` defaulted, noisy
//! batches fall back to the serial loop. The benchmark's self-check
//! compares every probed attack against an unprobed one to catch
//! exactly that.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use bitmod::{KeystreamOracle, OracleError};
use bitstream::{Bitstream, PartialBitstream};
use fpga_sim::ReadPlan;

/// One load-carrying call as the probe saw it.
#[derive(Debug, Clone)]
pub enum Load {
    /// A single full configuration.
    Full(Bitstream),
    /// A batch of full configurations (the board decodes it
    /// differentially).
    FullBatch(Vec<Bitstream>),
    /// A partial-reconfiguration chain, applied in order.
    Partial(Vec<PartialBitstream>),
}

/// What the probe accumulated.
#[derive(Debug, Clone, Default)]
pub struct ProbeStats {
    /// Time spent inside every forwarded call.
    pub busy: Duration,
    /// The part of `busy` spent planning, committing and resolving
    /// fault plans.
    pub plan: Duration,
    /// Calls forwarded.
    pub calls: u64,
    /// Calls that carried loads.
    pub load_calls: u64,
    /// Full configurations carried.
    pub full_items: u64,
    /// Partial-reconfiguration streams carried.
    pub partial_items: u64,
    /// Configuration bytes carried.
    pub bytes: u64,
    /// Results that came back as errors.
    pub errors: u64,
}

impl ProbeStats {
    /// Loads carried, of either kind.
    #[must_use]
    pub fn items(&self) -> u64 {
        self.full_items + self.partial_items
    }
}

/// Keeps loads for replay until `budget` bytes are held.
struct Recorder {
    budget: usize,
    held: usize,
    loads: Vec<Load>,
}

/// The forwarding, timing probe.
pub struct Probe<'a> {
    inner: &'a dyn KeystreamOracle,
    stats: Mutex<ProbeStats>,
    recorder: Option<Mutex<Recorder>>,
}

impl<'a> Probe<'a> {
    /// A probe over `inner` that only times and counts.
    #[must_use]
    pub fn new(inner: &'a dyn KeystreamOracle) -> Self {
        Self { inner, stats: Mutex::new(ProbeStats::default()), recorder: None }
    }

    /// A probe that also keeps the loads it carries, up to `budget`
    /// configuration bytes. Copying happens outside the timed region.
    #[must_use]
    pub fn recording(inner: &'a dyn KeystreamOracle, budget: usize) -> Self {
        let recorder = Recorder { budget, held: 0, loads: Vec::new() };
        Self { recorder: Some(Mutex::new(recorder)), ..Self::new(inner) }
    }

    /// A snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> ProbeStats {
        self.stats.lock().expect("probe lock").clone()
    }

    /// The recorded loads, in call order.
    #[must_use]
    pub fn into_loads(self) -> Vec<Load> {
        self.recorder.map(|r| r.into_inner().expect("recorder lock").loads).unwrap_or_default()
    }

    /// Times one forwarded call that carries no loads.
    fn plain<R>(&self, planning: bool, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed();
        let mut s = self.stats.lock().expect("probe lock");
        s.busy += dt;
        s.calls += 1;
        if planning {
            s.plan += dt;
        }
        out
    }

    /// Times one forwarded load-carrying call and books its items.
    fn loads<T>(
        &self,
        full: u64,
        partial: u64,
        bytes: u64,
        errors: impl FnOnce(&T) -> u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed();
        let mut s = self.stats.lock().expect("probe lock");
        s.busy += dt;
        s.calls += 1;
        s.load_calls += 1;
        s.full_items += full;
        s.partial_items += partial;
        s.bytes += bytes;
        s.errors += errors(&out);
        out
    }

    fn record(&self, bytes: usize, load: impl FnOnce() -> Load) {
        let Some(recorder) = &self.recorder else { return };
        let mut r = recorder.lock().expect("recorder lock");
        if r.held + bytes <= r.budget {
            r.held += bytes;
            r.loads.push(load());
        }
    }
}

fn one_err<T>(r: &Result<T, OracleError>) -> u64 {
    u64::from(r.is_err())
}

fn batch_errs<T>(rs: &[Result<T, OracleError>]) -> u64 {
    rs.iter().filter(|r| r.is_err()).count() as u64
}

fn full_bytes(bitstreams: &[Bitstream]) -> usize {
    bitstreams.iter().map(Bitstream::len).sum()
}

fn partial_bytes(partials: &[PartialBitstream]) -> usize {
    partials.iter().map(PartialBitstream::len).sum()
}

impl KeystreamOracle for Probe<'_> {
    fn keystream(&self, bitstream: &Bitstream, words: usize) -> Result<Vec<u32>, OracleError> {
        let len = bitstream.len();
        let out = self.loads(1, 0, len as u64, one_err, || self.inner.keystream(bitstream, words));
        self.record(len, || Load::Full(bitstream.clone()));
        out
    }

    fn keystream_batch(
        &self,
        bitstreams: &[Bitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        let len = full_bytes(bitstreams);
        let n = bitstreams.len() as u64;
        let out = self.loads(
            n,
            0,
            len as u64,
            |r: &Vec<_>| batch_errs(r),
            || self.inner.keystream_batch(bitstreams, words),
        );
        self.record(len, || Load::FullBatch(bitstreams.to_vec()));
        out
    }

    fn state_snapshot(&self) -> Option<Vec<u8>> {
        self.plain(false, || self.inner.state_snapshot())
    }

    fn restore_state(&self, state: &[u8]) -> Result<(), OracleError> {
        self.plain(false, || self.inner.restore_state(state))
    }

    fn fault_planning(&self) -> bool {
        self.inner.fault_planning()
    }

    fn plan_read(&self, ahead: u64, words: usize) -> Option<ReadPlan> {
        self.plain(true, || self.inner.plan_read(ahead, words))
    }

    fn commit_reads(&self, plans: &[ReadPlan]) {
        self.plain(true, || self.inner.commit_reads(plans));
    }

    fn keystream_batch_clean(
        &self,
        bitstreams: &[Bitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        let len = full_bytes(bitstreams);
        let n = bitstreams.len() as u64;
        let out = self.loads(
            n,
            0,
            len as u64,
            |r: &Vec<_>| batch_errs(r),
            || self.inner.keystream_batch_clean(bitstreams, words),
        );
        self.record(len, || Load::FullBatch(bitstreams.to_vec()));
        out
    }

    fn resolve_plan(
        &self,
        plan: &ReadPlan,
        clean: Result<Vec<u32>, OracleError>,
        want: usize,
    ) -> Result<Vec<u32>, OracleError> {
        let out = self.plain(true, || self.inner.resolve_plan(plan, clean, want));
        if out.is_err() {
            self.stats.lock().expect("probe lock").errors += 1;
        }
        out
    }

    fn partial_capable(&self) -> bool {
        self.inner.partial_capable()
    }

    fn keystream_partial(
        &self,
        partial: &PartialBitstream,
        words: usize,
    ) -> Result<Vec<u32>, OracleError> {
        let len = partial.len();
        let out =
            self.loads(0, 1, len as u64, one_err, || self.inner.keystream_partial(partial, words));
        self.record(len, || Load::Partial(vec![partial.clone()]));
        out
    }

    fn keystream_partial_batch_clean(
        &self,
        partials: &[PartialBitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        let len = partial_bytes(partials);
        let n = partials.len() as u64;
        let out = self.loads(
            0,
            n,
            len as u64,
            |r: &Vec<_>| batch_errs(r),
            || self.inner.keystream_partial_batch_clean(partials, words),
        );
        self.record(len, || Load::Partial(partials.to_vec()));
        out
    }
}

/// Per-item fabric costs from replaying recorded loads against the
/// device model outside any attack.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricReplay {
    /// Mean µs to decode one full configuration (differentially
    /// within a batch, as the board does).
    pub decode_us: f64,
    /// Mean µs to apply one partial stream to the on-device image.
    pub apply_partial_us: f64,
    /// Full configurations replayed.
    pub full_items: u64,
    /// Partial streams replayed.
    pub partial_items: u64,
}

/// Replays `loads` through [`fpga_sim::Fpga::decode_lut_inits`] (single
/// loads), [`fpga_sim::Fpga::decode_lut_inits_batch`] (batches) and
/// [`fpga_sim::Fpga::apply_partial_base`] (partial chains, against the
/// image of the last accepted single full load), timing only those
/// calls. Base tracking mirrors the board: a full batch or a refused
/// partial drops the image, and partials without an image are skipped.
#[must_use]
pub fn replay_fabric(fpga: &fpga_sim::Fpga, loads: &[Load]) -> FabricReplay {
    let mut out = FabricReplay::default();
    let (mut decode, mut apply) = (Duration::ZERO, Duration::ZERO);
    let mut base = None;
    for load in loads {
        match load {
            Load::Full(bs) => {
                let t0 = Instant::now();
                let inits = fpga.decode_lut_inits(bs);
                decode += t0.elapsed();
                out.full_items += 1;
                if inits.is_ok() {
                    base = fpga.decode_with_frames(bs).ok();
                }
            }
            Load::FullBatch(batch) => {
                let t0 = Instant::now();
                let decoded = fpga.decode_lut_inits_batch(batch);
                decode += t0.elapsed();
                out.full_items += decoded.len() as u64;
                base = None;
            }
            Load::Partial(chain) => {
                for partial in chain {
                    let Some((frames, inits)) = base.as_mut() else { break };
                    let t0 = Instant::now();
                    let applied = fpga.apply_partial_base(frames, inits, partial);
                    apply += t0.elapsed();
                    out.partial_items += 1;
                    if applied.is_err() {
                        base = None;
                    }
                }
            }
        }
    }
    let per = |d: Duration, n: u64| if n == 0 { 0.0 } else { d.as_secs_f64() * 1e6 / n as f64 };
    out.decode_us = per(decode, out.full_items);
    out.apply_partial_us = per(apply, out.partial_items);
    out
}
