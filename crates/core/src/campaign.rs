//! Supervised multi-run attack campaigns.
//!
//! A robustness experiment (EXPERIMENTS.md) is not one attack but a
//! *grid* of them — noise profiles × seeds — and the grid is where
//! durability problems compound: one cell panicking must not take
//! down the sweep, an operator must be able to stop a campaign
//! cleanly between (or inside) cells, a runaway cell must not starve
//! the rest, and a killed campaign must restart at the first
//! incomplete cell instead of re-running hours of finished ones.
//!
//! The [`Campaign`] engine supervises each cell:
//!
//! * **panic isolation** — every cell runs under
//!   [`std::panic::catch_unwind`]; a panicking cell becomes a
//!   [`CellOutcome::Panicked`] row and the campaign continues;
//! * **cooperative cancellation** — a shared [`CancelToken`] is
//!   checked between cells and, through [`CellSupervisor::supervise`],
//!   at every oracle query inside a cell;
//! * **per-cell deadlines** — a wall-clock budget enforced at the
//!   same oracle chokepoint (the virtual-clock analogue is
//!   [`crate::resilient::ResilienceConfig::with_deadline_ms`]);
//! * **write-ahead results journal** — after each completed cell the
//!   full result list is atomically rewritten (same temp-file +
//!   `sync_all` + rename discipline as [`crate::journal`]), guarded
//!   by a fingerprint of the cell grid, so a resumed campaign skips
//!   exactly the cells that finished.
//!
//! Cancelled cells are deliberately *not* journalled: cancellation is
//! an operator pause, and the next run should pick those cells up
//! again.

use core::fmt;
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bitstream::Bitstream;

use crate::journal::{frame, unframe, write_atomic, Dec, Enc, JournalError};
use crate::oracle::{KeystreamOracle, OracleError};
use crate::telemetry::{names, Metrics, Telemetry};

/// The 8-byte campaign-journal file magic.
pub const CAMPAIGN_MAGIC: [u8; 8] = *b"BMODCAMP";

/// The current campaign-journal format version.
pub const CAMPAIGN_VERSION: u16 = 1;

/// A cooperative cancellation flag shared between the campaign runner
/// and whoever supervises it (a signal handler, a watchdog thread, a
/// test). Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
    /// A fleet worker's kill switch, observed alongside the flag: the
    /// worker threads it into the session's token so a kill lands at
    /// the same supervision chokepoint as a cancel.
    kill: Option<Arc<AtomicBool>>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// This token, additionally stopped by `kill`.
    pub(crate) fn observing_kill(mut self, kill: Arc<AtomicBool>) -> Self {
        self.kill = Some(kill);
        self
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested (or an observed kill
    /// switch flipped).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.stop_reason().is_some()
    }

    /// Why the token says stop, if it does.
    fn stop_reason(&self) -> Option<&'static str> {
        if self.cancelled.load(Ordering::Relaxed) {
            Some("campaign cancelled")
        } else if self.kill.as_ref().is_some_and(|kill| kill.load(Ordering::SeqCst)) {
            Some("worker killed")
        } else {
            None
        }
    }
}

/// Physical-query accounting for one cell, mirroring the columns of
/// the noise-sweep table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellStats {
    /// Physical bitstream loads the board saw.
    pub physical: u64,
    /// Logical keystream queries the attack issued.
    pub logical: u64,
    /// Transient errors absorbed by the retry layer.
    pub retries: u64,
    /// Virtual milliseconds spent backing off.
    pub backoff_ms: u64,
}

/// How one cell ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// The attack recovered the expected key.
    Recovered(CellStats),
    /// The cell ran to completion but did not recover the key; the
    /// note carries the typed failure (empty when the attack finished
    /// with a wrong key).
    Failed {
        /// Accounting up to the failure, when available.
        stats: CellStats,
        /// The typed error, or empty for a wrong-key completion.
        note: String,
    },
    /// The cell panicked; the campaign caught it and moved on.
    Panicked {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The campaign was cancelled before or during this cell. Never
    /// journalled: a resumed campaign re-runs cancelled cells.
    Cancelled,
}

impl CellOutcome {
    /// Whether this cell recovered the key.
    #[must_use]
    pub fn recovered(&self) -> bool {
        matches!(self, CellOutcome::Recovered(_))
    }
}

impl fmt::Display for CellOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellOutcome::Recovered(_) => write!(f, "recovered"),
            CellOutcome::Failed { note, .. } if note.is_empty() => write!(f, "failed"),
            CellOutcome::Failed { note, .. } => write!(f, "failed: {note}"),
            CellOutcome::Panicked { message } => write!(f, "panicked: {message}"),
            CellOutcome::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// One row of a campaign report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// The cell's label (also its identity in the journal).
    pub label: String,
    /// How the cell ended.
    pub outcome: CellOutcome,
    /// Whether the outcome was replayed from the journal rather than
    /// run in this process.
    pub resumed: bool,
}

/// The end-of-run summary: one record per grid cell, in grid order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// Per-cell outcomes, one per grid cell that was reached.
    pub cells: Vec<CellRecord>,
    /// Telemetry rollup across the cells that ran in this process:
    /// every cell's metrics folded together with the associative
    /// [`Metrics::merge`] (journal-replayed cells contribute
    /// nothing — their effort was spent in the earlier process).
    pub metrics: Metrics,
}

impl CampaignReport {
    /// Cells that recovered the key.
    #[must_use]
    pub fn recovered_count(&self) -> usize {
        self.cells.iter().filter(|c| c.outcome.recovered()).count()
    }

    /// Cells replayed from the journal.
    #[must_use]
    pub fn resumed_count(&self) -> usize {
        self.cells.iter().filter(|c| c.resumed).count()
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self.cells.iter().map(|c| c.label.len()).max().unwrap_or(4).max(4);
        writeln!(f, "{:width$} | outcome", "cell")?;
        for cell in &self.cells {
            let resumed = if cell.resumed { " (journalled)" } else { "" };
            writeln!(f, "{:width$} | {}{resumed}", cell.label, cell.outcome)?;
        }
        write!(
            f,
            "{}/{} recovered, {} resumed from journal",
            self.recovered_count(),
            self.cells.len(),
            self.resumed_count()
        )
    }
}

/// A campaign-level failure. Cell-level failures are *outcomes*, not
/// errors; this type covers the harness itself (journal I/O or a
/// journal recorded against a different grid).
#[derive(Debug)]
#[non_exhaustive]
pub enum CampaignError {
    /// The campaign journal could not be read, decoded or written.
    Journal(JournalError),
    /// The journal was recorded against a different cell grid.
    GridMismatch {
        /// Fingerprint stored in the journal.
        journalled: u64,
        /// Fingerprint of the grid offered for resume.
        computed: u64,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Journal(e) => write!(f, "campaign journal: {e}"),
            CampaignError::GridMismatch { journalled, computed } => write!(
                f,
                "campaign journal records a different cell grid \
                 (fingerprint {journalled:#018x}, this grid is {computed:#018x})"
            ),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Journal(e) => Some(e),
            CampaignError::GridMismatch { .. } => None,
        }
    }
}

impl From<JournalError> for CampaignError {
    fn from(e: JournalError) -> Self {
        CampaignError::Journal(e)
    }
}

/// The per-cell supervision handle passed to each cell closure. Wrap
/// the cell's oracle with [`CellSupervisor::supervise`] so
/// cancellation and the wall-clock deadline take effect at every
/// query, not just between cells.
#[derive(Debug)]
pub struct CellSupervisor {
    cancel: CancelToken,
    deadline: Option<Instant>,
    telemetry: Telemetry,
}

impl CellSupervisor {
    /// A free-standing supervisor over an explicit token, deadline
    /// and recorder. The campaign engine builds these internally per
    /// cell; the session facade and fleet workers build them directly
    /// so every execution path shares the same oracle chokepoint.
    #[must_use]
    pub fn new(cancel: CancelToken, deadline: Option<Instant>, telemetry: Telemetry) -> Self {
        Self { cancel, deadline, telemetry }
    }

    /// Whether campaign cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// The cooperative cancel token this supervisor enforces — what a
    /// cell passes into the session facade so one token stops both
    /// layers.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The wall-clock deadline this supervisor enforces, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// This cell's telemetry recorder. Pass it to
    /// [`crate::attack::Attack::instrumented`] (or record into it
    /// directly) and the campaign folds the cell's metrics into the
    /// report rollup when the cell completes.
    #[must_use]
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// Wraps an oracle so every query first checks the cancellation
    /// token (and the kill switch it observes, on a fleet worker) and
    /// this cell's wall-clock deadline. All surface as the
    /// non-transient [`OracleError::Rejected`], which the resilience
    /// layer aborts on immediately instead of retrying.
    #[must_use]
    pub fn supervise<'a>(&'a self, inner: &'a dyn KeystreamOracle) -> SupervisedOracle<'a> {
        SupervisedOracle {
            inner,
            cancel: self.cancel.clone(),
            deadline: self.deadline,
            telemetry: self.telemetry.clone(),
        }
    }
}

/// An oracle wrapper that enforces campaign supervision at the query
/// chokepoint. See [`CellSupervisor::supervise`].
pub struct SupervisedOracle<'a> {
    inner: &'a dyn KeystreamOracle,
    cancel: CancelToken,
    deadline: Option<Instant>,
    telemetry: Telemetry,
}

impl SupervisedOracle<'_> {
    /// Counts one supervised call and returns why it is refused — the
    /// token (cancel or an observed kill) or this cell's wall-clock
    /// deadline — if it is.
    fn refusal(&self) -> Option<OracleError> {
        self.telemetry.incr(names::SUPERVISED_CALLS, 1);
        let reason = self.cancel.stop_reason().or_else(|| {
            self.deadline
                .is_some_and(|deadline| Instant::now() > deadline)
                .then_some("cell wall-clock deadline exceeded")
        })?;
        self.telemetry.incr(names::SUPERVISED_REJECTIONS, 1);
        Some(OracleError::Rejected(reason.into()))
    }

    /// [`SupervisedOracle::refusal`] for a batch: one check, every
    /// lane refused alike.
    fn batch_refusal(&self, lanes: usize) -> Option<Vec<Result<Vec<u32>, OracleError>>> {
        self.refusal().map(|e| vec![Err(e); lanes])
    }
}

impl KeystreamOracle for SupervisedOracle<'_> {
    fn keystream(&self, bitstream: &Bitstream, words: usize) -> Result<Vec<u32>, OracleError> {
        match self.refusal() {
            Some(e) => Err(e),
            None => self.inner.keystream(bitstream, words),
        }
    }

    /// Batches pass through to the inner oracle's wide path (the
    /// 64-lane gang simulator) after one supervision check — the
    /// whole batch is one device pass, so cancellation cannot land
    /// between its lanes any more than it could land mid-keystream.
    fn keystream_batch(
        &self,
        bitstreams: &[Bitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        self.batch_refusal(bitstreams.len())
            .unwrap_or_else(|| self.inner.keystream_batch(bitstreams, words))
    }

    fn state_snapshot(&self) -> Option<Vec<u8>> {
        self.inner.state_snapshot()
    }

    fn restore_state(&self, state: &[u8]) -> Result<(), OracleError> {
        self.inner.restore_state(state)
    }

    // Fault planning forwards verbatim: plans and clean reads carry
    // no supervision of their own because the *committing* call paths
    // above already gate every batch, and a cancellation that lands
    // between planning and commit surfaces on the next supervised
    // query exactly as it would between two serial queries.
    fn fault_planning(&self) -> bool {
        self.inner.fault_planning()
    }

    fn plan_read(&self, ahead: u64, words: usize) -> Option<fpga_sim::ReadPlan> {
        self.inner.plan_read(ahead, words)
    }

    fn commit_reads(&self, plans: &[fpga_sim::ReadPlan]) {
        self.inner.commit_reads(plans);
    }

    fn keystream_batch_clean(
        &self,
        bitstreams: &[Bitstream],
        words: usize,
    ) -> Vec<Result<Vec<u32>, OracleError>> {
        self.batch_refusal(bitstreams.len())
            .unwrap_or_else(|| self.inner.keystream_batch_clean(bitstreams, words))
    }

    fn resolve_plan(
        &self,
        plan: &fpga_sim::ReadPlan,
        clean: Result<Vec<u32>, OracleError>,
        want: usize,
    ) -> Result<Vec<u32>, OracleError> {
        self.inner.resolve_plan(plan, clean, want)
    }
}

/// The supervised multi-run campaign engine. Configure, then
/// [`Campaign::run`] a closure once per grid cell.
#[derive(Debug, Clone, Default)]
pub struct Campaign {
    journal: Option<PathBuf>,
    cell_deadline: Option<Duration>,
    cancel: CancelToken,
    telemetry: Telemetry,
}

impl Campaign {
    /// A campaign with no journal, no deadline and a fresh token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Persists completed cells to `path` (write-ahead, atomic) and
    /// resumes from it when it already exists.
    #[must_use]
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// A wall-clock budget applied to each cell individually.
    #[must_use]
    pub fn with_cell_deadline(mut self, deadline: Duration) -> Self {
        self.cell_deadline = Some(deadline);
        self
    }

    /// Shares an externally owned cancellation token (e.g. one a
    /// signal handler flips).
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// A clone of the campaign's cancellation token.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Streams campaign-level telemetry (one `cell` event per live
    /// cell, carrying its merged metrics) into `telemetry`. The
    /// per-cell rollup in [`CampaignReport::metrics`] works with or
    /// without this.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Runs the campaign: `cell(i, supervisor)` once per label, in
    /// order, each under panic isolation. With a journal configured,
    /// previously completed cells are replayed from disk instead of
    /// re-run, and each newly completed cell is persisted before the
    /// next starts.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Journal`] on journal I/O or decode failure;
    /// [`CampaignError::GridMismatch`] when an existing journal was
    /// recorded against a different label list.
    pub fn run<F>(&self, labels: &[String], mut cell: F) -> Result<CampaignReport, CampaignError>
    where
        F: FnMut(usize, &CellSupervisor) -> CellOutcome,
    {
        let fingerprint = grid_fingerprint(labels);
        let mut cells: Vec<CellRecord> = self
            .load_journal(labels, fingerprint)?
            .into_iter()
            .map(|(label, outcome)| CellRecord { label, outcome, resumed: true })
            .collect();
        let mut rollup = Metrics::new();

        for (i, label) in labels.iter().enumerate().skip(cells.len()) {
            if self.cancel.is_cancelled() {
                cells.extend(labels[i..].iter().map(|label| CellRecord {
                    label: clone_label(label),
                    outcome: CellOutcome::Cancelled,
                    resumed: false,
                }));
                break;
            }
            // Every cell gets a live recorder regardless of whether
            // campaign-level tracing is on: the rollup in the report
            // must not depend on `--trace`.
            let supervisor = CellSupervisor {
                cancel: self.cancel.clone(),
                deadline: self.cell_deadline.map(|d| Instant::now() + d),
                telemetry: Telemetry::new(),
            };
            let outcome = match panic::catch_unwind(AssertUnwindSafe(|| cell(i, &supervisor))) {
                Ok(outcome) => outcome,
                Err(payload) => CellOutcome::Panicked { message: panic_message(&*payload) },
            };
            // A cancel raised mid-cell surfaces as a failed (oracle
            // rejected) or explicitly Cancelled outcome; either way
            // the cell did not finish on its own merits, so it is
            // recorded as cancelled and left out of the journal for
            // the next run to redo. A genuine recovery that raced the
            // token stands.
            let outcome = if (self.cancel.is_cancelled() && !outcome.recovered())
                || outcome == CellOutcome::Cancelled
            {
                CellOutcome::Cancelled
            } else {
                outcome
            };
            let cell_metrics = supervisor.telemetry.metrics();
            rollup.merge(&cell_metrics);
            self.telemetry.record_cell(label, &outcome.to_string(), &cell_metrics);
            let completed = outcome != CellOutcome::Cancelled;
            cells.push(CellRecord { label: clone_label(label), outcome, resumed: false });
            if completed {
                self.save_journal(fingerprint, &cells)?;
            }
        }

        Ok(CampaignReport { cells, metrics: rollup })
    }

    fn load_journal(
        &self,
        labels: &[String],
        fingerprint: u64,
    ) -> Result<Vec<(String, CellOutcome)>, CampaignError> {
        let Some(path) = &self.journal else { return Ok(Vec::new()) };
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(JournalError::Io(e).into()),
        };
        let payload = unframe(CAMPAIGN_MAGIC, CAMPAIGN_VERSION, &bytes)?;
        let mut dec = Dec::new(payload);
        let journalled = dec.u64()?;
        if journalled != fingerprint {
            return Err(CampaignError::GridMismatch { journalled, computed: fingerprint });
        }
        let records = decode_records(&mut dec)?;
        if !dec.is_empty() {
            return Err(JournalError::Malformed(format!(
                "{} undecoded campaign-journal bytes",
                dec.remaining()
            ))
            .into());
        }
        if records.len() > labels.len() {
            return Err(JournalError::Malformed(format!(
                "journal has {} cells, grid has {}",
                records.len(),
                labels.len()
            ))
            .into());
        }
        for ((label, _), expected) in records.iter().zip(labels) {
            if label != expected {
                return Err(JournalError::Malformed(format!(
                    "journalled cell '{label}' where grid expects '{expected}'"
                ))
                .into());
            }
        }
        Ok(records)
    }

    fn save_journal(&self, fingerprint: u64, cells: &[CellRecord]) -> Result<(), CampaignError> {
        let Some(path) = &self.journal else { return Ok(()) };
        let mut enc = Enc::new();
        enc.u64(fingerprint);
        let completed: Vec<&CellRecord> =
            cells.iter().filter(|c| c.outcome != CellOutcome::Cancelled).collect();
        enc.seq(&completed, |enc, record| {
            enc.str(&record.label);
            encode_outcome(enc, &record.outcome);
        });
        let framed = frame(CAMPAIGN_MAGIC, CAMPAIGN_VERSION, &enc.into_bytes());
        write_atomic(path, &framed)?;
        Ok(())
    }
}

/// FNV-1a over the label list, with a separator byte so label
/// boundaries matter.
fn grid_fingerprint(labels: &[String]) -> u64 {
    fn step(h: u64, b: u8) -> u64 {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for label in labels {
        for &b in label.as_bytes() {
            h = step(h, b);
        }
        h = step(h, 0xff);
    }
    h
}

fn clone_label(label: &str) -> String {
    label.to_string()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

fn encode_outcome(enc: &mut Enc, outcome: &CellOutcome) {
    match outcome {
        CellOutcome::Recovered(stats) => {
            enc.u8(0);
            encode_stats(enc, stats);
        }
        CellOutcome::Failed { stats, note } => {
            enc.u8(1);
            encode_stats(enc, stats);
            enc.str(note);
        }
        CellOutcome::Panicked { message } => {
            enc.u8(2);
            enc.str(message);
        }
        // Filtered out before encoding; encoding it would make a
        // resumed campaign skip a cell that never finished.
        CellOutcome::Cancelled => unreachable!("cancelled cells are never journalled"),
    }
}

fn encode_stats(enc: &mut Enc, stats: &CellStats) {
    enc.u64(stats.physical);
    enc.u64(stats.logical);
    enc.u64(stats.retries);
    enc.u64(stats.backoff_ms);
}

fn decode_records(dec: &mut Dec<'_>) -> Result<Vec<(String, CellOutcome)>, JournalError> {
    dec.seq(|dec| {
        let label = dec.str()?.to_string();
        let outcome = match dec.u8()? {
            0 => CellOutcome::Recovered(decode_stats(dec)?),
            1 => CellOutcome::Failed { stats: decode_stats(dec)?, note: dec.str()?.to_string() },
            2 => CellOutcome::Panicked { message: dec.str()?.to_string() },
            tag => return Err(JournalError::Malformed(format!("unknown cell-outcome tag {tag}"))),
        };
        Ok((label, outcome))
    })
}

fn decode_stats(dec: &mut Dec<'_>) -> Result<CellStats, JournalError> {
    Ok(CellStats {
        physical: dec.u64()?,
        logical: dec.u64()?,
        retries: dec.u64()?,
        backoff_ms: dec.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bitmod-campaign-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("tempdir");
        dir
    }

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("cell-{i}")).collect()
    }

    fn ok_stats() -> CellStats {
        CellStats { physical: 10, logical: 5, retries: 1, backoff_ms: 40 }
    }

    #[test]
    fn a_panicking_cell_is_isolated_and_the_campaign_continues() {
        let report = Campaign::new()
            .run(&labels(3), |i, _| {
                if i == 1 {
                    panic!("cell {i} exploded");
                }
                CellOutcome::Recovered(ok_stats())
            })
            .expect("runs");
        assert_eq!(report.cells.len(), 3);
        assert_eq!(report.recovered_count(), 2);
        assert_eq!(
            report.cells[1].outcome,
            CellOutcome::Panicked { message: "cell 1 exploded".into() }
        );
        let rendered = report.to_string();
        assert!(rendered.contains("panicked: cell 1 exploded"), "{rendered}");
        assert!(rendered.contains("2/3 recovered"), "{rendered}");
    }

    #[test]
    fn cancellation_stops_the_campaign_and_marks_remaining_cells() {
        let campaign = Campaign::new();
        let token = campaign.cancel_token();
        let ran = AtomicUsize::new(0);
        let report = campaign
            .run(&labels(4), |i, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 1 {
                    // An operator pulls the plug mid-cell: the cell's
                    // own outcome is discounted.
                    token.cancel();
                    return CellOutcome::Failed {
                        stats: CellStats::default(),
                        note: "campaign cancelled".into(),
                    };
                }
                CellOutcome::Recovered(ok_stats())
            })
            .expect("runs");
        assert_eq!(ran.load(Ordering::Relaxed), 2, "cells after the cancel never start");
        assert_eq!(report.cells.len(), 4, "every grid cell gets a row");
        assert!(report.cells[0].outcome.recovered());
        for cell in &report.cells[1..] {
            assert_eq!(cell.outcome, CellOutcome::Cancelled);
        }
    }

    #[test]
    fn a_recovery_that_races_the_cancel_token_stands() {
        let campaign = Campaign::new();
        let token = campaign.cancel_token();
        let report = campaign
            .run(&labels(2), |_, _| {
                token.cancel();
                CellOutcome::Recovered(ok_stats())
            })
            .expect("runs");
        assert!(report.cells[0].outcome.recovered());
        assert_eq!(report.cells[1].outcome, CellOutcome::Cancelled);
    }

    #[test]
    fn the_supervised_oracle_enforces_cancellation_and_deadline() {
        struct Null;
        impl KeystreamOracle for Null {
            fn keystream(&self, _: &Bitstream, words: usize) -> Result<Vec<u32>, OracleError> {
                Ok(vec![0; words])
            }
        }
        let bs = Bitstream::from_bytes(vec![0; 8]);

        let cancel = CancelToken::new();
        let supervisor =
            CellSupervisor { cancel: cancel.clone(), deadline: None, telemetry: Telemetry::new() };
        let oracle = supervisor.supervise(&Null);
        assert_eq!(oracle.keystream(&bs, 2).expect("clean"), vec![0, 0]);
        cancel.cancel();
        let err = oracle.keystream(&bs, 2).expect_err("cancelled");
        assert!(!err.is_transient(), "cancellation must not be retried");
        assert!(err.to_string().contains("cancelled"), "{err}");
        let m = supervisor.telemetry.metrics();
        assert_eq!(m.counter(names::SUPERVISED_CALLS), 2);
        assert_eq!(m.counter(names::SUPERVISED_REJECTIONS), 1);

        let supervisor = CellSupervisor {
            cancel: CancelToken::new(),
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            telemetry: Telemetry::new(),
        };
        let err = supervisor.supervise(&Null).keystream(&bs, 2).expect_err("expired");
        assert!(!err.is_transient());
        assert!(err.to_string().contains("deadline"), "{err}");
    }

    #[test]
    fn an_observed_kill_switch_stops_every_supervised_call_path() {
        struct Null;
        impl KeystreamOracle for Null {
            fn keystream(&self, _: &Bitstream, words: usize) -> Result<Vec<u32>, OracleError> {
                Ok(vec![0; words])
            }
        }
        let bs = vec![Bitstream::from_bytes(vec![0; 8]); 3];
        let kill = Arc::new(AtomicBool::new(false));
        let user = CancelToken::new();
        let cancel = user.clone().observing_kill(kill.clone());
        let supervisor = CellSupervisor::new(cancel.clone(), None, Telemetry::new());
        let oracle = supervisor.supervise(&Null);
        assert!(oracle.keystream_batch(&bs, 1).iter().all(Result::is_ok));

        kill.store(true, Ordering::SeqCst);
        assert!(cancel.is_cancelled(), "the kill stops the session's token");
        assert!(!user.is_cancelled(), "but is no user cancel");
        let err = oracle.keystream(&bs[0], 1).expect_err("killed");
        assert!(!err.is_transient() && err.to_string().contains("killed"), "{err}");
        for out in [oracle.keystream_batch(&bs, 1), oracle.keystream_batch_clean(&bs, 1)] {
            assert_eq!(out.len(), bs.len());
            assert!(out.iter().all(Result::is_err), "every lane refused");
        }
        let m = supervisor.telemetry.metrics();
        assert_eq!(m.counter(names::SUPERVISED_CALLS), 4);
        assert_eq!(m.counter(names::SUPERVISED_REJECTIONS), 3);
    }

    #[test]
    fn a_killed_campaign_resumes_at_the_first_incomplete_cell() {
        let dir = tempdir("resume");
        let path = dir.join("cells.journal");
        let _ = fs::remove_file(&path);
        let grid = labels(4);

        // First run: the process "dies" after two completed cells
        // (cancellation models the kill; cancelled cells are not
        // journalled).
        let campaign = Campaign::new().with_journal(&path);
        let token = campaign.cancel_token();
        campaign
            .run(&grid, |i, _| {
                if i == 2 {
                    token.cancel();
                    return CellOutcome::Cancelled;
                }
                if i == 1 {
                    CellOutcome::Failed { stats: ok_stats(), note: "query budget exhausted".into() }
                } else {
                    CellOutcome::Recovered(ok_stats())
                }
            })
            .expect("first run");

        // Second run: only the incomplete cells execute.
        let ran = AtomicUsize::new(0);
        let report = Campaign::new()
            .with_journal(&path)
            .run(&grid, |i, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                assert!(i >= 2, "completed cell {i} must not re-run");
                CellOutcome::Recovered(ok_stats())
            })
            .expect("resumed run");
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        assert_eq!(report.resumed_count(), 2);
        assert_eq!(report.recovered_count(), 3);
        assert_eq!(
            report.cells[1].outcome,
            CellOutcome::Failed { stats: ok_stats(), note: "query budget exhausted".into() },
            "journalled outcomes replay verbatim"
        );
        assert!(report.cells[0].resumed && report.cells[1].resumed);
        assert!(!report.cells[2].resumed && !report.cells[3].resumed);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_journal_from_a_different_grid_is_refused() {
        let dir = tempdir("grid");
        let path = dir.join("cells.journal");
        let _ = fs::remove_file(&path);
        Campaign::new()
            .with_journal(&path)
            .run(&labels(2), |_, _| CellOutcome::Recovered(ok_stats()))
            .expect("first grid");
        let err = Campaign::new()
            .with_journal(&path)
            .run(&["other".to_string()], |_, _| CellOutcome::Recovered(ok_stats()))
            .expect_err("grid changed");
        assert!(matches!(err, CampaignError::GridMismatch { .. }), "{err:?}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_corrupt_campaign_journal_is_a_typed_error() {
        let dir = tempdir("corrupt");
        let path = dir.join("cells.journal");
        let _ = fs::remove_file(&path);
        let grid = labels(2);
        Campaign::new()
            .with_journal(&path)
            .run(&grid, |_, _| CellOutcome::Recovered(ok_stats()))
            .expect("seed journal");
        let mut bytes = fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(&path, &bytes).expect("corrupt");
        let err = Campaign::new()
            .with_journal(&path)
            .run(&grid, |_, _| CellOutcome::Recovered(ok_stats()))
            .expect_err("corruption detected");
        assert!(matches!(err, CampaignError::Journal(_)), "{err:?}");
        let _ = fs::remove_file(&path);
    }
}
