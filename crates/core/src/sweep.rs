//! The parallel sweep executor: calendar-month shards, mergeable
//! recorders, and a builder that replaces ad-hoc sweep loops.
//!
//! # Determinism
//!
//! [`TelemetryEngine::snapshot`] is a pure function of time, so a sweep
//! over `[from, to)` can be computed in any order. What makes the
//! *aggregates* reproducible across worker counts is that the execution
//! plan never depends on the worker count:
//!
//! 1. The span is cut into **calendar-month shards** whose boundaries
//!    are a function of the span and step alone. Shard `k` covers a
//!    contiguous range of indices on the global sample grid
//!    `t = from + i·step`, so every thread count visits exactly the
//!    same instants.
//! 2. Each shard is folded sequentially into its own fresh recorder.
//! 3. Partial recorders are merged **in chronological shard order** on
//!    the calling thread.
//!
//! Threads only change *who* computes a shard, never *what* a shard is
//! or the order partials are merged — so the result is bit-for-bit
//! identical for 1, 2, or N threads. (Note the canonical result is the
//! sharded fold itself; merging two arbitrary sub-span summaries by
//! hand re-associates the floating-point folds and agrees only to
//! rounding error.)

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use mira_cooling::CoolantMonitorSample;
use mira_timeseries::{CivilParts, Date, Duration, SimTime};
use mira_units::convert;

use crate::error::Error;
use crate::summary::SweepSummary;
use crate::telemetry::{RackTruth, SweepBlock, SweepScratch, SystemSnapshot, TelemetryEngine};

/// Environment variable overriding the worker count when
/// [`SweepPlan::threads`] is left on auto.
pub const THREADS_ENV: &str = "MIRA_SWEEP_THREADS";

/// Number of consecutive instants the batched sweep kernel
/// ([`TelemetryEngine::sweep_steps_into`]) processes per block.
///
/// Large enough to amortize per-block overhead (cursor advances, the
/// summary fold's staging load/store) and give the staged lane kernels
/// long runs, small enough (~95 KB of block rows) that a block stays
/// L2-resident per worker — measured fastest among 8/16/32/64 on the
/// full-span bench.
pub const SWEEP_BLOCK: usize = 16;

/// Why a sweep could not run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SweepError {
    /// The span is empty (`from >= to`).
    EmptySpan,
    /// The sampling step is zero or negative.
    NonPositiveStep,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::EmptySpan => write!(f, "sweep span is empty (from >= to)"),
            SweepError::NonPositiveStep => write!(f, "sweep step must be positive"),
        }
    }
}

impl std::error::Error for SweepError {}

/// A sweep span: either the simulation's full configured span or an
/// explicit `[from, to)` window.
///
/// Anything span-like converts into it: `FullSpan`, a `(from, to)`
/// tuple, or a `from..to` range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepSpan {
    /// The simulation's full configured span.
    Full,
    /// An explicit `[from, to)` window.
    Between(SimTime, SimTime),
}

/// Marker selecting the simulation's full configured span (the default
/// for [`crate::Simulation::summarize`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FullSpan;

impl From<FullSpan> for SweepSpan {
    fn from(_: FullSpan) -> Self {
        SweepSpan::Full
    }
}

impl From<(SimTime, SimTime)> for SweepSpan {
    fn from((from, to): (SimTime, SimTime)) -> Self {
        SweepSpan::Between(from, to)
    }
}

impl From<std::ops::Range<SimTime>> for SweepSpan {
    fn from(r: std::ops::Range<SimTime>) -> Self {
        SweepSpan::Between(r.start, r.end)
    }
}

impl SweepSpan {
    /// Resolves against a concrete full span.
    #[must_use]
    pub fn resolve(self, full: (SimTime, SimTime)) -> (SimTime, SimTime) {
        match self {
            SweepSpan::Full => full,
            SweepSpan::Between(from, to) => (from, to),
        }
    }
}

/// Everything the engine knows about one sweep instant: the system
/// snapshot plus per-rack ground truth and monitor observations, each
/// computed exactly once.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepStep {
    /// The shared per-instant state.
    pub snapshot: SystemSnapshot,
    /// Civil-calendar decomposition of the instant (a pure function of
    /// [`SystemSnapshot::time`]), so calendar-keyed recorders bin
    /// without re-deriving the date.
    pub civil: CivilParts,
    /// Ground-truth physical state per rack (index = [`RackId::index`]).
    pub truths: Vec<RackTruth>,
    /// Coolant-monitor observations per rack.
    pub samples: Vec<CoolantMonitorSample>,
}

/// A streaming analysis that can run sharded: fold blocks of sweep
/// instants, merge with a later partial of the same type, and finish
/// into its output.
///
/// Tuples of recorders implement `Recorder` too, so several analyses
/// share one pass over the telemetry.
pub trait Recorder: Sized {
    /// What [`Recorder::finish`] produces.
    type Output;

    /// Folds a contiguous block of instants produced by the batched
    /// kernel ([`TelemetryEngine::sweep_steps_into`]) — the one fold
    /// both the executor and the incremental engine drive.
    ///
    /// `staging` is a reusable per-instant buffer: a recorder that
    /// needs the per-instant [`SweepStep`] view (the block's lanes are
    /// crate-private) calls `block.materialize_into(k, staging)` for
    /// each `k < block.len()`. Recorders that read the lanes directly
    /// ignore it.
    fn record_block(&mut self, block: &SweepBlock, staging: &mut SweepStep);

    /// Absorbs a partial that covers the span immediately *after* this
    /// one's.
    fn merge(&mut self, later: Self);

    /// Finalizes the state into the output.
    fn finish(self) -> Self::Output;
}

impl<A: Recorder, B: Recorder> Recorder for (A, B) {
    type Output = (A::Output, B::Output);

    fn record_block(&mut self, block: &SweepBlock, staging: &mut SweepStep) {
        self.0.record_block(block, staging);
        self.1.record_block(block, staging);
    }

    fn merge(&mut self, later: Self) {
        self.0.merge(later.0);
        self.1.merge(later.1);
    }

    fn finish(self) -> Self::Output {
        (self.0.finish(), self.1.finish())
    }
}

impl<A: Recorder, B: Recorder, C: Recorder> Recorder for (A, B, C) {
    type Output = (A::Output, B::Output, C::Output);

    fn record_block(&mut self, block: &SweepBlock, staging: &mut SweepStep) {
        self.0.record_block(block, staging);
        self.1.record_block(block, staging);
        self.2.record_block(block, staging);
    }

    fn merge(&mut self, later: Self) {
        self.0.merge(later.0);
        self.1.merge(later.1);
        self.2.merge(later.2);
    }

    fn finish(self) -> Self::Output {
        (self.0.finish(), self.1.finish(), self.2.finish())
    }
}

/// Builder for a (possibly parallel) telemetry sweep.
///
/// ```
/// use mira_core::{Duration, FullSpan, SimConfig, Simulation};
///
/// let sim = Simulation::new(SimConfig::with_seed(7));
/// let summary = sim
///     .sweep_plan((
///         mira_core::SimTime::from_date(mira_core::Date::new(2015, 1, 1)),
///         mira_core::SimTime::from_date(mira_core::Date::new(2015, 3, 1)),
///     ))
///     .step(Duration::from_hours(6))
///     .threads(2)
///     .summary()
///     .expect("non-empty span");
/// assert_eq!(summary.power_mw.bins.overall().count(), 59 * 4);
/// ```
#[derive(Debug, Clone)]
pub struct SweepPlan<'e> {
    engine: &'e TelemetryEngine,
    from: SimTime,
    to: SimTime,
    step: Duration,
    threads: Option<usize>,
}

impl<'e> SweepPlan<'e> {
    /// A plan over `[from, to)` at the default 300 s step, auto threads.
    #[must_use]
    pub fn new(engine: &'e TelemetryEngine, from: SimTime, to: SimTime) -> Self {
        Self {
            engine,
            from,
            to,
            step: Duration::from_minutes(5),
            threads: None,
        }
    }

    /// Sets the sampling step.
    #[must_use]
    pub fn step(mut self, step: Duration) -> Self {
        self.step = step;
        self
    }

    /// Sets the worker count. `0` restores auto selection (the
    /// `MIRA_SWEEP_THREADS` environment variable if set, otherwise the
    /// machine's available parallelism).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 { None } else { Some(threads) };
        self
    }

    /// The sweep span.
    #[must_use]
    pub fn span(&self) -> (SimTime, SimTime) {
        (self.from, self.to)
    }

    /// Runs the sweep, folding every instant into recorders produced by
    /// `factory` (one per shard) and merging them chronologically.
    ///
    /// # Errors
    ///
    /// [`Error::Sweep`] carrying [`SweepError::EmptySpan`] when
    /// `from >= to`, or [`SweepError::NonPositiveStep`] when the step is
    /// not positive.
    // Per-sweep setup only: the shard list, result slots, and recorder
    // vector are built once per run; the per-step k-loop folds through a
    // reused SweepScratch and allocates nothing (tests/text_path_allocs.rs
    // gates this). mira-lint: allow(alloc-in-hot-path)
    pub fn run<R, F>(&self, factory: F) -> Result<R::Output, Error>
    where
        R: Recorder + Send,
        F: Fn() -> R + Sync,
    {
        if self.step.as_seconds() <= 0 {
            return Err(SweepError::NonPositiveStep.into());
        }
        if self.from >= self.to {
            return Err(SweepError::EmptySpan.into());
        }

        let shards = month_shards(self.from, self.to, self.step);
        let threads = self.resolved_threads(shards.len());
        let engine = self.engine;
        let (from, step) = (self.from, self.step);
        let run_shard = |&(lo, hi): &(usize, usize), scratch: &mut SweepScratch| -> R {
            let mut recorder = factory();
            let mut k = lo;
            while k < hi {
                let n = (hi - k).min(SWEEP_BLOCK);
                let t = from + step * convert::i64_from_usize(k);
                engine.sweep_steps_into(t, step, n, scratch);
                let (block, staging) = scratch.block_parts();
                recorder.record_block(block, staging);
                k += n;
            }
            recorder
        };

        // One scratch per *worker*, reused across every shard it picks
        // up: the cursors a scratch carries refill bit-neutrally from
        // any prior state (which shard a worker ran last is
        // nondeterministic under contention, so outputs could not be
        // deterministic otherwise), and reuse keeps shard turnover off
        // the allocator — only worker startup pays the block-row and
        // cursor construction cost.
        let partials: Vec<Option<R>> = if threads <= 1 {
            let mut scratch = engine.sweep_scratch();
            shards
                .iter()
                .map(|b| Some(run_shard(b, &mut scratch)))
                .collect()
        } else {
            let slots: Vec<Mutex<Option<R>>> = shards.iter().map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        let mut scratch = engine.sweep_scratch();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let (Some(bounds), Some(slot)) = (shards.get(i), slots.get(i)) else {
                                break;
                            };
                            let recorder = run_shard(bounds, &mut scratch);
                            *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(recorder);
                        }
                    });
                }
            });
            slots
                .into_iter()
                .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
                .collect()
        };

        // Merge in chronological shard order — identical regardless of
        // which worker produced which partial.
        let mut merged: Option<R> = None;
        for partial in partials.into_iter().flatten() {
            match merged.as_mut() {
                Some(acc) => acc.merge(partial),
                None => merged = Some(partial),
            }
        }
        match merged {
            Some(recorder) => Ok(recorder.finish()),
            // Unreachable: a non-empty span always yields >= 1 shard.
            None => Err(SweepError::EmptySpan.into()),
        }
    }

    /// Runs the sweep into a [`SweepSummary`] — the common case.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SweepPlan::run`].
    pub fn summary(&self) -> Result<SweepSummary, Error> {
        let span = (self.from, self.to);
        let step = self.step;
        self.run(|| SweepSummary::empty(span, step))
    }

    /// Resolves the worker count: explicit request, else the
    /// `MIRA_SWEEP_THREADS` environment variable, else available
    /// parallelism — clamped to `[1, shard_count]`.
    fn resolved_threads(&self, shard_count: usize) -> usize {
        let requested = self
            .threads
            .or_else(|| {
                std::env::var(THREADS_ENV)
                    .ok()
                    .and_then(|v| v.trim().parse().ok())
            })
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            });
        requested.clamp(1, shard_count.max(1))
    }
}

/// Cuts the sample grid `t = from + k·step`, `k < n`, into
/// calendar-month shards: shard boundaries sit at the first grid index
/// at or after each first-of-month inside the span. Depends only on
/// `(from, to, step)` — never on the worker count.
// Runs once per sweep to cut the grid into shards; the boundary vector
// is proportional to span months, not step count, and this is never
// called from the per-step loop. mira-lint: allow(alloc-in-hot-path)
pub(crate) fn month_shards(from: SimTime, to: SimTime, step: Duration) -> Vec<(usize, usize)> {
    let step_s = step.as_seconds();
    let total_s = (to - from).as_seconds();
    // Number of grid points in [from, to): ceil(total / step).
    let n = convert::usize_from_i64((total_s + step_s - 1) / step_s);

    let mut starts: Vec<usize> = vec![0];
    let first = from.date();
    let (mut year, mut month) = (first.year(), first.month().number());
    loop {
        month += 1;
        if month > 12 {
            month = 1;
            year += 1;
        }
        let boundary = SimTime::from_date(Date::new(year, month, 1));
        if boundary >= to {
            break;
        }
        let offset = (boundary - from).as_seconds();
        let idx = convert::usize_from_i64((offset + step_s - 1) / step_s);
        if idx >= n {
            break;
        }
        // A step longer than a month can land two boundaries on the
        // same grid index; keep shard starts strictly increasing.
        if starts.last().is_some_and(|&last| idx > last) {
            starts.push(idx);
        }
    }

    starts
        .iter()
        .zip(starts.iter().skip(1).chain(std::iter::once(&n)))
        .map(|(&lo, &hi)| (lo, hi))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_facility::RackId;
    use mira_ras::{CmfSchedule, RasLog};

    fn engine() -> TelemetryEngine {
        let schedule = CmfSchedule::generate(9);
        let log = RasLog::assemble(&schedule, 9);
        TelemetryEngine::new(9, &schedule, &log)
    }

    fn t(y: i32, m: u8, d: u8) -> SimTime {
        SimTime::from_date(Date::new(y, m, d))
    }

    #[test]
    fn shards_partition_the_grid() {
        let shards = month_shards(t(2015, 1, 15), t(2015, 4, 10), Duration::from_hours(6));
        // 17 + 28 + 31 + 9 days, 4 samples/day.
        let n = (17 + 28 + 31 + 9) * 4;
        assert_eq!(shards.len(), 3 + 1);
        assert_eq!(shards[0].0, 0);
        assert_eq!(shards.last().map(|s| s.1), Some(n));
        for pair in shards.windows(2) {
            assert_eq!(pair[0].1, pair[1].0, "contiguous");
            assert!(pair[0].0 < pair[0].1, "non-empty");
        }
    }

    #[test]
    fn shards_ignore_worker_count_inputs() {
        // Boundaries are a pure function of (from, to, step).
        let a = month_shards(t(2014, 1, 1), t(2020, 1, 1), Duration::from_hours(1));
        let b = month_shards(t(2014, 1, 1), t(2020, 1, 1), Duration::from_hours(1));
        assert_eq!(a, b);
        assert_eq!(a.len(), 72, "one shard per month over six years");
    }

    #[test]
    fn huge_step_collapses_to_one_shard() {
        let shards = month_shards(t(2015, 1, 1), t(2015, 12, 31), Duration::from_days(400));
        assert_eq!(shards, vec![(0, 1)]);
    }

    #[test]
    fn sub_month_span_is_one_shard() {
        let shards = month_shards(t(2016, 2, 3), t(2016, 2, 20), Duration::from_hours(2));
        assert_eq!(shards, vec![(0, 17 * 12)]);
    }

    #[test]
    fn plan_validates_inputs() {
        let e = engine();
        let err = SweepPlan::new(&e, t(2015, 2, 1), t(2015, 1, 1))
            .summary()
            .unwrap_err();
        assert!(matches!(err, Error::Sweep(SweepError::EmptySpan)));
        let err = SweepPlan::new(&e, t(2015, 1, 1), t(2015, 2, 1))
            .step(Duration::ZERO)
            .summary()
            .unwrap_err();
        assert!(matches!(err, Error::Sweep(SweepError::NonPositiveStep)));
        assert_eq!(err.to_string(), "sweep step must be positive");
    }

    #[test]
    fn thread_counts_agree_exactly() {
        let e = engine();
        let plan = |threads| {
            SweepPlan::new(&e, t(2015, 2, 10), t(2015, 5, 20))
                .step(Duration::from_hours(4))
                .threads(threads)
                .summary()
                .expect("valid plan")
        };
        let sequential = plan(1);
        for threads in [2, 3, 8] {
            assert_eq!(plan(threads), sequential, "threads={threads}");
        }
    }

    #[test]
    fn tuple_recorder_shares_the_pass() {
        let e = engine();
        let span = (t(2015, 3, 1), t(2015, 3, 10));
        let step = Duration::from_hours(6);
        let plan = SweepPlan::new(&e, span.0, span.1).step(step).threads(2);
        let (a, b) = plan
            .run(|| {
                (
                    SweepSummary::empty(span, step),
                    SweepSummary::empty(span, step),
                )
            })
            .expect("valid plan");
        assert_eq!(a, b);
        assert_eq!(a, plan.summary().expect("valid plan"));
    }

    #[test]
    fn sweep_step_matches_piecewise_queries() {
        // Random access is a block of length 1 from a fresh scratch; it
        // must agree with the independent scalar reference path.
        let e = engine();
        let at = t(2017, 6, 15) + Duration::from_hours(7);
        let mut scratch = e.sweep_scratch();
        e.sweep_step_into(at, &mut scratch);
        let step = scratch.step();
        let snap = e.snapshot(at);
        assert_eq!(step.snapshot, snap);
        for rack in RackId::all() {
            assert_eq!(step.truths[rack.index()], e.rack_truth(rack, &snap));
            assert_eq!(step.samples[rack.index()], e.observe(rack, &snap));
        }
    }

    #[test]
    fn span_conversions() {
        let full = (t(2014, 1, 1), t(2020, 1, 1));
        assert_eq!(SweepSpan::from(FullSpan).resolve(full), full);
        let window = (t(2015, 1, 1), t(2015, 6, 1));
        assert_eq!(SweepSpan::from(window).resolve(full), window);
        assert_eq!(SweepSpan::from(window.0..window.1).resolve(full), window);
    }
}
