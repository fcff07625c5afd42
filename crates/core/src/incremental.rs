//! The incremental sweep engine: append telemetry instants as they
//! arrive and read the running aggregate at any point — byte-identical
//! to a cold batch sweep of everything ingested so far.
//!
//! # Equivalence to the batch path
//!
//! [`crate::SweepPlan::run`] cuts the grid into calendar-month shards,
//! folds each shard into a fresh recorder, and merges the partials in
//! chronological order: `((s₀ ⊕ s₁) ⊕ s₂) ⊕ …`. Floating-point merge is
//! not associative, so *any* byte-identical incremental scheme must
//! replay that exact association. [`IncrementalSweep`] therefore keeps
//! two recorders:
//!
//! - a **prefix** — the chronological fold of every *completed*
//!   calendar-month shard, and
//! - an **open shard** — the fold of the month currently being
//!   ingested.
//!
//! Appending the first instant of a new calendar month merges the open
//! shard into the prefix (one [`Recorder::merge`], same as the batch
//! executor performs for that seam) and starts a fresh shard. A query
//! clones both, merges the open clone after the prefix clone, and
//! finishes — reproducing the batch fold of `[from, ingested_to)` bit
//! for bit without touching the running state. The engine computes
//! each appended instant itself — always the next point on the grid —
//! so the association can never drift from the batch plan's.
//!
//! Queries cost one clone of the running state, not a recompute: the
//! aggregate state is bounded (calendar bins, per-rack Welfords, one
//! accumulator per elapsed week), so a query on six years of ingested
//! telemetry costs the same as on six days.
//!
//! ```
//! use mira_core::{IncrementalSweep, SimConfig, Simulation};
//! use mira_timeseries::{Date, Duration, SimTime};
//!
//! let sim = Simulation::new(SimConfig::with_seed(7));
//! let from = SimTime::from_date(Date::new(2015, 1, 1));
//! let step = Duration::from_hours(6);
//! let mut inc = IncrementalSweep::new(from, step).expect("positive step");
//! // Ingest January; the summary matches a cold batch sweep exactly.
//! inc.ingest(sim.telemetry(), 31 * 4);
//! let to = SimTime::from_date(Date::new(2015, 2, 1));
//! let batch = sim.summarize((from, to), step).expect("non-empty");
//! assert_eq!(inc.summary().expect("non-empty"), batch);
//! ```

use mira_obs::{ObsMode, ObsReport};
use mira_timeseries::{Duration, SimTime};
use mira_units::convert;

use crate::analysis::{full_report, FigureReport};
use crate::error::Error;
use crate::obs::{record_executor_shape, ObservedSweep, SweepObsRecorder};
use crate::simulation::Simulation;
use crate::summary::SweepSummary;
use crate::sweep::{fold_grid, MonthStarts, Recorder, SweepError};
use crate::telemetry::{SweepScratch, TelemetryEngine};

/// One shard's running state: the summary and its riding obs recorder,
/// folded together exactly like the batch executor's tuple recorder.
type ShardState = (SweepSummary, SweepObsRecorder);

/// A running sweep aggregate that grows one grid instant at a time.
///
/// Construct via [`IncrementalSweep::new`] (or
/// [`Simulation::incremental_sweep`]), feed it with
/// [`IncrementalSweep::ingest`], and read
/// [`IncrementalSweep::summary`] / [`IncrementalSweep::observed`] /
/// [`IncrementalSweep::figures`] at any point. See the [module
/// docs](self) for why the results are byte-identical to the batch
/// path.
#[derive(Debug, Clone)]
pub struct IncrementalSweep {
    from: SimTime,
    step: Duration,
    /// Grid index of the next expected instant (= instants ingested).
    next_k: usize,
    /// Grid index at which the open shard rolls into the prefix.
    next_boundary: usize,
    /// The shard starts after `next_boundary`.
    month_starts: MonthStarts,
    /// Chronological fold of all completed calendar-month shards.
    prefix: Option<ShardState>,
    /// The calendar-month shard currently being ingested.
    open: Option<ShardState>,
    /// Reused fold scratch for [`IncrementalSweep::ingest`].
    scratch: Option<SweepScratch>,
}

impl IncrementalSweep {
    /// An empty engine whose grid starts at `from` and advances by
    /// `step`. The obs recorder rides the same fold, so a server can
    /// answer `metrics` without a second pass.
    ///
    /// # Errors
    ///
    /// [`Error::Sweep`] carrying [`SweepError::NonPositiveStep`] when
    /// the step is zero or negative.
    pub fn new(from: SimTime, step: Duration) -> Result<Self, Error> {
        if step.as_seconds() <= 0 {
            return Err(SweepError::NonPositiveStep.into());
        }
        let mut month_starts = MonthStarts::new(from, step);
        Ok(Self {
            from,
            step,
            next_k: 0,
            next_boundary: month_starts.next().unwrap_or(usize::MAX),
            month_starts,
            prefix: None,
            open: None,
            scratch: None,
        })
    }

    /// The sampling step.
    #[must_use]
    pub fn step(&self) -> Duration {
        self.step
    }

    /// Instants ingested so far.
    #[must_use]
    pub fn steps_ingested(&self) -> u64 {
        convert::u64_from_usize(self.next_k)
    }

    /// The next grid instant [`IncrementalSweep::ingest`] appends:
    /// `from + step · steps_ingested`.
    #[must_use]
    pub fn next_time(&self) -> SimTime {
        self.from + self.step * convert::i64_from_usize(self.next_k)
    }

    /// The ingested span `[from, next_time)`. Empty until the first
    /// append.
    #[must_use]
    pub fn span(&self) -> (SimTime, SimTime) {
        (self.from, self.next_time())
    }

    /// Merges the open shard into the prefix — the exact chronological
    /// merge the batch executor performs at this month seam.
    fn roll_shard(&mut self) {
        if let Some(open) = self.open.take() {
            match self.prefix.as_mut() {
                Some(acc) => acc.merge(open),
                None => self.prefix = Some(open),
            }
        }
        self.next_boundary = self.month_starts.next().unwrap_or(usize::MAX);
    }

    /// Computes and appends the next `steps` grid instants from
    /// `engine` through the batched kernel
    /// ([`TelemetryEngine::sweep_steps_into`]), reusing one
    /// [`SweepScratch`] across calls (zero steady-state allocation,
    /// like the batch executor's per-shard fold). Blocks are cut at
    /// calendar-month boundaries so each block folds into exactly one
    /// shard — the roll into the prefix happens between blocks, exactly
    /// at the seam where the batch executor merges. Always pass the same
    /// engine: the scratch carries cursors into it. The engine appends
    /// the next grid instants itself, so nothing can misalign.
    pub fn ingest(&mut self, engine: &TelemetryEngine, steps: usize) {
        let mut scratch = match self.scratch.take() {
            Some(s) => s,
            None => engine.sweep_scratch(),
        };
        let end = self.next_k.saturating_add(steps);
        while self.next_k < end {
            if self.next_k == self.next_boundary {
                self.roll_shard();
            }
            // The batch executor seeds every shard with the full plan
            // span, which only survives into the output's `span`
            // metadata field; `folded` patches it to the ingested span.
            let (from, step) = (self.from, self.step);
            let open = self.open.get_or_insert_with(|| {
                (
                    SweepSummary::empty((from, from), step),
                    SweepObsRecorder::new(ObsMode::On),
                )
            });
            let hi = end.min(self.next_boundary);
            fold_grid(engine, from, step, self.next_k, hi, &mut scratch, open);
            self.next_k = hi;
        }
        self.scratch = Some(scratch);
    }

    /// Clones prefix and open shard and replays the final chronological
    /// merge, yielding the recorder state a batch run over the ingested
    /// span would hold just before `finish`.
    fn folded(&self) -> Result<ShardState, Error> {
        let mut acc = match (&self.prefix, &self.open) {
            (Some(prefix), Some(open)) => {
                let mut acc = prefix.clone();
                acc.merge(open.clone());
                acc
            }
            (Some(prefix), None) => prefix.clone(),
            (None, Some(open)) => open.clone(),
            (None, None) => return Err(SweepError::EmptySpan.into()),
        };
        // The batch path seeds every shard with the full plan span;
        // patch the metadata to the ingested span.
        acc.0.span = self.span();
        Ok(acc)
    }

    /// The aggregate over everything ingested, byte-identical to
    /// [`Simulation::summarize`] over `[from, next_time)` at any thread
    /// count. The running state is untouched; ingest can continue.
    ///
    /// # Errors
    ///
    /// [`Error::Sweep`] carrying [`SweepError::EmptySpan`] before the
    /// first append.
    pub fn summary(&self) -> Result<SweepSummary, Error> {
        let (summary, _) = Recorder::finish(self.folded()?);
        Ok(summary)
    }

    /// Summary plus the [`ObsReport`] gathered on the same fold —
    /// deterministically identical to
    /// [`Simulation::summarize_observed`] over the ingested span,
    /// except that the nondeterministic `timings` section stays empty
    /// (a long-running caller times its own ingest; see `mira-serve`).
    /// Every metric is a pure function of the ingested span, so reports
    /// stay deterministic while other queries read the same engine.
    ///
    /// # Errors
    ///
    /// [`Error::Sweep`] carrying [`SweepError::EmptySpan`] before the
    /// first append.
    pub fn observed(&self) -> Result<ObservedSweep, Error> {
        let (summary, mut report) = Recorder::finish(self.folded()?);
        let (from, to) = self.span();
        record_executor_shape(&mut report.metrics, from, to, self.step);
        Ok(ObservedSweep { summary, report })
    }

    /// The observability report alone (see
    /// [`IncrementalSweep::observed`]).
    ///
    /// # Errors
    ///
    /// [`Error::Sweep`] carrying [`SweepError::EmptySpan`] before the
    /// first append.
    pub fn obs_report(&self) -> Result<ObsReport, Error> {
        Ok(self.observed()?.report)
    }

    /// All paper figures over the ingested span, byte-identical to
    /// [`full_report`] on a cold batch summary of the same span.
    ///
    /// # Errors
    ///
    /// [`Error::Sweep`] carrying [`SweepError::EmptySpan`] before the
    /// first append.
    pub fn figures(&self, sim: &Simulation) -> Result<FigureReport, Error> {
        Ok(full_report(sim, &self.summary()?))
    }
}

impl Simulation {
    /// An [`IncrementalSweep`] starting at this simulation's configured
    /// start, ready to [`IncrementalSweep::ingest`] from
    /// [`Simulation::telemetry`].
    ///
    /// # Errors
    ///
    /// [`Error::Sweep`] carrying [`SweepError::NonPositiveStep`] when
    /// the step is not positive.
    pub fn incremental_sweep(&self, step: Duration) -> Result<IncrementalSweep, Error> {
        IncrementalSweep::new(self.config().span().0, step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::SimConfig;
    use mira_timeseries::Date;

    fn t(y: i32, m: u8, d: u8) -> SimTime {
        SimTime::from_date(Date::new(y, m, d))
    }

    #[test]
    fn new_validates_step() {
        let err = IncrementalSweep::new(t(2015, 1, 1), Duration::ZERO).unwrap_err();
        assert!(matches!(err, Error::Sweep(SweepError::NonPositiveStep)));
    }

    #[test]
    fn empty_engine_reports_empty_span() {
        let inc = IncrementalSweep::new(t(2015, 1, 1), Duration::from_minutes(5)).unwrap();
        assert!(matches!(
            inc.summary().unwrap_err(),
            Error::Sweep(SweepError::EmptySpan)
        ));
    }

    #[test]
    fn matches_batch_across_month_seams() {
        let sim = Simulation::new(SimConfig::with_seed(7));
        let from = t(2015, 1, 15);
        let step = Duration::from_hours(4);
        let mut inc = IncrementalSweep::new(from, step).unwrap();
        // Ingest in ragged chunks crossing the Feb and Mar seams.
        let mut total = 0usize;
        for chunk in [40usize, 1, 97, 13, 250, 5] {
            inc.ingest(sim.telemetry(), chunk);
            total += chunk;
            let to = from + step * convert::i64_from_usize(total);
            let batch = sim.summarize((from, to), step).unwrap();
            assert_eq!(inc.summary().unwrap(), batch, "after {total} steps");
        }
    }

    #[test]
    fn observed_matches_batch_deterministic_json() {
        let sim = Simulation::new(SimConfig::with_seed(7));
        let from = t(2016, 5, 20);
        let step = Duration::from_hours(3);
        let mut inc = IncrementalSweep::new(from, step).unwrap();
        let steps = 60 * 8; // 60 days at 8 samples/day: crosses 2 seams.
        inc.ingest(sim.telemetry(), steps);
        let to = from + step * convert::i64_from_usize(steps);
        let batch = sim
            .summarize_observed((from, to), step, 1, ObsMode::On)
            .unwrap();
        let observed = inc.observed().unwrap();
        assert_eq!(observed.summary, batch.summary);
        assert_eq!(
            observed.report.deterministic_json(),
            batch.report.deterministic_json()
        );
    }

    #[test]
    fn simulation_convenience_starts_at_config_start() {
        let sim = Simulation::new(SimConfig::with_seed(7));
        let inc = sim.incremental_sweep(Duration::from_hours(6)).unwrap();
        assert_eq!(inc.next_time(), sim.config().span().0);
    }
}
