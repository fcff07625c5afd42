//! Sweep instrumentation: an extra [`Recorder`] that rides the sharded
//! telemetry pass and produces a deterministic [`ObsReport`].
//!
//! # Determinism across worker counts
//!
//! Everything the recorder counts is a pure function of the sweep grid,
//! so the only hazard is state that crosses a step boundary: rack
//! up/down transitions and economizer engagements compare each step
//! against its predecessor, and a shard's first step has no predecessor
//! *inside* the shard. The recorder therefore keeps a **boundary
//! monoid**: each partial remembers the rack/economizer state at its
//! first and last step, in-shard transitions are counted from the
//! second step on, and [`Recorder::merge`] counts the transitions that
//! straddle the shard seam before adopting the later partial's trailing
//! edge. The merged result is exactly the single sequential fold, so
//! the deterministic snapshot is byte-identical for any
//! `MIRA_SWEEP_THREADS` setting.
//!
//! Wall-clock time never enters the recorder: the observed-sweep entry
//! points measure the whole run through an injected
//! [`mira_obs::Clock`] and file it under the report's nondeterministic
//! `timings` section.

use mira_obs::{Clock, MetricsPartial, ObsMode, ObsReport, SpanStats, WallClock};
use mira_timeseries::{Duration, SimTime};
use mira_units::convert;

use crate::error::Error;
use crate::simulation::Simulation;
use crate::summary::SweepSummary;
use crate::sweep::{month_shards, Recorder, SweepSpan, SweepStep};
use crate::telemetry::SweepBlock;

/// Metric keys emitted by the sweep recorder, public so tests and
/// downstream dashboards reference one vocabulary.
pub mod keys {
    /// Sweep instants folded.
    pub const SIM_STEPS: &str = "sim.steps";
    /// Coolant-monitor samples emitted (48 per instant).
    pub const SIM_SAMPLES: &str = "sim.samples";
    /// Rack up→down transitions (coolant-monitor failures taking the
    /// rack out).
    pub const RAS_CMF_TRANSITIONS: &str = "ras.cmf_transitions";
    /// Rack down→up transitions (repair completions).
    pub const RAS_RACK_RECOVERIES: &str = "ras.rack_recoveries";
    /// Steps on which two or more racks went down at once (storm
    /// cascades).
    pub const RAS_CASCADE_STEPS: &str = "ras.cascade_steps";
    /// Mean racks down per step.
    pub const RAS_RACKS_DOWN: &str = "ras.racks_down";
    /// Economizer engagement/disengagement edges.
    pub const COOLING_FREE_COOLING_TRANSITIONS: &str = "cooling.free_cooling_transitions";
    /// Mean fraction of the load the economizer carries.
    pub const COOLING_ECONOMIZER_DUTY: &str = "cooling.economizer_duty";
    /// Rack isolation-valve actuations (each rack state change).
    pub const COOLING_VALVE_ACTUATIONS: &str = "cooling.valve_actuations";
    /// Mean chiller electrical draw (kW).
    pub const COOLING_CHILLER_POWER_KW: &str = "cooling.chiller_power_kw";
    /// Mean system power (MW).
    pub const POWER_SYSTEM_MW: &str = "power.system_mw";
    /// System power distribution (MW histogram).
    pub const POWER_SYSTEM_MW_DIST: &str = "power.system_mw.dist";
    /// Mean system utilization (percent).
    pub const UTILIZATION_PCT: &str = "utilization.pct";
    /// System utilization distribution (percent histogram).
    pub const UTILIZATION_PCT_DIST: &str = "utilization.pct.dist";
    /// Calendar-month shards in the executed plan.
    pub const SWEEP_SHARDS: &str = "sweep.shards";
    /// Chronological partial merges performed.
    pub const SWEEP_MERGES: &str = "sweep.merges";
    /// Distribution of shard sizes in grid steps.
    pub const SWEEP_SHARD_STEPS: &str = "sweep.shard_steps";
    /// The whole-sweep span name (and its wall-clock timing key).
    pub const SWEEP_RUN: &str = "sweep.run";
    /// Wall-clock timing key for the observed sweep.
    pub const SWEEP_WALL: &str = "sweep.wall";
}

/// System power histogram bounds (MW). Mira idles near 2 MW and peaks
/// under 6 MW.
const POWER_MW_BOUNDS: &[f64] = &[2.0, 3.0, 4.0, 5.0, 6.0];

/// Utilization histogram bounds (percent).
const UTILIZATION_BOUNDS: &[f64] = &[25.0, 50.0, 75.0, 90.0];

/// Shard-size histogram bounds (grid steps per calendar-month shard).
const SHARD_STEP_BOUNDS: &[f64] = &[100.0, 1_000.0, 10_000.0, 100_000.0];

/// Records the executor-shape metrics for a sweep over
/// `[from, to)` at `step`: shard count, chronological merges, and the
/// shard-size distribution. The shard plan is a pure function of the
/// span and step — never of the worker count or of how the fold was
/// actually scheduled — so both the batch executor and the incremental
/// engine emit byte-identical values for the same span.
pub(crate) fn record_executor_shape(
    metrics: &mut MetricsPartial,
    from: SimTime,
    to: SimTime,
    step: Duration,
) {
    let shards = month_shards(from, to, step);
    metrics.add(keys::SWEEP_SHARDS, convert::u64_from_usize(shards.len()));
    metrics.add(
        keys::SWEEP_MERGES,
        convert::u64_from_usize(shards.len().saturating_sub(1)),
    );
    for (lo, hi) in &shards {
        metrics.observe(
            keys::SWEEP_SHARD_STEPS,
            SHARD_STEP_BOUNDS,
            convert::f64_from_usize(hi - lo),
        );
    }
}

/// Rack and economizer state at one edge of a recorded range, kept so
/// merging can count the transitions that straddle a shard seam.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EdgeState {
    rack_up: Vec<bool>,
    economizer_on: bool,
}

/// The sweep-instrumentation recorder. Pair it with a [`SweepSummary`]
/// in a tuple recorder to observe a pass without a second sweep; with
/// [`ObsMode::Off`] every fold is a single branch.
#[derive(Debug, Clone)]
pub struct SweepObsRecorder {
    enabled: bool,
    metrics: MetricsPartial,
    steps: u64,
    first: Option<EdgeState>,
    last: Option<EdgeState>,
}

impl SweepObsRecorder {
    /// A recorder in the given mode.
    #[must_use]
    pub fn new(mode: ObsMode) -> Self {
        Self {
            enabled: mode.is_on(),
            metrics: MetricsPartial::new(),
            steps: 0,
            first: None,
            last: None,
        }
    }

    /// Counts the transitions between two adjacent instants' states
    /// into `metrics` — used both for in-block neighbors (adjacent
    /// availability rows, compared in place) and for the seam between
    /// two merged partials.
    fn count_transitions(
        metrics: &mut MetricsPartial,
        prev_up: &[bool],
        prev_econ: bool,
        cur_up: &[bool],
        cur_econ: bool,
    ) {
        let mut newly_down = 0u64;
        let mut newly_up = 0u64;
        for (was, is) in prev_up.iter().zip(cur_up) {
            if *was && !*is {
                newly_down += 1;
            }
            if !*was && *is {
                newly_up += 1;
            }
        }
        if newly_down > 0 {
            metrics.add(keys::RAS_CMF_TRANSITIONS, newly_down);
        }
        if newly_up > 0 {
            metrics.add(keys::RAS_RACK_RECOVERIES, newly_up);
        }
        if newly_down >= 2 {
            metrics.add(keys::RAS_CASCADE_STEPS, 1);
        }
        if newly_down + newly_up > 0 {
            metrics.add(keys::COOLING_VALVE_ACTUATIONS, newly_down + newly_up);
        }
        if prev_econ != cur_econ {
            metrics.add(keys::COOLING_FREE_COOLING_TRANSITIONS, 1);
        }
    }
}

impl Recorder for SweepObsRecorder {
    type Output = ObsReport;

    /// Lane-direct fold of one batched block: counter bumps are exact
    /// u64 sums batched once per block, per-key gauge/histogram samples
    /// arrive in chronological order, and availability transitions are
    /// counted between adjacent block rows (the block's first row
    /// against the carried trailing edge) — so the deterministic
    /// snapshot is the same however the grid is cut into blocks.
    // Row indexing is bounded: `k < block.len()` with emptiness checked
    // up front, and adjacent-row reads use `k - 1` only when `k > 0`.
    // mira-lint: allow(panic-reachability)
    fn record_block(&mut self, block: &SweepBlock, _staging: &mut SweepStep) {
        if !self.enabled || block.is_empty() {
            return;
        }
        let n = block.len();
        let n_u64 = convert::u64_from_usize(n);
        self.steps += n_u64;
        self.metrics.add(keys::SIM_STEPS, n_u64);
        let samples_per_step = convert::u64_from_usize(block.up[0].len());
        self.metrics
            .add(keys::SIM_SAMPLES, n_u64 * samples_per_step);

        let econ = |k: usize| block.plants[k].free_cooling_fraction > 0.0;
        for k in 0..n {
            let plant = &block.plants[k];
            let down = block.up[k].iter().filter(|up| !**up).count();
            self.metrics
                .gauge(keys::RAS_RACKS_DOWN, convert::f64_from_usize(down));
            self.metrics
                .gauge(keys::COOLING_ECONOMIZER_DUTY, plant.free_cooling_fraction);
            self.metrics
                .gauge(keys::COOLING_CHILLER_POWER_KW, plant.chiller_power.value());

            let mut power_kw = 0.0;
            let mut util = 0.0;
            for (power, u) in block.obs[5][k].iter().zip(&block.util[k]) {
                power_kw += power;
                util += u;
            }
            let power_mw = power_kw / 1000.0;
            let util_pct = util / convert::f64_from_usize(block.util[k].len().max(1)) * 100.0;
            self.metrics.gauge(keys::POWER_SYSTEM_MW, power_mw);
            self.metrics
                .observe(keys::POWER_SYSTEM_MW_DIST, POWER_MW_BOUNDS, power_mw);
            self.metrics.gauge(keys::UTILIZATION_PCT, util_pct);
            self.metrics
                .observe(keys::UTILIZATION_PCT_DIST, UTILIZATION_BOUNDS, util_pct);

            if k > 0 {
                Self::count_transitions(
                    &mut self.metrics,
                    &block.up[k - 1],
                    econ(k - 1),
                    &block.up[k],
                    econ(k),
                );
            } else if let Some(prev) = &self.last {
                Self::count_transitions(
                    &mut self.metrics,
                    &prev.rack_up,
                    prev.economizer_on,
                    &block.up[0],
                    econ(0),
                );
            }
        }

        if self.first.is_none() {
            self.first = Some(EdgeState {
                // One-time leading-edge capture on the first block ever
                // seen, not per-step. mira-lint: allow(alloc-in-hot-path)
                rack_up: block.up[0].to_vec(),
                economizer_on: econ(0),
            });
        }
        // Reuse the trailing edge's buffer: warm blocks allocate nothing.
        match &mut self.last {
            Some(last) => {
                last.rack_up.clear();
                last.rack_up.extend_from_slice(&block.up[n - 1]);
                last.economizer_on = econ(n - 1);
            }
            None => {
                self.last = Some(EdgeState {
                    // One-time trailing-edge seed on the first block ever
                    // seen, not per-step. mira-lint: allow(alloc-in-hot-path)
                    rack_up: block.up[n - 1].to_vec(),
                    economizer_on: econ(n - 1),
                });
            }
        }
    }

    fn merge(&mut self, later: Self) {
        if !self.enabled {
            return;
        }
        self.metrics.merge(&later.metrics);
        self.steps += later.steps;
        // The seam: the later partial never saw our trailing state, so
        // its first step's transitions are counted here. This is what
        // makes the sharded fold equal the sequential one.
        if let (Some(prev), Some(cur)) = (&self.last, &later.first) {
            Self::count_transitions(
                &mut self.metrics,
                &prev.rack_up,
                prev.economizer_on,
                &cur.rack_up,
                cur.economizer_on,
            );
        }
        if self.first.is_none() {
            self.first = later.first;
        }
        if later.last.is_some() {
            self.last = later.last;
        }
    }

    fn finish(self) -> ObsReport {
        let mut report = ObsReport::new();
        if self.enabled {
            report.metrics = self.metrics;
            report.record_span(
                keys::SWEEP_RUN,
                SpanStats {
                    count: 1,
                    steps: self.steps,
                },
            );
        }
        report
    }
}

/// A sweep's aggregate plus the observability report gathered on the
/// same pass.
#[derive(Debug, Clone)]
pub struct ObservedSweep {
    /// The usual sweep aggregate.
    pub summary: SweepSummary,
    /// Metrics, span tallies, and wall-clock timings for the pass.
    pub report: ObsReport,
}

impl Simulation {
    /// Like [`Simulation::summarize`], but also gathers an
    /// [`ObsReport`] on the same telemetry pass. `threads` follows
    /// [`crate::SweepPlan::threads`] semantics (`0` = auto); with
    /// [`ObsMode::Off`] the extra recorder folds a single branch per
    /// step and the report comes back empty.
    ///
    /// Wall-clock time is measured against the real monotonic clock;
    /// use [`Simulation::summarize_observed_with_clock`] to inject a
    /// [`mira_obs::ManualClock`] in tests.
    ///
    /// # Errors
    ///
    /// [`Error::Sweep`] when the span is empty or the step is not
    /// positive.
    pub fn summarize_observed(
        &self,
        span: impl Into<SweepSpan>,
        step: Duration,
        threads: usize,
        mode: ObsMode,
    ) -> Result<ObservedSweep, Error> {
        self.summarize_observed_with_clock(span, step, threads, mode, &WallClock::default())
    }

    /// [`Simulation::summarize_observed`] with an injected clock for
    /// the nondeterministic `timings` section. The deterministic
    /// snapshot never reads the clock.
    ///
    /// # Errors
    ///
    /// [`Error::Sweep`] when the span is empty or the step is not
    /// positive.
    pub fn summarize_observed_with_clock<C: Clock>(
        &self,
        span: impl Into<SweepSpan>,
        step: Duration,
        threads: usize,
        mode: ObsMode,
        clock: &C,
    ) -> Result<ObservedSweep, Error> {
        let plan = self.sweep_plan(span).step(step).threads(threads);
        let (from, to) = plan.span();
        let begin = clock.nanos();
        let (summary, mut report) = plan.run(|| {
            (
                SweepSummary::empty((from, to), step),
                SweepObsRecorder::new(mode),
            )
        })?;
        let elapsed = clock.nanos().saturating_sub(begin);

        if mode.is_on() {
            record_executor_shape(&mut report.metrics, from, to, step);
            report.timings.record(keys::SWEEP_WALL, elapsed);
        }
        Ok(ObservedSweep { summary, report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::SimConfig;
    use crate::sweep::SweepPlan;
    use mira_obs::ManualClock;
    use mira_timeseries::{Date, SimTime};

    fn sim() -> Simulation {
        Simulation::new(SimConfig::with_seed(7))
    }

    fn t(y: i32, m: u8, d: u8) -> SimTime {
        SimTime::from_date(Date::new(y, m, d))
    }

    #[test]
    fn off_mode_reports_nothing_and_matches_plain_summary() {
        let sim = sim();
        let span = (t(2015, 2, 1), t(2015, 3, 1));
        let step = Duration::from_hours(6);
        let observed = sim
            .summarize_observed(span, step, 1, ObsMode::Off)
            .expect("valid span");
        assert!(observed.report.is_empty());
        let plain = sim.summarize(span, step).expect("valid span");
        assert_eq!(observed.summary, plain);
    }

    #[test]
    fn executor_fold_matches_hand_sharded_fold_exactly() {
        let sim = sim();
        // Crosses three month boundaries, so merge seams are exercised.
        let span = (t(2015, 1, 15), t(2015, 4, 10));
        let step = Duration::from_hours(2);

        // Emulate the executor by hand: one fresh recorder per
        // calendar-month shard, merged chronologically, each instant
        // folded as a 1-instant block from a fresh scratch. The seam
        // transitions must come out of `merge`, and the in-shard ones
        // out of the carried trailing edge, not the block cut.
        let shards = month_shards(span.0, span.1, step);
        assert!(shards.len() >= 3, "span must cross month boundaries");
        let mut merged: Option<SweepObsRecorder> = None;
        for &(lo, hi) in &shards {
            let mut partial = SweepObsRecorder::new(ObsMode::On);
            for k in lo..hi {
                let at = span.0 + step * convert::i64_from_usize(k);
                let mut scratch = sim.telemetry().sweep_scratch();
                sim.telemetry().sweep_steps_into(at, step, 1, &mut scratch);
                let (block, staging) = scratch.block_parts();
                partial.record_block(block, staging);
            }
            match merged.as_mut() {
                Some(acc) => acc.merge(partial),
                None => merged = Some(partial),
            }
        }
        let by_hand = merged.expect("non-empty span").finish();

        let plan = SweepPlan::new(sim.telemetry(), span.0, span.1).step(step);
        let executed = plan
            .run(|| SweepObsRecorder::new(ObsMode::On))
            .expect("valid span");
        assert_eq!(executed.deterministic_json(), by_hand.deterministic_json());
        // Conflict-free vocabulary: every key maps to exactly one kind.
        assert_eq!(executed.metrics.counter("obs.conflicts"), None);
    }

    #[test]
    fn thread_counts_agree_bytewise() {
        let sim = sim();
        let span = (t(2016, 5, 10), t(2016, 8, 20));
        let step = Duration::from_hours(4);
        let clock = ManualClock::new();
        let base = sim
            .summarize_observed_with_clock(span, step, 1, ObsMode::On, &clock)
            .expect("valid span");
        for threads in [2, 4] {
            let other = sim
                .summarize_observed_with_clock(span, step, threads, ObsMode::On, &clock)
                .expect("valid span");
            assert_eq!(
                other.report.deterministic_json(),
                base.report.deterministic_json(),
                "threads={threads}"
            );
            assert_eq!(other.summary, base.summary);
        }
    }

    #[test]
    fn report_counts_the_grid_and_the_plan() {
        let sim = sim();
        let span = (t(2015, 1, 1), t(2015, 3, 1));
        let step = Duration::from_hours(6);
        let clock = ManualClock::new();
        clock.advance(17);
        let observed = sim
            .summarize_observed_with_clock(span, step, 2, ObsMode::On, &clock)
            .expect("valid span");
        let report = &observed.report;
        let steps = u64::try_from((31 + 28) * 4).expect("small");
        assert_eq!(report.metrics.counter(keys::SIM_STEPS), Some(steps));
        assert_eq!(
            report.metrics.counter(keys::SIM_SAMPLES),
            Some(steps * 48),
            "48 racks per instant"
        );
        assert_eq!(report.metrics.counter(keys::SWEEP_SHARDS), Some(2));
        assert_eq!(report.metrics.counter(keys::SWEEP_MERGES), Some(1));
        assert_eq!(report.spans[keys::SWEEP_RUN], SpanStats { count: 1, steps });
        // The injected clock never advanced during the run, so the
        // timing is present but zero.
        assert_eq!(report.timings.nanos(keys::SWEEP_WALL), Some(0));
    }
}
