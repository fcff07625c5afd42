//! The top-level simulation: six years of Mira in one object.

use serde::{Deserialize, Serialize};

use mira_facility::{Machine, RackId};
use mira_ras::{CmfSchedule, RasLog};
use mira_timeseries::{Date, Duration, SimTime};

use crate::error::Error;
use crate::summary::SweepSummary;
use crate::sweep::{SweepPlan, SweepSpan};
use crate::telemetry::TelemetryEngine;

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Master seed: everything stochastic derives from it.
    pub seed: u64,
    /// First simulated day (Mira production start).
    pub start: Date,
    /// First day after the simulation (production end).
    pub end: Date,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 0x4D49_5241, // "MIRA"
            start: Date::new(2014, 1, 1),
            end: Date::new(2020, 1, 1),
        }
    }
}

impl SimConfig {
    /// A config with everything default but the seed.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// A builder starting from the defaults.
    ///
    /// ```
    /// use mira_core::SimConfig;
    /// use mira_timeseries::Date;
    ///
    /// let cfg = SimConfig::builder()
    ///     .seed(99)
    ///     .start(Date::new(2015, 1, 1))
    ///     .end(Date::new(2016, 1, 1))
    ///     .build();
    /// assert_eq!(cfg.seed, 99);
    /// ```
    #[must_use]
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// The simulated span as instants.
    #[must_use]
    pub fn span(&self) -> (SimTime, SimTime) {
        (SimTime::from_date(self.start), SimTime::from_date(self.end))
    }
}

/// Builder for [`SimConfig`], starting from the defaults.
#[derive(Debug, Clone, Default)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the first simulated day.
    #[must_use]
    pub fn start(mut self, start: Date) -> Self {
        self.config.start = start;
        self
    }

    /// Sets the first day after the simulation.
    #[must_use]
    pub fn end(mut self, end: Date) -> Self {
        self.config.end = end;
        self
    }

    /// Finishes the configuration.
    #[must_use]
    pub fn build(self) -> SimConfig {
        self.config
    }
}

/// The assembled simulation: failure ground truth, RAS log, and the
/// telemetry engine, ready for sweeps and analyses.
///
/// ```
/// use mira_core::{SimConfig, Simulation};
///
/// let sim = Simulation::new(SimConfig::with_seed(7));
/// assert_eq!(sim.schedule().total_rack_failures(), 361);
/// ```
#[derive(Debug, Clone)]
pub struct Simulation {
    config: SimConfig,
    schedule: CmfSchedule,
    ras_log: RasLog,
    engine: TelemetryEngine,
}

impl Simulation {
    /// Builds the simulation: generates the CMF schedule, assembles the
    /// RAS log, and wires the telemetry engine.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        let schedule = CmfSchedule::generate(config.seed);
        let ras_log = RasLog::assemble(&schedule, config.seed);
        let engine = TelemetryEngine::new(config.seed, &schedule, &ras_log);
        Self {
            config,
            schedule,
            ras_log,
            engine,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The CMF ground truth.
    #[must_use]
    pub fn schedule(&self) -> &CmfSchedule {
        &self.schedule
    }

    /// The assembled RAS log.
    #[must_use]
    pub fn ras_log(&self) -> &RasLog {
        &self.ras_log
    }

    /// The telemetry engine (implements
    /// [`mira_predictor::TelemetryProvider`]).
    #[must_use]
    pub fn telemetry(&self) -> &TelemetryEngine {
        &self.engine
    }

    /// The machine description.
    #[must_use]
    pub fn machine(&self) -> &Machine {
        self.engine.machine()
    }

    /// The per-rack CMF list as `(time, rack)` pairs — the predictor's
    /// ground truth (361 entries for the full run).
    #[must_use]
    pub fn cmf_ground_truth(&self) -> Vec<(SimTime, RackId)> {
        let mut out = Vec::new();
        for incident in self.schedule.incidents() {
            for &rack in &incident.affected {
                out.push((incident.time, rack));
            }
        }
        out.sort_by_key(|(t, _)| *t);
        out
    }

    /// The operational blackout mask for console-style alerting: a
    /// `(rack, t)` is blacked out while the trailing feature window
    /// overlaps scheduled maintenance (burner-job transitions swing
    /// power and outlet benignly) or the rack's own outage/recovery.
    pub fn blackout_mask(&self) -> impl Fn(RackId, SimTime) -> bool + '_ {
        let maintenance = *self.engine.workload().demand().maintenance();
        move |rack: RackId, t: SimTime| {
            // Feature windows trail six hours; probe a few points.
            let probes = [0i64, 2, 4, 6];
            let maint = probes
                .iter()
                .any(|&h| maintenance.in_window(t - Duration::from_hours(h)));
            // Down now, or was down within the window (recovery swing);
            // pad by the window length plus the 6 h outage.
            let outage = probes.iter().chain([8, 10, 13].iter()).any(|&h| {
                !self
                    .engine
                    .availability()
                    .is_up(rack, t - Duration::from_hours(h))
            });
            maint || outage
        }
    }

    /// A [`SweepPlan`] over `span` — anything span-like:
    /// [`crate::FullSpan`], a `(from, to)` tuple, or a `from..to` range.
    /// Configure step and threads on the plan, then call
    /// [`SweepPlan::summary`] or [`SweepPlan::run`].
    #[must_use]
    pub fn sweep_plan(&self, span: impl Into<SweepSpan>) -> SweepPlan<'_> {
        let (from, to) = span.into().resolve(self.config.span());
        SweepPlan::new(&self.engine, from, to)
    }

    /// Sweeps `span` at `step` and aggregates.
    ///
    /// # Errors
    ///
    /// [`Error::Sweep`] when the span is empty or the step is not
    /// positive.
    pub fn summarize(
        &self,
        span: impl Into<SweepSpan>,
        step: Duration,
    ) -> Result<SweepSummary, Error> {
        self.sweep_plan(span).step(step).summary()
    }
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new(SimConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_wires_everything() {
        let sim = Simulation::new(SimConfig::with_seed(3));
        assert_eq!(sim.schedule().total_rack_failures(), 361);
        assert_eq!(sim.cmf_ground_truth().len(), 361);
        assert!(sim.ras_log().raw().len() > 10_000);
        assert_eq!(sim.machine().total_nodes(), 49_152);
    }

    #[test]
    fn ground_truth_is_time_ordered() {
        let sim = Simulation::new(SimConfig::with_seed(3));
        let gt = sim.cmf_ground_truth();
        for pair in gt.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
    }

    #[test]
    fn config_span() {
        let cfg = SimConfig::default();
        let (from, to) = cfg.span();
        assert_eq!((to - from).as_days(), 2191.0); // 2014-2019 inclusive
    }

    #[test]
    fn same_seed_same_world() {
        let a = Simulation::new(SimConfig::with_seed(5));
        let b = Simulation::new(SimConfig::with_seed(5));
        assert_eq!(a.schedule(), b.schedule());
        let t = SimTime::from_date(Date::new(2018, 4, 1));
        let (ea, eb) = (a.telemetry(), b.telemetry());
        let (sa, sb) = (ea.snapshot(t), eb.snapshot(t));
        for rack in RackId::all() {
            assert_eq!(ea.observe(rack, &sa), eb.observe(rack, &sb));
        }
    }
}
