//! The operator console: the deployed form of everything above.
//!
//! The paper's closing pitch is operational: telemetry should feed a
//! monitor that warns hours before a coolant failure so staff can
//! checkpoint, alert users, and pre-stage recovery. [`OperatorConsole`]
//! is that loop, runnable over any span of the simulated years: every
//! monitor tick it extracts each rack's trailing-window features, asks
//! the trained predictor for a failure probability, debounces alerts,
//! and logs them — then [`AlertLog::score_against`] grades the run
//! against the ground truth: how early was each failure flagged, and
//! how often did the console cry wolf?

use serde::{Deserialize, Serialize};

use mira_facility::RackId;
use mira_predictor::{CmfPredictor, DatasetBuilder, TelemetryProvider};
use mira_timeseries::{Duration, SimTime};
use mira_units::convert;

use crate::simulation::Simulation;

/// One raised alert.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// When the console raised it.
    pub time: SimTime,
    /// The rack flagged.
    pub rack: RackId,
    /// The predictor's probability at that instant.
    pub probability: f64,
}

/// Console configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConsoleConfig {
    /// Probability above which an alert fires.
    pub alert_threshold: f64,
    /// How often each rack is scored.
    pub cadence: Duration,
    /// Suppress repeat alerts on a rack for this long.
    pub debounce: Duration,
}

impl Default for ConsoleConfig {
    fn default() -> Self {
        Self {
            alert_threshold: 0.9,
            cadence: Duration::from_minutes(30),
            debounce: Duration::from_hours(6),
        }
    }
}

/// The alert log of one console run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlertLog {
    /// Alerts in time order.
    pub alerts: Vec<Alert>,
    /// Span replayed.
    pub span: (SimTime, SimTime),
}

/// How a console run scored against the failure ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConsoleScore {
    /// Failures in the span whose rack was alerted within the horizon
    /// beforehand, with the achieved warning time.
    pub warned: Vec<(SimTime, RackId, Duration)>,
    /// Failures in the span that got no warning.
    pub missed: Vec<(SimTime, RackId)>,
    /// Alerts not followed by a failure on that rack within the horizon.
    pub false_alerts: usize,
    /// Mean warning time across warned failures.
    pub mean_warning: Duration,
}

impl ConsoleScore {
    /// Fraction of failures warned.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        let total = self.warned.len() + self.missed.len();
        if total == 0 {
            0.0
        } else {
            convert::f64_from_usize(self.warned.len()) / convert::f64_from_usize(total)
        }
    }

    /// False alerts per simulated week.
    #[must_use]
    pub fn false_alerts_per_week(&self, span: (SimTime, SimTime)) -> f64 {
        let weeks = (span.1 - span.0).as_days() / 7.0;
        convert::f64_from_usize(self.false_alerts) / weeks.max(1e-9)
    }
}

/// The replayable operator console.
#[derive(Debug)]
pub struct OperatorConsole<'a> {
    predictor: &'a CmfPredictor,
    builder: &'a DatasetBuilder,
    config: ConsoleConfig,
}

impl<'a> OperatorConsole<'a> {
    /// Wires a console from a trained predictor and its window
    /// extractor.
    #[must_use]
    pub fn new(
        predictor: &'a CmfPredictor,
        builder: &'a DatasetBuilder,
        config: ConsoleConfig,
    ) -> Self {
        Self {
            predictor,
            builder,
            config,
        }
    }

    /// Replays `[from, to)`, scoring every rack at the configured
    /// cadence.
    ///
    /// # Panics
    ///
    /// Panics if the span is empty.
    #[must_use]
    pub fn replay<P: TelemetryProvider>(
        &self,
        provider: &P,
        from: SimTime,
        to: SimTime,
    ) -> AlertLog {
        self.replay_masked(provider, from, to, |_, _| false)
    }

    /// [`OperatorConsole::replay`] with an operational blackout mask:
    /// `(rack, t)` pairs for which the mask returns true are not scored.
    ///
    /// Real consoles mute prediction during scheduled maintenance and
    /// while a rack is recovering from an outage — telemetry there
    /// swings for known, benign reasons, and alerting on it buries the
    /// real precursors. [`Simulation::blackout_mask`] provides Mira's
    /// mask.
    ///
    /// # Panics
    ///
    /// Panics if the span is empty.
    #[must_use]
    pub fn replay_masked<P, F>(&self, provider: &P, from: SimTime, to: SimTime, mask: F) -> AlertLog
    where
        P: TelemetryProvider,
        F: Fn(RackId, SimTime) -> bool,
    {
        assert!(from < to, "empty replay span");
        let mut alerts = Vec::new();
        let mut muted_until = [None::<SimTime>; RackId::COUNT];
        let mut t = from;
        while t < to {
            let due: Vec<RackId> = RackId::all()
                .filter(|rack| {
                    muted_until[rack.index()].is_none_or(|mute| t >= mute) && !mask(*rack, t)
                })
                .collect();
            // One floor window per tick, read only when some rack is due.
            if !due.is_empty() {
                let rows = self.builder.floor_window(provider, t);
                for rack in due {
                    let Some(features) = self.builder.rack_features(&rows, rack) else {
                        continue;
                    };
                    let probability = self.predictor.predict(&features);
                    if probability >= self.config.alert_threshold {
                        alerts.push(Alert {
                            time: t,
                            rack,
                            probability,
                        });
                        muted_until[rack.index()] = Some(t + self.config.debounce);
                    }
                }
            }
            t += self.config.cadence;
        }
        AlertLog {
            alerts,
            span: (from, to),
        }
    }
}

impl AlertLog {
    /// Grades the log against the world's CMF ground truth: an alert
    /// warns a failure if it fires on the failing rack within `horizon`
    /// beforehand.
    #[must_use]
    pub fn score_against(&self, sim: &Simulation, horizon: Duration) -> ConsoleScore {
        let (from, to) = self.span;
        let failures: Vec<(SimTime, RackId)> = sim
            .cmf_ground_truth()
            .into_iter()
            .filter(|(t, _)| *t >= from && *t < to)
            .collect();

        let mut warned = Vec::new();
        let mut missed = Vec::new();
        let mut used = vec![false; self.alerts.len()];
        for &(failure_time, rack) in &failures {
            let best = self
                .alerts
                .iter()
                .enumerate()
                .filter(|(_, a)| {
                    a.rack == rack && a.time <= failure_time && failure_time - a.time <= horizon
                })
                .min_by_key(|(_, a)| a.time);
            match best {
                Some((idx, alert)) => {
                    if let Some(flag) = used.get_mut(idx) {
                        *flag = true;
                    }
                    warned.push((failure_time, rack, failure_time - alert.time));
                }
                None => missed.push((failure_time, rack)),
            }
        }
        // Any unused alert that also has no failure in its forward
        // horizon is a false alert (later alerts for the same incident
        // are debounced echoes, already suppressed by construction).
        let false_alerts = self
            .alerts
            .iter()
            .enumerate()
            .filter(|(idx, a)| {
                // used has one flag per alert; idx comes from the same
                // enumerate. mira-lint: allow(panic-reachability)
                !used[*idx]
                    && !failures
                        .iter()
                        .any(|&(ft, fr)| fr == a.rack && ft >= a.time && ft - a.time <= horizon)
            })
            .count();

        let mean_warning = if warned.is_empty() {
            Duration::ZERO
        } else {
            Duration::from_seconds(
                warned.iter().map(|(_, _, d)| d.as_seconds()).sum::<i64>()
                    / i64::try_from(warned.len()).unwrap_or(i64::MAX),
            )
        };
        ConsoleScore {
            warned,
            missed,
            false_alerts,
            mean_warning,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::SimConfig;
    use mira_predictor::{FeatureConfig, PredictorConfig};

    fn world() -> (Simulation, CmfPredictor, DatasetBuilder) {
        let sim = Simulation::new(SimConfig::with_seed(88));
        let mut cmfs = sim.cmf_ground_truth();
        cmfs.truncate(150);
        // The deployable configuration: differential (rack-over-floor)
        // features cancel benign common-mode swings, and hard negatives
        // teach the model what recoveries and maintenance look like.
        let features = FeatureConfig {
            mode: mira_predictor::FeatureMode::DifferentialDeltas,
            ..FeatureConfig::mira()
        };
        let builder = DatasetBuilder::new(features, cmfs, sim.config().span());
        let (predictor, _) = CmfPredictor::train(
            sim.telemetry(),
            &builder,
            &PredictorConfig {
                epochs: 30,
                seed: 2,
                hard_negatives: true,
                ..PredictorConfig::default()
            },
        );
        (sim, predictor, builder)
    }

    #[test]
    fn console_warns_before_failures_with_hours_of_lead() {
        let (sim, predictor, builder) = world();
        // Replay from two days before the first incident through the
        // third: at seed 88 that spans 7,549 h (315 days, 15,097
        // decision ticks).
        let incidents = &sim.schedule().incidents()[..3];
        let from = incidents[0].time - Duration::from_days(2);
        let to = incidents[2].time + Duration::from_hours(1);
        let console = OperatorConsole::new(&predictor, &builder, ConsoleConfig::default());
        let log = console.replay_masked(sim.telemetry(), from, to, sim.blackout_mask());
        let score = log.score_against(&sim, Duration::from_hours(12));

        assert!(
            score.coverage() > 0.6,
            "coverage {} (warned {:?}, missed {:?})",
            score.coverage(),
            score.warned.len(),
            score.missed.len()
        );
        assert!(
            score.mean_warning.as_hours() >= 1.0,
            "mean warning {}",
            score.mean_warning
        );
        // Across that span the whole floor should stay quiet between
        // incidents.
        assert!(
            score.false_alerts_per_week(log.span) < 40.0,
            "false alerts/week {}",
            score.false_alerts_per_week(log.span)
        );
    }

    #[test]
    fn debounce_suppresses_alert_storms() {
        let (sim, predictor, builder) = world();
        let incident = &sim.schedule().incidents()[0];
        let from = incident.time - Duration::from_hours(8);
        let to = incident.time;
        let console = OperatorConsole::new(&predictor, &builder, ConsoleConfig::default());
        let log = console.replay(sim.telemetry(), from, to);
        // At a 30-minute cadence with no debounce there could be ~16
        // alerts per sick rack; with a 6 h debounce at most 2.
        for rack in incident.affected.iter().take(3) {
            let count = log.alerts.iter().filter(|a| a.rack == *rack).count();
            assert!(count <= 2, "{rack} alerted {count} times");
        }
    }

    #[test]
    fn quiet_year_stays_mostly_quiet() {
        let (sim, predictor, builder) = world();
        // 2017 had zero failures.
        let from = SimTime::from_date(mira_timeseries::Date::new(2017, 4, 1));
        let to = from + Duration::from_days(7);
        let console = OperatorConsole::new(&predictor, &builder, ConsoleConfig::default());
        let log = console.replay_masked(sim.telemetry(), from, to, sim.blackout_mask());
        let score = log.score_against(&sim, Duration::from_hours(12));
        assert!(score.warned.is_empty() && score.missed.is_empty());
        assert!(
            score.false_alerts_per_week(log.span) < 25.0,
            "false alerts/week {} over a quiet week",
            score.false_alerts_per_week(log.span)
        );
    }
}
