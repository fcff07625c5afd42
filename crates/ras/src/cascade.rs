//! RAS storms: the raw message flood around a coolant incident.
//!
//! When a coolant monitor trips fatally, the log does not record one tidy
//! line — it records a *storm*: the epicenter rack floods the log, every
//! cascading rack floods it again as its clock disappears, and warn-level
//! chatter continues until operators bring racks back. The paper reports
//! upwards of 10,000 messages for a single storm, which is exactly why it
//! defines the de-duplicated failure count that [`crate::dedup`]
//! implements.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use mira_timeseries::Duration;

use crate::event::{FailureKind, RasEvent};
use crate::schedule::ScheduledIncident;

/// A fully-rendered storm: the incident plus its raw message flood.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StormIncident {
    /// The underlying scheduled incident.
    pub incident: ScheduledIncident,
    /// Raw RAS messages, time-ordered.
    pub messages: Vec<RasEvent>,
}

impl StormIncident {
    /// Number of raw messages in the storm.
    #[must_use]
    pub fn message_count(&self) -> usize {
        self.messages.len()
    }
}

/// Renders scheduled incidents into raw RAS message floods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CascadePlanner {
    seed: u64,
    /// Raw messages per affected rack for a large storm (scaled down for
    /// small incidents).
    messages_per_rack: u32,
}

impl CascadePlanner {
    /// Creates a planner with Mira-scale message volumes.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            messages_per_rack: 260,
        }
    }

    /// Renders one incident into a storm.
    ///
    /// The epicenter logs a fatal coolant-monitor event at the incident
    /// time; each cascaded rack logs its own fatal CMF within minutes
    /// (they trip as their clock or loop state collapses); and every
    /// affected rack emits a burst of warn-level coolant chatter over the
    /// following hour.
    #[must_use]
    pub fn render(&self, incident: &ScheduledIncident) -> StormIncident {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ incident.time.epoch_seconds().cast_unsigned());
        let mut messages = Vec::new();

        for (i, &rack) in incident.affected.iter().enumerate() {
            // Fatal record: the epicenter exactly at T, followers within
            // minutes.
            let offset = if i == 0 {
                Duration::ZERO
            } else {
                Duration::from_seconds(rng.random_range(20..600))
            };
            messages.push(RasEvent::fatal(
                incident.time + offset,
                rack,
                FailureKind::CoolantMonitor,
            ));

            // Warn-level flood from this rack over the next hour.
            let burst = self.messages_per_rack + rng.random_range(0..self.messages_per_rack / 2);
            for _ in 0..burst {
                let dt = Duration::from_seconds(rng.random_range(0..3600));
                messages.push(RasEvent::warn(
                    incident.time + offset + dt,
                    rack,
                    FailureKind::CoolantMonitor,
                ));
            }
        }
        messages.sort_by_key(|m| m.time);
        StormIncident {
            incident: incident.clone(),
            messages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_facility::RackId;
    use mira_timeseries::{Date, SimTime};

    fn incident(n_racks: usize) -> ScheduledIncident {
        let affected: Vec<RackId> = RackId::all().take(n_racks).collect();
        ScheduledIncident {
            time: SimTime::from_date(Date::new(2016, 6, 10)),
            epicenter: affected[0],
            affected,
        }
    }

    #[test]
    fn every_affected_rack_gets_a_fatal() {
        let planner = CascadePlanner::new(1);
        let storm = planner.render(&incident(8));
        for rack in &storm.incident.affected {
            assert!(
                storm
                    .messages
                    .iter()
                    .any(|m| m.rack == *rack && m.is_fatal_cmf()),
                "{rack} missing fatal"
            );
        }
    }

    #[test]
    fn large_storm_floods_the_log() {
        let planner = CascadePlanner::new(1);
        let storm = planner.render(&incident(48));
        assert!(
            storm.message_count() > 10_000,
            "storm of {} messages",
            storm.message_count()
        );
    }

    #[test]
    fn small_incident_is_still_noisy() {
        let planner = CascadePlanner::new(1);
        let storm = planner.render(&incident(1));
        assert!(storm.message_count() > 100);
    }

    #[test]
    fn messages_are_time_ordered() {
        let planner = CascadePlanner::new(1);
        let storm = planner.render(&incident(12));
        for pair in storm.messages.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
    }

    #[test]
    fn epicenter_fatal_is_at_incident_time() {
        let planner = CascadePlanner::new(1);
        let inc = incident(5);
        let storm = planner.render(&inc);
        let first_fatal = storm
            .messages
            .iter()
            .find(|m| m.is_fatal_cmf() && m.rack == inc.epicenter)
            .unwrap();
        assert_eq!(first_fatal.time, inc.time);
    }

    #[test]
    fn rendering_is_deterministic() {
        let planner = CascadePlanner::new(1);
        let inc = incident(6);
        assert_eq!(planner.render(&inc), planner.render(&inc));
    }
}
