//! The elevated non-CMF failure hazard after a coolant incident.
//!
//! Fig. 14 of the paper: in the 48 hours after a CMF the system suffers
//! non-coolant failures at a sharply elevated, decaying rate — the rate
//! within 6 h is under 75 % of the rate within 3 h, and by 48 h it is
//! down to 10 %. Half of those follow-on failures are "AC to DC power"
//! (bulk power modules restarting into damaged state), with BQC/BQL
//! module failures next, and they land *anywhere* on the machine, not
//! near the epicenter (Fig. 15).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use mira_facility::RackId;
use mira_timeseries::Duration;
use mira_units::convert;

use crate::event::{FailureKind, RasEvent};
use crate::schedule::ScheduledIncident;

/// Post-CMF follow-on failure generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AftermathModel {
    seed: u64,
    /// Expected follow-on failures per affected rack of the incident.
    mean_per_affected_rack: f64,
    /// Hazard decay constant (per hour).
    lambda_per_hour: f64,
}

/// The paper's post-CMF failure-type mix (Fig. 14b): AC-to-DC power 50 %,
/// BQC 17 %, BQL 15 %, clock card 8 %, software 8 %, process 2 %.
pub const TYPE_MIX: [(FailureKind, f64); 6] = [
    (FailureKind::AcToDcPower, 0.50),
    (FailureKind::Bqc, 0.17),
    (FailureKind::Bql, 0.15),
    (FailureKind::ClockCard, 0.08),
    (FailureKind::Software, 0.08),
    (FailureKind::Process, 0.02),
];

impl AftermathModel {
    /// Creates the model with Fig. 14-calibrated decay.
    ///
    /// `λ = 0.3 / h` gives windowed mean rates of `R(6h)/R(3h) ≈ 0.70`
    /// (paper: "< 75 %") and `R(48h)/R(3h) ≈ 0.10`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            mean_per_affected_rack: 0.9,
            lambda_per_hour: 0.3,
        }
    }

    /// Instantaneous hazard multiplier `e^{-λτ}` at `τ` after the CMF.
    #[must_use]
    pub fn hazard(&self, since_cmf: Duration) -> f64 {
        (-self.lambda_per_hour * since_cmf.as_hours().max(0.0)).exp()
    }

    /// Mean failure rate over the window `[0, horizon]`, relative to the
    /// initial hazard: `(1 − e^{−λT}) / (λT)`.
    #[must_use]
    pub fn windowed_rate(&self, horizon: Duration) -> f64 {
        let lt = self.lambda_per_hour * horizon.as_hours();
        if lt <= 0.0 {
            return 1.0;
        }
        (1.0 - (-lt).exp()) / lt
    }

    /// Draws the follow-on failures for one incident.
    ///
    /// Counts scale with the incident's multiplicity; times follow the
    /// exponential-decay hazard over 48 h; racks are uniform over the
    /// machine (deliberately uncorrelated with the epicenter); kinds
    /// follow [`TYPE_MIX`].
    #[must_use]
    pub fn events_after(&self, incident: &ScheduledIncident) -> Vec<RasEvent> {
        let mut rng = StdRng::seed_from_u64(
            self.seed
                ^ incident
                    .time
                    .epoch_seconds()
                    .cast_unsigned()
                    .rotate_left(13),
        );
        let mean = self.mean_per_affected_rack * convert::f64_from_usize(incident.multiplicity());
        let count = sample_poisson(&mut rng, mean);
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            // Inverse-CDF sample of the truncated exponential over 48 h.
            let u: f64 = rng.random();
            let lt48 = self.lambda_per_hour * 48.0;
            let tau_h = -(1.0 - u * (1.0 - (-lt48).exp())).ln() / self.lambda_per_hour;
            let rack = RackId::from_index(rng.random_range(0..RackId::COUNT));
            let kind = draw_kind(&mut rng);
            events.push(RasEvent::fatal(
                incident.time + Duration::from_seconds(convert::i64_from_f64_floor(tau_h * 3600.0)),
                rack,
                kind,
            ));
        }
        events.sort_by_key(|e| e.time);
        events
    }
}

fn draw_kind(rng: &mut StdRng) -> FailureKind {
    let mut u: f64 = rng.random();
    for (kind, p) in TYPE_MIX {
        if u < p {
            return kind;
        }
        u -= p;
    }
    FailureKind::Process
}

fn sample_poisson(rng: &mut StdRng, mean: f64) -> usize {
    let l = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.random::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k; // pathological mean guard
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_timeseries::{Date, SimTime};

    fn incident(n: usize) -> ScheduledIncident {
        let affected: Vec<RackId> = RackId::all().take(n).collect();
        ScheduledIncident {
            time: SimTime::from_date(Date::new(2016, 6, 10)),
            epicenter: affected[0],
            affected,
        }
    }

    #[test]
    fn windowed_rates_match_fig14a() {
        let m = AftermathModel::new(1);
        let r3 = m.windowed_rate(Duration::from_hours(3));
        let r6 = m.windowed_rate(Duration::from_hours(6));
        let r48 = m.windowed_rate(Duration::from_hours(48));
        assert!(r6 / r3 < 0.75, "6h/3h = {}", r6 / r3);
        assert!((0.07..0.13).contains(&(r48 / r3)), "48h/3h = {}", r48 / r3);
    }

    #[test]
    fn hazard_decays_monotonically() {
        let m = AftermathModel::new(1);
        let mut prev = f64::INFINITY;
        for h in 0..48 {
            let cur = m.hazard(Duration::from_hours(h));
            assert!(cur < prev);
            prev = cur;
        }
        assert_eq!(m.hazard(Duration::ZERO), 1.0);
    }

    #[test]
    fn events_fall_within_48h() {
        let m = AftermathModel::new(1);
        let inc = incident(12);
        for e in m.events_after(&inc) {
            let tau = (e.time - inc.time).as_hours();
            assert!((0.0..=48.0).contains(&tau), "tau {tau}");
            assert!(!e.kind.is_cmf());
        }
    }

    #[test]
    fn type_mix_dominated_by_ac_dc() {
        let m = AftermathModel::new(1);
        let mut counts = std::collections::HashMap::new();
        // Pool many incidents for statistics.
        for day in 0..400 {
            let mut inc = incident(10);
            inc.time = SimTime::from_date(Date::new(2016, 1, 1))
                + Duration::from_days(day)
                + Duration::from_hours(1);
            for e in m.events_after(&inc) {
                *counts.entry(e.kind).or_insert(0u32) += 1;
            }
        }
        let total: u32 = counts.values().sum();
        assert!(total > 1000, "need statistics, got {total}");
        let share =
            |k: FailureKind| f64::from(counts.get(&k).copied().unwrap_or(0)) / f64::from(total);
        assert!((0.45..0.55).contains(&share(FailureKind::AcToDcPower)));
        assert!(share(FailureKind::Process) < 0.05);
        assert!(share(FailureKind::Bqc) > share(FailureKind::ClockCard));
    }

    #[test]
    fn locations_are_not_near_epicenter() {
        let m = AftermathModel::new(1);
        let mut distant = 0;
        let mut total = 0;
        for day in 0..400 {
            let mut inc = incident(1);
            inc.time = SimTime::from_date(Date::new(2016, 1, 1))
                + Duration::from_days(day)
                + Duration::from_hours(2);
            for e in m.events_after(&inc) {
                total += 1;
                if e.rack.grid_distance(inc.epicenter) > 4 {
                    distant += 1;
                }
            }
        }
        assert!(total > 100);
        let frac = f64::from(distant) / f64::from(total);
        assert!(frac > 0.5, "follow-ons should scatter: {frac}");
    }

    #[test]
    fn more_racks_mean_more_followons() {
        let m = AftermathModel::new(1);
        let small: usize = (0..50)
            .map(|i| {
                let mut inc = incident(1);
                inc.time = SimTime::from_date(Date::new(2015, 1, 1)) + Duration::from_days(i);
                m.events_after(&inc).len()
            })
            .sum();
        let large: usize = (0..50)
            .map(|i| {
                let mut inc = incident(24);
                inc.time = SimTime::from_date(Date::new(2015, 1, 1)) + Duration::from_days(i);
                m.events_after(&inc).len()
            })
            .sum();
        assert!(large > small * 4, "small {small} large {large}");
    }
}
