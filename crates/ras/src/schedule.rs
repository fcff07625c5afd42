//! The six-year coolant-monitor-failure ground truth.
//!
//! The paper counts a "failure" per rack shut down, de-duplicated over a
//! 6 h window: one physical incident that takes out eight racks counts as
//! eight failures. Over 2014–2019 Mira accumulated **361** such failures
//! with a decidedly non-bathtub shape: roughly 40 % landed in 2016 while
//! Theta was being plumbed into the shared cooling loop, followed by a
//! quiet stretch of more than two years until late 2018 (Fig. 10). Across
//! racks the counts run from 5 (rack `(2, 7)`) to 14 (rack `(1, 8)`),
//! with no other rack above 9, and essentially no correlation with
//! utilization, outlet temperature, or humidity (Fig. 11).
//!
//! [`CmfSchedule::generate`] synthesizes an incident list consistent with
//! all of those anchors: per-rack quotas (hash-distributed, with the
//! named outliers pinned), per-year budgets, and cascade membership drawn
//! along the clock tree plus non-spatial fill — then hands the simulator
//! a ground truth to render telemetry and RAS storms against.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use mira_facility::{ClockTree, RackId};
use mira_timeseries::{Date, Duration, SimTime};
use mira_units::convert;

/// One scheduled coolant-monitor incident: an epicenter rack plus the
/// racks its failure takes down with it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledIncident {
    /// When the fatal coolant event fires.
    pub time: SimTime,
    /// The rack whose monitor trips first.
    pub epicenter: RackId,
    /// All racks shut down by the incident, epicenter included; each
    /// counts as one failure in the paper's methodology.
    pub affected: Vec<RackId>,
}

impl ScheduledIncident {
    /// Number of rack failures this incident contributes.
    #[must_use]
    pub fn multiplicity(&self) -> usize {
        self.affected.len()
    }
}

/// The full 2014–2019 CMF schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CmfSchedule {
    incidents: Vec<ScheduledIncident>,
}

/// Total rack-level CMF failures over the six years.
pub const TOTAL_FAILURES: u32 = 361;

/// Per-year failure budgets (2014–2019). 2016 carries ≈40 % (the Theta
/// integration); 2017 and most of 2018 are quiet; activity resumes in
/// December 2018.
pub const YEAR_BUDGETS: [(i32, u32); 6] = [
    (2014, 60),
    (2015, 55),
    (2016, 145),
    (2017, 0),
    (2018, 8),
    (2019, 93),
];

impl CmfSchedule {
    /// Generates the schedule for a seed.
    ///
    /// Different seeds rearrange incident times and cascade membership;
    /// the totals (361), the yearly budgets, and the per-rack outliers
    /// are invariant — they are the measured ground truth being
    /// reproduced.
    #[must_use]
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xCAFE_F00D);
        let clock = ClockTree::mira();
        let mut quota = per_rack_quota(seed);

        let mut incidents = Vec::new();
        for (year, budget) in YEAR_BUDGETS {
            let mut remaining = budget;
            let window = year_window(year);
            let mut year_groups: Vec<(RackId, Vec<RackId>)> = Vec::new();
            while remaining > 0 {
                // Draw a cascade size, capped by what is left.
                let m = draw_multiplicity(&mut rng).min(convert::usize_from_u32(remaining));
                let with_quota: Vec<RackId> =
                    RackId::all().filter(|r| quota[r.index()] > 0).collect();
                let m = m.min(with_quota.len());
                if m == 0 {
                    break; // all quota consumed (cannot happen: sums match)
                }

                // Epicenter weighted by remaining quota.
                let total_q: u32 = with_quota.iter().map(|r| quota[r.index()]).sum();
                let mut pick = rng.random_range(0..total_q);
                // with_quota is non-empty: m == 0 broke out above.
                // mira-lint: allow(panic-reachability)
                let mut epicenter = with_quota[0];
                for &r in &with_quota {
                    let q = quota[r.index()];
                    if pick < q {
                        epicenter = r;
                        break;
                    }
                    pick -= q;
                }

                // Cascade membership: epicenter, then clock dependents
                // with quota, then non-spatial fill.
                let mut affected = vec![epicenter];
                for r in clock.affected_by(epicenter) {
                    if affected.len() >= m {
                        break;
                    }
                    if r != epicenter && quota[r.index()] > 0 {
                        affected.push(r);
                    }
                }
                let mut fill: Vec<RackId> = with_quota
                    .iter()
                    .copied()
                    .filter(|r| !affected.contains(r))
                    .collect();
                // Fisher-Yates for non-spatial fill order.
                for i in (1..fill.len()).rev() {
                    let j = rng.random_range(0..=i);
                    fill.swap(i, j);
                }
                for r in fill {
                    if affected.len() >= m {
                        break;
                    }
                    affected.push(r);
                }

                for r in &affected {
                    quota[r.index()] -= 1;
                }
                remaining -= convert::u32_from_usize(affected.len());
                year_groups.push((epicenter, affected));
            }

            // Assign stratified times across the year window: one jittered
            // slot per incident, which keeps incidents well beyond the 8 h
            // separation the 6 h de-dup windows need.
            let k = year_groups.len();
            let (start, end) = window;
            let span = (end - start).as_seconds();
            for (i, (epicenter, affected)) in year_groups.into_iter().enumerate() {
                let slot = span / convert::i64_from_usize(k.max(1));
                // The product is non-negative, so floor == truncation and
                // this matches the former bare `as i64` bit-for-bit.
                let jitter = convert::i64_from_f64_floor(
                    rng.random::<f64>() * 0.8 * convert::f64_from_i64(slot),
                );
                let time =
                    start + Duration::from_seconds(slot * convert::i64_from_usize(i) + jitter);
                incidents.push(ScheduledIncident {
                    time,
                    epicenter,
                    affected,
                });
            }
        }
        incidents.sort_by_key(|i| i.time);
        Self { incidents }
    }

    /// All incidents in time order.
    #[must_use]
    pub fn incidents(&self) -> &[ScheduledIncident] {
        &self.incidents
    }

    /// Total rack-level failures (the paper's 361).
    #[must_use]
    pub fn total_rack_failures(&self) -> u32 {
        self.incidents
            .iter()
            .map(|i| convert::u32_from_usize(i.multiplicity()))
            .sum()
    }

    /// Rack failures per calendar year.
    #[must_use]
    pub fn failures_by_year(&self) -> Vec<(i32, u32)> {
        YEAR_BUDGETS
            .iter()
            .map(|&(year, _)| {
                let count = self
                    .incidents
                    .iter()
                    .filter(|i| i.time.date().year() == year)
                    .map(|i| convert::u32_from_usize(i.multiplicity()))
                    .sum();
                (year, count)
            })
            .collect()
    }

    /// Rack failures per rack, indexed by [`RackId::index`].
    #[must_use]
    pub fn failures_by_rack(&self) -> [u32; RackId::COUNT] {
        let mut counts = [0u32; RackId::COUNT];
        for incident in &self.incidents {
            for r in &incident.affected {
                counts[r.index()] += 1;
            }
        }
        counts
    }

    /// The next incident at or after `t`, if any.
    #[must_use]
    pub fn next_incident_at_or_after(&self, t: SimTime) -> Option<&ScheduledIncident> {
        let idx = self.incidents.partition_point(|i| i.time < t);
        self.incidents.get(idx)
    }
}

/// Per-rack failure quotas: `(1, 8)` = 14, `(2, 7)` = 5, everyone else in
/// 5–9, summing to exactly 361, with a mild anti-utilization tilt (row 0
/// trends low) so the Fig. 11 correlations come out slightly negative.
fn per_rack_quota(seed: u64) -> [u32; RackId::COUNT] {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0B5E_55ED);
    let hotspot = RackId::new(1, 8);
    let floor = RackId::new(2, 7);

    let mut quota = [0u32; RackId::COUNT];
    quota[hotspot.index()] = 14;
    quota[floor.index()] = 5;

    let others: Vec<RackId> = RackId::all()
        .filter(|&r| r != hotspot && r != floor)
        .collect();
    // Base 7 each; sum must reach 342 over 46 racks (46 × 7 = 322, so 20
    // +1 bumps, applied with the row-0 tilt).
    for &r in &others {
        quota[r.index()] = 7;
    }
    let mut bumps = 342 - 46 * 7; // 20
    let mut guard = 0;
    while bumps > 0 {
        // `get` of an in-range draw: always `Some`.
        let Some(&r) = others.get(rng.random_range(0..others.len())) else {
            break;
        };
        // Row-0 racks (high utilization) dodge bumps more often.
        if r.row() == 0 && rng.random::<f64>() < 0.65 {
            guard += 1;
            if guard > 10_000 {
                break;
            }
            continue;
        }
        if quota[r.index()] < 9 {
            quota[r.index()] += 1;
            bumps -= 1;
        }
    }
    // Mirror some bumps as dips to widen the 5..9 spread without moving
    // the sum: pick pairs (donor with 8-9, receiver with 5-7... actually
    // donor loses, receiver gains).
    for _ in 0..14 {
        let (Some(&a), Some(&b)) = (
            others.get(rng.random_range(0..others.len())),
            others.get(rng.random_range(0..others.len())),
        ) else {
            break;
        };
        // Donors stay at 6+, keeping (2, 7)'s 5 the unique minimum.
        if a != b && quota[a.index()] > 6 && quota[b.index()] < 9 {
            // Tilt: prefer taking from row 0.
            if a.row() == 0 || rng.random::<f64>() < 0.5 {
                quota[a.index()] -= 1;
                quota[b.index()] += 1;
            }
        }
    }
    debug_assert_eq!(quota.iter().sum::<u32>(), TOTAL_FAILURES);
    quota
}

/// The date window CMFs may occur in for a year (for 2016, February
/// through November — the Theta burst; for 2018, December only).
fn year_window(year: i32) -> (SimTime, SimTime) {
    let (from, to) = match year {
        2016 => (Date::new(2016, 2, 1), Date::new(2016, 12, 1)),
        2018 => (Date::new(2018, 12, 1), Date::new(2019, 1, 1)),
        y => (Date::new(y, 1, 5), Date::new(y + 1, 1, 1)),
    };
    (SimTime::from_date(from), SimTime::from_date(to))
}

fn draw_multiplicity(rng: &mut StdRng) -> usize {
    let u: f64 = rng.random();
    if u < 0.55 {
        1
    } else if u < 0.80 {
        rng.random_range(2..=5)
    } else if u < 0.95 {
        rng.random_range(6..=12)
    } else {
        rng.random_range(20..=48)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_is_361() {
        let s = CmfSchedule::generate(1);
        assert_eq!(s.total_rack_failures(), TOTAL_FAILURES);
    }

    #[test]
    fn yearly_budgets_hold() {
        let s = CmfSchedule::generate(1);
        for (year, count) in s.failures_by_year() {
            let budget = YEAR_BUDGETS
                .iter()
                .find(|(y, _)| *y == year)
                .map(|(_, b)| *b)
                .unwrap();
            assert_eq!(count, budget, "year {year}");
        }
    }

    #[test]
    fn theta_year_carries_forty_percent() {
        let s = CmfSchedule::generate(2);
        let by_year = s.failures_by_year();
        let y2016 = by_year.iter().find(|(y, _)| *y == 2016).unwrap().1;
        let share = f64::from(y2016) / f64::from(TOTAL_FAILURES);
        assert!((0.38..0.42).contains(&share), "2016 share {share}");
    }

    #[test]
    fn quiet_gap_after_theta() {
        let s = CmfSchedule::generate(3);
        let mut times: Vec<SimTime> = s.incidents().iter().map(|i| i.time).collect();
        times.sort();
        let last_2016 = times
            .iter()
            .rev()
            .find(|t| t.date().year() == 2016)
            .unwrap();
        let first_after = times.iter().find(|t| **t > *last_2016).unwrap();
        let gap_days = (*first_after - *last_2016).as_days();
        assert!(gap_days > 730.0, "gap {gap_days} days");
    }

    #[test]
    fn rack_distribution_matches_fig11() {
        let s = CmfSchedule::generate(4);
        let counts = s.failures_by_rack();
        assert_eq!(counts[RackId::new(1, 8).index()], 14);
        assert_eq!(counts[RackId::new(2, 7).index()], 5);
        for r in RackId::all() {
            if r != RackId::new(1, 8) && r != RackId::new(2, 7) {
                let c = counts[r.index()];
                assert!((5..=9).contains(&c), "{r} has {c} failures");
            }
        }
        assert_eq!(counts.iter().sum::<u32>(), TOTAL_FAILURES);
    }

    #[test]
    fn incidents_are_separated() {
        let s = CmfSchedule::generate(5);
        let inc = s.incidents();
        for pair in inc.windows(2) {
            let gap = (pair[1].time - pair[0].time).as_hours();
            assert!(gap >= 7.99, "incidents {gap} h apart");
        }
    }

    #[test]
    fn affected_racks_are_unique_per_incident() {
        let s = CmfSchedule::generate(6);
        for incident in s.incidents() {
            let mut seen = std::collections::HashSet::new();
            for r in &incident.affected {
                assert!(seen.insert(*r), "duplicate rack in incident");
            }
            assert!(incident.affected.contains(&incident.epicenter));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(CmfSchedule::generate(9), CmfSchedule::generate(9));
        assert_ne!(
            CmfSchedule::generate(9).incidents()[0].time,
            CmfSchedule::generate(10).incidents()[0].time
        );
    }

    #[test]
    fn next_incident_lookup() {
        let s = CmfSchedule::generate(7);
        let first = &s.incidents()[0];
        assert_eq!(
            s.next_incident_at_or_after(SimTime::from_date(Date::new(2013, 1, 1)))
                .unwrap()
                .time,
            first.time
        );
        let last = s.incidents().last().unwrap();
        assert!(s
            .next_incident_at_or_after(last.time + Duration::from_seconds(1))
            .is_none());
    }

    #[test]
    fn multi_rack_incidents_exist() {
        let s = CmfSchedule::generate(8);
        assert!(
            s.incidents().iter().any(|i| i.multiplicity() >= 6),
            "expected at least one large RAS storm"
        );
        assert!(
            s.incidents().iter().any(|i| i.multiplicity() == 1),
            "expected isolated failures too"
        );
    }
}
