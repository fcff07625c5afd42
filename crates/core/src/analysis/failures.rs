//! Failure analyses: Figs. 10, 12, 14 and 15.

use serde::{Deserialize, Serialize};

use mira_facility::RackId;
use mira_predictor::TelemetryProvider;
use mira_ras::FailureKind;
use mira_timeseries::{Duration, SimTime};
use mira_units::convert;

use crate::simulation::Simulation;

/// Fig. 10: the six-year CMF timeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig10 {
    /// Counted CMFs per calendar year.
    pub by_year: Vec<(i32, u32)>,
    /// Total counted CMFs (paper: 361).
    pub total: u32,
    /// Share of failures in 2016 (paper: ≈40 %).
    pub share_2016: f64,
    /// Longest failure-free gap in days (paper: > 2 years after the 2016
    /// burst).
    pub longest_gap_days: f64,
}

/// Fig. 10.
#[must_use]
pub fn fig10_cmf_timeline(sim: &Simulation) -> Fig10 {
    let by_year = sim.ras_log().cmf_by_year(2014..=2019);
    let total: u32 = by_year.iter().map(|(_, n)| n).sum();
    let y2016 = by_year
        .iter()
        .find(|(y, _)| *y == 2016)
        .map_or(0, |(_, n)| *n);

    let mut times: Vec<SimTime> = sim.ras_log().counted_cmfs().map(|e| e.time).collect();
    times.sort();
    let longest_gap_days = times
        .windows(2)
        // windows(2) pairs have exactly two elements.
        // mira-lint: allow(panic-reachability)
        .map(|w| (w[1] - w[0]).as_days())
        .fold(0.0, f64::max);

    Fig10 {
        share_2016: f64::from(y2016) / f64::from(total.max(1)),
        total,
        by_year,
        longest_gap_days,
    }
}

/// One lead-time point of the Fig. 12 pre-failure telemetry profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LeadupPoint {
    /// Lead time before the failure.
    pub lead: Duration,
    /// Mean flow relative to the healthy baseline.
    pub flow_rel: f64,
    /// Mean inlet temperature relative to baseline.
    pub inlet_rel: f64,
    /// Mean outlet temperature relative to baseline.
    pub outlet_rel: f64,
}

/// Fig. 12: the averaged telemetry lead-up across CMFs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig12 {
    /// Profile points, longest lead first.
    pub points: Vec<LeadupPoint>,
    /// Number of failures averaged.
    pub events: usize,
}

/// Fig. 12: averages rack telemetry at each lead time over up to
/// `max_events` CMFs, relative to a healthy baseline 24 h before each
/// failure.
#[must_use]
pub fn fig12_cmf_leadup(sim: &Simulation, leads: &[Duration], max_events: usize) -> Fig12 {
    let telemetry = sim.telemetry();
    let ground_truth = sim.cmf_ground_truth();
    let events: Vec<&(SimTime, RackId)> = ground_truth.iter().take(max_events).collect();

    // Each event's baseline, sampled once; events without a usable one
    // are skipped at every lead.
    let baselines: Vec<_> = events
        .iter()
        .filter_map(|&&(cmf_time, rack)| {
            let baseline = telemetry.sample(rack, cmf_time - Duration::from_hours(24));
            (baseline.flow.value().is_finite() && baseline.flow.value() >= 1.0)
                .then_some((cmf_time, rack, baseline))
        })
        .collect();

    let mut points = Vec::with_capacity(leads.len());
    for &lead in leads {
        let mut flow = 0.0;
        let mut inlet = 0.0;
        let mut outlet = 0.0;
        let mut n = 0.0;
        for (cmf_time, rack, baseline) in &baselines {
            let s = telemetry.sample(*rack, *cmf_time - lead);
            flow += s.flow.value() / baseline.flow.value();
            inlet += s.inlet.value() / baseline.inlet.value();
            outlet += s.outlet.value() / baseline.outlet.value();
            n += 1.0;
        }
        if n > 0.0 {
            points.push(LeadupPoint {
                lead,
                flow_rel: flow / n,
                inlet_rel: inlet / n,
                outlet_rel: outlet / n,
            });
        }
    }
    Fig12 {
        events: events.len(),
        points,
    }
}

/// Fig. 14: the post-CMF failure-rate decay and type mix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig14 {
    /// `(window hours, mean non-CMF failures per hour within window)`.
    pub rate_windows: Vec<(f64, f64)>,
    /// Rate within 6 h over rate within 3 h (paper: < 0.75).
    pub ratio_6h_over_3h: f64,
    /// Rate within 48 h over rate within 3 h (paper: ≈ 0.10).
    pub ratio_48h_over_3h: f64,
    /// Share of each non-CMF failure kind (paper: AC-DC ≈ 50 %).
    pub type_mix: Vec<(FailureKind, f64)>,
}

/// Fig. 14.
#[must_use]
// rate_windows gets one row per element of the five-entry windows_h;
// the literal indices stay below that. mira-lint: allow(panic-reachability)
pub fn fig14_post_cmf(sim: &Simulation) -> Fig14 {
    let windows_h = [3.0, 6.0, 12.0, 24.0, 48.0];
    let incidents = sim.schedule().incidents();
    let mut rate_windows = Vec::with_capacity(windows_h.len());
    for &w in &windows_h {
        let window = Duration::from_seconds(convert::i64_from_f64_floor(w * 3600.0));
        let total: usize = incidents
            .iter()
            .map(|i| sim.ras_log().non_cmfs_within(i.time, window))
            .sum();
        let rate = convert::f64_from_usize(total) / convert::f64_from_usize(incidents.len()) / w;
        rate_windows.push((w, rate));
    }
    let rate3 = rate_windows[0].1.max(1e-12);
    Fig14 {
        ratio_6h_over_3h: rate_windows[1].1 / rate3,
        ratio_48h_over_3h: rate_windows[4].1 / rate3,
        type_mix: sim.ras_log().non_cmf_type_mix(),
        rate_windows,
    }
}

/// One Fig. 15 storm example.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig15StormExample {
    /// When the storm started.
    pub time: SimTime,
    /// The epicenter rack.
    pub epicenter: RackId,
    /// Racks shut down by the storm itself.
    pub cascade: Vec<RackId>,
    /// Non-CMF failures in the following 48 h: `(rack, kind, hours
    /// after)`.
    pub followons: Vec<(RackId, FailureKind, f64)>,
    /// Mean grid distance of follow-on failures from the epicenter.
    pub mean_followon_distance: f64,
}

/// Fig. 15: the `n` largest storms with their (spatially scattered)
/// follow-on failures.
#[must_use]
pub fn fig15_storm_examples(sim: &Simulation, n: usize) -> Vec<Fig15StormExample> {
    let mut incidents: Vec<_> = sim.schedule().incidents().iter().collect();
    incidents.sort_by_key(|i| std::cmp::Reverse(i.multiplicity()));

    incidents
        .into_iter()
        .take(n)
        .map(|incident| {
            let followons: Vec<(RackId, FailureKind, f64)> = sim
                .ras_log()
                .counted_non_cmfs()
                .filter(|e| {
                    e.time >= incident.time && e.time - incident.time <= Duration::from_hours(48)
                })
                .map(|e| (e.rack, e.kind, (e.time - incident.time).as_hours()))
                .collect();
            let mean_followon_distance = if followons.is_empty() {
                0.0
            } else {
                followons
                    .iter()
                    .map(|(r, _, _)| f64::from(r.grid_distance(incident.epicenter)))
                    .sum::<f64>()
                    / convert::f64_from_usize(followons.len())
            };
            Fig15StormExample {
                time: incident.time,
                epicenter: incident.epicenter,
                cascade: incident.affected.clone(),
                followons,
                mean_followon_distance,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::SimConfig;

    fn sim() -> Simulation {
        Simulation::new(SimConfig::with_seed(43))
    }

    #[test]
    fn fig10_anchors() {
        let fig10 = fig10_cmf_timeline(&sim());
        assert_eq!(fig10.total, 361);
        assert!(
            (0.38..0.42).contains(&fig10.share_2016),
            "{}",
            fig10.share_2016
        );
        assert!(fig10.longest_gap_days > 700.0, "{}", fig10.longest_gap_days);
        // No bathtub: first and last years are not the max.
        let max_year = fig10
            .by_year
            .iter()
            .max_by_key(|(_, n)| *n)
            .map(|(y, _)| *y)
            .unwrap();
        assert_eq!(max_year, 2016);
    }

    #[test]
    fn fig12_shape() {
        let s = sim();
        let leads = [
            Duration::from_hours(6),
            Duration::from_hours(4),
            Duration::from_hours(3),
            Duration::from_hours(2),
            Duration::from_minutes(30),
            Duration::ZERO,
        ];
        let fig12 = fig12_cmf_leadup(&s, &leads, 40);
        assert_eq!(fig12.points.len(), 6);
        let at = |h: f64| {
            fig12
                .points
                .iter()
                .find(|p| (p.lead.as_hours() - h).abs() < 1e-9)
                .unwrap()
        };
        // Inlet sag ≈7 % in the trough, recovered at the event.
        assert!(at(2.0).inlet_rel < 0.95, "trough {}", at(2.0).inlet_rel);
        assert!(at(0.0).inlet_rel > 0.97, "recovery {}", at(0.0).inlet_rel);
        // Outlet ≈5 % down three hours out.
        assert!(
            (0.93..0.97).contains(&at(3.0).outlet_rel),
            "outlet {}",
            at(3.0).outlet_rel
        );
        // Flow stable at 2 h, collapsing at the event.
        assert!(
            (0.97..1.03).contains(&at(2.0).flow_rel),
            "{}",
            at(2.0).flow_rel
        );
        assert!(at(0.0).flow_rel < 0.8, "collapse {}", at(0.0).flow_rel);
    }

    #[test]
    fn fig14_decay_and_mix() {
        let fig14 = fig14_post_cmf(&sim());
        assert!(fig14.ratio_6h_over_3h < 0.85, "{}", fig14.ratio_6h_over_3h);
        assert!(
            (0.05..0.2).contains(&fig14.ratio_48h_over_3h),
            "{}",
            fig14.ratio_48h_over_3h
        );
        // Rates decay monotonically with window size.
        for pair in fig14.rate_windows.windows(2) {
            assert!(pair[1].1 <= pair[0].1 + 1e-12);
        }
        let ac_dc = fig14
            .type_mix
            .iter()
            .find(|(k, _)| *k == FailureKind::AcToDcPower)
            .unwrap()
            .1;
        assert!((0.4..0.6).contains(&ac_dc), "AC-DC {ac_dc}");
    }

    #[test]
    fn fig15_storms_scatter() {
        let examples = fig15_storm_examples(&sim(), 3);
        assert_eq!(examples.len(), 3);
        for ex in &examples {
            assert!(ex.cascade.len() >= 2, "picked the largest storms");
            assert!(ex.cascade.contains(&ex.epicenter));
        }
        // At least one example has distant follow-ons.
        assert!(
            examples.iter().any(|e| e.mean_followon_distance > 4.0),
            "follow-ons should scatter"
        );
    }
}
