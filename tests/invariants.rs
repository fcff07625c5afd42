//! Property-based invariants of the assembled simulator: physical
//! bounds, conservation laws, and aggregation consistency, checked over
//! randomized instants, racks, and spans.

use std::sync::OnceLock;

use proptest::prelude::*;

use mira_core::{Date, Duration, RackId, SimConfig, SimTime, Simulation, TelemetryProvider};

fn sim() -> &'static Simulation {
    static SIM: OnceLock<Simulation> = OnceLock::new();
    SIM.get_or_init(|| Simulation::new(SimConfig::with_seed(314)))
}

/// Any instant of the six years, at 300 s granularity.
fn any_instant() -> impl Strategy<Value = SimTime> {
    let start = SimTime::from_date(Date::new(2014, 1, 1)).epoch_seconds();
    let end = SimTime::from_date(Date::new(2020, 1, 1)).epoch_seconds();
    ((start / 300)..(end / 300)).prop_map(|tick| SimTime::from_epoch_seconds(tick * 300))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn telemetry_is_always_physical(t in any_instant(), rack_idx in 0usize..48) {
        let rack = RackId::from_index(rack_idx);
        let s = sim().telemetry().sample(rack, t);
        // Bounds wide enough for failures (flow 0, standby power) but
        // tight enough to catch real model bugs.
        prop_assert!((0.0..=40.0).contains(&s.flow.value()), "flow {}", s.flow);
        prop_assert!((50.0..=80.0).contains(&s.inlet.value()), "inlet {}", s.inlet);
        prop_assert!((50.0..=110.0).contains(&s.outlet.value()), "outlet {}", s.outlet);
        prop_assert!((0.0..=90.0).contains(&s.power.value()), "power {}", s.power);
        prop_assert!((60.0..=100.0).contains(&s.dc_temperature.value()));
        prop_assert!((10.0..=60.0).contains(&s.dc_humidity.value()));
        // Outlet never reads below inlet by more than sensor noise:
        // heat only flows one way.
        prop_assert!(
            s.outlet.value() >= s.inlet.value() - 1.0,
            "outlet {} under inlet {}",
            s.outlet,
            s.inlet
        );
    }

    #[test]
    fn flow_is_conserved_across_racks(t in any_instant()) {
        let engine = sim().telemetry();
        let snap = engine.snapshot(t);
        let total: f64 = snap.flows.iter().map(|f| f.value()).sum();
        let open = snap.rack_up.iter().filter(|&&u| u).count();
        if open > 0 {
            let setpoint = engine.effective_setpoint(t, &snap.demand).value();
            prop_assert!(
                (total - setpoint).abs() < 1e-6,
                "distributed {total} vs setpoint {setpoint}"
            );
        } else {
            prop_assert_eq!(total, 0.0);
        }
        // Closed valves carry no flow.
        for (i, up) in snap.rack_up.iter().enumerate() {
            if !up {
                prop_assert_eq!(snap.flows[i].value(), 0.0);
            }
        }
    }

    #[test]
    fn sample_is_pure(t in any_instant(), rack_idx in 0usize..48) {
        let rack = RackId::from_index(rack_idx);
        let a = sim().telemetry().sample(rack, t);
        let b = sim().telemetry().sample(rack, t);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn summary_mean_matches_direct_recomputation(
        start_day in 0i64..2100,
        hours in 24i64..240,
    ) {
        let from = SimTime::from_date(Date::new(2014, 1, 1)) + Duration::from_days(start_day);
        let to = from + Duration::from_hours(hours);
        let step = Duration::from_hours(3);
        let summary = sim().summarize(from..to, step).expect("valid span");

        // Recompute the mean system power directly.
        let mut total = 0.0;
        let mut n = 0u32;
        let mut t = from;
        while t < to {
            let snap = sim().telemetry().snapshot(t);
            total += RackId::all()
                .map(|rack| sim().telemetry().observe(rack, &snap).power.value())
                .sum::<f64>()
                / 1000.0;
            n += 1;
            t += step;
        }
        let direct = total / f64::from(n);
        let via_summary = summary.power_mw.bins.overall().mean();
        prop_assert!(
            (direct - via_summary).abs() < 1e-9,
            "direct {direct} vs summary {via_summary}"
        );
        prop_assert_eq!(u64::from(n), summary.power_mw.bins.overall().count());
    }

    #[test]
    fn summary_merge_agrees_with_whole_sweep(
        start_day in 0i64..2000,
        left_steps in 8i64..80,
        right_steps in 8i64..80,
    ) {
        let step = Duration::from_hours(3);
        // The cut must sit on the whole sweep's sample grid, otherwise
        // the two halves would sample different instants than the
        // single sweep.
        let from = SimTime::from_date(Date::new(2014, 1, 1)) + Duration::from_days(start_day);
        let cut = from + step * left_steps;
        let to = cut + step * right_steps;

        let whole = sim().summarize(from..to, step).expect("valid span");
        let mut merged = sim().summarize(from..cut, step).expect("valid span");
        merged.merge(&sim().summarize(cut..to, step).expect("valid span"));

        // Counts, spans, and ledger shape are exact under merge.
        prop_assert_eq!(merged.span, whole.span);
        prop_assert_eq!(
            merged.power_mw.bins.overall().count(),
            whole.power_mw.bins.overall().count()
        );
        prop_assert_eq!(merged.racks[11].power.count(), whole.racks[11].power.count());
        prop_assert_eq!(merged.yearly_energy.len(), whole.yearly_energy.len());
        // Moments agree to rounding error (merge re-associates folds).
        let dm = merged.flow_gpm.bins.overall().mean() - whole.flow_gpm.bins.overall().mean();
        prop_assert!(dm.abs() < 1e-9, "merged mean off by {dm}");
        let ds = merged.dc_temp_all_racks.stddev() - whole.dc_temp_all_racks.stddev();
        prop_assert!(ds.abs() < 1e-9, "merged stddev off by {ds}");
        let saved = merged.season_saved.value() - whole.season_saved.value();
        prop_assert!(saved.abs() < 1e-6, "season savings off by {saved}");
    }

    #[test]
    fn condensation_margin_positive_when_healthy(t in any_instant(), rack_idx in 0usize..48) {
        let rack = RackId::from_index(rack_idx);
        let engine = sim().telemetry();
        // Only claim safety when no CMF is near (signature distorts
        // the margin by design).
        let near_failure = engine
            .next_cmf(rack, t - Duration::from_hours(1))
            .is_some_and(|cmf| (cmf - t).as_hours() < 13.0);
        if !near_failure {
            let s = engine.sample(rack, t);
            prop_assert!(
                s.condensation_margin().value() > 3.0,
                "margin {} at {t} on {rack}",
                s.condensation_margin()
            );
        }
    }
}
