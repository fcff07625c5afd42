//! Reproducibility: the whole world is a function of the seed, and
//! sweep results are a function of the plan — never the thread count.

use mira_core::{analysis, Date, Duration, FullSpan, RackId, SimConfig, SimTime, Simulation};

#[test]
fn same_seed_bitwise_identical_world() {
    let a = Simulation::new(SimConfig::with_seed(1234));
    let b = Simulation::new(SimConfig::with_seed(1234));

    assert_eq!(a.schedule(), b.schedule());
    assert_eq!(a.ras_log(), b.ras_log());

    let t = SimTime::from_date(Date::new(2016, 8, 15)) + Duration::from_hours(10);
    let (ea, eb) = (a.telemetry(), b.telemetry());
    let (sa, sb) = (ea.snapshot(t), eb.snapshot(t));
    assert_eq!(sa, sb);
    for rack in RackId::all() {
        assert_eq!(ea.observe(rack, &sa), eb.observe(rack, &sb));
    }

    let span = (
        SimTime::from_date(Date::new(2015, 6, 1)),
        SimTime::from_date(Date::new(2015, 8, 1)),
    );
    let sa = a
        .summarize(span, Duration::from_hours(6))
        .expect("valid span");
    let sb = b
        .summarize(span, Duration::from_hours(6))
        .expect("valid span");
    assert_eq!(
        sa.power_mw.bins.overall().mean(),
        sb.power_mw.bins.overall().mean()
    );
    assert_eq!(sa.racks[17].flow.mean(), sb.racks[17].flow.mean());
}

#[test]
fn different_seeds_differ_but_keep_invariants() {
    let a = Simulation::new(SimConfig::with_seed(1));
    let b = Simulation::new(SimConfig::with_seed(2));

    // Stochastic arrangement differs...
    assert_ne!(
        a.schedule().incidents()[0].time,
        b.schedule().incidents()[0].time
    );
    let t = SimTime::from_date(Date::new(2018, 3, 3));
    let (ea, eb) = (a.telemetry(), b.telemetry());
    let (sa, sb) = (ea.snapshot(t), eb.snapshot(t));
    assert!(RackId::all().any(|rack| ea.observe(rack, &sa) != eb.observe(rack, &sb)));

    // ...but the measured ground truth does not.
    for sim in [&a, &b] {
        let fig10 = analysis::fig10_cmf_timeline(sim);
        assert_eq!(fig10.total, 361);
        assert!((0.38..0.42).contains(&fig10.share_2016));
        let counts = sim.ras_log().cmf_by_rack();
        assert_eq!(counts[RackId::new(1, 8).index()], 14);
        assert_eq!(counts[RackId::new(2, 7).index()], 5);
    }
}

/// The tentpole guarantee: a multi-threaded sweep over the full
/// six-year span is *exactly* equal to the single-threaded one — every
/// Welford moment, every per-rack aggregate, every yearly energy row.
/// The plan shards by calendar month and merges chronologically, so
/// workers only change who computes each shard, never the arithmetic.
#[test]
fn parallel_sweep_matches_sequential_exactly() {
    let sim = Simulation::new(SimConfig::with_seed(2014));
    let sweep = |threads: usize| {
        sim.sweep_plan(FullSpan)
            .step(Duration::from_hours(6))
            .threads(threads)
            .summary()
            .expect("six-year span is non-empty")
    };

    let sequential = sweep(1);
    // 2191 days at 4 samples/day.
    assert_eq!(sequential.power_mw.bins.overall().count(), 2191 * 4);

    for threads in [2, 4, 8] {
        let parallel = sweep(threads);
        // Spot-check the moments with exact comparisons first so a
        // regression names the channel...
        assert_eq!(
            sequential.power_mw.bins.overall().mean(),
            parallel.power_mw.bins.overall().mean(),
            "power mean, threads={threads}"
        );
        assert_eq!(
            sequential.dc_rh_all_racks.stddev(),
            parallel.dc_rh_all_racks.stddev(),
            "pooled humidity sigma, threads={threads}"
        );
        assert_eq!(
            sequential.racks[17].outlet, parallel.racks[17].outlet,
            "rack 17 outlet, threads={threads}"
        );
        assert_eq!(
            sequential.yearly_energy, parallel.yearly_energy,
            "yearly energy, threads={threads}"
        );
        // ...then require the whole summary to be bit-for-bit equal.
        assert_eq!(sequential, parallel, "threads={threads}");
    }

    // Auto selection (whatever the machine offers) agrees too.
    assert_eq!(sequential, sweep(0), "auto thread count");
}

/// A step longer than a month leaves some calendar months without a
/// grid instant, so each shard's month bins skip months and its
/// overall and yearly views merge bins that are not adjacent. The
/// summary must still be the same at every thread count.
#[test]
fn step_longer_than_a_month_is_thread_invariant() {
    let sim = Simulation::new(SimConfig::with_seed(2014));
    let sweep = |threads: usize| {
        sim.sweep_plan(FullSpan)
            .step(Duration::from_days(45))
            .threads(threads)
            .summary()
            .expect("six-year span is non-empty")
    };
    let sequential = sweep(1);
    // 2191 days at one instant per 45 days.
    assert_eq!(sequential.power_mw.bins.overall().count(), 49);
    assert_eq!(sequential, sweep(2), "threads=2");
    assert_eq!(sequential, sweep(0), "auto thread count");
}

/// Month-aligned sub-sweeps merged chronologically reproduce the
/// single sweep's counts exactly and its means to rounding error.
#[test]
fn merged_subspan_summaries_agree_with_one_sweep() {
    let sim = Simulation::new(SimConfig::with_seed(9));
    let step = Duration::from_hours(4);
    let cut = SimTime::from_date(Date::new(2015, 4, 1));
    let span = (
        SimTime::from_date(Date::new(2015, 1, 1)),
        SimTime::from_date(Date::new(2015, 7, 1)),
    );

    let whole = sim.summarize(span, step).expect("valid span");
    let mut merged = sim.summarize((span.0, cut), step).expect("valid span");
    merged.merge(&sim.summarize((cut, span.1), step).expect("valid span"));

    assert_eq!(merged.span, whole.span);
    assert_eq!(
        merged.power_mw.bins.overall().count(),
        whole.power_mw.bins.overall().count()
    );
    assert_eq!(merged.racks[5].flow.count(), whole.racks[5].flow.count());
    assert_eq!(merged.yearly_energy.len(), whole.yearly_energy.len());
    // Merging re-associates the floating-point folds, so means agree to
    // rounding error rather than bitwise.
    let dm = merged.power_mw.bins.overall().mean() - whole.power_mw.bins.overall().mean();
    assert!(dm.abs() < 1e-9, "merged mean off by {dm}");
    let ds = merged.dc_temp_all_racks.stddev() - whole.dc_temp_all_racks.stddev();
    assert!(ds.abs() < 1e-9, "merged sigma off by {ds}");
}

#[test]
fn telemetry_is_pure_random_access() {
    use mira_core::TelemetryProvider;

    let sim = Simulation::new(SimConfig::with_seed(77));
    let rack = RackId::new(2, 5);
    let t = SimTime::from_date(Date::new(2019, 9, 9)) + Duration::from_minutes(35);

    // Sampling out of order, repeatedly, gives identical records.
    let first = sim.telemetry().sample(rack, t);
    let _ = sim.telemetry().sample(rack, t - Duration::from_days(400));
    let again = sim.telemetry().sample(rack, t);
    assert_eq!(first, again);
}
