//! Integration tests for the features built from the paper's
//! "Opportunity" paragraphs, run against the real simulated world.

use mira_core::{
    analysis, compare_policies, CmfPredictor, DatasetBuilder, Date, Duration, FeatureConfig,
    MitigationCosts, PredictorConfig, SimConfig, SimTime, Simulation,
};
use mira_facility::{ClockTree, RackId};
use mira_predictor::{LocationPredictor, ThresholdDetector};
use mira_ras::{FailureDeduplicator, PhaseRates, WeibullFit};
use mira_workload::{hole_filling_experiment, ElasticPool};

fn trained(sim: &Simulation, events: usize) -> (CmfPredictor, DatasetBuilder) {
    let mut cmfs = sim.cmf_ground_truth();
    cmfs.truncate(events);
    let builder = DatasetBuilder::new(FeatureConfig::mira(), cmfs, sim.config().span());
    let (predictor, _) = CmfPredictor::train(
        sim.telemetry(),
        &builder,
        &PredictorConfig {
            epochs: 60,
            seed: 5,
            hard_negatives: true,
            ..PredictorConfig::default()
        },
    );
    (predictor, builder)
}

#[test]
fn thresholds_collapse_at_long_leads_network_does_not() {
    // The quantitative version of Sec. VI-D: a static-threshold monitor
    // is near chance six hours out, while the change-feature network
    // still works.
    let sim = Simulation::new(SimConfig::with_seed(101));
    let (predictor, builder) = trained(&sim, 140);
    let detector = ThresholdDetector::mira();

    let lead = Duration::from_hours(6);
    let thr = detector.evaluate_at(sim.telemetry(), &builder, lead, 3);
    let net = predictor.evaluate_at(sim.telemetry(), &builder, lead);
    assert!(
        thr.accuracy() < 0.65,
        "thresholds at 6 h should be near chance: {}",
        thr.accuracy()
    );
    assert!(
        net.accuracy() > thr.accuracy() + 0.15,
        "network {} vs thresholds {}",
        net.accuracy(),
        thr.accuracy()
    );

    // Close in, the visible sag makes even thresholds useful — but the
    // network stays ahead.
    let near = Duration::from_hours(1);
    let thr_near = detector.evaluate_at(sim.telemetry(), &builder, near, 3);
    let net_near = predictor.evaluate_at(sim.telemetry(), &builder, near);
    assert!(thr_near.accuracy() > 0.8, "{}", thr_near.accuracy());
    assert!(net_near.accuracy() >= thr_near.accuracy() - 0.02);
}

#[test]
fn localization_beats_chance_by_an_order_of_magnitude() {
    let sim = Simulation::new(SimConfig::with_seed(102));
    let (predictor, builder) = trained(&sim, 120);
    let loc = LocationPredictor::new(&predictor, &builder);

    let acc = loc.top_k_accuracy(sim.telemetry(), Duration::from_hours(2), 3, 50);
    assert!(acc.events >= 40);
    // Random top-3 over 48 racks is 6.25 %; anything above ~3x chance
    // is a real localization signal (weak-severity events cap it well
    // below 1 — exactly the paper's "location accuracy needs further
    // improvement" caveat).
    assert!(
        acc.hit_rate > 0.2,
        "top-3 hit rate {} (chance 0.0625)",
        acc.hit_rate
    );
    assert!(acc.mean_rank < 15.0, "mean rank {}", acc.mean_rank);
}

#[test]
fn failure_record_is_clustered_not_bathtub() {
    let sim = Simulation::new(SimConfig::with_seed(103));
    let times: Vec<SimTime> = sim.schedule().incidents().iter().map(|i| i.time).collect();
    let gaps: Vec<Duration> = times.windows(2).map(|w| w[1] - w[0]).collect();

    let fit = WeibullFit::fit(&gaps).expect("fit");
    assert!(
        fit.shape < 1.0,
        "clustered gaps give sub-exponential shape, got {}",
        fit.shape
    );

    let (start, end) = sim.config().span();
    let rates = PhaseRates::compute(&times, start, end, 6);
    assert!(!rates.is_bathtub());
    // The Theta phase (2016 = phase 2 of 6) is the peak or near it.
    let peak = rates.peak_phase();
    assert!(
        peak == 2 || peak == 5,
        "peak phase {peak}: {:?}",
        rates.per_day
    );
}

#[test]
fn elastic_pool_fills_capability_drains() {
    let report = hole_filling_experiment(11, 10, ElasticPool::mira());
    assert!(report.uplift() > 0.03, "uplift {}", report.uplift());
    assert!(
        report.elastic_minimum > report.rigid_minimum,
        "the drain hole must be shallower"
    );
    assert!(report.elastic_utilization <= 1.0 + 1e-9);
}

#[test]
fn checkpoint_economics_reward_the_real_predictor() {
    let sim = Simulation::new(SimConfig::with_seed(104));
    let (predictor, builder) = trained(&sim, 150);
    // Price the policy at the deployed operating point: checkpoints are
    // gated by console alerts, which fire at the console's 0.9
    // threshold, not at the classifier's raw 0.5 cut.
    let metrics =
        predictor.evaluate_at_threshold(sim.telemetry(), &builder, Duration::from_hours(3), 0.9);
    assert!(metrics.recall() > 0.8, "recall {}", metrics.recall());

    let report = compare_policies(
        &sim,
        Duration::from_hours(4),
        metrics,
        &MitigationCosts::mira(),
    );
    assert!(
        report.gated.total() < report.none.total(),
        "gated {} vs none {}",
        report.gated.total(),
        report.none.total()
    );
    assert!(report.gated.total() < report.periodic.total());
}

/// Ablation: the waterside economizer. Without it the chillers would
/// also spend the energy free cooling saved, so a year with any cold
/// weather must show a positive saving.
#[test]
fn economizer_saves_chiller_energy_in_2015() {
    let sim = Simulation::new(SimConfig::with_seed(2014));
    let summary = sim
        .summarize(
            SimTime::from_date(Date::new(2015, 1, 1))..SimTime::from_date(Date::new(2016, 1, 1)),
            Duration::from_hours(1),
        )
        .expect("valid span");
    let report = analysis::free_cooling_report(&summary);
    let (year, saved) = report.saved_by_year[0];
    assert_eq!(year, 2015);
    assert!(saved.value() > 0.0, "economizer saved {saved} in 2015");
}

/// Ablation: the CMF de-dup window. A longer window can only fold more
/// of a storm's follow-on reports into its first event, and the
/// paper's 6 h rack recovery time counts its 361 failures.
#[test]
fn counted_cmfs_fall_as_the_dedup_window_grows() {
    let sim = Simulation::new(SimConfig::with_seed(2014));
    let counts: Vec<(i64, usize)> = [1, 3, 6, 12, 24]
        .into_iter()
        .map(|hours| {
            let mut dedup =
                FailureDeduplicator::new(Duration::from_hours(hours), Duration::from_hours(1));
            let cmfs = dedup
                .filter(sim.ras_log().raw())
                .iter()
                .filter(|e| e.kind.is_cmf())
                .count();
            (hours, cmfs)
        })
        .collect();
    for pair in counts.windows(2) {
        assert!(pair[1].1 <= pair[0].1, "{counts:?}");
    }
    assert!(counts.contains(&(6, 361)), "{counts:?}");
}

/// Ablation: the clock-dependency tree. With isolated clocks an
/// epicenter failure takes down its own rack only; the shared tree
/// makes the mean loss per epicenter larger than one rack.
#[test]
fn clock_tree_widens_the_mean_epicenter_loss() {
    let tree = ClockTree::mira();
    let lost: usize = RackId::all().map(|r| tree.affected_by(r).len()).sum();
    let mean = lost as f64 / RackId::all().count() as f64;
    assert!(mean > 1.0, "mean racks lost per epicenter {mean}");
}
