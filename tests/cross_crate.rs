//! Cross-crate integration: the pieces cooperating the way the paper's
//! operations did.

use mira_cooling::AlarmThresholds;
use mira_core::{Date, Duration, RackId, SimConfig, SimTime, Simulation, TelemetryProvider};
use mira_ras::{FailureDeduplicator, RackAvailability};
use mira_workload::{BackfillScheduler, JobGenerator};

#[test]
fn scheduler_rides_through_a_cmf_storm() {
    // Drive the discrete job scheduler and drain racks when the
    // simulation's CMF schedule says they failed — the "CMF kills
    // hundreds of jobs" phenomenology.
    let sim = Simulation::new(SimConfig::with_seed(61));
    let incident = sim
        .schedule()
        .incidents()
        .iter()
        .find(|i| i.multiplicity() >= 6)
        .expect("a large storm exists");

    let mut scheduler = BackfillScheduler::new();
    let mut generator = JobGenerator::new(61);
    let mut t = incident.time - Duration::from_days(3);
    // Load the machine for three days.
    while t < incident.time {
        for job in generator.submissions(t, Duration::from_hours(1)) {
            scheduler.submit(job);
        }
        scheduler.step(t);
        t += Duration::from_hours(1);
    }
    let util_before = scheduler.utilization();
    assert!(util_before > 0.5, "machine loaded: {util_before}");

    let mut killed = 0;
    for &rack in &incident.affected {
        killed += scheduler.drain_rack(rack);
    }
    assert!(killed > 0, "the storm kills running jobs");
    assert!(scheduler.utilization() < util_before);

    // Six hours later the racks recover and the queue refills them.
    for &rack in &incident.affected {
        scheduler.restore_rack(rack);
    }
    let recovery_end = incident.time + Duration::from_hours(12);
    let mut t = incident.time;
    while t < recovery_end {
        for job in generator.submissions(t, Duration::from_hours(1)) {
            scheduler.submit(job);
        }
        scheduler.step(t);
        t += Duration::from_hours(1);
    }
    assert!(
        scheduler.utilization() > 0.5,
        "backfill refills after recovery: {}",
        scheduler.utilization()
    );
}

#[test]
fn telemetry_goes_dark_during_scheduled_outages() {
    let sim = Simulation::new(SimConfig::with_seed(62));
    let incident = &sim.schedule().incidents()[3];
    let telemetry = sim.telemetry();

    for &rack in incident.affected.iter().take(4) {
        let during = telemetry.sample(rack, incident.time + Duration::from_hours(2));
        assert!(during.power.value() < 6.0, "power cut: {}", during.power);
        assert!(during.flow.value() < 2.0, "valve closed: {}", during.flow);
        let after = telemetry.sample(rack, incident.time + Duration::from_hours(7));
        assert!(after.power.value() > 30.0, "recovered: {}", after.power);
    }
}

#[test]
fn availability_agrees_with_ras_log() {
    let sim = Simulation::new(SimConfig::with_seed(63));
    let mut availability = RackAvailability::new();
    for event in sim.ras_log().counted() {
        if event.kind.is_cmf() {
            availability.mark_cmf(event.rack, event.time);
        } else {
            availability.mark_non_cmf(event.rack, event.time);
        }
    }
    // Sum of downtime across racks: 361 CMFs x 6 h plus follow-ons.
    let cmf_hours: f64 = 361.0 * 6.0;
    let total: f64 = RackId::all()
        .map(|r| availability.total_downtime(r).as_hours())
        .sum();
    assert!(
        total >= cmf_hours * 0.9,
        "downtime {total} h vs CMF floor {cmf_hours} h"
    );
}

#[test]
fn dedup_recovers_schedule_from_raw_storm_log() {
    // The counting methodology applied to the raw message flood must
    // reconstruct exactly the scheduled per-rack failure counts.
    let sim = Simulation::new(SimConfig::with_seed(64));
    let mut dedup = FailureDeduplicator::mira();
    let counted = dedup.filter(sim.ras_log().raw());
    let cmf_count = counted.iter().filter(|e| e.kind.is_cmf()).count();
    assert_eq!(cmf_count, 361);
}

#[test]
fn alarms_fire_near_failures_not_in_steady_state() {
    let sim = Simulation::new(SimConfig::with_seed(65));
    let thresholds = AlarmThresholds::mira();
    let telemetry = sim.telemetry();

    // Steady state: a quiet week in 2017, no alarms anywhere.
    let mut t = SimTime::from_date(Date::new(2017, 6, 5));
    let end = t + Duration::from_days(7);
    while t < end {
        let snap = telemetry.snapshot(t);
        for s in RackId::all().map(|rack| telemetry.observe(rack, &snap)) {
            assert_eq!(
                thresholds.check(&s),
                None,
                "false alarm at {} on {}",
                t,
                s.rack
            );
        }
        t += Duration::from_hours(9);
    }

    // At failure time the epicenter's flow has collapsed: low-flow trip.
    let mut tripped = 0;
    for incident in sim.schedule().incidents().iter().take(20) {
        let s = telemetry.sample(incident.epicenter, incident.time);
        if thresholds.check(&s).is_some() {
            tripped += 1;
        }
    }
    assert!(tripped >= 15, "alarms at failure time: {tripped}/20");
}

#[test]
fn dataset_builder_on_real_telemetry() {
    use mira_core::{DatasetBuilder, FeatureConfig};

    let sim = Simulation::new(SimConfig::with_seed(66));
    let mut cmfs = sim.cmf_ground_truth();
    cmfs.truncate(60);
    let builder = DatasetBuilder::new(FeatureConfig::mira(), cmfs, sim.config().span());
    let data = builder.build(sim.telemetry(), Duration::from_hours(1));
    assert!(data.len() >= 100, "dataset {}", data.len());
    assert_eq!(data.len() % 2, 0, "balanced");
    assert_eq!(data.width(), 36);
}
