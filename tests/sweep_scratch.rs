//! Equivalence of the reusable-scratch sweep kernel with the scalar
//! reference path.
//!
//! Every cursor and memo inside [`mira_core::SweepScratch`] is keyed on
//! pure function inputs, so a warm scratch must reproduce the scalar
//! reference (`snapshot`, `rack_truth`, `observe`) bit for bit —
//! including across the July 2016 Theta-integration boundary of the
//! operational timeline, where the supply-temperature uplift and the
//! valve/outage pattern both change shape.

use std::sync::OnceLock;

use proptest::prelude::*;

use mira_core::{
    Date, Duration, RackId, Recorder, SimConfig, SimTime, Simulation, SweepStep, SweepSummary,
};

fn sim() -> &'static Simulation {
    static SIM: OnceLock<Simulation> = OnceLock::new();
    SIM.get_or_init(|| Simulation::new(SimConfig::with_seed(0x5CA7)))
}

fn at(date: Date) -> SimTime {
    SimTime::from_date(date)
}

/// The reference: one instant from the scalar path, which shares no
/// cursor, memo or lane code with the kernel.
fn reference_step(t: SimTime) -> SweepStep {
    let engine = sim().telemetry();
    let snapshot = engine.snapshot(t);
    SweepStep {
        civil: t.civil_parts(),
        truths: RackId::all()
            .map(|rack| engine.rack_truth(rack, &snapshot))
            .collect(),
        samples: RackId::all()
            .map(|rack| engine.observe(rack, &snapshot))
            .collect(),
        snapshot,
    }
}

/// `step` equals the reference at its instant, under `PartialEq` and
/// under the debug rendering (`PartialEq` on f64 conflates 0.0 with
/// -0.0; the debug rendering does not).
fn assert_matches_reference(step: &SweepStep, what: &str) {
    let want = reference_step(step.snapshot.time);
    assert_eq!(*step, want, "{what}");
    assert_eq!(format!("{step:?}"), format!("{want:?}"), "{what}");
}

/// A warm scratch walked one instant at a time equals the reference at
/// every probed instant. The probe order deliberately jumps backwards
/// across the Theta boundary so any stale validity window would be
/// caught.
fn assert_scratch_matches_reference(times: &[SimTime]) {
    let engine = sim().telemetry();
    let mut scratch = engine.sweep_scratch();
    for &t in times {
        engine.sweep_steps_into(t, Duration::from_minutes(5), 1, &mut scratch);
        let (block, step) = scratch.block_parts();
        block.materialize_into(0, step);
        assert_eq!(step.snapshot.time, t);
        assert_matches_reference(step, &format!("scratch diverged at {t:?}"));
    }
}

/// The batched kernel partitioned into `block`-sized chunks reproduces
/// the scalar reference bit for bit at every instant of the grid
/// `[from, from + step·total)`.
fn assert_batched_matches_reference(from: SimTime, step: Duration, total: usize, block: usize) {
    let engine = sim().telemetry();
    let mut scratch = engine.sweep_scratch();
    let mut k = 0usize;
    while k < total {
        let n = (total - k).min(block);
        let t = from + step * i64::try_from(k).expect("small grid");
        engine.sweep_steps_into(t, step, n, &mut scratch);
        let (blk, staging) = scratch.block_parts();
        assert_eq!(blk.len(), n);
        for j in 0..n {
            let want = t + step * i64::try_from(j).expect("small grid");
            assert_eq!(blk.time(j), want);
            blk.materialize_into(j, staging);
            assert_matches_reference(
                staging,
                &format!("block size {block} diverged at grid index {}", k + j),
            );
        }
        k += n;
    }
}

/// Deterministic partitions across the hard seams: a grid running from
/// late June 2016 through mid-July crosses both the calendar-month
/// shard seam and the July 2016 Theta boundary mid-block for every
/// partition width, including one block spanning the whole grid.
#[test]
fn batched_blocks_match_per_step_across_theta_and_month_seam() {
    let from = at(Date::new(2016, 6, 25));
    let step = Duration::from_hours(2);
    let total = 20 * 12; // 20 days at 12 samples/day.
    for block in [1usize, 7, 48, total] {
        assert_batched_matches_reference(from, step, total, block);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random grids and partition widths near the Theta boundary: any
    /// chunking of `sweep_steps_into` equals the scalar reference exactly.
    #[test]
    fn batched_blocks_match_per_step_anywhere(
        start_day in 0i64..55,
        step_minutes in 5i64..720,
        block in 1usize..64,
    ) {
        let from = at(Date::new(2016, 5, 5)) + Duration::from_hours(24 * start_day);
        let step = Duration::from_minutes(step_minutes);
        assert_batched_matches_reference(from, step, 40, block);
    }

    /// Random spans straddling the July 2016 Theta event: a single
    /// scratch walked forward across the boundary, then jumped back
    /// before it, agrees with the uncached path exactly.
    #[test]
    fn scratch_survives_theta_boundary(
        start_day in 0i64..55,
        step_minutes in 5i64..720,
        revisit_day in 0i64..50,
    ) {
        let theta = at(Date::new(2016, 7, 1));
        let from = at(Date::new(2016, 5, 5)) + Duration::from_hours(24 * start_day);
        let step = Duration::from_minutes(step_minutes);
        let mut times = Vec::new();
        // Walk forward until a couple of steps past the boundary.
        let mut t = from;
        while t <= theta + step + step {
            times.push(t);
            t += step;
        }
        // Jump back to before the boundary with the same warm scratch.
        times.push(at(Date::new(2016, 5, 1)) + Duration::from_hours(24 * revisit_day));
        // And forward again, past the uplift ramp.
        times.push(at(Date::new(2016, 9, 15)));
        assert_scratch_matches_reference(&times);
    }
}

/// The same walk, deterministically, across the other timeline edges:
/// span start, year boundaries, and the 2019 decommission wind-down.
#[test]
fn scratch_matches_cold_at_timeline_edges() {
    let day = Duration::from_hours(24);
    let times = [
        at(Date::new(2014, 1, 1)),
        at(Date::new(2014, 1, 1)) + Duration::from_minutes(5),
        at(Date::new(2014, 12, 31)) + Duration::from_hours(23),
        at(Date::new(2015, 1, 1)),
        at(Date::new(2016, 6, 30)) + Duration::from_hours(23),
        at(Date::new(2016, 7, 1)),
        at(Date::new(2016, 7, 1)) + day,
        at(Date::new(2014, 3, 3)), // far backwards jump
        at(Date::new(2019, 12, 31)) + Duration::from_hours(23),
    ];
    assert_scratch_matches_reference(&times);
}

/// A quarter-long sweep through the plan (warm scratch per worker,
/// 16-instant blocks) must produce the exact same `SweepSummary` as
/// folding every instant as its own 1-instant block from a fresh
/// scratch. This pins both the scratch reuse and the fold's loop
/// interchange across block cuts.
#[test]
fn plan_summary_equals_cold_fold_over_theta_quarter() {
    let from = at(Date::new(2016, 6, 1));
    let to = at(Date::new(2016, 9, 1));
    let step = Duration::from_hours(2);

    let planned = sim()
        .sweep_plan((from, to))
        .step(step)
        .threads(1)
        .summary()
        .expect("non-empty span");

    // Replicate the plan's calendar-month shard-and-merge structure
    // (it is a pure function of the span, identical at every thread
    // count) but feed it cold 1-instant blocks instead of the warm
    // scratch the executor uses.
    let engine = sim().telemetry();
    let mut partials: Vec<SweepSummary> = Vec::new();
    let mut month = u8::MAX;
    let mut t = from;
    while t < to {
        let mut scratch = engine.sweep_scratch();
        engine.sweep_steps_into(t, step, 1, &mut scratch);
        let (block, staging) = scratch.block_parts();
        let m = block.time(0).date().month().number();
        if m != month {
            partials.push(SweepSummary::empty((from, to), step));
            month = m;
        }
        partials
            .last_mut()
            .expect("pushed above")
            .record_block(block, staging);
        t += step;
    }
    let mut cold = partials.remove(0);
    for later in partials {
        Recorder::merge(&mut cold, later);
    }
    let cold = Recorder::finish(cold);

    assert_eq!(planned, cold);
    // `PartialEq` on f64 conflates 0.0 with -0.0; the debug rendering
    // does not.
    assert_eq!(format!("{planned:?}"), format!("{cold:?}"));
}
