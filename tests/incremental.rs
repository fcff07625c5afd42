//! Byte-identity of [`mira_core::IncrementalSweep`] with the cold
//! batch sweep, property-tested over arbitrary append schedules.
//!
//! The incremental engine folds appended instants into a completed
//! prefix plus one open calendar-month shard; querying replays exactly
//! the batch executor's chronological seam merge. That construction is
//! only worth having if it is *bit-for-bit* indistinguishable from
//! `Simulation::summarize` — at any chunking of the appends and at any
//! batch thread count — so these properties compare `Debug` renderings
//! (every float bit surfaces) on top of `assert_eq!`.

use std::sync::OnceLock;

use proptest::prelude::*;

use mira_core::analysis::full_report;
use mira_core::{Date, Duration, SimConfig, SimTime, Simulation};

fn sim() -> &'static Simulation {
    static SIM: OnceLock<Simulation> = OnceLock::new();
    SIM.get_or_init(|| Simulation::new(SimConfig::with_seed(0x1C4)))
}

fn i64_of(n: usize) -> i64 {
    i64::try_from(n).expect("test sizes fit i64")
}

/// Step sizes that land on and off month-seam divisors.
const STEP_HOURS: [i64; 4] = [1, 3, 6, 11];

/// Ragged chunk sizes fed to `ingest` one call at a time.
fn chunk_schedules() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..80, 1..7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental append over an arbitrary chunking equals a cold
    /// batch sweep of the same span, bit for bit, at 1 and 4 threads.
    #[test]
    fn chunked_appends_match_batch_at_any_thread_count(
        offset_days in 0i64..330,
        step_ix in 0usize..4,
        chunks in chunk_schedules(),
    ) {
        let step_hours = STEP_HOURS[step_ix];
        let sim = sim();
        let from = SimTime::from_date(Date::new(2015, 1, 1))
            + Duration::from_hours(24 * offset_days);
        let step = Duration::from_hours(step_hours);
        let mut inc = mira_core::IncrementalSweep::new(from, step).expect("positive step");

        let mut total = 0usize;
        for chunk in chunks {
            inc.ingest(sim.telemetry(), chunk);
            total += chunk;
        }
        let to = from + step * i64_of(total);
        let incremental = inc.summary().expect("non-empty");

        for threads in [1usize, 4] {
            let batch = sim
                .sweep_plan((from, to))
                .step(step)
                .threads(threads)
                .summary()
                .expect("non-empty");
            prop_assert_eq!(&incremental, &batch, "threads={}", threads);
            prop_assert_eq!(
                format!("{incremental:?}"),
                format!("{batch:?}"),
                "debug bytes, threads={}",
                threads
            );
        }
    }
}

proptest! {
    // The full figure pipeline is much heavier than a summary (spatial
    // regressions, CMF timeline, seasonal splits), so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The derived [`mira_core::analysis::FigureReport`] is also byte-
    /// identical: figures are a pure function of the summary, so any
    /// drift here would mean the aggregates differ somewhere `Eq`
    /// can't see — there is nowhere else for it to come from.
    #[test]
    fn figure_report_matches_batch(
        offset_days in 0i64..330,
        step_ix in 0usize..4,
        chunks in chunk_schedules(),
    ) {
        let step_hours = STEP_HOURS[step_ix];
        let sim = sim();
        let from = SimTime::from_date(Date::new(2015, 1, 1))
            + Duration::from_hours(24 * offset_days);
        let step = Duration::from_hours(step_hours);
        let mut inc = mira_core::IncrementalSweep::new(from, step).expect("positive step");
        let mut total = 0usize;
        for chunk in chunks {
            inc.ingest(sim.telemetry(), chunk);
            total += chunk;
        }
        let to = from + step * i64_of(total);

        let incremental = inc.figures(sim).expect("non-empty");
        let batch_summary = sim
            .sweep_plan((from, to))
            .step(step)
            .threads(4)
            .summary()
            .expect("non-empty");
        let batch = full_report(sim, &batch_summary);
        prop_assert_eq!(format!("{incremental:?}"), format!("{batch:?}"));
    }
}
