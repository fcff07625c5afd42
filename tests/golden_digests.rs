//! Frozen output digests: the oracle that pins the sweep kernel, the
//! summary and obs folds, the figure report, the export row source, and
//! the incremental engine against silent drift.
//!
//! Every constant below is an FNV-1a-64 digest of an output's bytes.
//! Summaries and reports are hashed through their `Debug` rendering,
//! which (unlike `PartialEq` on `f64`) tells `-0.0` from `0.0`, so a
//! refactor of any fold or row source must reproduce the old output bit
//! for bit to keep these tests green. A deliberate change to an output
//! updates the constant and says why in the changelog.
//!
//! The seam span runs from 2016-06-25 to 2016-07-12 at a 35-minute
//! step: it crosses the June/July calendar-month shard seam and the
//! July 2016 Theta boundary of the operational timeline, and its 700
//! instants are not a multiple of the batched kernel's block length.
//!
//! The production-step span runs the same seam at the 300 s step every
//! figure sweep uses: at that step a noise-lattice cell lasts thousands
//! of instants, so nearly every kernel call takes the cursors'
//! cache-hit path, which the coarse seam step rarely reaches.
//!
//! The console digests pin the feature-window path: a differential-mode
//! predictor trained with hard negatives, its eight-day operator-console
//! replay across a month seam and a CMF, and a top-k localization.

use std::sync::OnceLock;

use mira_core::analysis::full_report;
use mira_core::archive::{export_sweep, export_sweep_ndjson};
use mira_core::sweep::SWEEP_BLOCK;
use mira_core::{
    CmfPredictor, ConsoleConfig, DatasetBuilder, Date, DateTime, Duration, FeatureConfig, FullSpan,
    IncrementalSweep, ObsMode, OperatorConsole, PredictorConfig, SimConfig, SimTime, Simulation,
};
use mira_nn::BinaryMetrics;
use mira_predictor::{FeatureMode, LocationPredictor};

fn sim() -> &'static Simulation {
    static SIM: OnceLock<Simulation> = OnceLock::new();
    SIM.get_or_init(|| Simulation::new(SimConfig::with_seed(0x601D)))
}

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest_debug<T: std::fmt::Debug>(value: &T) -> u64 {
    fnv1a64(format!("{value:?}").as_bytes())
}

fn at(y: i32, mo: u8, d: u8, h: u8, mi: u8) -> SimTime {
    SimTime::from_datetime(DateTime::new(Date::new(y, mo, d), h, mi, 0))
}

/// The seam span and its step.
fn seam() -> (SimTime, SimTime, Duration) {
    (
        at(2016, 6, 25, 0, 0),
        at(2016, 7, 12, 0, 0),
        Duration::from_minutes(35),
    )
}

/// Instants on the grid `from + k·step` inside `[from, to)`.
const SEAM_INSTANTS: usize = 700;

const SUMMARY_DIGEST: u64 = 0x22b3_23cf_9d16_767a;
const OBS_JSON_DIGEST: u64 = 0xa5fd_6188_803e_5d87;
const FULL_REPORT_DIGEST: u64 = 0xb585_3e8d_bac6_bbae;
const EXPORT_CSV_DIGEST: u64 = 0x8130_8f1d_d880_f528;
const EXPORT_NDJSON_DIGEST: u64 = 0x8330_1059_3e36_df9d;
const INCREMENTAL_SUMMARY_DIGEST: u64 = 0x2a7c_1eb6_1b50_c16f;
/// The figure report over the seam span: batch at any thread count and
/// incremental alike. Unlike the summary digests it hashes only what
/// the figures read, so it stays fixed when the summary's internal
/// layout changes.
const SEAM_REPORT_DIGEST: u64 = 0x4651_eade_7b32_bb2e;

/// The production-step span and its step.
fn production() -> (SimTime, SimTime, Duration) {
    (
        at(2016, 6, 16, 0, 0),
        at(2016, 7, 15, 0, 25),
        Duration::from_minutes(5),
    )
}

/// Instants on the production-step grid inside `[from, to)`.
const PRODUCTION_INSTANTS: usize = 8_357;

const PRODUCTION_SUMMARY_DIGEST: u64 = 0x94fb_4dd6_a289_3eab;
const PRODUCTION_REPORT_DIGEST: u64 = 0xa9b3_2c9c_4c64_48df;

#[test]
fn seam_span_is_ragged_and_crosses_both_seams() {
    let (from, to, step) = seam();
    let theta = SimTime::from_date(Date::new(2016, 7, 1));
    assert!(from < theta && theta < to);
    assert!(from + step * 699 < to && to <= from + step * 700);
    assert_ne!(SEAM_INSTANTS % SWEEP_BLOCK, 0);
}

#[test]
fn summary_digest_is_frozen_at_any_thread_count() {
    let (from, to, step) = seam();
    // 0 resolves the worker count from MIRA_SWEEP_THREADS.
    for threads in [1, 2, 0] {
        let summary = sim()
            .sweep_plan((from, to))
            .step(step)
            .threads(threads)
            .summary()
            .expect("non-empty span");
        assert_eq!(
            summary.power_mw.bins.overall().count(),
            u64::try_from(SEAM_INSTANTS).expect("small")
        );
        assert_eq!(digest_debug(&summary), SUMMARY_DIGEST, "threads={threads}");
    }
}

#[test]
fn production_step_span_is_ragged_and_crosses_both_seams() {
    let (from, to, step) = production();
    let theta = SimTime::from_date(Date::new(2016, 7, 1));
    assert!(from < theta && theta < to);
    let last = i64::try_from(PRODUCTION_INSTANTS).expect("small") - 1;
    assert!(from + step * last < to && to <= from + step * (last + 1));
    assert_ne!(PRODUCTION_INSTANTS % SWEEP_BLOCK, 0);
}

#[test]
fn production_step_digests_are_frozen_at_any_thread_count() {
    let (from, to, step) = production();
    for threads in [1, 2, 0] {
        let summary = sim()
            .sweep_plan((from, to))
            .step(step)
            .threads(threads)
            .summary()
            .expect("non-empty span");
        assert_eq!(
            summary.power_mw.bins.overall().count(),
            u64::try_from(PRODUCTION_INSTANTS).expect("small")
        );
        assert_eq!(
            digest_debug(&summary),
            PRODUCTION_SUMMARY_DIGEST,
            "summary, threads={threads}"
        );
        let report = full_report(sim(), &summary);
        assert_eq!(
            digest_debug(&report),
            PRODUCTION_REPORT_DIGEST,
            "report, threads={threads}"
        );
    }
}

#[test]
fn seam_report_digest_is_frozen() {
    let (from, to, step) = seam();
    for threads in [1, 2, 0] {
        let summary = sim()
            .sweep_plan((from, to))
            .step(step)
            .threads(threads)
            .summary()
            .expect("non-empty span");
        let report = full_report(sim(), &summary);
        assert_eq!(
            digest_debug(&report),
            SEAM_REPORT_DIGEST,
            "threads={threads}"
        );
    }
}

#[test]
fn obs_snapshot_digest_is_frozen() {
    let (from, to, step) = seam();
    for threads in [1, 2, 0] {
        let observed = sim()
            .summarize_observed((from, to), step, threads, ObsMode::On)
            .expect("non-empty span");
        let json = observed.report.deterministic_json();
        assert_eq!(
            fnv1a64(json.as_bytes()),
            OBS_JSON_DIGEST,
            "threads={threads}"
        );
    }
}

#[test]
fn six_year_full_report_digest_is_frozen() {
    let summary = sim()
        .summarize(FullSpan, Duration::from_hours(6))
        .expect("non-empty span");
    let report = full_report(sim(), &summary);
    assert_eq!(digest_debug(&report), FULL_REPORT_DIGEST);
}

#[test]
fn export_digests_are_frozen() {
    let (from, to, step) = seam();
    let mut csv = Vec::new();
    let rows = export_sweep(sim().telemetry(), from, to, step, &mut csv).expect("in-memory");
    assert_eq!(rows, SEAM_INSTANTS * 48);
    assert_eq!(fnv1a64(&csv), EXPORT_CSV_DIGEST);

    let mut ndjson = Vec::new();
    let rows =
        export_sweep_ndjson(sim().telemetry(), from, to, step, &mut ndjson).expect("in-memory");
    assert_eq!(rows, SEAM_INSTANTS * 48);
    assert_eq!(fnv1a64(&ndjson), EXPORT_NDJSON_DIGEST);
}

/// Spans whose instant count is not a whole number of blocks or whose
/// length is not a whole number of steps: the row source keeps
/// `while t < to` semantics, so the last instant is the final grid
/// point strictly before `to`.
#[test]
fn ragged_export_spans_keep_their_rows_and_bytes() {
    let cases: [(SimTime, SimTime, i64, usize, u64); 3] = [
        // Shorter than one block, across the month seam and Theta.
        (
            at(2016, 6, 30, 23, 0),
            at(2016, 7, 1, 3, 0),
            20,
            12,
            0x9a78_a009_0556_692c,
        ),
        // One instant past a block edge.
        (
            at(2016, 6, 30, 20, 0),
            at(2016, 7, 1, 0, 15),
            15,
            SWEEP_BLOCK + 1,
            0xf2cd_acc7_059f_5675,
        ),
        // Not a whole number of steps: 310 minutes at 35.
        (
            at(2016, 6, 30, 21, 0),
            at(2016, 7, 1, 2, 10),
            35,
            9,
            0x7c30_a46f_3a60_e0da,
        ),
    ];
    for (from, to, step_min, instants, digest) in cases {
        let mut csv = Vec::new();
        let rows = export_sweep(
            sim().telemetry(),
            from,
            to,
            Duration::from_minutes(step_min),
            &mut csv,
        )
        .expect("in-memory");
        assert_eq!(rows, instants * 48, "{from:?}..{to:?} at {step_min} min");
        assert_eq!(fnv1a64(&csv), digest, "{from:?}..{to:?} at {step_min} min");
    }
}

/// The seam span ingested in ragged chunks that cross block edges and
/// the month seam.
fn seam_incremental() -> IncrementalSweep {
    let (from, _, step) = seam();
    let mut inc = IncrementalSweep::new(from, step).expect("positive step");
    let chunks = [1usize, 16, 45, 200, 7, 431];
    assert_eq!(chunks.iter().sum::<usize>(), SEAM_INSTANTS);
    for chunk in chunks {
        inc.ingest(sim().telemetry(), chunk);
    }
    inc
}

#[test]
fn incremental_summary_digest_is_frozen() {
    let summary = seam_incremental().summary().expect("non-empty");
    assert_eq!(digest_debug(&summary), INCREMENTAL_SUMMARY_DIGEST);
}

#[test]
fn incremental_report_digest_is_frozen() {
    let report = seam_incremental().figures(sim()).expect("non-empty");
    assert_eq!(digest_debug(&report), SEAM_REPORT_DIGEST);
}

/// The console world: a differential-mode predictor trained with hard
/// negatives on the first 40 CMFs, its test metrics, and its builder.
fn console_world() -> &'static (CmfPredictor, BinaryMetrics, DatasetBuilder) {
    static WORLD: OnceLock<(CmfPredictor, BinaryMetrics, DatasetBuilder)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let mut cmfs = sim().cmf_ground_truth();
        cmfs.truncate(40);
        let features = FeatureConfig {
            mode: FeatureMode::DifferentialDeltas,
            ..FeatureConfig::mira()
        };
        let builder = DatasetBuilder::new(features, cmfs, sim().config().span());
        let (predictor, metrics) = CmfPredictor::train(
            sim().telemetry(),
            &builder,
            &PredictorConfig {
                epochs: 10,
                seed: 5,
                hard_negatives: true,
                ..PredictorConfig::default()
            },
        );
        (predictor, metrics, builder)
    })
}

/// FNV-1a-64 over a sequence of 64-bit words (little-endian).
fn digest_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = words.into_iter().flat_map(u64::to_le_bytes).collect();
    fnv1a64(&bytes)
}

/// An eight-day console span that crosses a calendar-month seam and
/// holds a CMF: it starts three days before the first incident that
/// falls within four days of a month's end.
fn console_span() -> (SimTime, SimTime) {
    let incident = sim()
        .schedule()
        .incidents()
        .iter()
        .find(|i| {
            let d = (i.time + Duration::from_days(4)).date();
            d.month() != i.time.date().month()
        })
        .expect("an incident near a month seam");
    let from = incident.time - Duration::from_days(3);
    (from, from + Duration::from_days(8))
}

/// The console's alerts (times, racks, probability bits), the trained
/// predictor's test metrics and a top-k ranking, over the world above.
/// They were computed when every feature window was read one rack-sample
/// at a time through `TelemetryProvider::sample`; the batched floor
/// window must reproduce them bit for bit.
const CONSOLE_ALERTS_DIGEST: u64 = 0x6c2f_9b7d_272a_795e;
const PREDICTOR_METRICS_DIGEST: u64 = 0x092a_296c_5976_2935;
const TOP_K_DIGEST: u64 = 0x02fd_39b9_f428_d970;

#[test]
fn console_span_crosses_a_month_seam_and_holds_a_cmf() {
    let (from, to) = console_span();
    assert!(to - from >= Duration::from_days(7));
    assert_ne!(from.date().month(), to.date().month());
    assert!(sim()
        .cmf_ground_truth()
        .iter()
        .any(|(t, _)| from <= *t && *t < to));
}

#[test]
fn differential_console_alerts_are_frozen() {
    let (predictor, _, builder) = console_world();
    let (from, to) = console_span();
    let console = OperatorConsole::new(predictor, builder, ConsoleConfig::default());
    let log = console.replay_masked(sim().telemetry(), from, to, sim().blackout_mask());
    let words = log.alerts.iter().flat_map(|a| {
        [
            a.time.epoch_seconds().cast_unsigned(),
            a.rack.index() as u64,
            a.probability.to_bits(),
        ]
    });
    let digest = digest_words(words);
    assert!(!log.alerts.is_empty());
    assert_eq!(digest, CONSOLE_ALERTS_DIGEST);
}

#[test]
fn differential_predictor_metrics_are_frozen() {
    let (_, metrics, _) = console_world();
    let digest = digest_words([metrics.tp, metrics.tn, metrics.fp, metrics.fn_]);
    assert_eq!(digest, PREDICTOR_METRICS_DIGEST);
}

#[test]
fn top_k_accuracy_is_frozen() {
    let (predictor, _, builder) = console_world();
    let acc = LocationPredictor::new(predictor, builder).top_k_accuracy(
        sim().telemetry(),
        Duration::from_hours(2),
        3,
        12,
    );
    let digest = digest_words([
        acc.k as u64,
        acc.hit_rate.to_bits(),
        acc.mean_rank.to_bits(),
        acc.events as u64,
    ]);
    assert_eq!(digest, TOP_K_DIGEST);
}
