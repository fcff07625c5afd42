//! The shared server state and the query dispatcher.
//!
//! One [`ServeState`] is shared by every connection thread:
//!
//! - the [`IncrementalSweep`] sits behind an `RwLock` — `ingest` takes
//!   the write lock, every query takes a read lock, so readers always
//!   see a complete fold (no torn reads) while writers serialize;
//! - [`ServeStats`] sits behind a `Mutex` and is touched briefly per
//!   request;
//! - the trained CMF predictor is cached behind its own `Mutex`, keyed
//!   on `(events, epochs)`, so repeated `predict` queries pay training
//!   once.
//!
//! Queries answer from the incremental aggregate without recomputing:
//! a `figure` query on six ingested years costs one clone of the
//! bounded running state plus the figure's own arithmetic.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use mira_core::{
    analysis, Archive, CmfPredictor, DatasetBuilder, Duration, Error, FeatureConfig,
    IncrementalSweep, ObsReport, PredictorConfig, Projection, Simulation, SweepSummary,
};
use mira_nn::BinaryMetrics;
use mira_timeseries::{LinearFit, MonthProfile, SimTime, WeekdayProfile, YearProfile};
use mira_units::convert;

use crate::json::Json;
use crate::protocol::{
    core_error_reply, limit_error_reply, ok_reply, parse_request, usage_error_reply, Request,
};
use crate::server::MAX_LINE_BYTES;
use crate::stats::ServeStats;

/// Figure identifiers the `figure` query accepts.
pub const FIGURE_IDS: &[&str] = &[
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig8",
    "fig10",
    "free_cooling",
];

/// A trained predictor kept for reuse across `predict` queries.
#[derive(Debug)]
struct PredictCache {
    events: usize,
    epochs: usize,
    trained_events: usize,
    builder: DatasetBuilder,
    predictor: CmfPredictor,
    test: BinaryMetrics,
}

/// Shared state behind a running `mira-ops serve`.
#[derive(Debug)]
pub struct ServeState {
    sim: Simulation,
    sweep: RwLock<IncrementalSweep>,
    stats: Mutex<ServeStats>,
    predictor: Mutex<Option<PredictCache>>,
    store: Mutex<Option<Box<dyn Archive + Send>>>,
    shutdown: AtomicBool,
}

impl ServeState {
    /// A server over `sim`, ingesting at `step`, starting empty at the
    /// simulation's configured span start.
    ///
    /// # Errors
    ///
    /// [`Error::Sweep`] when `step` is not positive.
    pub fn new(sim: Simulation, step: Duration) -> Result<Self, Error> {
        let sweep = sim.incremental_sweep(step)?;
        Ok(Self {
            sim,
            sweep: RwLock::new(sweep),
            stats: Mutex::new(ServeStats::new()),
            predictor: Mutex::new(None),
            store: Mutex::new(None),
            shutdown: AtomicBool::new(false),
        })
    }

    /// Attaches a telemetry archive; `replay` queries answer from it
    /// instead of re-simulating. Builder-style: called before the state
    /// is shared across connection threads.
    #[must_use]
    pub fn with_store(mut self, store: Box<dyn Archive + Send>) -> Self {
        self.store = Mutex::new(Some(store));
        self
    }

    /// The simulation being served.
    #[must_use]
    pub fn simulation(&self) -> &Simulation {
        &self.sim
    }

    /// Whether a `shutdown` request has been accepted.
    ///
    /// Acquire pairs with the Release store in
    /// [`Self::request_shutdown`]: a thread that observes the flag also
    /// observes every write the requester made before raising it.
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Requests shutdown without a protocol message (e.g. on EOF).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// The aggregate over everything ingested so far — what the test
    /// harness compares against a cold batch sweep.
    ///
    /// # Errors
    ///
    /// [`Error::Sweep`] before the first ingest.
    pub fn snapshot_summary(&self) -> Result<SweepSummary, Error> {
        self.read_sweep().summary()
    }

    /// Grid instants ingested so far.
    ///
    /// Named apart from [`IncrementalSweep::steps_ingested`] on
    /// purpose: this accessor re-acquires the sweep lock, so calling it
    /// while already holding the guard would deadlock behind a queued
    /// writer (the `lock-order` lint resolves method calls by name and
    /// keeps the two distinguishable this way).
    #[must_use]
    pub fn ingested_steps(&self) -> u64 {
        self.read_sweep().steps_ingested()
    }

    /// Requests handled so far (invalid ones included).
    #[must_use]
    pub fn queries_served(&self) -> u64 {
        self.lock_stats().queries_served()
    }

    fn read_sweep(&self) -> RwLockReadGuard<'_, IncrementalSweep> {
        match self.sweep.read() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn write_sweep(&self) -> RwLockWriteGuard<'_, IncrementalSweep> {
        match self.sweep.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn lock_stats(&self) -> MutexGuard<'_, ServeStats> {
        match self.stats.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The replay store. Scans mutate the archive handle (they commit
    /// buffered appends and seek), hence a mutex rather than an
    /// `RwLock`; replay traffic serializes, which matches the
    /// single-file-handle backend underneath.
    fn lock_store(&self) -> MutexGuard<'_, Option<Box<dyn Archive + Send>>> {
        match self.store.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Unlike [`Self::lock_stats`] — whose monotonic counters are
    /// valid after any partial update — a panic mid-(re)train can leave
    /// a half-built cache behind, so recovery here discards it and the
    /// next `predict` retrains from scratch.
    fn lock_predictor(&self) -> MutexGuard<'_, Option<PredictCache>> {
        match self.predictor.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                // Discarding the suspect cache makes the state valid
                // again, so the poison flag is cleared too — otherwise
                // every later acquisition would re-discard a freshly
                // trained cache.
                self.predictor.clear_poison();
                let mut guard = poisoned.into_inner();
                *guard = None;
                guard
            }
        }
    }

    /// Handles one request line and returns one reply line (without the
    /// trailing newline). Safe to call from any number of threads.
    pub fn handle(&self, line: &str) -> String {
        let started = Instant::now();
        let reply = match parse_request(line) {
            Ok((request, id)) => {
                // Counted before dispatch: a metrics reply's snapshot
                // includes the very query that produced it, keeping the
                // reply a deterministic function of the request log.
                self.lock_stats().note_request(request.metrics_key());
                self.dispatch(&request, &id)
            }
            Err(e) => {
                self.lock_stats().note_invalid();
                e.reply()
            }
        };
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.lock_stats().note_query_wall(nanos);
        reply
    }

    /// Answers a request line longer than [`MAX_LINE_BYTES`] without
    /// parsing it: counted as an invalid query, replied to with a
    /// structured `limit` error.
    #[must_use]
    pub fn reject_oversized(&self) -> String {
        self.lock_stats().note_invalid();
        limit_error_reply(
            &Json::Null,
            &format!(
                "request line exceeds {MAX_LINE_BYTES} bytes; discarded through the next newline"
            ),
        )
    }

    fn dispatch(&self, request: &Request, id: &Json) -> String {
        match request {
            Request::Status => self.status(id),
            Request::Ingest { steps } => self.ingest(id, *steps),
            Request::Metrics { wall } => self.metrics(id, *wall),
            Request::Figure { figure } => self.figure(id, figure),
            Request::Report => self.report(id),
            Request::Predict {
                lead_hours,
                events,
                epochs,
            } => self.predict(id, *lead_hours, *events, *epochs),
            Request::Replay { from, to, limit } => self.replay(id, *from, *to, *limit),
            Request::Shutdown => {
                self.request_shutdown();
                ok_reply(id, vec![("shutting_down", Json::Bool(true))])
            }
        }
    }

    fn status(&self, id: &Json) -> String {
        let (steps, from, next, step) = {
            let inc = self.read_sweep();
            let (from, next) = inc.span();
            (inc.steps_ingested(), from, next, inc.step())
        };
        let queries = self.lock_stats().queries_served();
        ok_reply(
            id,
            vec![
                ("steps_ingested", Json::from(steps)),
                ("from", Json::from(from.to_string())),
                ("next_time", Json::from(next.to_string())),
                ("step_seconds", Json::from(step.as_seconds())),
                ("queries_served", Json::from(queries)),
            ],
        )
    }

    fn ingest(&self, id: &Json, steps: usize) -> String {
        let started = Instant::now();
        let (result, total, next) = {
            let mut inc = self.write_sweep();
            let result = inc.ingest(self.sim.telemetry(), steps);
            (result, inc.steps_ingested(), inc.next_time())
        };
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Err(e) = result {
            return core_error_reply(id, &e);
        }
        {
            let mut stats = self.lock_stats();
            stats.note_ingested(convert::u64_from_usize(steps));
            stats.note_ingest_wall(nanos);
        }
        ok_reply(
            id,
            vec![
                ("ingested", Json::from(convert::u64_from_usize(steps))),
                ("steps_ingested", Json::from(total)),
                ("next_time", Json::from(next.to_string())),
            ],
        )
    }

    fn metrics(&self, id: &Json, wall: bool) -> String {
        let mut report = {
            let inc = self.read_sweep();
            if inc.steps_ingested() == 0 {
                // Nothing swept yet: serve counters only.
                ObsReport::new()
            } else {
                match inc.obs_report() {
                    Ok(report) => report,
                    Err(e) => return core_error_reply(id, &e),
                }
            }
        };
        // Copy the wall numbers out under the guard; the JSON is built
        // after release so no other request waits on rendering.
        let wall_numbers = {
            let stats = self.lock_stats();
            report.metrics.merge(stats.deterministic());
            wall.then(|| stats.wall_snapshot())
        };
        // Raw splice keeps the embedded document byte-identical to
        // `ObsReport::deterministic_json` — no parse/re-render drift.
        let mut fields = vec![("metrics", Json::Raw(report.deterministic_json()))];
        if let Some(snapshot) = wall_numbers {
            fields.push(("wall", snapshot.to_json()));
        }
        ok_reply(id, fields)
    }

    fn figure(&self, id: &Json, figure: &str) -> String {
        let data = if figure == "fig10" {
            // Fig. 10 reads the RAS log, not the sweep: available from
            // the first request on.
            fig10_json(&analysis::fig10_cmf_timeline(&self.sim))
        } else {
            if !FIGURE_IDS.contains(&figure) {
                return usage_error_reply(
                    id,
                    &format!("unknown figure {figure:?}; expected one of {FIGURE_IDS:?}"),
                );
            }
            let summary = match self.snapshot_summary() {
                Ok(summary) => summary,
                Err(e) => return core_error_reply(id, &e),
            };
            match figure {
                "fig2" => fig2_json(&analysis::fig2_yearly_trends(&summary)),
                "fig3" => fig3_json(&analysis::fig3_coolant_trends(&summary)),
                "fig4" => fig4_json(&analysis::fig4_monthly_profile(&summary)),
                "fig5" => fig5_json(&analysis::fig5_weekday_profile(&summary)),
                "fig6" => fig6_json(&analysis::fig6_rack_power_util(&summary)),
                "fig8" => fig8_json(&analysis::fig8_ambient_trends(&summary)),
                "free_cooling" => free_cooling_json(&analysis::free_cooling_report(&summary)),
                other => {
                    return usage_error_reply(
                        id,
                        &format!("unknown figure {other:?}; expected one of {FIGURE_IDS:?}"),
                    )
                }
            }
        };
        ok_reply(id, vec![("figure", Json::from(figure)), ("data", data)])
    }

    fn report(&self, id: &Json) -> String {
        let summary = match self.snapshot_summary() {
            Ok(summary) => summary,
            Err(e) => return core_error_reply(id, &e),
        };
        let fig2 = analysis::fig2_yearly_trends(&summary);
        let fig3 = analysis::fig3_coolant_trends(&summary);
        let fig6 = analysis::fig6_rack_power_util(&summary);
        let fig10 = analysis::fig10_cmf_timeline(&self.sim);
        let year_mean = |rows: &[YearProfile], last: bool| -> Json {
            let row = if last { rows.last() } else { rows.first() };
            row.map_or(Json::Null, |r| Json::Num(r.mean))
        };
        ok_reply(
            id,
            vec![
                ("span_from", Json::from(summary.span.0.to_string())),
                ("span_to", Json::from(summary.span.1.to_string())),
                ("power_mw_first_year", year_mean(&fig2.power_by_year, false)),
                ("power_mw_last_year", year_mean(&fig2.power_by_year, true)),
                (
                    "utilization_pct_first_year",
                    year_mean(&fig2.utilization_by_year, false),
                ),
                (
                    "utilization_pct_last_year",
                    year_mean(&fig2.utilization_by_year, true),
                ),
                ("flow_before_theta_gpm", Json::Num(fig3.flow_before_theta)),
                ("flow_after_theta_gpm", Json::Num(fig3.flow_after_theta)),
                ("flow_stddev_gpm", Json::Num(fig3.flow_stddev)),
                ("inlet_stddev_f", Json::Num(fig3.inlet_stddev)),
                ("outlet_stddev_f", Json::Num(fig3.outlet_stddev)),
                ("rack_power_spread", Json::Num(fig6.power_spread)),
                (
                    "rack_power_utilization_correlation",
                    Json::Num(fig6.power_utilization_correlation),
                ),
                ("power_leader", Json::from(fig6.power_leader.to_string())),
                ("cmf_total", Json::from(u64::from(fig10.total))),
                ("cmf_share_2016", Json::Num(fig10.share_2016)),
                ("cmf_longest_gap_days", Json::Num(fig10.longest_gap_days)),
            ],
        )
    }

    fn predict(&self, id: &Json, lead_hours: i64, events: usize, epochs: usize) -> String {
        // Training takes seconds; it must not run under the cache
        // mutex, or every concurrent predict (and the poison-recovery
        // path) queues behind it. Check-release-train-relock: training
        // is a pure function of (sim, events, epochs), so two racing
        // trainers produce identical caches and last-write-wins is
        // harmless.
        let hit = matches!(
            self.lock_predictor().as_ref(),
            Some(c) if c.events == events && c.epochs == epochs
        );
        if !hit {
            let mut cmfs = self.sim.cmf_ground_truth();
            cmfs.truncate(events.max(10));
            let trained_events = cmfs.len();
            let builder =
                DatasetBuilder::new(FeatureConfig::mira(), cmfs, self.sim.config().span());
            let config = PredictorConfig {
                epochs,
                ..PredictorConfig::default()
            };
            let (predictor, test) = CmfPredictor::train(self.sim.telemetry(), &builder, &config);
            *self.lock_predictor() = Some(PredictCache {
                events,
                epochs,
                trained_events,
                builder,
                predictor,
                test,
            });
        }
        let cache = self.lock_predictor();
        let Some(c) = cache.as_ref() else {
            return usage_error_reply(id, "predictor cache unavailable");
        };
        let at_lead = c.predictor.evaluate_at(
            self.sim.telemetry(),
            &c.builder,
            Duration::from_hours(lead_hours),
        );
        ok_reply(
            id,
            vec![
                (
                    "events",
                    Json::from(convert::u64_from_usize(c.trained_events)),
                ),
                ("epochs", Json::from(convert::u64_from_usize(c.epochs))),
                ("cached", Json::Bool(hit)),
                ("lead_hours", Json::from(lead_hours)),
                ("test", binary_metrics_json(&c.test)),
                ("at_lead", binary_metrics_json(&at_lead)),
            ],
        )
    }

    fn replay(&self, id: &Json, from: Option<u64>, to: Option<u64>, limit: usize) -> String {
        let epoch = |bound: Option<u64>, default: i64| -> SimTime {
            SimTime::from_epoch_seconds(
                bound.map_or(default, |v| i64::try_from(v).unwrap_or(i64::MAX)),
            )
        };
        let from_t = epoch(from, i64::MIN);
        let to_t = epoch(to, i64::MAX);
        if from_t >= to_t {
            return usage_error_reply(id, "\"from\" must precede \"to\"");
        }
        // Rows are rendered under the store lock (the scan owns the
        // file handle), but the stats lock is only taken after it is
        // released — no request ever holds both.
        let (rows, scan) = {
            let mut guard = self.lock_store();
            let Some(store) = guard.as_mut() else {
                return usage_error_reply(
                    id,
                    "no archive attached; start serve with --store <archive.mstore>",
                );
            };
            let mut rows: Vec<Json> = Vec::new();
            let result = store.scan_span(from_t, to_t, Projection::all(), &mut |rec| {
                if rows.len() < limit {
                    rows.push(Json::Raw(rec.ndjson_row()));
                }
            });
            match result {
                Ok(scan) => (rows, scan),
                Err(e) => return core_error_reply(id, &Error::from(e)),
            }
        };
        self.lock_stats().note_scan(&scan);
        ok_reply(
            id,
            vec![
                ("returned", Json::from(convert::u64_from_usize(rows.len()))),
                ("rows_scanned", Json::from(scan.rows_scanned)),
                ("groups_scanned", Json::from(scan.groups_scanned)),
                ("groups_total", Json::from(scan.groups_total)),
                ("blocks_decoded", Json::from(scan.blocks_decoded)),
                ("rows", Json::Arr(rows)),
            ],
        )
    }
}

fn binary_metrics_json(m: &BinaryMetrics) -> Json {
    Json::obj(vec![
        ("tp", Json::from(m.tp)),
        ("tn", Json::from(m.tn)),
        ("fp", Json::from(m.fp)),
        ("fn", Json::from(m.fn_)),
        ("accuracy", Json::Num(m.accuracy())),
        ("precision", Json::Num(m.precision())),
        ("recall", Json::Num(m.recall())),
        ("f1", Json::Num(m.f1())),
    ])
}

fn fit_json(fit: Option<&LinearFit>) -> Json {
    fit.map_or(Json::Null, |f| {
        Json::obj(vec![
            ("slope", Json::Num(f.slope)),
            ("intercept", Json::Num(f.intercept)),
            ("r_squared", Json::Num(f.r_squared)),
        ])
    })
}

fn year_rows(rows: &[YearProfile]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("year", Json::from(i64::from(r.year))),
                    ("mean", Json::Num(r.mean)),
                    ("median", Json::Num(r.median)),
                    ("min", Json::Num(r.min)),
                    ("max", Json::Num(r.max)),
                    ("count", Json::from(r.count)),
                ])
            })
            .collect(),
    )
}

fn month_rows(rows: &[MonthProfile]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("month", Json::from(u64::from(r.month.number()))),
                    ("median", Json::Num(r.median)),
                    ("mean", Json::Num(r.mean)),
                    ("count", Json::from(r.count)),
                ])
            })
            .collect(),
    )
}

fn weekday_rows(rows: &[WeekdayProfile]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("weekday", Json::from(r.weekday.to_string())),
                    ("median", Json::Num(r.median)),
                    ("mean", Json::Num(r.mean)),
                    ("count", Json::from(r.count)),
                ])
            })
            .collect(),
    )
}

fn f64_arr(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
}

fn opt_f64_arr(values: Option<&Vec<f64>>) -> Json {
    values.map_or(Json::Null, |v| f64_arr(v))
}

fn fig2_json(fig: &analysis::Fig2) -> Json {
    Json::obj(vec![
        ("power_by_year", year_rows(&fig.power_by_year)),
        ("utilization_by_year", year_rows(&fig.utilization_by_year)),
        ("power_fit", fit_json(fig.power_fit.as_ref())),
        ("utilization_fit", fit_json(fig.utilization_fit.as_ref())),
    ])
}

fn fig3_json(fig: &analysis::Fig3) -> Json {
    Json::obj(vec![
        ("flow_by_year", year_rows(&fig.flow_by_year)),
        ("inlet_by_year", year_rows(&fig.inlet_by_year)),
        ("outlet_by_year", year_rows(&fig.outlet_by_year)),
        ("flow_stddev", Json::Num(fig.flow_stddev)),
        ("inlet_stddev", Json::Num(fig.inlet_stddev)),
        ("outlet_stddev", Json::Num(fig.outlet_stddev)),
        ("flow_before_theta", Json::Num(fig.flow_before_theta)),
        ("flow_after_theta", Json::Num(fig.flow_after_theta)),
    ])
}

fn fig4_json(fig: &analysis::Fig4) -> Json {
    Json::obj(vec![
        ("power", month_rows(&fig.power)),
        ("utilization", month_rows(&fig.utilization)),
        ("flow", month_rows(&fig.flow)),
        ("inlet", month_rows(&fig.inlet)),
        ("outlet", month_rows(&fig.outlet)),
        (
            "flow_change_from_january",
            opt_f64_arr(fig.flow_change_from_january.as_ref()),
        ),
        (
            "inlet_change_from_january",
            opt_f64_arr(fig.inlet_change_from_january.as_ref()),
        ),
        (
            "outlet_change_from_january",
            opt_f64_arr(fig.outlet_change_from_january.as_ref()),
        ),
    ])
}

fn fig5_json(fig: &analysis::Fig5) -> Json {
    Json::obj(vec![
        ("power", weekday_rows(&fig.power)),
        ("utilization", weekday_rows(&fig.utilization)),
        ("flow", weekday_rows(&fig.flow)),
        ("inlet", weekday_rows(&fig.inlet)),
        ("outlet", weekday_rows(&fig.outlet)),
        ("power_uplift", Json::Num(fig.power_uplift)),
        ("utilization_uplift", Json::Num(fig.utilization_uplift)),
        ("outlet_uplift", Json::Num(fig.outlet_uplift)),
        ("flow_uplift", Json::Num(fig.flow_uplift)),
        ("inlet_uplift", Json::Num(fig.inlet_uplift)),
    ])
}

fn fig6_json(fig: &analysis::Fig6) -> Json {
    Json::obj(vec![
        ("power_kw", f64_arr(&fig.power_kw)),
        ("utilization", f64_arr(&fig.utilization)),
        ("power_spread", Json::Num(fig.power_spread)),
        ("power_leader", Json::from(fig.power_leader.to_string())),
        (
            "utilization_leader",
            Json::from(fig.utilization_leader.to_string()),
        ),
        (
            "utilization_floor",
            Json::from(fig.utilization_floor.to_string()),
        ),
        (
            "power_utilization_correlation",
            Json::Num(fig.power_utilization_correlation),
        ),
        ("row_utilization", f64_arr(&fig.row_utilization)),
    ])
}

fn fig8_json(fig: &analysis::Fig8) -> Json {
    Json::obj(vec![
        ("temperature_stddev", Json::Num(fig.temperature_stddev)),
        (
            "temperature_range",
            Json::Arr(vec![
                Json::Num(fig.temperature_range.0),
                Json::Num(fig.temperature_range.1),
            ]),
        ),
        ("humidity_stddev", Json::Num(fig.humidity_stddev)),
        (
            "humidity_range",
            Json::Arr(vec![
                Json::Num(fig.humidity_range.0),
                Json::Num(fig.humidity_range.1),
            ]),
        ),
        ("humidity_monthly", month_rows(&fig.humidity_monthly)),
        ("temperature_monthly", month_rows(&fig.temperature_monthly)),
    ])
}

fn fig10_json(fig: &analysis::Fig10) -> Json {
    Json::obj(vec![
        (
            "by_year",
            Json::Arr(
                fig.by_year
                    .iter()
                    .map(|(year, count)| {
                        Json::obj(vec![
                            ("year", Json::from(i64::from(*year))),
                            ("count", Json::from(u64::from(*count))),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("total", Json::from(u64::from(fig.total))),
        ("share_2016", Json::Num(fig.share_2016)),
        ("longest_gap_days", Json::Num(fig.longest_gap_days)),
    ])
}

fn free_cooling_json(report: &analysis::FreeCoolingReport) -> Json {
    let by_year = |rows: &[(i32, mira_units::KilowattHours)]| {
        Json::Arr(
            rows.iter()
                .map(|(year, kwh)| {
                    Json::obj(vec![
                        ("year", Json::from(i64::from(*year))),
                        ("kwh", Json::Num(kwh.value())),
                    ])
                })
                .collect(),
        )
    };
    Json::obj(vec![
        ("saved_by_year", by_year(&report.saved_by_year)),
        ("chiller_by_year", by_year(&report.chiller_by_year)),
        ("season_saved_kwh", Json::Num(report.season_saved.value())),
        ("total_saved_kwh", Json::Num(report.total_saved.value())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_core::SimConfig;

    fn state() -> ServeState {
        let sim = Simulation::new(SimConfig::with_seed(7));
        ServeState::new(sim, Duration::from_hours(6)).expect("positive step")
    }

    #[test]
    fn status_before_ingest_is_empty() {
        let s = state();
        let reply = s.handle("{\"cmd\":\"status\",\"id\":1}");
        assert!(reply.starts_with("{\"ok\":true,\"id\":1,"), "{reply}");
        assert!(reply.contains("\"steps_ingested\":0"), "{reply}");
        // The status query itself is already counted.
        assert!(reply.contains("\"queries_served\":1"), "{reply}");
    }

    #[test]
    fn queries_before_ingest_report_empty_span() {
        let s = state();
        for line in [
            "{\"cmd\":\"figure\",\"figure\":\"fig2\",\"id\":1}",
            "{\"cmd\":\"report\",\"id\":2}",
        ] {
            let reply = s.handle(line);
            assert!(reply.contains("\"ok\":false"), "{reply}");
            assert!(reply.contains("\"kind\":\"sweep\""), "{reply}");
            assert!(reply.contains("\"exit_code\":3"), "{reply}");
        }
        // fig10 reads the RAS log and works immediately.
        let reply = s.handle("{\"cmd\":\"figure\",\"figure\":\"fig10\",\"id\":3}");
        assert!(reply.contains("\"total\":361"), "{reply}");
    }

    #[test]
    fn ingest_then_figures_match_batch() {
        let s = state();
        let reply = s.handle("{\"cmd\":\"ingest\",\"steps\":124,\"id\":1}");
        assert!(reply.contains("\"ingested\":124"), "{reply}");
        assert!(reply.contains("\"steps_ingested\":124"), "{reply}");

        let summary = s.snapshot_summary().expect("ingested");
        let span = summary.span;
        let batch = s
            .simulation()
            .summarize(span, Duration::from_hours(6))
            .expect("non-empty");
        assert_eq!(summary, batch);

        let reply = s.handle("{\"cmd\":\"figure\",\"figure\":\"fig2\",\"id\":2}");
        assert!(reply.contains("\"figure\":\"fig2\""), "{reply}");
        assert!(reply.contains("\"power_by_year\""), "{reply}");
        let reply = s.handle("{\"cmd\":\"report\",\"id\":3}");
        assert!(reply.contains("\"cmf_total\":361"), "{reply}");
        let reply = s.handle("{\"cmd\":\"figure\",\"figure\":\"free_cooling\",\"id\":4}");
        assert!(reply.contains("\"total_saved_kwh\""), "{reply}");
    }

    #[test]
    fn unknown_figure_is_a_usage_error() {
        let s = state();
        s.handle("{\"cmd\":\"ingest\",\"steps\":4}");
        let reply = s.handle("{\"cmd\":\"figure\",\"figure\":\"fig99\",\"id\":9}");
        assert!(reply.contains("\"kind\":\"usage\""), "{reply}");
        assert!(reply.contains("fig99"), "{reply}");
    }

    #[test]
    fn metrics_reply_is_deterministic_and_counts_itself() {
        // Two fresh servers fed the same request log produce the same
        // metrics reply bytes (the CI gate replays this across
        // MIRA_SWEEP_THREADS settings).
        let script = [
            "{\"cmd\":\"ingest\",\"steps\":124,\"id\":1}",
            "{\"cmd\":\"status\",\"id\":2}",
            "{\"cmd\":\"metrics\",\"id\":3}",
        ];
        let run = |s: &ServeState| {
            let mut last = String::new();
            for line in script {
                last = s.handle(line);
            }
            last
        };
        let a = run(&state());
        let b = run(&state());
        assert_eq!(a, b);
        assert!(a.contains("\"serve.queries_served\":3"), "{a}");
        assert!(a.contains("\"serve.queries.metrics\":1"), "{a}");
        assert!(a.contains("\"serve.steps_ingested\":124"), "{a}");
        // Sweep-side metrics ride along.
        assert!(a.contains("\"sim.steps\":124"), "{a}");
        assert!(!a.contains("\"wall\""), "{a}");

        // The wall section only appears on request.
        let s = state();
        for line in &script[..2] {
            s.handle(line);
        }
        let walled = s.handle("{\"cmd\":\"metrics\",\"wall\":true,\"id\":3}");
        assert!(walled.contains("\"wall\":{\"query_p50_us\":"), "{walled}");
    }

    #[test]
    fn misaligned_and_invalid_requests_do_not_poison_state() {
        let s = state();
        let reply = s.handle("garbage");
        assert!(reply.contains("\"kind\":\"usage\""), "{reply}");
        let reply = s.handle("{\"cmd\":\"ingest\",\"steps\":4,\"id\":1}");
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert_eq!(s.ingested_steps(), 4);
    }

    #[test]
    fn shutdown_flips_the_flag() {
        let s = state();
        assert!(!s.is_shutdown());
        let reply = s.handle("{\"cmd\":\"shutdown\",\"id\":1}");
        assert!(reply.contains("\"shutting_down\":true"), "{reply}");
        assert!(s.is_shutdown());
    }

    #[test]
    fn panicked_writer_does_not_wedge_replies() {
        let s = state();
        s.handle("{\"cmd\":\"ingest\",\"steps\":8,\"id\":1}");
        // Train once so the predictor mutex holds a cache to discard.
        let predict = "{\"cmd\":\"predict\",\"events\":12,\"epochs\":1,\"lead_hours\":1,\"id\":2}";
        assert!(s.handle(predict).contains("\"cached\":false"));

        // Poison all three locks: a writer panics while holding each.
        std::thread::scope(|scope| {
            let h = scope.spawn(|| {
                let _sweep = s.write_sweep();
                let _stats = s.lock_stats();
                let _cache = s.lock_predictor();
                panic!("writer dies mid-update");
            });
            assert!(h.join().is_err(), "the writer must have panicked");
        });

        // Counters survive poisoning (monotonic, valid at any point)...
        let reply = s.handle("{\"cmd\":\"metrics\",\"id\":3}");
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert!(reply.contains("\"serve.steps_ingested\":8"), "{reply}");
        let reply = s.handle("{\"cmd\":\"status\",\"id\":4}");
        assert!(reply.contains("\"steps_ingested\":8"), "{reply}");
        // ...but the predictor cache is discarded: a half-built cache
        // cannot be told from a complete one, so predict retrains.
        let reply = s.handle(predict);
        assert!(reply.contains("\"cached\":false"), "{reply}");
        assert!(reply.contains("\"accuracy\":"), "{reply}");
        // And ingest keeps appending where it left off.
        let reply = s.handle("{\"cmd\":\"ingest\",\"steps\":4,\"id\":5}");
        assert!(reply.contains("\"steps_ingested\":12"), "{reply}");
    }

    #[test]
    fn replay_without_store_is_a_usage_error() {
        let s = state();
        let reply = s.handle("{\"cmd\":\"replay\",\"id\":1}");
        assert!(reply.contains("\"kind\":\"usage\""), "{reply}");
        assert!(reply.contains("no archive attached"), "{reply}");
        let reply = s.handle("{\"cmd\":\"replay\",\"from\":10,\"to\":10,\"id\":2}");
        assert!(reply.contains("\"from\\\" must precede"), "{reply}");
    }

    /// Builds a small columnar archive: 8 rows per group, 4 groups,
    /// one row per second starting at epoch 1000.
    fn packed_store(path: &std::path::Path) -> Box<dyn Archive + Send> {
        use mira_core::{RackId, TelemetryRecord};
        let mut ar = mira_store::ColumnarArchive::create(path)
            .expect("create store")
            .with_group_rows(8);
        let rows: Vec<TelemetryRecord> = (0..32i64)
            .map(|i| TelemetryRecord {
                time: SimTime::from_epoch_seconds(1000 + i),
                rack: RackId::new(0, 0),
                milli: [i * 10, 45_000, 190_000, 62_000, 71_000, i * 7],
            })
            .collect();
        ar.append_telemetry(&rows).expect("append");
        ar.flush().expect("flush");
        Box::new(ar)
    }

    #[test]
    fn replay_streams_rows_and_prunes_groups() {
        let dir = std::env::temp_dir().join(format!("mira-serve-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("replay.mstore");

        let s = state().with_store(packed_store(&path));
        // [1008, 1016) is exactly the second of four 8-row groups.
        let reply = s.handle("{\"cmd\":\"replay\",\"from\":1008,\"to\":1016,\"id\":1}");
        assert!(reply.starts_with("{\"ok\":true,\"id\":1,"), "{reply}");
        assert!(reply.contains("\"returned\":8"), "{reply}");
        assert!(reply.contains("\"rows_scanned\":8"), "{reply}");
        assert!(reply.contains("\"groups_scanned\":1"), "{reply}");
        assert!(reply.contains("\"groups_total\":4"), "{reply}");
        // Rows are the store's NDJSON rendering, spliced in raw.
        assert!(
            reply.contains("\"rack\":\"(0, 0)\"") || reply.contains("\"rack\":"),
            "{reply}"
        );

        // The limit caps the reply without hiding the true scan size.
        let reply = s.handle("{\"cmd\":\"replay\",\"limit\":3,\"id\":2}");
        assert!(reply.contains("\"returned\":3"), "{reply}");
        assert!(reply.contains("\"rows_scanned\":32"), "{reply}");
        assert!(reply.contains("\"groups_scanned\":4"), "{reply}");

        // Scan counters surface in the deterministic metrics snapshot.
        let reply = s.handle("{\"cmd\":\"ingest\",\"steps\":4,\"id\":3}");
        assert!(reply.contains("\"ok\":true"), "{reply}");
        let reply = s.handle("{\"cmd\":\"metrics\",\"id\":4}");
        assert!(reply.contains("\"serve.queries.replay\":2"), "{reply}");
        assert!(reply.contains("\"store.rows_scanned\":40"), "{reply}");
        assert!(reply.contains("\"store.groups_scanned\":5"), "{reply}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_replies_are_deterministic() {
        let dir =
            std::env::temp_dir().join(format!("mira-serve-replay-det-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let script = "{\"cmd\":\"replay\",\"from\":1004,\"to\":1020,\"limit\":50,\"id\":9}";
        let run = |name: &str| {
            let path = dir.join(name);
            let s = state().with_store(packed_store(&path));
            s.handle(script)
        };
        let a = run("a.mstore");
        let b = run("b.mstore");
        assert_eq!(a, b);
        assert!(a.contains("\"returned\":16"), "{a}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn predict_trains_once_and_reuses_the_cache() {
        let s = state();
        let line = "{\"cmd\":\"predict\",\"events\":12,\"epochs\":1,\"lead_hours\":1,\"id\":1}";
        let first = s.handle(line);
        assert!(first.contains("\"cached\":false"), "{first}");
        assert!(first.contains("\"accuracy\":"), "{first}");
        let second = s.handle(line);
        assert!(second.contains("\"cached\":true"), "{second}");
    }
}
