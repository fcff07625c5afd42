//! The mira-ops benchmark: one command, three workloads, end-to-end
//! metrics untraced and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path opsbench/Cargo.toml -- \
//!     --workload reproduce|archive|serve --seed N --seconds S --trace 0|1 [--threads N]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! With `--trace 0` it carries the end-to-end metrics of `END_TO_END`,
//! with `--trace 1` the per-layer metrics of `PER_LAYER`; every workload
//! reports every one of them. Host, seed and threads, and each
//! workload's own named figures, are printed on the lines before it.
//! See `opsbench/README.md` for why each workload exists, what the
//! shared metrics mean on each, and which metric each layer should move.

mod alloc;
mod archive;
mod clock;
mod reproduce;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration as WallDuration, Instant};

use mira_core::{Date, SimConfig, SimTime, Simulation};

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

pub const WORKLOADS: [&str; 3] = ["reproduce", "archive", "serve"];

/// The end-to-end metrics every workload reports untraced, in the order
/// of `BENCHMARK.json`. The last three take a meaning per workload:
/// its bulk rate, its typical operation time and its tail.
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "ok_ops_frac",
    "peak_rss_mb",
    "throughput_per_s",
    "op_ms",
    "op_tail_ms",
];

/// The per-layer metrics every traced run reports, in the order of
/// `BENCHMARK.json`.
pub const PER_LAYER: [&str; 45] = [
    "simulation.new_ms",
    "telemetry.kernel_ns_per_step",
    "telemetry.kernel_self_frac",
    "summary.fold_ns_per_step",
    "summary.fold_self_frac",
    "summary.merge_ms",
    "summary.merge_shards",
    "summary.finish_ms",
    "sweep.scaling_eff",
    "sweep.unaccounted_frac",
    "sweep.reconcile_residual_frac",
    "sweep.allocs_per_step",
    "analysis.full_report_ms",
    "archive.source_ns_per_row",
    "archive.render_ns_per_row",
    "archive.allocs_per_row",
    "store.csv_parse_ns_per_row",
    "store.encode_ns_per_row",
    "store.bytes_per_row",
    "store.open_ms",
    "store.decode_ns_per_row",
    "store.groups_scanned_frac",
    "store.rows_useful_frac",
    "serve.parse_us_p50",
    "serve.service_us_p50.status",
    "serve.service_us_p99.status",
    "serve.service_us_p50.metrics",
    "serve.service_us_p99.metrics",
    "serve.service_us_p50.figure",
    "serve.service_us_p99.figure",
    "serve.service_us_p50.report",
    "serve.service_us_p99.report",
    "serve.service_us_p50.replay",
    "serve.service_us_p99.replay",
    "serve.service_us_p50.ingest",
    "serve.service_us_p99.ingest",
    "serve.queue_wait_us_p99",
    "serve.ingest_busy_frac",
    "serve.backlog_max",
    "serve.query_lock_wait_frac",
    "serve.ingest_lock_wait_frac",
    "serve.gen_late_max_ms",
    "serve.wall_query_p99_us",
    "serve.steal_frac",
    "trace.overhead_frac",
];

/// Seconds a traced run gives each of the other two workloads' traced
/// phases, so that every per-layer metric exists on every workload: one
/// round of `reproduce` and of `archive`, two one-second `serve`
/// sessions.
const PROBE_SECONDS: u64 = 2;

/// What one run needs to know: its inputs and its host.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub threads: usize,
    /// Scratch files (exported CSV, packed store, span dumps).
    pub work: PathBuf,
}

impl Ctx {
    pub fn config(&self) -> SimConfig {
        SimConfig::with_seed(self.seed)
    }

    /// When the measured phase that starts now must end.
    pub fn deadline(&self) -> Instant {
        Instant::now() + WallDuration::from_secs(self.seconds)
    }
}

/// One reported number, with the spread of the samples it summarizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Quantile taken, sample count, min and max, when the value
    /// summarizes repeated samples.
    pub spread: Option<(f64, usize, f64, f64)>,
    /// The workload whose traced phase, run as a probe, measured it.
    pub probe: Option<&'static str>,
}

/// A workload's result: operations attempted and failed, and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why each failed operation failed (printed, never in the JSON).
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            spread: None,
            probe: None,
        });
    }

    /// Reports the metric `of`, scaled by `scale`, again under `name`:
    /// how a workload's own figure becomes a shared end-to-end metric.
    pub fn alias(&mut self, name: &str, of: &str, scale: f64, unit: &'static str) {
        if let Some(m) = self.metrics.iter().find(|m| m.name == of) {
            let m = Metric {
                name: name.to_string(),
                value: m.value * scale,
                unit,
                spread: m
                    .spread
                    .map(|(q, n, lo, hi)| (q, n, lo * scale, hi * scale)),
                probe: None,
            };
            self.metrics.push(m);
        }
    }

    /// Reports the median of `samples`, keeping their count and range
    /// for the printed ledger.
    pub fn median_of(&mut self, name: impl Into<String>, samples: &[f64], unit: &'static str) {
        self.quantile_of(name, samples, 0.5, unit);
    }

    /// Reports the slow quartile of per-repetition samples: the upper
    /// quartile of times, or the lower quartile of rates. On a shared
    /// host the noise is one-sided: most repetitions run at the host's
    /// sustained speed and a minority run up to 1.5x faster whenever
    /// the neighbours go quiet, so a run's median depends on how many
    /// quiet spells it caught, while its slow quartile does not.
    pub fn slow_quartile_of(
        &mut self,
        name: impl Into<String>,
        samples: &[f64],
        unit: &'static str,
        higher_is_better: bool,
    ) {
        let q = if higher_is_better { 0.25 } else { 0.75 };
        self.quantile_of(name, samples, q, unit);
    }

    /// Reports the nearest-rank `q` quantile of `samples`, keeping
    /// their count and range for the printed ledger.
    pub fn quantile_of(
        &mut self,
        name: impl Into<String>,
        samples: &[f64],
        q: f64,
        unit: &'static str,
    ) {
        let v = stats::sorted(samples);
        self.metrics.push(Metric {
            name: name.into(),
            value: stats::quantile(&v, q).unwrap_or(f64::NAN),
            unit,
            spread: Some((
                q,
                v.len(),
                v.first().copied().unwrap_or(f64::NAN),
                v.last().copied().unwrap_or(f64::NAN),
            )),
            probe: None,
        });
    }

    /// Adds another outcome's operation counts and failures.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }

    /// Adds a probe's counts and every metric this outcome lacks, marked
    /// with the probed workload: a layer's metric measured by the
    /// workload that exercises it wins over the same name from a probe.
    fn absorb_probe(&mut self, workload: &'static str, mut probe: Outcome) {
        for mut m in std::mem::take(&mut probe.metrics) {
            if self.metrics.iter().all(|own| own.name != m.name) {
                m.probe = Some(workload);
                self.metrics.push(m);
            }
        }
        self.absorb(probe);
    }

    /// Counts one operation, failing it with `why` when `ok` is false.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why());
            }
        }
    }

    /// Counts one operation that returned a `Result`.
    pub fn check_result<T, E: std::fmt::Display>(&mut self, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || e.to_string());
                None
            }
        }
    }

    /// The metrics every workload reports on its untraced run.
    fn finish_end_to_end(&mut self, setup_s: &[f64]) {
        self.median_of("setup_s", setup_s, "s");
        let attempted = self.attempted.max(1) as f64;
        self.metric("ok_ops_frac", 1.0 - self.failed as f64 / attempted, "frac");
        self.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
}

/// Builds a simulation and the workload's state on it `reps` times
/// (the last one is kept) and returns the state with each build's time
/// in seconds and each `Simulation::new` time in milliseconds. Set-up
/// runs on the calling thread and is timed on its CPU clock.
pub fn set_up<T>(
    ctx: &Ctx,
    reps: usize,
    mut build: impl FnMut(Simulation) -> T,
) -> (T, Vec<f64>, Vec<f64>) {
    let mut setup_s = Vec::with_capacity(reps);
    let mut new_ms = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps {
        drop(state.take());
        let t0 = clock::thread_cpu_s();
        let sim = Simulation::new(ctx.config());
        new_ms.push((clock::thread_cpu_s() - t0) * 1e3);
        state = Some(build(sim));
        setup_s.push(clock::thread_cpu_s() - t0);
    }
    (state.expect("reps >= 1"), setup_s, new_ms)
}

pub fn day(y: i32, m: u8, d: u8) -> SimTime {
    SimTime::from_date(Date::new(y, m, d))
}

/// `VmHWM` (peak resident set) of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut threads) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--threads" => {
                threads = Some(usize::try_from(num(&value)?).map_err(|e| e.to_string())?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        threads,
    })
}

/// The result line: the outcome's counts and, in `names` order, the
/// metrics `names` lists. A listed metric that is missing or not finite
/// is an error, so no run prints a partial result.
fn render_json(outcome: &Outcome, names: &[&str]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(names.len());
    for name in names {
        let m = outcome
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        metrics.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    ))
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let nproc = nproc();
    let threads = args.threads.unwrap_or(nproc);
    if threads == 0 || threads > nproc {
        return Err(format!(
            "refusing {threads} threads on a host with nproc = {nproc}: \
             an oversubscribed run is not a scaling result"
        ));
    }
    if (args.workload == "serve" || args.trace) && nproc < serve::THREADS {
        return Err(format!(
            "the serve workload (and every traced run, which probes it) runs {} threads; \
             this host has nproc = {nproc}",
            serve::THREADS
        ));
    }
    let Some(&workload) = WORKLOADS.iter().find(|w| **w == args.workload) else {
        return Err(format!(
            "unknown workload {:?}: expected reproduce, archive or serve",
            args.workload
        ));
    };
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work");
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
        work,
    };
    let used = match workload {
        "serve" => serve::THREADS,
        _ => threads,
    };
    println!(
        "host nproc={nproc} cpu=\"{}\" threads={used} workload={} seed={} seconds={} trace={}",
        cpu_model(),
        workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    let mut outcome = run_workload(workload, &ctx);
    if ctx.trace {
        let probe_ctx = Ctx {
            seconds: PROBE_SECONDS,
            ..ctx.clone()
        };
        for probe in WORKLOADS.into_iter().filter(|w| *w != workload) {
            outcome.absorb_probe(probe, run_workload(probe, &probe_ctx));
        }
    }
    if !ctx.trace {
        let frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        println!(
            "failed_ops_frac {frac} ({} of {})",
            outcome.failed, outcome.attempted
        );
    }
    for m in &outcome.metrics {
        let probe = m.probe.map_or(String::new(), |w| format!(" ({w} probe)"));
        match m.spread {
            Some((q, n, min, max)) => println!(
                "{:<34} {:>16.6} {:<6} q{q} of n={n} min={min:.6} max={max:.6}{probe}",
                m.name, m.value, m.unit
            ),
            None => println!("{:<34} {:>16.6} {}{probe}", m.name, m.value, m.unit),
        }
    }
    for why in &outcome.failures {
        println!("failed: {why}");
    }
    render_json(&outcome, if ctx.trace { &PER_LAYER } else { &END_TO_END })
}

fn run_workload(workload: &str, ctx: &Ctx) -> Outcome {
    match workload {
        "reproduce" => reproduce::run(ctx),
        "archive" => archive::run(ctx),
        _ => serve::run(ctx),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("opsbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of a `BENCHMARK.json` section, in order.
    fn names(section: &str) -> Vec<&str> {
        section
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        let e2e = manifest.find("\"end_to_end\"").expect("end_to_end section");
        let layer = manifest.find("\"per_layer\"").expect("per_layer section");
        let workloads = manifest.find("\"workloads\"").expect("workloads section");
        assert!(workloads < e2e && e2e < layer, "sections in manifest order");
        assert_eq!(names(&manifest[workloads..e2e]), WORKLOADS);
        assert_eq!(names(&manifest[e2e..layer]), END_TO_END);
        assert_eq!(names(&manifest[layer..]), PER_LAYER);
    }

    #[test]
    fn the_result_line_holds_exactly_the_listed_metrics() {
        let mut out = Outcome::default();
        out.check(true, String::new);
        out.metric("b", 2.5, "s");
        out.metric("extra", 1.0, "s");
        out.alias("a", "b", 1e3, "ms");
        assert_eq!(
            render_json(&out, &["a", "b"]).as_deref(),
            Ok(
                "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":\
                {\"a\":{\"value\":2500,\"unit\":\"ms\"},\"b\":{\"value\":2.5,\"unit\":\"s\"}}}"
            )
        );
        assert!(render_json(&out, &["a", "missing"]).is_err());
    }
}
