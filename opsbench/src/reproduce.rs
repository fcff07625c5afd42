//! `reproduce`: the batch path `mira-ops report` and `reproduce_all`
//! run — a six-year sweep at 300 s on every core, the figure report,
//! then a single-thread sweep of the same span as the scaling baseline.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mira_core::sweep::SWEEP_BLOCK;
use mira_core::{
    analysis, Date, Duration, FullSpan, ObsMode, Recorder, SimTime, Simulation, SweepSummary,
    TelemetryEngine,
};

use crate::trace::{by_name, Tracer};
use crate::{alloc, clock, Ctx, Outcome};

pub const STEP: Duration = Duration::from_minutes(5);

/// Cuts the grid `from + k·step` into calendar-month shards exactly as
/// the sweep executor does: a shard starts at the first grid index at
/// or after each first-of-month inside the span.
pub fn month_shards(from: SimTime, to: SimTime, step: Duration) -> Vec<(usize, usize)> {
    let step_s = step.as_seconds();
    let n = usize::try_from(((to - from).as_seconds() + step_s - 1) / step_s).unwrap_or(0);
    let mut starts = vec![0usize];
    let first = from.date();
    let (mut year, mut month) = (first.year(), first.month().number());
    loop {
        month += 1;
        if month > 12 {
            month = 1;
            year += 1;
        }
        let boundary = SimTime::from_date(Date::new(year, month, 1));
        if boundary >= to {
            break;
        }
        let offset = (boundary - from).as_seconds();
        let idx = usize::try_from((offset + step_s - 1) / step_s).unwrap_or(0);
        if idx >= n {
            break;
        }
        if starts.last().is_some_and(|&last| idx > last) {
            starts.push(idx);
        }
    }
    let ends = starts.iter().skip(1).copied().chain(std::iter::once(n));
    starts.iter().copied().zip(ends).collect()
}

/// The sweep executor rebuilt from public pieces, with a span around
/// every kernel call, fold, shard, merge and finish: month shards
/// claimed by `threads` workers, one scratch per worker,
/// `sweep_steps_into` in `SWEEP_BLOCK` chunks, `record_block`, then a
/// chronological merge and `finish`. Returns the summary and the
/// workers' summed thread CPU time over their loops, in ns.
pub fn traced_summary(
    engine: &TelemetryEngine,
    (from, to): (SimTime, SimTime),
    step: Duration,
    threads: usize,
    tracer: &mut Tracer,
) -> (SweepSummary, f64) {
    let shards = month_shards(from, to, step);
    let workers = threads.clamp(1, shards.len().max(1));
    let slots: Vec<Mutex<Option<SweepSummary>>> = shards.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    let parallel = tracer.enter("sweep.parallel", 0);
    let forks: Vec<(Tracer, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let mut tr = tracer.fork(u32::try_from(w + 1).unwrap_or(u32::MAX), parallel);
                let (shards, slots, next) = (&shards, &slots, &next);
                scope.spawn(move || {
                    let worker = tr.enter("sweep.worker", 0);
                    let cpu0 = clock::thread_cpu_s();
                    let mut scratch = engine.sweep_scratch();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let (Some(&(lo, hi)), Some(slot)) = (shards.get(i), slots.get(i)) else {
                            break;
                        };
                        let shard = tr.enter("sweep.shard", i as u64);
                        let mut recorder = SweepSummary::empty((from, to), step);
                        let mut k = lo;
                        while k < hi {
                            let n = (hi - k).min(SWEEP_BLOCK);
                            let t = from + step * i64::try_from(k).expect("grid index fits i64");
                            let id = tr.enter("telemetry.kernel", i as u64);
                            engine.sweep_steps_into(t, step, n, &mut scratch);
                            tr.exit(id);
                            let id = tr.enter("summary.fold", i as u64);
                            let (block, staging) = scratch.block_parts();
                            recorder.record_block(block, staging);
                            tr.exit(id);
                            k += n;
                        }
                        tr.exit(shard);
                        *slot.lock().expect("no worker panics while holding a slot") =
                            Some(recorder);
                    }
                    let cpu_ns = (clock::thread_cpu_s() - cpu0) * 1e9;
                    tr.exit(worker);
                    (tr, cpu_ns)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });
    tracer.exit(parallel);
    let mut worker_cpu_ns = 0.0;
    for (fork, cpu_ns) in forks {
        tracer.adopt(fork);
        worker_cpu_ns += cpu_ns;
    }

    let id = tracer.enter("summary.merge", 0);
    let mut merged: Option<SweepSummary> = None;
    for slot in slots {
        let partial = slot
            .into_inner()
            .expect("no worker panics while holding a slot");
        match (merged.as_mut(), partial) {
            (Some(acc), Some(p)) => Recorder::merge(acc, p),
            (None, p) => merged = p,
            (Some(_), None) => {}
        }
    }
    tracer.exit(id);
    let id = tracer.enter("summary.finish", 0);
    let out = Recorder::finish(merged.expect("a non-empty span has at least one shard"));
    tracer.exit(id);
    (out, worker_cpu_ns)
}

fn grid_steps(sim: &Simulation) -> f64 {
    let (from, to) = sim.config().span();
    ((to - from).as_seconds() / STEP.as_seconds()) as f64
}

pub fn run(ctx: &Ctx) -> Outcome {
    let threads = ctx.threads;
    // Warm-up: one month swept, so page faults and lazy set-up inside
    // the engine are paid before anything is timed.
    let (sim, setup_s, new_ms) = crate::set_up(ctx, 5, |sim| {
        let month = (crate::day(2015, 1, 1), crate::day(2015, 2, 1));
        let _ = std::hint::black_box(sim.sweep_plan(month).step(STEP).threads(1).summary());
        sim
    });
    let steps = grid_steps(&sim);
    let mut out = Outcome::default();
    if ctx.trace {
        traced(ctx, &sim, steps, &mut out);
        out.median_of("simulation.new_ms", &new_ms, "ms");
        return out;
    }

    let (mut reproduce_s, mut t1_rate) = (Vec::new(), Vec::new());
    let deadline = ctx.deadline();
    while reproduce_s.is_empty() || Instant::now() < deadline {
        let (observed, secs) = clock::wall_less_steal(threads, || {
            let observed = sim.summarize_observed(FullSpan, STEP, threads, ObsMode::Off)?;
            std::hint::black_box(analysis::full_report(&sim, &observed.summary));
            Ok::<_, mira_core::Error>(observed)
        });
        let Some(observed) = out.check_result(observed) else {
            break;
        };
        reproduce_s.push(secs);

        let (baseline, secs) =
            clock::on_cpu(|| sim.sweep_plan(FullSpan).step(STEP).threads(1).summary());
        let Some(baseline) = out.check_result(baseline) else {
            break;
        };
        t1_rate.push(steps / secs);
        out.check(baseline == observed.summary, || {
            format!("t1 and t{threads} summaries differ")
        });
    }
    out.slow_quartile_of("reproduce_s", &reproduce_s, "s", false);
    out.slow_quartile_of("sweep_t1_steps_per_s", &t1_rate, "1/s", true);
    out.alias("throughput_per_s", "sweep_t1_steps_per_s", 1.0, "1/s");
    // About eight repetitions fit in a run: their median is the
    // typical time and their slow quartile the tail (a p99 of eight
    // would be the slowest one, which swings with a single spike).
    let round_ms: Vec<f64> = reproduce_s.iter().map(|s| s * 1e3).collect();
    out.median_of("op_ms", &round_ms, "ms");
    out.alias("op_tail_ms", "reproduce_s", 1e3, "ms");
    out.finish_end_to_end(&setup_s);
    out
}

/// The traced run: each round times the untraced library path (the
/// scaling baseline), counts the single-thread sweep's allocations, and
/// runs the executor rebuild and report with the tracer off, then on
/// (the tracing overhead).
fn traced(ctx: &Ctx, sim: &Simulation, steps: f64, out: &mut Outcome) {
    let threads = ctx.threads;
    let span = sim.config().span();
    let mut rounds: Vec<[f64; 13]> = Vec::new();
    let mut last_tracer = None;
    let deadline = ctx.deadline();
    while rounds.is_empty() || Instant::now() < deadline {
        let (observed, tn_sweep) = clock::wall_less_steal(threads, || {
            sim.summarize_observed(FullSpan, STEP, threads, ObsMode::Off)
        });
        let Some(observed) = out.check_result(observed) else {
            return;
        };
        std::hint::black_box(analysis::full_report(sim, &observed.summary));

        let ((baseline, allocs), t1_sweep) = clock::on_cpu(|| {
            alloc::count(|| sim.sweep_plan(FullSpan).step(STEP).threads(1).summary())
        });
        let Some(baseline) = out.check_result(baseline) else {
            return;
        };

        // The same rebuild with the tracer off, then on: the tracing
        // overhead. Besides the summary it returns the main thread's
        // and the workers' CPU time, for the reconciliation below.
        let rebuild_and_report = |tracer: &mut Tracer| {
            let ((rebuilt, worker_cpu_ns), main_cpu_s) = clock::on_cpu(|| {
                let root = tracer.enter("reproduce", 0);
                let rebuilt = traced_summary(sim.telemetry(), span, STEP, threads, tracer);
                let id = tracer.enter("analysis.full_report", 0);
                std::hint::black_box(analysis::full_report(sim, &rebuilt.0));
                tracer.exit(id);
                tracer.exit(root);
                rebuilt
            });
            (rebuilt, main_cpu_s * 1e9, worker_cpu_ns)
        };
        let mut off = Tracer::new(false, Instant::now());
        let ((plain, ..), untraced_rebuild) =
            clock::wall_less_steal(threads, || rebuild_and_report(&mut off));
        let mut tracer = Tracer::new(true, Instant::now());
        let ((rebuilt, main_cpu_ns, worker_cpu_ns), traced_rebuild) =
            clock::wall_less_steal(threads, || rebuild_and_report(&mut tracer));
        out.check(
            rebuilt == observed.summary && rebuilt == baseline && plain == baseline,
            || "traced executor rebuild differs from SweepPlan::summary".into(),
        );

        let spans = tracer.spans();
        // The root span, "reproduce", is the first one opened.
        let wall = spans.first().map_or(0.0, |s| s.duration() as f64);
        let workers = threads.clamp(1, month_shards(span.0, span.1, STEP).len()) as f64;
        // The breakdown of the traced wall time. The main thread's
        // self times partition the wall outside the parallel section;
        // inside it each of the N workers owns 1/N of the section, so
        // worker-side self times and idle time count at 1/N. Kernel,
        // fold, merge, finish, report and unaccounted (the root's
        // uncovered time, and the worker and shard spans' self and idle
        // time) therefore sum to the wall by definition.
        let parallel = spans
            .iter()
            .find(|s| s.name == "sweep.parallel")
            .map_or(0.0, |s| s.duration() as f64);
        let totals = by_name(spans);
        let own = |name: &str| totals.get(name).map_or(0.0, |t| t.2 as f64);
        let count = |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64);
        let worker_busy = totals.get("sweep.worker").map_or(0.0, |t| t.1 as f64);
        let idle = workers * parallel - worker_busy;
        let kernel = own("telemetry.kernel") / workers;
        let fold = own("summary.fold") / workers;
        let unaccounted =
            own("reproduce") + (own("sweep.worker") + own("sweep.shard") + idle) / workers;
        // The reconciliation checks that breakdown against the threads'
        // own CPU clocks: the wall the spans give to work (all of it
        // outside the parallel section, the workers' spans at 1/N
        // inside it) less the CPU time the main thread and the workers
        // consumed. What remains is time the spans attribute to a
        // layer but no thread spent on CPU: steal, preemption, page
        // faults served off CPU.
        let attributed = wall - parallel + worker_busy / workers;
        let residual = attributed - main_cpu_ns - worker_cpu_ns / workers;
        rounds.push([
            own("telemetry.kernel") / steps,
            kernel / wall,
            own("summary.fold") / steps,
            fold / wall,
            own("summary.merge") / 1e6,
            count("sweep.shard"),
            own("summary.finish") / 1e6,
            t1_sweep / (workers * tn_sweep),
            unaccounted / wall,
            residual / wall,
            allocs as f64 / steps,
            own("analysis.full_report") / 1e6,
            traced_rebuild / untraced_rebuild - 1.0,
        ]);
        last_tracer = Some(tracer);
    }
    let names: [(&str, &'static str); 13] = [
        ("telemetry.kernel_ns_per_step", "ns"),
        ("telemetry.kernel_self_frac", "frac"),
        ("summary.fold_ns_per_step", "ns"),
        ("summary.fold_self_frac", "frac"),
        ("summary.merge_ms", "ms"),
        ("summary.merge_shards", "count"),
        ("summary.finish_ms", "ms"),
        ("sweep.scaling_eff", "frac"),
        ("sweep.unaccounted_frac", "frac"),
        ("sweep.reconcile_residual_frac", "frac"),
        ("sweep.allocs_per_step", "count"),
        ("analysis.full_report_ms", "ms"),
        ("trace.overhead_frac", "frac"),
    ];
    for (i, (name, unit)) in names.iter().enumerate() {
        let column: Vec<f64> = rounds.iter().map(|r| r[i]).collect();
        out.median_of(*name, &column, unit);
    }
    if let Some(tracer) = last_tracer {
        let path = ctx.work.join("trace-reproduce.jsonl");
        if let Err(e) = tracer.write_jsonl(&path) {
            out.check(false, || format!("writing {}: {e}", path.display()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_core::SimConfig;

    /// The rebuild matches `SweepPlan::summary` on a span that crosses a
    /// month seam and the July 2016 Theta boundary, at 1 and 2 workers.
    #[test]
    fn traced_rebuild_equals_sweep_plan() {
        let sim = Simulation::new(SimConfig::with_seed(11));
        let span = (
            crate::day(2016, 6, 28),
            crate::day(2016, 7, 3) + Duration::from_hours(5),
        );
        let step = Duration::from_minutes(15);
        let expected = sim
            .sweep_plan(span)
            .step(step)
            .threads(1)
            .summary()
            .expect("non-empty span");
        for threads in [1, 2] {
            let mut tracer = Tracer::new(true, Instant::now());
            let (got, worker_cpu_ns) =
                traced_summary(sim.telemetry(), span, step, threads, &mut tracer);
            assert_eq!(got, expected, "threads={threads}");
            assert!(worker_cpu_ns > 0.0);
            let totals = by_name(tracer.spans());
            assert_eq!(totals["sweep.shard"].0, 2, "one shard per calendar month");
        }
    }

    #[test]
    fn shards_match_the_executor_layout() {
        let t = crate::day;
        let shards = month_shards(t(2015, 1, 15), t(2015, 4, 10), Duration::from_hours(6));
        assert_eq!(shards.len(), 4);
        assert_eq!(shards.last().map(|s| s.1), Some((17 + 28 + 31 + 9) * 4));
        for pair in shards.windows(2) {
            assert_eq!(pair[0].1, pair[1].0);
        }
        let six_years = month_shards(t(2014, 1, 1), t(2020, 1, 1), STEP);
        assert_eq!(six_years.len(), 72);
    }
}
