//! `archive`: export a 30-day span to CSV, pack it into the columnar
//! store the way `mira-ops archive pack` does, then run a closed-loop
//! mix of span scans against the packed store.

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use mira_core::{archive, Archive, Projection, ScanStats, SimTime, Simulation, TelemetryRecord};
use mira_store::{open_archive, Channel, ColumnarArchive, CsvArchive, DEFAULT_GROUP_ROWS};

use crate::reproduce::STEP;
use crate::stats::Rng;
use crate::trace::{by_name, Tracer};
use crate::{alloc, clock, day, Ctx, Outcome};

/// Monitors per grid instant.
pub const RACKS: usize = 48;
/// Rows per `append_telemetry` call, as `mira-ops archive pack` batches.
const BATCH: usize = 1024;
/// Scans per round: enough that even a one-round run's p99 has ten
/// scans beyond it, few enough that export and pack still get a sample
/// every few seconds.
const QUERIES_PER_ROUND: usize = 1000;

/// The archived span: 30 days crossing the July 2016 month seam (and
/// the Theta integration on July 1).
pub fn span() -> (SimTime, SimTime) {
    (day(2016, 6, 16), day(2016, 7, 16))
}

pub fn grid_len() -> usize {
    let (from, to) = span();
    usize::try_from((to - from).as_seconds() / STEP.as_seconds()).expect("positive span")
}

pub fn at(k: usize) -> SimTime {
    span().0 + STEP * i64::try_from(k).expect("grid index fits i64")
}

/// One scan: grid instants `[lo, hi)` and all channels or one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanQuery {
    pub lo: usize,
    pub hi: usize,
    pub channel: Option<Channel>,
}

impl ScanQuery {
    fn projection(self) -> Projection {
        self.channel
            .map_or_else(Projection::all, |c| Projection::only(&[c]))
    }
}

/// The seeded query mix over a grid of `grid` instants: 4% full span,
/// 32% one to seven days, 64% one to 23 hours; half project all
/// channels, half a single one.
pub fn scan_mix(rng: &mut Rng, n: usize, grid: usize) -> Vec<ScanQuery> {
    let per_hour = 12;
    (0..n)
        .map(|_| {
            let u = rng.unit();
            let len = if u < 0.04 {
                grid
            } else if u < 0.36 {
                rng.range(1, 7) as usize * 24 * per_hour
            } else {
                rng.range(1, 23) as usize * per_hour
            }
            .min(grid);
            let lo = rng.range(0, (grid - len) as u64) as usize;
            let channel = if rng.unit() < 0.5 {
                None
            } else {
                Channel::VALUES.get(rng.range(0, 5) as usize).copied()
            };
            ScanQuery {
                lo,
                hi: lo + len,
                channel,
            }
        })
        .collect()
}

/// Rows the store must decode for `q`: every row group (filled in
/// append order, `DEFAULT_GROUP_ROWS` rows each) whose time range meets
/// the query span. Returns (groups, rows).
pub fn groups_touched(q: ScanQuery, total_rows: usize) -> (u64, u64) {
    let (mut groups, mut rows) = (0, 0);
    let mut start = 0;
    while start < total_rows {
        let end = (start + DEFAULT_GROUP_ROWS).min(total_rows);
        let (first, last) = (start / RACKS, (end - 1) / RACKS);
        if last >= q.lo && first < q.hi {
            groups += 1;
            rows += (end - start) as u64;
        }
        start = end;
    }
    (groups, rows)
}

/// Per-round measurements.
#[derive(Debug, Default)]
struct Round {
    export_s: f64,
    pack_s: f64,
    open_s: f64,
    scans_ms: Vec<f64>,
    scan: ScanStats,
    decoded_rows: u64,
    store_bytes: u64,
    cpu_s: f64,
}

/// One export → pack → open → scan round. With the tracer on, spans
/// wrap each call into the archive and store layers.
fn round(
    sim: &Simulation,
    dir: &Path,
    queries: &[ScanQuery],
    check_body: bool,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Option<Round> {
    let (from, to) = span();
    let rows = grid_len() * RACKS;
    let csv_path = dir.join("telemetry.csv");
    let store_path = dir.join("telemetry.mstore");
    let mut r = Round::default();
    let begin = clock::thread_cpu_s();

    let id = tr.enter("archive.export", 0);
    let (exported, secs) = clock::on_cpu(|| {
        File::create(&csv_path)
            .map_err(mira_core::Error::from)
            .and_then(|f| {
                let mut w = BufWriter::new(f);
                let n = archive::export_sweep(sim.telemetry(), from, to, STEP, &mut w)?;
                w.flush()?;
                Ok(n)
            })
    });
    r.export_s = secs;
    tr.exit(id);
    let n = out.check_result(exported)?;
    out.check(n == rows, || {
        format!("export wrote {n} rows, expected {rows}")
    });

    let id = tr.enter("store.pack", 0);
    let (packed, secs) = clock::on_cpu(|| pack(&csv_path, &store_path, tr));
    r.pack_s = secs;
    tr.exit(id);
    let n = out.check_result(packed)?;
    out.check(n == rows, || {
        format!("pack appended {n} rows, expected {rows}")
    });
    r.store_bytes = out.check_result(std::fs::metadata(&store_path))?.len();

    let id = tr.enter("store.open", 0);
    let (opened, secs) = clock::on_cpu(|| open_archive(&store_path));
    r.open_s = secs;
    tr.exit(id);
    let mut store = out.check_result(opened)?;

    for (i, q) in queries.iter().enumerate() {
        let mut delivered = 0u64;
        let id = tr.enter("store.scan", i as u64);
        let (scanned, secs) = clock::on_cpu(|| {
            store.scan_span(at(q.lo), at(q.hi), q.projection(), &mut |rec| {
                delivered += 1;
                std::hint::black_box(rec);
            })
        });
        r.scans_ms.push(secs * 1e3);
        tr.exit(id);
        let Some(stats) = out.check_result(scanned) else {
            continue;
        };
        let expected = ((q.hi - q.lo) * RACKS) as u64;
        let (groups, decoded) = groups_touched(*q, rows);
        out.check(
            delivered == expected
                && stats.rows_scanned == expected
                && stats.groups_scanned == groups,
            || {
                format!(
                    "scan {q:?}: {delivered} rows in {} groups, expected {expected} in {groups}",
                    stats.groups_scanned
                )
            },
        );
        r.scan.absorb(stats);
        r.decoded_rows += decoded;
    }
    r.cpu_s = clock::thread_cpu_s() - begin;

    if check_body {
        let same = body_matches(&csv_path, store.as_mut());
        if let Some(same) = out.check_result(same) {
            out.check(same, || {
                "full-span scan differs from the exported CSV body".into()
            });
        }
    }
    Some(r)
}

/// The `archive pack` path: scan the CSV archive and append to a fresh
/// columnar store in `BATCH`-row batches, then flush.
fn pack(csv_path: &Path, store_path: &Path, tr: &mut Tracer) -> Result<usize, mira_core::Error> {
    let (from, to) = span();
    let mut csv = CsvArchive::open(csv_path)?;
    let mut store = ColumnarArchive::create(store_path)?;
    let mut batch: Vec<TelemetryRecord> = Vec::with_capacity(BATCH);
    let mut appended = 0;
    let mut failure = None;
    let id = tr.enter("store.csv_scan", 0);
    csv.scan_span(from, to, Projection::all(), &mut |rec| {
        batch.push(*rec);
        if batch.len() == BATCH && failure.is_none() {
            let id = tr.enter("store.append", 0);
            if let Err(e) = store.append_telemetry(&batch) {
                failure = Some(e);
            }
            tr.exit(id);
            appended += batch.len();
            batch.clear();
        }
    })?;
    tr.exit(id);
    if let Some(e) = failure {
        return Err(e.into());
    }
    let id = tr.enter("store.append", 0);
    store.append_telemetry(&batch)?;
    tr.exit(id);
    appended += batch.len();
    let id = tr.enter("store.flush", 0);
    store.flush()?;
    tr.exit(id);
    Ok(appended)
}

/// Whether a full-span scan renders exactly the exported CSV body.
fn body_matches(csv_path: &Path, store: &mut dyn Archive) -> Result<bool, mira_core::Error> {
    let (from, to) = span();
    let mut lines = BufReader::new(File::open(csv_path)?).lines();
    let header = lines.next().transpose()?;
    let mut same = header.as_deref() == Some(archive::TELEMETRY_HEADER);
    let mut read_err = None;
    store.scan_span(from, to, Projection::all(), &mut |rec| match lines.next() {
        Some(Ok(line)) => same &= line == rec.csv_row(),
        Some(Err(e)) => read_err = Some(e),
        None => same = false,
    })?;
    if let Some(e) = read_err {
        return Err(e.into());
    }
    Ok(same && lines.next().is_none())
}

pub fn run(ctx: &Ctx) -> Outcome {
    // Warm-up: one exported day, so the export path's lazy state and
    // page faults are paid before anything is timed.
    let (sim, setup_s, new_ms) = crate::set_up(ctx, 5, |sim| {
        let (from, _) = span();
        let _ = archive::export_sweep(
            sim.telemetry(),
            from,
            day(2016, 6, 17),
            STEP,
            std::io::sink(),
        );
        sim
    });
    let mut out = Outcome::default();
    let mut rng = Rng::new(ctx.seed, 1);
    let rows = (grid_len() * RACKS) as f64;
    let mut rounds = Vec::new();
    let mut traced_rounds = Vec::new();
    let deadline = ctx.deadline();
    while rounds.is_empty() || Instant::now() < deadline {
        let queries = scan_mix(&mut rng, QUERIES_PER_ROUND, grid_len());
        let mut off = Tracer::new(false, Instant::now());
        let Some(r) = round(
            &sim,
            &ctx.work,
            &queries,
            rounds.is_empty(),
            &mut off,
            &mut out,
        ) else {
            break;
        };
        rounds.push(r);
        if ctx.trace {
            let mut tr = Tracer::new(true, Instant::now());
            let Some(r) = round(&sim, &ctx.work, &queries, false, &mut tr, &mut out) else {
                break;
            };
            traced_rounds.push((r, tr));
        }
    }
    for name in ["telemetry.csv", "telemetry.mstore"] {
        let _ = std::fs::remove_file(ctx.work.join(name));
    }

    if ctx.trace {
        layer_metrics(ctx, &sim, &rounds, traced_rounds, rows, &mut out);
        out.median_of("simulation.new_ms", &new_ms, "ms");
        return out;
    }
    let rates = |f: fn(&Round) -> f64| rounds.iter().map(|r| rows / f(r)).collect::<Vec<_>>();
    out.slow_quartile_of("export_rows_per_s", &rates(|r| r.export_s), "1/s", true);
    out.slow_quartile_of("pack_rows_per_s", &rates(|r| r.pack_s), "1/s", true);
    // Scan quantiles pool every round's scans. The median of one
    // round's 1,000 scans follows that round's draw of the mix: within
    // one run it swung by up to 40% from round to round, while repeated
    // passes over one round's mix agreed within about 10%.
    let scans: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.scans_ms.iter().copied())
        .collect();
    out.quantile_of("scan_p50_ms", &scans, 0.5, "ms");
    out.quantile_of("scan_p99_ms", &scans, 0.99, "ms");
    // The shared `op_ms` is the mean scan, not the median: the median
    // scan (under a millisecond, one or two row groups) is mostly fixed
    // per-scan cost, which on a busy host swung by 50% between runs
    // (spread 0.24 over ten seeds) while the p99 and the rates stayed
    // within 0.10.
    let mean_ms = scans.iter().sum::<f64>() / scans.len().max(1) as f64;
    out.metric("scan_mean_ms", mean_ms, "ms");
    out.slow_quartile_of(
        "throughput_per_s",
        &rates(|r| r.export_s + r.pack_s),
        "1/s",
        true,
    );
    out.alias("op_ms", "scan_mean_ms", 1.0, "ms");
    out.alias("op_tail_ms", "scan_p99_ms", 1.0, "ms");
    out.finish_end_to_end(&setup_s);
    out
}

fn layer_metrics(
    ctx: &Ctx,
    sim: &Simulation,
    rounds: &[Round],
    traced: Vec<(Round, Tracer)>,
    rows: f64,
    out: &mut Outcome,
) {
    let (from, to) = span();
    // Row source alone: `sweep_records` into a sink that does nothing.
    let (sourced, source_s) = clock::on_cpu(|| {
        archive::sweep_records(sim.telemetry(), from, to, STEP, |rec| {
            std::hint::black_box(rec);
            Ok::<(), ()>(())
        })
    });
    out.check(sourced == Ok(grid_len() * RACKS), || {
        "sweep_records row count".into()
    });
    // Rendering alone, over the same records held in memory.
    let mut records = Vec::with_capacity(grid_len() * RACKS);
    let _ = archive::sweep_records(sim.telemetry(), from, to, STEP, |rec| {
        records.push(*rec);
        Ok::<(), ()>(())
    });
    let ((), render_s) = clock::on_cpu(|| {
        for rec in &records {
            std::hint::black_box(rec.csv_row());
        }
    });
    drop(records);
    let (exported, allocs) =
        alloc::count(|| archive::export_sweep(sim.telemetry(), from, to, STEP, std::io::sink()));
    out.check(exported.is_ok(), || "export to a sink failed".into());

    let mut parse = Vec::new();
    let mut encode = Vec::new();
    let mut overhead = Vec::new();
    for ((r, tr), plain) in traced.iter().zip(rounds) {
        let totals = by_name(tr.spans());
        let own = |name: &str| totals.get(name).map_or(0.0, |t| t.2 as f64);
        let dur = |name: &str| totals.get(name).map_or(0.0, |t| t.1 as f64);
        parse.push(own("store.csv_scan") / rows);
        encode.push((dur("store.append") + dur("store.flush")) / rows);
        overhead.push(r.cpu_s / plain.cpu_s - 1.0);
    }
    let scan_ms: f64 = rounds.iter().flat_map(|r| r.scans_ms.iter()).sum();
    let decoded: u64 = rounds.iter().map(|r| r.decoded_rows).sum();
    let (mut groups, mut scanned, mut delivered) = (0u64, 0u64, 0u64);
    for r in rounds {
        groups += r.scan.groups_total;
        scanned += r.scan.groups_scanned;
        delivered += r.scan.rows_scanned;
    }
    out.metric("archive.source_ns_per_row", source_s * 1e9 / rows, "ns");
    out.metric("archive.render_ns_per_row", render_s * 1e9 / rows, "ns");
    out.metric("archive.allocs_per_row", allocs as f64 / rows, "count");
    out.median_of("store.csv_parse_ns_per_row", &parse, "ns");
    out.median_of("store.encode_ns_per_row", &encode, "ns");
    let per_round = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    out.median_of(
        "store.bytes_per_row",
        &per_round(&|r| r.store_bytes as f64 / rows),
        "count",
    );
    out.median_of("store.open_ms", &per_round(&|r| r.open_s * 1e3), "ms");
    out.metric(
        "store.decode_ns_per_row",
        scan_ms * 1e6 / decoded as f64,
        "ns",
    );
    out.metric(
        "store.groups_scanned_frac",
        scanned as f64 / groups as f64,
        "frac",
    );
    out.metric(
        "store.rows_useful_frac",
        delivered as f64 / decoded as f64,
        "frac",
    );
    out.median_of("trace.overhead_frac", &overhead, "frac");
    if let Some((_, tr)) = traced.last() {
        let path = ctx.work.join("trace-archive.jsonl");
        if let Err(e) = tr.write_jsonl(&path) {
            out.check(false, || format!("writing {}: {e}", path.display()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_mix_is_deterministic_and_in_range() {
        let grid = grid_len();
        let a = scan_mix(&mut Rng::new(5, 1), 2000, grid);
        let b = scan_mix(&mut Rng::new(5, 1), 2000, grid);
        assert_eq!(a, b);
        assert_ne!(a, scan_mix(&mut Rng::new(6, 1), 2000, grid));
        assert!(a.iter().all(|q| q.lo < q.hi && q.hi <= grid));
        let full = a.iter().filter(|q| q.hi - q.lo == grid).count();
        assert!(
            (40..=120).contains(&full),
            "about 4% full-span scans, got {full}"
        );
        assert!(a.iter().any(|q| q.channel.is_none()));
        assert!(a.iter().any(|q| q.channel.is_some()));
    }

    #[test]
    fn touched_groups_follow_the_time_index() {
        let rows = grid_len() * RACKS;
        let full = ScanQuery {
            lo: 0,
            hi: grid_len(),
            channel: None,
        };
        let groups = rows.div_ceil(DEFAULT_GROUP_ROWS) as u64;
        assert_eq!(groups_touched(full, rows), (groups, rows as u64));
        // One instant inside the first group touches only that group.
        let one = ScanQuery {
            lo: 1,
            hi: 2,
            channel: None,
        };
        assert_eq!(groups_touched(one, rows), (1, DEFAULT_GROUP_ROWS as u64));
    }
}
