//! Allocation gates for the telemetry sweep and its text path.
//!
//! A counting global allocator wraps the system one for this test
//! binary. Exporting a sweep to CSV or NDJSON, and packing a CSV
//! archive into the columnar store, allocate a fixed number of times
//! however many rows they carry: each path runs over a 1-day and a
//! 3-day span (13,824 and 41,472 rows at a 5-minute step), and the two
//! counts may differ only by the logarithmic growth of the buffers that
//! hold whole spans or files (the store's row-group index, its footer),
//! never by a per-row or per-group term. The summary sweep behind
//! every figure stays under its recorded allocations per step.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

use mira_core::archive::{export_sweep, export_sweep_ndjson};
use mira_core::{Archive, Date, Duration, Projection, SimConfig, SimTime, Simulation};
use mira_store::{ColumnarArchive, CsvArchive, TelemetryRecord};

/// Counts the allocations (alloc, zeroed alloc, realloc) of the thread
/// that switched counting on; other threads pass straight through.
struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with` keeps allocations during thread teardown uncounted
    // rather than panicking inside the allocator.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counters are const-initialised thread
// locals without destructors, so touching them never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the allocations it made.
fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

/// Allowed difference between the 1-day and 3-day counts.
const SLACK: u64 = 12;

const STEP: Duration = Duration::from_minutes(5);

fn day(d: u8) -> SimTime {
    SimTime::from_date(Date::new(2016, 6, d))
}

/// Export allocations for `days` days from June 20, 2016, through
/// `export` into a sink.
fn export_allocs(
    sim: &Simulation,
    days: u8,
    export: fn(
        &mira_core::TelemetryEngine,
        SimTime,
        SimTime,
        Duration,
        std::io::Sink,
    ) -> Result<usize, mira_core::Error>,
) -> (usize, u64) {
    let (rows, allocs) = count(|| {
        export(
            sim.telemetry(),
            day(20),
            day(20 + days),
            STEP,
            std::io::sink(),
        )
    });
    (rows.expect("export to a sink"), allocs)
}

/// The pack path (as `mira-ops archive pack` runs it): scan the CSV
/// archive, append to a fresh columnar store in 1,024-row batches,
/// flush. Returns rows appended and allocations made.
fn pack_allocs(csv: &Path, store: &Path) -> (usize, u64) {
    let (rows, allocs) = count(|| -> Result<usize, mira_core::StoreError> {
        let mut source = CsvArchive::open(csv)?;
        let mut sink = ColumnarArchive::create(store)?;
        let mut batch: Vec<TelemetryRecord> = Vec::with_capacity(1024);
        let mut appended = 0;
        let mut failed = None;
        source.scan_span(
            SimTime::from_epoch_seconds(i64::MIN),
            SimTime::from_epoch_seconds(i64::MAX),
            Projection::all(),
            &mut |rec| {
                batch.push(*rec);
                if batch.len() == batch.capacity() {
                    if let Err(e) = sink.append_telemetry(&batch) {
                        failed.get_or_insert(e);
                    }
                    appended += batch.len();
                    batch.clear();
                }
            },
        )?;
        if let Some(e) = failed {
            return Err(e);
        }
        sink.append_telemetry(&batch)?;
        sink.flush()?;
        Ok(appended + batch.len())
    });
    (rows.expect("pack"), allocs)
}

#[test]
fn export_and_pack_allocate_independently_of_row_count() {
    let sim = Simulation::new(SimConfig::with_seed(2014));
    let dir = std::env::temp_dir().join(format!("mira-text-allocs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // Warm-up: the kernel's lazily built state is paid before counting.
    export_allocs(&sim, 3, export_sweep);

    let mut counts = Vec::new();
    for days in [1u8, 3] {
        let (csv_rows, csv_allocs) = export_allocs(&sim, days, export_sweep);
        let (nd_rows, nd_allocs) = export_allocs(&sim, days, export_sweep_ndjson);
        assert_eq!(csv_rows, usize::from(days) * 288 * 48);
        assert_eq!(nd_rows, csv_rows);

        let csv = dir.join(format!("tele-{days}.csv"));
        let file = std::fs::File::create(&csv).expect("create csv");
        export_sweep(sim.telemetry(), day(20), day(20 + days), STEP, file).expect("export");
        let (packed, pack_allocs) = pack_allocs(&csv, &dir.join(format!("tele-{days}.mstore")));
        assert_eq!(packed, csv_rows);
        counts.push((csv_rows, csv_allocs, nd_allocs, pack_allocs));
    }
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("(rows, export csv, export ndjson, pack) allocations: {counts:?}");

    let [(rows1, csv1, nd1, pack1), (rows3, csv3, nd3, pack3)] = counts[..] else {
        unreachable!("two spans");
    };
    for (what, one, three) in [
        ("export_sweep", csv1, csv3),
        ("export_sweep_ndjson", nd1, nd3),
        ("pack", pack1, pack3),
    ] {
        assert!(
            three <= one + SLACK,
            "{what}: {one} allocations for {rows1} rows but {three} for {rows3}"
        );
    }
}

/// Recorded steady-state allocations per step of the single-thread
/// summary sweep over March-May 2016 at a 5-minute step. A per-block
/// allocation alone costs 1/16 per step; a per-step one, 1.
const SWEEP_ALLOCS_PER_STEP: f64 = 0.0297;

#[test]
fn summary_sweep_stays_under_its_recorded_allocs_per_step() {
    let sim = Simulation::new(SimConfig::with_seed(2014));
    let from = SimTime::from_date(Date::new(2016, 3, 1));
    let to = SimTime::from_date(Date::new(2016, 6, 1));
    let sweep = |to: SimTime| {
        sim.sweep_plan((from, to))
            .step(STEP)
            .threads(1)
            .summary()
            .expect("non-empty span")
    };
    let steps = (to - from).as_seconds() / STEP.as_seconds();
    assert_eq!(steps, 26_496, "three month shards");

    // Warm-up: the kernel's lazily built state is paid before counting.
    sweep(from + STEP * 32);

    // The first half of the same grid pays the same per-sweep setup and
    // finish work (shard list, recorders, series assembly), so the
    // difference is the cost of the second half's steps alone.
    let half = steps / 2;
    let (_, whole) = count(|| sweep(to));
    let (_, first_half) = count(|| sweep(from + STEP * half));
    let per_step = whole.saturating_sub(first_half) as f64 / (steps - half) as f64;
    eprintln!("summary sweep: {whole} allocations, {per_step:.4} per step");
    assert!(
        per_step <= SWEEP_ALLOCS_PER_STEP,
        "{per_step:.4} allocations per step exceeds the recorded {SWEEP_ALLOCS_PER_STEP}"
    );
}
