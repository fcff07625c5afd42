//! Cross-backend round-trip properties: the columnar store, the CSV
//! backend, and the in-memory oracle must agree byte-for-byte on every
//! scan, and a damaged columnar file must always surface a structured
//! [`StoreError`] — never a panic.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use mira_facility::RackId;
use mira_ras::{FailureKind, RasEvent, Severity};
use mira_store::{
    open_archive, Archive, ArchiveStat, Channel, ColumnarArchive, CsvArchive, Projection,
    ScanStats, StoreError, TelemetryRecord,
};
use mira_timeseries::SimTime;

/// The round-trip oracle the file-backed archives are checked against:
/// rows and RAS events kept in memory, in append order.
#[derive(Debug, Default)]
struct MemArchive {
    rows: Vec<TelemetryRecord>,
    ras: Vec<RasEvent>,
}

impl Archive for MemArchive {
    fn open(_path: &Path) -> Result<Self, StoreError> {
        Ok(MemArchive::default())
    }

    fn append_telemetry(&mut self, rows: &[TelemetryRecord]) -> Result<(), StoreError> {
        self.rows.extend_from_slice(rows);
        Ok(())
    }

    fn append_ras(&mut self, events: &[RasEvent]) -> Result<(), StoreError> {
        self.ras.extend_from_slice(events);
        Ok(())
    }

    fn scan_span(
        &mut self,
        from: SimTime,
        to: SimTime,
        _projection: Projection,
        sink: &mut dyn FnMut(&TelemetryRecord),
    ) -> Result<ScanStats, StoreError> {
        let mut stats = ScanStats::default();
        for rec in self.rows.iter().filter(|r| from <= r.time && r.time < to) {
            stats.rows_scanned += 1;
            sink(rec);
        }
        Ok(stats)
    }

    fn ras_events(&mut self) -> Result<Vec<RasEvent>, StoreError> {
        Ok(self.ras.clone())
    }

    fn stat(&mut self) -> Result<ArchiveStat, StoreError> {
        let times = self.rows.iter().map(|r| r.time);
        let zones = self.rows.first().map(|first| {
            let mut zones = first.milli.map(|m| (m, m));
            for rec in &self.rows {
                for (z, m) in zones.iter_mut().zip(rec.milli) {
                    *z = (z.0.min(m), z.1.max(m));
                }
            }
            zones
        });
        Ok(ArchiveStat {
            rows: self.rows.len() as u64,
            ras_events: self.ras.len() as u64,
            groups: u64::from(!self.rows.is_empty()),
            file_bytes: 0,
            csv_bytes: 0,
            time_range: times.clone().min().zip(times.max()),
            zones,
        })
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        Ok(())
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mira-store-props-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Decodes one sampled integer into a telemetry record. Times advance
/// strictly (row `i` lands in `[7i, 7i+7)` past the seed epoch, so
/// append order is time order); values cover both signs and several
/// magnitudes while staying inside the quantizer's exact range.
fn record(i: usize, raw: u64) -> TelemetryRecord {
    let i = i as i64;
    let time = SimTime::from_epoch_seconds(1_420_000_000 + i * 7 + (raw % 7) as i64);
    let rack = RackId::from_index((raw % 48) as usize);
    let mut milli = [0i64; 6];
    for (slot, m) in milli.iter_mut().enumerate() {
        let bits = raw.rotate_left((slot as u32) * 11);
        let magnitude = (bits % 2_000_000_000) as i64;
        *m = if bits & 1 == 0 { magnitude } else { -magnitude };
    }
    TelemetryRecord { time, rack, milli }
}

fn ras_event(i: usize, raw: u64) -> RasEvent {
    RasEvent {
        time: SimTime::from_epoch_seconds(1_420_000_000 + (i as i64) * 61),
        rack: RackId::from_index((raw % 48) as usize),
        kind: FailureKind::ALL[(raw % 7) as usize],
        severity: if raw.is_multiple_of(3) {
            Severity::Warn
        } else {
            Severity::Fatal
        },
    }
}

/// Full-span scan into a vector of records.
fn scan_all(ar: &mut dyn Archive) -> Vec<TelemetryRecord> {
    let mut rows = Vec::new();
    ar.scan_span(
        SimTime::from_epoch_seconds(i64::MIN),
        SimTime::from_epoch_seconds(i64::MAX),
        Projection::all(),
        &mut |rec| rows.push(*rec),
    )
    .expect("full scan");
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole guarantee: the same rows pushed through all three
    /// backends come back identical — as records AND as rendered bytes
    /// (CSV rows and NDJSON rows), for the full span and a random
    /// sub-span.
    #[test]
    fn columnar_csv_and_mem_agree_bytewise(
        raws in proptest::collection::vec(0u64..=u64::MAX, 1..300),
        group_rows in 1usize..64,
        span_lo in 0usize..300,
        span_len in 0usize..300,
    ) {
        let dir = scratch("tri");
        let rows: Vec<TelemetryRecord> =
            raws.iter().enumerate().map(|(i, &r)| record(i, r)).collect();
        let events: Vec<RasEvent> =
            raws.iter().enumerate().take(40).map(|(i, &r)| ras_event(i, r)).collect();

        let mut col = ColumnarArchive::create(&dir.join("a.mstore"))
            .expect("create")
            .with_group_rows(group_rows);
        col.append_telemetry(&rows).expect("append");
        col.append_ras(&events).expect("ras");
        col.flush().expect("flush");

        let mut csv = CsvArchive::open(&dir.join("a.csv")).expect("csv open");
        csv.append_telemetry(&rows).expect("append");
        csv.append_ras(&events).expect("ras");

        let mut mem = MemArchive::default();
        mem.append_telemetry(&rows).expect("append");
        mem.append_ras(&events).expect("ras");

        let from_col = scan_all(&mut col);
        let from_csv = scan_all(&mut csv);
        let from_mem = scan_all(&mut mem);
        prop_assert_eq!(&from_col, &rows);
        prop_assert_eq!(&from_csv, &rows);
        prop_assert_eq!(&from_mem, &rows);

        let render = |rs: &[TelemetryRecord]| -> (String, String) {
            (
                rs.iter().map(TelemetryRecord::csv_row).collect::<Vec<_>>().join("\n"),
                rs.iter().map(TelemetryRecord::ndjson_row).collect::<Vec<_>>().join("\n"),
            )
        };
        prop_assert_eq!(render(&from_col), render(&from_csv));

        // RAS events survive both on-disk formats.
        prop_assert_eq!(col.ras_events().expect("ras"), events.clone());
        prop_assert_eq!(csv.ras_events().expect("ras"), events.clone());

        // Sub-span scans agree too (the columnar side prunes groups,
        // the CSV side filters rows — same bytes either way).
        let lo = span_lo.min(rows.len() - 1);
        let hi = (lo + span_len).min(rows.len() - 1);
        let (from_t, to_t) = (rows[lo].time, rows[hi].time);
        let sub = |ar: &mut dyn Archive| -> Vec<TelemetryRecord> {
            let mut out = Vec::new();
            ar.scan_span(from_t, to_t, Projection::all(), &mut |rec| out.push(*rec))
                .expect("sub scan");
            out
        };
        let expected: Vec<TelemetryRecord> = rows
            .iter()
            .filter(|r| r.time >= from_t && r.time < to_t)
            .copied()
            .collect();
        prop_assert_eq!(sub(&mut col), expected.clone());
        prop_assert_eq!(sub(&mut csv), expected.clone());
        prop_assert_eq!(sub(&mut mem), expected);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Reopening a packed file yields the same rows the writer held —
    /// the on-disk format is self-contained.
    #[test]
    fn reopen_round_trips(
        raws in proptest::collection::vec(0u64..=u64::MAX, 0..120),
        group_rows in 1usize..32,
    ) {
        let dir = scratch("reopen");
        let path = dir.join("r.mstore");
        let rows: Vec<TelemetryRecord> =
            raws.iter().enumerate().map(|(i, &r)| record(i, r)).collect();
        {
            let mut col = ColumnarArchive::create(&path)
                .expect("create")
                .with_group_rows(group_rows);
            col.append_telemetry(&rows).expect("append");
            col.flush().expect("flush");
        }
        let mut reopened = open_archive(&path).expect("reopen");
        prop_assert_eq!(scan_all(reopened.as_mut()), rows);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Damage anywhere in the file — truncation at any byte, or a
    /// flipped byte — must produce `Ok` or a structured `StoreError`,
    /// never a panic. (Flipping payload bytes can decode to different
    /// values; the property is about *failure shape*, not detection.)
    #[test]
    fn damaged_files_never_panic(
        raws in proptest::collection::vec(0u64..=u64::MAX, 1..80),
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        flip_bits in 1u8..=255,
    ) {
        let dir = scratch("damage");
        let path = dir.join("d.mstore");
        let rows: Vec<TelemetryRecord> =
            raws.iter().enumerate().map(|(i, &r)| record(i, r)).collect();
        {
            let mut col = ColumnarArchive::create(&path)
                .expect("create")
                .with_group_rows(8);
            col.append_telemetry(&rows).expect("append");
            col.flush().expect("flush");
        }
        let bytes = std::fs::read(&path).expect("read back");

        let exercise = |mutated: &[u8], label: &str| {
            let p = dir.join("mut.mstore");
            std::fs::write(&p, mutated).expect("write mutant");
            match open_archive(&p) {
                Err(e) => {
                    // Structured and renderable, not a panic.
                    assert!(!e.to_string().is_empty(), "{label}");
                }
                Ok(mut ar) => {
                    // Opening can succeed (payload damage, or a short
                    // prefix that no longer carries the magic and falls
                    // back to the CSV backend); scanning must still be
                    // panic-free.
                    let result = ar.scan_span(
                        SimTime::from_epoch_seconds(i64::MIN),
                        SimTime::from_epoch_seconds(i64::MAX),
                        Projection::all(),
                        &mut |_| {},
                    );
                    if let Err(e) = result {
                        assert!(!e.to_string().is_empty(), "{label}");
                    }
                }
            }
        };

        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        exercise(&bytes[..cut.min(bytes.len())], "truncated");

        let mut flipped = bytes.clone();
        let at = ((flipped.len() as f64) * flip_frac) as usize;
        let at = at.min(flipped.len() - 1);
        flipped[at] ^= flip_bits;
        exercise(&flipped, "flipped");

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn zone_map_pruning_is_observable_through_metrics() {
    let dir = scratch("prune");
    let path = dir.join("p.mstore");
    // 10 groups of 16 rows, one row per second.
    let rows: Vec<TelemetryRecord> = (0..160i64)
        .map(|i| TelemetryRecord {
            time: SimTime::from_epoch_seconds(2000 + i),
            rack: RackId::from_index((i % 48) as usize),
            milli: [i * 3, -i, 0, i, 500, -500],
        })
        .collect();
    let mut col = ColumnarArchive::create(&path)
        .expect("create")
        .with_group_rows(16);
    col.append_telemetry(&rows).expect("append");
    col.flush().expect("flush");

    // [2032, 2064) covers exactly groups 2 and 3.
    let stats = col
        .scan_span(
            SimTime::from_epoch_seconds(2032),
            SimTime::from_epoch_seconds(2064),
            Projection::all(),
            &mut |_| {},
        )
        .expect("scan");
    assert_eq!(stats.rows_scanned, 32);
    assert_eq!(stats.groups_total, 10);
    assert_eq!(stats.groups_scanned, 2, "{stats:?}");
    // All 8 blocks per intersecting group under a full projection.
    assert_eq!(stats.blocks_decoded, 16, "{stats:?}");

    // The same counters surface through mira-obs, which is how the CI
    // gate asserts "reads only intersecting blocks" from the outside.
    let mut metrics = mira_obs::MetricsPartial::new();
    stats.record(&mut metrics);
    assert_eq!(metrics.counter("store.rows_scanned"), Some(32));
    assert_eq!(metrics.counter("store.groups_total"), Some(10));
    assert_eq!(metrics.counter("store.groups_scanned"), Some(2));
    assert_eq!(metrics.counter("store.blocks_decoded"), Some(16));
    assert!(metrics.counter("store.bytes_read").unwrap_or(0) > 0);

    // A channel projection narrows decoding to time + rack + 1 block.
    let stats = col
        .scan_span(
            SimTime::from_epoch_seconds(2032),
            SimTime::from_epoch_seconds(2064),
            Projection::only(&[Channel::FlowGpm]),
            &mut |_| {},
        )
        .expect("scan");
    assert_eq!(stats.blocks_decoded, 6, "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncation_points_yield_structured_errors() {
    let dir = scratch("trunc");
    let path = dir.join("t.mstore");
    let rows: Vec<TelemetryRecord> = (0..64i64)
        .map(|i| TelemetryRecord {
            time: SimTime::from_epoch_seconds(9000 + i),
            rack: RackId::from_index(0),
            milli: [i; 6],
        })
        .collect();
    let mut col = ColumnarArchive::create(&path)
        .expect("create")
        .with_group_rows(16);
    col.append_telemetry(&rows).expect("append");
    col.flush().expect("flush");
    drop(col);
    let bytes = std::fs::read(&path).expect("read");

    // Every prefix from the magic onward is damaged somewhere; each
    // must fail to open with a corrupt error, never panic. (Prefixes
    // shorter than the magic fall back to the CSV backend and are
    // covered by the property test above.)
    for cut in 8..bytes.len() {
        let p = dir.join("cut.mstore");
        std::fs::write(&p, &bytes[..cut]).expect("write");
        match open_archive(&p) {
            Err(StoreError::Corrupt { offset, .. }) => {
                assert!(offset <= bytes.len() as u64, "cut {cut}");
            }
            Err(other) => panic!("cut {cut}: expected corruption, got {other}"),
            Ok(_) => panic!("truncation at {cut} of {} opened cleanly", bytes.len()),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_and_single_row_archives_round_trip() {
    let dir = scratch("tiny");
    for (name, rows) in [
        ("empty", Vec::new()),
        (
            "single",
            vec![TelemetryRecord {
                time: SimTime::from_epoch_seconds(5),
                rack: RackId::from_index(47),
                milli: [i64::from(i32::MIN), i64::from(i32::MAX), 0, -1, 1, 999],
            }],
        ),
    ] {
        let path = dir.join(format!("{name}.mstore"));
        let mut col = ColumnarArchive::create(&path).expect("create");
        col.append_telemetry(&rows).expect("append");
        col.flush().expect("flush");
        drop(col);
        let mut re = open_archive(&path).expect("reopen");
        assert_eq!(scan_all(re.as_mut()), rows, "{name}");
        let stat = re.stat().expect("stat");
        assert_eq!(stat.rows, rows.len() as u64, "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn archive_trait_stays_object_safe() {
    let _open: fn(&Path) -> Result<Box<dyn Archive + Send>, StoreError> = open_archive;
}
