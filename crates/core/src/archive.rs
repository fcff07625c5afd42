//! Telemetry and RAS archival: CSV and NDJSON export, delegating row
//! rendering to `mira-store`'s canonical record model (reading CSV
//! back is [`mira_store::CsvArchive`]'s job).
//!
//! The real Mira stored its coolant telemetry in an IBM DB2
//! environmental database; downstream users of this reproduction need
//! the same capability in an open format. The schema is one row per
//! coolant-monitor sample (`time,rack,dc_temp_f,dc_rh,flow_gpm,
//! inlet_f,outlet_f,power_kw`) and one row per RAS event
//! (`time,rack,kind,severity`), both round-trippable.
//!
//! Every row passes through [`mira_store::TelemetryRecord`] — values
//! quantized to milli-units by exact integer rounding equal to the
//! `{:.3}` rendering, and rendered by its one writer
//! ([`TelemetryRecord::write_csv`] / [`TelemetryRecord::write_ndjson`])
//! — so a sweep exported live, a CSV file read back, and a columnar
//! archive scanned with [`mira_store::Archive::scan_span`] all produce
//! byte-identical text.

use std::io::Write;

use mira_ras::RasEvent;
use mira_store::TelemetryRecord;
use mira_timeseries::{Duration, SimTime};
use mira_units::convert;

use crate::error::Error;
use crate::sweep::SWEEP_BLOCK;
use crate::telemetry::TelemetryEngine;

/// The telemetry CSV header.
pub const TELEMETRY_HEADER: &str = mira_store::TELEMETRY_HEADER;

/// The RAS CSV header.
pub const RAS_HEADER: &str = mira_store::RAS_HEADER;

/// Streams a telemetry sweep straight to CSV without buffering samples.
/// Every row renders into one reused line buffer.
///
/// # Errors
///
/// Propagates writer errors.
///
/// # Panics
///
/// Panics if the span is empty or the step non-positive.
pub fn export_sweep<W: Write>(
    engine: &TelemetryEngine,
    from: SimTime,
    to: SimTime,
    step: Duration,
    mut w: W,
) -> Result<usize, Error> {
    assert!(from < to, "empty export span");
    assert!(step.as_seconds() > 0, "step must be positive");
    writeln!(w, "{TELEMETRY_HEADER}")?;
    let mut line = Vec::new();
    sweep_records(engine, from, to, step, |rec| {
        write_line(&mut w, &mut line, rec, TelemetryRecord::write_csv)
    })
}

/// Streams a telemetry sweep as newline-delimited JSON: one object per
/// coolant-monitor sample, with the same fields (and the same `{:.3}`
/// channel rounding) as the CSV columns of [`export_sweep`], so the two
/// formats carry identical information row for row.
///
/// # Errors
///
/// Propagates writer errors.
///
/// # Panics
///
/// Panics if the span is empty or the step non-positive.
pub fn export_sweep_ndjson<W: Write>(
    engine: &TelemetryEngine,
    from: SimTime,
    to: SimTime,
    step: Duration,
    mut w: W,
) -> Result<usize, Error> {
    assert!(from < to, "empty export span");
    assert!(step.as_seconds() > 0, "step must be positive");
    let mut line = Vec::new();
    sweep_records(engine, from, to, step, |rec| {
        write_line(&mut w, &mut line, rec, TelemetryRecord::write_ndjson)
    })
}

/// Renders `row` into the reused `line` buffer with a trailing newline
/// and writes it.
fn write_line<T, W: Write>(
    w: &mut W,
    line: &mut Vec<u8>,
    row: &T,
    render: impl Fn(&T, &mut Vec<u8>),
) -> Result<(), Error> {
    line.clear();
    render(row, line);
    line.push(b'\n');
    w.write_all(line)?;
    Ok(())
}

/// Walks the sweep grid `[from, to)` × all racks in deterministic
/// order, delivering each sample quantized to its archived record form
/// — the single row source behind every export and archive surface.
///
/// The grid is `from + k·step` for every `k` with the instant still
/// before `to`. It runs through the batched kernel
/// ([`TelemetryEngine::sweep_steps_into`]) in blocks of up to
/// [`SWEEP_BLOCK`] instants over one reused scratch, and rows come out
/// in grid order, racks in index order within an instant.
///
/// # Errors
///
/// Propagates the sink's errors.
///
/// # Panics
///
/// Panics if the span is empty or the step non-positive.
pub fn sweep_records<E>(
    engine: &TelemetryEngine,
    from: SimTime,
    to: SimTime,
    step: Duration,
    mut sink: impl FnMut(&TelemetryRecord) -> Result<(), E>,
) -> Result<usize, E> {
    assert!(from < to, "empty export span");
    assert!(step.as_seconds() > 0, "step must be positive");
    // ceil(span / step) instants, counted without ever stepping a
    // `SimTime` past `to`.
    let (span_s, step_s) = ((to - from).as_seconds(), step.as_seconds());
    let instants = convert::usize_from_i64(span_s / step_s + i64::from(span_s % step_s != 0));
    let mut scratch = engine.sweep_scratch();
    let mut rows = 0;
    let mut k = 0;
    while k < instants {
        let n = (instants - k).min(SWEEP_BLOCK);
        engine.sweep_steps_into(
            from + step * convert::i64_from_usize(k),
            step,
            n,
            &mut scratch,
        );
        let (block, staging) = scratch.block_parts();
        for j in 0..n {
            block.materialize_into(j, staging);
            for s in &staging.samples {
                sink(&TelemetryRecord::from_sample(s))?;
                rows += 1;
            }
        }
        k += n;
    }
    Ok(rows)
}

/// Writes RAS events as CSV.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_ras_csv<'a, W: Write>(
    mut w: W,
    events: impl IntoIterator<Item = &'a RasEvent>,
) -> Result<usize, Error> {
    writeln!(w, "{RAS_HEADER}")?;
    let mut line = Vec::new();
    let mut rows = 0;
    for e in events {
        write_line(&mut w, &mut line, e, mira_store::write_ras_csv)?;
        rows += 1;
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::{SimConfig, Simulation};
    use mira_facility::RackId;
    use mira_store::csvfile::{for_each_row, parse_ras_row, parse_telemetry_row};
    use mira_store::StoreError;
    use mira_timeseries::Date;

    fn sim() -> Simulation {
        Simulation::new(SimConfig::with_seed(55))
    }

    /// The CSV export of the one instant `t`.
    fn export_instant(s: &Simulation, t: SimTime) -> Vec<u8> {
        let mut buf = Vec::new();
        let step = Duration::from_minutes(5);
        let rows = export_sweep(s.telemetry(), t, t + step, step, &mut buf).unwrap();
        assert_eq!(rows, 48);
        buf
    }

    #[test]
    fn telemetry_round_trip() {
        let s = sim();
        let t = SimTime::from_date(Date::new(2015, 4, 1));
        let buf = export_instant(&s, t);

        let mut back = Vec::new();
        for_each_row(
            buf.as_slice(),
            TELEMETRY_HEADER,
            parse_telemetry_row,
            |rec| {
                back.push(rec.to_sample());
            },
        )
        .unwrap();
        assert_eq!(back.len(), 48);
        let snap = s.telemetry().snapshot(t);
        for (rack, b) in RackId::all().zip(&back) {
            let a = s.telemetry().observe(rack, &snap);
            assert_eq!(a.time, b.time);
            assert_eq!(a.rack, b.rack);
            // CSV keeps three decimals.
            assert!((a.inlet.value() - b.inlet.value()).abs() < 1e-3);
            assert!((a.power.value() - b.power.value()).abs() < 1e-3);
        }
    }

    #[test]
    fn csv_read_back_re_renders_identically() {
        // Parse → re-render is byte-identical: the quantization both
        // directions run through the same canonical text.
        let s = sim();
        let t = SimTime::from_date(Date::new(2015, 4, 1));
        let text = String::from_utf8(export_instant(&s, t)).unwrap();
        for (idx, line) in text.lines().enumerate().skip(1) {
            let rec = parse_telemetry_row(line, idx + 1).unwrap();
            assert_eq!(rec.csv_row(), line);
        }
    }

    #[test]
    fn export_sweep_streams_rows() {
        let s = sim();
        let from = SimTime::from_date(Date::new(2015, 4, 1));
        let mut buf = Vec::new();
        let rows = export_sweep(
            s.telemetry(),
            from,
            from + Duration::from_hours(2),
            Duration::from_minutes(30),
            &mut buf,
        )
        .unwrap();
        assert_eq!(rows, 4 * 48);
        let mut back = 0;
        for_each_row(
            buf.as_slice(),
            TELEMETRY_HEADER,
            parse_telemetry_row,
            |_| {
                back += 1;
            },
        )
        .unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn ndjson_export_mirrors_csv_row_for_row() {
        let s = sim();
        let from = SimTime::from_date(Date::new(2015, 4, 1));
        let to = from + Duration::from_hours(1);
        let step = Duration::from_minutes(30);

        let mut csv = Vec::new();
        let csv_rows = export_sweep(s.telemetry(), from, to, step, &mut csv).unwrap();
        let mut nd = Vec::new();
        let nd_rows = export_sweep_ndjson(s.telemetry(), from, to, step, &mut nd).unwrap();
        assert_eq!(csv_rows, nd_rows);

        let csv = String::from_utf8(csv).unwrap();
        let nd = String::from_utf8(nd).unwrap();
        // NDJSON has no header line; every data row carries the same
        // rounded values as its CSV counterpart.
        assert_eq!(nd.lines().count(), csv.lines().count() - 1);
        for (csv_line, nd_line) in csv.lines().skip(1).zip(nd.lines()) {
            assert!(
                nd_line.starts_with('{') && nd_line.ends_with('}'),
                "{nd_line}"
            );
            let mut fields = csv_line.splitn(8, ',');
            let epoch = fields.next().unwrap();
            assert!(nd_line.contains(&format!("\"time\":{epoch},")), "{nd_line}");
            // The rack id itself contains a comma ("(0, A)"), so grab
            // the numeric tail for the channel columns instead.
            let power = csv_line.rsplit(',').next().unwrap();
            assert!(
                nd_line.contains(&format!("\"power_kw\":{power}}}")),
                "{nd_line}"
            );
        }
    }

    #[test]
    fn ras_round_trip() {
        let s = sim();
        let counted: Vec<RasEvent> = s.ras_log().counted().to_vec();
        let mut buf = Vec::new();
        let rows = write_ras_csv(&mut buf, counted.iter()).unwrap();
        assert_eq!(rows, counted.len());
        let mut back = Vec::new();
        for_each_row(buf.as_slice(), RAS_HEADER, parse_ras_row, |e| back.push(e)).unwrap();
        assert_eq!(back, counted);
    }

    #[test]
    fn malformed_rows_are_rejected_with_line_numbers() {
        let bad = format!("{TELEMETRY_HEADER}\n123,(0, zz),1,2,3,4,5,6\n");
        let err = Error::from(
            for_each_row(
                bad.as_bytes(),
                TELEMETRY_HEADER,
                parse_telemetry_row,
                |_| {},
            )
            .unwrap_err(),
        );
        match err {
            Error::Store(StoreError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("wrong error: {other}"),
        }
        let bad_header = "nope\n";
        assert!(for_each_row(
            bad_header.as_bytes(),
            TELEMETRY_HEADER,
            parse_telemetry_row,
            |_| {}
        )
        .is_err());
        let bad_kind = format!("{RAS_HEADER}\n123,(0, 1),NOPE,fatal\n");
        assert!(for_each_row(bad_kind.as_bytes(), RAS_HEADER, parse_ras_row, |_| {}).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let e = Error::Store(StoreError::Parse {
            line: 7,
            message: "bad number".into(),
        });
        assert!(e.to_string().contains("line 7"));
    }
}
