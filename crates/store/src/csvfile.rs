//! The CSV backend: the pre-existing text format behind the same
//! [`Archive`] trait as the columnar store.
//!
//! Telemetry lives at the archive path itself (header plus one
//! `{:.3}`-rendered row per sample); RAS events live in a `.ras`
//! sidecar next to it. Text is the storage format, so the
//! "compression" ratio of this backend is 1.0 by definition — it *is*
//! the baseline the columnar backend is measured against.

use std::ffi::OsString;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use mira_facility::RackId;
use mira_ras::{FailureKind, RasEvent, Severity};
use mira_timeseries::SimTime;

use crate::error::StoreError;
use crate::record::{milli_from_str, write_ras_csv, TelemetryRecord, TELEMETRY_HEADER};
use crate::{Archive, ArchiveStat, Projection, ScanStats, RAS_HEADER};

/// The CSV-file archive backend (telemetry file + `.ras` sidecar).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvArchive {
    path: PathBuf,
}

impl CsvArchive {
    /// The telemetry CSV path this archive is backed by.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The RAS sidecar path (`<path>.ras`).
    #[must_use]
    pub fn ras_path(&self) -> PathBuf {
        let mut s: OsString = self.path.as_os_str().to_os_string();
        s.push(".ras");
        PathBuf::from(s)
    }

    /// Appends one line per row to the CSV file at `path`, writing the
    /// header first when the file is new or empty. Every row renders
    /// into one reused line buffer.
    fn append_rows<T>(
        path: &Path,
        header: &str,
        rows: &[T],
        render: impl Fn(&T, &mut Vec<u8>),
    ) -> Result<(), StoreError> {
        let fresh = std::fs::metadata(path).map_or(true, |m| m.len() == 0);
        let file = File::options().append(true).create(true).open(path)?;
        let mut w = BufWriter::new(file);
        if fresh {
            writeln!(w, "{header}")?;
        }
        let mut line = Vec::new();
        for row in rows {
            line.clear();
            render(row, &mut line);
            line.push(b'\n');
            w.write_all(&line)?;
        }
        w.flush()?;
        Ok(())
    }
}

/// Splits `line` at commas into exactly `N` fields; `None` when it
/// holds any other number.
fn split_fields<const N: usize>(line: &str) -> Option<[&str; N]> {
    let mut fields = [""; N];
    let mut parts = line.split(',');
    for slot in &mut fields {
        *slot = parts.next()?;
    }
    parts.next().is_none().then_some(fields)
}

fn parse_err(line: usize, message: &str) -> StoreError {
    StoreError::Parse {
        line,
        message: message.to_string(),
    }
}

fn parse_time(field: &str, lineno: usize) -> Result<SimTime, StoreError> {
    field
        .trim()
        .parse()
        .map(SimTime::from_epoch_seconds)
        .map_err(|_| parse_err(lineno, "bad timestamp"))
}

/// Parses the rack id that follows a row's timestamp field. Rack ids
/// contain a comma ("(1, 8)"), so the id spans comma fields 1 and 2;
/// it is parsed from that stretch of `line` itself.
fn parse_rack(
    line: &str,
    [time, row, column]: [&str; 3],
    lineno: usize,
) -> Result<RackId, StoreError> {
    let start = time.len() + 1;
    let end = start + row.len() + 1 + column.len();
    RackId::parse(line.get(start..end).unwrap_or_default())
        .map_err(|e| parse_err(lineno, &format!("bad rack: {e}")))
}

/// Parses one telemetry CSV row (no header) into a record. Channel
/// fields convert text-to-integer when canonically formatted, so a
/// parse → re-render round trip is byte-identical. Nothing is
/// allocated unless the row is rejected.
///
/// # Errors
///
/// [`StoreError::Parse`] carrying `lineno` on any malformed field.
pub fn parse_telemetry_row(line: &str, lineno: usize) -> Result<TelemetryRecord, StoreError> {
    let [time, row, column, values @ ..] =
        split_fields::<9>(line).ok_or_else(|| parse_err(lineno, "expected 9 comma fields"))?;
    let time_s = parse_time(time, lineno)?;
    let rack = parse_rack(line, [time, row, column], lineno)?;
    let mut milli = [0i64; 6];
    for ((m, raw), field) in milli.iter_mut().zip(values).zip(3..) {
        *m = milli_from_str(raw)
            .ok_or_else(|| parse_err(lineno, &format!("bad number in field {field}")))?;
    }
    Ok(TelemetryRecord {
        time: time_s,
        rack,
        milli,
    })
}

/// Parses one RAS CSV row (no header) into an event.
///
/// # Errors
///
/// [`StoreError::Parse`] carrying `lineno` on any malformed field.
pub fn parse_ras_row(line: &str, lineno: usize) -> Result<RasEvent, StoreError> {
    let [time, row, column, kind, severity] =
        split_fields::<5>(line).ok_or_else(|| parse_err(lineno, "expected 5 comma fields"))?;
    let time_s = parse_time(time, lineno)?;
    let rack = parse_rack(line, [time, row, column], lineno)?;
    let kind_tag = kind.trim();
    let kind = FailureKind::ALL
        .iter()
        .copied()
        .find(|k| k.tag() == kind_tag)
        .ok_or_else(|| parse_err(lineno, &format!("unknown failure kind {kind_tag}")))?;
    let severity_tag = severity.trim();
    let severity = [Severity::Warn, Severity::Fatal]
        .into_iter()
        .find(|s| s.tag() == severity_tag)
        .ok_or_else(|| parse_err(lineno, &format!("unknown severity {severity_tag}")))?;
    Ok(RasEvent {
        time: time_s,
        rack,
        kind,
        severity,
    })
}

/// Walks CSV text line by line: line 1 must be `header`, blank lines
/// are skipped, and every other line goes to `parse` with its 1-based
/// line number, the result to `sink`. Lines are read into one reused
/// buffer; a CRLF line end reads like LF.
///
/// # Errors
///
/// [`StoreError::Parse`] on a wrong header or whatever `parse`
/// rejects; [`StoreError::Io`] when the reader fails (including text
/// that is not UTF-8).
pub fn for_each_row<R: BufRead, T>(
    mut reader: R,
    header: &str,
    parse: impl Fn(&str, usize) -> Result<T, StoreError>,
    mut sink: impl FnMut(T),
) -> Result<(), StoreError> {
    let mut buf = String::new();
    let mut lineno = 0;
    loop {
        buf.clear();
        if reader.read_line(&mut buf)? == 0 {
            return Ok(());
        }
        lineno += 1;
        let line = buf
            .strip_suffix('\n')
            .map_or(buf.as_str(), |l| l.strip_suffix('\r').unwrap_or(l));
        if lineno == 1 {
            if line.trim() != header {
                return Err(parse_err(
                    lineno,
                    &format!("unexpected header (want {header})"),
                ));
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        sink(parse(line, lineno)?);
    }
}

/// [`for_each_row`] over the file at `path`, returning its size in
/// bytes; a missing file reads as empty.
fn for_each_file_row<T>(
    path: &Path,
    header: &str,
    parse: impl Fn(&str, usize) -> Result<T, StoreError>,
    sink: impl FnMut(T),
) -> Result<u64, StoreError> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e.into()),
    };
    let bytes = file.metadata()?.len();
    for_each_row(BufReader::new(file), header, parse, sink)?;
    Ok(bytes)
}

impl Archive for CsvArchive {
    fn open(path: &Path) -> Result<Self, StoreError> {
        Ok(CsvArchive {
            path: path.to_path_buf(),
        })
    }

    fn append_telemetry(&mut self, rows: &[TelemetryRecord]) -> Result<(), StoreError> {
        CsvArchive::append_rows(
            &self.path,
            TELEMETRY_HEADER,
            rows,
            TelemetryRecord::write_csv,
        )
    }

    fn append_ras(&mut self, events: &[RasEvent]) -> Result<(), StoreError> {
        CsvArchive::append_rows(&self.ras_path(), RAS_HEADER, events, write_ras_csv)
    }

    fn scan_span(
        &mut self,
        from: SimTime,
        to: SimTime,
        _projection: Projection,
        sink: &mut dyn FnMut(&TelemetryRecord),
    ) -> Result<ScanStats, StoreError> {
        let (from_s, to_s) = (from.epoch_seconds(), to.epoch_seconds());
        let mut stats = ScanStats::default();
        let bytes = for_each_file_row(&self.path, TELEMETRY_HEADER, parse_telemetry_row, |rec| {
            let t = rec.time.epoch_seconds();
            if t >= from_s && t < to_s {
                stats.rows_scanned += 1;
                sink(&rec);
            }
        })?;
        if bytes > 0 {
            // Text has no block structure: one "group" spanning the
            // file, every column decoded, every byte read.
            stats.groups_total = 1;
            stats.groups_scanned = 1;
            stats.blocks_decoded = 8;
            stats.bytes_read = bytes;
        }
        Ok(stats)
    }

    fn ras_events(&mut self) -> Result<Vec<RasEvent>, StoreError> {
        let mut out = Vec::new();
        for_each_file_row(&self.ras_path(), RAS_HEADER, parse_ras_row, |e| out.push(e))?;
        Ok(out)
    }

    fn stat(&mut self) -> Result<ArchiveStat, StoreError> {
        let mut rows = 0u64;
        let mut time_range: Option<(i64, i64)> = None;
        let mut zones: Option<[(i64, i64); 6]> = None;
        let tele_bytes =
            for_each_file_row(&self.path, TELEMETRY_HEADER, parse_telemetry_row, |rec| {
                rows += 1;
                let t = rec.time.epoch_seconds();
                time_range = Some(match time_range {
                    None => (t, t),
                    Some((lo, hi)) => (lo.min(t), hi.max(t)),
                });
                zones = Some(match zones {
                    None => {
                        let mut z = [(0i64, 0i64); 6];
                        for (zi, m) in z.iter_mut().zip(rec.milli.iter()) {
                            *zi = (*m, *m);
                        }
                        z
                    }
                    Some(mut z) => {
                        for (zi, m) in z.iter_mut().zip(rec.milli.iter()) {
                            zi.0 = zi.0.min(*m);
                            zi.1 = zi.1.max(*m);
                        }
                        z
                    }
                });
            })?;
        let mut ras_events = 0u64;
        let ras_bytes = for_each_file_row(&self.ras_path(), RAS_HEADER, parse_ras_row, |_| {
            ras_events += 1;
        })?;
        let file_bytes = tele_bytes + ras_bytes;
        Ok(ArchiveStat {
            rows,
            ras_events,
            groups: u64::from(rows > 0),
            file_bytes,
            // Text *is* CSV, so the baseline equals the footprint.
            csv_bytes: file_bytes,
            time_range: time_range.map(|(lo, hi)| {
                (
                    SimTime::from_epoch_seconds(lo),
                    SimTime::from_epoch_seconds(hi),
                )
            }),
            zones,
        })
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        Ok(())
    }
}
