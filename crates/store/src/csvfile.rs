//! The CSV backend: the pre-existing text format behind the same
//! [`Archive`] trait as the columnar store.
//!
//! Telemetry lives at the archive path itself (header plus one
//! `{:.3}`-rendered row per sample); RAS events live in a `.ras`
//! sidecar next to it. Text is the storage format, so the
//! "compression" ratio of this backend is 1.0 by definition — it *is*
//! the baseline the columnar backend is measured against.
//!
//! Reading is one left-to-right scan per row: [`for_each_row`] reads
//! each line into one reused buffer of at most [`MAX_LINE_BYTES`], and
//! the row parsers walk its bytes once, converting the timestamp, the
//! rack id ([`RackId::parse_prefix`], the one rack grammar) and each
//! milli-unit field as they reach it. A field that is not a canonical
//! `[-]digits[.ddd]` number falls back to [`milli_from_str`]'s `f64`
//! parse. Both row kinds share the time-and-rack prefix. A rejected
//! row whose comma count is wrong reports that first, whichever field
//! the scan stopped at, so every row names the same fault it did when
//! rows were split at commas before parsing.

use std::ffi::OsString;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use mira_facility::{ParseRackIdError, RackId};
use mira_ras::{FailureKind, RasEvent, Severity};
use mira_timeseries::SimTime;

use crate::error::StoreError;
use crate::record::{
    digits_prefix, milli_from_str, milli_prefix, write_ras_csv, TelemetryRecord, TELEMETRY_HEADER,
};
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

/// The longest CSV line [`for_each_row`] reads, its `\n` or `\r\n`
/// excluded. An exported row is under 100 bytes; a longer line is
/// rejected before it is buffered whole, so no input, a file with no
/// newline included, can grow the reader's memory past this.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

fn parse_err(line: usize, message: &str) -> StoreError {
    StoreError::Parse {
        line,
        message: message.to_string(),
    }
}

/// A left-to-right cursor over one CSV row's text. Each method reads
/// one piece of the row grammar at the cursor and moves past it.
struct RowScan<'a> {
    line: &'a str,
    pos: usize,
    lineno: usize,
}

impl<'a> RowScan<'a> {
    fn new(line: &'a str, lineno: usize) -> Self {
        RowScan {
            line,
            pos: 0,
            lineno,
        }
    }

    fn err(&self, message: &str) -> StoreError {
        parse_err(self.lineno, message)
    }

    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.pos).copied()
    }

    /// The text from the cursor on. The cursor only ever stops after
    /// an ASCII byte or at the start, so this slice cannot fail.
    fn rest(&self) -> &'a str {
        self.line.get(self.pos..).unwrap_or_default()
    }

    /// Skips whitespace as `str::trim` defines it: printable ASCII
    /// decides at once, anything else goes through `trim_start`.
    fn skip_ws(&mut self) {
        if self.peek().is_some_and(|b| b.is_ascii_graphic()) {
            return;
        }
        self.pos = self.line.len() - self.rest().trim_start().len();
    }

    /// Moves past `b` when it is next; reports whether it was.
    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    /// The field from the cursor to the next comma or the line end;
    /// the cursor stops on that comma.
    fn field(&mut self) -> &'a str {
        let rest = self.rest();
        let len = rest.bytes().position(|b| b == b',').unwrap_or(rest.len());
        self.pos += len;
        rest.get(..len).unwrap_or_default()
    }

    /// `time,rack,` — the prefix both row kinds share. The time is a
    /// whitespace-padded `[+-]digits` epoch second that fits an `i64`.
    fn time_and_rack(&mut self) -> Result<(SimTime, RackId), StoreError> {
        self.skip_ws();
        let neg = self.peek() == Some(b'-');
        if neg || self.peek() == Some(b'+') {
            self.pos += 1;
        }
        let bytes = self.line.as_bytes();
        let secs = digits_prefix(bytes, self.pos)
            .filter(|&(_, end)| end > self.pos)
            .and_then(|(magnitude, end)| {
                self.pos = end;
                if neg {
                    0i64.checked_sub_unsigned(magnitude)
                } else {
                    i64::try_from(magnitude).ok()
                }
            })
            .ok_or_else(|| self.err("bad timestamp"))?;
        self.skip_ws();
        if !self.eat(b',') {
            return Err(self.err("bad timestamp"));
        }
        let lineno = self.lineno;
        let bad_rack = |e: ParseRackIdError| parse_err(lineno, &format!("bad rack: {e}"));
        let (rack, rest) = RackId::parse_prefix(self.rest()).map_err(bad_rack)?;
        self.pos = self.line.len() - rest.len();
        self.skip_ws();
        if !self.eat(b',') {
            return Err(bad_rack(ParseRackIdError));
        }
        Ok((SimTime::from_epoch_seconds(secs), rack))
    }

    /// One milli-unit field, comma field number `field`, ending at a
    /// comma or the line end. A canonical number converts in place;
    /// anything else goes through [`milli_from_str`] whole.
    fn milli(&mut self, field: usize) -> Result<i64, StoreError> {
        let bytes = self.rest().as_bytes();
        if let Some((m, len)) = milli_prefix(bytes) {
            if matches!(bytes.get(len), None | Some(b',')) {
                self.pos += len;
                return Ok(m);
            }
        }
        milli_from_str(self.field())
            .ok_or_else(|| self.err(&format!("bad number in field {field}")))
    }

    /// Moves past the comma that ends a field.
    fn comma(&mut self) -> Result<(), StoreError> {
        if self.eat(b',') {
            Ok(())
        } else {
            Err(self.err("missing field"))
        }
    }

    /// Requires the line to end at the cursor.
    fn end(&self) -> Result<(), StoreError> {
        if self.pos == self.line.len() {
            Ok(())
        } else {
            Err(self.err("trailing field"))
        }
    }
}

/// `scanned`, except that a rejected row without exactly `fields`
/// comma fields reports that instead: the count is what a reader fixes
/// first, whichever field the scan stopped at.
fn count_fields_first<T>(
    scanned: Result<T, StoreError>,
    line: &str,
    lineno: usize,
    fields: usize,
) -> Result<T, StoreError> {
    scanned.map_err(|e| {
        if line.bytes().filter(|&b| b == b',').count() + 1 == fields {
            e
        } else {
            parse_err(lineno, &format!("expected {fields} comma fields"))
        }
    })
}

/// Parses one telemetry CSV row (no header) into a record, in one
/// scan over its bytes. Channel fields convert text-to-integer when
/// canonically formatted, so a parse → re-render round trip is
/// byte-identical. Nothing is allocated unless the row is rejected.
///
/// # Errors
///
/// [`StoreError::Parse`] carrying `lineno` on any malformed field.
pub fn parse_telemetry_row(line: &str, lineno: usize) -> Result<TelemetryRecord, StoreError> {
    let mut scan = RowScan::new(line, lineno);
    let mut row = || {
        let (time, rack) = scan.time_and_rack()?;
        let mut milli = [0i64; 6];
        for (i, (m, field)) in milli.iter_mut().zip(3..).enumerate() {
            if i > 0 {
                scan.comma()?;
            }
            *m = scan.milli(field)?;
        }
        scan.end()?;
        Ok(TelemetryRecord { time, rack, milli })
    };
    count_fields_first(row(), line, lineno, 9)
}

/// Parses one RAS CSV row (no header) into an event, with the same
/// time-and-rack prefix scan as [`parse_telemetry_row`].
///
/// # Errors
///
/// [`StoreError::Parse`] carrying `lineno` on any malformed field.
pub fn parse_ras_row(line: &str, lineno: usize) -> Result<RasEvent, StoreError> {
    let mut scan = RowScan::new(line, lineno);
    let mut row = || {
        let (time, rack) = scan.time_and_rack()?;
        let kind_tag = scan.field().trim();
        let kind = FailureKind::ALL
            .iter()
            .copied()
            .find(|k| k.tag() == kind_tag)
            .ok_or_else(|| scan.err(&format!("unknown failure kind {kind_tag}")))?;
        scan.comma()?;
        let severity_tag = scan.rest().trim();
        let severity = [Severity::Warn, Severity::Fatal]
            .into_iter()
            .find(|s| s.tag() == severity_tag)
            .ok_or_else(|| scan.err(&format!("unknown severity {severity_tag}")))?;
        Ok(RasEvent {
            time,
            rack,
            kind,
            severity,
        })
    };
    count_fields_first(row(), line, lineno, 5)
}

/// Walks CSV text line by line: line 1 must be `header`, blank lines
/// are skipped, and every other line goes to `parse` with its 1-based
/// line number, the result to `sink`. Lines are read into one reused
/// buffer that never holds more than [`MAX_LINE_BYTES`] plus a line
/// end; a CRLF line end reads like LF.
///
/// # Errors
///
/// [`StoreError::Parse`] on a wrong header, a line longer than
/// [`MAX_LINE_BYTES`], or whatever `parse` rejects; [`StoreError::Io`]
/// when the reader fails (including text that is not UTF-8).
pub fn for_each_row<R: BufRead, T>(
    mut reader: R,
    header: &str,
    parse: impl Fn(&str, usize) -> Result<T, StoreError>,
    mut sink: impl FnMut(T),
) -> Result<(), StoreError> {
    // One byte past the cap plus `\r\n`: enough to tell an over-long
    // line from one at the cap.
    let limit = u64::try_from(MAX_LINE_BYTES + 2).unwrap_or(u64::MAX);
    let mut buf = Vec::new();
    let mut lineno = 0;
    loop {
        buf.clear();
        if (&mut reader).take(limit).read_until(b'\n', &mut buf)? == 0 {
            return Ok(());
        }
        lineno += 1;
        let bytes = buf
            .strip_suffix(b"\n")
            .map_or(buf.as_slice(), |l| l.strip_suffix(b"\r").unwrap_or(l));
        if bytes.len() > MAX_LINE_BYTES {
            return Err(parse_err(
                lineno,
                &format!("line longer than {MAX_LINE_BYTES} bytes"),
            ));
        }
        let line = std::str::from_utf8(bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
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
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
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
