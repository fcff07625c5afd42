//! The `mira-ops archive` subcommands (`pack`, `unpack`, `stat`,
//! `scan`) and the shared row emitter every telemetry export surface
//! renders through.
//!
//! Before this module each row-oriented command hand-rolled its own
//! format branch; now CSV-with-header vs NDJSON is decided in exactly
//! one place ([`RowEmitter`]), so `export`, `archive scan`, and
//! `archive unpack` cannot drift apart byte-wise.

use std::io::{self, Write};
use std::path::Path;

use mira_core::archive::write_ras_csv;
use mira_store::{
    open_archive, Archive, Channel, ColumnarArchive, CsvArchive, Projection, ScanStats,
    TelemetryRecord, TELEMETRY_HEADER,
};
use mira_timeseries::SimTime;

use crate::args::{err, parse_datetime, ArgMap, CliError, OutputFormat};
use crate::commands::{create_err, io_err};

/// Usage text for the `archive` command family.
pub const ARCHIVE_USAGE: &str = "\
USAGE: mira-ops archive <action> [flags]

ACTIONS:
  pack    --in telemetry.csv --out archive.mstore [--group-rows N]
                                   pack a CSV archive (and its .ras
                                   sidecar) into the columnar store
  unpack  --in archive.mstore --out telemetry.csv
                                   expand a columnar store back to CSV
                                   (RAS events land in <out>.ras)
  stat    --in archive.mstore      row/group counts, zone-map ranges,
                                   and compression ratio vs CSV
  scan    --in archive.mstore --from <t> --to <t> [--channels a,b]
          [--format json|text] [--out file] [--stats]
                                   dump a time span; only row groups
                                   intersecting the span are read and
                                   only projected channels decoded
";

/// Streams telemetry rows in one [`OutputFormat`]: text is CSV with
/// the shared header, json is NDJSON with no header. The single
/// rendering path behind `export`, `archive scan`, and `archive
/// unpack`.
#[derive(Debug)]
pub struct RowEmitter<W: Write> {
    w: W,
    format: OutputFormat,
    rows: usize,
    header_written: bool,
    /// One rendered row, reused for every row.
    line: Vec<u8>,
}

impl<W: Write> RowEmitter<W> {
    /// A fresh emitter; nothing is written until the first row (or
    /// [`RowEmitter::finish`], which still emits the CSV header for
    /// empty text output).
    pub fn new(w: W, format: OutputFormat) -> Self {
        RowEmitter {
            w,
            format,
            rows: 0,
            header_written: false,
            line: Vec::new(),
        }
    }

    fn header_if_needed(&mut self) -> io::Result<()> {
        if self.format == OutputFormat::Text && !self.header_written {
            self.header_written = true;
            writeln!(self.w, "{TELEMETRY_HEADER}")?;
        }
        Ok(())
    }

    /// Writes one row in the chosen format.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn row(&mut self, rec: &TelemetryRecord) -> io::Result<()> {
        self.header_if_needed()?;
        self.line.clear();
        match self.format {
            OutputFormat::Text => rec.write_csv(&mut self.line),
            OutputFormat::Json => rec.write_ndjson(&mut self.line),
        }
        self.line.push(b'\n');
        self.w.write_all(&self.line)?;
        self.rows += 1;
        Ok(())
    }

    /// Flushes and returns the writer along with the row count.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn finish(mut self) -> io::Result<(W, usize)> {
        self.header_if_needed()?;
        self.w.flush()?;
        Ok((self.w, self.rows))
    }
}

/// Scans `[from, to)` from an archive into an emitter, surfacing
/// writer errors that the `FnMut` sink signature cannot return.
///
/// # Errors
///
/// Store errors from the scan, I/O errors from the writer.
pub fn scan_into_emitter<W: Write>(
    ar: &mut dyn Archive,
    from: SimTime,
    to: SimTime,
    projection: Projection,
    emitter: &mut RowEmitter<W>,
) -> Result<ScanStats, CliError> {
    let mut write_err: Option<io::Error> = None;
    let stats = ar.scan_span(from, to, projection, &mut |rec| {
        if write_err.is_none() {
            if let Err(e) = emitter.row(rec) {
                write_err = Some(e);
            }
        }
    })?;
    match write_err {
        Some(e) => Err(io_err(e)),
        None => Ok(stats),
    }
}

/// The full archivable span (every representable timestamp).
fn full_span() -> (SimTime, SimTime) {
    (
        SimTime::from_epoch_seconds(i64::MIN),
        SimTime::from_epoch_seconds(i64::MAX),
    )
}

/// Parses `--channels a,b,c` into a projection (default: all).
fn projection_flag(args: &ArgMap) -> Result<Projection, CliError> {
    let Some(list) = args.get("channels") else {
        return Ok(Projection::all());
    };
    let mut picked = Vec::new();
    for tag in list.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        let ch = Channel::ALL
            .iter()
            .copied()
            .find(|c| c.tag() == tag)
            .ok_or_else(|| err(format!("--channels: unknown channel {tag}")))?;
        picked.push(ch);
    }
    Ok(Projection::only(&picked))
}

/// Dispatches `mira-ops archive <action>`.
///
/// # Errors
///
/// Usage errors for unknown actions or missing flags, store errors
/// (exit codes 4/5/7) from the backends.
pub fn archive_cmd(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    match args.positional().first().map(String::as_str) {
        Some("pack") => pack(args, out),
        Some("unpack") => unpack(args, out),
        Some("stat") => stat(args, out),
        Some("scan") => scan(args, out),
        Some(other) => Err(err(format!(
            "unknown archive action: {other}\n\n{ARCHIVE_USAGE}"
        ))),
        None => Err(err(format!("archive needs an action\n\n{ARCHIVE_USAGE}"))),
    }
}

/// `mira-ops archive pack --in telemetry.csv --out archive.mstore`
fn pack(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.require("in")?;
    let output = args.require("out")?;
    let group_rows: usize = args.get_parsed("group-rows", 0usize)?;

    let mut csv = CsvArchive::open(Path::new(input))?;
    let mut store = ColumnarArchive::create(Path::new(output))?;
    if group_rows > 0 {
        store = store.with_group_rows(group_rows);
    }
    let (from, to) = full_span();
    let mut batch: Vec<TelemetryRecord> = Vec::with_capacity(1024);
    let mut copy_err: Option<CliError> = None;
    {
        let store = &mut store;
        let batch = &mut batch;
        let copy_err = &mut copy_err;
        csv.scan_span(from, to, Projection::all(), &mut |rec| {
            if copy_err.is_some() {
                return;
            }
            batch.push(*rec);
            if batch.len() >= 1024 {
                if let Err(e) = store.append_telemetry(batch) {
                    *copy_err = Some(e.into());
                }
                batch.clear();
            }
        })?;
    }
    if let Some(e) = copy_err {
        return Err(e);
    }
    store.append_telemetry(&batch)?;
    let events = csv.ras_events()?;
    store.append_ras(&events)?;
    store.flush()?;
    let st = store.stat()?;
    writeln!(
        out,
        "packed {} rows + {} RAS events into {} groups ({} bytes, {:.2}x vs csv)",
        st.rows,
        st.ras_events,
        st.groups,
        st.file_bytes,
        st.compression_ratio()
    )
    .map_err(io_err)?;
    Ok(())
}

/// `mira-ops archive unpack --in archive.mstore --out telemetry.csv`
fn unpack(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.require("in")?;
    let output = args.require("out")?;

    let mut ar = open_archive(Path::new(input))?;
    let file = std::fs::File::create(output).map_err(|e| create_err(output, e))?;
    let mut emitter = RowEmitter::new(io::BufWriter::new(file), OutputFormat::Text);
    let (from, to) = full_span();
    scan_into_emitter(ar.as_mut(), from, to, Projection::all(), &mut emitter)?;
    let (_, rows) = emitter.finish().map_err(io_err)?;

    let events = ar.ras_events()?;
    let ras_path = format!("{output}.ras");
    let ras_file = std::fs::File::create(&ras_path).map_err(|e| create_err(&ras_path, e))?;
    write_ras_csv(io::BufWriter::new(ras_file), events.iter())?;
    writeln!(
        out,
        "unpacked {rows} rows to {output}, {} RAS events to {ras_path}",
        events.len()
    )
    .map_err(io_err)?;
    Ok(())
}

/// `mira-ops archive stat --in archive.mstore`
fn stat(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.require("in")?;
    let mut ar = open_archive(Path::new(input))?;
    let st = ar.stat()?;
    writeln!(out, "archive {input}:").map_err(io_err)?;
    writeln!(out, "  rows       : {} in {} groups", st.rows, st.groups).map_err(io_err)?;
    writeln!(out, "  ras events : {}", st.ras_events).map_err(io_err)?;
    match st.time_range {
        Some((lo, hi)) => writeln!(out, "  span       : {lo} .. {hi}").map_err(io_err)?,
        None => writeln!(out, "  span       : (empty)").map_err(io_err)?,
    }
    writeln!(
        out,
        "  size       : {} bytes ({} csv-equivalent, {:.2}x)",
        st.file_bytes,
        st.csv_bytes,
        st.compression_ratio()
    )
    .map_err(io_err)?;
    if let Some(zones) = st.zones {
        writeln!(out, "  zone maps  :").map_err(io_err)?;
        for (ch, (lo, hi)) in Channel::VALUES.iter().zip(zones.iter()) {
            writeln!(
                out,
                "    {:<10} : {} .. {}",
                ch.tag(),
                mira_store::format_milli(*lo),
                mira_store::format_milli(*hi)
            )
            .map_err(io_err)?;
        }
    }
    Ok(())
}

/// `mira-ops archive scan --in archive.mstore --from t --to t ...`
fn scan(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.require("in")?;
    let from = parse_datetime(args.require("from")?)?;
    let to = parse_datetime(args.require("to")?)?;
    if from >= to {
        return Err(err("--from must precede --to"));
    }
    let format = OutputFormat::from_flag(args, "format")?.unwrap_or(OutputFormat::Text);
    let projection = projection_flag(args)?;

    let mut ar = open_archive(Path::new(input))?;
    let sink: Box<dyn Write> = match args.get("out") {
        Some(path) => Box::new(io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| create_err(path, e))?,
        )),
        None => Box::new(&mut *out),
    };
    let mut emitter = RowEmitter::new(sink, format);
    let stats = scan_into_emitter(ar.as_mut(), from, to, projection, &mut emitter)?;
    let (sink, rows) = emitter.finish().map_err(io_err)?;
    drop(sink);
    if args.get("out").is_some() {
        writeln!(out, "wrote {rows} telemetry rows").map_err(io_err)?;
    }
    if args.switch("stats") {
        writeln!(
            out,
            "scan: {} rows from {}/{} groups, {} blocks decoded, {} bytes read",
            stats.rows_scanned,
            stats.groups_scanned,
            stats.groups_total,
            stats.blocks_decoded,
            stats.bytes_read
        )
        .map_err(io_err)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::run;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mira-archive-cmd-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn run_cmd(command: &str, args: &[&str]) -> Result<String, CliError> {
        let map = ArgMap::parse(args.iter().map(ToString::to_string))?;
        let mut out = Vec::new();
        run(command, &map, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8"))
    }

    fn export_csv(dir: &Path) -> String {
        let csv = dir.join("tele.csv").display().to_string();
        run_cmd(
            "export",
            &[
                "--from",
                "2015-03-01",
                "--to",
                "2015-03-01 04:00",
                "--step-min",
                "60",
                "--out",
                &csv,
            ],
        )
        .unwrap();
        csv
    }

    #[test]
    fn pack_stat_scan_unpack_round_trip() {
        let dir = scratch("roundtrip");
        let csv = export_csv(&dir);
        let store = dir.join("a.mstore").display().to_string();

        let packed = run_cmd(
            "archive",
            &["pack", "--in", &csv, "--out", &store, "--group-rows", "96"],
        )
        .unwrap();
        assert!(packed.contains("packed 192 rows"), "{packed}");

        let stat = run_cmd("archive", &["stat", "--in", &store]).unwrap();
        assert!(stat.contains("rows       : 192 in 2 groups"), "{stat}");
        assert!(stat.contains("zone maps"), "{stat}");

        // Scan a sub-span: only one of the two groups intersects.
        let scanned = run_cmd(
            "archive",
            &[
                "scan",
                "--in",
                &store,
                "--from",
                "2015-03-01",
                "--to",
                "2015-03-01 02:00",
                "--stats",
            ],
        )
        .unwrap();
        assert!(
            scanned.contains("scan: 96 rows from 1/2 groups"),
            "{scanned}"
        );

        let back = dir.join("back.csv").display().to_string();
        run_cmd("archive", &["unpack", "--in", &store, "--out", &back]).unwrap();
        assert_eq!(
            std::fs::read_to_string(&csv).unwrap(),
            std::fs::read_to_string(&back).unwrap(),
            "unpack must be byte-identical to the packed CSV"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_from_store_matches_simulation_bytes() {
        let dir = scratch("export-parity");
        let csv = export_csv(&dir);
        let store = dir.join("a.mstore").display().to_string();
        run_cmd("archive", &["pack", "--in", &csv, "--out", &store]).unwrap();

        let span = ["--from", "2015-03-01 01:00", "--to", "2015-03-01 03:00"];
        for format in ["text", "json"] {
            let mut sim_args = vec!["--step-min", "60", "--format", format];
            sim_args.extend_from_slice(&span);
            let simulated = run_cmd("export", &sim_args).unwrap();
            let mut store_args = vec!["--store", &store, "--format", format];
            store_args.extend_from_slice(&span);
            let stored = run_cmd("export", &store_args).unwrap();
            assert_eq!(simulated, stored, "{format} export must be byte-identical");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_action_and_channel_are_usage_errors() {
        let e = run_cmd("archive", &["frob"]).unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert!(e.to_string().contains("unknown archive action"));

        let map = ArgMap::parse(["--channels", "nope"].iter().map(ToString::to_string)).unwrap();
        let e = projection_flag(&map).unwrap_err();
        assert_eq!(e.exit_code(), 2);
    }

    #[test]
    fn corrupt_store_maps_to_exit_code_7() {
        let dir = scratch("corrupt");
        let bad = dir.join("bad.mstore");
        std::fs::write(&bad, b"MSTORE1\nnot really a store").unwrap();
        let e = run_cmd("archive", &["stat", "--in", &bad.display().to_string()]).unwrap_err();
        assert_eq!(e.exit_code(), 7, "{e}");
        assert!(e.to_string().contains("store corrupt"), "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn emitter_writes_header_for_empty_text_output() {
        let emitter = RowEmitter::new(Vec::new(), OutputFormat::Text);
        let (buf, rows) = emitter.finish().unwrap();
        assert_eq!(rows, 0);
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            format!("{TELEMETRY_HEADER}\n")
        );

        let emitter = RowEmitter::new(Vec::new(), OutputFormat::Json);
        let (buf, _) = emitter.finish().unwrap();
        assert!(buf.is_empty(), "json output has no header");
    }
}
