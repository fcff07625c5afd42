//! The `mira-ops` subcommands.

use std::fs::File;
use std::io::{BufRead, BufWriter, Write};

use mira_core::{
    analysis, archive, CmfPredictor, DatasetBuilder, Duration, FeatureConfig, FullSpan, ObsMode,
    PredictorConfig, RackId, SimConfig, Simulation, TelemetryProvider,
};
use mira_serve::{serve_stdio, serve_tcp, ServeState};

use mira_units::convert;

use crate::archive_cmd::{archive_cmd, scan_into_emitter, RowEmitter};
use crate::args::{err, parse_datetime, ArgMap, CliError, OutputFormat};

/// Top-level usage text.
pub const USAGE: &str = "\
mira-ops — liquid-cooled large-scale system simulator (HPCA'21 reproduction)

USAGE: mira-ops <command> [flags]

COMMANDS:
  failures                         CMF timeline and per-rack distribution
  sample   --rack \"(1, 8)\" --time \"2016-07-04 12:00\" [--store FILE]
                                   one coolant-monitor record, simulated
                                   or looked up in a telemetry archive
  export   --from 2015-01-01 --to 2015-01-08 [--step-min 5] [--out telemetry.csv]
           [--format json|text] [--store FILE]
                                   telemetry sweep as CSV (text, the default)
                                   or newline-delimited JSON; with --store,
                                   the span is scanned from the archive
                                   (reading only intersecting blocks)
                                   instead of re-simulated
  archive  <pack|unpack|stat|scan> columnar telemetry archive tools
                                   (`mira-ops archive` for details)
  ras      [--out ras.csv] [--raw] counted (or raw) RAS events as CSV
  predict  [--lead-hours 3] [--events 150] [--epochs 30]
                                   train the CMF predictor, print metrics
  report   [--fast] [--threads N] [--metrics json|text] [--store FILE]
                                   regenerate every figure (paper vs measured);
                                   --metrics appends the observability report
                                   (deterministic snapshot + wall timings);
                                   --store appends the archive's shape and
                                   compression summary
  serve    [--step-min 5] [--tcp HOST:PORT] [--format json|text] [--store FILE]
                                   long-running analytics service: ingest
                                   telemetry incrementally and answer
                                   newline-delimited JSON queries (status,
                                   metrics, figure, report, predict, ingest,
                                   replay, shutdown) on stdio and optionally
                                   TCP; --store attaches a telemetry archive
                                   so replay queries answer from disk;
                                   --format picks the shutdown banner style

GLOBAL FLAGS:
  --seed <u64>                     world seed (default 2014)

  --threads 0 (the default) picks automatically: the MIRA_SWEEP_THREADS
  environment variable if set, otherwise all available cores. Any
  thread count produces bit-identical results.
";

fn simulation(args: &ArgMap) -> Result<Simulation, CliError> {
    let seed = args.get_parsed("seed", 2014u64)?;
    Ok(Simulation::new(SimConfig::with_seed(seed)))
}

/// `mira-ops failures`
pub fn failures(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let sim = simulation(args)?;
    let fig10 = analysis::fig10_cmf_timeline(&sim);
    writeln!(out, "coolant monitor failures by year:").map_err(io_err)?;
    for (year, count) in &fig10.by_year {
        writeln!(
            out,
            "  {year}: {count:>3}  {}",
            "#".repeat(convert::usize_from_u32(*count) / 4)
        )
        .map_err(io_err)?;
    }
    writeln!(
        out,
        "total {} | 2016 share {:.0}% | longest quiet gap {:.0} days",
        fig10.total,
        fig10.share_2016 * 100.0,
        fig10.longest_gap_days
    )
    .map_err(io_err)?;

    let counts = sim.ras_log().cmf_by_rack();
    writeln!(out, "\nper-rack counts (rows 0-2, columns 0-F):").map_err(io_err)?;
    for row in 0..3u8 {
        let cells: Vec<String> = (0..16u8)
            .map(|c| format!("{:>2}", counts[RackId::new(row, c).index()]))
            .collect();
        writeln!(out, "  row {row}: {}", cells.join(" ")).map_err(io_err)?;
    }
    Ok(())
}

/// `mira-ops sample --rack "(1, 8)" --time "2016-07-04 12:00" [--store FILE]`
///
/// Both sources render through the archived record form (3-decimal
/// quantization), so a sample served from a packed store is
/// byte-identical to the simulated one.
pub fn sample(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let rack = RackId::parse(args.require("rack")?).map_err(|e| err(format!("bad --rack: {e}")))?;
    let t = parse_datetime(args.require("time")?)?;
    let rec = match args.get("store") {
        Some(path) => {
            let mut ar = mira_store::open_archive(std::path::Path::new(path))?;
            let mut found: Option<mira_core::TelemetryRecord> = None;
            ar.scan_span(
                t,
                t + Duration::from_seconds(1),
                mira_core::Projection::all(),
                &mut |r| {
                    if r.rack == rack && found.is_none() {
                        found = Some(*r);
                    }
                },
            )?;
            found.ok_or_else(|| err(format!("store has no sample for rack {rack} at {t}")))?
        }
        None => {
            let sim = simulation(args)?;
            mira_core::TelemetryRecord::from_sample(&TelemetryProvider::sample(
                sim.telemetry(),
                rack,
                t,
            ))
        }
    };
    let s = rec.to_sample();
    writeln!(out, "coolant monitor sample, rack {rack} at {t}:").map_err(io_err)?;
    writeln!(out, "  dc temperature : {}", s.dc_temperature).map_err(io_err)?;
    writeln!(out, "  dc humidity    : {}", s.dc_humidity).map_err(io_err)?;
    writeln!(out, "  coolant flow   : {}", s.flow).map_err(io_err)?;
    writeln!(out, "  inlet coolant  : {}", s.inlet).map_err(io_err)?;
    writeln!(out, "  outlet coolant : {}", s.outlet).map_err(io_err)?;
    writeln!(out, "  power          : {}", s.power).map_err(io_err)?;
    writeln!(out, "  condensation margin: {}", s.condensation_margin()).map_err(io_err)?;
    Ok(())
}

/// The `--step-min` flag (default 5) as a positive sampling step. A
/// value whose length in seconds overflows is a usage error, not a
/// wrapped negative step.
fn step_flag(args: &ArgMap) -> Result<Duration, CliError> {
    let step_min: i64 = args.get_parsed("step-min", 5i64)?;
    if step_min <= 0 {
        return Err(err("--step-min must be positive"));
    }
    let secs = step_min
        .checked_mul(60)
        .ok_or_else(|| err("--step-min is too large"))?;
    Ok(Duration::from_seconds(secs))
}

/// `mira-ops export --from ... --to ... [--step-min 5] [--out file]
/// [--format json|text] [--store FILE]`
///
/// Without `--store` the span is simulated; with it, the rows are
/// scanned from a telemetry archive (columnar or CSV), reading only
/// the row groups that intersect the span. Both paths render through
/// the same [`RowEmitter`], so their output is byte-identical.
pub fn export(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let from = parse_datetime(args.require("from")?)?;
    let to = parse_datetime(args.require("to")?)?;
    if from >= to {
        return Err(err("--from must precede --to"));
    }
    let step = step_flag(args)?;
    let format = OutputFormat::from_flag(args, "format")?.unwrap_or(OutputFormat::Text);

    let sink: Box<dyn Write> = match args.get("out") {
        Some(path) => Box::new(BufWriter::new(
            File::create(path).map_err(|e| create_err(path, e))?,
        )),
        None => Box::new(&mut *out),
    };
    let mut emitter = RowEmitter::new(sink, format);
    match args.get("store") {
        Some(path) => {
            let mut ar = mira_store::open_archive(std::path::Path::new(path))?;
            scan_into_emitter(
                ar.as_mut(),
                from,
                to,
                mira_core::Projection::all(),
                &mut emitter,
            )?;
        }
        None => {
            let sim = simulation(args)?;
            archive::sweep_records(sim.telemetry(), from, to, step, |rec| emitter.row(rec))
                .map_err(io_err)?;
        }
    }
    let (sink, rows) = emitter.finish().map_err(io_err)?;
    drop(sink);
    if args.get("out").is_some() {
        writeln!(out, "wrote {rows} telemetry rows").map_err(io_err)?;
    }
    Ok(())
}

/// `mira-ops ras [--out file] [--raw]`
pub fn ras(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let sim = simulation(args)?;
    let events: Vec<_> = if args.switch("raw") {
        sim.ras_log().raw().to_vec()
    } else {
        sim.ras_log().counted().to_vec()
    };
    let rows = match args.get("out") {
        Some(path) => {
            let file = File::create(path).map_err(|e| create_err(path, e))?;
            archive::write_ras_csv(BufWriter::new(file), events.iter())?
        }
        None => archive::write_ras_csv(&mut *out, events.iter())?,
    };
    if args.get("out").is_some() {
        writeln!(out, "wrote {rows} RAS events").map_err(io_err)?;
    }
    Ok(())
}

/// `mira-ops predict [--lead-hours 3] [--events 150] [--epochs 30]`
pub fn predict(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let sim = simulation(args)?;
    let events: usize = args.get_parsed("events", 150usize)?;
    let epochs: usize = args.get_parsed("epochs", 30usize)?;
    let lead_hours: i64 = args.get_parsed("lead-hours", 3i64)?;

    let mut cmfs = sim.cmf_ground_truth();
    cmfs.truncate(events.max(10));
    writeln!(
        out,
        "training on {} failures, {epochs} epochs...",
        cmfs.len()
    )
    .map_err(io_err)?;
    let builder = DatasetBuilder::new(FeatureConfig::mira(), cmfs, sim.config().span());
    let config = PredictorConfig {
        epochs,
        ..PredictorConfig::default()
    };
    let (predictor, test) = CmfPredictor::train(sim.telemetry(), &builder, &config);
    writeln!(out, "held-out test: {test}").map_err(io_err)?;
    let metrics =
        predictor.evaluate_at(sim.telemetry(), &builder, Duration::from_hours(lead_hours));
    writeln!(out, "at {lead_hours} h lead: {metrics}").map_err(io_err)?;
    Ok(())
}

/// `mira-ops report [--fast] [--threads N] [--metrics json|text]`
pub fn report(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let sim = simulation(args)?;
    let step = if args.switch("fast") {
        Duration::from_hours(6)
    } else {
        Duration::from_hours(1)
    };
    let threads: usize = args.get_parsed("threads", 0usize)?;
    let metrics = OutputFormat::from_flag(args, "metrics")?;
    writeln!(out, "sweeping six years at {} h steps...", step.as_hours()).map_err(io_err)?;
    let mode = if metrics.is_some() {
        ObsMode::On
    } else {
        ObsMode::Off
    };
    let observed = sim.summarize_observed(FullSpan, step, threads, mode)?;
    let summary = observed.summary;

    let fig2 = analysis::fig2_yearly_trends(&summary);
    writeln!(
        out,
        "[Fig 2] power {:.2} -> {:.2} MW | utilization {:.1} -> {:.1} %",
        fig2.power_by_year[0].mean,
        fig2.power_by_year[5].mean,
        fig2.utilization_by_year[0].mean,
        fig2.utilization_by_year[5].mean
    )
    .map_err(io_err)?;
    let fig3 = analysis::fig3_coolant_trends(&summary);
    writeln!(
        out,
        "[Fig 3] flow {:.0} -> {:.0} GPM | sigmas {:.1} GPM / {:.2} F / {:.2} F",
        fig3.flow_before_theta,
        fig3.flow_after_theta,
        fig3.flow_stddev,
        fig3.inlet_stddev,
        fig3.outlet_stddev
    )
    .map_err(io_err)?;
    let fig6 = analysis::fig6_rack_power_util(&summary);
    writeln!(
        out,
        "[Fig 6] leaders {} / {} | spread {:.1}% | corr {:.2}",
        fig6.power_leader,
        fig6.utilization_leader,
        fig6.power_spread * 100.0,
        fig6.power_utilization_correlation
    )
    .map_err(io_err)?;
    let fig10 = analysis::fig10_cmf_timeline(&sim);
    writeln!(
        out,
        "[Fig 10] {} CMFs | 2016 share {:.0}% | gap {:.0} d",
        fig10.total,
        fig10.share_2016 * 100.0,
        fig10.longest_gap_days
    )
    .map_err(io_err)?;
    writeln!(out, "(run the reproduce_all example for the full report)").map_err(io_err)?;
    if let Some(path) = args.get("store") {
        let mut ar = mira_store::open_archive(std::path::Path::new(path))?;
        let st = ar.stat()?;
        match st.time_range {
            Some((lo, hi)) => writeln!(
                out,
                "[Archive] {} rows in {} groups | {} RAS events | {:.2}x vs csv | {lo} .. {hi}",
                st.rows,
                st.groups,
                st.ras_events,
                st.compression_ratio()
            )
            .map_err(io_err)?,
            None => writeln!(out, "[Archive] empty ({} bytes)", st.file_bytes).map_err(io_err)?,
        }
    }
    match metrics {
        Some(OutputFormat::Json) => {
            writeln!(out, "{}", observed.report.to_json()).map_err(io_err)?;
        }
        Some(OutputFormat::Text) => {
            write!(out, "{}", observed.report.to_text()).map_err(io_err)?;
        }
        None => {}
    }
    Ok(())
}

/// `mira-ops serve [--step-min 5] [--tcp HOST:PORT] [--format json|text]`
pub fn serve(args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    let stdin = std::io::stdin();
    serve_with_input(args, stdin.lock(), out)
}

/// [`serve`] with an injectable request stream, so scripted sessions
/// (tests, the CI smoke gate) can drive it without a real stdin.
pub fn serve_with_input<R: BufRead>(
    args: &ArgMap,
    input: R,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let sim = simulation(args)?;
    let step = step_flag(args)?;
    let banner = OutputFormat::from_flag(args, "format")?.unwrap_or(OutputFormat::Text);
    let mut state = ServeState::new(sim, step)?;
    if let Some(path) = args.get("store") {
        state = state.with_store(mira_store::open_archive(std::path::Path::new(path))?);
    }

    std::thread::scope(|scope| -> Result<(), CliError> {
        let tcp_worker = match args.get("tcp") {
            Some(addr) => {
                let listener = std::net::TcpListener::bind(addr).map_err(|e| CliError::Io {
                    context: format!("cannot bind {addr}"),
                    source: e,
                })?;
                let state = &state;
                Some(scope.spawn(move || serve_tcp(state, &listener)))
            }
            None => None,
        };
        // The stdio loop runs on this thread; EOF or a shutdown request
        // flips the shared flag and the TCP acceptor drains out.
        serve_stdio(&state, input, &mut *out).map_err(io_err)?;
        if let Some(worker) = tcp_worker {
            worker
                .join()
                .map_err(|_| err("tcp worker panicked"))?
                .map_err(io_err)?;
        }
        Ok(())
    })?;

    // The shutdown banner: deterministic totals (a scripted session
    // replays byte-identically), formatted per --format.
    let queries = state.queries_served();
    let steps = state.ingested_steps();
    match banner {
        OutputFormat::Json => writeln!(
            out,
            "{{\"served\":true,\"queries_served\":{queries},\"steps_ingested\":{steps}}}"
        )
        .map_err(io_err)?,
        OutputFormat::Text => writeln!(
            out,
            "serve: answered {queries} queries, ingested {steps} steps"
        )
        .map_err(io_err)?,
    }
    Ok(())
}

/// Dispatches a subcommand.
pub fn run(command: &str, args: &ArgMap, out: &mut dyn Write) -> Result<(), CliError> {
    match command {
        "failures" => failures(args, out),
        "sample" => sample(args, out),
        "export" => export(args, out),
        "archive" => archive_cmd(args, out),
        "ras" => ras(args, out),
        "predict" => predict(args, out),
        "report" => report(args, out),
        "serve" => serve(args, out),
        other => Err(err(format!("unknown command: {other}\n\n{USAGE}"))),
    }
}

pub(crate) fn io_err(e: std::io::Error) -> CliError {
    CliError::Io {
        context: "output error".to_string(),
        source: e,
    }
}

pub(crate) fn create_err(path: &str, e: std::io::Error) -> CliError {
    CliError::Io {
        context: format!("cannot create {path}"),
        source: e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cmd(command: &str, args: &[&str]) -> Result<String, CliError> {
        let map = ArgMap::parse(args.iter().map(ToString::to_string))?;
        let mut out = Vec::new();
        run(command, &map, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8"))
    }

    #[test]
    fn failures_prints_361() {
        let text = run_cmd("failures", &[]).unwrap();
        assert!(text.contains("total 361"));
        assert!(text.contains("row 0:"));
    }

    #[test]
    fn sample_prints_channels() {
        let text = run_cmd(
            "sample",
            &["--rack", "(1, 8)", "--time", "2016-07-04 12:00"],
        )
        .unwrap();
        assert!(text.contains("inlet coolant"));
        assert!(text.contains("GPM"));
    }

    #[test]
    fn sample_requires_rack() {
        let e = run_cmd("sample", &["--time", "2016-07-04"]).unwrap_err();
        assert!(e.to_string().contains("--rack"));
    }

    #[test]
    fn export_streams_csv_to_stdout() {
        let text = run_cmd(
            "export",
            &[
                "--from",
                "2015-03-01",
                "--to",
                "2015-03-01 01:00",
                "--step-min",
                "30",
            ],
        )
        .unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], archive::TELEMETRY_HEADER);
        assert_eq!(lines.len(), 1 + 2 * 48);
    }

    #[test]
    fn export_validates_span() {
        let e = run_cmd("export", &["--from", "2015-03-02", "--to", "2015-03-01"]).unwrap_err();
        assert!(e.to_string().contains("precede"));
    }

    #[test]
    fn ras_emits_header() {
        let text = run_cmd("ras", &[]).unwrap();
        assert!(text.starts_with(archive::RAS_HEADER));
        assert!(text.lines().count() > 361);
    }

    #[test]
    fn unknown_command_shows_usage() {
        let e = run_cmd("frobnicate", &[]).unwrap_err();
        assert!(e.to_string().contains("USAGE"));
    }

    #[test]
    fn report_rejects_unknown_metrics_format() {
        // Validated before the (expensive) sweep starts.
        let e = run_cmd("report", &["--metrics", "xml"]).unwrap_err();
        assert!(e.to_string().contains("json or text"));
        assert_eq!(e.exit_code(), 2);
    }

    #[test]
    fn export_format_json_emits_ndjson() {
        let text = run_cmd(
            "export",
            &[
                "--from",
                "2015-03-01",
                "--to",
                "2015-03-01 01:00",
                "--step-min",
                "30",
                "--format",
                "json",
            ],
        )
        .unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Same row count as the CSV export, but no header line and
        // every line is a standalone JSON object.
        assert_eq!(lines.len(), 2 * 48);
        for line in &lines {
            let row = mira_serve::Json::parse(line).expect("valid json row");
            assert!(row.get("time").is_some());
            assert!(row.get("power_kw").is_some());
        }
    }

    #[test]
    fn export_rejects_unknown_format() {
        let e = run_cmd(
            "export",
            &[
                "--from",
                "2015-03-01",
                "--to",
                "2015-03-02",
                "--format",
                "csv",
            ],
        )
        .unwrap_err();
        assert!(e.to_string().contains("json or text"));
        assert_eq!(e.exit_code(), 2);
    }

    fn run_serve(extra: &[&str], script: &str) -> Result<String, CliError> {
        let mut argv = vec!["--step-min", "360"];
        argv.extend_from_slice(extra);
        let map = ArgMap::parse(argv.iter().map(ToString::to_string))?;
        let mut out = Vec::new();
        serve_with_input(&map, script.as_bytes(), &mut out)?;
        Ok(String::from_utf8(out).expect("utf8"))
    }

    #[test]
    fn serve_scripted_session_replies_and_banners() {
        let script = "{\"cmd\":\"ingest\",\"steps\":8,\"id\":1}\n\
                      {\"cmd\":\"status\",\"id\":2}\n\
                      {\"cmd\":\"shutdown\",\"id\":3}\n";
        let text = run_serve(&[], script).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert!(lines[0].contains("\"ok\":true") && lines[0].contains("\"ingested\":8"));
        assert!(lines[1].contains("\"steps_ingested\":8"));
        assert!(lines[2].contains("\"shutting_down\":true"));
        assert_eq!(lines[3], "serve: answered 3 queries, ingested 8 steps");
    }

    #[test]
    fn serve_json_banner_and_determinism() {
        let script = "{\"cmd\":\"ingest\",\"steps\":4}\n{\"cmd\":\"metrics\"}\n";
        let first = run_serve(&["--format", "json"], script).unwrap();
        let second = run_serve(&["--format", "json"], script).unwrap();
        // EOF (no explicit shutdown) also lands the banner, and the
        // whole scripted transcript is byte-identical across runs.
        assert_eq!(first, second);
        assert!(first
            .lines()
            .last()
            .is_some_and(|l| l == "{\"served\":true,\"queries_served\":2,\"steps_ingested\":4}"));
    }

    #[test]
    fn serve_replay_answers_from_an_attached_store() {
        let dir = std::env::temp_dir().join(format!("mira-serve-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let csv = dir.join("tele.csv").display().to_string();
        run_cmd(
            "export",
            &[
                "--from",
                "2015-03-01",
                "--to",
                "2015-03-01 02:00",
                "--step-min",
                "60",
                "--out",
                &csv,
            ],
        )
        .unwrap();
        let store = dir.join("tele.mstore").display().to_string();
        run_cmd("archive", &["pack", "--in", &csv, "--out", &store]).unwrap();

        let script = "{\"cmd\":\"replay\",\"limit\":2,\"id\":1}\n";
        let text = run_serve(&["--store", &store], script).unwrap();
        let first = text.lines().next().unwrap_or_default();
        assert!(first.contains("\"ok\":true"), "{first}");
        assert!(first.contains("\"returned\":2"), "{first}");
        assert!(first.contains("\"rows_scanned\":96"), "{first}");
        assert!(first.contains("\"power_kw\":"), "{first}");

        // Without --store the same query is a usage error.
        let text = run_serve(&[], script).unwrap();
        let first = text.lines().next().unwrap_or_default();
        assert!(first.contains("no archive attached"), "{first}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_rejects_nonpositive_step() {
        let map = ArgMap::parse(["--step-min", "0"].iter().map(ToString::to_string)).unwrap();
        let mut out = Vec::new();
        let e = serve_with_input(&map, &b""[..], &mut out).unwrap_err();
        assert!(e.to_string().contains("positive"));
        assert_eq!(e.exit_code(), 2);
    }

    #[test]
    fn overflowing_step_is_a_usage_error() {
        // 2e17 minutes overflows i64 seconds; the step must not wrap
        // negative into a panic further down.
        let huge = "200000000000000000";
        let e = run_cmd(
            "export",
            &[
                "--from",
                "2015-01-01",
                "--to",
                "2015-01-02",
                "--step-min",
                huge,
            ],
        )
        .unwrap_err();
        assert!(e.to_string().contains("too large"), "{e}");
        assert_eq!(e.exit_code(), 2);

        let map = ArgMap::parse(["--step-min", huge].iter().map(ToString::to_string)).unwrap();
        let mut out = Vec::new();
        let e = serve_with_input(&map, &b""[..], &mut out).unwrap_err();
        assert!(e.to_string().contains("too large"), "{e}");
        assert_eq!(e.exit_code(), 2);
    }
}
