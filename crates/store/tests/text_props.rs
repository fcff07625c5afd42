//! Property tests for the telemetry text path: the integer quantizer,
//! the in-place renderers and the CSV row parser.
//!
//! The quantizer must equal `{:.3}` on every `f64`, so its oracle is
//! the float formatter itself: render with `format!("{v:.3}")`, drop
//! the decimal point, parse the digits. The renderers must equal the
//! `format!`-built rows they replaced, so their oracle is that code,
//! kept here. The one-pass row scanner must accept, reject and report
//! exactly what the split-at-commas parser it replaced did, so that
//! parser is kept here too ([`split_parser`]). The oracles live only
//! in this test.

use std::io::{self, BufRead, BufReader, Read};

use proptest::prelude::*;

use mira_facility::RackId;
use mira_ras::{FailureKind, RasEvent, Severity};
use mira_store::csvfile::{for_each_row, parse_ras_row, parse_telemetry_row, MAX_LINE_BYTES};
use mira_store::{
    format_milli, milli_from_f64, milli_from_str, write_ras_csv, StoreError, TelemetryRecord,
    RAS_HEADER, TELEMETRY_HEADER,
};
use mira_timeseries::SimTime;

/// The row parser the one-pass scanner replaced: split the line at
/// commas, then trim and parse each field on its own, the rack through
/// `trim` / `strip_prefix` / `split_once` and the numbers through
/// `split_once('.')` with the `f64` fallback.
mod split_parser {
    use mira_facility::{ParseRackIdError, RackId};
    use mira_ras::{FailureKind, RasEvent, Severity};
    use mira_store::{milli_from_f64, StoreError, TelemetryRecord};
    use mira_timeseries::SimTime;

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

    pub(super) fn rack(s: &str) -> Result<RackId, ParseRackIdError> {
        let inner = s
            .trim()
            .strip_prefix('(')
            .and_then(|r| r.strip_suffix(')'))
            .ok_or(ParseRackIdError)?;
        let (row_s, col_s) = inner.split_once(',').ok_or(ParseRackIdError)?;
        let row: u8 = row_s.trim().parse().map_err(|_| ParseRackIdError)?;
        let col_s = col_s.trim();
        if col_s.len() != 1 {
            return Err(ParseRackIdError);
        }
        let column = u8::from_str_radix(col_s, 16).map_err(|_| ParseRackIdError)?;
        if row >= 3 || column >= 16 {
            return Err(ParseRackIdError);
        }
        Ok(RackId::new(row, column))
    }

    fn parse_rack(
        line: &str,
        [time, row, column]: [&str; 3],
        lineno: usize,
    ) -> Result<RackId, StoreError> {
        let start = time.len() + 1;
        let end = start + row.len() + 1 + column.len();
        rack(&line[start..end]).map_err(|e| parse_err(lineno, &format!("bad rack: {e}")))
    }

    pub(super) fn milli_from_str(s: &str) -> Option<i64> {
        let t = s.trim();
        match milli_from_canonical(t) {
            Some(m) => Some(m),
            None => t.parse::<f64>().ok().map(milli_from_f64),
        }
    }

    fn milli_from_canonical(t: &str) -> Option<i64> {
        let (neg, body) = match t.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, t),
        };
        let (int_part, frac_part) = body.split_once('.').unwrap_or((body, ""));
        if int_part.is_empty() || frac_part.len() > 3 {
            return None;
        }
        let digit = |b: u8| b.is_ascii_digit().then(|| i64::from(b - b'0'));
        let mut magnitude = 0i64;
        for b in int_part.bytes() {
            magnitude = magnitude.checked_mul(10)?.checked_add(digit(b)?)?;
        }
        let mut frac = frac_part.bytes();
        for _ in 0..3 {
            let d = match frac.next() {
                Some(b) => digit(b)?,
                None => 0,
            };
            magnitude = magnitude.checked_mul(10)?.checked_add(d)?;
        }
        Some(if neg { -magnitude } else { magnitude })
    }

    pub(super) fn telemetry_row(line: &str, lineno: usize) -> Result<TelemetryRecord, StoreError> {
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

    pub(super) fn ras_row(line: &str, lineno: usize) -> Result<RasEvent, StoreError> {
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
}

/// Milli-units as `{:.3}` renders `v`, after the quantizer's clamp and
/// non-finite rule.
fn oracle_milli(v: f64) -> i64 {
    if !v.is_finite() {
        return 0;
    }
    let text = format!("{:.3}", v.clamp(-4.0e15, 4.0e15));
    text.replace('.', "").parse().expect("{:.3} renders digits")
}

fn oracle_format_milli(m: i64) -> String {
    let sign = if m < 0 { "-" } else { "" };
    let a = m.unsigned_abs();
    format!("{sign}{}.{:03}", a / 1000, a % 1000)
}

fn oracle_csv_row(r: &TelemetryRecord) -> String {
    let f = |i: usize| oracle_format_milli(r.milli[i]);
    format!(
        "{},{},{},{},{},{},{},{}",
        r.time.epoch_seconds(),
        r.rack,
        f(0),
        f(1),
        f(2),
        f(3),
        f(4),
        f(5),
    )
}

fn oracle_ndjson_row(r: &TelemetryRecord) -> String {
    let f = |i: usize| oracle_format_milli(r.milli[i]);
    format!(
        "{{\"time\":{},\"rack\":\"{}\",\"dc_temp_f\":{},\"dc_rh\":{},\
         \"flow_gpm\":{},\"inlet_f\":{},\"outlet_f\":{},\"power_kw\":{}}}",
        r.time.epoch_seconds(),
        r.rack,
        f(0),
        f(1),
        f(2),
        f(3),
        f(4),
        f(5),
    )
}

fn assert_quantizes_like_format(v: f64) {
    assert_eq!(
        milli_from_f64(v),
        oracle_milli(v),
        "{v:e} ({:#x})",
        v.to_bits()
    );
}

/// A record from sampled integers: any rack, any timestamp, and values
/// spread over every magnitude of both signs. `i64::MIN` is left out:
/// its magnitude has no positive `i64`, so its text cannot parse back
/// exactly (no quantized value comes near it).
fn record(rack: usize, time: i64, raw: [i64; 6], shifts: [u32; 6]) -> TelemetryRecord {
    let mut milli = [0i64; 6];
    for ((m, r), s) in milli.iter_mut().zip(raw).zip(shifts) {
        *m = (r >> (s % 64)).max(-i64::MAX);
    }
    TelemetryRecord {
        time: SimTime::from_epoch_seconds(time),
        rack: RackId::from_index(rack),
        milli,
    }
}

/// What row mutations insert or write over: the row grammar's own
/// characters, hex digits, and whitespace `str::trim` strips, ASCII
/// and not.
const MUTATION_CHARS: &[char] = &[
    '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', ',', '.', '-', '+', 'e', 'E', '(', ')', ' ',
    '\r', 'a', 'b', 'c', 'd', 'f', 'A', 'B', 'C', 'D', 'F', '\t', '\u{b}', '\u{a0}', '\u{2003}',
];

/// Applies edits to `text` in turn. Each edit packs an op (its low
/// byte mod 3: 0 inserts, 1 deletes, 2 replaces), a position (the
/// next four bytes) and a char (the top three bytes); positions and
/// chars wrap around.
fn mutate(text: &str, edits: &[u64]) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for &edit in edits {
        let (op, at) = (edit & 0xff, (edit >> 8) as u32 as usize);
        let c = MUTATION_CHARS[(edit >> 40) as usize % MUTATION_CHARS.len()];
        match (op % 3, chars.len()) {
            (0, n) => chars.insert(at % (n + 1), c),
            (_, 0) => {}
            (1, n) => {
                chars.remove(at % n);
            }
            (_, n) => chars[at % n] = c,
        }
    }
    chars.into_iter().collect()
}

fn edits() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..=u64::MAX, 1..6)
}

/// Six independent milli values and their shifts, for [`record`]:
/// each value's top six bits pick its shift, so every magnitude is
/// drawn.
fn milli_parts() -> impl Strategy<Value = ([i64; 6], [u32; 6])> {
    proptest::collection::vec(i64::MIN..=i64::MAX, 6..7).prop_map(|v| {
        let raw: [i64; 6] = v.try_into().expect("six values");
        (raw, raw.map(|r| (r as u64 >> 58) as u32))
    })
}

fn parse_line(e: &StoreError) -> Option<usize> {
    match e {
        StoreError::Parse { line, .. } => Some(*line),
        _ => None,
    }
}

/// The scanner and the split parser agree on `line`: the same value,
/// or errors with the same line number and message.
fn assert_same_parse<T: PartialEq + std::fmt::Debug>(
    line: &str,
    scanned: Result<T, StoreError>,
    split: Result<T, StoreError>,
) {
    match (scanned, split) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{line:?}"),
        (Err(a), Err(b)) => {
            assert_eq!(parse_line(&a), parse_line(&b), "{line:?}");
            assert_eq!(a.to_string(), b.to_string(), "{line:?}");
        }
        (a, b) => panic!("{line:?}: scanned {a:?}, split {b:?}"),
    }
}

fn ras_event(rack: usize, time: i64, kind: usize, fatal: u8) -> RasEvent {
    RasEvent {
        time: SimTime::from_epoch_seconds(time),
        rack: RackId::from_index(rack),
        kind: FailureKind::ALL[kind % FailureKind::ALL.len()],
        severity: if fatal == 1 {
            Severity::Fatal
        } else {
            Severity::Warn
        },
    }
}

fn ras_row(e: &RasEvent) -> String {
    let mut buf = Vec::new();
    write_ras_csv(e, &mut buf);
    String::from_utf8(buf).expect("ASCII")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn quantizer_matches_format_on_any_bit_pattern(bits in 0u64..=u64::MAX) {
        assert_quantizes_like_format(f64::from_bits(bits));
    }

    #[test]
    fn quantizer_matches_format_on_physical_values(v in -1.0e6f64..1.0e6, scale in 0u32..12) {
        // Scale down so small magnitudes (down to 1e-5) are drawn too.
        assert_quantizes_like_format(v / f64::from(10u32.pow(scale / 2)));
    }

    #[test]
    fn quantizer_breaks_exact_ties_like_format(k in -(1i64 << 48)..(1i64 << 48)) {
        // v·1000 ends in exactly .5 only at the odd sixteenths; below
        // 2^53 they are exact doubles.
        let v = (2 * k + 1) as f64 / 16.0;
        assert_quantizes_like_format(v);
        assert_quantizes_like_format(v.next_up());
        assert_quantizes_like_format(v.next_down());
    }

    #[test]
    fn quantizer_matches_format_beside_decimal_half_points(k in -10_000_000i64..10_000_000) {
        // (2k+1)/2000 is not a double (bar the sixteenths); its
        // neighbours sit a hair either side of a rounding boundary.
        let v = (2 * k + 1) as f64 / 2000.0;
        assert_quantizes_like_format(v);
        assert_quantizes_like_format(v.next_up());
        assert_quantizes_like_format(v.next_down());
    }

    #[test]
    fn quantizer_matches_format_on_subnormals(fraction in 1u64..(1u64 << 52), negative in 0u8..2) {
        let v = f64::from_bits(fraction | (u64::from(negative) << 63));
        assert!(v.is_subnormal());
        assert_quantizes_like_format(v);
    }

    #[test]
    fn quantizer_matches_format_at_the_clamp(offset in -1.0e15f64..1.0e15, negative in 0u8..2) {
        let v = 4.0e15 + offset;
        let v = if negative == 1 { -v } else { v };
        assert_quantizes_like_format(v);
        assert_quantizes_like_format(v * 1.0e3);
    }

    #[test]
    fn negative_zero_band_quantizes_to_zero(x in 0.0f64..0.0005) {
        // (-0.0005, -0.0] renders "-0.000" and quantizes to plain 0.
        assert_eq!(milli_from_f64(-x), 0);
        assert_quantizes_like_format(-x);
    }

    #[test]
    fn rows_render_like_the_format_oracle(
        rack in 0usize..48,
        time in i64::MIN..=i64::MAX,
        raw in 0u64..=u64::MAX,
        more in 0u64..=u64::MAX,
        shifts in 0u64..=u64::MAX,
    ) {
        let raw = [
            raw,
            more,
            raw.rotate_left(21),
            more.rotate_left(21),
            raw ^ more,
            raw.wrapping_add(more),
        ]
        .map(|r| r as i64);
        let shifts = [0, 8, 16, 24, 32, 40].map(|s| ((shifts >> s) & 0xff) as u32);
        let r = record(rack, time, raw, shifts);

        let csv = r.csv_row();
        prop_assert_eq!(&csv, &oracle_csv_row(&r));
        prop_assert_eq!(r.csv_len(), csv.len());
        prop_assert_eq!(r.ndjson_row(), oracle_ndjson_row(&r));
        for m in r.milli {
            prop_assert_eq!(format_milli(m), oracle_format_milli(m));
        }

        // write_csv appends: earlier bytes in the buffer stay put.
        let mut buf = b"x\n".to_vec();
        r.write_csv(&mut buf);
        prop_assert_eq!(&buf[2..], csv.as_bytes());

        prop_assert_eq!(parse_telemetry_row(&csv, 9).expect("round trip"), r);
    }

    #[test]
    fn quantized_samples_parse_back_on_every_rack(rack in 0usize..48, v in -2.0e5f64..2.0e5) {
        // The exported domain: values quantized from floats, negative
        // ones included.
        let milli = [v, -v, v / 7.0, v * 3.0, -v / 13.0, v / 1000.0].map(milli_from_f64);
        let r = TelemetryRecord {
            time: SimTime::from_epoch_seconds(1_435_708_800),
            rack: RackId::from_index(rack),
            milli,
        };
        prop_assert_eq!(parse_telemetry_row(&r.csv_row(), 2).expect("round trip"), r);
    }

    #[test]
    fn scanner_matches_split_parser_on_rows_from_records(
        rack in 0usize..48,
        time in i64::MIN..=i64::MAX,
        parts in milli_parts(),
    ) {
        let r = record(rack, time, parts.0, parts.1);
        let line = r.csv_row();
        prop_assert_eq!(parse_telemetry_row(&line, 5).expect("canonical row"), r);
        assert_same_parse(&line, parse_telemetry_row(&line, 5), split_parser::telemetry_row(&line, 5));
    }

    #[test]
    fn scanner_matches_split_parser_on_mutated_rows(
        rack in 0usize..48,
        time in i64::MIN..=i64::MAX,
        parts in milli_parts(),
        edits in edits(),
    ) {
        let line = mutate(&record(rack, time, parts.0, parts.1).csv_row(), &edits);
        assert_same_parse(&line, parse_telemetry_row(&line, 11), split_parser::telemetry_row(&line, 11));
    }

    #[test]
    fn ras_scanner_matches_split_parser(
        rack in 0usize..48,
        time in i64::MIN..=i64::MAX,
        kind in 0usize..7,
        fatal in 0u8..2,
        edits in edits(),
    ) {
        let e = ras_event(rack, time, kind, fatal);
        let line = ras_row(&e);
        prop_assert_eq!(parse_ras_row(&line, 3).expect("canonical row"), e);
        assert_same_parse(&line, parse_ras_row(&line, 3), split_parser::ras_row(&line, 3));
        let line = mutate(&line, &edits);
        assert_same_parse(&line, parse_ras_row(&line, 3), split_parser::ras_row(&line, 3));
    }

    #[test]
    fn rack_and_number_grammars_match_split_parser(
        rack in 0usize..48,
        m in i64::MIN..=i64::MAX,
        shift in 0u32..64,
        edits in edits(),
    ) {
        let text = mutate(&RackId::from_index(rack).to_string(), &edits);
        prop_assert_eq!(RackId::parse(&text), split_parser::rack(&text), "{:?}", text);
        let text = mutate(&format_milli((m >> shift).max(-i64::MAX)), &edits);
        prop_assert_eq!(milli_from_str(&text), split_parser::milli_from_str(&text), "{:?}", text);
    }
}

#[test]
fn non_finite_values_quantize_like_zero() {
    for v in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(milli_from_f64(v), 0);
    }
    for v in [
        0.0,
        -0.0,
        0.0005,
        -0.0005,
        4.0e15,
        -4.0e15,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        f64::EPSILON,
    ] {
        assert_quantizes_like_format(v);
    }
}

fn parse_error_line(line: &str, lineno: usize) -> usize {
    match parse_telemetry_row(line, lineno) {
        Err(StoreError::Parse { line, .. }) => line,
        other => panic!("{line:?} should be rejected, got {other:?}"),
    }
}

#[test]
fn malformed_rows_are_rejected_with_their_line() {
    let table = [
        (
            "8 fields",
            "1420070400,(0, A),1.000,2.000,3.000,4.000,5.000",
        ),
        (
            "10 fields",
            "1420070400,(0, A),1.000,2.000,3.000,4.000,5.000,6.000,7.000",
        ),
        ("bad rack", "123,(0, zz),1,2,3,4,5,6"),
        ("rack out of range", "123,(3, 0),1,2,3,4,5,6"),
        (
            "bad number",
            "1420070400,(0, A),1.000,2.000,x.5,4.000,5.000,6.000",
        ),
        ("bad timestamp", "14.5,(0, A),1,2,3,4,5,6"),
        ("empty", ""),
    ];
    for (what, line) in table {
        assert_eq!(parse_error_line(line, 17), 17, "{what}");
    }

    // Through the line reader: numbers count the header and blank lines.
    let text = format!("{TELEMETRY_HEADER}\n1,(0, 0),1,2,3,4,5,6\n\n123,(0, zz),1,2,3,4,5,6\n");
    let mut rows = 0;
    let err = for_each_row(
        text.as_bytes(),
        TELEMETRY_HEADER,
        parse_telemetry_row,
        |_| {
            rows += 1;
        },
    )
    .expect_err("bad rack on line 4");
    assert!(matches!(err, StoreError::Parse { line: 4, .. }), "{err}");
    assert_eq!(rows, 1);

    let err = for_each_row(
        &b"nope\n"[..],
        TELEMETRY_HEADER,
        parse_telemetry_row,
        |_| {},
    )
    .expect_err("bad header");
    assert!(matches!(err, StoreError::Parse { line: 1, .. }), "{err}");

    // RAS rows too: an unknown failure kind names its line.
    let text = format!("{RAS_HEADER}\n123,(0, 1),NOPE,fatal\n");
    let err = for_each_row(text.as_bytes(), RAS_HEADER, parse_ras_row, |_| {})
        .expect_err("unknown kind on line 2");
    assert!(matches!(err, StoreError::Parse { line: 2, .. }), "{err}");
}

/// Boundary values random rows almost never draw: the ends of the
/// `i64` timestamp and milli ranges and one past them, signs and
/// padding, and rack ids with leading zeros or a row past `u8`.
#[test]
fn scanner_matches_split_parser_at_the_edges() {
    let times = [
        "-9223372036854775808",
        "9223372036854775807",
        "-9223372036854775809",
        "9223372036854775808",
        "18446744073709551616",
        "+5",
        " -0 ",
        "-",
        "",
    ];
    let racks = [
        "(0, A)",
        " ( +01 , a ) ",
        "(002,f)",
        "(256, 0)",
        "(0, 10)",
        "(-0, 0)",
    ];
    let numbers = [
        "9223372036854775.807",
        "9223372036854775.808",
        "-9223372036854775.807",
        "-9223372036854775.808",
        "18446744073709551616",
        "00000000000000000000001.5",
        "7.",
        "-.5",
        "-",
    ];
    for time in times {
        for rack in racks {
            for number in numbers {
                let line = format!("{time},{rack},{number},1,2,3,4,{number}");
                assert_same_parse(
                    &line,
                    parse_telemetry_row(&line, 9),
                    split_parser::telemetry_row(&line, 9),
                );
            }
            let line = format!("{time},{rack}, CMF ,fatal");
            assert_same_parse(
                &line,
                parse_ras_row(&line, 9),
                split_parser::ras_row(&line, 9),
            );
        }
    }
}

#[test]
fn non_canonical_numbers_fall_back_to_float_quantization() {
    assert_eq!(milli_from_str("1e3"), Some(1_000_000));
    assert_eq!(milli_from_str("70.12345"), Some(70_123));
    assert_eq!(milli_from_str(" 5 "), Some(5_000));
    assert_eq!(milli_from_str("-0.5"), Some(-500));
    assert_eq!(milli_from_str("+1"), Some(1_000));
    let r = parse_telemetry_row("0,(2, F),1e3,70.12345,.5,-0,7.,8.25", 2).expect("numeric");
    assert_eq!(r.rack, RackId::new(2, 15));
    assert_eq!(r.milli, [1_000_000, 70_123, 500, 0, 7_000, 8_250]);
}

#[test]
fn crlf_lines_parse_like_lf_lines() {
    let rows = [
        "1420070400,(0, A),1.000,2.000,3.000,4.000,5.000,6.000",
        "1420070700,(1, 3),-1.500,20.125,30.000,40.000,50.000,-60.001",
    ];
    let read = |eol: &str| {
        let mut text = format!("{TELEMETRY_HEADER}{eol}");
        for row in rows {
            text.push_str(row);
            text.push_str(eol);
        }
        text.push_str(eol);
        let mut out = Vec::new();
        for_each_row(
            text.as_bytes(),
            TELEMETRY_HEADER,
            parse_telemetry_row,
            |r| {
                out.push(r);
            },
        )
        .expect("parses");
        out
    };
    let lf = read("\n");
    assert_eq!(lf.len(), 2);
    assert_eq!(read("\r\n"), lf);
    for (r, row) in lf.iter().zip(rows) {
        assert_eq!(r.csv_row(), row);
    }
}

/// `text` through [`for_each_row`] with a parser that returns each
/// line's length.
fn line_lengths(reader: impl BufRead) -> Result<Vec<usize>, StoreError> {
    let mut lens = Vec::new();
    for_each_row(reader, "h", |line, _| Ok(line.len()), |n| lens.push(n))?;
    Ok(lens)
}

#[test]
fn a_line_without_end_is_rejected_after_a_bounded_read() {
    let total = 4u64 << 20;
    let mut reader = BufReader::new(b"h\n".chain(io::repeat(b'7').take(total)));
    let err = line_lengths(&mut reader).expect_err("line over the cap");
    assert!(matches!(err, StoreError::Parse { line: 2, .. }), "{err}");
    // The reader stopped just past the cap: the rest is still unread.
    let unread = io::copy(&mut reader, &mut io::sink()).expect("in memory");
    assert!(
        unread >= total - 2 * MAX_LINE_BYTES as u64,
        "read {} of {total} bytes",
        total - unread
    );
}

#[test]
fn a_line_at_the_cap_is_still_a_line() {
    for eol in ["\n", "\r\n", ""] {
        let at_cap = format!("h\n1\n{}{eol}", "7".repeat(MAX_LINE_BYTES));
        assert_eq!(
            line_lengths(at_cap.as_bytes()).expect("at the cap"),
            [1, MAX_LINE_BYTES],
            "{eol:?}"
        );
        let over = format!("h\n1\n{}{eol}2\n", "7".repeat(MAX_LINE_BYTES + 1));
        let err = line_lengths(over.as_bytes()).expect_err("over the cap");
        assert!(
            matches!(err, StoreError::Parse { line: 3, .. }),
            "{eol:?}: {err}"
        );
    }
}

#[test]
fn text_that_is_not_utf8_is_an_io_error() {
    let text = b"h\n1,(0, 0),1,2,3,4,5,\xff\n";
    let err = for_each_row(&text[..], "h", parse_telemetry_row, |_| {}).expect_err("not UTF-8");
    assert!(matches!(err, StoreError::Io(_)), "{err}");
}
