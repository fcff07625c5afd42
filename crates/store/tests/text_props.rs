//! Property tests for the telemetry text path: the integer quantizer,
//! the in-place renderers and the CSV row parser.
//!
//! The quantizer must equal `{:.3}` on every `f64`, so its oracle is
//! the float formatter itself: render with `format!("{v:.3}")`, drop
//! the decimal point, parse the digits. The renderers must equal the
//! `format!`-built rows they replaced, so their oracle is that code,
//! kept here. Both oracles live only in this test.

use proptest::prelude::*;

use mira_facility::RackId;
use mira_store::csvfile::{for_each_row, parse_ras_row, parse_telemetry_row};
use mira_store::{
    format_milli, milli_from_f64, milli_from_str, StoreError, TelemetryRecord, RAS_HEADER,
    TELEMETRY_HEADER,
};
use mira_timeseries::SimTime;

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
