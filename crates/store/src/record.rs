//! The canonical telemetry row model shared by every archive backend.
//!
//! Channel values are held as **milli-units** (`i64`, three implied
//! decimals), rounded from the float by exact integer arithmetic to
//! the very integer the `{:.3}` rendering shows. That equality is the
//! backbone of the byte-identity guarantee: a row written to CSV, a
//! row packed into the columnar store, and a row re-simulated all hold
//! the same integers, and one renderer
//! ([`TelemetryRecord::write_csv`] / [`TelemetryRecord::write_ndjson`])
//! turns them into the exact `{:.3}` text on every export path.

use mira_cooling::CoolantMonitorSample;
use mira_facility::RackId;
use mira_ras::RasEvent;
use mira_timeseries::SimTime;
use mira_units::{convert, Fahrenheit, Gpm, Kilowatts, RelHumidity};

/// One archived column: the two key columns plus the six telemetry
/// channels, in on-disk block order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Channel {
    /// Sample timestamp (epoch seconds).
    Time,
    /// Rack identity (grid index).
    Rack,
    /// Drop ceiling dry-bulb temperature, °F.
    DcTempF,
    /// Drop ceiling relative humidity, %RH.
    DcRh,
    /// Coolant flow, GPM.
    FlowGpm,
    /// Inlet coolant temperature, °F.
    InletF,
    /// Outlet coolant temperature, °F.
    OutletF,
    /// Rack power, kW.
    PowerKw,
}

impl Channel {
    /// Every column, in on-disk block order.
    pub const ALL: [Channel; 8] = [
        Channel::Time,
        Channel::Rack,
        Channel::DcTempF,
        Channel::DcRh,
        Channel::FlowGpm,
        Channel::InletF,
        Channel::OutletF,
        Channel::PowerKw,
    ];

    /// The six value channels (everything but the time/rack keys), in
    /// CSV column order.
    pub const VALUES: [Channel; 6] = [
        Channel::DcTempF,
        Channel::DcRh,
        Channel::FlowGpm,
        Channel::InletF,
        Channel::OutletF,
        Channel::PowerKw,
    ];

    /// The stable column tag used in headers, NDJSON keys, and error
    /// context.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            Channel::Time => "time",
            Channel::Rack => "rack",
            Channel::DcTempF => "dc_temp_f",
            Channel::DcRh => "dc_rh",
            Channel::FlowGpm => "flow_gpm",
            Channel::InletF => "inlet_f",
            Channel::OutletF => "outlet_f",
            Channel::PowerKw => "power_kw",
        }
    }

    /// This channel's position in [`Channel::VALUES`], or `None` for
    /// the time/rack key columns.
    #[must_use]
    pub fn value_index(self) -> Option<usize> {
        Channel::VALUES.iter().position(|c| *c == self)
    }
}

/// A channel projection: which value columns a scan must decode. The
/// time and rack key columns are always included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Projection {
    mask: u8,
}

impl Projection {
    /// Every channel (the default for full-row exports).
    #[must_use]
    pub fn all() -> Self {
        Projection { mask: 0x3f }
    }

    /// Keys only: time and rack, no value channels decoded.
    #[must_use]
    pub fn keys_only() -> Self {
        Projection { mask: 0 }
    }

    /// Just the named channels (time/rack entries are ignored; they
    /// are always present).
    #[must_use]
    pub fn only(channels: &[Channel]) -> Self {
        let mut mask = 0u8;
        for ch in channels {
            if let Some(i) = ch.value_index() {
                mask |= 1 << i;
            }
        }
        Projection { mask }
    }

    /// Whether a scan must materialize `channel`. Always true for the
    /// time/rack keys.
    #[must_use]
    pub fn contains(self, channel: Channel) -> bool {
        match channel.value_index() {
            None => true,
            Some(i) => self.mask & (1 << i) != 0,
        }
    }

    /// How many value channels this projection decodes.
    #[must_use]
    pub fn value_count(self) -> u32 {
        self.mask.count_ones()
    }
}

impl Default for Projection {
    fn default() -> Self {
        Projection::all()
    }
}

/// The telemetry CSV header every text surface shares.
pub const TELEMETRY_HEADER: &str = "time,rack,dc_temp_f,dc_rh,flow_gpm,inlet_f,outlet_f,power_kw";

/// One archived coolant-monitor row: keys plus the six channel values
/// in milli-units, [`Channel::VALUES`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryRecord {
    /// Sample timestamp.
    pub time: SimTime,
    /// Sampled rack.
    pub rack: RackId,
    /// Channel values in milli-units (value × 1000, rounded exactly as
    /// `{:.3}` rounds), [`Channel::VALUES`] order.
    pub milli: [i64; 6],
}

/// The NDJSON key prefix in front of each value channel, in
/// [`Channel::VALUES`] order.
const NDJSON_VALUE_KEYS: [&[u8]; 6] = [
    b",\"dc_temp_f\":",
    b",\"dc_rh\":",
    b",\"flow_gpm\":",
    b",\"inlet_f\":",
    b",\"outlet_f\":",
    b",\"power_kw\":",
];

impl TelemetryRecord {
    /// Quantizes a live sample into its archived form — the same
    /// rounding the CSV export applies.
    #[must_use]
    pub fn from_sample(s: &CoolantMonitorSample) -> Self {
        TelemetryRecord {
            time: s.time,
            rack: s.rack,
            milli: [
                milli_from_f64(s.dc_temperature.value()),
                milli_from_f64(s.dc_humidity.value()),
                milli_from_f64(s.flow.value()),
                milli_from_f64(s.inlet.value()),
                milli_from_f64(s.outlet.value()),
                milli_from_f64(s.power.value()),
            ],
        }
    }

    /// Rehydrates the quantized sample (3-decimal precision).
    #[must_use]
    pub fn to_sample(&self) -> CoolantMonitorSample {
        let f = |i: usize| self.milli.get(i).map_or(0.0, |m| f64_from_milli(*m));
        CoolantMonitorSample {
            time: self.time,
            rack: self.rack,
            dc_temperature: Fahrenheit::new(f(0)),
            dc_humidity: RelHumidity::new(f(1)),
            flow: Gpm::new(f(2)),
            inlet: Fahrenheit::new(f(3)),
            outlet: Fahrenheit::new(f(4)),
            power: Kilowatts::new(f(5)),
        }
    }

    /// Appends this row's CSV line (no trailing newline) to `buf`:
    /// `time,(r, X),v,v,v,v,v,v`, each value in its `{:.3}` text.
    /// Nothing is allocated beyond `buf`'s own growth, so a caller
    /// that reuses one buffer renders rows allocation-free.
    pub fn write_csv(&self, buf: &mut Vec<u8>) {
        push_i64(buf, self.time.epoch_seconds());
        buf.push(b',');
        push_rack(buf, self.rack);
        for m in self.milli {
            buf.push(b',');
            push_milli(buf, m);
        }
    }

    /// Appends this row's NDJSON object (no trailing newline) to
    /// `buf`, with the CSV row's fields and values under their
    /// [`Channel::tag`] keys.
    pub fn write_ndjson(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(b"{\"time\":");
        push_i64(buf, self.time.epoch_seconds());
        buf.extend_from_slice(b",\"rack\":\"");
        push_rack(buf, self.rack);
        buf.push(b'"');
        for (key, m) in NDJSON_VALUE_KEYS.iter().zip(self.milli) {
            buf.extend_from_slice(key);
            push_milli(buf, m);
        }
        buf.push(b'}');
    }

    /// The byte length of [`TelemetryRecord::write_csv`]'s output,
    /// counted from digit counts without rendering.
    #[must_use]
    pub fn csv_len(&self) -> usize {
        let values: usize = self.milli.iter().map(|m| 1 + milli_len(*m)).sum();
        i64_len(self.time.epoch_seconds()) + 1 + rack_len(self.rack) + values
    }

    /// This row as a CSV line (no trailing newline), byte-identical to
    /// the `{:.3}`-rendered export row.
    #[must_use]
    pub fn csv_row(&self) -> String {
        let mut buf = Vec::with_capacity(self.csv_len());
        self.write_csv(&mut buf);
        ascii_string(buf)
    }

    /// This row as an NDJSON object (no trailing newline), matching
    /// the NDJSON telemetry export byte for byte.
    #[must_use]
    pub fn ndjson_row(&self) -> String {
        // The keys and braces add 81 bytes to the CSV line's length.
        let mut buf = Vec::with_capacity(self.csv_len() + 81);
        self.write_ndjson(&mut buf);
        ascii_string(buf)
    }
}

/// Quantizes a float to milli-units by exact integer rounding — the
/// integer `{:.3}` renders, so the quantized value re-renders to the
/// identical decimal text.
///
/// The float is taken apart into `mantissa · 2^-shift`, the mantissa
/// multiplied by 1000, and the `shift` low bits rounded off half to
/// even, which is how `{:.3}` breaks the exact ties (the odd
/// sixteenths: `0.0625` renders `0.062`). Non-finite values quantize
/// to `0`; magnitudes beyond ±4e15 clamp (far outside any physical
/// channel range). `-0.0005 < v <= -0.0` renders as `-0.000` but
/// quantizes to plain `0` (integers carry no negative zero);
/// [`format_milli`] therefore emits `0.000` — every export path shares
/// this normalization, so identity still holds.
#[must_use]
pub fn milli_from_f64(v: f64) -> i64 {
    if !v.is_finite() {
        return 0;
    }
    let bits = v.clamp(-4.0e15, 4.0e15).to_bits();
    let biased_exp = (bits >> 52) & 0x7ff;
    let fraction = bits & ((1 << 52) - 1);
    // Subnormals (biased exponent 0) carry no implicit bit and share
    // the smallest normal exponent.
    let mantissa = if biased_exp == 0 {
        fraction
    } else {
        fraction | (1 << 52)
    };
    // |v| = mantissa · 2^-shift. The clamp keeps |v| < 2^52, so the
    // binary point always sits inside the mantissa: shift >= 1.
    let shift = 1075u64.saturating_sub(biased_exp.max(1)).max(1);
    // mantissa < 2^53, so the product stays below 2^63.
    let scaled = mantissa * 1000;
    let magnitude = if shift >= 64 {
        // The half-unit 2^(shift-1) exceeds `scaled`: rounds to zero.
        0
    } else {
        let quotient = scaled >> shift;
        let remainder = scaled & ((1 << shift) - 1);
        let half = 1u64 << (shift - 1);
        if remainder > half || (remainder == half && quotient & 1 == 1) {
            quotient + 1
        } else {
            quotient
        }
    };
    // magnitude <= 4e18 < i64::MAX, so the conversion cannot fail.
    let magnitude = i64::try_from(magnitude).unwrap_or(i64::MAX);
    if bits >> 63 == 1 {
        -magnitude
    } else {
        magnitude
    }
}

/// Parses a decimal field into milli-units. Canonical fields
/// (`[-]digits[.frac]` with at most three fractional digits) convert
/// exactly, text-to-integer; anything else falls back to an `f64`
/// parse plus [`milli_from_f64`] quantization. `None` when the field
/// is not a number at all.
#[must_use]
pub fn milli_from_str(s: &str) -> Option<i64> {
    let t = s.trim();
    match milli_from_canonical(t) {
        Some(m) => Some(m),
        None => t.parse::<f64>().ok().map(milli_from_f64),
    }
}

/// `[-]digits[.frac]` with at most three fractional digits, converted
/// digit by digit; `None` for any other shape or on overflow.
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
    // Right-pad the fraction to three digits: "5" is 500 milli.
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

/// Renders milli-units exactly as `{:.3}` renders the value they were
/// quantized from.
#[must_use]
pub fn format_milli(m: i64) -> String {
    let mut buf = Vec::with_capacity(milli_len(m));
    push_milli(&mut buf, m);
    ascii_string(buf)
}

/// Appends a RAS event's CSV row (no trailing newline) to `buf`:
/// `time,(r, X),KIND,severity` — the text backend's RAS format, and
/// the basis of the columnar store's equivalent-CSV accounting.
pub fn write_ras_csv(e: &RasEvent, buf: &mut Vec<u8>) {
    push_i64(buf, e.time.epoch_seconds());
    buf.push(b',');
    push_rack(buf, e.rack);
    buf.push(b',');
    buf.extend_from_slice(e.kind.tag().as_bytes());
    buf.push(b',');
    buf.extend_from_slice(e.severity.tag().as_bytes());
}

/// The byte length of [`write_ras_csv`]'s output, counted without
/// rendering.
#[must_use]
pub(crate) fn ras_csv_len(e: &RasEvent) -> usize {
    i64_len(e.time.epoch_seconds())
        + rack_len(e.rack)
        + e.kind.tag().len()
        + e.severity.tag().len()
        + 3
}

/// Uppercase hex digits, the `{:X}` alphabet of rack columns.
const HEX_DIGITS: &[u8; 16] = b"0123456789ABCDEF";

/// Appends `n` in decimal.
fn push_u64(buf: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    for slot in digits.iter_mut().rev() {
        *slot = b'0' + u8::try_from(n % 10).unwrap_or(0);
        start -= 1;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.extend_from_slice(digits.get(start..).unwrap_or_default());
}

/// Appends `n` in decimal, `-` first when negative.
fn push_i64(buf: &mut Vec<u8>, n: i64) {
    if n < 0 {
        buf.push(b'-');
    }
    push_u64(buf, n.unsigned_abs());
}

/// Appends milli-units as `[-]int.fff`.
fn push_milli(buf: &mut Vec<u8>, m: i64) {
    if m < 0 {
        buf.push(b'-');
    }
    let a = m.unsigned_abs();
    push_u64(buf, a / 1000);
    let frac = a % 1000;
    let digit = |d: u64| b'0' + u8::try_from(d % 10).unwrap_or(0);
    buf.extend_from_slice(&[b'.', digit(frac / 100), digit(frac / 10), digit(frac)]);
}

/// Appends a rack id as its `Display` text, `(row, COLUMN)`.
fn push_rack(buf: &mut Vec<u8>, rack: RackId) {
    buf.push(b'(');
    push_u64(buf, u64::from(rack.row()));
    buf.extend_from_slice(b", ");
    let column = rack.column();
    let hex = |nibble: u8| HEX_DIGITS.get(usize::from(nibble)).copied().unwrap_or(b'0');
    if column >= 16 {
        buf.push(hex(column >> 4));
    }
    buf.push(hex(column & 0xf));
    buf.push(b')');
}

/// Decimal digits in `n`.
fn u64_len(n: u64) -> usize {
    n.checked_ilog10()
        .map_or(1, |d| convert::usize_from_u32(d) + 1)
}

fn i64_len(n: i64) -> usize {
    usize::from(n < 0) + u64_len(n.unsigned_abs())
}

fn milli_len(m: i64) -> usize {
    usize::from(m < 0) + u64_len(m.unsigned_abs() / 1000) + 4
}

fn rack_len(rack: RackId) -> usize {
    // "(" row ", " column ")"
    4 + u64_len(u64::from(rack.row())) + if rack.column() >= 16 { 2 } else { 1 }
}

/// The renderers emit ASCII only, so the UTF-8 check always passes.
fn ascii_string(buf: Vec<u8>) -> String {
    String::from_utf8(buf).unwrap_or_default()
}

/// The float a milli-unit value decodes to — identical to parsing its
/// decimal rendering (both are the correctly-rounded double of the
/// same real number).
#[must_use]
pub fn f64_from_milli(m: i64) -> f64 {
    convert::f64_from_i64(m) / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_milli_matches_float_rendering() {
        for v in [
            0.0, 1.0, -1.0, 70.1234, 25.9995, 64.0005, -12.345, 99999.111, 0.001, -0.001,
        ] {
            let m = milli_from_f64(v);
            assert_eq!(format_milli(m), format!("{v:.3}"), "{v}");
        }
    }

    #[test]
    fn negative_zero_band_normalizes() {
        // {:.3} renders these as "-0.000"; the integer domain folds
        // them to plain zero and every backend renders "0.000".
        for v in [-0.0, -0.0004] {
            assert_eq!(milli_from_f64(v), 0);
            assert_eq!(format_milli(milli_from_f64(v)), "0.000");
        }
    }

    #[test]
    fn non_finite_quantizes_to_zero() {
        assert_eq!(milli_from_f64(f64::NAN), 0);
        assert_eq!(milli_from_f64(f64::INFINITY), 0);
        assert_eq!(milli_from_f64(f64::NEG_INFINITY), 0);
    }

    #[test]
    fn canonical_fields_parse_exactly() {
        assert_eq!(milli_from_str("70.123"), Some(70_123));
        assert_eq!(milli_from_str("-3.5"), Some(-3_500));
        assert_eq!(milli_from_str("42"), Some(42_000));
        assert_eq!(milli_from_str(" 0.000 "), Some(0));
        // Non-canonical but numeric: falls back to float quantization.
        assert_eq!(milli_from_str("1e3"), Some(1_000_000));
        assert_eq!(milli_from_str("70.12345"), Some(70_123));
        assert_eq!(milli_from_str("nope"), None);
    }

    #[test]
    fn f64_from_milli_matches_text_parse() {
        for m in [0i64, 70_123, -12_345, 999_999_999, 1, -1] {
            let text = format_milli(m);
            let parsed: f64 = text.parse().expect("decimal");
            assert_eq!(f64_from_milli(m).to_bits(), parsed.to_bits(), "{text}");
        }
    }

    #[test]
    fn projection_masks_value_channels_only() {
        let p = Projection::only(&[Channel::FlowGpm, Channel::Time]);
        assert!(p.contains(Channel::Time));
        assert!(p.contains(Channel::Rack));
        assert!(p.contains(Channel::FlowGpm));
        assert!(!p.contains(Channel::PowerKw));
        assert_eq!(p.value_count(), 1);
        assert_eq!(Projection::all().value_count(), 6);
        assert_eq!(Projection::keys_only().value_count(), 0);
    }

    #[test]
    fn ndjson_keys_are_the_channel_tags() {
        for (key, ch) in NDJSON_VALUE_KEYS.iter().zip(Channel::VALUES) {
            assert_eq!(*key, format!(",\"{}\":", ch.tag()).as_bytes());
        }
        let rec = TelemetryRecord {
            time: SimTime::from_epoch_seconds(-5),
            rack: RackId::new(2, 15),
            milli: [1, -22, 333, -4_444, 55_555, -666_666],
        };
        assert_eq!(rec.ndjson_row().len(), rec.csv_len() + 81);
    }

    #[test]
    fn ras_rows_render_and_count_like_display() {
        use mira_ras::{FailureKind, Severity};
        for (i, kind) in (0i64..).zip(FailureKind::ALL) {
            for severity in [Severity::Warn, Severity::Fatal] {
                let e = RasEvent {
                    time: SimTime::from_epoch_seconds(-7 + i * 1_000_003),
                    rack: RackId::from_index(usize::try_from(i * 7).unwrap()),
                    kind,
                    severity,
                };
                let mut buf = Vec::new();
                write_ras_csv(&e, &mut buf);
                let want = format!(
                    "{},{},{},{severity}",
                    e.time.epoch_seconds(),
                    e.rack,
                    kind.tag()
                );
                assert_eq!(buf, want.as_bytes());
                assert_eq!(ras_csv_len(&e), buf.len());
            }
        }
    }

    #[test]
    fn exact_ties_round_half_to_even() {
        assert_eq!(milli_from_f64(0.0625), 62);
        assert_eq!(milli_from_f64(0.1875), 188);
        assert_eq!(milli_from_f64(-0.0625), -62);
        assert_eq!(milli_from_f64(f64::MIN_POSITIVE / 2.0), 0);
    }

    #[test]
    fn channel_tags_compose_the_header() {
        let tags: Vec<&str> = Channel::ALL.iter().map(|c| c.tag()).collect();
        assert_eq!(tags.join(","), TELEMETRY_HEADER);
    }
}
