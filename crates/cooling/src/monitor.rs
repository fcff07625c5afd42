//! The per-rack coolant monitor: sensors, calibration, telemetry record,
//! and alarm thresholds.
//!
//! Every rack carries a coolant monitor beside its internal loop's inlet
//! and outlet lines. Every 300 s it records: data-center temperature and
//! humidity near the rack, coolant flow, inlet and outlet coolant
//! temperature, and aggregate rack power. Sensor readings pass through a
//! per-device calibration and carry measurement noise. Threshold alarms
//! on the readings are what raise coolant monitor failure (CMF) events in
//! the RAS log.

use std::fmt;

use serde::{Deserialize, Serialize};

use mira_facility::RackId;
use mira_timeseries::{Duration, SimTime};
use mira_units::{condensation_margin, convert, Fahrenheit, Gpm, Kilowatts, RelHumidity};

/// The coolant monitor's sampling interval (300 s).
pub const SAMPLE_INTERVAL: Duration = Duration::from_seconds(300);

/// One 300-second telemetry record from a rack's coolant monitor — the
/// row format of the whole study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoolantMonitorSample {
    /// Sample timestamp.
    pub time: SimTime,
    /// Rack the monitor is attached to.
    pub rack: RackId,
    /// Data-center ambient temperature near the rack.
    pub dc_temperature: Fahrenheit,
    /// Data-center relative humidity near the rack.
    pub dc_humidity: RelHumidity,
    /// Coolant flow through the rack's internal loop.
    pub flow: Gpm,
    /// Inlet coolant temperature.
    pub inlet: Fahrenheit,
    /// Outlet coolant temperature.
    pub outlet: Fahrenheit,
    /// Aggregate power of the rack's four power enclosures.
    pub power: Kilowatts,
}

impl CoolantMonitorSample {
    /// The six telemetry channels as a fixed array, in [`Channel`] order —
    /// the feature vector layout used by the CMF predictor.
    #[must_use]
    // Raw NN feature vector; channel order is the unit contract. mira-lint: allow(raw-f64-in-public-api)
    pub fn channels(&self) -> [f64; 6] {
        [
            self.dc_temperature.value(),
            self.dc_humidity.value(),
            self.flow.value(),
            self.inlet.value(),
            self.outlet.value(),
            self.power.value(),
        ]
    }

    /// Condensation margin between the (cold) inlet line and the local
    /// dew point — the composite quantity the CMF alarm is defined over.
    #[must_use]
    pub fn condensation_margin(&self) -> Fahrenheit {
        condensation_margin(self.inlet, self.dc_temperature, self.dc_humidity)
    }
}

/// Identifies one of the six telemetry channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Channel {
    DcTemperature = 0,
    DcHumidity = 1,
    Flow = 2,
    Inlet = 3,
    Outlet = 4,
    Power = 5,
}

impl Channel {
    /// All channels in array order.
    pub const ALL: [Channel; 6] = [
        Channel::DcTemperature,
        Channel::DcHumidity,
        Channel::Flow,
        Channel::Inlet,
        Channel::Outlet,
        Channel::Power,
    ];

    /// Dense index in `0..6`.
    #[must_use]
    pub fn index(self) -> usize {
        // Dense unit-only enum discriminant.
        self as usize
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Channel::DcTemperature => "dc-temperature",
            Channel::DcHumidity => "dc-humidity",
            Channel::Flow => "coolant-flow",
            Channel::Inlet => "inlet-temperature",
            Channel::Outlet => "outlet-temperature",
            Channel::Power => "power",
        };
        f.write_str(name)
    }
}

/// Alarm levels a coolant monitor can raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MonitorAlarm {
    /// Dew point approaching the inlet-line temperature: condensation
    /// risk. This is the fatal CMF trigger.
    CondensationRisk,
    /// Coolant flow below the safe minimum.
    LowFlow,
    /// Outlet coolant temperature above the safe maximum.
    OverTemperature,
}

impl fmt::Display for MonitorAlarm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            MonitorAlarm::CondensationRisk => "condensation-risk",
            MonitorAlarm::LowFlow => "low-flow",
            MonitorAlarm::OverTemperature => "over-temperature",
        };
        f.write_str(name)
    }
}

/// Alarm thresholds configured on every monitor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlarmThresholds {
    /// Minimum allowed condensation margin before a fatal alarm.
    pub min_condensation_margin: Fahrenheit,
    /// Minimum allowed coolant flow.
    pub min_flow: Gpm,
    /// Maximum allowed outlet temperature.
    pub max_outlet: Fahrenheit,
}

impl AlarmThresholds {
    /// The Mira production thresholds.
    #[must_use]
    pub fn mira() -> Self {
        Self {
            min_condensation_margin: Fahrenheit::new(3.0),
            min_flow: Gpm::new(12.0),
            max_outlet: Fahrenheit::new(95.0),
        }
    }

    /// Checks a sample against the thresholds; returns the first alarm
    /// tripped (condensation dominates, then flow, then temperature).
    #[must_use]
    pub fn check(&self, sample: &CoolantMonitorSample) -> Option<MonitorAlarm> {
        if sample.condensation_margin() < self.min_condensation_margin {
            return Some(MonitorAlarm::CondensationRisk);
        }
        if sample.flow < self.min_flow {
            return Some(MonitorAlarm::LowFlow);
        }
        if sample.outlet > self.max_outlet {
            return Some(MonitorAlarm::OverTemperature);
        }
        None
    }
}

impl Default for AlarmThresholds {
    fn default() -> Self {
        Self::mira()
    }
}

/// A rack's coolant monitor: applies per-device calibration and
/// measurement noise to ground-truth conditions.
///
/// The monitors were regularly validated at ALCF (only one sensor was
/// replaced in six years), so calibration offsets are small and gains are
/// near unity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoolantMonitor {
    rack: RackId,
    seed: u64,
    /// Per-channel additive calibration offsets.
    offsets: [f64; 6],
    /// Per-channel measurement-noise scale (1 σ).
    noise: [f64; 6],
}

impl CoolantMonitor {
    /// Creates the monitor for a rack with deterministic calibration
    /// derived from the seed.
    #[must_use]
    // scales/offsets are fixed [f64; 6] indexed by enumerate() over a
    // six-element array. mira-lint: allow(panic-reachability)
    pub fn new(rack: RackId, seed: u64) -> Self {
        let mut offsets = [0.0; 6];
        // Channel-appropriate calibration scales: temperatures ±0.15 F,
        // humidity ±0.3 RH, flow ±0.25 GPM, power ±0.4 kW.
        let scales = [0.15, 0.30, 0.25, 0.15, 0.15, 0.40];
        for (i, offset) in offsets.iter_mut().enumerate() {
            *offset = unit_noise(seed, rack.index() as u64, i as u64, 0) * scales[i];
        }
        let noise = [0.12, 0.25, 0.18, 0.08, 0.10, 0.35];
        Self {
            rack,
            seed,
            offsets,
            noise,
        }
    }

    /// The rack this monitor instruments.
    #[must_use]
    pub fn rack(&self) -> RackId {
        self.rack
    }

    /// Produces the telemetry record for ground-truth conditions at `t`.
    ///
    /// One argument per physical channel: this mirrors the sensor wiring
    /// and keeps the channels' units type-checked at the call site.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    // `read` is only called with channel indices 0..6 into the fixed
    // [f64; 6] calibration arrays. mira-lint: allow(panic-reachability)
    pub fn observe(
        &self,
        t: SimTime,
        dc_temperature: Fahrenheit,
        dc_humidity: RelHumidity,
        flow: Gpm,
        inlet: Fahrenheit,
        outlet: Fahrenheit,
        power: Kilowatts,
    ) -> CoolantMonitorSample {
        let tick = t.epoch_seconds().cast_unsigned();
        // The rack prefix and the tick product are channel-independent;
        // hoisting them halves the hash work on the 48×6-channel sweep
        // hot path without changing a single output bit.
        let rack_base = self.seed ^ (self.rack.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let tick_term = tick.wrapping_mul(0x1656_67B1_9E37_79F9);
        let read = |i: usize, truth: f64| {
            truth + self.offsets[i] + finish_noise(rack_base, i as u64, tick_term) * self.noise[i]
        };
        CoolantMonitorSample {
            time: t,
            rack: self.rack,
            dc_temperature: Fahrenheit::new(read(0, dc_temperature.value())),
            dc_humidity: RelHumidity::new(read(1, dc_humidity.value())),
            flow: Gpm::new(read(2, flow.value()).max(0.0)),
            inlet: Fahrenheit::new(read(3, inlet.value())),
            outlet: Fahrenheit::new(read(4, outlet.value())),
            power: Kilowatts::new(read(5, power.value()).max(0.0)),
        }
    }
}

/// Structure-of-arrays view of a fleet of [`CoolantMonitor`]s for the
/// batched sweep observation kernel.
///
/// Per channel (channel-major rows, one slot per rack) the bank
/// precomputes the channel-dependent hash prefix
/// `rack_base ^ channel * K` — the part of [`finish_noise`]'s input that
/// does not depend on the tick — plus the calibration offset and noise
/// scale. [`MonitorBank::observe_lanes`] then applies the identical
/// avalanche tail and calibration arithmetic lane by lane, so every
/// output bit matches [`CoolantMonitor::observe`].
#[derive(Debug, Clone)]
pub struct MonitorBank {
    lanes: usize,
    /// `rack_base ^ channel·K` per slot (channel-major).
    bases: Vec<u64>,
    /// Additive calibration offset per slot.
    offsets: Vec<f64>,
    /// Measurement-noise scale per slot.
    noise: Vec<f64>,
    /// Per-lane avalanche scratch for [`Self::observe_lanes`]: keeping
    /// the integer hash pass and the floating-point calibration pass in
    /// separate loops lets each vectorize on its own register class.
    hash: Vec<u64>,
}

impl MonitorBank {
    /// Builds the bank over a fleet of monitors (one lane per monitor,
    /// in slice order).
    #[must_use]
    // Bank constructor: builds the channel-major rows once per worker
    // (via sweep_scratch), never in the per-step fold; `c` indexes the
    // monitors' fixed `[_; 6]` channel arrays.
    // mira-lint: allow(alloc-in-hot-path, panic-reachability)
    pub fn new(monitors: &[CoolantMonitor]) -> Self {
        let lanes = monitors.len();
        let mut bases = Vec::with_capacity(6 * lanes);
        let mut offsets = Vec::with_capacity(6 * lanes);
        let mut noise = Vec::with_capacity(6 * lanes);
        for c in 0..6usize {
            for m in monitors {
                let rack_base =
                    m.seed ^ (m.rack.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                bases.push(rack_base ^ (c as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F));
                offsets.push(m.offsets[c]);
                noise.push(m.noise[c]);
            }
        }
        Self {
            lanes,
            bases,
            offsets,
            noise,
            hash: vec![0; lanes],
        }
    }

    /// Number of monitor lanes in the bank.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// [`CoolantMonitor::observe`] for every rack at once: `truth[c]`
    /// holds channel `c`'s ground-truth lanes (in [`Channel`] order) and
    /// `out[c]` receives the observed readings.
    ///
    /// Channel semantics match the sample constructors bit for bit:
    /// humidity readings are clamped into `[0, 100]` (as
    /// `RelHumidity::new` does) and flow/power readings are floored at
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if any lane slice differs from `self.lanes()`.
    // Raw f64 channel lanes; the materialized per-step view re-wraps
    // them in their unit newtypes. Rows are sized `6 * lanes` by the
    // constructor, every lane slice is length-asserted, and `c < 6`.
    // mira-lint: allow(raw-f64-in-public-api, panic-reachability)
    pub fn observe_lanes(&mut self, t: SimTime, truth: [&[f64]; 6], out: [&mut [f64]; 6]) {
        let lanes = self.lanes;
        let tick = t.epoch_seconds().cast_unsigned();
        let tick_term = tick.wrapping_mul(0x1656_67B1_9E37_79F9);
        for (c, (tr, o)) in truth.into_iter().zip(out).enumerate() {
            // Documented panic contract: one slot per lane per channel.
            // mira-lint: allow(panic-reachability)
            assert_eq!(tr.len(), lanes, "one truth slot per lane");
            assert_eq!(o.len(), lanes, "one output slot per lane");
            let row = c * lanes..(c + 1) * lanes;
            let bases = &self.bases[row.clone()];
            let offsets = &self.offsets[row.clone()];
            let noise = &self.noise[row];
            let hash = &mut self.hash[..lanes];
            for (h, &b) in hash.iter_mut().zip(bases) {
                // Avalanche tail of `finish_noise` with the channel
                // prefix precomputed in `bases`.
                let mut z = b.wrapping_add(tick_term);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                *h = z >> 11;
            }
            for l in 0..lanes {
                let n = convert::f64_from_u64(hash[l]) / 9_007_199_254_740_992.0 * 2.0 - 1.0;
                o[l] = tr[l] + offsets[l] + n * noise[l];
            }
            match c {
                // `RelHumidity::new` clamps into [0, 100].
                1 => {
                    for v in o.iter_mut() {
                        *v = v.clamp(0.0, 100.0);
                    }
                }
                // Flow and power are floored at zero by `observe`.
                2 | 5 => {
                    for v in o.iter_mut() {
                        *v = v.max(0.0);
                    }
                }
                _ => {}
            }
        }
    }
}

/// Deterministic white noise in `[-1, 1]` keyed by (seed, rack, channel,
/// tick) — sensor noise that is reproducible across runs.
fn unit_noise(seed: u64, rack: u64, channel: u64, tick: u64) -> f64 {
    finish_noise(
        seed ^ rack.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        channel,
        tick.wrapping_mul(0x1656_67B1_9E37_79F9),
    )
}

/// Tail of [`unit_noise`] with the channel-independent rack prefix and
/// tick product already folded in (hoisted once per observation on the
/// sweep hot path).
fn finish_noise(rack_base: u64, channel: u64, tick_term: u64) -> f64 {
    let mut z = rack_base ^ channel.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    z = z.wrapping_add(tick_term);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // 2^53 = 9_007_199_254_740_992: top 53 bits map exactly onto the
    // f64 mantissa.
    convert::f64_from_u64(z >> 11) / 9_007_199_254_740_992.0 * 2.0 - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_timeseries::Date;

    fn truth_sample(monitor: &CoolantMonitor, t: SimTime) -> CoolantMonitorSample {
        monitor.observe(
            t,
            Fahrenheit::new(80.0),
            RelHumidity::new(33.0),
            Gpm::new(26.0),
            Fahrenheit::new(64.0),
            Fahrenheit::new(79.0),
            Kilowatts::new(58.0),
        )
    }

    #[test]
    fn observation_is_close_to_truth() {
        let m = CoolantMonitor::new(RackId::new(0, 0), 7);
        let s = truth_sample(&m, SimTime::from_date(Date::new(2015, 5, 1)));
        assert!((s.dc_temperature.value() - 80.0).abs() < 1.0);
        assert!((s.flow.value() - 26.0).abs() < 1.5);
        assert!((s.inlet.value() - 64.0).abs() < 0.8);
        assert!((s.power.value() - 58.0).abs() < 2.0);
    }

    #[test]
    fn observation_is_deterministic() {
        let m = CoolantMonitor::new(RackId::new(1, 4), 7);
        let t = SimTime::from_date(Date::new(2015, 5, 1));
        assert_eq!(truth_sample(&m, t), truth_sample(&m, t));
    }

    #[test]
    fn noise_varies_over_time() {
        let m = CoolantMonitor::new(RackId::new(1, 4), 7);
        let t = SimTime::from_date(Date::new(2015, 5, 1));
        let a = truth_sample(&m, t);
        let b = truth_sample(&m, t + SAMPLE_INTERVAL);
        assert_ne!(a.inlet, b.inlet);
    }

    #[test]
    fn bank_observation_is_bit_identical_to_scalar_observe() {
        let monitors: Vec<CoolantMonitor> = (0..48)
            .map(|i| CoolantMonitor::new(RackId::from_index(i), 7))
            .collect();
        let mut bank = MonitorBank::new(&monitors);
        assert_eq!(bank.lanes(), 48);
        let mut tr = [[0.0f64; 48]; 6];
        let mut obs = [[0.0f64; 48]; 6];
        let base_t = SimTime::from_date(Date::new(2015, 5, 1));
        for k in 0..50i64 {
            let t = base_t + SAMPLE_INTERVAL * k;
            // Six parallel rows are written at the same lane index.
            #[allow(clippy::needless_range_loop)]
            for l in 0..48usize {
                let x = l as f64;
                // Includes truths that trip the humidity clamp and the
                // flow/power zero floor.
                tr[0][l] = 80.0 + x * 0.1;
                tr[1][l] = if l % 7 == 0 { 99.9 } else { 33.0 + x };
                tr[2][l] = if l % 11 == 0 { 0.05 } else { 26.0 };
                tr[3][l] = 64.0 + x * 0.01;
                tr[4][l] = 79.0;
                tr[5][l] = if l % 13 == 0 { 0.1 } else { 58.0 };
            }
            let [t0, t1, t2, t3, t4, t5] = &tr;
            let [o0, o1, o2, o3, o4, o5] = &mut obs;
            bank.observe_lanes(t, [t0, t1, t2, t3, t4, t5], [o0, o1, o2, o3, o4, o5]);
            for (l, m) in monitors.iter().enumerate() {
                let s = m.observe(
                    t,
                    Fahrenheit::new(tr[0][l]),
                    RelHumidity::new(tr[1][l]),
                    Gpm::new(tr[2][l]),
                    Fahrenheit::new(tr[3][l]),
                    Fahrenheit::new(tr[4][l]),
                    Kilowatts::new(tr[5][l]),
                );
                assert_eq!(obs[0][l].to_bits(), s.dc_temperature.value().to_bits());
                assert_eq!(obs[1][l].to_bits(), s.dc_humidity.value().to_bits());
                assert_eq!(obs[2][l].to_bits(), s.flow.value().to_bits());
                assert_eq!(obs[3][l].to_bits(), s.inlet.value().to_bits());
                assert_eq!(obs[4][l].to_bits(), s.outlet.value().to_bits());
                assert_eq!(obs[5][l].to_bits(), s.power.value().to_bits());
            }
        }
    }

    #[test]
    fn calibration_differs_per_rack() {
        let a = CoolantMonitor::new(RackId::new(0, 1), 7);
        let b = CoolantMonitor::new(RackId::new(0, 2), 7);
        assert_ne!(a.offsets, b.offsets);
    }

    #[test]
    fn channels_array_matches_fields() {
        let m = CoolantMonitor::new(RackId::new(0, 0), 7);
        let s = truth_sample(&m, SimTime::from_date(Date::new(2015, 5, 1)));
        let c = s.channels();
        assert_eq!(c[Channel::Flow.index()], s.flow.value());
        assert_eq!(c[Channel::Power.index()], s.power.value());
        assert_eq!(Channel::ALL.len(), 6);
    }

    #[test]
    fn healthy_sample_raises_no_alarm() {
        let m = CoolantMonitor::new(RackId::new(0, 0), 7);
        let s = truth_sample(&m, SimTime::from_date(Date::new(2015, 5, 1)));
        assert_eq!(AlarmThresholds::mira().check(&s), None);
    }

    #[test]
    fn condensation_alarm_trips_on_humid_air_and_cold_inlet() {
        let m = CoolantMonitor::new(RackId::new(0, 0), 7);
        let s = m.observe(
            SimTime::from_date(Date::new(2015, 7, 1)),
            Fahrenheit::new(82.0),
            RelHumidity::new(60.0),
            Gpm::new(26.0),
            Fahrenheit::new(58.0),
            Fahrenheit::new(73.0),
            Kilowatts::new(58.0),
        );
        assert_eq!(
            AlarmThresholds::mira().check(&s),
            Some(MonitorAlarm::CondensationRisk)
        );
    }

    #[test]
    fn low_flow_alarm() {
        let m = CoolantMonitor::new(RackId::new(0, 0), 7);
        let s = m.observe(
            SimTime::from_date(Date::new(2015, 7, 1)),
            Fahrenheit::new(80.0),
            RelHumidity::new(30.0),
            Gpm::new(5.0),
            Fahrenheit::new(64.0),
            Fahrenheit::new(79.0),
            Kilowatts::new(58.0),
        );
        assert_eq!(
            AlarmThresholds::mira().check(&s),
            Some(MonitorAlarm::LowFlow)
        );
    }

    #[test]
    fn over_temperature_alarm() {
        let m = CoolantMonitor::new(RackId::new(0, 0), 7);
        let s = m.observe(
            SimTime::from_date(Date::new(2015, 7, 1)),
            Fahrenheit::new(80.0),
            RelHumidity::new(30.0),
            Gpm::new(26.0),
            Fahrenheit::new(64.0),
            Fahrenheit::new(98.0),
            Kilowatts::new(58.0),
        );
        assert_eq!(
            AlarmThresholds::mira().check(&s),
            Some(MonitorAlarm::OverTemperature)
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(Channel::Inlet.to_string(), "inlet-temperature");
        assert_eq!(
            MonitorAlarm::CondensationRisk.to_string(),
            "condensation-risk"
        );
    }
}
