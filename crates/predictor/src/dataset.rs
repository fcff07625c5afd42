//! Balanced dataset extraction from telemetry plus the CMF ground truth.
//!
//! Following the paper's methodology: for every CMF, the six hours of
//! coolant telemetry leading up to it (at the chosen lead time) becomes a
//! class-one example; an equal number of class-zero windows is collected
//! evenly across the whole production period, at times with no CMF
//! within the following six hours on the sampled rack.

use serde::{Deserialize, Serialize};

use mira_cooling::CoolantMonitorSample;
use mira_facility::RackId;
use mira_nn::Dataset;
use mira_timeseries::{Duration, SimTime};
use mira_units::convert;

use crate::features::FeatureConfig;

/// Random-access source of coolant-monitor telemetry.
///
/// The simulator's telemetry is a pure function of `(rack, time)`, so
/// training data can be extracted for any instant without replaying the
/// whole history.
pub trait TelemetryProvider {
    /// The coolant-monitor sample for `rack` at `t`.
    fn sample(&self, rack: RackId, t: SimTime) -> CoolantMonitorSample;

    /// The telemetry sampling interval (300 s on Mira).
    fn interval(&self) -> Duration {
        Duration::from_seconds(300)
    }

    /// Floor-wide median of each telemetry channel at `t` — the common
    /// mode that differential features divide out. The default samples
    /// all 48 racks; engines with a cheaper path should override.
    fn floor_median(&self, t: SimTime) -> [f64; 6] {
        let mut columns: [Vec<f64>; 6] = Default::default();
        for rack in RackId::all() {
            let ch = self.sample(rack, t).channels();
            for (col, v) in columns.iter_mut().zip(ch) {
                col.push(v);
            }
        }
        let mut out = [0.0; 6];
        for (o, col) in out.iter_mut().zip(columns.iter_mut()) {
            col.sort_by(f64::total_cmp);
            // One value per rack: the column is never empty.
            *o = col.get(col.len() / 2).copied().unwrap_or(f64::NAN);
        }
        out
    }
}

/// Builds balanced CMF prediction datasets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetBuilder {
    features: FeatureConfig,
    /// Full CMF ground truth: (failure time, rack), time-ordered. Used
    /// to keep negatives clean even when only a subset of events
    /// provides positives.
    all_cmfs: Vec<(SimTime, RackId)>,
    /// The events whose pre-failure windows become positives (defaults
    /// to all of them; an event-level split restricts this).
    positives: Vec<(SimTime, RackId)>,
    /// Production period for negative sampling.
    production: (SimTime, SimTime),
    /// Salt decorrelating this builder's negative grid from any other
    /// builder's (in particular a train/eval pair's).
    negative_salt: u64,
}

impl DatasetBuilder {
    /// Creates a builder.
    ///
    /// # Panics
    ///
    /// Panics if the production window is empty or no CMFs are given.
    #[must_use]
    pub fn new(
        features: FeatureConfig,
        mut cmfs: Vec<(SimTime, RackId)>,
        production: (SimTime, SimTime),
    ) -> Self {
        assert!(production.0 < production.1, "empty production window");
        assert!(!cmfs.is_empty(), "need at least one CMF");
        cmfs.sort_by_key(|(t, _)| *t);
        Self {
            features,
            positives: cmfs.clone(),
            all_cmfs: cmfs,
            production,
            negative_salt: 0,
        }
    }

    /// Splits the builder at the *event* level: the first builder's
    /// positives are a `train_fraction` share of the CMFs, the second's
    /// the rest, drawn by seeded shuffle. Both keep the full ground
    /// truth for negative cleanliness, and their negative grids use
    /// different salts — so nothing the second builder produces (rows,
    /// events, or grid points) was available to a model trained on the
    /// first. This is what makes a lead-time sweep honest.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < train_fraction < 1` leaves both sides at
    /// least one event.
    #[must_use]
    // `order` is a permutation of 0..all_cmfs.len(); every index drawn
    // from it is in bounds. mira-lint: allow(panic-reachability)
    pub fn split_events(&self, train_fraction: f64, seed: u64) -> (Self, Self) {
        assert!(
            train_fraction > 0.0 && train_fraction < 1.0,
            "train fraction must be in (0, 1)"
        );
        let mut order: Vec<usize> = (0..self.all_cmfs.len()).collect();
        // Seeded Fisher-Yates (splitmix stream).
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for i in (1..order.len()).rev() {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let j =
                convert::usize_from_u64(state.wrapping_mul(0x2545_F491_4F6C_DD1D) % (i as u64 + 1));
            order.swap(i, j);
        }
        let cut = convert::usize_from_f64_round(
            convert::f64_from_usize(self.all_cmfs.len()) * train_fraction,
        );
        assert!(
            cut >= 1 && cut < self.all_cmfs.len(),
            "split leaves a side empty"
        );
        let make = |idx: &[usize], salt: u64| {
            let mut positives: Vec<(SimTime, RackId)> =
                idx.iter().map(|&i| self.all_cmfs[i]).collect();
            positives.sort_by_key(|(t, _)| *t);
            Self {
                features: self.features,
                all_cmfs: self.all_cmfs.clone(),
                positives,
                production: self.production,
                negative_salt: salt,
            }
        };
        (
            make(&order[..cut], seed ^ 0x7EA1),
            make(&order[cut..], seed ^ 0xE7A1),
        )
    }

    /// The feature configuration in use.
    #[must_use]
    pub fn features(&self) -> &FeatureConfig {
        &self.features
    }

    /// Extracts the feature window of `rack` ending at `end`
    /// (fetching floor medians too when the mode is differential).
    #[must_use]
    pub fn window_features<P: TelemetryProvider>(
        &self,
        provider: &P,
        rack: RackId,
        end: SimTime,
    ) -> Option<Vec<f64>> {
        let step = provider.interval();
        let n = (self.features.window.as_seconds() / step.as_seconds()).max(2);
        let start = end - self.features.window;
        let rows: Vec<[f64; 6]> = (0..n)
            .map(|i| {
                let t = start + step * i;
                let mut ch = provider.sample(rack, t).channels();
                if self.features.mode == crate::features::FeatureMode::DifferentialDeltas {
                    let median = provider.floor_median(t);
                    for (v, m) in ch.iter_mut().zip(median) {
                        *v /= m.abs().max(1e-6);
                    }
                }
                ch
            })
            .collect();
        self.features.extract_rows(&rows)
    }

    /// Whether `rack` suffers a CMF within `horizon` after `t` (checked
    /// against the *full* ground truth, not just this builder's
    /// positives).
    #[must_use]
    pub fn cmf_within(&self, rack: RackId, t: SimTime, horizon: Duration) -> bool {
        let idx = self.all_cmfs.partition_point(|(ct, _)| *ct < t);
        // partition_point is at most len, so the open range cannot
        // panic. mira-lint: allow(panic-reachability)
        self.all_cmfs[idx..]
            .iter()
            .take_while(|(ct, _)| *ct - t <= horizon)
            .any(|(_, cr)| *cr == rack)
    }

    /// The balanced evaluation points for a lead time: positive window
    /// ends (`lead` before each CMF, on the failing rack) and an equal
    /// number of clean negative window ends sampled evenly across
    /// production. `true` marks the positive class.
    #[must_use]
    pub fn sample_points(&self, lead: Duration) -> Vec<(RackId, SimTime, bool)> {
        let mut points = Vec::new();

        // Positive class: telemetry leading up to each positive event.
        for &(cmf_time, rack) in &self.positives {
            let end = cmf_time - lead;
            if end - self.features.window < self.production.0 {
                continue;
            }
            points.push((rack, end, true));
        }

        // Negative class: spread across production, racks and offsets
        // drawn from a salted hash of (lead, k) so every lead — and
        // every builder — gets its own grid. (A shared deterministic
        // grid would leak: evaluation negatives identical to training
        // negatives measure memorization, not generalization.)
        let needed = points.len();
        let span = self.production.1 - self.production.0;
        // Oversample candidates: some get rejected near CMFs.
        let candidates = needed * 2 + 8;
        let stride =
            Duration::from_seconds(span.as_seconds() / convert::i64_from_usize(candidates));
        let salt = self
            .negative_salt
            .wrapping_mul(0xD131_0BA6_98DF_B5AC)
            .wrapping_add(
                lead.as_seconds()
                    .cast_unsigned()
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
        let mut negatives = 0usize;
        let mut k = 0usize;
        while negatives < needed && k < candidates * 2 {
            let mut h = salt.wrapping_add((k as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
            h = (h ^ (h >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
            let jitter = Duration::from_seconds(convert::i64_from_u64(
                h % stride.as_seconds().max(1).cast_unsigned(),
            ));
            let end = self.production.0
                + self.features.window
                + stride * convert::i64_from_usize(k)
                + jitter;
            k += 1;
            if end >= self.production.1 {
                continue;
            }
            let rack = convert::usize_from_u64((h >> 32) % RackId::COUNT as u64);
            let rack = RackId::from_index(rack);
            // Clean negatives: no CMF on this rack within the horizon
            // after the window, nor during the window itself.
            if self.cmf_within(rack, end, self.features.window + lead)
                || self.cmf_within(rack, end - self.features.window, self.features.window)
            {
                continue;
            }
            points.push((rack, end, false));
            negatives += 1;
        }
        points
    }

    /// Builds a balanced training dataset with positive windows ending
    /// `lead` before each CMF and an equal number of negatives sampled
    /// evenly across production time.
    ///
    /// Windows whose features cannot be extracted are skipped.
    #[must_use]
    pub fn build<P: TelemetryProvider>(&self, provider: &P, lead: Duration) -> Dataset {
        let mut data = Dataset::empty();
        for (rack, end, positive) in self.sample_points(lead) {
            if let Some(f) = self.window_features(provider, rack, end) {
                data.push(f, f64::from(u8::from(positive)));
            }
        }
        data
    }

    /// Hard negatives: healthy windows that *look* eventful.
    ///
    /// Evenly-sampled negatives are telemetry at its quietest, so a
    /// model trained only on them learns "any big change means failure"
    /// and cries wolf in deployment — exactly the false-positive problem
    /// the paper worries about. The two benign-change generators on Mira
    /// are (a) post-outage recoveries (a rack coming back from its six
    /// dark hours swings every channel) and (b) Monday maintenance
    /// transitions (burner jobs collapse power and outlet). One window
    /// of each flavour per CMF, verified clean of upcoming failures.
    #[must_use]
    pub fn hard_negative_points(&self) -> Vec<(RackId, SimTime, bool)> {
        let mut points = Vec::new();
        let window = self.features.window;
        for (i, &(cmf_time, rack)) in self.positives.iter().enumerate() {
            // (a) The same rack's recovery: window covering the power-up
            // transition, ending 7 h after the failure.
            let recovery_end = cmf_time + Duration::from_hours(7);
            if recovery_end < self.production.1
                && !self.cmf_within(rack, recovery_end, window + Duration::from_hours(6))
            {
                points.push((rack, recovery_end, false));
            }
            // (b) A maintenance-Monday afternoon on a rotating healthy
            // rack: the window spans the 9 AM drain and burner handoff.
            let monday = next_monday_after(
                self.production.0
                    + Duration::from_days(7 * (convert::i64_from_usize(i) + 1) % 2100),
            ) + Duration::from_hours(15);
            let other = RackId::from_index((i * 13 + 5) % RackId::COUNT);
            if monday < self.production.1
                && !self.cmf_within(other, monday, window + Duration::from_hours(6))
                && !self.cmf_within(other, monday - window, window)
            {
                points.push((other, monday, false));
            }
        }
        points
    }

    /// The events providing this builder's positive windows (the full
    /// ground truth unless [`DatasetBuilder::split_events`] restricted
    /// it).
    #[must_use]
    pub fn cmfs(&self) -> &[(SimTime, RackId)] {
        &self.positives
    }

    /// The full CMF ground truth used for negative cleanliness.
    #[must_use]
    pub fn all_cmfs(&self) -> &[(SimTime, RackId)] {
        &self.all_cmfs
    }

    /// The production span.
    #[must_use]
    pub fn production(&self) -> (SimTime, SimTime) {
        self.production
    }
}

/// Midnight of the first Monday at or after `t`.
fn next_monday_after(t: SimTime) -> SimTime {
    let mut date = t.date();
    while date.weekday() != mira_timeseries::Weekday::Monday {
        date = date.plus_days(1);
    }
    SimTime::from_date(date)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_cooling::PrecursorSignature;
    use mira_timeseries::Date;
    use mira_units::{Fahrenheit, Gpm, Kilowatts, RelHumidity};

    /// A toy provider: flat telemetry except a precursor signature
    /// before the known CMFs.
    struct ToyProvider {
        cmfs: Vec<(SimTime, RackId)>,
        signature: PrecursorSignature,
    }

    impl TelemetryProvider for ToyProvider {
        fn sample(&self, rack: RackId, t: SimTime) -> CoolantMonitorSample {
            let mut inlet = 64.0;
            let mut flow = 26.0;
            for &(ct, cr) in &self.cmfs {
                if cr == rack && ct >= t && (ct - t) <= Duration::from_hours(6) {
                    inlet *= self.signature.inlet_factor(ct - t);
                    flow *= self.signature.flow_factor(ct - t);
                }
            }
            CoolantMonitorSample {
                time: t,
                rack,
                dc_temperature: Fahrenheit::new(80.0),
                dc_humidity: RelHumidity::new(33.0),
                flow: Gpm::new(flow),
                inlet: Fahrenheit::new(inlet),
                outlet: Fahrenheit::new(79.0),
                power: Kilowatts::new(58.0),
            }
        }
    }

    fn setup() -> (ToyProvider, DatasetBuilder) {
        let start = SimTime::from_date(Date::new(2015, 1, 1));
        let end = SimTime::from_date(Date::new(2015, 12, 31));
        let cmfs: Vec<(SimTime, RackId)> = (0..12)
            .map(|i| {
                (
                    start + Duration::from_days(20 + i * 25),
                    RackId::from_index((i * 5 % 48) as usize),
                )
            })
            .collect();
        let provider = ToyProvider {
            cmfs: cmfs.clone(),
            signature: PrecursorSignature::mira(),
        };
        let builder = DatasetBuilder::new(FeatureConfig::mira(), cmfs, (start, end));
        (provider, builder)
    }

    #[test]
    fn builds_balanced_dataset() {
        let (provider, builder) = setup();
        let data = builder.build(&provider, Duration::from_minutes(30));
        assert!(data.len() >= 20, "dataset of {}", data.len());
        let pos = data.positives();
        assert_eq!(data.len(), pos * 2, "balanced classes");
        assert_eq!(data.width(), 36);
    }

    #[test]
    fn positive_windows_carry_signature() {
        let (provider, builder) = setup();
        let data = builder.build(&provider, Duration::from_minutes(30));
        // Positive rows must have larger feature magnitudes than
        // negatives (flat telemetry → zero deltas).
        let mut pos_norm = 0.0;
        let mut neg_norm = 0.0;
        for (f, &l) in data.features().iter().zip(data.labels()) {
            let norm: f64 = f.iter().map(|v| v.abs()).sum();
            if l >= 0.5 {
                pos_norm += norm;
            } else {
                neg_norm += norm;
            }
        }
        assert!(pos_norm > neg_norm * 10.0, "pos {pos_norm} neg {neg_norm}");
    }

    #[test]
    fn cmf_within_detects_lookahead() {
        let (_, builder) = setup();
        let (t, r) = builder.positives[0];
        assert!(builder.cmf_within(r, t - Duration::from_hours(3), Duration::from_hours(6)));
        assert!(!builder.cmf_within(r, t + Duration::from_minutes(1), Duration::from_hours(6)));
        let other = RackId::from_index((r.index() + 1) % 48);
        assert!(!builder.cmf_within(other, t - Duration::from_hours(3), Duration::from_hours(6)));
    }

    #[test]
    fn longer_lead_weakens_signature() {
        let (provider, builder) = setup();
        let near = builder.build(&provider, Duration::from_minutes(30));
        let far = builder.build(&provider, Duration::from_hours(5));
        let mean_pos_norm = |d: &Dataset| {
            let mut total = 0.0;
            let mut n = 0;
            for (f, &l) in d.features().iter().zip(d.labels()) {
                if l >= 0.5 {
                    total += f.iter().map(|v| v.abs()).sum::<f64>();
                    n += 1;
                }
            }
            total / f64::from(n.max(1))
        };
        assert!(mean_pos_norm(&near) > mean_pos_norm(&far));
    }

    #[test]
    #[should_panic(expected = "need at least one CMF")]
    fn requires_cmfs() {
        let start = SimTime::from_date(Date::new(2015, 1, 1));
        let end = SimTime::from_date(Date::new(2016, 1, 1));
        let _ = DatasetBuilder::new(FeatureConfig::mira(), vec![], (start, end));
    }
}
