//! Location-aware prediction — the paper's requested next step.
//!
//! Sec. VI-B: "operationally it will be even more useful to have a
//! predictor which even predicts the location of an impeding CMF from
//! the overall coolant telemetry of the datacenter." This module scores
//! *every* rack's trailing window with a trained [`CmfPredictor`] and
//! ranks them — turning the per-rack binary model into a floor-wide
//! localization tool evaluated by top-k hit rate.

use serde::{Deserialize, Serialize};

use mira_facility::RackId;
use mira_timeseries::Duration;
use mira_units::convert;

use crate::dataset::{DatasetBuilder, TelemetryProvider};
use crate::pipeline::CmfPredictor;

/// Ranked per-rack failure probabilities at one instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RackRanking {
    /// `(rack, probability)` sorted most-suspicious first.
    pub ranked: Vec<(RackId, f64)>,
}

impl RackRanking {
    /// 0-based rank of `rack` (None if scoring failed for it).
    #[must_use]
    pub fn rank_of(&self, rack: RackId) -> Option<usize> {
        self.ranked.iter().position(|(r, _)| *r == rack)
    }

    /// The `k` most suspicious racks.
    #[must_use]
    pub fn top(&self, k: usize) -> Vec<RackId> {
        self.ranked.iter().take(k).map(|(r, _)| *r).collect()
    }
}

/// Top-k localization quality over a set of failures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TopKAccuracy {
    /// The k evaluated.
    pub k: usize,
    /// Fraction of failures whose rack ranked within the top k.
    pub hit_rate: f64,
    /// Mean 0-based rank of the failing rack.
    pub mean_rank: f64,
    /// Failures evaluated.
    pub events: usize,
}

/// Floor-wide localization on top of a trained per-rack predictor.
#[derive(Debug)]
pub struct LocationPredictor<'a> {
    predictor: &'a CmfPredictor,
    builder: &'a DatasetBuilder,
}

impl<'a> LocationPredictor<'a> {
    /// Wraps a trained predictor and its dataset builder (for window
    /// extraction).
    #[must_use]
    pub fn new(predictor: &'a CmfPredictor, builder: &'a DatasetBuilder) -> Self {
        Self { predictor, builder }
    }

    /// Scores all 48 racks at `t` from one floor window and ranks them
    /// most-suspicious first.
    #[must_use]
    pub fn rank_at<P: TelemetryProvider>(
        &self,
        provider: &P,
        t: mira_timeseries::SimTime,
    ) -> RackRanking {
        let rows = self.builder.floor_window(provider, t);
        let mut ranked: Vec<(RackId, f64)> = RackId::all()
            .filter_map(|rack| {
                self.builder
                    .rack_features(&rows, rack)
                    .map(|f| (rack, self.predictor.predict(&f)))
            })
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        RackRanking { ranked }
    }

    /// Evaluates localization at a lead time over up to `max_events`
    /// failures: for each CMF, rank the floor `lead` beforehand and
    /// check where the failing rack landed.
    #[must_use]
    pub fn top_k_accuracy<P: TelemetryProvider>(
        &self,
        provider: &P,
        lead: Duration,
        k: usize,
        max_events: usize,
    ) -> TopKAccuracy {
        let mut hits = 0usize;
        let mut rank_sum = 0usize;
        let mut events = 0usize;
        for &(cmf_time, rack) in self.builder.cmfs().iter().take(max_events) {
            let ranking = self.rank_at(provider, cmf_time - lead);
            let Some(rank) = ranking.rank_of(rack) else {
                continue;
            };
            events += 1;
            rank_sum += rank;
            if rank < k {
                hits += 1;
            }
        }
        TopKAccuracy {
            k,
            hit_rate: if events > 0 {
                convert::f64_from_usize(hits) / convert::f64_from_usize(events)
            } else {
                0.0
            },
            mean_rank: if events > 0 {
                convert::f64_from_usize(rank_sum) / convert::f64_from_usize(events)
            } else {
                0.0
            },
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureConfig;
    use crate::pipeline::PredictorConfig;
    use mira_cooling::{CoolantMonitorSample, PrecursorSignature};
    use mira_timeseries::{Date, SimTime};
    use mira_units::{Fahrenheit, Gpm, Kilowatts, RelHumidity};

    struct ToyProvider {
        cmfs: Vec<(SimTime, RackId)>,
        signature: PrecursorSignature,
    }

    impl TelemetryProvider for ToyProvider {
        fn sample(&self, rack: RackId, t: SimTime) -> CoolantMonitorSample {
            let mut h = (t.epoch_seconds() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= (rack.index() as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let noise = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            let mut inlet = 64.0;
            let mut flow = 26.0;
            for &(ct, cr) in &self.cmfs {
                if cr == rack && ct >= t && (ct - t) <= self.signature.horizon() {
                    inlet *= self.signature.inlet_factor(ct - t);
                    flow *= self.signature.flow_factor(ct - t);
                }
            }
            CoolantMonitorSample {
                time: t,
                rack,
                dc_temperature: Fahrenheit::new(80.0 + noise),
                dc_humidity: RelHumidity::new(33.0 + noise),
                flow: Gpm::new(flow + noise * 0.3),
                inlet: Fahrenheit::new(inlet + noise * 0.12),
                outlet: Fahrenheit::new(79.0 + noise * 0.2),
                power: Kilowatts::new(58.0 + noise),
            }
        }
    }

    fn setup() -> (ToyProvider, DatasetBuilder) {
        let start = SimTime::from_date(Date::new(2015, 1, 1));
        let end = SimTime::from_date(Date::new(2017, 6, 1));
        let cmfs: Vec<(SimTime, RackId)> = (0..50)
            .map(|i| {
                (
                    start + Duration::from_days(12 + i * 17) + Duration::from_hours(i % 21),
                    RackId::from_index((i as usize * 13) % 48),
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
    fn localizes_the_failing_rack() {
        let (provider, builder) = setup();
        let config = PredictorConfig {
            epochs: 30,
            train_leads: vec![Duration::from_hours(1), Duration::from_hours(3)],
            ..PredictorConfig::default()
        };
        let (predictor, _) = CmfPredictor::train(&provider, &builder, &config);
        let loc = LocationPredictor::new(&predictor, &builder);

        // Two hours before a failure the sick rack should rank first or
        // nearly first.
        let acc = loc.top_k_accuracy(&provider, Duration::from_hours(2), 3, 25);
        assert!(acc.events >= 20);
        assert!(acc.hit_rate > 0.8, "top-3 hit rate {}", acc.hit_rate);
        assert!(acc.mean_rank < 5.0, "mean rank {}", acc.mean_rank);
    }

    #[test]
    fn ranking_orders_by_probability() {
        let (provider, builder) = setup();
        let config = PredictorConfig {
            epochs: 20,
            train_leads: vec![Duration::from_hours(1)],
            ..PredictorConfig::default()
        };
        let (predictor, _) = CmfPredictor::train(&provider, &builder, &config);
        let loc = LocationPredictor::new(&predictor, &builder);
        let (cmf_time, _) = builder.cmfs()[5];
        let ranking = loc.rank_at(&provider, cmf_time - Duration::from_hours(1));
        assert_eq!(ranking.ranked.len(), 48);
        for pair in ranking.ranked.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
        assert_eq!(ranking.top(3).len(), 3);
    }
}
