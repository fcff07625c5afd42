//! Train/evaluate pipeline for the CMF predictor.

use serde::{Deserialize, Serialize};

use mira_nn::{
    Activation, BinaryMetrics, Dataset, KFold, Loss, Mlp, Optimizer, Standardizer, TrainConfig,
};
use mira_timeseries::Duration;

use crate::dataset::{DatasetBuilder, TelemetryProvider};

/// Predictor hyper-parameters (defaults are the paper's).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictorConfig {
    /// Hidden layer widths (paper: 12, 12, 6, chosen by Bayesian
    /// optimization).
    pub hidden: Vec<usize>,
    /// Training epochs (paper: 50).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate for Adam.
    pub learning_rate: f64,
    /// Seed for initialization, shuffling and splits.
    pub seed: u64,
    /// Early-stopping patience on the validation split (None trains the
    /// full epoch budget, like the paper).
    pub patience: Option<usize>,
    /// Include hard negatives (recovery and maintenance windows) in the
    /// training diet. Off reproduces the paper's balanced dataset; on
    /// is the deployable-console setting that keeps false alerts down
    /// under distribution shift.
    pub hard_negatives: bool,
    /// Lead times whose positive windows are pooled for training.
    pub train_leads: Vec<Duration>,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self {
            hidden: vec![12, 12, 6],
            epochs: 50,
            batch_size: 32,
            learning_rate: 0.01,
            seed: 0,
            patience: None,
            hard_negatives: false,
            train_leads: vec![
                Duration::from_minutes(30),
                Duration::from_hours(1),
                Duration::from_hours(2),
                Duration::from_hours(3),
                Duration::from_hours(4),
                Duration::from_hours(5),
                Duration::from_hours(6),
            ],
        }
    }
}

impl PredictorConfig {
    fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            loss: Loss::BinaryCrossEntropy,
            optimizer: Optimizer::Adam {
                learning_rate: self.learning_rate,
                beta1: 0.9,
                beta2: 0.999,
            },
            seed: self.seed,
            patience: self.patience,
        }
    }
}

/// One point of the Fig. 13 lead-time sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LeadTimePoint {
    /// Lead time before the CMF.
    pub lead: Duration,
    /// Classification metrics at that lead.
    pub metrics: BinaryMetrics,
}

/// A trained CMF predictor: standardizer + MLP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CmfPredictor {
    standardizer: Standardizer,
    network: Mlp,
}

impl CmfPredictor {
    /// Trains a predictor on windows pooled over `config.train_leads`.
    ///
    /// Returns the predictor and its metrics on the held-out test part
    /// of the paper's 3 : 1 : 1 split.
    pub fn train<P: TelemetryProvider>(
        provider: &P,
        builder: &DatasetBuilder,
        config: &PredictorConfig,
    ) -> (Self, BinaryMetrics) {
        let mut data = pooled_dataset(provider, builder, &config.train_leads);
        if config.hard_negatives {
            builder.push_windows(provider, &builder.hard_negative_points(), &mut data);
        }
        Self::train_on(&data, config)
    }

    /// Trains on an already-built dataset (3 : 1 : 1 split inside).
    ///
    /// # Panics
    ///
    /// Panics if the dataset is too small to split.
    pub fn train_on(data: &Dataset, config: &PredictorConfig) -> (Self, BinaryMetrics) {
        assert!(data.len() >= 10, "dataset too small: {}", data.len());
        let shuffled = data.shuffled(config.seed ^ 0x5871_70CD);
        let parts = shuffled.split(&[3.0, 1.0, 1.0]);
        // split() returns one part per weight: exactly three here.
        // mira-lint: allow(panic-reachability)
        let (train, test, validation) = (&parts[0], &parts[1], &parts[2]);

        let standardizer = Standardizer::fit(train);
        let train_std = standardizer.transform(train);
        let val_std = standardizer.transform(validation);

        let mut widths = vec![data.width()];
        widths.extend_from_slice(&config.hidden);
        widths.push(1);
        let mut network = Mlp::new(&widths, Activation::Relu, Activation::Sigmoid, config.seed);
        network.train_with_validation(
            train_std.features(),
            train_std.labels(),
            val_std.features(),
            val_std.labels(),
            &config.train_config(),
        );

        let predictor = Self {
            standardizer,
            network,
        };
        let metrics = predictor.evaluate(test);
        (predictor, metrics)
    }

    /// Probability that a CMF is coming, for a raw feature vector.
    #[must_use]
    pub fn predict(&self, features: &[f64]) -> f64 {
        self.network
            .predict(&self.standardizer.transform_row(features))
    }

    /// Metrics over a raw (un-standardized) dataset.
    #[must_use]
    pub fn evaluate(&self, data: &Dataset) -> BinaryMetrics {
        let probs: Vec<f64> = data.features().iter().map(|f| self.predict(f)).collect();
        BinaryMetrics::from_predictions(&probs, data.labels())
    }

    /// Threshold-free ranking quality (ROC AUC) over a raw dataset.
    #[must_use]
    pub fn auc(&self, data: &Dataset) -> Option<f64> {
        let probs: Vec<f64> = data.features().iter().map(|f| self.predict(f)).collect();
        mira_nn::roc_auc(&probs, data.labels())
    }

    /// Evaluates the trained predictor at a specific lead time with a
    /// freshly built balanced dataset.
    #[must_use]
    pub fn evaluate_at<P: TelemetryProvider>(
        &self,
        provider: &P,
        builder: &DatasetBuilder,
        lead: Duration,
    ) -> BinaryMetrics {
        let data = builder.build(provider, lead);
        self.evaluate(&data)
    }

    /// Evaluates at a specific lead time and an explicit decision
    /// threshold — the deployed operating point (e.g. the operator
    /// console's alert threshold), where the paper's "false positives
    /// need to be minimized" constraint actually binds.
    #[must_use]
    pub fn evaluate_at_threshold<P: TelemetryProvider>(
        &self,
        provider: &P,
        builder: &DatasetBuilder,
        lead: Duration,
        threshold: f64,
    ) -> BinaryMetrics {
        let data = builder.build(provider, lead);
        let probs: Vec<f64> = data.features().iter().map(|f| self.predict(f)).collect();
        BinaryMetrics::from_predictions_at(&probs, data.labels(), threshold)
    }

    /// The Fig. 13 sweep: metrics at each lead time.
    #[must_use]
    pub fn lead_time_sweep<P: TelemetryProvider>(
        &self,
        provider: &P,
        builder: &DatasetBuilder,
        leads: &[Duration],
    ) -> Vec<LeadTimePoint> {
        leads
            .iter()
            .map(|&lead| LeadTimePoint {
                lead,
                metrics: self.evaluate_at(provider, builder, lead),
            })
            .collect()
    }

    /// 5-fold (or k-fold) cross validation on a dataset; returns one
    /// metric set per fold.
    #[must_use]
    pub fn cross_validate(
        data: &Dataset,
        k: usize,
        config: &PredictorConfig,
    ) -> Vec<BinaryMetrics> {
        KFold::new(k, config.seed ^ 0xF01D)
            .splits(data)
            .into_iter()
            .map(|(train, test)| {
                let standardizer = Standardizer::fit(&train);
                let train_std = standardizer.transform(&train);
                let mut widths = vec![data.width()];
                widths.extend_from_slice(&config.hidden);
                widths.push(1);
                let mut network =
                    Mlp::new(&widths, Activation::Relu, Activation::Sigmoid, config.seed);
                network.train(
                    train_std.features(),
                    train_std.labels(),
                    &config.train_config(),
                );
                let fold = Self {
                    standardizer,
                    network,
                };
                fold.evaluate(&test)
            })
            .collect()
    }
}

/// Pools balanced datasets built at several lead times.
#[must_use]
pub fn pooled_dataset<P: TelemetryProvider>(
    provider: &P,
    builder: &DatasetBuilder,
    leads: &[Duration],
) -> Dataset {
    let mut pooled = Dataset::empty();
    for &lead in leads {
        let d = builder.build(provider, lead);
        for (f, &l) in d.features().iter().zip(d.labels()) {
            pooled.push(f.clone(), l);
        }
    }
    pooled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureConfig;
    use mira_cooling::{CoolantMonitorSample, PrecursorSignature};
    use mira_facility::RackId;
    use mira_timeseries::{Date, SimTime};
    use mira_units::{Fahrenheit, Gpm, Kilowatts, RelHumidity};

    struct ToyProvider {
        cmfs: Vec<(SimTime, RackId)>,
        signature: PrecursorSignature,
    }

    impl TelemetryProvider for ToyProvider {
        fn sample(&self, rack: RackId, t: SimTime) -> CoolantMonitorSample {
            // Deterministic sensor noise.
            let mut h = (t.epoch_seconds() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= (rack.index() as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let noise = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;

            let mut inlet = 64.0;
            let mut outlet = 79.0;
            let mut flow = 26.0;
            for &(ct, cr) in &self.cmfs {
                if cr == rack && ct >= t && (ct - t) <= self.signature.horizon() {
                    inlet *= self.signature.inlet_factor(ct - t);
                    outlet *= self.signature.outlet_factor(ct - t);
                    flow *= self.signature.flow_factor(ct - t);
                }
            }
            CoolantMonitorSample {
                time: t,
                rack,
                dc_temperature: Fahrenheit::new(80.0 + noise),
                dc_humidity: RelHumidity::new(33.0 + noise),
                flow: Gpm::new(flow + noise * 0.3),
                inlet: Fahrenheit::new(inlet + noise * 0.15),
                outlet: Fahrenheit::new(outlet + noise * 0.2),
                power: Kilowatts::new(58.0 + noise),
            }
        }
    }

    fn setup() -> (ToyProvider, DatasetBuilder) {
        let start = SimTime::from_date(Date::new(2015, 1, 1));
        let end = SimTime::from_date(Date::new(2017, 12, 1));
        let cmfs: Vec<(SimTime, RackId)> = (0..60)
            .map(|i| {
                (
                    start + Duration::from_days(10 + i * 17) + Duration::from_hours(i % 23),
                    RackId::from_index((i as usize * 11) % 48),
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

    fn quick_config() -> PredictorConfig {
        PredictorConfig {
            epochs: 30,
            train_leads: vec![
                Duration::from_minutes(30),
                Duration::from_hours(2),
                Duration::from_hours(4),
                Duration::from_hours(6),
            ],
            ..PredictorConfig::default()
        }
    }

    #[test]
    fn trains_and_beats_chance_comfortably() {
        let (provider, builder) = setup();
        let (_, metrics) = CmfPredictor::train(&provider, &builder, &quick_config());
        assert!(
            metrics.accuracy() > 0.8,
            "test accuracy {}",
            metrics.accuracy()
        );
    }

    #[test]
    fn short_leads_beat_long_leads() {
        let (provider, builder) = setup();
        let (predictor, _) = CmfPredictor::train(&provider, &builder, &quick_config());
        let near = predictor.evaluate_at(&provider, &builder, Duration::from_minutes(30));
        let far = predictor.evaluate_at(&provider, &builder, Duration::from_hours(6));
        assert!(
            near.accuracy() >= far.accuracy(),
            "near {} far {}",
            near.accuracy(),
            far.accuracy()
        );
        assert!(near.accuracy() > 0.9, "near accuracy {}", near.accuracy());
        assert!(far.accuracy() > 0.7, "far accuracy {}", far.accuracy());
    }

    #[test]
    fn sweep_produces_all_points() {
        let (provider, builder) = setup();
        let (predictor, _) = CmfPredictor::train(&provider, &builder, &quick_config());
        let leads = [
            Duration::from_minutes(30),
            Duration::from_hours(3),
            Duration::from_hours(6),
        ];
        let sweep = predictor.lead_time_sweep(&provider, &builder, &leads);
        assert_eq!(sweep.len(), 3);
        assert_eq!(sweep[0].lead, leads[0]);
        for p in &sweep {
            assert!(p.metrics.total() > 0);
        }
    }

    #[test]
    fn cross_validation_runs_k_folds() {
        let (provider, builder) = setup();
        let data = pooled_dataset(
            &provider,
            &builder,
            &[Duration::from_minutes(30), Duration::from_hours(3)],
        );
        let folds = CmfPredictor::cross_validate(&data, 5, &quick_config());
        assert_eq!(folds.len(), 5);
        let mean_acc: f64 =
            folds.iter().map(BinaryMetrics::accuracy).sum::<f64>() / folds.len() as f64;
        assert!(mean_acc > 0.75, "CV accuracy {mean_acc}");
    }

    #[test]
    fn predict_gives_probability() {
        let (provider, builder) = setup();
        let (predictor, _) = CmfPredictor::train(&provider, &builder, &quick_config());
        let data = builder.build(&provider, Duration::from_minutes(30));
        for f in data.features().iter().take(10) {
            let p = predictor.predict(f);
            assert!((0.0..=1.0).contains(&p));
        }
    }
}
