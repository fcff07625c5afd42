//! The multi-layer perceptron and its training loop.

use mira_units::convert;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::layer::{Dense, DenseGrads};
use crate::loss::Loss;
use crate::optimizer::{Optimizer, OptimizerState};

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set (the paper uses 50).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Loss to minimize.
    pub loss: Loss,
    /// Update rule.
    pub optimizer: Optimizer,
    /// Shuffle seed.
    pub seed: u64,
    /// Early stopping: stop after this many epochs without validation
    /// improvement (only effective in
    /// [`Mlp::train_with_validation`]).
    pub patience: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 50,
            batch_size: 32,
            loss: Loss::BinaryCrossEntropy,
            optimizer: Optimizer::default(),
            seed: 0,
            patience: None,
        }
    }
}

/// Result of a validated training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainOutcome {
    /// Per-epoch mean training loss.
    pub train_loss: Vec<f64>,
    /// Per-epoch validation loss.
    pub validation_loss: Vec<f64>,
    /// Epochs actually run (≤ configured epochs when early stopping
    /// fires).
    pub epochs_run: usize,
}

/// A feed-forward multi-layer perceptron.
///
/// The paper's CMF predictor is `Mlp::new(&[n_features, 12, 12, 6, 1],
/// Relu, Sigmoid, seed)` — three hidden layers of 12, 12 and 6 neurons.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Creates an MLP from layer widths: `[inputs, h1, …, outputs]`.
    ///
    /// Hidden layers use `hidden`; the final layer uses `output`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given or any width is zero.
    #[must_use]
    pub fn new(widths: &[usize], hidden: Activation, output: Activation, seed: u64) -> Self {
        assert!(widths.len() >= 2, "need at least input and output widths");
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i + 2 == widths.len() {
                    output
                } else {
                    hidden
                };
                // windows(2) pairs have exactly two elements.
                // mira-lint: allow(panic-reachability)
                Dense::new(w[0], w[1], act, seed.wrapping_add(i as u64 * 7919))
            })
            .collect();
        Self { layers }
    }

    /// The layer stack.
    #[must_use]
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Number of input features.
    #[must_use]
    pub fn input_size(&self) -> usize {
        // The constructor guarantees at least one layer.
        self.layers.first().map_or(0, Dense::inputs)
    }

    /// Total trainable parameters.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(Dense::parameter_count).sum()
    }

    /// Forward pass returning every layer's activated output (the last
    /// entry is the network output).
    #[must_use]
    pub fn forward_all(&self, input: &[f64]) -> Vec<Vec<f64>> {
        let mut outs = Vec::with_capacity(self.layers.len());
        let mut cur = input.to_vec();
        for layer in &self.layers {
            cur = layer.forward(&cur);
            outs.push(cur.clone());
        }
        outs
    }

    /// Network output for an input (first output unit for scalar heads).
    #[must_use]
    pub fn predict(&self, input: &[f64]) -> f64 {
        // The constructor guarantees at least one layer with at least
        // one output unit, so the fallback is unreachable.
        self.forward_all(input)
            .last()
            .and_then(|out| out.first())
            .copied()
            .unwrap_or(0.0)
    }

    /// Binary decision at threshold 0.5.
    #[must_use]
    pub fn classify(&self, input: &[f64]) -> bool {
        self.predict(input) >= 0.5
    }

    /// Mean loss over a dataset.
    #[must_use]
    pub fn evaluate(&self, x: &[Vec<f64>], y: &[f64], loss: Loss) -> f64 {
        let preds: Vec<f64> = x.iter().map(|xi| self.predict(xi)).collect();
        loss.mean(&preds, y)
    }

    /// Trains on `(x, y)` with a held-out validation set, early stopping
    /// when `config.patience` epochs pass without validation
    /// improvement. The best-validation weights are restored at the end.
    ///
    /// With an empty validation set this degenerates to plain training.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`Mlp::train`].
    pub fn train_with_validation(
        &mut self,
        x: &[Vec<f64>],
        y: &[f64],
        val_x: &[Vec<f64>],
        val_y: &[f64],
        config: &TrainConfig,
    ) -> TrainOutcome {
        let mut train_loss = Vec::new();
        let mut validation_loss = Vec::new();
        let mut best: Option<(f64, Vec<Dense>)> = None;
        let mut stale = 0usize;
        let mut epochs_run = 0usize;

        // Run epoch-by-epoch so validation can interrupt; each call to
        // `train` below does exactly one epoch with continued state via
        // the epoch seed.
        let mut session = TrainSession::new(self, config);
        for _ in 0..config.epochs {
            let loss = session.run_epoch(x, y, config);
            train_loss.push(loss);
            epochs_run += 1;

            if !val_x.is_empty() {
                let vl = session.network().evaluate(val_x, val_y, config.loss);
                validation_loss.push(vl);
                let improved = best.as_ref().is_none_or(|(b, _)| vl < *b);
                if improved {
                    best = Some((vl, session.network().layers.clone()));
                    stale = 0;
                } else {
                    stale += 1;
                    if config.patience.is_some_and(|p| stale >= p) {
                        break;
                    }
                }
            }
        }
        if let Some((_, layers)) = best {
            self.layers = layers;
        }
        TrainOutcome {
            train_loss,
            validation_loss,
            epochs_run,
        }
    }

    /// Trains on `(x, y)` and returns the per-epoch mean training loss.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `y` differ in length, are empty, or any feature
    /// vector has the wrong width.
    pub fn train(&mut self, x: &[Vec<f64>], y: &[f64], config: &TrainConfig) -> Vec<f64> {
        let mut session = TrainSession::new(self, config);
        (0..config.epochs)
            .map(|_| session.run_epoch(x, y, config))
            .collect()
    }
}

/// Incremental training state (shuffle RNG + per-layer optimizer
/// moments), so callers can interleave epochs with validation.
struct TrainSession<'a> {
    network: &'a mut Mlp,
    rng: StdRng,
    wstates: Vec<OptimizerState>,
    bstates: Vec<OptimizerState>,
}

impl<'a> TrainSession<'a> {
    fn new(network: &'a mut Mlp, config: &TrainConfig) -> Self {
        let wstates = network
            .layers
            .iter()
            .map(|l| OptimizerState::new(l.weights().len()))
            .collect();
        let bstates = network
            .layers
            .iter()
            .map(|l| OptimizerState::new(l.biases().len()))
            .collect();
        Self {
            network,
            rng: StdRng::seed_from_u64(config.seed ^ 0x7EAC_4E55),
            wstates,
            bstates,
        }
    }

    fn network(&self) -> &Mlp {
        self.network
    }

    /// Runs one shuffled epoch; returns the mean training loss.
    // Row indices are a permutation of 0..x.len() (asserted non-empty);
    // layer indices stay below the per-layer state vectors built in
    // `new`. mira-lint: allow(panic-reachability)
    fn run_epoch(&mut self, x: &[Vec<f64>], y: &[f64], config: &TrainConfig) -> f64 {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(!x.is_empty(), "empty training set");
        for xi in x {
            assert_eq!(
                xi.len(),
                self.network.input_size(),
                "feature width mismatch"
            );
        }

        // Fisher-Yates shuffle.
        let mut order: Vec<usize> = (0..x.len()).collect();
        for i in (1..order.len()).rev() {
            let j = self.rng.random_range(0..=i);
            order.swap(i, j);
        }

        let net = &mut *self.network;
        let mut epoch_loss = 0.0;
        for batch in order.chunks(config.batch_size.max(1)) {
            let mut grads: Vec<DenseGrads> = net.layers.iter().map(Dense::zero_grads).collect();
            for &idx in batch {
                let outs = net.forward_all(&x[idx]);
                // Same non-empty-network guarantee as `predict`.
                let pred = outs.last().and_then(|o| o.first()).copied().unwrap_or(0.0);
                epoch_loss += config.loss.value(pred, y[idx]);
                let mut grad = vec![config.loss.gradient(pred, y[idx])];
                // Wider heads would need a vector loss; scalar here.
                for li in (0..net.layers.len()).rev() {
                    let input = if li == 0 { &x[idx] } else { &outs[li - 1] };
                    grad = net.layers[li].backward(input, &outs[li], &grad, &mut grads[li]);
                }
            }
            let scale = 1.0 / convert::f64_from_usize(batch.len());
            for (li, g) in grads.iter_mut().enumerate() {
                g.scale(scale);
                let wstep = self.wstates[li].step(config.optimizer, &g.weights);
                let bstep = self.bstates[li].step(config.optimizer, &g.biases);
                net.layers[li].apply_update(&wstep, &bstep);
            }
        }
        epoch_loss / convert::f64_from_usize(x.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        (
            vec![
                vec![0.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 0.0],
                vec![1.0, 1.0],
            ],
            vec![0.0, 1.0, 1.0, 0.0],
        )
    }

    #[test]
    fn learns_xor() {
        let (x, y) = xor_data();
        let mut net = Mlp::new(&[2, 8, 8, 1], Activation::Relu, Activation::Sigmoid, 3);
        let history = net.train(
            &x,
            &y,
            &TrainConfig {
                epochs: 900,
                batch_size: 4,
                ..TrainConfig::default()
            },
        );
        assert!(history.last().unwrap() < &0.1, "loss {:?}", history.last());
        assert!(!net.classify(&x[0]));
        assert!(net.classify(&x[1]));
        assert!(net.classify(&x[2]));
        assert!(!net.classify(&x[3]));
    }

    #[test]
    fn loss_decreases_during_training() {
        let (x, y) = xor_data();
        let mut net = Mlp::new(&[2, 6, 1], Activation::Tanh, Activation::Sigmoid, 5);
        let history = net.train(
            &x,
            &y,
            &TrainConfig {
                epochs: 200,
                batch_size: 4,
                ..TrainConfig::default()
            },
        );
        assert!(history.last().unwrap() < &history[0]);
    }

    #[test]
    fn paper_architecture_builds() {
        let net = Mlp::new(
            &[36, 12, 12, 6, 1],
            Activation::Relu,
            Activation::Sigmoid,
            1,
        );
        assert_eq!(net.layers().len(), 4);
        assert_eq!(net.input_size(), 36);
        assert_eq!(
            net.parameter_count(),
            36 * 12 + 12 + 12 * 12 + 12 + 12 * 6 + 6 + 6 + 1
        );
        assert_eq!(net.layers()[0].activation(), Activation::Relu);
        assert_eq!(net.layers()[3].activation(), Activation::Sigmoid);
    }

    #[test]
    fn sigmoid_head_outputs_probabilities() {
        let net = Mlp::new(&[4, 5, 1], Activation::Relu, Activation::Sigmoid, 2);
        for k in 0..20 {
            let x = vec![k as f64, -k as f64, 0.5, 1.0];
            let p = net.predict(&x);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let (x, y) = xor_data();
        let cfg = TrainConfig {
            epochs: 50,
            ..TrainConfig::default()
        };
        let mut a = Mlp::new(&[2, 4, 1], Activation::Relu, Activation::Sigmoid, 7);
        let mut b = Mlp::new(&[2, 4, 1], Activation::Relu, Activation::Sigmoid, 7);
        a.train(&x, &y, &cfg);
        b.train(&x, &y, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn early_stopping_halts_and_restores_best() {
        let (x, y) = xor_data();
        // Validation deliberately contradicts training (labels flipped),
        // so validation loss rises as training fits — early stopping
        // must halt well before the epoch budget.
        let vy: Vec<f64> = y.iter().map(|l| 1.0 - l).collect();
        let mut net = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Sigmoid, 11);
        let outcome = net.train_with_validation(
            &x,
            &y,
            &x,
            &vy,
            &TrainConfig {
                epochs: 500,
                batch_size: 4,
                patience: Some(5),
                ..TrainConfig::default()
            },
        );
        assert!(
            outcome.epochs_run < 500,
            "ran {} epochs",
            outcome.epochs_run
        );
        assert_eq!(outcome.validation_loss.len(), outcome.epochs_run);
        // Restored weights are the best-validation ones: evaluating on
        // the flipped labels matches the minimum recorded loss.
        let restored = net.evaluate(&x, &vy, Loss::BinaryCrossEntropy);
        let best = outcome
            .validation_loss
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!((restored - best).abs() < 1e-9, "{restored} vs best {best}");
    }

    #[test]
    fn validated_training_without_patience_runs_all_epochs() {
        let (x, y) = xor_data();
        let mut net = Mlp::new(&[2, 6, 1], Activation::Relu, Activation::Sigmoid, 3);
        let outcome = net.train_with_validation(
            &x,
            &y,
            &x,
            &y,
            &TrainConfig {
                epochs: 40,
                batch_size: 4,
                ..TrainConfig::default()
            },
        );
        assert_eq!(outcome.epochs_run, 40);
        assert_eq!(outcome.train_loss.len(), 40);
    }

    #[test]
    fn empty_validation_degenerates_to_plain_training() {
        let (x, y) = xor_data();
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let mut a = Mlp::new(&[2, 4, 1], Activation::Relu, Activation::Sigmoid, 7);
        let mut b = a.clone();
        let plain = a.train(&x, &y, &cfg);
        let outcome = b.train_with_validation(&x, &y, &[], &[], &cfg);
        assert_eq!(a, b, "identical weights");
        assert_eq!(plain, outcome.train_loss);
        assert!(outcome.validation_loss.is_empty());
    }

    #[test]
    #[should_panic(expected = "x/y length mismatch")]
    fn train_rejects_mismatch() {
        let mut net = Mlp::new(&[2, 2, 1], Activation::Relu, Activation::Sigmoid, 0);
        let _ = net.train(&[vec![0.0, 0.0]], &[0.0, 1.0], &TrainConfig::default());
    }

    #[test]
    #[should_panic(expected = "need at least input and output widths")]
    fn too_few_widths_rejected() {
        let _ = Mlp::new(&[3], Activation::Relu, Activation::Sigmoid, 0);
    }
}
