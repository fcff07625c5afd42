//! Parameter-update rules.

use serde::{Deserialize, Serialize};

/// Optimizer choice and hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Optimizer {
    /// Stochastic gradient descent with momentum.
    Sgd {
        /// Learning rate.
        learning_rate: f64,
        /// Momentum coefficient in `[0, 1)`.
        momentum: f64,
    },
    /// Adam (Kingma & Ba).
    Adam {
        /// Learning rate.
        learning_rate: f64,
        /// First-moment decay.
        beta1: f64,
        /// Second-moment decay.
        beta2: f64,
    },
}

impl Default for Optimizer {
    fn default() -> Self {
        Optimizer::Adam {
            learning_rate: 0.01,
            beta1: 0.9,
            beta2: 0.999,
        }
    }
}

/// Per-parameter-vector optimizer state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizerState {
    /// First moment (momentum / Adam m).
    m: Vec<f64>,
    /// Second moment (Adam v).
    v: Vec<f64>,
    /// Update count (for Adam bias correction).
    t: u64,
}

impl OptimizerState {
    /// Creates zeroed state for `n` parameters.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    /// Computes the update *steps* (to be subtracted from parameters) for
    /// the given gradients.
    ///
    /// # Panics
    ///
    /// Panics if `grads.len()` differs from the state size.
    #[must_use]
    // The size assert bounds every enumerate() index into m/v.
    // mira-lint: allow(panic-reachability)
    pub fn step(&mut self, optimizer: Optimizer, grads: &[f64]) -> Vec<f64> {
        assert_eq!(grads.len(), self.m.len(), "gradient size mismatch");
        self.t += 1;
        match optimizer {
            Optimizer::Sgd {
                learning_rate,
                momentum,
            } => grads
                .iter()
                .enumerate()
                .map(|(i, &g)| {
                    self.m[i] = momentum * self.m[i] + g;
                    learning_rate * self.m[i]
                })
                .collect(),
            Optimizer::Adam {
                learning_rate,
                beta1,
                beta2,
            } => {
                let eps = 1e-8;
                // Past i32::MAX steps both powers have long underflowed to 0.
                let t = i32::try_from(self.t).unwrap_or(i32::MAX);
                let bc1 = 1.0 - beta1.powi(t);
                let bc2 = 1.0 - beta2.powi(t);
                grads
                    .iter()
                    .enumerate()
                    .map(|(i, &g)| {
                        self.m[i] = beta1 * self.m[i] + (1.0 - beta1) * g;
                        self.v[i] = beta2 * self.v[i] + (1.0 - beta2) * g * g;
                        let mhat = self.m[i] / bc1;
                        let vhat = self.v[i] / bc2;
                        learning_rate * mhat / (vhat.sqrt() + eps)
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_without_momentum_is_plain_descent() {
        let mut s = OptimizerState::new(2);
        let opt = Optimizer::Sgd {
            learning_rate: 0.1,
            momentum: 0.0,
        };
        let step = s.step(opt, &[1.0, -2.0]);
        assert_eq!(step, vec![0.1, -0.2]);
    }

    #[test]
    fn momentum_accumulates() {
        let mut s = OptimizerState::new(1);
        let opt = Optimizer::Sgd {
            learning_rate: 1.0,
            momentum: 0.5,
        };
        assert_eq!(s.step(opt, &[1.0]), vec![1.0]);
        assert_eq!(s.step(opt, &[1.0]), vec![1.5]);
        assert_eq!(s.step(opt, &[1.0]), vec![1.75]);
    }

    #[test]
    fn adam_first_step_is_learning_rate_sized() {
        let mut s = OptimizerState::new(1);
        let step = s.step(Optimizer::default(), &[0.37]);
        // Bias-corrected Adam's first step magnitude ≈ lr regardless of
        // gradient scale.
        assert!((step[0] - 0.01).abs() < 1e-6, "step {}", step[0]);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize (x - 3)^2 from x = 0.
        let mut x = 0.0f64;
        let mut s = OptimizerState::new(1);
        let opt = Optimizer::Adam {
            learning_rate: 0.1,
            beta1: 0.9,
            beta2: 0.999,
        };
        for _ in 0..500 {
            let g = 2.0 * (x - 3.0);
            x -= s.step(opt, &[g])[0];
        }
        assert!((x - 3.0).abs() < 0.05, "x = {x}");
    }

    #[test]
    #[should_panic(expected = "gradient size mismatch")]
    fn size_mismatch_rejected() {
        let mut s = OptimizerState::new(2);
        let _ = s.step(Optimizer::default(), &[1.0]);
    }
}
