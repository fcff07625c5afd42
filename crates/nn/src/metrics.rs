//! Binary-classification metrics.
//!
//! The paper evaluates its CMF predictor with accuracy, precision,
//! recall and F1 (Fig. 13), and reports the false-positive rate
//! separately (6 % at six hours of lead time, 1.2 % at 30 minutes)
//! because false alarms trigger expensive whole-rack precautions.

use std::fmt;

use mira_units::convert;

use serde::{Deserialize, Serialize};

/// Confusion-matrix counts and the metrics derived from them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinaryMetrics {
    /// True positives.
    pub tp: u64,
    /// True negatives.
    pub tn: u64,
    /// False positives.
    pub fp: u64,
    /// False negatives.
    pub fn_: u64,
}

impl BinaryMetrics {
    /// Creates empty counts.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds metrics from predicted probabilities and 0/1 targets at a
    /// 0.5 threshold.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[must_use]
    pub fn from_predictions(probabilities: &[f64], targets: &[f64]) -> Self {
        Self::from_predictions_at(probabilities, targets, 0.5)
    }

    /// Builds metrics at an explicit decision threshold.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[must_use]
    pub fn from_predictions_at(probabilities: &[f64], targets: &[f64], threshold: f64) -> Self {
        assert_eq!(probabilities.len(), targets.len(), "length mismatch");
        let mut m = Self::new();
        for (&p, &t) in probabilities.iter().zip(targets) {
            m.record(p >= threshold, t >= 0.5);
        }
        m
    }

    /// Records one (predicted, actual) outcome.
    pub fn record(&mut self, predicted: bool, actual: bool) {
        match (predicted, actual) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, true) => self.fn_ += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Merges another count set into this one.
    pub fn merge(&mut self, other: &BinaryMetrics) {
        self.tp += other.tp;
        self.tn += other.tn;
        self.fp += other.fp;
        self.fn_ += other.fn_;
    }

    /// Total observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.tp + self.tn + self.fp + self.fn_
    }

    /// Correct predictions over total.
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        ratio(self.tp + self.tn, self.total())
    }

    /// Correct positive predictions over all positive predictions.
    #[must_use]
    pub fn precision(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp)
    }

    /// Correct positive predictions over all actual positives.
    #[must_use]
    pub fn recall(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_)
    }

    /// Harmonic mean of precision and recall.
    #[must_use]
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        // Exact-zero divide guard.
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// False positives over all actual negatives — the paper's headline
    /// operational concern.
    #[must_use]
    pub fn false_positive_rate(&self) -> f64 {
        ratio(self.fp, self.fp + self.tn)
    }
}

/// Area under the ROC curve for scored predictions (probability that a
/// random positive outscores a random negative; ties count half).
///
/// Threshold-free companion to [`BinaryMetrics`]: two predictors with
/// the same 0.5-threshold accuracy can rank very differently. Returns
/// `None` if either class is absent.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
#[allow(
    clippy::float_cmp,
    reason = "ties must be exact `==`: -0.0 and +0.0 tie, NaN never ties"
)]
pub fn roc_auc(scores: &[f64], targets: &[f64]) -> Option<f64> {
    assert_eq!(scores.len(), targets.len(), "length mismatch");
    // Rank-sum (Mann-Whitney) formulation with midranks for ties.
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let mut rank_sum_pos = 0.0;
    let mut n_pos = 0u64;
    let mut n_neg = 0u64;
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && scores[idx[j + 1]] == scores[idx[i]] {
            j += 1;
        }
        let midrank = convert::f64_from_usize(i + j) / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            if targets[k] >= 0.5 {
                rank_sum_pos += midrank;
                n_pos += 1;
            } else {
                n_neg += 1;
            }
        }
        i = j + 1;
    }
    if n_pos == 0 || n_neg == 0 {
        return None;
    }
    let u = rank_sum_pos - convert::f64_from_u64(n_pos * (n_pos + 1)) / 2.0;
    Some(u / (convert::f64_from_u64(n_pos) * convert::f64_from_u64(n_neg)))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        convert::f64_from_u64(num) / convert::f64_from_u64(den)
    }
}

impl fmt::Display for BinaryMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "acc {:.3} prec {:.3} rec {:.3} f1 {:.3} fpr {:.3}",
            self.accuracy(),
            self.precision(),
            self.recall(),
            self.f1(),
            self.false_positive_rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_classifier() {
        let m = BinaryMetrics::from_predictions(&[0.9, 0.1, 0.8, 0.2], &[1.0, 0.0, 1.0, 0.0]);
        assert_eq!(m.accuracy(), 1.0);
        assert_eq!(m.precision(), 1.0);
        assert_eq!(m.recall(), 1.0);
        assert_eq!(m.f1(), 1.0);
        assert_eq!(m.false_positive_rate(), 0.0);
    }

    #[test]
    fn always_positive_classifier() {
        let m = BinaryMetrics::from_predictions(&[0.9, 0.9, 0.9, 0.9], &[1.0, 0.0, 1.0, 0.0]);
        assert_eq!(m.recall(), 1.0);
        assert_eq!(m.precision(), 0.5);
        assert_eq!(m.false_positive_rate(), 1.0);
        assert_eq!(m.accuracy(), 0.5);
    }

    #[test]
    fn known_confusion_matrix() {
        let m = BinaryMetrics {
            tp: 8,
            tn: 9,
            fp: 1,
            fn_: 2,
        };
        assert!((m.accuracy() - 0.85).abs() < 1e-12);
        assert!((m.precision() - 8.0 / 9.0).abs() < 1e-12);
        assert!((m.recall() - 0.8).abs() < 1e-12);
        assert!((m.false_positive_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = BinaryMetrics::new();
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.f1(), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = BinaryMetrics {
            tp: 1,
            tn: 2,
            fp: 3,
            fn_: 4,
        };
        a.merge(&a.clone());
        assert_eq!(a.total(), 20);
        assert_eq!(a.tp, 2);
    }

    #[test]
    fn threshold_shifts_tradeoff() {
        let probs = [0.3, 0.4, 0.6, 0.7];
        let targets = [0.0, 1.0, 0.0, 1.0];
        let strict = BinaryMetrics::from_predictions_at(&probs, &targets, 0.65);
        let lax = BinaryMetrics::from_predictions_at(&probs, &targets, 0.35);
        assert!(strict.false_positive_rate() <= lax.false_positive_rate());
        assert!(strict.recall() <= lax.recall());
    }

    #[test]
    fn display_is_complete() {
        let m = BinaryMetrics {
            tp: 1,
            tn: 1,
            fp: 1,
            fn_: 1,
        };
        let s = m.to_string();
        assert!(s.contains("acc") && s.contains("fpr"));
    }

    #[test]
    fn auc_perfect_random_and_inverted() {
        let targets = [1.0, 1.0, 0.0, 0.0];
        assert_eq!(roc_auc(&[0.9, 0.8, 0.2, 0.1], &targets), Some(1.0));
        assert_eq!(roc_auc(&[0.1, 0.2, 0.8, 0.9], &targets), Some(0.0));
        // All-tied scores: AUC exactly one half.
        assert_eq!(roc_auc(&[0.5, 0.5, 0.5, 0.5], &targets), Some(0.5));
    }

    #[test]
    fn auc_handles_partial_ties() {
        // One positive tied with one negative at 0.5.
        let auc = roc_auc(&[0.9, 0.5, 0.5, 0.1], &[1.0, 1.0, 0.0, 0.0]).unwrap();
        assert!((auc - 0.875).abs() < 1e-12, "auc {auc}");
    }

    #[test]
    fn auc_none_for_single_class() {
        assert_eq!(roc_auc(&[0.4, 0.6], &[1.0, 1.0]), None);
        assert_eq!(roc_auc(&[], &[]), None);
    }

    proptest! {
        #[test]
        fn auc_is_complement_under_score_negation(
            scores in proptest::collection::vec(0.0f64..1.0, 4..40),
        ) {
            let targets: Vec<f64> = (0..scores.len())
                .map(|i| f64::from(u8::from(i % 2 == 0)))
                .collect();
            let neg: Vec<f64> = scores.iter().map(|s| 1.0 - s).collect();
            if let (Some(a), Some(b)) = (roc_auc(&scores, &targets), roc_auc(&neg, &targets)) {
                prop_assert!((a + b - 1.0).abs() < 1e-9);
            }
        }
    }

    proptest! {
        #[test]
        fn metrics_in_unit_interval(tp in 0u64..100, tn in 0u64..100, fp in 0u64..100, fn_ in 0u64..100) {
            let m = BinaryMetrics { tp, tn, fp, fn_ };
            for v in [m.accuracy(), m.precision(), m.recall(), m.f1(), m.false_positive_rate()] {
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }

        #[test]
        fn f1_between_precision_and_recall(tp in 1u64..100, tn in 0u64..100, fp in 0u64..100, fn_ in 0u64..100) {
            let m = BinaryMetrics { tp, tn, fp, fn_ };
            let lo = m.precision().min(m.recall());
            let hi = m.precision().max(m.recall());
            prop_assert!(m.f1() >= lo - 1e-12 && m.f1() <= hi + 1e-12);
        }
    }
}
