//! Pair-based quality metrics (§3.2.1).
//!
//! All metrics derive from the confusion matrix in constant time. Frost
//! supports "the common precision, recall and f1 score, but also more
//! special ones, such as the Reduction Ratio, the f* score, the
//! Fowlkes-Mallows index, and the Matthews correlation coefficient".
//!
//! Conventions for degenerate denominators: metrics return `0.0` when
//! their denominator is zero, except [`PairMetric::ReductionRatio`] (which
//! returns `1.0` when nothing was predicted on a non-empty pair space) and
//! the trivially-perfect cases noted per metric.

use super::confusion::ConfusionMatrix;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The pair-based metrics supported out of the box.
///
/// The platform is extensible "by any other metrics" — see
/// [`custom`](PairMetric::custom) and the free functions in this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PairMetric {
    /// `TP / (TP + FP)` — how many predicted matches are duplicates.
    Precision,
    /// `TP / (TP + FN)` — how many duplicates were found (sensitivity).
    Recall,
    /// Harmonic mean of precision and recall.
    F1,
    /// `TP / (TP + FP + FN)` — Hand et al.'s interpretable F-measure
    /// transformation (also the Jaccard index of the two pair sets).
    FStar,
    /// `(TP + TN) / total`. Unreliable under class imbalance (§3.2.1).
    Accuracy,
    /// `TN / (TN + FP)` — true-negative rate.
    Specificity,
    /// Mean of recall and specificity.
    BalancedAccuracy,
    /// Matthews correlation coefficient, in `[-1, 1]`.
    MatthewsCorrelation,
    /// `√(precision · recall)` — geometric mean.
    FowlkesMallows,
    /// `1 − (TP+FP)/total` — fraction of the pair space not proposed;
    /// measures candidate-generation pruning power.
    ReductionRatio,
    /// `(TP+FP)/total` — complement of the reduction ratio.
    PairsCompleteness,
}

impl PairMetric {
    /// All built-in metrics, for sweep-style evaluations.
    pub const ALL: [PairMetric; 11] = [
        PairMetric::Precision,
        PairMetric::Recall,
        PairMetric::F1,
        PairMetric::FStar,
        PairMetric::Accuracy,
        PairMetric::Specificity,
        PairMetric::BalancedAccuracy,
        PairMetric::MatthewsCorrelation,
        PairMetric::FowlkesMallows,
        PairMetric::ReductionRatio,
        PairMetric::PairsCompleteness,
    ];

    /// Computes the metric from a confusion matrix.
    pub fn compute(self, m: &ConfusionMatrix) -> f64 {
        match self {
            PairMetric::Precision => precision(m),
            PairMetric::Recall => recall(m),
            PairMetric::F1 => f1(m),
            PairMetric::FStar => f_star(m),
            PairMetric::Accuracy => accuracy(m),
            PairMetric::Specificity => specificity(m),
            PairMetric::BalancedAccuracy => (recall(m) + specificity(m)) / 2.0,
            PairMetric::MatthewsCorrelation => matthews_correlation(m),
            PairMetric::FowlkesMallows => fowlkes_mallows(m),
            PairMetric::ReductionRatio => reduction_ratio(m),
            PairMetric::PairsCompleteness => 1.0 - reduction_ratio(m),
        }
    }

    /// The metric's display name (also its query-parameter spelling).
    pub fn name(self) -> &'static str {
        match self {
            PairMetric::Precision => "precision",
            PairMetric::Recall => "recall",
            PairMetric::F1 => "f1",
            PairMetric::FStar => "f*",
            PairMetric::Accuracy => "accuracy",
            PairMetric::Specificity => "specificity",
            PairMetric::BalancedAccuracy => "balanced accuracy",
            PairMetric::MatthewsCorrelation => "MCC",
            PairMetric::FowlkesMallows => "Fowlkes-Mallows",
            PairMetric::ReductionRatio => "reduction ratio",
            PairMetric::PairsCompleteness => "pairs completeness",
        }
    }

    /// Wraps an arbitrary metric function, giving it a display name —
    /// the extension point for user-defined metrics.
    pub fn custom(name: &'static str, f: fn(&ConfusionMatrix) -> f64) -> CustomPairMetric {
        CustomPairMetric { name, f }
    }
}

impl fmt::Display for PairMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A named user-defined pair metric.
#[derive(Clone, Copy)]
pub struct CustomPairMetric {
    name: &'static str,
    f: fn(&ConfusionMatrix) -> f64,
}

impl CustomPairMetric {
    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Evaluates the metric.
    pub fn compute(&self, m: &ConfusionMatrix) -> f64 {
        (self.f)(m)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `TP / (TP + FP)`.
pub fn precision(m: &ConfusionMatrix) -> f64 {
    ratio(m.true_positives, m.predicted_positives())
}

/// `TP / (TP + FN)`.
pub fn recall(m: &ConfusionMatrix) -> f64 {
    ratio(m.true_positives, m.actual_positives())
}

/// `2·TP / (2·TP + FP + FN)`.
pub fn f1(m: &ConfusionMatrix) -> f64 {
    f_beta(m, 1.0)
}

/// Weighted harmonic mean; `beta > 1` favours recall.
pub fn f_beta(m: &ConfusionMatrix, beta: f64) -> f64 {
    let b2 = beta * beta;
    let num = (1.0 + b2) * m.true_positives as f64;
    let den = num + b2 * m.false_negatives as f64 + m.false_positives as f64;
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `TP / (TP + FP + FN)` — Hand/Christen/Kirielle's f*.
pub fn f_star(m: &ConfusionMatrix) -> f64 {
    ratio(
        m.true_positives,
        m.true_positives + m.false_positives + m.false_negatives,
    )
}

/// `(TP + TN) / total`.
pub fn accuracy(m: &ConfusionMatrix) -> f64 {
    ratio(m.true_positives + m.true_negatives, m.total())
}

/// `TN / (TN + FP)`.
pub fn specificity(m: &ConfusionMatrix) -> f64 {
    ratio(m.true_negatives, m.true_negatives + m.false_positives)
}

/// Matthews correlation coefficient; `0.0` for degenerate marginals.
pub fn matthews_correlation(m: &ConfusionMatrix) -> f64 {
    let tp = m.true_positives as f64;
    let tn = m.true_negatives as f64;
    let fp = m.false_positives as f64;
    let fn_ = m.false_negatives as f64;
    let den = ((tp + fp) * (tp + fn_) * (tn + fp) * (tn + fn_)).sqrt();
    if den == 0.0 {
        0.0
    } else {
        (tp * tn - fp * fn_) / den
    }
}

/// `√(precision · recall)`.
pub fn fowlkes_mallows(m: &ConfusionMatrix) -> f64 {
    (precision(m) * recall(m)).sqrt()
}

/// `1 − (TP + FP) / total`; `1.0` when the pair space is empty.
pub fn reduction_ratio(m: &ConfusionMatrix) -> f64 {
    let total = m.total();
    if total == 0 {
        return 1.0;
    }
    1.0 - m.predicted_positives() as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(tp: u64, fp: u64, fn_: u64, tn: u64) -> ConfusionMatrix {
        ConfusionMatrix::new(tp, fp, fn_, tn)
    }

    #[test]
    fn textbook_values() {
        let c = m(6, 2, 3, 89);
        assert!((precision(&c) - 0.75).abs() < 1e-12);
        assert!((recall(&c) - 6.0 / 9.0).abs() < 1e-12);
        let f = f1(&c);
        let expected = 2.0 * 0.75 * (6.0 / 9.0) / (0.75 + 6.0 / 9.0);
        assert!((f - expected).abs() < 1e-12);
        assert!((f_star(&c) - 6.0 / 11.0).abs() < 1e-12);
        assert!((accuracy(&c) - 95.0 / 100.0).abs() < 1e-12);
        assert!((specificity(&c) - 89.0 / 91.0).abs() < 1e-12);
    }

    #[test]
    fn f_star_is_f1_over_two_minus_f1() {
        // Hand et al.: f* = f1 / (2 − f1).
        let c = m(10, 5, 3, 100);
        let f = f1(&c);
        assert!((f_star(&c) - f / (2.0 - f)).abs() < 1e-12);
    }

    #[test]
    fn mcc_bounds_and_signs() {
        // Perfect prediction → 1.
        assert!((matthews_correlation(&m(5, 0, 0, 5)) - 1.0).abs() < 1e-12);
        // Perfectly wrong → −1.
        assert!((matthews_correlation(&m(0, 5, 5, 0)) + 1.0).abs() < 1e-12);
        // Degenerate marginals → 0.
        assert_eq!(matthews_correlation(&m(0, 0, 5, 5)), 0.0);
    }

    #[test]
    fn class_imbalance_illustration() {
        // §3.2.1: accuracy can be ≈1 even when every pair is classified
        // as a non-duplicate.
        let c = m(0, 0, 100, 1_000_000);
        assert!(accuracy(&c) > 0.999);
        assert_eq!(recall(&c), 0.0);
        assert_eq!(f1(&c), 0.0);
    }

    #[test]
    fn degenerate_denominators_are_zero() {
        let empty = m(0, 0, 0, 0);
        assert_eq!(precision(&empty), 0.0);
        assert_eq!(recall(&empty), 0.0);
        assert_eq!(f1(&empty), 0.0);
        assert_eq!(accuracy(&empty), 0.0);
        assert_eq!(reduction_ratio(&empty), 1.0);
    }

    #[test]
    fn fbeta_weights_recall() {
        let c = m(6, 2, 3, 89); // precision > recall
        assert!(f_beta(&c, 2.0) < f_beta(&c, 0.5));
        assert!((f_beta(&c, 1.0) - f1(&c)).abs() < 1e-12);
    }

    #[test]
    fn fowlkes_mallows_is_geometric_mean() {
        let c = m(4, 1, 4, 20);
        assert!((fowlkes_mallows(&c) - (precision(&c) * recall(&c)).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn reduction_ratio_complement() {
        let c = m(5, 5, 0, 90);
        assert!((reduction_ratio(&c) - 0.9).abs() < 1e-12);
        assert!((PairMetric::PairsCompleteness.compute(&c) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn enum_dispatch_matches_functions() {
        let c = m(6, 2, 3, 89);
        for metric in PairMetric::ALL {
            let v = metric.compute(&c);
            assert!(v.is_finite(), "{metric} not finite");
            if metric != PairMetric::MatthewsCorrelation {
                assert!((0.0..=1.0).contains(&v), "{metric} = {v} out of [0,1]");
            }
        }
        assert_eq!(PairMetric::Precision.compute(&c), precision(&c));
        assert_eq!(PairMetric::F1.to_string(), "f1");
    }

    #[test]
    fn custom_metric() {
        let err_rate = PairMetric::custom("error rate", |m| {
            m.errors() as f64 / m.total().max(1) as f64
        });
        assert_eq!(err_rate.name(), "error rate");
        assert!((err_rate.compute(&m(1, 1, 2, 6)) - 0.3).abs() < 1e-12);
    }
}
