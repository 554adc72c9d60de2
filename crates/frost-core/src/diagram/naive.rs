//! The naïve confusion-matrix-series algorithm (Table 1 baseline).
//!
//! For every sampled threshold, the experiment clustering, its
//! intersection with the ground truth, and the confusion matrix are
//! computed from scratch: "it could then calculate the experiment
//! clustering, intersection, and confusion matrix newly for every
//! requested similarity threshold" (Appendix D). Worst *and* best case
//! are `O(s · (|D| + |Matches|))`, which Table 1 shows becoming
//! impractical on large datasets.

use super::{sample_boundaries, threshold_at, DiagramPoint};
use crate::clustering::Clustering;
use crate::dataset::ScoredPair;
use crate::metrics::confusion::ConfusionMatrix;

/// Computes `s` confusion matrices, re-clustering per sample point.
/// `matches` must already be sorted by similarity descending.
pub fn confusion_series(
    n: usize,
    truth: &Clustering,
    matches: &[ScoredPair],
    s: usize,
) -> Vec<DiagramPoint> {
    let boundaries = sample_boundaries(matches.len(), s);
    boundaries
        .into_iter()
        .map(|k| point_at(n, truth, matches, k))
        .collect()
}

/// One sample point: fresh clustering of the first `k` matches.
fn point_at(n: usize, truth: &Clustering, matches: &[ScoredPair], k: usize) -> DiagramPoint {
    let experiment = Clustering::from_pairs(n, matches[..k].iter().map(|sp| sp.pair));
    let matrix = ConfusionMatrix::from_clusterings(&experiment, truth);
    DiagramPoint {
        threshold: threshold_at(matches, k),
        matches_applied: k,
        matrix,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recomputes_independently_per_point() {
        let truth = Clustering::from_assignment(&[0, 0, 1, 1]);
        let matches = vec![
            ScoredPair::scored((0u32, 1u32), 0.9),
            ScoredPair::scored((2u32, 3u32), 0.5),
        ];
        let pts = confusion_series(4, &truth, &matches, 3);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].matrix.true_positives, 0);
        assert_eq!(pts[1].matrix.true_positives, 1);
        assert_eq!(pts[2].matrix.true_positives, 2);
        assert_eq!(pts[2].matrix.false_positives, 0);
    }

    #[test]
    fn closure_effect_counted() {
        // Matches 0-1 and 1-2 imply 0-2 via closure: at the final point
        // the experiment cluster {0,1,2} contributes 3 predicted pairs.
        let truth = Clustering::from_assignment(&[0, 0, 0, 1]);
        let matches = vec![
            ScoredPair::scored((0u32, 1u32), 0.9),
            ScoredPair::scored((1u32, 2u32), 0.8),
        ];
        let pts = confusion_series(4, &truth, &matches, 2);
        let last = pts.last().unwrap().matrix;
        assert_eq!(last.true_positives, 3);
        assert_eq!(last.false_positives, 0);
        assert_eq!(last.false_negatives, 0);
    }
}
