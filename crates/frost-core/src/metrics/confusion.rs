//! The confusion matrix (Figure 2 of the paper).
//!
//! Comparing an experiment `E` against a ground-truth annotation `G` over
//! a dataset `D` as sets of pairs:
//!
//! |                    | Positive        | Negative              |
//! |--------------------|-----------------|-----------------------|
//! | Predicted positive | `E ∩ G` (TP)    | `E \ G` (FP)          |
//! | Predicted negative | `G \ E` (FN)    | `([D]² \ E) \ G` (TN) |

use crate::clustering::{Clustering, Contingency};
use crate::dataset::{Experiment, PairAlgebra};
use serde::{Deserialize, Serialize};

/// Pair counts for one experiment/ground-truth comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    /// `|E ∩ G|` — matches that are true duplicates.
    pub true_positives: u64,
    /// `|E \ G|` — matches that are not duplicates.
    pub false_positives: u64,
    /// `|G \ E|` — duplicates the solution missed.
    pub false_negatives: u64,
    /// `|([D]² \ E) \ G|` — correctly ignored non-duplicates.
    pub true_negatives: u64,
}

impl ConfusionMatrix {
    /// Builds a matrix from raw counts.
    pub fn new(tp: u64, fp: u64, fn_: u64, tn: u64) -> Self {
        Self {
            true_positives: tp,
            false_positives: fp,
            false_negatives: fn_,
            true_negatives: tn,
        }
    }

    /// Compares an experiment's match pairs (as given — *not* transitively
    /// closed first) against a ground-truth clustering.
    ///
    /// This is the pair-based view (§3.2.1), usable for intermediate
    /// pipeline stages such as candidate generation, where the match set
    /// need not be closed.
    pub fn from_experiment(experiment: &Experiment, truth: &Clustering, n: usize) -> Self {
        assert_eq!(
            truth.num_records(),
            n,
            "ground truth covers {} records, dataset has {n}",
            truth.num_records()
        );
        // Deduplicate defensively via the packed set (experiments built
        // through `Experiment::new` are already pair-distinct).
        let distinct = experiment.pair_set();
        let mut tp = 0u64;
        for pair in distinct.iter() {
            if truth.same_cluster(pair.lo(), pair.hi()) {
                tp += 1;
            }
        }
        let e = distinct.len() as u64;
        let g = truth.pair_count();
        let total = total_pairs(n);
        let fp = e - tp;
        let fn_ = g - tp;
        let tn = total - e - fn_;
        Self::new(tp, fp, fn_, tn)
    }

    /// Compares two pair sets directly. `total` must be `|[D]²|`.
    /// Generic over the set engine ([`PairAlgebra`]): packed sets pay
    /// one linear merge, chunked sets use popcount kernels on their
    /// bitmap chunks.
    ///
    /// TP is an allocation-free merge count
    /// ([`PairAlgebra::intersection_len`]), so the whole matrix costs
    /// one pass over the two sets.
    pub fn from_pair_sets<S: PairAlgebra>(experiment: &S, truth: &S, total: u64) -> Self {
        let tp = experiment.intersection_len(truth) as u64;
        let fp = experiment.len() as u64 - tp;
        let fn_ = truth.len() as u64 - tp;
        let tn = total - tp - fp - fn_;
        Self::new(tp, fp, fn_, tn)
    }

    /// Compares two *clusterings* via their contingency table, in time
    /// linear in the number of records — the import-time optimization
    /// Snowman relies on (§5.3, Appendix D): `TP` equals the pair count
    /// of the intersection clustering, `Σ C(n_ij, 2)`.
    pub fn from_clusterings(experiment: &Clustering, truth: &Clustering) -> Self {
        let n = experiment.num_records();
        let tp = Contingency::new(experiment, truth).pair_count();
        let e = experiment.pair_count();
        let g = truth.pair_count();
        let total = total_pairs(n);
        Self::new(tp, e - tp, g - tp, total - e - (g - tp))
    }

    /// `TP + FP` — all predicted matches.
    pub fn predicted_positives(&self) -> u64 {
        self.true_positives + self.false_positives
    }

    /// `TP + FN` — all true duplicate pairs.
    pub fn actual_positives(&self) -> u64 {
        self.true_positives + self.false_negatives
    }

    /// All pairs `|[D]²|`.
    pub fn total(&self) -> u64 {
        self.true_positives + self.false_positives + self.false_negatives + self.true_negatives
    }

    /// Number of misclassified pairs (`FP + FN`).
    pub fn errors(&self) -> u64 {
        self.false_positives + self.false_negatives
    }
}

/// `n·(n−1)/2`.
pub fn total_pairs(n: usize) -> u64 {
    let n = n as u64;
    n * n.saturating_sub(1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{PairSet, RecordPair};

    #[test]
    fn from_experiment_counts() {
        // D = {0,1,2,3}; truth {0,1},{2,3}; E = {0-1 (TP), 0-2 (FP)}.
        let truth = Clustering::from_assignment(&[0, 0, 1, 1]);
        let e = Experiment::from_scored_pairs("e", [(0u32, 1u32, 0.9), (0, 2, 0.6)]);
        let m = ConfusionMatrix::from_experiment(&e, &truth, 4);
        assert_eq!(m, ConfusionMatrix::new(1, 1, 1, 3));
        assert_eq!(m.total(), 6);
        assert_eq!(m.predicted_positives(), 2);
        assert_eq!(m.actual_positives(), 2);
        assert_eq!(m.errors(), 2);
    }

    #[test]
    fn from_pair_sets_matches_definitions() {
        let e: PairSet = [(0u32, 1u32), (0, 2)]
            .into_iter()
            .map(RecordPair::from)
            .collect();
        let g: PairSet = [(0u32, 1u32), (2, 3)]
            .into_iter()
            .map(RecordPair::from)
            .collect();
        let m = ConfusionMatrix::from_pair_sets(&e, &g, total_pairs(4));
        assert_eq!(m, ConfusionMatrix::new(1, 1, 1, 3));
        // The chunked and roaring engines compute the same matrix.
        let ec = crate::dataset::ChunkedPairSet::from_pair_set(&e);
        let gc = crate::dataset::ChunkedPairSet::from_pair_set(&g);
        assert_eq!(ConfusionMatrix::from_pair_sets(&ec, &gc, total_pairs(4)), m);
        let er = crate::dataset::RoaringPairSet::from_pair_set(&e);
        let gr = crate::dataset::RoaringPairSet::from_pair_set(&g);
        assert_eq!(ConfusionMatrix::from_pair_sets(&er, &gr, total_pairs(4)), m);
    }

    #[test]
    fn clustering_route_agrees_with_pair_route_when_closed() {
        let truth = Clustering::from_assignment(&[0, 0, 0, 1, 1, 2]);
        // Closed experiment: one triangle {0,1,2} plus {3,4} wrongly split.
        let exp = Clustering::from_assignment(&[0, 0, 0, 1, 2, 3]);
        let via_clusters = ConfusionMatrix::from_clusterings(&exp, &truth);
        let e = exp.to_experiment("exp");
        let via_pairs = ConfusionMatrix::from_experiment(&e, &truth, 6);
        assert_eq!(via_clusters, via_pairs);
    }

    #[test]
    fn empty_experiment_is_all_negatives() {
        let truth = Clustering::from_assignment(&[0, 0, 1]);
        let e = Experiment::from_pairs::<u32>("empty", []);
        let m = ConfusionMatrix::from_experiment(&e, &truth, 3);
        assert_eq!(m, ConfusionMatrix::new(0, 0, 1, 2));
    }

    #[test]
    fn perfect_experiment() {
        let truth = Clustering::from_assignment(&[0, 0, 1, 1]);
        let e = truth.to_experiment("perfect");
        let m = ConfusionMatrix::from_experiment(&e, &truth, 4);
        assert_eq!(m, ConfusionMatrix::new(2, 0, 0, 4));
    }

    #[test]
    fn duplicate_pairs_in_experiment_counted_once() {
        let truth = Clustering::from_assignment(&[0, 0, 1]);
        let e = Experiment::new(
            "dup",
            [
                crate::dataset::ScoredPair::scored((0u32, 1u32), 0.9),
                crate::dataset::ScoredPair::scored((1u32, 0u32), 0.2),
            ],
        );
        let m = ConfusionMatrix::from_experiment(&e, &truth, 3);
        assert_eq!(m.true_positives, 1);
        assert_eq!(m.false_positives, 0);
    }
}
