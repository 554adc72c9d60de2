//! Snowman's optimized confusion-matrix-series algorithm (Appendix D).
//!
//! Algorithm 1 walks the matches once in descending similarity order and
//! maintains the experiment clustering in a pair-counting union-find. At
//! each sample boundary the confusion matrix is read off in constant
//! time:
//!
//! * `TP` = pair count of the intersection of experiment and ground
//!   truth,
//! * `TP + FP` = pair count of the experiment clustering,
//! * `TP + FN` = pair count of the ground truth (constant),
//! * `TN` = `|[D]²| − (TP + FP) − FN`.
//!
//! The subtle part is that a match can affect the intersection *later*
//! (Figure 9): merging `{b,c}` changes nothing when `b`, `c` sit in
//! different ground-truth clusters, but a subsequent `{a,c}` merge then
//! joins `a` and `b`, which *do* share a ground-truth cluster. Appendix D
//! keeps the intersection as a second clustering. `SweepState` keeps
//! only its counts: every experiment cluster carries a tally of how many
//! of its records fall into each ground-truth cluster, so joining
//! clusters `A` and `B` adds exactly `Σ_g |A ∩ g|·|B ∩ g|` true
//! positives. Tallies merge small-to-large, and singleton clusters keep
//! theirs implicit (`{truth(r): 1}`), so a sweep allocates nothing per
//! record. The whole series costs `O(n + m·α(n) + m log m + s)` for `n`
//! records, `m` matches and `s` sample points, counting the sort.
//!
//! The sweep runs on the calling thread: it is a single pass, and
//! splitting its sample points across threads would make every thread
//! replay the match prefix before its first point.

use super::{sample_boundaries, threshold_at, DiagramPoint};
use crate::clustering::{Clustering, UnionFind};
use crate::dataset::{RecordId, ScoredPair};
use crate::metrics::confusion::{total_pairs, ConfusionMatrix};
use std::collections::HashMap;

/// Marks a root without a tally: a singleton cluster.
const SINGLETON: u32 = u32::MAX;

/// Ground-truth cluster → number of the cluster's records in it.
type Tally = HashMap<u32, u32>;

/// The state of an optimized sweep after some prefix of the matches:
/// the experiment clustering as a union-find, plus one ground-truth
/// tally per non-singleton cluster, from which the true-positive count
/// is kept up to date on every union.
#[derive(Debug, Clone)]
pub(crate) struct SweepState {
    experiment: UnionFind,
    /// Index into `tallies` for non-singleton roots, [`SINGLETON`]
    /// otherwise. Valid only at roots.
    tally_of: Vec<u32>,
    tallies: Vec<Tally>,
    /// Emptied tallies, reused before new ones are allocated.
    free: Vec<u32>,
    /// Pairs sharing a cluster in both the experiment and the ground
    /// truth.
    true_positives: u64,
    /// `TP + FN`, constant over the sweep.
    truth_pairs: u64,
    /// `|[D]²|`.
    all_pairs: u64,
}

impl SweepState {
    /// The state before any match: every record of `truth`'s dataset
    /// is a singleton cluster.
    pub(crate) fn new(truth: &Clustering) -> Self {
        let n = truth.num_records();
        Self {
            experiment: UnionFind::new(n),
            tally_of: vec![SINGLETON; n],
            tallies: Vec::new(),
            free: Vec::new(),
            true_positives: 0,
            truth_pairs: truth.pair_count(),
            all_pairs: total_pairs(n),
        }
    }

    /// Pairs that share an experiment cluster: `TP + FP`.
    pub(crate) fn predicted_pairs(&self) -> u64 {
        self.experiment.total_pairs()
    }

    /// The confusion matrix of the current state.
    pub(crate) fn matrix(&self) -> ConfusionMatrix {
        let tp = self.true_positives;
        let predicted = self.predicted_pairs();
        let fn_ = self.truth_pairs - tp;
        ConfusionMatrix::new(tp, predicted - tp, fn_, self.all_pairs - predicted - fn_)
    }

    /// Applies `matches` in order. `truth` must be the clustering the
    /// state was created from.
    pub(crate) fn apply(&mut self, truth: &Clustering, matches: &[ScoredPair]) {
        for sp in matches {
            self.union(truth, sp.pair.lo(), sp.pair.hi());
        }
    }

    /// Joins the experiment clusters of `a` and `b`, counting the
    /// true positives the join creates.
    fn union(&mut self, truth: &Clustering, a: RecordId, b: RecordId) {
        let Some((root, absorbed)) = self.experiment.union(a, b) else {
            return;
        };
        let survivor = match (self.tally_of[root.index()], self.tally_of[absorbed.index()]) {
            (SINGLETON, SINGLETON) => {
                let t = self.fresh_tally();
                self.add_record(t, truth.cluster_of(root));
                self.add_record(t, truth.cluster_of(absorbed))
            }
            (t, SINGLETON) => self.add_record(t, truth.cluster_of(absorbed)),
            (SINGLETON, t) => self.add_record(t, truth.cluster_of(root)),
            (ta, tb) => {
                let (big, small) =
                    if self.tallies[ta as usize].len() >= self.tallies[tb as usize].len() {
                        (ta, tb)
                    } else {
                        (tb, ta)
                    };
                let mut moved = std::mem::take(&mut self.tallies[small as usize]);
                let into = &mut self.tallies[big as usize];
                for (&g, &count) in &moved {
                    let slot = into.entry(g).or_insert(0);
                    self.true_positives += u64::from(*slot) * u64::from(count);
                    *slot += count;
                }
                moved.clear();
                self.tallies[small as usize] = moved;
                self.free.push(small);
                big
            }
        };
        self.tally_of[root.index()] = survivor;
    }

    /// Adds one record of ground-truth cluster `g` to tally `t`: it
    /// pairs with every record of `g` already there.
    fn add_record(&mut self, t: u32, g: u32) -> u32 {
        let slot = self.tallies[t as usize].entry(g).or_insert(0);
        self.true_positives += u64::from(*slot);
        *slot += 1;
        t
    }

    /// An empty tally, recycled when one is free.
    fn fresh_tally(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.tallies.push(Tally::default());
            (self.tallies.len() - 1) as u32
        })
    }
}

/// Algorithm 1: computes `s` confusion matrices in one pass.
/// `matches` must already be sorted by similarity descending, and
/// `truth` covers the dataset's records.
pub fn confusion_series(truth: &Clustering, matches: &[ScoredPair], s: usize) -> Vec<DiagramPoint> {
    let boundaries = sample_boundaries(matches.len(), s);
    sweep_points(SweepState::new(truth), truth, matches, 0, &boundaries)
}

/// Steps `state`, which has applied `matches[..applied]`, to every
/// prefix length in `boundaries` (ascending, none below `applied`) and
/// reads one point at each.
pub(crate) fn sweep_points(
    mut state: SweepState,
    truth: &Clustering,
    matches: &[ScoredPair],
    mut applied: usize,
    boundaries: &[usize],
) -> Vec<DiagramPoint> {
    boundaries
        .iter()
        .map(|&k| {
            state.apply(truth, &matches[applied..k]);
            applied = k;
            DiagramPoint {
                threshold: threshold_at(matches, k),
                matches_applied: k,
                matrix: state.matrix(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matched(a: u32, b: u32) -> ScoredPair {
        ScoredPair::unscored((a, b))
    }

    /// Applies `steps` one match at a time and checks `(TP, TP + FP)`
    /// after each.
    fn assert_steps(truth: &Clustering, steps: &[(u32, u32, u64, u64)]) {
        let mut state = SweepState::new(truth);
        for (i, &(a, b, tp, predicted)) in steps.iter().enumerate() {
            state.apply(truth, &[matched(a, b)]);
            assert_eq!(
                (state.true_positives, state.predicted_pairs()),
                (tp, predicted),
                "after step {i}: {{{a},{b}}}"
            );
        }
    }

    /// Figure 9: the match {b,c} does not change the intersection, but the
    /// later {a,c} does — because b and c were already merged, the
    /// intersection then contains {a,b}.
    #[test]
    fn deferred_intersection_effect_fig9() {
        // a=0, b=1, c=2; truth {a,b},{c}.
        let truth = Clustering::from_assignment(&[0, 0, 1]);
        assert_steps(
            &truth,
            &[
                (1, 2, 0, 1), // {b,c}: no true positive yet
                (0, 2, 1, 3), // {a,c}: {a,b} now shares both clusterings
            ],
        );
    }

    /// Figure 10, step by step.
    #[test]
    fn fig10_stepwise_tp() {
        let truth = Clustering::from_assignment(&[0, 0, 1, 1]); // g0{a,b} g1{c,d}
        assert_steps(
            &truth,
            &[
                (0, 2, 0, 1), // merge {a,c}: TP 0, E-pairs 1
                (1, 3, 0, 2), // merge {b,d}: TP 0, E-pairs 2
                (0, 1, 2, 6), // merge {a,b}: TP 2, E-pairs 6
            ],
        );
    }

    /// After every step the tallied TP equals the pair count of the
    /// static intersection clustering, and a match inside one cluster
    /// changes nothing.
    #[test]
    fn tallies_match_static_intersection() {
        let truth = Clustering::from_assignment(&[0, 0, 0, 1, 1, 2, 2, 3]);
        let seq: [(u32, u32); 7] = [(0, 1), (3, 4), (5, 7), (1, 2), (2, 3), (6, 7), (0, 4)];
        let mut state = SweepState::new(&truth);
        let mut applied = Vec::new();
        for (a, b) in seq {
            state.apply(&truth, &[matched(a, b)]);
            applied.push((a, b));
            let experiment = Clustering::from_pairs(8, applied.iter().copied());
            let expected = experiment.intersect(&truth);
            assert_eq!(state.true_positives, expected.pair_count());
            assert_eq!(state.predicted_pairs(), experiment.pair_count());
        }
    }

    /// Two non-singleton clusters join through their tallies, and the
    /// emptied tally is reused by the next new cluster.
    #[test]
    fn tallies_merge_and_recycle() {
        let truth = Clustering::from_assignment(&[0, 1, 0, 1, 0, 2, 2]);
        let mut state = SweepState::new(&truth);
        state.apply(&truth, &[matched(0, 1), matched(2, 3), matched(4, 2)]);
        assert_eq!(state.true_positives, 1); // {2,4}
        assert_eq!(state.tallies.len(), 2);
        state.apply(&truth, &[matched(1, 3)]);
        // {0,1} ∪ {2,3,4}: g0 1·2, g1 1·1 → TP 1 + 3.
        assert_eq!(state.true_positives, 4);
        assert_eq!(state.free.len(), 1);
        state.apply(&truth, &[matched(5, 6)]);
        assert_eq!(state.true_positives, 5);
        assert_eq!(state.tallies.len(), 2, "the freed tally was reused");
    }
}
