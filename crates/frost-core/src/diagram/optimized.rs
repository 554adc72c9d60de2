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
//! positives.
//!
//! A tally is an inline run of up to `INLINE` = 8 `(ground-truth
//! cluster, count)` entries, scanned linearly; a cluster that spans more
//! ground-truth clusters spills to an open-addressing table under the
//! keyed hash of the import path's tables, since the uploader chooses
//! which ground-truth clusters meet in one tally. Tallies merge
//! small-to-large and emptied ones are reused, and singleton clusters
//! keep theirs implicit (`{truth(r): 1}`), so a sweep allocates nothing
//! per record and only spilled tallies allocate at all.
//!
//! The sweep order is one sort of 16-byte integer keys (the
//! experiment's `SimilarityOrder`): the similarity's order key above
//! the packed pair, so the sweep reads record ids straight from the
//! sorted keys. A sample point's threshold decodes from its key; the
//! two keys that stand for more than one score (unscored, NaN and `-∞`;
//! `±0.0`) are resolved against the experiment's matches, in one pass
//! that only a sweep with such a key at a sample boundary takes.
//!
//! The whole series costs `O(n + m·α(n) + m log m + s)` for `n`
//! records, `m` matches and `s` sample points, counting the sort.
//!
//! The sweep runs on the calling thread: it is a single pass, and
//! splitting its sample points across threads would make every thread
//! replay the match prefix before its first point.

use super::{sample_boundaries, threshold_at, DiagramPoint};
use crate::clustering::{Clustering, UnionFind};
use crate::dataset::hash::{max_load, table_size, SeededHash};
use crate::dataset::{key_ids, RecordId, ScoredPair, SimilarityOrder};
use crate::metrics::confusion::{total_pairs, ConfusionMatrix};

/// Marks a root without a tally: a singleton cluster.
const SINGLETON: u32 = u32::MAX;

/// Entries a tally holds inline before it spills to a table.
const INLINE: usize = 8;

/// Ground-truth cluster → number of an experiment cluster's records in
/// it. No entry has a count of 0.
#[derive(Debug, Clone)]
enum Tally {
    /// The first `len` entries are in use.
    Inline {
        len: u8,
        entries: [(u32, u32); INLINE],
    },
    /// Linear probing over `slots`; a count of 0 marks an empty slot.
    Spilled { slots: Vec<(u32, u32)>, len: usize },
}

impl Tally {
    const EMPTY: Tally = Tally::Inline {
        len: 0,
        entries: [(0, 0); INLINE],
    };

    /// Number of ground-truth clusters in the tally.
    fn len(&self) -> usize {
        match self {
            Tally::Inline { len, .. } => usize::from(*len),
            Tally::Spilled { len, .. } => *len,
        }
    }

    /// The `(ground-truth cluster, count)` entries.
    fn entries(&self) -> impl Iterator<Item = &(u32, u32)> {
        let slots = match self {
            Tally::Inline { len, entries } => &entries[..usize::from(*len)],
            Tally::Spilled { slots, .. } => &slots[..],
        };
        slots.iter().filter(|e| e.1 != 0)
    }

    /// Adds `count` records of ground-truth cluster `g`; returns how
    /// many the tally held before.
    #[inline]
    fn add(&mut self, hash: &SeededHash, g: u32, count: u32) -> u32 {
        match self {
            Tally::Inline { len, entries } => {
                let used = usize::from(*len);
                if let Some(entry) = entries[..used].iter_mut().find(|e| e.0 == g) {
                    entry.1 += count;
                    return entry.1 - count;
                }
                if used < INLINE {
                    entries[used] = (g, count);
                    *len += 1;
                    return 0;
                }
                let mut slots = vec![(0, 0); table_size(2 * INLINE)];
                for &(g, count) in entries.iter() {
                    *probe(&mut slots, hash, g) = (g, count);
                }
                *self = Tally::Spilled { slots, len: INLINE };
                self.add(hash, g, count)
            }
            Tally::Spilled { slots, len } => {
                if max_load(*len, slots.len()) {
                    let grown = vec![(0, 0); slots.len() * 2];
                    let old = std::mem::replace(slots, grown);
                    for (g, count) in old.into_iter().filter(|e| e.1 != 0) {
                        *probe(slots, hash, g) = (g, count);
                    }
                }
                let slot = probe(slots, hash, g);
                let before = slot.1;
                if before == 0 {
                    *len += 1;
                }
                *slot = (g, before + count);
                before
            }
        }
    }
}

/// The slot of `g` in `slots`: its entry, or the empty slot it would
/// take.
#[inline]
fn probe<'s>(slots: &'s mut [(u32, u32)], hash: &SeededHash, g: u32) -> &'s mut (u32, u32) {
    let mask = slots.len() - 1;
    let mut i = hash.u64(u64::from(g)) as usize & mask;
    while slots[i].1 != 0 && slots[i].0 != g {
        i = (i + 1) & mask;
    }
    &mut slots[i]
}

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
    /// Keys the spilled tallies' tables.
    hash: SeededHash,
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
            hash: SeededHash::new(),
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

    /// Applies `matches`, given as record ids, in order. `truth` must
    /// be the clustering the state was created from.
    pub(crate) fn apply(
        &mut self,
        truth: &Clustering,
        matches: impl IntoIterator<Item = (RecordId, RecordId)>,
    ) {
        for (a, b) in matches {
            self.union(truth, a, b);
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
                let moved = std::mem::replace(&mut self.tallies[small as usize], Tally::EMPTY);
                let into = &mut self.tallies[big as usize];
                for &(g, count) in moved.entries() {
                    let before = into.add(&self.hash, g, count);
                    self.true_positives += u64::from(before) * u64::from(count);
                }
                self.free.push(small);
                big
            }
        };
        self.tally_of[root.index()] = survivor;
    }

    /// Adds one record of ground-truth cluster `g` to tally `t`: it
    /// pairs with every record of `g` already there.
    fn add_record(&mut self, t: u32, g: u32) -> u32 {
        let before = self.tallies[t as usize].add(&self.hash, g, 1);
        self.true_positives += u64::from(before);
        t
    }

    /// An empty tally, recycled when one is free.
    fn fresh_tally(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.tallies.push(Tally::EMPTY);
            (self.tallies.len() - 1) as u32
        })
    }
}

/// Algorithm 1: computes `s` confusion matrices in one pass over
/// `matches`, in their order, which must be by similarity descending.
/// `truth` covers the dataset's records.
pub fn confusion_series(truth: &Clustering, matches: &[ScoredPair], s: usize) -> Vec<DiagramPoint> {
    let boundaries = sample_boundaries(matches.len(), s);
    let thresholds = boundaries.iter().map(|&k| threshold_at(matches, k));
    sweep_points(
        SweepState::new(truth),
        truth,
        matches.iter().map(|sp| sp.pair.ids()),
        0,
        &boundaries,
        thresholds,
    )
}

/// Algorithm 1 over an experiment's matches: sorts their
/// [`SimilarityOrder`] keys and sweeps the keys.
pub(crate) fn experiment_series(
    truth: &Clustering,
    matches: &[ScoredPair],
    s: usize,
) -> Vec<DiagramPoint> {
    let order = SimilarityOrder::new(matches);
    let boundaries = sample_boundaries(matches.len(), s);
    let thresholds = thresholds(&order, &boundaries);
    sweep_points(
        SweepState::new(truth),
        truth,
        order.keys().iter().map(|&k| key_ids(k)),
        0,
        &boundaries,
        thresholds,
    )
}

/// The threshold of every prefix length in `boundaries` (ascending):
/// `+∞` for none, else the last applied match's similarity, `-∞` when
/// it has none.
pub(crate) fn thresholds(order: &SimilarityOrder, boundaries: &[usize]) -> Vec<f64> {
    let empty = boundaries.partition_point(|&k| k == 0);
    let last: Vec<usize> = boundaries[empty..].iter().map(|&k| k - 1).collect();
    let similarities = order.similarities_at(&last);
    std::iter::repeat_n(f64::INFINITY, empty)
        .chain(
            similarities
                .into_iter()
                .map(|s| s.unwrap_or(f64::NEG_INFINITY)),
        )
        .collect()
}

/// Steps `state`, which has applied the first `applied` matches, to
/// every prefix length in `boundaries` (ascending, none below
/// `applied`) and reads one point at each. `matches` yields the
/// matches from position `applied` on, and `thresholds` one threshold
/// per boundary.
pub(crate) fn sweep_points(
    mut state: SweepState,
    truth: &Clustering,
    mut matches: impl Iterator<Item = (RecordId, RecordId)>,
    mut applied: usize,
    boundaries: &[usize],
    thresholds: impl IntoIterator<Item = f64>,
) -> Vec<DiagramPoint> {
    boundaries
        .iter()
        .zip(thresholds)
        .map(|(&k, threshold)| {
            state.apply(truth, matches.by_ref().take(k - applied));
            applied = k;
            DiagramPoint {
                threshold,
                matches_applied: k,
                matrix: state.matrix(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matched(a: u32, b: u32) -> [(RecordId, RecordId); 1] {
        [(RecordId(a), RecordId(b))]
    }

    /// Applies `steps` one match at a time and checks `(TP, TP + FP)`
    /// after each.
    fn assert_steps(truth: &Clustering, steps: &[(u32, u32, u64, u64)]) {
        let mut state = SweepState::new(truth);
        for (i, &(a, b, tp, predicted)) in steps.iter().enumerate() {
            state.apply(truth, matched(a, b));
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
            state.apply(&truth, matched(a, b));
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
        state.apply(
            &truth,
            [matched(0, 1), matched(2, 3), matched(4, 2)].concat(),
        );
        assert_eq!(state.true_positives, 1); // {2,4}
        assert_eq!(state.tallies.len(), 2);
        state.apply(&truth, matched(1, 3));
        // {0,1} ∪ {2,3,4}: g0 1·2, g1 1·1 → TP 1 + 3.
        assert_eq!(state.true_positives, 4);
        assert_eq!(state.free.len(), 1);
        state.apply(&truth, matched(5, 6));
        assert_eq!(state.true_positives, 5);
        assert_eq!(state.tallies.len(), 2, "the freed tally was reused");
    }

    /// Two hubs each grow a cluster across every ground-truth cluster,
    /// so both tallies spill and their tables grow, and then a bridge
    /// merges the two spilled tallies. Every point equals the naive
    /// re-clustering, on both the pre-sorted and the keyed entry point.
    #[test]
    fn spilled_tallies_match_reclustering() {
        let n = 400u32;
        let golds = 37u32; // > INLINE, and more than a first table holds
        let truth = Clustering::from_assignment(&(0..n).map(|r| r % golds).collect::<Vec<_>>());
        let (hub_a, hub_b) = (0u32, 200u32);
        let mut triples: Vec<(u32, u32, f64)> = (1..150u32)
            .flat_map(|i| {
                let score = 1.0 - f64::from(i) / 1_000.0;
                [(hub_a, i, score), (hub_b, hub_b + i, score)]
            })
            .collect();
        triples.push((hub_a, hub_b, 0.5)); // the bridge
        triples.push((149, 349, 0.4)); // already joined: changes nothing
        triples.push((360, 370, 0.3));
        let e = crate::dataset::Experiment::from_scored_pairs("hubs", triples);
        let sorted = e.pairs_by_similarity_desc();
        let s = sorted.len() + 1;
        let keyed = experiment_series(&truth, e.pairs(), s);
        assert_eq!(confusion_series(&truth, &sorted, s), keyed);
        for point in &keyed {
            let k = point.matches_applied;
            let experiment =
                Clustering::from_pairs(n as usize, sorted[..k].iter().map(|sp| sp.pair));
            assert_eq!(
                point.matrix,
                ConfusionMatrix::from_clusterings(&experiment, &truth),
                "after {k} matches"
            );
        }

        let mut state = SweepState::new(&truth);
        state.apply(&truth, sorted[..2 * 149].iter().map(|sp| sp.pair.ids()));
        let spilled = |state: &SweepState, hub: u32| {
            let t = state.tally_of[state.experiment.clone().find(RecordId(hub)).index()];
            matches!(state.tallies[t as usize], Tally::Spilled { len, .. } if len == golds as usize)
        };
        assert!(spilled(&state, hub_a) && spilled(&state, hub_b));
        state.apply(&truth, [(RecordId(hub_a), RecordId(hub_b))]);
        assert!(spilled(&state, hub_a));
        assert_eq!(state.free.len(), 1, "the absorbed tally is free");
    }
}
