//! Transitive closure of match sets.
//!
//! Real-world matching solutions often output match sets that are not
//! transitively closed (§1.2). Frost requires closed result sets; the
//! closure step tags every added pair with [`PairOrigin::Closure`] so the
//! *plain result pairs* strategy (§4.2.4) can hide them again. The number
//! of pairs the closure adds is itself a quality signal: "the minimum
//! number of pairs that must be added to or removed from the set of
//! detected matches for it to be transitively closed" (§3.2.3).

use super::Clustering;
use crate::dataset::{Experiment, PairOrigin, ScoredPair};

/// Transitively closes an experiment over a dataset of `n` records.
///
/// The returned experiment contains all original pairs (scores and origins
/// preserved) plus every pair implied by connectivity, tagged
/// [`PairOrigin::Closure`].
pub fn close_experiment(n: usize, experiment: &Experiment) -> Experiment {
    let clustering = Clustering::from_experiment(n, experiment);
    let existing = experiment.pair_set();
    let mut pairs: Vec<ScoredPair> = experiment.pairs().to_vec();
    for pair in clustering.intra_pairs() {
        if !existing.contains(&pair) {
            pairs.push(ScoredPair {
                pair,
                similarity: None,
                origin: PairOrigin::Closure,
            });
        }
    }
    Experiment::new(format!("{}+closure", experiment.name()), pairs)
}

/// Whether the experiment's match set is already transitively closed
/// (its [`closure_inconsistency`](crate::quality::closure_inconsistency)
/// is zero).
pub fn is_transitively_closed(n: usize, experiment: &Experiment) -> bool {
    let closure = Clustering::from_experiment(n, experiment);
    crate::quality::closure_inconsistency(&closure, experiment) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::RecordPair;

    #[test]
    fn closure_adds_tagged_pairs() {
        let e = Experiment::from_scored_pairs("e", [(0u32, 1u32, 0.9), (1, 2, 0.8)]);
        let closed = close_experiment(4, &e);
        assert_eq!(closed.len(), 3);
        let added: Vec<&ScoredPair> = closed
            .pairs()
            .iter()
            .filter(|sp| sp.origin == PairOrigin::Closure)
            .collect();
        assert_eq!(added.len(), 1);
        assert_eq!(added[0].pair, RecordPair::from((0u32, 2u32)));
        assert_eq!(added[0].similarity, None);
        // Original scores survive.
        assert!(closed.pairs().iter().any(|sp| sp.similarity == Some(0.9)));
    }

    #[test]
    fn closed_set_is_fixed_point() {
        let e = Experiment::from_pairs("e", [(0u32, 1u32), (1, 2), (0, 2)]);
        assert!(is_transitively_closed(3, &e));
        let closed = close_experiment(3, &e);
        assert_eq!(closed.len(), 3);
    }

    #[test]
    fn missing_pairs_counts_chain() {
        // A path 0-1-2-3 needs 3 extra pairs to close the 4-clique.
        let e = Experiment::from_pairs("e", [(0u32, 1u32), (1, 2), (2, 3)]);
        let closure = Clustering::from_experiment(4, &e);
        assert_eq!(crate::quality::closure_inconsistency(&closure, &e), 3);
        assert!(!is_transitively_closed(4, &e));
    }

    #[test]
    fn closure_is_idempotent() {
        let e = Experiment::from_pairs("e", [(0u32, 1u32), (1, 2)]);
        let once = close_experiment(4, &e);
        let twice = close_experiment(4, &once);
        assert_eq!(once.pair_set(), twice.pair_set());
    }
}
