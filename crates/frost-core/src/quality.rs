//! Quality estimation **without** a ground truth (§3.2.3).
//!
//! Real-world use-case datasets usually lack gold standards — that is,
//! after all, why matching solutions are applied. Frost therefore also
//! supports metrics and strategies estimating matching quality from the
//! results alone:
//!
//! * [`closure_inconsistency`] — pairs missing for transitive closure.
//! * [`link_redundancy`] — redundancy of the identity link network
//!   (Idrissou et al.'s eQ intuition: redundant links ⇒ high quality).
//! * [`compactness`] / [`separation`] — Chaudhuri et al.'s compact-set /
//!   sparse-neighborhood criterion, from similarity scores.
//! * [`algorithm_consensus`] — agreement between different duplicate
//!   clustering algorithms applied to the same match set.
//! * [`majority_vote`] / [`consensus_deviation`] — consensus across
//!   several matching solutions on the same dataset.
//!
//! The signals built on the experiment's transitive closure take that
//! closure as a parameter — the store computes it once at import — and
//! never enumerate its intra-cluster pairs: they cost `O(records +
//! pairs)` however large the closure clusters are.
//!
//! The graph signals — [`bridge_ratio`] and the greedy clique
//! clustering inside [`algorithm_consensus`] — walk the match graph as
//! one CSR [`Adjacency`] (id-indexed offsets, sorted neighbour rows),
//! which the caller builds once per request and passes to both: array
//! kernels in `O(records + pairs)` with no hash map and no allocation
//! per pair. The agreement between clusterings is counted in one
//! counter array, without sorting the records.

use crate::clustering::algorithms::{center_clustering, clustering_agreement, greedy_clique};
use crate::clustering::{Adjacency, Clustering};
use crate::dataset::{Experiment, PairAlgebra, PairSet, RecordPair, RoaringPairSet};
use std::collections::HashMap;

/// The number of pairs that must be **added** for the experiment's match
/// set to be transitively closed, given its `closure`; 0 means fully
/// consistent — "the larger this number, the more inconsistent the
/// proposed matches" (§3.2.3).
pub fn closure_inconsistency(closure: &Clustering, experiment: &Experiment) -> u64 {
    closure.pair_count() - experiment.len() as u64
}

/// Closure inconsistency normalized by the closed pair count, in `[0, 1)`.
/// `0.0` for an already-closed (or empty) experiment.
pub fn normalized_closure_inconsistency(closure: &Clustering, experiment: &Experiment) -> f64 {
    match closure.pair_count() {
        0 => 0.0,
        closed => closure_inconsistency(closure, experiment) as f64 / closed as f64,
    }
}

/// Redundancy of the identity link network, averaged over non-trivial
/// components of the experiment's `closure`, in `[0, 1]`.
///
/// A component of `k` records needs `k−1` links to be connected; every
/// additional link is *redundant* evidence. Per component the score is
/// `(links − (k−1)) / (C(k,2) − (k−1))`, i.e. 0 for a spanning tree and
/// 1 for a clique; components of size 2 are fully redundant by
/// definition. Idrissou et al. report "very strong predictive power" of
/// such redundancy for matching quality.
pub fn link_redundancy(closure: &Clustering, experiment: &Experiment) -> f64 {
    // Count matcher-emitted links per component.
    let mut links = vec![0u64; closure.num_clusters()];
    for sp in experiment.pairs() {
        let c = closure.cluster_of(sp.pair.lo());
        debug_assert_eq!(c, closure.cluster_of(sp.pair.hi()));
        links[c as usize] += 1;
    }
    let mut total = 0.0;
    let mut count = 0usize;
    for (members, &l) in closure.clusters().zip(&links) {
        let k = members.len() as u64;
        if k < 2 {
            continue;
        }
        count += 1;
        let spanning = k - 1;
        let max = k * (k - 1) / 2;
        total += if max == spanning {
            1.0 // size-2 components: the single link is all the evidence there is
        } else {
            (l.saturating_sub(spanning)) as f64 / (max - spanning) as f64
        };
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

/// Mean similarity of the matcher-emitted matches — the *compactness* of
/// the proposed duplicate clusters. Requires scores; unscored pairs are
/// skipped. `None` when no scored match exists.
pub fn compactness(experiment: &Experiment) -> Option<f64> {
    let scores: Vec<f64> = experiment
        .matcher_pairs()
        .filter_map(|sp| sp.similarity)
        .collect();
    if scores.is_empty() {
        None
    } else {
        Some(scores.iter().sum::<f64>() / scores.len() as f64)
    }
}

/// Sparse-neighborhood separation: mean over clusters of
/// `(mean intra-cluster similarity) − (max similarity to any outside
/// record)`, computed from a set of scored candidate pairs that includes
/// close non-matches. Positive values mean clusters sit in locally
/// sparse neighborhoods (Chaudhuri et al.); `None` when no cluster has
/// both kinds of evidence.
pub fn separation(clustering: &Clustering, scored_candidates: &[(RecordPair, f64)]) -> Option<f64> {
    let mut intra: HashMap<u32, (f64, u64)> = HashMap::new();
    let mut inter_max: HashMap<u32, f64> = HashMap::new();
    for &(pair, sim) in scored_candidates {
        let ca = clustering.cluster_of(pair.lo());
        let cb = clustering.cluster_of(pair.hi());
        if ca == cb {
            let e = intra.entry(ca).or_insert((0.0, 0));
            e.0 += sim;
            e.1 += 1;
        } else {
            for c in [ca, cb] {
                let m = inter_max.entry(c).or_insert(f64::NEG_INFINITY);
                if sim > *m {
                    *m = sim;
                }
            }
        }
    }
    let mut total = 0.0;
    let mut count = 0usize;
    for (cluster, (sum, cnt)) in intra {
        if let Some(&outside) = inter_max.get(&cluster) {
            total += sum / cnt as f64 - outside;
            count += 1;
        }
    }
    if count == 0 {
        None
    } else {
        Some(total / count as f64)
    }
}

/// Agreement between duplicate-clustering algorithms applied to the same
/// match set: the mean pairwise Jaccard agreement of transitive closure,
/// center clustering, and greedy clique clustering. "The more similar
/// the resulting clusterings are, the more consistent are the initially
/// discovered matches." The transitive closure is the experiment's
/// `closure`; the clique clustering runs on its `adjacency`.
pub fn algorithm_consensus(
    closure: &Clustering,
    experiment: &Experiment,
    adjacency: &Adjacency,
) -> f64 {
    let center = center_clustering(closure.num_records(), experiment.pairs());
    let clique = greedy_clique(adjacency);
    let agreements = [
        clustering_agreement(closure, &center),
        clustering_agreement(closure, &clique),
        clustering_agreement(&center, &clique),
    ];
    agreements.iter().sum::<f64>() / agreements.len() as f64
}

/// Fraction of matcher-emitted links that are *bridges* of the identity
/// link network — links whose removal disconnects their component.
///
/// A spanning-tree-like network (all bridges) rests every identity on a
/// single piece of evidence; a redundant network (no bridges) is
/// corroborated. This complements [`link_redundancy`]: redundancy is a
/// global average, the bridge ratio pinpoints fragility. Takes the
/// experiment's [`Adjacency`]; returns `0.0` for a network without
/// links.
pub fn bridge_ratio(adjacency: &Adjacency) -> f64 {
    match adjacency.num_edges() {
        0 => 0.0,
        edges => adjacency.bridge_count() as f64 / edges as f64,
    }
}

/// The majority-vote match set over several experiments: a pair counts as
/// a consensus match iff strictly more than half of the solutions
/// emitted it. Usable as an "experimental ground truth" (§4.1, citing
/// Vogel et al.'s annealing standard).
///
/// Computed as one sort + run-length count over the concatenated packed
/// pair sets — no hashing. Returns the packed engine; use
/// [`majority_vote_as`] to build the consensus in another
/// [`PairAlgebra`] representation.
pub fn majority_vote(experiments: &[&Experiment]) -> PairSet {
    majority_vote_as(experiments)
}

/// [`majority_vote`], generic over the output set engine.
pub fn majority_vote_as<S: PairAlgebra>(experiments: &[&Experiment]) -> S {
    let mut all: Vec<u64> = Vec::new();
    for e in experiments {
        // `pair_set()` dedups within one experiment, so each experiment
        // contributes at most one vote per pair.
        all.extend(e.pair_set().as_packed());
    }
    all.sort_unstable();
    let quorum = experiments.len() / 2;
    // Qualifying pairs fall out of the run-length scan in ascending
    // order — exactly the `from_sorted_packed` contract.
    let mut consensus: Vec<u64> = Vec::new();
    let mut i = 0;
    while i < all.len() {
        let mut j = i + 1;
        while j < all.len() && all[j] == all[i] {
            j += 1;
        }
        if j - i > quorum {
            consensus.push(all[i]);
        }
        i = j;
    }
    S::from_sorted_packed(consensus)
}

/// Per-experiment deviation from the majority vote: the number of pairs
/// where the experiment disagrees with the consensus (emitted a
/// non-consensus pair, or missed a consensus pair). "The total number of
/// deviations from the majority votes can be used to estimate the
/// quality of the whole matching result."
///
/// Runs on the two-level roaring engine: with many experiments the
/// consensus and the per-experiment sets are held simultaneously, and
/// matcher outputs are uniformly sparse — exactly the shape whose
/// working set the roaring layout bounds (~2.3 bytes/pair).
pub fn consensus_deviation(experiments: &[&Experiment]) -> Vec<(String, u64)> {
    let consensus: RoaringPairSet = majority_vote_as(experiments);
    experiments
        .iter()
        .map(|e| {
            let own = e.roaring_pair_set();
            let false_extra = own.difference_len(&consensus) as u64;
            let missed = consensus.difference_len(&own) as u64;
            (e.name().to_string(), false_extra + missed)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hash-map bridge ratio that [`bridge_ratio`] replaced, kept as
    /// the reference of its differential test.
    fn bridge_ratio_reference(n: usize, experiment: &Experiment) -> f64 {
        let edges: Vec<RecordPair> = experiment.pairs().iter().map(|sp| sp.pair).collect();
        if edges.is_empty() {
            return 0.0;
        }
        // Adjacency with edge indices (parallel edges impossible: Experiment
        // dedups pairs).
        let mut adj: HashMap<u32, Vec<(u32, usize)>> = HashMap::new();
        for (i, e) in edges.iter().enumerate() {
            adj.entry(e.lo().0).or_default().push((e.hi().0, i));
            adj.entry(e.hi().0).or_default().push((e.lo().0, i));
        }
        // Iterative Tarjan bridge finding.
        let mut disc: HashMap<u32, u32> = HashMap::new();
        let mut low: HashMap<u32, u32> = HashMap::new();
        let mut timer = 0u32;
        let mut bridges = 0usize;
        let nodes: Vec<u32> = (0..n as u32).filter(|v| adj.contains_key(v)).collect();
        for &root in &nodes {
            if disc.contains_key(&root) {
                continue;
            }
            // Stack frames: (node, incoming edge index, neighbor cursor).
            let mut stack: Vec<(u32, Option<usize>, usize)> = vec![(root, None, 0)];
            disc.insert(root, timer);
            low.insert(root, timer);
            timer += 1;
            while let Some(&mut (v, parent_edge, ref mut cursor)) = stack.last_mut() {
                let neighbors = &adj[&v];
                if *cursor < neighbors.len() {
                    let (to, edge) = neighbors[*cursor];
                    *cursor += 1;
                    if Some(edge) == parent_edge {
                        continue;
                    }
                    match disc.get(&to) {
                        Some(&d) => {
                            let lv = low.get_mut(&v).expect("visited");
                            *lv = (*lv).min(d);
                        }
                        None => {
                            disc.insert(to, timer);
                            low.insert(to, timer);
                            timer += 1;
                            stack.push((to, Some(edge), 0));
                        }
                    }
                } else {
                    stack.pop();
                    if let Some(&(parent, _, _)) = stack.last() {
                        let lv = low[&v];
                        let lp = low.get_mut(&parent).expect("visited");
                        *lp = (*lp).min(lv);
                        if lv > disc[&parent] {
                            bridges += 1;
                        }
                    }
                }
            }
        }
        bridges as f64 / edges.len() as f64
    }

    fn pair(a: u32, b: u32) -> RecordPair {
        RecordPair::from((a, b))
    }

    fn closure(n: usize, e: &Experiment) -> Clustering {
        Clustering::from_experiment(n, e)
    }

    fn adjacency(n: usize, e: &Experiment) -> Adjacency {
        Adjacency::new(n, e.pairs())
    }

    #[test]
    fn closure_inconsistency_wrappers() {
        let chain = Experiment::from_pairs("c", [(0u32, 1u32), (1, 2), (2, 3)]);
        assert_eq!(closure_inconsistency(&closure(4, &chain), &chain), 3);
        assert!(
            (normalized_closure_inconsistency(&closure(4, &chain), &chain) - 0.5).abs() < 1e-12
        );
        let empty = Experiment::from_pairs::<u32>("e", []);
        assert_eq!(
            normalized_closure_inconsistency(&closure(4, &empty), &empty),
            0.0
        );
    }

    #[test]
    fn redundancy_spanning_tree_vs_clique() {
        // Star over 4 nodes: no redundancy.
        let star = Experiment::from_pairs("s", [(0u32, 1u32), (0, 2), (0, 3)]);
        assert_eq!(link_redundancy(&closure(4, &star), &star), 0.0);
        // Full clique: maximal redundancy.
        let clique =
            Experiment::from_pairs("k", [(0u32, 1u32), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert!((link_redundancy(&closure(4, &clique), &clique) - 1.0).abs() < 1e-12);
        // Size-2 components count as fully redundant.
        let edge = Experiment::from_pairs("e", [(0u32, 1u32)]);
        assert_eq!(link_redundancy(&closure(2, &edge), &edge), 1.0);
        // No links at all.
        let none = Experiment::from_pairs::<u32>("n", []);
        assert_eq!(link_redundancy(&closure(3, &none), &none), 0.0);
    }

    #[test]
    fn compactness_mean_of_scores() {
        let e = Experiment::from_scored_pairs("e", [(0u32, 1u32, 0.8), (2, 3, 0.6)]);
        assert!((compactness(&e).unwrap() - 0.7).abs() < 1e-12);
        let unscored = Experiment::from_pairs("u", [(0u32, 1u32)]);
        assert_eq!(compactness(&unscored), None);
    }

    #[test]
    fn separation_rewards_sparse_neighborhoods() {
        let clustering = Clustering::from_assignment(&[0, 0, 1, 1]);
        // Dense intra (0.9), far neighbors (0.2): good separation.
        let good = [(pair(0, 1), 0.9), (pair(2, 3), 0.9), (pair(1, 2), 0.2)];
        // Near neighbors (0.85): poor separation.
        let bad = [(pair(0, 1), 0.9), (pair(2, 3), 0.9), (pair(1, 2), 0.85)];
        let sg = separation(&clustering, &good).unwrap();
        let sb = separation(&clustering, &bad).unwrap();
        assert!(sg > sb);
        assert!(sg > 0.0);
        // No inter-cluster evidence → None.
        assert_eq!(separation(&clustering, &[(pair(0, 1), 0.9)]), None);
    }

    #[test]
    fn consensus_higher_for_consistent_matches() {
        // A clean clique agrees across algorithms...
        let clean =
            Experiment::from_scored_pairs("clean", [(0u32, 1u32, 0.9), (1, 2, 0.9), (0, 2, 0.9)]);
        let c_clean = algorithm_consensus(&closure(5, &clean), &clean, &adjacency(5, &clean));
        // ...a straggly chain does not.
        let chain = Experiment::from_scored_pairs(
            "chain",
            [(0u32, 1u32, 0.9), (1, 2, 0.5), (2, 3, 0.4), (3, 4, 0.3)],
        );
        let c_chain = algorithm_consensus(&closure(5, &chain), &chain, &adjacency(5, &chain));
        assert!(c_clean > c_chain, "{c_clean} vs {c_chain}");
        assert!((c_clean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn majority_vote_and_deviation() {
        let a = Experiment::from_pairs("a", [(0u32, 1u32), (2, 3)]);
        let b = Experiment::from_pairs("b", [(0u32, 1u32), (4, 5)]);
        let c = Experiment::from_pairs("c", [(0u32, 1u32), (2, 3)]);
        let exps = [&a, &b, &c];
        let consensus = majority_vote(&exps);
        assert!(consensus.contains(&pair(0, 1))); // 3 votes
        assert!(consensus.contains(&pair(2, 3))); // 2 of 3 votes
        assert!(!consensus.contains(&pair(4, 5))); // 1 vote
        let dev = consensus_deviation(&exps);
        let by_name: HashMap<_, _> = dev.into_iter().collect();
        assert_eq!(by_name["a"], 0);
        assert_eq!(by_name["b"], 2); // emitted 4-5, missed 2-3
        assert_eq!(by_name["c"], 0);
    }

    #[test]
    fn majority_vote_empty_input() {
        assert!(majority_vote(&[]).is_empty());
    }

    #[test]
    fn bridge_ratio_extremes() {
        // A chain is all bridges.
        let chain = Experiment::from_pairs("c", [(0u32, 1u32), (1, 2), (2, 3)]);
        assert_eq!(bridge_ratio(&adjacency(4, &chain)), 1.0);
        // A cycle has none.
        let cycle = Experiment::from_pairs("k", [(0u32, 1u32), (1, 2), (2, 0)]);
        assert_eq!(bridge_ratio(&adjacency(3, &cycle)), 0.0);
        // Triangle plus a pendant edge: 1 bridge of 4 links.
        let mixed = Experiment::from_pairs("m", [(0u32, 1u32), (1, 2), (2, 0), (2, 3)]);
        assert!((bridge_ratio(&adjacency(4, &mixed)) - 0.25).abs() < 1e-12);
        // No links at all.
        let none = Experiment::from_pairs::<u32>("n", []);
        assert_eq!(bridge_ratio(&adjacency(3, &none)), 0.0);
    }

    #[test]
    fn bridge_ratio_multiple_components() {
        // Two components: an edge (bridge) and a triangle (no bridges).
        let e = Experiment::from_pairs("two", [(0u32, 1u32), (2, 3), (3, 4), (4, 2)]);
        assert!((bridge_ratio(&adjacency(5, &e)) - 0.25).abs() < 1e-12);
    }

    mod differential {
        use super::*;
        use crate::clustering::algorithms::{
            clustering_agreement_reference, greedy_clique_clustering,
            greedy_clique_clustering_reference,
        };
        use crate::dataset::ScoredPair;
        use proptest::prelude::*;

        /// A component: its shape (0 star, 1 path, 2 clique, 3 cycle,
        /// 4 isolated records) and its size.
        type Component = (usize, usize);

        /// The graph of `components` laid side by side, plus `extra`
        /// links between any two of its records, relabelled by the
        /// order of `keys`: stars, paths, cliques and cycles in several
        /// components, isolated records, repeated pairs and many ties
        /// in degree and in shared neighbours.
        fn graph(
            components: &[Component],
            extra: &[(u32, u32)],
            keys: &[u32],
        ) -> (usize, Vec<ScoredPair>) {
            let mut raw: Vec<(u32, u32)> = Vec::new();
            let mut n = 0u32;
            for &(shape, size) in components {
                let (base, k) = (n, size as u32);
                let link = |a: u32, b: u32| (base + a, base + b);
                match shape {
                    0 => raw.extend((1..k).map(|leaf| link(0, leaf))),
                    1 => raw.extend((1..k).map(|i| link(i - 1, i))),
                    2 => raw.extend((0..k).flat_map(|a| (a + 1..k).map(move |b| link(a, b)))),
                    3 if k >= 3 => raw.extend((0..k).map(|i| link(i, (i + 1) % k))),
                    _ => {}
                }
                n += k;
            }
            let n = n.max(2);
            raw.extend(extra.iter().map(|&(a, b)| (a % n, b % n)));
            // Relabel: record `v` becomes its rank among `keys[..n]`.
            let mut order: Vec<u32> = (0..n).collect();
            order.sort_by_key(|&v| (keys[v as usize % keys.len()], v));
            let mut label = vec![0u32; n as usize];
            for (rank, &v) in order.iter().enumerate() {
                label[v as usize] = rank as u32;
            }
            let pairs = raw
                .into_iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| ScoredPair::unscored((label[a as usize], label[b as usize])))
                .collect();
            (n as usize, pairs)
        }

        fn components() -> impl Strategy<Value = Vec<Component>> {
            prop::collection::vec((0usize..5, 1usize..8), 0..6)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(3000))]

            /// The CSR clique clustering, the bridge ratio and the
            /// counted agreement equal their references: the same
            /// clustering, and the same ratios bit for bit.
            #[test]
            fn graph_kernels_agree_with_reference(
                components in components(),
                extra in prop::collection::vec((0u32..48, 0u32..48), 0..24),
                keys in prop::collection::vec(0u32..16, 1..48),
            ) {
                let (n, pairs) = graph(&components, &extra, &keys);
                prop_assert_eq!(
                    greedy_clique_clustering(n, &pairs),
                    greedy_clique_clustering_reference(n, &pairs)
                );
                let experiment = Experiment::from_pairs("e", pairs.iter().map(|sp| sp.pair.ids()));
                prop_assert_eq!(
                    bridge_ratio(&adjacency(n, &experiment)).to_bits(),
                    bridge_ratio_reference(n, &experiment).to_bits()
                );
                let clusterings = [
                    closure(n, &experiment),
                    center_clustering(n, &pairs),
                    greedy_clique_clustering(n, &pairs),
                    Clustering::singletons(n),
                ];
                for a in &clusterings {
                    for b in &clusterings {
                        prop_assert_eq!(
                            clustering_agreement(a, b).to_bits(),
                            clustering_agreement_reference(a, b).to_bits()
                        );
                    }
                }
            }
        }
    }
}
