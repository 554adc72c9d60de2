//! Duplicate-clustering algorithms.
//!
//! When a matching solution outputs a match set that is not transitively
//! closed, naively closing it "often introduces many false positives";
//! instead "a clustering algorithm specific to the use case can be
//! applied" (§1.2, citing Draisbach/Christen/Naumann and Hassanzadeh et
//! al.). Frost uses clustering-algorithm agreement as a ground-truth-free
//! quality signal (§3.2.3): the more similar the clusterings produced by
//! different algorithms, the more consistent the discovered matches.
//!
//! Implemented here:
//! * [`connected_components`] — plain transitive closure.
//! * [`center_clustering`] / [`merge_center_clustering`] — the classic
//!   similarity-ordered center algorithms.
//! * [`greedy_clique_clustering`] — an approximation of maximum-clique
//!   clustering, run by [`greedy_clique`] on the CSR [`Adjacency`]:
//!   a counting sort for the seed order, one mark array for the
//!   shared-neighbour counts, and binary searches in sorted rows for
//!   clique membership.
//! * [`markov_clustering`] — MCL (expansion + inflation) run per
//!   connected component.
//! * [`pivot_clustering`] — the randomized-pivot correlation-clustering
//!   3-approximation (deterministic, seed-ordered pivots).
//! * [`star_clustering`] — star clusters around degree-ordered hubs
//!   (records may only attach to their best available hub).
//!
//! [`clustering_agreement`] compares two clusterings by counting, in
//! `O(records)`.

use super::{Adjacency, Clustering, UnionFind};
use crate::dataset::{key_pair, RecordId, RecordPair, ScoredPair, SimilarityOrder};
use std::collections::HashMap;

/// The pairs by similarity descending (unscored pairs last, ties
/// broken by pair order for determinism), in the diagram sweep's
/// [`SimilarityOrder`]: `-0.0` ranks with `+0.0`, and NaN with the
/// unscored pairs.
fn by_similarity_desc(pairs: &[ScoredPair]) -> Vec<RecordPair> {
    let order = SimilarityOrder::new(pairs);
    order.keys().iter().map(|&k| key_pair(k)).collect()
}

/// Transitive closure: connected components of the match graph.
pub fn connected_components(n: usize, pairs: &[ScoredPair]) -> Clustering {
    Clustering::from_pairs(n, pairs.iter().map(|sp| sp.pair))
}

/// Center clustering (Hassanzadeh et al.): edges are visited in descending
/// similarity; an edge's endpoints become center/member when unassigned,
/// and non-center nodes attach to the first center they meet.
pub fn center_clustering(n: usize, pairs: &[ScoredPair]) -> Clustering {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Unassigned,
        Center,
        Member(u32),
    }
    let mut state = vec![State::Unassigned; n];
    for pair in by_similarity_desc(pairs) {
        let (a, b) = (pair.lo().index(), pair.hi().index());
        match (state[a], state[b]) {
            (State::Unassigned, State::Unassigned) => {
                state[a] = State::Center;
                state[b] = State::Member(a as u32);
            }
            (State::Center, State::Unassigned) => state[b] = State::Member(a as u32),
            (State::Unassigned, State::Center) => state[a] = State::Member(b as u32),
            _ => {}
        }
    }
    let labels: Vec<u32> = state
        .iter()
        .enumerate()
        .map(|(i, s)| match s {
            State::Member(c) => *c,
            _ => i as u32,
        })
        .collect();
    Clustering::from_assignment(&labels)
}

/// Merge-center clustering: like center clustering, but when an edge
/// connects two existing clusters through their centers (or a member and
/// a center), the clusters merge.
pub fn merge_center_clustering(n: usize, pairs: &[ScoredPair]) -> Clustering {
    // Assignment to a center id; centers point at themselves.
    let mut center: Vec<Option<u32>> = vec![None; n];
    let mut is_center = vec![false; n];
    let mut uf = UnionFind::new(n);
    for pair in by_similarity_desc(pairs) {
        let (a, b) = (pair.lo().index(), pair.hi().index());
        match (center[a], center[b]) {
            (None, None) => {
                center[a] = Some(a as u32);
                is_center[a] = true;
                center[b] = Some(a as u32);
                uf.union(RecordId(a as u32), RecordId(b as u32));
            }
            (Some(ca), None) => {
                center[b] = Some(ca);
                uf.union(RecordId(ca), RecordId(b as u32));
            }
            (None, Some(cb)) => {
                center[a] = Some(cb);
                uf.union(RecordId(cb), RecordId(a as u32));
            }
            (Some(_), Some(_)) => {
                // Merge when the edge touches at least one *center* — the
                // "merge" step distinguishing merge-center from center.
                if is_center[a] || is_center[b] {
                    uf.union(RecordId(a as u32), RecordId(b as u32));
                }
            }
        }
    }
    Clustering::from_union_find(&mut uf)
}

/// Greedy approximation of maximum-clique clustering: repeatedly seed a
/// cluster with the highest-degree remaining node and grow it with
/// neighbors adjacent to *all* current members.
///
/// Builds the [`Adjacency`] of `pairs` and runs [`greedy_clique`] on it.
pub fn greedy_clique_clustering(n: usize, pairs: &[ScoredPair]) -> Clustering {
    greedy_clique(&Adjacency::new(n, pairs))
}

/// [`greedy_clique_clustering`] over a built adjacency.
///
/// Seeds are visited by degree descending, then id. A seed's
/// unassigned neighbours are tried by the neighbours they share with
/// the seed (descending), then degree (descending), then id: bridge
/// endpoints share none and are tried last, which keeps weakly
/// connected cliques apart. Each candidate's shared-neighbour count is
/// counted once, against a mark array stamped with the seed's row, and
/// "adjacent to every member" is a binary search per member in the
/// candidate's sorted row. No allocation happens per seed or per pair.
pub fn greedy_clique(adjacency: &Adjacency) -> Clustering {
    let n = adjacency.num_nodes();
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut assigned = vec![false; n];
    let order = seed_order(adjacency);
    // `mark[w] == seed` iff `w` is a neighbour of the current seed.
    let mut mark = vec![u32::MAX; n];
    // (shared neighbours, degree, id) of each candidate; sorted once.
    let mut candidates: Vec<(u32, u32, u32)> = Vec::new();
    let mut clique: Vec<u32> = Vec::new();
    for seed in order {
        if assigned[seed as usize] {
            continue;
        }
        assigned[seed as usize] = true;
        let row = adjacency.neighbours(seed);
        for &w in row {
            mark[w as usize] = seed;
        }
        candidates.clear();
        for &v in row.iter().filter(|&&v| !assigned[v as usize]) {
            let others = adjacency.neighbours(v);
            let common = others.iter().filter(|&&w| mark[w as usize] == seed).count();
            candidates.push((common as u32, others.len() as u32, v));
        }
        candidates.sort_unstable_by_key(|&(common, degree, v)| {
            (std::cmp::Reverse(common), std::cmp::Reverse(degree), v)
        });
        // Every candidate is adjacent to the seed, so only the members
        // added after it need checking.
        clique.clear();
        for &(_, _, cand) in &candidates {
            if clique.iter().all(|&m| adjacency.contains(cand, m)) {
                assigned[cand as usize] = true;
                labels[cand as usize] = seed;
                clique.push(cand);
            }
        }
    }
    Clustering::from_assignment(&labels)
}

/// The records with a neighbour, by degree descending, then id: a
/// counting sort by degree, which places the ids of each degree in
/// ascending order.
fn seed_order(adjacency: &Adjacency) -> Vec<u32> {
    let nodes = 0..adjacency.num_nodes() as u32;
    let max_degree = nodes
        .clone()
        .map(|v| adjacency.degree(v))
        .max()
        .unwrap_or(0);
    // `start[d]`: where the records of degree `d` begin, then the next
    // free slot among them. Degree 0 sorts last and is cut off.
    let mut start = vec![0usize; max_degree + 1];
    for v in nodes.clone() {
        start[adjacency.degree(v)] += 1;
    }
    let mut next = 0;
    for d in (1..=max_degree).rev() {
        let count = start[d];
        start[d] = next;
        next += count;
    }
    let mut order = vec![0u32; next];
    for v in nodes.filter(|&v| adjacency.degree(v) > 0) {
        let slot = &mut start[adjacency.degree(v)];
        order[*slot] = v;
        *slot += 1;
    }
    order
}

/// Markov clustering (MCL) per connected component.
///
/// Requires similarity scores; unscored pairs default to weight 1. Each
/// component's weighted adjacency matrix (with self-loops) is column-
/// normalized, then alternately squared (*expansion*) and element-wise
/// powered + renormalized (*inflation*) until convergence. Attractor rows
/// define the clusters. Components larger than `max_component` fall back
/// to their connected component as one cluster, keeping runtime bounded.
pub fn markov_clustering(
    n: usize,
    pairs: &[ScoredPair],
    inflation: f64,
    max_component: usize,
) -> Clustering {
    assert!(inflation > 1.0, "MCL inflation must exceed 1");
    let components = connected_components(n, pairs);
    // Edge weights per pair for quick lookup.
    let mut weight: HashMap<(u32, u32), f64> = HashMap::new();
    for sp in pairs {
        weight.insert(
            (sp.pair.lo().0, sp.pair.hi().0),
            sp.similarity.unwrap_or(1.0).max(f64::EPSILON),
        );
    }
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut next_label = n as u32;
    for comp in components.clusters() {
        if comp.len() <= 1 {
            continue;
        }
        if comp.len() > max_component {
            // Too large to run dense MCL: keep the component as a cluster.
            for r in comp {
                labels[r.index()] = comp[0].0;
            }
            continue;
        }
        let k = comp.len();
        let index_of: HashMap<u32, usize> =
            comp.iter().enumerate().map(|(i, r)| (r.0, i)).collect();
        // Column-stochastic matrix with self loops.
        let mut m = vec![0.0f64; k * k];
        for i in 0..k {
            m[i * k + i] = 1.0;
        }
        for ((lo, hi), w) in &weight {
            if let (Some(&i), Some(&j)) = (index_of.get(lo), index_of.get(hi)) {
                m[i * k + j] = *w;
                m[j * k + i] = *w;
            }
        }
        normalize_columns(&mut m, k);
        for _ in 0..64 {
            let expanded = square(&m, k);
            let mut inflated = expanded;
            inflate(&mut inflated, k, inflation);
            let delta: f64 = inflated
                .iter()
                .zip(m.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            m = inflated;
            if delta < 1e-9 {
                break;
            }
        }
        // Attractors: rows with a significant diagonal. Each attractor row
        // claims the columns where it has positive mass.
        let mut claimed = vec![false; k];
        for i in 0..k {
            if m[i * k + i] > 1e-6 {
                let label = next_label;
                next_label += 1;
                let mut any = false;
                for j in 0..k {
                    if m[i * k + j] > 1e-6 && !claimed[j] {
                        labels[comp[j].index()] = label;
                        claimed[j] = true;
                        any = true;
                    }
                }
                if !any {
                    next_label -= 1;
                }
            }
        }
        // Unclaimed nodes (numerically degenerate) stay singletons.
    }
    Clustering::from_assignment(&labels)
}

fn normalize_columns(m: &mut [f64], k: usize) {
    for j in 0..k {
        let sum: f64 = (0..k).map(|i| m[i * k + j]).sum();
        if sum > 0.0 {
            for i in 0..k {
                m[i * k + j] /= sum;
            }
        }
    }
}

fn square(m: &[f64], k: usize) -> Vec<f64> {
    let mut out = vec![0.0f64; k * k];
    for i in 0..k {
        for l in 0..k {
            let v = m[i * k + l];
            if v == 0.0 {
                continue;
            }
            for j in 0..k {
                out[i * k + j] += v * m[l * k + j];
            }
        }
    }
    out
}

fn inflate(m: &mut [f64], k: usize, inflation: f64) {
    for v in m.iter_mut() {
        *v = v.powf(inflation);
    }
    normalize_columns(m, k);
}

/// Pivot (CC-Pivot) correlation clustering: visit records in a
/// deterministic pseudo-random order derived from `seed`; every
/// unassigned record becomes a pivot and claims all its unassigned
/// neighbors. A 3-approximation of correlation clustering in
/// expectation over the pivot order.
pub fn pivot_clustering(n: usize, pairs: &[ScoredPair], seed: u64) -> Clustering {
    let mut adj: HashMap<u32, Vec<u32>> = HashMap::new();
    for sp in pairs {
        adj.entry(sp.pair.lo().0).or_default().push(sp.pair.hi().0);
        adj.entry(sp.pair.hi().0).or_default().push(sp.pair.lo().0);
    }
    // Deterministic shuffle: sort by a splitmix-style hash of (seed, id).
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mix = |x: u32| {
        let mut z = seed ^ (u64::from(x).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    order.sort_by_key(|&v| (mix(v), v));
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut assigned = vec![false; n];
    for pivot in order {
        if assigned[pivot as usize] {
            continue;
        }
        assigned[pivot as usize] = true;
        labels[pivot as usize] = pivot;
        if let Some(neighbors) = adj.get(&pivot) {
            for &v in neighbors {
                if !assigned[v as usize] {
                    assigned[v as usize] = true;
                    labels[v as usize] = pivot;
                }
            }
        }
    }
    Clustering::from_assignment(&labels)
}

/// Star clustering: hubs are chosen by descending weighted degree (sum
/// of incident similarities); each remaining record attaches to the hub
/// it is most similar to, among hubs it is adjacent to.
pub fn star_clustering(n: usize, pairs: &[ScoredPair]) -> Clustering {
    // Weighted degree and per-record best-hub bookkeeping.
    let mut degree: HashMap<u32, f64> = HashMap::new();
    let mut adj: HashMap<u32, Vec<(u32, f64)>> = HashMap::new();
    for sp in pairs {
        let w = sp.similarity.unwrap_or(1.0);
        *degree.entry(sp.pair.lo().0).or_insert(0.0) += w;
        *degree.entry(sp.pair.hi().0).or_insert(0.0) += w;
        adj.entry(sp.pair.lo().0)
            .or_default()
            .push((sp.pair.hi().0, w));
        adj.entry(sp.pair.hi().0)
            .or_default()
            .push((sp.pair.lo().0, w));
    }
    let mut order: Vec<u32> = degree.keys().copied().collect();
    order.sort_by(|a, b| {
        degree[b]
            .partial_cmp(&degree[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(b))
    });
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Free,
        Hub,
        Satellite,
    }
    let mut state = vec![State::Free; n];
    let mut labels: Vec<u32> = (0..n as u32).collect();
    for hub in order {
        if state[hub as usize] != State::Free {
            continue;
        }
        state[hub as usize] = State::Hub;
        labels[hub as usize] = hub;
        // A new star absorbs its free neighbors as satellites; they are
        // no longer hub candidates (the defining star-clustering rule).
        if let Some(neighbors) = adj.get(&hub) {
            for &(v, _) in neighbors {
                if state[v as usize] == State::Free {
                    state[v as usize] = State::Satellite;
                }
            }
        }
    }
    // Attach every non-hub to its most similar adjacent hub.
    for (&v, neighbors) in &adj {
        if state[v as usize] == State::Hub {
            continue;
        }
        let best = neighbors
            .iter()
            .filter(|(u, _)| state[*u as usize] == State::Hub)
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        if let Some(&(hub, _)) = best {
            state[v as usize] = State::Satellite;
            labels[v as usize] = hub;
        }
    }
    Clustering::from_assignment(&labels)
}

/// Agreement between two clusterings as the Jaccard similarity of their
/// intra-cluster pair sets. Used for the algorithm-agreement quality
/// signal (§3.2.3).
///
/// Counted, not enumerated: `|A ∩ B|` is the contingency table's
/// `Σ C(n_ij, 2)`. Each cluster of `a` with two or more members tallies
/// its members' `b` clusters in one counter array (each member adds
/// the count of earlier members in its `b` cluster, which sums to
/// `Σ C(n_ij, 2)` over that row) and resets it, so the cost is linear
/// in the records, with no sort, however large the clusters are.
pub fn clustering_agreement(a: &Clustering, b: &Clustering) -> f64 {
    assert_eq!(
        a.num_records(),
        b.num_records(),
        "clusterings cover different datasets"
    );
    let (pa, pb) = (a.pair_count(), b.pair_count());
    if pa == 0 && pb == 0 {
        return 1.0;
    }
    let mut seen = vec![0u64; b.num_clusters()];
    let mut inter = 0u64;
    for members in a.clusters().filter(|m| m.len() > 1) {
        for &r in members {
            let count = &mut seen[b.cluster_of(r) as usize];
            inter += *count;
            *count += 1;
        }
        for &r in members {
            seen[b.cluster_of(r) as usize] = 0;
        }
    }
    let inter = inter as f64;
    let union = (pa + pb) as f64 - inter;
    inter / union
}

/// The hash-set greedy clique clustering that [`greedy_clique`]
/// replaced, kept as the reference of its differential test.
#[cfg(test)]
pub(crate) fn greedy_clique_clustering_reference(n: usize, pairs: &[ScoredPair]) -> Clustering {
    let mut adj: HashMap<u32, std::collections::HashSet<u32>> = HashMap::new();
    for sp in pairs {
        adj.entry(sp.pair.lo().0)
            .or_default()
            .insert(sp.pair.hi().0);
        adj.entry(sp.pair.hi().0)
            .or_default()
            .insert(sp.pair.lo().0);
    }
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut assigned = vec![false; n];
    // Seed order: degree descending, then id for determinism.
    let mut order: Vec<u32> = adj.keys().copied().collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(adj[&v].len()), v));
    for seed in order {
        if assigned[seed as usize] {
            continue;
        }
        let mut clique = vec![seed];
        assigned[seed as usize] = true;
        let mut candidates: Vec<u32> = adj[&seed]
            .iter()
            .copied()
            .filter(|&v| !assigned[v as usize])
            .collect();
        // Prefer candidates sharing many neighbors with the seed: bridge
        // endpoints share none and are considered last, keeping weakly
        // connected cliques apart.
        let common = |v: u32| adj[&seed].intersection(&adj[&v]).count();
        candidates.sort_by_key(|&v| {
            (
                std::cmp::Reverse(common(v)),
                std::cmp::Reverse(adj[&v].len()),
                v,
            )
        });
        for cand in candidates {
            if assigned[cand as usize] {
                continue;
            }
            let adjacent_to_all = clique
                .iter()
                .all(|m| adj.get(&cand).is_some_and(|s| s.contains(m)));
            if adjacent_to_all {
                assigned[cand as usize] = true;
                labels[cand as usize] = seed;
                clique.push(cand);
            }
        }
    }
    Clustering::from_assignment(&labels)
}

/// The contingency-table agreement that [`clustering_agreement`]
/// replaced, kept as the reference of its differential test.
#[cfg(test)]
pub(crate) fn clustering_agreement_reference(a: &Clustering, b: &Clustering) -> f64 {
    let (pa, pb) = (a.pair_count(), b.pair_count());
    if pa == 0 && pb == 0 {
        return 1.0;
    }
    let inter = super::Contingency::new(a, b).pair_count() as f64;
    let union = (pa + pb) as f64 - inter;
    inter / union
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The comparator sort that [`by_similarity_desc`] replaced.
    fn by_similarity_desc_reference(pairs: &[ScoredPair]) -> Vec<RecordPair> {
        let mut v = pairs.to_vec();
        v.sort_by(|a, b| {
            let sa = a.similarity.unwrap_or(f64::NEG_INFINITY);
            let sb = b.similarity.unwrap_or(f64::NEG_INFINITY);
            sb.partial_cmp(&sa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.pair.cmp(&b.pair))
        });
        v.into_iter().map(|sp| sp.pair).collect()
    }

    /// Similarities with ties, both zeros, both infinities and none.
    const SIMILARITIES: [Option<f64>; 8] = [
        None,
        Some(0.0),
        Some(-0.0),
        Some(0.5),
        Some(1.0),
        Some(f64::INFINITY),
        Some(f64::NEG_INFINITY),
        Some(-0.25),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The integer-key order of the center algorithms equals the
        /// comparator order it replaced on NaN-free similarities.
        #[test]
        fn similarity_order_agrees_with_reference(
            raw in prop::collection::vec((0u32..12, 0u32..12, 0..SIMILARITIES.len()), 0..30),
        ) {
            let pairs: Vec<ScoredPair> = raw
                .into_iter()
                .filter(|(a, b, _)| a != b)
                .map(|(a, b, s)| ScoredPair {
                    similarity: SIMILARITIES[s],
                    ..ScoredPair::unscored((a, b))
                })
                .collect();
            prop_assert_eq!(by_similarity_desc(&pairs), by_similarity_desc_reference(&pairs));
        }
    }

    fn sp(a: u32, b: u32, s: f64) -> ScoredPair {
        ScoredPair::scored((a, b), s)
    }

    #[test]
    fn connected_components_basic() {
        let c = connected_components(5, &[sp(0, 1, 0.9), sp(1, 2, 0.8)]);
        assert_eq!(c.num_clusters(), 3);
        assert!(c.same_cluster(RecordId(0), RecordId(2)));
    }

    #[test]
    fn center_splits_chains() {
        // Chain 0-1-2 where 0-1 is strong and 1-2 weak: center clustering
        // keeps 2 out (1 is a member, not a center).
        let c = center_clustering(3, &[sp(0, 1, 0.9), sp(1, 2, 0.5)]);
        assert!(c.same_cluster(RecordId(0), RecordId(1)));
        assert!(!c.same_cluster(RecordId(1), RecordId(2)));
        assert_eq!(c.num_clusters(), 2);
    }

    #[test]
    fn center_attaches_to_existing_center() {
        let c = center_clustering(3, &[sp(0, 1, 0.9), sp(0, 2, 0.8)]);
        assert_eq!(c.num_clusters(), 1);
    }

    #[test]
    fn merge_center_merges_via_center() {
        // 0-1 (0 center), 2-3 (2 center), then 0-2 joins both clusters.
        let c = merge_center_clustering(4, &[sp(0, 1, 0.9), sp(2, 3, 0.85), sp(0, 2, 0.8)]);
        assert_eq!(c.num_clusters(), 1);
    }

    #[test]
    fn greedy_clique_separates_weak_bridge() {
        // Two triangles joined by one bridge edge: clique clustering keeps
        // them apart, transitive closure would not.
        let pairs = [
            sp(0, 1, 0.9),
            sp(1, 2, 0.9),
            sp(0, 2, 0.9),
            sp(3, 4, 0.9),
            sp(4, 5, 0.9),
            sp(3, 5, 0.9),
            sp(2, 3, 0.4), // bridge
        ];
        let c = greedy_clique_clustering(6, &pairs);
        assert!(c.same_cluster(RecordId(0), RecordId(2)));
        assert!(c.same_cluster(RecordId(3), RecordId(5)));
        assert!(!c.same_cluster(RecordId(2), RecordId(3)));
        let cc = connected_components(6, &pairs);
        assert_eq!(cc.num_clusters(), 1);
    }

    #[test]
    fn markov_separates_weakly_bridged_cliques() {
        let pairs = [
            sp(0, 1, 1.0),
            sp(1, 2, 1.0),
            sp(0, 2, 1.0),
            sp(3, 4, 1.0),
            sp(4, 5, 1.0),
            sp(3, 5, 1.0),
            sp(2, 3, 0.05), // weak bridge
        ];
        let c = markov_clustering(6, &pairs, 2.0, 512);
        assert!(c.same_cluster(RecordId(0), RecordId(1)));
        assert!(c.same_cluster(RecordId(3), RecordId(4)));
        assert!(!c.same_cluster(RecordId(0), RecordId(5)));
    }

    #[test]
    fn markov_oversize_component_falls_back() {
        let pairs = [sp(0, 1, 0.9), sp(1, 2, 0.9)];
        let c = markov_clustering(3, &pairs, 2.0, 2);
        assert_eq!(c.num_clusters(), 1); // fell back to the component
    }

    #[test]
    fn agreement_bounds() {
        let a = Clustering::from_assignment(&[0, 0, 1, 1]);
        let b = Clustering::from_assignment(&[0, 0, 1, 2]);
        let same = clustering_agreement(&a, &a);
        assert!((same - 1.0).abs() < 1e-12);
        let partial = clustering_agreement(&a, &b);
        assert!(partial > 0.0 && partial < 1.0);
        let empty = clustering_agreement(&Clustering::singletons(3), &Clustering::singletons(3));
        assert_eq!(empty, 1.0);
    }

    #[test]
    #[should_panic(expected = "inflation")]
    fn markov_rejects_bad_inflation() {
        markov_clustering(2, &[], 1.0, 10);
    }

    #[test]
    fn pivot_covers_all_records_deterministically() {
        let pairs = [sp(0, 1, 0.9), sp(1, 2, 0.8), sp(3, 4, 0.7)];
        let a = pivot_clustering(6, &pairs, 42);
        let b = pivot_clustering(6, &pairs, 42);
        assert_eq!(a, b);
        assert_eq!(a.num_records(), 6);
        // Pivot clusters never exceed closed-neighborhood reach.
        for cluster in a.clusters() {
            assert!(cluster.len() <= 3);
        }
        // Isolated record 5 stays a singleton.
        assert_eq!(a.cluster(a.cluster_of(RecordId(5))).len(), 1);
        // A different seed may produce a different (still valid) cut.
        let c = pivot_clustering(6, &pairs, 7);
        let covered: usize = c.clusters().map(<[_]>::len).sum();
        assert_eq!(covered, 6);
    }

    #[test]
    fn pivot_never_clusters_non_neighbors_directly() {
        // Chain 0-1-2: whichever pivot is chosen, 0 and 2 only share a
        // cluster when 1 is the pivot.
        for seed in 0..20 {
            let c = pivot_clustering(3, &[sp(0, 1, 0.9), sp(1, 2, 0.9)], seed);
            if c.same_cluster(RecordId(0), RecordId(2)) {
                assert!(c.same_cluster(RecordId(0), RecordId(1)));
                assert_eq!(c.cluster(c.cluster_of(RecordId(0))).len(), 3);
            }
        }
    }

    #[test]
    fn star_attaches_to_strongest_hub() {
        // 1 is the high-degree hub; 3 is a weaker hub; 2 is adjacent to
        // both and must pick the more similar one (1, at 0.9).
        let pairs = [
            sp(0, 1, 0.8),
            sp(1, 2, 0.9),
            sp(1, 4, 0.7),
            sp(2, 3, 0.4),
            sp(3, 5, 0.6),
        ];
        let c = star_clustering(6, &pairs);
        assert!(c.same_cluster(RecordId(1), RecordId(2)));
        assert!(!c.same_cluster(RecordId(2), RecordId(3)));
        assert!(c.same_cluster(RecordId(3), RecordId(5)));
    }

    #[test]
    fn star_without_scores_uses_unit_weights() {
        let pairs = [
            ScoredPair::unscored((0u32, 1u32)),
            ScoredPair::unscored((1u32, 2u32)),
        ];
        let c = star_clustering(3, &pairs);
        // 1 has degree 2 → the hub; both neighbors attach.
        assert_eq!(c.num_clusters(), 1);
    }

    #[test]
    fn new_algorithms_agree_on_clean_cliques() {
        let pairs = [
            sp(0, 1, 0.95),
            sp(1, 2, 0.95),
            sp(0, 2, 0.95),
            sp(3, 4, 0.95),
        ];
        let reference = connected_components(5, &pairs);
        for c in [pivot_clustering(5, &pairs, 1), star_clustering(5, &pairs)] {
            let agreement = clustering_agreement(&reference, &c);
            assert!(agreement > 0.6, "agreement {agreement}");
        }
    }
}
