//! Disjoint clusterings of a dataset.

use super::UnionFind;
use crate::dataset::{Experiment, RecordId, RecordPair, RoaringPairSet};
use std::collections::HashMap;

/// A disjoint clustering `{C1, C2, …}` of a dataset: every record belongs
/// to exactly one cluster.
///
/// Both the output of a (final) matching solution and a gold standard are
/// clusterings (§1.2, §3.1.1). Two equivalent representations exist — a
/// cluster per record, or the transitively closed set of intra-cluster
/// pairs (the *identity link network*); this type stores the first and
/// derives the second on demand.
///
/// Members are stored cluster by cluster in one array with `u32` start
/// offsets, so building a clustering allocates a fixed handful of
/// arrays however many clusters it has.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    /// `assignment[r]` = dense cluster index of record `r`.
    assignment: Vec<u32>,
    /// Every cluster's members back to back, each run sorted ascending.
    members: Vec<RecordId>,
    /// Cluster `c` is `members[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
}

impl Clustering {
    /// Builds a clustering from a per-record cluster label vector. Labels
    /// are compacted to dense indices `0..k` in order of first appearance.
    pub fn from_assignment(labels: &[u32]) -> Self {
        let n = labels.len();
        if labels.iter().all(|&l| (l as usize) < n) {
            return Self::from_labels_below_n(labels);
        }
        // Arbitrary label values: compact through a map, so nothing is
        // sized by a label value.
        let mut remap: HashMap<u32, u32> = HashMap::new();
        let dense: Vec<u32> = labels
            .iter()
            .map(|&l| {
                let next = remap.len() as u32;
                *remap.entry(l).or_insert(next)
            })
            .collect();
        Self::from_labels_below_n(&dense)
    }

    /// [`from_assignment`](Self::from_assignment) for labels `< n`
    /// (union-find roots, stored dense assignments): compacts them
    /// through a `Vec` indexed by label, then places each record in
    /// its cluster's run of the member array (ids ascending, since
    /// records are placed in id order).
    fn from_labels_below_n(labels: &[u32]) -> Self {
        const UNSEEN: u32 = u32::MAX;
        let mut remap = vec![UNSEEN; labels.len()];
        // `ends[c]` counts cluster `c`'s members, then becomes the
        // running insert position of its run.
        let mut ends: Vec<u32> = Vec::new();
        let assignment: Vec<u32> = labels
            .iter()
            .map(|&label| {
                let slot = &mut remap[label as usize];
                if *slot == UNSEEN {
                    *slot = ends.len() as u32;
                    ends.push(0);
                }
                ends[*slot as usize] += 1;
                *slot
            })
            .collect();
        let mut starts = Vec::with_capacity(ends.len() + 1);
        let mut total = 0u32;
        starts.push(0);
        for end in &mut ends {
            let size = *end;
            *end = total;
            total += size;
            starts.push(total);
        }
        let mut members = vec![RecordId(0); labels.len()];
        for (i, &dense) in assignment.iter().enumerate() {
            let at = &mut ends[dense as usize];
            members[*at as usize] = RecordId(i as u32);
            *at += 1;
        }
        Self {
            assignment,
            members,
            starts,
        }
    }

    /// Builds a clustering from arbitrary (e.g. string) labels, as used by
    /// gold standards "modeled within the actual dataset by adding an
    /// extra attribute that associates each record with its cluster"
    /// (§3.1.1).
    pub fn from_labels<L: std::hash::Hash + Eq>(labels: impl IntoIterator<Item = L>) -> Self {
        let mut remap: HashMap<L, u32> = HashMap::new();
        let mut next = 0u32;
        let dense: Vec<u32> = labels
            .into_iter()
            .map(|l| {
                *remap.entry(l).or_insert_with(|| {
                    let d = next;
                    next += 1;
                    d
                })
            })
            .collect();
        Self::from_assignment(&dense)
    }

    /// The singleton clustering of `n` records (no duplicates at all).
    pub fn singletons(n: usize) -> Self {
        Self {
            assignment: (0..n as u32).collect(),
            members: (0..n as u32).map(RecordId).collect(),
            starts: (0..=n as u32).collect(),
        }
    }

    /// Builds the clustering induced by transitively closing a set of
    /// match pairs over `n` records (connected components).
    pub fn from_pairs<P>(n: usize, pairs: impl IntoIterator<Item = P>) -> Self
    where
        P: Into<RecordPair>,
    {
        let mut uf = UnionFind::new(n);
        for p in pairs {
            let p = p.into();
            uf.union(p.lo(), p.hi());
        }
        Self::from_union_find(&mut uf)
    }

    /// Builds the clustering induced by an [`Experiment`]'s match pairs.
    pub fn from_experiment(n: usize, experiment: &Experiment) -> Self {
        Self::from_pairs(n, experiment.pairs().iter().map(|sp| sp.pair))
    }

    /// Snapshots a [`UnionFind`]'s current state: records sharing a root
    /// share a cluster, numbered by smallest member.
    pub fn from_union_find(uf: &mut UnionFind) -> Self {
        let roots: Vec<u32> = (0..uf.len() as u32)
            .map(|r| uf.find(RecordId(r)).0)
            .collect();
        Self::from_labels_below_n(&roots)
    }

    /// Number of records.
    pub fn num_records(&self) -> usize {
        self.assignment.len()
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.starts.len() - 1
    }

    /// Dense index of the cluster containing `r`.
    pub fn cluster_of(&self, r: RecordId) -> u32 {
        self.assignment[r.index()]
    }

    /// Whether two records share a cluster (i.e. the pair is a match in
    /// this clustering's identity link network).
    pub fn same_cluster(&self, a: RecordId, b: RecordId) -> bool {
        self.assignment[a.index()] == self.assignment[b.index()]
    }

    /// Members of cluster `idx`, sorted ascending.
    pub fn cluster(&self, idx: u32) -> &[RecordId] {
        let i = idx as usize;
        &self.members[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// All clusters, in index order, each sorted ascending.
    pub fn clusters(&self) -> impl ExactSizeIterator<Item = &[RecordId]> + '_ {
        self.starts
            .windows(2)
            .map(|w| &self.members[w[0] as usize..w[1] as usize])
    }

    /// Number of intra-cluster pairs, `Σ s·(s−1)/2`.
    pub fn pair_count(&self) -> u64 {
        self.clusters()
            .map(|c| {
                let s = c.len() as u64;
                s * (s - 1) / 2
            })
            .sum()
    }

    /// Enumerates every intra-cluster pair (the identity link network).
    ///
    /// Beware: quadratic in cluster size; use [`Clustering::pair_count`]
    /// when only the count is needed.
    pub fn intra_pairs(&self) -> impl Iterator<Item = RecordPair> + '_ {
        self.clusters().flat_map(|members| {
            members.iter().enumerate().flat_map(move |(i, &a)| {
                members[i + 1..].iter().map(move |&b| RecordPair::new(a, b))
            })
        })
    }

    /// Calls `f` with every intra-cluster pair as the packed value
    /// `(lo << 32) | hi`, in ascending packed order (the order
    /// [`intra_pairs`](Self::intra_pairs) does not keep): each record,
    /// in id order, visits the members of its cluster above it.
    pub fn for_each_intra_packed(&self, mut f: impl FnMut(u64)) {
        for (lo, &c) in self.assignment.iter().enumerate() {
            let members = self.cluster(c);
            let above = members.partition_point(|m| m.index() <= lo);
            for hi in &members[above..] {
                f(((lo as u64) << 32) | u64::from(hi.0));
            }
        }
    }

    /// The intra-cluster pairs as a [`RoaringPairSet`], built from the
    /// sorted stream of [`for_each_intra_packed`](Self::for_each_intra_packed)
    /// with no sort.
    pub fn roaring_pair_set(&self) -> RoaringPairSet {
        let mut packed = Vec::with_capacity(self.pair_count() as usize);
        self.for_each_intra_packed(|x| packed.push(x));
        RoaringPairSet::from_sorted_packed(packed)
    }

    /// Non-singleton clusters (actual duplicate groups).
    pub fn duplicate_clusters(&self) -> impl Iterator<Item = &[RecordId]> {
        self.clusters().filter(|c| c.len() > 1)
    }

    /// Histogram of cluster sizes: `sizes[s]` = number of clusters with
    /// exactly `s` members (index 0 unused).
    pub fn size_histogram(&self) -> Vec<usize> {
        let max = self.clusters().map(<[_]>::len).max().unwrap_or(0);
        let mut hist = vec![0usize; max + 1];
        for c in self.clusters() {
            hist[c.len()] += 1;
        }
        hist
    }

    /// The intersection clustering: records share a cluster iff they share
    /// a cluster in **both** inputs. The pair count of the result is the
    /// true-positive count when `self` is an experiment and `other` the
    /// ground truth (Appendix D), which
    /// [`Contingency::pair_count`](super::Contingency::pair_count) counts
    /// without building the clustering.
    pub fn intersect(&self, other: &Clustering) -> Clustering {
        assert_eq!(
            self.num_records(),
            other.num_records(),
            "clusterings cover different datasets"
        );
        Clustering::from_labels(self.assignment.iter().zip(&other.assignment))
    }

    /// Converts the clustering to an unscored [`Experiment`] containing
    /// every intra-cluster pair. Useful for treating a second experiment
    /// or a gold standard as a comparison set (§4.1).
    pub fn to_experiment(&self, name: impl Into<String>) -> Experiment {
        Experiment::from_pairs(name, self.intra_pairs().map(|p| (p.lo(), p.hi())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_assignment_compacts_labels() {
        let c = Clustering::from_assignment(&[7, 7, 3, 7, 3]);
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.cluster_of(RecordId(0)), c.cluster_of(RecordId(3)));
        assert!(c.same_cluster(RecordId(2), RecordId(4)));
        assert!(!c.same_cluster(RecordId(0), RecordId(2)));
        assert_eq!(c.cluster(0), &[RecordId(0), RecordId(1), RecordId(3)]);
    }

    #[test]
    fn small_and_huge_labels_compact_alike() {
        // Labels below n take the dense-table path; a label of
        // u32::MAX takes the map path and must allocate nothing sized
        // by it. Both compact to the same first-appearance numbering.
        let small = Clustering::from_assignment(&[2, 0, 2, 1]);
        let huge = Clustering::from_assignment(&[u32::MAX, 0, u32::MAX, 9]);
        assert_eq!(small, huge);
        assert_eq!(small.cluster(0), &[RecordId(0), RecordId(2)]);
        assert_eq!(small.cluster_of(RecordId(3)), 2);
        let mut uf = UnionFind::new(4);
        uf.union(RecordId(3), RecordId(1));
        assert_eq!(
            Clustering::from_union_find(&mut uf),
            Clustering::from_assignment(&[0, 1, 2, 1])
        );
    }

    #[test]
    fn from_labels_strings() {
        let c = Clustering::from_labels(["x", "y", "x"]);
        assert_eq!(c.num_clusters(), 2);
        assert!(c.same_cluster(RecordId(0), RecordId(2)));
    }

    #[test]
    fn singletons_have_no_pairs() {
        let c = Clustering::singletons(5);
        assert_eq!(c.num_clusters(), 5);
        assert_eq!(c.pair_count(), 0);
        assert_eq!(c.intra_pairs().count(), 0);
    }

    #[test]
    fn from_pairs_transitively_closes() {
        // 0-1 and 1-2 connect to a triangle.
        let c = Clustering::from_pairs(4, [(0u32, 1u32), (1, 2)]);
        assert_eq!(c.num_clusters(), 2);
        assert_eq!(c.pair_count(), 3);
        assert!(c.same_cluster(RecordId(0), RecordId(2)));
        let pairs: Vec<RecordPair> = c.intra_pairs().collect();
        assert_eq!(pairs.len(), 3);
    }

    #[test]
    fn intra_packed_stream_is_sorted_and_matches_the_pairs() {
        // Interleaved clusters, so cluster order is not packed order.
        let c = Clustering::from_assignment(&[2, 0, 2, 1, 0, 2, 3, 0]);
        let mut packed = Vec::new();
        c.for_each_intra_packed(|x| packed.push(x));
        assert!(packed.windows(2).all(|w| w[0] < w[1]), "{packed:?}");
        let mut expected: Vec<u64> = c
            .intra_pairs()
            .map(|p| (u64::from(p.lo().0) << 32) | u64::from(p.hi().0))
            .collect();
        expected.sort_unstable();
        assert_eq!(packed, expected);
        assert_eq!(c.roaring_pair_set(), c.intra_pairs().collect());
        assert!(Clustering::singletons(4).roaring_pair_set().is_empty());
    }

    #[test]
    fn intersection_pair_count_is_tp() {
        // Ground truth {a,b},{c,d}; experiment merged everything.
        let truth = Clustering::from_assignment(&[0, 0, 1, 1]);
        let exp = Clustering::from_assignment(&[0, 0, 0, 0]);
        let inter = exp.intersect(&truth);
        assert_eq!(inter.pair_count(), 2); // TP = {a,b} and {c,d}
        assert_eq!(inter.num_clusters(), 2);
    }

    #[test]
    fn intersection_with_self_is_identity() {
        let c = Clustering::from_assignment(&[0, 1, 0, 2, 1]);
        let i = c.intersect(&c);
        assert_eq!(i.num_clusters(), c.num_clusters());
        assert_eq!(i.pair_count(), c.pair_count());
    }

    #[test]
    fn size_histogram() {
        let c = Clustering::from_assignment(&[0, 0, 0, 1, 1, 2]);
        let h = c.size_histogram();
        assert_eq!(h[1], 1);
        assert_eq!(h[2], 1);
        assert_eq!(h[3], 1);
        assert_eq!(c.duplicate_clusters().count(), 2);
    }

    #[test]
    fn to_experiment_roundtrip() {
        let c = Clustering::from_assignment(&[0, 0, 1, 1, 1]);
        let e = c.to_experiment("gold");
        assert_eq!(e.len() as u64, c.pair_count());
        let back = Clustering::from_experiment(5, &e);
        assert_eq!(back, c);
    }

    #[test]
    #[should_panic(expected = "different datasets")]
    fn intersect_size_mismatch_panics() {
        let a = Clustering::singletons(3);
        let b = Clustering::singletons(4);
        a.intersect(&b);
    }
}
