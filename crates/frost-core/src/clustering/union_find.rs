//! Union-find with pair counting (Appendix D).
//!
//! The paper's optimized metric/metric-diagram algorithm assumes a
//! union-find data structure [Tarjan 1972] extended with *pair
//! counting*: tracking the number of intra-cluster record pairs overall,
//! so the experiment's `|TP| + |FP|` can be read off in constant time.
//! [`UnionFind::union`] reports which roots it joined, so the diagram
//! sweep can carry per-cluster state along with each merge.

use crate::dataset::RecordId;

/// Union-find over `n` records with union by size, iterative path
/// compression and intra-cluster pair counting.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    /// Cluster size; valid only at roots.
    size: Vec<u32>,
    total_pairs: u64,
    num_clusters: usize,
}

impl UnionFind {
    /// Creates `n` singleton clusters.
    pub fn new(n: usize) -> Self {
        let n32 = u32::try_from(n).expect("UnionFind supports at most u32::MAX records");
        Self {
            parent: (0..n32).collect(),
            size: vec![1; n],
            total_pairs: 0,
            num_clusters: n,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure tracks no records.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Current number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Total number of intra-cluster pairs, `Σ s·(s−1)/2` over clusters.
    ///
    /// For an experiment clustering this is `|TP| + |FP|`.
    pub fn total_pairs(&self) -> u64 {
        self.total_pairs
    }

    /// Finds the root record of `x`'s cluster, compressing the path.
    pub fn find(&mut self, x: RecordId) -> RecordId {
        let mut root = x.0;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Second pass: point every node on the path directly at the root.
        let mut cur = x.0;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        RecordId(root)
    }

    /// Whether `a` and `b` are currently in the same cluster.
    pub fn connected(&mut self, a: RecordId, b: RecordId) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of `x`'s cluster.
    pub fn cluster_size(&mut self, x: RecordId) -> u32 {
        let root = self.find(x);
        self.size[root.index()]
    }

    /// Number of intra-cluster pairs within `x`'s cluster.
    pub fn cluster_pairs(&mut self, x: RecordId) -> u64 {
        let s = self.cluster_size(x) as u64;
        s * (s - 1) / 2
    }

    /// Merges the clusters of `a` and `b` (union by size).
    ///
    /// Returns `(survivor, absorbed)`: the root that now heads the
    /// merged cluster and the former root attached beneath it. Returns
    /// `None` if `a` and `b` already shared a cluster.
    pub fn union(&mut self, a: RecordId, b: RecordId) -> Option<(RecordId, RecordId)> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return None;
        }
        let (big, small) = if self.size[ra.index()] >= self.size[rb.index()] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        let sb = self.size[big.index()] as u64;
        let ss = self.size[small.index()] as u64;
        self.total_pairs += sb * ss;
        self.parent[small.index()] = big.0;
        self.size[big.index()] += self.size[small.index()];
        self.num_clusters -= 1;
        Some((big, small))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.len(), 4);
        assert_eq!(uf.num_clusters(), 4);
        assert_eq!(uf.total_pairs(), 0);
        for i in 0..4 {
            assert_eq!(uf.find(RecordId(i)), RecordId(i));
            assert_eq!(uf.cluster_size(RecordId(i)), 1);
        }
    }

    #[test]
    fn union_reports_roots_and_counts_pairs() {
        let mut uf = UnionFind::new(4);
        // Equal sizes: the first argument's root survives.
        assert_eq!(
            uf.union(RecordId(0), RecordId(1)),
            Some((RecordId(0), RecordId(1)))
        );
        assert_eq!(uf.total_pairs(), 1);
        assert_eq!(uf.num_clusters(), 3);
        assert!(uf.connected(RecordId(0), RecordId(1)));
        // Unioning again is a no-op.
        assert_eq!(uf.union(RecordId(1), RecordId(0)), None);
        assert_eq!(uf.total_pairs(), 1);

        // Merge {0,1} with {2}: the larger cluster's root survives, and
        // pairs = 3 = C(3,2).
        assert_eq!(
            uf.union(RecordId(2), RecordId(1)),
            Some((RecordId(0), RecordId(2)))
        );
        assert_eq!(uf.total_pairs(), 3);
        assert_eq!(uf.cluster_size(RecordId(1)), 3);
        assert_eq!(uf.cluster_pairs(RecordId(1)), 3);
    }

    #[test]
    fn clusters_groups_members() {
        let mut uf = UnionFind::new(5);
        uf.union(RecordId(0), RecordId(3));
        uf.union(RecordId(1), RecordId(2));
        let clustering = crate::clustering::Clustering::from_union_find(&mut uf);
        let clusters: Vec<&[RecordId]> = clustering.clusters().collect();
        assert_eq!(clusters.len(), 3);
        assert_eq!(clusters[0], [RecordId(0), RecordId(3)]);
        assert_eq!(clusters[1], [RecordId(1), RecordId(2)]);
        assert_eq!(clusters[2], [RecordId(4)]);
    }

    #[test]
    fn pair_count_matches_cluster_sizes() {
        let mut uf = UnionFind::new(10);
        for i in 1..7u32 {
            uf.union(RecordId(0), RecordId(i));
        }
        uf.union(RecordId(7), RecordId(8));
        // Cluster sizes 7, 2, 1 → pairs 21 + 1 + 0.
        assert_eq!(uf.total_pairs(), 22);
    }
}
