//! The contingency table of two clusterings.

use super::Clustering;
use crate::dataset::RecordId;

/// The sparse contingency table of clusterings `a` and `b` of the same
/// records: cell `(i, j, n_ij)` counts the records in cluster `i` of `a`
/// and cluster `j` of `b`. Only non-empty cells are stored, at most one
/// per record, so the table is linear in the records however large the
/// clusters are. The cluster metrics (§3.2.2), the confusion matrix of
/// two clusterings and the algorithm agreement (§3.2.3) all read it.
#[derive(Debug)]
pub struct Contingency {
    /// Cells in row-major `(i, j)` order, so float sums over the table
    /// run in a fixed order and are bit-identical across processes.
    cells: Vec<(u32, u32, u64)>,
    /// Row `i` is `cells[row_start[i]..row_start[i + 1]]`.
    row_start: Vec<usize>,
    a_sizes: Vec<u64>,
    b_sizes: Vec<u64>,
}

impl Contingency {
    /// Builds the table in one sort: each record's `(i, j)` is packed
    /// into a `u64`, and every run of equal sorted keys is one cell.
    pub fn new(a: &Clustering, b: &Clustering) -> Self {
        let n = a.num_records();
        assert_eq!(n, b.num_records(), "clusterings cover different datasets");
        let key = |r| (u64::from(a.cluster_of(r)) << 32) | u64::from(b.cluster_of(r));
        let mut keys: Vec<u64> = (0..n as u32).map(|r| key(RecordId(r))).collect();
        keys.sort_unstable();
        let sizes = |c: &Clustering| c.clusters().map(|m| m.len() as u64).collect();
        let mut t = Self {
            cells: Vec::new(),
            row_start: Vec::with_capacity(a.num_clusters() + 1),
            a_sizes: sizes(a),
            b_sizes: sizes(b),
        };
        for run in keys.chunk_by(|x, y| x == y) {
            let (i, j) = ((run[0] >> 32) as u32, run[0] as u32);
            // Clusters are never empty, so every row has a first cell.
            if t.row_start.len() == i as usize {
                t.row_start.push(t.cells.len());
            }
            t.cells.push((i, j, run.len() as u64));
        }
        t.row_start.push(t.cells.len());
        t
    }

    /// Number of records both clusterings cover.
    pub fn num_records(&self) -> u64 {
        self.a_sizes.iter().sum()
    }

    /// All non-empty cells `(i, j, n_ij)`, in row-major order.
    pub fn cells(&self) -> &[(u32, u32, u64)] {
        &self.cells
    }

    /// The non-empty cells of row `i` (cluster `i` of `a`), by ascending `j`.
    pub fn row(&self, i: usize) -> &[(u32, u32, u64)] {
        &self.cells[self.row_start[i]..self.row_start[i + 1]]
    }

    /// Cluster sizes of `a`, indexed by cluster.
    pub fn a_sizes(&self) -> &[u64] {
        &self.a_sizes
    }

    /// Cluster sizes of `b`, indexed by cluster.
    pub fn b_sizes(&self) -> &[u64] {
        &self.b_sizes
    }

    /// Number of record pairs that share a cluster in **both**
    /// clusterings, `Σ C(n_ij, 2)`: the pair count of
    /// [`Clustering::intersect`], without building it.
    pub fn pair_count(&self) -> u64 {
        self.cells.iter().map(|&(_, _, c)| c * (c - 1) / 2).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_rows_and_sizes() {
        // a = {0,1,2},{3,4}; b = {0,1},{2,3},{4}.
        let a = Clustering::from_assignment(&[0, 0, 0, 1, 1]);
        let b = Clustering::from_assignment(&[0, 0, 1, 1, 2]);
        let t = Contingency::new(&a, &b);
        assert_eq!(t.cells(), &[(0, 0, 2), (0, 1, 1), (1, 1, 1), (1, 2, 1)]);
        assert_eq!(t.row(0), &[(0, 0, 2), (0, 1, 1)]);
        assert_eq!(t.row(1), &[(1, 1, 1), (1, 2, 1)]);
        assert_eq!(t.a_sizes(), &[3, 2]);
        assert_eq!(t.b_sizes(), &[2, 2, 1]);
        assert_eq!(t.num_records(), 5);
        assert_eq!(t.pair_count(), 1);
        assert_eq!(t.pair_count(), a.intersect(&b).pair_count());
    }

    #[test]
    fn empty_table() {
        let e = Clustering::singletons(0);
        let t = Contingency::new(&e, &e);
        assert!(t.cells().is_empty());
        assert_eq!(t.num_records(), 0);
        assert_eq!(t.pair_count(), 0);
    }

    #[test]
    #[should_panic(expected = "different datasets")]
    fn size_mismatch_panics() {
        Contingency::new(&Clustering::singletons(3), &Clustering::singletons(4));
    }
}
