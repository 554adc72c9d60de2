//! The match graph as a CSR (compressed sparse row) adjacency.
//!
//! The graph kernels behind the ground-truth-free quality signals
//! (§3.2.3) — greedy clique clustering and bridge finding — walk the
//! neighbours of one record after another. Held as one hash set per
//! record, each of those walks is a chain of hash probes and each set
//! is its own heap object. Here the whole graph is three arrays
//! indexed by record id, the list-based layout of Gupta, Mhedhbi and
//! Salihoglu's columnar GDBMS storage:
//!
//! * `offsets` (`n + 1` entries): row `v` is `offsets[v]..offsets[v + 1]`;
//! * `neighbours`: each row's neighbour ids, ascending, each once;
//! * `edges`: for each entry, the index of the pair that produced it.
//!
//! The build is two counting-sort passes over the pairs, `O(n + m)` for
//! `n` records and `m` pairs, and its rows come out sorted without a
//! comparison sort: the first pass fills the rows in pair order, the
//! second transposes that (the graph is symmetric) by visiting the rows
//! in id order, which appends every row's neighbours in ascending
//! order. The adjacency takes `4(n + 1) + 16 m` bytes.

use crate::dataset::ScoredPair;

/// An undirected match graph over records `0..n`, one row per record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Adjacency {
    offsets: Vec<u32>,
    neighbours: Vec<u32>,
    edges: Vec<u32>,
}

impl Adjacency {
    /// The graph of `pairs` over `n` records. A pair listed twice is one
    /// edge, which keeps the index of its first occurrence.
    ///
    /// # Panics
    /// Panics if a pair names a record `≥ n`, or if there are more than
    /// `u32::MAX / 2` pairs.
    pub fn new(n: usize, pairs: &[ScoredPair]) -> Self {
        let entries = pairs
            .len()
            .checked_mul(2)
            .and_then(|e| u32::try_from(e).ok())
            .expect("more than u32::MAX / 2 pairs");
        let mut offsets = vec![0u32; n + 1];
        for sp in pairs {
            offsets[sp.pair.lo().index() + 1] += 1;
            offsets[sp.pair.hi().index() + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // Pass 1: each row in pair order; `fill` is the next free slot.
        let len = entries as usize;
        let mut fill: Vec<u32> = offsets[..n].to_vec();
        let (mut scattered, mut scattered_edges) = (vec![0u32; len], vec![0u32; len]);
        for (i, sp) in pairs.iter().enumerate() {
            let (a, b) = (sp.pair.lo().0, sp.pair.hi().0);
            for (from, to) in [(a, b), (b, a)] {
                let slot = &mut fill[from as usize];
                scattered[*slot as usize] = to;
                scattered_edges[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        // Pass 2: transpose. Visiting row `v` in id order appends `v` to
        // each of its neighbours' rows, so every row fills ascending; a
        // repeated pair lands next to its first copy and is dropped.
        fill.copy_from_slice(&offsets[..n]);
        let (mut neighbours, mut edges) = (vec![0u32; len], vec![0u32; len]);
        let mut repeated = false;
        for v in 0..n {
            let row = offsets[v] as usize..offsets[v + 1] as usize;
            for (&u, &e) in scattered[row.clone()].iter().zip(&scattered_edges[row]) {
                let slot = &mut fill[u as usize];
                if *slot > offsets[u as usize] && neighbours[*slot as usize - 1] == v as u32 {
                    repeated = true;
                    continue;
                }
                neighbours[*slot as usize] = v as u32;
                edges[*slot as usize] = e;
                *slot += 1;
            }
        }
        let mut adjacency = Self {
            offsets,
            neighbours,
            edges,
        };
        if repeated {
            adjacency.compact(&fill);
        }
        adjacency
    }

    /// Closes the gaps that dropped repeats left: row `v` holds its
    /// entries in `offsets[v]..ends[v]`.
    fn compact(&mut self, ends: &[u32]) {
        let mut write = 0usize;
        for (v, &end) in ends.iter().enumerate() {
            let start = self.offsets[v] as usize;
            self.offsets[v] = write as u32;
            self.neighbours.copy_within(start..end as usize, write);
            self.edges.copy_within(start..end as usize, write);
            write += end as usize - start;
        }
        self.offsets[ends.len()] = write as u32;
        self.neighbours.truncate(write);
        self.edges.truncate(write);
    }

    /// The number of records (rows).
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The number of distinct edges.
    pub fn num_edges(&self) -> usize {
        self.neighbours.len() / 2
    }

    /// The number of neighbours of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// The neighbours of `v`, ascending.
    #[inline]
    pub fn neighbours(&self, v: u32) -> &[u32] {
        &self.neighbours[self.row(v)]
    }

    /// Whether `u` and `v` are adjacent: a binary search in `v`'s row.
    #[inline]
    pub fn contains(&self, v: u32, u: u32) -> bool {
        self.neighbours(v).binary_search(&u).is_ok()
    }

    /// The number of bridges: edges whose removal disconnects their
    /// component.
    ///
    /// Tarjan's low-link algorithm, run iteratively over `disc`/`low`
    /// arrays indexed by record (`u32::MAX` marks an unvisited record)
    /// with an explicit stack of (record, edge it was entered by, cursor
    /// into `neighbours`). `O(n + m)`.
    pub fn bridge_count(&self) -> usize {
        const UNSEEN: u32 = u32::MAX;
        let n = self.num_nodes();
        let (mut disc, mut low) = (vec![UNSEEN; n], vec![UNSEEN; n]);
        let mut stack: Vec<(u32, u32, u32)> = Vec::new();
        let (mut timer, mut bridges) = (0u32, 0usize);
        for root in 0..n {
            if disc[root] != UNSEEN || self.offsets[root] == self.offsets[root + 1] {
                continue;
            }
            disc[root] = timer;
            low[root] = timer;
            timer += 1;
            // The root was entered by no edge: `UNSEEN` matches none.
            stack.push((root as u32, UNSEEN, self.offsets[root]));
            while let Some(&mut (v, parent_edge, ref mut cursor)) = stack.last_mut() {
                let v = v as usize;
                if *cursor < self.offsets[v + 1] {
                    let at = *cursor as usize;
                    *cursor += 1;
                    let (to, edge) = (self.neighbours[at] as usize, self.edges[at]);
                    if edge == parent_edge {
                        continue;
                    }
                    if disc[to] == UNSEEN {
                        disc[to] = timer;
                        low[to] = timer;
                        timer += 1;
                        stack.push((to as u32, edge, self.offsets[to]));
                    } else {
                        low[v] = low[v].min(disc[to]);
                    }
                } else {
                    stack.pop();
                    if let Some(&(parent, _, _)) = stack.last() {
                        let (lv, parent) = (low[v], parent as usize);
                        low[parent] = low[parent].min(lv);
                        if lv > disc[parent] {
                            bridges += 1;
                        }
                    }
                }
            }
        }
        bridges
    }

    #[inline]
    fn row(&self, v: u32) -> std::ops::Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, pairs: &[(u32, u32)]) -> Adjacency {
        let pairs: Vec<ScoredPair> = pairs.iter().map(|&p| ScoredPair::unscored(p)).collect();
        Adjacency::new(n, &pairs)
    }

    #[test]
    fn rows_are_sorted_and_carry_their_pair_index() {
        let g = graph(5, &[(3, 1), (0, 4), (1, 0), (4, 1)]);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbours(1), &[0, 3, 4]);
        assert_eq!(&g.edges[g.row(1)], &[2, 0, 3]);
        assert_eq!(g.neighbours(2), &[] as &[u32]);
        assert_eq!(g.degree(4), 2);
        assert!(g.contains(4, 0) && g.contains(0, 4) && !g.contains(0, 3));
    }

    #[test]
    fn repeated_pairs_are_one_edge() {
        let g = graph(4, &[(0, 1), (2, 3), (1, 0), (0, 1), (1, 2)]);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbours(0), &[1]);
        assert_eq!(&g.edges[g.row(0)], &[0]);
        assert_eq!(g.neighbours(1), &[0, 2]);
        assert_eq!(&g.edges[g.row(1)], &[0, 4]);
        assert_eq!(g.neighbours(3), &[2]);
        assert_eq!(
            g,
            graph(4, &[(0, 1), (2, 3), (1, 2)]).with_edges(&[0, 1, 4])
        );
    }

    #[test]
    fn empty_graphs() {
        let g = graph(3, &[]);
        assert_eq!((g.num_nodes(), g.num_edges(), g.degree(2)), (3, 0, 0));
        assert_eq!(graph(0, &[]).num_nodes(), 0);
    }

    impl Adjacency {
        /// This graph with its pair indices renamed through `map`.
        fn with_edges(mut self, map: &[u32]) -> Self {
            for e in &mut self.edges {
                *e = map[*e as usize];
            }
            self
        }
    }
}
