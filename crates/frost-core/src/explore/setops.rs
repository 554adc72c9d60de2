//! Set-based comparisons of result sets (§4.1, Figure 1).
//!
//! Intersection and difference over experiments "can describe all
//! partitions of the confusion matrix" and, unlike the binary confusion
//! matrix, generalize to *n* result sets. The [`SetExpression`] tree is
//! the programmatic counterpart of clicking regions of Snowman's
//! interactive Venn diagram; [`venn_regions`] enumerates every region at
//! once.
//!
//! All operations are generic over the set engine
//! ([`PairAlgebra`]): on packed, sorted [`PairSet`]s expression
//! evaluation is a tree of linear merges and [`venn_regions`] is a
//! single k-way merge — no hashing anywhere on the hot path (see the
//! [`pairset`](crate::dataset::pairset) module docs for the complexity
//! table); on [`ChunkedPairSet`](crate::dataset::ChunkedPairSet)s the
//! same operations run on roaring-style containers with word-at-a-time
//! kernels over dense chunks (see the
//! [`chunked`](crate::dataset::chunked) module docs).

use crate::dataset::{Dataset, Experiment, PairAlgebra, PairSet, Record, RecordPair};

/// A set-algebra expression over a universe of named result sets.
///
/// Leaves reference result sets by index into the slice passed to
/// [`SetExpression::evaluate`]. Example — the false positives of
/// experiment 0 against ground truth 1 (`E \ G`):
///
/// ```
/// use frost_core::explore::setops::SetExpression;
/// let fp = SetExpression::set(0).difference(SetExpression::set(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetExpression {
    /// A result set, by index into the universe.
    Set(usize),
    /// Pairs in both operands.
    Intersection(Box<SetExpression>, Box<SetExpression>),
    /// Pairs in either operand.
    Union(Box<SetExpression>, Box<SetExpression>),
    /// Pairs in the left but not the right operand.
    Difference(Box<SetExpression>, Box<SetExpression>),
}

impl SetExpression {
    /// Leaf constructor.
    pub fn set(index: usize) -> Self {
        SetExpression::Set(index)
    }

    /// `self ∩ other`.
    pub fn intersection(self, other: SetExpression) -> Self {
        SetExpression::Intersection(Box::new(self), Box::new(other))
    }

    /// `self ∪ other`.
    pub fn union(self, other: SetExpression) -> Self {
        SetExpression::Union(Box::new(self), Box::new(other))
    }

    /// `self \ other`.
    pub fn difference(self, other: SetExpression) -> Self {
        SetExpression::Difference(Box::new(self), Box::new(other))
    }

    /// Evaluates the expression over pair sets of either engine.
    ///
    /// Leaves borrow from the universe — an expression only copies data
    /// while merging, so `S0 ∩ S1` costs exactly one merge and zero
    /// clones (the seed cloned every leaf set).
    ///
    /// # Panics
    /// Panics if a leaf index is out of range.
    pub fn evaluate<S: PairAlgebra>(&self, universe: &[S]) -> S {
        self.eval_borrowed(universe).into_owned()
    }

    fn eval_borrowed<'u, S: PairAlgebra>(&self, universe: &'u [S]) -> std::borrow::Cow<'u, S> {
        use std::borrow::Cow;
        match self {
            SetExpression::Set(i) => {
                Cow::Borrowed(universe.get(*i).unwrap_or_else(|| {
                    panic!("set index {i} out of range ({} sets)", universe.len())
                }))
            }
            SetExpression::Intersection(a, b) => Cow::Owned(
                a.eval_borrowed(universe)
                    .intersection(&b.eval_borrowed(universe)),
            ),
            SetExpression::Union(a, b) => {
                Cow::Owned(a.eval_borrowed(universe).union(&b.eval_borrowed(universe)))
            }
            SetExpression::Difference(a, b) => Cow::Owned(
                a.eval_borrowed(universe)
                    .difference(&b.eval_borrowed(universe)),
            ),
        }
    }
}

/// One region of an n-set Venn diagram, in either set engine
/// (defaults to the packed [`PairSet`]).
#[derive(Debug, Clone, PartialEq)]
pub struct VennRegion<S: PairAlgebra = PairSet> {
    /// Bitmask over the input sets: bit `i` set ⇔ pairs of this region
    /// belong to set `i`.
    pub membership: u32,
    /// The pairs exactly in the member sets and no others.
    pub pairs: S,
}

impl<S: PairAlgebra> VennRegion<S> {
    /// Whether the region includes set `i`.
    pub fn contains_set(&self, i: usize) -> bool {
        self.membership & (1 << i) != 0
    }

    /// Number of sets this region belongs to.
    pub fn set_count(&self) -> u32 {
        self.membership.count_ones()
    }
}

/// Enumerates all non-empty exclusive regions of the n-set Venn diagram
/// in one k-way merge over the sorted sets (supports up to
/// [`MAX_VENN_SETS`](crate::dataset::MAX_VENN_SETS) sets; the
/// UI caps at 3, "Venn diagrams of more than three sets need … advanced
/// shapes"). Each pair is visited exactly once and lands in exactly one
/// region, in ascending order — so the per-region sets are built by
/// appending, never sorting. Generic over the engine: chunked sets run
/// the merge word-at-a-time over dense chunks. When only the region
/// sizes are needed, [`venn_counts`] runs the same merge without
/// building any region.
pub fn venn_regions<S: PairAlgebra>(sets: &[S]) -> Vec<VennRegion<S>> {
    let sets: Vec<&S> = sets.iter().collect();
    let mut by_mask: Vec<(u32, Vec<u64>)> = Vec::new();
    // Up to 2^k masks can materialize. For few sets a linear scan over
    // the live masks beats hashing every pair; beyond that, keep an
    // index so a mask-rich workload (many experiments with varied
    // overlap) stays O(pairs), not O(pairs · regions).
    if sets.len() <= 4 {
        S::kway_merge_masks(&sets, |packed, mask| {
            match by_mask.iter_mut().find(|(m, _)| *m == mask) {
                Some((_, v)) => v.push(packed),
                None => by_mask.push((mask, vec![packed])),
            }
        });
    } else {
        let mut index: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        S::kway_merge_masks(&sets, |packed, mask| {
            let at = *index.entry(mask).or_insert_with(|| {
                by_mask.push((mask, Vec::new()));
                by_mask.len() - 1
            });
            by_mask[at].1.push(packed);
        });
    }
    let mut regions: Vec<VennRegion<S>> = by_mask
        .into_iter()
        .map(|(membership, packed)| VennRegion {
            membership,
            // Values arrive in ascending global order, so each region's
            // vector is already sorted and deduplicated.
            pairs: S::from_sorted_packed(packed),
        })
        .collect();
    regions.sort_by_key(|r| r.membership);
    regions
}

/// Up to this many sets, [`venn_counts`] counts into a dense array of
/// all `2^k` masks (256 counters, 2 KiB); above it, into an index of
/// the masks that occur, which never holds more entries than pairs.
const DENSE_COUNT_SETS: usize = 8;

/// The sizes of the non-empty exclusive Venn regions of `sets`, as
/// `(membership, pair count)` sorted by membership — exactly
/// [`venn_regions`] mapped to `(r.membership, r.pairs.len())`, but
/// without building any region: one k-way merge adds each pair to the
/// counter of its mask. The sets are borrowed, so the caller merges
/// sets it already holds without cloning them; beyond the merge's
/// per-set cursors the work space is 2 KiB for up to
/// `DENSE_COUNT_SETS` sets and one entry per occurring mask above.
///
/// # Panics
/// Panics on more than [`MAX_VENN_SETS`](crate::dataset::MAX_VENN_SETS)
/// sets.
pub fn venn_counts<S: PairAlgebra>(sets: &[&S]) -> Vec<(u32, usize)> {
    if sets.len() <= DENSE_COUNT_SETS {
        let mut counts = [0usize; 1 << DENSE_COUNT_SETS];
        S::kway_merge_masks(sets, |_, mask| counts[mask as usize] += 1);
        return (0u32..).zip(counts).filter(|&(_, n)| n > 0).collect();
    }
    let mut index: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    S::kway_merge_masks(sets, |_, mask| *index.entry(mask).or_insert(0) += 1);
    let mut counts: Vec<(u32, usize)> = index.into_iter().collect();
    counts.sort_unstable_by_key(|&(mask, _)| mask);
    counts
}

/// Pairs found by at most `max_finders` of the given sets — the §5.4
/// analysis "three true duplicate pairs that were not detected by at
/// least four solutions" is `found_by_at_most(&truth_minus_each, …)`;
/// here expressed directly: ground-truth pairs detected by at most
/// `max_finders` experiments.
pub fn hard_pairs<S: PairAlgebra>(
    truth_pairs: &S,
    experiments: &[&Experiment],
    max_finders: usize,
) -> Vec<(RecordPair, usize)> {
    let sets: Vec<S> = experiments.iter().map(|e| e.pair_set_as()).collect();
    // Stream the (potentially huge) ground truth instead of
    // materializing it; only the qualifying hard pairs are kept.
    let mut out: Vec<(RecordPair, usize)> = Vec::new();
    truth_pairs.for_each_packed(|x| {
        let p = RecordPair::new(
            crate::dataset::RecordId((x >> 32) as u32),
            crate::dataset::RecordId(x as u32),
        );
        let finders = sets.iter().filter(|s| s.contains(&p)).count();
        if finders <= max_finders {
            out.push((p, finders));
        }
    });
    out.sort_by_key(|&(p, finders)| (finders, p));
    out
}

/// Enriches bare pair identifiers with the actual dataset records —
/// "some output formats consist solely of identifiers and thus require
/// to be joined with the dataset to be helpful" (§4.1).
pub fn enrich(
    pairs: impl IntoIterator<Item = RecordPair>,
    dataset: &Dataset,
) -> Vec<(RecordPair, &Record, &Record)> {
    pairs
        .into_iter()
        .map(|p| (p, dataset.record(p.lo()), dataset.record(p.hi())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn pair(a: u32, b: u32) -> RecordPair {
        RecordPair::from((a, b))
    }

    fn setof(pairs: &[(u32, u32)]) -> PairSet {
        pairs.iter().map(|&(a, b)| pair(a, b)).collect()
    }

    #[test]
    fn confusion_partitions_via_set_algebra() {
        // E = experiment, G = ground truth: FP = E \ G, FN = G \ E, TP = E ∩ G.
        let universe = vec![setof(&[(0, 1), (0, 2)]), setof(&[(0, 1), (2, 3)])];
        let tp = SetExpression::set(0).intersection(SetExpression::set(1));
        let fp = SetExpression::set(0).difference(SetExpression::set(1));
        let fn_ = SetExpression::set(1).difference(SetExpression::set(0));
        assert_eq!(tp.evaluate(&universe), setof(&[(0, 1)]));
        assert_eq!(fp.evaluate(&universe), setof(&[(0, 2)]));
        assert_eq!(fn_.evaluate(&universe), setof(&[(2, 3)]));
    }

    #[test]
    fn union_and_nesting() {
        let universe = vec![setof(&[(0, 1)]), setof(&[(2, 3)]), setof(&[(0, 1), (4, 5)])];
        // (S0 ∪ S1) \ S2
        let expr = SetExpression::set(0)
            .union(SetExpression::set(1))
            .difference(SetExpression::set(2));
        assert_eq!(expr.evaluate(&universe), setof(&[(2, 3)]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_leaf_panics() {
        SetExpression::set(5).evaluate::<PairSet>(&[]);
    }

    #[test]
    fn venn_regions_partition_everything() {
        let sets = vec![setof(&[(0, 1), (0, 2), (4, 5)]), setof(&[(0, 1), (2, 3)])];
        let regions = venn_regions(&sets);
        // Regions: only-A {(0,2),(4,5)}, only-B {(2,3)}, both {(0,1)}.
        assert_eq!(regions.len(), 3);
        let by_mask: HashMap<u32, &VennRegion> =
            regions.iter().map(|r| (r.membership, r)).collect();
        assert_eq!(by_mask[&0b01].pairs, setof(&[(0, 2), (4, 5)]));
        assert_eq!(by_mask[&0b10].pairs, setof(&[(2, 3)]));
        assert_eq!(by_mask[&0b11].pairs, setof(&[(0, 1)]));
        assert!(by_mask[&0b11].contains_set(0) && by_mask[&0b11].contains_set(1));
        assert_eq!(by_mask[&0b01].set_count(), 1);
        // Regions are exclusive: total size = |union|.
        let total: usize = regions.iter().map(|r| r.pairs.len()).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn venn_of_three_sets() {
        let sets = vec![
            setof(&[(0, 1), (2, 3), (4, 5)]),
            setof(&[(0, 1), (2, 3)]),
            setof(&[(0, 1), (6, 7)]),
        ];
        let regions = venn_regions(&sets);
        let by_mask: HashMap<u32, usize> = regions
            .iter()
            .map(|r| (r.membership, r.pairs.len()))
            .collect();
        assert_eq!(by_mask[&0b111], 1); // (0,1) in all three
        assert_eq!(by_mask[&0b011], 1); // (2,3) in first two
        assert_eq!(by_mask[&0b001], 1); // (4,5) only first
        assert_eq!(by_mask[&0b100], 1); // (6,7) only third
    }

    #[test]
    fn hard_pairs_finds_universally_missed_duplicates() {
        let truth = setof(&[(0, 1), (2, 3), (4, 5)]);
        let e1 = Experiment::from_pairs("e1", [(0u32, 1u32), (2, 3)]);
        let e2 = Experiment::from_pairs("e2", [(0u32, 1u32)]);
        let e3 = Experiment::from_pairs("e3", [(0u32, 1u32), (2, 3)]);
        let hard = hard_pairs(&truth, &[&e1, &e2, &e3], 1);
        // (4,5) found by nobody; (2,3) found by two → excluded at max 1.
        assert_eq!(hard, vec![(pair(4, 5), 0)]);
        let hard2 = hard_pairs(&truth, &[&e1, &e2, &e3], 2);
        assert_eq!(hard2.len(), 2);
        assert_eq!(hard2[0].0, pair(4, 5));
        assert_eq!(hard2[1], (pair(2, 3), 2));
    }

    #[test]
    fn engines_agree_on_expressions_and_venn() {
        use crate::dataset::{ChunkedPairSet, RoaringPairSet};
        let packed = vec![
            setof(&[(0, 1), (0, 2), (4, 5)]),
            setof(&[(0, 1), (2, 3)]),
            setof(&[(2, 3), (4, 5), (6, 7)]),
        ];
        let chunked: Vec<ChunkedPairSet> =
            packed.iter().map(ChunkedPairSet::from_pair_set).collect();
        let roaring: Vec<RoaringPairSet> =
            packed.iter().map(RoaringPairSet::from_pair_set).collect();
        let expr = SetExpression::set(0)
            .union(SetExpression::set(1))
            .difference(SetExpression::set(2));
        assert_eq!(
            expr.evaluate(&chunked).to_pair_set(),
            expr.evaluate(&packed)
        );
        assert_eq!(
            expr.evaluate(&roaring).to_pair_set(),
            expr.evaluate(&packed)
        );
        let rp = venn_regions(&packed);
        let rc = venn_regions(&chunked);
        let rr = venn_regions(&roaring);
        assert_eq!(rp.len(), rc.len());
        assert_eq!(rp.len(), rr.len());
        for ((p, c), r) in rp.iter().zip(&rc).zip(&rr) {
            assert_eq!(p.membership, c.membership);
            assert_eq!(c.pairs.to_pair_set(), p.pairs);
            assert_eq!(p.membership, r.membership);
            assert_eq!(r.pairs.to_pair_set(), p.pairs);
        }
    }

    /// One case of the differential test: `k` sets drawn from a pool
    /// of sparse pairs spread over the whole key space and, when
    /// `dense`, a block of 6 000 consecutive `hi` values under one
    /// `lo` (a bitmap container in both chunked engines). Each set is
    /// empty, a copy of an earlier set, or a random subset of the pool.
    fn venn_case(seed: u64, k: usize, dense: bool) -> Vec<PairSet> {
        let mut state = seed;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut pool: Vec<(u32, u32)> = (0..200)
            .map(|_| {
                let lo = (next() % 4096) as u32;
                // Half the partners sit just above `lo`, half anywhere
                // up to `u32::MAX`.
                let hi = match next() % 2 {
                    0 => lo + 1 + (next() % 64) as u32,
                    _ => lo.max((next() as u32) | 1),
                };
                (lo, hi.max(lo + 1))
            })
            .collect();
        if dense {
            pool.extend((0..6_000).map(|hi| (7, 8 + hi)));
        }
        let mut sets: Vec<PairSet> = Vec::with_capacity(k);
        for _ in 0..k {
            let set = match next() % 8 {
                0 => PairSet::new(),
                1 if !sets.is_empty() => sets[(next() % sets.len() as u64) as usize].clone(),
                _ => {
                    let keep = 1 + next() % 4;
                    pool.iter()
                        .filter(|_| next() % 4 < keep)
                        .map(|&(a, b)| pair(a, b))
                        .collect()
                }
            };
            sets.push(set);
        }
        sets
    }

    /// A case has `shape` sets for `shape` up to 8 (none at all
    /// included); the rest pick the mask-index path, up to the full
    /// mask width.
    const WIDE_SETS: [usize; 4] = [12, 30, 31, crate::dataset::MAX_VENN_SETS];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        /// `venn_counts` returns exactly the `(membership, len)` list of
        /// `venn_regions`, on all three engines.
        #[test]
        fn venn_counts_agree_with_reference(
            seed in 0u64..u64::MAX,
            shape in 0usize..9 + WIDE_SETS.len(),
            dense in 0u8..3,
        ) {
            use crate::dataset::{ChunkedPairSet, RoaringPairSet};
            let k = if shape <= 8 { shape } else { WIDE_SETS[shape - 9] };
            let packed = venn_case(seed, k, dense == 0);
            let reference: Vec<(u32, usize)> = venn_regions(&packed)
                .into_iter()
                .map(|r| (r.membership, r.pairs.len()))
                .collect();
            let chunked: Vec<ChunkedPairSet> =
                packed.iter().map(ChunkedPairSet::from_pair_set).collect();
            let roaring: Vec<RoaringPairSet> =
                packed.iter().map(RoaringPairSet::from_pair_set).collect();
            proptest::prop_assert_eq!(
                &venn_counts(&packed.iter().collect::<Vec<_>>()),
                &reference
            );
            proptest::prop_assert_eq!(
                &venn_counts(&chunked.iter().collect::<Vec<_>>()),
                &reference
            );
            proptest::prop_assert_eq!(
                &venn_counts(&roaring.iter().collect::<Vec<_>>()),
                &reference
            );
        }
    }

    #[test]
    fn enrich_joins_records() {
        use crate::dataset::Schema;
        let mut ds = Dataset::new("d", Schema::new(["name"]));
        ds.push_record("a", ["Ann"]);
        ds.push_record("b", ["Anne"]);
        let enriched = enrich([pair(0, 1)], &ds);
        assert_eq!(enriched.len(), 1);
        assert_eq!(enriched[0].1.value(0), Some("Ann"));
        assert_eq!(enriched[0].2.value(0), Some("Anne"));
    }
}
