//! Experiments: the output of one matching-solution run.

use super::hash::{max_load, table_size, SeededHash};
use super::{PairSet, RecordId, RecordPair};
use serde::{Deserialize, Serialize};

/// Where a pair in an experiment came from.
///
/// Frost requires result sets to be transitively closed (§1.2), but the
/// closure step can add many pairs the matching solution never emitted.
/// The *plain result pairs* selection strategy (§4.2.4) hides pairs that
/// were only added by a clustering/closure step, which requires tracking
/// the origin of every pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PairOrigin {
    /// The matching solution itself labelled this pair a match.
    Matcher,
    /// The pair was added by transitive closure / a clustering algorithm.
    Closure,
}

/// One match predicted by a matching solution: the pair, an optional
/// similarity (or confidence) score, and its [`PairOrigin`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScoredPair {
    /// The matched record pair.
    pub pair: RecordPair,
    /// Similarity/confidence in `[0, 1]`; `None` when the solution does not
    /// expose scores (e.g. hard rule-based matchers).
    pub similarity: Option<f64>,
    /// Whether the matcher emitted the pair or a closure step added it.
    pub origin: PairOrigin,
}

impl ScoredPair {
    /// A matcher-emitted pair with a similarity score.
    pub fn scored(pair: impl Into<RecordPair>, similarity: f64) -> Self {
        Self {
            pair: pair.into(),
            similarity: Some(similarity),
            origin: PairOrigin::Matcher,
        }
    }

    /// A matcher-emitted pair without a score.
    pub fn unscored(pair: impl Into<RecordPair>) -> Self {
        Self {
            pair: pair.into(),
            similarity: None,
            origin: PairOrigin::Matcher,
        }
    }

    /// A pair introduced by transitive closure.
    pub fn closure(pair: impl Into<RecordPair>) -> Self {
        Self {
            pair: pair.into(),
            similarity: None,
            origin: PairOrigin::Closure,
        }
    }
}

/// The output of one run of a matching solution on one dataset: a set of
/// predicted matches, optionally scored.
///
/// The paper calls this an *experiment* (§1.2). Experiments are the unit
/// everything else operates on: metrics compare an experiment against a
/// gold standard, set-based comparisons intersect/subtract experiments,
/// diagrams sweep an experiment's similarity scores.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Experiment {
    name: String,
    pairs: Vec<ScoredPair>,
}

impl Experiment {
    /// Creates an experiment from pre-built [`ScoredPair`]s.
    ///
    /// Duplicate pairs are collapsed (keeping the first occurrence), since
    /// `E ⊆ [D]²` is a set.
    pub fn new(name: impl Into<String>, pairs: impl IntoIterator<Item = ScoredPair>) -> Self {
        let pairs = pairs.into_iter();
        let mut seen = PairDedup::with_capacity(pairs.size_hint().0);
        let pairs = pairs.filter(|sp| seen.insert(sp.pair)).collect();
        Self {
            name: name.into(),
            pairs,
        }
    }

    /// Creates an experiment from pairs that are already deduplicated —
    /// the trusted fast path of the `FROSTB` snapshot loader, which
    /// round-trips pair lists that [`Experiment::new`] deduplicated
    /// before they were written, and of the CSV importer, which
    /// deduplicates with a [`PairDedup`] as it reads. Skips the
    /// deduplication pass; callers must uphold the no-duplicates
    /// invariant (checked in debug builds).
    pub fn from_deduplicated_pairs(name: impl Into<String>, pairs: Vec<ScoredPair>) -> Self {
        debug_assert!(
            {
                let mut seen = PairDedup::with_capacity(pairs.len());
                pairs.iter().all(|sp| seen.insert(sp.pair))
            },
            "from_deduplicated_pairs called with duplicate pairs"
        );
        Self {
            name: name.into(),
            pairs,
        }
    }

    /// Builds an experiment from `(a, b, similarity)` triples.
    pub fn from_scored_pairs<P>(
        name: impl Into<String>,
        triples: impl IntoIterator<Item = (P, P, f64)>,
    ) -> Self
    where
        P: Into<RecordId>,
    {
        Self::new(
            name,
            triples
                .into_iter()
                .map(|(a, b, s)| ScoredPair::scored((a.into(), b.into()), s)),
        )
    }

    /// Builds an unscored experiment from `(a, b)` id pairs.
    pub fn from_pairs<P>(name: impl Into<String>, pairs: impl IntoIterator<Item = (P, P)>) -> Self
    where
        P: Into<RecordId>,
    {
        Self::new(
            name,
            pairs
                .into_iter()
                .map(|(a, b)| ScoredPair::unscored((a.into(), b.into()))),
        )
    }

    /// The experiment (run) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of predicted matches.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no matches were predicted.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// All predicted matches.
    pub fn pairs(&self) -> &[ScoredPair] {
        &self.pairs
    }

    /// The name and the predicted matches, moved out.
    pub fn into_parts(self) -> (String, Vec<ScoredPair>) {
        (self.name, self.pairs)
    }

    /// The set of matched [`RecordPair`]s (dropping scores and origins)
    /// as a packed, sorted [`PairSet`].
    pub fn pair_set(&self) -> PairSet {
        self.pairs.iter().map(|sp| sp.pair).collect()
    }

    /// The set of matched [`RecordPair`]s as a two-level
    /// [`RoaringPairSet`](super::RoaringPairSet) — the engine that
    /// keeps *sparse* working sets small, used wherever many
    /// experiments are held simultaneously.
    pub fn roaring_pair_set(&self) -> super::RoaringPairSet {
        self.pairs.iter().map(|sp| sp.pair).collect()
    }

    /// The set of matched [`RecordPair`]s in any
    /// [`PairAlgebra`](super::PairAlgebra) representation.
    pub fn pair_set_as<S: super::PairAlgebra>(&self) -> S {
        S::from_pairs(self.pairs.iter().map(|sp| sp.pair))
    }

    /// Only the pairs the matcher itself emitted (§4.2.4 "plain result pairs").
    pub fn matcher_pairs(&self) -> impl Iterator<Item = &ScoredPair> {
        self.pairs
            .iter()
            .filter(|sp| sp.origin == PairOrigin::Matcher)
    }

    /// Whether every pair carries a similarity score.
    pub fn fully_scored(&self) -> bool {
        self.pairs.iter().all(|sp| sp.similarity.is_some())
    }

    /// Pairs sorted by similarity, descending; unscored pairs sort last.
    /// Ties break by pair, so the order is total and deterministic.
    ///
    /// This is the order the diagram algorithms (Appendix D) consume
    /// matches in: the optimized sweep sorts the same 16-byte keys and
    /// reads them directly, and this gathers the matches from them.
    pub fn pairs_by_similarity_desc(&self) -> Vec<ScoredPair> {
        SimilarityOrder::new(&self.pairs).scored_pairs()
    }

    /// Keeps only matches with `similarity ≥ threshold` (unscored pairs are
    /// kept — a matcher without scores asserts all its pairs are matches).
    pub fn at_threshold(&self, threshold: f64) -> Experiment {
        Experiment {
            name: format!("{}@{threshold}", self.name),
            pairs: self
                .pairs
                .iter()
                .filter(|sp| sp.similarity.is_none_or(|s| s >= threshold))
                .copied()
                .collect(),
        }
    }

    /// Appends a pair (ignored if already present).
    pub fn push(&mut self, sp: ScoredPair) {
        if !self.pairs.iter().any(|p| p.pair == sp.pair) {
            self.pairs.push(sp);
        }
    }
}

/// The set of pairs a deduplicating pass has seen: the rule behind
/// [`Experiment::new`] ("keep the first occurrence"), for callers that
/// build the pair list themselves and finish with
/// [`Experiment::from_deduplicated_pairs`].
///
/// An open-addressing table of packed `(lo, hi)` keys with linear
/// probing; a normalized pair has `hi > 0`, so the key `0` marks an
/// empty slot. The hash is keyed per instance, so no upload can be
/// crafted to collide.
#[derive(Debug, Clone)]
pub struct PairDedup {
    slots: Vec<u64>,
    len: usize,
    hash: SeededHash,
}

impl PairDedup {
    /// An empty set with room for `capacity` pairs.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: vec![0; table_size(capacity)],
            len: 0,
            hash: SeededHash::new(),
        }
    }

    /// Adds `pair`; `true` if it was not yet present.
    #[inline]
    pub fn insert(&mut self, pair: RecordPair) -> bool {
        if max_load(self.len, self.slots.len()) {
            self.grow();
        }
        let key = ((pair.lo().0 as u64) << 32) | pair.hi().0 as u64;
        let mask = self.slots.len() - 1;
        let mut i = self.hash.u64(key) as usize & mask;
        loop {
            match self.slots[i] {
                0 => {
                    self.slots[i] = key;
                    self.len += 1;
                    return true;
                }
                k if k == key => return false,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Number of distinct pairs seen.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no pair was seen yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn grow(&mut self) {
        let grown = vec![0; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, grown);
        let mask = self.slots.len() - 1;
        for key in old.into_iter().filter(|&k| k != 0) {
            let mut i = self.hash.u64(key) as usize & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = key;
        }
    }
}

/// Matches in descending similarity order, ties broken by pair, as
/// one sorted 16-byte key per match: the order every sweep over
/// similarities (the Appendix D diagrams, the center clusterings)
/// consumes.
///
/// A key holds `!similarity_key` in its high 64 bits and the packed
/// pair `lo << 32 | hi` in its low 64, so ascending keys are
/// descending similarities, and the keys sort as plain integers. A key
/// decodes back to its pair exactly, and to its match exactly unless
/// the match is *irregular*: a NaN, `-0.0` or `-∞` score shares its key
/// with an unscored or `+0.0` one, and the key carries no
/// [`PairOrigin`]. Irregular matches are looked up in the experiment's
/// own list, which an experiment without closure pairs or such scores
/// never needs.
#[derive(Debug)]
pub(crate) struct SimilarityOrder<'a> {
    pairs: &'a [ScoredPair],
    keys: Vec<u128>,
}

/// The similarity key of unscored, NaN and `-∞` scores.
const NEG_INFINITY_KEY: u64 = 0x000f_ffff_ffff_ffff;
/// The similarity key of `±0.0`.
const ZERO_KEY: u64 = 1 << 63;

impl<'a> SimilarityOrder<'a> {
    /// Keys `pairs` and sorts the keys.
    pub(crate) fn new(pairs: &'a [ScoredPair]) -> Self {
        let mut keys: Vec<u128> = pairs.iter().map(order_key).collect();
        keys.sort_unstable();
        Self { pairs, keys }
    }

    /// The sorted keys; [`key_pair`] decodes one.
    pub(crate) fn keys(&self) -> &[u128] {
        &self.keys
    }

    /// The sorted keys, moved out.
    pub(crate) fn into_keys(self) -> Vec<u128> {
        self.keys
    }

    /// The matches in order: a gather over the keys.
    pub(crate) fn scored_pairs(&self) -> Vec<ScoredPair> {
        let mut out: Vec<ScoredPair> = self.keys.iter().map(|&k| decode(k)).collect();
        for (at, sp) in self.irregular() {
            out[at] = *sp;
        }
        out
    }

    /// The similarity of the match at each of `positions` (ascending),
    /// exact to the bit. Only when one of them holds an ambiguous key
    /// does this take one pass over the matches.
    pub(crate) fn similarities_at(&self, positions: &[usize]) -> Vec<Option<f64>> {
        let mut out: Vec<Option<f64>> = positions
            .iter()
            .map(|&at| decode(self.keys[at]).similarity)
            .collect();
        let ambiguous = |at: usize| {
            let k = similarity_key_of(self.keys[at]);
            k == NEG_INFINITY_KEY || k == ZERO_KEY
        };
        if positions.iter().any(|&at| ambiguous(at)) {
            for (at, sp) in self.irregular() {
                let from = positions.partition_point(|&p| p < at);
                let to = positions.partition_point(|&p| p <= at);
                out[from..to].fill(sp.similarity);
            }
        }
        out
    }

    /// Every match its key does not decode to, with its position.
    fn irregular(&self) -> impl Iterator<Item = (usize, &'a ScoredPair)> + '_ {
        self.pairs
            .iter()
            .filter(|sp| !decodes_exactly(sp))
            .map(|sp| {
                let at = self.keys.binary_search(&order_key(sp));
                (at.expect("every match is keyed"), sp)
            })
    }
}

/// A match's [`SimilarityOrder`] key.
#[inline]
fn order_key(sp: &ScoredPair) -> u128 {
    let pair = (u64::from(sp.pair.lo().0) << 32) | u64::from(sp.pair.hi().0);
    (u128::from(!similarity_key(sp.similarity)) << 64) | u128::from(pair)
}

/// The `(lo, hi)` record ids of the pair a [`SimilarityOrder`] key was
/// made from.
#[inline]
pub(crate) fn key_ids(key: u128) -> (RecordId, RecordId) {
    (RecordId((key >> 32) as u32), RecordId(key as u32))
}

/// The pair a [`SimilarityOrder`] key was made from.
#[inline]
pub(crate) fn key_pair(key: u128) -> RecordPair {
    RecordPair::from(key_ids(key))
}

#[inline]
fn similarity_key_of(key: u128) -> u64 {
    !((key >> 64) as u64)
}

/// The regular match a key stands for: a matcher pair, unscored on the
/// `-∞` key, else scored with the one non-negative-zero, non-NaN score
/// of its key.
fn decode(key: u128) -> ScoredPair {
    let k = similarity_key_of(key);
    ScoredPair {
        pair: key_pair(key),
        similarity: (k != NEG_INFINITY_KEY).then(|| {
            // Inverts `similarity_key`.
            f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
        }),
        origin: PairOrigin::Matcher,
    }
}

/// Whether `decode` of the match's key gives the match back.
fn decodes_exactly(sp: &ScoredPair) -> bool {
    sp.origin == PairOrigin::Matcher
        && sp.similarity.is_none_or(|s| {
            !(s.is_nan() || s == f64::NEG_INFINITY || (s == 0.0 && s.is_sign_negative()))
        })
}

/// Maps a similarity to a `u64` whose order is the numeric order.
/// Unscored pairs rank with `-∞`, `-0.0` ranks with `+0.0`, and NaN,
/// which has no place in that order, ranks with unscored pairs rather
/// than breaking the sort.
fn similarity_key(similarity: Option<f64>) -> u64 {
    let s = match similarity {
        Some(s) if !s.is_nan() => s + 0.0,
        _ => f64::NEG_INFINITY,
    };
    let bits = s.to_bits();
    // Negative floats order by descending magnitude: flip every bit.
    // Non-negative ones order by their bits: set the sign bit so they
    // rank above all negatives.
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_on_construction() {
        let e = Experiment::from_scored_pairs("e", [(0u32, 1u32, 0.9), (1, 0, 0.5)]);
        assert_eq!(e.len(), 1);
        assert_eq!(e.pairs()[0].similarity, Some(0.9));
    }

    #[test]
    fn similarity_sort_descending_unscored_last() {
        let e = Experiment::new(
            "e",
            [
                ScoredPair::unscored((0u32, 1u32)),
                ScoredPair::scored((2u32, 3u32), 0.4),
                ScoredPair::scored((4u32, 5u32), 0.9),
            ],
        );
        let sorted = e.pairs_by_similarity_desc();
        assert_eq!(sorted[0].similarity, Some(0.9));
        assert_eq!(sorted[1].similarity, Some(0.4));
        assert_eq!(sorted[2].similarity, None);
    }

    #[test]
    fn similarity_sort_is_total() {
        // NaN ranks with unscored pairs and -0.0 with +0.0; ties break
        // by pair.
        let e = Experiment::new(
            "e",
            [
                ScoredPair::scored((0u32, 1u32), f64::NAN),
                ScoredPair::unscored((2u32, 3u32)),
                ScoredPair::scored((4u32, 5u32), 0.0),
                ScoredPair::scored((6u32, 7u32), -0.0),
                ScoredPair::scored((8u32, 9u32), f64::NEG_INFINITY),
                ScoredPair::scored((10u32, 11u32), f64::INFINITY),
                ScoredPair::scored((12u32, 13u32), -0.5),
            ],
        );
        let order: Vec<u32> = e
            .pairs_by_similarity_desc()
            .iter()
            .map(|sp| sp.pair.lo().0)
            .collect();
        assert_eq!(order, [10, 4, 6, 12, 0, 2, 8]);
    }

    #[test]
    fn ambiguous_keys_are_the_shared_ones() {
        for score in [
            None,
            Some(f64::NEG_INFINITY),
            Some(f64::NAN),
            Some(-f64::NAN),
        ] {
            assert_eq!(similarity_key(score), NEG_INFINITY_KEY);
        }
        for score in [0.0, -0.0] {
            assert_eq!(similarity_key(Some(score)), ZERO_KEY);
        }
    }

    /// Every match whose key is shared or carries no origin comes back
    /// exactly, to the bits of a NaN payload and the sign of a zero.
    #[test]
    fn order_gathers_irregular_matches_exactly() {
        let pairs = [
            ScoredPair::scored((0u32, 1u32), f64::from_bits(0xfff8_0000_0000_0123)),
            ScoredPair::unscored((2u32, 3u32)),
            ScoredPair::scored((4u32, 5u32), -0.0),
            ScoredPair::scored((6u32, 7u32), 0.0),
            ScoredPair::scored((8u32, 9u32), f64::NEG_INFINITY),
            ScoredPair {
                pair: RecordPair::from((10u32, 11u32)),
                similarity: Some(0.75),
                origin: PairOrigin::Closure,
            },
            ScoredPair::closure((12u32, 13u32)),
            ScoredPair::scored((14u32, 15u32), -1.5),
            ScoredPair::scored((16u32, 17u32), f64::INFINITY),
        ];
        let bits = |sp: &ScoredPair| (sp.pair, sp.similarity.map(f64::to_bits), sp.origin);
        let order = SimilarityOrder::new(&pairs);
        let gathered: Vec<_> = order.scored_pairs().iter().map(bits).collect();
        let expected: Vec<_> = [8, 5, 2, 3, 7, 0, 1, 4, 6]
            .map(|i| bits(&pairs[i]))
            .to_vec();
        assert_eq!(gathered, expected);
        let positions = [0, 2, 2, 3, 5, 5, 8];
        let similarities: Vec<_> = order
            .similarities_at(&positions)
            .into_iter()
            .map(|s| s.map(f64::to_bits))
            .collect();
        let expected: Vec<_> = positions.iter().map(|&at| expected[at].1).collect();
        assert_eq!(similarities, expected);
    }

    #[test]
    fn threshold_filter() {
        let e = Experiment::from_scored_pairs("e", [(0u32, 1u32, 0.9), (2, 3, 0.3)]);
        let t = e.at_threshold(0.5);
        assert_eq!(t.len(), 1);
        assert!(t.pair_set().contains(&RecordPair::from((0u32, 1u32))));
        // Unscored pairs survive any threshold.
        let mut u = Experiment::from_pairs("u", [(0u32, 1u32)]);
        u.push(ScoredPair::scored((2u32, 3u32), 0.1));
        assert_eq!(u.at_threshold(0.99).len(), 1);
    }

    #[test]
    fn matcher_pairs_filters_closure() {
        let e = Experiment::new(
            "e",
            [
                ScoredPair::scored((0u32, 1u32), 0.8),
                ScoredPair::closure((0u32, 2u32)),
            ],
        );
        assert_eq!(e.matcher_pairs().count(), 1);
        assert!(!e.fully_scored());
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn from_deduplicated_pairs_preserves_order() {
        let pairs = vec![
            ScoredPair::scored((4u32, 5u32), 0.9),
            ScoredPair::unscored((0u32, 1u32)),
        ];
        let e = Experiment::from_deduplicated_pairs("e", pairs.clone());
        assert_eq!(e.pairs(), &pairs[..]);
    }

    #[test]
    fn engine_auto_selection() {
        use crate::dataset::{choose_pair_engine, PairEngine};
        let engine = |e: &Experiment| {
            let set = e.roaring_pair_set();
            choose_pair_engine(set.len(), set.chunk_count())
        };
        // Small → packed, whatever the shape.
        let small = Experiment::from_pairs("s", [(0u32, 1u32), (2, 3)]);
        assert_eq!(engine(&small), PairEngine::Packed);
        // Large and dense (one lo with 10k partners → occupancy ≫ 256).
        let dense = Experiment::from_pairs("d", (1..=10_000u32).map(|hi| (0u32, hi)));
        assert_eq!(engine(&dense), PairEngine::Chunked);
        // Large and sparse (one pair per chunk).
        let sparse = Experiment::from_pairs("r", (0..10_000u32).map(|lo| (lo, lo + 1)));
        assert_eq!(engine(&sparse), PairEngine::Roaring);
    }

    #[test]
    fn engine_combination_rules() {
        use crate::dataset::PairEngine::{self, Chunked, Packed, Roaring};
        assert_eq!(PairEngine::combined([Packed, Packed]), Packed);
        assert_eq!(PairEngine::combined([Packed, Roaring]), Roaring);
        assert_eq!(PairEngine::combined([Roaring, Chunked, Packed]), Chunked);
        assert_eq!(PairEngine::combined([]), Roaring);
        assert_eq!(Chunked.to_string(), "chunked");
    }

    #[test]
    fn pair_dedup_keeps_first_occurrences_across_growth() {
        let mut seen = PairDedup::with_capacity(0);
        assert!(seen.is_empty());
        let pairs: Vec<RecordPair> = (0..3_000u32)
            .map(|i| RecordPair::from((i % 37, 100 + i % 41)))
            .collect();
        let kept: Vec<RecordPair> = pairs.iter().copied().filter(|&p| seen.insert(p)).collect();
        let mut expected = Vec::new();
        for p in &pairs {
            if !expected.contains(p) {
                expected.push(*p);
            }
        }
        assert_eq!(kept, expected);
        assert_eq!(seen.len(), expected.len());
        // Both orientations of a pair are one key.
        assert!(!seen.insert(RecordPair::from((100u32, 0u32))));
        assert!(seen.insert(RecordPair::from((0u32, 1u32))));
    }

    #[test]
    fn push_ignores_existing() {
        let mut e = Experiment::from_pairs("e", [(0u32, 1u32)]);
        e.push(ScoredPair::scored((1u32, 0u32), 0.7));
        assert_eq!(e.len(), 1);
        e.push(ScoredPair::scored((1u32, 2u32), 0.7));
        assert_eq!(e.len(), 2);
    }
}
