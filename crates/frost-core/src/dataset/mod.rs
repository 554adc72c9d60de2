//! Datasets, records, schemas and record pairs.
//!
//! A *dataset* `D` is a collection of records that may contain duplicates
//! (§1.2 of the paper). A *record pair* is a set of two records
//! `{r1, r2} ⊆ D`; the set of all record pairs is `[D]² = {A ⊆ D : |A| = 2}`.
//! A *matching solution* outputs a set of matches `E ⊆ [D]²` — an
//! [`Experiment`] in Frost terminology.

pub mod chunked;
mod csv;
mod experiment;
mod hash;
mod native;
mod pair;
pub mod pairset;
mod record;
pub mod roaring;
mod schema;

pub use chunked::ChunkedPairSet;
pub use csv::{parse_csv, read_csv, write_csv, CsvError, CsvOptions, CsvRow};
pub(crate) use experiment::similarity_key;
pub use experiment::{Experiment, PairDedup, PairOrigin, ScoredPair};
pub use pair::RecordPair;
pub use pairset::PairSet;
pub use record::{Record, RecordId};
pub use roaring::RoaringPairSet;
pub use schema::Schema;

use native::NativeIds;

/// Pair-set engine identities, for cost-model-driven selection.
///
/// [`choose_pair_engine`] is a small cost model over pair count and
/// chunk occupancy (packed for small sets, roaring for sparse ones,
/// chunked for dense/skewed chunks). No served view or CLI command
/// selects by it: every Venn view counts on the stored roaring sets.
/// Its callers are the perfbench replay, which labels each analyze
/// group with the engine the model picks, and tests that pin a
/// fixture's shape; the kernel benches (`benches/pairset.rs`) build
/// each engine directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairEngine {
    /// Packed sorted-`Vec<u64>` [`PairSet`].
    Packed,
    /// Single-level [`ChunkedPairSet`] (chunk by `lo`, `u32` containers).
    Chunked,
    /// Two-level [`RoaringPairSet`] (chunk by `packed >> 16`, `u16`
    /// containers).
    Roaring,
}

impl PairEngine {
    /// Combines per-set hints into one engine for an operation that
    /// needs homogeneous operands (a Venn sweep, a comparison view):
    /// any dense participant pulls the whole group onto the chunked
    /// engine (its bitmap kernels dominate the merge cost), otherwise
    /// any large sparse participant picks roaring, and all-small
    /// groups stay packed. Empty input defaults to roaring, the
    /// engine with the smallest idle footprint.
    pub fn combined(hints: impl IntoIterator<Item = PairEngine>) -> PairEngine {
        let mut seen_any = false;
        let mut seen_roaring = false;
        for hint in hints {
            match hint {
                PairEngine::Chunked => return PairEngine::Chunked,
                PairEngine::Roaring => seen_roaring = true,
                PairEngine::Packed => {}
            }
            seen_any = true;
        }
        if seen_roaring || !seen_any {
            PairEngine::Roaring
        } else {
            PairEngine::Packed
        }
    }
}

impl std::fmt::Display for PairEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PairEngine::Packed => "packed",
            PairEngine::Chunked => "chunked",
            PairEngine::Roaring => "roaring",
        })
    }
}

/// Below this many pairs the packed engine wins regardless of shape:
/// one sorted `Vec<u64>` merge has no per-chunk dispatch and the
/// whole set fits comfortably in cache (`BENCH_pairset.json`,
/// uniform-250k: packed beats hash 5×; compressed engines only pay
/// off once working sets outgrow cache).
pub const AUTO_PACKED_MAX: usize = chunked::ARRAY_MAX;

/// Mean pairs per 2¹⁶-value chunk above which chunks count as dense:
/// bitmap containers dominate and the single-level chunked engine's
/// word-at-a-time kernels win (`BENCH_pairset.json`, dense-2.5m:
/// occupancy ≈ 2900, chunked-vs-packed geomean 5.8×; uniform-2.5m:
/// occupancy ≈ 40, roaring wins). 256 sits between the two regimes,
/// at 1/16 of the ARRAY_MAX promotion threshold.
pub const AUTO_DENSE_OCCUPANCY: f64 = 256.0;

/// The cost model behind [`PairEngine`]: picks an engine from the pair
/// count and the number of distinct 2¹⁶-value chunks (the [`roaring`]
/// chunking of the packed key space, [`RoaringPairSet::chunk_count`]).
/// Used by the perfbench replay and by tests, not by any served path.
pub fn choose_pair_engine(pairs: usize, chunks: usize) -> PairEngine {
    if pairs <= AUTO_PACKED_MAX {
        return PairEngine::Packed;
    }
    let occupancy = pairs as f64 / chunks.max(1) as f64;
    if occupancy >= AUTO_DENSE_OCCUPANCY {
        PairEngine::Chunked
    } else {
        PairEngine::Roaring
    }
}

/// The most sets one [`PairAlgebra::kway_merge_masks`] (and so one
/// Venn diagram) can take: the width of its `u32` region mask.
pub const MAX_VENN_SETS: usize = u32::BITS as usize;

/// The set-algebra interface shared by Frost's three pair-set engines:
/// the packed sorted-`Vec<u64>` [`PairSet`], the single-level
/// [`ChunkedPairSet`] (chunk by `lo`, `u32` containers) and the
/// two-level [`RoaringPairSet`] (chunk by `packed >> 16`, `u16`
/// containers).
///
/// Every evaluation layer — confusion matrices, Venn regions,
/// set-algebra expressions, consensus metrics — is generic over this
/// trait, so callers pick the representation per workload: packed for
/// one-shot streaming merges when memory is no concern, chunked when
/// dense or skewed chunks dominate, roaring when sparse working sets
/// must stay small (see the [`chunked`] and [`roaring`] module docs
/// for the trade-off).
///
/// All implementations operate on the same packed key space:
/// a normalized pair `(lo, hi)` is the `u64` `(lo << 32) | hi`, and
/// iteration order is ascending packed order.
pub trait PairAlgebra: Clone + PartialEq + std::fmt::Debug + Send + Sync + Sized {
    /// Builds a set from packed values that are already sorted and
    /// deduplicated; callers must uphold that invariant.
    fn from_sorted_packed(packed: Vec<u64>) -> Self;

    /// Builds a set from arbitrary pairs (sorted and deduplicated
    /// internally).
    fn from_pairs(pairs: impl IntoIterator<Item = RecordPair>) -> Self;

    /// Number of pairs.
    fn len(&self) -> usize;

    /// Whether the set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    fn contains(&self, pair: &RecordPair) -> bool;

    /// `self ∪ other`.
    fn union(&self, other: &Self) -> Self;

    /// `self ∩ other`.
    fn intersection(&self, other: &Self) -> Self;

    /// `self \ other`.
    fn difference(&self, other: &Self) -> Self;

    /// `|self ∩ other|` without materializing the intersection.
    fn intersection_len(&self, other: &Self) -> usize;

    /// `|self \ other|` without materializing the difference.
    fn difference_len(&self, other: &Self) -> usize {
        self.len() - self.intersection_len(other)
    }

    /// Calls `f` with every packed pair value in ascending order.
    fn for_each_packed(&self, f: impl FnMut(u64));

    /// Streams the k-way merge of `sets`: for every distinct pair in
    /// ascending packed order, `emit(packed, mask)` with bit `i` of
    /// `mask` set iff `sets[i]` contains the pair. The engine under
    /// [`venn_regions`](crate::explore::setops::venn_regions). Takes at
    /// most [`MAX_VENN_SETS`] sets, borrowed, so a caller merges sets
    /// it holds elsewhere without cloning them.
    fn kway_merge_masks(sets: &[&Self], emit: impl FnMut(u64, u32));

    /// Bytes of heap memory held by the representation.
    fn heap_bytes(&self) -> usize;

    /// The pairs in ascending order (allocates; prefer
    /// [`for_each_packed`](PairAlgebra::for_each_packed) on hot paths).
    fn to_pairs(&self) -> Vec<RecordPair> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_packed(|x| {
            out.push(RecordPair::new(
                RecordId((x >> 32) as u32),
                RecordId(x as u32),
            ))
        });
        out
    }
}

impl PairAlgebra for PairSet {
    fn from_sorted_packed(packed: Vec<u64>) -> Self {
        PairSet::from_sorted_packed(packed)
    }
    fn from_pairs(pairs: impl IntoIterator<Item = RecordPair>) -> Self {
        pairs.into_iter().collect()
    }
    fn len(&self) -> usize {
        PairSet::len(self)
    }
    fn contains(&self, pair: &RecordPair) -> bool {
        PairSet::contains(self, pair)
    }
    fn union(&self, other: &Self) -> Self {
        PairSet::union(self, other)
    }
    fn intersection(&self, other: &Self) -> Self {
        PairSet::intersection(self, other)
    }
    fn difference(&self, other: &Self) -> Self {
        PairSet::difference(self, other)
    }
    fn intersection_len(&self, other: &Self) -> usize {
        PairSet::intersection_len(self, other)
    }
    fn for_each_packed(&self, mut f: impl FnMut(u64)) {
        for &x in self.as_packed() {
            f(x);
        }
    }
    fn kway_merge_masks(sets: &[&Self], emit: impl FnMut(u64, u32)) {
        pairset::kway_merge_masks(sets, emit)
    }
    fn heap_bytes(&self) -> usize {
        PairSet::heap_bytes(self)
    }
}

impl PairAlgebra for ChunkedPairSet {
    fn from_sorted_packed(packed: Vec<u64>) -> Self {
        ChunkedPairSet::from_sorted_packed(packed)
    }
    fn from_pairs(pairs: impl IntoIterator<Item = RecordPair>) -> Self {
        pairs.into_iter().collect()
    }
    fn len(&self) -> usize {
        ChunkedPairSet::len(self)
    }
    // Override the `len() == 0` default: the inherent check is O(1)
    // while `len()` popcounts every bitmap word.
    fn is_empty(&self) -> bool {
        ChunkedPairSet::is_empty(self)
    }
    fn contains(&self, pair: &RecordPair) -> bool {
        ChunkedPairSet::contains(self, pair)
    }
    fn union(&self, other: &Self) -> Self {
        ChunkedPairSet::union(self, other)
    }
    fn intersection(&self, other: &Self) -> Self {
        ChunkedPairSet::intersection(self, other)
    }
    fn difference(&self, other: &Self) -> Self {
        ChunkedPairSet::difference(self, other)
    }
    fn intersection_len(&self, other: &Self) -> usize {
        ChunkedPairSet::intersection_len(self, other)
    }
    fn for_each_packed(&self, f: impl FnMut(u64)) {
        ChunkedPairSet::for_each_packed(self, f)
    }
    fn kway_merge_masks(sets: &[&Self], emit: impl FnMut(u64, u32)) {
        chunked::kway_merge_masks_chunked(sets, emit)
    }
    fn heap_bytes(&self) -> usize {
        ChunkedPairSet::heap_bytes(self)
    }
}

impl PairAlgebra for RoaringPairSet {
    fn from_sorted_packed(packed: Vec<u64>) -> Self {
        RoaringPairSet::from_sorted_packed(packed)
    }
    fn from_pairs(pairs: impl IntoIterator<Item = RecordPair>) -> Self {
        pairs.into_iter().collect()
    }
    fn len(&self) -> usize {
        RoaringPairSet::len(self)
    }
    // Override the `len() == 0` default: the inherent check is O(1)
    // while `len()` sums every directory entry.
    fn is_empty(&self) -> bool {
        RoaringPairSet::is_empty(self)
    }
    fn contains(&self, pair: &RecordPair) -> bool {
        RoaringPairSet::contains(self, pair)
    }
    fn union(&self, other: &Self) -> Self {
        RoaringPairSet::union(self, other)
    }
    fn intersection(&self, other: &Self) -> Self {
        RoaringPairSet::intersection(self, other)
    }
    fn difference(&self, other: &Self) -> Self {
        RoaringPairSet::difference(self, other)
    }
    fn intersection_len(&self, other: &Self) -> usize {
        RoaringPairSet::intersection_len(self, other)
    }
    fn for_each_packed(&self, f: impl FnMut(u64)) {
        RoaringPairSet::for_each_packed(self, f)
    }
    fn kway_merge_masks(sets: &[&Self], emit: impl FnMut(u64, u32)) {
        roaring::kway_merge_masks_roaring(sets, emit)
    }
    fn heap_bytes(&self) -> usize {
        RoaringPairSet::heap_bytes(self)
    }
}

/// A named collection of records sharing a [`Schema`].
///
/// Records are addressed by dense numeric [`RecordId`]s assigned at insert
/// time. Snowman performs the same optimization during import: *"a unique
/// numerical ID is assigned to each record, allowing constant time access
/// to records"* (§5.3). The original ("native") string identifiers remain
/// available through [`Dataset::native_id`] and can be resolved back with
/// [`Dataset::resolve_native`].
///
/// The dataset holds each native id once, outside its [`Record`]s: all
/// ids sit back to back in one arena addressed by record id, and a
/// keyed open-addressing table of record ids indexes that arena (see
/// the `native` module). Resolving an id hashes it once and compares
/// it against the arena; no per-record string is allocated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dataset {
    name: String,
    schema: Schema,
    records: Vec<Record>,
    native_ids: NativeIds,
}

impl Dataset {
    /// Creates an empty dataset with the given name and schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Self::with_capacity(name, schema, 0)
    }

    /// Creates an empty dataset, pre-allocating room for `capacity` records.
    pub fn with_capacity(name: impl Into<String>, schema: Schema, capacity: usize) -> Self {
        Self {
            name: name.into(),
            schema,
            records: Vec::with_capacity(capacity),
            native_ids: NativeIds::with_capacity(capacity),
        }
    }

    /// The dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The dataset schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the dataset holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of record pairs `|[D]²| = n·(n−1)/2`.
    pub fn pair_count(&self) -> u64 {
        let n = self.records.len() as u64;
        n * n.saturating_sub(1) / 2
    }

    /// Appends a record with all attribute values present.
    ///
    /// # Panics
    /// Panics if the value count does not match the schema width, or if the
    /// native id was already used.
    pub fn push_record<I, S>(&mut self, native_id: impl AsRef<str>, values: I) -> RecordId
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let values: Vec<Option<String>> = values.into_iter().map(|v| Some(v.into())).collect();
        self.push_record_opt(native_id, values)
    }

    /// Appends a record that may contain missing (`None`) attribute values.
    ///
    /// # Panics
    /// Panics if the value count does not match the schema width, or if the
    /// native id was already used.
    pub fn push_record_opt(
        &mut self,
        native_id: impl AsRef<str>,
        values: Vec<Option<String>>,
    ) -> RecordId {
        let native_id = native_id.as_ref();
        self.try_push_record_opt(native_id, values)
            .unwrap_or_else(|| panic!("duplicate native id {native_id:?}"))
    }

    /// [`push_record_opt`](Self::push_record_opt) for untrusted input:
    /// `None`, with the dataset unchanged, if the native id was already
    /// used.
    ///
    /// # Panics
    /// Panics if the value count does not match the schema width.
    pub fn try_push_record_opt(
        &mut self,
        native_id: &str,
        values: Vec<Option<String>>,
    ) -> Option<RecordId> {
        assert_eq!(
            values.len(),
            self.schema.len(),
            "record width {} does not match schema width {}",
            values.len(),
            self.schema.len()
        );
        let id = self.native_ids.try_push(native_id)?;
        self.records.push(Record::new(values));
        Some(id)
    }

    /// Returns the record with the given id.
    pub fn record(&self, id: RecordId) -> &Record {
        &self.records[id.index()]
    }

    /// Returns the record with the given id, or `None` if out of range.
    pub fn get(&self, id: RecordId) -> Option<&Record> {
        self.records.get(id.index())
    }

    /// All records in id order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Iterates over `(RecordId, &Record)`.
    pub fn iter(&self) -> impl Iterator<Item = (RecordId, &Record)> {
        self.records
            .iter()
            .enumerate()
            .map(|(i, r)| (RecordId(i as u32), r))
    }

    /// The native (import-time) identifier of a record.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn native_id(&self, id: RecordId) -> &str {
        self.native_ids.get(id)
    }

    /// Resolves a native identifier to its dense [`RecordId`].
    pub fn resolve_native(&self, native_id: &str) -> Option<RecordId> {
        self.native_ids.find(native_id)
    }

    /// Value of attribute `attr` for record `id` (None when missing or when
    /// the attribute does not exist).
    pub fn value(&self, id: RecordId, attr: &str) -> Option<&str> {
        let col = self.schema.index_of(attr)?;
        self.records[id.index()].value(col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut ds = Dataset::new("t", Schema::new(["name", "city"]));
        ds.push_record("r1", ["Ann", "Berlin"]);
        ds.push_record_opt("r2", vec![Some("Bob".into()), None]);
        ds
    }

    #[test]
    fn push_and_lookup() {
        let ds = sample();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.name(), "t");
        let r1 = ds.resolve_native("r1").unwrap();
        assert_eq!(ds.native_id(r1), "r1");
        assert_eq!(ds.value(r1, "name"), Some("Ann"));
        assert_eq!(ds.value(r1, "city"), Some("Berlin"));
        let r2 = ds.resolve_native("r2").unwrap();
        assert_eq!(ds.value(r2, "city"), None);
        assert_eq!(ds.value(r2, "nope"), None);
    }

    #[test]
    fn pair_count_formula() {
        let ds = sample();
        assert_eq!(ds.pair_count(), 1);
        let empty = Dataset::new("e", Schema::new(["a"]));
        assert_eq!(empty.pair_count(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "width")]
    fn wrong_width_panics() {
        let mut ds = sample();
        ds.push_record("r3", ["only-one"]);
    }

    #[test]
    #[should_panic(expected = "duplicate native id")]
    fn duplicate_native_id_panics() {
        let mut ds = sample();
        ds.push_record("r1", ["X", "Y"]);
    }

    #[test]
    fn try_push_refuses_a_duplicate_native_id_and_changes_nothing() {
        let mut ds = sample();
        let before = ds.clone();
        assert_eq!(ds.try_push_record_opt("r1", vec![None, None]), None);
        assert_eq!(ds, before);
        let id = ds.try_push_record_opt("r3", vec![Some("Cy".into()), None]);
        assert_eq!(id, Some(RecordId(before.len() as u32)));
        assert_eq!(ds.resolve_native("r3"), id);
        assert_eq!(ds.try_push_record_opt("r3", vec![None, None]), None);
    }

    #[test]
    fn native_ids_that_prefix_each_other_stay_distinct() {
        let mut ds = Dataset::new("t", Schema::new(["a"]));
        let ids: Vec<RecordId> = ["r1", "r12", "r", "r123", "1"]
            .iter()
            .map(|n| ds.push_record(*n, ["v"]))
            .collect();
        for (native, id) in ["r1", "r12", "r", "r123", "1"].iter().zip(&ids) {
            assert_eq!(ds.resolve_native(native), Some(*id));
            assert_eq!(ds.native_id(*id), *native);
        }
        assert_eq!(ds.resolve_native("r2"), None);
        assert_eq!(ds.resolve_native("r1234"), None);
    }

    #[test]
    fn empty_and_non_ascii_native_ids() {
        let mut ds = Dataset::new("t", Schema::new(["a"]));
        let empty = ds.push_record("", ["v"]);
        let umlaut = ds.push_record("Müller-Ø", ["v"]);
        let cjk = ds.push_record("東京/7", ["v"]);
        assert_eq!(ds.resolve_native(""), Some(empty));
        assert_eq!(ds.resolve_native("Müller-Ø"), Some(umlaut));
        assert_eq!(ds.resolve_native("東京/7"), Some(cjk));
        assert_eq!(ds.native_id(empty), "");
        assert_eq!(ds.native_id(cjk), "東京/7");
        assert_eq!(ds.resolve_native("Muller-Ø"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate native id \"\"")]
    fn duplicate_empty_native_id_panics() {
        let mut ds = Dataset::new("t", Schema::new(["a"]));
        ds.push_record("", ["v"]);
        ds.push_record("", ["w"]);
    }

    #[test]
    fn native_index_survives_table_growth() {
        // No capacity hint: the table starts at its minimum and is
        // rebuilt several times on the way to 5 000 ids.
        let mut ds = Dataset::new("t", Schema::new(["a"]));
        for i in 0..5_000u32 {
            assert_eq!(ds.push_record(format!("id-{i}"), ["v"]), RecordId(i));
        }
        for i in (0..5_000u32).rev() {
            let native = format!("id-{i}");
            assert_eq!(ds.resolve_native(&native), Some(RecordId(i)));
            assert_eq!(ds.native_id(RecordId(i)), native);
        }
        assert_eq!(ds.resolve_native("id-5000"), None);
        // A clone keeps its own copy of the arena and index.
        let copy = ds.clone();
        assert_eq!(copy.resolve_native("id-4321"), Some(RecordId(4321)));
    }

    #[test]
    fn iter_yields_ids_in_order() {
        let ds = sample();
        let ids: Vec<u32> = ds.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
