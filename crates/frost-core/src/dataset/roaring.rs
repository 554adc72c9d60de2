//! Two-level roaring pair sets — the sparse-optimized third engine.
//!
//! [`RoaringPairSet`] applies the *exact* roaring-bitmap layout of
//! Chambi et al. to the packed `(lo << 32) | hi` pair key space: the
//! chunk key is the **high 48 bits** (`packed >> 16`) and each chunk
//! stores only the low 16 bits of its members, as one of two container
//! kinds:
//!
//! * **Array container** — the chunk's low halves as a sorted run of
//!   `u16`s, 2 bytes per pair, used while the chunk holds at most
//!   [`ARRAY_MAX`] = 4096 elements.
//! * **Bitmap container** — a fixed 1024-word (8 KiB) `u64` bitmap
//!   spanning the chunk's full 2¹⁶-value universe, used above 4096
//!   elements. 4096 is roaring's break-even constant: a full `u16`
//!   array of 4096 elements is exactly 8 KiB.
//!
//! Because every container spans exactly 2¹⁶ values, the
//! sparse-but-wide pathology of the single-level
//! [`ChunkedPairSet`](super::chunked::ChunkedPairSet) (whose chunks
//! span the full 32-bit `hi` range and need an explicit
//! `bitmap_wins` size guard) cannot occur: the representation is a
//! pure function of each chunk's cardinality — bitmap iff
//! `card > ARRAY_MAX` — and results of shrinking operations demote
//! back to arrays, so equal sets are structurally equal.
//!
//! # Arena layout
//!
//! The directory is three parallel, tightly packed vectors rather than
//! per-chunk boxed containers:
//!
//! ```text
//! index[i]   = (chunk_key << 16) | (cardinality − 1)   // 8 B/chunk
//! offsets[i] = start of chunk i's storage               // 4 B/chunk
//! elems      = all array containers, concatenated (u16)
//! words      = all bitmap containers, 1024 words each   (u64)
//! ```
//!
//! Embedding the cardinality in the index word (a container holds
//! 1..=65536 elements, so `card − 1` fits 16 bits) keeps the
//! per-chunk directory at 12 bytes — versus 28 for the single-level
//! engine's boxed containers — which is what halves sparse bytes/pair:
//! a uniformly sparse experiment with ~40 pairs per chunk costs
//! `12/40 + 2 ≈ 2.3` bytes/pair against 4.66 single-level chunked and
//! 8.0 packed.
//!
//! # Kernels
//!
//! Binary operations align the two directories with a linear merge
//! over the 48-bit keys and dispatch per aligned chunk:
//!
//! * **bitmap × bitmap** — the word-at-a-time AND/OR/ANDNOT kernels of
//!   the [`chunked`](super::chunked) module, over fixed 1024-word
//!   slices (a multiple of the 8-word unroll, so the vectorized loops
//!   run tail-free).
//! * **array × array** — the bidirectional two-lane merge shared with
//!   [`PairSet`] (`intersect_into`, generic over the
//!   element width), switching to galloping at the shared
//!   [`GALLOP_RATIO`](super::pairset::GALLOP_RATIO); `intersection_len`
//!   runs the same kernel with counters — allocation-free.
//! * **array × bitmap** — per-element bitmap probe (one word load and
//!   mask test each; low halves always index within the 1024 words).
//!
//! `venn_regions` aligns all k directories once and, whenever any
//! aligned container is a bitmap, sweeps the chunk's 1024 windows
//! word-at-a-time (arrays are rasterized into the same windows on the
//! fly); all-array chunks run a scalar k-way `u16` merge.

use super::chunked::{words, ARRAY_MAX};
use super::pairset::intersect_into;
use super::{PairSet, RecordId, RecordPair, MAX_VENN_SETS};
use std::fmt;

/// Words per bitmap container: 2¹⁶ values / 64 bits.
pub const BITMAP_WORDS: usize = 1 << 10;

/// Low bits stored inside a container; the chunk key is `packed >> 16`.
const LOW_BITS: u32 = 16;

/// Mask of the cardinality field embedded in an index word.
const CARD_MASK: u64 = (1 << LOW_BITS) - 1;

#[inline]
fn pack(p: RecordPair) -> u64 {
    ((p.lo().0 as u64) << 32) | p.hi().0 as u64
}

/// One chunk's storage, viewed in place.
#[derive(Debug, Clone, Copy)]
enum Cont<'a> {
    /// Sorted, deduplicated low halves.
    Array(&'a [u16]),
    /// Exactly [`BITMAP_WORDS`] words; bit `v` set ⇔ low half `v`
    /// present.
    Bitmap(&'a [u64]),
}

impl<'a> Cont<'a> {
    fn for_each(self, mut f: impl FnMut(u16)) {
        match self {
            Cont::Array(v) => v.iter().for_each(|&x| f(x)),
            Cont::Bitmap(w) => {
                for (i, &word) in w.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let b = bits.trailing_zeros();
                        f((i as u32 * 64 + b) as u16);
                        bits &= bits - 1;
                    }
                }
            }
        }
    }

    fn contains(self, low: u16) -> bool {
        match self {
            Cont::Array(v) => v.binary_search(&low).is_ok(),
            Cont::Bitmap(w) => w[(low >> 6) as usize] & (1u64 << (low & 63)) != 0,
        }
    }
}

/// Appends chunks in key order, canonicalizing each one; `finish`
/// applies the shared merge-output shrink policy to all four arenas.
#[derive(Default)]
struct Builder {
    index: Vec<u64>,
    offsets: Vec<u32>,
    elems: Vec<u16>,
    words: Vec<u64>,
}

impl Builder {
    fn with_capacity(chunks: usize, elems: usize, bitmap_chunks: usize) -> Self {
        Self {
            index: Vec::with_capacity(chunks),
            offsets: Vec::with_capacity(chunks),
            elems: Vec::with_capacity(elems),
            words: Vec::with_capacity(bitmap_chunks * BITMAP_WORDS),
        }
    }

    /// Pushes an array chunk (`vals` sorted, `1..=ARRAY_MAX` long).
    fn push_array(&mut self, key: u64, vals: &[u16]) {
        debug_assert!(!vals.is_empty() && vals.len() <= ARRAY_MAX);
        self.index.push((key << LOW_BITS) | (vals.len() - 1) as u64);
        self.offsets
            .push(u32::try_from(self.elems.len()).expect("elems arena exceeds u32 offsets"));
        self.elems.extend_from_slice(vals);
    }

    /// Pushes a bitmap chunk verbatim (`card` must exceed `ARRAY_MAX`).
    fn push_bitmap(&mut self, key: u64, w: &[u64], card: usize) {
        debug_assert_eq!(w.len(), BITMAP_WORDS);
        debug_assert!(card > ARRAY_MAX);
        self.index.push((key << LOW_BITS) | (card - 1) as u64);
        self.offsets
            .push(u32::try_from(self.words.len()).expect("words arena exceeds u32 offsets"));
        self.words.extend_from_slice(w);
    }

    /// Canonicalizing push of raw bitmap words: skipped when empty,
    /// demoted to an array at or below the threshold.
    fn push_words(&mut self, key: u64, w: &[u64], card: usize) {
        if card == 0 {
            return;
        }
        if card > ARRAY_MAX {
            self.push_bitmap(key, w, card);
            return;
        }
        self.index.push((key << LOW_BITS) | (card - 1) as u64);
        self.offsets
            .push(u32::try_from(self.elems.len()).expect("elems arena exceeds u32 offsets"));
        for (i, &word) in w.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros();
                self.elems.push((i as u32 * 64 + b) as u16);
                bits &= bits - 1;
            }
        }
    }

    /// Canonicalizing push of sorted values: promoted to a bitmap above
    /// the threshold.
    fn push_vals(&mut self, key: u64, vals: &[u16]) {
        if vals.is_empty() {
            return;
        }
        if vals.len() <= ARRAY_MAX {
            self.push_array(key, vals);
            return;
        }
        self.index.push((key << LOW_BITS) | (vals.len() - 1) as u64);
        self.offsets
            .push(u32::try_from(self.words.len()).expect("words arena exceeds u32 offsets"));
        let start = self.words.len();
        self.words.resize(start + BITMAP_WORDS, 0);
        let w = &mut self.words[start..];
        for &v in vals {
            w[(v >> 6) as usize] |= 1u64 << (v & 63);
        }
    }

    /// Copies chunk `i` of `src` unchanged (it is already canonical).
    fn copy_chunk(&mut self, src: &RoaringPairSet, i: usize) {
        match src.cont(i) {
            Cont::Array(v) => self.push_array(src.key(i), v),
            Cont::Bitmap(w) => self.push_bitmap(src.key(i), w, src.card(i)),
        }
    }

    /// Start of a chunk whose elements the caller appends *directly*
    /// to the `elems` arena — the zero-copy path of the array×array
    /// kernels; seal with [`commit_elems`](Self::commit_elems).
    fn elems_mark(&self) -> usize {
        self.elems.len()
    }

    /// Seals a chunk appended after [`elems_mark`](Self::elems_mark):
    /// dropped when empty, promoted to a bitmap above the threshold
    /// (then the appended values are rasterized and rolled back).
    fn commit_elems(&mut self, key: u64, start: usize) {
        let count = self.elems.len() - start;
        if count == 0 {
            return;
        }
        if count <= ARRAY_MAX {
            self.index.push((key << LOW_BITS) | (count - 1) as u64);
            self.offsets
                .push(u32::try_from(start).expect("elems arena exceeds u32 offsets"));
            return;
        }
        let woff = self.words.len();
        self.words.resize(woff + BITMAP_WORDS, 0);
        let w = &mut self.words[woff..];
        for &v in &self.elems[start..] {
            w[(v >> 6) as usize] |= 1u64 << (v & 63);
        }
        self.elems.truncate(start);
        self.index.push((key << LOW_BITS) | (count - 1) as u64);
        self.offsets
            .push(u32::try_from(woff).expect("words arena exceeds u32 offsets"));
    }

    fn finish(mut self) -> RoaringPairSet {
        super::pairset::shrink_merge_output(&mut self.index);
        super::pairset::shrink_merge_output(&mut self.offsets);
        super::pairset::shrink_merge_output(&mut self.elems);
        super::pairset::shrink_merge_output(&mut self.words);
        RoaringPairSet {
            index: self.index,
            offsets: self.offsets,
            elems: self.elems,
            words: self.words,
        }
    }
}

/// A set of [`RecordPair`]s in the two-level roaring layout described
/// in the [module docs](self).
///
/// Mirrors the [`PairSet`] API (`union` / `intersection` / `difference`
/// / `intersection_len` / `contains` / `iter` / `from_sorted_packed` /
/// `FromIterator`) and implements
/// [`PairAlgebra`](super::PairAlgebra), so every evaluation layer can
/// run on any of the three engines.
///
/// The representation is canonical (tightly packed arenas in key
/// order, container kind a pure function of chunk cardinality), so the
/// derived structural equality is set equality.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoaringPairSet {
    /// `(chunk_key << 16) | (cardinality − 1)`, strictly ascending by
    /// chunk key (and therefore as raw `u64`s).
    index: Vec<u64>,
    /// Chunk `i`'s start in `elems` (array chunks) or `words` (bitmap
    /// chunks), in storage units of the respective arena.
    offsets: Vec<u32>,
    /// All array containers, concatenated in chunk order.
    elems: Vec<u16>,
    /// All bitmap containers ([`BITMAP_WORDS`] each), in chunk order.
    words: Vec<u64>,
}

impl RoaringPairSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn key(&self, i: usize) -> u64 {
        self.index[i] >> LOW_BITS
    }

    #[inline]
    fn card(&self, i: usize) -> usize {
        (self.index[i] & CARD_MASK) as usize + 1
    }

    #[inline]
    fn cont(&self, i: usize) -> Cont<'_> {
        let card = self.card(i);
        let off = self.offsets[i] as usize;
        if card > ARRAY_MAX {
            Cont::Bitmap(&self.words[off..off + BITMAP_WORDS])
        } else {
            Cont::Array(&self.elems[off..off + card])
        }
    }

    /// Builds a set from packed values that are already sorted and
    /// deduplicated — the same contract as [`PairSet::from_sorted_packed`].
    pub fn from_sorted_packed(packed: Vec<u64>) -> Self {
        debug_assert!(packed.windows(2).all(|w| w[0] < w[1]), "not sorted/deduped");
        // Pre-scan the runs so all four arenas are allocated exactly —
        // with many small chunks, doubling slack would dominate the
        // footprint that this engine exists to shrink.
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let mut i = 0usize;
        while i < packed.len() {
            let key = packed[i] >> LOW_BITS;
            let mut j = i + 1;
            while j < packed.len() && packed[j] >> LOW_BITS == key {
                j += 1;
            }
            runs.push((i, j));
            i = j;
        }
        let array_elems: usize = runs
            .iter()
            .map(|&(a, b)| b - a)
            .filter(|&n| n <= ARRAY_MAX)
            .sum();
        let bitmap_chunks = runs.iter().filter(|&&(a, b)| b - a > ARRAY_MAX).count();
        let mut out = Builder::with_capacity(runs.len(), array_elems, bitmap_chunks);
        let mut vals: Vec<u16> = Vec::new();
        for (a, b) in runs {
            let key = packed[a] >> LOW_BITS;
            vals.clear();
            vals.extend(packed[a..b].iter().map(|&x| (x & CARD_MASK) as u16));
            out.push_vals(key, &vals);
        }
        out.finish()
    }

    /// Builds a set from a packed [`PairSet`].
    pub fn from_pair_set(set: &PairSet) -> Self {
        Self::from_sorted_packed(set.as_packed().to_vec())
    }

    /// Converts back to the packed representation.
    pub fn to_pair_set(&self) -> PairSet {
        let mut packed = Vec::with_capacity(self.len());
        self.for_each_packed(|x| packed.push(x));
        PairSet::from_sorted_packed(packed)
    }

    /// Number of pairs (sum of the cardinalities embedded in the
    /// directory — no container is touched).
    pub fn len(&self) -> usize {
        self.index
            .iter()
            .map(|&e| (e & CARD_MASK) as usize + 1)
            .sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of chunks (distinct 48-bit chunk keys).
    pub fn chunk_count(&self) -> usize {
        self.index.len()
    }

    /// Number of chunks stored as bitmap containers.
    pub fn bitmap_chunk_count(&self) -> usize {
        self.index
            .iter()
            .filter(|&&e| (e & CARD_MASK) as usize + 1 > ARRAY_MAX)
            .count()
    }

    /// Bytes of heap memory held by the directory and both arenas.
    pub fn heap_bytes(&self) -> usize {
        self.index.capacity() * std::mem::size_of::<u64>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.elems.capacity() * std::mem::size_of::<u16>()
            + self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Membership test: binary-search the directory by chunk key, then
    /// probe the container (`O(log chunks + log |chunk|)`, constant
    /// probe for bitmap chunks).
    pub fn contains(&self, pair: &RecordPair) -> bool {
        let packed = pack(*pair);
        let key = packed >> LOW_BITS;
        let at = self.index.partition_point(|&e| (e >> LOW_BITS) < key);
        at < self.index.len()
            && self.key(at) == key
            && self.cont(at).contains((packed & CARD_MASK) as u16)
    }

    /// Calls `f` with every packed pair value in ascending order.
    pub fn for_each_packed(&self, mut f: impl FnMut(u64)) {
        for i in 0..self.index.len() {
            let base = self.key(i) << LOW_BITS;
            self.cont(i).for_each(|low| f(base | low as u64));
        }
    }

    /// Iterates the pairs in ascending `(lo, hi)` order.
    pub fn iter(&self) -> impl Iterator<Item = RecordPair> + '_ {
        (0..self.index.len()).flat_map(move |i| {
            let base = self.key(i) << LOW_BITS;
            let mut vals = Vec::with_capacity(self.card(i));
            self.cont(i).for_each(|low| vals.push(base | low as u64));
            vals.into_iter()
                .map(|x| RecordPair::new(RecordId((x >> 32) as u32), RecordId(x as u32)))
        })
    }

    /// `self ∪ other`: directory merge, container kernels per aligned
    /// chunk. A union containing any bitmap operand stays a bitmap
    /// (cardinality only grows), so the OR kernel's output is pushed
    /// without a demotion check.
    pub fn union(&self, other: &RoaringPairSet) -> RoaringPairSet {
        let mut out = Builder::with_capacity(
            self.index.len() + other.index.len(),
            self.elems.len() + other.elems.len(),
            self.words.len() / BITMAP_WORDS + other.words.len() / BITMAP_WORDS,
        );
        let mut scratch_w: Vec<u64> = Vec::new();
        merge_dirs(self, other, |key, a, b| match (a, b) {
            (Some(i), Some(j)) => match (self.cont(i), other.cont(j)) {
                (Cont::Bitmap(wa), Cont::Bitmap(wb)) => {
                    words::or(wa, wb, &mut scratch_w);
                    let card = popcount(&scratch_w);
                    out.push_bitmap(key, &scratch_w, card);
                }
                (Cont::Array(v), Cont::Bitmap(w)) | (Cont::Bitmap(w), Cont::Array(v)) => {
                    scratch_w.clear();
                    scratch_w.extend_from_slice(w);
                    let mut card = popcount(&scratch_w);
                    for &low in v {
                        let (wi, bit) = ((low >> 6) as usize, 1u64 << (low & 63));
                        card += usize::from(scratch_w[wi] & bit == 0);
                        scratch_w[wi] |= bit;
                    }
                    out.push_bitmap(key, &scratch_w, card);
                }
                (Cont::Array(va), Cont::Array(vb)) => {
                    // Merged directly into the output arena (no
                    // scratch + copy); min-push advancement keeps the
                    // loop branch-light.
                    let start = out.elems_mark();
                    out.elems.reserve(va.len() + vb.len());
                    let (mut x, mut y) = (0usize, 0usize);
                    while x < va.len() && y < vb.len() {
                        let (vx, vy) = (va[x], vb[y]);
                        out.elems.push(if vx <= vy { vx } else { vy });
                        x += usize::from(vx <= vy);
                        y += usize::from(vy <= vx);
                    }
                    out.elems.extend_from_slice(&va[x..]);
                    out.elems.extend_from_slice(&vb[y..]);
                    out.commit_elems(key, start);
                }
            },
            (Some(i), None) => out.copy_chunk(self, i),
            (None, Some(j)) => out.copy_chunk(other, j),
            (None, None) => unreachable!(),
        });
        out.finish()
    }

    /// `self ∩ other`: only chunks present in both directories are
    /// touched; shrinking results demote to arrays.
    pub fn intersection(&self, other: &RoaringPairSet) -> RoaringPairSet {
        let mut out = Builder::default();
        let mut scratch_w: Vec<u64> = Vec::new();
        let mut back: Vec<u16> = Vec::new();
        merge_dirs(self, other, |key, a, b| {
            let (Some(i), Some(j)) = (a, b) else { return };
            match (self.cont(i), other.cont(j)) {
                (Cont::Bitmap(wa), Cont::Bitmap(wb)) => {
                    words::and(wa, wb, &mut scratch_w);
                    let card = popcount(&scratch_w);
                    out.push_words(key, &scratch_w, card);
                }
                (Cont::Array(v), Cont::Bitmap(w)) | (Cont::Bitmap(w), Cont::Array(v)) => {
                    let start = out.elems_mark();
                    out.elems.extend(
                        v.iter()
                            .copied()
                            .filter(|&low| w[(low >> 6) as usize] & (1u64 << (low & 63)) != 0),
                    );
                    out.commit_elems(key, start);
                }
                (Cont::Array(va), Cont::Array(vb)) => {
                    // Forward lane straight into the output arena; the
                    // (short) backward lane lands in scratch and is
                    // appended reversed. Results never promote (≤ the
                    // smaller array's length).
                    let start = out.elems_mark();
                    back.clear();
                    intersect_into(va, vb, |x| out.elems.push(x), |x| back.push(x));
                    out.elems.extend(back.iter().rev());
                    out.commit_elems(key, start);
                }
            }
        });
        out.finish()
    }

    /// `|self ∩ other|` without materializing — popcount kernels on
    /// bitmap chunks, the counting two-lane merge on array chunks.
    /// Allocation-free on every path.
    pub fn intersection_len(&self, other: &RoaringPairSet) -> usize {
        let mut n = 0usize;
        merge_dirs(self, other, |_, a, b| {
            let (Some(i), Some(j)) = (a, b) else { return };
            n += match (self.cont(i), other.cont(j)) {
                (Cont::Bitmap(wa), Cont::Bitmap(wb)) => words::and_count(wa, wb),
                (Cont::Array(v), Cont::Bitmap(w)) | (Cont::Bitmap(w), Cont::Array(v)) => v
                    .iter()
                    .filter(|&&low| w[(low >> 6) as usize] & (1u64 << (low & 63)) != 0)
                    .count(),
                (Cont::Array(va), Cont::Array(vb)) => {
                    let (mut fwd, mut back) = (0usize, 0usize);
                    intersect_into(va, vb, |_| fwd += 1, |_| back += 1);
                    fwd + back
                }
            };
        });
        n
    }

    /// `self \ other`.
    pub fn difference(&self, other: &RoaringPairSet) -> RoaringPairSet {
        let mut out = Builder::default();
        let mut scratch_w: Vec<u64> = Vec::new();
        merge_dirs(self, other, |key, a, b| match (a, b) {
            (Some(i), Some(j)) => match (self.cont(i), other.cont(j)) {
                (Cont::Bitmap(wa), Cont::Bitmap(wb)) => {
                    words::andnot(wa, wb, &mut scratch_w);
                    let card = popcount(&scratch_w);
                    out.push_words(key, &scratch_w, card);
                }
                (Cont::Array(v), Cont::Bitmap(w)) => {
                    let start = out.elems_mark();
                    out.elems.extend(
                        v.iter()
                            .copied()
                            .filter(|&low| w[(low >> 6) as usize] & (1u64 << (low & 63)) == 0),
                    );
                    out.commit_elems(key, start);
                }
                (Cont::Bitmap(w), Cont::Array(v)) => {
                    scratch_w.clear();
                    scratch_w.extend_from_slice(w);
                    let mut card = self.card(i);
                    for &low in v {
                        let (wi, bit) = ((low >> 6) as usize, 1u64 << (low & 63));
                        card -= usize::from(scratch_w[wi] & bit != 0);
                        scratch_w[wi] &= !bit;
                    }
                    out.push_words(key, &scratch_w, card);
                }
                (Cont::Array(va), Cont::Array(vb)) => {
                    let start = out.elems_mark();
                    let mut y = 0usize;
                    for &x in va {
                        while y < vb.len() && vb[y] < x {
                            y += 1;
                        }
                        if y >= vb.len() || vb[y] != x {
                            out.elems.push(x);
                        }
                    }
                    out.commit_elems(key, start);
                }
            },
            (Some(i), None) => out.copy_chunk(self, i),
            _ => {}
        });
        out.finish()
    }

    /// `|self \ other|` without materializing.
    pub fn difference_len(&self, other: &RoaringPairSet) -> usize {
        self.len() - self.intersection_len(other)
    }

    /// Whether every pair of `self` is in `other`.
    pub fn is_subset(&self, other: &RoaringPairSet) -> bool {
        self.intersection_len(other) == self.len()
    }

    /// Whether the sets share no pair.
    pub fn is_disjoint(&self, other: &RoaringPairSet) -> bool {
        self.intersection_len(other) == 0
    }

    /// The four raw arenas — `(index, offsets, elems, words)` — in the
    /// layout described in the [module docs](self). This is the
    /// serialization hook of the `FROSTB` snapshot format: the
    /// directory and both storage arenas are written out
    /// varint/delta-encoded and reloaded through
    /// [`from_arenas`](Self::from_arenas) with no re-packing.
    pub fn arenas(&self) -> (&[u64], &[u32], &[u16], &[u64]) {
        (&self.index, &self.offsets, &self.elems, &self.words)
    }

    /// Rebuilds a set from raw arenas (the deserialization hook paired
    /// with [`arenas`](Self::arenas)), validating every structural
    /// invariant the kernels rely on: strictly ascending chunk keys,
    /// tightly packed offsets in chunk order, strictly ascending array
    /// containers, canonical container kinds and bitmap cardinalities
    /// that match their popcount. One linear pass over the arenas —
    /// cheap next to the I/O that produced them.
    pub fn from_arenas(
        index: Vec<u64>,
        offsets: Vec<u32>,
        elems: Vec<u16>,
        words: Vec<u64>,
    ) -> Result<Self, String> {
        if offsets.len() != index.len() {
            return Err(format!(
                "directory mismatch: {} index entries, {} offsets",
                index.len(),
                offsets.len()
            ));
        }
        let (mut elems_run, mut words_run) = (0usize, 0usize);
        for (i, &entry) in index.iter().enumerate() {
            let key = entry >> LOW_BITS;
            if i > 0 && index[i - 1] >> LOW_BITS >= key {
                return Err(format!("chunk keys not strictly ascending at chunk {i}"));
            }
            let card = (entry & CARD_MASK) as usize + 1;
            let off = offsets[i] as usize;
            if card > ARRAY_MAX {
                if off != words_run {
                    return Err(format!("bitmap chunk {i} not tightly packed"));
                }
                let end = words_run + BITMAP_WORDS;
                if end > words.len() {
                    return Err(format!("bitmap chunk {i} exceeds the words arena"));
                }
                if popcount(&words[words_run..end]) != card {
                    return Err(format!("bitmap chunk {i} cardinality mismatch"));
                }
                words_run = end;
            } else {
                if off != elems_run {
                    return Err(format!("array chunk {i} not tightly packed"));
                }
                let end = elems_run + card;
                if end > elems.len() {
                    return Err(format!("array chunk {i} exceeds the elems arena"));
                }
                let vals = &elems[elems_run..end];
                if vals.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(format!("array chunk {i} not strictly ascending"));
                }
                elems_run = end;
            }
        }
        if elems_run != elems.len() || words_run != words.len() {
            return Err(format!(
                "trailing arena bytes: {} elems, {} words unused",
                elems.len() - elems_run,
                words.len() - words_run
            ));
        }
        Ok(Self {
            index,
            offsets,
            elems,
            words,
        })
    }

    /// Inserts a pair; returns `true` if it was new.
    ///
    /// The arena layout has no slack to absorb point updates, so a
    /// fresh insert rebuilds the set from its packed stream — `O(n)`
    /// per call, the same bound as [`PairSet::insert`]'s element
    /// shift but with a larger constant. Meant for incremental
    /// construction of small sets; bulk construction via
    /// [`FromIterator`] stays `O(n log n)` total.
    pub fn insert(&mut self, pair: RecordPair) -> bool {
        if self.contains(&pair) {
            return false;
        }
        let mut packed = Vec::with_capacity(self.len() + 1);
        self.for_each_packed(|x| packed.push(x));
        let key = pack(pair);
        let at = packed.partition_point(|&x| x < key);
        packed.insert(at, key);
        *self = Self::from_sorted_packed(packed);
        true
    }
}

#[inline]
fn popcount(w: &[u64]) -> usize {
    w.iter().map(|x| x.count_ones() as usize).sum()
}

/// Aligns two chunk directories by 48-bit key (linear merge) and calls
/// `f` once per live key with the chunk indices present on each side.
fn merge_dirs(
    a: &RoaringPairSet,
    b: &RoaringPairSet,
    mut f: impl FnMut(u64, Option<usize>, Option<usize>),
) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.index.len() && j < b.index.len() {
        match a.key(i).cmp(&b.key(j)) {
            std::cmp::Ordering::Less => {
                f(a.key(i), Some(i), None);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                f(b.key(j), None, Some(j));
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                f(a.key(i), Some(i), Some(j));
                i += 1;
                j += 1;
            }
        }
    }
    while i < a.index.len() {
        f(a.key(i), Some(i), None);
        i += 1;
    }
    while j < b.index.len() {
        f(b.key(j), None, Some(j));
        j += 1;
    }
}

/// Streams the k-way merge of `sets`: for every distinct pair, in
/// ascending packed order, calls `emit(packed, mask)` where bit `i` of
/// `mask` is set iff `sets[i]` contains the pair — the roaring engine
/// under [`venn_regions`](crate::explore::setops::venn_regions).
///
/// Directories are aligned once over the 48-bit keys. Within an
/// aligned chunk the sweep runs word-at-a-time over the 1024 windows
/// whenever any participant stores a bitmap (arrays are rasterized
/// into the same windows via per-set cursors — and every low half
/// indexes within the bitmap extent, so no scalar tail exists), and as
/// a scalar k-way `u16` merge when all participants are arrays.
pub(crate) fn kway_merge_masks_roaring(sets: &[&RoaringPairSet], mut emit: impl FnMut(u64, u32)) {
    assert!(
        sets.len() <= MAX_VENN_SETS,
        "at most {MAX_VENN_SETS} sets supported"
    );
    let mut cursors = vec![0usize; sets.len()];
    // Scratch buffers hoisted out of the per-chunk loop: sparse sets
    // have one chunk per handful of pairs, so per-chunk allocation
    // would dominate the merge.
    let mut present: Vec<(usize, Cont<'_>)> = Vec::with_capacity(sets.len());
    let mut array_pos: Vec<usize> = Vec::with_capacity(sets.len());
    loop {
        // Next live chunk key across all sets.
        let mut key: Option<u64> = None;
        for (s, &c) in sets.iter().zip(&cursors) {
            if c < s.index.len() {
                let k = s.key(c);
                key = Some(key.map_or(k, |m| m.min(k)));
            }
        }
        let Some(chunk_key) = key else { break };
        present.clear();
        for (idx, (s, c)) in sets.iter().zip(&mut cursors).enumerate() {
            if *c < s.index.len() && s.key(*c) == chunk_key {
                present.push((idx, s.cont(*c)));
                *c += 1;
            }
        }
        let base = chunk_key << LOW_BITS;
        if present.len() == 1 {
            let (idx, container) = present[0];
            container.for_each(|low| emit(base | low as u64, 1 << idx));
            continue;
        }
        if present.iter().any(|(_, c)| matches!(c, Cont::Bitmap(_))) {
            // Word-at-a-time membership sweep over the chunk's fixed
            // 1024-window extent.
            array_pos.clear();
            array_pos.resize(present.len(), 0);
            for w in 0..BITMAP_WORDS {
                let lo_val = (w as u64) * 64;
                let mut set_words = [0u64; 32];
                let mut any = 0u64;
                for (slot, (_, container)) in present.iter().enumerate() {
                    let word = match container {
                        Cont::Bitmap(words) => words[w],
                        Cont::Array(v) => {
                            let pos = &mut array_pos[slot];
                            let mut word = 0u64;
                            while *pos < v.len() && (v[*pos] as u64) < lo_val + 64 {
                                word |= 1u64 << (v[*pos] as u64 - lo_val);
                                *pos += 1;
                            }
                            word
                        }
                    };
                    set_words[slot] = word;
                    any |= word;
                }
                let mut bits = any;
                while bits != 0 {
                    let b = bits.trailing_zeros() as u64;
                    let probe = 1u64 << b;
                    let mut mask = 0u32;
                    for (slot, (idx, _)) in present.iter().enumerate() {
                        if set_words[slot] & probe != 0 {
                            mask |= 1 << idx;
                        }
                    }
                    emit(base | (lo_val + b), mask);
                    bits &= bits - 1;
                }
            }
        } else {
            // All-array chunk: merge the sorted u16 runs. Exhausted
            // cursors read as the u32::MAX sentinel (real values are
            // ≤ 65535), which keeps the 2- and 3-set fast paths —
            // virtually every chunk of a Venn comparison — free of
            // `Option` plumbing; larger k falls back to a min-scan.
            #[inline]
            fn at(v: &[u16], p: usize) -> u32 {
                v.get(p).map_or(u32::MAX, |&x| x as u32)
            }
            match present[..] {
                [(ia, Cont::Array(va)), (ib, Cont::Array(vb))] => {
                    let (mut i, mut j) = (0usize, 0usize);
                    loop {
                        let (x, y) = (at(va, i), at(vb, j));
                        let m = x.min(y);
                        if m == u32::MAX {
                            break;
                        }
                        let mask = (u32::from(x == m) << ia) | (u32::from(y == m) << ib);
                        emit(base | m as u64, mask);
                        i += usize::from(x == m);
                        j += usize::from(y == m);
                    }
                }
                [(ia, Cont::Array(va)), (ib, Cont::Array(vb)), (ic, Cont::Array(vc))] => {
                    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
                    loop {
                        let (x, y, z) = (at(va, i), at(vb, j), at(vc, k));
                        let m = x.min(y).min(z);
                        if m == u32::MAX {
                            break;
                        }
                        let mask = (u32::from(x == m) << ia)
                            | (u32::from(y == m) << ib)
                            | (u32::from(z == m) << ic);
                        emit(base | m as u64, mask);
                        i += usize::from(x == m);
                        j += usize::from(y == m);
                        k += usize::from(z == m);
                    }
                }
                _ => {
                    array_pos.clear();
                    array_pos.resize(present.len(), 0);
                    loop {
                        let mut min = u32::MAX;
                        for ((_, c), &p) in present.iter().zip(&array_pos) {
                            let Cont::Array(v) = c else { unreachable!() };
                            min = min.min(at(v, p));
                        }
                        if min == u32::MAX {
                            break;
                        }
                        let mut mask = 0u32;
                        for ((idx, c), p) in present.iter().zip(&mut array_pos) {
                            let Cont::Array(v) = c else { unreachable!() };
                            if at(v, *p) == min {
                                mask |= 1 << idx;
                                *p += 1;
                            }
                        }
                        emit(base | min as u64, mask);
                    }
                }
            }
        }
    }
}

impl FromIterator<RecordPair> for RoaringPairSet {
    fn from_iter<I: IntoIterator<Item = RecordPair>>(iter: I) -> Self {
        let mut packed: Vec<u64> = iter.into_iter().map(pack).collect();
        packed.sort_unstable();
        packed.dedup();
        Self::from_sorted_packed(packed)
    }
}

impl<'a> FromIterator<&'a RecordPair> for RoaringPairSet {
    fn from_iter<I: IntoIterator<Item = &'a RecordPair>>(iter: I) -> Self {
        iter.into_iter().copied().collect()
    }
}

impl fmt::Display for RoaringPairSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(pairs: &[(u32, u32)]) -> RoaringPairSet {
        pairs
            .iter()
            .map(|&(a, b)| RecordPair::from((a, b)))
            .collect()
    }

    /// A chunk with `count` partners of record 0 (all low halves in
    /// chunk key 0 while `count < 65536`).
    fn dense(count: u32) -> RoaringPairSet {
        (1..=count).map(|hi| RecordPair::from((0u32, hi))).collect()
    }

    #[test]
    fn construction_roundtrip() {
        let s = set(&[(3, 1), (0, 1), (1, 3), (0, 1), (0, 7)]);
        assert_eq!(s.len(), 3);
        let collected: Vec<RecordPair> = s.iter().collect();
        assert_eq!(
            collected,
            vec![
                RecordPair::from((0u32, 1u32)),
                RecordPair::from((0u32, 7u32)),
                RecordPair::from((1u32, 3u32)),
            ]
        );
        assert_eq!(s.to_pair_set().len(), 3);
        assert_eq!(RoaringPairSet::from_pair_set(&s.to_pair_set()), s);
    }

    #[test]
    fn promotion_boundary() {
        assert_eq!(dense(ARRAY_MAX as u32 - 1).bitmap_chunk_count(), 0);
        assert_eq!(dense(ARRAY_MAX as u32).bitmap_chunk_count(), 0);
        let promoted = dense(ARRAY_MAX as u32 + 1);
        assert_eq!(promoted.bitmap_chunk_count(), 1);
        assert_eq!(promoted.len(), ARRAY_MAX + 1);
    }

    #[test]
    fn key_split_boundaries() {
        // hi = 65535 and 65536 land in different containers of the
        // same lo: the chunk key is the packed value's high 48 bits.
        let s = set(&[(0, 65_535), (0, 65_536), (0, 65_537)]);
        assert_eq!(s.chunk_count(), 2);
        assert_eq!(s.len(), 3);
        assert!(s.contains(&RecordPair::from((0u32, 65_535u32))));
        assert!(s.contains(&RecordPair::from((0u32, 65_536u32))));
        assert!(!s.contains(&RecordPair::from((0u32, 65_538u32))));
        // A full-container chunk (cardinality 65536) round-trips: the
        // card − 1 field saturates the 16 embedded bits exactly.
        let full: RoaringPairSet = (0..65_536u32)
            .map(|hi| RecordPair::from((1u32, (2 << 16) + hi)))
            .collect();
        assert_eq!(full.chunk_count(), 1);
        assert_eq!(full.len(), 65_536);
        assert_eq!(full.bitmap_chunk_count(), 1);
        assert_eq!(full.to_pair_set().len(), 65_536);
    }

    #[test]
    fn demotion_on_shrinking_ops() {
        let big = dense(8192);
        let half: RoaringPairSet = (1..=8192u32)
            .filter(|hi| hi % 2 == 0)
            .map(|hi| RecordPair::from((0u32, hi)))
            .collect();
        assert_eq!(big.bitmap_chunk_count(), 1);
        let inter = big.intersection(&half);
        assert_eq!(inter.len(), 4096);
        assert_eq!(inter.bitmap_chunk_count(), 0, "≤ ARRAY_MAX must demote");
        let d = big.difference(&half);
        assert_eq!(d.len(), 4096);
        assert_eq!(d.bitmap_chunk_count(), 0);
    }

    #[test]
    fn set_algebra_small() {
        let a = set(&[(0, 1), (0, 2), (4, 5)]);
        let b = set(&[(0, 1), (2, 3)]);
        assert_eq!(a.union(&b), set(&[(0, 1), (0, 2), (2, 3), (4, 5)]));
        assert_eq!(a.intersection(&b), set(&[(0, 1)]));
        assert_eq!(a.difference(&b), set(&[(0, 2), (4, 5)]));
        assert_eq!(b.difference(&a), set(&[(2, 3)]));
        assert_eq!(a.intersection_len(&b), 1);
        assert_eq!(a.difference_len(&b), 2);
        assert!(set(&[(0, 1)]).is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(a.is_disjoint(&set(&[(7, 8)])));
    }

    #[test]
    fn mixed_container_kinds_agree_with_packed() {
        let big = dense(6000);
        let sparse = set(&[(0, 3), (0, 9000), (5, 6)]);
        let pb = big.to_pair_set();
        let ps = sparse.to_pair_set();
        assert_eq!(big.union(&sparse).to_pair_set(), pb.union(&ps));
        assert_eq!(
            big.intersection(&sparse).to_pair_set(),
            pb.intersection(&ps)
        );
        assert_eq!(big.difference(&sparse).to_pair_set(), pb.difference(&ps));
        assert_eq!(sparse.difference(&big).to_pair_set(), ps.difference(&pb));
        assert_eq!(big.intersection_len(&sparse), pb.intersection_len(&ps));
    }

    #[test]
    fn bitmap_bitmap_kernels() {
        let a = dense(7000);
        let b: RoaringPairSet = (3500..=10_500u32)
            .map(|hi| RecordPair::from((0u32, hi)))
            .collect();
        assert_eq!(a.intersection(&b).len(), 3501);
        assert_eq!(a.intersection_len(&b), 3501);
        assert_eq!(a.union(&b).len(), 10_500);
        assert_eq!(a.difference(&b).len(), 3499);
        assert_eq!(b.difference(&a).len(), 3500);
        assert_eq!(a.union(&b).bitmap_chunk_count(), 1);
    }

    #[test]
    fn contains_and_insert() {
        let mut s = set(&[(0, 1), (2, 3)]);
        assert!(s.contains(&RecordPair::from((1u32, 0u32))));
        assert!(!s.contains(&RecordPair::from((0u32, 2u32))));
        assert!(s.insert(RecordPair::from((0u32, 2u32))));
        assert!(!s.insert(RecordPair::from((0u32, 2u32))));
        assert_eq!(s.len(), 3);
        // Inserting across the promotion boundary.
        let mut d = dense(ARRAY_MAX as u32);
        assert_eq!(d.bitmap_chunk_count(), 0);
        assert!(d.insert(RecordPair::from((0u32, ARRAY_MAX as u32 + 1))));
        assert_eq!(d.bitmap_chunk_count(), 1);
        assert!(d.contains(&RecordPair::from((0u32, 1u32))));
        // Inserting far away opens a new chunk, leaving the bitmap.
        assert!(d.insert(RecordPair::from((0u32, 3_000_000_000u32))));
        assert!(d.contains(&RecordPair::from((0u32, 3_000_000_000u32))));
        assert_eq!(d.chunk_count(), 2);
        assert_eq!(d.bitmap_chunk_count(), 1);
    }

    #[test]
    fn empty_edge_cases() {
        let e = RoaringPairSet::new();
        let a = set(&[(0, 1)]);
        assert!(e.is_empty());
        assert_eq!(e.union(&a), a);
        assert_eq!(a.union(&e), a);
        assert_eq!(e.intersection(&a), e);
        assert_eq!(a.difference(&e), a);
        assert_eq!(e.difference(&a), e);
        assert!(e.is_subset(&a));
        assert!(e.is_disjoint(&a));
    }

    #[test]
    fn kway_masks_enumerate_memberships() {
        let (a, b) = (set(&[(0, 1), (0, 2)]), set(&[(0, 1), (2, 3)]));
        let mut seen = Vec::new();
        kway_merge_masks_roaring(&[&a, &b], |x, mask| seen.push((x, mask)));
        assert_eq!(seen, vec![(1, 0b11), (2, 0b01), (0x2_0000_0003, 0b10)]);
    }

    #[test]
    fn kway_masks_mixed_containers() {
        // One bitmap participant forces the word-sweep path; an array
        // element at the top of a container and one in a higher chunk
        // exercise the window boundaries.
        let big = dense(5000);
        let small = set(&[(0, 2), (0, 65_535), (0, 65_536), (3, 4)]);
        let mut got = Vec::new();
        kway_merge_masks_roaring(&[&big, &small], |x, m| got.push((x, m)));
        let mut expected = Vec::new();
        crate::dataset::pairset::kway_merge_masks(
            &[&big.to_pair_set(), &small.to_pair_set()],
            |x, m| expected.push((x, m)),
        );
        assert_eq!(got, expected);
    }

    #[test]
    fn extreme_hi_values_roundtrip() {
        let far = set(&[(0, u32::MAX), (0, 2), (5, u32::MAX - 1)]);
        assert_eq!(far.len(), 3);
        assert!(far.contains(&RecordPair::from((0u32, u32::MAX))));
        let mut got = Vec::new();
        kway_merge_masks_roaring(&[&far], |x, m| got.push((x, m)));
        assert_eq!(got.first(), Some(&(2u64, 0b1)));
        assert_eq!(got[1], (u32::MAX as u64, 0b1));
        assert_eq!(far.to_pair_set().iter().count(), 3);
    }

    #[test]
    fn arena_roundtrip_and_validation() {
        let s = {
            let mut all: Vec<RecordPair> = (1..=5000u32).map(|hi| (0u32, hi).into()).collect();
            all.extend([
                RecordPair::from((0u32, 70_000u32)),
                RecordPair::from((0u32, 70_001u32)),
                RecordPair::from((3u32, 4u32)),
            ]);
            all.into_iter().collect::<RoaringPairSet>()
        };
        let (index, offsets, elems, words) = s.arenas();
        let rebuilt = RoaringPairSet::from_arenas(
            index.to_vec(),
            offsets.to_vec(),
            elems.to_vec(),
            words.to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, s);

        // Each invariant violation is rejected.
        let (i0, o0, e0, w0) = (
            index.to_vec(),
            offsets.to_vec(),
            elems.to_vec(),
            words.to_vec(),
        );
        let mut bad = i0.clone();
        bad.swap(0, 1);
        assert!(
            RoaringPairSet::from_arenas(bad, o0.clone(), e0.clone(), w0.clone())
                .unwrap_err()
                .contains("ascending")
        );
        let mut bad = w0.clone();
        bad[0] ^= 1;
        assert!(
            RoaringPairSet::from_arenas(i0.clone(), o0.clone(), e0.clone(), bad)
                .unwrap_err()
                .contains("cardinality")
        );
        let mut bad = e0.clone();
        bad.push(9);
        assert!(
            RoaringPairSet::from_arenas(i0.clone(), o0.clone(), bad, w0.clone())
                .unwrap_err()
                .contains("trailing")
        );
        assert!(
            RoaringPairSet::from_arenas(i0.clone(), o0[..1].to_vec(), e0.clone(), w0.clone())
                .unwrap_err()
                .contains("directory mismatch")
        );
        let mut bad = e0.clone();
        if bad.len() >= 2 {
            bad.swap(0, 1);
        }
        assert!(RoaringPairSet::from_arenas(i0, o0, bad, w0).is_err());
    }

    #[test]
    fn heap_bytes_compress_sparse_and_dense() {
        // Dense: one 60k-pair lo fills chunk key 0 (bitmap, 8 KiB) —
        // far below the packed 8 B/pair.
        let d = dense(60_000);
        assert!(d.heap_bytes() < 60_000 / 4, "bitmap must compress dense");
        // Sparse: ~16 pairs per chunk → 12 B directory + 2 B/pair.
        let sparse: RoaringPairSet = (0..2_000u32)
            .flat_map(|lo| (1..=16u32).map(move |d| RecordPair::from((lo, lo + d))))
            .collect();
        let pairs = sparse.len();
        assert!(
            sparse.heap_bytes() * 10 < pairs * 8 * 10 / 2,
            "sparse roaring {} bytes for {} pairs must beat half of packed",
            sparse.heap_bytes(),
            pairs
        );
    }
}
