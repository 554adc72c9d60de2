//! Roaring-style chunked pair sets — compressed containers with
//! vectorizable kernels.
//!
//! [`ChunkedPairSet`] partitions the packed `(lo << 32) | hi` key space
//! of [`PairSet`](super::PairSet) by the high 32 bits: all pairs sharing
//! a `lo` record id land in one *chunk*, keyed by `lo` and stored as one
//! of two container kinds (the roaring-bitmap design of Chambi et al.,
//! applied to the pair universe `[D]²`):
//!
//! * **Array container** — the chunk's `hi` record ids as a sorted,
//!   exactly-sized `Box<[u32]>`. 4 bytes per pair (half of the packed
//!   `u64` representation) plus ~28 bytes of per-chunk directory,
//!   used while a chunk holds at most [`ARRAY_MAX`] = 4096 elements.
//! * **Bitmap container** — a fixed-width `u64` word array indexed
//!   directly by `hi` (one bit per possible partner record), used once a
//!   chunk exceeds [`ARRAY_MAX`] elements *and* the bitmap is no larger
//!   than the array it replaces (sparse-but-wide chunks stay arrays —
//!   see `bitmap_wins`). At ≥ 4097 set bits a bitmap of `n/64` words
//!   costs at most `n/8 / 4097` bytes per pair — under 2 bytes/pair for
//!   datasets up to ~65k records, and falling as chunks get denser.
//!
//! The 4096 threshold mirrors roaring: it is the break-even point where
//! a `u16` array equals an 8 KiB bitmap; for `u32` elements the array
//! side is twice as large, so 4096 is conservative in favour of arrays —
//! exactly what sparse pair sets (the common case in matching results)
//! want. Results of set operations are *demoted* back to arrays when
//! they shrink to ≤ 4096 elements, so the representation is canonical:
//! equal sets compare equal structurally.
//!
//! # Kernels
//!
//! Every binary operation aligns chunks by key with a linear merge over
//! the (sorted) chunk directories, then dispatches on the container
//! kind pair:
//!
//! * **bitmap × bitmap** — bitwise word-at-a-time AND/OR/ANDNOT in
//!   8-word unrolled strides over contiguous `u64` slices. No branches,
//!   no data-dependent control flow: LLVM auto-vectorizes these loops
//!   to full-width SIMD (the vectorized-execution model of columnar
//!   engines — see *Columnar Storage and List-based Processing for
//!   Graph Database Management Systems*). This is the kernel that wins
//!   on dense chunks: 512 pairs per cache line versus 8 for packed
//!   `u64`s.
//! * **array × array** — the same branchless linear merge as
//!   [`PairSet`](super::PairSet), switching to galloping (exponential
//!   probe + binary search from the smaller side) when the size ratio
//!   exceeds [`GALLOP_RATIO`](super::pairset::GALLOP_RATIO) — one
//!   constant shared by both engines.
//! * **array × bitmap** — per-element bitmap probe: each array element
//!   costs one word load and a mask test, `O(|array|)` regardless of
//!   the bitmap's population.
//!
//! `venn_regions` over chunked sets aligns all k chunk directories once
//! and, whenever any aligned container is a bitmap, switches to a
//! word-at-a-time membership sweep (mask computation per 64-value
//! window) instead of a scalar k-way merge.
//!
//! # When each representation wins
//!
//! Packed `PairSet` remains ideal for one-shot streaming merges of
//! uniformly sparse sets (no per-chunk dispatch overhead). Chunked sets
//! win when (a) memory matters — 4 bytes/pair sparse, far less dense —
//! or (b) chunks are dense enough that bitmap kernels replace 64 scalar
//! comparisons with one word op, or (c) sets are skewed so whole chunks
//! are skipped by the directory merge without touching their elements.
//!
//! The ~28-byte per-chunk directory still makes this engine a wash on
//! *uniformly sparse* workloads (a handful of pairs per `lo`). The
//! two-level [`RoaringPairSet`](super::roaring::RoaringPairSet) —
//! chunk key = packed `u64 >> 16`, `u16` low halves, 12-byte arena
//! directory — exists for exactly that shape and shares this module's
//! [`words`] kernels and promotion constant; see the
//! [`roaring`](super::roaring) module docs for the trade-off between
//! all three engines.

use super::pairset::intersect_into;
use super::{PairSet, RecordId, RecordPair, MAX_VENN_SETS};
use std::fmt;

/// Element count above which a chunk promotes to a bitmap container
/// (roaring's break-even constant) — provided the bitmap is actually
/// smaller than the array it replaces (see [`bitmap_wins`]).
pub const ARRAY_MAX: usize = 4096;

/// One chunk's element storage: the set of `hi` partner ids for a fixed
/// `lo` record id. Both variants box their storage so the enum stays
/// at 24 bytes — per-chunk overhead matters for sparse sets with many
/// small chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Container {
    /// Sorted, deduplicated `hi` values. Holds at most [`ARRAY_MAX`]
    /// elements unless the chunk is too *wide* for a bitmap (see
    /// [`bitmap_wins`]).
    Array(Box<[u32]>),
    /// Bit `hi` of word `hi / 64` set ⇔ the pair `(lo, hi)` is present.
    /// Holds more than [`ARRAY_MAX`] elements; trailing words may be
    /// zero after word-wise operations.
    Bitmap(Box<[u64]>),
}

impl Container {
    fn len(&self) -> usize {
        match self {
            Container::Array(v) => v.len(),
            Container::Bitmap(w) => w.iter().map(|x| x.count_ones() as usize).sum(),
        }
    }

    fn contains(&self, hi: u32) -> bool {
        match self {
            Container::Array(v) => v.binary_search(&hi).is_ok(),
            Container::Bitmap(w) => bitmap_contains(w, hi),
        }
    }

    fn for_each(&self, mut f: impl FnMut(u32)) {
        match self {
            Container::Array(v) => v.iter().for_each(|&hi| f(hi)),
            Container::Bitmap(w) => {
                for (i, &word) in w.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let b = bits.trailing_zeros();
                        f(i as u32 * 64 + b);
                        bits &= bits - 1;
                    }
                }
            }
        }
    }

    /// Heap bytes of the element storage.
    fn heap_bytes(&self) -> usize {
        match self {
            Container::Array(v) => v.len() * std::mem::size_of::<u32>(),
            Container::Bitmap(w) => w.len() * std::mem::size_of::<u64>(),
        }
    }
}

/// Whether bit `hi` is set in a bitmap word array (out-of-range bits
/// read as unset) — the single membership probe shared by every
/// bitmap-involving kernel.
#[inline]
fn bitmap_contains(w: &[u64], hi: u32) -> bool {
    let word = (hi / 64) as usize;
    word < w.len() && w[word] & (1u64 << (hi % 64)) != 0
}

/// Builds a bitmap with room for values `0..=max_hi`.
fn bitmap_for(max_hi: u32) -> Box<[u64]> {
    vec![0u64; max_hi as usize / 64 + 1].into_boxed_slice()
}

/// Whether a chunk of `count` elements whose trimmed bitmap would span
/// `words` `u64` words is stored as a bitmap. Both canonicalizers
/// apply this single predicate, so the representation stays a pure
/// function of the element set (structural equality holds).
///
/// Two conditions, both required:
/// * `count > ARRAY_MAX` — roaring's break-even element count;
/// * the bitmap is no larger than the `u32` array it replaces
///   (`words · 8 ≤ count · 4`) — guards the sparse-but-wide chunk
///   (e.g. 4097 partners spread over millions of record ids), where a
///   zero-indexed bitmap would blow up to `max_hi/8` bytes and every
///   word kernel would scan mostly-empty words. Roaring gets this
///   implicitly from its fixed 2^16 chunk width; our chunks span the
///   full `u32` `hi` range, so it must be explicit.
fn bitmap_wins(count: usize, words: usize) -> bool {
    count > ARRAY_MAX && words * 8 <= count * 4
}

/// Canonicalizes a raw word array into a container: demote to an array
/// when the population (or the [`bitmap_wins`] size test) says so,
/// trim trailing zero words otherwise.
fn canonicalize_bitmap(words: Box<[u64]>) -> Option<Container> {
    let count: usize = words.iter().map(|w| w.count_ones() as usize).sum();
    if count == 0 {
        return None;
    }
    let last = words.iter().rposition(|&w| w != 0).unwrap();
    if !bitmap_wins(count, last + 1) {
        let mut v = Vec::with_capacity(count);
        Container::Bitmap(words).for_each(|hi| v.push(hi));
        return Some(Container::Array(v.into_boxed_slice()));
    }
    let words = if last + 1 < words.len() {
        words[..=last].to_vec().into_boxed_slice()
    } else {
        words
    };
    Some(Container::Bitmap(words))
}

/// Canonicalizes a sorted element vector: promote to a bitmap when
/// [`bitmap_wins`] says the bitmap form is denser.
fn canonicalize_array(v: Vec<u32>) -> Option<Container> {
    let &max_hi = v.last()?;
    if !bitmap_wins(v.len(), max_hi as usize / 64 + 1) {
        return Some(Container::Array(v.into_boxed_slice()));
    }
    let mut words = bitmap_for(max_hi);
    for hi in v {
        words[(hi / 64) as usize] |= 1u64 << (hi % 64);
    }
    Some(Container::Bitmap(words))
}

/// Word-wise binary kernels over two bitmap word arrays, processed in
/// 8-word unrolled strides. Each loop body is branch-free over
/// contiguous memory, so LLVM vectorizes it; the tail handles the
/// non-multiple-of-8 remainder and length mismatch.
///
/// Shared with the two-level [`roaring`](super::roaring) engine, whose
/// fixed 1024-word containers are a multiple of the unroll width, so
/// its kernels run tail-free.
pub(crate) mod words {
    /// `out[i] = a[i] OP b[i]` over the common prefix, in strides of 8.
    macro_rules! zip_kernel {
        ($name:ident, $op:tt) => {
            pub fn $name(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
                let n = a.len().min(b.len());
                out.clear();
                // `or` callers append the longer side's overhang, so
                // reserve the full output length up front.
                out.reserve(a.len().max(b.len()));
                let (a8, a_tail) = a[..n].split_at(n - n % 8);
                let (b8, _) = b[..n].split_at(n - n % 8);
                for (ca, cb) in a8.chunks_exact(8).zip(b8.chunks_exact(8)) {
                    out.extend([
                        ca[0] $op cb[0],
                        ca[1] $op cb[1],
                        ca[2] $op cb[2],
                        ca[3] $op cb[3],
                        ca[4] $op cb[4],
                        ca[5] $op cb[5],
                        ca[6] $op cb[6],
                        ca[7] $op cb[7],
                    ]);
                }
                for (x, y) in a_tail.iter().zip(&b[n - n % 8..n]) {
                    out.push(x $op y);
                }
            }
        };
    }

    zip_kernel!(and, &);
    zip_kernel!(or, |);

    /// `a AND NOT b` over `a`'s full length (`b` is zero-extended).
    pub fn andnot(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
        let n = a.len().min(b.len());
        out.clear();
        out.reserve(a.len());
        for (x, y) in a[..n].iter().zip(&b[..n]) {
            out.push(x & !y);
        }
        out.extend_from_slice(&a[n..]);
    }

    /// `popcount(a AND b)` without materializing, in strides of 8.
    pub fn and_count(a: &[u64], b: &[u64]) -> usize {
        let n = a.len().min(b.len());
        let mut acc = [0u64; 8];
        let stride = n - n % 8;
        for (ca, cb) in a[..stride].chunks_exact(8).zip(b[..stride].chunks_exact(8)) {
            for i in 0..8 {
                acc[i] += (ca[i] & cb[i]).count_ones() as u64;
            }
        }
        let mut total: u64 = acc.iter().sum();
        for (x, y) in a[stride..n].iter().zip(&b[stride..n]) {
            total += (x & y).count_ones() as u64;
        }
        total as usize
    }
}

/// Finishes an OR of two word arrays of possibly different lengths: the
/// overhang of the longer input is copied verbatim.
fn or_with_overhang(a: &[u64], b: &[u64], out: &mut Vec<u64>) {
    words::or(a, b, out);
    let n = a.len().min(b.len());
    if a.len() > n {
        out.extend_from_slice(&a[n..]);
    } else if b.len() > n {
        out.extend_from_slice(&b[n..]);
    }
}

/// Container-level intersection. `None` when empty. `back` is the
/// backward-lane scratch of the two-lane merge, hoisted into the
/// caller's chunk loop so sparse sets (thousands of small array
/// chunks) don't pay a second allocation per chunk.
fn inter_containers(a: &Container, b: &Container, back: &mut Vec<u32>) -> Option<Container> {
    use Container::*;
    match (a, b) {
        (Bitmap(wa), Bitmap(wb)) => {
            let mut out = Vec::new();
            words::and(wa, wb, &mut out);
            canonicalize_bitmap(out.into_boxed_slice())
        }
        (Array(v), Bitmap(w)) | (Bitmap(w), Array(v)) => {
            let kept: Vec<u32> = v
                .iter()
                .copied()
                .filter(|&hi| bitmap_contains(w, hi))
                .collect();
            canonicalize_array(kept)
        }
        (Array(va), Array(vb)) => {
            // The shared bidirectional two-lane merge (galloping
            // internally on skewed sizes): forward lane ascending,
            // backward lane descending above it.
            let mut fwd = Vec::with_capacity(va.len().min(vb.len()));
            back.clear();
            intersect_into(va, vb, |x| fwd.push(x), |x| back.push(x));
            fwd.extend(back.iter().rev());
            canonicalize_array(fwd)
        }
    }
}

/// Container-level intersection cardinality, allocation-free on the
/// bitmap×bitmap and array paths.
fn inter_len_containers(a: &Container, b: &Container) -> usize {
    use Container::*;
    match (a, b) {
        (Bitmap(wa), Bitmap(wb)) => words::and_count(wa, wb),
        (Array(v), Bitmap(w)) | (Bitmap(w), Array(v)) => {
            v.iter().filter(|&&hi| bitmap_contains(w, hi)).count()
        }
        (Array(va), Array(vb)) => {
            // ROADMAP follow-up: reuse the shared two-lane merge with
            // counters instead of a single-lane scalar count — the two
            // lanes hide the load→compare latency here exactly as they
            // do for the packed engine, and stay allocation-free.
            let (mut fwd, mut back) = (0usize, 0usize);
            intersect_into(va, vb, |_| fwd += 1, |_| back += 1);
            fwd + back
        }
    }
}

/// Container-level union (never empty: inputs are non-empty).
fn union_containers(a: &Container, b: &Container) -> Container {
    use Container::*;
    match (a, b) {
        (Bitmap(wa), Bitmap(wb)) => {
            let mut out = Vec::new();
            or_with_overhang(wa, wb, &mut out);
            canonicalize_bitmap(out.into_boxed_slice()).expect("union of non-empty is non-empty")
        }
        (Array(v), Bitmap(w)) | (Bitmap(w), Array(v)) => {
            let max_hi = v.last().copied().unwrap_or(0);
            let need = max_hi as usize / 64 + 1;
            let mut out = w.to_vec();
            if out.len() < need {
                out.resize(need, 0);
            }
            for &hi in v {
                out[(hi / 64) as usize] |= 1u64 << (hi % 64);
            }
            canonicalize_bitmap(out.into_boxed_slice()).expect("union of non-empty is non-empty")
        }
        (Array(va), Array(vb)) => {
            let mut out = Vec::with_capacity(va.len() + vb.len());
            let (mut i, mut j) = (0usize, 0usize);
            while i < va.len() && j < vb.len() {
                match va[i].cmp(&vb[j]) {
                    std::cmp::Ordering::Less => {
                        out.push(va[i]);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        out.push(vb[j]);
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        out.push(va[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            out.extend_from_slice(&va[i..]);
            out.extend_from_slice(&vb[j..]);
            canonicalize_array(out).expect("union of non-empty is non-empty")
        }
    }
}

/// Container-level difference `a \ b`. `None` when empty.
fn diff_containers(a: &Container, b: &Container) -> Option<Container> {
    use Container::*;
    match (a, b) {
        (Bitmap(wa), Bitmap(wb)) => {
            let mut out = Vec::new();
            words::andnot(wa, wb, &mut out);
            canonicalize_bitmap(out.into_boxed_slice())
        }
        (Array(v), Bitmap(w)) => {
            let kept: Vec<u32> = v
                .iter()
                .copied()
                .filter(|&hi| !bitmap_contains(w, hi))
                .collect();
            canonicalize_array(kept)
        }
        (Bitmap(w), Array(v)) => {
            let mut out = w.to_vec();
            for &hi in v {
                let word = (hi / 64) as usize;
                if word < out.len() {
                    out[word] &= !(1u64 << (hi % 64));
                }
            }
            canonicalize_bitmap(out.into_boxed_slice())
        }
        (Array(va), Array(vb)) => {
            let mut out = Vec::with_capacity(va.len());
            let mut j = 0usize;
            for &x in va {
                while j < vb.len() && vb[j] < x {
                    j += 1;
                }
                if j >= vb.len() || vb[j] != x {
                    out.push(x);
                }
            }
            canonicalize_array(out)
        }
    }
}

/// A set of [`RecordPair`]s chunked by `lo` record id, each chunk a
/// roaring-style array or bitmap container.
///
/// Mirrors the [`PairSet`] API (`union` / `intersection` / `difference`
/// / `intersection_len` / `contains` / `iter` / `from_sorted_packed` /
/// `FromIterator`) and implements
/// [`PairAlgebra`](super::PairAlgebra), so every evaluation layer can
/// run on either engine. See the [module docs](self) for the container
/// model and kernel selection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChunkedPairSet {
    /// Chunk keys (`lo` record ids), strictly ascending.
    keys: Vec<u32>,
    /// `containers[i]` holds the partners of `keys[i]`; same length as
    /// `keys`, every container non-empty and canonical: bitmap iff
    /// [`bitmap_wins`]`(len, words)` — so arrays *can* exceed
    /// [`ARRAY_MAX`] elements when the chunk is too wide for a bitmap.
    containers: Vec<Container>,
}

impl ChunkedPairSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from packed values that are already sorted and
    /// deduplicated — the same contract as [`PairSet::from_sorted_packed`].
    pub fn from_sorted_packed(packed: Vec<u64>) -> Self {
        debug_assert!(packed.windows(2).all(|w| w[0] < w[1]), "not sorted/deduped");
        // Count the chunks first so the directory is allocated exactly
        // — with many small chunks, doubling slack would dominate the
        // memory footprint.
        let chunks = packed
            .windows(2)
            .filter(|w| (w[0] >> 32) != (w[1] >> 32))
            .count()
            + usize::from(!packed.is_empty());
        let mut keys = Vec::with_capacity(chunks);
        let mut containers = Vec::with_capacity(chunks);
        let mut i = 0usize;
        while i < packed.len() {
            let lo = (packed[i] >> 32) as u32;
            let mut j = i + 1;
            while j < packed.len() && (packed[j] >> 32) as u32 == lo {
                j += 1;
            }
            let his: Vec<u32> = packed[i..j].iter().map(|&x| x as u32).collect();
            keys.push(lo);
            containers.push(canonicalize_array(his).expect("run is non-empty"));
            i = j;
        }
        Self { keys, containers }
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

    /// Number of pairs (sum of container populations).
    pub fn len(&self) -> usize {
        self.containers.iter().map(Container::len).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Number of chunks (distinct `lo` record ids).
    pub fn chunk_count(&self) -> usize {
        self.keys.len()
    }

    /// Number of chunks stored as bitmap containers.
    pub fn bitmap_chunk_count(&self) -> usize {
        self.containers
            .iter()
            .filter(|c| matches!(c, Container::Bitmap(_)))
            .count()
    }

    /// Bytes of heap memory held by the chunk directory and containers.
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u32>()
            + self.containers.capacity() * std::mem::size_of::<Container>()
            + self
                .containers
                .iter()
                .map(Container::heap_bytes)
                .sum::<usize>()
    }

    /// Membership test: binary-search the chunk directory, then probe
    /// the container (`O(log chunks + log |chunk|)`, `O(log chunks)`
    /// for bitmap chunks).
    pub fn contains(&self, pair: &RecordPair) -> bool {
        match self.keys.binary_search(&pair.lo().0) {
            Ok(at) => self.containers[at].contains(pair.hi().0),
            Err(_) => false,
        }
    }

    /// Calls `f` with every packed pair value in ascending order.
    pub fn for_each_packed(&self, mut f: impl FnMut(u64)) {
        for (&lo, container) in self.keys.iter().zip(&self.containers) {
            let base = (lo as u64) << 32;
            container.for_each(|hi| f(base | hi as u64));
        }
    }

    /// Iterates the pairs in ascending `(lo, hi)` order.
    pub fn iter(&self) -> impl Iterator<Item = RecordPair> + '_ {
        self.keys
            .iter()
            .zip(&self.containers)
            .flat_map(|(&lo, container)| {
                let mut his = Vec::with_capacity(container.len());
                container.for_each(|hi| his.push(hi));
                his.into_iter()
                    .map(move |hi| RecordPair::new(RecordId(lo), RecordId(hi)))
            })
    }

    /// `self ∪ other`: chunk-directory merge, container kernels per
    /// aligned chunk.
    pub fn union(&self, other: &ChunkedPairSet) -> ChunkedPairSet {
        let mut out = ChunkedPairSet {
            keys: Vec::with_capacity(self.keys.len() + other.keys.len()),
            containers: Vec::with_capacity(self.keys.len() + other.keys.len()),
        };
        merge_chunks(self, other, |key, a, b| {
            let merged = match (a, b) {
                (Some(a), Some(b)) => union_containers(a, b),
                (Some(only), None) | (None, Some(only)) => only.clone(),
                (None, None) => unreachable!(),
            };
            out.keys.push(key);
            out.containers.push(merged);
        });
        out
    }

    /// `self ∩ other`: only chunks present in both directories are
    /// touched — skewed sets skip whole chunks without reading their
    /// elements.
    pub fn intersection(&self, other: &ChunkedPairSet) -> ChunkedPairSet {
        let mut out = ChunkedPairSet::new();
        let mut back: Vec<u32> = Vec::new();
        merge_chunks(self, other, |key, a, b| {
            if let (Some(a), Some(b)) = (a, b) {
                if let Some(c) = inter_containers(a, b, &mut back) {
                    out.keys.push(key);
                    out.containers.push(c);
                }
            }
        });
        out
    }

    /// `|self ∩ other|` without materializing — popcount kernels on
    /// bitmap chunks, counting merges on array chunks.
    pub fn intersection_len(&self, other: &ChunkedPairSet) -> usize {
        let mut n = 0usize;
        merge_chunks(self, other, |_, a, b| {
            if let (Some(a), Some(b)) = (a, b) {
                n += inter_len_containers(a, b);
            }
        });
        n
    }

    /// `self \ other`.
    pub fn difference(&self, other: &ChunkedPairSet) -> ChunkedPairSet {
        let mut out = ChunkedPairSet::new();
        merge_chunks(self, other, |key, a, b| match (a, b) {
            (Some(a), Some(b)) => {
                if let Some(c) = diff_containers(a, b) {
                    out.keys.push(key);
                    out.containers.push(c);
                }
            }
            (Some(only), None) => {
                out.keys.push(key);
                out.containers.push(only.clone());
            }
            _ => {}
        });
        out
    }

    /// `|self \ other|` without materializing.
    pub fn difference_len(&self, other: &ChunkedPairSet) -> usize {
        self.len() - self.intersection_len(other)
    }

    /// Whether every pair of `self` is in `other`.
    pub fn is_subset(&self, other: &ChunkedPairSet) -> bool {
        self.intersection_len(other) == self.len()
    }

    /// Whether the sets share no pair.
    pub fn is_disjoint(&self, other: &ChunkedPairSet) -> bool {
        self.intersection_len(other) == 0
    }

    /// Inserts a pair; returns `true` if it was new. Meant for
    /// incremental construction of small sets — bulk construction via
    /// [`FromIterator`] stays `O(n log n)`.
    pub fn insert(&mut self, pair: RecordPair) -> bool {
        let (lo, hi) = (pair.lo().0, pair.hi().0);
        match self.keys.binary_search(&lo) {
            Ok(at) => match &mut self.containers[at] {
                Container::Array(v) => match v.binary_search(&hi) {
                    Ok(_) => false,
                    Err(pos) => {
                        let mut grown = std::mem::take(v).into_vec();
                        grown.insert(pos, hi);
                        self.containers[at] =
                            canonicalize_array(grown).expect("non-empty after insert");
                        true
                    }
                },
                Container::Bitmap(w) => {
                    let word = (hi / 64) as usize;
                    let grew = word >= w.len();
                    if grew {
                        let mut grown = w.to_vec();
                        grown.resize(word + 1, 0);
                        *w = grown.into_boxed_slice();
                    }
                    let fresh = w[word] & (1u64 << (hi % 64)) == 0;
                    w[word] |= 1u64 << (hi % 64);
                    if grew {
                        // Widening can tip the bitmap-vs-array balance
                        // (a far-out insert into a compact bitmap):
                        // re-run the shared predicate to stay canonical.
                        let words = std::mem::take(w);
                        self.containers[at] =
                            canonicalize_bitmap(words).expect("non-empty after insert");
                    }
                    fresh
                }
            },
            Err(at) => {
                self.keys.insert(at, lo);
                self.containers
                    .insert(at, Container::Array(vec![hi].into_boxed_slice()));
                true
            }
        }
    }
}

/// Aligns two chunk directories by key (linear merge) and calls `f`
/// once per live key with the containers present on each side.
fn merge_chunks<'a>(
    a: &'a ChunkedPairSet,
    b: &'a ChunkedPairSet,
    mut f: impl FnMut(u32, Option<&'a Container>, Option<&'a Container>),
) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.keys.len() && j < b.keys.len() {
        match a.keys[i].cmp(&b.keys[j]) {
            std::cmp::Ordering::Less => {
                f(a.keys[i], Some(&a.containers[i]), None);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                f(b.keys[j], None, Some(&b.containers[j]));
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                f(a.keys[i], Some(&a.containers[i]), Some(&b.containers[j]));
                i += 1;
                j += 1;
            }
        }
    }
    while i < a.keys.len() {
        f(a.keys[i], Some(&a.containers[i]), None);
        i += 1;
    }
    while j < b.keys.len() {
        f(b.keys[j], None, Some(&b.containers[j]));
        j += 1;
    }
}

/// Streams the k-way merge of `sets`: for every distinct pair, in
/// ascending packed order, calls `emit(packed, mask)` where bit `i` of
/// `mask` is set iff `sets[i]` contains the pair — the chunked engine
/// under [`venn_regions`](crate::explore::setops::venn_regions).
///
/// Chunk directories are aligned once; within an aligned chunk the
/// sweep runs word-at-a-time whenever any participant stores a bitmap
/// (each 64-value window costs one word load per set), and as a scalar
/// k-way merge when all participants are small arrays.
pub(crate) fn kway_merge_masks_chunked(sets: &[&ChunkedPairSet], mut emit: impl FnMut(u64, u32)) {
    assert!(
        sets.len() <= MAX_VENN_SETS,
        "at most {MAX_VENN_SETS} sets supported"
    );
    let mut cursors = vec![0usize; sets.len()];
    // Scratch buffers, hoisted out of the per-chunk loop: sparse sets
    // have ~1 chunk per handful of pairs, so per-chunk allocation
    // would dominate the merge.
    let mut present: Vec<(usize, &Container)> = Vec::with_capacity(sets.len());
    let mut array_pos: Vec<usize> = Vec::with_capacity(sets.len());
    let mut arrays: Vec<(usize, &[u32])> = Vec::with_capacity(sets.len());
    let mut pos: Vec<usize> = Vec::with_capacity(sets.len());
    loop {
        // Next live chunk key across all sets.
        let mut key: Option<u32> = None;
        for (s, &c) in sets.iter().zip(&cursors) {
            if let Some(&k) = s.keys.get(c) {
                key = Some(key.map_or(k, |m| m.min(k)));
            }
        }
        let Some(lo) = key else { break };
        // Containers of every set that has this chunk.
        present.clear();
        for (idx, (s, c)) in sets.iter().zip(&mut cursors).enumerate() {
            if s.keys.get(*c) == Some(&lo) {
                present.push((idx, &s.containers[*c]));
                *c += 1;
            }
        }
        let base = (lo as u64) << 32;
        if present.len() == 1 {
            let (idx, container) = present[0];
            container.for_each(|hi| emit(base | hi as u64, 1 << idx));
            continue;
        }
        array_pos.clear();
        array_pos.resize(present.len(), 0);
        // Word-at-a-time membership sweep over the bitmap extent
        // (every stored bitmap word is visited exactly once, which is
        // optimal); arrays are rasterized into the same 64-value
        // windows on the fly via per-set cursors. Array elements
        // beyond every bitmap's extent fall through to the scalar
        // k-way merge below, so a lone far-out array element costs
        // O(1), not O(max_hi / 64) empty windows. All window
        // arithmetic is u64: `hi` values up to `u32::MAX` must not
        // wrap the `lo_val + 64` bound.
        let bitmap_words = present
            .iter()
            .map(|(_, c)| match c {
                Container::Bitmap(w) => w.len(),
                Container::Array(_) => 0,
            })
            .max()
            .unwrap_or(0);
        for w in 0..bitmap_words {
            let lo_val = w as u64 * 64;
            let mut set_words = [0u64; 32];
            let mut any = 0u64;
            for (slot, (_, container)) in present.iter().enumerate() {
                let word = match container {
                    Container::Bitmap(words) => words.get(w).copied().unwrap_or(0),
                    Container::Array(v) => {
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
        // Scalar k-way merge over the array remainders (everything
        // above the bitmap extent; the whole chunk when no bitmap is
        // present, i.e. bitmap_words == 0).
        arrays.clear();
        arrays.extend(present.iter().zip(&array_pos).filter_map(
            |(&(idx, c), &consumed)| match c {
                Container::Array(v) => Some((idx, &v[consumed..])),
                Container::Bitmap(_) => None,
            },
        ));
        pos.clear();
        pos.resize(arrays.len(), 0);
        loop {
            let mut min: Option<u32> = None;
            for ((_, v), &p) in arrays.iter().zip(&pos) {
                if let Some(&hi) = v.get(p) {
                    min = Some(min.map_or(hi, |m| m.min(hi)));
                }
            }
            let Some(hi) = min else { break };
            let mut mask = 0u32;
            for ((idx, v), p) in arrays.iter().zip(&mut pos) {
                if v.get(*p) == Some(&hi) {
                    mask |= 1 << idx;
                    *p += 1;
                }
            }
            emit(base | hi as u64, mask);
        }
    }
}

impl FromIterator<RecordPair> for ChunkedPairSet {
    fn from_iter<I: IntoIterator<Item = RecordPair>>(iter: I) -> Self {
        let mut packed: Vec<u64> = iter
            .into_iter()
            .map(|p| ((p.lo().0 as u64) << 32) | p.hi().0 as u64)
            .collect();
        packed.sort_unstable();
        packed.dedup();
        Self::from_sorted_packed(packed)
    }
}

impl<'a> FromIterator<&'a RecordPair> for ChunkedPairSet {
    fn from_iter<I: IntoIterator<Item = &'a RecordPair>>(iter: I) -> Self {
        iter.into_iter().copied().collect()
    }
}

impl fmt::Display for ChunkedPairSet {
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

    fn set(pairs: &[(u32, u32)]) -> ChunkedPairSet {
        pairs
            .iter()
            .map(|&(a, b)| RecordPair::from((a, b)))
            .collect()
    }

    /// A chunk with `count` partners of record 0 — bitmap once
    /// `count > ARRAY_MAX`.
    fn dense(count: u32) -> ChunkedPairSet {
        (1..=count).map(|hi| RecordPair::from((0u32, hi))).collect()
    }

    #[test]
    fn construction_roundtrip() {
        let s = set(&[(3, 1), (0, 1), (1, 3), (0, 1), (0, 7)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.chunk_count(), 2);
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
        assert_eq!(ChunkedPairSet::from_pair_set(&s.to_pair_set()), s);
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
    fn demotion_on_shrinking_ops() {
        let big = dense(8192);
        let half: ChunkedPairSet = (1..=8192u32)
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
        let b: ChunkedPairSet = (3500..=10_500u32)
            .map(|hi| RecordPair::from((0u32, hi)))
            .collect();
        assert_eq!(a.intersection(&b).len(), 3501);
        assert_eq!(a.intersection_len(&b), 3501);
        assert_eq!(a.union(&b).len(), 10_500);
        assert_eq!(a.difference(&b).len(), 3499);
        assert_eq!(b.difference(&a).len(), 3500);
        // Union of two bitmaps stays a bitmap; its chunk is canonical.
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
        // Bitmap insert beyond the current word range grows the bitmap.
        assert!(d.insert(RecordPair::from((0u32, 100_000u32))));
        assert!(d.contains(&RecordPair::from((0u32, 100_000u32))));
    }

    #[test]
    fn empty_edge_cases() {
        let e = ChunkedPairSet::new();
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
        kway_merge_masks_chunked(&[&a, &b], |x, mask| seen.push((x, mask)));
        assert_eq!(seen, vec![(1, 0b11), (2, 0b01), (0x2_0000_0003, 0b10)]);
    }

    #[test]
    fn kway_masks_mixed_containers() {
        // One bitmap participant forces the word-sweep path.
        let big = dense(5000);
        let small = set(&[(0, 2), (0, 9999), (3, 4)]);
        let mut got = Vec::new();
        kway_merge_masks_chunked(&[&big, &small], |x, m| got.push((x, m)));
        // Reference via packed engine.
        let mut expected = Vec::new();
        crate::dataset::pairset::kway_merge_masks(
            &[&big.to_pair_set(), &small.to_pair_set()],
            |x, m| expected.push((x, m)),
        );
        assert_eq!(got, expected);
    }

    #[test]
    fn sparse_wide_chunks_stay_arrays() {
        // 4097+ partners spread over a huge hi range: a zero-indexed
        // bitmap would cost max_hi/8 bytes, so the chunk must stay an
        // array despite exceeding ARRAY_MAX elements.
        let wide: ChunkedPairSet = (0..ARRAY_MAX as u32 + 100)
            .map(|i| RecordPair::from((0u32, 1 + i * 50_000)))
            .collect();
        assert_eq!(wide.len(), ARRAY_MAX + 100);
        assert_eq!(wide.bitmap_chunk_count(), 0, "wide chunk must not promote");
        assert!(wide.heap_bytes() < 8 * wide.len());
        // Ops on oversized arrays stay correct and canonical: an
        // intersection that compacts the range may promote.
        let compact = dense(ARRAY_MAX as u32 + 100);
        assert_eq!(compact.bitmap_chunk_count(), 1);
        assert_eq!(wide.intersection(&compact).len(), 1); // hi = 1 only
        let same = wide.intersection(&wide.clone());
        assert_eq!(same, wide);
        // Inserting far out of a bitmap's range demotes it back to an
        // array when the widened bitmap would lose.
        let mut grown = dense(ARRAY_MAX as u32 + 1);
        assert_eq!(grown.bitmap_chunk_count(), 1);
        assert!(grown.insert(RecordPair::from((0u32, 3_000_000_000u32))));
        assert_eq!(grown.bitmap_chunk_count(), 0, "widened bitmap must demote");
        assert!(grown.contains(&RecordPair::from((0u32, 3_000_000_000u32))));
        assert_eq!(grown.len(), ARRAY_MAX + 2);
    }

    #[test]
    fn kway_masks_handle_extreme_hi_values() {
        // A bitmap chunk plus an array element at the very top of the
        // u32 range: the word sweep must not wrap (`lo_val + 64` in
        // u64) and the far element must cost the scalar tail, not
        // u32::MAX/64 empty windows (this test would time out if it
        // did).
        let big = dense(5000);
        let far = set(&[(0, u32::MAX), (0, 2)]);
        let mut got = Vec::new();
        kway_merge_masks_chunked(&[&big, &far], |x, m| got.push((x, m)));
        let mut expected = Vec::new();
        crate::dataset::pairset::kway_merge_masks(
            &[&big.to_pair_set(), &far.to_pair_set()],
            |x, m| expected.push((x, m)),
        );
        assert_eq!(got, expected);
        assert_eq!(got.last(), Some(&(u32::MAX as u64, 0b10)));
    }

    #[test]
    fn heap_bytes_compress_dense_chunks() {
        let d = dense(60_000);
        // 60k pairs in one bitmap chunk: ~60000/8 bytes ≈ 0.125 B/pair.
        assert!(d.heap_bytes() < 60_000, "bitmap must compress dense chunk");
        let s = set(&[(0, 1), (5, 6)]);
        assert!(s.heap_bytes() > 0);
    }
}
