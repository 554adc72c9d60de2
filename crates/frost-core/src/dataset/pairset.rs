//! Packed, sorted pair sets — the columnar set-processing engine behind
//! Frost's pair-level evaluations.
//!
//! Every set-based view of the paper — confusion matrices (Fig. 2),
//! n-way Venn regions (§4.1), set-algebra expressions over experiments
//! — reduces to set operations over `{r1, r2} ⊆ [D]²`. The seed
//! implemented those on `HashSet<RecordPair>`; [`PairSet`] replaces it
//! with a *packed* representation: each normalized pair `(lo, hi)`
//! losslessly packs into one `u64` (`lo << 32 | hi`), and a set is a
//! sorted, deduplicated `Vec<u64>`. Because the packed integer order
//! equals the lexicographic `(lo, hi)` order, every set operation
//! becomes a linear merge over contiguous memory — the list-based,
//! columnar processing model of Gupta et al. applied to pair sets.
//!
//! Complexity guarantees (n = `self.len()`, m = `other.len()`):
//!
//! | operation                  | cost                                   |
//! |----------------------------|----------------------------------------|
//! | [`PairSet::contains`]      | `O(log n)` binary search               |
//! | [`PairSet::union`]         | `O(n + m)` merge                       |
//! | [`PairSet::difference`]    | `O(n + m)` merge                       |
//! | [`PairSet::intersection`]  | `O(n + m)` merge, or `O(min·log(max))` galloping when sizes are skewed |
//! | [`PairSet::intersection_len`] | same, allocation-free               |
//! | [`venn_regions`](crate::explore::setops::venn_regions) | `O(k · Σnᵢ)` k-way merge, no hashing |
//! | construction from unsorted pairs | `O(n log n)` sort + dedup        |
//!
//! Memory is 8 bytes per pair in one contiguous allocation (a
//! `HashSet<RecordPair>` spends ~2–4× that, scattered), which is what
//! makes the merge loops memory-bandwidth-bound rather than
//! cache-miss-bound.

use super::{RecordId, RecordPair, MAX_VENN_SETS};
use serde::{Deserialize, Serialize};
use std::fmt;

/// When `larger / smaller` reaches this, intersections switch from a
/// linear merge to galloping (exponential probe + binary search) over
/// the larger side.
///
/// Shared by both set engines ([`PairSet`] and
/// [`ChunkedPairSet`](super::chunked::ChunkedPairSet) array
/// containers). Bench-derived (was a guessed 8): the `gallop_tuning`
/// section of `cargo bench -p frost-bench --bench pairset` times
/// galloping against the production bidirectional merge on identical
/// data (4096 needles, 50% hit rate) across size ratios 2–64. Measured
/// on x86-64: merge wins at ratio 2 (1.15×), galloping wins from ratio
/// 4 (1.16×), 1.7× at 8, 3.8× at 32 (see `BENCH_pairset.json`,
/// `gallop_tuning`).
pub const GALLOP_RATIO: usize = 4;

/// Minimum small-side length before a near-equal-size intersection
/// switches from the two-lane bidirectional merge to the four-lane
/// split merge ([`four_lane_intersect`]): below this, the split's
/// binary search costs more than the extra dependency chains recover.
pub const FOUR_LANE_MIN: usize = 32;

/// Size ratio bound for the four-lane path: it targets the
/// *equal-size* case (both merge cursors advance ~every step, so the
/// loop is latency-bound); at larger skews the galloping switch is
/// close anyway and the half-split degenerates.
const FOUR_LANE_MAX_RATIO: usize = 2;

/// Shrink policy for merge outputs: results are pre-sized to their
/// exact upper bound (`n + m` for union, `n` for difference,
/// `min(n, m)` for intersection), which can overshoot the true size —
/// by up to 2× for a union of identical sets. When the slack exceeds
/// both this fraction of the final length and one 4 KiB page of
/// packed values, the allocation is returned to the size actually
/// used; smaller slack is kept, since reallocating to save a few
/// cache lines costs more than it frees.
const SHRINK_SLACK_DENOM: usize = 8;

/// Minimum wasted elements before [`shrink_merge_output`] reallocates
/// (512 packed `u64`s = one 4 KiB page).
const SHRINK_MIN_SLACK: usize = 512;

/// Applies the shrink policy described at [`SHRINK_SLACK_DENOM`].
pub(crate) fn shrink_merge_output<T>(v: &mut Vec<T>) {
    let slack = v.capacity() - v.len();
    if slack > SHRINK_MIN_SLACK && slack > v.len() / SHRINK_SLACK_DENOM {
        v.shrink_to_fit();
    }
}

#[inline]
fn pack(p: RecordPair) -> u64 {
    ((p.lo().0 as u64) << 32) | p.hi().0 as u64
}

#[inline]
fn unpack(x: u64) -> RecordPair {
    RecordPair::new(RecordId((x >> 32) as u32), RecordId(x as u32))
}

/// A set of [`RecordPair`]s as a sorted, deduplicated packed `Vec<u64>`.
///
/// See the [module docs](self) for representation and complexity notes.
///
/// The `Deserialize` derive is currently a vendored marker impl (no
/// real decoding exists in this workspace). When `vendor/serde` is
/// replaced by the registry crate, give `PairSet` a validating
/// `Deserialize` (sort + dedup or reject) — every algorithm here
/// assumes the sorted/deduplicated invariant, and a hand-edited
/// serialized form must not be able to break it silently.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairSet {
    packed: Vec<u64>,
}

impl PairSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty set with room for `capacity` pairs.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            packed: Vec::with_capacity(capacity),
        }
    }

    /// Builds a set from packed values that are already sorted and
    /// deduplicated (checked only in debug builds). Every algorithm in
    /// this module assumes that invariant — callers must uphold it.
    pub fn from_sorted_packed(packed: Vec<u64>) -> Self {
        debug_assert!(packed.windows(2).all(|w| w[0] < w[1]), "not sorted/deduped");
        Self { packed }
    }

    /// Bytes of heap memory held by the packed representation.
    pub fn heap_bytes(&self) -> usize {
        self.packed.capacity() * std::mem::size_of::<u64>()
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.packed.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// Membership test in `O(log n)`.
    pub fn contains(&self, pair: &RecordPair) -> bool {
        self.packed.binary_search(&pack(*pair)).is_ok()
    }

    /// Iterates the pairs in ascending `(lo, hi)` order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RecordPair> + '_ {
        self.packed.iter().map(|&x| unpack(x))
    }

    /// The packed representation (sorted, deduplicated).
    pub fn as_packed(&self) -> &[u64] {
        &self.packed
    }

    /// Inserts a pair; returns `true` if it was new. `O(n)` worst case —
    /// bulk construction via [`FromIterator`] is preferred.
    pub fn insert(&mut self, pair: RecordPair) -> bool {
        let key = pack(pair);
        match self.packed.binary_search(&key) {
            Ok(_) => false,
            Err(at) => {
                self.packed.insert(at, key);
                true
            }
        }
    }

    /// `self ∪ other` by linear merge. The output is pre-sized to the
    /// exact upper bound `n + m` and shrunk afterwards per the
    /// [module shrink policy](SHRINK_SLACK_DENOM).
    pub fn union(&self, other: &PairSet) -> PairSet {
        let (a, b) = (&self.packed, &other.packed);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        shrink_merge_output(&mut out);
        PairSet::from_sorted_packed(out)
    }

    /// `self ∩ other`: bidirectional linear merge, the unrolled
    /// four-lane merge ([`four_lane_intersect`]) when the sizes are
    /// near-equal, or galloping from the smaller side when the sizes
    /// differ by at least [`GALLOP_RATIO`]×.
    pub fn intersection(&self, other: &PairSet) -> PairSet {
        let (small, large) = if self.len() <= other.len() {
            (&self.packed, &other.packed)
        } else {
            (&other.packed, &self.packed)
        };
        let (min, max) = (small.len(), large.len());
        if min == 0 {
            return PairSet::new();
        }
        // Any single lane can emit every match when the overlap is
        // skewed toward its end, so the output is sized to the exact
        // upper bound `min` up front — the final `extend`s below then
        // never reallocate, and the shrink policy trims the slack.
        let mut out = Vec::with_capacity(min);
        if max / min >= GALLOP_RATIO {
            gallop_intersect(small, large, |x| out.push(x));
        } else if four_lane_applies(min, max) {
            // The low half's forward lane is already in final position
            // (everything it emits precedes all other lanes); the
            // remaining lanes land in scratch. Each lane alone can
            // emit at most its half's width.
            let half = min / 2 + 1;
            let mut a_back = Vec::with_capacity(half);
            let mut b_fwd = Vec::with_capacity(half);
            let mut b_back = Vec::with_capacity(half);
            four_lane_intersect(
                small,
                large,
                |x| out.push(x),
                |x| a_back.push(x),
                |x| b_fwd.push(x),
                |x| b_back.push(x),
            );
            out.extend(a_back.into_iter().rev());
            out.extend(b_fwd);
            out.extend(b_back.into_iter().rev());
        } else {
            // The backward lane emits in descending order, all above
            // the forward lane's values.
            let mut back = Vec::with_capacity(min);
            bidi_merge(
                small,
                large,
                0,
                0,
                min,
                max,
                |x| out.push(x),
                |x| back.push(x),
            );
            out.extend(back.into_iter().rev());
        }
        shrink_merge_output(&mut out);
        PairSet::from_sorted_packed(out)
    }

    /// `|self ∩ other|` without materializing the intersection — the
    /// hot path of confusion-matrix construction, where only the TP
    /// *count* matters. Allocation-free on every path, including the
    /// four-lane equal-size merge (four counters).
    pub fn intersection_len(&self, other: &PairSet) -> usize {
        let (small, large) = if self.len() <= other.len() {
            (&self.packed, &other.packed)
        } else {
            (&other.packed, &self.packed)
        };
        let (min, max) = (small.len(), large.len());
        if min == 0 {
            return 0;
        }
        if four_lane_applies(min, max) {
            let (mut a_fwd, mut a_back, mut b_fwd, mut b_back) = (0usize, 0usize, 0usize, 0usize);
            four_lane_intersect(
                small,
                large,
                |_| a_fwd += 1,
                |_| a_back += 1,
                |_| b_fwd += 1,
                |_| b_back += 1,
            );
            return a_fwd + a_back + b_fwd + b_back;
        }
        let mut fwd = 0usize;
        let mut back = 0usize;
        intersect_into(small, large, |_| fwd += 1, |_| back += 1);
        fwd + back
    }

    /// `self \ other` by linear merge. Pre-sized to the exact upper
    /// bound `n`, shrunk afterwards per the
    /// [module shrink policy](SHRINK_SLACK_DENOM).
    pub fn difference(&self, other: &PairSet) -> PairSet {
        let (a, b) = (&self.packed, &other.packed);
        let mut out = Vec::with_capacity(a.len());
        let mut j = 0usize;
        for &x in a {
            while j < b.len() && b[j] < x {
                j += 1;
            }
            if j >= b.len() || b[j] != x {
                out.push(x);
            }
        }
        shrink_merge_output(&mut out);
        PairSet::from_sorted_packed(out)
    }

    /// `|self \ other|` without materializing the difference.
    pub fn difference_len(&self, other: &PairSet) -> usize {
        self.len() - self.intersection_len(other)
    }

    /// Whether every pair of `self` is in `other`.
    pub fn is_subset(&self, other: &PairSet) -> bool {
        self.len() <= other.len() && self.intersection_len(other) == self.len()
    }

    /// Whether the sets share no pair.
    pub fn is_disjoint(&self, other: &PairSet) -> bool {
        self.intersection_len(other) == 0
    }
}

/// Streams `a ∩ b` (both sorted + deduped): ascending values into
/// `emit_fwd` and, on the bidirectional merge path, descending values —
/// all larger than anything the forward lane emits — into `emit_back`.
/// Gallops from the smaller side when the size ratio warrants it (then
/// only `emit_fwd` fires).
///
/// Generic over the element width so all three set engines share the
/// one kernel: packed `u64`s here, `u32` chunk arrays in
/// [`ChunkedPairSet`](super::chunked::ChunkedPairSet), `u16` container
/// arrays in [`RoaringPairSet`](super::roaring::RoaringPairSet).
pub(crate) fn intersect_into<T: Ord + Copy>(
    a: &[T],
    b: &[T],
    emit_fwd: impl FnMut(T),
    emit_back: impl FnMut(T),
) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return;
    }
    if large.len() / small.len() >= GALLOP_RATIO {
        gallop_intersect(small, large, emit_fwd);
    } else {
        bidi_merge(
            small,
            large,
            0,
            0,
            small.len(),
            large.len(),
            emit_fwd,
            emit_back,
        );
    }
}

/// Bidirectional branchless merge over the windows `a[i..p]` /
/// `b[j..q]`: a forward lane walks both sets from the front, a
/// backward lane from the back, meeting in the middle. The two lanes
/// form independent dependency chains, hiding the
/// load→compare→advance latency that limits a single two-pointer
/// merge. Branchless advancement (flag increments instead of a
/// three-way branch) applies per lane.
///
/// Correctness: strictly sorted inputs mean each matching value has
/// unique positions (ia, jb). A lane that moves a cursor past a
/// partner position without emitting is impossible by the standard
/// merge invariant, and once one lane processes a position the loop
/// guards (`i < p`, `j < q`) keep the other lane from revisiting it —
/// so every match is emitted exactly once (see
/// `bidirectional_merge_agrees` in the tests and the cross-model
/// property suite). Taking the cursor state as arguments lets the
/// four-lane merge resume a half it left partially processed.
#[allow(clippy::too_many_arguments)]
#[inline]
fn bidi_merge<T: Ord + Copy>(
    a: &[T],
    b: &[T],
    mut i: usize,
    mut j: usize,
    mut p: usize,
    mut q: usize,
    mut emit_fwd: impl FnMut(T),
    mut emit_back: impl FnMut(T),
) {
    debug_assert!(p <= a.len() && q <= b.len());
    while i < p && j < q {
        // SAFETY: loop guards bound all four cursors; lanes move
        // each cursor by at most one per step, toward each other.
        let (x, y) = unsafe { (*a.get_unchecked(i), *b.get_unchecked(j)) };
        if x == y {
            emit_fwd(x);
        }
        i += usize::from(x <= y);
        j += usize::from(y <= x);
        if i >= p || j >= q {
            break;
        }
        let (u, v) = unsafe { (*a.get_unchecked(p - 1), *b.get_unchecked(q - 1)) };
        if u == v {
            emit_back(u);
        }
        p -= usize::from(u >= v);
        q -= usize::from(v >= u);
    }
}

/// Four-lane intersection for near-equal-size inputs: `small` is
/// split at its midpoint value, `large` is partitioned at the same
/// value (one binary search), and the two independent half-merges run
/// interleaved in one unrolled loop — four concurrent dependency
/// chains (each half contributes a forward and a backward lane)
/// instead of the two a single [`bidi_merge`] sustains. On the
/// memory-resident equal-size shape the merge is latency-bound, so
/// doubling the chains overlaps twice the load→compare latency.
///
/// Split correctness: both inputs are strictly sorted, so with
/// `pivot = small[mid]`, every element of `small[..mid]` is `< pivot`
/// and can only match inside `large[..cut]`
/// (`cut = partition_point(< pivot)`), and every element of
/// `small[mid..]` is `≥ pivot` and can only match inside
/// `large[cut..]` — the halves are independent.
///
/// Emission: ascending matches of the low half into `emit_a_fwd`,
/// descending (all above them, below the pivot) into `emit_a_back`;
/// same for the high half into `emit_b_fwd` / `emit_b_back`. The full
/// sorted result is `a_fwd ++ reverse(a_back) ++ b_fwd ++
/// reverse(b_back)`.
pub(crate) fn four_lane_intersect<T: Ord + Copy>(
    small: &[T],
    large: &[T],
    mut emit_a_fwd: impl FnMut(T),
    mut emit_a_back: impl FnMut(T),
    mut emit_b_fwd: impl FnMut(T),
    mut emit_b_back: impl FnMut(T),
) {
    let mid = small.len() / 2;
    let pivot = small[mid];
    let cut = large.partition_point(|&v| v < pivot);
    let (sa, sb) = small.split_at(mid);
    let (la, lb) = large.split_at(cut);
    let (mut i0, mut j0, mut p0, mut q0) = (0usize, 0usize, sa.len(), la.len());
    let (mut i1, mut j1, mut p1, mut q1) = (0usize, 0usize, sb.len(), lb.len());
    // Combined loop while both halves have work: one forward and one
    // backward step per half per iteration, all four independent.
    while i0 < p0 && j0 < q0 && i1 < p1 && j1 < q1 {
        // SAFETY: the loop guard bounds all eight cursors; each moves
        // by at most one per step, toward its partner.
        let (x0, y0) = unsafe { (*sa.get_unchecked(i0), *la.get_unchecked(j0)) };
        if x0 == y0 {
            emit_a_fwd(x0);
        }
        i0 += usize::from(x0 <= y0);
        j0 += usize::from(y0 <= x0);
        let (x1, y1) = unsafe { (*sb.get_unchecked(i1), *lb.get_unchecked(j1)) };
        if x1 == y1 {
            emit_b_fwd(x1);
        }
        i1 += usize::from(x1 <= y1);
        j1 += usize::from(y1 <= x1);
        if i0 < p0 && j0 < q0 {
            let (u, v) = unsafe { (*sa.get_unchecked(p0 - 1), *la.get_unchecked(q0 - 1)) };
            if u == v {
                emit_a_back(u);
            }
            p0 -= usize::from(u >= v);
            q0 -= usize::from(v >= u);
        }
        if i1 < p1 && j1 < q1 {
            let (u, v) = unsafe { (*sb.get_unchecked(p1 - 1), *lb.get_unchecked(q1 - 1)) };
            if u == v {
                emit_b_back(u);
            }
            p1 -= usize::from(u >= v);
            q1 -= usize::from(v >= u);
        }
    }
    // Whichever half still has work resumes two-lane.
    bidi_merge(sa, la, i0, j0, p0, q0, emit_a_fwd, emit_a_back);
    bidi_merge(sb, lb, i1, j1, p1, q1, emit_b_fwd, emit_b_back);
}

/// Whether the four-lane path applies: non-galloping, near-equal
/// sizes, and a small side big enough to amortize the split.
#[inline]
fn four_lane_applies(min: usize, max: usize) -> bool {
    min >= FOUR_LANE_MIN && max / min < FOUR_LANE_MAX_RATIO.min(GALLOP_RATIO)
}

/// Galloping intersection of two sorted, deduplicated slices, emitting
/// matches (values of `small` present in `large`) in ascending order:
/// for each needle, exponentially probe forward in the large side, then
/// binary-search the bracketed window. Total cost
/// `O(small · log(large / small))` amortized. Shared by the packed and
/// chunked engines (chunked array containers gallop on `u32`
/// elements).
pub(crate) fn gallop_intersect<T: Ord + Copy>(small: &[T], large: &[T], mut emit: impl FnMut(T)) {
    let mut base = 0usize;
    for &x in small {
        if base >= large.len() {
            break;
        }
        // Probe base, base+1, base+3, base+7, … until a value ≥ x
        // (or the end). Everything before the last sub-x probe is
        // < x, so the binary-search window is [win_lo, hi] with hi
        // included (large[hi] may equal x).
        let mut step = 1usize;
        let mut win_lo = base;
        let mut hi = base;
        while hi < large.len() && large[hi] < x {
            win_lo = hi + 1;
            hi += step;
            step <<= 1;
        }
        let win_hi = if hi < large.len() {
            hi + 1
        } else {
            large.len()
        };
        match large[win_lo..win_hi].binary_search(&x) {
            Ok(at) => {
                emit(x);
                base = win_lo + at + 1;
            }
            Err(at) => base = win_lo + at,
        }
    }
}

/// Streams the k-way merge of `sets` (each sorted + deduped): for every
/// distinct pair, in ascending order, calls `emit(packed, mask)` where
/// bit `i` of `mask` is set iff `sets[i]` contains the pair. The engine
/// under `venn_regions` — one pass, no hashing.
pub(crate) fn kway_merge_masks(sets: &[&PairSet], mut emit: impl FnMut(u64, u32)) {
    assert!(
        sets.len() <= MAX_VENN_SETS,
        "at most {MAX_VENN_SETS} sets supported"
    );
    let mut cursors = vec![0usize; sets.len()];
    loop {
        // Minimum current value across all unfinished sets.
        let mut min: Option<u64> = None;
        for (s, &c) in sets.iter().zip(&cursors) {
            if let Some(&v) = s.packed.get(c) {
                min = Some(min.map_or(v, |m: u64| m.min(v)));
            }
        }
        let Some(v) = min else { break };
        let mut mask = 0u32;
        for (i, (s, c)) in sets.iter().zip(&mut cursors).enumerate() {
            if s.packed.get(*c) == Some(&v) {
                mask |= 1 << i;
                *c += 1;
            }
        }
        emit(v, mask);
    }
}

impl FromIterator<RecordPair> for PairSet {
    fn from_iter<I: IntoIterator<Item = RecordPair>>(iter: I) -> Self {
        let mut packed: Vec<u64> = iter.into_iter().map(pack).collect();
        packed.sort_unstable();
        packed.dedup();
        PairSet { packed }
    }
}

impl<'a> FromIterator<&'a RecordPair> for PairSet {
    fn from_iter<I: IntoIterator<Item = &'a RecordPair>>(iter: I) -> Self {
        iter.into_iter().copied().collect()
    }
}

impl From<&[RecordPair]> for PairSet {
    fn from(pairs: &[RecordPair]) -> Self {
        pairs.iter().copied().collect()
    }
}

impl Extend<RecordPair> for PairSet {
    fn extend<I: IntoIterator<Item = RecordPair>>(&mut self, iter: I) {
        let old = self.packed.len();
        self.packed.extend(iter.into_iter().map(pack));
        if self.packed.len() > old {
            self.packed.sort_unstable();
            self.packed.dedup();
        }
    }
}

impl<'a> IntoIterator for &'a PairSet {
    type Item = RecordPair;
    type IntoIter = std::iter::Map<std::slice::Iter<'a, u64>, fn(&u64) -> RecordPair>;

    fn into_iter(self) -> Self::IntoIter {
        self.packed.iter().map(|&x| unpack(x))
    }
}

impl IntoIterator for PairSet {
    type Item = RecordPair;
    type IntoIter = std::iter::Map<std::vec::IntoIter<u64>, fn(u64) -> RecordPair>;

    fn into_iter(self) -> Self::IntoIter {
        self.packed.into_iter().map(unpack)
    }
}

impl fmt::Display for PairSet {
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

    fn set(pairs: &[(u32, u32)]) -> PairSet {
        pairs
            .iter()
            .map(|&(a, b)| RecordPair::from((a, b)))
            .collect()
    }

    #[test]
    fn pack_roundtrip_preserves_order() {
        let pairs = [(0u32, 1u32), (0, 2), (1, 2), (1, u32::MAX), (5, 9)];
        let mut rp: Vec<RecordPair> = pairs.iter().map(|&p| RecordPair::from(p)).collect();
        rp.sort();
        let mut packed: Vec<u64> = rp.iter().map(|&p| pack(p)).collect();
        let mut sorted = packed.clone();
        sorted.sort_unstable();
        assert_eq!(packed, sorted, "packed order must equal RecordPair order");
        packed.dedup();
        for (&x, &p) in packed.iter().zip(&rp) {
            assert_eq!(unpack(x), p);
        }
    }

    #[test]
    fn construction_dedups_and_sorts() {
        let s = set(&[(3, 1), (0, 1), (1, 3), (0, 1)]);
        assert_eq!(s.len(), 2);
        let collected: Vec<RecordPair> = s.iter().collect();
        assert_eq!(
            collected,
            vec![
                RecordPair::from((0u32, 1u32)),
                RecordPair::from((1u32, 3u32))
            ]
        );
    }

    #[test]
    fn membership_and_insert() {
        let mut s = set(&[(0, 1), (2, 3)]);
        assert!(s.contains(&RecordPair::from((1u32, 0u32))));
        assert!(!s.contains(&RecordPair::from((0u32, 2u32))));
        assert!(s.insert(RecordPair::from((0u32, 2u32))));
        assert!(!s.insert(RecordPair::from((0u32, 2u32))));
        assert_eq!(s.len(), 3);
        assert!(s.contains(&RecordPair::from((0u32, 2u32))));
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
    fn empty_edge_cases() {
        let e = PairSet::new();
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
    fn galloping_agrees_with_merge() {
        // Small side of 4 vs large side of 1000 → galloping path.
        let large: PairSet = (0u32..1000).map(|i| RecordPair::from((i, i + 1))).collect();
        let small = set(&[(0, 1), (500, 501), (999, 1000), (2000, 2001)]);
        let inter = small.intersection(&large);
        assert_eq!(inter, set(&[(0, 1), (500, 501), (999, 1000)]));
        assert_eq!(large.intersection(&small), inter);
        assert_eq!(small.intersection_len(&large), 3);
        // Needle past the end of the large side.
        let past = set(&[(5000, 5001)]);
        assert!(past.intersection(&large).is_empty());
    }

    #[test]
    fn bidirectional_merge_agrees() {
        // Deterministic pseudo-random sets of many sizes/overlaps; the
        // two-lane merge must match a reference filter, sorted, for
        // both the materialized and the counted intersection.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (na, nb) in [(0, 5), (1, 1), (7, 7), (100, 101), (257, 40), (999, 1000)] {
            let mk = |n: usize, next: &mut dyn FnMut() -> u64| -> PairSet {
                (0..n)
                    .map(|_| {
                        let a = (next() % 512) as u32;
                        RecordPair::from((a, a + 1 + (next() % 64) as u32))
                    })
                    .collect()
            };
            let a = mk(na, &mut next);
            let b = mk(nb, &mut next);
            let expected: Vec<RecordPair> = a.iter().filter(|p| b.contains(p)).collect();
            let got: Vec<RecordPair> = a.intersection(&b).iter().collect();
            assert_eq!(got, expected, "sizes {na}/{nb}");
            assert_eq!(a.intersection_len(&b), expected.len(), "sizes {na}/{nb}");
            assert_eq!(b.intersection(&a).iter().collect::<Vec<_>>(), expected);
        }
    }

    #[test]
    fn four_lane_merge_agrees_across_the_dispatch_boundaries() {
        // Deterministic stream, sizes straddling FOUR_LANE_MIN and the
        // equal-size ratio bound: every dispatch (2-lane, 4-lane,
        // gallop) must agree with the reference filter.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mk = |n: usize, next: &mut dyn FnMut() -> u64| -> PairSet {
            (0..n)
                .map(|_| {
                    let a = (next() % 4096) as u32;
                    RecordPair::from((a, a + 1 + (next() % 16) as u32))
                })
                .collect()
        };
        let sizes = [
            (FOUR_LANE_MIN - 1, FOUR_LANE_MIN - 1), // below the min: 2-lane
            (FOUR_LANE_MIN, FOUR_LANE_MIN),         // exactly at the min: 4-lane
            (FOUR_LANE_MIN, FOUR_LANE_MIN * 2 - 1), // ratio just under 2: 4-lane
            (FOUR_LANE_MIN, FOUR_LANE_MIN * 2),     // ratio 2: back to 2-lane
            (500, 700),                             // big near-equal: 4-lane
            (64, 64),
        ];
        for (na, nb) in sizes {
            let a = mk(na, &mut next);
            let b = mk(nb, &mut next);
            let expected: Vec<RecordPair> = a.iter().filter(|p| b.contains(p)).collect();
            assert_eq!(
                a.intersection(&b).iter().collect::<Vec<_>>(),
                expected,
                "sizes {na}/{nb}"
            );
            assert_eq!(
                b.intersection(&a).iter().collect::<Vec<_>>(),
                expected,
                "sizes {nb}/{na}"
            );
            assert_eq!(a.intersection_len(&b), expected.len(), "sizes {na}/{nb}");
            assert_eq!(b.intersection_len(&a), expected.len(), "sizes {nb}/{na}");
        }
    }

    #[test]
    fn four_lane_merge_handles_disjoint_and_identical_sets() {
        let n = FOUR_LANE_MIN * 4;
        let evens: PairSet = (0..n as u32)
            .map(|i| RecordPair::from((2 * i, 2 * i + 1)))
            .collect();
        let odds: PairSet = (0..n as u32)
            .map(|i| RecordPair::from((2 * i + 1, 2 * i + 2)))
            .collect();
        assert!(evens.intersection(&odds).is_empty());
        assert_eq!(evens.intersection_len(&odds), 0);
        assert_eq!(evens.intersection(&evens), evens);
        assert_eq!(evens.intersection_len(&evens), n);
    }

    #[test]
    fn kway_masks_enumerate_memberships() {
        let (a, b) = (set(&[(0, 1), (0, 2)]), set(&[(0, 1), (2, 3)]));
        let mut seen = Vec::new();
        kway_merge_masks(&[&a, &b], |x, mask| seen.push((unpack(x), mask)));
        assert_eq!(
            seen,
            vec![
                (RecordPair::from((0u32, 1u32)), 0b11),
                (RecordPair::from((0u32, 2u32)), 0b01),
                (RecordPair::from((2u32, 3u32)), 0b10),
            ]
        );
    }

    #[test]
    fn extend_and_iterators() {
        let mut s = set(&[(0, 1)]);
        s.extend([
            RecordPair::from((2u32, 3u32)),
            RecordPair::from((0u32, 1u32)),
        ]);
        assert_eq!(s.len(), 2);
        let byref: Vec<RecordPair> = (&s).into_iter().collect();
        let owned: Vec<RecordPair> = s.clone().into_iter().collect();
        assert_eq!(byref, owned);
        assert_eq!(s.to_string(), "{{#0, #1}, {#2, #3}}");
    }
}
