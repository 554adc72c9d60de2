//! The native (import-time) ids of a dataset's records.
//!
//! Every id lives once, in one arena: a `String` holding the ids back
//! to back, and `u32` end offsets indexed by [`RecordId`]. An
//! open-addressing table of record ids indexes the arena for
//! [`Dataset::resolve_native`](super::Dataset::resolve_native): each
//! slot holds a record id and a 32-bit fingerprint of its hash, so a
//! probe compares strings only on a fingerprint match. The hash is
//! keyed once per dataset ([`SeededHash`]), since uploads choose the
//! ids that are looked up. Each id is stored once, no record owns a
//! heap object for it, and a lookup touches one 8-byte slot plus the
//! arena.

use super::hash::{max_load, table_size, SeededHash};
use super::RecordId;

/// One table slot; a zero fingerprint marks it empty.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    fingerprint: u32,
    id: u32,
}

/// The non-zero fingerprint of a hash: its high half (the slot index
/// comes from the low bits), with the lowest bit forced on.
#[inline]
fn fingerprint(hash: u64) -> u32 {
    (hash >> 32) as u32 | 1
}

/// The arena of native ids and its index.
#[derive(Debug, Clone)]
pub(crate) struct NativeIds {
    arena: String,
    ends: Vec<u32>,
    slots: Vec<Slot>,
    hash: SeededHash,
}

/// Equal when the same ids were pushed in the same order; the index's
/// keys and layout do not take part.
impl PartialEq for NativeIds {
    fn eq(&self, other: &Self) -> bool {
        self.ends == other.ends && self.arena == other.arena
    }
}

impl Eq for NativeIds {}

impl NativeIds {
    /// An empty index with room for `capacity` ids.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Self {
            arena: String::new(),
            ends: Vec::with_capacity(capacity),
            slots: vec![Slot::default(); table_size(capacity)],
            hash: SeededHash::new(),
        }
    }

    /// Number of ids.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Makes room for `bytes` more bytes of ids in the arena.
    pub(crate) fn reserve_bytes(&mut self, bytes: usize) {
        self.arena.reserve_exact(bytes);
    }

    /// The native id of record `id`.
    pub(crate) fn get(&self, id: RecordId) -> &str {
        let i = id.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.arena[start..self.ends[i] as usize]
    }

    /// The record whose native id is `native`.
    pub(crate) fn find(&self, native: &str) -> Option<RecordId> {
        self.probe(self.hash.bytes(native.as_bytes()), native).ok()
    }

    /// Appends `native` as the id of the next record, or returns `None`
    /// and changes nothing if `native` is already present.
    ///
    /// # Panics
    /// Panics if the arena would outgrow its `u32` offsets.
    pub(crate) fn try_push(&mut self, native: &str) -> Option<RecordId> {
        let id = RecordId(u32::try_from(self.ends.len()).expect("more than u32::MAX records"));
        if max_load(self.ends.len(), self.slots.len()) {
            self.grow();
        }
        let hash = self.hash.bytes(native.as_bytes());
        let free = self.probe(hash, native).err()?;
        let end = u32::try_from(self.arena.len() + native.len()).expect("native ids exceed 4 GiB");
        self.slots[free] = Slot {
            fingerprint: fingerprint(hash),
            id: id.0,
        };
        self.arena.push_str(native);
        self.ends.push(end);
        Some(id)
    }

    /// `Ok(id)` of the record holding `native`, or `Err(slot)` of the
    /// empty slot it would take.
    #[inline]
    fn probe(&self, hash: u64, native: &str) -> Result<RecordId, usize> {
        let mask = self.slots.len() - 1;
        let fp = fingerprint(hash);
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.fingerprint == 0 {
                return Err(i);
            }
            if slot.fingerprint == fp && self.get(RecordId(slot.id)) == native {
                return Ok(RecordId(slot.id));
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table and re-inserts every id from the arena.
    fn grow(&mut self) {
        let slots = vec![Slot::default(); self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, slots);
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|s| s.fingerprint != 0) {
            let hash = self.hash.bytes(self.get(RecordId(slot.id)).as_bytes());
            let mut i = hash as usize & mask;
            while self.slots[i].fingerprint != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }
}
