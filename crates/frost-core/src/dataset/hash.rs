//! The seeded hash behind the import path's open-addressing tables
//! (the native-id index and the pair deduplicator).
//!
//! Both tables hash input an uploader chooses — record ids and the
//! pairs they name — so the function is keyed: each table draws its
//! two keys once from the standard library's [`RandomState`], and no
//! upload can be crafted against a fixed function. The mixing step is
//! a folded 64×64→128-bit multiply by a key, cheap enough to run once
//! per field of an upload.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// A keyed hash of `u64`s and byte strings.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SeededHash {
    k0: u64,
    k1: u64,
}

/// The low and high halves of the 128-bit product, xor-ed.
#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let p = (a as u128) * (b as u128);
    (p as u64) ^ ((p >> 64) as u64)
}

impl SeededHash {
    /// Keys drawn from a fresh [`RandomState`].
    pub(crate) fn new() -> Self {
        let state = RandomState::new();
        Self {
            k0: state.hash_one(0x243f_6a88_85a3_08d3u64),
            // An odd multiplier keeps every bit of the input in play.
            k1: state.hash_one(0x1319_8a2e_0370_7344u64) | 1,
        }
    }

    #[inline]
    pub(crate) fn u64(&self, x: u64) -> u64 {
        fold(x ^ self.k0, self.k1)
    }

    #[inline]
    pub(crate) fn bytes(&self, bytes: &[u8]) -> u64 {
        let mut h = self.k0 ^ (bytes.len() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            h = fold(
                h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk")),
                self.k1,
            );
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            h = fold(h ^ u64::from_le_bytes(w), self.k1);
        }
        fold(h, self.k1 ^ self.k0)
    }
}

/// Slot count of an open-addressing table for `n` entries: a power of
/// two (at least 8) that keeps the load at or below [`max_load`].
pub(crate) fn table_size(n: usize) -> usize {
    (n + n / 3 + 1).next_power_of_two().max(8)
}

/// Whether a table of `slots` slots must grow before its `len + 1`-th
/// entry: linear probing stays short up to a load of 3/4.
#[inline]
pub(crate) fn max_load(len: usize, slots: usize) -> bool {
    (len + 1) * 4 > slots * 3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_differ_per_instance_and_inputs_spread() {
        let (a, b) = (SeededHash::new(), SeededHash::new());
        assert_ne!(a.bytes(b"r1"), b.bytes(b"r1"));
        let h = SeededHash::new();
        // Length is part of the input: zero padding does not collide.
        assert_ne!(h.bytes(b"ab"), h.bytes(b"ab\0"));
        assert_ne!(h.bytes(b""), h.bytes(b"\0"));
        assert_ne!(h.u64(1), h.u64(2));
    }

    #[test]
    fn table_size_bounds_the_load() {
        for n in [0, 1, 5, 6, 7, 100, 20_000] {
            let slots = table_size(n);
            assert!(slots.is_power_of_two() && slots >= 8);
            assert!(!max_load(n.saturating_sub(1), slots), "n={n}");
        }
    }
}
