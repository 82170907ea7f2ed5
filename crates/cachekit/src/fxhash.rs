//! A deterministic, allocation-free hasher for the cache's internal index.
//!
//! `std`'s default `HashMap` hasher (SipHash-1-3 with a random seed) costs
//! tens of nanoseconds per small key — measurable when every simulated
//! request performs several cache lookups. The index map never exposes
//! iteration order, so swapping the hasher cannot change any simulated
//! outcome; it only removes wall-clock cost. This is the FxHash
//! multiply-mix (as used by rustc), which is not DoS-resistant — fine for a
//! simulator hashing its own deterministic keys, wrong for a network
//! service.

use std::hash::{BuildHasherDefault, Hasher};

pub(crate) const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// FxHash: one multiply + rotate per word of input.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail) ^ rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] — use as the `S` parameter of `HashMap`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` indexed by the deterministic fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_bytes(b: &[u8]) -> u64 {
        let mut h = FxHasher::default();
        h.write(b);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_bytes(b"hello world"), hash_bytes(b"hello world"));
        assert_ne!(hash_bytes(b"hello world"), hash_bytes(b"hello worle"));
    }

    #[test]
    fn short_inputs_do_not_collide_trivially() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            assert!(seen.insert(h.finish()), "collision at {i}");
        }
    }

    #[test]
    fn tail_bytes_are_significant() {
        assert_ne!(hash_bytes(b"12345678a"), hash_bytes(b"12345678b"));
        assert_ne!(hash_bytes(b"12345678"), hash_bytes(b"123456780"));
    }
}
