//! Key interning: turn a cache key's bytes into a small copyable
//! [`InternedKey`] once per request, then pass that key through the serve
//! path instead of re-allocating and re-hashing the bytes at every layer.
//!
//! The simulated services address values by `table/key` byte strings. The
//! pre-interning hot path built that `Vec<u8>` per request and hashed it
//! separately in the sharder ring, the cache index, the admission sketch,
//! and the single-flight table. An [`InternedKey`] carries the two hashes
//! the serving layers need — the routing hash ([`stable_hash`] of the
//! bytes, which consistent-hash rings and MRC profilers consume) and the
//! admission-sketch hash (byte-identical to what the cache computed over
//! the raw `Vec<u8>` key, so TinyLFU decisions are unchanged) — plus a
//! 24-byte identity that `Eq` compares:
//!
//! - a key of at most [`INLINE_KEY_BYTES`] bytes is its own identity: its
//!   bytes zero-padded, its length in the last byte. Interning it reads
//!   and writes no interner state and allocates nothing;
//! - a longer key gets a dense id from the interner's boxed table, held
//!   as the id's bytes, zeros, then [`LONG_TAG`]. No short key has that
//!   last byte, so the two kinds never compare equal.
//!
//! Interning is a pure wall-clock optimization: every hash an `InternedKey`
//! exposes equals the hash the same byte key produced before, so routing,
//! admission, eviction, and every simulated outcome stay byte-identical.

use crate::cache::legacy_sketch_hash;
use crate::fxhash::FxHashMap;
use crate::ring::stable_hash;
use crate::CacheKeyHash;
use std::hash::{Hash, Hasher};

/// Longest key that is its own identity; longer keys get an id from the
/// interner's table. Covers every `table/<8-byte key>` cache key of a
/// table name up to 14 bytes.
const INLINE_KEY_BYTES: usize = 23;

/// Last identity byte of a long key. A short key's last byte is its
/// length, at most [`INLINE_KEY_BYTES`].
const LONG_TAG: u8 = 0xFF;

/// A small, copyable stand-in for a cache key's bytes.
///
/// Two keys are equal iff their bytes are equal: a short key compares its
/// packed bytes, a long key its id, which the interner hands out
/// bijectively. `Hash` writes the precomputed route hash, so using
/// `InternedKey` as a `HashMap`/[`crate::Cache`] key costs one word hash
/// instead of a byte-string walk.
#[derive(Debug, Clone, Copy)]
pub struct InternedKey {
    /// A short key's bytes zero-padded, its length in the last byte; a
    /// long key's id in the first four bytes and [`LONG_TAG`] in the last.
    packed: [u8; 24],
    route_hash: u64,
    sketch_hash: u64,
}

impl InternedKey {
    /// The key for `bytes` of at most [`INLINE_KEY_BYTES`] bytes.
    fn short(bytes: &[u8]) -> Self {
        let mut packed = [0u8; 24];
        packed[..bytes.len()].copy_from_slice(bytes);
        packed[23] = bytes.len() as u8;
        InternedKey::hashed(packed, bytes)
    }

    /// The key for the long key `bytes` that the interner numbered `id`.
    fn long(id: u32, bytes: &[u8]) -> Self {
        let mut packed = [0u8; 24];
        packed[..4].copy_from_slice(&id.to_le_bytes());
        packed[23] = LONG_TAG;
        InternedKey::hashed(packed, bytes)
    }

    fn hashed(packed: [u8; 24], bytes: &[u8]) -> Self {
        InternedKey {
            packed,
            route_hash: stable_hash(bytes),
            sketch_hash: legacy_sketch_hash(bytes),
        }
    }

    /// [`stable_hash`] of the original bytes — feed to
    /// [`crate::HashRing::shard_for_hashed`] and MRC profilers.
    pub fn route_hash(self) -> u64 {
        self.route_hash
    }
}

impl PartialEq for InternedKey {
    fn eq(&self, other: &Self) -> bool {
        self.packed == other.packed
    }
}

impl Eq for InternedKey {}

impl Hash for InternedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.route_hash);
    }
}

impl CacheKeyHash for InternedKey {
    fn sketch_hash(&self) -> u64 {
        self.sketch_hash
    }
}

/// Bytes ↔ id table for keys longer than [`INLINE_KEY_BYTES`]. Ids are
/// handed out densely in first-intern order, so a given request stream
/// always produces the same ids. Short keys never touch it.
///
/// Each long key is boxed in the lookup table, and its bytes are also
/// appended to one arena, in id order, for [`KeyInterner::resolve`].
#[derive(Debug, Default)]
pub struct KeyInterner {
    long: FxHashMap<Box<[u8]>, InternedKey>,
    /// Every long key's bytes back to back, in id order.
    arena: Vec<u8>,
    /// `ends[id]`: where long key `id`'s bytes end in `arena`.
    ends: Vec<u32>,
}

impl KeyInterner {
    pub fn new() -> Self {
        KeyInterner::default()
    }

    /// Number of distinct long keys interned so far.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The key for `bytes`; a long key gets its id on first sight. The
    /// returned key's hashes equal `stable_hash(bytes)` and the cache's
    /// legacy sketch hash of the same bytes, so downstream behaviour is
    /// unchanged.
    pub fn intern(&mut self, bytes: &[u8]) -> InternedKey {
        if bytes.len() <= INLINE_KEY_BYTES {
            return InternedKey::short(bytes);
        }
        if let Some(&key) = self.long.get(bytes) {
            return key;
        }
        let id = u32::try_from(self.ends.len()).expect("interner overflow");
        self.arena.extend_from_slice(bytes);
        self.ends
            .push(u32::try_from(self.arena.len()).expect("interner arena overflow"));
        let key = InternedKey::long(id, bytes);
        self.long.insert(bytes.into(), key);
        key
    }

    /// The key for `bytes` without interning: a short key always has one,
    /// a long key only once it was interned.
    pub fn get(&self, bytes: &[u8]) -> Option<InternedKey> {
        if bytes.len() <= INLINE_KEY_BYTES {
            Some(InternedKey::short(bytes))
        } else {
            self.long.get(bytes).copied()
        }
    }

    /// The original bytes of `key`: a short key holds them, a long key's
    /// are read from the arena.
    pub fn resolve<'a>(&'a self, key: &'a InternedKey) -> &'a [u8] {
        match key.packed[23] {
            LONG_TAG => {
                let id =
                    u32::from_le_bytes(key.packed[..4].try_into().expect("4-byte id")) as usize;
                let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
                &self.arena[start..self.ends[id] as usize]
            }
            len => &key.packed[..len as usize],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_bijective() {
        let mut i = KeyInterner::new();
        let a = i.intern(b"table/1");
        let b = i.intern(b"table/2");
        let a2 = i.intern(b"table/1");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(&a), b"table/1");
        assert_eq!(i.resolve(&b), b"table/2");
        assert!(i.is_empty(), "short keys take no interner state");

        let long_a = i.intern(b"a_table_with_a_long_name/1");
        let long_b = i.intern(b"a_table_with_a_long_name/2");
        assert_eq!(i.intern(b"a_table_with_a_long_name/1"), long_a);
        assert_ne!(long_a, long_b);
        assert_eq!(i.resolve(&long_a), b"a_table_with_a_long_name/1");
        assert_eq!(i.resolve(&long_b), b"a_table_with_a_long_name/2");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn hashes_match_the_byte_key_paths() {
        let mut i = KeyInterner::new();
        for bytes in [b"kv/abcdefg".as_slice(), b"".as_slice(), b"x".as_slice()] {
            let k = i.intern(bytes);
            assert_eq!(k.route_hash(), stable_hash(bytes));
            assert_eq!(k.sketch_hash(), bytes.sketch_hash());
            assert_eq!(k.sketch_hash(), bytes.to_vec().sketch_hash());
        }
    }

    /// Keys of 0–32 bytes around the inline limit, keys that differ only
    /// in trailing or embedded zeros, and short keys laid out like a long
    /// key's `[id, 0, ..]` identity.
    fn corpus() -> Vec<Vec<u8>> {
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for len in 0..=INLINE_KEY_BYTES + 9 {
            keys.push((0..len).map(|i| b'a' + (i % 26) as u8).collect());
            keys.push(vec![0u8; len]);
            keys.push(vec![0xFF; len]);
            let mut embedded = vec![b'k'; len];
            if len > 2 {
                embedded[len / 2] = 0;
            }
            keys.push(embedded);
        }
        for id in 0u32..4 {
            for len in 4..=INLINE_KEY_BYTES {
                let mut k = vec![0u8; len];
                k[..4].copy_from_slice(&id.to_le_bytes());
                keys.push(k);
            }
        }
        keys.extend([
            b"a".to_vec(),
            b"a\0".to_vec(),
            b"a\0\0".to_vec(),
            b"\0a".to_vec(),
        ]);
        keys.sort();
        keys.dedup();
        keys
    }

    /// On the corpus, keys are equal exactly when their bytes are, resolve
    /// to their bytes, keep both hashes, and do not depend on what the
    /// interner saw before.
    #[test]
    fn keys_around_the_inline_limit_round_trip() {
        let keys = corpus();
        let mut forward = KeyInterner::new();
        let ids: Vec<InternedKey> = keys.iter().map(|k| forward.intern(k)).collect();
        let long_keys = keys.iter().filter(|k| k.len() > INLINE_KEY_BYTES).count();
        assert_eq!(forward.len(), long_keys, "only long keys get ids");

        for (k, id) in keys.iter().zip(&ids) {
            assert_eq!(forward.resolve(id), k.as_slice());
            assert_eq!(forward.get(k), Some(*id));
            assert_eq!(forward.intern(k), *id, "re-interning returns the same key");
            assert_eq!(id.route_hash(), stable_hash(k));
            assert_eq!(id.sketch_hash(), k.as_slice().sketch_hash());
        }
        assert_eq!(forward.len(), long_keys, "re-interning added nothing");

        // All pairs, long against short included: the corpus has short
        // look-alikes of the first long ids, so a tag that failed to keep
        // the kinds apart would show here.
        assert!(long_keys > 4);
        for (a, ka) in keys.iter().zip(&ids) {
            for (b, kb) in keys.iter().zip(&ids) {
                assert_eq!(ka == kb, a == b, "{a:?} vs {b:?}");
            }
        }

        // A second interner that sees the corpus in the opposite order
        // numbers the long keys the other way round; every key is still
        // equal to the same bytes' key, and short keys are the very same.
        let mut reverse = KeyInterner::new();
        let rev_ids: Vec<InternedKey> = keys.iter().rev().map(|k| reverse.intern(k)).collect();
        for ((k, id), rev) in keys.iter().zip(&ids).zip(rev_ids.iter().rev()) {
            assert_eq!(reverse.resolve(rev), k.as_slice());
            assert_eq!(rev.route_hash(), id.route_hash());
            assert_eq!(rev.sketch_hash(), id.sketch_hash());
            if k.len() <= INLINE_KEY_BYTES {
                assert_eq!(rev, id, "a short key's identity is its bytes");
            }
        }
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = KeyInterner::new();
        let k = i.intern(b"present");
        assert_eq!(i.get(b"present"), Some(k));
        assert!(i.is_empty());
        let long = [7u8; INLINE_KEY_BYTES + 1];
        assert_eq!(i.get(&long), None);
        assert!(i.is_empty());
        let k = i.intern(&long);
        assert_eq!(i.get(&long), Some(k));
        let short = i.intern(&long[1..]);
        assert_eq!(i.get(&long[1..]), Some(short));
        assert_eq!(i.len(), 1);
        let longer = [7u8; INLINE_KEY_BYTES + 2];
        assert_eq!(i.get(&longer), None);
        assert_eq!(i.len(), 1);
    }
}
