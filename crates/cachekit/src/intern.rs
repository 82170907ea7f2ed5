//! Key interning: resolve a byte key to a small copyable id once, then pass
//! the id through the serve path instead of re-allocating and re-hashing
//! the bytes at every layer.
//!
//! The simulated services address values by `table/key` byte strings. The
//! pre-interning hot path built that `Vec<u8>` per request and hashed it
//! separately in the sharder ring, the cache index, the admission sketch,
//! and the single-flight table. An [`InternedKey`] carries the two hashes
//! the serving layers need — the routing hash ([`stable_hash`] of the
//! bytes, which consistent-hash rings and MRC profilers consume) and the
//! admission-sketch hash (byte-identical to what the cache computed over
//! the raw `Vec<u8>` key, so TinyLFU decisions are unchanged) — plus a
//! dense u32 id that makes cache-index hashing a single word multiply.
//!
//! Interning is a pure wall-clock optimization: every hash an `InternedKey`
//! exposes equals the hash the same byte key produced before, so routing,
//! admission, eviction, and every simulated outcome stay byte-identical.

use crate::cache::legacy_sketch_hash;
use crate::fxhash::FxHashMap;
use crate::ring::stable_hash;
use crate::CacheKeyHash;
use std::hash::{Hash, Hasher};

/// A small, copyable stand-in for an interned byte key.
///
/// Equality and hashing go through the dense id (two interned keys are equal
/// iff their bytes were equal, because the interner is bijective), so using
/// `InternedKey` as a `HashMap`/[`crate::Cache`] key costs one word hash
/// instead of a byte-string walk.
#[derive(Debug, Clone, Copy)]
pub struct InternedKey {
    id: u32,
    route_hash: u64,
    sketch_hash: u64,
}

impl InternedKey {
    /// Dense id in `[0, interner.len())`.
    pub fn id(self) -> u32 {
        self.id
    }

    /// [`stable_hash`] of the original bytes — feed to
    /// [`crate::HashRing::shard_for_hashed`] and MRC profilers.
    pub fn route_hash(self) -> u64 {
        self.route_hash
    }
}

impl PartialEq for InternedKey {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for InternedKey {}

impl Hash for InternedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u32(self.id);
    }
}

impl CacheKeyHash for InternedKey {
    fn sketch_hash(&self) -> u64 {
        self.sketch_hash
    }
}

/// Longest key stored inline in the interner's table; longer keys are
/// boxed. Covers every `table/<8-byte key>` cache key of a table name up
/// to 14 bytes.
const INLINE_KEY_BYTES: usize = 23;

/// A key of at most [`INLINE_KEY_BYTES`] bytes packed into three
/// little-endian words: the bytes zero-padded, the length in the top byte.
/// Packing is injective, so the table hashes and compares three words and
/// never reads the key's bytes again.
#[derive(Debug, Clone, Copy)]
struct ShortKey([u64; 3]);

impl ShortKey {
    fn pack(bytes: &[u8]) -> Self {
        debug_assert!(bytes.len() <= INLINE_KEY_BYTES);
        let word = |at: usize| {
            bytes
                .get(at..)
                .map_or(0, |rest| le_word(&rest[..rest.len().min(8)]))
        };
        ShortKey([word(0), word(8), word(16) | (bytes.len() as u64) << 56])
    }
}

/// `b` (at most 8 bytes) as a zero-padded little-endian word, read with
/// two overlapping loads instead of a variable-length copy.
fn le_word(b: &[u8]) -> u64 {
    let n = b.len();
    if n >= 4 {
        let lo = u32::from_le_bytes(b[..4].try_into().expect("4-byte window")) as u64;
        let hi = u32::from_le_bytes(b[n - 4..].try_into().expect("4-byte window")) as u64;
        lo | hi << (8 * (n - 4))
    } else if n > 0 {
        b[0] as u64 | (b[n / 2] as u64) << (8 * (n / 2)) | (b[n - 1] as u64) << (8 * (n - 1))
    } else {
        0
    }
}

impl PartialEq for ShortKey {
    fn eq(&self, other: &Self) -> bool {
        let [a, b, c] = self.0;
        let [x, y, z] = other.0;
        (a ^ x) | (b ^ y) | (c ^ z) == 0
    }
}

impl Eq for ShortKey {}

impl Hash for ShortKey {
    /// Mixes the words FxHash-style, then rotates the well-mixed high bits
    /// down: the table indexes buckets by the low bits, which a final
    /// multiply alone leaves dependent on the low bytes of the last word.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut h = 0u64;
        for w in self.0 {
            h = (h.rotate_left(5) ^ w).wrapping_mul(crate::fxhash::SEED);
        }
        state.write_u64(h.rotate_left(26));
    }
}

/// Bijective bytes ↔ id table. Ids are handed out densely in first-intern
/// order, so a given request stream always produces the same ids.
///
/// Short keys live inline in the table next to their [`InternedKey`], so a
/// lookup is one probe with no pointer to follow and allocates nothing;
/// longer keys are boxed. Every key's bytes are also appended to one
/// arena, in id order, for [`KeyInterner::resolve`].
#[derive(Debug, Default)]
pub struct KeyInterner {
    short: FxHashMap<ShortKey, InternedKey>,
    long: FxHashMap<Box<[u8]>, InternedKey>,
    /// Every interned key's bytes back to back, in id order.
    arena: Vec<u8>,
    /// `ends[id]`: where key `id`'s bytes end in `arena`.
    ends: Vec<u32>,
}

impl KeyInterner {
    pub fn new() -> Self {
        KeyInterner::default()
    }

    /// Number of distinct keys interned so far.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The id for `bytes`, interning on first sight. The returned key's
    /// hashes equal `stable_hash(bytes)` and the cache's legacy sketch hash
    /// of the same bytes, so downstream behaviour is unchanged.
    pub fn intern(&mut self, bytes: &[u8]) -> InternedKey {
        let KeyInterner {
            short,
            long,
            arena,
            ends,
        } = self;
        if bytes.len() <= INLINE_KEY_BYTES {
            return *short
                .entry(ShortKey::pack(bytes))
                .or_insert_with(|| assign(arena, ends, bytes));
        }
        if let Some(&key) = long.get(bytes) {
            return key;
        }
        let key = assign(arena, ends, bytes);
        long.insert(bytes.into(), key);
        key
    }

    /// The id for `bytes` if it was interned before (no insertion).
    pub fn get(&self, bytes: &[u8]) -> Option<InternedKey> {
        if bytes.len() <= INLINE_KEY_BYTES {
            self.short.get(&ShortKey::pack(bytes)).copied()
        } else {
            self.long.get(bytes).copied()
        }
    }

    /// The original bytes of an interned key.
    pub fn resolve(&self, key: InternedKey) -> &[u8] {
        let id = key.id as usize;
        let start = id.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        &self.arena[start..self.ends[id] as usize]
    }
}

/// Give `bytes` the next id: append them to the arena and hash them.
fn assign(arena: &mut Vec<u8>, ends: &mut Vec<u32>, bytes: &[u8]) -> InternedKey {
    let id = u32::try_from(ends.len()).expect("interner overflow");
    arena.extend_from_slice(bytes);
    ends.push(u32::try_from(arena.len()).expect("interner arena overflow"));
    InternedKey {
        id,
        route_hash: stable_hash(bytes),
        sketch_hash: legacy_sketch_hash(bytes),
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
        assert_eq!(i.resolve(a), b"table/1");
        assert_eq!(i.resolve(b), b"table/2");
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

    /// Keys around the inline limit, keys that differ only in trailing or
    /// embedded zeros, and long keys all intern to distinct ids, resolve
    /// to their bytes and keep their hashes.
    #[test]
    fn keys_around_the_inline_limit_round_trip() {
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
        keys.extend([
            b"a".to_vec(),
            b"a\0".to_vec(),
            b"a\0\0".to_vec(),
            b"\0a".to_vec(),
        ]);
        keys.sort();
        keys.dedup();

        let mut i = KeyInterner::new();
        let ids: Vec<InternedKey> = keys.iter().map(|k| i.intern(k)).collect();
        assert_eq!(i.len(), keys.len());
        for (n, (k, id)) in keys.iter().zip(&ids).enumerate() {
            assert_eq!(id.id() as usize, n, "ids are dense in first-sight order");
            assert_eq!(i.resolve(*id), k.as_slice());
            assert_eq!(i.get(k), Some(*id));
            assert_eq!(i.intern(k), *id, "re-interning returns the same key");
            assert_eq!(id.route_hash(), stable_hash(k));
            assert_eq!(id.sketch_hash(), k.as_slice().sketch_hash());
        }
        assert_eq!(i.len(), keys.len(), "re-interning added nothing");
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = KeyInterner::new();
        assert_eq!(i.get(b"missing"), None);
        let k = i.intern(b"present");
        assert_eq!(i.get(b"present"), Some(k));
        assert_eq!(i.len(), 1);
        let long = [7u8; INLINE_KEY_BYTES + 1];
        assert_eq!(i.get(&long), None);
        assert_eq!(i.len(), 1);
        let k = i.intern(&long);
        assert_eq!(i.get(&long), Some(k));
        assert_eq!(i.get(&long[1..]), None);
        assert_eq!(i.len(), 2);
    }
}
