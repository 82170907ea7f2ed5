//! MVCC key-value engine — the TiKV analogue.
//!
//! Every write is assigned a monotonically increasing commit version; reads
//! see the latest version at or below their snapshot. Deletes write
//! tombstones. This versioning is exactly what the paper's §5.5 version
//! check reads: "returning the row's 8-byte version column".
//!
//! # Layout: a flat memtable
//!
//! The engine is one `BTreeMap` from key to version chain, laid out so a
//! typical row owns no heap allocation of its own:
//!
//! - keys and values are [`InlineBytes`]: up to [`INLINE_BYTES`] bytes sit
//!   inside the B-tree node, longer strings in a boxed slice. The `kv`
//!   table's 14-byte record keys and 28-byte encoded rows stay inline, so a
//!   lookup compares keys without following a pointer;
//! - a key's newest version sits inline in its chain. Older versions spill
//!   to a `Vec` on the key's second write;
//! - [`KvEngine::bulk_load`] sorts a batch of writes, folds repeated keys
//!   into chains and builds the tree from the sorted run, so a loaded
//!   dataset lives in full B-tree nodes and nothing else.
//!
//! Keys are raw byte strings produced by the order-preserving encoders in
//! this module, so prefix and range scans work for both primary-key and
//! secondary-index layouts:
//!
//! ```text
//! t/<table>/<pk>          -> encoded row          (record space)
//! i/<table>/<col>/<val>/<pk> -> ""                (index space)
//! ```

use crate::value::Datum;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::ops::{Bound, Deref};

/// A raw storage key.
pub type Key = Vec<u8>;

/// Longest byte string [`InlineBytes`] stores without a heap allocation.
/// Chosen so the whole type is 32 bytes.
pub const INLINE_BYTES: usize = 30;

/// A byte string stored inline up to [`INLINE_BYTES`] bytes and in a boxed
/// slice above that. Compares and orders exactly like its `[u8]`
/// contents, so a `BTreeMap` keyed by it orders keys byte-wise and can be
/// searched with a `&[u8]`.
#[derive(Clone)]
pub struct InlineBytes(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u8; INLINE_BYTES] },
    Heap(Box<[u8]>),
}

impl InlineBytes {
    pub fn as_slice(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(bytes) => bytes,
        }
    }

    fn inline(bytes: &[u8]) -> Self {
        let mut buf = [0u8; INLINE_BYTES];
        buf[..bytes.len()].copy_from_slice(bytes);
        InlineBytes(Repr::Inline {
            len: bytes.len() as u8,
            buf,
        })
    }
}

impl From<&[u8]> for InlineBytes {
    fn from(bytes: &[u8]) -> Self {
        if bytes.len() <= INLINE_BYTES {
            Self::inline(bytes)
        } else {
            InlineBytes(Repr::Heap(bytes.into()))
        }
    }
}

impl From<Vec<u8>> for InlineBytes {
    fn from(bytes: Vec<u8>) -> Self {
        if bytes.len() <= INLINE_BYTES {
            Self::inline(&bytes)
        } else {
            InlineBytes(Repr::Heap(bytes.into_boxed_slice()))
        }
    }
}

impl Deref for InlineBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for InlineBytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Offsets of the four big-endian words that cover an inline buffer. The
/// last overlaps the third by two bytes, which are already equal whenever
/// it is compared.
const WORD_AT: [usize; 4] = [0, 8, 16, INLINE_BYTES - 8];
const _: () = assert!(INLINE_BYTES > 24 && INLINE_BYTES <= 32);

/// Byte-wise order of two zero-padded inline buffers, a word at a time.
fn cmp_padded(x: &[u8; INLINE_BYTES], y: &[u8; INLINE_BYTES]) -> Ordering {
    let word = |buf: &[u8; INLINE_BYTES], at: usize| {
        u64::from_be_bytes(buf[at..at + 8].try_into().expect("8-byte window"))
    };
    for at in WORD_AT {
        let (a, b) = (word(x, at), word(y, at));
        if a != b {
            return a.cmp(&b);
        }
    }
    Ordering::Equal
}

impl PartialEq for InlineBytes {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Repr::Inline { len: a, buf: x }, Repr::Inline { len: b, buf: y }) => {
                a == b && cmp_padded(x, y).is_eq()
            }
            _ => self.as_slice() == other.as_slice(),
        }
    }
}

impl Eq for InlineBytes {}

impl PartialOrd for InlineBytes {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InlineBytes {
    /// Two inline strings compare as zero-padded big-endian words, then by
    /// length. That is byte-wise order: the first differing padded byte is
    /// either a real difference or a padding zero against a real byte of
    /// the longer string, and equal padded buffers leave the shorter string
    /// a prefix of the longer.
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::Inline { len: a, buf: x }, Repr::Inline { len: b, buf: y }) => {
                cmp_padded(x, y).then(a.cmp(b))
            }
            _ => self.as_slice().cmp(other.as_slice()),
        }
    }
}

impl std::fmt::Debug for InlineBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// One MVCC version: the commit version and the value (`None` = tombstone).
#[derive(Debug, Clone)]
struct Version {
    version: u64,
    value: Option<InlineBytes>,
}

impl Version {
    /// The version as a read sees it: `None` for a tombstone.
    fn visible(&self) -> Option<VersionedValue<'_>> {
        self.value.as_deref().map(|value| VersionedValue {
            value,
            version: self.version,
        })
    }
}

/// Every retained version of one key: the newest inline, older ones in
/// ascending version order.
#[derive(Debug, Clone)]
struct Chain {
    newest: Version,
    older: Vec<Version>,
}

impl Chain {
    fn new(newest: Version) -> Self {
        Chain {
            newest,
            older: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.older.len() + 1
    }

    /// Make `v` the newest version. Versions must arrive in increasing order.
    fn push(&mut self, v: Version) {
        debug_assert!(self.newest.version < v.version, "out-of-order MVCC apply");
        self.older.push(std::mem::replace(&mut self.newest, v));
    }

    /// Append every version of `later`, which must all follow this chain's.
    fn extend(&mut self, later: Chain) {
        for v in later.older {
            self.push(v);
        }
        self.push(later.newest);
    }

    /// The newest version ≤ `snapshot`, tombstones included.
    fn at(&self, snapshot: u64) -> Option<&Version> {
        if self.newest.version <= snapshot {
            return Some(&self.newest);
        }
        let idx = self.older.partition_point(|v| v.version <= snapshot);
        idx.checked_sub(1).map(|i| &self.older[i])
    }
}

/// Result of a successful versioned read.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionedValue<'a> {
    pub value: &'a [u8],
    pub version: u64,
}

/// The MVCC store. Single-threaded by design: concurrency in the simulation
/// is modeled by the event kernel, not by host threads.
#[derive(Debug, Clone, Default)]
pub struct KvEngine {
    data: BTreeMap<InlineBytes, Chain>,
    next_version: u64,
    /// Logical bytes written over the engine's lifetime (cost accounting).
    bytes_written: u64,
}

impl KvEngine {
    pub fn new() -> Self {
        KvEngine {
            data: BTreeMap::new(),
            next_version: 1,
            bytes_written: 0,
        }
    }

    /// Number of live keys (latest version is not a tombstone).
    pub fn live_keys(&self) -> usize {
        self.data.values().filter(|c| c.newest.value.is_some()).count()
    }

    /// Total version entries retained (for GC tests).
    pub fn version_entries(&self) -> usize {
        self.data.values().map(Chain::len).sum()
    }

    /// Logical bytes of the live dataset: key plus latest non-tombstone
    /// value per key. This is the size a full snapshot persists.
    pub fn live_bytes(&self) -> u64 {
        self.data
            .iter()
            .filter_map(|(k, c)| Some(k.len() as u64 + c.newest.value.as_ref()?.len() as u64))
            .sum()
    }

    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// The version the *next* write will receive.
    pub fn next_version(&self) -> u64 {
        self.next_version
    }

    fn allocate_version(&mut self) -> u64 {
        let v = self.next_version;
        self.next_version += 1;
        v
    }

    /// Account for a write at `version` carrying `value`.
    fn record_write(&mut self, value: Option<&[u8]>, version: u64) {
        self.next_version = self.next_version.max(version + 1);
        self.bytes_written += value.map_or(0, |v| v.len() as u64);
    }

    /// Write `value` under `key`, returning the assigned commit version.
    pub fn put(&mut self, key: Key, value: Vec<u8>) -> u64 {
        let version = self.allocate_version();
        self.put_at(&key, Some(&value), version);
        version
    }

    /// Delete `key` (tombstone), returning the commit version.
    pub fn delete(&mut self, key: Key) -> u64 {
        let version = self.allocate_version();
        self.put_at(&key, None, version);
        version
    }

    /// Apply a write at an explicit version — used by Raft followers
    /// replaying the leader's log so replicas converge on identical state.
    /// Versions must be applied in increasing order per key.
    pub fn put_at(&mut self, key: &[u8], value: Option<&[u8]>, version: u64) {
        self.record_write(value, version);
        let v = Version {
            version,
            value: value.map(InlineBytes::from),
        };
        // One tree walk: inline keys cost nothing to build, and a heap key
        // already present is dropped again.
        match self.data.entry(InlineBytes::from(key)) {
            Entry::Vacant(e) => {
                e.insert(Chain::new(v));
            }
            Entry::Occupied(mut e) => e.get_mut().push(v),
        }
    }

    /// Apply a batch of `(key, value, version)` writes in one pass. The end
    /// state is that of [`KvEngine::put_at`] on each write in version order:
    /// the writes are sorted by key and version, repeated keys fold into one
    /// chain, and the tree is built from the sorted run. Keys already in the
    /// engine extend their chain, so every loaded version must follow that
    /// key's versions already stored.
    pub fn bulk_load(&mut self, mut writes: Vec<(InlineBytes, Option<InlineBytes>, u64)>) {
        writes.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.2.cmp(&b.2)));
        for (_, value, version) in &writes {
            self.record_write(value.as_deref(), *version);
        }
        let mut writes = writes.into_iter().peekable();
        let run = std::iter::from_fn(move || {
            let (key, value, version) = writes.next()?;
            let mut chain = Chain::new(Version { version, value });
            while let Some((_, value, version)) = writes.next_if(|w| w.0 == key) {
                chain.push(Version { version, value });
            }
            Some((key, chain))
        });
        if self.data.is_empty() {
            self.data = run.collect();
            return;
        }
        // Merge the two sorted runs and rebuild: linear in both sizes.
        let mut old = std::mem::take(&mut self.data).into_iter().peekable();
        let mut run = run.peekable();
        let merged = std::iter::from_fn(|| match (old.peek(), run.peek()) {
            (Some((a, _)), Some((b, _))) => match a.cmp(b) {
                Ordering::Less => old.next(),
                Ordering::Greater => run.next(),
                Ordering::Equal => {
                    let (key, mut chain) = old.next()?;
                    chain.extend(run.next()?.1);
                    Some((key, chain))
                }
            },
            (Some(_), None) => old.next(),
            (None, _) => run.next(),
        });
        self.data = merged.collect();
    }

    /// The chain of `key`. A key that fits inline is searched for as an
    /// inline probe, so every comparison with an inline key is a word
    /// compare rather than a `memcmp`.
    fn chain(&self, key: &[u8]) -> Option<&Chain> {
        if key.len() <= INLINE_BYTES {
            self.data.get(&InlineBytes::inline(key))
        } else {
            self.data.get(key)
        }
    }

    /// Read the latest committed version of `key`.
    pub fn get_latest(&self, key: &[u8]) -> Option<VersionedValue<'_>> {
        self.chain(key)?.newest.visible()
    }

    /// Read `key` at `snapshot`: the newest version ≤ snapshot. Tombstones
    /// return `None`.
    pub fn get_at(&self, key: &[u8], snapshot: u64) -> Option<VersionedValue<'_>> {
        self.chain(key)?.at(snapshot)?.visible()
    }

    /// The latest version number recorded for `key`, even if a tombstone —
    /// this is what a version check compares against.
    pub fn latest_version(&self, key: &[u8]) -> Option<u64> {
        self.chain(key).map(|c| c.newest.version)
    }

    /// Scan live entries whose key starts with `prefix`, at `snapshot`, in
    /// key order. Returns (key, value, version) triples.
    pub fn scan_prefix<'a>(
        &'a self,
        prefix: &'a [u8],
        snapshot: u64,
    ) -> impl Iterator<Item = (&'a [u8], VersionedValue<'a>)> + 'a {
        self.data
            .range::<[u8], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(k, _)| k.starts_with(prefix))
            .filter_map(move |(k, c)| Some((k.as_slice(), c.at(snapshot)?.visible()?)))
    }

    /// Scan live entries with keys in `[start, end_exclusive)` (unbounded
    /// above when `end_exclusive` is `None`), at `snapshot`, in key order.
    pub fn scan_between<'a>(
        &'a self,
        start: &[u8],
        end_exclusive: Option<&'a [u8]>,
        snapshot: u64,
    ) -> impl Iterator<Item = (&'a [u8], VersionedValue<'a>)> + 'a {
        self.data
            .range::<[u8], _>((Bound::Included(start), Bound::Unbounded))
            .take_while(move |(k, _)| end_exclusive.is_none_or(|end| k.as_slice() < end))
            .filter_map(move |(k, c)| Some((k.as_slice(), c.at(snapshot)?.visible()?)))
    }

    /// Garbage-collect versions strictly older than `keep_after`, always
    /// retaining the newest version of each key. Fully-dead keys (tombstone
    /// older than the horizon) are dropped. Returns entries reclaimed.
    pub fn gc(&mut self, keep_after: u64) -> usize {
        let mut reclaimed = 0;
        self.data.retain(|_, chain| {
            let old = chain.older.partition_point(|v| v.version < keep_after);
            chain.older.drain(..old);
            if chain.older.is_empty() {
                chain.older = Vec::new();
            }
            reclaimed += old;
            // Drop the key entirely if all that remains is an old tombstone.
            if chain.newest.value.is_none() && chain.newest.version < keep_after {
                reclaimed += chain.len();
                false
            } else {
                true
            }
        });
        reclaimed
    }
}

// ---------------------------------------------------------------------------
// Order-preserving key encoding
// ---------------------------------------------------------------------------

/// Encode a datum so that byte-wise key order matches SQL value order within
/// a type. Ints get their sign bit flipped and go big-endian; text/bytes are
/// terminated with `0x00 0x01` and embedded zeros escaped as `0x00 0xFF`
/// (the standard escape so prefixes cannot collide).
pub fn encode_key_datum(out: &mut Vec<u8>, d: &Datum) {
    match d {
        Datum::Null => out.push(0x00),
        Datum::Bool(b) => {
            out.push(0x01);
            out.push(*b as u8);
        }
        Datum::Int(i) => {
            out.push(0x02);
            out.extend_from_slice(&((*i as u64) ^ (1u64 << 63)).to_be_bytes());
        }
        Datum::Float(x) => {
            // Standard total-order float encoding: flip sign bit for
            // positives, flip all bits for negatives.
            let bits = x.to_bits();
            let ordered = if bits >> 63 == 0 {
                bits ^ (1u64 << 63)
            } else {
                !bits
            };
            out.push(0x03);
            out.extend_from_slice(&ordered.to_be_bytes());
        }
        Datum::Text(s) => {
            out.push(0x04);
            escape_bytes(out, s.as_bytes());
        }
        Datum::Bytes(b) => {
            out.push(0x05);
            escape_bytes(out, b);
        }
        Datum::Payload { len, seed } => {
            out.push(0x06);
            out.extend_from_slice(&len.to_be_bytes());
            out.extend_from_slice(&seed.to_be_bytes());
        }
    }
}

fn escape_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    for &b in bytes {
        if b == 0x00 {
            out.extend_from_slice(&[0x00, 0xFF]);
        } else {
            out.push(b);
        }
    }
    out.extend_from_slice(&[0x00, 0x01]);
}

/// Record-space key for a row: `t/<table>/<pk>`.
pub fn record_key(table: &str, pk: &Datum) -> Key {
    let mut k = Vec::with_capacity(table.len() + 16);
    record_key_into(&mut k, table, pk);
    k
}

/// [`record_key`] into a caller-owned buffer (cleared first), so the serve
/// path can reuse one scratch allocation across requests.
pub fn record_key_into(k: &mut Key, table: &str, pk: &Datum) {
    k.clear();
    k.extend_from_slice(b"t/");
    k.extend_from_slice(table.as_bytes());
    k.push(b'/');
    encode_key_datum(k, pk);
}

/// Prefix covering all rows of a table.
pub fn record_prefix(table: &str) -> Key {
    let mut k = Vec::with_capacity(table.len() + 3);
    k.extend_from_slice(b"t/");
    k.extend_from_slice(table.as_bytes());
    k.push(b'/');
    k
}

/// Conservative byte bounds for record keys whose primary key lies in
/// `[lo, hi]`; same contract as [`index_range_bounds`].
pub fn record_range_bounds(table: &str, lo: Option<&Datum>, hi: Option<&Datum>) -> (Key, Option<Key>) {
    let prefix = record_prefix(table);
    let start = match lo {
        Some(d) => {
            let mut k = prefix.clone();
            encode_key_datum(&mut k, d);
            k
        }
        None => prefix.clone(),
    };
    let end = match hi {
        Some(d) => {
            let mut k = prefix.clone();
            encode_key_datum(&mut k, d);
            k.push(0xFF);
            Some(k)
        }
        None => {
            let mut k = prefix;
            let last = k.last_mut().expect("prefix non-empty");
            *last += 1;
            Some(k)
        }
    };
    (start, end)
}

/// Index-space key: `i/<table>/<col>/<val>/<pk>`.
pub fn index_key(table: &str, column: usize, value: &Datum, pk: &Datum) -> Key {
    let mut k = index_prefix(table, column, value);
    encode_key_datum(&mut k, pk);
    k
}

/// Prefix covering all index entries for one (column, value) pair.
pub fn index_prefix(table: &str, column: usize, value: &Datum) -> Key {
    let mut k = index_column_prefix(table, column);
    encode_key_datum(&mut k, value);
    k
}

/// Prefix covering *all* index entries of one column (any value).
pub fn index_column_prefix(table: &str, column: usize) -> Key {
    let mut k = Vec::with_capacity(table.len() + 24);
    k.extend_from_slice(b"i/");
    k.extend_from_slice(table.as_bytes());
    k.push(b'/');
    k.extend_from_slice(&(column as u32).to_be_bytes());
    k.push(b'/');
    k
}

/// Conservative byte bounds for index entries whose column value lies in
/// `[lo, hi]` (either side optional). The returned range may include a few
/// neighbors — callers re-filter rows with the original predicate — but
/// never excludes a matching entry. Works because `encode_key_datum` is
/// order-preserving and prefix-free.
pub fn index_range_bounds(
    table: &str,
    column: usize,
    lo: Option<&Datum>,
    hi: Option<&Datum>,
) -> (Key, Option<Key>) {
    let prefix = index_column_prefix(table, column);
    let start = match lo {
        Some(d) => {
            let mut k = prefix.clone();
            encode_key_datum(&mut k, d);
            k
        }
        None => prefix.clone(),
    };
    let end = match hi {
        Some(d) => {
            let mut k = prefix.clone();
            encode_key_datum(&mut k, d);
            k.push(0xFF); // strictly after every pk suffix for this value
            Some(k)
        }
        None => {
            // End of the column prefix: bump the last byte ('/' < 0xFF).
            let mut k = prefix;
            let last = k.last_mut().expect("prefix non-empty");
            *last += 1;
            Some(k)
        }
    };
    (start, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str) -> Key {
        s.as_bytes().to_vec()
    }

    #[test]
    fn put_then_get_latest() {
        let mut kv = KvEngine::new();
        let v1 = kv.put(key("a"), b"one".to_vec());
        let got = kv.get_latest(b"a").unwrap();
        assert_eq!(got.value, b"one");
        assert_eq!(got.version, v1);
    }

    #[test]
    fn versions_are_monotonic_and_snapshot_reads_work() {
        let mut kv = KvEngine::new();
        let v1 = kv.put(key("a"), b"one".to_vec());
        let v2 = kv.put(key("a"), b"two".to_vec());
        assert!(v2 > v1);
        assert_eq!(kv.get_at(b"a", v1).unwrap().value, b"one");
        assert_eq!(kv.get_at(b"a", v2).unwrap().value, b"two");
        assert_eq!(kv.get_at(b"a", v1 - 1), None);
        assert_eq!(kv.get_latest(b"a").unwrap().value, b"two");
    }

    #[test]
    fn delete_writes_tombstone_with_version() {
        let mut kv = KvEngine::new();
        let v1 = kv.put(key("a"), b"x".to_vec());
        let v2 = kv.delete(key("a"));
        assert_eq!(kv.get_latest(b"a"), None);
        assert_eq!(kv.get_at(b"a", v1).unwrap().value, b"x");
        assert_eq!(kv.latest_version(b"a"), Some(v2));
        assert_eq!(kv.live_keys(), 0);
    }

    #[test]
    fn put_at_replays_deterministically() {
        let mut leader = KvEngine::new();
        let mut follower = KvEngine::new();
        let v1 = leader.put(key("a"), b"1".to_vec());
        let v2 = leader.put(key("b"), b"2".to_vec());
        follower.put_at(b"a", Some(b"1"), v1);
        follower.put_at(b"b", Some(b"2"), v2);
        assert_eq!(leader.get_latest(b"a"), follower.get_latest(b"a"));
        assert_eq!(follower.next_version(), leader.next_version());
    }

    #[test]
    fn scan_prefix_returns_sorted_live_rows() {
        let mut kv = KvEngine::new();
        kv.put(key("t/users/b"), b"2".to_vec());
        kv.put(key("t/users/a"), b"1".to_vec());
        kv.put(key("t/orders/z"), b"9".to_vec());
        kv.delete(key("t/users/b"));
        let hits: Vec<_> = kv
            .scan_prefix(b"t/users/", u64::MAX)
            .map(|(k, v)| (k.to_vec(), v.value.to_vec()))
            .collect();
        assert_eq!(hits, vec![(key("t/users/a"), b"1".to_vec())]);
    }

    #[test]
    fn inline_bytes_stay_in_place_up_to_the_inline_size() {
        assert_eq!(std::mem::size_of::<InlineBytes>(), 32);
        assert_eq!(std::mem::size_of::<Option<InlineBytes>>(), 32);
        for len in [0, 14, 28, INLINE_BYTES, INLINE_BYTES + 1, 100] {
            let raw = vec![0xA5; len];
            let b = InlineBytes::from(raw.as_slice());
            let inline = matches!(b.0, Repr::Inline { .. });
            assert_eq!(inline, len <= INLINE_BYTES, "len {len}");
            assert_eq!(b.as_slice(), raw.as_slice());
            assert_eq!(InlineBytes::from(raw.clone()), b);
        }
        // Order is byte-wise whichever way each side is stored.
        let short = InlineBytes::from(&[0xFF; 2][..]);
        let long = InlineBytes::from(&[0x00; 40][..]);
        assert!(long < short);
        assert!(InlineBytes::from(&[1u8; 30][..]) < InlineBytes::from(&[1u8; 31][..]));
    }

    #[test]
    fn bulk_load_matches_put_at_in_version_order() {
        let writes = [
            (key("b"), Some(b"b1".to_vec()), 3),
            (key("a"), Some(b"a1".to_vec()), 1),
            (key("b"), None, 5),
            (key("a"), Some(b"a2".to_vec()), 4),
        ];
        // Both engines already hold a version of "a": the load extends it.
        let mut by_put = KvEngine::new();
        by_put.put_at(b"a", Some(b"a0"), 0);
        let mut loaded = by_put.clone();
        let mut sorted = writes.clone();
        sorted.sort_by_key(|w| w.2);
        for (k, v, ver) in &sorted {
            by_put.put_at(k, v.as_deref(), *ver);
        }
        loaded.bulk_load(
            writes
                .iter()
                .map(|(k, v, ver)| (InlineBytes::from(k.as_slice()), v.clone().map(InlineBytes::from), *ver))
                .collect(),
        );
        assert_eq!(loaded.version_entries(), 5);
        assert_eq!(loaded.next_version(), by_put.next_version());
        assert_eq!(loaded.bytes_written(), by_put.bytes_written());
        for snapshot in 0..6 {
            for k in [&b"a"[..], b"b"] {
                assert_eq!(loaded.get_at(k, snapshot), by_put.get_at(k, snapshot));
            }
        }
        assert_eq!(loaded.latest_version(b"b"), Some(5));
    }

    #[test]
    fn scan_respects_snapshot() {
        let mut kv = KvEngine::new();
        let v1 = kv.put(key("p/a"), b"old".to_vec());
        kv.put(key("p/a"), b"new".to_vec());
        kv.put(key("p/b"), b"later".to_vec());
        let at_v1: Vec<_> = kv.scan_prefix(b"p/", v1).map(|(_, v)| v.value.to_vec()).collect();
        assert_eq!(at_v1, vec![b"old".to_vec()]);
    }

    #[test]
    fn gc_keeps_latest_and_reclaims_old() {
        let mut kv = KvEngine::new();
        for i in 0..10 {
            kv.put(key("a"), vec![i]);
        }
        let horizon = kv.next_version();
        assert_eq!(kv.version_entries(), 10);
        let reclaimed = kv.gc(horizon);
        assert_eq!(reclaimed, 9);
        assert_eq!(kv.version_entries(), 1);
        assert_eq!(kv.get_latest(b"a").unwrap().value, &[9]);
    }

    #[test]
    fn gc_drops_dead_keys_entirely() {
        let mut kv = KvEngine::new();
        kv.put(key("a"), b"x".to_vec());
        kv.delete(key("a"));
        kv.gc(kv.next_version());
        assert_eq!(kv.version_entries(), 0);
        assert_eq!(kv.latest_version(b"a"), None);
    }

    #[test]
    fn int_key_encoding_preserves_order() {
        let ints = [i64::MIN, -5, -1, 0, 1, 7, i64::MAX];
        let mut keys: Vec<Key> = ints
            .iter()
            .map(|&i| record_key("t", &Datum::Int(i)))
            .collect();
        let sorted = keys.clone();
        keys.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn float_key_encoding_preserves_order() {
        let floats = [f64::NEG_INFINITY, -2.5, -0.0, 0.0, 1.5, f64::INFINITY];
        let enc = |x: f64| {
            let mut k = Vec::new();
            encode_key_datum(&mut k, &Datum::Float(x));
            k
        };
        for w in floats.windows(2) {
            assert!(enc(w[0]) <= enc(w[1]), "{} !<= {}", w[0], w[1]);
        }
    }

    #[test]
    fn text_keys_with_embedded_nul_do_not_collide() {
        let a = record_key("t", &Datum::Text("a\0b".into()));
        let b = record_key("t", &Datum::Text("a".into()));
        let c = record_key("t", &Datum::Text("a\0".into()));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        // "a" < "a\0" < "a\0b" in value order must hold in byte order.
        assert!(b < c && c < a);
    }

    #[test]
    fn scan_between_respects_bounds() {
        let mut kv = KvEngine::new();
        for i in 0..10u8 {
            kv.put(vec![b'k', i], vec![i]);
        }
        let hits: Vec<u8> = kv
            .scan_between(&[b'k', 3], Some(&[b'k', 7]), u64::MAX)
            .map(|(_, v)| v.value[0])
            .collect();
        assert_eq!(hits, vec![3, 4, 5, 6]);
        let open_ended: Vec<u8> = kv
            .scan_between(&[b'k', 8], None, u64::MAX)
            .map(|(_, v)| v.value[0])
            .collect();
        assert_eq!(open_ended, vec![8, 9]);
    }

    #[test]
    fn index_range_bounds_cover_matching_values_exactly() {
        // Build index keys for ints 0..20 and check the [5, 12] bounds.
        let keys: Vec<Key> = (0..20i64)
            .map(|v| index_key("t", 1, &Datum::Int(v), &Datum::Int(v * 100)))
            .collect();
        let (start, end) = index_range_bounds("t", 1, Some(&Datum::Int(5)), Some(&Datum::Int(12)));
        let end = end.unwrap();
        let selected: Vec<usize> = keys
            .iter()
            .enumerate()
            .filter(|(_, k)| k.as_slice() >= start.as_slice() && k.as_slice() < end.as_slice())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(selected, (5..=12).collect::<Vec<_>>());
        // Unbounded sides cover everything on that side.
        let (start, _) = index_range_bounds("t", 1, None, Some(&Datum::Int(3)));
        assert!(keys.iter().take(4).all(|k| k.as_slice() >= start.as_slice()));
        let (_, end) = index_range_bounds("t", 1, Some(&Datum::Int(17)), None);
        let end = end.unwrap();
        assert!(keys.iter().skip(17).all(|k| k.as_slice() < end.as_slice()));
        // Other columns are never inside the bounds.
        let other = index_key("t", 2, &Datum::Int(7), &Datum::Int(0));
        assert!(other.as_slice() >= end.as_slice() || other.as_slice() < start.as_slice());
    }

    #[test]
    fn index_prefix_isolates_column_and_value() {
        let p1 = index_prefix("t", 1, &Datum::Int(5));
        let k_same = index_key("t", 1, &Datum::Int(5), &Datum::Int(1));
        let k_other_val = index_key("t", 1, &Datum::Int(6), &Datum::Int(1));
        let k_other_col = index_key("t", 2, &Datum::Int(5), &Datum::Int(1));
        assert!(k_same.starts_with(&p1));
        assert!(!k_other_val.starts_with(&p1));
        assert!(!k_other_col.starts_with(&p1));
    }

    #[test]
    fn record_prefix_covers_only_that_table() {
        let k = record_key("users", &Datum::Int(1));
        assert!(k.starts_with(&record_prefix("users")));
        assert!(!k.starts_with(&record_prefix("user")));
        // distinct tables with common prefixes stay separate
        let k2 = record_key("users_ext", &Datum::Int(1));
        assert!(!k2.starts_with(&record_prefix("users")));
    }
}
