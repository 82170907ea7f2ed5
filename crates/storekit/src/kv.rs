//! Versioned key-value engine — the TiKV analogue.
//!
//! Every write is assigned a monotonically increasing commit version, and
//! deletes write tombstones. The engine keeps one version per key, the
//! latest: TiKV discards superseded versions below its GC safe point, and
//! nothing here reads at an older snapshot. The latest version is exactly
//! what the paper's §5.5 version check reads: "returning the row's 8-byte
//! version column".
//!
//! # Layout: a hash-indexed run and tail
//!
//! Every stored key's latest write is one entry (key, version, value) in
//! an arena of fixed-size pages. The arena holds two parts:
//!
//! - the *run*: entries in key order, built by [`KvEngine::bulk_load`];
//! - the *tail*: keys first written after that, in arrival order, with a
//!   small `BTreeMap` from key to arena position that orders them for
//!   scans.
//!
//! An open-addressing hash index (linear probing, a fixed hash, so runs are
//! deterministic) maps every stored key to its arena position. So
//! `get_latest`, `latest_version` and a `put_at` to a stored key cost one
//! hash and one or two probes, where an ordered tree walks ~5 levels with
//! key compares at each. A new key goes into the tail and the index.
//! Scans binary-search the run and merge its range with the tail's range,
//! in key order. Once the tail holds more than half the run, one linear
//! pass merges it back into the run and the index is rebuilt.
//!
//! Reads in key order can skip the index. [`KvEngine::get_latest_hinted`]
//! takes a position hint, one past the entry the caller's last read found,
//! and compares that entry's key first; it hashes and probes only when the
//! entry holds another key. So a walk over a loaded engine's keys in
//! ascending order reads the run's next 64-byte entry per key, where a
//! probe makes two dependent random loads (the index slot, then the
//! entry). Only cache prewarming reads that way
//! (`SqlCluster::warm_point_read`). Served reads keep `get_latest`: their
//! keys arrive in random order, so a hint would miss and its compare
//! would add one more random load before the probe.
//!
//! An entry is one 64-byte cache line: the version, then the key and its
//! value sharing 52 bytes, or boxed together when longer. The `kv` table's
//! 14-byte record keys and 28-byte encoded rows stay inline, so a row owns
//! no heap allocation of its own, a write to a stored key overwrites its
//! entry in place without allocating, and a point read touches one line of
//! the arena. An entry and a slot cost ~72-75 bytes per key, about what a
//! B-tree node spent per key.
//!
//! Every allocation stays under 64 KiB: an entry page holds 512 entries
//! (32 KiB) and an index page 8,192 slots (32 KiB). Once glibc frees a
//! multi-megabyte buffer it raises its mmap threshold, so later buffers of
//! that size land on the brk heap instead of their own mappings, and
//! freeing them there does not always return the memory: the peak RSS
//! rises. Small pages keep the peak near the steady state.
//!
//! A load reaches the arena as a [`LoadRun`]: writes appended as entries
//! in the engine's own 32 KiB pages, in the order they were pushed. When
//! the run's keys are strictly ascending and the engine is empty, as
//! [`KvEngine::new`] builds it, [`KvEngine::bulk_load`] adopts the run's
//! pages as the arena and indexes them: no entry is copied. Any other run
//! (keys out of order, a key repeated, or an engine that holds keys) is
//! sorted by key and version through a vector of 4-byte positions, keeps
//! each key's last write, and is merged with what is stored into new
//! pages; the run's pages are freed after the merge. Replicas that receive
//! the same run end up equal, so `SqlCluster::bulk_load` builds one run
//! per replica set and loads it into each distinct engine of the set's
//! pods.
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

/// Bytes a key and its value share inside an [`Entry`]; a longer pair is
/// boxed. A `kv` row (14-byte key, 28-byte value) fits.
const PAIR_INLINE: usize = 52;
/// An inline value length that marks a tombstone.
const TOMBSTONE: u8 = u8::MAX;
const _: () = assert!(PAIR_INLINE < TOMBSTONE as usize);

/// A key and its latest value (`None` = tombstone), stored together.
#[derive(Clone)]
enum Pair {
    /// The key is `buf[..key_len]` and the value the `value_len` bytes
    /// after it.
    Inline {
        key_len: u8,
        value_len: u8,
        buf: [u8; PAIR_INLINE],
    },
    /// The key then the value, in one box.
    Heap {
        key_len: u32,
        tombstone: bool,
        bytes: Box<[u8]>,
    },
}

impl Pair {
    fn new(key: &[u8], value: Option<&[u8]>) -> Self {
        let v = value.unwrap_or_default();
        if key.len() + v.len() <= PAIR_INLINE {
            let mut buf = [0; PAIR_INLINE];
            buf[..key.len()].copy_from_slice(key);
            buf[key.len()..key.len() + v.len()].copy_from_slice(v);
            Pair::Inline {
                key_len: key.len() as u8,
                value_len: value.map_or(TOMBSTONE, |v| v.len() as u8),
                buf,
            }
        } else {
            Pair::Heap {
                key_len: u32::try_from(key.len()).expect("keys under 4 GiB"),
                tombstone: value.is_none(),
                bytes: [key, v].concat().into_boxed_slice(),
            }
        }
    }

    fn key(&self) -> &[u8] {
        match self {
            Pair::Inline { key_len, buf, .. } => &buf[..*key_len as usize],
            Pair::Heap { key_len, bytes, .. } => &bytes[..*key_len as usize],
        }
    }

    fn value(&self) -> Option<&[u8]> {
        match self {
            Pair::Inline {
                value_len: TOMBSTONE,
                ..
            }
            | Pair::Heap {
                tombstone: true, ..
            } => None,
            Pair::Inline {
                key_len,
                value_len,
                buf,
            } => {
                let at = *key_len as usize;
                Some(&buf[at..at + *value_len as usize])
            }
            Pair::Heap { key_len, bytes, .. } => Some(&bytes[*key_len as usize..]),
        }
    }

    /// Replace the value, in place when the new one fits beside the key.
    fn set_value(&mut self, value: Option<&[u8]>) {
        if let Pair::Inline {
            key_len,
            value_len,
            buf,
        } = self
        {
            let (at, v) = (*key_len as usize, value.unwrap_or_default());
            if at + v.len() <= PAIR_INLINE {
                buf[at..at + v.len()].copy_from_slice(v);
                *value_len = value.map_or(TOMBSTONE, |v| v.len() as u8);
                return;
            }
        }
        *self = Pair::new(self.key(), value);
    }
}

impl std::fmt::Debug for Pair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Pair")
            .field(&self.key())
            .field(&self.value())
            .finish()
    }
}

/// A key's latest write: its commit version, key and value. One entry is
/// one 64-byte cache line, so a point read touches one line of the arena.
#[derive(Debug, Clone)]
#[repr(align(64))]
struct Entry {
    version: u64,
    pair: Pair,
}
const _: () = assert!(std::mem::size_of::<Entry>() == 64);

impl Entry {
    fn new(key: &[u8], value: Option<&[u8]>, version: u64) -> Self {
        Entry {
            version,
            pair: Pair::new(key, value),
        }
    }

    fn key(&self) -> &[u8] {
        self.pair.key()
    }

    /// The entry as a read sees it: `None` for a tombstone.
    fn visible(&self) -> Option<VersionedValue<'_>> {
        self.pair.value().map(|value| VersionedValue {
            value,
            version: self.version,
        })
    }

    /// Replace this entry's write with a later one. Versions must arrive
    /// in increasing order.
    fn overwrite(&mut self, version: u64, value: Option<&[u8]>) {
        debug_assert!(self.version < version, "out-of-order MVCC apply");
        self.version = version;
        self.pair.set_value(value);
    }
}

/// Entries per arena page: 512 x 64 bytes = 32 KiB.
const ENTRY_PAGE: usize = 512;
/// Index slots per page: 8,192 x 4 bytes = 32 KiB.
const SLOT_PAGE: usize = 8_192;
/// The tail merges into the run once it holds more than a
/// `1 / TAIL_FRACTION` share of the run's keys, or more than `MIN_TAIL`
/// keys when the run is small.
///
/// A merge moves and re-indexes every entry, so a new key pays for
/// `TAIL_FRACTION + 1` moves on average, while a tail key also holds a
/// B-tree element (~50 bytes). Timed on 131K-key engines, a new-key write
/// after a load costs 0.9-1.1x a `BTreeMap` insert at 2 and 1.4-1.6x at 8;
/// bytes per key rise from 77 at 8 to 86 at 2, under the `BTreeMap`'s 108.
/// `MIN_TAIL` only keeps a near-empty run from merging on every write;
/// 16 to 256 time the same.
const TAIL_FRACTION: usize = 2;
const MIN_TAIL: usize = 64;
const _: () = assert!(ENTRY_PAGE * std::mem::size_of::<Entry>() < 64 << 10);
const _: () = assert!(SLOT_PAGE * std::mem::size_of::<u32>() < 64 << 10);

/// Entries in pages of [`ENTRY_PAGE`], addressed by arena position.
#[derive(Debug, Default)]
struct Pages {
    pages: Vec<Vec<Entry>>,
    len: usize,
}

impl Pages {
    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, pos: usize) -> &Entry {
        &self.pages[pos / ENTRY_PAGE][pos % ENTRY_PAGE]
    }

    fn last(&self) -> Option<&Entry> {
        self.pages.last()?.last()
    }

    fn get_mut(&mut self, pos: usize) -> &mut Entry {
        &mut self.pages[pos / ENTRY_PAGE][pos % ENTRY_PAGE]
    }

    fn push(&mut self, entry: Entry) {
        if self.len.is_multiple_of(ENTRY_PAGE) {
            self.pages.push(Vec::with_capacity(ENTRY_PAGE));
        }
        self.pages.last_mut().expect("a page with room").push(entry);
        self.len += 1;
    }

    /// Move the entry at `pos` out, leaving an empty key in its place.
    fn take(&mut self, pos: usize) -> Entry {
        std::mem::replace(self.get_mut(pos), Entry::new(&[], None, 0))
    }

    fn truncate(&mut self, len: usize) {
        self.pages.truncate(len.div_ceil(ENTRY_PAGE));
        if let Some(last) = self.pages.last_mut() {
            last.truncate(len - (len - 1) / ENTRY_PAGE * ENTRY_PAGE);
        }
        self.len = len;
    }

    fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.pages.iter().flatten()
    }

    /// The entries in position order; each page is freed once passed.
    fn into_entries(self) -> impl Iterator<Item = Entry> {
        self.pages.into_iter().flatten()
    }
}

impl FromIterator<Entry> for Pages {
    fn from_iter<I: IntoIterator<Item = Entry>>(entries: I) -> Self {
        let mut entries = entries.into_iter().peekable();
        let mut pages = Pages::default();
        while entries.peek().is_some() {
            let mut page = Vec::with_capacity(ENTRY_PAGE);
            page.extend(entries.by_ref().take(ENTRY_PAGE));
            pages.len += page.len();
            pages.pages.push(page);
        }
        pages
    }
}

impl Clone for Pages {
    /// Page by page, each copy with a full page's capacity, so pushes onto
    /// a cloned engine never reallocate a page.
    fn clone(&self) -> Self {
        let pages = self
            .pages
            .iter()
            .map(|page| {
                let mut copy = Vec::with_capacity(ENTRY_PAGE);
                copy.extend_from_slice(page);
                copy
            })
            .collect();
        Pages {
            pages,
            len: self.len,
        }
    }
}

/// The index's hash. The key's 8-byte words are mixed in with a multiply
/// each; the last word overlaps the one before it, so a 14-byte record key
/// costs two words and no padding copy. A shorter key is read as two
/// overlapping halves, or three of its bytes. SplitMix64's finalizer then
/// spreads every byte over the high bits the index probes from. Equal keys
/// hash equally, which is all the index needs: a probe compares keys.
fn hash_key(key: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mix = |h: u64, word: u64| (h ^ word).wrapping_mul(K).rotate_left(29);
    let len = key.len();
    let mut h = (len as u64).wrapping_mul(K);
    if len >= 8 {
        let word = |at: usize| u64::from_le_bytes(key[at..at + 8].try_into().expect("8 bytes"));
        let mut at = 0;
        while at + 8 < len {
            h = mix(h, word(at));
            at += 8;
        }
        h = mix(h, word(len - 8));
    } else if len >= 4 {
        let half = |at: usize| u32::from_le_bytes(key[at..at + 4].try_into().expect("4 bytes"));
        h = mix(h, u64::from(half(0)) | u64::from(half(len - 4)) << 32);
    } else if len > 0 {
        h = mix(
            h,
            u64::from(key[0]) | u64::from(key[len / 2]) << 8 | u64::from(key[len - 1]) << 16,
        );
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

/// Open-addressing hash index from a key's hash to its arena position:
/// linear probing over `1 << bits` slots in pages of at most
/// [`SLOT_PAGE`]. A slot holds `position + 1`, or 0 when empty. The index
/// does not store keys; callers confirm a candidate position by comparing
/// the entry's key.
#[derive(Debug, Clone, Default)]
struct HashIndex {
    slots: Vec<Box<[u32]>>,
    bits: u32,
    len: usize,
}

impl HashIndex {
    /// An empty index for `keys` keys, at most half full.
    fn with_capacity(keys: usize) -> Self {
        let slots = (keys * 2).next_power_of_two().max(16);
        let page = slots.min(SLOT_PAGE);
        HashIndex {
            slots: (0..slots / page)
                .map(|_| vec![0; page].into_boxed_slice())
                .collect(),
            bits: slots.trailing_zeros(),
            len: 0,
        }
    }

    fn capacity(&self) -> usize {
        if self.slots.is_empty() {
            0
        } else {
            1 << self.bits
        }
    }

    /// Whether one more key would fill more than three quarters of the
    /// slots.
    fn is_full(&self) -> bool {
        (self.len + 1) * 4 > self.capacity() * 3
    }

    fn slot(&self, i: usize) -> u32 {
        self.slots[i / SLOT_PAGE][i % SLOT_PAGE]
    }

    /// The first position, probing from `hash`'s home slot, that `is_key`
    /// accepts; `None` at the first empty slot.
    fn find(&self, hash: u64, is_key: impl Fn(usize) -> bool) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mask = self.capacity() - 1;
        let mut i = (hash >> (64 - self.bits)) as usize;
        loop {
            match self.slot(i) {
                0 => return None,
                slot if is_key(slot as usize - 1) => return Some(slot as usize - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Index a key that is not in the index yet. The caller grows a full
    /// index first.
    fn insert(&mut self, hash: u64, pos: usize) {
        debug_assert!(!self.is_full(), "insert into a full index");
        let slot = u32::try_from(pos + 1).expect("fewer than 2^32 keys");
        let mask = self.capacity() - 1;
        let mut i = (hash >> (64 - self.bits)) as usize;
        while self.slot(i) != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i / SLOT_PAGE][i % SLOT_PAGE] = slot;
        self.len += 1;
    }
}

/// Merge two key-ordered entry streams, each with distinct keys; a key in
/// both takes `later`'s write.
fn merge(
    earlier: impl Iterator<Item = Entry>,
    later: impl Iterator<Item = Entry>,
) -> impl Iterator<Item = Entry> {
    let (mut earlier, mut later) = (earlier.peekable(), later.peekable());
    std::iter::from_fn(move || match (earlier.peek(), later.peek()) {
        (Some(a), Some(b)) => match a.key().cmp(b.key()) {
            Ordering::Less => earlier.next(),
            Ordering::Greater => later.next(),
            Ordering::Equal => {
                let stored = earlier.next()?;
                let write = later.next()?;
                debug_assert!(stored.version < write.version, "out-of-order MVCC apply");
                Some(write)
            }
        },
        (Some(_), None) => earlier.next(),
        (None, _) => later.next(),
    })
}

/// A batch of `(key, value, version)` writes for [`KvEngine::bulk_load`],
/// appended as entries in the engine's own pages. It notes whether its
/// keys arrived strictly ascending, the one order an empty engine adopts
/// as its arena without copying, and totals what the writes add to
/// `bytes_written` and `next_version`.
#[derive(Debug, Clone, Default)]
pub struct LoadRun {
    entries: Pages,
    /// Some key was at or below the key pushed before it.
    unordered: bool,
    /// The writes' value bytes, every write counted.
    bytes_written: u64,
    /// One past the highest version pushed.
    next_version: u64,
}

impl LoadRun {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a write (`None` = tombstone). A key pushed twice keeps its
    /// higher version's write.
    pub fn push(&mut self, key: &[u8], value: Option<&[u8]>, version: u64) {
        self.unordered |= self.entries.last().is_some_and(|last| last.key() >= key);
        self.bytes_written += value.map_or(0, |v| v.len() as u64);
        self.next_version = self.next_version.max(version + 1);
        self.entries.push(Entry::new(key, value, version));
    }
}

impl<K: AsRef<[u8]>, V: AsRef<[u8]>> FromIterator<(K, Option<V>, u64)> for LoadRun {
    fn from_iter<I: IntoIterator<Item = (K, Option<V>, u64)>>(writes: I) -> Self {
        let mut run = LoadRun::new();
        for (key, value, version) in writes {
            run.push(key.as_ref(), value.as_ref().map(AsRef::as_ref), version);
        }
        run
    }
}

/// How an engine holds its keys; see [`KvEngine::layout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvLayout {
    /// Keys in the key-ordered run.
    pub run: usize,
    /// Keys written since the last load or merge, not yet in the run.
    pub tail: usize,
    /// Hash index slots.
    pub index_slots: usize,
}

/// Result of a successful versioned read.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionedValue<'a> {
    pub value: &'a [u8],
    pub version: u64,
}

/// The versioned store. Single-threaded by design: concurrency in the
/// simulation is modeled in virtual time by the experiment runner, not by
/// host threads.
#[derive(Debug, Clone, Default)]
pub struct KvEngine {
    /// Every stored key's latest write: the key-ordered run
    /// `entries[..run_len]`, then the tail in arrival order.
    entries: Pages,
    run_len: usize,
    /// The tail's keys in key order, with their positions in `entries`.
    tail: BTreeMap<InlineBytes, u32>,
    /// Every stored key's position in `entries`.
    index: HashIndex,
    next_version: u64,
    /// Logical bytes written over the engine's lifetime (cost accounting).
    bytes_written: u64,
}

impl KvEngine {
    pub fn new() -> Self {
        KvEngine {
            next_version: 1,
            ..Default::default()
        }
    }

    /// Number of live keys (latest version is not a tombstone).
    pub fn live_keys(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.pair.value().is_some())
            .count()
    }

    /// Logical bytes of the live dataset: key plus latest non-tombstone
    /// value per key. This is the size a full snapshot persists.
    pub fn live_bytes(&self) -> u64 {
        self.entries
            .iter()
            .filter_map(|e| Some((e.key().len() + e.pair.value()?.len()) as u64))
            .sum()
    }

    /// How the engine holds its keys: the run, the tail and the index
    /// size. Reads and writes do not depend on it; tests use it to check
    /// that they drove the engine through a merge or an index growth.
    pub fn layout(&self) -> KvLayout {
        KvLayout {
            run: self.run_len,
            tail: self.tail.len(),
            index_slots: self.index.capacity(),
        }
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
        let hash = hash_key(key);
        if let Some(pos) = self.position(key, hash) {
            self.entries.get_mut(pos).overwrite(version, value);
            return;
        }
        if self.index.is_full() {
            self.reindex();
        }
        let pos = self.entries.len();
        self.tail.insert(
            InlineBytes::from(key),
            u32::try_from(pos).expect("fewer than 2^32 keys"),
        );
        self.index.insert(hash, pos);
        self.entries.push(Entry::new(key, value, version));
        if self.tail.len() > (self.run_len / TAIL_FRACTION).max(MIN_TAIL) {
            self.rebuild(std::iter::empty());
        }
    }

    /// Apply a batch of writes in one pass. The end state is that of
    /// [`KvEngine::put_at`] on each write in version order, and every write
    /// counts in `bytes_written`. A key already in the engine takes the
    /// loaded write, which must follow its stored version.
    ///
    /// A strictly ascending run into an empty engine becomes the arena as
    /// built. Any other run is sorted by key and version through a vector
    /// of positions, keeps each key's last write and is merged with the
    /// stored keys into a new run.
    pub fn bulk_load(&mut self, run: LoadRun) {
        let LoadRun {
            mut entries,
            unordered,
            bytes_written,
            next_version,
        } = run;
        self.bytes_written += bytes_written;
        self.next_version = self.next_version.max(next_version);
        if !unordered && self.entries.len() == 0 {
            self.run_len = entries.len();
            self.entries = entries;
            self.reindex();
            return;
        }
        let mut order: Vec<u32> = (0..entries.len())
            .map(|pos| u32::try_from(pos).expect("fewer than 2^32 writes"))
            .collect();
        // Equal keys order by version, then by push order, so the write
        // kept for a key never depends on the sort.
        order.sort_unstable_by(|&a, &b| {
            let (x, y) = (entries.get(a as usize), entries.get(b as usize));
            x.key()
                .cmp(y.key())
                .then(x.version.cmp(&y.version))
                .then(a.cmp(&b))
        });
        // `dedup_by` passes each write with the kept write before it; a
        // later write of the same key takes the kept slot.
        order.dedup_by(|later, kept| {
            let (l, k) = (entries.get(*later as usize), entries.get(*kept as usize));
            let same = l.key() == k.key();
            if same {
                debug_assert!(k.version < l.version, "out-of-order MVCC apply");
                std::mem::swap(later, kept);
            }
            same
        });
        self.rebuild(order.into_iter().map(move |pos| entries.take(pos as usize)));
    }

    /// Merge the run, the tail and the key-ordered `loaded` entries (which
    /// win over stored ones) into a new run, and index it.
    fn rebuild(&mut self, loaded: impl Iterator<Item = Entry>) {
        let mut stored = std::mem::take(&mut self.entries);
        let tail: Pages = std::mem::take(&mut self.tail)
            .into_values()
            .map(|pos| stored.take(pos as usize))
            .collect();
        stored.truncate(self.run_len);
        self.entries = merge(merge(stored.into_entries(), tail.into_entries()), loaded).collect();
        self.run_len = self.entries.len();
        self.reindex();
    }

    /// Rebuild the index over every entry, with room for new keys.
    fn reindex(&mut self) {
        let mut index = HashIndex::with_capacity(self.entries.len() + 1);
        for (pos, entry) in self.entries.iter().enumerate() {
            index.insert(hash_key(entry.key()), pos);
        }
        self.index = index;
    }

    /// The arena position of `key`, whose [`hash_key`] is `hash`.
    fn position(&self, key: &[u8], hash: u64) -> Option<usize> {
        self.index
            .find(hash, |pos| self.entries.get(pos).key() == key)
    }

    /// The latest write of `key`.
    fn latest(&self, key: &[u8]) -> Option<&Entry> {
        Some(self.entries.get(self.position(key, hash_key(key))?))
    }

    /// Read the latest committed version of `key`.
    pub fn get_latest(&self, key: &[u8]) -> Option<VersionedValue<'_>> {
        self.latest(key)?.visible()
    }

    /// [`KvEngine::get_latest`] with a position hint: when the entry at
    /// arena position `hint` holds `key`, the read takes it without hashing
    /// or probing the index; otherwise it probes as `get_latest` does.
    /// When `key` is stored (a tombstone included), `hint` ends one past
    /// its position, where a key-ordered walk of the run finds the next
    /// key; when it is not, `hint` is left as it was. The answer never
    /// depends on the hint: a stale one (after a merge, or from a read out
    /// of key order) costs only a key compare.
    pub fn get_latest_hinted(&self, key: &[u8], hint: &mut usize) -> Option<VersionedValue<'_>> {
        let pos = if *hint < self.entries.len() && self.entries.get(*hint).key() == key {
            *hint
        } else {
            self.position(key, hash_key(key))?
        };
        *hint = pos + 1;
        self.entries.get(pos).visible()
    }

    /// The latest version number recorded for `key`, even if a tombstone —
    /// this is what a version check compares against.
    pub fn latest_version(&self, key: &[u8]) -> Option<u64> {
        self.latest(key).map(|e| e.version)
    }

    /// Stored entries with keys from `start` on, in key order: the run's
    /// range merged with the tail's.
    fn entries_from<'a>(&'a self, start: &[u8]) -> impl Iterator<Item = &'a Entry> + 'a {
        // Binary search for the run's first key at or after `start`.
        let (mut lo, mut hi) = (0, self.run_len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.entries.get(mid).key() < start {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let mut run = (lo..self.run_len)
            .map(|pos| self.entries.get(pos))
            .peekable();
        let mut tail = self
            .tail
            .range::<[u8], _>((Bound::Included(start), Bound::Unbounded))
            .map(|(_, &pos)| self.entries.get(pos as usize))
            .peekable();
        std::iter::from_fn(move || match (run.peek(), tail.peek()) {
            (Some(r), Some(t)) if t.key() < r.key() => tail.next(),
            (Some(_), _) => run.next(),
            (None, _) => tail.next(),
        })
    }

    /// Scan live entries whose key starts with `prefix`, in key order.
    /// Returns (key, value, version) triples.
    pub fn scan_prefix<'a>(
        &'a self,
        prefix: &'a [u8],
    ) -> impl Iterator<Item = (&'a [u8], VersionedValue<'a>)> + 'a {
        self.entries_from(prefix)
            .take_while(move |e| e.key().starts_with(prefix))
            .filter_map(|e| Some((e.key(), e.visible()?)))
    }

    /// Scan live entries with keys in `[start, end_exclusive)` (unbounded
    /// above when `end_exclusive` is `None`), in key order.
    pub fn scan_between<'a>(
        &'a self,
        start: &[u8],
        end_exclusive: Option<&'a [u8]>,
    ) -> impl Iterator<Item = (&'a [u8], VersionedValue<'a>)> + 'a {
        self.entries_from(start)
            .take_while(move |e| end_exclusive.is_none_or(|end| e.key() < end))
            .filter_map(|e| Some((e.key(), e.visible()?)))
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
    fn versions_are_monotonic_and_a_rewrite_replaces_the_value() {
        let mut kv = KvEngine::new();
        let v1 = kv.put(key("a"), b"one".to_vec());
        let v2 = kv.put(key("a"), b"two".to_vec());
        assert!(v2 > v1);
        let got = kv.get_latest(b"a").unwrap();
        assert_eq!((got.value, got.version), (&b"two"[..], v2));
        assert_eq!(kv.latest_version(b"a"), Some(v2));
        assert_eq!(kv.live_keys(), 1);
        assert_eq!(kv.live_bytes(), 1 + 3);
        // Both writes are billed, though only the latest is kept.
        assert_eq!(kv.bytes_written(), 6);
    }

    #[test]
    fn delete_writes_tombstone_with_version() {
        let mut kv = KvEngine::new();
        let v1 = kv.put(key("a"), b"x".to_vec());
        let v2 = kv.delete(key("a"));
        assert!(v2 > v1);
        assert_eq!(kv.get_latest(b"a"), None);
        assert_eq!(kv.latest_version(b"a"), Some(v2));
        assert_eq!(kv.live_keys(), 0);
        assert_eq!(kv.live_bytes(), 0);
        // A write after the tombstone revives the key at a later version.
        let v3 = kv.put(key("a"), b"y".to_vec());
        assert!(v3 > v2);
        assert_eq!(kv.get_latest(b"a").unwrap().value, b"y");
        assert_eq!(kv.live_keys(), 1);
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
            .scan_prefix(b"t/users/")
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
    fn pair_moves_between_inline_and_boxed() {
        let key = [7u8; 24];
        let mut pair = Pair::new(&key, Some(&[1; 28]));
        assert!(matches!(pair, Pair::Inline { .. }));
        for value in [
            Some(&[2u8; 29][..]),
            Some(&[]),
            None,
            Some(&[3; 28]),
            None,
            Some(&[4; 100]),
        ] {
            pair.set_value(value);
            let inline = key.len() + value.map_or(0, <[u8]>::len) <= PAIR_INLINE;
            assert_eq!(matches!(pair, Pair::Inline { .. }), inline, "{value:?}");
            assert_eq!((pair.key(), pair.value()), (&key[..], value));
        }
        let long = Pair::new(&[9; 60], None);
        assert_eq!((long.key(), long.value()), (&[9u8; 60][..], None));
    }

    #[test]
    fn bulk_load_matches_put_at_in_version_order() {
        let writes = [
            (key("b"), Some(b"b1".to_vec()), 3),
            (key("a"), Some(b"a1".to_vec()), 1),
            (key("b"), None, 5),
            (key("a"), Some(b"a2".to_vec()), 4),
        ];
        // Both engines already hold a version of "a": the load replaces it.
        let mut by_put = KvEngine::new();
        by_put.put_at(b"a", Some(b"a0"), 0);
        let mut loaded = by_put.clone();
        let mut sorted = writes.clone();
        sorted.sort_by_key(|w| w.2);
        for (k, v, ver) in &sorted {
            by_put.put_at(k, v.as_deref(), *ver);
        }
        loaded.bulk_load(writes.iter().cloned().collect());
        assert_eq!(loaded.next_version(), by_put.next_version());
        assert_eq!(loaded.bytes_written(), by_put.bytes_written());
        assert_eq!(loaded.live_keys(), by_put.live_keys());
        assert_eq!(loaded.live_bytes(), by_put.live_bytes());
        for k in [&b"a"[..], b"b"] {
            assert_eq!(loaded.get_latest(k), by_put.get_latest(k));
            assert_eq!(loaded.latest_version(k), by_put.latest_version(k));
        }
        assert_eq!(loaded.get_latest(b"a").unwrap().value, b"a2");
        assert_eq!(loaded.latest_version(b"a"), Some(4));
        assert_eq!(loaded.latest_version(b"b"), Some(5));
    }

    #[test]
    fn scan_sees_only_the_latest_write() {
        let mut kv = KvEngine::new();
        kv.put(key("p/a"), b"old".to_vec());
        let v2 = kv.put(key("p/a"), b"new".to_vec());
        let v3 = kv.put(key("p/b"), b"later".to_vec());
        let hits: Vec<_> = kv
            .scan_prefix(b"p/")
            .map(|(_, v)| (v.value.to_vec(), v.version))
            .collect();
        assert_eq!(hits, vec![(b"new".to_vec(), v2), (b"later".to_vec(), v3)]);
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
            .scan_between(&[b'k', 3], Some(&[b'k', 7]))
            .map(|(_, v)| v.value[0])
            .collect();
        assert_eq!(hits, vec![3, 4, 5, 6]);
        let open_ended: Vec<u8> = kv
            .scan_between(&[b'k', 8], None)
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
