//! Differential test: the hash-indexed engine (`KvEngine`) vs a naive
//! oracle, a `BTreeMap` from owned key to its latest version and value.
//!
//! A splitmix64-driven operation stream drives both: `put`, `put_at`,
//! `delete`, point reads, prefix and range scans, full-state checks,
//! clones, and bulk loads into fresh and populated engines (including keys
//! the engine already holds and keys repeated within one load). Key and
//! value lengths sit on the inline-storage boundaries: 0, `INLINE_BYTES - 1`,
//! `INLINE_BYTES` and `INLINE_BYTES + 1` for `InlineBytes`, and key plus
//! value just under and over the 52 bytes an entry holds inline (24 + 28,
//! 24 + 29). They use embedded `0x00`/`0xFF` bytes.
//! Every read and counter must agree exactly.
//!
//! A second stream writes a steady supply of new keys, so it drives the
//! engine's run/tail layout through its edges: new keys after a bulk load,
//! past the point where the tail merges into the run; index growth;
//! tombstones in the tail; scans that span the run and the tail; and
//! clones of, and bulk loads into, engines whose tail is not empty. It
//! counts each edge it reached and requires every count to be non-zero.
//!
//! A third test checks the hinted read, `get_latest_hinted`, against
//! `get_latest` and the oracle for run, tail, tombstoned and missing keys,
//! with hints of 0, exact, off by one either way, past the end, and stale
//! after a tail merge or an index growth. It models the arena order from
//! outside (a load or merge leaves every key in key order, a new key goes
//! to the end) and checks that a hit leaves the hint one past the key's
//! position and a miss leaves it alone.
//!
//! Run with `cargo test -p storekit --test kv_oracle -- --nocapture` to see
//! the executed case count.

use std::collections::BTreeMap;
use std::ops::Bound;
use storekit::kv::{InlineBytes, KvEngine, LoadRun, INLINE_BYTES};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        splitmix64(&mut self.0) % n
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// Bytes of a boundary length over a small alphabet, so keys share
    /// prefixes and carry the escape bytes.
    fn bytes(&mut self) -> Vec<u8> {
        let len = *self.pick(&[
            0,
            1,
            14,
            24,
            28,
            INLINE_BYTES - 1,
            INLINE_BYTES,
            INLINE_BYTES + 1,
            64,
        ]);
        (0..len)
            .map(|_| *self.pick(&[0x00, 0x01, 0x7F, 0xFF]))
            .collect()
    }
}

/// A key's latest write: its version and value (`None` = tombstone).
type Latest = (u64, Option<Vec<u8>>);

/// The reference model: each key's latest write.
#[derive(Clone, Default)]
struct Oracle {
    data: BTreeMap<Vec<u8>, Latest>,
    next_version: u64,
    bytes_written: u64,
}

impl Oracle {
    fn new() -> Self {
        Oracle {
            next_version: 1,
            ..Default::default()
        }
    }

    fn put_at(&mut self, key: &[u8], value: Option<&[u8]>, version: u64) {
        self.next_version = self.next_version.max(version + 1);
        self.bytes_written += value.map_or(0, |v| v.len() as u64);
        let previous = self
            .data
            .insert(key.to_vec(), (version, value.map(<[u8]>::to_vec)));
        assert!(
            previous.is_none_or(|p| p.0 < version),
            "test drove versions backwards"
        );
    }

    fn visible((version, value): &Latest) -> Option<(u64, Vec<u8>)> {
        Some((*version, value.clone()?))
    }

    fn get_latest(&self, key: &[u8]) -> Option<(u64, Vec<u8>)> {
        Self::visible(self.data.get(key)?)
    }

    fn latest_version(&self, key: &[u8]) -> Option<u64> {
        self.data.get(key).map(|l| l.0)
    }

    fn scan(&self, start: &[u8], keep: impl Fn(&[u8]) -> bool) -> Vec<(Vec<u8>, u64, Vec<u8>)> {
        self.data
            .range::<[u8], _>((Bound::Included(start), Bound::Unbounded))
            .take_while(|(k, _)| keep(k))
            .filter_map(|(k, l)| Self::visible(l).map(|(ver, val)| (k.clone(), ver, val)))
            .collect()
    }
}

fn engine_scan<'a>(
    it: impl Iterator<Item = (&'a [u8], storekit::kv::VersionedValue<'a>)>,
) -> Vec<(Vec<u8>, u64, Vec<u8>)> {
    it.map(|(k, v)| (k.to_vec(), v.version, v.value.to_vec()))
        .collect()
}

/// Full-state agreement: counters, scans, and every key's latest version
/// and value, tombstones included.
fn check_state(kv: &KvEngine, oracle: &Oracle, ctx: &str) {
    assert_eq!(
        kv.next_version(),
        oracle.next_version,
        "{ctx}: next_version"
    );
    assert_eq!(
        kv.bytes_written(),
        oracle.bytes_written,
        "{ctx}: bytes_written"
    );
    let live = oracle.data.values().filter(|l| l.1.is_some());
    assert_eq!(kv.live_keys(), live.count(), "{ctx}: live_keys");
    let live_bytes: u64 = oracle
        .data
        .iter()
        .filter_map(|(k, l)| Some((k.len() + l.1.as_ref()?.len()) as u64))
        .sum();
    assert_eq!(kv.live_bytes(), live_bytes, "{ctx}: live_bytes");
    let all = engine_scan(kv.scan_between(&[], None));
    assert_eq!(all, oracle.scan(&[], |_| true), "{ctx}: full scan");
    for key in oracle.data.keys() {
        assert_eq!(
            kv.latest_version(key),
            oracle.latest_version(key),
            "{ctx}: {key:?} latest_version"
        );
        let got = kv.get_latest(key).map(|v| (v.version, v.value.to_vec()));
        assert_eq!(got, oracle.get_latest(key), "{ctx}: {key:?} get_latest");
    }
}

/// A batch of writes at fresh versions, in shuffled order: repeated keys,
/// keys the engine already holds, and new keys.
fn bulk_batch(
    rng: &mut Rng,
    pool: &[Vec<u8>],
    oracle: &mut Oracle,
) -> Vec<(Vec<u8>, Option<Vec<u8>>, u64)> {
    let n = 1 + rng.below(24) as usize;
    let mut writes: Vec<(Vec<u8>, Option<Vec<u8>>, u64)> = Vec::with_capacity(n);
    let mut version = oracle.next_version;
    for _ in 0..n {
        let key = if rng.below(4) == 0 {
            rng.bytes()
        } else {
            rng.pick(pool).clone()
        };
        let value = (rng.below(5) != 0).then(|| rng.bytes());
        writes.push((key, value, version));
        version += 1 + rng.below(3);
    }
    for (key, value, version) in &writes {
        oracle.put_at(key, value.as_deref(), *version);
    }
    for i in (1..writes.len()).rev() {
        writes.swap(i, rng.below(i as u64 + 1) as usize);
    }
    writes
}

fn differential_run(seed: u64, ops: usize) {
    let mut rng = Rng(seed);
    let pool: Vec<Vec<u8>> = (0..24).map(|_| rng.bytes()).collect();
    let mut kv = KvEngine::new();
    let mut oracle = Oracle::new();
    for step in 0..ops {
        let ctx = format!("seed {seed} step {step}");
        let key = rng.pick(&pool).clone();
        match rng.below(16) {
            0..=3 => {
                let value = rng.bytes();
                let version = oracle.next_version + rng.below(3);
                kv.put_at(&key, Some(&value), version);
                oracle.put_at(&key, Some(&value), version);
            }
            4 => {
                let value = rng.bytes();
                let version = oracle.next_version;
                assert_eq!(
                    kv.put(key.clone(), value.clone()),
                    version,
                    "{ctx}: put version"
                );
                oracle.put_at(&key, Some(&value), version);
            }
            5 => {
                let version = oracle.next_version;
                assert_eq!(kv.delete(key.clone()), version, "{ctx}: delete version");
                oracle.put_at(&key, None, version);
            }
            6..=8 => {
                let got = kv.get_latest(&key).map(|v| (v.version, v.value.to_vec()));
                assert_eq!(got, oracle.get_latest(&key), "{ctx}: get_latest");
                assert_eq!(
                    kv.latest_version(&key),
                    oracle.latest_version(&key),
                    "{ctx}: latest_version"
                );
            }
            9 => {
                let prefix = &key[..rng.below(key.len() as u64 + 1) as usize];
                let got = engine_scan(kv.scan_prefix(prefix));
                let want = oracle.scan(prefix, |k| k.starts_with(prefix));
                assert_eq!(got, want, "{ctx}: scan_prefix {prefix:?}");
            }
            10 => {
                let end = (rng.below(3) != 0).then(|| rng.pick(&pool).clone());
                let got = engine_scan(kv.scan_between(&key, end.as_deref()));
                let want = oracle.scan(&key, |k| end.as_deref().is_none_or(|e| k < e));
                assert_eq!(got, want, "{ctx}: scan_between {key:?}..{end:?}");
            }
            11 => check_state(&kv, &oracle, &ctx),
            12 => {
                let copy = kv.clone();
                check_state(&copy, &oracle, &ctx);
                kv = copy;
            }
            13 => {
                // Bulk load into a fresh engine.
                kv = KvEngine::new();
                oracle = Oracle::new();
                let batch = bulk_batch(&mut rng, &pool, &mut oracle);
                kv.bulk_load(batch.into_iter().collect());
                check_state(&kv, &oracle, &ctx);
            }
            _ => {
                // Bulk load into the populated engine.
                let batch = bulk_batch(&mut rng, &pool, &mut oracle);
                kv.bulk_load(batch.into_iter().collect());
                check_state(&kv, &oracle, &ctx);
            }
        }
    }
    check_state(&kv, &oracle, &format!("seed {seed} end"));
}

#[test]
fn kv_engine_matches_latest_only_oracle() {
    const SEEDS: u64 = 64;
    const OPS: usize = 400;
    let mut cases = 0;
    for seed in 0..SEEDS {
        differential_run(0xC0FF_EE00 + seed, OPS);
        cases += 1;
    }
    println!("kv_oracle: {cases} cases x {OPS} operations executed");
    assert_eq!(cases, SEEDS);
}

/// How often the layout stream reached each edge of the run/tail layout.
#[derive(Debug, Default)]
struct Edges {
    tail_merges: u64,
    index_growths: u64,
    tail_tombstones: u64,
    spanning_scans: u64,
    tail_clones: u64,
    loads_over_tail: u64,
}

/// Keys the engine holds in its tail, mirrored from the outside: a key
/// first written by `put_at` joins the tail, and a bulk load or a merge
/// (seen as the tail emptying) moves every key into the run.
#[derive(Default)]
struct TailMirror(std::collections::BTreeSet<Vec<u8>>);

impl TailMirror {
    fn check(&self, kv: &KvEngine, ctx: &str) {
        let layout = kv.layout();
        assert_eq!(layout.tail, self.0.len(), "{ctx}: tail size");
        assert!(
            layout.run + layout.tail <= layout.index_slots * 3 / 4,
            "{ctx}: index over-full {layout:?}"
        );
    }
}

/// A key that is almost surely new: random bytes of a boundary length over
/// a wide alphabet, behind one of two shared prefixes.
fn fresh_key(rng: &mut Rng) -> Vec<u8> {
    let mut key = rng.pick(&[&b"t/"[..], b"t/x"]).to_vec();
    let len = *rng.pick(&[12, INLINE_BYTES - 3, INLINE_BYTES - 2, 40]);
    key.extend((0..len).map(|_| rng.below(256) as u8));
    key
}

fn layout_run(seed: u64, ops: usize, edges: &mut Edges) {
    let mut rng = Rng(seed);
    let mut kv = KvEngine::new();
    let mut oracle = Oracle::new();
    let mut tail = TailMirror::default();
    let mut keys: Vec<Vec<u8>> = Vec::new();
    for step in 0..ops {
        let ctx = format!("layout seed {seed} step {step}");
        match rng.below(20) {
            // New keys, most of the stream: the tail fills and merges.
            0..=7 => {
                let key = fresh_key(&mut rng);
                let value = (rng.below(6) != 0).then(|| rng.bytes());
                let version = oracle.next_version + rng.below(2);
                let before = kv.layout();
                let new = !oracle.data.contains_key(&key);
                kv.put_at(&key, value.as_deref(), version);
                oracle.put_at(&key, value.as_deref(), version);
                let after = kv.layout();
                if new {
                    keys.push(key.clone());
                    tail.0.insert(key);
                    if after.tail == 0 {
                        edges.tail_merges += 1;
                        tail.0.clear();
                        assert_eq!(after.run, before.run + before.tail + 1, "{ctx}: merge");
                    }
                    edges.index_growths += u64::from(after.index_slots > before.index_slots);
                }
                tail.check(&kv, &ctx);
            }
            // Rewrites and deletes of stored keys, tail keys included.
            8..=10 if !keys.is_empty() => {
                let key = rng.pick(&keys).clone();
                let value = (rng.below(3) != 0).then(|| rng.bytes());
                let version = oracle.next_version;
                if value.is_none() && tail.0.contains(&key) {
                    edges.tail_tombstones += 1;
                }
                kv.put_at(&key, value.as_deref(), version);
                oracle.put_at(&key, value.as_deref(), version);
                tail.check(&kv, &ctx);
            }
            11..=13 if !keys.is_empty() => {
                let key = rng.pick(&keys).clone();
                let got = kv.get_latest(&key).map(|v| (v.version, v.value.to_vec()));
                assert_eq!(got, oracle.get_latest(&key), "{ctx}: get_latest");
                assert_eq!(
                    kv.latest_version(&key),
                    oracle.latest_version(&key),
                    "{ctx}"
                );
                let absent = fresh_key(&mut rng);
                assert_eq!(
                    kv.latest_version(&absent),
                    oracle.latest_version(&absent),
                    "{ctx}"
                );
            }
            14..=16 => {
                let start = if keys.is_empty() || rng.below(4) == 0 {
                    fresh_key(&mut rng)
                } else {
                    let key = rng.pick(&keys);
                    key[..rng.below(key.len() as u64 + 1) as usize].to_vec()
                };
                let got = if rng.below(2) == 0 {
                    let want = oracle.scan(&start, |k| k.starts_with(&start));
                    let got = engine_scan(kv.scan_prefix(&start));
                    assert_eq!(got, want, "{ctx}: scan_prefix {start:?}");
                    got
                } else {
                    let end = fresh_key(&mut rng);
                    let want = oracle.scan(&start, |k| k < end.as_slice());
                    let got = engine_scan(kv.scan_between(&start, Some(&end)));
                    assert_eq!(got, want, "{ctx}: scan_between {start:?}..{end:?}");
                    got
                };
                let in_tail = got.iter().filter(|(k, ..)| tail.0.contains(k)).count();
                edges.spanning_scans += u64::from(in_tail > 0 && in_tail < got.len());
            }
            17 => {
                edges.tail_clones += u64::from(!tail.0.is_empty());
                let copy = kv.clone();
                assert_eq!(copy.layout(), kv.layout(), "{ctx}: clone layout");
                check_state(&copy, &oracle, &ctx);
                kv = copy;
            }
            // Rare, so the tail fills past its merge point between loads.
            18 if rng.below(16) == 0 => {
                // Bulk load over the current engine: stored and new keys.
                edges.loads_over_tail += u64::from(!tail.0.is_empty());
                let pool: Vec<Vec<u8>> = (0..8)
                    .map(|_| {
                        if keys.is_empty() || rng.below(2) == 0 {
                            fresh_key(&mut rng)
                        } else {
                            rng.pick(&keys).clone()
                        }
                    })
                    .collect();
                let batch = bulk_batch(&mut rng, &pool, &mut oracle);
                keys.extend(batch.iter().map(|w| w.0.clone()));
                keys.sort();
                keys.dedup();
                kv.bulk_load(batch.into_iter().collect());
                tail.0.clear();
                tail.check(&kv, &ctx);
                check_state(&kv, &oracle, &ctx);
            }
            _ => check_state(&kv, &oracle, &ctx),
        }
    }
    check_state(&kv, &oracle, &format!("layout seed {seed} end"));
}

#[test]
fn layout_edges_match_the_oracle() {
    const SEEDS: u64 = 16;
    const OPS: usize = 1_500;
    let mut edges = Edges::default();
    for seed in 0..SEEDS {
        layout_run(0x7A11_0000 + seed, OPS, &mut edges);
    }
    println!("kv_oracle layout: {SEEDS} cases x {OPS} operations, edges reached: {edges:?}");
    let Edges {
        tail_merges,
        index_growths,
        tail_tombstones,
        spanning_scans,
        tail_clones,
        loads_over_tail,
    } = edges;
    for (edge, count) in [
        ("tail merges", tail_merges),
        ("index growths", index_growths),
        ("tail tombstones", tail_tombstones),
        ("scans spanning run and tail", spanning_scans),
        ("clones with a tail", tail_clones),
        ("bulk loads over a tail", loads_over_tail),
    ] {
        assert!(count > 0, "the stream never reached {edge}");
    }
}

/// The engine's arena order as seen from outside: a bulk load or a tail
/// merge leaves every stored key in key order, and a new key goes to the
/// end. `get_latest_hinted` leaves a hit's hint one past the key's index
/// here.
#[derive(Clone, Default)]
struct Arena(Vec<Vec<u8>>);

impl Arena {
    fn sorted(oracle: &Oracle) -> Arena {
        Arena(oracle.data.keys().cloned().collect())
    }

    fn position(&self, key: &[u8]) -> Option<usize> {
        self.0.iter().position(|k| k == key)
    }
}

/// Write `key` to both engines as a new or stored key, keeping `arena` in
/// step; returns whether the write merged the tail into the run.
fn write_mirrored(
    kv: &mut KvEngine,
    oracle: &mut Oracle,
    arena: &mut Arena,
    key: &[u8],
    value: Option<&[u8]>,
) -> bool {
    let new = !oracle.data.contains_key(key);
    let version = oracle.next_version;
    kv.put_at(key, value, version);
    oracle.put_at(key, value, version);
    if new {
        arena.0.push(key.to_vec());
    }
    let merged = new && kv.layout().tail == 0;
    if merged {
        *arena = Arena::sorted(oracle);
    }
    merged
}

/// Every stored key and every key of `absent` read through
/// `get_latest_hinted` under each kind of hint, against `get_latest` and
/// the oracle. `stale` is an earlier arena order. Returns the reads made.
fn check_hinted(
    kv: &KvEngine,
    oracle: &Oracle,
    arena: &Arena,
    stale: &Arena,
    absent: &[Vec<u8>],
    ctx: &str,
) -> u64 {
    let len = arena.0.len();
    assert_eq!(
        kv.layout().run + kv.layout().tail,
        len,
        "{ctx}: arena model"
    );
    let mut reads = 0;
    for key in oracle.data.keys().chain(absent) {
        let exact = arena.position(key);
        let want = kv.get_latest(key).map(|v| (v.version, v.value.to_vec()));
        assert_eq!(want, oracle.get_latest(key), "{ctx}: {key:?} get_latest");
        let e = exact.unwrap_or(len / 2);
        let mut hints = vec![
            0,
            1,
            e,
            e + 1,
            e.saturating_sub(1),
            len,
            len + 1,
            usize::MAX,
        ];
        hints.extend(stale.position(key));
        for hint in hints {
            let mut h = hint;
            let got = kv
                .get_latest_hinted(key, &mut h)
                .map(|v| (v.version, v.value.to_vec()));
            assert_eq!(got, want, "{ctx}: {key:?} at hint {hint}");
            match exact {
                Some(pos) => assert_eq!(h, pos + 1, "{ctx}: {key:?} hint {hint} after a hit"),
                None => assert_eq!(h, hint, "{ctx}: {key:?} hint {hint} after a miss"),
            }
            reads += 1;
        }
    }
    reads
}

#[test]
fn hinted_reads_match_get_latest() {
    let mut rng = Rng(0x4141_7E00);
    let mut reads = 0;
    let absent: Vec<Vec<u8>> = (0..16).map(|_| fresh_key(&mut rng)).collect();
    // 200 keys: the tail merges at 101 new keys, before the index fills.
    // 63 keys: the index grows at 33 new keys, and the tail never merges.
    for (loaded, fresh, merges) in [(200, 140, true), (63, 40, false)] {
        let mut kv = KvEngine::new();
        let mut oracle = Oracle::new();
        let pool: Vec<Vec<u8>> = (0..loaded)
            .map(|_| fresh_key(&mut rng))
            .filter(|k| !absent.contains(k))
            .collect();
        let mut load = LoadRun::new();
        for (i, key) in pool.iter().enumerate() {
            // Every fifth key is loaded as a tombstone.
            let value = (i % 5 != 0).then(|| rng.bytes());
            let version = oracle.next_version;
            oracle.put_at(key, value.as_deref(), version);
            load.push(key, value.as_deref(), version);
        }
        kv.bulk_load(load);
        let mut arena = Arena::sorted(&oracle);
        let ctx = format!("{loaded} loaded");
        reads += check_hinted(&kv, &oracle, &arena, &Arena::default(), &absent, &ctx);

        // New keys into the tail, every fourth a tombstone, checked while
        // the tail is non-empty; then through the merge or the growth.
        let mut before = arena.clone();
        let slots = kv.layout().index_slots;
        let (mut merged, mut grown) = (false, false);
        for i in 0..fresh {
            let key = fresh_key(&mut rng);
            if absent.contains(&key) {
                continue;
            }
            let value = (i % 4 != 0).then(|| rng.bytes());
            if write_mirrored(&mut kv, &mut oracle, &mut arena, &key, value.as_deref()) {
                merged = true;
                let ctx = format!("{loaded} loaded, tail merged at new key {i}");
                reads += check_hinted(&kv, &oracle, &arena, &before, &absent, &ctx);
            }
            if !grown && kv.layout().index_slots > slots {
                grown = true;
                let ctx = format!("{loaded} loaded, index grown at new key {i}");
                reads += check_hinted(&kv, &oracle, &arena, &before, &absent, &ctx);
            }
            if i == fresh / 4 {
                assert!(kv.layout().tail > 0, "no tail to read");
                let ctx = format!("{loaded} loaded, tail of {}", kv.layout().tail);
                reads += check_hinted(&kv, &oracle, &arena, &before, &absent, &ctx);
                before = arena.clone();
            }
        }
        assert_eq!(
            (merged, grown),
            (merges, true),
            "{loaded} loaded: (merged, grown)"
        );
        // Rewrites of stored keys, tombstones to values and back, keep
        // their positions.
        for key in pool.iter().step_by(3) {
            let value = (rng.below(3) != 0).then(|| rng.bytes());
            write_mirrored(&mut kv, &mut oracle, &mut arena, key, value.as_deref());
        }
        let ctx = format!("{loaded} loaded, rewritten");
        reads += check_hinted(&kv, &oracle, &arena, &before, &absent, &ctx);
    }
    println!("kv_oracle hinted: {reads} hinted reads checked");
}

#[test]
fn reloading_a_key_replaces_its_value() {
    let mut kv = KvEngine::new();
    let key = vec![0xFF; INLINE_BYTES + 1];
    let load = |value: &[u8], version| {
        let mut run = LoadRun::new();
        run.push(&key, Some(value), version);
        run
    };
    kv.bulk_load(load(b"first", 1));
    kv.bulk_load(load(b"second", 2));
    let latest = kv.get_latest(&key).unwrap();
    assert_eq!((latest.value, latest.version), (&b"second"[..], 2));
    assert_eq!(kv.live_keys(), 1);
    assert_eq!(kv.live_bytes(), (key.len() + b"second".len()) as u64);
    assert_eq!(
        kv.bytes_written(),
        (b"first".len() + b"second".len()) as u64
    );
    assert_eq!(kv.next_version(), 3);
}

/// `InlineBytes` orders and compares exactly like its `[u8]` contents: its
/// word compare of zero-padded inline buffers must agree with `[u8]` order
/// on every pair, across the inline/heap boundary, on `0x00`/`0xFF` bytes
/// and on strings that differ only by trailing zeros (`ab` vs `ab\0`).
#[test]
fn inline_bytes_order_matches_byte_order() {
    let mut corpus: Vec<Vec<u8>> = Vec::new();
    for len in 0..=INLINE_BYTES + 1 {
        let ascending: Vec<u8> = (0..len).map(|i| i as u8 + 1).collect();
        for base in [vec![0x00; len], vec![0xFF; len], ascending] {
            let mut zero_tail = base.clone();
            zero_tail.push(0x00);
            let mut bumped = base.clone();
            if let Some(last) = bumped.last_mut() {
                *last = last.wrapping_add(1);
            }
            corpus.extend([base, zero_tail, bumped]);
        }
    }
    corpus.extend([
        b"ab".to_vec(),
        b"ab\0".to_vec(),
        b"ab\0\0".to_vec(),
        b"ab\x01".to_vec(),
    ]);
    let mut rng = Rng(0x0DE2_0B17);
    let mut prefix = Vec::new();
    for _ in 0..400 {
        // Extend, cut or restart a running prefix so many strings share one.
        match rng.below(3) {
            0 => prefix.clear(),
            1 => prefix.truncate(rng.below(prefix.len() as u64 + 1) as usize),
            _ => {}
        }
        let len = rng.below(INLINE_BYTES as u64 + 2) as usize;
        while prefix.len() < len {
            prefix.push(*rng.pick(&[0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF]));
        }
        prefix.truncate(len);
        corpus.push(prefix.clone());
    }
    let wrapped: Vec<InlineBytes> = corpus
        .iter()
        .map(|b| InlineBytes::from(b.as_slice()))
        .collect();
    let mut pairs = 0u64;
    for (a, x) in corpus.iter().zip(&wrapped) {
        assert_eq!(x.as_slice(), a.as_slice());
        for (b, y) in corpus.iter().zip(&wrapped) {
            let want = a.as_slice().cmp(b.as_slice());
            assert_eq!(x.cmp(y), want, "cmp {a:?} vs {b:?}");
            assert_eq!(x.partial_cmp(y), Some(want), "partial_cmp {a:?} vs {b:?}");
            assert_eq!(x == y, a == b, "eq {a:?} vs {b:?}");
            pairs += 1;
        }
    }
    println!(
        "inline_bytes order: {} strings, {pairs} ordered pairs compared",
        corpus.len()
    );
}
