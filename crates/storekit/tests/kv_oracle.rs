//! Differential test: the flat MVCC memtable (`KvEngine`) vs a naive
//! oracle, a `BTreeMap` from owned key to its full version list.
//!
//! A splitmix64-driven operation stream drives both: `put`, `put_at`,
//! `delete`, point reads at random snapshots, prefix and range scans, GC,
//! clones, and bulk loads into fresh and populated engines (including keys
//! the engine already holds and keys repeated within one load). Key and
//! value lengths sit on the inline-storage boundary (0, `INLINE_BYTES - 1`,
//! `INLINE_BYTES`, `INLINE_BYTES + 1`) and use embedded `0x00`/`0xFF` bytes.
//! Every read and counter must agree exactly.
//!
//! Run with `cargo test -p storekit --test kv_oracle -- --nocapture` to see
//! the executed case count.

use std::collections::BTreeMap;
use std::ops::Bound;
use storekit::kv::{InlineBytes, KvEngine, INLINE_BYTES};

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

type Versions = Vec<(u64, Option<Vec<u8>>)>;

/// The reference model: every version of every key, ascending.
#[derive(Clone, Default)]
struct Oracle {
    data: BTreeMap<Vec<u8>, Versions>,
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
        let versions = self.data.entry(key.to_vec()).or_default();
        assert!(
            versions.last().is_none_or(|l| l.0 < version),
            "test drove versions backwards"
        );
        versions.push((version, value.map(<[u8]>::to_vec)));
    }

    fn at(versions: &Versions, snapshot: u64) -> Option<(u64, Vec<u8>)> {
        let (version, value) = versions.iter().rev().find(|v| v.0 <= snapshot)?;
        Some((*version, value.clone()?))
    }

    fn get_at(&self, key: &[u8], snapshot: u64) -> Option<(u64, Vec<u8>)> {
        Self::at(self.data.get(key)?, snapshot)
    }

    fn scan(
        &self,
        start: &[u8],
        keep: impl Fn(&[u8]) -> bool,
        snapshot: u64,
    ) -> Vec<(Vec<u8>, u64, Vec<u8>)> {
        self.data
            .range::<[u8], _>((Bound::Included(start), Bound::Unbounded))
            .take_while(|(k, _)| keep(k))
            .filter_map(|(k, vs)| Self::at(vs, snapshot).map(|(ver, val)| (k.clone(), ver, val)))
            .collect()
    }

    fn gc(&mut self, keep_after: u64) -> usize {
        let mut reclaimed = 0;
        self.data.retain(|_, versions| {
            let keep_from = versions
                .iter()
                .take_while(|v| v.0 < keep_after)
                .count()
                .min(versions.len() - 1);
            reclaimed += keep_from;
            versions.drain(..keep_from);
            let last = versions.last().expect("newest version is kept");
            if last.1.is_none() && last.0 < keep_after {
                reclaimed += versions.len();
                false
            } else {
                true
            }
        });
        reclaimed
    }
}

fn engine_scan<'a>(
    it: impl Iterator<Item = (&'a [u8], storekit::kv::VersionedValue<'a>)>,
) -> Vec<(Vec<u8>, u64, Vec<u8>)> {
    it.map(|(k, v)| (k.to_vec(), v.version, v.value.to_vec()))
        .collect()
}

/// Full-state agreement: counters, and every key at every snapshot.
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
    let entries: usize = oracle.data.values().map(Vec::len).sum();
    assert_eq!(kv.version_entries(), entries, "{ctx}: version_entries");
    let live = oracle
        .data
        .values()
        .filter(|vs| vs.last().is_some_and(|v| v.1.is_some()));
    assert_eq!(kv.live_keys(), live.count(), "{ctx}: live_keys");
    let live_bytes: u64 = oracle
        .data
        .iter()
        .filter_map(|(k, vs)| Some((k.len() + vs.last()?.1.as_ref()?.len()) as u64))
        .sum();
    assert_eq!(kv.live_bytes(), live_bytes, "{ctx}: live_bytes");
    let all = engine_scan(kv.scan_between(&[], None, u64::MAX));
    assert_eq!(
        all,
        oracle.scan(&[], |_| true, u64::MAX),
        "{ctx}: full scan"
    );
    for (key, versions) in &oracle.data {
        assert_eq!(
            kv.latest_version(key),
            versions.last().map(|v| v.0),
            "{ctx}: latest_version"
        );
        for &(version, _) in versions {
            for snapshot in [version - 1, version] {
                let got = kv
                    .get_at(key, snapshot)
                    .map(|v| (v.version, v.value.to_vec()));
                assert_eq!(
                    got,
                    oracle.get_at(key, snapshot),
                    "{ctx}: {key:?} at {snapshot}"
                );
            }
        }
    }
}

/// A batch of writes at fresh versions, in shuffled order: repeated keys,
/// keys the engine already holds, and new keys.
fn bulk_batch(
    rng: &mut Rng,
    pool: &[Vec<u8>],
    oracle: &mut Oracle,
) -> Vec<(InlineBytes, Option<InlineBytes>, u64)> {
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
        .into_iter()
        .map(|(k, v, ver)| (InlineBytes::from(k), v.map(InlineBytes::from), ver))
        .collect()
}

fn differential_run(seed: u64, ops: usize) {
    let mut rng = Rng(seed);
    let pool: Vec<Vec<u8>> = (0..24).map(|_| rng.bytes()).collect();
    let mut kv = KvEngine::new();
    let mut oracle = Oracle::new();
    for step in 0..ops {
        let ctx = format!("seed {seed} step {step}");
        let key = rng.pick(&pool).clone();
        let snapshot = rng.below(oracle.next_version + 2);
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
                let got = kv
                    .get_at(&key, snapshot)
                    .map(|v| (v.version, v.value.to_vec()));
                assert_eq!(
                    got,
                    oracle.get_at(&key, snapshot),
                    "{ctx}: get_at {snapshot}"
                );
                let got = kv.get_latest(&key).map(|v| (v.version, v.value.to_vec()));
                assert_eq!(got, oracle.get_at(&key, u64::MAX), "{ctx}: get_latest");
                let latest = oracle.data.get(&key).and_then(|vs| vs.last()).map(|v| v.0);
                assert_eq!(kv.latest_version(&key), latest, "{ctx}: latest_version");
            }
            9 => {
                let prefix = &key[..rng.below(key.len() as u64 + 1) as usize];
                let got = engine_scan(kv.scan_prefix(prefix, snapshot));
                let want = oracle.scan(prefix, |k| k.starts_with(prefix), snapshot);
                assert_eq!(got, want, "{ctx}: scan_prefix {prefix:?}");
            }
            10 => {
                let end = (rng.below(3) != 0).then(|| rng.pick(&pool).clone());
                let got = engine_scan(kv.scan_between(&key, end.as_deref(), snapshot));
                let want = oracle.scan(&key, |k| end.as_deref().is_none_or(|e| k < e), snapshot);
                assert_eq!(got, want, "{ctx}: scan_between {key:?}..{end:?}");
            }
            11 => {
                let keep_after = rng.below(oracle.next_version + 1);
                assert_eq!(
                    kv.gc(keep_after),
                    oracle.gc(keep_after),
                    "{ctx}: gc reclaimed"
                );
                check_state(&kv, &oracle, &ctx);
            }
            12 => {
                let copy = kv.clone();
                check_state(&copy, &oracle, &ctx);
                kv = copy;
            }
            13 => {
                // Bulk load into a fresh engine.
                kv = KvEngine::new();
                oracle = Oracle::new();
                kv.bulk_load(bulk_batch(&mut rng, &pool, &mut oracle));
                check_state(&kv, &oracle, &ctx);
            }
            _ => {
                // Bulk load into the populated engine.
                kv.bulk_load(bulk_batch(&mut rng, &pool, &mut oracle));
                check_state(&kv, &oracle, &ctx);
            }
        }
    }
    check_state(&kv, &oracle, &format!("seed {seed} end"));
}

#[test]
fn kv_engine_matches_naive_mvcc_oracle() {
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

#[test]
fn reloading_a_key_extends_its_chain() {
    let mut kv = KvEngine::new();
    let key = vec![0xFF; INLINE_BYTES + 1];
    let load =
        |value: &[u8], version| vec![(InlineBytes::from(key.clone()), Some(value.into()), version)];
    kv.bulk_load(load(b"first", 1));
    kv.bulk_load(load(b"second", 2));
    assert_eq!(kv.version_entries(), 2);
    assert_eq!(kv.get_at(&key, 1).unwrap().value, b"first");
    assert_eq!(kv.get_latest(&key).unwrap().value, b"second");
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
