//! Allocation gate for `KeyInterner`.
//!
//! A counting `#[global_allocator]` pins the interner's layout:
//!
//! - a short key (at most 23 bytes, every `table/<8-byte key>` cache key of
//!   a short table name) is its own identity: interning it, first sight
//!   included, allocates nothing and leaves the interner empty;
//! - interning N distinct long keys allocates one box per key, and
//!   otherwise only when the table, the byte arena or the end-offset `Vec`
//!   grows, a logarithmic number of times;
//! - interning a key already seen, and `get`, allocate nothing.
//!
//! Only allocations made on the test's own thread are counted, so the test
//! harness's threads cannot move the counter; the interner spawns none.

mod alloc_gate;

use alloc_gate::allocations;
use cachekit::KeyInterner;

/// The cache key shape the serve path interns: `table/<8-byte key>`.
fn key_into(buf: &mut Vec<u8>, table: &[u8], k: u64) {
    buf.clear();
    buf.extend_from_slice(table);
    buf.push(b'/');
    buf.extend_from_slice(&k.to_be_bytes());
}

/// Allocations made while interning `table/<k>` for every `k` in `keys`,
/// each checked against `get`.
fn intern_all(interner: &mut KeyInterner, table: &[u8], keys: impl Iterator<Item = u64>) -> u64 {
    let mut key = Vec::with_capacity(64);
    allocations(|| {
        for k in keys {
            key_into(&mut key, table, k);
            let id = interner.intern(&key);
            assert_eq!(interner.get(&key), Some(id));
        }
    })
}

#[test]
fn short_keys_never_allocate_and_long_keys_only_box_and_grow() {
    const N: u64 = 100_000;
    let mut interner = KeyInterner::new();

    let short = intern_all(&mut interner, b"kv", 0..N);
    println!("intern_alloc: {N} first-sight short-key interns made {short} allocations");
    assert_eq!(short, 0, "short keys allocated {short} times");
    assert!(interner.is_empty(), "short keys left interner state");

    let long_table = b"a_table_with_a_long_name";
    let first_sight = intern_all(&mut interner, long_table, 0..N);
    // One box per key; each of the three growable buffers doubles at most
    // log2(N) + 1 times.
    let growth_bound = 3 * (u64::BITS - N.leading_zeros()) as u64 + 3;
    println!(
        "intern_alloc: {N} first-sight long-key interns made {first_sight} allocations \
         (bound {N} boxes + {growth_bound})"
    );
    assert!(
        first_sight <= N + growth_bound,
        "{first_sight} allocations for {N} long keys; one box per key plus \
         amortised growth ({growth_bound}) is allowed"
    );
    assert_eq!(interner.len(), N as usize);

    let repeats = intern_all(&mut interner, long_table, (0..N).rev())
        + intern_all(&mut interner, b"kv", (0..N).rev());
    assert_eq!(repeats, 0, "re-interning and get allocated {repeats} times");
    assert_eq!(interner.len(), N as usize);
}
