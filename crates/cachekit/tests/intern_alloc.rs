//! Allocation gate for `KeyInterner`.
//!
//! A counting `#[global_allocator]` pins two properties of the interner's
//! layout:
//!
//! - interning N distinct short keys allocates only when the table, the
//!   byte arena or the end-offset `Vec` grows, a logarithmic number of
//!   times. A layout that boxes each key costs at least one allocation per
//!   key;
//! - interning a key already seen, and `get`, allocate nothing.
//!
//! The test binary holds this one test, so no sibling thread can move the
//! counter.

use cachekit::KeyInterner;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The cache key shape the serve path interns: `table/<8-byte key>`.
fn key_into(buf: &mut Vec<u8>, k: u64) {
    buf.clear();
    buf.extend_from_slice(b"kv/");
    buf.extend_from_slice(&k.to_be_bytes());
}

#[test]
fn interning_short_keys_allocates_only_for_growth() {
    const N: u64 = 100_000;
    let mut interner = KeyInterner::new();
    let mut key = Vec::with_capacity(16);

    let before = ALLOCS.load(Ordering::SeqCst);
    for k in 0..N {
        key_into(&mut key, k);
        interner.intern(&key);
    }
    let first_sight = ALLOCS.load(Ordering::SeqCst) - before;
    // Each of the three growable buffers doubles at most log2(N) + 1 times.
    let growth_bound = 3 * (u64::BITS - N.leading_zeros()) as u64 + 3;
    println!("intern_alloc: {N} first-sight interns made {first_sight} allocations (bound {growth_bound})");
    assert!(
        first_sight <= growth_bound,
        "{first_sight} allocations for {N} short keys; only amortised growth \
         ({growth_bound}) is allowed"
    );
    assert_eq!(interner.len(), N as usize);

    let before = ALLOCS.load(Ordering::SeqCst);
    for k in (0..N).rev() {
        key_into(&mut key, k);
        let id = interner.intern(&key);
        assert_eq!(interner.get(&key), Some(id));
    }
    let repeats = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(repeats, 0, "re-interning and get allocated {repeats} times");
}
