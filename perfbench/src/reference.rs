//! A fixed reference kernel that tells how fast the host runs right now.
//!
//! The benchmark's host is a virtual machine that shares its processor with
//! other tenants. Its speed drifts with their load: the simulator ran up to
//! twice as slow for minutes at a time, on every workload at once. No
//! statistic inside one run can remove a slowdown that covers the whole run,
//! so the untraced run times this kernel between its rounds and scales each
//! round's timings by how much slower than its nominal time ([`NOMINAL_S`])
//! the kernel ran, damped by [`SENSITIVITY`].
//!
//! The kernel is a miniature of the simulator's host work: a keyed table of
//! small heap-allocated values under skewed access, a timer heap and an
//! ordered index with evictions. Among the kernels tried (dependent loads
//! over 8, 32 and 128 MB, pure arithmetic, page faulting) this mix tracked
//! the simulator's slowdowns best. It uses nothing from the repository, so
//! a change to the program never changes its time: a faster program still
//! shows as a higher rate.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// What one call of [`time`] takes on the reference host when other tenants
/// are quiet. Scaled timings read as if every round had run at that speed.
pub const NOMINAL_S: f64 = 0.1;

/// How strongly the simulator's times follow the kernel's: a round's
/// slowness is `(kernel time / NOMINAL_S) ^ SENSITIVITY`. Other tenants'
/// load slows the kernel more than the simulator, and by how much depends
/// on the kind of load; over trial runs of all four workloads through
/// several slow phases, 0.75 gave the smallest worst-case spread across
/// seeds (0.11, against 0.17 for 1.0 and 0.38 unscaled).
pub const SENSITIVITY: f64 = 0.75;

/// Steps of one call: about [`NOMINAL_S`] on the reference host.
const STEPS: u64 = 600_000;

/// Distinct keys of the table: with 64–191 B values, about 10 MB.
const KEYS: u64 = 60_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Run the kernel once, from empty structures, and return its wall time in
/// seconds. Every call does exactly the same work.
pub fn time() -> f64 {
    let start = Instant::now();
    let mut x = 0xdead_beef_u64;
    let mut table: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut timers = BinaryHeap::new();
    let mut index = BTreeMap::new();
    let mut acc = 0u64;
    for step in 0..STEPS {
        let r = xorshift(&mut x);
        // Shifting by a random 0–7 bits skews the draw toward low keys.
        let key = (r % KEYS) >> ((r >> 60) & 7);
        match table.get_mut(&key) {
            Some(value) => {
                value[0] = value[0].wrapping_add(1);
                acc = acc.wrapping_add(value.len() as u64);
            }
            None => {
                table.insert(key, vec![0u8; 64 + (r as usize & 127)]);
            }
        }
        timers.push(Reverse(step.wrapping_add(r & 0xfff)));
        if timers.len() > 512 {
            acc = acc.wrapping_add(timers.pop().map_or(0, |Reverse(t)| t));
        }
        if step % 4 == 0 {
            index.insert(r & 0xffff, step);
            if index.len() > 4096 {
                index.pop_first();
            }
        }
    }
    black_box((acc, table.len()));
    start.elapsed().as_secs_f64()
}
