//! The [`crate::Cache`]'s key index: an open-addressing table from a key's
//! 32-bit hash to its slab slot.
//!
//! Each cell is one `u64`: the key's hash in the high half and `slot + 1`
//! in the low half, or 0 when empty. The table holds no keys. A lookup
//! reads cells and compares the key of only the slab entry whose hash
//! matches the cell's. The slab entry keeps its hash, so eviction and
//! removal find an entry's cell by comparing whole cells, with no re-hash
//! and no key comparison.
//!
//! Probing is linear from the hash's top bits, and the table is kept at
//! most half full. Deletion shifts the following run of cells back into the
//! hole (no tombstones), and growth re-places every cell from its own hash.
//! Both read only cells.

use crate::fxhash::FxHasher;
use std::hash::{Hash, Hasher};

/// Fewest cells a non-empty index holds.
const MIN_CELLS: usize = 16;

/// The index hash of `key`: the high half of its FxHash. FxHash ends in a
/// multiply, which mixes every input bit into the high bits.
#[inline]
pub(crate) fn index_hash<Q: Hash + ?Sized>(key: &Q) -> u32 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    (h.finish() >> 32) as u32
}

#[inline]
fn cell(hash: u32, slot: usize) -> u64 {
    let slot = u32::try_from(slot + 1).expect("fewer than 2^32 - 1 cache slots");
    (u64::from(hash) << 32) | u64::from(slot)
}

#[inline]
fn cell_hash(cell: u64) -> u32 {
    (cell >> 32) as u32
}

/// Open-addressing index from a key's hash to its slab slot. See module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotIndex {
    /// `(hash << 32) | (slot + 1)` per cell, 0 when empty. Empty, or a
    /// power-of-two length of at least [`MIN_CELLS`].
    cells: Vec<u64>,
    len: usize,
}

impl SlotIndex {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Cells allocated (for tests of the growth rule).
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// The cell a hash probes from: its top `log2(cells)` bits.
    #[inline]
    fn home(&self, hash: u32) -> usize {
        (hash >> (32 - self.cells.len().trailing_zeros())) as usize
    }

    /// The slot, among those indexed under `hash`, that `is_key` accepts.
    #[inline]
    pub(crate) fn find(&self, hash: u32, is_key: impl Fn(usize) -> bool) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mask = self.cells.len() - 1;
        let mut i = self.home(hash);
        loop {
            let c = self.cells[i];
            if c == 0 {
                return None;
            }
            if cell_hash(c) == hash {
                let slot = (c as u32 - 1) as usize;
                if is_key(slot) {
                    return Some(slot);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Index `slot` under `hash`. The caller has checked that its key is not
    /// indexed yet.
    pub(crate) fn insert(&mut self, hash: u32, slot: usize) {
        if (self.len + 1) * 2 > self.cells.len() {
            self.grow();
        }
        self.place(cell(hash, slot));
        self.len += 1;
    }

    /// Write `c` into the first empty cell from its home.
    #[inline]
    fn place(&mut self, c: u64) {
        let mask = self.cells.len() - 1;
        let mut i = self.home(cell_hash(c));
        while self.cells[i] != 0 {
            i = (i + 1) & mask;
        }
        self.cells[i] = c;
    }

    /// Double the table (or allocate the first one) and re-place every
    /// cell from its own hash.
    fn grow(&mut self) {
        let cells = (self.cells.len() * 2).max(MIN_CELLS);
        let old = std::mem::replace(&mut self.cells, vec![0; cells]);
        for c in old {
            if c != 0 {
                self.place(c);
            }
        }
    }

    /// Drop the cell of `slot`, which is indexed under `hash`, and shift the
    /// cells after it back so no probe run has a hole.
    pub(crate) fn remove(&mut self, hash: u32, slot: usize) {
        let target = cell(hash, slot);
        let mask = self.cells.len() - 1;
        let mut hole = self.home(hash);
        while self.cells[hole] != target {
            debug_assert_ne!(self.cells[hole], 0, "slot {slot} is not indexed");
            hole = (hole + 1) & mask;
        }
        let mut i = (hole + 1) & mask;
        loop {
            let c = self.cells[i];
            if c == 0 {
                break;
            }
            // A cell may move back into the hole unless its home lies
            // strictly after the hole on the way to `i` (wrapping).
            let home = self.home(cell_hash(c));
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.cells[hole] = c;
                hole = i;
            }
            i = (i + 1) & mask;
        }
        self.cells[hole] = 0;
        self.len -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Every indexed (hash, slot) pair is found from its home, and the
    /// count matches.
    fn check(index: &SlotIndex, oracle: &BTreeMap<usize, u32>) {
        assert_eq!(index.len(), oracle.len());
        for (&slot, &hash) in oracle {
            assert_eq!(index.find(hash, |s| s == slot), Some(slot), "slot {slot}");
        }
        let live = index.cells.iter().filter(|&&c| c != 0).count();
        assert_eq!(live, oracle.len(), "stray cells");
    }

    #[test]
    fn insert_find_remove_agree_with_a_map() {
        let mut index = SlotIndex::default();
        let mut oracle = BTreeMap::new();
        let mut z = 7u64;
        for step in 0..20_000usize {
            z = crate::ring::splitmix64(z);
            // Few distinct hashes, so runs collide and wrap the table.
            let hash = ((z >> 40) as u32) | (0xF000_0000 * (z & 1) as u32);
            let slot = (z % 300) as usize;
            match oracle.get(&slot) {
                Some(&h) if z & 2 == 0 => {
                    index.remove(h, slot);
                    oracle.remove(&slot);
                }
                Some(_) => {}
                None => {
                    index.insert(hash, slot);
                    oracle.insert(slot, hash);
                }
            }
            if step % 97 == 0 {
                check(&index, &oracle);
            }
        }
        check(&index, &oracle);
        for (slot, hash) in std::mem::take(&mut oracle) {
            index.remove(hash, slot);
        }
        check(&index, &oracle);
    }

    #[test]
    fn runs_that_wrap_the_table_survive_deletion() {
        // Every hash homes in the last cell, so each run wraps to the front.
        let mut index = SlotIndex::default();
        let top = u32::MAX;
        for slot in 0..6 {
            index.insert(top - slot as u32, slot);
        }
        assert_eq!(index.capacity(), MIN_CELLS);
        index.remove(top, 0);
        for slot in 1..6 {
            assert_eq!(index.find(top - slot as u32, |s| s == slot), Some(slot));
        }
        assert_eq!(index.find(top, |_| true), None);
    }

    #[test]
    fn stays_at_most_half_full() {
        let mut index = SlotIndex::default();
        assert_eq!(index.capacity(), 0, "an empty index allocates nothing");
        for slot in 0..1_000 {
            index.insert(index_hash(&(slot as u64)), slot);
            assert!(index.len() * 2 <= index.capacity());
        }
        assert_eq!(index.capacity(), 2_048);
    }
}
