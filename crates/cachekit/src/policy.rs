//! Eviction policies.
//!
//! A policy tracks only *slot ids* (indices into the cache's entry slab) and
//! answers one question: which slot should be evicted next. The cache owns
//! keys, values, sizes and TTLs; the policy owns recency/frequency state.
//! This split keeps each policy small and lets the eviction ablation swap
//! policies without touching the cache.
//!
//! Implemented policies, matching the ablation in DESIGN.md:
//!
//! * **LRU** — classic least-recently-used (the paper's deployments and
//!   TiKV's block cache are LRU-family).
//! * **FIFO** — eviction by insertion order; hits do not promote. Cheap and,
//!   per recent literature (FIFO queues are all you need, SOSP'23), often
//!   competitive.
//! * **LFU** — least-frequently-used with LRU tie-breaking.
//! * **SLRU** — segmented LRU: new entries enter a probationary segment and
//!   are promoted to a protected segment on re-reference.
//! * **CLOCK** — second-chance approximation of LRU with O(1) hits.

use crate::list::SlotList;
use std::collections::BTreeSet;

/// Runtime-selectable policy. The eviction ablation bench sweeps this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    Lru,
    Fifo,
    Lfu,
    Slru,
    Clock,
}

impl PolicyKind {
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Lfu,
        PolicyKind::Slru,
        PolicyKind::Clock,
    ];

    pub const fn label(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Fifo => "fifo",
            PolicyKind::Lfu => "lfu",
            PolicyKind::Slru => "slru",
            PolicyKind::Clock => "clock",
        }
    }

    pub(crate) fn build(self) -> PolicyImpl {
        match self {
            PolicyKind::Lru => PolicyImpl::Lru(LruPolicy::default()),
            PolicyKind::Fifo => PolicyImpl::Fifo(FifoPolicy::default()),
            PolicyKind::Lfu => PolicyImpl::Lfu(LfuPolicy::default()),
            PolicyKind::Slru => PolicyImpl::Slru(SlruPolicy::new(0.8)),
            PolicyKind::Clock => PolicyImpl::Clock(ClockPolicy::default()),
        }
    }
}

/// The policy interface the cache drives.
pub trait Policy {
    /// A new entry landed in `slot`.
    fn on_insert(&mut self, slot: usize);
    /// The entry in `slot` was read.
    fn on_hit(&mut self, slot: usize);
    /// The entry in `slot` was removed (eviction or explicit).
    fn on_remove(&mut self, slot: usize);
    /// Choose the next eviction victim. Must return a slot previously
    /// inserted and not yet removed, or `None` if the policy is empty.
    fn victim(&mut self) -> Option<usize>;
}

/// Enum dispatch over the concrete policies (keeps `Cache` free of a policy
/// type parameter and of dynamic dispatch).
#[derive(Debug, Clone)]
pub(crate) enum PolicyImpl {
    Lru(LruPolicy),
    Fifo(FifoPolicy),
    Lfu(LfuPolicy),
    Slru(SlruPolicy),
    Clock(ClockPolicy),
}

impl Policy for PolicyImpl {
    #[inline]
    fn on_insert(&mut self, slot: usize) {
        match self {
            PolicyImpl::Lru(p) => p.on_insert(slot),
            PolicyImpl::Fifo(p) => p.on_insert(slot),
            PolicyImpl::Lfu(p) => p.on_insert(slot),
            PolicyImpl::Slru(p) => p.on_insert(slot),
            PolicyImpl::Clock(p) => p.on_insert(slot),
        }
    }
    #[inline]
    fn on_hit(&mut self, slot: usize) {
        match self {
            PolicyImpl::Lru(p) => p.on_hit(slot),
            PolicyImpl::Fifo(p) => p.on_hit(slot),
            PolicyImpl::Lfu(p) => p.on_hit(slot),
            PolicyImpl::Slru(p) => p.on_hit(slot),
            PolicyImpl::Clock(p) => p.on_hit(slot),
        }
    }
    #[inline]
    fn on_remove(&mut self, slot: usize) {
        match self {
            PolicyImpl::Lru(p) => p.on_remove(slot),
            PolicyImpl::Fifo(p) => p.on_remove(slot),
            PolicyImpl::Lfu(p) => p.on_remove(slot),
            PolicyImpl::Slru(p) => p.on_remove(slot),
            PolicyImpl::Clock(p) => p.on_remove(slot),
        }
    }
    #[inline]
    fn victim(&mut self) -> Option<usize> {
        match self {
            PolicyImpl::Lru(p) => p.victim(),
            PolicyImpl::Fifo(p) => p.victim(),
            PolicyImpl::Lfu(p) => p.victim(),
            PolicyImpl::Slru(p) => p.victim(),
            PolicyImpl::Clock(p) => p.victim(),
        }
    }
}

/// Least-recently-used.
#[derive(Debug, Clone, Default)]
pub struct LruPolicy {
    list: SlotList,
}

impl Policy for LruPolicy {
    fn on_insert(&mut self, slot: usize) {
        self.list.push_front(slot);
    }
    #[inline]
    fn on_hit(&mut self, slot: usize) {
        self.list.move_to_front(slot);
    }
    fn on_remove(&mut self, slot: usize) {
        self.list.remove(slot);
    }
    fn victim(&mut self) -> Option<usize> {
        self.list.back()
    }
}

/// First-in-first-out: hits do not change eviction order.
#[derive(Debug, Clone, Default)]
pub struct FifoPolicy {
    list: SlotList,
}

impl Policy for FifoPolicy {
    fn on_insert(&mut self, slot: usize) {
        self.list.push_front(slot);
    }
    fn on_hit(&mut self, _slot: usize) {}
    fn on_remove(&mut self, slot: usize) {
        self.list.remove(slot);
    }
    fn victim(&mut self) -> Option<usize> {
        self.list.back()
    }
}

/// Least-frequently-used with least-recent tie-breaking.
///
/// State per slot: access count and a logical tick of last touch. The
/// eviction order is the BTreeSet ordering on `(freq, tick, slot)`, so the
/// victim is the minimum — the coldest, then stalest entry.
#[derive(Debug, Clone, Default)]
pub struct LfuPolicy {
    // (freq, last_touch_tick) per slot; None = not resident.
    meta: Vec<Option<(u64, u64)>>,
    order: BTreeSet<(u64, u64, usize)>,
    tick: u64,
}

impl LfuPolicy {
    fn ensure(&mut self, slot: usize) {
        if self.meta.len() <= slot {
            self.meta.resize(slot + 1, None);
        }
    }

    fn touch(&mut self, slot: usize, bump: u64) {
        self.ensure(slot);
        self.tick += 1;
        match self.meta[slot] {
            Some((freq, tick)) => {
                self.order.remove(&(freq, tick, slot));
                let nf = freq + bump;
                self.meta[slot] = Some((nf, self.tick));
                self.order.insert((nf, self.tick, slot));
            }
            None => {
                self.meta[slot] = Some((1, self.tick));
                self.order.insert((1, self.tick, slot));
            }
        }
    }
}

impl Policy for LfuPolicy {
    fn on_insert(&mut self, slot: usize) {
        debug_assert!(self.meta.get(slot).is_none_or(|m| m.is_none()));
        self.touch(slot, 0);
    }
    fn on_hit(&mut self, slot: usize) {
        self.touch(slot, 1);
    }
    fn on_remove(&mut self, slot: usize) {
        self.ensure(slot);
        if let Some((freq, tick)) = self.meta[slot].take() {
            self.order.remove(&(freq, tick, slot));
        }
    }
    fn victim(&mut self) -> Option<usize> {
        self.order.iter().next().map(|&(_, _, s)| s)
    }
}

/// Segmented LRU. `protected_frac` bounds the protected segment as a
/// fraction of resident entries; overflow demotes the protected LRU back to
/// the probation segment's MRU end (it gets one more chance).
#[derive(Debug, Clone)]
pub struct SlruPolicy {
    probation: SlotList,
    protected: SlotList,
    protected_frac: f64,
}

impl SlruPolicy {
    pub fn new(protected_frac: f64) -> Self {
        SlruPolicy {
            probation: SlotList::new(),
            protected: SlotList::new(),
            protected_frac: protected_frac.clamp(0.0, 1.0),
        }
    }

    fn protected_cap(&self) -> usize {
        let total = self.probation.len() + self.protected.len();
        ((total as f64) * self.protected_frac).floor() as usize
    }

    fn rebalance(&mut self) {
        while self.protected.len() > self.protected_cap().max(1) {
            if let Some(demoted) = self.protected.pop_back() {
                self.probation.push_front(demoted);
            } else {
                break;
            }
        }
    }
}

impl Policy for SlruPolicy {
    fn on_insert(&mut self, slot: usize) {
        self.probation.push_front(slot);
    }
    fn on_hit(&mut self, slot: usize) {
        if self.probation.contains(slot) {
            self.probation.remove(slot);
            self.protected.push_front(slot);
            self.rebalance();
        } else {
            self.protected.move_to_front(slot);
        }
    }
    fn on_remove(&mut self, slot: usize) {
        self.probation.remove(slot);
        self.protected.remove(slot);
    }
    fn victim(&mut self) -> Option<usize> {
        self.probation.back().or_else(|| self.protected.back())
    }
}

/// CLOCK (second chance): a circular scan with one reference bit per entry.
/// Hits are O(1) (set the bit); eviction sweeps the hand, clearing bits,
/// until it finds an unreferenced entry.
#[derive(Debug, Clone, Default)]
pub struct ClockPolicy {
    /// Ring positions; `None` marks holes left by removals.
    ring: Vec<Option<usize>>,
    /// Position in `ring` per slot; usize::MAX = absent.
    pos: Vec<usize>,
    refbit: Vec<bool>,
    hand: usize,
    live: usize,
}

impl ClockPolicy {
    fn ensure(&mut self, slot: usize) {
        if self.pos.len() <= slot {
            self.pos.resize(slot + 1, usize::MAX);
            self.refbit.resize(slot + 1, false);
        }
    }
}

impl Policy for ClockPolicy {
    fn on_insert(&mut self, slot: usize) {
        self.ensure(slot);
        debug_assert_eq!(self.pos[slot], usize::MAX);
        self.pos[slot] = self.ring.len();
        self.ring.push(Some(slot));
        self.refbit[slot] = false;
        self.live += 1;
        // Compact the ring when it is mostly holes, preserving hand order.
        if self.ring.len() > 64 && self.live * 2 < self.ring.len() {
            let start = self.hand.min(self.ring.len());
            let rotated: Vec<usize> = self.ring[start..]
                .iter()
                .chain(self.ring[..start].iter())
                .filter_map(|s| *s)
                .collect();
            self.ring = rotated.iter().map(|&s| Some(s)).collect();
            for (i, &s) in rotated.iter().enumerate() {
                self.pos[s] = i;
            }
            self.hand = 0;
        }
    }

    fn on_hit(&mut self, slot: usize) {
        self.ensure(slot);
        self.refbit[slot] = true;
    }

    fn on_remove(&mut self, slot: usize) {
        self.ensure(slot);
        let p = self.pos[slot];
        if p != usize::MAX {
            self.ring[p] = None;
            self.pos[slot] = usize::MAX;
            self.live -= 1;
        }
    }

    fn victim(&mut self) -> Option<usize> {
        if self.live == 0 {
            return None;
        }
        // Two full sweeps guarantee termination: the first clears bits.
        for _ in 0..2 * self.ring.len() {
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            match self.ring[self.hand] {
                Some(slot) if self.refbit[slot] => {
                    self.refbit[slot] = false;
                    self.hand += 1;
                }
                Some(slot) => return Some(slot),
                None => self.hand += 1,
            }
        }
        unreachable!("CLOCK sweep must find a victim when live > 0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_victim_sequence(kind: PolicyKind, script: &[(&str, usize)]) -> Vec<usize> {
        let mut p = kind.build();
        let mut victims = Vec::new();
        for &(op, slot) in script {
            match op {
                "ins" => p.on_insert(slot),
                "hit" => p.on_hit(slot),
                "del" => p.on_remove(slot),
                "evict" => {
                    let v = p.victim().expect("victim expected");
                    assert_eq!(v, slot, "policy {kind:?} chose wrong victim");
                    p.on_remove(v);
                    victims.push(v);
                }
                _ => unreachable!(),
            }
        }
        victims
    }

    #[test]
    fn lru_evicts_least_recent() {
        run_victim_sequence(
            PolicyKind::Lru,
            &[
                ("ins", 0),
                ("ins", 1),
                ("ins", 2),
                ("hit", 0), // 0 becomes most recent
                ("evict", 1),
                ("evict", 2),
                ("evict", 0),
            ],
        );
    }

    #[test]
    fn fifo_ignores_hits() {
        run_victim_sequence(
            PolicyKind::Fifo,
            &[
                ("ins", 0),
                ("ins", 1),
                ("hit", 0),
                ("hit", 0),
                ("evict", 0), // still first in
                ("evict", 1),
            ],
        );
    }

    #[test]
    fn lfu_evicts_coldest_with_lru_tiebreak() {
        run_victim_sequence(
            PolicyKind::Lfu,
            &[
                ("ins", 0),
                ("ins", 1),
                ("ins", 2),
                ("hit", 0),
                ("hit", 0),
                ("hit", 1),
                // freqs: 0→3, 1→2, 2→1
                ("evict", 2),
                ("evict", 1),
                ("evict", 0),
            ],
        );
    }

    #[test]
    fn lfu_tiebreak_prefers_stalest() {
        run_victim_sequence(
            PolicyKind::Lfu,
            &[
                ("ins", 0),
                ("ins", 1),
                ("hit", 0),
                ("hit", 1),
                // equal freq; 0 touched earlier → evict 0 first
                ("evict", 0),
                ("evict", 1),
            ],
        );
    }

    #[test]
    fn slru_protects_rereferenced_entries() {
        run_victim_sequence(
            PolicyKind::Slru,
            &[
                ("ins", 0),
                ("ins", 1),
                ("ins", 2),
                ("hit", 1), // 1 promoted to protected
                // probation is [2, 0] (front to back) → victim is 0
                ("evict", 0),
                ("evict", 2),
                ("evict", 1), // protected drains last
            ],
        );
    }

    #[test]
    fn clock_gives_second_chance() {
        run_victim_sequence(
            PolicyKind::Clock,
            &[
                ("ins", 0),
                ("ins", 1),
                ("ins", 2),
                ("hit", 0),
                // hand at 0: ref set → clear, advance; victim = 1
                ("evict", 1),
                ("evict", 2),
                ("evict", 0),
            ],
        );
    }

    #[test]
    fn removal_of_victim_candidate_is_handled() {
        for kind in PolicyKind::ALL {
            let mut p = kind.build();
            p.on_insert(0);
            p.on_insert(1);
            p.on_remove(0);
            let v = p.victim().unwrap();
            assert_eq!(v, 1, "{kind:?} must not return a removed slot");
            p.on_remove(1);
            assert_eq!(p.victim(), None, "{kind:?} must be empty");
        }
    }

    #[test]
    fn empty_policy_has_no_victim() {
        for kind in PolicyKind::ALL {
            assert_eq!(kind.build().victim(), None);
        }
    }

    #[test]
    fn slot_reuse_is_safe_across_policies() {
        for kind in PolicyKind::ALL {
            let mut p = kind.build();
            p.on_insert(0);
            p.on_remove(0);
            p.on_insert(0); // slab reuses slot 0
            p.on_hit(0);
            assert_eq!(p.victim(), Some(0), "{kind:?}");
        }
    }

    #[test]
    fn clock_compaction_preserves_live_entries() {
        let mut p = ClockPolicy::default();
        for s in 0..200 {
            p.on_insert(s);
        }
        for s in 0..150 {
            p.on_remove(s);
        }
        // trigger compaction path
        p.on_insert(500);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..51 {
            let v = p.victim().unwrap();
            p.on_remove(v);
            seen.insert(v);
        }
        assert_eq!(seen.len(), 51);
        assert!(seen.contains(&500));
        assert_eq!(p.victim(), None);
    }
}
