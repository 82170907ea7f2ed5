//! An intrusive doubly-linked list over slot indices.
//!
//! Eviction policies (LRU, FIFO, SLRU) need O(1) "move to front", "remove
//! arbitrary", and "pop back" over the cache's entry slots. Rather than
//! allocating per-node, the list keeps one `(prev, next)` link pair per slot
//! id in a single array, so a touch reads one 8-byte link per node; a slot
//! outside the list holds an out-of-list marker. Slot ids are handed out by
//! the cache's slab and reused after removal.

/// No neighbour: the end of the list.
const NIL: u32 = u32::MAX;
/// The link of a slot that is not in the list.
const OUT: u32 = u32::MAX - 1;

/// Doubly-linked list whose nodes are external slot ids.
///
/// A slot may be in at most one list at a time; the caller is responsible for
/// not inserting a slot twice (debug assertions catch it).
#[derive(Debug, Clone)]
pub struct SlotList {
    /// `(prev, next)` per slot; `(OUT, OUT)` when the slot is not a member.
    links: Vec<(u32, u32)>,
    head: u32,
    tail: u32,
    len: usize,
}

impl Default for SlotList {
    fn default() -> Self {
        SlotList::new()
    }
}

impl SlotList {
    pub fn new() -> Self {
        SlotList {
            links: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// The link index of `slot`, growing the link array to hold it.
    #[inline]
    fn ensure(&mut self, slot: usize) -> u32 {
        let id = u32::try_from(slot)
            .ok()
            .filter(|&id| id < OUT)
            .expect("slot ids stay below 2^32 - 2");
        if self.links.len() <= slot {
            self.links.resize(slot + 1, (OUT, OUT));
        }
        id
    }

    #[inline]
    fn end(id: u32) -> Option<usize> {
        (id != NIL).then_some(id as usize)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn contains(&self, slot: usize) -> bool {
        self.links.get(slot).is_some_and(|l| l.0 != OUT)
    }

    /// Most-recently-touched end.
    pub fn front(&self) -> Option<usize> {
        Self::end(self.head)
    }

    /// Least-recently-touched end (the eviction end).
    pub fn back(&self) -> Option<usize> {
        Self::end(self.tail)
    }

    #[inline]
    pub fn push_front(&mut self, slot: usize) {
        let id = self.ensure(slot);
        debug_assert!(!self.contains(slot), "slot {slot} already in list");
        self.links[slot] = (NIL, self.head);
        match Self::end(self.head) {
            Some(h) => self.links[h].0 = id,
            None => self.tail = id,
        }
        self.head = id;
        self.len += 1;
    }

    pub fn push_back(&mut self, slot: usize) {
        let id = self.ensure(slot);
        debug_assert!(!self.contains(slot), "slot {slot} already in list");
        self.links[slot] = (self.tail, NIL);
        match Self::end(self.tail) {
            Some(t) => self.links[t].1 = id,
            None => self.head = id,
        }
        self.tail = id;
        self.len += 1;
    }

    /// Remove `slot` from the list. No-op if it is not a member.
    #[inline]
    pub fn remove(&mut self, slot: usize) {
        if !self.contains(slot) {
            return;
        }
        let (p, n) = self.links[slot];
        match Self::end(p) {
            Some(p) => self.links[p].1 = n,
            None => self.head = n,
        }
        match Self::end(n) {
            Some(n) => self.links[n].0 = p,
            None => self.tail = p,
        }
        self.links[slot] = (OUT, OUT);
        self.len -= 1;
    }

    /// Remove and return the back (LRU end).
    pub fn pop_back(&mut self) -> Option<usize> {
        let t = self.back()?;
        self.remove(t);
        Some(t)
    }

    /// Move an existing member to the front; inserts if absent. The front
    /// itself stays put without touching a link.
    #[inline]
    pub fn move_to_front(&mut self, slot: usize) {
        if Self::end(self.head) == Some(slot) {
            return;
        }
        self.remove(slot);
        self.push_front(slot);
    }

    /// Iterate front→back (for tests and invariant checks).
    pub fn iter(&self) -> SlotListIter<'_> {
        SlotListIter {
            list: self,
            cur: self.front(),
        }
    }
}

pub struct SlotListIter<'a> {
    list: &'a SlotList,
    cur: Option<usize>,
}

impl Iterator for SlotListIter<'_> {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        let c = self.cur?;
        self.cur = SlotList::end(self.list.links[c].1);
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(l: &SlotList) -> Vec<usize> {
        l.iter().collect()
    }

    #[test]
    fn push_and_pop_ordering() {
        let mut l = SlotList::new();
        l.push_front(1);
        l.push_front(2);
        l.push_front(3);
        assert_eq!(collect(&l), vec![3, 2, 1]);
        assert_eq!(l.pop_back(), Some(1));
        assert_eq!(l.pop_back(), Some(2));
        assert_eq!(l.pop_back(), Some(3));
        assert_eq!(l.pop_back(), None);
        assert!(l.is_empty());
    }

    #[test]
    fn push_back_appends() {
        let mut l = SlotList::new();
        l.push_back(5);
        l.push_back(6);
        assert_eq!(collect(&l), vec![5, 6]);
        assert_eq!(l.front(), Some(5));
        assert_eq!(l.back(), Some(6));
    }

    #[test]
    fn remove_middle_relinks() {
        let mut l = SlotList::new();
        for s in [0, 1, 2, 3] {
            l.push_back(s);
        }
        l.remove(2);
        assert_eq!(collect(&l), vec![0, 1, 3]);
        assert!(!l.contains(2));
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn remove_head_and_tail() {
        let mut l = SlotList::new();
        for s in [0, 1, 2] {
            l.push_back(s);
        }
        l.remove(0);
        assert_eq!(l.front(), Some(1));
        l.remove(2);
        assert_eq!(l.back(), Some(1));
        assert_eq!(collect(&l), vec![1]);
    }

    #[test]
    fn remove_absent_is_noop() {
        let mut l = SlotList::new();
        l.push_back(1);
        l.remove(999);
        l.remove(0);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn move_to_front_reorders() {
        let mut l = SlotList::new();
        for s in [0, 1, 2] {
            l.push_back(s);
        }
        l.move_to_front(2);
        assert_eq!(collect(&l), vec![2, 0, 1]);
        l.move_to_front(1);
        assert_eq!(collect(&l), vec![1, 2, 0]);
        // moving the current front keeps order
        l.move_to_front(1);
        assert_eq!(collect(&l), vec![1, 2, 0]);
    }

    #[test]
    fn slots_can_be_reused_after_removal() {
        let mut l = SlotList::new();
        l.push_front(7);
        l.remove(7);
        l.push_back(7);
        assert_eq!(collect(&l), vec![7]);
    }

    #[test]
    fn singleton_list_invariants() {
        let mut l = SlotList::new();
        l.push_front(4);
        assert_eq!(l.front(), l.back());
        l.move_to_front(4);
        assert_eq!(l.len(), 1);
        assert_eq!(l.pop_back(), Some(4));
        assert_eq!(l.front(), None);
        assert_eq!(l.back(), None);
    }
}
