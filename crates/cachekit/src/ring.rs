//! Consistent hashing.
//!
//! Linked caches are sharded across application servers (§2.4), and the §6
//! discussion of auto-sharders (Slicer) assumes key-range ownership that
//! moves minimally when servers come and go. A classic virtual-node hash
//! ring provides both: `shard_for(key)` routes requests, and
//! adding/removing a node relocates only ~1/N of the key space (asserted by
//! a property test).
//!
//! Hashing uses a self-contained 64-bit mix (SplitMix64 over FNV-1a) so
//! placement is stable across platforms and releases — `std`'s `DefaultHasher`
//! makes no such promise.
//!
//! A key goes to the first vnode point at or after its hash, wrapping to
//! the first point. A table of about one bucket per point, over the top
//! bits of the hash, holds each bucket's first point index, so a lookup
//! scans the one or two points of its bucket. The table is derived from
//! the points in one linear pass whenever they change.

use std::collections::BTreeSet;

/// Stable 64-bit hash of a byte string: FNV-1a folded through SplitMix64.
pub fn stable_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    splitmix64(h)
}

/// SplitMix64 finalizer — good avalanche behaviour for ring positions.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A consistent-hash ring mapping keys to shard ids.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// (position, shard) sorted by position.
    points: Vec<(u64, u32)>,
    vnodes: u32,
    /// Distinct shard ids currently on the ring. Maintained incrementally:
    /// `shard_count` sits on the per-request placement path of sharded
    /// deployments, so it must not rescan the vnode vector.
    shards: BTreeSet<u32>,
    /// `first[b]`: index of the first point at or after bucket `b`'s start,
    /// `b << bucket_shift`; one more entry holds `points.len()`. Empty when
    /// the ring is.
    first: Vec<u32>,
    /// `64 - log2(buckets)`: a hash's bucket is `hash >> bucket_shift`.
    bucket_shift: u32,
}

impl HashRing {
    /// Create a ring with `vnodes` virtual nodes per shard. 128 vnodes keeps
    /// the max/min load ratio under ~1.25 for tens of shards.
    pub fn new(vnodes: u32) -> Self {
        HashRing {
            points: Vec::new(),
            vnodes: vnodes.max(1),
            shards: BTreeSet::new(),
            first: Vec::new(),
            bucket_shift: 64,
        }
    }

    /// A ring pre-populated with shards `0..n`.
    pub fn with_shards(n: u32, vnodes: u32) -> Self {
        let mut ring = HashRing::new(vnodes);
        for s in 0..n {
            ring.merge_points(s);
        }
        ring.rebuild_buckets();
        ring
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of distinct shards on the ring.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn vnode_position(shard: u32, replica: u32) -> u64 {
        splitmix64(((shard as u64) << 32) | replica as u64)
    }

    /// Add a shard's virtual nodes to the ring. Idempotent: re-adding a
    /// shard that is already present (the failover path does this when a
    /// crashed shard recovers) is a no-op — a second copy of its vnodes
    /// would roughly double its share of the key space.
    pub fn add_shard(&mut self, shard: u32) {
        if self.merge_points(shard) {
            self.rebuild_buckets();
        }
    }

    /// Merge `shard`'s vnode points into `points` without touching the
    /// bucket table; false if the shard is already on the ring.
    fn merge_points(&mut self, shard: u32) -> bool {
        if !self.shards.insert(shard) {
            return false;
        }
        // Single backward merge instead of vnodes × Vec::insert — the old
        // per-replica insert was O(points) per vnode, which made building or
        // rescaling a large ring quadratic (profiling flagged it at 10k+
        // vnodes). Placement must stay byte-identical, including how ties
        // resolve: the old loop inserted each new point *before* any
        // existing point of equal position, and a later replica of this same
        // call before an earlier one. Sorting new points by
        // (position, descending replica) and letting a new point win ties
        // against old ones reproduces exactly that order.
        let mut fresh: Vec<(u64, u32)> = (0..self.vnodes)
            .map(|r| (Self::vnode_position(shard, r), r))
            .collect();
        fresh.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let old_len = self.points.len();
        self.points.resize(old_len + fresh.len(), (0, 0));
        let mut write = self.points.len();
        let mut old = old_len;
        let mut new = fresh.len();
        while new > 0 {
            write -= 1;
            if old > 0 && self.points[old - 1].0 >= fresh[new - 1].0 {
                self.points[write] = self.points[old - 1];
                old -= 1;
            } else {
                new -= 1;
                self.points[write] = (fresh[new].0, shard);
            }
        }
        true
    }

    /// Rebuild the bucket table from `points` in one pass: about one bucket
    /// per point, at least two.
    fn rebuild_buckets(&mut self) {
        self.first.clear();
        if self.points.is_empty() {
            self.bucket_shift = 64;
            return;
        }
        let buckets = self.points.len().next_power_of_two().max(2);
        self.bucket_shift = 64 - buckets.trailing_zeros();
        let mut i = 0;
        for b in 0..buckets as u64 {
            let start = b << self.bucket_shift;
            while i < self.points.len() && self.points[i].0 < start {
                i += 1;
            }
            self.first.push(i as u32);
        }
        self.first.push(self.points.len() as u32);
    }

    /// Remove all of a shard's virtual nodes. Idempotent for the same
    /// reason `add_shard` is: the elastic drain path may ask to remove a
    /// shard that a concurrent fault already took off the ring, and a
    /// second removal must not disturb the remaining placement.
    pub fn remove_shard(&mut self, shard: u32) {
        if !self.shards.remove(&shard) {
            return;
        }
        self.points.retain(|&(_, s)| s != shard);
        self.rebuild_buckets();
    }

    /// Shard ids currently on the ring, in ascending order.
    pub fn shard_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.shards.iter().copied()
    }

    /// The shard owning `key`, or `None` if the ring is empty.
    pub fn shard_for(&self, key: &[u8]) -> Option<u32> {
        self.shard_for_hashed(stable_hash(key))
    }

    /// [`HashRing::shard_for`] for callers that already hold the key's
    /// [`stable_hash`] (interned keys carry it), skipping the byte walk.
    #[inline]
    pub fn shard_for_hashed(&self, hash: u64) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        // Points before the bucket lie below its start, so below `hash`;
        // points from the next bucket on lie above it.
        let bucket = (hash >> self.bucket_shift) as usize;
        let (mut idx, end) = (self.first[bucket] as usize, self.first[bucket + 1] as usize);
        while idx < end && self.points[idx].0 < hash {
            idx += 1;
        }
        let idx = if idx == self.points.len() { 0 } else { idx };
        Some(self.points[idx].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn keys(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("key-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_ring_routes_nothing() {
        let ring = HashRing::new(16);
        assert_eq!(ring.shard_for(b"k"), None);
    }

    #[test]
    fn routing_is_deterministic() {
        let ring = HashRing::with_shards(8, 64);
        for k in keys(100) {
            assert_eq!(ring.shard_for(&k), ring.shard_for(&k));
        }
    }

    #[test]
    fn all_shards_receive_load() {
        let ring = HashRing::with_shards(8, 128);
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for k in keys(10_000) {
            *counts.entry(ring.shard_for(&k).unwrap()).or_default() += 1;
        }
        assert_eq!(counts.len(), 8);
        let max = *counts.values().max().unwrap() as f64;
        let min = *counts.values().min().unwrap() as f64;
        assert!(max / min < 2.0, "imbalance too high: max={max} min={min}");
    }

    #[test]
    fn removing_a_shard_only_moves_its_keys() {
        let full = HashRing::with_shards(8, 128);
        let mut reduced = full.clone();
        reduced.remove_shard(3);
        let mut moved = 0;
        let mut total = 0;
        for k in keys(10_000) {
            let before = full.shard_for(&k).unwrap();
            let after = reduced.shard_for(&k).unwrap();
            total += 1;
            if before != after {
                moved += 1;
                assert_eq!(before, 3, "only keys owned by removed shard may move");
            }
            assert_ne!(after, 3);
        }
        // ~1/8 of the keyspace belonged to shard 3.
        let frac = moved as f64 / total as f64;
        assert!((0.05..0.25).contains(&frac), "moved fraction {frac}");
    }

    #[test]
    fn stable_hash_is_stable() {
        // Pinned values guard against accidental algorithm changes, which
        // would silently reshuffle every deployment's shard placement.
        assert_eq!(stable_hash(b""), splitmix64(0xcbf29ce484222325));
        assert_eq!(stable_hash(b"abc"), stable_hash(b"abc"));
        assert_ne!(stable_hash(b"abc"), stable_hash(b"abd"));
    }

    #[test]
    fn shard_count_tracks_membership() {
        let mut ring = HashRing::with_shards(4, 16);
        assert_eq!(ring.shard_count(), 4);
        ring.remove_shard(2);
        assert_eq!(ring.shard_count(), 3);
        ring.add_shard(9);
        assert_eq!(ring.shard_count(), 4);
    }

    #[test]
    fn re_adding_a_present_shard_is_a_noop() {
        // Regression: the failover path re-adds a recovered shard without
        // checking membership. A duplicate insert used to double the
        // shard's vnodes and roughly double its share of keys.
        let baseline = HashRing::with_shards(8, 128);
        let mut ring = baseline.clone();
        ring.add_shard(3);
        ring.add_shard(3);
        assert_eq!(ring.points.len(), baseline.points.len());
        assert_eq!(ring.shard_count(), 8);
        for k in keys(5_000) {
            assert_eq!(ring.shard_for(&k), baseline.shard_for(&k));
        }
    }

    #[test]
    fn remove_then_readd_restores_placement_exactly() {
        let baseline = HashRing::with_shards(8, 128);
        let mut ring = baseline.clone();
        ring.remove_shard(5);
        ring.add_shard(5);
        assert_eq!(ring.points, baseline.points);
        assert_eq!(ring.shard_count(), baseline.shard_count());
        for k in keys(5_000) {
            assert_eq!(ring.shard_for(&k), baseline.shard_for(&k));
        }
    }

    #[test]
    fn removing_an_absent_shard_is_a_noop() {
        // Symmetric regression to `re_adding_a_present_shard_is_a_noop`:
        // the elastic drain path can race a fault that already removed the
        // shard, and a double remove (or a remove of a shard that never
        // existed) must leave placement byte-identical.
        let baseline = HashRing::with_shards(8, 128);
        let mut ring = baseline.clone();
        ring.remove_shard(99); // never on the ring
        assert_eq!(ring.points, baseline.points);
        assert_eq!(ring.shard_count(), 8);
        ring.remove_shard(5);
        ring.remove_shard(5); // double remove
        ring.add_shard(5);
        assert_eq!(ring.points, baseline.points);
        assert_eq!(ring.shard_count(), baseline.shard_count());
        for k in keys(5_000) {
            assert_eq!(ring.shard_for(&k), baseline.shard_for(&k));
        }
    }

    #[test]
    fn add_shard_matches_per_replica_insert_oracle() {
        // Regression for the O(points × vnodes) add path: the merged insert
        // must produce byte-identical point order to the old per-replica
        // `Vec::insert` loop — including tie order (new point before an
        // equal-positioned old one; later replica before an earlier one).
        let naive_add = |points: &mut Vec<(u64, u32)>, shard: u32, vnodes: u32| {
            for r in 0..vnodes {
                let pos = HashRing::vnode_position(shard, r);
                let idx = points.partition_point(|&(p, _)| p < pos);
                points.insert(idx, (pos, shard));
            }
        };
        let mut ring = HashRing::new(64);
        let mut oracle: Vec<(u64, u32)> = Vec::new();
        for shard in 0..40 {
            ring.add_shard(shard);
            naive_add(&mut oracle, shard, 64);
            assert_eq!(ring.points, oracle, "diverged after shard {shard}");
        }
    }

    #[test]
    fn add_shard_scales_to_deep_rings() {
        // 100 shards × 128 vnodes = 12.8k points. The old quadratic path
        // made this build take O(points²) work; the merge path must keep the
        // exact same placement while staying fast enough to run in tests.
        let ring = HashRing::with_shards(100, 128);
        assert_eq!(ring.points.len(), 12_800);
        assert!(ring.points.windows(2).all(|w| w[0].0 <= w[1].0), "sorted");
        let mut rebuilt = HashRing::new(128);
        // Adding in a different order lands the same sorted point set.
        for shard in (0..100).rev() {
            rebuilt.add_shard(shard);
        }
        assert_eq!(ring.points, rebuilt.points);
        for k in keys(1_000) {
            assert_eq!(ring.shard_for(&k), rebuilt.shard_for(&k));
            assert_eq!(ring.shard_for(&k), ring.shard_for_hashed(stable_hash(&k)));
        }
    }

    /// The routing the bucket table replaced: binary search for the first
    /// point at or after `hash`, wrapping to the first point.
    fn partition_point_route(ring: &HashRing, hash: u64) -> Option<u32> {
        if ring.points.is_empty() {
            return None;
        }
        let idx = ring.points.partition_point(|&(p, _)| p < hash);
        Some(ring.points[if idx == ring.points.len() { 0 } else { idx }].1)
    }

    /// Checks the bucket table against binary search at every point's exact
    /// position and its neighbours, both ends of the hash space, and
    /// `random` splitmix hashes; returns how many probes it made.
    fn check_routing(ring: &HashRing, z: &mut u64, random: usize) -> usize {
        let edges = ring
            .points
            .iter()
            .flat_map(|&(p, _)| [p, p.wrapping_sub(1), p.wrapping_add(1)])
            .chain([0, u64::MAX]);
        let randoms = std::iter::repeat_with(|| {
            *z = splitmix64(*z);
            *z
        })
        .take(random);
        let mut probes = 0;
        for hash in edges.chain(randoms) {
            assert_eq!(
                ring.shard_for_hashed(hash),
                partition_point_route(ring, hash),
                "hash {hash:#x} on a ring of {} points",
                ring.points.len()
            );
            probes += 1;
        }
        probes
    }

    #[test]
    fn bucket_table_routes_like_partition_point() {
        const RANDOM: usize = 1_000_000;
        const CHECKPOINTS: usize = 6 + 3 * 48;
        let per_check = RANDOM / CHECKPOINTS;
        let mut z = 0x5eed_u64;
        let mut probes = 0;
        let mut checks = 0;
        let mut check = |ring: &HashRing, z: &mut u64| {
            checks += 1;
            probes += check_routing(ring, z, per_check);
        };
        check(&HashRing::new(16), &mut z);
        for (shards, vnodes) in [(1, 1), (1, 128), (64, 1), (64, 128), (3, 16)] {
            check(&HashRing::with_shards(shards, vnodes), &mut z);
        }
        // Interleaved adds and removes over 64 shard ids, emptying the ring
        // and coming back from empty on the way.
        for vnodes in [1, 16, 128] {
            let mut ring = HashRing::new(vnodes);
            for step in 0..48u64 {
                z = splitmix64(z);
                let shard = (z >> 40) as u32 % 64;
                if step == 20 {
                    for s in ring.shard_ids().collect::<Vec<_>>() {
                        ring.remove_shard(s);
                    }
                } else if z.is_multiple_of(3) {
                    ring.remove_shard(shard);
                } else {
                    ring.add_shard(shard);
                }
                check(&ring, &mut z);
            }
        }
        assert_eq!(checks, CHECKPOINTS);
        println!("ring equivalence: {probes} probes over {checks} rings");
        assert!(probes >= RANDOM * 99 / 100);
    }

    #[test]
    fn bucket_table_handles_points_on_bucket_edges() {
        // Vnode positions are hashes, so they almost never sit exactly on a
        // bucket's start; place points there, and on both ends of the hash
        // space, by hand.
        let q = 1u64 << 62;
        let shapes: [&[u64]; 4] = [
            &[0, q, 2 * q, 3 * q],
            &[0, 0, q - 1, q, q + 1, u64::MAX],
            &[u64::MAX],
            &[q, q, q, 3 * q - 1, 3 * q, u64::MAX, u64::MAX],
        ];
        let mut z = 1;
        for positions in shapes {
            let mut ring = HashRing::new(1);
            ring.points = positions.iter().zip(0..).map(|(&p, s)| (p, s)).collect();
            ring.rebuild_buckets();
            check_routing(&ring, &mut z, 1_000);
        }
    }

    #[test]
    fn membership_accessors_track_add_remove() {
        let mut ring = HashRing::with_shards(3, 16);
        assert_eq!(ring.shard_ids().collect::<Vec<_>>(), vec![0, 1, 2]);
        ring.remove_shard(1);
        assert_eq!(ring.shard_ids().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn shard_count_matches_sort_dedup_oracle() {
        // The incremental count must agree with the old implementation
        // (sort + dedup over the vnode vector) under an arbitrary add /
        // remove sequence, including duplicate adds and bogus removes.
        let oracle = |ring: &HashRing| {
            let mut ids: Vec<u32> = ring.points.iter().map(|&(_, s)| s).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len()
        };
        let mut ring = HashRing::new(16);
        let mut z = 0xfeed_beefu64;
        for _ in 0..500 {
            z = splitmix64(z);
            let shard = (z >> 8) as u32 % 24;
            if z.is_multiple_of(3) {
                ring.remove_shard(shard);
            } else {
                ring.add_shard(shard);
            }
            assert_eq!(ring.shard_count(), oracle(&ring));
        }
    }
}
