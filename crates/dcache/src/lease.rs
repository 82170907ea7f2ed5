//! Ownership leases over key ranges — the §6 "auto-sharder" design.
//!
//! The paper's future-work proposal: instead of a per-read version check,
//! give each linked-cache shard *strong ownership* of its key range via an
//! auto-sharder (Slicer, OSDI '16). While a shard holds a valid lease and all
//! writes for its range are routed through it, the shard's cache is
//! trivially coherent and reads are linearizable without touching storage.
//!
//! Two hazards remain and are modeled here:
//!
//! * **Lease expiry / transfer** — during a transfer, the old owner must
//!   stop serving from cache (reads fall back to version checks) until the
//!   new owner has a lease.
//! * **Delayed writes (Figure 8)** — a write issued under epoch `e` may
//!   land in storage after ownership moved to epoch `e+1`, silently
//!   diverging cache and storage. The fix is classic fencing: every write
//!   carries its issuing epoch, and [`AutoSharder::admit_write`] rejects
//!   stale epochs. The consistency tests demonstrate both the hazard and
//!   the fix end-to-end.

use cachekit::HashRing;
use simnet::{SimDuration, SimTime};

/// Per-shard lease state.
#[derive(Debug, Clone)]
struct ShardLease {
    epoch: u64,
    lease_until: SimTime,
}

/// The auto-sharder: key→shard assignment plus per-shard lease epochs.
#[derive(Debug, Clone)]
pub struct AutoSharder {
    ring: HashRing,
    leases: Vec<ShardLease>,
    lease: SimDuration,
}

impl AutoSharder {
    /// `shards` owners, each granted an initial lease at epoch 1 from `now`.
    pub fn new(shards: u32, lease: SimDuration, now: SimTime) -> Self {
        AutoSharder {
            ring: HashRing::with_shards(shards, 128),
            leases: (0..shards)
                .map(|_| ShardLease {
                    epoch: 1,
                    lease_until: now + lease,
                })
                .collect(),
            lease,
        }
    }

    pub fn shard_count(&self) -> usize {
        self.leases.len()
    }

    /// The shard owning `key`.
    pub fn owner(&self, key: &[u8]) -> u32 {
        self.ring.shard_for(key).expect("sharder always has shards")
    }

    /// [`AutoSharder::owner`] by precomputed `stable_hash(key)` (interned
    /// keys carry it), avoiding the per-request byte walk.
    pub fn owner_hashed(&self, hash: u64) -> u32 {
        self.ring
            .shard_for_hashed(hash)
            .expect("sharder always has shards")
    }

    /// Current fencing epoch of a shard.
    pub fn epoch(&self, shard: u32) -> u64 {
        self.leases[shard as usize].epoch
    }

    /// Whether `shard` may serve consistent reads from cache at `now`.
    pub fn lease_valid(&self, shard: u32, now: SimTime) -> bool {
        now < self.leases[shard as usize].lease_until
    }

    /// Renew a shard's lease (heartbeat to the sharder).
    pub fn renew(&mut self, shard: u32, now: SimTime) {
        self.leases[shard as usize].lease_until = now + self.lease;
    }

    /// Renew every shard (the experiment loop's periodic heartbeat).
    pub fn renew_all(&mut self, now: SimTime) {
        for l in &mut self.leases {
            l.lease_until = now + self.lease;
        }
    }

    /// Transfer ownership of a shard (resharding, node failure): bumps the
    /// fencing epoch and grants a fresh lease to the new owner. Writes
    /// stamped with the old epoch are no longer admissible.
    pub fn transfer(&mut self, shard: u32, now: SimTime) -> u64 {
        let l = &mut self.leases[shard as usize];
        l.epoch += 1;
        l.lease_until = now + self.lease;
        l.epoch
    }

    /// Revoke a shard's lease without granting a new one (owner crash; the
    /// range is unowned until `transfer` runs).
    pub fn revoke(&mut self, shard: u32) {
        self.leases[shard as usize].lease_until = SimTime::ZERO;
    }

    /// Fencing check: a write stamped with `epoch` is admissible iff it is
    /// the shard's current epoch.
    pub fn admit_write(&self, shard: u32, epoch: u64) -> bool {
        self.leases[shard as usize].epoch == epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn sharder() -> AutoSharder {
        AutoSharder::new(4, SimDuration::from_millis(100), t(0))
    }

    #[test]
    fn ownership_is_stable_per_key() {
        let s = sharder();
        for i in 0..100 {
            let k = format!("key{i}").into_bytes();
            assert_eq!(s.owner(&k), s.owner(&k));
            assert!(s.owner(&k) < 4);
        }
    }

    #[test]
    fn leases_expire_and_renew() {
        let mut s = sharder();
        assert!(s.lease_valid(0, t(50)));
        assert!(!s.lease_valid(0, t(100)));
        s.renew(0, t(100));
        assert!(s.lease_valid(0, t(150)));
        assert!(!s.lease_valid(0, t(250)));
        s.renew_all(t(250));
        for shard in 0..4 {
            assert!(s.lease_valid(shard, t(300)));
        }
    }

    #[test]
    fn transfer_bumps_epoch_and_fences_old_writes() {
        let mut s = sharder();
        let old = s.epoch(2);
        assert!(s.admit_write(2, old));
        let new = s.transfer(2, t(10));
        assert_eq!(new, old + 1);
        assert!(!s.admit_write(2, old), "stale epoch must be fenced");
        assert!(s.admit_write(2, new));
        // other shards unaffected
        assert!(s.admit_write(0, s.epoch(0)));
    }

    #[test]
    fn revoke_blocks_cached_reads_until_transfer() {
        let mut s = sharder();
        s.revoke(1);
        assert!(!s.lease_valid(1, t(1)));
        s.transfer(1, t(2));
        assert!(s.lease_valid(1, t(50)));
    }
}
