//! Per-pod durability: write-ahead log, group-commit fsync, snapshots and
//! crash recovery.
//!
//! With durability off (the default, and the legacy model) storage pods are
//! implicitly stable: a fault only toggles raft liveness and no state is
//! ever lost. With durability on, a pod's memtables and block cache are
//! *volatile*: every raft entry the pod applies is also appended to its
//! [`DurableStore`] WAL on a log-structured SSD tier, fsynced per
//! [`FsyncPolicy`], and periodically folded into a full snapshot that
//! truncates the WAL. A crash discards everything volatile; recovery loads
//! the snapshot, replays the *synced* WAL prefix and rejoins each hosted
//! region claiming exactly that prefix — the quorum re-replicates the lost
//! tail, so committed writes survive any single-pod crash while the pod's
//! local un-fsynced tail (bounded by the group-commit window) does not.
//!
//! All IO is charged through [`StorageCostConfig`] constants so the crash
//! ablation can sweep fsync policy × snapshot cadence × crash interval and
//! put a dollar figure on each point.

use crate::cost::StorageCostConfig;
use crate::kv::KvEngine;
use crate::sql::exec::Mutation;
use simnet::SimDuration;

/// When appended WAL records become durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append: nothing applied is ever lost locally, at
    /// maximum IO cost (and the fsync latency rides every write).
    EveryEntry,
    /// Group commit: one fsync per `n` appends. The un-synced tail (fewer
    /// than `n` records) is lost on crash and must be re-replicated from
    /// the quorum.
    Group(u32),
}

impl FsyncPolicy {
    /// Appends per fsync (`EveryEntry` = 1).
    pub fn group_size(&self) -> u32 {
        match self {
            FsyncPolicy::EveryEntry => 1,
            FsyncPolicy::Group(n) => (*n).max(1),
        }
    }

    /// Stable label for tables and sweep specs.
    pub fn label(&self) -> String {
        match self {
            FsyncPolicy::EveryEntry => "every".to_string(),
            FsyncPolicy::Group(n) => format!("group{n}"),
        }
    }
}

/// Durability knobs. Default **off**: pods behave exactly as before this
/// layer existed, and no counter ever moves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurabilityConfig {
    pub enabled: bool,
    pub fsync: FsyncPolicy,
    /// WAL appends between snapshots (per pod). A snapshot persists the
    /// whole KV engine and truncates the WAL.
    pub snapshot_every_entries: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            enabled: false,
            fsync: FsyncPolicy::Group(8),
            snapshot_every_entries: 4_096,
        }
    }
}

impl DurabilityConfig {
    pub fn enabled(&self) -> bool {
        self.enabled
    }
}

/// Resettable durability counters (summed across pods for reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    pub wal_appends: u64,
    pub wal_bytes: u64,
    pub fsync_batches: u64,
    pub snapshots: u64,
    /// Bytes written by snapshots taken in the window.
    pub snapshot_bytes: u64,
    pub recoveries: u64,
    /// Summed simulated recovery wall time (snapshot load + WAL replay).
    pub recovery_time_us: u64,
    pub replayed_entries: u64,
    pub replayed_bytes: u64,
    /// Un-fsynced WAL records discarded by crashes.
    pub lost_tail_entries: u64,
    /// Estimated CPU to re-fill block-cache blocks lost to crashes.
    pub cold_refill_cpu_us: u64,
}

impl DurabilityStats {
    pub fn merge(&mut self, other: &DurabilityStats) {
        self.wal_appends += other.wal_appends;
        self.wal_bytes += other.wal_bytes;
        self.fsync_batches += other.fsync_batches;
        self.snapshots += other.snapshots;
        self.snapshot_bytes += other.snapshot_bytes;
        self.recoveries += other.recoveries;
        self.recovery_time_us += other.recovery_time_us;
        self.replayed_entries += other.replayed_entries;
        self.replayed_bytes += other.replayed_bytes;
        self.lost_tail_entries += other.lost_tail_entries;
        self.cold_refill_cpu_us += other.cold_refill_cpu_us;
    }

    pub fn reset(&mut self) {
        *self = DurabilityStats::default();
    }
}

/// One WAL record: the writes one raft entry applied at this pod.
#[derive(Debug, Clone)]
struct WalRecord {
    region: usize,
    version: u64,
    bytes: u64,
    writes: Vec<Mutation>,
}

/// What a recovery rebuilt and what it cost.
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// The recovered KV engine (snapshot + synced WAL replayed).
    pub kv: KvEngine,
    /// Per-region applied counts the recovered state covers; the pod's
    /// raft slots rejoin claiming exactly these prefixes.
    pub durable_applied: Vec<usize>,
    pub replayed_entries: u64,
    pub replayed_bytes: u64,
    pub lost_tail_entries: u64,
    /// Simulated wall time of the recovery (IO latency + replay CPU).
    pub recovery_time: SimDuration,
    /// CPU to charge the pod for the replay work.
    pub replay_cpu: SimDuration,
}

/// Per-pod durable state: the current snapshot plus the WAL tail since it.
#[derive(Debug)]
pub struct DurableStore {
    cfg: DurabilityConfig,
    snapshot: Option<KvEngine>,
    snapshot_size_bytes: u64,
    wal: Vec<WalRecord>,
    /// Records fsynced (durable): `wal[..synced]`.
    synced: usize,
    appends_since_snapshot: u64,
    /// Per-region applied count covered by snapshot + synced WAL.
    durable_applied: Vec<usize>,
    /// Per-region applied count covered by snapshot + whole WAL.
    tail_applied: Vec<usize>,
    pub stats: DurabilityStats,
}

impl DurableStore {
    pub fn new(cfg: DurabilityConfig, region_count: usize) -> Self {
        DurableStore {
            cfg,
            snapshot: None,
            snapshot_size_bytes: 0,
            wal: Vec::new(),
            synced: 0,
            appends_since_snapshot: 0,
            durable_applied: vec![0; region_count],
            tail_applied: vec![0; region_count],
            stats: DurabilityStats::default(),
        }
    }

    /// Per-region applied count covered by durable state (snapshot + synced
    /// WAL) — the prefix a recovered replica may claim.
    pub fn durable_applied(&self, region: usize) -> usize {
        self.durable_applied[region]
    }

    /// Bytes resident on the SSD tier right now (snapshot + WAL), the
    /// basis for $/GB billing.
    pub fn ssd_resident_bytes(&self) -> u64 {
        self.snapshot_size_bytes + self.wal.iter().map(|r| r.bytes).sum::<u64>()
    }

    /// Log one applied raft entry. Returns the CPU to charge (WAL append,
    /// plus the fsync when this append closes a group-commit batch).
    pub fn on_apply(
        &mut self,
        region: usize,
        version: u64,
        writes: &[Mutation],
        bytes: u64,
        cost: &StorageCostConfig,
    ) -> SimDuration {
        self.wal.push(WalRecord {
            region,
            version,
            bytes,
            writes: writes.to_vec(),
        });
        self.tail_applied[region] += 1;
        self.appends_since_snapshot += 1;
        self.stats.wal_appends += 1;
        self.stats.wal_bytes += bytes;
        let mut cpu = cost.wal_append_cost(bytes);
        if (self.wal.len() - self.synced) as u32 >= self.cfg.fsync.group_size() {
            cpu += self.fsync(cost);
        }
        cpu
    }

    fn fsync(&mut self, cost: &StorageCostConfig) -> SimDuration {
        for rec in &self.wal[self.synced..] {
            self.durable_applied[rec.region] += 1;
        }
        self.synced = self.wal.len();
        self.stats.fsync_batches += 1;
        cost.wal_fsync_cost()
    }

    /// Take a snapshot when the cadence is due. Returns the CPU to charge.
    pub fn maybe_snapshot(&mut self, kv: &KvEngine, cost: &StorageCostConfig) -> Option<SimDuration> {
        if self.appends_since_snapshot < self.cfg.snapshot_every_entries {
            return None;
        }
        Some(self.snapshot_now(kv, cost))
    }

    /// Persist the whole engine: the snapshot covers everything applied, so
    /// the WAL truncates and the durable prefix jumps to the applied prefix.
    pub fn snapshot_now(&mut self, kv: &KvEngine, cost: &StorageCostConfig) -> SimDuration {
        let bytes = kv.live_bytes();
        self.snapshot = Some(kv.clone());
        self.snapshot_size_bytes = bytes;
        self.durable_applied = self.tail_applied.clone();
        self.wal.clear();
        self.synced = 0;
        self.appends_since_snapshot = 0;
        self.stats.snapshots += 1;
        self.stats.snapshot_bytes += bytes;
        cost.snapshot_write_cost(bytes)
    }

    /// Crash: volatile state is gone. Rebuild from the snapshot plus the
    /// synced WAL prefix; the un-synced tail is dropped (the quorum still
    /// holds those entries and re-replicates them after rejoin).
    pub fn crash_and_recover(&mut self, cost: &StorageCostConfig) -> RecoveryOutcome {
        let lost = (self.wal.len() - self.synced) as u64;
        self.wal.truncate(self.synced);
        for (region, tail) in self.tail_applied.iter_mut().enumerate() {
            *tail = self.durable_applied[region];
        }

        let mut kv = self.snapshot.clone().unwrap_or_default();
        let mut replay_cpu = SimDuration::ZERO;
        let mut replayed_bytes = 0u64;
        for rec in &self.wal {
            for m in &rec.writes {
                kv.put_at(&m.key, m.value.as_deref(), rec.version);
            }
            replay_cpu += cost.wal_replay_cost(rec.bytes);
            replayed_bytes += rec.bytes;
        }
        let recovery_time = cost.ssd_seek_latency()
            + cost.snapshot_load_cost(self.snapshot_size_bytes)
            + replay_cpu;

        let replayed_entries = self.wal.len() as u64;
        self.stats.recoveries += 1;
        self.stats.recovery_time_us += recovery_time.as_nanos() / 1_000;
        self.stats.replayed_entries += replayed_entries;
        self.stats.replayed_bytes += replayed_bytes;
        self.stats.lost_tail_entries += lost;

        RecoveryOutcome {
            kv,
            durable_applied: self.durable_applied.clone(),
            replayed_entries,
            replayed_bytes,
            lost_tail_entries: lost,
            recovery_time,
            replay_cpu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(fsync: FsyncPolicy, snap: u64) -> DurabilityConfig {
        DurabilityConfig {
            enabled: true,
            fsync,
            snapshot_every_entries: snap,
        }
    }

    fn write(tag: u8) -> [Mutation; 1] {
        [Mutation {
            key: [tag][..].into(),
            value: Some([tag; 4][..].into()),
        }]
    }

    #[test]
    fn defaults_are_off() {
        let d = DurabilityConfig::default();
        assert!(!d.enabled());
        assert_eq!(d.fsync.group_size(), 8);
    }

    #[test]
    fn every_entry_fsyncs_each_append() {
        let cost = StorageCostConfig::default();
        let mut d = DurableStore::new(cfg(FsyncPolicy::EveryEntry, 1_000), 2);
        for v in 1..=3u64 {
            d.on_apply(0, v, &write(v as u8), 64, &cost);
        }
        assert_eq!(d.stats.wal_appends, 3);
        assert_eq!(d.stats.fsync_batches, 3);
        assert_eq!(d.durable_applied(0), 3);
    }

    #[test]
    fn group_commit_leaves_an_unsynced_tail() {
        let cost = StorageCostConfig::default();
        let mut d = DurableStore::new(cfg(FsyncPolicy::Group(4), 1_000), 1);
        for v in 1..=6u64 {
            d.on_apply(0, v, &write(v as u8), 64, &cost);
        }
        // One fsync at 4 appends; records 5..6 are volatile.
        assert_eq!(d.stats.fsync_batches, 1);
        assert_eq!(d.durable_applied(0), 4);

        let out = d.crash_and_recover(&cost);
        assert_eq!(out.lost_tail_entries, 2);
        assert_eq!(out.replayed_entries, 4);
        assert_eq!(out.durable_applied, vec![4]);
        // Recovered engine holds exactly the synced writes.
        assert_eq!(out.kv.get_latest(&[4u8][..]).unwrap().value, &[4u8; 4][..]);
        assert!(out.kv.get_latest(&[5u8][..]).is_none());
    }

    #[test]
    fn snapshot_truncates_wal_and_makes_tail_durable() {
        let cost = StorageCostConfig::default();
        let mut d = DurableStore::new(cfg(FsyncPolicy::Group(64), 3), 1);
        let mut kv = KvEngine::new();
        for v in 1..=3u64 {
            kv.put_at(&[v as u8], Some(&[v as u8; 4]), v);
            d.on_apply(0, v, &write(v as u8), 64, &cost);
        }
        // Third append crosses the cadence; the caller snapshots.
        assert!(d.maybe_snapshot(&kv, &cost).is_some());
        assert_eq!(d.stats.snapshots, 1);
        assert_eq!(d.durable_applied(0), 3, "snapshot covers the whole tail");

        let out = d.crash_and_recover(&cost);
        assert_eq!(out.replayed_entries, 0, "WAL was truncated by snapshot");
        assert_eq!(out.durable_applied, vec![3]);
        assert_eq!(out.kv.get_latest(&[2u8][..]).unwrap().value, &[2u8; 4][..]);
    }

    #[test]
    fn recovery_replays_only_the_synced_prefix() {
        let cost = StorageCostConfig::default();
        let mut d = DurableStore::new(cfg(FsyncPolicy::Group(2), 1_000), 1);
        for v in 1..=5u64 {
            d.on_apply(0, v, &write(v as u8), 100, &cost);
        }
        let out = d.crash_and_recover(&cost);
        assert_eq!(out.replayed_entries, 4);
        assert_eq!(out.lost_tail_entries, 1);
        assert!(out.recovery_time > SimDuration::ZERO);
        assert!(out.replay_cpu > SimDuration::ZERO);
        // A second crash immediately after recovers the same state.
        let again = d.crash_and_recover(&cost);
        assert_eq!(again.durable_applied, out.durable_applied);
        assert_eq!(again.lost_tail_entries, 0);
    }

    #[test]
    fn ssd_resident_bytes_tracks_snapshot_plus_wal() {
        let cost = StorageCostConfig::default();
        let mut d = DurableStore::new(cfg(FsyncPolicy::EveryEntry, 1_000), 1);
        assert_eq!(d.ssd_resident_bytes(), 0);
        d.on_apply(0, 1, &write(1), 128, &cost);
        assert_eq!(d.ssd_resident_bytes(), 128);
        let mut kv = KvEngine::new();
        kv.put_at(&[1], Some(&[1; 4]), 1);
        d.snapshot_now(&kv, &cost);
        assert_eq!(d.ssd_resident_bytes(), kv.live_bytes());
    }
}
