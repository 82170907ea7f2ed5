//! Raft-style replicated regions.
//!
//! Each region is a replication group over a subset of storage pods: a
//! leader appends log entries, followers acknowledge, entries commit at the
//! quorum median, and replicas apply committed entries to their local KV
//! engines. Leader leases gate consistent reads — the component §5.5
//! identifies in the version-check cost ("TiDB's transaction layer validates
//! Raft leases").
//!
//! The group is driven synchronously by the cluster layer (callers pass
//! virtual timestamps); what is modeled faithfully is the *safety-relevant
//! bookkeeping*: per-replica match indices, quorum commit, lease expiry, and
//! failover that truncates uncommitted entries and never loses committed
//! ones. Tests exercise crash/elect schedules directly.
//!
//! Log indices are absolute. [`RaftGroup::compact`] drops the prefix every
//! replica has applied, and the group keeps the index of its first
//! retained entry, so a long run holds only the entries some replica
//! still needs.

use crate::error::{StoreError, StoreResult};
use crate::sql::exec::WriteBatch;
use simnet::{SimDuration, SimTime};

/// One replicated log entry: a write batch bound for the region's replicas.
#[derive(Debug, Clone)]
pub struct LogEntry {
    pub term: u64,
    pub batch: WriteBatch,
    /// Logical bytes replicated (drives per-byte replication CPU).
    pub bytes: u64,
    /// Cluster-wide commit version assigned when the entry was proposed.
    pub version: u64,
}

/// Work the state machine must do: replica `slot` applies log entry `index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyOp {
    /// Index into the group's replica list.
    pub slot: usize,
    /// Zero-based log index to apply.
    pub index: usize,
}

/// A Raft group for one region.
#[derive(Debug, Clone)]
pub struct RaftGroup {
    pub id: u64,
    /// Storage-pod indices hosting this region; `replicas[slot]`.
    pub replicas: Vec<usize>,
    term: u64,
    leader_slot: Option<usize>,
    /// Entries from index `first` on; the ones before it were compacted.
    log: Vec<LogEntry>,
    first: usize,
    /// Entries committed (quorum-replicated): indices `..commit`.
    commit: usize,
    /// Per-slot: entries present in that replica's log.
    match_len: Vec<usize>,
    /// Per-slot: entries applied to that replica's state machine.
    applied: Vec<usize>,
    alive: Vec<bool>,
    lease_until: SimTime,
    lease: SimDuration,
}

impl RaftGroup {
    /// Create a group led by `replicas[0]`, lease granted from `now`.
    pub fn new(id: u64, replicas: Vec<usize>, now: SimTime, lease: SimDuration) -> Self {
        assert!(!replicas.is_empty(), "region needs at least one replica");
        let n = replicas.len();
        RaftGroup {
            id,
            replicas,
            term: 1,
            leader_slot: Some(0),
            log: Vec::new(),
            first: 0,
            commit: 0,
            match_len: vec![0; n],
            applied: vec![0; n],
            alive: vec![true; n],
            lease_until: now + lease,
            lease,
        }
    }

    pub fn term(&self) -> u64 {
        self.term
    }

    /// The storage-pod index of the current leader, if any.
    pub fn leader(&self) -> StoreResult<usize> {
        self.leader_slot
            .map(|s| self.replicas[s])
            .ok_or(StoreError::NoLeader { region: self.id })
    }

    pub fn leader_slot(&self) -> Option<usize> {
        self.leader_slot
    }

    pub fn committed(&self) -> usize {
        self.commit
    }

    /// Entries ever appended and not truncated, compacted ones included:
    /// one past the last log index.
    pub fn log_len(&self) -> usize {
        self.first + self.log.len()
    }

    /// The first index still held: entries before it were compacted.
    pub fn log_start(&self) -> usize {
        self.first
    }

    /// The entry at absolute `index`, which must not be compacted.
    pub fn entry(&self, index: usize) -> &LogEntry {
        &self.log[index - self.first]
    }

    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    fn quorum(&self) -> usize {
        self.replicas.len() / 2 + 1
    }

    /// Whether the leader's lease authorizes a local consistent read at `now`.
    pub fn lease_valid(&self, now: SimTime) -> bool {
        self.leader_slot.is_some() && now < self.lease_until
    }

    /// Renew the lease from `now` (quorum contact: writes, heartbeats,
    /// quorum reads).
    pub fn renew_lease(&mut self, now: SimTime) {
        if self.leader_slot.is_some() && self.alive_count() >= self.quorum() {
            self.lease_until = now + self.lease;
        }
    }

    /// Propose a write at the leader and drive it to commit: replicate to
    /// live followers, advance the quorum commit point, and fill `ops` with
    /// the apply work for every replica that can now apply entries. Fails
    /// without a leader or a live quorum (the entry is not appended in
    /// either case, so failed proposals leave no partial state).
    pub fn propose(
        &mut self,
        batch: WriteBatch,
        version: u64,
        now: SimTime,
        ops: &mut Vec<ApplyOp>,
    ) -> StoreResult<()> {
        let leader = self.leader_slot.ok_or(StoreError::NoLeader { region: self.id })?;
        if self.alive_count() < self.quorum() {
            return Err(StoreError::NoLeader { region: self.id });
        }
        let bytes = 64 + batch.logical_bytes; // entry header + payload
        self.log.push(LogEntry {
            term: self.term,
            batch,
            bytes,
            version,
        });
        self.match_len[leader] = self.log_len();
        self.renew_lease(now);
        self.replicate(ops);
        Ok(())
    }

    /// Bring live followers up to date, advance commit, and replace the
    /// contents of `ops` with the apply work.
    fn replicate(&mut self, ops: &mut Vec<ApplyOp>) {
        ops.clear();
        for slot in 0..self.replicas.len() {
            if self.alive[slot] {
                self.match_len[slot] = self.log_len();
            }
        }
        // Quorum commit: the largest index replicated on a majority, i.e.
        // the largest length that at least a quorum of slots reach.
        let quorum = self.quorum();
        let on_quorum = self
            .match_len
            .iter()
            .copied()
            .filter(|&len| self.match_len.iter().filter(|&&m| m >= len).count() >= quorum)
            .max()
            .unwrap_or(0);
        self.commit = self.commit.max(on_quorum);

        for slot in 0..self.replicas.len() {
            if !self.alive[slot] {
                continue;
            }
            let upto = self.commit.min(self.match_len[slot]);
            for index in self.applied[slot]..upto {
                ops.push(ApplyOp { slot, index });
            }
            self.applied[slot] = upto.max(self.applied[slot]);
        }
    }

    /// Crash a replica. If it was the leader, the region has no leader until
    /// [`RaftGroup::elect`] runs; its lease keeps gating reads until expiry.
    pub fn crash(&mut self, slot: usize) {
        self.alive[slot] = false;
        if self.leader_slot == Some(slot) {
            self.leader_slot = None;
        }
    }

    /// Restart a crashed replica. A crash loses volatile state, so the
    /// replica rejoins claiming only the prefix its state machine had
    /// actually applied — an entry it had appended but not applied when it
    /// crashed must be re-fetched from the leader, never silently
    /// resurrected. Recovery paths that replay a WAL should call
    /// [`RaftGroup::restart_recovered`] with the replayed prefix instead.
    pub fn restart(&mut self, slot: usize) {
        let durable = self.applied[slot];
        self.restart_recovered(slot, durable);
    }

    /// Rejoin a crashed replica whose recovery rebuilt `durable_len`
    /// entries (snapshot + synced WAL). The replica claims exactly that
    /// prefix: its match/applied indices are clamped so the leader
    /// re-replicates everything beyond it. `durable_len` is capped by what
    /// the replica had ever acknowledged — recovery cannot mint entries.
    pub fn restart_recovered(&mut self, slot: usize, durable_len: usize) {
        let durable = durable_len.min(self.match_len[slot]).min(self.log_len());
        assert!(
            durable >= self.first,
            "recovered prefix {durable} misses compacted entries below {}",
            self.first
        );
        self.alive[slot] = true;
        self.match_len[slot] = durable;
        self.applied[slot] = self.applied[slot].min(durable);
    }

    /// Elect a new leader: the live replica with the longest log (which,
    /// given quorum-commit, is guaranteed to hold every committed entry).
    /// Uncommitted tail entries beyond the new leader's log are discarded.
    pub fn elect(&mut self, now: SimTime) -> StoreResult<usize> {
        let candidate = (0..self.replicas.len())
            .filter(|&s| self.alive[s])
            .max_by_key(|&s| self.match_len[s])
            .ok_or(StoreError::NoLeader { region: self.id })?;
        if self.alive_count() < self.quorum() {
            return Err(StoreError::NoLeader { region: self.id });
        }
        assert!(
            self.match_len[candidate] >= self.commit,
            "safety: elected leader must hold all committed entries"
        );
        self.term += 1;
        self.leader_slot = Some(candidate);
        // Truncate uncommitted entries not on the new leader.
        self.log.truncate(self.match_len[candidate] - self.first);
        let len = self.log_len();
        for slot in 0..self.replicas.len() {
            self.match_len[slot] = self.match_len[slot].min(len);
            self.applied[slot] = self.applied[slot].min(len);
        }
        self.lease_until = now + self.lease;
        Ok(self.replicas[candidate])
    }

    /// Drop the log prefix below `upto` that every replica, crashed ones
    /// included, has applied. A crashed replica keeps every entry past its
    /// applied prefix in the log until it rejoins and catches up. Callers
    /// whose replicas recover from durable state pass the smallest durable
    /// prefix as `upto`, so a recovery can still be re-replicated from it.
    pub fn compact(&mut self, upto: usize) {
        let applied = self.applied.iter().copied().min().unwrap_or(0);
        let upto = upto.min(applied);
        if upto > self.first {
            self.log.drain(..upto - self.first);
            self.first = upto;
        }
    }

    /// Heartbeat: re-replicates to stragglers (e.g. restarted replicas) and
    /// renews the lease. Fills `ops` with apply work for replicas that
    /// caught up.
    pub fn tick(&mut self, now: SimTime, ops: &mut Vec<ApplyOp>) {
        if self.leader_slot.is_none() {
            ops.clear();
            return;
        }
        self.renew_lease(now);
        self.replicate(ops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(bytes: u64) -> WriteBatch {
        WriteBatch {
            logical_bytes: bytes,
            ..Default::default()
        }
    }

    fn group() -> RaftGroup {
        RaftGroup::new(1, vec![10, 11, 12], SimTime::ZERO, SimDuration::from_secs(10))
    }

    /// Propose and return the apply work.
    fn propose(
        g: &mut RaftGroup,
        bytes: u64,
        version: u64,
        now: SimTime,
    ) -> StoreResult<Vec<ApplyOp>> {
        let mut ops = Vec::new();
        g.propose(batch(bytes), version, now, &mut ops)
            .map(|()| ops)
    }

    /// Heartbeat and return the apply work.
    fn tick(g: &mut RaftGroup) -> Vec<ApplyOp> {
        let mut ops = Vec::new();
        g.tick(SimTime::ZERO, &mut ops);
        ops
    }

    #[test]
    fn propose_commits_and_applies_on_all_replicas() {
        let mut g = group();
        let ops = propose(&mut g, 100, 1, SimTime::ZERO).unwrap();
        assert_eq!(g.committed(), 1);
        assert_eq!(ops.len(), 3, "all three replicas apply");
        assert!(ops.iter().all(|o| o.index == 0));
        let slots: Vec<_> = ops.iter().map(|o| o.slot).collect();
        assert_eq!(slots, vec![0, 1, 2]);
    }

    #[test]
    fn commit_survives_one_follower_crash() {
        let mut g = group();
        g.crash(2);
        let ops = propose(&mut g, 1, 1, SimTime::ZERO).unwrap();
        assert_eq!(g.committed(), 1);
        assert_eq!(ops.len(), 2, "only live replicas apply");
    }

    #[test]
    fn commit_is_the_longest_prefix_a_quorum_holds() {
        let mut g = RaftGroup::new(
            1,
            vec![0, 1, 2, 3, 4],
            SimTime::ZERO,
            SimDuration::from_secs(10),
        );
        propose(&mut g, 1, 1, SimTime::ZERO).unwrap();
        // Slots 3 and 4 miss the second entry; the other three commit it.
        g.crash(3);
        g.crash(4);
        let ops = propose(&mut g, 1, 2, SimTime::ZERO).unwrap();
        assert_eq!(g.committed(), 2);
        assert_eq!(ops, [0, 1, 2].map(|slot| ApplyOp { slot, index: 1 }));
        // A restarted slot catches up on the next heartbeat.
        g.restart(3);
        assert_eq!(tick(&mut g), [ApplyOp { slot: 3, index: 1 }]);
    }

    #[test]
    fn no_quorum_blocks_writes() {
        let mut g = group();
        g.crash(1);
        g.crash(2);
        let err = propose(&mut g, 1, 1, SimTime::ZERO).unwrap_err();
        assert!(matches!(err, StoreError::NoLeader { region: 1 }));
        assert_eq!(g.log_len(), 0, "failed proposal leaves no partial state");
    }

    #[test]
    fn leader_crash_blocks_until_election() {
        let mut g = group();
        propose(&mut g, 1, 1, SimTime::ZERO).unwrap();
        g.crash(0);
        assert!(g.leader().is_err());
        let new_leader = g.elect(SimTime::ZERO).unwrap();
        assert!(new_leader == 11 || new_leader == 12);
        assert_eq!(g.term(), 2);
        // Committed entry survives.
        assert_eq!(g.committed(), 1);
        assert_eq!(g.log_len(), 1);
    }

    #[test]
    fn committed_entries_never_lost_on_failover() {
        let mut g = group();
        // Commit 3 entries with all alive.
        for v in 1..=3 {
            propose(&mut g, 10, v, SimTime::ZERO).unwrap();
        }
        // Crash leader, elect, verify all 3 survive; repeat.
        g.crash(0);
        g.elect(SimTime::ZERO).unwrap();
        assert_eq!(g.committed(), 3);
        propose(&mut g, 10, 4, SimTime::ZERO).unwrap();
        assert_eq!(g.committed(), 4);
    }

    #[test]
    fn restarted_replica_catches_up_on_tick() {
        let mut g = group();
        g.crash(2);
        propose(&mut g, 1, 1, SimTime::ZERO).unwrap();
        propose(&mut g, 1, 2, SimTime::ZERO).unwrap();
        g.restart(2);
        let ops = tick(&mut g);
        let slot2_ops: Vec<_> = ops.iter().filter(|o| o.slot == 2).collect();
        assert_eq!(slot2_ops.len(), 2, "straggler applies both entries");
    }

    #[test]
    fn lease_expires_without_renewal_and_renews_on_write() {
        let mut g = group();
        let t0 = SimTime::ZERO;
        assert!(g.lease_valid(t0));
        let late = t0 + SimDuration::from_secs(11);
        assert!(!g.lease_valid(late));
        propose(&mut g, 1, 1, late).unwrap();
        assert!(g.lease_valid(late + SimDuration::from_secs(5)));
    }

    #[test]
    fn lease_does_not_renew_without_quorum() {
        let mut g = group();
        g.crash(1);
        g.crash(2);
        let late = SimTime::ZERO + SimDuration::from_secs(20);
        g.renew_lease(late);
        assert!(!g.lease_valid(late));
    }

    #[test]
    fn election_requires_quorum() {
        let mut g = group();
        g.crash(0);
        g.crash(1);
        assert!(g.elect(SimTime::ZERO).is_err());
        g.restart(1);
        assert!(g.elect(SimTime::ZERO).is_ok());
    }

    #[test]
    fn recovered_restart_does_not_resurrect_lost_tail() {
        let mut g = group();
        propose(&mut g, 1, 1, SimTime::ZERO).unwrap();
        propose(&mut g, 1, 2, SimTime::ZERO).unwrap();
        assert_eq!(g.committed(), 2);
        // Replica 2 crashed between appending/applying entry 2 and making
        // it durable: its recovery only rebuilt entry 1.
        g.crash(2);
        g.restart_recovered(2, 1);
        // The lost entry must be re-replicated and re-applied — with the
        // old restart (full in-memory log intact) no op was emitted and the
        // replica's state machine silently diverged.
        let ops = tick(&mut g);
        let slot2: Vec<usize> = ops.iter().filter(|o| o.slot == 2).map(|o| o.index).collect();
        assert_eq!(slot2, vec![1], "lost entry is re-applied, not resurrected");
    }

    #[test]
    fn recovery_cannot_claim_beyond_prior_ack() {
        let mut g = group();
        propose(&mut g, 1, 1, SimTime::ZERO).unwrap();
        g.crash(1);
        propose(&mut g, 1, 2, SimTime::ZERO).unwrap();
        // Replica 1 never saw entry 2; a buggy recovery claiming 99 entries
        // must still be clamped to what it had acknowledged (1).
        g.restart_recovered(1, 99);
        let ops = tick(&mut g);
        let slot1: Vec<usize> = ops.iter().filter(|o| o.slot == 1).map(|o| o.index).collect();
        assert_eq!(slot1, vec![1], "replica catches up from its real prefix");
    }

    #[test]
    fn election_prefers_fully_recovered_replica() {
        let mut g = group();
        for v in 1..=3 {
            propose(&mut g, 1, v, SimTime::ZERO).unwrap();
        }
        // Leader 0 crashes; replica 1 also crashed and recovered only a
        // durable prefix of 1. The election must pick replica 2 (full log),
        // and committed entries all survive.
        g.crash(0);
        g.crash(1);
        g.restart_recovered(1, 1);
        let new_leader = g.elect(SimTime::ZERO).unwrap();
        assert_eq!(new_leader, 12);
        assert_eq!(g.committed(), 3);
        assert_eq!(g.log_len(), 3);
    }

    #[test]
    fn compaction_keeps_indices_absolute_and_spares_a_crashed_replica() {
        let mut g = group();
        for v in 1..=3 {
            propose(&mut g, 1, v, SimTime::ZERO).unwrap();
        }
        g.compact(usize::MAX);
        assert_eq!((g.log_start(), g.log_len()), (3, 3));
        g.crash(2);
        for v in 4..=5 {
            propose(&mut g, 1, v, SimTime::ZERO).unwrap();
        }
        g.compact(usize::MAX);
        assert_eq!(g.log_start(), 3, "replica 2 still needs entries 3 and 4");
        assert_eq!(g.entry(4).version, 5);
        // A caller's bound (a durable prefix, say) caps compaction too.
        g.restart(2);
        let slot2: Vec<usize> = tick(&mut g)
            .iter()
            .filter(|o| o.slot == 2)
            .map(|o| o.index)
            .collect();
        assert_eq!(slot2, vec![3, 4]);
        g.compact(4);
        assert_eq!(g.log_start(), 4);
        // Failover after compaction keeps the committed log.
        g.crash(0);
        g.elect(SimTime::ZERO).unwrap();
        assert_eq!((g.committed(), g.log_len()), (5, 5));
        propose(&mut g, 1, 6, SimTime::ZERO).unwrap();
        assert_eq!(g.entry(5).version, 6);
    }

    #[test]
    fn entry_versions_are_preserved_in_log() {
        let mut g = group();
        propose(&mut g, 5, 42, SimTime::ZERO).unwrap();
        assert_eq!(g.entry(0).version, 42);
        assert!(g.entry(0).bytes >= 64 + 5);
    }
}
