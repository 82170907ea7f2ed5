//! Property-based safety tests for the Raft layer: under arbitrary
//! interleavings of proposals, crashes, restarts, elections and heartbeats,
//! committed entries are never lost and replica state machines never
//! diverge.

// The offline `proptest` stub swallows `proptest!` blocks, leaving the
// strategy helpers (and some imports) unreferenced in offline builds.
#![allow(dead_code, unused_imports)]
use proptest::prelude::*;
use simnet::{SimDuration, SimTime};
use storekit::raft::RaftGroup;
use storekit::sql::exec::WriteBatch;

#[derive(Debug, Clone)]
enum Step {
    Propose(u8),
    Crash(u8),
    Restart(u8),
    Elect,
    Tick,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => any::<u8>().prop_map(Step::Propose),
        1 => (0u8..3).prop_map(Step::Crash),
        1 => (0u8..3).prop_map(Step::Restart),
        1 => Just(Step::Elect),
        2 => Just(Step::Tick),
    ]
}

fn batch(tag: u8) -> WriteBatch {
    WriteBatch {
        logical_bytes: tag as u64,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The core Raft safety argument, checked mechanically:
    /// 1. the commit index never regresses;
    /// 2. once an entry is committed, its (index → version) binding never
    ///    changes across failovers;
    /// 3. per-replica applied prefixes match the leader's log;
    /// 4. a live quorum can always eventually elect a leader.
    #[test]
    fn committed_entries_survive_any_schedule(steps in proptest::collection::vec(step_strategy(), 1..120)) {
        let mut g = RaftGroup::new(0, vec![10, 11, 12], SimTime::ZERO, SimDuration::from_secs(10));
        let mut next_version = 1u64;
        // Ground truth: versions of entries at each committed index.
        let mut committed_log: Vec<u64> = Vec::new();
        // Per-replica applied versions, in order.
        let mut applied: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let now = SimTime::ZERO;

        let mut ops = Vec::new();
        let record_ops = |g: &RaftGroup, ops: &[storekit::raft::ApplyOp],
                              applied: &mut [Vec<u64>; 3]| {
            for op in ops {
                let version = g.entry(op.index).version;
                // Applies arrive in order per replica.
                assert_eq!(applied[op.slot].len(), op.index, "out-of-order apply");
                applied[op.slot].push(version);
            }
        };

        for step in steps {
            let commit_before = g.committed();
            match step {
                Step::Propose(tag) => {
                    let version = next_version;
                    if g.propose(batch(tag), version, now, &mut ops).is_ok() {
                        next_version += 1;
                        record_ops(&g, &ops, &mut applied);
                    }
                }
                Step::Crash(slot) => g.crash(slot as usize),
                Step::Restart(slot) => g.restart(slot as usize),
                Step::Elect => {
                    let _ = g.elect(now);
                }
                Step::Tick => {
                    g.tick(now, &mut ops);
                    record_ops(&g, &ops, &mut applied);
                }
            }
            // (1) commit never regresses.
            prop_assert!(g.committed() >= commit_before, "commit regressed");
            // (2) committed bindings are stable.
            for (index, &version) in committed_log.iter().enumerate() {
                prop_assert!(
                    g.log_len() > index,
                    "committed entry {index} truncated"
                );
                prop_assert_eq!(
                    g.entry(index).version,
                    version,
                    "committed entry {} changed identity",
                    index
                );
            }
            for index in committed_log.len()..g.committed() {
                committed_log.push(g.entry(index).version);
            }
            // (3) every replica's applied sequence is a prefix of the
            // committed log.
            for (slot, seq) in applied.iter().enumerate() {
                prop_assert!(seq.len() <= committed_log.len().max(g.committed()),
                    "replica {} applied beyond commit", slot);
                for (i, &v) in seq.iter().enumerate() {
                    prop_assert_eq!(v, g.entry(i).version,
                        "replica {} diverged at {}", slot, i);
                }
            }
        }

        // (4) liveness escape hatch: restart everyone, elect, tick — all
        // replicas converge to the full committed log.
        for slot in 0..3 {
            g.restart(slot);
        }
        let _ = g.elect(now);
        g.tick(now, &mut ops);
        record_ops(&g, &ops, &mut applied);
        for (slot, seq) in applied.iter().enumerate() {
            prop_assert_eq!(seq.len(), g.committed(), "replica {} did not converge", slot);
        }
    }
}
