//! Session-state workload — the paper's second motivating service (§2.3).
//!
//! "A system in Databricks that lets customers schedule and execute SQL
//! queries on elastic compute clusters is tuned for fast responses but also
//! requires strongly consistent session state, as any inconsistency can
//! yield incorrect query behavior."
//!
//! The shape differs from the KV and rich-object traces in three ways that
//! matter for caching cost:
//!
//! * **lifecycle** — sessions are created, live through a burst of
//!   activity, and end (deletes are first-class, unlike the KV traces);
//! * **read-your-writes within a session** — every `Advance` is immediately
//!   followed by `Get`s that must observe it: *any* staleness is a
//!   correctness bug, not a freshness annoyance;
//! * **popularity is recency** — active sessions are hot; ended sessions
//!   are never touched again (no long-tailed re-reference).
//!
//! The generator maintains a pool of live sessions and emits a
//! deterministic stream of [`SessionOp`]s with a configurable op mix.

use crate::sizes::SizeDist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One operation against the session service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionOp {
    /// Start a session (write of initial state).
    Create { id: u64 },
    /// Read the session's current state (must be fresh: §2.3).
    Get { id: u64 },
    /// Advance the session's state machine (write of new state).
    Advance { id: u64, step: u64 },
    /// End the session (delete).
    End { id: u64 },
}

impl SessionOp {
    pub fn id(&self) -> u64 {
        match *self {
            SessionOp::Create { id }
            | SessionOp::Get { id }
            | SessionOp::Advance { id, .. }
            | SessionOp::End { id } => id,
        }
    }

    pub fn is_read(&self) -> bool {
        matches!(self, SessionOp::Get { .. })
    }
}

/// Workload parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionWorkloadConfig {
    /// Steady-state live-session pool size.
    pub live_sessions: usize,
    /// Op mix (weights; normalized internally): get, advance, end+create.
    pub get_weight: f64,
    pub advance_weight: f64,
    pub churn_weight: f64,
    /// Session state payload sizes.
    pub state_sizes: SizeDist,
    pub seed: u64,
}

impl Default for SessionWorkloadConfig {
    fn default() -> Self {
        SessionWorkloadConfig {
            live_sessions: 10_000,
            get_weight: 0.88,
            advance_weight: 0.10,
            churn_weight: 0.02,
            state_sizes: SizeDist::LogNormal { median: 4_096, sigma: 0.9 },
            seed: 42,
        }
    }
}

impl SessionWorkloadConfig {
    pub fn build(&self) -> SessionWorkload {
        let mut wl = SessionWorkload {
            live: (0..self.live_sessions as u64).collect(),
            steps: vec![0; self.live_sessions],
            next_id: self.live_sessions as u64,
            rng: StdRng::seed_from_u64(self.seed),
            cfg: self.clone(),
        };
        // Ensure at least one live session so Get/Advance always resolve.
        if wl.live.is_empty() {
            wl.live.push(0);
            wl.steps.push(0);
            wl.next_id = 1;
        }
        wl
    }

    /// State payload size of session `id`.
    pub fn state_bytes(&self, id: u64) -> u64 {
        self.state_sizes.size_of(id, self.seed)
    }
}

/// The op stream. Sessions are chosen uniformly from the live pool — the
/// recency skew comes from the pool being small relative to the id space.
pub struct SessionWorkload {
    live: Vec<u64>,
    steps: Vec<u64>,
    next_id: u64,
    rng: StdRng,
    cfg: SessionWorkloadConfig,
}

impl SessionWorkload {
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Total distinct sessions created so far (live + ended).
    pub fn created(&self) -> u64 {
        self.next_id
    }

    pub fn next_op(&mut self) -> SessionOp {
        let total = self.cfg.get_weight + self.cfg.advance_weight + self.cfg.churn_weight;
        let draw: f64 = self.rng.gen::<f64>() * total;
        let idx = self.rng.gen_range(0..self.live.len());
        if draw < self.cfg.get_weight {
            SessionOp::Get { id: self.live[idx] }
        } else if draw < self.cfg.get_weight + self.cfg.advance_weight {
            self.steps[idx] += 1;
            SessionOp::Advance {
                id: self.live[idx],
                step: self.steps[idx],
            }
        } else if self.rng.gen_bool(0.5) && self.live.len() > 1 {
            // End a session; a later draw will replace it.
            let id = self.live.swap_remove(idx);
            self.steps.swap_remove(idx);
            SessionOp::End { id }
        } else {
            let id = self.next_id;
            self.next_id += 1;
            self.live.push(id);
            self.steps.push(0);
            SessionOp::Create { id }
        }
    }
}

impl Iterator for SessionWorkload {
    type Item = SessionOp;
    fn next(&mut self) -> Option<SessionOp> {
        Some(self.next_op())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SessionWorkloadConfig {
        SessionWorkloadConfig {
            live_sessions: 100,
            ..Default::default()
        }
    }

    #[test]
    fn stream_is_deterministic() {
        let a: Vec<SessionOp> = cfg().build().take(200).collect();
        let b: Vec<SessionOp> = cfg().build().take(200).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn op_mix_matches_weights() {
        let ops: Vec<SessionOp> = cfg().build().take(50_000).collect();
        let gets = ops.iter().filter(|o| o.is_read()).count() as f64;
        let ratio = gets / ops.len() as f64;
        assert!((ratio - 0.88).abs() < 0.02, "get ratio {ratio}");
    }

    #[test]
    fn lifecycle_invariants_hold() {
        let mut wl = cfg().build();
        let mut live: std::collections::HashSet<u64> = (0..100).collect();
        for _ in 0..20_000 {
            match wl.next_op() {
                SessionOp::Create { id } => {
                    assert!(live.insert(id), "created id {id} twice");
                }
                SessionOp::Get { id } | SessionOp::Advance { id, .. } => {
                    assert!(live.contains(&id), "op on dead session {id}");
                }
                SessionOp::End { id } => {
                    assert!(live.remove(&id), "ended dead session {id}");
                }
            }
            assert_eq!(wl.live_count(), live.len());
            assert!(wl.live_count() >= 1);
        }
        // Churn happened in both directions.
        assert!(wl.created() > 150, "no creates: {}", wl.created());
    }

    #[test]
    fn advance_steps_increase_per_session() {
        let mut wl = cfg().build();
        let mut last_step: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for _ in 0..20_000 {
            if let SessionOp::Advance { id, step } = wl.next_op() {
                let prev = last_step.insert(id, step).unwrap_or(0);
                assert!(step > prev, "session {id}: step {step} after {prev}");
            }
        }
    }

    #[test]
    fn state_sizes_are_stable_per_session() {
        let c = cfg();
        for id in [0u64, 5, 99, 12345] {
            assert_eq!(c.state_bytes(id), c.state_bytes(id));
        }
    }
}
