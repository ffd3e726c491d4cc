//! Per-node health tracking for the cluster scheduler.
//!
//! Each fleet member moves through a small state machine driven by two
//! signal sources: the outcomes of real `/sim` requests, and `/healthz`
//! probes while the node is out of rotation:
//!
//! ```text
//!            failure            failure
//!  Healthy ──────────▶ Suspect ──────────▶ Dead
//!     ▲                   │                 │ probe success
//!     │ success           │ success         ▼
//!     └───────────────────┴───────────── Probation
//!                                           │ failure
//!                                           └────────▶ Dead
//! ```
//!
//! * One failed request makes a node *suspect* — it keeps serving, so a
//!   single dropped packet never benches a healthy node.
//! * A second consecutive failure makes it *dead*: its worker stops
//!   pulling sweep work and probes `/healthz` instead.
//! * A successful probe re-admits the node on *probation*: it serves
//!   again, but its first failure sends it straight back to dead (no
//!   second chance while unproven).
//! * Any successful request makes the node fully *healthy* again.
//!
//! The tracker also counts completed/failed requests for the end-of-run
//! fleet summary.

use serde::Serialize;
use std::sync::Mutex;

/// Where a node currently stands in the health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[serde(rename_all = "lowercase")]
pub enum NodeState {
    /// Serving normally.
    Healthy,
    /// One recent failure; still serving.
    Suspect,
    /// Out of rotation; its worker probes `/healthz` for re-admission.
    Dead,
    /// Re-admitted after a successful probe; one failure kills it again.
    Probation,
}

impl NodeState {
    /// Whether a node in this state should be pulling sweep work.
    pub fn serves(self) -> bool {
        !matches!(self, NodeState::Dead)
    }
}

impl std::fmt::Display for NodeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            NodeState::Healthy => "healthy",
            NodeState::Suspect => "suspect",
            NodeState::Dead => "dead",
            NodeState::Probation => "probation",
        })
    }
}

/// End-of-run snapshot of one node's contribution.
#[derive(Debug, Clone, Serialize)]
pub struct NodeSummary {
    /// Node address (`host:port`).
    pub addr: String,
    /// Final health state.
    pub state: NodeState,
    /// Points this node completed.
    pub completed: u64,
    /// Requests to this node that failed.
    pub failures: u64,
}

struct Tracked {
    state: NodeState,
    probe_failures: u32,
    completed: u64,
    failures: u64,
}

/// Thread-safe health tracker for one fleet member.
pub struct NodeTracker {
    addr: String,
    inner: Mutex<Tracked>,
}

impl NodeTracker {
    /// A new tracker in the given starting state (nodes that fail the
    /// startup probe begin [`NodeState::Dead`] and must earn re-admission).
    pub fn new(addr: impl Into<String>, state: NodeState) -> Self {
        NodeTracker {
            addr: addr.into(),
            inner: Mutex::new(Tracked {
                state,
                probe_failures: 0,
                completed: 0,
                failures: 0,
            }),
        }
    }

    /// The node's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Current state.
    pub fn state(&self) -> NodeState {
        self.inner.lock().unwrap().state
    }

    /// A `/sim` request succeeded: the node is fully healthy.
    pub fn record_success(&self) {
        let mut t = self.inner.lock().unwrap();
        t.state = NodeState::Healthy;
        t.probe_failures = 0;
        t.completed += 1;
    }

    /// A `/sim` request failed; returns the state after the transition
    /// (healthy → suspect, suspect/probation → dead).
    pub fn record_failure(&self) -> NodeState {
        let mut t = self.inner.lock().unwrap();
        t.failures += 1;
        t.state = match t.state {
            NodeState::Healthy => NodeState::Suspect,
            NodeState::Suspect | NodeState::Probation | NodeState::Dead => NodeState::Dead,
        };
        t.state
    }

    /// A `/healthz` probe of a dead node succeeded: re-admit on
    /// probation.
    pub fn record_probe_success(&self) {
        let mut t = self.inner.lock().unwrap();
        if t.state == NodeState::Dead {
            t.state = NodeState::Probation;
        }
        t.probe_failures = 0;
    }

    /// A `/healthz` probe failed; returns the consecutive probe-failure
    /// count (the scheduler retires the node past its give-up bound).
    pub fn record_probe_failure(&self) -> u32 {
        let mut t = self.inner.lock().unwrap();
        t.probe_failures += 1;
        t.probe_failures
    }

    /// Consecutive failed `/healthz` probes so far.
    pub(crate) fn probe_failures(&self) -> u32 {
        self.inner.lock().unwrap().probe_failures
    }

    /// Snapshot for the end-of-run fleet summary.
    pub fn summary(&self) -> NodeSummary {
        let t = self.inner.lock().unwrap();
        NodeSummary {
            addr: self.addr.clone(),
            state: t.state,
            completed: t.completed,
            failures: t.failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_failure_suspects_two_kill() {
        let t = NodeTracker::new("n:1", NodeState::Healthy);
        assert_eq!(t.record_failure(), NodeState::Suspect);
        assert!(t.state().serves(), "a suspect node keeps serving");
        assert_eq!(t.record_failure(), NodeState::Dead);
        assert!(!t.state().serves());
    }

    #[test]
    fn success_clears_suspicion() {
        let t = NodeTracker::new("n:1", NodeState::Healthy);
        t.record_failure();
        t.record_success();
        assert_eq!(t.state(), NodeState::Healthy);
        // The failure counter is cumulative (for the summary), but the
        // state machine reset: one new failure only suspects.
        assert_eq!(t.record_failure(), NodeState::Suspect);
    }

    #[test]
    fn probe_readmits_on_probation_where_one_failure_kills() {
        let t = NodeTracker::new("n:1", NodeState::Healthy);
        t.record_failure();
        t.record_failure();
        assert_eq!(t.state(), NodeState::Dead);
        t.record_probe_success();
        assert_eq!(t.state(), NodeState::Probation);
        assert!(t.state().serves(), "probation nodes serve");
        assert_eq!(
            t.record_failure(),
            NodeState::Dead,
            "no second chance on probation"
        );
        // Full recovery: probe, then a real success.
        t.record_probe_success();
        t.record_success();
        assert_eq!(t.state(), NodeState::Healthy);
    }

    #[test]
    fn probe_failures_count_consecutively_and_reset_on_success() {
        let t = NodeTracker::new("n:1", NodeState::Dead);
        assert_eq!(t.record_probe_failure(), 1);
        assert_eq!(t.record_probe_failure(), 2);
        t.record_probe_success();
        assert_eq!(t.record_probe_failure(), 1, "streak resets");
    }

    #[test]
    fn probe_success_does_not_promote_live_states() {
        let t = NodeTracker::new("n:1", NodeState::Healthy);
        t.record_failure(); // suspect
        t.record_probe_success();
        assert_eq!(
            t.state(),
            NodeState::Suspect,
            "probes only re-admit dead nodes; suspicion clears on real work"
        );
    }

    #[test]
    fn summary_reports_counts_and_final_state() {
        let t = NodeTracker::new("host:9", NodeState::Healthy);
        t.record_success();
        t.record_success();
        t.record_failure();
        let s = t.summary();
        assert_eq!(s.addr, "host:9");
        assert_eq!(s.completed, 2);
        assert_eq!(s.failures, 1);
        assert_eq!(s.state, NodeState::Suspect);
    }
}
