//! The distributed sweep fabric: drive one [`crate::sweep::Sweep`]
//! matrix across a fleet of `btbx serve` nodes.
//!
//! The ROADMAP's north star is serving the paper's org×budget×workload
//! matrix at fleet scale; `btbx serve` is the single-node service. This
//! subsystem adds a *coordinator*: point the CLI at a node list (`btbx
//! sweep --cluster host1:port,host2:port`) and the whole matrix fans out
//! over the existing JSON-over-HTTP protocol with work stealing, health
//! tracking, and retry-on-node-loss. `btbx sweep --server ADDR` is the
//! same coordinator over a one-node fleet.
//!
//! Layering:
//!
//! * [`protocol`] — typed requests over the wire format, the
//!   version/compat handshake ([`HealthInfo`]), and the error taxonomy
//!   ([`RequestError`] / [`PointError`] / [`ClusterError`]).
//! * [`node`] — the per-node health state machine
//!   (healthy → suspect → dead → probation).
//! * [`scheduler`] — the fleet executor: a shared work queue over the
//!   cache misses of the front end it shares with the local sweep,
//!   per-node greedy workers, and retry with bounded backoff.
//! * [`LocalCluster`] — N in-process servers for tests and
//!   single-machine fan-out.
//!
//! See EXPERIMENTS.md, "The distributed sweep fabric", for the
//! operational story.

pub mod node;
pub mod protocol;
pub mod scheduler;

pub use node::{NodeState, NodeSummary, NodeTracker};
pub use protocol::{ClusterError, HealthInfo, PointError, RequestError};
pub use scheduler::{
    run_sweep, run_sweep_observed, sweep_via_cluster, ClusterConfig, ClusterEvent, ClusterReport,
    ClusterStats,
};

use crate::opts::{StoreUrl, DEFAULT_HTTP_TIMEOUT_MS};
use crate::serve::{ServeConfig, Server};
use crate::store::StoreError;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Parse a `--cluster` node list: comma-separated `host:port` entries,
/// each optionally prefixed with `http://`.
///
/// # Errors
///
/// A human-readable message naming the malformed entry.
pub fn parse_node_list(list: &str) -> Result<Vec<String>, String> {
    let mut nodes = Vec::new();
    for raw in list.split(',') {
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let node = raw
            .trim_start_matches("http://")
            .trim_end_matches('/')
            .to_string();
        let Some((host, port)) = node.rsplit_once(':') else {
            return Err(format!("node `{raw}` is not host:port"));
        };
        if host.is_empty() || port.parse::<u16>().is_err() {
            return Err(format!("node `{raw}` is not host:port"));
        }
        if nodes.contains(&node) {
            return Err(format!("node `{node}` is listed twice"));
        }
        nodes.push(node);
    }
    if nodes.is_empty() {
        return Err("empty node list".to_string());
    }
    Ok(nodes)
}

/// N in-process [`Server`]s on ephemeral ports: the test and
/// single-machine harness for the fabric. Each node gets its own cache
/// directory under `base` (`base/node{i}/cache`), like N separate
/// machines would.
pub struct LocalCluster {
    base: PathBuf,
    nodes: Vec<Option<Server>>,
    addrs: Vec<String>,
}

impl LocalCluster {
    /// Start `n` servers with `threads` workers each.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when a node's cache directory or socket is
    /// unusable (already-started nodes keep running; the caller drops
    /// the harness to stop them).
    pub fn start(
        n: usize,
        base: impl Into<PathBuf>,
        threads: usize,
    ) -> Result<LocalCluster, StoreError> {
        Self::start_with_store(n, base, threads, None)
    }

    /// [`start`](LocalCluster::start) with a store URL every node opens
    /// instead of its private `dir://` cache — how the fleet tests share
    /// one result/warm/trace cache (`--store http://...`) in-process.
    ///
    /// # Errors
    ///
    /// [`StoreError`] as for [`start`](LocalCluster::start), plus when
    /// the store URL itself is unusable.
    pub fn start_with_store(
        n: usize,
        base: impl Into<PathBuf>,
        threads: usize,
        store: Option<StoreUrl>,
    ) -> Result<LocalCluster, StoreError> {
        let base = base.into();
        let mut cluster = LocalCluster {
            base: base.clone(),
            nodes: Vec::with_capacity(n),
            addrs: Vec::with_capacity(n),
        };
        for i in 0..n {
            let server = Server::start(ServeConfig {
                port: 0,
                cache_dir: base.join(format!("node{i}")).join("cache"),
                threads,
                shards: 1,
                max_inflight: 0,
                deadline: None,
                store: store.clone(),
                http_timeout: Duration::from_millis(DEFAULT_HTTP_TIMEOUT_MS),
            })?;
            cluster.addrs.push(server.addr().to_string());
            cluster.nodes.push(Some(server));
        }
        Ok(cluster)
    }

    /// Every node's address, killed or not (the coordinator is expected
    /// to handle dead fleet members).
    pub fn addrs(&self) -> Vec<String> {
        self.addrs.clone()
    }

    /// One node's address.
    pub fn addr(&self, i: usize) -> &str {
        &self.addrs[i]
    }

    /// Number of nodes (killed ones included).
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the cluster has no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Kill node `i`: graceful shutdown + join, so its port is closed
    /// and further connections are refused — the "node lost mid-sweep"
    /// fault tests inject. Idempotent.
    pub fn kill(&mut self, i: usize) {
        if let Some(server) = self.nodes[i].take() {
            let _ = server.shutdown();
            server.join();
        }
    }

    /// Shut the whole fleet down and wait for every node to drain.
    pub fn shutdown(mut self) {
        for i in 0..self.nodes.len() {
            self.kill(i);
        }
    }

    /// The base directory nodes live under.
    pub fn base(&self) -> &Path {
        &self.base
    }
}

impl Drop for LocalCluster {
    fn drop(&mut self) {
        for i in 0..self.nodes.len() {
            self.kill(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_lists_parse_and_normalize() {
        assert_eq!(
            parse_node_list("a:1, http://b:2/ ,c:3").unwrap(),
            vec!["a:1", "b:2", "c:3"]
        );
        assert_eq!(parse_node_list("127.0.0.1:8080").unwrap().len(), 1);
    }

    #[test]
    fn bad_node_lists_are_refused_with_the_entry_named() {
        for (list, needle) in [
            ("", "empty"),
            (",,", "empty"),
            ("justahost", "justahost"),
            ("host:", "host:"),
            ("host:notaport", "notaport"),
            (":443", ":443"),
            ("a:1,a:1", "twice"),
        ] {
            let err = parse_node_list(list).unwrap_err();
            assert!(err.contains(needle), "{list:?} → {err}");
        }
    }
}
