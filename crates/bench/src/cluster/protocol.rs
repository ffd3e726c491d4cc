//! The cluster wire protocol: typed requests, the version/compat
//! handshake, and the coordinator's error taxonomy (`btbx sweep
//! --server` is a one-node coordinator).
//!
//! Everything rides the existing JSON-over-HTTP service protocol from
//! [`crate::serve`] — this module adds the *client-side typing* that a
//! fleet needs:
//!
//! * [`HealthInfo`] — what `GET /healthz` reports since the handshake
//!   was added: service version, [`CACHE_VERSION`], shard configuration
//!   and the supported organizations. Coordinators refuse fleets whose
//!   nodes disagree on `cache_version` (their cache entries would be
//!   mutually unreadable) or `shards` (results are bit-identical either
//!   way since cache v3's warm-checkpoint engine, but a uniform fleet
//!   keeps throughput and telemetry comparable), instead of silently
//!   mixing them.
//! * [`RequestError`] — one HTTP request's failure, split into
//!   transport errors (retryable on another node), server errors
//!   (retryable), and client errors (a 4xx is deterministic: retrying
//!   the same point elsewhere cannot help).
//! * [`PointError`] — a [`RequestError`] pinned to the node address and
//!   sweep point that suffered it, so a failed distributed sweep ends
//!   with a precise list of what failed where — never a bare panic
//!   mid-sweep.

use crate::serve::{http_request_bytes, ServeStats};
use crate::store::StoreError;
use crate::sweep::{SimPoint, CACHE_VERSION};
use btbx_core::OrgKind;
use btbx_uarch::SimResult;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io;
use std::time::Duration;

/// What `GET /healthz` reports: liveness plus the compat handshake.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthInfo {
    /// Liveness (always `true` in a response; kept for probe scripts
    /// that only check this field).
    pub ok: bool,
    /// The serving binary's crate version.
    pub version: String,
    /// The node's [`CACHE_VERSION`]: results are only cache-compatible
    /// between equal versions.
    pub cache_version: u32,
    /// Interval shards per simulation on this node. Since cache v3's
    /// warm-checkpoint engine every shard count produces results
    /// byte-identical to the serial path.
    pub shards: usize,
    /// Organization ids this node can simulate.
    pub orgs: Vec<String>,
}

/// Build the [`HealthInfo`] a server should report for its own
/// configuration (also the coordinator's notion of "local").
pub fn health_info(shards: usize) -> HealthInfo {
    HealthInfo {
        ok: true,
        version: env!("CARGO_PKG_VERSION").to_string(),
        cache_version: CACHE_VERSION,
        shards,
        orgs: OrgKind::ALL.iter().map(|o| o.id().to_string()).collect(),
    }
}

/// One HTTP request's failure, typed by what it implies for retries.
#[derive(Debug)]
pub enum RequestError {
    /// Connect/read/write failure (refused, reset, timed out): the node
    /// may be dead or wedged; the point is retryable elsewhere.
    Io(io::Error),
    /// Non-2xx response. 5xx is retryable (the node failed); 4xx is a
    /// deterministic rejection of the request itself and is **not**
    /// retried (see [`RequestError::is_permanent`]).
    Status {
        /// HTTP status code.
        status: u16,
        /// Response body (usually `{"error": ...}`).
        body: String,
    },
    /// A 200 whose body did not parse as the expected type — protocol
    /// damage or a version skew the handshake should have caught.
    BadBody(String),
    /// No node was left alive to run the point (coordinator-synthesized
    /// when the whole fleet has died).
    FleetDown,
}

impl RequestError {
    /// Whether retrying the same request (on this or another node) is
    /// pointless: 4xx responses are deterministic rejections — except
    /// 429, which reports transient overload (the server *chose* to
    /// shed; the same request succeeds once load drains).
    pub fn is_permanent(&self) -> bool {
        matches!(self, RequestError::Status { status, .. }
            if (400..500).contains(status) && *status != 429)
    }

    /// Whether the node shed the request (`429`): it is alive but at its
    /// admission limit, and the same request succeeds once load drains.
    pub(crate) fn is_shed(&self) -> bool {
        matches!(self, RequestError::Status { status: 429, .. })
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Io(e) => write!(f, "transport: {e}"),
            RequestError::Status { status, body } => {
                let body = body.trim();
                let short = if body.len() > 200 { &body[..200] } else { body };
                write!(f, "HTTP {status}: {short}")
            }
            RequestError::BadBody(why) => write!(f, "unparseable response: {why}"),
            RequestError::FleetDown => f.write_str("every node is dead or retired"),
        }
    }
}

/// A [`RequestError`] pinned to the node and sweep point it happened on.
#[derive(Debug)]
pub struct PointError {
    /// Node address (`host:port`) the request went to.
    pub node: String,
    /// The point's cache entry name (its content-hashed identity).
    pub point: String,
    /// Human-readable point label (`workload:org@budget`).
    pub label: String,
    /// What went wrong.
    pub error: RequestError,
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "point {} ({}) on {}: {}",
            self.label, self.point, self.node, self.error
        )
    }
}

/// A distributed-sweep failure: handshake refusals, fleet-wide
/// problems, or the precise list of points that could not be completed.
#[derive(Debug)]
pub enum ClusterError {
    /// The node list was empty.
    NoNodes,
    /// No node passed the startup handshake.
    NoUsableNodes {
        /// Why each node was rejected.
        detail: String,
    },
    /// A node runs a different [`CACHE_VERSION`]: its results would be
    /// incompatible with this client's cache (and the rest of the
    /// fleet's), so the sweep is refused instead of silently mixing.
    CacheVersionMismatch {
        /// Node address.
        node: String,
        /// The node's cache version.
        found: u32,
        /// This client's cache version.
        expected: u32,
    },
    /// Nodes disagree on shards-per-simulation. Results are
    /// bit-identical at any shard count (warm-checkpoint mode), so this
    /// is configuration hygiene rather than a correctness boundary: a
    /// uniform fleet keeps node throughput and telemetry comparable.
    MixedShards {
        /// Node address.
        node: String,
        /// The node's shard count.
        found: usize,
        /// The fleet's (first healthy node's) shard count.
        expected: usize,
    },
    /// A node does not support organizations the sweep needs.
    MissingOrgs {
        /// Node address.
        node: String,
        /// The unsupported organization ids.
        missing: Vec<String>,
    },
    /// The sweep terminated, but these points failed everywhere they
    /// were tried.
    Points(Vec<PointError>),
    /// The coordinator's local result cache failed.
    Store(StoreError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoNodes => f.write_str("cluster has no nodes"),
            ClusterError::NoUsableNodes { detail } => {
                write!(f, "no usable nodes: {detail}")
            }
            ClusterError::CacheVersionMismatch {
                node,
                found,
                expected,
            } => write!(
                f,
                "node {node} runs cache version {found} but this client runs \
                 {expected}; a mixed fleet would produce incompatible cache \
                 entries (upgrade the node or the client)"
            ),
            ClusterError::MixedShards {
                node,
                found,
                expected,
            } => write!(
                f,
                "node {node} runs {found} shards/simulation but the fleet runs \
                 {expected}; keep the fleet uniformly configured (results \
                 would be identical, but throughput and telemetry would not \
                 be comparable)"
            ),
            ClusterError::MissingOrgs { node, missing } => write!(
                f,
                "node {node} does not support organization(s) {}",
                missing.join(", ")
            ),
            ClusterError::Points(errors) => {
                write!(f, "{} point(s) failed", errors.len())?;
                for e in errors.iter().take(3) {
                    write!(f, "; {e}")?;
                }
                if errors.len() > 3 {
                    write!(f, "; … and {} more", errors.len() - 3)?;
                }
                Ok(())
            }
            ClusterError::Store(e) => write!(f, "coordinator cache: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// One request to a node whose `200` reply is JSON, parsed as `T`;
/// `what` names the reply in parse errors.
fn request_json<T: Deserialize>(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
    what: &str,
) -> Result<T, RequestError> {
    let response = http_request_bytes(addr, method, path, body.as_bytes(), timeout)
        .map_err(RequestError::Io)?;
    let text = String::from_utf8(response.body).map_err(|_| {
        RequestError::Io(io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))
    })?;
    if response.status != 200 {
        return Err(RequestError::Status {
            status: response.status,
            body: text,
        });
    }
    serde_json::from_str(&text).map_err(|e| RequestError::BadBody(format!("{what}: {e}")))
}

/// Probe a node's `GET /healthz` and parse the handshake.
///
/// # Errors
///
/// [`RequestError::Io`] when unreachable (or timed out),
/// [`RequestError::BadBody`] when the node predates the handshake (its
/// `/healthz` carries no version fields) — both mean "not usable as a
/// fleet member".
pub fn probe_health(addr: &str, timeout: Duration) -> Result<HealthInfo, RequestError> {
    request_json(addr, "GET", "/healthz", "", timeout, "healthz handshake")
}

/// Probe a node's `GET /stats`.
///
/// # Errors
///
/// [`RequestError`] on transport, status or parse failures.
pub fn probe_stats(addr: &str, timeout: Duration) -> Result<ServeStats, RequestError> {
    request_json(addr, "GET", "/stats", "", timeout, "stats")
}

/// POST one [`SimPoint`] to a node's `/sim` and parse the result.
///
/// # Errors
///
/// [`RequestError`] on transport failures, non-200 statuses, or an
/// unparseable body.
pub fn post_point(
    addr: &str,
    point: &SimPoint,
    timeout: Duration,
) -> Result<SimResult, RequestError> {
    let body = serde_json::to_string(point).expect("points serialize");
    request_json(addr, "POST", "/sim", &body, timeout, "sim result")
}

/// Refuse a node whose [`CACHE_VERSION`] differs from this client's.
///
/// # Errors
///
/// [`ClusterError::CacheVersionMismatch`] on disagreement.
pub fn verify_cache_version(node: &str, info: &HealthInfo) -> Result<(), ClusterError> {
    if info.cache_version != CACHE_VERSION {
        return Err(ClusterError::CacheVersionMismatch {
            node: node.to_string(),
            found: info.cache_version,
            expected: CACHE_VERSION,
        });
    }
    Ok(())
}

/// Refuse a node that cannot simulate every organization in the sweep.
///
/// # Errors
///
/// [`ClusterError::MissingOrgs`] listing the unsupported ids.
pub fn verify_orgs(node: &str, info: &HealthInfo, orgs: &[OrgKind]) -> Result<(), ClusterError> {
    let missing: Vec<String> = orgs
        .iter()
        .map(|o| o.id().to_string())
        .filter(|id| !info.orgs.contains(id))
        .collect();
    if missing.is_empty() {
        Ok(())
    } else {
        Err(ClusterError::MissingOrgs {
            node: node.to_string(),
            missing,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_info_round_trips_and_reports_local_versions() {
        let info = health_info(4);
        assert!(info.ok);
        assert_eq!(info.cache_version, CACHE_VERSION);
        assert_eq!(info.shards, 4);
        assert!(info.orgs.iter().any(|o| o == "btbx"));
        let json = serde_json::to_string(&info).unwrap();
        assert_eq!(serde_json::from_str::<HealthInfo>(&json).unwrap(), info);
    }

    #[test]
    fn pre_handshake_healthz_bodies_are_refused() {
        // A PR-5-era server answers {"ok":true} with no version fields;
        // the fleet handshake must reject it, not assume compatibility.
        let err = serde_json::from_str::<HealthInfo>("{\"ok\":true}").unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn cache_version_mismatches_are_refused_with_both_versions() {
        let mut info = health_info(1);
        assert!(verify_cache_version("n1:1", &info).is_ok());
        info.cache_version = CACHE_VERSION + 1;
        let err = verify_cache_version("n1:1", &info).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("n1:1"), "{msg}");
        assert!(msg.contains(&format!("{}", CACHE_VERSION + 1)), "{msg}");
        assert!(msg.contains(&format!("{CACHE_VERSION}")), "{msg}");
    }

    #[test]
    fn missing_orgs_are_refused_by_name() {
        let mut info = health_info(1);
        info.orgs.retain(|o| o != "btbx");
        assert!(verify_orgs("n", &info, &[OrgKind::Conv]).is_ok());
        let err = verify_orgs("n", &info, &[OrgKind::Conv, OrgKind::BtbX]).unwrap_err();
        assert!(err.to_string().contains("btbx"), "{err}");
    }

    #[test]
    fn only_4xx_statuses_are_permanent() {
        let e = RequestError::Status {
            status: 400,
            body: String::new(),
        };
        assert!(e.is_permanent());
        let e = RequestError::Status {
            status: 500,
            body: String::new(),
        };
        assert!(!e.is_permanent());
        assert!(!RequestError::Io(io::Error::other("x")).is_permanent());
        assert!(!RequestError::FleetDown.is_permanent());
        // 429 is transient overload (the server shed the request), not a
        // deterministic rejection — it must stay retryable.
        let e = RequestError::Status {
            status: 429,
            body: String::new(),
        };
        assert!(!e.is_permanent());
    }
}
