//! The cluster coordinator: drives a whole [`Sweep`] matrix to
//! completion across a fleet of `btbx serve` nodes.
//!
//! # One front end, two executors
//!
//! A cluster sweep and a local [`Sweep::try_run`] share everything
//! around running points: one crate-private function in `sweep.rs`
//! expands the points and their cache entry names once, opens the
//! [`ResultStore`], probes the cache once per unique entry name, and
//! prints the `N/M cached` line. Same matrix, same cache entries,
//! whatever the transport: rerunning a crashed local sweep here
//! recomputes only what it did not finish, and vice versa. Only the
//! executors differ, on purpose: the local queue stops at the first
//! failure and shares one trace source per group, while this one
//! retries, backs off and collects failures.
//!
//! # Scheduling model
//!
//! The front end's cache misses form a shared queue of *unique* points —
//! duplicates arrive collapsed onto one work item keyed by the point's
//! content-hashed cache entry name, with every matrix index it answers.
//! Each node gets `ceil(threads / nodes)` worker loops (at least one),
//! so that many requests are in flight per node, and every worker
//! **pulls greedily**: a fast node simply comes back for more work
//! sooner, so load balancing (and work stealing from slow nodes) falls
//! out of the queue discipline with no explicit placement policy.
//!
//! # Failure semantics
//!
//! A failed request feeds the node's state machine
//! ([`super::node::NodeTracker`]) and requeues the point with bounded
//! exponential backoff, so work in flight on a dying node migrates to
//! the survivors. Dead nodes drop out of rotation and one of each dead
//! node's workers probes `/healthz` for probation re-admission
//! (re-verifying the compat handshake — a node restarted with a
//! different [`crate::sweep::CACHE_VERSION`] is not let back in); after
//! `probe_give_up` consecutive failed probes the node's workers retire.
//! Deterministic rejections (HTTP 4xx) fail the point immediately —
//! retrying a malformed point on every node cannot help. So does a
//! deadline abort (a 503 the node marks `X-Btbx-Abort: deadline`): the
//! point would outrun the same deadline anywhere, and the node that
//! aborted it stays in rotation. A shed request
//! (HTTP 429: the node is alive but at its `--max-inflight` limit) is
//! neither a node failure nor an attempt: the worker holding the point
//! re-sends it after `min(100 ms × sheds, 2 s)`, and the point fails
//! only after 60 sheds in a row. A sweep therefore always terminates:
//! with complete results, or with a precise [`PointError`] list of what
//! failed where.
//!
//! # Cache flow
//!
//! Completed results are published into the coordinator's local store
//! under the same entry names the serial CLI uses, so a cluster sweep
//! warms exactly the cache a later `btbx sweep` (or figure run) reads.

use super::node::{NodeState, NodeSummary, NodeTracker};
use super::protocol::{self, ClusterError, HealthInfo, PointError, RequestError};
use crate::opts::HarnessOpts;
use crate::store::ResultStore;
use crate::sweep::{Prepared, SimPoint, Sweep};
use btbx_uarch::SimResult;
use std::collections::HashSet;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Sheds (HTTP 429) in a row one request absorbs before its point is
/// reported failed. With the `min(100 ms × n, 2 s)` delay between
/// re-sends that outlasts about 100 s of sustained overload.
const MAX_SHEDS: u32 = 60;

/// Coordinator tuning; [`ClusterConfig::new`] picks defaults that suit
/// a local fleet, [`ClusterConfig::from_opts`] threads the CLI's
/// `--http-timeout-ms` through.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Fleet member addresses (`host:port`).
    pub nodes: Vec<String>,
    /// Per-request timeout for `/sim` POSTs (connect, read and write).
    pub http_timeout: Duration,
    /// Timeout for `/healthz` probes (short: probes must be cheap).
    pub probe_timeout: Duration,
    /// Delay between re-admission probes of a dead node.
    pub probe_interval: Duration,
    /// Consecutive failed probes after which a dead node's worker
    /// retires for the rest of the sweep.
    pub probe_give_up: u32,
    /// Attempts per point across the whole fleet before it is reported
    /// failed.
    pub max_attempts: usize,
    /// Base requeue backoff; doubles per attempt (capped).
    pub backoff: Duration,
}

impl ClusterConfig {
    /// Defaults for a fleet of `nodes`: every point may be tried on
    /// most of the fleet (`max(3, nodes + 2)` attempts) before failing.
    pub fn new(nodes: Vec<String>) -> Self {
        let max_attempts = (nodes.len() + 2).max(3);
        ClusterConfig {
            nodes,
            http_timeout: Duration::from_millis(crate::opts::DEFAULT_HTTP_TIMEOUT_MS),
            probe_timeout: Duration::from_secs(2),
            probe_interval: Duration::from_millis(500),
            probe_give_up: 4,
            max_attempts,
            backoff: Duration::from_millis(100),
        }
    }

    /// [`ClusterConfig::new`] with the request timeout taken from the
    /// shared harness options (`--http-timeout-ms`).
    pub fn from_opts(nodes: Vec<String>, opts: &HarnessOpts) -> Self {
        let mut config = Self::new(nodes);
        config.http_timeout = opts.http_timeout();
        config.probe_timeout = config.http_timeout.min(Duration::from_secs(2));
        config
    }
}

/// Counters describing how a cluster sweep went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Unique points in the matrix (duplicates collapsed).
    pub unique_points: usize,
    /// Points answered from the coordinator's local cache (never
    /// dispatched).
    pub local_hits: u64,
    /// Requests dispatched to nodes (completions + failures + retries).
    pub dispatched: u64,
    /// Points completed by the fleet.
    pub completed: u64,
    /// Requeues after a failed request (retry-on-node-loss).
    pub requeued: u64,
    /// Points that exhausted their attempts (or were rejected
    /// deterministically) and are listed in
    /// [`ClusterReport::failures`].
    pub failed: u64,
}

/// The outcome of [`run_sweep`]: per-point results in
/// [`Sweep::points`] order (`None` exactly for the listed failures),
/// the failure list, and per-node summaries.
#[derive(Debug)]
pub struct ClusterReport {
    /// One slot per sweep point, in [`Sweep::points`] order.
    pub results: Vec<Option<SimResult>>,
    /// Points that could not be completed anywhere.
    pub failures: Vec<PointError>,
    /// Final per-node states and counts.
    pub nodes: Vec<NodeSummary>,
    /// Run counters.
    pub stats: ClusterStats,
}

impl ClusterReport {
    /// Unwrap into a complete result vector.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Points`] carrying the failure list when any
    /// point did not complete.
    pub fn into_results(self) -> Result<Vec<SimResult>, ClusterError> {
        if !self.failures.is_empty() {
            return Err(ClusterError::Points(self.failures));
        }
        Ok(self
            .results
            .into_iter()
            .map(|r| r.expect("no failures implies a complete result set"))
            .collect())
    }
}

/// Progress callbacks from a running cluster sweep (tests use these to
/// inject faults at deterministic moments; the CLI ignores them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterEvent {
    /// A node completed a point.
    PointDone {
        /// Node address.
        node: String,
        /// Cache entry name.
        key: String,
    },
    /// A failed request requeued its point for another attempt.
    Requeued {
        /// Node address that failed the request.
        node: String,
        /// Cache entry name.
        key: String,
        /// Attempts consumed so far.
        attempts: usize,
    },
    /// A point failed permanently.
    PointFailed {
        /// Node address of the final failure.
        node: String,
        /// Cache entry name.
        key: String,
    },
    /// A node transitioned to [`NodeState::Dead`].
    NodeDied {
        /// Node address.
        node: String,
    },
    /// A dead node passed a probe and re-entered rotation.
    NodeReadmitted {
        /// Node address.
        node: String,
    },
}

/// One unit of fleet work: a unique point plus every matrix index it
/// answers.
struct WorkItem {
    key: String,
    label: String,
    point: SimPoint,
    indices: Vec<usize>,
    attempts: usize,
    not_before: Instant,
}

struct QueueState {
    pending: Vec<WorkItem>,
    in_flight: usize,
    live_workers: usize,
    to_compute: usize,
    results: Vec<Option<SimResult>>,
    failures: Vec<PointError>,
    stats: ClusterStats,
    fatal: Option<ClusterError>,
}

impl QueueState {
    fn finished(&self) -> bool {
        (self.pending.is_empty() && self.in_flight == 0) || self.fatal.is_some()
    }
}

struct Queue {
    name: String,
    state: Mutex<QueueState>,
    cv: Condvar,
}

impl Queue {
    /// Pull the next ready work item; blocks while items back off.
    /// `None` means the sweep is finished (drained, failed out, or
    /// fatally errored).
    fn pull(&self) -> Option<WorkItem> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.finished() {
                return None;
            }
            let now = Instant::now();
            if let Some(at) = st.pending.iter().position(|w| w.not_before <= now) {
                let item = st.pending.remove(at);
                st.in_flight += 1;
                st.stats.dispatched += 1;
                return Some(item);
            }
            // Nothing ready: sleep until the earliest backoff expires
            // (bounded, so completions and requeues re-wake us too).
            let wait = st
                .pending
                .iter()
                .map(|w| w.not_before.saturating_duration_since(now))
                .min()
                .unwrap_or(Duration::from_millis(50))
                .clamp(Duration::from_millis(1), Duration::from_millis(50));
            st = self.cv.wait_timeout(st, wait).unwrap().0;
        }
    }

    /// Publish a completed item: write-through to the local store and
    /// fill every matrix slot it answers.
    fn complete(&self, item: WorkItem, result: SimResult, store: &ResultStore) {
        let stored = store.store(&item.key, &result);
        let mut st = self.state.lock().unwrap();
        st.in_flight -= 1;
        if let Err(e) = stored {
            // A coordinator that cannot persist results is broken;
            // stop the fleet instead of computing into the void.
            if st.fatal.is_none() {
                st.fatal = Some(ClusterError::Store(e));
            }
        } else {
            for &i in &item.indices {
                st.results[i] = Some(result.clone());
            }
            st.stats.completed += 1;
            let done = st.stats.completed as usize;
            if done.is_multiple_of(10) || done == st.to_compute {
                eprintln!("[{}] {done}/{}", self.name, st.to_compute);
            }
        }
        self.cv.notify_all();
    }

    /// Settle a failed request: requeue with backoff, or convert to a
    /// permanent [`PointError`] when attempts are exhausted (or the
    /// rejection was deterministic, or the point's sheds ran out).
    /// Returns the requeue decision.
    fn settle_failure(
        &self,
        mut item: WorkItem,
        node: &str,
        error: RequestError,
        config: &ClusterConfig,
    ) -> Option<usize> {
        item.attempts += 1;
        // A 429 gets here only after `post_riding_sheds` gave up on it.
        let permanent =
            error.is_permanent() || error.is_shed() || item.attempts >= config.max_attempts;
        let mut st = self.state.lock().unwrap();
        st.in_flight -= 1;
        let outcome = if permanent {
            st.stats.failed += 1;
            st.failures.push(PointError {
                node: node.to_string(),
                point: item.key,
                label: item.label,
                error,
            });
            None
        } else {
            let attempts = item.attempts;
            let shift = (attempts - 1).min(6) as u32;
            // saturating: a user-configured base backoff near the
            // Duration ceiling must slow down, not panic on overflow.
            item.not_before = Instant::now() + config.backoff.saturating_mul(1u32 << shift);
            st.stats.requeued += 1;
            st.pending.push(item);
            Some(attempts)
        };
        self.cv.notify_all();
        outcome
    }

    /// A worker is leaving (sweep done, or its node retired). The last
    /// worker out with work still pending fails that work: no node is
    /// left to run it.
    fn retire_worker(&self, node: &str) {
        let mut st = self.state.lock().unwrap();
        st.live_workers -= 1;
        if st.live_workers == 0 {
            for item in std::mem::take(&mut st.pending) {
                st.stats.failed += 1;
                st.failures.push(PointError {
                    node: node.to_string(),
                    point: item.key,
                    label: item.label,
                    error: RequestError::FleetDown,
                });
            }
        }
        self.cv.notify_all();
    }

    /// Sleep up to `d`, returning early (true) when the sweep finishes.
    fn wait_finished(&self, d: Duration) -> bool {
        let st = self.state.lock().unwrap();
        if st.finished() {
            return true;
        }
        let (st, _) = self.cv.wait_timeout(st, d).unwrap();
        st.finished()
    }
}

/// Run a sweep across the fleet. See the module docs for semantics.
///
/// # Errors
///
/// [`ClusterError`] when the fleet fails the startup handshake or the
/// coordinator's local cache is unusable. Per-point failures do **not**
/// error here — they come back in [`ClusterReport::failures`] so
/// partial results stay usable.
pub fn run_sweep(
    sweep: &Sweep,
    opts: &HarnessOpts,
    config: &ClusterConfig,
) -> Result<ClusterReport, ClusterError> {
    run_sweep_observed(sweep, opts, config, &|_| {})
}

/// [`run_sweep`] with a progress observer (called from worker threads;
/// must be cheap and must not block on the coordinator itself).
pub fn run_sweep_observed(
    sweep: &Sweep,
    opts: &HarnessOpts,
    config: &ClusterConfig,
    observer: &(dyn Fn(ClusterEvent) + Sync),
) -> Result<ClusterReport, ClusterError> {
    if config.nodes.is_empty() {
        return Err(ClusterError::NoNodes);
    }

    // Startup handshake: every reachable node must match this client's
    // CACHE_VERSION and support the sweep's orgs.
    // Unreachable nodes start dead (probation may re-admit them later);
    // at least one node must be usable now.
    let mut fleet: Option<HealthInfo> = None;
    let mut trackers: Vec<NodeTracker> = Vec::with_capacity(config.nodes.len());
    let mut rejections: Vec<String> = Vec::new();
    for node in &config.nodes {
        match protocol::probe_health(node, config.probe_timeout) {
            Ok(info) => {
                protocol::verify_cache_version(node, &info)?;
                protocol::verify_orgs(node, &info, &sweep.orgs)?;
                fleet.get_or_insert(info);
                trackers.push(NodeTracker::new(node.clone(), NodeState::Healthy));
            }
            Err(error) => {
                eprintln!("[cluster] {node} failed the startup probe ({error}); starting it dead");
                rejections.push(format!("{node}: {error}"));
                trackers.push(NodeTracker::new(node.clone(), NodeState::Dead));
            }
        }
    }
    let Some(fleet) = fleet else {
        return Err(ClusterError::NoUsableNodes {
            detail: rejections.join("; "),
        });
    };

    // The front end every transport shares; `--store` points it at the
    // cache the fleet shares.
    let Prepared {
        store,
        points,
        names,
        results,
        misses,
        hits,
    } = sweep.prepare(opts).map_err(ClusterError::Store)?;
    let stats = ClusterStats {
        unique_points: hits + misses.len(),
        local_hits: hits as u64,
        ..ClusterStats::default()
    };
    let now = Instant::now();
    let pending: Vec<WorkItem> = misses
        .into_iter()
        .map(|indices| {
            let point = points[indices[0]].clone();
            WorkItem {
                key: names[indices[0]].clone(),
                label: point.label(),
                point,
                indices,
                attempts: 0,
                not_before: now,
            }
        })
        .collect();

    // With a shared store, seed it with every trace container the
    // pending work references: nodes without a local copy (or whose
    // dispatched path does not resolve on their filesystem) then fetch
    // the container by content hash instead of failing the point.
    if opts.store.is_some() {
        publish_pending_traces(&sweep.name, &store, &pending);
    }

    let to_compute = pending.len();
    let per_node = opts.threads.div_ceil(trackers.len()).max(1);
    let queue = Queue {
        name: format!("{}@cluster", sweep.name),
        state: Mutex::new(QueueState {
            pending,
            in_flight: 0,
            live_workers: trackers.len() * per_node,
            to_compute,
            results,
            failures: Vec::new(),
            stats,
            fatal: None,
        }),
        cv: Condvar::new(),
    };

    std::thread::scope(|scope| {
        for tracker in &trackers {
            for lane in 0..per_node {
                let queue = &queue;
                let store = &store;
                let fleet = &fleet;
                scope.spawn(move || {
                    let prober = lane == 0;
                    node_worker(queue, tracker, prober, config, store, fleet, observer);
                });
            }
        }
    });

    let st = queue.state.into_inner().unwrap();
    if let Some(fatal) = st.fatal {
        return Err(fatal);
    }
    let nodes: Vec<NodeSummary> = trackers.iter().map(NodeTracker::summary).collect();
    for n in &nodes {
        eprintln!(
            "[{}@cluster] {}: {} ({} completed, {} failures)",
            sweep.name, n.addr, n.state, n.completed, n.failures
        );
    }
    Ok(ClusterReport {
        results: st.results,
        failures: st.failures,
        nodes,
        stats: st.stats,
    })
}

/// Best-effort upload of every distinct trace container referenced by
/// `pending` into the shared store (skipping blobs already present, so
/// repeat sweeps cost one `has` probe per container). Failures warn and
/// continue: nodes holding a local copy of the trace still serve, and a
/// genuinely unresolvable container surfaces as that point's error.
fn publish_pending_traces(name: &str, store: &ResultStore, pending: &[WorkItem]) {
    let backend = store.backend();
    let mut seen = HashSet::new();
    for item in pending {
        let Some(tref) = &item.point.workload.trace else {
            continue;
        };
        if tref.is_store_only() || !seen.insert(tref.content_hash) {
            continue;
        }
        let key = tref.blob_key();
        match backend.has(&key) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("[{name}] probing shared store for {key}: {e}");
                continue;
            }
        }
        let bytes = match std::fs::read(&tref.path) {
            Ok(bytes) => bytes,
            Err(e) => {
                eprintln!(
                    "[{name}] trace {} unreadable here ({e}); relying on nodes' local copies",
                    tref.path.display()
                );
                continue;
            }
        };
        match backend.put(&key, &bytes) {
            Ok(()) => eprintln!(
                "[{name}] published trace {key} ({} bytes) to the shared store",
                bytes.len()
            ),
            Err(e) => eprintln!("[{name}] publishing trace {key}: {e}"),
        }
    }
}

/// One of a node's worker loops: pull greedily while the node serves.
/// While it is dead, the node's `prober` worker probes for re-admission
/// and the others wait for the verdict; all of them retire once the
/// probes pass the give-up bound.
fn node_worker(
    queue: &Queue,
    tracker: &NodeTracker,
    prober: bool,
    config: &ClusterConfig,
    store: &ResultStore,
    fleet: &HealthInfo,
    observer: &(dyn Fn(ClusterEvent) + Sync),
) {
    let addr = tracker.addr();
    loop {
        if !tracker.state().serves() {
            // Out of rotation: probe for probation re-admission.
            if queue.wait_finished(config.probe_interval) {
                break;
            }
            if !prober {
                if tracker.probe_failures() >= config.probe_give_up {
                    break;
                }
                continue;
            }
            match protocol::probe_health(addr, config.probe_timeout) {
                Ok(info) if info.cache_version == fleet.cache_version => {
                    tracker.record_probe_success();
                    eprintln!("[cluster] {addr} re-admitted on probation");
                    observer(ClusterEvent::NodeReadmitted {
                        node: addr.to_string(),
                    });
                }
                Ok(info) => {
                    // Alive but incompatible (e.g. restarted on another
                    // version): never re-admit, it would poison the
                    // result set. Treated as a failed probe.
                    eprintln!(
                        "[cluster] {addr} is alive but incompatible \
                         (cache v{}, fleet v{}); not re-admitting",
                        info.cache_version, fleet.cache_version
                    );
                    if tracker.record_probe_failure() >= config.probe_give_up {
                        break;
                    }
                }
                Err(_) => {
                    if tracker.record_probe_failure() >= config.probe_give_up {
                        eprintln!(
                            "[cluster] {addr} failed {} probes; retiring it for this sweep",
                            config.probe_give_up
                        );
                        break;
                    }
                }
            }
            continue;
        }
        let Some(item) = queue.pull() else { break };
        match post_riding_sheds(addr, &item.point, config.http_timeout) {
            Ok(result) => {
                tracker.record_success();
                let key = item.key.clone();
                queue.complete(item, result, store);
                observer(ClusterEvent::PointDone {
                    node: addr.to_string(),
                    key,
                });
            }
            Err(error) => {
                // Even sheds that ran out say the node is alive, and so
                // does a deadline abort.
                if !error.node_is_alive() {
                    let state = tracker.record_failure();
                    eprintln!("[cluster] {addr} failed `{}`: {error}", item.label);
                    if state == NodeState::Dead {
                        observer(ClusterEvent::NodeDied {
                            node: addr.to_string(),
                        });
                    }
                }
                let key = item.key.clone();
                match queue.settle_failure(item, addr, error, config) {
                    Some(attempts) => observer(ClusterEvent::Requeued {
                        node: addr.to_string(),
                        key,
                        attempts,
                    }),
                    None => observer(ClusterEvent::PointFailed {
                        node: addr.to_string(),
                        key,
                    }),
                }
            }
        }
    }
    queue.retire_worker(addr);
}

/// POST `point` to `addr`, re-sending it after `min(100 ms × n, 2 s)`
/// while the node sheds it (HTTP 429: alive, but at its `--max-inflight`
/// limit), up to [`MAX_SHEDS`] times in a row.
fn post_riding_sheds(
    addr: &str,
    point: &SimPoint,
    timeout: Duration,
) -> Result<SimResult, RequestError> {
    let mut sheds = 0;
    loop {
        match protocol::post_point(addr, point, timeout) {
            Err(error) if error.is_shed() && sheds < MAX_SHEDS => {
                sheds += 1;
                let delay = Duration::from_millis(100 * u64::from(sheds));
                std::thread::sleep(delay.min(Duration::from_secs(2)));
            }
            other => return other,
        }
    }
}

/// Run a sweep across the fleet and insist on completeness: the
/// [`Sweep::run`]-shaped entry point behind `btbx sweep --cluster`.
///
/// # Errors
///
/// Everything [`run_sweep`] returns, plus [`ClusterError::Points`] when
/// any point failed everywhere it was tried.
pub fn sweep_via_cluster(
    sweep: &Sweep,
    opts: &HarnessOpts,
    config: &ClusterConfig,
) -> Result<Vec<SimResult>, ClusterError> {
    run_sweep(sweep, opts, config)?.into_results()
}
