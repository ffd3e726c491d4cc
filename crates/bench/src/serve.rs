//! `btbx serve` — a long-lived JSON-over-HTTP simulation service.
//!
//! The streaming simulator makes a single simulation fast enough to sit
//! behind a request path; this module puts it there. The server is
//! hand-rolled over [`std::net::TcpListener`] — no async runtime, no
//! HTTP dependency — with connections handled on the long-lived
//! [`btbx_uarch::runner::ServicePool`] and every result flowing through
//! the same durable [`ResultStore`] as `btbx sweep`:
//!
//! * **Deduplication.** N concurrent requests for one [`SimPoint`]
//!   (keyed by [`SimPoint::cache_key`]) run ONE simulation; the others
//!   join the in-flight computation and get the identical result. A
//!   sweep sharing the cache directory joins the same flights.
//! * **Durability.** Results are written atomically (temp file + rename)
//!   so a killed server never leaves an entry that a later reader parses
//!   as valid; damaged entries are quarantined, not served.
//! * **Serial points.** A computed point runs serially on the worker
//!   that admitted it, so `--threads N` serves up to `N` requests at
//!   once. No warm state outlives the request: a repeat is answered from
//!   the durable store, not re-simulated.
//!
//! # Protocol
//!
//! | Endpoint         | Body / response                                   |
//! |------------------|---------------------------------------------------|
//! | `POST /sim`      | [`SimPoint`] JSON → [`SimResult`] JSON            |
//! | `GET /healthz`   | [`crate::cluster::HealthInfo`] JSON: liveness +   |
//! |                  | the fleet compat handshake (version, cache        |
//! |                  | version, orgs)                                    |
//! | `GET /stats`     | [`ServeStats`] JSON (request + cache counters)    |
//! | `POST /shutdown` | `{"ok":true}`, then graceful drain and exit       |
//! | `GET /blob/<key>`  | Raw blob bytes from this node's cache (404 on   |
//! |                  | a miss); `HEAD` probes without fetching           |
//! | `PUT /blob/<key>`  | Atomically publish a blob into this node's      |
//! |                  | cache (`201`) — how a fleet shares one store      |
//!
//! `/sim` responses carry an `X-Btbx-Cache` header (`disk`, `computed`
//! or `joined`) reporting how the result was obtained. Errors are JSON
//! `{"error": "..."}` with 400 (malformed request) or 500 (failed
//! simulation) status. See EXPERIMENTS.md, "The simulation service".
//!
//! # Overload protection
//!
//! Two knobs keep a saturated server degrading gracefully instead of
//! queueing without bound or resetting connections:
//!
//! * `--max-inflight N` bounds concurrently admitted `/sim` requests;
//!   excess requests are *shed* with `429 Too Many Requests` plus a
//!   `Retry-After` header — a fast, well-formed answer, never a reset.
//!   Admitted requests always run to completion.
//! * `--deadline-ms D` arms a per-request wall-clock deadline: a
//!   simulation still running when it expires is cooperatively aborted
//!   (the driving loop polls an abort flag) and the request answered
//!   with `503 Service Unavailable` and an `X-Btbx-Abort: deadline`
//!   header — again on the open connection. The header tells a
//!   coordinator the abort is deterministic: the node is healthy, and
//!   the same point would run into the same deadline anywhere.
//!
//! Both surface in `GET /stats` as [`ServeStats::shed`] and
//! [`ServeStats::deadline_aborts`]. Every other failed `/sim` (a trace
//! that does not open or resolve, a cache failure) is a `500` carrying
//! the [`RunError`] text.

use crate::cluster::protocol;
use crate::opts::{sane_timeout, HarnessOpts, StoreUrl};
use crate::store::{atomic_publish, Fetch, ResultStore, Store, StoreCounters, StoreError};
use crate::sweep::{RunError, RunOpts, SimPoint};
use btbx_core::faults;
use btbx_trace::container;
use btbx_uarch::runner::ServicePool;
use btbx_uarch::{SessionError, SimResult};
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// Largest accepted request body; a [`SimPoint`] is well under this.
const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest accepted `/blob/` body: trace containers are the biggest
/// blobs a fleet shares, and 256 MiB covers any container this harness
/// produces while still bounding a hostile request.
const MAX_BLOB_BYTES: usize = 1 << 28;

/// Socket read timeout: a stalled or idle client must not pin a worker.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Configuration for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Port to bind on 127.0.0.1 (`0` = ephemeral, read it back from
    /// [`Server::addr`]).
    pub port: u16,
    /// Cache directory (the sweep convention is `<out>/cache`).
    pub cache_dir: PathBuf,
    /// Worker threads: requests handled at once.
    pub threads: usize,
    /// Read nowhere: every point runs serially. Kept only so struct
    /// literals that set it still compile.
    pub shards: usize,
    /// Maximum concurrently admitted `/sim` requests; `0` = unlimited.
    /// At the limit, excess requests are shed with `429` + `Retry-After`
    /// instead of queueing without bound (see the module docs).
    pub max_inflight: usize,
    /// Per-request wall-clock deadline for `/sim`: a simulation still
    /// running when it expires is aborted and answered with `503` on the
    /// open connection. `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Store backend for cache blobs (results, trace fetches). `None`
    /// keeps the default `dir://` store over `cache_dir`; an `http://`
    /// URL makes this node read/write a fleet-shared cache and fetch
    /// missing trace containers by content hash.
    pub store: Option<StoreUrl>,
    /// Timeout for this node's *outbound* store traffic (blob fetches
    /// and publishes when `store` is remote).
    pub http_timeout: Duration,
}

impl ServeConfig {
    /// Derive the server configuration from shared harness options
    /// (overload protection off by default; `btbx serve` maps
    /// `--max-inflight`/`--deadline-ms` onto the extra fields).
    pub fn from_opts(port: u16, opts: &HarnessOpts) -> Self {
        ServeConfig {
            port,
            cache_dir: opts.out_dir.join("cache"),
            threads: opts.threads,
            shards: 1,
            max_inflight: 0,
            deadline: None,
            store: opts.store.clone(),
            http_timeout: opts.http_timeout(),
        }
    }
}

/// Counters reported by `GET /stats` (`Deserialize` so cluster
/// clients can read them back, e.g. `btbx cluster status`).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ServeStats {
    /// HTTP requests accepted (all endpoints).
    pub requests: u64,
    /// Requests answered with a 4xx/5xx status.
    pub errors: u64,
    /// `/sim` requests shed with `429` because the in-flight admission
    /// limit was reached (`errors` includes these).
    #[serde(default)]
    pub shed: u64,
    /// `/sim` requests aborted by the per-request deadline (`503`;
    /// `errors` includes these too).
    #[serde(default)]
    pub deadline_aborts: u64,
    /// Simulations served: disk hits + single-flight joins + computes.
    pub store: StoreCounters,
}

struct ServerState {
    store: ResultStore,
    /// This node's local cache directory: blob endpoints publish into
    /// it and fetched trace containers spool under `<cache_dir>/trace`.
    cache_dir: PathBuf,
    /// The backend behind [`ServerState::store`] when `--store` was
    /// given — also used to fetch trace containers by content hash.
    /// `None` means traces must exist locally (today's behavior).
    blob_backend: Option<Arc<dyn Store>>,
    max_inflight: usize,
    deadline: Option<Duration>,
    /// Live `/sim` deadline registrations, polled by the watch thread.
    /// Weak: a finished request drops its flag and the entry self-prunes.
    deadlines: Mutex<Vec<(Instant, Weak<AtomicBool>)>>,
    shutdown: AtomicBool,
    requests: AtomicU64,
    errors: AtomicU64,
    inflight: AtomicU64,
    shed: AtomicU64,
    deadline_aborts: AtomicU64,
}

/// RAII admission token: holds one in-flight slot for the duration of a
/// `/sim` request, released on every exit path (panics included).
struct InflightPermit<'a> {
    state: &'a ServerState,
}

impl Drop for InflightPermit<'_> {
    fn drop(&mut self) {
        self.state.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

impl ServerState {
    fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_aborts: self.deadline_aborts.load(Ordering::Relaxed),
            store: self.store.counters(),
        }
    }

    /// Try to take one `/sim` admission slot; `None` means the server is
    /// at `max_inflight` and the request must be shed.
    fn admit(&self) -> Option<InflightPermit<'_>> {
        let limit = self.max_inflight as u64;
        let mut current = self.inflight.load(Ordering::Relaxed);
        loop {
            if limit != 0 && current >= limit {
                return None;
            }
            match self.inflight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(InflightPermit { state: self }),
                Err(actual) => current = actual,
            }
        }
    }

    /// Arm a deadline for one request: the watch thread flips the
    /// returned flag once [`ServerState::deadline`] elapses; the
    /// simulation's driving loop polls it and stops, and the run fails
    /// with [`SessionError::Aborted`]. `None` when no deadline is
    /// configured.
    fn arm_deadline(&self) -> Option<Arc<AtomicBool>> {
        let deadline = self.deadline?;
        let flag = Arc::new(AtomicBool::new(false));
        self.deadlines
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push((Instant::now() + deadline, Arc::downgrade(&flag)));
        Some(flag)
    }
}

/// The deadline watch loop: every tick, flip the abort flag of each
/// expired registration and prune entries whose request already
/// finished. Polling keeps the mechanism to one thread for any request
/// volume; 25 ms of slack is noise against simulation runtimes.
fn deadline_watch(state: &ServerState) {
    const TICK: Duration = Duration::from_millis(25);
    while !state.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(TICK);
        let now = Instant::now();
        let mut entries = state.deadlines.lock().unwrap_or_else(|p| p.into_inner());
        entries.retain(|(due, flag)| match flag.upgrade() {
            None => false,
            Some(flag) => {
                if now >= *due {
                    flag.store(true, Ordering::Relaxed);
                    false
                } else {
                    true
                }
            }
        });
    }
}

/// A running `btbx serve` instance. Dropping the handle does **not**
/// stop the server; send `POST /shutdown` (or use
/// [`Server::shutdown`]) and then [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    accept: std::thread::JoinHandle<()>,
}

impl Server {
    /// Bind, spawn the accept loop and request workers, and return once
    /// the socket is listening (so [`Server::addr`] is immediately
    /// valid, including for `port: 0`).
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the cache directory is unusable or the
    /// socket cannot be bound.
    pub fn start(config: ServeConfig) -> Result<Server, StoreError> {
        // One backend serves both consumers (results and trace fetches);
        // the default and `dir://` paths keep the process-wide
        // per-directory flight sharing that `ResultStore::open` provides.
        let (store, blob_backend) = match &config.store {
            None => (ResultStore::open(&config.cache_dir)?, None),
            Some(url) => {
                let store = ResultStore::open_url(url, config.http_timeout)?;
                let backend = Arc::clone(store.backend());
                (store, Some(backend))
            }
        };
        let listener =
            TcpListener::bind(("127.0.0.1", config.port)).map_err(|source| StoreError::Io {
                action: "binding service socket",
                path: PathBuf::from(format!("127.0.0.1:{}", config.port)),
                source: Arc::new(source),
            })?;
        let addr = listener.local_addr().map_err(|source| StoreError::Io {
            action: "resolving bound address",
            path: PathBuf::from("127.0.0.1"),
            source: Arc::new(source),
        })?;
        let state = Arc::new(ServerState {
            store,
            cache_dir: config.cache_dir.clone(),
            blob_backend,
            max_inflight: config.max_inflight,
            deadline: config.deadline,
            deadlines: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_aborts: AtomicU64::new(0),
        });
        if state.deadline.is_some() {
            let watch = Arc::clone(&state);
            std::thread::spawn(move || deadline_watch(&watch));
        }
        let accept = std::thread::spawn(move || {
            let pool = ServicePool::new("serve", config.threads.max(1));
            for (i, stream) in listener.incoming().enumerate() {
                let Ok(stream) = stream else { continue };
                // Submit before checking the flag: a request racing the
                // shutdown (or the waker itself, which sends nothing and
                // parses as an empty probe) is drained, not reset.
                let worker_state = Arc::clone(&state);
                let self_addr = addr;
                pool.submit(format!("conn-{i}"), move || {
                    handle_connection(&worker_state, stream, self_addr);
                });
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            // Graceful drain: in-flight and queued requests finish
            // before the workers exit.
            pool.shutdown();
            eprintln!("[serve] drained; bye");
        });
        Ok(Server { addr, accept })
    }

    /// The bound address (resolves `port: 0` to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request a graceful shutdown over the wire, without waiting for
    /// the drain to finish (follow with [`Server::join`]).
    ///
    /// # Errors
    ///
    /// [`io::Error`] when the server is unreachable.
    pub fn shutdown(&self) -> io::Result<()> {
        http_request(&self.addr.to_string(), "POST", "/shutdown", "").map(|_| ())
    }

    /// Wait for the accept loop (i.e. the server) to exit.
    pub fn join(self) {
        let _ = self.accept.join();
    }
}

/// Read and answer one HTTP request, then close the connection.
fn handle_connection(state: &ServerState, stream: TcpStream, self_addr: SocketAddr) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut reader = BufReader::new(stream);
    let request = match read_request(&mut reader) {
        Ok(Some(request)) => request,
        // Empty connection: either a probe or the shutdown waker.
        Ok(None) => return,
        Err(e) => {
            // A malformed request still counts as a request, so
            // `errors <= requests` holds for /stats consumers.
            state.requests.fetch_add(1, Ordering::Relaxed);
            state.errors.fetch_add(1, Ordering::Relaxed);
            let mut stream = reader.into_inner();
            let _ = respond_json(&mut stream, 400, &error_body(&e.to_string()), None);
            return;
        }
    };
    state.requests.fetch_add(1, Ordering::Relaxed);
    let mut stream = reader.into_inner();
    if let Err((status, message, header)) = route(state, &request, &mut stream, self_addr) {
        state.errors.fetch_add(1, Ordering::Relaxed);
        let _ = respond_json(&mut stream, status, &error_body(&message), header);
    }
}

/// A refused request: status, error message and an optional extra
/// header, answered on the open connection as `{"error": message}`.
type Refusal = (u16, String, Option<(&'static str, &'static str)>);

/// The JSON body of an error response.
fn error_body(message: &str) -> String {
    format!("{{\"error\":{message:?}}}")
}

/// Route one parsed request; a [`Refusal`] is answered (and counted in
/// `errors`) by the caller.
fn route(
    state: &ServerState,
    request: &HttpRequest,
    stream: &mut TcpStream,
    self_addr: SocketAddr,
) -> Result<(), Refusal> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            // Liveness plus the fleet compat handshake: version,
            // CACHE_VERSION, supported orgs.
            let info = protocol::health_info();
            let body = serde_json::to_string(&info).expect("health info serializes");
            let _ = respond_json(stream, 200, &body, None);
            Ok(())
        }
        ("GET", "/stats") => {
            let body = serde_json::to_string(&state.stats()).expect("stats serialize");
            let _ = respond_json(stream, 200, &body, None);
            Ok(())
        }
        ("POST", "/shutdown") => {
            let _ = respond_json(stream, 200, "{\"ok\":true}", None);
            if !state.shutdown.swap(true, Ordering::SeqCst) {
                eprintln!("[serve] shutdown requested; draining");
                // Wake the accept loop so it observes the flag.
                let _ = TcpStream::connect(self_addr);
            }
            Ok(())
        }
        ("POST", "/sim") => {
            let Some(_permit) = state.admit() else {
                // Load shedding: a fast, well-formed 429 with a retry
                // hint — never an unbounded queue, never a reset. Shed
                // before parsing the body; an overloaded server should
                // spend nothing on work it will not run.
                state.shed.fetch_add(1, Ordering::Relaxed);
                let message = "overloaded: in-flight simulation limit reached".to_string();
                return Err((429, message, Some(("Retry-After", "1"))));
            };
            let point: SimPoint = serde_json::from_slice(&request.body)
                .map_err(|e| (400, format!("bad SimPoint: {e}"), None))?;
            let (result, fetch) = simulate(state, &point).map_err(|e| match e {
                // A deadline abort (joiners of the aborted flight land
                // here too): the request exceeded its budget and the
                // server is healthy. The header marks it deterministic.
                RunError::Session {
                    error: SessionError::Aborted,
                    ..
                } => {
                    state.deadline_aborts.fetch_add(1, Ordering::Relaxed);
                    let message = format!("deadline exceeded: {e}");
                    (503, message, Some(protocol::DEADLINE_ABORT))
                }
                e => (500, e.to_string(), None),
            })?;
            let body = serde_json::to_string(&result).expect("results serialize");
            let cache_header = match fetch {
                Fetch::Disk => "disk",
                Fetch::Computed => "computed",
                Fetch::Joined => "joined",
            };
            let _ = respond_json(stream, 200, &body, Some(("X-Btbx-Cache", cache_header)));
            Ok(())
        }
        (method @ ("GET" | "HEAD" | "PUT"), path) if path.starts_with("/blob/") => {
            let key = &path["/blob/".len()..];
            if !valid_blob_key(key) {
                return Err((400, format!("invalid blob key `{key}`"), None));
            }
            match method {
                "PUT" => blob_put(state, key, &request.body, stream),
                head_or_get => blob_get(state, key, stream, head_or_get == "HEAD"),
            }
        }
        (_, path) => Err((404, format!("no route {path}"), None)),
    }
}

/// Blob keys are flat content-addressed file names: no path separators,
/// no leading dot (dotfiles and `..` cannot be named), a conservative
/// charset, and a bounded length. Everything a harness consumer
/// publishes (`<workload>-<org>-<hash>.json`, `trace-<hash>.btbt`)
/// passes; traversal attempts do not.
fn valid_blob_key(key: &str) -> bool {
    !key.is_empty()
        && key.len() <= 160
        && !key.starts_with('.')
        && key
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// Map a blob key onto this node's cache layout, so blobs published
/// over HTTP land exactly where local consumers write (and read) them:
/// trace containers under `<cache>/trace`, everything else (sweep
/// results) at the top level. That placement is what keeps a
/// coordinator's blob-fed cache byte-identical to a CLI run's.
fn blob_dir(cache_dir: &Path, key: &str) -> PathBuf {
    if key.starts_with("trace-") && key.ends_with(".btbt") {
        cache_dir.join("trace")
    } else {
        cache_dir.to_path_buf()
    }
}

/// Serve `GET`/`HEAD /blob/<key>` from this node's cache directory.
/// A missing blob is a well-formed 404 (an expected miss, not counted
/// as a server error); read failures are 500s.
fn blob_get(
    state: &ServerState,
    key: &str,
    stream: &mut TcpStream,
    head_only: bool,
) -> Result<(), Refusal> {
    let path = blob_dir(&state.cache_dir, key).join(key);
    match faults::read(&path) {
        Ok(bytes) => {
            let _ = respond_bytes(stream, 200, &bytes, head_only);
            Ok(())
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            let _ = respond_bytes(stream, 404, b"", head_only);
            Ok(())
        }
        Err(e) => Err((500, format!("reading blob {key}: {e}"), None)),
    }
}

/// Serve `PUT /blob/<key>`: publish the body atomically into this
/// node's cache directory (temp file + rename, exactly like a local
/// store write), answering `201 Created`.
fn blob_put(
    state: &ServerState,
    key: &str,
    body: &[u8],
    stream: &mut TcpStream,
) -> Result<(), Refusal> {
    let dir = blob_dir(&state.cache_dir, key);
    let publish = faults::create_dir_all(&dir)
        .map_err(|e| StoreError::Io {
            action: "creating blob dir",
            path: dir.clone(),
            source: Arc::new(e),
        })
        .and_then(|()| atomic_publish(&dir, key, body));
    match publish {
        Ok(()) => {
            let _ = respond_json(stream, 201, "{\"ok\":true}", None);
            Ok(())
        }
        Err(e) => Err((500, format!("publishing blob {key}: {e}"), None)),
    }
}

/// Run (or fetch) one point through the store's single-flight path,
/// under this request's deadline.
fn simulate(state: &ServerState, point: &SimPoint) -> Result<(SimResult, Fetch), RunError> {
    let abort = state.arm_deadline();
    state
        .store
        .try_get_or_compute(&point.cache_file(), false, || {
            // Resolve inside the compute closure: cache hits and joins
            // never need the trace bytes at all.
            resolve_trace(state, point)?.run_with(RunOpts {
                abort: abort.clone(),
                source: None,
            })
        })
}

/// Make a point's trace container (if any) openable locally, fetching
/// it by content hash from the blob backend when it is not:
///
/// 1. A local path whose container still matches the reference's
///    content hash wins outright — no fetch, no rewrite.
/// 2. Otherwise the spool (`<cache>/trace/trace-<hash>.btbt`) is
///    probed; a previously fetched (or blob-PUT-seeded) container is
///    reused.
/// 3. Otherwise the blob backend fetches `trace-<hash>.btbt`, the bytes
///    are spooled atomically, and the spooled container's header hash
///    is verified against the reference before use.
///
/// Runs inside the single-flight compute closure, so cache hits and
/// joins never touch the trace. A failure answers 500, and a cluster
/// scheduler retries the point on a node that *can* resolve the trace —
/// exactly the pre-backend semantics for a missing local file.
///
/// # Errors
///
/// [`RunError::TraceUnavailable`] when no store can supply the blob and
/// [`RunError::Store`] when fetching, spooling or verifying it fails.
fn resolve_trace(state: &ServerState, point: &SimPoint) -> Result<SimPoint, RunError> {
    let Some(tref) = &point.workload.trace else {
        return Ok(point.clone());
    };
    if !tref.is_store_only() {
        if let Ok(info) = container::read_info(&tref.path) {
            if info.content_hash == tref.content_hash {
                return Ok(point.clone());
            }
        }
    }
    let key = tref.blob_key();
    let spool_dir = state.cache_dir.join("trace");
    let spool = spool_dir.join(&key);
    let rewired = |spool: PathBuf| {
        let mut point = point.clone();
        if let Some(tref) = &mut point.workload.trace {
            tref.path = spool;
        }
        point
    };
    if let Ok(info) = container::read_info(&spool) {
        if info.content_hash == tref.content_hash {
            return Ok(rewired(spool));
        }
    }
    let unavailable = |store: Option<String>| RunError::TraceUnavailable {
        workload: point.workload.name.clone(),
        key: key.clone(),
        store,
    };
    let Some(backend) = &state.blob_backend else {
        return Err(unavailable(None));
    };
    let Some(bytes) = backend.get(&key)? else {
        return Err(unavailable(Some(backend.id())));
    };
    faults::create_dir_all(&spool_dir).map_err(|source| StoreError::Io {
        action: "creating trace spool dir",
        path: spool_dir.clone(),
        source: Arc::new(source),
    })?;
    atomic_publish(&spool_dir, &key, &bytes)?;
    // Verify the *spooled file* (not just the bytes): the header hash
    // must match the requested identity, or the fetched blob is damaged
    // (or mislabeled) and must not silently simulate a different trace.
    let detail = match container::read_info(&spool) {
        Ok(info) if info.content_hash == tref.content_hash => return Ok(rewired(spool)),
        Ok(info) => format!(
            "content hash {:016x} != expected {:016x}",
            info.content_hash, tref.content_hash
        ),
        Err(e) => e.to_string(),
    };
    let mut corrupt = spool.clone().into_os_string();
    corrupt.push(".corrupt");
    let _ = std::fs::rename(&spool, &corrupt);
    Err(StoreError::Damaged {
        url: backend.label(&key),
        detail,
    }
    .into())
}

/// One parsed HTTP request.
struct HttpRequest {
    method: String,
    path: String,
    body: Vec<u8>,
}

/// Parse a request head + body. `Ok(None)` means the peer closed
/// without sending anything (probes, the shutdown waker).
fn read_request(reader: &mut BufReader<TcpStream>) -> io::Result<Option<HttpRequest>> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad request line",
            ))
        }
    };
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated headers",
            ));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
        }
    }
    // Blob payloads (trace containers) dwarf every JSON body, so the
    // cap is per-namespace: generous for `/blob/`, tight elsewhere.
    let cap = if path.starts_with("/blob/") {
        MAX_BLOB_BYTES
    } else {
        MAX_BODY_BYTES
    };
    if content_length > cap {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(HttpRequest { method, path, body }))
}

/// Write a JSON response with an optional extra header and close.
fn respond_json(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    extra: Option<(&str, &str)>,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        status_reason(status),
        body.len()
    );
    if let Some((name, value)) = extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Write a binary (octet-stream) response and close. `head_only`
/// answers a `HEAD`: the real `Content-Length` with no body bytes.
fn respond_bytes(
    stream: &mut TcpStream,
    status: u16,
    body: &[u8],
    head_only: bool,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/octet-stream\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        status_reason(status),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    if !head_only {
        stream.write_all(body)?;
    }
    stream.flush()
}

/// A parsed HTTP response: a text body from [`http_request`], raw bytes
/// from [`http_request_bytes`].
#[derive(Debug)]
pub struct HttpResponse<B = String> {
    /// Status code.
    pub status: u16,
    /// Response headers, lower-cased names.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: B,
}

impl<B> HttpResponse<B> {
    /// Look up a header by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Minimal blocking HTTP/1.1 client for the service (tests, smoke
/// scripts and the benchmark) with a text body and the default request
/// timeout ([`crate::opts::DEFAULT_HTTP_TIMEOUT_MS`]); see
/// [`http_request_bytes`]. `addr` is `host:port`, optionally prefixed
/// with `http://`.
///
/// # Errors
///
/// [`io::Error`] on connection or protocol failures, or a non-UTF-8
/// body. Non-2xx statuses are returned, not errors.
pub fn http_request(addr: &str, method: &str, path: &str, body: &str) -> io::Result<HttpResponse> {
    let timeout = Duration::from_millis(crate::opts::DEFAULT_HTTP_TIMEOUT_MS);
    let response = http_request_bytes(addr, method, path, body.as_bytes(), timeout)?;
    let body = String::from_utf8(response.body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
    Ok(HttpResponse {
        status: response.status,
        headers: response.headers,
        body,
    })
}

/// The HTTP client: request and response bodies are raw bytes, which
/// the blob transport ([`crate::store::HttpStore`]) needs — trace
/// containers are not UTF-8. Every phase (connect, write, read) honours
/// `timeout`, so a hung or wedged peer can never stall the caller
/// indefinitely (one wedged node must not pin a whole cluster sweep),
/// and the `Connect`/`HttpRead` fault-injection
/// checkpoints fire here, so remote operations are injectable exactly
/// like local ones.
///
/// # Errors
///
/// [`io::Error`] on connection or protocol failures;
/// [`io::ErrorKind::TimedOut`]/[`io::ErrorKind::WouldBlock`] when a
/// phase exceeds `timeout`. Non-2xx statuses are returned, not errors.
pub fn http_request_bytes(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> io::Result<HttpResponse<Vec<u8>>> {
    let addr = addr
        .trim_start_matches("http://")
        .trim_end_matches('/')
        .to_string();
    // connect_timeout panics on zero and a multi-day timeout is a unit
    // bug, not a choice; every call site shares one clamp.
    let timeout = sane_timeout(timeout);
    faults::check_connect(&addr)?;
    // connect_timeout needs a resolved SocketAddr; take the first.
    let socket_addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("{addr}: no address"))
    })?;
    let mut stream = TcpStream::connect_timeout(&socket_addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let content_type = if path.starts_with("/blob/") {
        "application/octet-stream"
    } else {
        "application/json"
    };
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )?;
    stream.write_all(body)?;
    faults::check_http_read(&addr)?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().ok();
            }
            headers.push((name, value));
        }
    }
    // A HEAD response advertises the blob's length but carries no body.
    let body = if method.eq_ignore_ascii_case("HEAD") {
        Vec::new()
    } else {
        match content_length {
            Some(n) => {
                let mut buf = vec![0u8; n];
                reader.read_exact(&mut buf)?;
                buf
            }
            None => {
                let mut buf = Vec::new();
                reader.read_to_end(&mut buf)?;
                buf
            }
        }
    };
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}
