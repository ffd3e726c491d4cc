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
//! | `GET /healthz`   | [`HealthInfo`] JSON: liveness, crate version,     |
//! |                  | cache version and supported orgs                  |
//! | `GET /stats`     | [`ServeStats`] JSON (request + cache counters)    |
//! | `POST /shutdown` | `{"ok":true}`, then graceful drain and exit       |
//!
//! `/sim` responses carry an `X-Btbx-Cache` header (`disk`, `computed`
//! or `joined`) reporting how the result was obtained. Errors are JSON
//! `{"error": "..."}` with 400 (malformed request), 404 (unknown route)
//! or 500 (failed simulation) status. See EXPERIMENTS.md, "The
//! simulation service".
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
//!   client the abort is deterministic: the server is healthy, and the
//!   same point would run into the same deadline again.
//!
//! Both surface in `GET /stats` as [`ServeStats::shed`] and
//! [`ServeStats::deadline_aborts`]. Every other failed `/sim` (a trace
//! that does not open, a cache failure) is a `500` carrying the
//! [`RunError`] text.

use crate::opts::HarnessOpts;
use crate::store::{Fetch, ResultStore, StoreCounters, StoreError};
use crate::sweep::{RunError, RunOpts, SimPoint, CACHE_VERSION};
use btbx_core::OrgKind;
use btbx_uarch::runner::ServicePool;
use btbx_uarch::{SessionError, SimResult};
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// Largest accepted request body; a [`SimPoint`] is well under this.
const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest accepted request head (request line plus headers). The read
/// timeout applies per read, so without a cap a client trickling one
/// endless header would grow a worker's buffer without bound.
const MAX_HEAD_BYTES: u64 = 16 << 10;

/// Socket read timeout: a stalled or idle client must not pin a worker.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Per-phase (connect, write, read) timeout of [`http_request`]:
/// generous enough for the largest single simulation a server computes
/// while the client waits, finite so a wedged server is abandoned.
const HTTP_TIMEOUT: Duration = Duration::from_secs(600);

/// What `GET /healthz` reports: liveness plus the versions a client
/// needs to know whether the server's results match its own.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthInfo {
    /// Liveness (always `true` in a response; kept for probe scripts
    /// that only check this field).
    pub ok: bool,
    /// The serving binary's crate version.
    pub version: String,
    /// The server's [`CACHE_VERSION`]: results are only cache-compatible
    /// between equal versions.
    pub cache_version: u32,
    /// Organization ids this server can simulate.
    pub orgs: Vec<String>,
}

/// The [`HealthInfo`] this build reports.
pub fn health_info() -> HealthInfo {
    HealthInfo {
        ok: true,
        version: env!("CARGO_PKG_VERSION").to_string(),
        cache_version: CACHE_VERSION,
        orgs: OrgKind::ALL.iter().map(|o| o.id().to_string()).collect(),
    }
}

/// The header (name, value) a server adds to the `503` that answers a
/// `/sim` request its per-request deadline aborted: the same point would
/// run into the same deadline again, so a client should not retry it.
pub const DEADLINE_ABORT: (&str, &str) = ("X-Btbx-Abort", "deadline");

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
    /// Read nowhere: results always live in `cache_dir`. Kept only so
    /// struct literals that set it still compile.
    pub store: Option<PathBuf>,
    /// Read nowhere: the server makes no outbound requests. Kept only so
    /// struct literals that set it still compile.
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
            store: None,
            http_timeout: HTTP_TIMEOUT,
        }
    }
}

/// Counters reported by `GET /stats` (`Deserialize` so clients can
/// read them back).
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
        let store = ResultStore::open(&config.cache_dir)?;
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

/// The JSON body of an error response: `{"error": message}`, escaped
/// by the JSON serializer so any message (a request path with control
/// characters, say) yields valid JSON.
fn error_body(message: &str) -> String {
    let message = serde_json::to_string(message).expect("strings serialize");
    format!("{{\"error\":{message}}}")
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
            let body = serde_json::to_string(&health_info()).expect("health info serializes");
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
                    (503, message, Some(DEADLINE_ABORT))
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
        (_, path) => Err((404, format!("no route {path}"), None)),
    }
}

/// Run (or fetch) one point through the store's single-flight path,
/// under this request's deadline.
fn simulate(state: &ServerState, point: &SimPoint) -> Result<(SimResult, Fetch), RunError> {
    let abort = state.arm_deadline();
    state
        .store
        .try_get_or_compute(&point.cache_file(), false, || {
            point.run_with(RunOpts {
                abort: abort.clone(),
                source: None,
            })
        })
}

/// One parsed HTTP request.
struct HttpRequest {
    method: String,
    path: String,
    body: Vec<u8>,
}

/// Parse a request head + body. `Ok(None)` means the peer closed
/// without sending anything (probes, the shutdown waker). A head longer
/// than [`MAX_HEAD_BYTES`] is refused.
fn read_request(reader: &mut BufReader<TcpStream>) -> io::Result<Option<HttpRequest>> {
    let mut head = reader.by_ref().take(MAX_HEAD_BYTES);
    let mut read_line = |line: &mut String| -> io::Result<usize> {
        let n = head.read_line(line)?;
        if head.limit() == 0 && !line.ends_with('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        Ok(n)
    };
    let mut line = String::new();
    if read_line(&mut line)? == 0 {
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
        if read_line(&mut header)? == 0 {
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
    if content_length > MAX_BODY_BYTES {
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
        400 => "Bad Request",
        404 => "Not Found",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// A parsed HTTP response from [`http_request`].
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Response headers, lower-cased names.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// Look up a header by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Minimal blocking HTTP/1.1 client for the service (tests, scripts and
/// the benchmark). `addr` is `host:port`, optionally prefixed with
/// `http://`. Every phase (connect, write, read) honours one fixed
/// timeout.
///
/// # Errors
///
/// [`io::Error`] on connection or protocol failures, a phase that times
/// out, or a non-UTF-8 body. Non-2xx statuses are returned, not errors.
pub fn http_request(addr: &str, method: &str, path: &str, body: &str) -> io::Result<HttpResponse> {
    let addr = addr.trim_start_matches("http://").trim_end_matches('/');
    // connect_timeout needs a resolved SocketAddr; take the first.
    let socket_addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("{addr}: no address"))
    })?;
    let mut stream = TcpStream::connect_timeout(&socket_addr, HTTP_TIMEOUT)?;
    stream.set_read_timeout(Some(HTTP_TIMEOUT))?;
    stream.set_write_timeout(Some(HTTP_TIMEOUT))?;
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )?;
    stream.write_all(body.as_bytes())?;
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
    let body = match content_length {
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
    };
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}
