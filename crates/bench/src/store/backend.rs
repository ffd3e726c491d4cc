//! Pluggable content-addressed store backends behind one [`Store`]
//! trait.
//!
//! Every durable artifact the harness produces — sweep results
//! (`<workload>-<org>-<hash>.json`) and `.btbt` trace containers
//! (`trace-<hash>.btbt`) — is a *content-addressed blob*: its name is
//! derived from a hash of everything that determines its bytes. That
//! makes the storage layer swappable: any backend that can `get`/`put`/
//! `has` blobs by name, publish atomically, and distinguish *absent*
//! from *damaged* can sit behind [`super::ResultStore`] and the serve
//! node's trace resolution.
//!
//! Backends are selected by URL scheme ([`crate::opts::StoreUrl`]):
//!
//! | Scheme      | Backend                                              |
//! |-------------|------------------------------------------------------|
//! | `dir://P`   | [`DirStore`] — today's local-directory layout        |
//! | `mem://`    | [`MemStore`] — in-process map (tests)                |
//! | `http://A`  | [`HttpStore`] — `GET/PUT /blob/<key>` on a peer      |
//! |             | serve node (or any compatible blob endpoint)         |
//! | `tiered://P,http://A` | [`TieredStore`] — a local dir in front of  |
//! |             | a remote: reads fill the local tier, writes go to    |
//! |             | both                                                 |
//!
//! Guarantees that are backend-*independent* (they live in the
//! consumers, above this trait): single-flight dedup, the
//! re-read-before-condemn damaged-entry protocol, and crash-resume
//! byte-identity of published entries. Guarantees that are
//! backend-*specific*: `dir://` publishes via the shared
//! temp-file+rename helper ([`atomic_publish`]) and quarantines damage
//! to `<key>.corrupt`; `http://` cannot quarantine a peer's blob (the
//! peer's own store quarantines damage it detects locally) and reports
//! remote traffic through [`RemoteCounters`].
//!
//! Remote operations ride the same fault-injection seam as local ones:
//! the HTTP client path calls `faults::check_connect`/`check_http_read`,
//! so a `ConnReset`/`SlowRead`/`Stall` plan exercises [`HttpStore`]
//! exactly like `Enospc` exercises [`DirStore`].

use super::StoreError;
use crate::serve::{http_request_bytes, HttpResponse};
use btbx_core::faults;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A content-addressed blob store. Keys are flat file-name-like strings
/// (`[A-Za-z0-9._-]`, no path separators); values are opaque bytes.
///
/// Implementations must be safe for concurrent use: `put` must be
/// atomic (a concurrent `get` observes the previous blob or the
/// complete new one, never a prefix) and `get` must distinguish
/// *absent* (`Ok(None)`) from *failed* (`Err`).
pub trait Store: Send + Sync {
    /// Stable identity of this store (scheme + location), for logs and
    /// debugging.
    fn id(&self) -> String;

    /// Human-readable label for one key (full path or URL), for logs.
    fn label(&self, key: &str) -> String;

    /// Read the blob under `key`. Absent is `Ok(None)`; only real
    /// failures (I/O, transport, non-404 statuses) are `Err`.
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError>;

    /// Atomically publish `bytes` under `key`, replacing any previous
    /// blob.
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError>;

    /// Whether `key` exists, without fetching the blob.
    fn has(&self, key: &str) -> Result<bool, StoreError>;

    /// Move a damaged blob aside (preserving the evidence where the
    /// backend can), clearing the key for a clean rewrite.
    fn quarantine(&self, key: &str) -> Quarantine;

    /// The local directory blobs publish into, when there is one
    /// (`dir://` and the local tier of `tiered://`).
    fn local_dir(&self) -> Option<&Path> {
        None
    }

    /// Remote-traffic counters, when this backend talks to a peer.
    fn remote_counters(&self) -> Option<&RemoteCounters> {
        None
    }
}

/// How a [`Store::quarantine`] attempt ended.
#[derive(Debug)]
pub enum Quarantine {
    /// The damaged blob was moved aside; the string names the evidence
    /// (e.g. the `.corrupt` path).
    Moved(String),
    /// The move failed; the damage stays in place.
    Failed(String),
    /// The backend has no quarantine notion (remote blobs): the caller
    /// should treat the blob as absent and expect a re-fetch.
    Unsupported,
}

/// Monotonic counters for a backend's remote traffic, shared by every
/// consumer wired to the same remote (results and trace fetches), and
/// surfaced through [`super::StoreCounters`] /
/// `GET /stats`.
#[derive(Debug, Default)]
pub struct RemoteCounters {
    /// Blobs served by the remote (`GET /blob` → 200).
    pub hits: AtomicU64,
    /// Blobs the remote did not have (`GET /blob` → 404).
    pub misses: AtomicU64,
    /// Total bytes fetched from the remote.
    pub fetch_bytes: AtomicU64,
    /// Failed remote operations (transport errors, non-2xx/404
    /// statuses, on any verb).
    pub errors: AtomicU64,
}

/// Write `bytes` to `<dir>/<name>` atomically: a fresh temp file
/// (`<name>.tmp.<pid>.<seq>`) in the same directory, then a rename into
/// place — readers (including readers after a crash) observe the
/// previous state or the complete new blob, never a prefix. A failed
/// write or rename removes the temp file so no litter survives.
///
/// This is the one publish implementation behind every local store
/// consumer ([`super::ResultStore`], the serve node's blob endpoint and
/// trace spool).
///
/// # Errors
///
/// [`StoreError::Io`] when the temp write or the rename fails.
pub fn atomic_publish(dir: &Path, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
    // Unique per writer so concurrent publishes of one key never share
    // a temp file; the final rename is the only point of contention and
    // it is atomic.
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let path = dir.join(name);
    let tmp = dir.join(format!(
        "{name}.tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    faults::write(&tmp, bytes).map_err(|source| {
        // A failed (possibly torn) temp write must not linger: the
        // half-file is unreachable as an entry but would read as
        // litter — and as a counterexample to "no half-entries".
        let _ = fs::remove_file(&tmp);
        StoreError::Io {
            action: "writing store temp file",
            path: tmp.clone(),
            source: Arc::new(source),
        }
    })?;
    faults::rename(&tmp, &path).map_err(|source| {
        let _ = fs::remove_file(&tmp);
        StoreError::Io {
            action: "publishing store entry",
            path,
            source: Arc::new(source),
        }
    })
}

/// The local-directory backend: today's on-disk layout, byte-for-byte.
/// Blobs are plain files named by their key; publishes go through
/// [`atomic_publish`]; damage quarantines to `<key>.corrupt`.
pub struct DirStore {
    dir: PathBuf,
}

impl DirStore {
    /// Open (creating if needed) the directory and canonicalize it, so
    /// two opens of one directory agree on identity.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the directory cannot be created or
    /// canonicalized.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        faults::create_dir_all(dir).map_err(|source| StoreError::Io {
            action: "creating store dir",
            path: dir.to_path_buf(),
            source: Arc::new(source),
        })?;
        let dir = dir.canonicalize().map_err(|source| StoreError::Io {
            action: "resolving store dir",
            path: dir.to_path_buf(),
            source: Arc::new(source),
        })?;
        Ok(DirStore { dir })
    }

    /// The canonical directory this store publishes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Store for DirStore {
    fn id(&self) -> String {
        format!("dir://{}", self.dir.display())
    }

    fn label(&self, key: &str) -> String {
        self.dir.join(key).display().to_string()
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        let path = self.dir.join(key);
        match faults::read(&path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(source) => Err(StoreError::Io {
                action: "reading store entry",
                path,
                source: Arc::new(source),
            }),
        }
    }

    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
        atomic_publish(&self.dir, key, bytes)
    }

    fn has(&self, key: &str) -> Result<bool, StoreError> {
        let path = self.dir.join(key);
        match fs::metadata(&path) {
            Ok(m) => Ok(m.is_file()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(source) => Err(StoreError::Io {
                action: "probing store entry",
                path,
                source: Arc::new(source),
            }),
        }
    }

    fn quarantine(&self, key: &str) -> Quarantine {
        let path = self.dir.join(key);
        let mut corrupt = path.as_os_str().to_owned();
        corrupt.push(".corrupt");
        let corrupt = PathBuf::from(corrupt);
        match faults::rename(&path, &corrupt) {
            Ok(()) => Quarantine::Moved(corrupt.display().to_string()),
            Err(e) => Quarantine::Failed(e.to_string()),
        }
    }

    fn local_dir(&self) -> Option<&Path> {
        Some(&self.dir)
    }
}

/// The in-memory backend (tests, and any caller that wants cache
/// semantics without a filesystem). Quarantine mirrors the directory
/// layout by moving the damaged bytes under `<key>.corrupt` in the map.
pub struct MemStore {
    name: String,
    map: Mutex<HashMap<String, Arc<Vec<u8>>>>,
}

impl Default for MemStore {
    fn default() -> Self {
        Self::new()
    }
}

impl MemStore {
    /// A fresh, empty store with a process-unique identity.
    pub fn new() -> Self {
        static MEM_SEQ: AtomicU64 = AtomicU64::new(0);
        MemStore {
            name: format!("mem://#{}", MEM_SEQ.fetch_add(1, Ordering::Relaxed)),
            map: Mutex::new(HashMap::new()),
        }
    }
}

impl Store for MemStore {
    fn id(&self) -> String {
        self.name.clone()
    }

    fn label(&self, key: &str) -> String {
        format!("{}/{key}", self.name)
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        let map = self.map.lock().unwrap_or_else(|p| p.into_inner());
        Ok(map.get(key).map(|b| b.as_ref().clone()))
    }

    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let mut map = self.map.lock().unwrap_or_else(|p| p.into_inner());
        map.insert(key.to_string(), Arc::new(bytes.to_vec()));
        Ok(())
    }

    fn has(&self, key: &str) -> Result<bool, StoreError> {
        let map = self.map.lock().unwrap_or_else(|p| p.into_inner());
        Ok(map.contains_key(key))
    }

    fn quarantine(&self, key: &str) -> Quarantine {
        let mut map = self.map.lock().unwrap_or_else(|p| p.into_inner());
        match map.remove(key) {
            Some(bytes) => {
                let evidence = format!("{key}.corrupt");
                map.insert(evidence.clone(), bytes);
                Quarantine::Moved(self.label(&evidence))
            }
            None => Quarantine::Failed("entry vanished before quarantine".to_string()),
        }
    }
}

/// The remote backend: blobs live behind a peer's `GET/PUT /blob/<key>`
/// endpoints (any `btbx serve` node serves them over its own cache
/// directory). Every operation is fault-injectable through the
/// `Connect`/`HttpRead` seam and counted in [`RemoteCounters`].
pub struct HttpStore {
    /// `host:port`, normalized (no scheme prefix, no trailing slash).
    addr: String,
    timeout: Duration,
    counters: Arc<RemoteCounters>,
}

impl HttpStore {
    /// A store over `addr` (`host:port`, optionally `http://`-prefixed)
    /// with fresh counters.
    pub fn new(addr: &str, timeout: Duration) -> Self {
        Self::with_counters(addr, timeout, Arc::new(RemoteCounters::default()))
    }

    /// A store over `addr` sharing `counters` with other consumers
    /// (a serve node aggregates result, warm and trace traffic on one
    /// counter set).
    pub fn with_counters(addr: &str, timeout: Duration, counters: Arc<RemoteCounters>) -> Self {
        HttpStore {
            addr: addr
                .trim_start_matches("http://")
                .trim_end_matches('/')
                .to_string(),
            timeout: crate::opts::sane_timeout(timeout),
            counters,
        }
    }

    /// The shared counter handle (clone it into sibling consumers).
    pub fn counters(&self) -> Arc<RemoteCounters> {
        Arc::clone(&self.counters)
    }

    fn url(&self, key: &str) -> String {
        format!("http://{}/blob/{key}", self.addr)
    }

    fn request(
        &self,
        action: &'static str,
        method: &str,
        key: &str,
        body: &[u8],
    ) -> Result<HttpResponse<Vec<u8>>, StoreError> {
        let path = format!("/blob/{key}");
        http_request_bytes(&self.addr, method, &path, body, self.timeout).map_err(|source| {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
            StoreError::Remote {
                action,
                url: self.url(key),
                detail: source.to_string(),
            }
        })
    }

    fn unexpected(
        &self,
        action: &'static str,
        key: &str,
        response: &HttpResponse<Vec<u8>>,
    ) -> StoreError {
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
        StoreError::Remote {
            action,
            url: self.url(key),
            detail: format!(
                "HTTP {}: {}",
                response.status,
                String::from_utf8_lossy(&response.body[..response.body.len().min(200)])
            ),
        }
    }
}

impl Store for HttpStore {
    fn id(&self) -> String {
        format!("http://{}", self.addr)
    }

    fn label(&self, key: &str) -> String {
        self.url(key)
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        let response = self.request("fetching remote blob", "GET", key, &[])?;
        match response.status {
            200 => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .fetch_bytes
                    .fetch_add(response.body.len() as u64, Ordering::Relaxed);
                Ok(Some(response.body))
            }
            404 => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                Ok(None)
            }
            _ => Err(self.unexpected("fetching remote blob", key, &response)),
        }
    }

    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let response = self.request("publishing remote blob", "PUT", key, bytes)?;
        match response.status {
            200 | 201 => Ok(()),
            _ => Err(self.unexpected("publishing remote blob", key, &response)),
        }
    }

    fn has(&self, key: &str) -> Result<bool, StoreError> {
        let response = self.request("probing remote blob", "HEAD", key, &[])?;
        match response.status {
            200 => Ok(true),
            404 => Ok(false),
            _ => Err(self.unexpected("probing remote blob", key, &response)),
        }
    }

    fn quarantine(&self, _key: &str) -> Quarantine {
        // A peer's blob cannot be renamed from here; the peer's own
        // store quarantines damage it detects locally. Treat as absent.
        Quarantine::Unsupported
    }

    fn remote_counters(&self) -> Option<&RemoteCounters> {
        Some(&self.counters)
    }
}

/// A local directory in front of a remote: reads prefer the local tier
/// and backfill it from the remote on a miss; writes publish locally
/// (durability) and replicate to the remote best-effort (a fleet-shared
/// cache must not fail a run because a peer is briefly down — the
/// replication failure is counted and logged instead).
pub struct TieredStore {
    local: DirStore,
    remote: HttpStore,
}

impl TieredStore {
    /// Compose `local` in front of `remote`.
    pub fn new(local: DirStore, remote: HttpStore) -> Self {
        TieredStore { local, remote }
    }
}

impl Store for TieredStore {
    fn id(&self) -> String {
        format!(
            "tiered://{},{}",
            self.local.dir().display(),
            self.remote.id()
        )
    }

    fn label(&self, key: &str) -> String {
        self.local.label(key)
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        if let Some(bytes) = self.local.get(key)? {
            return Ok(Some(bytes));
        }
        match self.remote.get(key)? {
            Some(bytes) => {
                // Backfill the local tier so the next read is local.
                // Best-effort: a full disk costs re-fetches, not the
                // result.
                if let Err(e) = self.local.put(key, &bytes) {
                    eprintln!("[store] could not backfill local tier for {key}: {e}");
                }
                Ok(Some(bytes))
            }
            None => Ok(None),
        }
    }

    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.local.put(key, bytes)?;
        if let Err(e) = self.remote.put(key, bytes) {
            // `HttpStore::put` already counted the error.
            eprintln!(
                "[store] could not replicate {key} to {}: {e}",
                self.remote.id()
            );
        }
        Ok(())
    }

    fn has(&self, key: &str) -> Result<bool, StoreError> {
        if self.local.has(key)? {
            return Ok(true);
        }
        self.remote.has(key)
    }

    fn quarantine(&self, key: &str) -> Quarantine {
        self.local.quarantine(key)
    }

    fn local_dir(&self) -> Option<&Path> {
        Some(self.local.dir())
    }

    fn remote_counters(&self) -> Option<&RemoteCounters> {
        self.remote.remote_counters()
    }
}

/// Build the backend a [`crate::opts::StoreUrl`] names, with fresh
/// remote counters.
///
/// # Errors
///
/// [`StoreError::Io`] when a directory-backed tier cannot be opened.
pub fn open_store(
    url: &crate::opts::StoreUrl,
    timeout: Duration,
) -> Result<Arc<dyn Store>, StoreError> {
    open_store_with(url, timeout, Arc::new(RemoteCounters::default()))
}

/// [`open_store`] with a caller-supplied counter set, so every consumer
/// a node wires to one remote (results and traces) reports
/// through one [`RemoteCounters`].
///
/// # Errors
///
/// [`StoreError::Io`] when a directory-backed tier cannot be opened.
pub fn open_store_with(
    url: &crate::opts::StoreUrl,
    timeout: Duration,
    counters: Arc<RemoteCounters>,
) -> Result<Arc<dyn Store>, StoreError> {
    use crate::opts::StoreUrl;
    Ok(match url {
        StoreUrl::Dir(dir) => Arc::new(DirStore::open(dir)?),
        StoreUrl::Mem => Arc::new(MemStore::new()),
        StoreUrl::Http(addr) => Arc::new(HttpStore::with_counters(addr, timeout, counters)),
        StoreUrl::Tiered { local, remote } => Arc::new(TieredStore::new(
            DirStore::open(local)?,
            HttpStore::with_counters(remote, timeout, counters),
        )),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("btbx-backend-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn dir_store_round_trips_and_reports_absent() {
        let dir = fresh_dir("roundtrip");
        let store = DirStore::open(&dir).unwrap();
        assert_eq!(store.get("a.json").unwrap(), None);
        assert!(!store.has("a.json").unwrap());
        store.put("a.json", b"{\"x\":1}").unwrap();
        assert_eq!(store.get("a.json").unwrap().unwrap(), b"{\"x\":1}");
        assert!(store.has("a.json").unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_store_publishes_atomically_without_litter() {
        let dir = fresh_dir("atomic");
        let store = DirStore::open(&dir).unwrap();
        store.put("a.json", b"one").unwrap();
        store.put("a.json", b"two").unwrap();
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["a.json".to_string()], "temp files linger");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_store_quarantine_preserves_evidence() {
        let dir = fresh_dir("quarantine");
        let store = DirStore::open(&dir).unwrap();
        store.put("a.json", b"damaged").unwrap();
        match store.quarantine("a.json") {
            Quarantine::Moved(evidence) => assert!(evidence.ends_with("a.json.corrupt")),
            other => panic!("expected Moved, got {other:?}"),
        }
        assert!(!store.has("a.json").unwrap());
        assert!(dir.join("a.json.corrupt").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_store_mirrors_dir_semantics() {
        let store = MemStore::new();
        assert_eq!(store.get("k").unwrap(), None);
        store.put("k", b"bytes").unwrap();
        assert_eq!(store.get("k").unwrap().unwrap(), b"bytes");
        assert!(store.has("k").unwrap());
        match store.quarantine("k") {
            Quarantine::Moved(evidence) => assert!(evidence.ends_with("k.corrupt")),
            other => panic!("expected Moved, got {other:?}"),
        }
        assert_eq!(store.get("k").unwrap(), None);
        assert_eq!(store.get("k.corrupt").unwrap().unwrap(), b"bytes");
    }

    #[test]
    fn mem_stores_have_distinct_identities() {
        assert_ne!(MemStore::new().id(), MemStore::new().id());
    }
}
