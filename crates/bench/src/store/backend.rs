//! Pluggable content-addressed store backends behind one [`Store`]
//! trait.
//!
//! Every durable artifact the harness produces — a sweep result
//! (`<workload>-<org>-<hash>.json`) — is a *content-addressed blob*:
//! its name is derived from a hash of everything that determines its
//! bytes. Any backend that can `get`/`put` blobs by name, publish
//! atomically, and distinguish *absent* from *damaged* can sit behind
//! [`super::ResultStore`].
//!
//! Backends are selected by URL scheme ([`crate::opts::StoreUrl`]):
//!
//! | Scheme      | Backend                                              |
//! |-------------|------------------------------------------------------|
//! | `dir://P`   | [`DirStore`] — the local-directory layout            |
//! | `mem://`    | [`MemStore`] — in-process map (tests)                |
//!
//! Guarantees that are backend-*independent* (they live in the
//! consumers, above this trait): single-flight dedup, the
//! re-read-before-condemn damaged-entry protocol, and crash-recovery
//! byte-identity of published entries. Guarantees that are
//! backend-*specific*: `dir://` publishes via the shared
//! temp-file+rename helper ([`atomic_publish`]) and quarantines damage
//! to `<key>.corrupt`; `mem://` moves damage to `<key>.corrupt` in its
//! map.

use super::StoreError;
use btbx_core::faults;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
    /// failures (I/O errors) are `Err`.
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError>;

    /// Atomically publish `bytes` under `key`, replacing any previous
    /// blob.
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError>;

    /// Move a damaged blob aside (preserving the evidence where the
    /// backend can), clearing the key for a clean rewrite.
    fn quarantine(&self, key: &str) -> Quarantine;
}

/// How a [`Store::quarantine`] attempt ended.
#[derive(Debug)]
pub enum Quarantine {
    /// The damaged blob was moved aside; the string names the evidence
    /// (e.g. the `.corrupt` path).
    Moved(String),
    /// The move failed; the damage stays in place.
    Failed(String),
}

/// Write `bytes` to `<dir>/<name>` atomically: a fresh temp file
/// (`<name>.tmp.<pid>.<seq>`) in the same directory, then a rename into
/// place — readers (including readers after a crash) observe the
/// previous state or the complete new blob, never a prefix. A failed
/// write or rename removes the temp file so no litter survives.
///
/// This is the one publish implementation behind every local store
/// write.
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

/// Build the backend a [`crate::opts::StoreUrl`] names.
///
/// # Errors
///
/// [`StoreError::Io`] when a `dir://` store cannot be opened.
pub fn open_store(url: &crate::opts::StoreUrl) -> Result<Arc<dyn Store>, StoreError> {
    use crate::opts::StoreUrl;
    Ok(match url {
        StoreUrl::Dir(dir) => Arc::new(DirStore::open(dir)?),
        StoreUrl::Mem => Arc::new(MemStore::new()),
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
        store.put("a.json", b"{\"x\":1}").unwrap();
        assert_eq!(store.get("a.json").unwrap().unwrap(), b"{\"x\":1}");
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
        assert_eq!(store.get("a.json").unwrap(), None);
        assert!(dir.join("a.json.corrupt").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_store_mirrors_dir_semantics() {
        let store = MemStore::new();
        assert_eq!(store.get("k").unwrap(), None);
        store.put("k", b"bytes").unwrap();
        assert_eq!(store.get("k").unwrap().unwrap(), b"bytes");
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
