//! [`ResultStore`] — the durable, concurrency-safe per-point result cache
//! shared by `btbx sweep` and `btbx serve`.
//!
//! This replaces `sweep.rs`'s historical ad-hoc `load_cached`/
//! `store_cached` pair, which had three latent bugs that become live the
//! moment two runs share a cache directory:
//!
//! 1. **Torn writes.** Results were written with a bare `fs::write`, so a
//!    crash (or a concurrent writer) mid-write left a half-file that
//!    looked like a cache entry. The store writes to a temp file *in the
//!    same directory* and atomically renames it into place: a reader can
//!    only ever observe no file or a complete file, never a torn one.
//! 2. **Silently discarded errors.** Every I/O error was `let _ =`-d
//!    away, so a full disk or an unwritable cache directory degraded to
//!    "recompute forever" with no diagnostic. Store operations return
//!    [`StoreError`] and callers decide (the sweep fails the run).
//! 3. **Corruption loops.** Any read or parse failure was mapped to
//!    `None`, so a damaged entry was recomputed on every run — and the
//!    rewrite raced whoever else was reading it. The store distinguishes
//!    *absent* (`Ok(None)`) from *damaged*: a damaged entry is logged
//!    once and quarantined by renaming it to `<name>.corrupt`, clearing
//!    the path for the atomic rewrite while preserving the evidence.
//!
//! # Single-flight
//!
//! [`ResultStore::get_or_compute`] deduplicates concurrent computations
//! of the same key *process-wide*: stores opened on the same canonical
//! directory share one in-flight table, so N concurrent requests (two
//! overlapping sweeps, or N `btbx serve` clients) for one point run one
//! simulation and all observers get the same result. The winner writes
//! the cache entry; joiners never touch the disk.
//!
//! Cross-*process* writers are safe (atomic rename makes the entry appear
//! complete or not at all) but not deduplicated — both processes compute
//! and the second rename wins with byte-identical content.
//!
//! # Layout
//!
//! The store is one directory (a sweep's `<out>/cache`, a server's
//! `cache_dir`) holding one plain file per entry, named by the entry's
//! content-addressed key. Every read, write, rename and directory
//! creation goes through [`btbx_core::faults`] on the real path, so a
//! fault plan can fail any of them.

use crate::sweep::RunError;
use btbx_core::faults;
use btbx_uarch::SimResult;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};

/// A cache-store failure, always carrying where it happened. `Clone`
/// so a failed single flight reaches every joined caller.
#[derive(Debug, Clone)]
pub enum StoreError {
    /// Reading, writing, renaming or creating under a local store
    /// directory failed for a reason other than the entry being absent.
    Io {
        /// What the store was doing.
        action: &'static str,
        /// The path the action failed on.
        path: PathBuf,
        /// The underlying error.
        source: Arc<io::Error>,
    },
    /// A result refused to serialize (a bug, not an environment issue).
    Serialize(serde_json::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io {
                action,
                path,
                source,
            } => write!(f, "{action} {}: {source}", path.display()),
            StoreError::Serialize(e) => write!(f, "serializing result: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// How [`ResultStore::get_or_compute`] obtained a result — surfaced so
/// servers can report cache behaviour and tests can assert dedup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetch {
    /// Read from a completed cache entry on disk.
    Disk,
    /// Computed by this caller (which then wrote the entry).
    Computed,
    /// Joined another caller's in-flight computation of the same key.
    Joined,
}

/// Monotonic counters for one shared (per-directory) store
/// (`Deserialize` so clients can read them back out of a server's
/// `GET /stats` response).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreCounters {
    /// Computations actually run (cache misses that won their flight).
    pub computes: u64,
    /// Results served from completed on-disk entries.
    pub disk_hits: u64,
    /// Results obtained by waiting on another caller's flight.
    pub joins: u64,
    /// Damaged entries quarantined to `*.corrupt`. Counts *successful*
    /// quarantine renames, one per event — an entry that is damaged
    /// again after a clean rewrite counts again, and a failed rename
    /// (the damage stays in place) does not count at all.
    pub quarantined: u64,
    /// Computed results that could not be persisted (the caller still
    /// received the in-memory result; see [`ResultStore::get_or_compute`]).
    #[serde(default)]
    pub store_failures: u64,
}

enum FlightState {
    Running,
    /// Boxed: a [`SimResult`] is ~0.5 KB and would dominate the enum.
    Done(Box<SimResult>),
    /// The computation failed; every waiter receives the same error.
    Failed(RunError),
    /// The computing caller panicked (a bug); every waiter panics too,
    /// so a failure is never silently absorbed.
    Panicked,
}

struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

/// A leader's hold on its flight: dropping it publishes `outcome` to
/// the waiters and retires the entry. The outcome starts as
/// [`FlightState::Panicked`], so a leader that unwinds out of its
/// computation still settles the flight and never wedges the key.
struct FlightGuard<'a> {
    flight: &'a Flight,
    flights: &'a Mutex<HashMap<String, Arc<Flight>>>,
    name: &'a str,
    outcome: FlightState,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let outcome = std::mem::replace(&mut self.outcome, FlightState::Running);
        // Runs during an unwind too, so it must not panic again.
        *self.flight.state.lock().unwrap_or_else(|p| p.into_inner()) = outcome;
        self.flight.cv.notify_all();
        let mut flights = self.flights.lock().unwrap_or_else(|p| p.into_inner());
        flights.remove(self.name);
    }
}

/// State shared by every [`ResultStore`] opened on one canonical
/// directory: the in-flight table, counters, and quarantine log dedup.
struct Shared {
    flights: Mutex<HashMap<String, Arc<Flight>>>,
    computes: AtomicU64,
    disk_hits: AtomicU64,
    joins: AtomicU64,
    quarantined: AtomicU64,
    store_failures: AtomicU64,
    logged: Mutex<HashSet<String>>,
}

impl Shared {
    fn new() -> Self {
        Shared {
            flights: Mutex::new(HashMap::new()),
            computes: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            joins: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            store_failures: AtomicU64::new(0),
            logged: Mutex::new(HashSet::new()),
        }
    }
}

/// Registry mapping canonical cache directories to their shared state, so
/// independently-opened stores on one directory single-flight together.
fn registry() -> &'static Mutex<HashMap<PathBuf, Weak<Shared>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<PathBuf, Weak<Shared>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A durable result cache over one directory: atomic writes,
/// corrupt-entry quarantine, and process-wide single-flight computation.
/// See the module docs for the guarantees.
#[derive(Clone)]
pub struct ResultStore {
    /// The canonical cache directory.
    dir: PathBuf,
    shared: Arc<Shared>,
}

impl ResultStore {
    /// Open (creating if needed) the store over `dir`. Stores opened on
    /// the same directory share one in-flight table and counter set.
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
        // Canonical, so two opens of one directory agree on identity.
        let dir = dir.canonicalize().map_err(|source| StoreError::Io {
            action: "resolving store dir",
            path: dir.to_path_buf(),
            source: Arc::new(source),
        })?;
        let mut reg = registry().lock().unwrap();
        // The registry holds weak references, so entries for dropped
        // stores linger as dead weaks; prune them here or the map grows
        // by one entry per distinct directory for the process lifetime
        // (real for long-lived servers cycling per-request temp dirs).
        reg.retain(|_, shared| shared.strong_count() > 0);
        let shared = match reg.get(&dir).and_then(Weak::upgrade) {
            Some(shared) => shared,
            None => {
                let shared = Arc::new(Shared::new());
                reg.insert(dir.clone(), Arc::downgrade(&shared));
                shared
            }
        };
        Ok(ResultStore { dir, shared })
    }

    /// Current counters for this store (shared across every store on
    /// the same canonical directory in this process).
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            computes: self.shared.computes.load(Ordering::Relaxed),
            disk_hits: self.shared.disk_hits.load(Ordering::Relaxed),
            joins: self.shared.joins.load(Ordering::Relaxed),
            quarantined: self.shared.quarantined.load(Ordering::Relaxed),
            store_failures: self.shared.store_failures.load(Ordering::Relaxed),
        }
    }

    /// Read the entry named `name`, distinguishing absent from damaged.
    ///
    /// Returns `Ok(None)` when the entry does not exist **or** when it
    /// exists but is unreadable as a result — in the latter case the
    /// entry is logged (once per path) and quarantined by renaming it
    /// to `<name>.corrupt`, so the next write lands cleanly and the
    /// damage stays inspectable.
    ///
    /// # Errors
    ///
    /// [`StoreError`] for read failures other than the entry being
    /// absent (permissions, I/O errors): those are
    /// environment problems the caller must hear about, not cache
    /// misses.
    pub fn load(&self, name: &str) -> Result<Option<SimResult>, StoreError> {
        let bytes = match self.read(name)? {
            Some(bytes) => bytes,
            None => return Ok(None),
        };
        match serde_json::from_slice(&bytes) {
            Ok(result) => {
                self.shared.disk_hits.fetch_add(1, Ordering::Relaxed);
                Ok(Some(result))
            }
            Err(parse_err) => {
                // Re-read before condemning the entry: a concurrent
                // writer may have atomically replaced the damaged bytes
                // with a clean entry since the read above — quarantining
                // then would throw away a valid result.
                if let Ok(Some(second)) = self.read(name) {
                    if second != bytes {
                        if let Ok(result) = serde_json::from_slice(&second) {
                            self.shared.disk_hits.fetch_add(1, Ordering::Relaxed);
                            return Ok(Some(result));
                        }
                    }
                }
                self.condemn(name, &parse_err);
                Ok(None)
            }
        }
    }

    /// Read the bytes of the entry named `name`. Absent is `Ok(None)`;
    /// only real failures (I/O errors) are `Err`.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        let path = self.dir.join(name);
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

    /// Quarantine a damaged entry by renaming it to `<name>.corrupt`
    /// and log it, once per entry path per store. Quarantine is
    /// best-effort: if the rename fails the damaged entry stays put and
    /// the atomic rewrite will replace it anyway. The caller re-reads
    /// before quarantining, but a writer landing in the remaining window
    /// only costs a recompute — a quarantined entry is treated as a
    /// miss, never as data loss.
    fn condemn(&self, name: &str, why: &serde_json::Error) {
        let path = self.dir.join(name);
        let mut corrupt = path.as_os_str().to_owned();
        corrupt.push(".corrupt");
        let corrupt = PathBuf::from(corrupt);
        let outcome = faults::rename(&path, &corrupt);
        // Count per successful quarantine, not per first-log: a failed
        // quarantine moved nothing, and an entry damaged again after a
        // clean rewrite is a new quarantine event even though its path
        // was already logged.
        if outcome.is_ok() {
            self.shared.quarantined.fetch_add(1, Ordering::Relaxed);
        }
        let label = path.display().to_string();
        if self.shared.logged.lock().unwrap().insert(label.clone()) {
            match outcome {
                Ok(()) => eprintln!(
                    "[store] damaged cache entry {label} ({why}); quarantined to {}",
                    corrupt.display()
                ),
                Err(e) => {
                    eprintln!("[store] damaged cache entry {label} ({why}); quarantine failed: {e}")
                }
            }
        }
    }

    /// Durably write `result` as the entry named `name`: the JSON goes
    /// to a fresh temp file (`<name>.tmp.<pid>.<seq>`) in the cache
    /// directory and is renamed into place, so concurrent readers (and
    /// readers after a crash) see either the previous state or the
    /// complete new entry — never a prefix. A failed write or rename
    /// removes the temp file, so no litter survives.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on serialization or I/O failure; unlike the old
    /// `store_cached`, nothing is discarded.
    pub fn store(&self, name: &str, result: &SimResult) -> Result<(), StoreError> {
        // Unique per writer so concurrent publishes of one key never
        // share a temp file; the final rename is the only point of
        // contention and it is atomic.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let json = serde_json::to_vec(result).map_err(StoreError::Serialize)?;
        let path = self.dir.join(name);
        let tmp = self.dir.join(format!(
            "{name}.tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        faults::write(&tmp, &json).map_err(|source| {
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

    /// [`try_get_or_compute`](ResultStore::try_get_or_compute) for a
    /// computation that cannot fail.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on cache *read* failures.
    ///
    /// # Panics
    ///
    /// Panics when this caller joined a flight that failed otherwise.
    pub fn get_or_compute<F>(
        &self,
        name: &str,
        fresh: bool,
        compute: F,
    ) -> Result<(SimResult, Fetch), StoreError>
    where
        F: FnOnce() -> SimResult,
    {
        match self.try_get_or_compute(name, fresh, || Ok(compute())) {
            Ok(hit) => Ok(hit),
            Err(RunError::Store(e)) => Err(e),
            Err(e) => panic!("joined computation failed: {e}"),
        }
    }

    /// Return the result for `name`, computing (and caching) it at most
    /// once per process across every concurrent caller.
    ///
    /// With `fresh` the on-disk entry is ignored (but still refreshed);
    /// deduplication against in-flight computations still applies.
    ///
    /// # Errors
    ///
    /// [`RunError::Store`] on cache *read* failures (a damaged directory
    /// must not masquerade as a miss), and the computation's own error
    /// when it fails. Either way the computing caller *and* every joined
    /// waiter receive the same error — a failed simulation is never
    /// mistaken for a cached one. A *write-back* failure after a
    /// successful computation is not an error: the leader and any
    /// joiners all receive the computed result (joiners already observe
    /// `Done` and cannot be retroactively failed), the incident is
    /// logged, and [`StoreCounters::store_failures`] increments.
    ///
    /// # Panics
    ///
    /// A panicking computation is a bug: the panic propagates to the
    /// computing caller, every joined waiter panics too, and the key is
    /// not wedged for later callers.
    pub fn try_get_or_compute<F>(
        &self,
        name: &str,
        fresh: bool,
        compute: F,
    ) -> Result<(SimResult, Fetch), RunError>
    where
        F: FnOnce() -> Result<SimResult, RunError>,
    {
        if !fresh {
            if let Some(result) = self.load(name)? {
                return Ok((result, Fetch::Disk));
            }
        }
        let (flight, leader) = {
            let mut flights = self.shared.flights.lock().unwrap();
            match flights.get(name) {
                Some(flight) => (Arc::clone(flight), false),
                None => {
                    let flight = Arc::new(Flight {
                        state: Mutex::new(FlightState::Running),
                        cv: Condvar::new(),
                    });
                    flights.insert(name.to_string(), Arc::clone(&flight));
                    (flight, true)
                }
            }
        };
        if !leader {
            self.shared.joins.fetch_add(1, Ordering::Relaxed);
            let mut state = flight.state.lock().unwrap();
            while matches!(*state, FlightState::Running) {
                state = flight.cv.wait(state).unwrap();
            }
            return match &*state {
                FlightState::Done(result) => Ok(((**result).clone(), Fetch::Joined)),
                FlightState::Failed(e) => Err(e.clone()),
                FlightState::Panicked => panic!("joined computation of {name} panicked"),
                FlightState::Running => unreachable!(),
            };
        }

        // Leader. The guard settles the flight entry (waiters notified,
        // entry removed) on every exit path — including panics — so a
        // failure never wedges later requests for the same key.
        let mut guard = FlightGuard {
            flight: &flight,
            flights: &self.shared.flights,
            name,
            outcome: FlightState::Panicked,
        };
        let outcome = self.lead(name, fresh, compute);
        guard.outcome = match &outcome {
            Ok((result, _)) => FlightState::Done(Box::new(result.clone())),
            Err(e) => FlightState::Failed(e.clone()),
        };
        outcome
    }

    /// The leader's half of [`try_get_or_compute`](Self::try_get_or_compute).
    fn lead<F>(&self, name: &str, fresh: bool, compute: F) -> Result<(SimResult, Fetch), RunError>
    where
        F: FnOnce() -> Result<SimResult, RunError>,
    {
        // Close the probe→flight window: another leader may have
        // computed and published (then retired its flight) between our
        // disk probe above and winning this flight. Re-checking under
        // leadership keeps "each unique point computes once" exact.
        if !fresh {
            if let Some(result) = self.load(name)? {
                return Ok((result, Fetch::Disk));
            }
        }
        self.shared.computes.fetch_add(1, Ordering::Relaxed);
        let result = compute()?;
        // The computation succeeded, so the leader and every joiner must
        // agree on the outcome: joiners see `Ok(Done)`, so a write-back
        // failure cannot turn the leader's answer into `Err` — the
        // result is valid, only its persistence failed. Log it, count
        // it, and serve the in-memory result; the next cold run
        // recomputes.
        if let Err(e) = self.store(name, &result) {
            self.shared.store_failures.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "[store] computed {name} but could not persist it ({e}); \
                 serving the in-memory result"
            );
        }
        Ok((result, Fetch::Computed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btbx_uarch::stats::SimStats;
    use std::fs;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn result(tag: &str, cycles: u64) -> SimResult {
        let stats = SimStats {
            cycles,
            instructions: 1_000,
            ..SimStats::default()
        };
        SimResult {
            workload: tag.to_string(),
            org: "conv".to_string(),
            fdip_enabled: true,
            btb_budget_bits: 1,
            stats,
        }
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("btbx-store-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = fresh_dir("roundtrip");
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.load("a.json").unwrap().is_none(), "absent is None");
        let r = result("w", 42);
        store.store("a.json", &r).unwrap();
        assert_eq!(store.load("a.json").unwrap().unwrap(), r);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn writes_leave_no_temp_files_and_are_atomic_renames() {
        let dir = fresh_dir("atomic");
        let store = ResultStore::open(&dir).unwrap();
        store.store("a.json", &result("w", 1)).unwrap();
        store.store("a.json", &result("w", 2)).unwrap();
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["a.json".to_string()], "temp files linger");
        // An abandoned temp file (a writer killed mid-write before the
        // rename) must never be read as an entry.
        fs::write(dir.join("b.json.tmp.999.0"), "{\"work").unwrap();
        assert!(store.load("b.json").unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_entries_are_quarantined_not_looped() {
        let dir = fresh_dir("quarantine");
        let store = ResultStore::open(&dir).unwrap();
        fs::write(dir.join("a.json"), "{\"workload\": garbage").unwrap();
        assert!(store.load("a.json").unwrap().is_none(), "damaged is None");
        assert!(
            dir.join("a.json.corrupt").exists(),
            "damage must be quarantined"
        );
        assert!(!dir.join("a.json").exists(), "path must be cleared");
        assert_eq!(store.counters().quarantined, 1);
        // The cleared path accepts a clean rewrite.
        let r = result("w", 7);
        store.store("a.json", &r).unwrap();
        assert_eq!(store.load("a.json").unwrap().unwrap(), r);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn io_errors_surface_instead_of_reading_as_misses() {
        let dir = fresh_dir("ioerr");
        let store = ResultStore::open(&dir).unwrap();
        // A directory where an entry should be: read fails with a real
        // error, which must not be collapsed into "absent".
        fs::create_dir_all(dir.join("a.json")).unwrap();
        let err = store.load("a.json").unwrap_err();
        assert!(err.to_string().contains("a.json"), "{err}");
        let err = store.store("a.json", &result("w", 1)).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn same_dir_stores_share_flights_and_counters() {
        let dir = fresh_dir("sharing");
        let a = ResultStore::open(&dir).unwrap();
        let b = ResultStore::open(&dir).unwrap();
        a.get_or_compute("k.json", false, || result("w", 3))
            .unwrap();
        assert_eq!(b.counters().computes, 1, "counters must be shared");
        let (_, fetch) = b
            .get_or_compute("k.json", false, || result("w", 4))
            .unwrap();
        assert_eq!(fetch, Fetch::Disk, "second call hits the disk entry");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_flight_computes_once_across_threads() {
        let dir = fresh_dir("flight");
        let store = ResultStore::open(&dir).unwrap();
        let computes = AtomicUsize::new(0);
        let barrier = Barrier::new(8);
        let results: Vec<(SimResult, Fetch)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        store
                            .get_or_compute("k.json", false, || {
                                computes.fetch_add(1, Ordering::Relaxed);
                                // Hold the flight open long enough for
                                // every peer to join it.
                                std::thread::sleep(std::time::Duration::from_millis(50));
                                result("w", 9)
                            })
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(computes.load(Ordering::Relaxed), 1, "exactly one compute");
        assert!(results.iter().all(|(r, _)| r.stats.cycles == 9));
        assert_eq!(
            results
                .iter()
                .filter(|(_, f)| *f == Fetch::Computed)
                .count(),
            1
        );
        assert!(results
            .iter()
            .all(|(_, f)| matches!(f, Fetch::Computed | Fetch::Joined)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_skips_the_disk_but_still_refreshes_it() {
        let dir = fresh_dir("fresh");
        let store = ResultStore::open(&dir).unwrap();
        store.store("k.json", &result("w", 1)).unwrap();
        let (r, fetch) = store
            .get_or_compute("k.json", true, || result("w", 2))
            .unwrap();
        assert_eq!(fetch, Fetch::Computed);
        assert_eq!(r.stats.cycles, 2);
        assert_eq!(
            store.load("k.json").unwrap().unwrap().stats.cycles,
            2,
            "fresh result must be written back"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_prunes_entries_for_dropped_stores() {
        let dir_a = fresh_dir("prune-a");
        let dir_b = fresh_dir("prune-b");
        let store_a = ResultStore::open(&dir_a).unwrap();
        let canonical_a = dir_a.canonicalize().unwrap();
        drop(store_a);
        // The next open prunes dead weak entries, so the dropped store's
        // directory no longer occupies a registry slot.
        let _store_b = ResultStore::open(&dir_b).unwrap();
        assert!(
            !registry().lock().unwrap().contains_key(&canonical_a),
            "registry must not accumulate dead entries"
        );
        // Reopening still works and gets fresh shared state.
        let reopened = ResultStore::open(&dir_a).unwrap();
        assert_eq!(reopened.counters().computes, 0);
        let _ = fs::remove_dir_all(&dir_a);
        let _ = fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn failed_quarantine_is_not_counted_but_a_repeat_damage_is() {
        let dir = fresh_dir("quarantine-count");
        let store = ResultStore::open(&dir).unwrap();
        // Block the quarantine path with a directory: rename(2) cannot
        // move a file onto a directory, so the quarantine fails and the
        // damaged entry stays in place.
        fs::create_dir_all(dir.join("a.json.corrupt")).unwrap();
        fs::write(dir.join("a.json"), "not json").unwrap();
        assert!(store.load("a.json").unwrap().is_none());
        assert_eq!(
            store.counters().quarantined,
            0,
            "a failed rename quarantined nothing"
        );
        assert!(dir.join("a.json").exists(), "the damage must stay put");
        // Unblock and damage the entry twice more: each successful
        // quarantine counts, even though the path was already logged.
        fs::remove_dir_all(dir.join("a.json.corrupt")).unwrap();
        assert!(store.load("a.json").unwrap().is_none());
        assert_eq!(store.counters().quarantined, 1);
        fs::write(dir.join("a.json"), "damaged again").unwrap();
        assert!(store.load("a.json").unwrap().is_none());
        assert_eq!(
            store.counters().quarantined,
            2,
            "re-damage after a quarantine is a new event"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_failure_after_compute_still_serves_the_result() {
        let dir = fresh_dir("storefail");
        let store = ResultStore::open(&dir).unwrap();
        // A directory squatting on the entry path makes the publishing
        // rename fail after the computation succeeds.
        fs::create_dir_all(dir.join("k.json")).unwrap();
        let (r, fetch) = store
            .get_or_compute("k.json", true, || result("w", 11))
            .unwrap();
        assert_eq!(fetch, Fetch::Computed);
        assert_eq!(r.stats.cycles, 11, "the computed result must be served");
        assert_eq!(store.counters().store_failures, 1);
        // The key is not wedged for later callers either.
        let (r2, fetch2) = store
            .get_or_compute("k.json", true, || result("w", 12))
            .unwrap();
        assert_eq!(fetch2, Fetch::Computed);
        assert_eq!(r2.stats.cycles, 12);
        assert_eq!(store.counters().store_failures, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // asserts that a panic propagates
    fn poisoned_flight_propagates_and_unwedges() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let dir = fresh_dir("poison");
        let store = ResultStore::open(&dir).unwrap();
        let boom = catch_unwind(AssertUnwindSafe(|| {
            store.get_or_compute("k.json", false, || panic!("sim died"))
        }));
        assert!(boom.is_err());
        // A failed computation is an error, not a panic, and does not
        // wedge the key either.
        let failed = store.try_get_or_compute("k.json", false, || {
            Err(RunError::Store(StoreError::Io {
                action: "sim failed",
                path: PathBuf::from("k.json"),
                source: Arc::new(io::Error::other("injected")),
            }))
        });
        assert!(
            matches!(&failed, Err(RunError::Store(StoreError::Io { action, .. })) if *action == "sim failed"),
            "{failed:?}"
        );
        // The key is not wedged: the next caller computes normally.
        let (r, fetch) = store
            .get_or_compute("k.json", false, || result("w", 5))
            .unwrap();
        assert_eq!(fetch, Fetch::Computed);
        assert_eq!(r.stats.cycles, 5);
        let _ = fs::remove_dir_all(&dir);
    }
}
