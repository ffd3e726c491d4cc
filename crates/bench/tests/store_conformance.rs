//! Backend-conformance suite for the content-addressed [`Store`] trait:
//! every backend (`dir://`, `mem://`, `http://`) must
//! uphold the same guarantees behind [`ResultStore`] — publish/load
//! round-trips, damaged-entry quarantine (or absent-equivalence where
//! quarantine is unsupported), and single-flight computation — and the
//! HTTP backend must turn injected transport faults into typed
//! [`StoreError`]s rather than hangs or panics.

use btbx_bench::faults::{self, ErrKind, FaultOp, FaultPlan, FaultRule};
use btbx_bench::opts::StoreUrl;
use btbx_bench::serve::{ServeConfig, Server};
use btbx_bench::store::{open_store, HttpStore, MemStore, ResultStore, Store, StoreError};
use btbx_uarch::stats::SimStats;
use btbx_uarch::SimResult;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// The armed fault plan is process-global; tests that arm one are
/// serialized, and rules are scoped to this test's unique server
/// address so the other tests in this binary are unaffected.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("btbx-storeconf-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn canned_result(cycles: u64) -> SimResult {
    SimResult {
        workload: "conformance".to_string(),
        org: "conv".to_string(),
        fdip_enabled: false,
        btb_budget_bits: 1,
        stats: SimStats {
            cycles,
            instructions: 1_000,
            ..SimStats::default()
        },
    }
}

const TIMEOUT: Duration = Duration::from_secs(10);

/// A blob host for the remote-backed stores: a plain `btbx serve` node
/// over its own `dir://` cache.
fn blob_host(tag: &str) -> (Server, PathBuf) {
    let out = scratch(tag);
    let server = Server::start(ServeConfig {
        port: 0,
        cache_dir: out.join("cache"),
        threads: 2,
        shards: 1,
        max_inflight: 0,
        deadline: None,
        store: None,
        http_timeout: TIMEOUT,
    })
    .expect("blob host starts");
    (server, out)
}

/// Every backend under test, each with its own label. The server handle
/// keeps the `http://` backend's peer alive.
fn all_backends(tag: &str) -> (Server, PathBuf, Vec<(&'static str, ResultStore)>) {
    let (server, out) = blob_host(tag);
    let addr = server.addr().to_string();
    let stores = vec![
        (
            "dir",
            ResultStore::open(out.join("dir-backend")).expect("dir opens"),
        ),
        ("mem", ResultStore::open_backend(Arc::new(MemStore::new()))),
        (
            "http",
            ResultStore::open_url(&StoreUrl::Http(addr), TIMEOUT).expect("http opens"),
        ),
    ];
    (server, out, stores)
}

#[test]
fn every_backend_round_trips_results_and_reports_absent_as_none() {
    let (_server, out, stores) = all_backends("roundtrip");
    for (name, store) in &stores {
        let id = store.backend().id();
        assert_eq!(
            store
                .load("absent.json")
                .unwrap_or_else(|e| panic!("[{name}] {e}")),
            None,
            "[{name}] absent entries read as None, not as errors"
        );
        let result = canned_result(7);
        store
            .store("a.json", &result)
            .unwrap_or_else(|e| panic!("[{name}] {e}"));
        let loaded = store
            .load("a.json")
            .unwrap_or_else(|e| panic!("[{name}] {e}"))
            .unwrap_or_else(|| panic!("[{name}] stored entry must load"));
        assert_eq!(loaded, result, "[{name}] ({id}) round-trip equality");
        assert!(
            store.backend().has("a.json").unwrap(),
            "[{name}] has() sees the published entry"
        );
        assert!(
            !store.backend().has("absent.json").unwrap(),
            "[{name}] has() is false for absent keys"
        );
        assert_eq!(store.counters().disk_hits, 1, "[{name}] load counted");
    }
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn every_backend_treats_damaged_entries_as_misses_and_recovers() {
    let (_server, out, stores) = all_backends("damaged");
    for (name, store) in &stores {
        store
            .backend()
            .put("bad.json", b"{ not json !!")
            .unwrap_or_else(|e| panic!("[{name}] {e}"));
        assert_eq!(
            store
                .load("bad.json")
                .unwrap_or_else(|e| panic!("[{name}] {e}")),
            None,
            "[{name}] damaged entries are misses, never parse errors"
        );
        // The atomic rewrite lands cleanly over (or beside) the damage.
        let result = canned_result(11);
        store
            .store("bad.json", &result)
            .unwrap_or_else(|e| panic!("[{name}] {e}"));
        assert_eq!(
            store
                .load("bad.json")
                .unwrap_or_else(|e| panic!("[{name}] {e}")),
            Some(result),
            "[{name}] a clean rewrite replaces the damaged entry"
        );
    }
    // Local backends preserve the damage as evidence.
    assert!(
        out.join("dir-backend").join("bad.json.corrupt").exists(),
        "dir backend quarantines to .corrupt"
    );
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn every_backend_single_flights_concurrent_computes() {
    let (_server, out, stores) = all_backends("singleflight");
    for (name, store) in &stores {
        let computed = AtomicU64::new(0);
        let threads = 4;
        let keys = [format!("{name}-p1.json"), format!("{name}-p2.json")];
        let barrier = Barrier::new(threads * keys.len());
        std::thread::scope(|scope| {
            for key in &keys {
                for _ in 0..threads {
                    let store = store.clone();
                    let computed = &computed;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        let (result, _fetch) = store
                            .get_or_compute(key, false, || {
                                computed.fetch_add(1, Ordering::Relaxed);
                                // Hold the flight open long enough for
                                // peers to join rather than disk-hit.
                                std::thread::sleep(Duration::from_millis(30));
                                canned_result(42)
                            })
                            .unwrap_or_else(|e| panic!("[{name}] {e}"));
                        assert_eq!(result.stats.cycles, 42);
                    });
                }
            }
        });
        assert_eq!(
            computed.load(Ordering::Relaxed),
            keys.len() as u64,
            "[{name}] computes == unique points across {threads} callers/key"
        );
        assert_eq!(store.counters().computes, keys.len() as u64, "[{name}]");
    }
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn remote_counters_track_hits_misses_and_bytes() {
    let (_server, out, stores) = all_backends("counters");
    for (name, store) in &stores {
        let Some(_) = store.backend().remote_counters() else {
            continue; // dir://, mem://: no remote tier to count.
        };
        let key = format!("{name}-m.json");
        assert_eq!(store.load(&key).unwrap(), None);
        store.store(&key, &canned_result(3)).unwrap();
        // http:// refetches on the re-read.
        let _ = store.load(&key).unwrap();
        let counters = store.counters();
        assert!(
            counters.remote_misses >= 1,
            "[{name}] the absent probe counts as a remote miss"
        );
        assert!(counters.remote_hits >= 1, "[{name}] refetch counts");
        assert!(counters.remote_fetch_bytes > 0, "[{name}] bytes counted");
        assert_eq!(counters.remote_errors, 0, "[{name}] no errors in this test");
    }
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn injected_transport_faults_surface_as_typed_errors_not_hangs() {
    let _serial = fault_lock();
    let (server, out, _stores) = all_backends("faults");
    let addr = server.addr().to_string();
    let store = ResultStore::open_url(&StoreUrl::Http(addr.clone()), TIMEOUT).unwrap();
    store.store("f.json", &canned_result(9)).unwrap();

    // A reset connection is a typed StoreError::Remote, and counted.
    let guard = faults::arm(FaultPlan {
        seed: 11,
        rules: vec![FaultRule {
            op: FaultOp::Connect,
            kind: ErrKind::ConnReset,
            path: addr.clone(),
            nth: 1,
            count: 1,
            delay_ms: 0,
        }],
    });
    match store.load("f.json") {
        Err(StoreError::Remote { action, url, .. }) => {
            assert_eq!(action, "fetching remote blob");
            assert!(url.contains("/blob/f.json"), "{url}");
        }
        other => panic!("expected StoreError::Remote, got {other:?}"),
    }
    assert!(store.counters().remote_errors >= 1, "error was counted");
    drop(guard);

    // A slow read delays but completes: bounded, typed, no hang.
    let guard = faults::arm(FaultPlan {
        seed: 12,
        rules: vec![FaultRule {
            op: FaultOp::HttpRead,
            kind: ErrKind::SlowRead,
            path: addr.clone(),
            nth: 1,
            count: 1,
            delay_ms: 50,
        }],
    });
    let begin = Instant::now();
    let loaded = store.load("f.json").expect("slow read still completes");
    assert_eq!(loaded, Some(canned_result(9)));
    assert!(
        begin.elapsed() < TIMEOUT,
        "the slow read must finish well inside the request timeout"
    );
    drop(guard);
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn open_store_builds_the_backend_a_url_names() {
    let (server, out, _stores) = all_backends("urls");
    let addr = server.addr().to_string();
    for (url, id_prefix) in [
        (StoreUrl::Dir(out.join("u-dir")), "dir://"),
        (StoreUrl::Mem, "mem://"),
        (StoreUrl::Http(addr), "http://"),
    ] {
        let backend = open_store(&url, TIMEOUT).expect("opens");
        assert!(
            backend.id().starts_with(id_prefix),
            "{url} -> {}",
            backend.id()
        );
        backend.put("k", b"v").unwrap();
        assert_eq!(backend.get("k").unwrap().as_deref(), Some(&b"v"[..]));
    }
    // An HttpStore against a dead peer errors out instead of hanging.
    let dead = HttpStore::new("127.0.0.1:1", Duration::from_millis(500));
    match dead.get("k") {
        Err(StoreError::Remote { .. }) => {}
        other => panic!("expected Remote error from a dead peer, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&out);
}
