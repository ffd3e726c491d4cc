//! Backend-conformance suite for the content-addressed [`Store`] trait:
//! every backend (`dir://`, `mem://`) must uphold the same guarantees
//! behind [`ResultStore`] — publish/load round-trips, damaged-entry
//! quarantine, and single-flight computation.

use btbx_bench::opts::StoreUrl;
use btbx_bench::store::{open_store, MemStore, ResultStore};
use btbx_uarch::stats::SimStats;
use btbx_uarch::SimResult;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

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

/// Every backend under test, each with its own label, under a fresh
/// scratch directory.
fn all_backends(tag: &str) -> (PathBuf, Vec<(&'static str, ResultStore)>) {
    let out = scratch(tag);
    let stores = vec![
        (
            "dir",
            ResultStore::open(out.join("dir-backend")).expect("dir opens"),
        ),
        ("mem", ResultStore::open_backend(Arc::new(MemStore::new()))),
    ];
    (out, stores)
}

#[test]
fn every_backend_round_trips_results_and_reports_absent_as_none() {
    let (out, stores) = all_backends("roundtrip");
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
        assert_eq!(store.counters().disk_hits, 1, "[{name}] load counted");
    }
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn every_backend_treats_damaged_entries_as_misses_and_recovers() {
    let (out, stores) = all_backends("damaged");
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
    let (out, stores) = all_backends("singleflight");
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
fn open_store_builds_the_backend_a_url_names() {
    let out = scratch("urls");
    for (url, id_prefix) in [
        (StoreUrl::Dir(out.join("u-dir")), "dir://"),
        (StoreUrl::Mem, "mem://"),
    ] {
        let backend = open_store(&url).expect("opens");
        assert!(
            backend.id().starts_with(id_prefix),
            "{url} -> {}",
            backend.id()
        );
        backend.put("k", b"v").unwrap();
        assert_eq!(backend.get("k").unwrap().as_deref(), Some(&b"v"[..]));
    }
    let _ = fs::remove_dir_all(&out);
}
