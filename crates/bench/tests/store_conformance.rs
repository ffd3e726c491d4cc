//! Conformance suite for [`ResultStore`] over its cache directory:
//! publish/load round-trips, absent-as-`None`, damaged-entry quarantine
//! to `.corrupt`, and single-flight computation.

use btbx_bench::store::ResultStore;
use btbx_uarch::stats::SimStats;
use btbx_uarch::SimResult;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

/// A fresh scratch cache directory and the store over it.
fn open(tag: &str) -> (PathBuf, ResultStore) {
    let dir = std::env::temp_dir().join(format!("btbx-storeconf-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).expect("store opens");
    (dir, store)
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

#[test]
fn round_trips_results_and_reports_absent_as_none() {
    let (dir, store) = open("roundtrip");
    assert_eq!(
        store.load("absent.json").unwrap(),
        None,
        "absent entries read as None, not as errors"
    );
    let result = canned_result(7);
    store.store("a.json", &result).unwrap();
    let loaded = store
        .load("a.json")
        .unwrap()
        .expect("stored entry must load");
    assert_eq!(loaded, result, "round-trip equality");
    assert_eq!(store.counters().disk_hits, 1, "load counted");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn damaged_entries_are_misses_quarantined_and_recovered() {
    let (dir, store) = open("damaged");
    fs::write(dir.join("bad.json"), b"{ not json !!").unwrap();
    assert_eq!(
        store.load("bad.json").unwrap(),
        None,
        "damaged entries are misses, never parse errors"
    );
    assert!(
        dir.join("bad.json.corrupt").exists(),
        "the damage is preserved as .corrupt evidence"
    );
    // The atomic rewrite lands cleanly over the cleared path.
    let result = canned_result(11);
    store.store("bad.json", &result).unwrap();
    assert_eq!(
        store.load("bad.json").unwrap(),
        Some(result),
        "a clean rewrite replaces the damaged entry"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn single_flights_concurrent_computes() {
    let (dir, store) = open("singleflight");
    let computed = AtomicU64::new(0);
    let threads = 4;
    let keys = ["p1.json", "p2.json"];
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
                        .unwrap();
                    assert_eq!(result.stats.cycles, 42);
                });
            }
        }
    });
    assert_eq!(
        computed.load(Ordering::Relaxed),
        keys.len() as u64,
        "computes == unique points across {threads} callers/key"
    );
    assert_eq!(store.counters().computes, keys.len() as u64);
    let _ = fs::remove_dir_all(&dir);
}
