//! Concurrency and durability of the shared result cache: overlapping
//! sweeps on one cache directory must agree byte-for-byte, never observe
//! torn entries, and compute each unique point exactly once.
//!
//! This is the regression suite for the pre-`ResultStore` cache, which
//! wrote entries with a bare `fs::write` (torn files under concurrency or
//! crashes) and recomputed every point per run when racing.

use btbx_bench::faults::{self, ErrKind, FaultOp, FaultPlan, FaultRule};
use btbx_bench::store::{ResultStore, StoreError};
use btbx_bench::{HarnessOpts, Sweep};
use btbx_core::storage::BudgetPoint;
use btbx_core::OrgKind;
use btbx_trace::suite;
use btbx_uarch::stats::SimStats;
use btbx_uarch::SimResult;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::{Barrier, Mutex};

/// The armed fault plan is process-global; tests that arm one are
/// serialized so they cannot replace each other's schedules. Rules are
/// additionally path-scoped to each test's unique temp directory, so
/// the non-fault tests in this binary are unaffected by an armed plan.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// One fault rule scoped to `scope` (a unique temp-dir substring).
fn rule(op: FaultOp, kind: ErrKind, scope: &str, nth: u64, count: u64) -> FaultRule {
    FaultRule {
        op,
        kind,
        path: scope.to_string(),
        nth,
        count,
        delay_ms: 0,
    }
}

/// A synthetic result for direct store calls (no simulation needed).
fn canned_result(cycles: u64) -> SimResult {
    SimResult {
        workload: "fault".to_string(),
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

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("btbx-conc-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts(out_dir: &std::path::Path) -> HarnessOpts {
    HarnessOpts {
        warmup: 2_000,
        measure: 4_000,
        offset_instrs: 10_000,
        fresh: false,
        out_dir: out_dir.to_path_buf(),
        threads: 4,
        shards: 1,
        trace: None,
        http_timeout_ms: 600_000,
        batch: true,
        fault_plan: None,
        store: None,
    }
}

fn four_point_sweep() -> Sweep {
    Sweep::named("conc")
        .workloads(suite::ipc1_client().into_iter().take(2))
        .orgs([OrgKind::Conv, OrgKind::BtbX])
        .budgets([BudgetPoint::Kb0_9])
        .fdip_options([false])
        .windows(2_000, 4_000)
}

#[test]
fn concurrent_sweeps_share_one_computation_per_point() {
    let out = scratch("sweeps");
    let sweep = four_point_sweep();
    let opts = opts(&out);
    // Open (and hold) a store handle first: per-directory counters and
    // flights are shared only among concurrently-live stores.
    let store = ResultStore::open(out.join("cache")).unwrap();
    let barrier = Barrier::new(2);
    let (a, b): (Vec<SimResult>, Vec<SimResult>) = std::thread::scope(|scope| {
        let ra = scope.spawn(|| {
            barrier.wait();
            sweep.run(&opts)
        });
        let rb = scope.spawn(|| {
            barrier.wait();
            sweep.run(&opts)
        });
        (ra.join().unwrap(), rb.join().unwrap())
    });

    // Byte-identical results in both runs (SimResult: Eq covers every
    // stat; serialization equality pins the cached bytes too).
    assert_eq!(a.len(), 4);
    assert_eq!(a, b, "concurrent sweeps must agree exactly");

    // The single-flight path computed each unique point exactly once
    // even though both sweeps missed the (empty) cache.
    let counters = store.counters();
    assert_eq!(
        counters.computes, 4,
        "each unique point computes once across both sweeps: {counters:?}"
    );
    assert_eq!(counters.quarantined, 0, "no entry may be damaged");

    // Every cache entry on disk is complete and parseable — no torn
    // writes, no lingering temp files.
    let mut entries = 0;
    for entry in fs::read_dir(out.join("cache")).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            name.ends_with(".json"),
            "unexpected cache artifact: {name} (temp file leak?)"
        );
        let text = fs::read_to_string(&path).unwrap();
        let _: SimResult = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("torn or damaged entry {name}: {e}"));
        entries += 1;
    }
    assert_eq!(entries, 4);
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn second_sweep_rides_the_cache_with_zero_computes() {
    let out = scratch("warm");
    let sweep = four_point_sweep();
    let opts = opts(&out);
    let store = ResultStore::open(out.join("cache")).unwrap();
    let first = sweep.run(&opts);
    let computes_after_first = store.counters().computes;
    assert_eq!(computes_after_first, 4, "cold sweep computes everything");
    let second = sweep.run(&opts);
    assert_eq!(first, second);
    assert_eq!(
        store.counters().computes,
        computes_after_first,
        "warm sweep must be served entirely from disk"
    );
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn sweeps_racing_with_damaged_entries_recover() {
    let out = scratch("damage");
    let sweep = four_point_sweep();
    let opts = opts(&out);
    let first = sweep.run(&opts);

    // Damage two entries the way a torn legacy write would have: one
    // truncated JSON prefix, one garbage file.
    let cache = out.join("cache");
    let mut names: Vec<PathBuf> = fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    names.sort();
    fs::write(&names[0], "{\"workload\":\"cli").unwrap();
    fs::write(&names[1], "not json at all").unwrap();

    let again = sweep.run(&opts);
    assert_eq!(first, again, "recovered results must match the originals");
    // The damaged bytes are preserved for inspection, not silently lost.
    let corrupt: Vec<_> = fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".corrupt"))
        .collect();
    assert_eq!(corrupt.len(), 2, "both damaged entries quarantined");
    let _ = fs::remove_dir_all(&out);
}

/// Every file currently in `dir` (names only), for litter assertions.
fn dir_names(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn injected_enospc_fails_the_store_loudly_with_no_half_entries() {
    let _serial = fault_lock();
    let out = scratch("fault-enospc");
    let cache = out.join("cache");
    let store = ResultStore::open(&cache).unwrap();
    // Writes 1 and 2 under this test's directory hit a full disk; the
    // scope substring keeps every other test's I/O untouched.
    let _guard = faults::arm(FaultPlan {
        seed: 1,
        rules: vec![rule(
            FaultOp::Write,
            ErrKind::Enospc,
            "btbx-conc-fault-enospc",
            1,
            2,
        )],
    });

    // A direct store fails loudly with the real error kind — never a
    // silent recompute-forever degradation.
    let err = store.store("a.json", &canned_result(1)).unwrap_err();
    match &err {
        StoreError::Io { source, .. } => {
            assert_eq!(source.kind(), io::ErrorKind::StorageFull, "{err}");
        }
        other => panic!("expected Io, got {other}"),
    }
    // The failed temp write must not leave a half-entry behind.
    assert_eq!(dir_names(&cache), Vec::<String>::new(), "no litter");

    // Through the single-flight path the computed result is still
    // served (joiners cannot be retroactively failed), the incident is
    // counted, and nothing torn reaches the directory.
    let (r, _) = store
        .get_or_compute("a.json", true, || canned_result(2))
        .unwrap();
    assert_eq!(r.stats.cycles, 2);
    assert_eq!(store.counters().store_failures, 1, "exactly one failure");
    assert_eq!(dir_names(&cache), Vec::<String>::new(), "no litter");

    // The plan is exhausted (count = 2): the next publish lands and the
    // entry is complete and parseable.
    store.store("a.json", &canned_result(3)).unwrap();
    assert_eq!(store.load("a.json").unwrap().unwrap().stats.cycles, 3);
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn injected_rename_failure_is_loud_and_removes_the_temp_file() {
    let _serial = fault_lock();
    let out = scratch("fault-rename");
    let cache = out.join("cache");
    let store = ResultStore::open(&cache).unwrap();
    let guard = faults::arm(FaultPlan {
        seed: 2,
        rules: vec![rule(
            FaultOp::Rename,
            ErrKind::RenameFail,
            "btbx-conc-fault-rename",
            1,
            1,
        )],
    });

    // The temp write succeeds but the publishing rename never lands:
    // the caller hears about it and the orphaned temp file is removed.
    let err = store.store("a.json", &canned_result(4)).unwrap_err();
    match &err {
        StoreError::Io { action, source, .. } => {
            assert_eq!(*action, "publishing store entry");
            assert_eq!(source.kind(), io::ErrorKind::PermissionDenied, "{err}");
        }
        other => panic!("expected Io, got {other}"),
    }
    assert_eq!(dir_names(&cache), Vec::<String>::new(), "no temp litter");

    drop(guard);
    store.store("a.json", &canned_result(5)).unwrap();
    assert_eq!(store.load("a.json").unwrap().unwrap().stats.cycles, 5);
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn quarantine_counters_are_exact_when_the_quarantine_rename_is_injected() {
    let _serial = fault_lock();
    let out = scratch("fault-quarantine");
    let cache = out.join("cache");
    let store = ResultStore::open(&cache).unwrap();
    fs::write(cache.join("a.json"), "not json at all").unwrap();

    // While the quarantine rename itself fails, nothing was
    // quarantined: the counter must stay at zero and the damage must
    // stay in place for the next attempt.
    let guard = faults::arm(FaultPlan {
        seed: 3,
        rules: vec![rule(
            FaultOp::Rename,
            ErrKind::RenameFail,
            "btbx-conc-fault-quarantine",
            1,
            1,
        )],
    });
    assert!(store.load("a.json").unwrap().is_none(), "damaged is a miss");
    assert_eq!(
        store.counters().quarantined,
        0,
        "a failed quarantine rename quarantined nothing"
    );
    assert!(cache.join("a.json").exists(), "damage stays put");

    // Once the injected failure clears, the same damage quarantines
    // exactly once.
    drop(guard);
    assert!(store.load("a.json").unwrap().is_none());
    assert_eq!(store.counters().quarantined, 1, "exactly one quarantine");
    assert!(cache.join("a.json.corrupt").exists());
    assert!(!cache.join("a.json").exists());
    let _ = fs::remove_dir_all(&out);
}
