//! Differential suite for grouped sweep execution: a sweep runs its
//! points in groups that share one trace source, and that must be a pure
//! performance optimization — bit-identical statistics AND
//! byte-identical cache entries versus each point run alone with
//! `SimPoint::run` and published through its own `ResultStore`, for
//! every organization and across crash recovery. Any divergence here means
//! a group is simulating a *different* machine, not the same machine
//! faster. The suite also pins what the one sweep executor promises
//! beyond grouping: a point listed twice computes once, and no sweep
//! writes a journal.

use btbx_bench::store::ResultStore;
use btbx_bench::{HarnessOpts, SimPoint, Sweep};
use btbx_core::storage::BudgetPoint;
use btbx_core::OrgKind;
use btbx_trace::suite;
use btbx_uarch::SimResult;
use std::fs;
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("btbx-batchdiff-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts(out_dir: &Path) -> HarnessOpts {
    HarnessOpts {
        warmup: 2_000,
        measure: 4_000,
        offset_instrs: 10_000,
        fresh: false,
        out_dir: out_dir.to_path_buf(),
        threads: 4,
        shards: 1,
        trace: None,
        batch: true,
    }
}

/// The per-point reference: every point of `sweep` run alone with
/// `SimPoint::run` and published through a `ResultStore` of its own
/// under `dir/cache`.
fn per_point(sweep: &Sweep, dir: &Path) -> Vec<SimResult> {
    let store = ResultStore::open(dir.join("cache")).unwrap();
    sweep
        .points()
        .iter()
        .map(|p| {
            store
                .get_or_compute(&p.cache_file(), false, || p.run())
                .unwrap()
                .0
        })
        .collect()
}

/// Assert that two output directories hold byte-identical cache entries
/// for every point of `sweep`.
fn assert_cache_bytes_equal(sweep: &Sweep, a: &Path, b: &Path) {
    for p in sweep.points() {
        let name = p.cache_file();
        let ba = fs::read(a.join("cache").join(&name))
            .unwrap_or_else(|e| panic!("{}: {e}", a.join("cache").join(&name).display()));
        let bb = fs::read(b.join("cache").join(&name))
            .unwrap_or_else(|e| panic!("{}: {e}", b.join("cache").join(&name).display()));
        assert_eq!(ba, bb, "cache entry bytes diverge for {name}");
    }
}

/// Every organization the factory knows, at three budget tiers: if any
/// member's pipeline interaction (decode resteer, FDIP, MSHR timeliness)
/// leaked across members, at least one of these points would diverge.
#[test]
fn batched_matches_per_point_for_every_org_and_budget() {
    let sweep = Sweep::named("diff-all-orgs")
        .workloads(suite::ipc1_client().into_iter().take(1))
        .orgs(OrgKind::ALL)
        .budgets([BudgetPoint::Kb1_8, BudgetPoint::Kb3_6, BudgetPoint::Kb14_5])
        .fdip_options([true])
        .windows(2_000, 4_000);
    let batched_dir = scratch("all-orgs-batched");
    let serial_dir = scratch("all-orgs-serial");

    let batched = sweep.run(&opts(&batched_dir));
    let serial = per_point(&sweep, &serial_dir);
    assert_eq!(batched.len(), OrgKind::ALL.len() * 3);
    for (b, s) in batched.iter().zip(&serial) {
        assert_eq!(
            b, s,
            "group member diverges from the per-point run for {}@{}",
            b.org, b.btb_budget_bits
        );
    }
    assert_cache_bytes_equal(&sweep, &batched_dir, &serial_dir);
    let _ = fs::remove_dir_all(&batched_dir);
    let _ = fs::remove_dir_all(&serial_dir);
}

/// Crash recovery under grouping: with some members of a group
/// published and the rest lost, rerunning the sweep restores exactly the
/// published points from the cache and recomputes only the missing ones
/// — at member granularity, not group granularity.
#[test]
fn resume_restores_exactly_completed_points_under_batching() {
    let sweep = Sweep::named("diff-resume")
        .workloads(suite::ipc1_client().into_iter().take(1))
        .orgs([OrgKind::Conv, OrgKind::BtbX])
        .budgets([BudgetPoint::Kb1_8, BudgetPoint::Kb14_5])
        .fdip_options([false])
        .windows(2_000, 4_000);
    let dir = scratch("resume");
    let first = sweep.run(&opts(&dir));
    assert_eq!(first.len(), 4);
    let names: Vec<String> = sweep.points().iter().map(|p| p.cache_file()).collect();
    let baseline: Vec<Vec<u8>> = names
        .iter()
        .map(|n| fs::read(dir.join("cache").join(n)).unwrap())
        .collect();

    // Simulate a crash after two members published: the other two
    // entries never landed.
    for name in &names[2..] {
        fs::remove_file(dir.join("cache").join(name)).unwrap();
    }

    let store = ResultStore::open(dir.join("cache")).unwrap();
    let resumed: Vec<SimResult> = sweep.run(&opts(&dir));

    assert_eq!(resumed, first, "resumed sweep must reproduce the matrix");
    let counters = store.counters();
    assert_eq!(
        counters.computes, 2,
        "exactly the lost members recompute; published points are restored"
    );
    assert_eq!(counters.disk_hits, 2, "{counters:?}");
    for (name, bytes) in names.iter().zip(&baseline) {
        let now = fs::read(dir.join("cache").join(name)).unwrap();
        assert_eq!(&now, bytes, "recomputed entry bytes diverge for {name}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Grouping is invisible in every published artifact even when the
/// planner forms several mixed groups (two workloads, both FDIP
/// settings).
#[test]
fn mixed_workload_groups_match_per_point_end_to_end() {
    let sweep = Sweep::named("diff-mixed")
        .workloads(suite::ipc1_client().into_iter().take(2))
        .orgs([OrgKind::Pdede, OrgKind::BtbXNoXc])
        .budgets([BudgetPoint::Kb3_6])
        .fdip_both()
        .windows(2_000, 4_000);
    let batched_dir = scratch("mixed-batched");
    let serial_dir = scratch("mixed-serial");

    let batched = sweep.run(&opts(&batched_dir));
    let serial = per_point(&sweep, &serial_dir);
    assert_eq!(batched, serial);
    assert_cache_bytes_equal(&sweep, &batched_dir, &serial_dir);
    let _ = fs::remove_dir_all(&batched_dir);
    let _ = fs::remove_dir_all(&serial_dir);
}

/// A matrix that lists one point twice computes it once: the duplicate
/// answers from the first's result and is never dispatched, so the
/// store sees no join and no disk hit for it.
#[test]
fn a_duplicated_org_computes_each_point_once() {
    let sweep = Sweep::named("diff-twice")
        .workloads(suite::ipc1_client().into_iter().take(1))
        .orgs([OrgKind::Conv, OrgKind::BtbX, OrgKind::Conv])
        .budgets([BudgetPoint::Kb0_9])
        .fdip_options([false])
        .windows(2_000, 4_000);
    let points = sweep.points();
    assert_eq!(points.len(), 3);
    let expected: Vec<SimResult> = points.iter().map(SimPoint::run).collect();

    let dir = scratch("twice");
    let store = ResultStore::open(dir.join("cache")).unwrap();
    assert_eq!(sweep.run(&opts(&dir)), expected);
    let counters = store.counters();
    assert_eq!(counters.computes, 2, "{counters:?}");
    assert_eq!(
        counters.joins + counters.disk_hits,
        0,
        "the duplicate is never dispatched: {counters:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// No sweep writes under `<out>/cache/journal/`: the cache is the whole
/// crash-recovery record. Pinned for a sweep that completes and for one
/// whose point fails (its trace container is gone).
#[test]
fn no_sweep_leaves_a_journal() {
    use btbx_trace::container::write_container;
    use btbx_trace::WorkloadSpec;

    let base = scratch("no-journal");
    fs::create_dir_all(&base).unwrap();
    let trace = base.join("gone.btbt");
    let mut stream = suite::ipc1_client()[0].build_trace();
    let file = fs::File::create(&trace).unwrap();
    write_container(file, "gone", btbx_core::Arch::Arm64, &mut stream, 20_000).unwrap();
    let workload = WorkloadSpec::from_container(&trace).unwrap();
    fs::remove_file(&trace).unwrap();
    let failing = Sweep::named("diff-gone")
        .workloads([workload])
        .orgs([OrgKind::Conv])
        .budgets([BudgetPoint::Kb0_9])
        .fdip_options([false])
        .windows(1_000, 2_000);
    let completing = Sweep::named("diff-done")
        .workloads(suite::ipc1_client().into_iter().take(2))
        .orgs([OrgKind::Conv, OrgKind::BtbX])
        .budgets([BudgetPoint::Kb0_9])
        .fdip_options([false])
        .windows(2_000, 4_000);

    for (tag, sweep, fails) in [("done", completing, false), ("failed", failing, true)] {
        let out = base.join(format!("local-{tag}"));
        let outcome = sweep.try_run(&opts(&out));
        assert_eq!(outcome.is_err(), fails, "{tag}: {outcome:?}");
        assert!(out.join("cache").is_dir(), "{}", out.display());
        assert!(
            !out.join("cache").join("journal").exists(),
            "{tag}: {} has a journal",
            out.display()
        );
    }
    let _ = fs::remove_dir_all(&base);
}
