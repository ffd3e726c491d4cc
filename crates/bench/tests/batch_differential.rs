//! Differential suite for grouped sweep execution: a sweep runs its
//! points in groups that share one trace source, and that must be a pure
//! performance optimization — bit-identical statistics AND
//! byte-identical cache entries versus each point run alone with
//! `SimPoint::run` and published through its own `ResultStore`, for
//! every organization, across sharding, warm-ladder reuse and
//! crash-resume. Any divergence here means a group is simulating a
//! *different* machine, not the same machine faster.

use btbx_bench::journal::{self, SweepJournal};
use btbx_bench::store::ResultStore;
use btbx_bench::sweep::RunOpts;
use btbx_bench::{HarnessOpts, Sweep};
use btbx_core::storage::BudgetPoint;
use btbx_core::OrgKind;
use btbx_trace::suite;
use btbx_uarch::{AnyWarmLadder, SimResult};
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
        http_timeout_ms: 600_000,
        resume: false,
        batch: true,
        fault_plan: None,
        store: None,
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

/// Sharding composed with grouping: a group of four runs its members
/// unsharded, which per the cache-v3 contract (sharded == serial,
/// bit-for-bit) must still publish the bytes a per-point run would.
#[test]
fn sharded_sweep_matches_per_point_bytes() {
    let sweep = Sweep::named("diff-sharded")
        .workloads(suite::ipc1_client().into_iter().take(1))
        .orgs([OrgKind::Conv, OrgKind::BtbX])
        .budgets([BudgetPoint::Kb3_6])
        .fdip_both()
        .windows(2_000, 4_000);
    let sharded_dir = scratch("sharded-batched");
    let serial_dir = scratch("sharded-serial");
    let mut sharded_opts = opts(&sharded_dir);
    sharded_opts.shards = 3;

    let sharded_batched = sweep.run(&sharded_opts);
    let serial = per_point(&sweep, &serial_dir);
    assert_eq!(sharded_batched, serial);
    assert_cache_bytes_equal(&sweep, &sharded_dir, &serial_dir);
    let _ = fs::remove_dir_all(&sharded_dir);
    let _ = fs::remove_dir_all(&serial_dir);
}

/// Warm-ladder reuse next to grouping: the serve layer restores warmed
/// microarchitectural state from an [`AnyWarmLadder`] across repeat
/// runs; those restored runs must agree exactly with what a grouped
/// sweep published for the same points.
#[test]
fn warm_ladder_reuse_stays_bit_identical_alongside_batching() {
    let sweep = Sweep::named("diff-warm")
        .workloads(suite::ipc1_client().into_iter().take(1))
        .orgs([OrgKind::Conv, OrgKind::BtbX])
        .budgets([BudgetPoint::Kb3_6])
        .fdip_options([false])
        .windows(2_000, 4_000);
    let dir = scratch("warm-batched");
    let batched = sweep.run(&opts(&dir));
    for (point, expected) in sweep.points().iter().zip(&batched) {
        let ladder = AnyWarmLadder::new();
        let sharded = || {
            point.run_with(RunOpts {
                shards: 3,
                threads: 2,
                warm: Some(&ladder),
                ..RunOpts::default()
            })
        };
        let populate = sharded();
        assert!(!ladder.is_empty(), "populate run must fill the ladder");
        let reuse = sharded();
        assert_eq!(&populate, expected, "ladder-populating run diverges");
        assert_eq!(&reuse, expected, "warm-restored run diverges");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Crash-resume under grouping: with some members of a group journalled
/// `done` (and durably published) and the rest lost, a `--resume` run
/// restores exactly the completed points and recomputes only the
/// missing ones — at member granularity, not group granularity.
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

    // Simulate a crash after two members published: drop the other two
    // entries and craft the journal a dying sweep would have left —
    // `done` strictly for the survivors, no `finish`.
    for name in &names[2..] {
        fs::remove_file(dir.join("cache").join(name)).unwrap();
    }
    let key = journal::sweep_key(&names);
    {
        let (journal, _) = SweepJournal::open(&dir, key, false).unwrap();
        for name in &names[..2] {
            journal.attempt(name, "crafted");
            journal.done(name);
        }
        // Dropped without `finish()`: the journal file survives, as
        // after a crash.
    }

    let store = ResultStore::open(dir.join("cache")).unwrap();
    let mut resume_opts = opts(&dir);
    resume_opts.resume = true;
    let resumed: Vec<SimResult> = sweep.run(&resume_opts);

    assert_eq!(resumed, first, "resumed sweep must reproduce the matrix");
    assert_eq!(
        store.counters().computes,
        2,
        "exactly the lost members recompute; journalled-done points are restored"
    );
    for (name, bytes) in names.iter().zip(&baseline) {
        let now = fs::read(dir.join("cache").join(name)).unwrap();
        assert_eq!(&now, bytes, "recomputed entry bytes diverge for {name}");
    }
    // Completion removes the journal so a later --resume starts clean.
    assert!(
        !journal::journal_dir(&dir)
            .join(format!("sweep-{key:016x}.jnl"))
            .exists(),
        "completed sweep must retire its journal"
    );
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
