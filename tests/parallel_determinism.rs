//! Determinism suite for warm snapshots: a run whose measurement window
//! is cut into `K` segments ("shards"), each resumed in a fresh simulator
//! from the previous one's sealed snapshot and trace checkpoint
//! (`btbx::uarch::run_resumed`), must reproduce the uninterrupted
//! `SimSession` exactly at the default commit width, for every segment
//! count. `ParallelSession`, kept for older callers, must equal it too
//! (see EXPERIMENTS.md, "Warm snapshots").
//!
//! The workloads are small steady-state loops exercising every front-end
//! structure (BTB, RAS, direction predictor, caches, FTQ), plus a
//! small-window synthetic server trace for the paper's organizations;
//! an aperiodic file-backed case lives in
//! `tests/file_backed_determinism.rs`.

use btbx::core::storage::BudgetPoint;
use btbx::core::types::BranchClass;
use btbx::core::{BranchEvent, BtbSpec, OrgKind};
use btbx::trace::record::{MemAccess, TraceInstr};
use btbx::trace::source::{SeekableSource, TraceSource, VecSource};
use btbx::trace::suite;
use btbx::uarch::{run_resumed, ParallelSession, SimConfig, SimResult, SimSession, SimStats};

const WARMUP: u64 = 8_000;
const MEASURE: u64 = 64_000;

/// A call-and-return loop with a dynamic period of 16 instructions:
/// straight-line code, a load and a store, a direct call, a return and a
/// backward conditional — every front-end structure (BTB, RAS, direction
/// predictor, caches, FTQ) reaches a periodic steady state within a few
/// hundred iterations.
fn call_loop_body() -> Vec<TraceInstr> {
    let mut body = Vec::new();
    for i in 0..8u64 {
        body.push(TraceInstr::other(0x1_0000 + i * 4, 4));
    }
    body.push(TraceInstr::mem(0x1_0020, 4, MemAccess::Load(0x9_0040)));
    body.push(TraceInstr::mem(0x1_0024, 4, MemAccess::Store(0x9_0080)));
    body.push(TraceInstr::branch(
        0x1_0028,
        4,
        BranchEvent::taken(0x1_0028, 0x2_0000, BranchClass::CallDirect),
    ));
    body.push(TraceInstr::other(0x2_0000, 4));
    body.push(TraceInstr::other(0x2_0004, 4));
    body.push(TraceInstr::branch(
        0x2_0008,
        4,
        BranchEvent::taken(0x2_0008, 0x1_002c, BranchClass::Return),
    ));
    body.push(TraceInstr::other(0x1_002c, 4));
    body.push(TraceInstr::branch(
        0x1_0030,
        4,
        BranchEvent::taken(0x1_0030, 0x1_0000, BranchClass::CondDirect),
    ));
    body
}

/// A branchier period-16 loop: two conditionals (one not-taken), an
/// unconditional jump and an indirect branch, spread over two pages.
fn branchy_loop_body() -> Vec<TraceInstr> {
    let mut body = Vec::new();
    for i in 0..5u64 {
        body.push(TraceInstr::other(0x40_0000 + i * 4, 4));
    }
    body.push(TraceInstr::branch(
        0x40_0014,
        4,
        BranchEvent::not_taken(0x40_0014, 0x40_0100),
    ));
    body.push(TraceInstr::branch(
        0x40_0018,
        4,
        BranchEvent::taken(0x40_0018, 0x41_0000, BranchClass::UncondDirect),
    ));
    for i in 0..4u64 {
        body.push(TraceInstr::other(0x41_0000 + i * 4, 4));
    }
    body.push(TraceInstr::mem(0x41_0010, 4, MemAccess::Load(0x9_1000)));
    body.push(TraceInstr::branch(
        0x41_0014,
        4,
        BranchEvent::taken(0x41_0014, 0x40_0020, BranchClass::UncondIndirect),
    ));
    body.push(TraceInstr::other(0x40_0020, 4));
    body.push(TraceInstr::other(0x40_0024, 4));
    body.push(TraceInstr::branch(
        0x40_0028,
        4,
        BranchEvent::taken(0x40_0028, 0x40_0000, BranchClass::CondDirect),
    ));
    body
}

/// Repeat `body` until the stream holds `total` instructions.
fn looped(name: &str, body: Vec<TraceInstr>, total: u64) -> VecSource {
    assert_eq!(body.len(), 16, "suite bodies must keep the period at 16");
    let instrs: Vec<TraceInstr> = body.iter().cycle().take(total as usize).copied().collect();
    VecSource::new(name, instrs)
}

fn call_loop() -> VecSource {
    looped("call", call_loop_body(), WARMUP + MEASURE + 1_000)
}

fn branchy_loop() -> VecSource {
    looped("branchy", branchy_loop_body(), WARMUP + MEASURE + 1_000)
}

fn assert_stats_identical(ctx: &str, a: &SimStats, b: &SimStats) {
    assert_eq!(a.instructions, b.instructions, "{ctx}: instructions");
    assert_eq!(a.cycles, b.cycles, "{ctx}: cycles");
    assert_eq!(a.bpu, b.bpu, "{ctx}: bpu");
    assert_eq!(a.btb_counts, b.btb_counts, "{ctx}: btb counts");
    assert_eq!(a.l1i, b.l1i, "{ctx}: l1i");
    assert_eq!(a.l1d, b.l1d, "{ctx}: l1d");
    assert_eq!(a.l2, b.l2, "{ctx}: l2");
    assert_eq!(a.llc, b.llc, "{ctx}: llc");
    assert_eq!(a.fdip, b.fdip, "{ctx}: fdip");
    assert_eq!(a.bubble_cycles, b.bubble_cycles, "{ctx}: bubbles");
    assert_eq!(
        a.fetch_starved_cycles, b.fetch_starved_cycles,
        "{ctx}: starvation"
    );
    assert_eq!(a.rob_full_cycles, b.rob_full_cycles, "{ctx}: rob");
    assert_eq!(
        a.wrong_path_btb_reads, b.wrong_path_btb_reads,
        "{ctx}: wrong-path reads"
    );
}

fn serial_reference(trace: impl TraceSource, spec: BtbSpec, config: &SimConfig) -> SimResult {
    SimSession::new(trace)
        .btb_spec(spec)
        .config(config.clone())
        .warmup(WARMUP)
        .measure(MEASURE)
        .run()
        .expect("valid serial session")
}

/// The window cut into `segments` stretches, each resumed from a warm
/// snapshot of the one before.
fn resumed<S: SeekableSource>(
    factory: impl Fn() -> S,
    spec: BtbSpec,
    config: &SimConfig,
    segments: u64,
) -> SimResult {
    run_resumed(factory, spec, config, WARMUP, MEASURE, segments).expect("valid resumed run")
}

#[test]
fn call_loop_is_shard_invariant() {
    let config = SimConfig::with_fdip();
    let spec = BtbSpec::of(OrgKind::BtbX).at(BudgetPoint::Kb3_6);
    let serial = serial_reference(call_loop(), spec, &config);
    for segments in [1u64, 2, 8] {
        let out = resumed(call_loop, spec, &config, segments);
        let ctx = format!("call loop, {segments} segment(s)");
        assert_stats_identical(&ctx, &serial.stats, &out.stats);
        assert_eq!(serial.org, out.org, "{ctx}");
        assert_eq!(
            serial.btb_budget_bits, out.btb_budget_bits,
            "{ctx}: recorded budget"
        );
    }
}

#[test]
fn branchy_loop_is_shard_invariant() {
    let config = SimConfig::without_fdip();
    let spec = BtbSpec::of(OrgKind::Conv).at(BudgetPoint::Kb1_8);
    let serial = serial_reference(branchy_loop(), spec, &config);
    for segments in [1u64, 2, 8] {
        let out = resumed(branchy_loop, spec, &config, segments);
        let ctx = format!("branchy loop, {segments} segment(s)");
        assert_stats_identical(&ctx, &serial.stats, &out.stats);
    }
}

/// Every paper-evaluation organization resumes exactly, not just the
/// default one (the replacement and indirection machinery differs per
/// organization, and all of it rides through the snapshot) — on the call
/// loop and on a small-window synthetic server trace.
#[test]
fn every_paper_org_is_shard_invariant_on_the_call_loop_and_a_server_trace() {
    let config = SimConfig::with_fdip();
    let server = suite::ipc1_server()[0].build_trace();
    for org in OrgKind::PAPER_EVAL {
        let spec = BtbSpec::of(org).at(BudgetPoint::Kb3_6);
        let serial = serial_reference(call_loop(), spec, &config);
        let server_serial = serial_reference(server.clone(), spec, &config);
        for segments in [2u64, 4, 8] {
            let out = resumed(call_loop, spec, &config, segments);
            let ctx = format!("{org}, call loop, {segments} segments");
            assert_stats_identical(&ctx, &serial.stats, &out.stats);

            let out = resumed(|| server.clone(), spec, &config, segments);
            let ctx = format!("{org}, {}, {segments} segments", server.source_name());
            assert_stats_identical(&ctx, &server_serial.stats, &out.stats);
        }
    }
}

/// A snapshot is sealed at the first tick boundary at or past its cut,
/// which can overshoot the nominal cut by up to `commit_width - 1`
/// instructions; the resumed run still equals the serial run at the
/// default commit width, because each cut is a committed target, not a
/// tick count. `ParallelSession`, whose `shards` do nothing, equals the
/// serial run and reports the warmed count `W′`.
#[test]
fn checkpoint_mode_is_exact_at_default_width() {
    let config = SimConfig::with_fdip();
    let spec = BtbSpec::of(OrgKind::BtbX).at(BudgetPoint::Kb3_6);
    let serial = serial_reference(call_loop(), spec, &config);
    for segments in [2u64, 5, 8] {
        let out = resumed(call_loop, spec, &config, segments);
        let ctx = format!("resumed call loop, {segments} segment(s)");
        assert_stats_identical(&ctx, &serial.stats, &out.stats);

        let out = ParallelSession::new(call_loop, spec)
            .config(config.clone())
            .warmup(WARMUP)
            .measure(MEASURE)
            .shards(segments as usize)
            .run()
            .expect("valid session");
        let ctx = format!("ParallelSession, {segments} shard(s)");
        assert_stats_identical(&ctx, &serial.stats, &out.result.stats);
        let warmed = out.telemetry.warmed_instructions;
        assert!(
            (WARMUP..WARMUP + config.commit_width as u64).contains(&warmed),
            "{ctx}: W′ = {warmed}"
        );
    }
}

/// With the default 6-wide commit, the window may overshoot by up to
/// `commit_width - 1` instructions, exactly as the serial run does. Pin
/// the contract for a resumed run: coverage is complete (never short),
/// the overshoot stays that of one serial window, and repeating the run
/// gives the same bytes.
#[test]
fn default_width_sharding_is_deterministic_with_bounded_overshoot() {
    let config = SimConfig::with_fdip();
    let spec = BtbSpec::of(OrgKind::BtbX).at(BudgetPoint::Kb3_6);
    let a = resumed(call_loop, spec, &config, 8);
    let b = resumed(call_loop, spec, &config, 8);
    assert!(a.stats.instructions >= MEASURE);
    assert!(a.stats.instructions < MEASURE + config.commit_width as u64);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "repeated resumed runs"
    );
}
