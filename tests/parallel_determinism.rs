//! Determinism suite: `ParallelSession` must reproduce the serial
//! `SimSession` exactly — same totals, same interval boundaries — at the
//! default commit width, for every shard count and thread count (see the
//! module docs of `btbx_uarch::parallel` and EXPERIMENTS.md, "Interval
//! sharding").
//!
//! The workloads are small steady-state loops exercising every front-end
//! structure (BTB, RAS, direction predictor, caches, FTQ), plus a
//! small-window synthetic server trace for the paper's organizations;
//! more aperiodic cases live in `tests/file_backed_determinism.rs` and the
//! unit tests of `btbx_uarch::parallel`.

use btbx::core::storage::BudgetPoint;
use btbx::core::types::BranchClass;
use btbx::core::{BranchEvent, BtbSpec, OrgKind};
use btbx::trace::record::{MemAccess, TraceInstr};
use btbx::trace::source::{SeekableSource, TraceSource, VecSource};
use btbx::trace::suite;
use btbx::uarch::{IntervalStats, ParallelSession, SimConfig, SimSession, SimStats};

const WARMUP: u64 = 8_000;
const MEASURE: u64 = 64_000;
const INTERVAL: u64 = 8_000;

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

fn assert_intervals_identical(ctx: &str, a: &[IntervalStats], b: &[IntervalStats]) {
    assert_eq!(a.len(), b.len(), "{ctx}: interval count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.index, y.index, "{ctx}: interval index");
        assert_eq!(
            x.instructions, y.instructions,
            "{ctx}: boundary {} instructions",
            x.index
        );
        assert_eq!(x.cycles, y.cycles, "{ctx}: boundary {} cycles", x.index);
        assert_eq!(
            x.delta_instructions, y.delta_instructions,
            "{ctx}: interval {} delta",
            x.index
        );
        assert_eq!(
            x.delta_cycles, y.delta_cycles,
            "{ctx}: interval {} delta cycles",
            x.index
        );
        assert_eq!(x.bpu, y.bpu, "{ctx}: interval {} bpu", x.index);
    }
}

fn serial_reference(
    trace: impl TraceSource,
    spec: BtbSpec,
    config: &SimConfig,
) -> (btbx::uarch::SimResult, Vec<IntervalStats>) {
    let mut intervals = Vec::new();
    let result = SimSession::new(trace)
        .btb_spec(spec)
        .config(config.clone())
        .warmup(WARMUP)
        .measure(MEASURE)
        .every(INTERVAL, |iv| intervals.push(*iv))
        .run()
        .expect("valid serial session");
    (result, intervals)
}

fn sharded<S: SeekableSource + Send>(
    factory: impl Fn() -> S + Sync,
    spec: BtbSpec,
    config: &SimConfig,
    shards: usize,
) -> btbx::uarch::ParallelOutcome {
    ParallelSession::new(factory, spec)
        .config(config.clone())
        .warmup(WARMUP)
        .measure(MEASURE)
        .every(INTERVAL)
        .shards(shards)
        .run()
        .expect("valid sharded session")
}

#[test]
fn call_loop_is_shard_invariant() {
    let config = SimConfig::with_fdip();
    let spec = BtbSpec::of(OrgKind::BtbX).at(BudgetPoint::Kb3_6);
    let (serial, serial_intervals) = serial_reference(call_loop(), spec, &config);
    for shards in [1usize, 2, 8] {
        let out = sharded(call_loop, spec, &config, shards);
        let ctx = format!("call loop, {shards} shard(s)");
        assert_stats_identical(&ctx, &serial.stats, &out.result.stats);
        assert_intervals_identical(&ctx, &serial_intervals, &out.intervals);
        assert_eq!(serial.org, out.result.org, "{ctx}");
        assert_eq!(
            serial.btb_budget_bits, out.result.btb_budget_bits,
            "{ctx}: recorded budget"
        );
    }
}

#[test]
fn branchy_loop_is_shard_invariant() {
    let config = SimConfig::without_fdip();
    let spec = BtbSpec::of(OrgKind::Conv).at(BudgetPoint::Kb1_8);
    let (serial, serial_intervals) = serial_reference(branchy_loop(), spec, &config);
    for shards in [1usize, 2, 8] {
        let out = sharded(branchy_loop, spec, &config, shards);
        let ctx = format!("branchy loop, {shards} shard(s)");
        assert_stats_identical(&ctx, &serial.stats, &out.result.stats);
        assert_intervals_identical(&ctx, &serial_intervals, &out.intervals);
    }
}

/// Every paper-evaluation organization stays shard-invariant, not just
/// the default one (the replacement and indirection machinery differs per
/// organization, and all of it rides through shard merge) — on the call
/// loop and on a small-window synthetic server trace.
#[test]
fn every_paper_org_is_shard_invariant_on_the_call_loop_and_a_server_trace() {
    let config = SimConfig::with_fdip();
    let server = suite::ipc1_server()[0].build_trace();
    for org in OrgKind::PAPER_EVAL {
        let spec = BtbSpec::of(org).at(BudgetPoint::Kb3_6);
        let (serial, serial_intervals) = serial_reference(call_loop(), spec, &config);
        let (server_serial, server_intervals) = serial_reference(server.clone(), spec, &config);
        for shards in [2usize, 4, 8] {
            let out = sharded(call_loop, spec, &config, shards);
            let ctx = format!("{org}, call loop, {shards} shards");
            assert_stats_identical(&ctx, &serial.stats, &out.result.stats);
            assert_intervals_identical(&ctx, &serial_intervals, &out.intervals);

            let out = sharded(|| server.clone(), spec, &config, shards);
            let ctx = format!("{org}, {}, {shards} shards", server.source_name());
            assert_stats_identical(&ctx, &server_serial.stats, &out.result.stats);
            assert_intervals_identical(&ctx, &server_intervals, &out.intervals);
        }
    }
}

/// Shards restore the serial machine snapshot at exact
/// committed-instruction boundaries, so the merged run equals the serial
/// run bit-for-bit at the *default* commit width even though a cut can
/// overshoot its nominal boundary by up to `commit_width - 1`
/// instructions: boundaries are committed targets, not tick counts.
#[test]
fn checkpoint_mode_is_exact_at_default_width() {
    let config = SimConfig::with_fdip();
    let spec = BtbSpec::of(OrgKind::BtbX).at(BudgetPoint::Kb3_6);
    let (serial, serial_intervals) = serial_reference(call_loop(), spec, &config);
    for shards in [2usize, 5, 8] {
        let out = ParallelSession::new(call_loop, spec)
            .config(config.clone())
            .warmup(WARMUP)
            .measure(MEASURE)
            .every(INTERVAL)
            .shards(shards)
            .run()
            .expect("valid checkpointed session");
        let ctx = format!("checkpointed call loop, {shards} shard(s)");
        assert_stats_identical(&ctx, &serial.stats, &out.result.stats);
        assert_intervals_identical(&ctx, &serial_intervals, &out.intervals);
        assert!(
            out.telemetry.warmed_instructions >= WARMUP,
            "{ctx}: shard 0 warms cold exactly once"
        );
    }
}

/// With the default 6-wide commit, the window may overshoot by up to
/// `commit_width - 1` instructions, exactly as the serial run does. Pin
/// the contract: coverage is complete (never short), the overshoot stays
/// that of one serial window, and the run remains deterministic across
/// thread counts.
#[test]
fn default_width_sharding_is_deterministic_with_bounded_overshoot() {
    let config = SimConfig::with_fdip();
    let spec = BtbSpec::of(OrgKind::BtbX).at(BudgetPoint::Kb3_6);
    let run = |threads: usize| {
        ParallelSession::new(call_loop, spec)
            .config(config.clone())
            .warmup(WARMUP)
            .measure(MEASURE)
            .every(INTERVAL)
            .shards(8)
            .threads(threads)
            .run()
            .expect("valid sharded session")
    };
    let a = run(1);
    let b = run(8);
    assert!(a.result.stats.instructions >= MEASURE);
    assert!(a.result.stats.instructions < MEASURE + config.commit_width as u64);
    assert_stats_identical("thread-count invariance", &a.result.stats, &b.result.stats);
    assert_intervals_identical("thread-count invariance", &a.intervals, &b.intervals);
}
