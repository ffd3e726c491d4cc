//! The dynamic walker: executes a [`ProgramImage`] and emits the
//! instruction stream as a [`TraceSource`].
//!
//! Execution mirrors a server's request loop: the dispatcher picks a
//! handler under the Zipf popularity law, the handler runs its body
//! (loops bounded by per-branch trip counters, forward conditionals
//! resolved by per-branch biases) and calls into deeper layers; returns
//! unwind the explicit call stack. Data addresses are synthesized from
//! stack-, heap-stream- and global-access mixtures so the cache hierarchy
//! sees realistic traffic.
//!
//! The walker is deterministic for a given image and seed.

use super::image::{ProgramImage, SInstr, SKind};
use crate::record::{MemAccess, TraceInstr};
use crate::source::{SeekableSource, TraceSource};
use btbx_core::types::{BranchClass, BranchEvent};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const STACK_BASE: u64 = 0x7fff_f000_0000;
const HEAP_BASE: u64 = 0x6000_0000_0000;
const GLOBAL_BASE: u64 = 0x0000_2000_0000;
/// Heap stream working set (wraps around): 4 MB.
const HEAP_WINDOW: u64 = 4 << 20;
/// Global data working set: 16 MB.
const GLOBAL_WINDOW: u64 = 16 << 20;

/// An infinite instruction stream over a program image.
///
/// The image is behind an [`Arc`][std::sync::Arc], so cloning a walker —
/// the way a sweep group hands every member its own stream — is
/// O(dynamic state), not O(image).
#[derive(Debug, Clone)]
pub struct SyntheticTrace {
    image: std::sync::Arc<ProgramImage>,
    name: String,
    seed: u64,
    rng: SmallRng,
    /// Current global instruction index.
    cur: u32,
    /// Return-address stack of global instruction indices.
    stack: Vec<u32>,
    /// Per-loop-branch trip counters.
    loop_counters: Vec<u16>,
    /// Last chosen callee per indirect-target table: indirect branches
    /// show strong receiver locality, so targets are sticky.
    table_last: Vec<u32>,
    heap_off: u64,
    emitted: u64,
}

/// A snapshot of the walker's full dynamic state: restoring it resumes
/// the exact instruction stream from the captured position, without
/// re-stepping the prefix. Size is O(image state) — a few KB for the
/// largest server images — never O(position).
///
/// Pinned by the `seek(k) == step()×k` property suite in
/// `crates/trace/tests/synth_seek.rs`.
#[derive(Debug, Clone)]
pub struct SynthCheckpoint {
    seed: u64,
    rng: SmallRng,
    cur: u32,
    stack: Vec<u32>,
    loop_counters: Vec<u16>,
    table_last: Vec<u32>,
    heap_off: u64,
    emitted: u64,
}

impl SynthCheckpoint {
    /// Position (instructions emitted) at which this snapshot was taken.
    pub fn position(&self) -> u64 {
        self.emitted
    }
}

impl SyntheticTrace {
    /// Start executing `image` at its dispatcher with the given seed.
    pub fn new(image: ProgramImage, name: impl Into<String>, seed: u64) -> Self {
        Self::over(std::sync::Arc::new(image), name, seed)
    }

    /// [`new`](Self::new) over an already-shared image: walkers for the
    /// same workload (group members, repeated runs) share one copy.
    pub fn over(image: std::sync::Arc<ProgramImage>, name: impl Into<String>, seed: u64) -> Self {
        let entry = image.funcs[image.dispatcher as usize].entry;
        let slots = image.loop_slots as usize;
        let tables = image.tables.len();
        SyntheticTrace {
            image,
            name: name.into(),
            seed,
            rng: SmallRng::seed_from_u64(seed ^ 0x7ace_c0de),
            cur: entry,
            stack: Vec::with_capacity(64),
            loop_counters: vec![0; slots],
            table_last: vec![u32::MAX; tables],
            heap_off: 0,
            emitted: 0,
        }
    }

    /// Instructions emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Reset the dynamic state to position 0 (the state `new` builds).
    fn rewind(&mut self) {
        self.rng = SmallRng::seed_from_u64(self.seed ^ 0x7ace_c0de);
        self.cur = self.image.funcs[self.image.dispatcher as usize].entry;
        self.stack.clear();
        self.loop_counters.fill(0);
        self.table_last.fill(u32::MAX);
        self.heap_off = 0;
        self.emitted = 0;
    }

    /// Borrow the underlying image.
    pub fn image(&self) -> &ProgramImage {
        &self.image
    }

    fn data_address(&mut self) -> u64 {
        let u: f64 = self.rng.gen();
        if u < 0.55 {
            // Stack frame access: hot, tiny footprint.
            let frame = self.stack.len() as u64 * 512;
            STACK_BASE - frame - (self.rng.gen_range(0..48u64) * 8)
        } else if u < 0.85 {
            // Sequential heap stream with a bounded working set.
            self.heap_off = (self.heap_off + self.rng.gen_range(1..9) * 8) % HEAP_WINDOW;
            HEAP_BASE + self.heap_off
        } else {
            // Scattered global access.
            GLOBAL_BASE + (self.rng.gen_range(0..GLOBAL_WINDOW / 8)) * 8
        }
    }

    fn pick_from_table(&mut self, table: u32) -> u32 {
        let last = self.table_last[table as usize];
        // Receiver locality: repeat the previous target most of the time.
        if last != u32::MAX && self.rng.gen_bool(0.85) {
            return last;
        }
        let t = &self.image.tables[table as usize];
        let pick = if t.len() == 1 || self.rng.gen_bool(0.55) {
            t[0]
        } else {
            t[self.rng.gen_range(1..t.len())]
        };
        self.table_last[table as usize] = pick;
        pick
    }

    /// Decide a conditional branch outcome.
    fn cond_taken(&mut self, bias_permille: u16, loop_id: u32, trips: u16) -> bool {
        if loop_id == u32::MAX {
            self.rng.gen_range(0..1000) < bias_permille as u32
        } else {
            let c = &mut self.loop_counters[loop_id as usize];
            *c += 1;
            if *c >= trips {
                *c = 0;
                false // exit the loop
            } else {
                true // keep iterating
            }
        }
    }

    fn step(&mut self) -> TraceInstr {
        let idx = self.cur as usize;
        let SInstr { pc, size, kind } = self.image.instrs.get(idx);
        match kind {
            SKind::Alu => {
                self.cur += 1;
                TraceInstr::other(pc, size)
            }
            SKind::Load => {
                self.cur += 1;
                let a = self.data_address();
                TraceInstr::mem(pc, size, MemAccess::Load(a))
            }
            SKind::Store => {
                self.cur += 1;
                let a = self.data_address();
                TraceInstr::mem(pc, size, MemAccess::Store(a))
            }
            SKind::Cond {
                target_idx,
                bias_permille,
                loop_id,
                trips,
            } => {
                let taken = self.cond_taken(bias_permille, loop_id, trips);
                let target = self.image.instrs.pc(target_idx as usize);
                self.cur = if taken { target_idx } else { self.cur + 1 };
                TraceInstr::branch(
                    pc,
                    size,
                    BranchEvent {
                        pc,
                        target,
                        class: BranchClass::CondDirect,
                        taken,
                    },
                )
            }
            SKind::Jump { target_idx } => {
                let target = self.image.instrs.pc(target_idx as usize);
                self.cur = target_idx;
                TraceInstr::branch(
                    pc,
                    size,
                    BranchEvent::taken(pc, target, BranchClass::UncondDirect),
                )
            }
            SKind::Call { callee } => {
                self.stack.push(self.cur + 1);
                let entry = self.image.funcs[callee as usize].entry;
                self.cur = entry;
                let target = self.image.instrs.pc(entry as usize);
                TraceInstr::branch(
                    pc,
                    size,
                    BranchEvent::taken(pc, target, BranchClass::CallDirect),
                )
            }
            SKind::IndirectCall { table } => {
                let callee = self.pick_from_table(table);
                self.stack.push(self.cur + 1);
                let entry = self.image.funcs[callee as usize].entry;
                self.cur = entry;
                let target = self.image.instrs.pc(entry as usize);
                TraceInstr::branch(
                    pc,
                    size,
                    BranchEvent::taken(pc, target, BranchClass::CallIndirect),
                )
            }
            SKind::IndirectJump { table } => {
                let callee = self.pick_from_table(table);
                let entry = self.image.funcs[callee as usize].entry;
                self.cur = entry;
                let target = self.image.instrs.pc(entry as usize);
                TraceInstr::branch(
                    pc,
                    size,
                    BranchEvent::taken(pc, target, BranchClass::UncondIndirect),
                )
            }
            SKind::DispatchCall => {
                let rank = self.image.zipf.sample(&mut self.rng);
                let handler = self.image.handlers[rank];
                self.stack.push(self.cur + 1);
                let entry = self.image.funcs[handler as usize].entry;
                self.cur = entry;
                let target = self.image.instrs.pc(entry as usize);
                TraceInstr::branch(
                    pc,
                    size,
                    BranchEvent::taken(pc, target, BranchClass::CallIndirect),
                )
            }
            SKind::Return => {
                let ret_idx = self.stack.pop().unwrap_or_else(|| {
                    // Safety net: restart the request loop.
                    self.image.funcs[self.image.dispatcher as usize].entry
                });
                self.cur = ret_idx;
                let target = self.image.instrs.pc(ret_idx as usize);
                TraceInstr::branch(
                    pc,
                    size,
                    BranchEvent::taken(pc, target, BranchClass::Return),
                )
            }
        }
    }
}

impl TraceSource for SyntheticTrace {
    fn next_instr(&mut self) -> Option<TraceInstr> {
        self.emitted += 1;
        Some(self.step())
    }

    fn source_name(&self) -> &str {
        &self.name
    }

    fn advance(&mut self, n: u64) -> u64 {
        // Same state transitions as `next_instr`, but the emitted record
        // is dead on arrival: the compiler elides its construction, so a
        // skip-step costs only the RNG draws and control-flow updates.
        for _ in 0..n {
            self.emitted += 1;
            let _ = self.step();
        }
        n
    }
}

impl SeekableSource for SyntheticTrace {
    type Checkpoint = SynthCheckpoint;

    fn position(&self) -> u64 {
        self.emitted
    }

    fn checkpoint(&self) -> SynthCheckpoint {
        SynthCheckpoint {
            seed: self.seed,
            rng: self.rng.clone(),
            cur: self.cur,
            stack: self.stack.clone(),
            loop_counters: self.loop_counters.clone(),
            table_last: self.table_last.clone(),
            heap_off: self.heap_off,
            emitted: self.emitted,
        }
    }

    fn restore(&mut self, cp: &SynthCheckpoint) {
        assert_eq!(
            cp.seed, self.seed,
            "checkpoint from a different walker (seed mismatch)"
        );
        assert_eq!(
            cp.loop_counters.len(),
            self.loop_counters.len(),
            "checkpoint from a different image (loop-slot mismatch)"
        );
        assert_eq!(
            cp.table_last.len(),
            self.table_last.len(),
            "checkpoint from a different image (table mismatch)"
        );
        self.rng = cp.rng.clone();
        self.cur = cp.cur;
        self.stack.clone_from(&cp.stack);
        self.loop_counters.clone_from(&cp.loop_counters);
        self.table_last.clone_from(&cp.table_last);
        self.heap_off = cp.heap_off;
        self.emitted = cp.emitted;
    }

    fn seek(&mut self, n: u64) -> u64 {
        if n < self.emitted {
            self.rewind();
        }
        self.advance(n - self.emitted);
        self.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::image::SynthParams;
    use btbx_core::types::BranchClass;
    use std::collections::HashMap;

    fn walker(funcs: usize, seed: u64) -> SyntheticTrace {
        let image = ProgramImage::generate(&SynthParams::server(funcs), seed);
        SyntheticTrace::new(image, "test", seed)
    }

    #[test]
    fn stream_is_infinite_and_deterministic() {
        let a: Vec<_> = walker(50, 3).into_iter_instrs().take(5_000).collect();
        let b: Vec<_> = walker(50, 3).into_iter_instrs().take(5_000).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5_000);
    }

    #[test]
    fn control_flow_is_consistent() {
        // Every instruction's PC must equal the previous instruction's
        // next_pc: the emitted stream is a real path through the image.
        let mut w = walker(80, 9);
        let mut prev: Option<TraceInstr> = None;
        for _ in 0..50_000 {
            let i = w.next_instr().unwrap();
            if let Some(p) = prev {
                assert_eq!(
                    p.next_pc(),
                    i.pc,
                    "discontinuity after {:#x} ({:?})",
                    p.pc,
                    p.op
                );
            }
            prev = Some(i);
        }
    }

    #[test]
    fn calls_and_returns_balance() {
        let mut w = walker(100, 5);
        let mut calls = 0i64;
        let mut rets = 0i64;
        for _ in 0..200_000 {
            let i = w.next_instr().unwrap();
            if let Some(ev) = i.branch_event() {
                match ev.class {
                    BranchClass::CallDirect | BranchClass::CallIndirect => calls += 1,
                    BranchClass::Return => rets += 1,
                    _ => {}
                }
            }
        }
        let diff = (calls - rets).abs();
        assert!(calls > 1000, "too few calls: {calls}");
        // The imbalance is bounded by the live stack depth.
        assert!(diff <= 64, "calls {calls} vs rets {rets}");
    }

    #[test]
    fn returns_match_call_sites() {
        // RAS discipline: every return target is the instruction after
        // some call. Track an explicit shadow stack.
        let mut w = walker(60, 21);
        let mut shadow: Vec<u64> = Vec::new();
        for _ in 0..100_000 {
            let i = w.next_instr().unwrap();
            if let Some(ev) = i.branch_event() {
                match ev.class {
                    BranchClass::CallDirect | BranchClass::CallIndirect => {
                        shadow.push(i.pc + i.size as u64);
                    }
                    BranchClass::Return => {
                        if let Some(expect) = shadow.pop() {
                            assert_eq!(ev.target, expect, "return to wrong site");
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn loops_terminate() {
        // 1M instructions must visit the dispatcher repeatedly (no stuck
        // loops): count dispatch calls.
        let mut w = walker(40, 13);
        let mut dispatches = 0u32;
        let dpc = {
            let d = w.image().funcs[w.image().dispatcher as usize];
            w.image().instrs.pc((d.entry + 2) as usize)
        };
        for _ in 0..1_000_000 {
            let i = w.next_instr().unwrap();
            if i.pc == dpc && i.branch_event().is_some() {
                dispatches += 1;
            }
        }
        assert!(dispatches > 100, "dispatcher starved: {dispatches}");
    }

    #[test]
    fn branch_kind_mix_is_plausible() {
        let mut w = walker(300, 17);
        let mut kinds: HashMap<&'static str, u64> = HashMap::new();
        let mut branches = 0u64;
        let total = 400_000;
        for _ in 0..total {
            let i = w.next_instr().unwrap();
            if let Some(ev) = i.branch_event() {
                branches += 1;
                let k = match ev.class {
                    BranchClass::CondDirect => "cond",
                    BranchClass::UncondDirect => "jump",
                    BranchClass::CallDirect | BranchClass::CallIndirect => "call",
                    BranchClass::UncondIndirect => "ijump",
                    BranchClass::Return => "ret",
                };
                *kinds.entry(k).or_default() += 1;
            }
        }
        let frac = |k: &str| *kinds.get(k).unwrap_or(&0) as f64 / branches as f64;
        // Returns near the paper's ~20 % (Section V-A); conds dominate.
        assert!(
            (0.12..0.30).contains(&frac("ret")),
            "ret fraction {}",
            frac("ret")
        );
        assert!(frac("cond") > 0.35, "cond fraction {}", frac("cond"));
        // Branch density sane (~1 branch per 4–8 instructions).
        let density = branches as f64 / total as f64;
        assert!((0.10..0.30).contains(&density), "density {density}");
    }

    /// Calibration probe: prints the dynamic branch mix and offset CDF
    /// anchors so the generator constants can be tuned against Figure 4.
    /// Run with `cargo test -p btbx-trace -- --ignored --nocapture calibration`.
    #[test]
    #[ignore = "manual calibration probe"]
    fn calibration_probe() {
        use crate::stats::TraceStats;
        for (label, funcs, client) in [("server", 800usize, false), ("client", 120, true)] {
            let params = if client {
                SynthParams::client(funcs)
            } else {
                SynthParams::server(funcs)
            };
            // Average over several seeds: single-workload mixes are noisy
            // because Zipf concentrates execution in a few handlers.
            let mut agg = TraceStats::collect(
                &mut SyntheticTrace::new(ProgramImage::generate(&params, 99), "c", 99),
                1_000_000,
                params.arch,
            );
            for seed in [7u64, 13, 29, 51] {
                let image = ProgramImage::generate(&params, seed);
                let mut w = SyntheticTrace::new(image, "cal", seed);
                let s = TraceStats::collect(&mut w, 1_000_000, params.arch);
                agg.instructions += s.instructions;
                agg.branches += s.branches;
                agg.taken += s.taken;
                for i in 0..6 {
                    agg.per_class[i] += s.per_class[i];
                }
                for i in 0..agg.offset_hist.len() {
                    agg.offset_hist[i] += s.offset_hist[i];
                }
            }
            let stats = agg;
            println!("--- {label} ---");
            println!("density {:.3}", stats.branch_density());
            for (i, c) in btbx_core::types::BranchClass::ALL.iter().enumerate() {
                println!(
                    "  {c}: {:.3}",
                    stats.per_class[i] as f64 / stats.branches as f64
                );
            }
            for bits in [0u32, 4, 5, 6, 7, 9, 10, 11, 19, 25] {
                println!("  cdf({bits}) = {:.3}", stats.offset_cdf(bits));
            }
            println!(
                "  taken-WS {}  blocks {}",
                stats.taken_branch_working_set, stats.code_blocks
            );
            // Per-class offset CDF to localize calibration error.
            let image = ProgramImage::generate(&params, 99);
            let mut w = SyntheticTrace::new(image, "cal2", 99);
            use btbx_core::offset::stored_offset_len;
            let mut hist: HashMap<&'static str, (u64, Vec<u64>)> = HashMap::new();
            for _ in 0..2_000_000u64 {
                let i = w.next_instr().unwrap();
                if let Some(ev) = i.branch_event() {
                    let k = match ev.class {
                        BranchClass::CondDirect => "cond",
                        BranchClass::UncondDirect => "jump",
                        BranchClass::CallDirect | BranchClass::CallIndirect => "call",
                        BranchClass::UncondIndirect => "ijump",
                        BranchClass::Return => continue,
                    };
                    let bits = stored_offset_len(ev.pc, ev.target, params.arch).min(48) as usize;
                    let e = hist.entry(k).or_insert_with(|| (0, vec![0u64; 49]));
                    e.0 += 1;
                    e.1[bits] += 1;
                }
            }
            for (k, (n, h)) in &hist {
                let cdf = |b: usize| h[..=b].iter().sum::<u64>() as f64 / *n as f64;
                println!(
                    "  {k}: n={n} cdf4={:.2} cdf7={:.2} cdf11={:.2} cdf19={:.2} cdf25={:.2}",
                    cdf(4),
                    cdf(7),
                    cdf(11),
                    cdf(19),
                    cdf(25)
                );
            }
        }
    }

    #[test]
    fn advance_matches_stepping() {
        let mut stepped = walker(60, 11);
        for _ in 0..12_345 {
            stepped.next_instr();
        }
        let mut advanced = walker(60, 11);
        assert_eq!(advanced.advance(12_345), 12_345);
        assert_eq!(advanced.position(), stepped.position());
        let a: Vec<_> = stepped.into_iter_instrs().take(2_000).collect();
        let b: Vec<_> = advanced.into_iter_instrs().take(2_000).collect();
        assert_eq!(a, b, "advance must be stream-equivalent to stepping");
    }

    #[test]
    fn checkpoint_restore_resumes_the_exact_stream() {
        let mut w = walker(70, 19);
        w.advance(5_000);
        let cp = w.checkpoint();
        assert_eq!(cp.position(), 5_000);
        let tail_a: Vec<_> = (0..3_000).map(|_| w.next_instr().unwrap()).collect();
        w.restore(&cp);
        assert_eq!(w.position(), 5_000);
        let tail_b: Vec<_> = (0..3_000).map(|_| w.next_instr().unwrap()).collect();
        assert_eq!(tail_a, tail_b);
    }

    #[test]
    fn restore_works_across_instances() {
        let mut a = walker(50, 29);
        a.advance(7_777);
        let cp = a.checkpoint();
        let mut b = walker(50, 29);
        b.restore(&cp);
        for _ in 0..2_000 {
            assert_eq!(a.next_instr(), b.next_instr());
        }
    }

    #[test]
    fn seek_rewinds_and_fast_forwards() {
        let reference: Vec<_> = walker(40, 37).into_iter_instrs().take(9_000).collect();
        let mut w = walker(40, 37);
        w.seek(6_000);
        assert_eq!(w.next_instr().unwrap(), reference[6_000]);
        w.seek(100); // behind the cursor: must rewind
        assert_eq!(w.position(), 100);
        assert_eq!(w.next_instr().unwrap(), reference[100]);
    }

    #[test]
    #[should_panic(expected = "different")]
    fn foreign_checkpoint_is_rejected() {
        let cp = walker(50, 1).checkpoint();
        walker(50, 2).restore(&cp);
    }

    #[test]
    fn data_addresses_are_canonical() {
        let mut w = walker(50, 23);
        for _ in 0..50_000 {
            let i = w.next_instr().unwrap();
            if let crate::record::Op::Mem(m) = i.op {
                assert!(m.address() < 1u64 << 48);
                assert!(m.address() > 0);
            }
        }
    }

    #[test]
    fn stack_depth_stays_bounded() {
        let mut w = walker(200, 31);
        for _ in 0..300_000 {
            w.next_instr();
            assert!(w.stack.len() <= 16, "runaway stack depth");
        }
    }
}
