//! The cycle-level simulator tying BPU, FTQ, fetch, FDIP, caches and a
//! simplified in-order-commit backend together.
//!
//! Per cycle, in order: commit (≤ 6, in order, ROB-bounded), fetch
//! (≤ 6 from the FTQ, gated by per-block L1-I readiness), FDIP scan, and
//! BPU prediction (fills the FTQ from the trace until it inserts a
//! mispredicted branch, then stalls until that branch's resolution stage —
//! the bubble a real front-end would spend on the wrong path).
//!
//! The methodology mirrors Section VI-A: structures warm for a configured
//! instruction count before statistics are collected; the BTB is updated
//! at commit by taken branches; BTB-missing unconditional-direct branches
//! and taken-predicted conditionals resteer at decode.
//!
//! The driving loop (`Simulator::run_until_committed`) skips spans of
//! provably inert cycles in one O(1) jump (see
//! `Simulator::fast_forward_span`) instead of ticking through them.
//! The trajectory — every counter, every structure — is bit-identical to
//! ticking every cycle; the unit tests keep that plain tick loop as an
//! oracle and compare the two.

use crate::bpu::{Bpu, Resolution};
use crate::config::SimConfig;
use crate::fdip::Fdip;
use crate::ftq::Ftq;
use crate::hierarchy::{Hierarchy, Port};
use crate::session::SessionError;
use crate::stats::{SimResult, SimStats};
use btbx_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use btbx_core::types::BranchEvent;
use btbx_trace::packed::PackedBuf;
use btbx_trace::record::{MemAccess, Op, TraceInstr};
use btbx_trace::TraceSource;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Events per trace block pulled from the source in one refill. The
/// prediction stage consumes from this staging buffer instead of calling
/// `next_instr` per event, amortizing the per-event pull; the block is
/// the *only* event buffering a streaming simulation performs.
pub const EVENT_BLOCK_EVENTS: usize = 256;

/// Bytes of event buffering one live simulator holds
/// ([`EVENT_BLOCK_EVENTS`] packed 16-byte events) — O(1) in the window
/// length, reported in [`crate::ParallelTelemetry`] as the peak
/// event-buffer cost.
pub const EVENT_BLOCK_BYTES: u64 = EVENT_BLOCK_EVENTS as u64 * 16;

/// Ticks between abort-flag polls: rare enough that the atomic load is
/// invisible in the hot loop, frequent enough that an abort lands within
/// microseconds of the flag flipping.
const ABORT_POLL_MASK: u32 = (1 << 12) - 1;

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    complete_at: u64,
    branch: Option<BranchEvent>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BpuState {
    /// Predicting normally.
    Running,
    /// A mispredicted branch is in the FTQ but has not been fetched yet,
    /// so its resolution time is unknown.
    BlockedUnknown,
    /// Resolution time known; resume at the contained cycle.
    BlockedUntil(u64),
}

/// A configured simulation of one workload on one BTB organization.
///
/// Generic over the trace source and the BTB ([`btbx_core::BtbEngine`] or
/// an out-of-tree [`btbx_core::Btb`]), so every per-event BTB probe is
/// statically dispatched.
pub struct Simulator<S, B: btbx_core::Btb> {
    config: SimConfig,
    trace: S,
    bpu: Bpu<B>,
    ftq: Ftq,
    hierarchy: Hierarchy,
    fdip: Option<Fdip>,
    rob: VecDeque<RobEntry>,
    /// Packed staging block of upcoming trace events (see
    /// [`EVENT_BLOCK_EVENTS`]).
    block: PackedBuf,
    block_pos: usize,
    cycle: u64,
    committed: u64,
    bpu_state: BpuState,
    bpu_busy_until: u64,
    last_complete: u64,
    trace_done: bool,
    // Measurement bookkeeping.
    measuring: bool,
    measure_start_cycle: u64,
    measure_start_committed: u64,
    bubble_cycles: u64,
    fetch_starved_cycles: u64,
    rob_full_cycles: u64,
    org_id: String,
    budget_bits: u64,
    /// Cooperative cancellation: when set and flipped true, the driving
    /// loop stops at the next poll boundary and `aborted` turns true.
    abort: Option<Arc<AtomicBool>>,
    abort_poll: u32,
    aborted: bool,
    /// Test-only oracle switch: tick every cycle instead of jumping inert
    /// spans, reproducing the plain tick loop the fast-forward must match.
    #[cfg(test)]
    plain: bool,
    /// Number of leading FTQ entries known to have issued their L1-I
    /// access (`block_ready` is `Some`). Derived state, never serialized:
    /// a snapshot restore resets it to 0 and the next ifetch window
    /// rebuilds it. The invariant is an *under*-count — entries below the
    /// prefix are always issued; entries above it may be too — so a stale
    /// low value only costs a redundant scan, never skips an issue.
    issued_prefix: usize,
}

impl<S: TraceSource, B: btbx_core::Btb> Simulator<S, B> {
    /// Assemble a simulator. `bpu` carries the BTB under test; `org_id`
    /// and `budget_bits` are recorded in the result for reporting.
    pub fn new(
        config: SimConfig,
        trace: S,
        bpu: Bpu<B>,
        org_id: impl Into<String>,
        budget_bits: u64,
    ) -> Self {
        let hierarchy = Hierarchy::new(&config);
        let ftq = Ftq::new(config.ftq_entries);
        let fdip = config
            .fdip
            .then(|| Fdip::new(config.fetch_width as usize * 2));
        Simulator {
            config,
            trace,
            bpu,
            ftq,
            hierarchy,
            fdip,
            rob: VecDeque::with_capacity(512),
            block: PackedBuf::with_capacity(EVENT_BLOCK_EVENTS),
            block_pos: 0,
            cycle: 0,
            committed: 0,
            bpu_state: BpuState::Running,
            bpu_busy_until: 0,
            last_complete: 0,
            trace_done: false,
            measuring: false,
            measure_start_cycle: 0,
            measure_start_committed: 0,
            bubble_cycles: 0,
            fetch_starved_cycles: 0,
            rob_full_cycles: 0,
            org_id: org_id.into(),
            budget_bits,
            abort: None,
            abort_poll: 0,
            aborted: false,
            #[cfg(test)]
            plain: false,
            issued_prefix: 0,
        }
    }

    /// Attach a cancellation flag: once `flag` turns true, the driving
    /// loop stops within [`ABORT_POLL_MASK`] + 1 ticks, as it does at
    /// trace end, and [`into_result`](Self::into_result) reports
    /// [`SessionError::Aborted`]. Used by `btbx serve` to enforce
    /// per-request deadlines.
    pub fn set_abort(&mut self, flag: Arc<AtomicBool>) {
        self.abort = Some(flag);
    }

    /// Check the abort flag on a sparse tick schedule; `true` once it
    /// fired, and the driving loop must stop.
    #[inline]
    fn poll_abort(&mut self) -> bool {
        let Some(flag) = &self.abort else {
            return false;
        };
        self.abort_poll = self.abort_poll.wrapping_add(1);
        if self.abort_poll & ABORT_POLL_MASK == 0 && flag.load(Ordering::Relaxed) {
            return self.mark_aborted();
        }
        false
    }

    #[cold]
    fn mark_aborted(&mut self) -> bool {
        self.aborted = true;
        true
    }

    /// Warm structures over `warmup` committed instructions, then measure
    /// the next `measure` instructions (Section VI-A methodology); used by
    /// [`crate::session::SimSession`].
    ///
    /// # Errors
    ///
    /// See [`into_result`](Self::into_result).
    pub fn run(mut self, warmup: u64, measure: u64) -> Result<SimResult, SessionError> {
        self.run_until_committed(warmup);
        self.begin_measurement();
        self.run_until_committed(self.committed.saturating_add(measure));
        self.into_result()
    }

    /// Tick until the *absolute* committed-instruction count reaches
    /// `target` (or the trace drains): the one driving loop, for the
    /// warm-up and the measurement window alike. An aborted simulator
    /// does nothing.
    pub fn run_until_committed(&mut self, target: u64) {
        if self.aborted {
            return;
        }
        while self.committed < target && !self.finished() {
            if !self.skip_inert() {
                self.tick();
            }
            if self.poll_abort() {
                return;
            }
        }
    }

    /// `true` when the trace has drained and the pipeline is empty.
    pub fn finished(&self) -> bool {
        self.trace_done && self.ftq.is_empty() && self.rob.is_empty()
    }

    /// Committed instructions since construction (absolute, not relative
    /// to the measurement window).
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Borrow the trace source (a resumed run records the source
    /// position alongside a microarchitectural snapshot).
    pub fn trace(&self) -> &S {
        &self.trace
    }

    /// Pop the next trace event from the staging block, refilling it from
    /// the source in [`EVENT_BLOCK_EVENTS`]-sized batches.
    #[inline]
    fn next_event(&mut self) -> Option<btbx_trace::record::TraceInstr> {
        if self.block_pos == self.block.len() {
            self.block.clear();
            self.block_pos = 0;
            if self.trace.fill_block(&mut self.block, EVENT_BLOCK_EVENTS) == 0 {
                return None;
            }
        }
        let instr = self.block.get(self.block_pos);
        self.block_pos += 1;
        Some(instr)
    }

    /// Mark the warm-up boundary: statistics reset, structures keep their
    /// warmed contents (Section VI-A). Idempotent in effect — only the
    /// counters collected afterwards are reported.
    pub fn begin_measurement(&mut self) {
        self.measuring = true;
        self.measure_start_cycle = self.cycle;
        self.measure_start_committed = self.committed;
        self.bubble_cycles = 0;
        self.fetch_starved_cycles = 0;
        self.rob_full_cycles = 0;
        self.bpu.reset_stats();
        self.hierarchy.reset_stats();
        if let Some(f) = &mut self.fdip {
            f.reset_stats();
        }
    }

    /// Why the driving loop stopped short of its target, if it did: the
    /// abort flag fired, or the trace source failed mid-stream.
    pub fn failure(&self) -> Option<SessionError> {
        if self.aborted {
            return Some(SessionError::Aborted);
        }
        self.trace.error().map(|e| SessionError::Trace {
            source: self.trace.source_name().to_string(),
            error: e.to_string(),
        })
    }

    /// Consume the simulator and report the measurement window.
    ///
    /// # Errors
    ///
    /// [`SessionError::Aborted`] when the abort flag stopped the run and
    /// [`SessionError::Trace`] when the trace source failed mid-stream:
    /// either way the window is incomplete, so no result is reported.
    pub fn into_result(mut self) -> Result<SimResult, SessionError> {
        if let Some(e) = self.failure() {
            return Err(e);
        }
        let (l1i, l1d, l2, llc) = self.hierarchy.stats();
        let bubble = self.bubble_cycles;
        let stats = SimStats {
            instructions: self.committed - self.measure_start_committed,
            cycles: self.cycle - self.measure_start_cycle,
            bpu: self.bpu.stats(),
            l1i,
            l1d,
            l2,
            llc,
            fdip: self.fdip.as_ref().map(|f| f.stats()).unwrap_or_default(),
            btb_counts: self.bpu.btb().counts(),
            bubble_cycles: bubble,
            fetch_starved_cycles: self.fetch_starved_cycles,
            rob_full_cycles: self.rob_full_cycles,
            wrong_path_btb_reads: bubble * (self.config.fetch_width as u64 / 2),
        };
        Ok(SimResult {
            workload: self.trace.source_name().to_string(),
            org: std::mem::take(&mut self.org_id),
            fdip_enabled: self.config.fdip,
            btb_budget_bits: self.budget_bits,
            stats,
        })
    }

    /// [`fast_forward_span`](Self::fast_forward_span), except in the
    /// test-only plain oracle, which never jumps.
    #[inline]
    fn skip_inert(&mut self) -> bool {
        #[cfg(test)]
        if self.plain {
            return false;
        }
        self.fast_forward_span()
    }

    /// Try to jump over a span of inert cycles in O(1); returns `true`
    /// and advances `cycle` (plus the per-cycle stall counters) when the
    /// current cycle provably executes no state change, `false` when a
    /// real [`tick`](Self::tick) is required.
    ///
    /// A cycle is *inert* when every stage is a no-op up to counters:
    ///
    /// * **commit** — ROB empty, or its head completes later;
    /// * **fetch** — FTQ empty (the cycle only counts fetch starvation),
    ///   or the whole ifetch window has issued its L1-I accesses and the
    ///   head is blocked (ROB full, or its block not yet within the hit
    ///   horizon);
    /// * **FDIP** — absent, or its cursor has caught up with the FTQ;
    /// * **predict** — blocked on an unresolved mispredict, blocked until
    ///   a future resolution cycle, or running but gated (trace drained,
    ///   PDede second cycle, or FTQ full).
    ///
    /// Every condition is then stable until a known wake cycle: the ROB
    /// head's completion, the head block's fetchability, the resteer
    /// resolution, or the predictor becoming free. Jumping to the
    /// earliest wake and bumping the stall counters by the span length
    /// reproduces the plain loop's trajectory exactly: inert cycles
    /// change nothing else by construction.
    #[inline]
    fn fast_forward_span(&mut self) -> bool {
        let c = self.cycle;
        // Commit stage: quiet iff the ROB head (if any) completes later.
        let commit_wake = match self.rob.front() {
            Some(e) if e.complete_at <= c => return false,
            Some(e) => Some(e.complete_at),
            None => None,
        };
        // Fetch stage.
        let ftq_len = self.ftq.len();
        let ftq_empty = ftq_len == 0;
        let rob_full = self.rob.len() >= self.config.rob_entries;
        let mut fetch_wake = None;
        if !ftq_empty {
            // The ifetch window must have nothing left to issue. The
            // issued prefix is an under-count, so `prefix >= window`
            // proves it; a stale low prefix merely falls back to a real
            // tick, which rebuilds it.
            let window = (self.config.fetch_width as usize * 2).min(ftq_len);
            if self.issued_prefix < window {
                return false;
            }
            let head_ready = self
                .ftq
                .head()
                .expect("ftq non-empty")
                .block_ready
                .expect("whole window issued");
            let l1i_latency = self.config.l1i.latency as u64;
            if rob_full {
                // Blocked by the ROB; the commit wake bounds the span
                // (a full ROB is non-empty).
            } else if head_ready > c + l1i_latency {
                fetch_wake = Some(head_ready - l1i_latency);
            } else {
                return false; // head is fetchable this cycle
            }
        }
        // FDIP: quiet iff the scan cursor has caught up.
        if let Some(f) = &self.fdip {
            if f.cursor() < ftq_len {
                return false;
            }
        }
        // Predict stage.
        let predict_wake = match self.bpu_state {
            BpuState::BlockedUnknown => None,
            BpuState::BlockedUntil(t) if c >= t => return false,
            BpuState::BlockedUntil(t) => Some(t),
            BpuState::Running => {
                if self.trace_done {
                    None
                } else if c < self.bpu_busy_until {
                    Some(self.bpu_busy_until)
                } else if !self.ftq.has_room() {
                    // Room appears only when fetch pops, bounded above.
                    None
                } else {
                    return false; // would predict this cycle
                }
            }
        };
        let next = [commit_wake, fetch_wake, predict_wake]
            .into_iter()
            .flatten()
            .min();
        let Some(next) = next else {
            // No wake cycle: only possible when the pipeline has fully
            // drained (`finished()`); let the driving loop observe that.
            return false;
        };
        debug_assert!(next > c, "wake cycles lie strictly ahead of a quiet cycle");
        let delta = next - c;
        if self.bpu_state != BpuState::Running {
            self.bubble_cycles += delta;
        }
        if ftq_empty {
            self.fetch_starved_cycles += delta;
        } else if rob_full {
            self.rob_full_cycles += delta;
        }
        self.cycle = next;
        true
    }

    /// Advance one cycle.
    fn tick(&mut self) {
        self.commit_stage();
        self.fetch_stage();
        if self.fdip.is_some() {
            let mut fdip = self.fdip.take().unwrap();
            fdip.tick(&self.ftq, &mut self.hierarchy, self.cycle);
            self.fdip = Some(fdip);
        }
        self.predict_stage();
        if self.bpu_state != BpuState::Running {
            self.bubble_cycles += 1;
        }
        self.cycle += 1;
    }

    fn commit_stage(&mut self) {
        for _ in 0..self.config.commit_width {
            match self.rob.front() {
                Some(e) if e.complete_at <= self.cycle => {
                    let e = self.rob.pop_front().unwrap();
                    if let Some(ev) = e.branch {
                        self.bpu.commit(&ev);
                    }
                    self.committed += 1;
                }
                _ => break,
            }
        }
    }

    /// Issue L1-I accesses for the next few FTQ entries (the ifetch
    /// buffer): misses overlap in the MSHRs instead of serializing, as in
    /// ChampSim's `FETCH_WIDTH × 2`-entry IFETCH_BUFFER.
    fn issue_ifetch_window(&mut self) {
        let window = self.config.fetch_width as usize * 2;
        let cycle = self.cycle;
        let limit = window.min(self.ftq.len());
        // Entries below the issued prefix are already `Some`; re-scanning
        // them would be a no-op, so starting there saves the O(window)
        // rescan every cycle. The test-only plain oracle scans the whole
        // window, which pins the prefix bookkeeping against a full scan.
        #[cfg(test)]
        let start = if self.plain { 0 } else { self.issued_prefix };
        #[cfg(not(test))]
        let start = self.issued_prefix;
        for idx in start.min(limit)..limit {
            // Safe: idx < len.
            let (pc, pending) = {
                let e = self.ftq.get(idx).unwrap();
                (e.instr.pc, e.block_ready.is_none())
            };
            if pending {
                let r = self.hierarchy.access(Port::Instr, pc, cycle);
                if let Some(e) = self.ftq.get_mut(idx) {
                    e.block_ready = Some(r);
                }
            }
        }
        self.issued_prefix = self.issued_prefix.max(limit);
    }

    fn fetch_stage(&mut self) {
        if self.ftq.is_empty() {
            self.fetch_starved_cycles += 1;
            return;
        }
        self.issue_ifetch_window();
        let l1i_latency = self.config.l1i.latency as u64;
        let mut fetched = 0usize;
        while fetched < self.config.fetch_width as usize {
            if self.rob.len() >= self.config.rob_entries {
                self.rob_full_cycles += 1;
                break;
            }
            let cycle = self.cycle;
            let Some(head) = self.ftq.head_mut() else {
                break;
            };
            let ready = match head.block_ready {
                Some(r) => r,
                None => {
                    let pc = head.instr.pc;
                    let r = self.hierarchy.access(Port::Instr, pc, cycle);
                    head.block_ready = Some(r);
                    r
                }
            };
            // A hit's latency is pipeline depth, not a stall; only misses
            // (ready beyond the hit horizon) block fetch.
            if ready > cycle + l1i_latency {
                break;
            }
            let entry = self.ftq.pop().unwrap();
            self.issued_prefix = self.issued_prefix.saturating_sub(1);
            if let Some(f) = &mut self.fdip {
                f.on_fetch(1);
            }
            fetched += 1;

            // Backend completion time.
            let base = cycle + self.config.execute_depth as u64;
            let complete = match entry.instr.op {
                Op::Mem(MemAccess::Load(addr)) => {
                    let issue = cycle + self.config.issue_depth as u64;
                    let dready = self.hierarchy.access(Port::Data, addr, issue);
                    base.max(dready)
                }
                Op::Mem(MemAccess::Store(addr)) => {
                    // Stores retire without waiting for the fill; the
                    // access still exercises the data hierarchy.
                    let issue = cycle + self.config.issue_depth as u64;
                    let _ = self.hierarchy.access(Port::Data, addr, issue);
                    base
                }
                _ => base,
            };
            // In-order commit: completion is monotone.
            let complete = complete.max(self.last_complete);
            self.last_complete = complete;
            self.rob.push_back(RobEntry {
                complete_at: complete,
                branch: entry.instr.branch_event().copied(),
            });

            // A mispredicted branch reaching fetch pins down its
            // resolution time; the BPU resumes after the resteer.
            match entry.verdict.resolution {
                Resolution::Correct => {}
                Resolution::DecodeResteer => {
                    let resolve = cycle
                        + self.config.decode_depth as u64
                        + self.config.redirect_penalty as u64;
                    self.bpu_state = BpuState::BlockedUntil(resolve);
                    break; // nothing valid to fetch behind a resteer
                }
                Resolution::ExecuteResteer => {
                    let resolve = cycle
                        + self.config.execute_depth as u64
                        + self.config.redirect_penalty as u64;
                    self.bpu_state = BpuState::BlockedUntil(resolve);
                    break;
                }
            }
        }
    }

    fn predict_stage(&mut self) {
        match self.bpu_state {
            BpuState::Running => {}
            BpuState::BlockedUnknown => return,
            BpuState::BlockedUntil(t) => {
                if self.cycle >= t {
                    self.bpu_state = BpuState::Running;
                    if let Some(f) = &mut self.fdip {
                        f.on_flush();
                    }
                } else {
                    return;
                }
            }
        }
        if self.cycle < self.bpu_busy_until || self.trace_done {
            return;
        }
        let mut predicted = 0;
        let mut taken_budget = self.config.bpu_taken_per_cycle;
        while predicted < self.config.bpu_width && taken_budget > 0 && self.ftq.has_room() {
            let Some(instr) = self.next_event() else {
                self.trace_done = true;
                break;
            };
            let verdict = self.bpu.predict(instr.pc, instr.size, instr.branch_event());
            if verdict.extra_bpu_cycles > 0 {
                // PDede's second-cycle Page-/Region-BTB access occupies
                // the predictor.
                self.bpu_busy_until = self.cycle + 1 + verdict.extra_bpu_cycles as u64;
            }
            if verdict.predicted_taken {
                taken_budget -= 1;
            }
            let mispredicted = verdict.resolution != Resolution::Correct;
            self.ftq.push(instr, verdict);
            predicted += 1;
            if mispredicted {
                // The BPU is now on the wrong path; stall until the
                // branch is fetched and resolved.
                self.bpu_state = BpuState::BlockedUnknown;
                break;
            }
            if verdict.extra_bpu_cycles > 0 {
                break;
            }
        }
    }
}

impl<S: TraceSource, B: btbx_core::Btb + Snapshot> Snapshot for Simulator<S, B> {
    /// Serialize the complete microarchitectural state — pipeline, BPU,
    /// caches, prefetcher, staging block and all counters. The trace
    /// source is *not* included: a snapshot pairs with a trace checkpoint
    /// taken at the same moment (the source sits ahead of commit by the
    /// in-flight instructions, which the snapshot carries).
    fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.budget_bits);
        self.bpu.save_state(w);
        self.ftq.save_state(w);
        self.hierarchy.save_state(w);
        match &self.fdip {
            None => w.bool(false),
            Some(f) => {
                w.bool(true);
                f.save_state(w);
            }
        }
        w.u64(self.rob.len() as u64);
        for e in &self.rob {
            w.u64(e.complete_at);
            match &e.branch {
                None => w.bool(false),
                Some(ev) => {
                    w.bool(true);
                    ev.save_state(w);
                }
            }
        }
        // Unconsumed remnant of the staging block, re-serialized as wide
        // records (the paired trace checkpoint sits just past it).
        w.u64((self.block.len() - self.block_pos) as u64);
        for i in self.block_pos..self.block.len() {
            self.block.get(i).save_snap(w);
        }
        w.u64(self.cycle);
        w.u64(self.committed);
        match self.bpu_state {
            BpuState::Running => w.u8(0),
            BpuState::BlockedUnknown => w.u8(1),
            BpuState::BlockedUntil(t) => {
                w.u8(2);
                w.u64(t);
            }
        }
        w.u64(self.bpu_busy_until);
        w.u64(self.last_complete);
        w.bool(self.trace_done);
        w.bool(self.measuring);
        w.u64(self.measure_start_cycle);
        w.u64(self.measure_start_committed);
        w.u64(self.bubble_cycles);
        w.u64(self.fetch_starved_cycles);
        w.u64(self.rob_full_cycles);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_u64(self.budget_bits, "btb budget bits")?;
        self.bpu.restore_state(r)?;
        self.ftq.restore_state(r)?;
        self.hierarchy.restore_state(r)?;
        let has_fdip = r.bool()?;
        if has_fdip != self.fdip.is_some() {
            return Err(SnapError::Corrupt("fdip configuration mismatch"));
        }
        if let Some(f) = &mut self.fdip {
            f.restore_state(r)?;
        }
        let rob_len = r.u64()? as usize;
        if rob_len > self.config.rob_entries {
            return Err(SnapError::Corrupt("rob occupancy exceeds capacity"));
        }
        self.rob.clear();
        for _ in 0..rob_len {
            let complete_at = r.u64()?;
            let branch = if r.bool()? {
                Some(BranchEvent::load_state(r)?)
            } else {
                None
            };
            self.rob.push_back(RobEntry {
                complete_at,
                branch,
            });
        }
        let remnant = r.u64()? as usize;
        if remnant > EVENT_BLOCK_EVENTS {
            return Err(SnapError::Corrupt("staging block exceeds capacity"));
        }
        self.block.clear();
        self.block_pos = 0;
        for _ in 0..remnant {
            self.block.push(TraceInstr::load_snap(r)?);
        }
        // Derived, not serialized: rebuilt by the next ifetch window.
        self.issued_prefix = 0;
        self.cycle = r.u64()?;
        self.committed = r.u64()?;
        self.bpu_state = match r.u8()? {
            0 => BpuState::Running,
            1 => BpuState::BlockedUnknown,
            2 => BpuState::BlockedUntil(r.u64()?),
            _ => return Err(SnapError::Corrupt("bpu state discriminant")),
        };
        self.bpu_busy_until = r.u64()?;
        self.last_complete = r.u64()?;
        self.trace_done = r.bool()?;
        self.measuring = r.bool()?;
        self.measure_start_cycle = r.u64()?;
        self.measure_start_committed = r.u64()?;
        self.bubble_cycles = r.u64()?;
        self.fetch_starved_cycles = r.u64()?;
        self.rob_full_cycles = r.u64()?;
        Ok(())
    }
}

impl<S: TraceSource, B: btbx_core::Btb> std::fmt::Debug for Simulator<S, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("cycle", &self.cycle)
            .field("committed", &self.committed)
            .field("org", &self.org_id)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bpu::BpuStats;
    use btbx_core::snap::{restore_sealed, save_sealed};
    use btbx_core::spec::BtbSpec;
    use btbx_core::storage::BudgetPoint;
    use btbx_core::types::{Arch, BranchClass};
    use btbx_core::{BtbEngine, OrgKind};
    use btbx_trace::record::TraceInstr;
    use btbx_trace::source::{SeekableSource, VecSource};
    use btbx_trace::synth::{ProgramImage, SynthParams, SyntheticTrace};

    /// Run `trace` on `kind` at 14.5 KB: warm up, then measure.
    fn run_session<S: TraceSource>(
        config: SimConfig,
        trace: S,
        kind: OrgKind,
        warmup: u64,
        measure: u64,
    ) -> SimResult {
        crate::SimSession::new(trace)
            .btb_spec(BtbSpec::of(kind))
            .config(config)
            .warmup(warmup)
            .measure(measure)
            .run()
            .unwrap()
    }

    fn straight_line(n: u64) -> VecSource {
        VecSource::new(
            "line",
            (0..n)
                .map(|i| TraceInstr::other(0x1000 + i * 4, 4))
                .collect(),
        )
    }

    /// 1024 sequential instructions (4 KB, fits L1-I) ending in a jump
    /// back to the start, repeated.
    fn resident_kernel(passes: u64) -> VecSource {
        let mut v = Vec::new();
        for _ in 0..passes {
            for i in 0..1023u64 {
                v.push(TraceInstr::other(0x1000 + i * 4, 4));
            }
            let pc = 0x1000 + 1023 * 4;
            v.push(TraceInstr::branch(
                pc,
                4,
                BranchEvent::taken(pc, 0x1000, BranchClass::UncondDirect),
            ));
        }
        VecSource::new("kernel", v)
    }

    #[test]
    fn resident_code_streams_at_near_fetch_width() {
        let r = run_session(
            SimConfig::without_fdip(),
            resident_kernel(100),
            OrgKind::Conv,
            20_000,
            60_000,
        );
        let ipc = r.stats.ipc();
        assert!(
            (4.0..=6.0).contains(&ipc),
            "warm L1-I-resident code should stream near fetch width, got {ipc}"
        );
        assert_eq!(r.stats.btb_mpki(), 0.0);
    }

    #[test]
    fn cold_streaming_code_is_miss_bandwidth_bound() {
        // 60 K instructions of never-revisited code: every block is a
        // cold L1-I miss; without a prefetcher IPC collapses — the
        // front-end bottleneck the paper opens with.
        let r = run_session(
            SimConfig::without_fdip(),
            straight_line(60_000),
            OrgKind::Conv,
            10_000,
            40_000,
        );
        let ipc = r.stats.ipc();
        assert!(ipc < 2.0, "cold streaming should be slow, got {ipc}");
        assert!(r.stats.l1i_mpki() > 10.0);
    }

    #[test]
    fn tight_loop_is_predictable_after_warmup() {
        // A 16-instruction loop ending in a taken backward branch.
        let mut instrs = Vec::new();
        for _ in 0..4000u64 {
            for i in 0..15u64 {
                instrs.push(TraceInstr::other(0x2000 + i * 4, 4));
            }
            instrs.push(TraceInstr::branch(
                0x203c,
                4,
                BranchEvent::taken(0x203c, 0x2000, BranchClass::UncondDirect),
            ));
        }
        let r = run_session(
            SimConfig::without_fdip(),
            VecSource::new("loop", instrs),
            OrgKind::BtbX,
            30_000,
            30_000,
        );
        assert_eq!(r.stats.btb_mpki(), 0.0, "warm loop must not miss");
        assert!(r.stats.ipc() > 3.0, "ipc {}", r.stats.ipc());
    }

    #[test]
    fn synthetic_server_runs_end_to_end() {
        let image = ProgramImage::generate(&SynthParams::server(200), 5);
        let trace = SyntheticTrace::new(image, "server_mini", 5);
        let r = run_session(
            SimConfig::with_fdip(),
            trace,
            OrgKind::BtbX,
            50_000,
            100_000,
        );
        // Commit is 6-wide, so the window may overshoot by < 6.
        assert!((100_000..100_006).contains(&r.stats.instructions));
        assert!(r.stats.ipc() > 0.2, "ipc {}", r.stats.ipc());
        assert!(r.stats.bpu.lookups >= 100_000);
    }

    #[test]
    fn fdip_improves_ipc_on_large_footprint() {
        // A large-footprint server workload from the calibrated suite.
        let spec = btbx_trace::suite::ipc1_server()
            .into_iter()
            .find(|s| s.name == "server_033")
            .unwrap();
        let base = run_session(
            SimConfig::without_fdip(),
            spec.build_trace(),
            OrgKind::BtbX,
            200_000,
            400_000,
        );
        let fdip = run_session(
            SimConfig::with_fdip(),
            spec.build_trace(),
            OrgKind::BtbX,
            200_000,
            400_000,
        );
        assert!(
            fdip.stats.ipc() > base.stats.ipc() * 1.02,
            "FDIP should help: {} vs {}",
            fdip.stats.ipc(),
            base.stats.ipc()
        );
        assert!(fdip.stats.fdip.issued > 0);
        assert!(fdip.stats.l1i.prefetch_hits > 0);
    }

    #[test]
    fn btbx_beats_conv_on_server_mpki() {
        // Long enough to cycle through the branch working set so capacity
        // misses (not compulsory misses) dominate.
        let spec = btbx_trace::suite::ipc1_server()
            .into_iter()
            .find(|s| s.name == "server_030")
            .unwrap();
        let conv = run_session(
            SimConfig::with_fdip(),
            spec.build_trace(),
            OrgKind::Conv,
            400_000,
            400_000,
        );
        let bx = run_session(
            SimConfig::with_fdip(),
            spec.build_trace(),
            OrgKind::BtbX,
            400_000,
            400_000,
        );
        assert!(
            bx.stats.btb_mpki() < conv.stats.btb_mpki() * 0.9,
            "BTB-X {} vs Conv {}",
            bx.stats.btb_mpki(),
            conv.stats.btb_mpki()
        );
        assert!(bx.stats.ipc() >= conv.stats.ipc());
    }

    #[test]
    fn decode_resteer_outperforms_execute_only() {
        let image = ProgramImage::generate(&SynthParams::server(900), 13);
        let mut no_dr = SimConfig::without_fdip();
        no_dr.decode_resteer = false;
        let slow = run_session(
            no_dr,
            SyntheticTrace::new(image.clone(), "srv", 13),
            OrgKind::Conv,
            80_000,
            150_000,
        );
        let fast = run_session(
            SimConfig::without_fdip(),
            SyntheticTrace::new(image, "srv", 13),
            OrgKind::Conv,
            80_000,
            150_000,
        );
        assert!(
            fast.stats.ipc() > slow.stats.ipc(),
            "decode resteer must reduce the miss penalty: {} vs {}",
            fast.stats.ipc(),
            slow.stats.ipc()
        );
    }

    #[test]
    fn finite_trace_terminates_cleanly() {
        let r = run_session(
            SimConfig::without_fdip(),
            straight_line(5_000),
            OrgKind::Conv,
            1_000,
            100_000, // more than available: must stop at trace end
        );
        assert!(r.stats.instructions <= 4_000);
    }

    /// A simulator of `kind` at 3.6 KB; `plain` selects the oracle that
    /// ticks every cycle instead of jumping inert spans.
    fn oracle_sim<S: TraceSource>(
        trace: S,
        kind: OrgKind,
        fdip: bool,
        plain: bool,
    ) -> Simulator<S, BtbEngine> {
        let spec = BtbSpec::of(kind).at(BudgetPoint::Kb3_6);
        let config = if fdip {
            SimConfig::with_fdip()
        } else {
            SimConfig::without_fdip()
        };
        let bpu = Bpu::new(
            spec.build_engine().unwrap(),
            config.ras_entries,
            config.decode_resteer,
        );
        let mut sim = Simulator::new(config, trace, bpu, kind.id(), spec.bits());
        sim.plain = plain;
        sim
    }

    /// Committed count, cycle and BPU counters at one mid-window stop.
    type Probe = (u64, u64, BpuStats);

    /// Measure `measure` instructions from the current state, stopping
    /// the driving loop at every 7,000-instruction boundary (which does
    /// not divide the window) to record a [`Probe`], so the two loops
    /// must agree mid-window as well as at the end.
    fn measure_in_steps<S: TraceSource>(
        mut sim: Simulator<S, BtbEngine>,
        measure: u64,
    ) -> (SimStats, Vec<Probe>) {
        sim.begin_measurement();
        let start = sim.committed();
        let mut probes = Vec::new();
        let mut done = 0;
        while done < measure {
            done = (done + 7_000).min(measure);
            sim.run_until_committed(start + done);
            probes.push((sim.committed, sim.cycle, sim.bpu.stats()));
        }
        (sim.into_result().unwrap().stats, probes)
    }

    /// Warm a simulator over `fresh()` for `warmup` instructions, seal it
    /// with a trace checkpoint, and measure `measure` instructions from a
    /// restored copy over another `fresh()` source. A restore resets the
    /// derived `issued_prefix` while the FTQ is occupied; the fast and
    /// the plain loop must still agree after it.
    fn resumed<S: SeekableSource>(
        fresh: impl Fn() -> S,
        kind: OrgKind,
        fdip: bool,
        warmup: u64,
        measure: u64,
    ) -> (SimStats, Vec<Probe>) {
        let mut warm = oracle_sim(fresh(), kind, fdip, false);
        warm.run_until_committed(warmup);
        let sealed = save_sealed("oracle", &warm);
        let checkpoint = warm.trace().checkpoint();
        let restored = |plain: bool| {
            let mut source = fresh();
            source.restore(&checkpoint);
            let mut sim = oracle_sim(source, kind, fdip, plain);
            restore_sealed(&mut sim, "oracle", &sealed).unwrap();
            measure_in_steps(sim, measure)
        };
        let fast = restored(false);
        assert_eq!(fast, restored(true), "{} fdip={fdip} restored", kind.id());
        fast
    }

    #[test]
    fn fast_forward_matches_the_plain_tick_loop() {
        const WARMUP: u64 = 20_000;
        const MEASURE: u64 = 30_000;
        let image = ProgramImage::generate(&SynthParams::server(300), 21);
        let trace = || SyntheticTrace::new(image.clone(), "server_oracle", 21);
        // The same stream in a `.btbt` container, with room for the
        // instructions in flight at the end of the window.
        let path = std::env::temp_dir().join(format!("btbx-oracle-{}.btbt", std::process::id()));
        let file = std::fs::File::create(&path).unwrap();
        btbx_trace::container::write_container(
            file,
            "server_oracle",
            Arch::Arm64,
            &mut trace(),
            WARMUP + MEASURE + 10_000,
        )
        .unwrap();
        let container = btbx_trace::PackedFileSource::open(&path).unwrap();
        for kind in OrgKind::ALL {
            for fdip in [false, true] {
                let what = format!("{} fdip={fdip}", kind.id());
                let straight = |plain: bool| {
                    let mut sim = oracle_sim(trace(), kind, fdip, plain);
                    sim.run_until_committed(WARMUP);
                    measure_in_steps(sim, MEASURE)
                };
                let fast = straight(false);
                assert_eq!(fast, straight(true), "{what}");
                assert!(fast.1.len() > 1, "{what}: the window must stop mid-way");

                // Both loops must agree with the uninterrupted run after
                // a restore, from the generator and from the container.
                let synthetic = resumed(trace, kind, fdip, WARMUP, MEASURE);
                assert_eq!(synthetic, fast, "{what} restored vs uninterrupted");
                let packed = resumed(|| container.clone(), kind, fdip, WARMUP, MEASURE);
                assert_eq!(packed, fast, "{what} restored from .btbt vs uninterrupted");
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
