//! Batched multi-lane execution: many simulations over one decoded event
//! window.
//!
//! A sweep evaluates the same workload against K organization × budget ×
//! FDIP points. Run separately, each point re-decodes the trace and
//! rebuilds its engine; batched, the org-independent work is paid once per
//! group:
//!
//! * **Trace decode / generation** — the event window (`warmup + measure`
//!   plus a bounded look-ahead slack) is materialized once into an
//!   `Arc<PackedBuf>` ([`BatchStream::materialize`]); every lane streams
//!   it through a zero-copy [`SharedSource`] clone.
//! * **Engine construction** — all lane BTBs are validated and built in
//!   one [`EngineBank`] pass before any lane runs, so a bad spec fails
//!   the group up front.
//!
//! Inert-cycle fast-forward is not batch-specific: each lane runs the
//! same simulator loop a solo session uses (see [`crate::sim`]).
//!
//! # Lane divergence rules
//!
//! Everything *behind* the decoded event stream is per-lane and must stay
//! so: BTB contents, perceptron weights, RAS, FTQ occupancy, FDIP cursor,
//! and — less obviously — the cache hierarchy. The FTQ only ever holds
//! correct-path instructions, so the *order* of L1-I accesses is
//! org-independent, but their **timeliness** is not: MSHR coalescing
//! depends on the wall-cycle gap between accesses, which depends on how
//! often the lane's BTB stalls prediction. No microarchitectural state is
//! therefore shared between lanes; only the immutable decoded events are.
//! That is exactly why batched results are bit-identical to solo runs —
//! each lane is a complete, independent simulator fed the same bytes.
//!
//! # Look-ahead slack
//!
//! A lane stops on its committed-instruction target but has already
//! pulled events for everything in flight: up to `rob_entries` waiting to
//! commit, up to `ftq_entries` predicted-but-unfetched, plus staging-
//! block refill granularity. [`lookahead_slack`] over-approximates that
//! bound, so a lane never exhausts the materialized window before its
//! serial twin would have stopped — if the window comes up short, the
//! underlying trace itself ended, and the serial run sees the same end at
//! the same event.

use crate::config::SimConfig;
use crate::session::{self, SessionError};
use crate::sim::EVENT_BLOCK_EVENTS;
use crate::stats::SimResult;
use btbx_core::engine::BtbEngine;
use btbx_core::spec::BtbSpec;
use btbx_core::EngineBank;
use btbx_trace::packed::{PackedBuf, SharedSource};
use btbx_trace::TraceSource;
use std::sync::{Arc, Mutex};

/// One simulation lane of a batched group: a BTB point plus the full
/// simulator configuration it runs under (the per-lane FDIP flag lives in
/// `config.fdip`, same as a solo run).
#[derive(Debug, Clone)]
pub struct BatchLane {
    /// BTB organization, budget and architecture.
    pub spec: BtbSpec,
    /// Full simulator configuration for this lane.
    pub config: SimConfig,
    /// Organization label recorded in the lane's result.
    pub label: String,
}

/// Upper bound on events a lane can consume beyond its committed target:
/// in-flight ROB entries + FTQ occupancy + two staging-block refills,
/// plus margin for the commit-width overshoot. Deliberately generous —
/// slack costs 16 bytes per event once per group.
pub fn lookahead_slack(config: &SimConfig) -> u64 {
    (config.rob_entries + config.ftq_entries) as u64 + 2 * EVENT_BLOCK_EVENTS as u64 + 64
}

/// A decoded, immutable event window shared by every lane of a batched
/// group: the "one trace traversal" the group amortizes.
#[derive(Debug, Clone)]
pub struct BatchStream {
    name: String,
    buf: Arc<PackedBuf>,
    warmup: u64,
    measure: u64,
}

impl BatchStream {
    /// Decode `warmup + measure + slack` events of `trace` into a shared
    /// buffer. `slack` must be at least [`lookahead_slack`] of the widest
    /// lane configuration that will run over the stream.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnboundedMeasure`]: a batched group needs a finite
    /// window to know how much to materialize.
    pub fn materialize<S: TraceSource>(
        mut trace: S,
        warmup: u64,
        measure: u64,
        slack: u64,
    ) -> Result<Self, SessionError> {
        if measure == u64::MAX {
            return Err(SessionError::UnboundedMeasure);
        }
        let window = warmup
            .saturating_add(measure)
            .saturating_add(slack)
            .min(usize::MAX as u64) as usize;
        let name = trace.source_name().to_string();
        let mut buf = PackedBuf::with_capacity(window.min(1 << 24));
        trace.fill_block(&mut buf, window);
        Ok(BatchStream {
            name,
            buf: Arc::new(buf),
            warmup,
            measure,
        })
    }

    /// Events materialized (less than requested only when the trace
    /// itself ended).
    pub fn events(&self) -> usize {
        self.buf.len()
    }

    /// Warm-up window every lane runs.
    pub fn warmup(&self) -> u64 {
        self.warmup
    }

    /// Measurement window every lane runs.
    pub fn measure(&self) -> u64 {
        self.measure
    }

    /// A zero-copy per-lane view of the window (an `Arc` clone).
    pub fn source(&self) -> SharedSource {
        SharedSource::new(self.name.clone(), Arc::clone(&self.buf))
    }

    /// Run one lane over the shared window, building its engine from the
    /// lane spec. The construction path is the same
    /// [`SimSession`](crate::SimSession) back half a solo run uses, so
    /// bit-identity with unbatched runs holds by construction.
    ///
    /// # Errors
    ///
    /// [`SessionError::Spec`] when the lane's spec does not validate.
    pub fn run_lane(&self, lane: &BatchLane) -> Result<SimResult, SessionError> {
        let engine = lane.spec.build_engine()?;
        Ok(self.run_lane_engine(engine, lane))
    }

    /// [`run_lane`](Self::run_lane) with a pre-built engine (e.g. one
    /// lane of an [`EngineBank`]).
    pub fn run_lane_engine(&self, engine: BtbEngine, lane: &BatchLane) -> SimResult {
        session::run_with(
            engine,
            lane.label.clone(),
            lane.spec.bits(),
            lane.config.clone(),
            self.source(),
            self.warmup,
            self.measure,
            None,
            None,
        )
    }
}

/// Builder for a batched group: one workload window, many lanes.
///
/// ```
/// use btbx_core::spec::BtbSpec;
/// use btbx_core::storage::BudgetPoint;
/// use btbx_core::OrgKind;
/// use btbx_trace::suite;
/// use btbx_uarch::batch::{BatchLane, BatchSession};
/// use btbx_uarch::SimConfig;
///
/// let spec = &suite::ipc1_client()[0];
/// let lanes: Vec<BatchLane> = [OrgKind::Conv, OrgKind::BtbX]
///     .into_iter()
///     .map(|org| BatchLane {
///         spec: BtbSpec::of(org).at(BudgetPoint::Kb1_8),
///         config: SimConfig::default(),
///         label: org.id().to_string(),
///     })
///     .collect();
/// let results = BatchSession::new(spec.build_trace())
///     .lanes(lanes)
///     .warmup(5_000)
///     .measure(10_000)
///     .run()
///     .expect("valid lanes");
/// assert_eq!(results.len(), 2);
/// ```
pub struct BatchSession<S> {
    trace: S,
    lanes: Vec<BatchLane>,
    warmup: u64,
    measure: u64,
    threads: usize,
}

impl<S: TraceSource> BatchSession<S> {
    /// Start a batched session over `trace`.
    pub fn new(trace: S) -> Self {
        BatchSession {
            trace,
            lanes: Vec::new(),
            warmup: 0,
            measure: u64::MAX,
            threads: 1,
        }
    }

    /// Set the lanes.
    pub fn lanes(mut self, lanes: impl IntoIterator<Item = BatchLane>) -> Self {
        self.lanes = lanes.into_iter().collect();
        self
    }

    /// Append one lane.
    pub fn lane(mut self, lane: BatchLane) -> Self {
        self.lanes.push(lane);
        self
    }

    /// Warm-up instructions per lane.
    pub fn warmup(mut self, instructions: u64) -> Self {
        self.warmup = instructions;
        self
    }

    /// Measured instructions per lane (must be finite).
    pub fn measure(mut self, instructions: u64) -> Self {
        self.measure = instructions;
        self
    }

    /// Worker threads running lanes concurrently (lanes are independent;
    /// 1 = strictly sequential).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Run every lane; results in lane order.
    ///
    /// # Errors
    ///
    /// [`SessionError::Spec`] when any lane spec is invalid (checked for
    /// the whole group before anything runs) and
    /// [`SessionError::UnboundedMeasure`] without a finite window.
    pub fn run(self) -> Result<Vec<SimResult>, SessionError> {
        self.run_each(|_, _| {})
    }

    /// [`run`](Self::run), invoking `on_done(lane_index, &result)` as
    /// each lane completes (possibly from a worker thread; calls are
    /// serialized). Sweep-style callers publish and journal each lane the
    /// moment it finishes, so a crash mid-group loses only unfinished
    /// lanes.
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run).
    pub fn run_each(
        self,
        on_done: impl FnMut(usize, &SimResult) + Send,
    ) -> Result<Vec<SimResult>, SessionError> {
        let bank = EngineBank::from_specs(self.lanes.iter().map(|l| &l.spec))?;
        let slack = self
            .lanes
            .iter()
            .map(|l| lookahead_slack(&l.config))
            .max()
            .unwrap_or(0);
        let stream = BatchStream::materialize(self.trace, self.warmup, self.measure, slack)?;
        let sink = Mutex::new(on_done);
        let jobs: Vec<_> = bank
            .into_engines()
            .into_iter()
            .zip(&self.lanes)
            .enumerate()
            .map(|(i, (engine, lane))| {
                let stream = &stream;
                let sink = &sink;
                move || {
                    let result = stream.run_lane_engine(engine, lane);
                    (sink.lock().expect("sink poisoned"))(i, &result);
                    result
                }
            })
            .collect();
        Ok(crate::runner::run_jobs("batch", self.threads, jobs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimSession;
    use btbx_core::storage::BudgetPoint;
    use btbx_core::OrgKind;
    use btbx_trace::suite;

    fn lanes() -> Vec<BatchLane> {
        let mut lanes = Vec::new();
        for org in [OrgKind::Conv, OrgKind::BtbX, OrgKind::Pdede] {
            for fdip in [false, true] {
                let config = SimConfig {
                    fdip,
                    ..SimConfig::default()
                };
                lanes.push(BatchLane {
                    spec: BtbSpec::of(org).at(BudgetPoint::Kb1_8),
                    config,
                    label: org.id().to_string(),
                });
            }
        }
        lanes
    }

    #[test]
    fn batched_lanes_match_solo_sessions() {
        let spec = &suite::ipc1_client()[0];
        let batched = BatchSession::new(spec.build_trace())
            .lanes(lanes())
            .warmup(4_000)
            .measure(8_000)
            .run()
            .unwrap();
        for (lane, got) in lanes().iter().zip(&batched) {
            let solo = SimSession::new(spec.build_trace())
                .btb_spec(lane.spec)
                .config(lane.config.clone())
                .label(lane.label.clone())
                .warmup(4_000)
                .measure(8_000)
                .run()
                .unwrap();
            assert_eq!(got.stats, solo.stats, "lane {}", lane.label);
            assert_eq!(got.org, solo.org);
            assert_eq!(got.btb_budget_bits, solo.btb_budget_bits);
        }
    }

    #[test]
    fn lane_threads_do_not_change_results() {
        let spec = &suite::ipc1_client()[0];
        let serial = BatchSession::new(spec.build_trace())
            .lanes(lanes())
            .warmup(2_000)
            .measure(5_000)
            .run()
            .unwrap();
        let threaded = BatchSession::new(spec.build_trace())
            .lanes(lanes())
            .warmup(2_000)
            .measure(5_000)
            .threads(4)
            .run()
            .unwrap();
        assert_eq!(serial.len(), threaded.len());
        for (a, b) in serial.iter().zip(&threaded) {
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn on_done_fires_once_per_lane() {
        let spec = &suite::ipc1_client()[0];
        let seen = Mutex::new(Vec::new());
        let results = BatchSession::new(spec.build_trace())
            .lanes(lanes())
            .warmup(1_000)
            .measure(2_000)
            .run_each(|i, r| seen.lock().unwrap().push((i, r.stats.instructions)))
            .unwrap();
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen.len(), results.len());
        for (i, (lane, instrs)) in seen.iter().enumerate() {
            assert_eq!(*lane, i);
            assert_eq!(*instrs, results[i].stats.instructions);
        }
    }

    #[test]
    fn unbounded_measure_is_rejected() {
        let spec = &suite::ipc1_client()[0];
        let err = BatchSession::new(spec.build_trace())
            .lanes(lanes())
            .warmup(1_000)
            .run()
            .unwrap_err();
        assert_eq!(err, SessionError::UnboundedMeasure);
    }

    #[test]
    fn invalid_lane_fails_the_group_before_running() {
        let spec = &suite::ipc1_client()[0];
        let mut bad = lanes();
        bad.push(BatchLane {
            spec: BtbSpec::of(OrgKind::BtbX).budget_bits(3),
            config: SimConfig::default(),
            label: "bad".into(),
        });
        let err = BatchSession::new(spec.build_trace())
            .lanes(bad)
            .warmup(1_000)
            .measure(2_000)
            .run()
            .unwrap_err();
        assert!(matches!(err, SessionError::Spec(_)), "{err}");
    }

    #[test]
    fn short_trace_ends_lanes_like_solo_runs() {
        // A window far beyond the trace's length: lanes and solo runs
        // must agree on where the stream ends.
        use btbx_trace::source::VecSource;
        use btbx_trace::TraceInstr;
        let instrs: Vec<TraceInstr> = (0..3_000u64)
            .map(|i| TraceInstr::other(0x1000 + (i % 64) * 4, 4))
            .collect();
        let lane = BatchLane {
            spec: BtbSpec::of(OrgKind::Conv).at(BudgetPoint::Kb1_8),
            config: SimConfig::without_fdip(),
            label: "conv".into(),
        };
        let batched = BatchSession::new(VecSource::new("short", instrs.clone()))
            .lanes([lane.clone()])
            .warmup(1_000)
            .measure(50_000)
            .run()
            .unwrap();
        let solo = SimSession::new(VecSource::new("short", instrs))
            .btb_spec(lane.spec)
            .config(lane.config)
            .warmup(1_000)
            .measure(50_000)
            .run()
            .unwrap();
        assert_eq!(batched[0].stats, solo.stats);
    }
}
