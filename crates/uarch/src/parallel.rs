//! [`ParallelSession`]: the builder older callers use to run one point.
//!
//! A run is one serial simulation: it warms up, then measures, exactly
//! as [`SimSession`](crate::SimSession) does.
//! [`shards`](ParallelSession::shards),
//! [`threads`](ParallelSession::threads) and
//! [`checkpoints`](ParallelSession::checkpoints) do nothing: interval
//! shards could not overlap, because each started from its
//! predecessor's end state (see EXPERIMENTS.md, "Warm snapshots").
//!
//! Warm snapshots themselves stay: [`crate::session::run_resumed`] seals
//! and restores a run mid-window, and the determinism suites and `btbx
//! trace check` hold it to the uninterrupted run byte for byte.

use crate::session::{spec_simulator, SessionError};
use crate::sim::EVENT_BLOCK_BYTES;
use crate::stats::SimResult;
use crate::SimConfig;
use btbx_core::spec::BtbSpec;
use btbx_trace::TraceSource;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// Per-run telemetry (perfbench reports it as its `parallel.*` metrics).
/// It reads the same at every shard count, because every run is serial.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelTelemetry {
    /// Wall-clock spent building the BTB and the simulator before the
    /// run started.
    pub serial_setup_seconds: f64,
    /// Wall-clock spent positioning sources. Always 0: a run streams its
    /// source from the start.
    pub position_seconds: f64,
    /// Event-buffer footprint of the run: one packed staging block
    /// ([`EVENT_BLOCK_BYTES`]), whatever the window length.
    pub peak_event_buffer_bytes: u64,
    /// Wall-clock spent restoring warm state. Always 0: a run warms up
    /// itself and restores no snapshot.
    pub restore_seconds: f64,
    /// Largest sealed snapshot the run produced or consumed. Always 0:
    /// a run seals no snapshot.
    pub snapshot_bytes: u64,
    /// The committed count at the end of warm-up (`W′ ≥ warmup`,
    /// overshooting by less than the commit width).
    pub warmed_instructions: u64,
}

/// Outcome of a run: the result plus its telemetry.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// The simulation result.
    pub result: SimResult,
    /// Telemetry for this run.
    pub telemetry: ParallelTelemetry,
}

/// Builder for one simulation of one workload.
///
/// `factory` yields the trace stream; it is called once per run.
pub struct ParallelSession<F> {
    factory: F,
    spec: BtbSpec,
    config: SimConfig,
    label: Option<String>,
    warmup: u64,
    measure: u64,
    abort: Option<Arc<AtomicBool>>,
}

impl<S, F> ParallelSession<F>
where
    S: TraceSource,
    F: Fn() -> S,
{
    /// Start a session: `factory` yields the trace stream, `spec`
    /// describes the BTB under test.
    ///
    /// Defaults: Table II config, no warm-up, measurement to the end of
    /// the trace.
    pub fn new(factory: F, spec: BtbSpec) -> Self {
        ParallelSession {
            factory,
            spec,
            config: SimConfig::default(),
            label: None,
            warmup: 0,
            measure: u64::MAX,
            abort: None,
        }
    }

    /// Replace the whole simulator configuration.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Override the organization label recorded in the result.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Warm-up: the measurement window starts after this many committed
    /// instructions.
    pub fn warmup(mut self, instructions: u64) -> Self {
        self.warmup = instructions;
        self
    }

    /// Total measured instructions (default: to the end of the trace).
    pub fn measure(mut self, instructions: u64) -> Self {
        self.measure = instructions;
        self
    }

    /// Kept for source compatibility: a run is serial, so this does
    /// nothing.
    pub fn shards(self, _shards: usize) -> Self {
        self
    }

    /// Kept for source compatibility: a run is serial, so this does
    /// nothing.
    pub fn threads(self, _threads: usize) -> Self {
        self
    }

    /// Kept for source compatibility: a run is serial, so this does
    /// nothing.
    pub fn checkpoints(self, _on: bool) -> Self {
        self
    }

    /// Attach a cooperative cancellation flag: once it turns true, the
    /// run stops at its next poll boundary and returns
    /// [`SessionError::Aborted`]. Services use this for per-request
    /// deadlines.
    pub fn abort(mut self, flag: Arc<AtomicBool>) -> Self {
        self.abort = Some(flag);
        self
    }

    /// Warm up, record `W′`, and measure.
    ///
    /// # Errors
    ///
    /// [`SessionError::Spec`] when the BTB spec does not validate,
    /// [`SessionError::Aborted`] when the abort flag fired and
    /// [`SessionError::Trace`] when the trace source failed mid-stream.
    pub fn run(self) -> Result<ParallelOutcome, SessionError> {
        let setup_started = Instant::now();
        let org = self.label.unwrap_or_else(|| self.spec.org.id().to_string());
        let mut sim = spec_simulator(&self.spec, &self.config, (self.factory)(), org)?;
        if let Some(flag) = self.abort {
            sim.set_abort(flag);
        }
        let serial_setup_seconds = setup_started.elapsed().as_secs_f64();

        sim.run_until_committed(self.warmup);
        let warmed_instructions = sim.committed();
        sim.begin_measurement();
        sim.run_until_committed(warmed_instructions.saturating_add(self.measure));
        Ok(ParallelOutcome {
            result: sim.into_result()?,
            telemetry: ParallelTelemetry {
                serial_setup_seconds,
                peak_event_buffer_bytes: EVENT_BLOCK_BYTES,
                warmed_instructions,
                ..ParallelTelemetry::default()
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimSession;
    use btbx_core::storage::BudgetPoint;
    use btbx_core::OrgKind;
    use btbx_trace::record::TraceInstr;
    use btbx_trace::source::VecSource;

    fn straight_line(n: u64) -> VecSource {
        VecSource::new(
            "line",
            (0..n)
                .map(|i| TraceInstr::other(0x1000 + i * 4, 4))
                .collect(),
        )
    }

    #[test]
    fn every_shard_count_equals_the_serial_session() {
        let spec = BtbSpec::of(OrgKind::Conv).at(BudgetPoint::Kb1_8);
        let serial = SimSession::new(straight_line(60_000))
            .btb_spec(spec)
            .fdip(false)
            .warmup(5_000)
            .measure(30_000)
            .run()
            .unwrap();
        for shards in [1usize, 3] {
            let out = ParallelSession::new(|| straight_line(60_000), spec)
                .config(SimConfig::without_fdip())
                .warmup(5_000)
                .measure(30_000)
                .shards(shards)
                .threads(4)
                .run()
                .unwrap();
            assert_eq!(out.result.stats, serial.stats, "shards = {shards}");
            assert_eq!(out.result.org, serial.org);
            assert_eq!(out.result.btb_budget_bits, serial.btb_budget_bits);
        }
    }

    #[test]
    fn telemetry_reads_the_same_at_every_shard_count() {
        let spec = BtbSpec::of(OrgKind::Conv).at(BudgetPoint::Kb1_8);
        for shards in [1usize, 2] {
            let out = ParallelSession::new(|| straight_line(100_000), spec)
                .config(SimConfig::without_fdip())
                .warmup(10_000)
                .measure(40_000)
                .shards(shards)
                .threads(2)
                .checkpoints(true)
                .run()
                .unwrap();
            let t = out.telemetry;
            assert!(
                (10_000..10_000 + 6).contains(&t.warmed_instructions),
                "shards = {shards}: W′ = {}",
                t.warmed_instructions
            );
            assert_eq!(t.restore_seconds, 0.0, "shards = {shards}");
            assert_eq!(t.snapshot_bytes, 0, "shards = {shards}");
            assert_eq!(t.position_seconds, 0.0, "shards = {shards}");
            assert_eq!(t.peak_event_buffer_bytes, EVENT_BLOCK_BYTES);
            assert!(t.serial_setup_seconds < 1.0);
        }
    }

    #[test]
    fn invalid_spec_is_reported() {
        let spec = BtbSpec::of(OrgKind::BtbX).budget_bits(3);
        let err = ParallelSession::new(|| straight_line(100), spec)
            .run()
            .unwrap_err();
        assert!(matches!(err, SessionError::Spec(_)), "{err}");
    }

    #[test]
    fn unbounded_measure_runs_to_trace_end() {
        let spec = BtbSpec::of(OrgKind::Conv);
        for shards in [1usize, 4] {
            let out = ParallelSession::new(|| straight_line(5_000), spec)
                .config(SimConfig::without_fdip())
                .shards(shards)
                .run()
                .unwrap();
            assert!(out.result.stats.instructions > 0);
            assert!(out.result.stats.instructions <= 5_000);
        }
    }

    #[test]
    fn a_fired_abort_flag_fails_the_run() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let spec = BtbSpec::of(OrgKind::Conv).at(BudgetPoint::Kb1_8);
        let fired = Arc::new(AtomicBool::new(true));
        let err = SimSession::new(straight_line(200_000))
            .btb_spec(spec)
            .warmup(10_000)
            .measure(100_000)
            .abort(Arc::clone(&fired))
            .run()
            .unwrap_err();
        assert_eq!(err, SessionError::Aborted);
        let err = ParallelSession::new(|| straight_line(200_000), spec)
            .warmup(10_000)
            .measure(100_000)
            .abort(fired)
            .run()
            .unwrap_err();
        assert_eq!(err, SessionError::Aborted);
    }
}
