//! The [`SimSession`] builder: the public way to assemble and run one
//! simulation.
//!
//! [`crate::sim::simulate`] grew six positional arguments; a session names
//! every knob, validates the BTB spec instead of panicking, and can stream
//! per-interval statistics while the simulation runs:
//!
//! ```
//! use btbx_trace::suite;
//! use btbx_uarch::SimSession;
//! use btbx_core::spec::BtbSpec;
//! use btbx_core::OrgKind;
//!
//! let spec = &suite::ipc1_client()[0];
//! let mut curve = Vec::new();
//! let result = SimSession::new(spec.build_trace())
//!     .btb_spec(BtbSpec::of(OrgKind::BtbX))
//!     .fdip(true)
//!     .warmup(10_000)
//!     .measure(30_000)
//!     .every(10_000, |iv| curve.push(iv.interval_ipc()))
//!     .run()
//!     .expect("valid session");
//! assert!(result.stats.ipc() > 0.0);
//! assert_eq!(curve.len(), 3);
//! ```

use crate::bpu::{Bpu, BpuStats};
use crate::config::SimConfig;
use crate::sim::Simulator;
use crate::stats::SimResult;
use btbx_core::snap::{restore_sealed, save_sealed};
use btbx_core::spec::{BtbSpec, SpecError};
use btbx_core::{Btb, BtbEngine};
use btbx_trace::source::SeekableSource;
use btbx_trace::TraceSource;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// A statistics snapshot streamed after every measurement interval.
///
/// All counters are cumulative over the measurement window; the `delta_*`
/// fields cover just the interval that ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalStats {
    /// 0-based interval number.
    pub index: u64,
    /// Instructions committed in the window so far.
    pub instructions: u64,
    /// Cycles elapsed in the window so far.
    pub cycles: u64,
    /// Instructions committed in this interval.
    pub delta_instructions: u64,
    /// Cycles elapsed in this interval.
    pub delta_cycles: u64,
    /// BPU counters accumulated over the window so far.
    pub bpu: BpuStats,
}

impl IntervalStats {
    /// IPC over the whole window so far.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// IPC over just this interval.
    pub fn interval_ipc(&self) -> f64 {
        if self.delta_cycles == 0 {
            0.0
        } else {
            self.delta_instructions as f64 / self.delta_cycles as f64
        }
    }

    /// Taken-branch BTB MPKI over the window so far.
    pub fn btb_mpki(&self) -> f64 {
        self.bpu.btb_mpki(self.instructions)
    }
}

/// Why a [`SimSession`] (or [`crate::parallel::ParallelSession`] or
/// [`run_resumed`]) cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// Neither [`SimSession::btb`] nor [`SimSession::btb_spec`] was called.
    NoBtb,
    /// The configured [`BtbSpec`] does not validate.
    Spec(SpecError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::NoBtb => {
                write!(f, "session has no BTB: call .btb(...) or .btb_spec(...)")
            }
            SessionError::Spec(e) => write!(f, "invalid BTB spec: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<SpecError> for SessionError {
    fn from(e: SpecError) -> Self {
        SessionError::Spec(e)
    }
}

enum BtbSource<B> {
    None,
    Instance {
        btb: B,
        label: String,
        budget_bits: u64,
    },
    Spec(BtbSpec),
}

pub(crate) type Observer<'a> = (u64, Box<dyn FnMut(&IntervalStats) + 'a>);

/// Builder for one simulation of a trace on a BTB organization.
///
/// Defaults: Table II config with FDIP enabled, no warm-up, measurement to
/// the end of the trace, no interval streaming.
///
/// The session is generic over the BTB type `B`. Spec-driven sessions
/// ([`btb_spec`](Self::btb_spec)) build a [`btbx_core::BtbEngine`]
/// regardless of `B`; [`btb`](Self::btb) accepts any already-built [`Btb`]
/// instance, which is how out-of-tree organizations plug in.
pub struct SimSession<'a, S, B: Btb = BtbEngine> {
    trace: S,
    btb: BtbSource<B>,
    config: SimConfig,
    warmup: u64,
    measure: u64,
    label: Option<String>,
    observer: Option<Observer<'a>>,
    abort: Option<Arc<AtomicBool>>,
}

impl<'a, S: TraceSource> SimSession<'a, S> {
    /// Start a session over `trace`.
    pub fn new(trace: S) -> Self {
        SimSession {
            trace,
            btb: BtbSource::None,
            config: SimConfig::default(),
            warmup: 0,
            measure: u64::MAX,
            label: None,
            observer: None,
            abort: None,
        }
    }
}

impl<'a, S: TraceSource, B: Btb> SimSession<'a, S, B> {
    /// Use an already-built BTB instance — a [`btbx_core::BtbEngine`] or
    /// any other [`Btb`] implementation. Its reported storage is
    /// recorded as the budget; prefer [`btb_spec`](Self::btb_spec) for
    /// validated, declarative construction.
    pub fn btb<B2: Btb>(self, btb: B2) -> SimSession<'a, S, B2> {
        let label = btb.name().to_string();
        let budget_bits = btb.storage().total_bits;
        SimSession {
            trace: self.trace,
            btb: BtbSource::Instance {
                btb,
                label,
                budget_bits,
            },
            config: self.config,
            warmup: self.warmup,
            measure: self.measure,
            label: self.label,
            observer: self.observer,
            abort: self.abort,
        }
    }

    /// Build the BTB from a validated spec at [`run`](Self::run) time; the
    /// spec's nominal budget is recorded in the result. The instance is a
    /// statically dispatched [`btbx_core::BtbEngine`].
    pub fn btb_spec(mut self, spec: BtbSpec) -> Self {
        self.btb = BtbSource::Spec(spec);
        self
    }

    /// Replace the whole simulator configuration (Table II defaults).
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Toggle FDIP instruction prefetching.
    pub fn fdip(mut self, on: bool) -> Self {
        self.config.fdip = on;
        self
    }

    /// Warm structures over this many committed instructions before
    /// measuring (Section VI-A methodology).
    pub fn warmup(mut self, instructions: u64) -> Self {
        self.warmup = instructions;
        self
    }

    /// Measure this many committed instructions (default: to trace end).
    pub fn measure(mut self, instructions: u64) -> Self {
        self.measure = instructions;
        self
    }

    /// Override the organization label recorded in the result (defaults to
    /// the BTB's own name or the spec's org id).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Stream an [`IntervalStats`] snapshot to `callback` after every
    /// `interval` committed instructions of the measurement window.
    pub fn every(mut self, interval: u64, callback: impl FnMut(&IntervalStats) + 'a) -> Self {
        assert!(interval > 0, "interval must be positive");
        self.observer = Some((interval, Box::new(callback)));
        self
    }

    /// Attach a cooperative cancellation flag: once it turns true, the
    /// run panics with [`crate::sim::ABORT_MARKER`] instead of ticking to
    /// completion. Services use this to bound runaway requests.
    pub fn abort(mut self, flag: Arc<AtomicBool>) -> Self {
        self.abort = Some(flag);
        self
    }

    /// Run the simulation.
    ///
    /// # Errors
    ///
    /// [`SessionError::NoBtb`] when no BTB was configured and
    /// [`SessionError::Spec`] when the configured spec does not validate.
    pub fn run(self) -> Result<SimResult, SessionError> {
        match self.btb {
            BtbSource::None => Err(SessionError::NoBtb),
            BtbSource::Instance {
                btb,
                label,
                budget_bits,
            } => Ok(run_with(
                btb,
                self.label.unwrap_or(label),
                budget_bits,
                self.config,
                self.trace,
                self.warmup,
                self.measure,
                self.observer,
                self.abort,
            )),
            BtbSource::Spec(spec) => {
                // Static dispatch: the engine monomorphizes the hot path.
                let engine = spec.build_engine()?;
                Ok(run_with(
                    engine,
                    self.label.unwrap_or_else(|| spec.org.id().to_string()),
                    spec.bits(),
                    self.config,
                    self.trace,
                    self.warmup,
                    self.measure,
                    self.observer,
                    self.abort,
                ))
            }
        }
    }
}

/// Shared back half of [`SimSession::run`], monomorphized per BTB type.
#[allow(clippy::too_many_arguments)]
fn run_with<S: TraceSource, B: Btb>(
    btb: B,
    label: String,
    budget_bits: u64,
    config: SimConfig,
    trace: S,
    warmup: u64,
    measure: u64,
    mut observer: Option<Observer<'_>>,
    abort: Option<Arc<AtomicBool>>,
) -> SimResult {
    let bpu = Bpu::new(btb, config.ras_entries, config.decode_resteer);
    let mut sim = Simulator::new(config, trace, bpu, label, budget_bits);
    if let Some(flag) = abort {
        sim.set_abort(flag);
    }
    let interval = observer.as_ref().map(|(n, _)| *n);
    let mut result = sim.run_observed(warmup, measure, interval, &mut |iv| {
        if let Some((_, cb)) = observer.as_mut() {
            cb(iv);
        }
    });
    result.btb_budget_bits = budget_bits;
    result
}

/// A simulator over `source` with the BTB `spec` describes, recording
/// `org` and the spec's budget in its result.
pub(crate) fn spec_simulator<S: TraceSource>(
    spec: &BtbSpec,
    config: &SimConfig,
    source: S,
    org: String,
) -> Result<Simulator<S, BtbEngine>, SpecError> {
    let engine = spec.build_engine()?;
    let bpu = Bpu::new(engine, config.ras_entries, config.decode_resteer);
    Ok(Simulator::new(
        config.clone(),
        source,
        bpu,
        org,
        spec.bits(),
    ))
}

/// Run one point as [`SimSession`] would, but cut its measurement window
/// into `segments` equal stretches and carry the run across each cut
/// through a warm snapshot: the running simulator is sealed
/// ([`save_sealed`]) alongside a trace checkpoint and dropped, and a fresh
/// simulator over a fresh `factory()` source restores both and goes on.
///
/// A restore reproduces the simulator and the source bit for bit, so the
/// result equals the uninterrupted run's whatever `segments` is (0 is
/// treated as 1). `btbx trace check` and the determinism suites hold the
/// warm-snapshot code to that.
///
/// # Errors
///
/// [`SessionError::Spec`] when `spec` does not validate.
///
/// # Panics
///
/// Panics when a snapshot fails to restore into the simulator it was
/// sealed from, which would be a bug in a [`btbx_core::snap::Snapshot`]
/// implementation.
pub fn run_resumed<S: SeekableSource>(
    factory: impl Fn() -> S,
    spec: BtbSpec,
    config: &SimConfig,
    warmup: u64,
    measure: u64,
    segments: u64,
) -> Result<SimResult, SessionError> {
    let org = spec.org.id();
    let identity = format!("resume|{org}|{}b|{config:?}", spec.bits());
    let mut sim = spec_simulator(&spec, config, factory(), org.to_string())?;
    sim.run_until_committed(warmup);
    sim.begin_measurement();
    let start = sim.committed();
    let segments = segments.max(1);
    let chunk = measure.div_ceil(segments);
    for cut in 1..segments {
        sim.run_until_committed(start.saturating_add(chunk.saturating_mul(cut)));
        let sealed = save_sealed(&identity, &sim);
        let mut source = factory();
        source.restore(&sim.trace().checkpoint());
        sim = spec_simulator(&spec, config, source, org.to_string())
            .expect("the spec built the first simulator");
        restore_sealed(&mut sim, &identity, &sealed)
            .unwrap_or_else(|e| panic!("restoring the snapshot sealed at cut {cut}: {e}"));
    }
    sim.run_until_committed(start.saturating_add(measure));
    Ok(sim.into_result())
}

#[cfg(test)]
mod tests {
    use super::*;
    use btbx_core::storage::BudgetPoint;
    use btbx_core::types::Arch;
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
    fn missing_btb_is_an_error() {
        let err = SimSession::new(straight_line(100)).run().unwrap_err();
        assert_eq!(err, SessionError::NoBtb);
    }

    #[test]
    fn invalid_spec_surfaces_as_session_error() {
        let err = SimSession::new(straight_line(100))
            .btb_spec(BtbSpec::of(OrgKind::BtbX).budget_bits(3))
            .run()
            .unwrap_err();
        assert!(matches!(err, SessionError::Spec(_)), "{err}");
    }

    #[test]
    fn session_matches_positional_simulate() {
        let spec = BtbSpec::of(OrgKind::Conv).at(BudgetPoint::Kb1_8);
        let session = SimSession::new(straight_line(40_000))
            .btb_spec(spec)
            .fdip(false)
            .warmup(5_000)
            .measure(20_000)
            .run()
            .unwrap();
        let positional = crate::sim::simulate(
            SimConfig::without_fdip(),
            straight_line(40_000),
            spec.build_engine().unwrap(),
            "conv",
            5_000,
            20_000,
        );
        assert_eq!(session.stats.instructions, positional.stats.instructions);
        assert_eq!(session.stats.cycles, positional.stats.cycles);
        assert_eq!(session.org, positional.org);
    }

    #[test]
    fn intervals_stream_and_sum_to_totals() {
        let mut snapshots: Vec<IntervalStats> = Vec::new();
        let result = SimSession::new(straight_line(100_000))
            .btb_spec(BtbSpec::of(OrgKind::Conv))
            .fdip(false)
            .warmup(10_000)
            .measure(60_000)
            .every(20_000, |iv| snapshots.push(*iv))
            .run()
            .unwrap();
        assert_eq!(snapshots.len(), 3, "60k window / 20k interval");
        for (i, iv) in snapshots.iter().enumerate() {
            assert_eq!(iv.index, i as u64);
            assert!(iv.delta_instructions >= 20_000);
            assert!(iv.interval_ipc() > 0.0);
        }
        let last = snapshots.last().unwrap();
        assert_eq!(last.instructions, result.stats.instructions);
        assert_eq!(last.cycles, result.stats.cycles);
        let delta_sum: u64 = snapshots.iter().map(|iv| iv.delta_instructions).sum();
        assert_eq!(delta_sum, result.stats.instructions);
    }

    #[test]
    fn trailing_partial_interval_is_reported() {
        let mut count = 0u64;
        let result = SimSession::new(straight_line(100_000))
            .btb_spec(BtbSpec::of(OrgKind::Conv))
            .fdip(false)
            .measure(50_000)
            .every(20_000, |_| count += 1)
            .run()
            .unwrap();
        // 50k window = two full 20k intervals + one 10k remainder.
        assert_eq!(count, 3);
        assert!(result.stats.instructions >= 50_000);
    }

    #[test]
    fn label_override_and_budget_recorded() {
        let spec = BtbSpec::of(OrgKind::BtbX).at(BudgetPoint::Kb7_25);
        let r = SimSession::new(straight_line(5_000))
            .btb_spec(spec)
            .label("btbx-variant")
            .run()
            .unwrap();
        assert_eq!(r.org, "btbx-variant");
        assert_eq!(r.btb_budget_bits, spec.bits());
    }

    #[test]
    fn arch_mismatch_uses_spec_arch() {
        // An x86 spec simply builds an x86-sized BTB; the session does not
        // second-guess the trace's architecture.
        let r = SimSession::new(straight_line(5_000))
            .btb_spec(BtbSpec::of(OrgKind::BtbX).arch(Arch::X86))
            .run()
            .unwrap();
        assert!(r.stats.instructions > 0);
    }
}
