//! The [`SimSession`] builder: the public way to assemble and run one
//! simulation. A session names every knob and validates the BTB spec
//! instead of panicking:
//!
//! ```
//! use btbx_trace::suite;
//! use btbx_uarch::SimSession;
//! use btbx_core::spec::BtbSpec;
//! use btbx_core::OrgKind;
//!
//! let spec = &suite::ipc1_client()[0];
//! let result = SimSession::new(spec.build_trace())
//!     .btb_spec(BtbSpec::of(OrgKind::BtbX))
//!     .fdip(true)
//!     .warmup(10_000)
//!     .measure(30_000)
//!     .run()
//!     .expect("valid session");
//! assert!(result.stats.ipc() > 0.0);
//! ```

use crate::bpu::Bpu;
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

/// Why a [`SimSession`] (or [`crate::parallel::ParallelSession`] or
/// [`run_resumed`]) cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// Neither [`SimSession::btb`] nor [`SimSession::btb_spec`] was called.
    NoBtb,
    /// The configured [`BtbSpec`] does not validate.
    Spec(SpecError),
    /// The run's abort flag fired before the window was measured.
    Aborted,
    /// The trace source failed mid-stream
    /// ([`btbx_trace::TraceSource::error`]), so the window is
    /// incomplete.
    Trace {
        /// The stream's [`btbx_trace::TraceSource::source_name`].
        source: String,
        /// What failed.
        error: String,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::NoBtb => {
                write!(f, "session has no BTB: call .btb(...) or .btb_spec(...)")
            }
            SessionError::Spec(e) => write!(f, "invalid BTB spec: {e}"),
            SessionError::Aborted => write!(f, "simulation aborted by its abort flag"),
            SessionError::Trace { source, error } => {
                write!(f, "trace `{source}` failed mid-stream: {error}")
            }
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

/// Builder for one simulation of a trace on a BTB organization.
///
/// Defaults: Table II config with FDIP enabled, no warm-up, measurement to
/// the end of the trace.
///
/// The session is generic over the BTB type `B`. Spec-driven sessions
/// ([`btb_spec`](Self::btb_spec)) build a [`btbx_core::BtbEngine`]
/// regardless of `B`; [`btb`](Self::btb) accepts any already-built [`Btb`]
/// instance, which is how out-of-tree organizations plug in.
pub struct SimSession<S, B: Btb = BtbEngine> {
    trace: S,
    btb: BtbSource<B>,
    config: SimConfig,
    warmup: u64,
    measure: u64,
    label: Option<String>,
    abort: Option<Arc<AtomicBool>>,
}

impl<S: TraceSource> SimSession<S> {
    /// Start a session over `trace`.
    pub fn new(trace: S) -> Self {
        SimSession {
            trace,
            btb: BtbSource::None,
            config: SimConfig::default(),
            warmup: 0,
            measure: u64::MAX,
            label: None,
            abort: None,
        }
    }
}

impl<S: TraceSource, B: Btb> SimSession<S, B> {
    /// Use an already-built BTB instance — a [`btbx_core::BtbEngine`] or
    /// any other [`Btb`] implementation. Its reported storage is
    /// recorded as the budget; prefer [`btb_spec`](Self::btb_spec) for
    /// validated, declarative construction.
    pub fn btb<B2: Btb>(self, btb: B2) -> SimSession<S, B2> {
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

    /// Attach a cooperative cancellation flag: once it turns true, the
    /// run stops and returns [`SessionError::Aborted`] instead of ticking
    /// to completion. Services use this to bound runaway requests.
    pub fn abort(mut self, flag: Arc<AtomicBool>) -> Self {
        self.abort = Some(flag);
        self
    }

    /// Run the simulation.
    ///
    /// # Errors
    ///
    /// [`SessionError::NoBtb`] when no BTB was configured,
    /// [`SessionError::Spec`] when the configured spec does not validate,
    /// [`SessionError::Aborted`] when the abort flag fired and
    /// [`SessionError::Trace`] when the trace source failed mid-stream.
    pub fn run(self) -> Result<SimResult, SessionError> {
        match self.btb {
            BtbSource::None => Err(SessionError::NoBtb),
            BtbSource::Instance {
                btb,
                label,
                budget_bits,
            } => {
                let bpu = Bpu::new(btb, self.config.ras_entries, self.config.decode_resteer);
                let label = self.label.unwrap_or(label);
                let sim = Simulator::new(self.config, self.trace, bpu, label, budget_bits);
                run_armed(sim, self.warmup, self.measure, self.abort)
            }
            BtbSource::Spec(spec) => {
                // Static dispatch: the engine monomorphizes the hot path.
                let label = self.label.unwrap_or_else(|| spec.org.id().to_string());
                let sim = spec_simulator(&spec, &self.config, self.trace, label)?;
                run_armed(sim, self.warmup, self.measure, self.abort)
            }
        }
    }
}

/// Shared back half of [`SimSession::run`], monomorphized per BTB type:
/// attach the abort flag, then warm up and measure.
fn run_armed<S: TraceSource, B: Btb>(
    mut sim: Simulator<S, B>,
    warmup: u64,
    measure: u64,
    abort: Option<Arc<AtomicBool>>,
) -> Result<SimResult, SessionError> {
    if let Some(flag) = abort {
        sim.set_abort(flag);
    }
    sim.run(warmup, measure)
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
/// [`SessionError::Spec`] when `spec` does not validate and
/// [`SessionError::Trace`] when a source fails mid-stream.
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
        if let Some(e) = sim.failure() {
            return Err(e);
        }
        let sealed = save_sealed(&identity, &sim);
        let mut source = factory();
        source.restore(&sim.trace().checkpoint());
        sim = spec_simulator(&spec, config, source, org.to_string())
            .expect("the spec built the first simulator");
        restore_sealed(&mut sim, &identity, &sealed)
            .unwrap_or_else(|e| panic!("restoring the snapshot sealed at cut {cut}: {e}"));
    }
    sim.run_until_committed(start.saturating_add(measure));
    sim.into_result()
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
