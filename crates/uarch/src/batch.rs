//! Batched multi-lane execution: many simulations over one trace source.
//!
//! A sweep evaluates the same workload against K organization × budget ×
//! FDIP points. Run separately, each point rebuilds its trace source —
//! for a synthetic workload that means regenerating its program image,
//! most of a short run's cost. Batched, the source is built once per
//! group and every lane runs as an ordinary [`SimSession`] over its own
//! clone of it. A clone is cheap: a synthetic walker shares its image
//! behind an `Arc` and copies only its dynamic state, and a file-backed
//! source shares its handle and index.
//!
//! [`BatchSession`] validates every lane spec before any lane runs, so a
//! bad spec fails the group up front. A sweep (`btbx_bench`'s
//! `Sweep::run`) runs its groups the same way, one source per group.
//!
//! # Lane divergence rules
//!
//! Everything a lane simulates is per-lane and must stay so: BTB
//! contents, perceptron weights, RAS, FTQ occupancy, FDIP cursor, and —
//! less obviously — the cache hierarchy. The FTQ only ever holds
//! correct-path instructions, so the *order* of L1-I accesses is
//! org-independent, but their **timeliness** is not: MSHR coalescing
//! depends on the wall-cycle gap between accesses, which depends on how
//! often the lane's BTB stalls prediction. No microarchitectural state is
//! therefore shared between lanes; only the immutable program image (or
//! container index) behind the cloned source is. That is why batched
//! results are bit-identical to solo runs: each lane *is* a solo run,
//! over a clone of the source the solo run would have built.

use crate::config::SimConfig;
use crate::session::{SessionError, SimSession};
use crate::stats::SimResult;
use btbx_core::spec::BtbSpec;
use btbx_trace::TraceSource;
use std::sync::Mutex;

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

/// Builder for a batched group: one trace source, many lanes.
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

impl<S: TraceSource + Clone + Send + Sync> BatchSession<S> {
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

    /// Measured instructions per lane (default: to trace end).
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
    /// the whole group before anything runs), or the error of the first
    /// lane whose run failed (its trace source failed mid-stream); that
    /// failure stops lanes that have not started.
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
        for lane in &self.lanes {
            lane.spec.validate()?;
        }
        let sink = Mutex::new(on_done);
        let jobs: Vec<_> = self
            .lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| {
                let trace = &self.trace;
                let sink = &sink;
                let job = move || {
                    let result = SimSession::new(trace.clone())
                        .btb_spec(lane.spec)
                        .config(lane.config.clone())
                        .label(lane.label.clone())
                        .warmup(self.warmup)
                        .measure(self.measure)
                        .run()?;
                    (sink.lock().expect("sink poisoned"))(i, &result);
                    Ok(result)
                };
                (format!("#{i} {}", lane.label), job)
            })
            .collect();
        crate::runner::try_run_named_jobs("batch", self.threads, jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn a_lane_over_a_failing_container_fails_the_group() {
        use btbx_core::types::Arch;
        use btbx_trace::container::{write_container, PackedFileSource};
        use btbx_trace::source::VecSource;
        use btbx_trace::TraceInstr;
        let path = std::env::temp_dir().join(format!("btbx-batch-eio-{}", std::process::id()));
        let instrs: Vec<TraceInstr> = (0..20_000u64)
            .map(|i| TraceInstr::other(0x1000 + (i % 64) * 4, 4))
            .collect();
        let file = std::fs::File::create(&path).unwrap();
        let mut stream = VecSource::new("shrinking", instrs);
        write_container(file, "shrinking", Arch::Arm64, &mut stream, u64::MAX).unwrap();
        let source = PackedFileSource::open(&path).unwrap();
        // The file shrinks after open: every block read now fails.
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(64)
            .unwrap();
        let mut finished = 0;
        let err = BatchSession::new(source)
            .lanes(lanes())
            .warmup(1_000)
            .measure(2_000)
            .run_each(|_, _| finished += 1)
            .unwrap_err();
        assert!(
            matches!(&err, SessionError::Trace { source, .. } if source == "shrinking"),
            "{err}"
        );
        assert_eq!(finished, 0, "no lane may report a result");
        let _ = std::fs::remove_file(&path);
    }
}
