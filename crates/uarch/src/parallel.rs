//! Interval-sharded simulation: split one run's measurement window into
//! `K` contiguous shards, run them on the [`crate::runner`] thread pool,
//! and deterministically merge the results.
//!
//! # How a shard runs
//!
//! A serial run warms `W` instructions and measures `M`. A sharded run
//! splits `[W, W + M)` into `K` chunks and hands **warm
//! microarchitectural snapshots** from shard to shard through a
//! [`WarmLadder`]. Shard 0 warms from position 0 exactly as a serial run
//! would. Every shard, on reaching the next chunk boundary, serializes its
//! complete state (BTB, direction predictor, RAS, caches, MSHRs, FTQ,
//! ROB, FDIP and all in-flight bookkeeping — see [`btbx_core::snap`]) and
//! publishes it together with a trace checkpoint. The next shard restores
//! that pair in O(state) and continues on the *identical* serial
//! trajectory.
//!
//! Each shard **streams** its window from its own trace source, so there
//! is no shared materialization pass and no `O(window)` event buffer —
//! peak event memory is one packed [`crate::sim::EVENT_BLOCK_BYTES`]
//! staging block per live shard (plus, for file-backed
//! [`btbx_trace::AnySource`] streams, one decoded container block per
//! live shard).
//!
//! A cold run pipelines shards hand to hand. Re-runs through a shared
//! warm ladder ([`ParallelSession::warm_ladder`]: a repeated bench, a
//! sweep repetition, a served point) restore every boundary immediately
//! and execute fully in parallel.
//!
//! # Determinism and serial equivalence
//!
//! A snapshot restore reproduces the simulator and the trace source
//! bit for bit, and the merge is a pure reduction over per-shard counters
//! in shard order. A sharded run is therefore **bit-identical to the
//! serial [`SimSession`] for any workload and any shard count**, and
//! byte-identical across repetitions and thread schedules.
//!
//! See EXPERIMENTS.md ("Interval sharding") for the user-facing contract.

use crate::bpu::Bpu;
use crate::runner::run_named_jobs;
use crate::session::{IntervalStats, SessionError, SimSession};
use crate::sim::{Simulator, EVENT_BLOCK_BYTES};
use crate::stats::SimResult;
use crate::SimConfig;
use btbx_core::snap::{restore_sealed, save_sealed};
use btbx_core::spec::BtbSpec;
use btbx_trace::source::SeekableSource;
use std::collections::BTreeMap;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Upper bound on retained warm rungs per ladder; later publishes are
/// dropped once the ladder is full (rungs already present stay usable).
const LADDER_CAPACITY: usize = 1024;

/// The warm-ladder type for [`btbx_trace::AnySource`] streams.
pub type AnyWarmLadder = WarmLadder<btbx_trace::AnyCheckpoint>;

/// The exact-simulation identity a [`WarmLadder`] binds to and warm
/// snapshots are sealed under: workload stream, BTB organization and
/// budget, warm-up length, and the full simulator configuration
/// (fingerprinted via its `Debug` form, which covers every field).
/// Persistence layers key warm-cache files by this string.
pub fn warm_identity(source_name: &str, spec: &BtbSpec, warmup: u64, config: &SimConfig) -> String {
    format!(
        "{}|{}|{}b|warm{}|{:?}",
        source_name,
        spec.org.id(),
        spec.bits(),
        warmup,
        config
    )
}

/// One warm-state rung: a trace checkpoint paired with a sealed
/// microarchitectural snapshot, both taken at the same serial-trajectory
/// moment (the first tick boundary at or past the rung's nominal
/// instruction count).
#[derive(Debug, Clone)]
pub struct WarmEntry<C> {
    /// Trace-source state at the snapshot moment (the source sits ahead
    /// of commit by the in-flight instructions the snapshot carries).
    pub checkpoint: C,
    /// Sealed simulator state ([`btbx_core::snap::save_sealed`] bytes),
    /// shared cheaply between the ladder and persistence layers.
    pub snapshot: Arc<Vec<u8>>,
    /// Actual committed count at the end of warm-up (`W′ ≥ warmup`,
    /// overshooting by less than the commit width). All chunk targets are
    /// `base + i·chunk`, so every restorer continues the same trajectory.
    pub base: u64,
    /// Actual committed count at the snapshot moment.
    pub committed: u64,
    /// Trace-source position at the snapshot moment (lets persistence
    /// re-derive `checkpoint` from a fresh source via `seek`).
    pub position: u64,
}

#[derive(Debug)]
struct WarmState<C> {
    slots: BTreeMap<u64, WarmEntry<C>>,
    poisoned: bool,
}

/// A shared store of warm microarchitectural snapshots keyed by *nominal*
/// instruction count (`warmup + i·chunk`): how the shards of a
/// [`ParallelSession`] hand warm state to each other.
///
/// One warm ladder serves one exact simulation identity — workload, BTB
/// spec, warm-up length and simulator configuration. The first publisher
/// binds the identity string; later use under a different identity panics
/// rather than silently restoring foreign state. Entries are keyed by
/// nominal counts so that runs with *different shard geometries* reuse
/// each other's rungs whenever their boundaries coincide: an entry at key
/// `K` is always "the serial state at the first tick boundary with
/// `committed ≥ base + (K − warmup)`", independent of which run produced
/// it.
#[derive(Debug)]
pub struct WarmLadder<C> {
    identity: Mutex<Option<String>>,
    state: Mutex<WarmState<C>>,
    ready: Condvar,
}

impl<C: Clone> Default for WarmLadder<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: Clone> WarmLadder<C> {
    /// An empty, unbound ladder.
    pub fn new() -> Self {
        WarmLadder {
            identity: Mutex::new(None),
            state: Mutex::new(WarmState {
                slots: BTreeMap::new(),
                poisoned: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Bind the ladder to a simulation identity (first caller wins).
    ///
    /// # Panics
    ///
    /// Panics when already bound to a different identity: snapshots embed
    /// the full BTB and cache state, so cross-identity reuse would replay
    /// the wrong microarchitecture.
    pub fn bind(&self, identity: &str) {
        let mut bound = self.identity.lock().unwrap();
        match bound.as_deref() {
            None => *bound = Some(identity.to_string()),
            Some(prev) => assert_eq!(
                prev, identity,
                "warm ladder is bound to `{prev}`; refusing to reuse it for `{identity}`"
            ),
        }
    }

    /// The bound identity, if any (persistence keys cache files by it).
    pub fn identity(&self) -> Option<String> {
        self.identity.lock().unwrap().clone()
    }

    /// The entry at nominal key `key`, if already published.
    pub fn get(&self, key: u64) -> Option<WarmEntry<C>> {
        self.state.lock().unwrap().slots.get(&key).cloned()
    }

    /// Block until the entry at `key` is published and return it.
    ///
    /// # Panics
    ///
    /// Panics when the ladder is poisoned — the producing shard died, so
    /// waiting would hang forever.
    pub fn wait(&self, key: u64) -> WarmEntry<C> {
        let mut state = self.state.lock().unwrap();
        loop {
            assert!(
                !state.poisoned,
                "warm ladder poisoned: a producing shard failed before publishing key {key}"
            );
            if let Some(e) = state.slots.get(&key) {
                return e.clone();
            }
            state = self.ready.wait(state).unwrap();
        }
    }

    /// Store the entry at `key` (first publish wins; capacity-capped) and
    /// wake every waiter.
    pub fn publish(&self, key: u64, entry: WarmEntry<C>) {
        let mut state = self.state.lock().unwrap();
        if state.slots.len() < LADDER_CAPACITY {
            state.slots.entry(key).or_insert(entry);
        }
        drop(state);
        self.ready.notify_all();
    }

    /// Mark the ladder unusable and wake every waiter (they panic instead
    /// of hanging). Called by the shard-failure drop guard.
    pub fn poison(&self) {
        self.state.lock().unwrap().poisoned = true;
        self.ready.notify_all();
    }

    /// Whether a producing shard died and poisoned the ladder. A
    /// poisoned ladder panics every waiter, so long-lived owners (the
    /// serve layer's per-point ladder map) check this to replace the
    /// entry instead of handing the poison to the next request.
    pub fn is_poisoned(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .poisoned
    }

    /// All entries in key order (persistence walks these).
    pub fn entries(&self) -> Vec<(u64, WarmEntry<C>)> {
        let state = self.state.lock().unwrap();
        state.slots.iter().map(|(k, e)| (*k, e.clone())).collect()
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().slots.len()
    }

    /// `true` when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Poisons the warm ladder if a shard job unwinds before disarming, so
/// waiting shards panic promptly instead of deadlocking on the condvar.
struct PoisonGuard<'a, C: Clone> {
    ladder: &'a WarmLadder<C>,
    armed: bool,
}

impl<C: Clone> Drop for PoisonGuard<'_, C> {
    fn drop(&mut self) {
        if self.armed {
            self.ladder.poison();
        }
    }
}

/// Per-run positioning and buffering telemetry (perfbench reports it as
/// its `parallel.*` metrics). That no serial generation pass creeps back
/// is pinned by an event-count test, not by these timings.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelTelemetry {
    /// Wall-clock spent in the serial prelude of [`ParallelSession::run`]
    /// (validation and shard planning) before any shard job started. The
    /// streaming design keeps this O(1) in the window length.
    pub serial_setup_seconds: f64,
    /// Wall-clock spent positioning sources outside the shards' restore.
    /// Always 0: a checkpoint shard restores its trace position as part
    /// of `restore_seconds`. Kept so existing readers of the telemetry
    /// still compile.
    pub position_seconds: f64,
    /// Event-buffer footprint of the run's design: one packed staging
    /// block per concurrently live shard (`threads × EVENT_BLOCK_BYTES`),
    /// O(shards) not O(window). Computed from the streaming structure,
    /// not instrumented at runtime; a reintroduced serial buffering pass
    /// would show up in the events the run pulls from its sources, which
    /// the module's tests bound.
    pub peak_event_buffer_bytes: u64,
    /// Summed wall-clock the shards spent restoring warm state (trace
    /// checkpoint + snapshot deserialization) — O(state), never
    /// O(position).
    pub restore_seconds: f64,
    /// Largest sealed snapshot produced or consumed this run, in bytes.
    pub snapshot_bytes: u64,
    /// Instructions *simulated* to build warm state this
    /// run (shard 0's cold warm-up). Zero when every boundary — including
    /// the warm-up itself — was restored from the warm ladder, the
    /// telemetry signature of an O(state) re-run.
    pub warmed_instructions: u64,
}

/// Outcome of a sharded run: the merged result plus the merged
/// per-interval statistics stream.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// Merged simulation result (counters summed over shards, derived
    /// metrics recomputed).
    pub result: SimResult,
    /// Global interval stream: shard-local intervals re-indexed and
    /// re-accumulated in trace order, matching what a serial
    /// [`SimSession::every`] observer would see.
    pub intervals: Vec<IntervalStats>,
    /// Positioning/buffering telemetry for this run.
    pub telemetry: ParallelTelemetry,
}

/// Builder for an interval-sharded simulation of one workload.
///
/// `factory` must produce a fresh, identical trace stream per call (every
/// [`btbx_trace::suite::WorkloadSpec`] and any `Clone` source qualifies);
/// each shard streams its own window from its own source instance.
pub struct ParallelSession<'l, S: SeekableSource, F> {
    factory: F,
    spec: BtbSpec,
    config: SimConfig,
    label: Option<String>,
    warmup: u64,
    measure: u64,
    shards: usize,
    interval: Option<u64>,
    threads: usize,
    warm: Option<&'l WarmLadder<S::Checkpoint>>,
    abort: Option<Arc<AtomicBool>>,
}

impl<'l, S, F> ParallelSession<'l, S, F>
where
    S: SeekableSource + Send,
    F: Fn() -> S + Sync,
{
    /// Start a sharded session: `factory` yields one trace stream per
    /// shard, `spec` describes the BTB under test.
    ///
    /// Defaults: Table II config, no warm-up, 1 shard, one interval per
    /// shard, one thread per shard (capped at the host's parallelism),
    /// run-local warm ladder.
    pub fn new(factory: F, spec: BtbSpec) -> Self {
        ParallelSession {
            factory,
            spec,
            config: SimConfig::default(),
            label: None,
            warmup: 0,
            measure: u64::MAX,
            shards: 1,
            interval: None,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            warm: None,
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

    /// Serial-equivalent warm-up: the measurement window starts after this
    /// many committed instructions.
    pub fn warmup(mut self, instructions: u64) -> Self {
        self.warmup = instructions;
        self
    }

    /// Total measured instructions. Must be finite to shard.
    pub fn measure(mut self, instructions: u64) -> Self {
        self.measure = instructions;
        self
    }

    /// Number of shards `K` (0 is treated as 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Emit merged [`IntervalStats`] every `interval` measured
    /// instructions (default: one interval per shard chunk). For aligned
    /// boundaries use an interval that divides the chunk size.
    pub fn every(mut self, interval: u64) -> Self {
        assert!(interval > 0, "interval must be positive");
        self.interval = Some(interval);
        self
    }

    /// Cap worker threads (default: host parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Kept for source compatibility: shards always hand warm snapshots
    /// to each other (see the module docs), so this does nothing.
    ///
    /// # Panics
    ///
    /// Panics when `on` is `false`: no other sharding mode exists.
    pub fn checkpoints(self, on: bool) -> Self {
        assert!(on, "sharded sessions always run in checkpoint mode");
        self
    }

    /// Reuse a [`WarmLadder`] across runs of the *same simulation
    /// identity* (workload, spec, warm-up and configuration): every
    /// boundary already published restores in O(state), so re-runs skip
    /// the serial warm-up entirely and execute fully in parallel.
    pub fn warm_ladder(mut self, ladder: &'l WarmLadder<S::Checkpoint>) -> Self {
        self.warm = Some(ladder);
        self
    }

    /// Attach a cooperative cancellation flag shared by every shard: once
    /// it turns true, each shard panics with
    /// [`crate::sim::ABORT_MARKER`] at its next poll boundary and the run
    /// fails as a whole. Services use this for per-request deadlines.
    pub fn abort(mut self, flag: Arc<AtomicBool>) -> Self {
        self.abort = Some(flag);
        self
    }

    /// Run every shard and merge.
    ///
    /// # Errors
    ///
    /// [`SessionError::Spec`] when the BTB spec does not validate and
    /// [`SessionError::UnboundedMeasure`] when more than one shard is
    /// requested without a finite [`measure`](Self::measure) window.
    pub fn run(self) -> Result<ParallelOutcome, SessionError> {
        let setup_started = Instant::now();
        self.spec.validate().map_err(SessionError::Spec)?;
        if self.measure == u64::MAX && self.shards > 1 {
            return Err(SessionError::UnboundedMeasure);
        }
        let shards = if self.measure == u64::MAX {
            1
        } else {
            // Never create empty shards.
            self.shards.min(self.measure.max(1) as usize).max(1)
        };
        let spec = self.spec;
        let interval = self.interval;

        if shards == 1 {
            // Streamed directly: no positioning, and `measure` may be
            // unbounded. This is exactly the serial session.
            let mut intervals = Vec::new();
            let mut session = SimSession::new((self.factory)())
                .btb_spec(spec)
                .config(self.config.clone())
                .warmup(self.warmup)
                .measure(self.measure);
            if let Some(l) = &self.label {
                session = session.label(l.clone());
            }
            if let Some(a) = &self.abort {
                session = session.abort(Arc::clone(a));
            }
            let result = session
                .every(interval.unwrap_or(self.measure).min(self.measure), |iv| {
                    intervals.push(*iv)
                })
                .run()
                .expect("spec validated above");
            return Ok(ParallelOutcome {
                result,
                intervals,
                telemetry: ParallelTelemetry {
                    peak_event_buffer_bytes: EVENT_BLOCK_BYTES,
                    ..ParallelTelemetry::default()
                },
            });
        }

        self.run_sharded(shards, setup_started)
    }

    /// Sharded back half of [`run`](Self::run): shards restore warm
    /// snapshots from the [`WarmLadder`] (or hand them forward while a
    /// cold run pipelines) and measure to *absolute* committed targets on
    /// the serial trajectory, so the merge is bit-identical to a serial
    /// session for any workload.
    fn run_sharded(
        self,
        shards: usize,
        setup_started: Instant,
    ) -> Result<ParallelOutcome, SessionError> {
        let spec = self.spec;
        let interval = self.interval;
        let warmup = self.warmup;
        let measure = self.measure;
        let chunk = measure.div_ceil(shards as u64);
        // Rounding `chunk` up can leave the tail shards with nothing to
        // measure (e.g. measure 10 over 7 shards → chunk 2 covers the
        // window in 5); drop the empty tail.
        let shards = measure.div_ceil(chunk) as usize;

        let local_warm;
        let warm = match self.warm {
            Some(shared) => shared,
            None => {
                local_warm = WarmLadder::new();
                &local_warm
            }
        };

        struct ShardCost {
            restore_seconds: f64,
            snapshot_bytes: u64,
            warmed_instructions: u64,
        }

        let config = &self.config;
        let label = &self.label;
        let factory = &self.factory;
        let abort = &self.abort;
        let jobs: Vec<(String, _)> = (0..shards)
            .map(|i| {
                let job = move || {
                    // If this job dies before handing its snapshot on,
                    // poison the ladder so downstream shards fail fast
                    // instead of waiting forever.
                    let mut guard = PoisonGuard {
                        ladder: warm,
                        armed: true,
                    };
                    let restore_started = Instant::now();
                    let mut source = factory();
                    let identity = warm_identity(source.source_name(), &spec, warmup, config);
                    warm.bind(&identity);
                    let key = warmup + i as u64 * chunk;
                    let mut snapshot_bytes = 0u64;
                    let mut warmed_instructions = 0u64;

                    let engine = spec.build_engine().expect("spec validated before sharding");
                    let bpu = Bpu::new(engine, config.ras_entries, config.decode_resteer);
                    let org = label.clone().unwrap_or_else(|| spec.org.id().to_string());

                    // Shard 0 may build the warm-up from scratch; every
                    // later shard restores its predecessor's hand-off.
                    let entry = if i == 0 {
                        warm.get(key)
                    } else {
                        Some(warm.wait(key))
                    };
                    let (mut sim, base) = match entry {
                        Some(e) => {
                            source.restore(&e.checkpoint);
                            let mut sim =
                                Simulator::new(config.clone(), source, bpu, org, spec.bits());
                            if let Some(a) = abort {
                                sim.set_abort(Arc::clone(a));
                            }
                            restore_sealed(&mut sim, &identity, &e.snapshot).unwrap_or_else(
                                |err| panic!("warm snapshot restore failed at key {key}: {err}"),
                            );
                            snapshot_bytes = snapshot_bytes.max(e.snapshot.len() as u64);
                            (sim, e.base)
                        }
                        None => {
                            let mut sim =
                                Simulator::new(config.clone(), source, bpu, org, spec.bits());
                            if let Some(a) = abort {
                                sim.set_abort(Arc::clone(a));
                            }
                            sim.run_until_committed(warmup);
                            warmed_instructions = sim.committed();
                            let base = sim.committed();
                            let bytes = Arc::new(save_sealed(&identity, &sim));
                            snapshot_bytes = snapshot_bytes.max(bytes.len() as u64);
                            warm.publish(
                                key,
                                WarmEntry {
                                    checkpoint: sim.trace().checkpoint(),
                                    snapshot: bytes,
                                    base,
                                    committed: sim.committed(),
                                    position: sim.trace().position(),
                                },
                            );
                            (sim, base)
                        }
                    };
                    let restore_seconds = restore_started.elapsed().as_secs_f64();

                    // Absolute target on the serial trajectory: the cut
                    // points are identical to a serial run's tick
                    // boundaries regardless of shard geometry.
                    let nominal = chunk.min(measure - i as u64 * chunk);
                    let target = base + (i as u64 * chunk + nominal).min(measure);
                    // The restore point overshoots the nominal cut by up
                    // to `commit_width - 1` committed instructions; anchor
                    // the interval grid at the global measurement start so
                    // boundaries land exactly where the serial stream puts
                    // them.
                    let grid_offset = sim.committed() - base;
                    sim.begin_measurement();
                    let mut intervals = Vec::new();
                    let trailing = sim.run_measured_aligned(
                        target,
                        Some(interval.unwrap_or(nominal).min(nominal)),
                        grid_offset,
                        &mut |iv: &IntervalStats| intervals.push(*iv),
                    );
                    // An interior shard cut is not a serial interval
                    // boundary: keep the end-state record out of the
                    // merged stream but carry it so accumulation across
                    // the cut stays exact. The final shard's trailing
                    // partial is a real serial record and stays in.
                    let cut = if trailing && i + 1 < shards {
                        intervals.pop()
                    } else {
                        None
                    };

                    if i + 1 < shards {
                        let next_key = warmup + (i as u64 + 1) * chunk;
                        if warm.get(next_key).is_none() {
                            let bytes = Arc::new(save_sealed(&identity, &sim));
                            snapshot_bytes = snapshot_bytes.max(bytes.len() as u64);
                            warm.publish(
                                next_key,
                                WarmEntry {
                                    checkpoint: sim.trace().checkpoint(),
                                    snapshot: bytes,
                                    base,
                                    committed: sim.committed(),
                                    position: sim.trace().position(),
                                },
                            );
                        }
                    }
                    guard.armed = false;
                    let result = sim.into_result();
                    (
                        result,
                        intervals,
                        cut,
                        ShardCost {
                            restore_seconds,
                            snapshot_bytes,
                            warmed_instructions,
                        },
                    )
                };
                (format!("shard{i}"), job)
            })
            .collect();

        let pool_label = self
            .label
            .clone()
            .unwrap_or_else(|| spec.org.id().to_string());
        let threads = self.threads.min(shards);
        let serial_setup_seconds = setup_started.elapsed().as_secs_f64();
        let outputs = run_named_jobs(&pool_label, threads, jobs);
        let mut restore_seconds = 0.0;
        let mut snapshot_bytes = 0u64;
        let mut warmed_instructions = 0u64;
        // Merge in shard (= trace) order. Cumulative interval fields are
        // shard-local; re-base them on the running end-state of all prior
        // shards. `end` tracks that end-state — a popped cut record when
        // the shard stopped between grid points, otherwise the shard's
        // last emitted boundary — and deltas are recomputed between
        // consecutive *merged* records so an interval spanning a shard
        // cut gets the serial value.
        let mut merged: Option<SimResult> = None;
        let mut intervals: Vec<IntervalStats> = Vec::new();
        let mut end: (u64, u64, crate::bpu::BpuStats) = (0, 0, Default::default());
        for (shard_result, shard_intervals, cut, cost) in outputs {
            restore_seconds += cost.restore_seconds;
            snapshot_bytes = snapshot_bytes.max(cost.snapshot_bytes);
            warmed_instructions += cost.warmed_instructions;
            let (base_instr, base_cycles, base_bpu) = end;
            let pushed_any = !shard_intervals.is_empty();
            for iv in &shard_intervals {
                let instructions = base_instr + iv.instructions;
                let cycles = base_cycles + iv.cycles;
                let mut bpu = base_bpu;
                bpu.merge(&iv.bpu);
                let (prev_instr, prev_cycles) = intervals
                    .last()
                    .map(|p| (p.instructions, p.cycles))
                    .unwrap_or_default();
                intervals.push(IntervalStats {
                    index: intervals.len() as u64,
                    instructions,
                    cycles,
                    delta_instructions: instructions - prev_instr,
                    delta_cycles: cycles - prev_cycles,
                    bpu,
                });
            }
            end = if let Some(c) = cut {
                let mut bpu = base_bpu;
                bpu.merge(&c.bpu);
                (base_instr + c.instructions, base_cycles + c.cycles, bpu)
            } else if pushed_any {
                let last = intervals.last().expect("pushed above");
                (last.instructions, last.cycles, last.bpu)
            } else {
                end
            };
            match &mut merged {
                None => merged = Some(shard_result),
                Some(r) => r.stats.merge(&shard_result.stats),
            }
        }
        let mut outcome = ParallelOutcome {
            result: merged.expect("at least one shard"),
            intervals,
            telemetry: ParallelTelemetry::default(),
        };
        outcome.telemetry.serial_setup_seconds = serial_setup_seconds;
        outcome.telemetry.peak_event_buffer_bytes = threads as u64 * EVENT_BLOCK_BYTES;
        outcome.telemetry.restore_seconds = restore_seconds;
        outcome.telemetry.snapshot_bytes = snapshot_bytes;
        outcome.telemetry.warmed_instructions = warmed_instructions;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn one_shard_equals_serial_session() {
        let spec = BtbSpec::of(OrgKind::Conv).at(BudgetPoint::Kb1_8);
        let sharded = ParallelSession::new(|| straight_line(60_000), spec)
            .config(SimConfig::without_fdip())
            .warmup(5_000)
            .measure(30_000)
            .run()
            .unwrap();
        let serial = SimSession::new(straight_line(60_000))
            .btb_spec(spec)
            .fdip(false)
            .warmup(5_000)
            .measure(30_000)
            .run()
            .unwrap();
        assert_eq!(sharded.result.stats.instructions, serial.stats.instructions);
        assert_eq!(sharded.result.stats.cycles, serial.stats.cycles);
        assert_eq!(sharded.result.stats.bpu, serial.stats.bpu);
        assert_eq!(sharded.result.org, serial.org);
        assert_eq!(sharded.intervals.len(), 1);
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
    fn unbounded_measure_cannot_shard() {
        let spec = BtbSpec::of(OrgKind::Conv);
        let err = ParallelSession::new(|| straight_line(100), spec)
            .shards(4)
            .run()
            .unwrap_err();
        assert_eq!(err, SessionError::UnboundedMeasure);
    }

    #[test]
    fn unbounded_measure_single_shard_runs_to_trace_end() {
        let spec = BtbSpec::of(OrgKind::Conv);
        let out = ParallelSession::new(|| straight_line(5_000), spec)
            .config(SimConfig::without_fdip())
            .run()
            .unwrap();
        assert!(out.result.stats.instructions > 0);
        assert!(out.result.stats.instructions <= 5_000);
    }

    fn serial(trace: VecSource, spec: BtbSpec, warmup: u64, measure: u64) -> SimResult {
        SimSession::new(trace)
            .btb_spec(spec)
            .fdip(false)
            .warmup(warmup)
            .measure(measure)
            .run()
            .unwrap()
    }

    #[test]
    fn shard_instruction_coverage_is_exact() {
        // The measured instruction count covers the requested window,
        // overshooting by less than the commit width exactly as the
        // serial run does.
        let spec = BtbSpec::of(OrgKind::Conv).at(BudgetPoint::Kb1_8);
        let out = ParallelSession::new(|| straight_line(200_000), spec)
            .config(SimConfig::without_fdip())
            .warmup(10_000)
            .measure(80_000)
            .shards(4)
            .run()
            .unwrap();
        let reference = serial(straight_line(200_000), spec, 10_000, 80_000);
        assert_eq!(out.result.stats, reference.stats);
        assert!(out.result.stats.instructions >= 80_000);
        assert!(out.result.stats.instructions < 80_000 + 6);
        assert_eq!(out.intervals.len(), 4);
        let sum: u64 = out.intervals.iter().map(|iv| iv.delta_instructions).sum();
        assert_eq!(sum, out.result.stats.instructions);
        let last = out.intervals.last().unwrap();
        assert_eq!(last.instructions, out.result.stats.instructions);
        assert_eq!(last.cycles, out.result.stats.cycles);
        for (i, iv) in out.intervals.iter().enumerate() {
            assert_eq!(iv.index, i as u64);
        }
    }

    #[test]
    fn tiny_measure_with_many_shards_partitions_cleanly() {
        // Regression: chunk rounding used to leave tail shards with
        // `measure - i * chunk` underflowing (or zero instructions to
        // measure); the empty tail must be dropped instead. Chunks below
        // the commit width also exercise shards whose restored snapshot
        // already sits past their target.
        let spec = BtbSpec::of(OrgKind::Conv).at(BudgetPoint::Kb1_8);
        for (measure, shards) in [(10u64, 7usize), (10, 6), (10, 16), (1, 4), (3, 2)] {
            let out = ParallelSession::new(|| straight_line(50_000), spec)
                .config(SimConfig::without_fdip())
                .warmup(64)
                .measure(measure)
                .shards(shards)
                .run()
                .unwrap_or_else(|e| panic!("measure {measure} over {shards} shards: {e}"));
            let reference = serial(straight_line(50_000), spec, 64, measure);
            assert_eq!(
                out.result.stats, reference.stats,
                "measure {measure} over {shards} shards"
            );
            let sum: u64 = out.intervals.iter().map(|iv| iv.delta_instructions).sum();
            assert_eq!(sum, out.result.stats.instructions, "{measure}/{shards}");
        }
    }

    #[test]
    fn reruns_are_byte_identical() {
        let spec = BtbSpec::of(OrgKind::BtbX).at(BudgetPoint::Kb3_6);
        let run = || {
            ParallelSession::new(|| straight_line(150_000), spec)
                .config(SimConfig::without_fdip())
                .warmup(8_000)
                .measure(60_000)
                .shards(3)
                .run()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.result.stats.instructions, b.result.stats.instructions);
        assert_eq!(a.result.stats.cycles, b.result.stats.cycles);
        assert_eq!(a.result.stats.bpu, b.result.stats.bpu);
        assert_eq!(a.result.stats.btb_counts, b.result.stats.btb_counts);
        assert_eq!(a.intervals.len(), b.intervals.len());
        for (x, y) in a.intervals.iter().zip(&b.intervals) {
            assert_eq!(x.instructions, y.instructions);
            assert_eq!(x.cycles, y.cycles);
            assert_eq!(x.bpu, y.bpu);
        }
    }

    #[test]
    fn telemetry_reports_streaming_costs() {
        let spec = BtbSpec::of(OrgKind::Conv).at(BudgetPoint::Kb1_8);
        let out = ParallelSession::new(|| straight_line(100_000), spec)
            .config(SimConfig::without_fdip())
            .warmup(10_000)
            .measure(40_000)
            .shards(4)
            .threads(2)
            .run()
            .unwrap();
        assert_eq!(
            out.telemetry.peak_event_buffer_bytes,
            2 * EVENT_BLOCK_BYTES,
            "two concurrent shards, one packed block each"
        );
        assert!(out.telemetry.serial_setup_seconds < 1.0);
    }

    /// Upper bound on events a run can pull beyond its committed target:
    /// in-flight ROB entries + FTQ occupancy + two staging-block refills,
    /// plus margin for the commit-width overshoot.
    fn lookahead_slack(config: &SimConfig) -> u64 {
        (config.rob_entries + config.ftq_entries) as u64
            + 2 * crate::sim::EVENT_BLOCK_EVENTS as u64
            + 64
    }

    /// Events a sharded run pulls from its sources, against the serial
    /// run's: each shard streams only its own chunk (plus what is in
    /// flight at its stop), so no serial walk of the window may precede
    /// the shards.
    fn assert_sharded_pull_is_bounded<S>(proto: S, warmup: u64, measure: u64)
    where
        S: SeekableSource + Clone + Send + Sync,
    {
        use crate::counting::CountingSource;
        use std::sync::atomic::{AtomicU64, Ordering};
        const SHARDS: usize = 4;
        let spec = BtbSpec::of(OrgKind::BtbX).at(BudgetPoint::Kb3_6);
        let config = SimConfig::default();
        let serial_pulled = Arc::new(AtomicU64::new(0));
        let serial = SimSession::new(CountingSource::new(proto.clone(), serial_pulled.clone()))
            .btb_spec(spec)
            .config(config.clone())
            .warmup(warmup)
            .measure(measure)
            .run()
            .unwrap();
        let sharded_pulled = Arc::new(AtomicU64::new(0));
        let out = ParallelSession::new(
            || CountingSource::new(proto.clone(), sharded_pulled.clone()),
            spec,
        )
        .config(config.clone())
        .warmup(warmup)
        .measure(measure)
        .shards(SHARDS)
        .run()
        .unwrap();
        assert_eq!(out.result.stats, serial.stats);
        let serial_pulled = serial_pulled.load(Ordering::Relaxed);
        let sharded_pulled = sharded_pulled.load(Ordering::Relaxed);
        assert!(serial_pulled >= warmup + measure);
        let bound = serial_pulled + SHARDS as u64 * lookahead_slack(&config);
        assert!(
            sharded_pulled <= bound,
            "{SHARDS} shards pulled {sharded_pulled} events; the serial run pulled \
             {serial_pulled}, so at most {bound} are allowed"
        );
    }

    #[test]
    fn sharded_runs_pull_no_more_events_than_serial_plus_slack() {
        let synthetic = btbx_trace::suite::ipc1_server()[0].build_trace();
        assert_sharded_pull_is_bounded(synthetic.clone(), 20_000, 60_000);

        let path =
            std::env::temp_dir().join(format!("btbx-parallel-pull-{}.btbt", std::process::id()));
        let file = std::fs::File::create(&path).unwrap();
        let mut walker = synthetic;
        btbx_trace::container::write_container(
            file,
            "server",
            btbx_core::types::Arch::Arm64,
            &mut walker,
            120_000,
        )
        .unwrap();
        let container = btbx_trace::PackedFileSource::open(&path).unwrap();
        assert_sharded_pull_is_bounded(container, 20_000, 60_000);
        let _ = std::fs::remove_file(&path);
    }

    /// A pseudo-random branchy trace (calls, returns, conditionals,
    /// indirect branches, loads and stores) whose microarchitectural
    /// state never converges, so a shard that started from anything but
    /// the exact serial state would diverge.
    fn branchy(n: u64) -> VecSource {
        use btbx_core::types::{BranchClass, BranchEvent};
        use btbx_trace::record::MemAccess;
        let mut v = Vec::with_capacity(n as usize);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let pc = 0x1_0000 + (state % 0x8000) * 4;
            let instr = match state % 7 {
                0 => {
                    let class = BranchClass::ALL[(state >> 16) as usize % BranchClass::ALL.len()];
                    let target = 0x1_0000 + ((state >> 24) % 0x8000) * 4;
                    let ev = if class.is_always_taken() || state & 0x100 != 0 {
                        BranchEvent::taken(pc, target, class)
                    } else {
                        BranchEvent::not_taken(pc, target)
                    };
                    TraceInstr::branch(pc, 4, ev)
                }
                1 => TraceInstr::mem(pc, 4, MemAccess::Load(0x80_0000 + (state >> 20) % 0x10000)),
                2 => TraceInstr::mem(pc, 4, MemAccess::Store(0x90_0000 + (state >> 20) % 0x10000)),
                _ => TraceInstr::other(pc, 4),
            };
            v.push(instr);
        }
        VecSource::new("branchy", v)
    }

    #[test]
    fn checkpoint_mode_matches_serial_bit_exactly() {
        // The exactness claim of sharding: even on a workload whose state
        // never converges, every shard count must equal the serial run —
        // all counters, not just MPKI.
        let spec = BtbSpec::of(OrgKind::BtbX).at(BudgetPoint::Kb3_6);
        let serial = SimSession::new(branchy(90_000))
            .btb_spec(spec)
            .warmup(8_000)
            .measure(50_000)
            .run()
            .unwrap();
        for shards in [2usize, 3, 5] {
            let out = ParallelSession::new(|| branchy(90_000), spec)
                .warmup(8_000)
                .measure(50_000)
                .shards(shards)
                .run()
                .unwrap();
            assert_eq!(out.result.stats, serial.stats, "shards = {shards}");
            assert_eq!(out.result.org, serial.org);
            let sum: u64 = out.intervals.iter().map(|iv| iv.delta_instructions).sum();
            assert_eq!(sum, out.result.stats.instructions);
        }
    }

    #[test]
    fn warm_ladder_rerun_is_exact_and_skips_the_warmup() {
        let spec = BtbSpec::of(OrgKind::Pdede).at(BudgetPoint::Kb3_6);
        let warm = WarmLadder::new();
        let run = || {
            ParallelSession::new(|| branchy(90_000), spec)
                .config(SimConfig::without_fdip())
                .warmup(8_000)
                .measure(48_000)
                .shards(3)
                .warm_ladder(&warm)
                .run()
                .unwrap()
        };
        let cold = run();
        assert!(
            cold.telemetry.warmed_instructions >= 8_000,
            "the cold run must simulate the warm-up once"
        );
        assert!(cold.telemetry.snapshot_bytes > 0);
        assert_eq!(warm.len(), 3, "warm-up rung plus two hand-off rungs");
        let rerun = run();
        assert_eq!(
            rerun.telemetry.warmed_instructions, 0,
            "a warm re-run must restore every boundary in O(state)"
        );
        assert_eq!(rerun.result.stats, cold.result.stats);
        for (x, y) in rerun.intervals.iter().zip(&cold.intervals) {
            assert_eq!(x.instructions, y.instructions);
            assert_eq!(x.cycles, y.cycles);
            assert_eq!(x.bpu, y.bpu);
        }
    }

    #[test]
    fn warm_ladder_reuses_rungs_across_shard_geometries() {
        // Keys are nominal (`warmup + i·chunk`), so a 2-shard run and a
        // 4-shard run of the same identity share the rungs where their
        // boundaries coincide — and both match the serial trajectory.
        let spec = BtbSpec::of(OrgKind::Conv).at(BudgetPoint::Kb1_8);
        let warm = WarmLadder::new();
        let run = |shards: usize| {
            ParallelSession::new(|| branchy(80_000), spec)
                .config(SimConfig::without_fdip())
                .warmup(4_000)
                .measure(40_000)
                .shards(shards)
                .warm_ladder(&warm)
                .run()
                .unwrap()
        };
        let two = run(2);
        let four = run(4);
        assert_eq!(two.result.stats, four.result.stats);
        assert_eq!(
            four.telemetry.warmed_instructions, 0,
            "the 4-shard run must reuse the 2-shard run's warm rung"
        );
    }

    #[test]
    #[should_panic(expected = "refusing to reuse")]
    fn warm_ladder_rejects_a_different_identity() {
        let ladder: WarmLadder<u64> = WarmLadder::new();
        ladder.bind("line|conv|14848b|warm100|SimConfig { .. }");
        ladder.bind("line|btbx|14848b|warm100|SimConfig { .. }");
    }

    #[test]
    #[should_panic(expected = "poisoned")]
    fn poisoned_warm_ladder_fails_waiters_fast() {
        let ladder: WarmLadder<u64> = WarmLadder::new();
        ladder.poison();
        ladder.wait(0);
    }
}
