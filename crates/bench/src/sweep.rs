//! Declarative simulation sweeps: the cross-product of workloads ×
//! organizations × budgets × FDIP expressed as plain data, executed on the
//! [`btbx_uarch::runner`] thread pool behind a content-addressed result cache.
//!
//! A [`Sweep`] is serde-serializable, so experiment matrices can live in
//! JSON files and travel between machines:
//!
//! ```
//! use btbx_bench::sweep::Sweep;
//! use btbx_core::storage::BudgetPoint;
//! use btbx_core::OrgKind;
//! use btbx_trace::suite;
//!
//! let sweep = Sweep::named("demo")
//!     .workloads(suite::ipc1_client().into_iter().take(2))
//!     .orgs(OrgKind::PAPER_EVAL)
//!     .budgets([BudgetPoint::Kb14_5])
//!     .fdip_options([true])
//!     .windows(10_000, 20_000);
//! assert_eq!(sweep.points().len(), 2 * 3);
//! let json = sweep.to_json().unwrap();
//! assert_eq!(Sweep::from_json(&json).unwrap(), sweep);
//! ```
//!
//! # Caching
//!
//! Every [`SimPoint`] — one simulation — is cached as one JSON file under
//! `<out_dir>/cache/`, keyed by an FNV-1a hash of the *complete* point:
//! workload generator parameters, organization, budget, architecture,
//! warm-up and measurement windows, and the full simulator configuration.
//! Changing any of them (notably `--warmup`/`--measure`, which the old
//! `eval_matrix.json`-style caches ignored) therefore misses the cache and
//! re-simulates instead of returning stale results. `--fresh` bypasses
//! reads but still refreshes the cache.
//!
//! Cache durability and concurrency live in [`crate::store::ResultStore`]
//! (atomic writes, corrupt-entry quarantine, single-flight computation),
//! which this module shares with `btbx serve`: overlapping sweeps — or a
//! sweep racing a server — on one cache directory compute each unique
//! point once and never observe torn entries.
//!
//! # Execution
//!
//! A sweep has one executor, [`Sweep::try_run`]: it probes the cache and
//! runs the missing points on local worker threads. `btbx serve` answers
//! one point per request through the same store and the same
//! [`SimPoint::run_with`], so a served result equals the sweep's byte
//! for byte.

use crate::opts::HarnessOpts;
use crate::store::{ResultStore, StoreError};
use btbx_core::spec::{BtbSpec, Budget};
use btbx_core::OrgKind;
use btbx_trace::suite::WorkloadSpec;
use btbx_trace::{AnySource, TraceOpenError};
use btbx_uarch::runner::try_run_named_jobs;
use btbx_uarch::{SessionError, SimConfig, SimResult, SimSession};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};

/// Bump to invalidate every cached simulation (simulator semantics
/// changed, stats gained fields, …).
///
/// v2: `WorkloadSpec` gained the `trace` field, which changed the
/// serialized form of every point (`"trace":null` on synthetic ones) —
/// the bump makes the resulting whole-cache invalidation explicit
/// rather than an accident of the hash payload.
///
/// v3: sharded runs switched from bounded-carry-in approximation to
/// warm-checkpoint mode and became bit-identical to serial runs, so
/// sharded and serial results now share one cache entry per point
/// (the `-s{shards}` segregation is gone). Old caches mixed exact
/// serial entries with approximate sharded ones; the bump orphans both.
pub const CACHE_VERSION: u32 = 3;

/// Why running a point failed. Every way of running one — a sweep or
/// the server — fails through this one type; callers match
/// on its variants (the server answers `Session` +
/// [`SessionError::Aborted`] with a deadline 503), never on its text.
/// `Clone` so a single-flight failure reaches every joined caller.
#[derive(Debug, Clone)]
pub enum RunError {
    /// The simulation failed: its abort flag fired, its trace failed
    /// mid-stream, or its BTB spec is invalid.
    Session {
        /// The point's [`SimPoint::cache_file`].
        point: String,
        /// What the session reported.
        error: SessionError,
    },
    /// The point's trace container could not be opened: it is missing,
    /// invalid, or changed since the workload spec was made.
    Trace {
        /// The point's [`SimPoint::cache_file`].
        point: String,
        /// What opening it reported.
        error: Arc<TraceOpenError>,
    },
    /// The result store failed to read the cache.
    Store(StoreError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Session { point, error } => write!(f, "sim point {point}: {error}"),
            RunError::Trace { point, error } => write!(f, "sim point {point}: {error}"),
            RunError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<StoreError> for RunError {
    fn from(e: StoreError) -> Self {
        RunError::Store(e)
    }
}

/// One cell of a sweep: everything that determines one simulation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimPoint {
    /// Workload to trace.
    pub workload: WorkloadSpec,
    /// BTB organization under test.
    pub org: OrgKind,
    /// Storage budget.
    pub budget: Budget,
    /// Warm-up instructions.
    pub warmup: u64,
    /// Measured instructions.
    pub measure: u64,
    /// Full simulator configuration; `config.fdip` is the point's FDIP
    /// setting (there is deliberately no separate flag to diverge from).
    pub config: SimConfig,
}

impl SimPoint {
    /// The BTB spec this point builds (architecture follows the workload).
    pub fn btb_spec(&self) -> BtbSpec {
        BtbSpec::of(self.org)
            .budget(self.budget)
            .arch(self.workload.params.arch)
    }

    /// Content hash identifying this point (and [`CACHE_VERSION`]).
    ///
    /// For file-backed workloads the trace's identity is the container's
    /// **content hash**, never its path: the path is blanked before
    /// hashing, so moving or renaming a container keeps its cached
    /// results while changing its contents invalidates them.
    pub fn cache_key(&self) -> String {
        let payload = if self.workload.trace.is_some() {
            let mut normalized = self.clone();
            if let Some(tref) = &mut normalized.workload.trace {
                tref.path = PathBuf::new();
            }
            serde_json::to_string(&normalized)
        } else {
            serde_json::to_string(self)
        }
        .expect("points serialize");
        format!("{:016x}", fnv1a(payload.as_bytes(), CACHE_VERSION as u64))
    }

    /// File name of the cached result.
    pub fn cache_file(&self) -> String {
        format!(
            "{}-{}-{}.json",
            self.workload.name,
            self.org.id(),
            self.cache_key()
        )
    }

    /// Human-readable `workload:org@budget` label: the name of the
    /// point's job and its failure.
    pub(crate) fn label(&self) -> String {
        format!(
            "{}:{}@{}",
            self.workload.name,
            self.org.id(),
            self.budget.label()
        )
    }

    /// Build this point's trace stream through the unified
    /// [`btbx_trace::AnySource`] entry point (synthetic or file-backed).
    ///
    /// # Errors
    ///
    /// [`RunError::Trace`] when a referenced trace container is missing
    /// or its content hash no longer matches (the sweep's results would
    /// silently describe a different trace otherwise).
    fn source(&self) -> Result<AnySource, RunError> {
        #[cfg(test)]
        tests::SOURCES_BUILT
            .lock()
            .unwrap()
            .push(self.workload.name.clone());
        self.workload
            .build_source()
            .map_err(|error| RunError::Trace {
                point: self.cache_file(),
                error: Arc::new(error),
            })
    }

    /// Run the simulation for this point (no caching).
    ///
    /// # Panics
    ///
    /// Panics when the run fails; [`run_with`](SimPoint::run_with)
    /// returns the [`RunError`] instead.
    pub fn run(&self) -> SimResult {
        self.run_with(RunOpts::default())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Kept for source compatibility: every point runs serially, so
    /// this is [`run`](SimPoint::run) whatever `shards` and `threads`
    /// say.
    pub fn run_sharded(&self, _shards: usize, _threads: usize) -> SimResult {
        self.run()
    }

    /// Run the simulation for this point as `opts` says (no caching).
    /// Every way of running a point goes through here; the result is
    /// bit-identical whatever the options.
    ///
    /// # Errors
    ///
    /// [`RunError::Trace`] when the point's trace does not open and
    /// [`RunError::Session`] when the simulation fails (its abort flag
    /// fired, or its trace failed mid-stream).
    pub fn run_with(&self, opts: RunOpts<'_>) -> Result<SimResult, RunError> {
        let proto = match opts.source {
            Some(source) => source.clone(),
            None => self.source()?,
        };
        let mut session = SimSession::new(proto)
            .btb_spec(self.btb_spec())
            .config(self.config.clone())
            .label(self.org.id())
            .warmup(self.warmup)
            .measure(self.measure);
        if let Some(flag) = opts.abort {
            session = session.abort(flag);
        }
        session.run().map_err(|error| RunError::Session {
            point: self.cache_file(),
            error,
        })
    }
}

/// How [`SimPoint::run_with`] runs a point. The default is a serial run
/// over a freshly built source.
#[derive(Debug, Default)]
pub struct RunOpts<'a> {
    /// A cooperative abort flag: the simulation polls it and stops with
    /// [`SessionError::Aborted`] once it is set — how the serve layer
    /// enforces per-request deadlines.
    pub abort: Option<Arc<AtomicBool>>,
    /// Clone this already-built source instead of building the point's
    /// own; it must be the point's workload stream (how a sweep group
    /// shares one source among its members).
    pub source: Option<&'a AnySource>,
}

/// 64-bit FNV-1a over `bytes`, folded over `seed`.
fn fnv1a(bytes: &[u8], seed: u64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Cache-missing points of one sweep that share a trace source: same
/// workload, same windows, same configuration up to the per-point FDIP
/// flag. [`Sweep::run`] builds the group's source once and runs every
/// member over a clone of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchGroup {
    /// Indices into the sweep's [`Sweep::points`] order, ascending.
    pub members: Vec<usize>,
}

/// Group cache-missing points (`misses`, indices into `points`) into
/// [`BatchGroup`]s of points that can share one trace source.
///
/// The grouping key is the *stream-determining* part of a point — the
/// workload, the warm-up/measure windows, and the simulator configuration
/// with FDIP normalized out. Organization, budget and the FDIP flag are
/// per-member state and deliberately absent.
///
/// Groups come back in first-member order and members stay ascending, so
/// the plan — and every label derived from it — is deterministic.
pub fn plan_batches(points: &[SimPoint], misses: &[usize]) -> Vec<BatchGroup> {
    let mut order: Vec<u64> = Vec::new();
    let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
    for &i in misses {
        let p = &points[i];
        let mut config = p.config.clone();
        config.fdip = false;
        let key = serde_json::to_string(&(&p.workload, p.warmup, p.measure, &config))
            .expect("points serialize");
        let key = fnv1a(key.as_bytes(), 0);
        let members = groups.entry(key).or_insert_with(|| {
            order.push(key);
            Vec::new()
        });
        members.push(i);
    }
    order
        .into_iter()
        .map(|k| BatchGroup {
            members: groups.remove(&k).expect("keyed above"),
        })
        .collect()
}

/// A declarative simulation matrix: workloads × orgs × budgets × FDIP at
/// fixed windows and simulator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sweep {
    /// Display name (progress reporting; not part of cache keys).
    pub name: String,
    /// Workloads to simulate.
    pub workloads: Vec<WorkloadSpec>,
    /// Organizations to compare.
    pub orgs: Vec<OrgKind>,
    /// Budgets to sweep.
    pub budgets: Vec<Budget>,
    /// FDIP settings to cover (e.g. `[true]` or `[false, true]`).
    pub fdip: Vec<bool>,
    /// Warm-up instructions per simulation.
    pub warmup: u64,
    /// Measured instructions per simulation.
    pub measure: u64,
    /// Base simulator configuration; the per-point FDIP flag is applied on
    /// top of it.
    pub config: SimConfig,
}

impl Sweep {
    /// An empty sweep with the Table II configuration and the paper's
    /// default 14.5 KB budget; fill in workloads/orgs with the builder
    /// methods.
    pub fn named(name: impl Into<String>) -> Self {
        Sweep {
            name: name.into(),
            workloads: Vec::new(),
            orgs: Vec::new(),
            budgets: vec![Budget::Point(btbx_core::storage::BudgetPoint::Kb14_5)],
            fdip: vec![true],
            warmup: 500_000,
            measure: 1_000_000,
            config: SimConfig::default(),
        }
    }

    /// Set the workloads.
    pub fn workloads(mut self, specs: impl IntoIterator<Item = WorkloadSpec>) -> Self {
        self.workloads = specs.into_iter().collect();
        self
    }

    /// Set the organizations.
    pub fn orgs(mut self, orgs: impl IntoIterator<Item = OrgKind>) -> Self {
        self.orgs = orgs.into_iter().collect();
        self
    }

    /// Set the budgets.
    pub fn budgets(mut self, budgets: impl IntoIterator<Item = impl Into<Budget>>) -> Self {
        self.budgets = budgets.into_iter().map(Into::into).collect();
        self
    }

    /// Set which FDIP settings to cover.
    pub fn fdip_options(mut self, fdip: impl IntoIterator<Item = bool>) -> Self {
        self.fdip = fdip.into_iter().collect();
        self
    }

    /// Cover both FDIP-off and FDIP-on (the Figure 10 decomposition).
    pub fn fdip_both(self) -> Self {
        self.fdip_options([false, true])
    }

    /// Set warm-up and measurement windows.
    pub fn windows(mut self, warmup: u64, measure: u64) -> Self {
        self.warmup = warmup;
        self.measure = measure;
        self
    }

    /// Replace the base simulator configuration.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Expand the cross-product, outermost to innermost: budget, workload,
    /// organization, FDIP.
    pub fn points(&self) -> Vec<SimPoint> {
        let mut points = Vec::with_capacity(
            self.budgets.len() * self.workloads.len() * self.orgs.len() * self.fdip.len(),
        );
        for &budget in &self.budgets {
            for workload in &self.workloads {
                for &org in &self.orgs {
                    for &fdip in &self.fdip {
                        let mut config = self.config.clone();
                        config.fdip = fdip;
                        points.push(SimPoint {
                            workload: workload.clone(),
                            org,
                            budget,
                            warmup: self.warmup,
                            measure: self.measure,
                            config,
                        });
                    }
                }
            }
        }
        points
    }

    /// Serialize the sweep definition to pretty JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parse a sweep definition from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Run every point, reading and writing the per-point cache under
    /// `opts.out_dir/cache` through a [`ResultStore`] (atomic writes,
    /// corrupt-entry quarantine, single-flight computation shared with
    /// any concurrent sweep or `btbx serve` on the same directory).
    /// Results come back in [`Sweep::points`] order.
    ///
    /// # Panics
    ///
    /// Panics when the sweep fails; [`try_run`](Sweep::try_run) returns
    /// the [`RunError`] instead.
    pub fn run(&self, opts: &HarnessOpts) -> Vec<SimResult> {
        self.try_run(opts)
            .unwrap_or_else(|e| panic!("[{}] {e}", self.name))
    }

    /// [`run`](Sweep::run), returning a failure instead of panicking.
    ///
    /// Opens the store over `<out>/cache` and probes the cache
    /// once per unique entry name (not under `--fresh`), printing the
    /// `N/M cached` line when anything hit. Cache-missing unique points
    /// then run as one queue on `opts.threads` workers, each once however
    /// often the matrix lists it, in [`plan_batches`] order: group by
    /// group, members ascending. Each group builds its trace source once
    /// — for a synthetic workload, its program image — when its first
    /// member starts, and every member runs over a clone of it through
    /// [`SimPoint::run_with`], the one run path. A member's result is
    /// therefore exactly its own [`SimPoint::run`], published under the
    /// same cache key (`crates/bench/tests/batch_differential.rs` pins
    /// stats *and* cache-entry bytes). A failed build is kept too, so the
    /// group's other members fail with the same [`RunError`] instead of
    /// building again.
    ///
    /// The last member of a group to start empties the group's slot, so
    /// a source lives only while a running member holds it: at most
    /// `opts.threads` groups' sources are live at once, and no core idles
    /// while another group's points wait.
    ///
    /// # Crash recovery
    ///
    /// Each point publishes its cache entry by an atomic rename the
    /// moment it finishes, so a sweep killed mid-run leaves exactly its
    /// finished points in the cache. Rerunning the same command reads
    /// them back through the cache probe (the `N/M cached` line counts
    /// them) and recomputes only the rest.
    ///
    /// # Errors
    ///
    /// [`RunError::Store`] when the cache directory is unusable or a
    /// cache read fails, or the first point's failure otherwise: queued
    /// points do not start.
    pub fn try_run(&self, opts: &HarnessOpts) -> Result<Vec<SimResult>, RunError> {
        let store = ResultStore::open(opts.out_dir.join("cache"))?;
        let points = self.points();
        let names: Vec<String> = points.iter().map(SimPoint::cache_file).collect();
        // Every unique entry name with the indices it answers, in order
        // of first appearance.
        let mut unique: Vec<Vec<usize>> = Vec::new();
        let mut first: HashMap<&str, usize> = HashMap::new();
        for (i, name) in names.iter().enumerate() {
            let at = *first.entry(name).or_insert(unique.len());
            if at == unique.len() {
                unique.push(Vec::new());
            }
            unique[at].push(i);
        }
        let mut results: Vec<Option<SimResult>> = vec![None; points.len()];
        // The cache-missing unique points, each as every index it
        // answers; the first is the one to run, and the misses ascend by
        // it.
        let mut misses: Vec<Vec<usize>> = Vec::new();
        let mut hits = 0;
        for indices in unique {
            let name = &names[indices[0]];
            let cached = if opts.fresh { None } else { store.load(name)? };
            let Some(result) = cached else {
                misses.push(indices);
                continue;
            };
            hits += 1;
            for i in indices {
                results[i] = Some(result.clone());
            }
        }
        if hits > 0 {
            eprintln!("[{}] {hits}/{} cached", self.name, hits + misses.len());
        }
        let runs: Vec<usize> = misses.iter().map(|indices| indices[0]).collect();
        let groups = plan_batches(&points, &runs);
        let slots: Vec<Mutex<GroupSlot>> = groups
            .iter()
            .map(|group| {
                Mutex::new(GroupSlot {
                    source: None,
                    members_left: group.members.len(),
                })
            })
            .collect();
        let build = |point: &SimPoint| -> Result<Arc<AnySource>, RunError> {
            let source = Arc::new(point.source()?);
            #[cfg(test)]
            tests::gauge_live_sources(&self.name, &source);
            Ok(source)
        };
        // One job per cache-missing unique point, group by group. A member takes
        // its group's source from the slot: the first to start builds it
        // (or its error, which every member then shares), the last to
        // start empties the slot, so a source lives only while a member
        // holds it. Each member publishes through the store's
        // single-flight path the moment it finishes, so a crash
        // mid-sweep loses only unfinished points.
        let queue: Vec<(usize, &Mutex<GroupSlot>)> = groups
            .iter()
            .zip(&slots)
            .flat_map(|(group, slot)| group.members.iter().map(move |&i| (i, slot)))
            .collect();
        let jobs: Vec<_> = queue
            .iter()
            .map(|&(i, slot)| {
                let (point, name) = (&points[i], &names[i]);
                let (store, build) = (&store, &build);
                let job = move || {
                    let source = {
                        let mut slot = slot.lock().unwrap();
                        let source = slot.source.get_or_insert_with(|| build(point)).clone();
                        slot.members_left -= 1;
                        if slot.members_left == 0 {
                            slot.source = None;
                        }
                        source
                    }?;
                    let run = RunOpts {
                        source: Some(&*source),
                        ..RunOpts::default()
                    };
                    store
                        .try_get_or_compute(name, opts.fresh, || point.run_with(run))
                        .map(|(result, _)| result)
                };
                (point.label(), job)
            })
            .collect();
        let computed = try_run_named_jobs(&self.name, opts.threads, jobs)?;
        for (&(i, _), result) in queue.iter().zip(computed) {
            // `runs` ascends, as `misses` does.
            let miss = runs.binary_search(&i).expect("every job is a run");
            for &j in &misses[miss] {
                results[j] = Some(result.clone());
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("all points resolved"))
            .collect())
    }
}

/// A [`BatchGroup`]'s source while its members run: built by the first
/// member to start, emptied by the last (see [`Sweep::try_run`]).
struct GroupSlot {
    source: Option<Result<Arc<AnySource>, RunError>>,
    members_left: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use btbx_core::storage::BudgetPoint;
    use btbx_trace::suite;
    use std::collections::BTreeMap;
    use std::fs;
    use std::path::Path;
    use std::sync::Weak;

    /// Workload names of every source [`SimPoint::source`] built.
    pub(super) static SOURCES_BUILT: Mutex<Vec<String>> = Mutex::new(Vec::new());

    /// Every group source a sweep built, and the most that were live at
    /// once.
    type SourceLog = (Vec<Weak<AnySource>>, usize);

    /// [`SourceLog`]s by sweep name.
    static GROUP_SOURCES: Mutex<BTreeMap<String, SourceLog>> = Mutex::new(BTreeMap::new());

    /// Log a group source the named sweep just built. The live count only
    /// rises at a build, so sampling it here records its peak.
    pub(super) fn gauge_live_sources(sweep: &str, source: &Arc<AnySource>) {
        let mut gauge = GROUP_SOURCES.lock().unwrap();
        let (built, peak) = gauge.entry(sweep.to_string()).or_default();
        built.push(Arc::downgrade(source));
        let live = built.iter().filter(|s| s.strong_count() > 0).count();
        *peak = (*peak).max(live);
    }

    fn sources_built(workload: &str) -> usize {
        SOURCES_BUILT
            .lock()
            .unwrap()
            .iter()
            .filter(|name| *name == workload)
            .count()
    }

    fn tiny_opts(dir: &str) -> HarnessOpts {
        HarnessOpts {
            warmup: 5_000,
            measure: 10_000,
            offset_instrs: 50_000,
            fresh: false,
            out_dir: std::env::temp_dir().join(dir),
            threads: 2,
            shards: 1,
            trace: None,
            batch: true,
        }
    }

    fn tiny_sweep(warmup: u64, measure: u64) -> Sweep {
        Sweep::named("unit")
            .workloads(suite::ipc1_client().into_iter().take(1))
            .orgs([OrgKind::Conv])
            .budgets([BudgetPoint::Kb0_9])
            .fdip_options([false])
            .windows(warmup, measure)
    }

    #[test]
    fn cross_product_order_and_size() {
        let sweep = Sweep::named("x")
            .workloads(suite::ipc1_client().into_iter().take(2))
            .orgs(OrgKind::PAPER_EVAL)
            .budgets([BudgetPoint::Kb0_9, BudgetPoint::Kb14_5])
            .fdip_both();
        let points = sweep.points();
        assert_eq!(points.len(), 2 * 3 * 2 * 2);
        // Outermost budget, innermost fdip.
        assert_eq!(points[0].budget, Budget::Point(BudgetPoint::Kb0_9));
        assert!(!points[0].config.fdip);
        assert!(points[1].config.fdip);
        assert_eq!(points[1].org, points[0].org);
        let last = points.last().unwrap();
        assert_eq!(last.budget, Budget::Point(BudgetPoint::Kb14_5));
        assert!(last.config.fdip);
    }

    #[test]
    fn sweep_round_trips_through_json() {
        let sweep = Sweep::named("rt")
            .workloads(suite::x86_apps().into_iter().take(1))
            .orgs([OrgKind::BtbX, OrgKind::Pdede])
            .budgets([Budget::Bits(99_000)])
            .fdip_both()
            .windows(1_000, 2_000);
        let json = sweep.to_json().unwrap();
        let back = Sweep::from_json(&json).unwrap();
        assert_eq!(back, sweep);
        // And the parsed sweep hashes to the same cache keys.
        assert_eq!(back.points()[0].cache_key(), sweep.points()[0].cache_key());
    }

    #[test]
    fn cache_keys_cover_the_whole_point() {
        let base = tiny_sweep(5_000, 10_000).points().remove(0);
        let mut other = base.clone();
        assert_eq!(base.cache_key(), other.cache_key());
        other.warmup += 1;
        assert_ne!(base.cache_key(), other.cache_key(), "warmup must key");
        other = base.clone();
        other.measure += 1;
        assert_ne!(base.cache_key(), other.cache_key(), "measure must key");
        other = base.clone();
        other.config.rob_entries += 1;
        assert_ne!(base.cache_key(), other.cache_key(), "config must key");
        other = base.clone();
        other.org = OrgKind::BtbX;
        assert_ne!(base.cache_key(), other.cache_key(), "org must key");
        other = base.clone();
        other.budget = Budget::Bits(12_345);
        assert_ne!(base.cache_key(), other.cache_key(), "budget must key");
    }

    #[test]
    fn changed_window_misses_the_cache() {
        // Regression test for the parameter-blind cache of the old
        // experiments module: a run with different --warmup/--measure must
        // re-simulate, not reuse the cached matrix.
        let opts = tiny_opts("btbx-sweep-staleness");
        let _ = fs::remove_dir_all(&opts.out_dir);

        let r1 = tiny_sweep(5_000, 10_000).run(&opts);
        assert_eq!(r1.len(), 1);
        assert!((10_000..10_006).contains(&r1[0].stats.instructions));

        // Same sweep, longer window: the old cache would have returned the
        // 10k-instruction result unchanged.
        let r2 = tiny_sweep(5_000, 20_000).run(&opts);
        assert!(
            (20_000..20_006).contains(&r2[0].stats.instructions),
            "stale cache returned: {} instructions",
            r2[0].stats.instructions
        );

        // Unchanged parameters do hit the cache (byte-identical result).
        let r3 = tiny_sweep(5_000, 10_000).run(&opts);
        assert_eq!(r3[0].stats.instructions, r1[0].stats.instructions);
        assert_eq!(r3[0].stats.cycles, r1[0].stats.cycles);

        // Both windows' artifacts coexist in the cache directory.
        let cache_files = fs::read_dir(opts.out_dir.join("cache")).unwrap().count();
        assert_eq!(cache_files, 2);
        let _ = fs::remove_dir_all(&opts.out_dir);
    }

    #[test]
    fn fresh_flag_bypasses_reads_but_refreshes() {
        let mut opts = tiny_opts("btbx-sweep-fresh");
        let _ = fs::remove_dir_all(&opts.out_dir);
        let sweep = tiny_sweep(2_000, 4_000);
        let r1 = sweep.run(&opts);
        // Poison the cache file; a fresh run must overwrite it.
        let cache = opts
            .out_dir
            .join("cache")
            .join(sweep.points()[0].cache_file());
        fs::write(&cache, "{not json").unwrap();
        opts.fresh = true;
        let r2 = sweep.run(&opts);
        assert_eq!(r1[0].stats.instructions, r2[0].stats.instructions);
        opts.fresh = false;
        let r3 = sweep.run(&opts);
        assert_eq!(r3[0].stats.cycles, r1[0].stats.cycles);
        let _ = fs::remove_dir_all(&opts.out_dir);
    }

    #[test]
    fn corrupt_cache_entries_are_resimulated() {
        let opts = tiny_opts("btbx-sweep-corrupt");
        let _ = fs::remove_dir_all(&opts.out_dir);
        let sweep = tiny_sweep(2_000, 4_000);
        let r1 = sweep.run(&opts);
        let cache = opts
            .out_dir
            .join("cache")
            .join(sweep.points()[0].cache_file());
        fs::write(&cache, "garbage").unwrap();
        let r2 = sweep.run(&opts);
        assert_eq!(r1[0].stats.instructions, r2[0].stats.instructions);
        // The damage was quarantined (not silently recomputed forever)
        // and the atomic rewrite landed a clean entry in its place.
        let quarantined = cache.with_extension("json.corrupt");
        assert!(quarantined.exists(), "damaged entry must be quarantined");
        assert_eq!(fs::read_to_string(&quarantined).unwrap(), "garbage");
        let r3 = sweep.run(&opts);
        assert_eq!(r3[0], r2[0], "rewritten entry must serve cache hits");
        let _ = fs::remove_dir_all(&opts.out_dir);
    }

    #[test]
    fn file_backed_points_cache_on_content_not_path() {
        use btbx_trace::container::write_container;
        use btbx_trace::source::VecSource;
        use btbx_trace::{TraceInstr, WorkloadSpec};

        let dir = std::env::temp_dir().join("btbx-sweep-filecache");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let instrs: Vec<TraceInstr> = (0..60_000u64)
            .map(|i| TraceInstr::other(0x1000 + (i % 512) * 4, 4))
            .collect();
        let write = |path: &Path, instrs: &[TraceInstr]| {
            let mut src = VecSource::new("filetrace", instrs.to_vec());
            write_container(
                fs::File::create(path).unwrap(),
                "filetrace",
                btbx_core::Arch::Arm64,
                &mut src,
                u64::MAX,
            )
            .unwrap();
        };
        let path_a = dir.join("a.btbt");
        write(&path_a, &instrs);

        let sweep_for = |path: &Path| {
            Sweep::named("file")
                .workloads([WorkloadSpec::from_container(path).unwrap()])
                .orgs([OrgKind::Conv])
                .budgets([BudgetPoint::Kb0_9])
                .fdip_options([false])
                .windows(2_000, 4_000)
        };
        let key_a = sweep_for(&path_a).points()[0].cache_key();

        // Same container under another path: identical cache key.
        let path_b = dir.join("moved").join("b.btbt");
        fs::create_dir_all(path_b.parent().unwrap()).unwrap();
        fs::copy(&path_a, &path_b).unwrap();
        assert_eq!(sweep_for(&path_b).points()[0].cache_key(), key_a);

        // Different contents under the same name: different key.
        let path_c = dir.join("c.btbt");
        write(&path_c, &instrs[..50_000]);
        assert_ne!(sweep_for(&path_c).points()[0].cache_key(), key_a);

        // End-to-end: file-backed points run, cache, and replay from
        // the cache byte-identically.
        let opts = tiny_opts("btbx-sweep-filerun");
        let _ = fs::remove_dir_all(&opts.out_dir);
        let r1 = sweep_for(&path_a).run(&opts);
        assert!((4_000..4_006).contains(&r1[0].stats.instructions));
        let r2 = sweep_for(&path_b).run(&opts);
        assert_eq!(
            r1[0].stats.cycles, r2[0].stats.cycles,
            "cache hit across paths"
        );
        let _ = fs::remove_dir_all(&opts.out_dir);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batches_group_by_stream_not_by_lane_state() {
        let sweep = Sweep::named("plan")
            .workloads(suite::ipc1_client().into_iter().take(2))
            .orgs(OrgKind::PAPER_EVAL)
            .budgets([BudgetPoint::Kb0_9, BudgetPoint::Kb14_5])
            .fdip_both()
            .windows(5_000, 10_000);
        let points = sweep.points();
        let all: Vec<usize> = (0..points.len()).collect();
        let groups = plan_batches(&points, &all);
        // Organization, budget and FDIP are lane state: everything
        // collapses into one group per workload stream.
        assert_eq!(groups.len(), 2);
        let total: usize = groups.iter().map(|g| g.members.len()).sum();
        assert_eq!(total, points.len());
        for g in &groups {
            let w = &points[g.members[0]].workload.name;
            assert!(g.members.iter().all(|&i| &points[i].workload.name == w));
            assert!(
                g.members.windows(2).all(|ab| ab[0] < ab[1]),
                "members stay in points order"
            );
        }
        // A config divergence beyond FDIP splits the stream.
        let mut diverged = points.clone();
        diverged[0].config.rob_entries += 1;
        assert_eq!(plan_batches(&diverged, &all).len(), 3);
        // And different windows never share a source.
        let mut windows = points.clone();
        windows[1].measure += 1;
        assert_eq!(plan_batches(&windows, &all).len(), 3);
    }

    #[test]
    fn a_group_builds_its_source_once() {
        // A workload name no other test uses, so the count is this
        // test's alone.
        let mut workload = suite::ipc1_client().remove(0);
        workload.name = "source-once".into();
        let sweep = Sweep::named("once")
            .workloads([workload])
            .orgs(OrgKind::PAPER_EVAL)
            .budgets([BudgetPoint::Kb0_9, BudgetPoint::Kb3_6])
            .fdip_both()
            .windows(1_000, 2_000);
        let opts = tiny_opts("btbx-sweep-source-once");
        let _ = fs::remove_dir_all(&opts.out_dir);
        let results = sweep.run(&opts);
        assert_eq!(results.len(), 12);
        assert_eq!(
            sources_built("source-once"),
            1,
            "12 points in one group must build one source"
        );
        let _ = fs::remove_dir_all(&opts.out_dir);
    }

    #[test]
    fn one_queue_builds_a_source_per_group_and_holds_at_most_threads() {
        // Workload and sweep names no other test uses, so the source log
        // and the gauge are this test's alone.
        let workloads: Vec<WorkloadSpec> = suite::ipc1_client()
            .into_iter()
            .take(3)
            .enumerate()
            .map(|(k, mut w)| {
                w.name = format!("sched-{k}");
                w
            })
            .collect();
        let sweep = Sweep::named("sched")
            .workloads(workloads.clone())
            .orgs(OrgKind::PAPER_EVAL)
            .budgets([BudgetPoint::Kb0_9])
            .fdip_options([true])
            .windows(2_000, 4_000);
        let opts = tiny_opts("btbx-sweep-one-queue");
        assert_eq!(opts.threads, 2);
        let _ = fs::remove_dir_all(&opts.out_dir);
        let results = sweep.run(&opts);
        for w in &workloads {
            assert_eq!(
                sources_built(&w.name),
                1,
                "{}: one source per group",
                w.name
            );
        }
        let (built, live, peak) = {
            let gauge = GROUP_SOURCES.lock().unwrap();
            let (built, peak) = &gauge["sched"];
            let live = built.iter().filter(|s| s.strong_count() > 0).count();
            (built.len(), live, *peak)
        };
        assert_eq!(built, 3);
        assert_eq!(live, 0, "every group source is dropped");
        assert!(
            (1..=opts.threads).contains(&peak),
            "{peak} group sources live on {} threads",
            opts.threads
        );
        let points = sweep.points();
        assert_eq!(results.len(), points.len());
        for (point, result) in points.iter().zip(&results) {
            assert_eq!(result, &point.run(), "{}", point.cache_file());
        }
        let _ = fs::remove_dir_all(&opts.out_dir);
    }

    #[test]
    fn a_failed_group_source_is_built_once() {
        use btbx_trace::container::write_container;
        use btbx_trace::source::VecSource;
        use btbx_trace::TraceInstr;

        let dir = std::env::temp_dir().join("btbx-sweep-missing-trace");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gone.btbt");
        let instrs: Vec<TraceInstr> = (0..20_000u64)
            .map(|i| TraceInstr::other(0x1000 + (i % 256) * 4, 4))
            .collect();
        write_container(
            fs::File::create(&path).unwrap(),
            "gone",
            btbx_core::Arch::Arm64,
            &mut VecSource::new("gone", instrs),
            u64::MAX,
        )
        .unwrap();
        let mut workload = WorkloadSpec::from_container(&path).unwrap();
        workload.name = "missing-trace".into();
        fs::remove_file(&path).unwrap();

        let sweep = Sweep::named("missing")
            .workloads([workload])
            .orgs(OrgKind::PAPER_EVAL)
            .budgets([BudgetPoint::Kb0_9])
            .fdip_options([false])
            .windows(1_000, 2_000);
        let opts = tiny_opts("btbx-sweep-missing-run");
        let _ = fs::remove_dir_all(&opts.out_dir);
        let err = sweep.try_run(&opts).unwrap_err();
        assert!(matches!(err, RunError::Trace { .. }), "{err}");
        assert_eq!(
            sources_built("missing-trace"),
            1,
            "a 3-member group shares its failed build"
        );
        let _ = fs::remove_dir_all(&opts.out_dir);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn point_spec_follows_workload_arch() {
        let x86 = suite::x86_apps().remove(0);
        let sweep = Sweep::named("arch").workloads([x86]).orgs([OrgKind::BtbX]);
        let spec = sweep.points()[0].btb_spec();
        assert_eq!(spec.arch, btbx_core::Arch::X86);
    }
}
