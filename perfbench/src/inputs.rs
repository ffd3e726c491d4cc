//! The four workloads: their inputs, generated from the seed, and the
//! serial reference results the measured runs are checked against.

use btbx_bench::sweep::{SimPoint, Sweep};
use btbx_core::spec::Budget;
use btbx_core::storage::BudgetPoint;
use btbx_core::OrgKind;
use btbx_trace::container::write_container;
use btbx_trace::source::TraceSource;
use btbx_trace::suite::{self, WorkloadSpec};
use btbx_trace::SyntheticTrace;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker threads and client connections; the workloads are sized for a
/// 2-core host.
pub const THREADS: usize = 2;

/// The workload set. Each stresses a different part of the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 9's input: the per-event simulation kernel does the work.
    SweepFig9,
    /// Tiny windows over every org and budget: per-point setup, store
    /// publishes and journal records do the work.
    SweepTiny,
    /// A closed-loop request mix against an in-process server: mostly
    /// cache reads, one write in eight.
    ServeMixed,
    /// One long file-backed point, sharded: container decode, warm
    /// checkpoints and shard parallelism.
    PointSharded,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SweepFig9,
        Workload::SweepTiny,
        Workload::ServeMixed,
        Workload::PointSharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepFig9 => "sweep-fig9",
            Workload::SweepTiny => "sweep-tiny",
            Workload::ServeMixed => "serve-mixed",
            Workload::PointSharded => "point-sharded",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `sweep-tiny` uses these 12 IPC-1 server traces: short and long
/// footprints from each of the suite's footprint classes.
const TINY_SERVERS: [u32; 12] = [1, 2, 3, 4, 9, 10, 11, 12, 23, 24, 25, 36];
/// Every `serve-mixed` point is requested this many times.
const SERVE_REPEATS: usize = 8;
/// `point-sharded` windows.
const SHARDED_WARMUP: u64 = 1_000_000;
const SHARDED_MEASURE: u64 = 4_000_000;
/// Events written past the window, so the simulator's fetch lookahead
/// never drains the container before the window ends.
const CONTAINER_SLACK: u64 = 100_000;

/// Everything a run needs, generated from the workload and the seed.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// The distinct simulation points, in `Sweep::points` order.
    pub points: Vec<SimPoint>,
    /// The sweep behind `points` (sweep workloads).
    pub sweep: Option<Sweep>,
    /// `serve-mixed`: the request stream, as indices into `points`.
    pub requests: Vec<usize>,
    /// `points[i]` serialized as a request body.
    pub request_bodies: Vec<String>,
    /// `point-sharded`: the generator the container was written from,
    /// and its walker seed.
    pub container_source: Option<(WorkloadSpec, u64)>,
    /// Serial `SimPoint::run` results for a sample of points.
    pub reference: Vec<Reference>,
}

/// One serial reference result.
pub struct Reference {
    pub point: usize,
    /// The result serialized exactly as the store and the server write it.
    pub json: String,
    /// Wall time of the serial run.
    pub seconds: f64,
}

impl Inputs {
    pub fn reference_for(&self, point: usize) -> Option<&Reference> {
        self.reference.iter().find(|r| r.point == point)
    }
}

/// Perturb a generator seed by the benchmark seed; seed 0 keeps the
/// calibrated suite unchanged.
fn perturb(mut spec: WorkloadSpec, seed: u64) -> WorkloadSpec {
    spec.seed = spec
        .seed
        .wrapping_add(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    spec
}

/// A small deterministic generator (SplitMix64) for the request shuffle.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5eed_0fbe_0c0f_fee5)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Build a workload's inputs and its serial reference under `dir`.
pub fn setup(workload: Workload, seed: u64, dir: &Path) -> Inputs {
    let server = || {
        suite::ipc1_server()
            .into_iter()
            .map(|s| perturb(s, seed))
            .collect::<Vec<_>>()
    };
    let (sweep, points, container_source) = match workload {
        Workload::SweepFig9 => {
            let sweep = Sweep::named(workload.name())
                .workloads(server())
                .orgs(OrgKind::PAPER_EVAL)
                .budgets([BudgetPoint::Kb14_5])
                .fdip_options([true])
                .windows(150_000, 300_000);
            (Some(sweep.clone()), sweep.points(), None)
        }
        Workload::SweepTiny => {
            let specs: Vec<_> = server()
                .into_iter()
                .filter(|s| {
                    TINY_SERVERS
                        .iter()
                        .any(|id| s.name == format!("server_{id:03}"))
                })
                .collect();
            let sweep = Sweep::named(workload.name())
                .workloads(specs)
                .orgs(OrgKind::ALL)
                .budgets(BudgetPoint::ALL)
                .fdip_both()
                .windows(1_000, 1_000);
            (Some(sweep.clone()), sweep.points(), None)
        }
        Workload::ServeMixed => {
            let specs: Vec<_> = suite::ipc1_all()
                .into_iter()
                .map(|s| perturb(s, seed))
                .collect();
            let points = Sweep::named(workload.name())
                .workloads(specs.clone())
                .orgs(OrgKind::PAPER_EVAL)
                .budgets([BudgetPoint::Kb14_5])
                .fdip_both()
                .windows(20_000, 20_000)
                .points();
            (None, points, None)
        }
        Workload::PointSharded => {
            // The seed perturbs only the walker: one trace alone would
            // otherwise swing the run's work with the generated program.
            let spec = suite::ipc1_server()
                .into_iter()
                .find(|s| s.name == "server_030")
                .expect("server_030 is an IPC-1 server trace");
            let walker_seed = perturb(spec.clone(), seed).seed;
            let path = dir.join("server_030.btbt");
            let mut trace = SyntheticTrace::new(spec.build_image(), spec.name.clone(), walker_seed);
            write_trace(
                &mut trace,
                &path,
                SHARDED_WARMUP + SHARDED_MEASURE + CONTAINER_SLACK,
            );
            let file = WorkloadSpec::from_container(&path).expect("container just written");
            let point = Sweep::named(workload.name())
                .workloads([file])
                .orgs([OrgKind::BtbX])
                .budgets([BudgetPoint::Kb14_5])
                .fdip_options([true])
                .windows(SHARDED_WARMUP, SHARDED_MEASURE)
                .points();
            (None, point, Some((spec, walker_seed)))
        }
    };
    let requests = if workload == Workload::ServeMixed {
        let mut stream: Vec<usize> = (0..points.len())
            .flat_map(|i| std::iter::repeat_n(i, SERVE_REPEATS))
            .collect();
        let mut rng = SplitMix::new(seed);
        for i in (1..stream.len()).rev() {
            stream.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        stream
    } else {
        Vec::new()
    };
    let request_bodies = points
        .iter()
        .map(|p| serde_json::to_string(p).expect("points serialize"))
        .collect();
    let reference = run_reference(&points, &reference_sample(workload, &points));
    Inputs {
        workload,
        seed,
        points,
        sweep,
        requests,
        request_bodies,
        container_source,
        reference,
    }
}

/// Write the first `events` instructions of a trace to a `.btbt`
/// container.
fn write_trace(trace: &mut SyntheticTrace, path: &Path, events: u64) {
    let file = std::fs::File::create(path).expect("creating the trace container");
    let name = trace.source_name().to_string();
    let arch = trace.image().arch;
    write_container(std::io::BufWriter::new(file), &name, arch, trace, events)
        .expect("writing the trace container");
}

/// Which points get a serial reference: every organization, both FDIP
/// settings where the workload has both, and more than one trace.
fn reference_sample(workload: Workload, points: &[SimPoint]) -> Vec<usize> {
    let names: Vec<&str> = match workload {
        Workload::SweepFig9 => vec!["server_001", "server_022", "server_039"],
        Workload::SweepTiny => vec!["server_002", "server_024"],
        Workload::ServeMixed => vec!["client_003", "server_030"],
        Workload::PointSharded => return vec![0],
    };
    let mut sample: Vec<usize> = (0..points.len())
        .filter(|&i| names.contains(&points[i].workload.name.as_str()))
        .collect();
    if workload == Workload::SweepTiny {
        // One budget per (trace, org, FDIP) keeps the sample small: the
        // first trace takes the smallest budget, the second the largest.
        sample.retain(|&i| {
            let p = &points[i];
            let budget = if p.workload.name == names[0] {
                BudgetPoint::Kb0_9
            } else {
                BudgetPoint::Kb58
            };
            p.budget == Budget::Point(budget)
        });
    }
    sample
}

/// Serial `SimPoint::run` for each sampled point, one at a time, so each
/// run's time is its standalone time.
fn run_reference(points: &[SimPoint], sample: &[usize]) -> Vec<Reference> {
    sample
        .iter()
        .map(|&point| {
            let start = Instant::now();
            let result = points[point].run();
            let seconds = start.elapsed().as_secs_f64();
            Reference {
                point,
                json: serde_json::to_string(&result).expect("results serialize"),
                seconds,
            }
        })
        .collect()
}

/// A fresh scratch directory inside the checkout.
pub fn scratch_dir(base: &Path, name: &str) -> PathBuf {
    let dir = base.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating a scratch directory");
    dir
}
