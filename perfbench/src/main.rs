//! The repository benchmark: runs one workload for a given time, checks
//! every output against the serial reference, and prints the metrics by
//! name with their units; the last line of standard output is the result
//! as one JSON object.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs a
//! separate traced pass over the same inputs and reports the per-layer
//! metrics, writing its spans and a self-time table under `.bench_out/`.
//! Scratch files go under `.bench_tmp/` and are removed on exit.

mod expected;
mod inputs;
mod run;
mod trace;
mod traced;

use btbx_analysis::reference::FIG9_SERVER_MPKI;
use btbx_core::storage::BudgetPoint;
use btbx_core::OrgKind;
use btbx_uarch::SimResult;
use inputs::{Inputs, Workload};
use run::Rep;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A measured run sets up at least [`SETUP_MIN`] times, and more while
/// under [`SETUP_SECONDS`]; `setup_s` is the median. Cheap set-ups repeat
/// more, which keeps their median steady.
const SETUP_MIN: usize = 3;
const SETUP_SECONDS: f64 = 2.0;
const SETUP_MAX: usize = 15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = expected::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload name"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = workload.ok_or(format!("--workload is required: one of {names:?}"))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let tmp = PathBuf::from(".bench_tmp").join(format!(
        "{}-s{}-p{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let report = if args.trace {
        traced::run(args.workload, args.seed, &tmp)
    } else {
        measure(&args, &tmp)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.json());
}

/// A finished run: human-readable lines, then the JSON result.
pub struct Report {
    pub lines: Vec<String>,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Checks every output against the serial reference (where one was
/// computed), against the same point's output in every other repetition,
/// and, on the default seed, against the recorded digest.
pub struct Checker {
    canonical: Vec<Option<String>>,
    pub attempted: usize,
    pub failed: usize,
    pub notes: Vec<String>,
}

impl Checker {
    pub fn new(points: usize) -> Self {
        Checker {
            canonical: vec![None; points],
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    pub fn check(&mut self, inputs: &Inputs, outputs: &[(usize, Option<String>)]) {
        for (point, output) in outputs {
            self.attempted += 1;
            let problem = match output {
                None => Some("failed or non-200".to_string()),
                Some(json) => {
                    let reference = inputs.reference_for(*point);
                    let canonical = self.canonical[*point].get_or_insert_with(|| json.clone());
                    if reference.is_some_and(|r| r.json != *json) {
                        Some("differs from the serial reference".to_string())
                    } else if canonical != json {
                        Some("differs from another repetition".to_string())
                    } else {
                        None
                    }
                }
            };
            if let Some(problem) = problem {
                self.failed += 1;
                if self.notes.len() < 5 {
                    let key = inputs.points[*point].cache_file();
                    self.notes.push(format!("point {key}: {problem}"));
                }
            }
        }
    }

    /// Digest of every point's output, in point order; `None` while a
    /// point has no output yet.
    pub fn digest(&self) -> Option<u64> {
        let mut all = Vec::new();
        for output in &self.canonical {
            all.extend_from_slice(output.as_ref()?.as_bytes());
            all.push(b'\n');
        }
        Some(btbx_core::snap::fnv64(&all))
    }

    /// The parsed result of every point that has one.
    pub fn results(&self) -> Vec<(usize, SimResult)> {
        self.canonical
            .iter()
            .enumerate()
            .filter_map(|(i, json)| Some((i, serde_json::from_str(json.as_ref()?).ok()?)))
            .collect()
    }

    /// On the default seed, compare the digest with the recorded one.
    pub fn check_digest(&mut self, inputs: &Inputs) -> String {
        let digest = self.digest();
        let recorded = (inputs.seed == expected::DEFAULT_SEED)
            .then(|| expected::digest(inputs.workload.name()))
            .flatten();
        let shown = digest.map_or("incomplete".to_string(), |d| format!("{d:016x}"));
        match recorded {
            Some(r) if Some(r) != digest => {
                self.failed += inputs.points.len();
                self.attempted += inputs.points.len();
                format!("result digest {shown} differs from the recorded {r:016x}")
            }
            Some(_) => format!("result digest {shown} matches the recorded digest"),
            None => format!("result digest {shown} (no recorded digest for this seed)"),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// The `q` quantile (nearest rank) of `values`; 0 when there are none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Set up at least [`SETUP_MIN`] times and then while under
/// [`SETUP_SECONDS`] in total, keeping the last inputs; returns them with
/// the set-up times.
fn timed_setup(workload: Workload, seed: u64, tmp: &Path) -> (Inputs, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut inputs = None;
    while times.len() < SETUP_MIN
        || (times.iter().sum::<f64>() < SETUP_SECONDS && times.len() < SETUP_MAX)
    {
        drop(inputs.take());
        let start = Instant::now();
        inputs = Some(setup_once(workload, seed, tmp));
        times.push(start.elapsed().as_secs_f64());
    }
    (inputs.expect("at least one set-up"), times)
}

/// Generate a workload's inputs and serial reference in a fresh directory.
pub fn setup_once(workload: Workload, seed: u64, tmp: &Path) -> Inputs {
    inputs::setup(workload, seed, &inputs::scratch_dir(tmp, "inputs"))
}

/// Server-average BTB MPKI and IPC per paper organization over the
/// points that correspond to Figure 9 (server traces, 14.5 KB, FDIP on),
/// and the mean absolute relative MPKI error against the paper.
pub fn fidelity(inputs: &Inputs, results: &[(usize, SimResult)]) -> (f64, Vec<String>) {
    let paper = [FIG9_SERVER_MPKI.0, FIG9_SERVER_MPKI.1, FIG9_SERVER_MPKI.2];
    let mut errors = Vec::new();
    let mut parts = Vec::new();
    for (org, paper_mpki) in OrgKind::PAPER_EVAL.into_iter().zip(paper) {
        let rows: Vec<&SimResult> = results
            .iter()
            .filter(|(i, _)| {
                let p = &inputs.points[*i];
                p.org == org
                    && p.config.fdip
                    && p.workload.is_server()
                    && p.budget == BudgetPoint::Kb14_5.into()
            })
            .map(|(_, r)| r)
            .collect();
        if rows.is_empty() {
            continue;
        }
        let n = rows.len() as f64;
        let mpki = rows.iter().map(|r| r.stats.btb_mpki()).sum::<f64>() / n;
        let ipc = rows.iter().map(|r| r.stats.ipc()).sum::<f64>() / n;
        errors.push((mpki - paper_mpki).abs() / paper_mpki);
        parts.push(format!(
            "{} MPKI {mpki:.2} (paper {paper_mpki}) IPC {ipc:.3} over {} traces",
            org.id(),
            rows.len()
        ));
    }
    let err = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    (err, parts)
}

/// The model-fidelity line printed next to every run's numbers.
pub fn fidelity_line(inputs: &Inputs, checker: &Checker) -> String {
    let (mpki_err, parts) = fidelity(inputs, &checker.results());
    format!(
        "model fidelity: {}; mpki_err_vs_paper = {mpki_err:.4} against Figure 9's server \
         averages {:?} (conv, pdede, btbx). The workloads are calibrated synthetic stand-ins \
         for IPC-1, so this error is not validated against real traces; it depends on the \
         seed, and only sweep-fig9 reproduces Figure 9's windows.",
        parts.join("; "),
        FIG9_SERVER_MPKI
    )
}

/// The untraced run: set-up, then repetitions until `seconds` have passed.
fn measure(args: &Args, tmp: &Path) -> Report {
    let (inputs, setup_times) = timed_setup(args.workload, args.seed, tmp);
    let setup_s = quantile(&setup_times, 0.5);
    let mut checker = Checker::new(inputs.points.len());
    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    while reps.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let mut rep = run::rep(&inputs, &tmp.join("rep"));
        checker.check(&inputs, &rep.outputs);
        // The checker keeps one copy per point; holding every repetition's
        // outputs would add the benchmark's own memory to peak_rss_mb.
        rep.outputs = Vec::new();
        reps.push(rep);
    }
    let digest_line = checker.check_digest(&inputs);

    // Throughput is the median over repetitions, so one stalled
    // repetition does not move it.
    let seconds: f64 = reps.iter().map(|r| r.seconds).sum();
    let per_rep = |count: &dyn Fn(&Rep) -> f64| {
        let rates: Vec<f64> = reps.iter().map(|r| count(r) / r.seconds).collect();
        quantile(&rates, 0.5)
    };
    let windows = |r: &Rep, measured_only: bool| -> f64 {
        r.computed
            .iter()
            .map(|&i| {
                let p = &inputs.points[i];
                (if measured_only { 0 } else { p.warmup } + p.measure) as f64
            })
            .sum()
    };
    let points_per_s = per_rep(&|r| r.delivered as f64);
    let sim_minstr_per_s = per_rep(&|r| windows(r, false)) / 1e6;
    let useful_minstr_per_s = per_rep(&|r| windows(r, true)) / 1e6;
    let latencies: Vec<f64> = reps.iter().flat_map(|r| r.latencies_ms.clone()).collect();

    let w = args.workload.name();
    let unit = match args.workload {
        Workload::SweepFig9 | Workload::SweepTiny => "cold sweep",
        Workload::ServeMixed => "request",
        Workload::PointSharded => "sharded point",
    };
    let mut lines = vec![
        format!(
            "workload {w}, seed {}: {} point(s), {} repetition(s) in {seconds:.3} s, \
             set-up ×{}",
            args.seed,
            inputs.points.len(),
            reps.len(),
            setup_times.len()
        ),
        format!(
            "latency is per {unit}: {} sample(s); p99 is the largest sample when there are \
             fewer than 100",
            latencies.len()
        ),
        format!(
            "repetition wall times (s): {:?}",
            reps.iter()
                .map(|r| (r.seconds * 1e3).round() / 1e3)
                .collect::<Vec<_>>()
        ),
        format!(
            "failed_ratio = {}/{} ({})",
            checker.failed,
            checker.attempted,
            if checker.failed == 0 { "0" } else { "FAILED" }
        ),
        digest_line,
        fidelity_line(&inputs, &checker),
    ];
    lines.extend(checker.notes.iter().map(|n| format!("mismatch: {n}")));
    let metrics = vec![
        ("setup_s", setup_s, "s"),
        ("points_per_s", points_per_s, "1/s"),
        ("sim_minstr_per_s", sim_minstr_per_s, "Minstr/s"),
        ("useful_minstr_per_s", useful_minstr_per_s, "Minstr/s"),
        ("latency_p50_ms", quantile(&latencies, 0.5), "ms"),
        ("latency_p99_ms", quantile(&latencies, 0.99), "ms"),
    ];
    for (name, value, unit) in &metrics {
        lines.push(format!("{name} = {value:.6} {unit}"));
    }
    Report {
        lines,
        correct: checker.correct(),
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
    }
}
