//! Experiment drivers: the simulation matrices and offset studies behind
//! every figure/table, defined as declarative [`crate::sweep::Sweep`]s so
//! related harnesses share one content-addressed cache of runs (see
//! EXPERIMENTS.md for the cache layout and window-size guidance).

use crate::opts::HarnessOpts;
use crate::sweep::Sweep;
use btbx_analysis::hist::OffsetAggregate;
use btbx_core::storage::BudgetPoint;
use btbx_core::OrgKind;
use btbx_trace::stats::TraceStats;
use btbx_trace::suite::{self, WorkloadSpec};
use btbx_uarch::runner::run_jobs;
use btbx_uarch::SimResult;

/// The Figure 9/10/Table V matrix: every IPC-1 workload × {Conv, PDede,
/// BTB-X} × {FDIP, no FDIP} at the 14.5 KB budget.
pub fn eval_matrix_sweep(opts: &HarnessOpts) -> Sweep {
    Sweep::named("eval_matrix")
        .workloads(suite::ipc1_all())
        .orgs(OrgKind::PAPER_EVAL)
        .budgets([BudgetPoint::Kb14_5])
        .fdip_both()
        .windows(opts.warmup, opts.measure)
}

/// A study of `workloads` × `orgs` at the [`eval_matrix_sweep`]'s budget
/// and windows with FDIP on, so each of its points that the matrix also
/// lists shares the matrix's cache entry.
pub fn eval_matrix_study(
    name: &str,
    workloads: impl IntoIterator<Item = WorkloadSpec>,
    orgs: impl IntoIterator<Item = OrgKind>,
    opts: &HarnessOpts,
) -> Sweep {
    Sweep::named(name)
        .workloads(workloads)
        .orgs(orgs)
        .budgets([BudgetPoint::Kb14_5])
        .fdip_options([true])
        .windows(opts.warmup, opts.measure)
}

/// Run (or load from cache) the [`eval_matrix_sweep`].
pub fn eval_matrix(opts: &HarnessOpts) -> Vec<SimResult> {
    eval_matrix_sweep(opts).run(opts)
}

/// The Figure 11 matrix: all seven budgets × three organizations × all
/// IPC-1 workloads, FDIP enabled everywhere (Section VI-F).
pub fn budget_sweep_sweep(opts: &HarnessOpts) -> Sweep {
    // The sweep is 7× the size of the eval matrix; halve the window to
    // keep wall-clock in check (shapes are stable; see EXPERIMENTS.md).
    let warmup = (opts.warmup / 2).max(100_000);
    let measure = (opts.measure / 2).max(200_000);
    Sweep::named("budget_sweep")
        .workloads(suite::ipc1_all())
        .orgs(OrgKind::PAPER_EVAL)
        .budgets(BudgetPoint::ALL)
        .fdip_options([true])
        .windows(warmup, measure)
}

/// Run (or load from cache) the [`budget_sweep_sweep`].
pub fn budget_sweep(opts: &HarnessOpts) -> Vec<SimResult> {
    budget_sweep_sweep(opts).run(opts)
}

/// Locate a result in a matrix.
pub fn find<'a>(
    results: &'a [SimResult],
    workload: &str,
    org: OrgKind,
    fdip: bool,
    budget_bits: Option<u64>,
) -> Option<&'a SimResult> {
    results.iter().find(|r| {
        r.workload == workload
            && r.org == org.id()
            && r.fdip_enabled == fdip
            && budget_bits.is_none_or(|b| r.btb_budget_bits == b)
    })
}

/// Collect offset statistics over a set of workload specs.
pub fn offsets_for(specs: &[WorkloadSpec], instrs: u64, threads: usize) -> OffsetAggregate {
    let jobs: Vec<_> = specs
        .iter()
        .map(|spec| {
            let spec = spec.clone();
            move || {
                let mut trace = spec.build_trace();
                let stats = TraceStats::collect(&mut trace, instrs, spec.params.arch);
                (spec.name.clone(), stats)
            }
        })
        .collect();
    let mut agg = OffsetAggregate::new();
    for (name, stats) in run_jobs("offsets", threads, jobs) {
        agg.add(name, &stats);
    }
    agg
}

/// Server/client split of IPC-1 results by workload name.
pub fn is_server_workload(name: &str) -> bool {
    name.starts_with("server")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SimPoint;
    use btbx_core::types::Arch;
    use btbx_uarch::SimConfig;

    /// Run `org` on `client_001` at 0.9 KB through [`SimPoint::run`].
    fn client_point(org: OrgKind, fdip: bool, warmup: u64, measure: u64) -> SimResult {
        SimPoint {
            workload: suite::ipc1_client()[0].clone(),
            org,
            budget: BudgetPoint::Kb0_9.into(),
            warmup,
            measure,
            config: SimConfig {
                fdip,
                ..SimConfig::default()
            },
        }
        .run()
    }

    #[test]
    fn a_point_run_produces_a_complete_result() {
        let r = client_point(OrgKind::BtbX, true, 10_000, 20_000);
        assert_eq!(r.workload, "client_001");
        assert_eq!(r.org, "btbx");
        assert!(r.fdip_enabled);
        // Commit is 6-wide, so the window may overshoot by < 6.
        assert!((20_000..20_006).contains(&r.stats.instructions));
        assert!(r.stats.ipc() > 0.0);
    }

    #[test]
    fn matrices_have_the_figure_shapes() {
        let opts = HarnessOpts::default();
        let eval = eval_matrix_sweep(&opts);
        assert_eq!(eval.points().len(), 43 * 3 * 2);
        assert_eq!(eval.warmup, opts.warmup);
        let sweep = budget_sweep_sweep(&opts);
        assert_eq!(sweep.points().len(), 7 * 43 * 3);
        assert!(sweep.measure >= 200_000);
    }

    #[test]
    fn a_study_shares_the_eval_matrix_cache_entries() {
        let opts = HarnessOpts::default();
        let matrix: Vec<String> = eval_matrix_sweep(&opts)
            .points()
            .iter()
            .map(SimPoint::cache_file)
            .collect();
        let study = eval_matrix_study(
            "study",
            suite::ipc1_all().into_iter().step_by(10),
            [OrgKind::Conv, OrgKind::RBtb, OrgKind::Pdede, OrgKind::BtbX],
            &opts,
        );
        let (shared, own): (Vec<SimPoint>, Vec<SimPoint>) = study
            .points()
            .into_iter()
            .partition(|p| matrix.contains(&p.cache_file()));
        assert_eq!(shared.len(), 5 * 3);
        assert!(own.iter().all(|p| p.org == OrgKind::RBtb));
    }

    #[test]
    fn find_matches_on_all_keys() {
        let budget = BudgetPoint::Kb0_9.bits(Arch::Arm64);
        let results = vec![
            client_point(OrgKind::Conv, false, 5_000, 10_000),
            client_point(OrgKind::BtbX, true, 5_000, 10_000),
        ];
        assert!(find(&results, "client_001", OrgKind::Conv, false, Some(budget)).is_some());
        assert!(find(&results, "client_001", OrgKind::Conv, true, None).is_none());
        assert!(find(&results, "client_002", OrgKind::Conv, false, None).is_none());
    }

    #[test]
    fn offsets_driver_aggregates() {
        let specs = suite::ipc1_client();
        let agg = offsets_for(&specs[..2], 50_000, 2);
        assert_eq!(agg.len(), 2);
        let avg = agg.average("avg");
        assert!(avg.at(46) > 0.99);
    }

    #[test]
    fn server_name_split() {
        assert!(is_server_workload("server_032"));
        assert!(!is_server_workload("client_001"));
    }
}
