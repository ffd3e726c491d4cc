//! Headroom study (beyond the paper): how far is each realistic BTB
//! organization from an *infinite* BTB with only compulsory misses?
//!
//! ChampSim's unmodified front-end effectively models an ideal BTB
//! (Section VI-A); this harness quantifies the gap that motivated the
//! paper's methodology fix, and places the related-work baselines
//! (Seznec R-BTB, Hoogerbrugge mixed-entry) on the same axis.

use crate::experiments::sim_one;
use crate::report::emit_table;
use crate::HarnessOpts;
use btbx_analysis::metrics::mean;
use btbx_analysis::table::TextTable;
use btbx_core::storage::BudgetPoint;
use btbx_core::types::Arch;
use btbx_core::OrgKind;
use btbx_trace::suite;
use btbx_uarch::runner::run_jobs;

pub fn run(opts: &HarnessOpts) {
    let budget = BudgetPoint::Kb14_5.bits(Arch::Arm64);
    let names = ["server_011", "server_019", "server_026", "server_033"];
    let specs: Vec<_> = suite::ipc1_server()
        .into_iter()
        .filter(|s| names.contains(&s.name.as_str()))
        .collect();
    let orgs = [
        OrgKind::Conv,
        OrgKind::RBtb,
        OrgKind::Hoogerbrugge,
        OrgKind::Pdede,
        OrgKind::BtbX,
        OrgKind::Infinite,
    ];

    let mut jobs = Vec::new();
    for org in orgs {
        for spec in &specs {
            let spec = spec.clone();
            let (w, m) = (opts.warmup, opts.measure);
            jobs.push(move || (org, sim_one(&spec, org, budget, true, w, m)));
        }
    }
    let results = run_jobs("headroom", opts.threads, jobs);

    let mut t = TextTable::new(["Organization", "avg MPKI", "avg IPC", "IPC vs infinite"]);
    let ideal_ipc = mean(
        &results
            .iter()
            .filter(|(o, _)| *o == OrgKind::Infinite)
            .map(|(_, r)| r.stats.ipc())
            .collect::<Vec<_>>(),
    );
    for org in orgs {
        let rs: Vec<_> = results.iter().filter(|(o, _)| *o == org).collect();
        let mpki = mean(
            &rs.iter()
                .map(|(_, r)| r.stats.btb_mpki())
                .collect::<Vec<_>>(),
        );
        let ipc = mean(&rs.iter().map(|(_, r)| r.stats.ipc()).collect::<Vec<_>>());
        t.row([
            org.label().to_string(),
            format!("{mpki:.2}"),
            format!("{ipc:.3}"),
            format!("{:.1}%", ipc / ideal_ipc * 100.0),
        ]);
    }
    emit_table(
        &opts.out_dir,
        "headroom",
        "Headroom: realistic BTBs vs an infinite BTB at 14.5 KB (4 servers)",
        &t,
    );
    println!("the Infinite row suffers only compulsory misses — the remaining\ngap to 100% is the front-end opportunity a better BTB could still claim.");
}
