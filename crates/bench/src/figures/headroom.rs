//! Headroom study (beyond the paper): how far is each realistic BTB
//! organization from an *infinite* BTB with only compulsory misses?
//!
//! ChampSim's unmodified front-end effectively models an ideal BTB
//! (Section VI-A); this harness quantifies the gap that motivated the
//! paper's methodology fix, and places the related-work baselines
//! (Seznec R-BTB, Hoogerbrugge mixed-entry) on the same axis.

use crate::experiments::eval_matrix_study;
use crate::report::emit_table;
use crate::HarnessOpts;
use btbx_analysis::metrics::mean;
use btbx_analysis::table::TextTable;
use btbx_core::OrgKind;
use btbx_trace::suite;

pub fn run(opts: &HarnessOpts) {
    let names = ["server_011", "server_019", "server_026", "server_033"];
    let orgs = [
        OrgKind::Conv,
        OrgKind::RBtb,
        OrgKind::Hoogerbrugge,
        OrgKind::Pdede,
        OrgKind::BtbX,
        OrgKind::Infinite,
    ];
    let servers = suite::ipc1_server()
        .into_iter()
        .filter(|s| names.contains(&s.name.as_str()));
    let results = eval_matrix_study("headroom", servers, orgs, opts).run(opts);
    let of = |org: OrgKind| results.iter().filter(move |r| r.org == org.id());

    let mut t = TextTable::new(["Organization", "avg MPKI", "avg IPC", "IPC vs infinite"]);
    let ideal_ipc = mean(
        &of(OrgKind::Infinite)
            .map(|r| r.stats.ipc())
            .collect::<Vec<_>>(),
    );
    for org in orgs {
        let mpki = mean(&of(org).map(|r| r.stats.btb_mpki()).collect::<Vec<_>>());
        let ipc = mean(&of(org).map(|r| r.stats.ipc()).collect::<Vec<_>>());
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
