//! Ablation study (beyond the paper): quantify BTB-X's design choices by
//! knocking each one out at the 14.5 KB budget.
//!
//! * `btbx-uniform` — eight equal 25-bit ways (same entry count): shows
//!   the storage cost of ignoring the offset-size distribution
//!   (Section V-A's argument);
//! * equal-storage uniform — uniform ways shrunk to fit the budget:
//!   shows the capacity/MPKI cost;
//! * `btbx-noxc` — no BTB-XC: branches needing > 25 offset bits become
//!   permanent misses;
//! * naive LRU — victim chosen by global LRU and dropped when the branch
//!   does not fit, instead of the paper's modified LRU;
//! * `rbtb` — Seznec's R-BTB as the historical baseline.

use crate::report::emit_table;
use crate::HarnessOpts;
use btbx_analysis::metrics::mean;
use btbx_analysis::table::TextTable;
use btbx_core::storage::BudgetPoint;
use btbx_core::types::Arch;
use btbx_core::x::{BtbX, BtbXConfig};
use btbx_core::{Btb, BtbEngine, OrgKind};
use btbx_trace::suite::{self, WorkloadSpec};
use btbx_uarch::runner::run_jobs;
use btbx_uarch::{SimConfig, SimResult, SimSession};

pub fn run(opts: &HarnessOpts) {
    let budget = BudgetPoint::Kb14_5.bits(Arch::Arm64);
    // A representative slice of server workloads.
    let specs: Vec<_> = suite::ipc1_server()
        .into_iter()
        .filter(|s| {
            ["server_013", "server_024", "server_030", "server_035"].contains(&s.name.as_str())
        })
        .collect();

    #[derive(Clone, Copy)]
    enum Variant {
        Org(OrgKind),
        UniformEqualStorage,
        NaiveLru,
    }
    let variants: Vec<(&str, Variant)> = vec![
        ("BTB-X (paper)", Variant::Org(OrgKind::BtbX)),
        (
            "uniform ways, equal entries",
            Variant::Org(OrgKind::BtbXUniform),
        ),
        ("uniform ways, equal storage", Variant::UniformEqualStorage),
        ("no BTB-XC", Variant::Org(OrgKind::BtbXNoXc)),
        ("naive global LRU", Variant::NaiveLru),
        ("R-BTB (Seznec)", Variant::Org(OrgKind::RBtb)),
        ("Conv-BTB", Variant::Org(OrgKind::Conv)),
    ];

    let mut jobs = Vec::new();
    for (label, variant) in &variants {
        for spec in &specs {
            let label = label.to_string();
            let spec = spec.clone();
            let variant = *variant;
            let (w, m) = (opts.warmup, opts.measure);
            jobs.push(move || {
                let r = match variant {
                    // Built directly, so the result records the actual
                    // storage (the uniform ablation exceeds the nominal
                    // budget by design).
                    Variant::Org(org) => run_sized(
                        BtbEngine::build(org, budget, Arch::Arm64),
                        org.id(),
                        &spec,
                        w,
                        m,
                    ),
                    Variant::UniformEqualStorage => {
                        // Shrink entries until uniform ways fit the budget.
                        let cfg = BtbXConfig::uniform(Arch::Arm64);
                        let mut entries = 8usize;
                        loop {
                            let trial = BtbX::with_config(entries + 8, Arch::Arm64, cfg);
                            if trial.storage().total_bits > budget {
                                break;
                            }
                            entries += 8;
                        }
                        let btb = BtbX::with_config(entries, Arch::Arm64, cfg);
                        run_sized(btb, "btbx-uniform-eqstore", &spec, w, m)
                    }
                    Variant::NaiveLru => {
                        let cfg = BtbXConfig {
                            modified_lru: false,
                            ..BtbXConfig::paper(Arch::Arm64)
                        };
                        let entries =
                            btbx_core::factory::btbx_entries_for_budget(budget, Arch::Arm64);
                        let btb = BtbX::with_config(entries, Arch::Arm64, cfg);
                        run_sized(btb, "btbx-naive-lru", &spec, w, m)
                    }
                };
                (label, r)
            });
        }
    }
    let results = run_jobs("ablation", opts.threads, jobs);

    let mut t = TextTable::new(["Variant", "Storage (KB)", "avg MPKI", "avg IPC"]);
    for (label, _) in &variants {
        let rs: Vec<_> = results.iter().filter(|(l, _)| l == label).collect();
        let mpki = mean(
            &rs.iter()
                .map(|(_, r)| r.stats.btb_mpki())
                .collect::<Vec<_>>(),
        );
        let ipc = mean(&rs.iter().map(|(_, r)| r.stats.ipc()).collect::<Vec<_>>());
        let kb = rs
            .first()
            .map(|(_, r)| r.btb_budget_bits as f64 / 8192.0)
            .unwrap_or(0.0);
        t.row([
            label.to_string(),
            format!("{kb:.2}"),
            format!("{mpki:.2}"),
            format!("{ipc:.3}"),
        ]);
    }
    emit_table(
        &opts.out_dir,
        "ablation",
        "Ablation: BTB-X design choices at 14.5 KB (4 large servers)",
        &t,
    );
    println!("note: 'uniform, equal entries' exceeds the budget (storage column); 'equal storage' pays in capacity instead.");
}

/// Simulate `spec` with FDIP on over an already-built BTB; the session
/// records the instance's own storage as the budget.
fn run_sized<B: Btb>(
    btb: B,
    label: &str,
    spec: &WorkloadSpec,
    warmup: u64,
    measure: u64,
) -> SimResult {
    SimSession::new(spec.build_trace())
        .btb(btb)
        .config(SimConfig::with_fdip())
        .label(label)
        .warmup(warmup)
        .measure(measure)
        .run()
        .unwrap_or_else(|e| panic!("{e}"))
}
