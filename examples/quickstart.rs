//! Quickstart: build the paper's BTB organizations, insert branches, and
//! compare storage efficiency.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use btbx::core::spec::BtbSpec;
use btbx::core::storage::BudgetPoint;
use btbx::core::{Arch, BranchClass, BranchEvent, OrgKind, TargetSource};

fn main() {
    // The paper's default evaluation budget: 14.5 KB of BTB storage.
    let budget = BudgetPoint::Kb14_5.bits(Arch::Arm64);
    println!(
        "storage budget: {} bits ({:.1} KB)\n",
        budget,
        budget as f64 / 8192.0
    );

    println!("{:<10} {:>10} {:>14}", "org", "branches", "bits/branch");
    for kind in [OrgKind::Conv, OrgKind::Pdede, OrgKind::BtbX] {
        let btb = BtbSpec::of(kind)
            .at(BudgetPoint::Kb14_5)
            .build_engine()
            .expect("paper budgets are always valid");
        let storage = btb.storage();
        println!(
            "{:<10} {:>10} {:>14.1}",
            kind.id(),
            storage.branch_capacity,
            storage.total_bits as f64 / storage.branch_capacity as f64
        );
    }

    // Exercise BTB-X: a short conditional, a cross-page call, a return,
    // and a cross-region call that lands in BTB-XC.
    let mut btb = BtbSpec::of(OrgKind::BtbX)
        .budget_bits(budget)
        .build_engine()
        .unwrap();
    let branches = [
        BranchEvent::taken(0x40_1000, 0x40_1040, BranchClass::CondDirect),
        BranchEvent::taken(0x40_1010, 0x48_2000, BranchClass::CallDirect),
        BranchEvent::taken(0x48_2080, 0x40_1014, BranchClass::Return),
        BranchEvent::taken(0x40_1020, 0x7f00_0000_1000, BranchClass::CallDirect),
    ];
    // The BTB is updated at commit time (Section VI-A)…
    for ev in &branches {
        btb.update(ev);
    }
    // …and probed at fetch time.
    println!("\nfetch-time probes:");
    for ev in &branches {
        let hit = btb.lookup(ev.pc).expect("allocated above");
        match hit.target {
            TargetSource::Address(a) => {
                assert_eq!(a, ev.target, "offset reconstruction must be exact");
                println!(
                    "  {:#x} -> {:#x}  ({:?}, via {:?})",
                    ev.pc, a, hit.btype, hit.site
                );
            }
            TargetSource::ReturnStack => {
                println!("  {:#x} -> return address stack ({:?})", ev.pc, hit.site);
            }
        }
    }
    println!("\ncounters: {:?}", btb.counts());
}
