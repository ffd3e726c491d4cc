//! Trait-level conformance tests: the `Btb` contract every organization
//! must honour, exercised for every `OrgKind` through the `BtbSpec`
//! builder (so the suite also pins the spec layer's coverage of the whole
//! organization enum).

use btbx::core::spec::BtbSpec;
use btbx::core::storage::BudgetPoint;
use btbx::core::types::{BranchClass, BranchEvent, TargetSource};
use btbx::core::{Btb, OrgKind};

/// Built through the spec layer but used only through the `Btb` trait.
fn build(org: OrgKind) -> impl Btb {
    BtbSpec::of(org)
        .at(BudgetPoint::Kb3_6)
        .build_engine()
        .unwrap_or_else(|e| panic!("{org}: {e}"))
}

/// A small branch working set covering every class and several offset
/// lengths (same-page short, cross-page, long-distance, return).
fn working_set() -> Vec<BranchEvent> {
    vec![
        BranchEvent::taken(0x40_1000, 0x40_1040, BranchClass::CondDirect),
        BranchEvent::taken(0x40_1010, 0x48_2000, BranchClass::CallDirect),
        BranchEvent::taken(0x48_2080, 0x40_1014, BranchClass::Return),
        BranchEvent::taken(0x40_2000, 0x40_1f00, BranchClass::UncondDirect),
        BranchEvent::taken(0x40_3000, 0x7f00_0000_1000, BranchClass::CallDirect),
    ]
}

#[test]
fn lookup_after_update_hits_with_exact_target() {
    for org in OrgKind::ALL {
        let mut btb = build(org);
        for ev in working_set() {
            // The no-BTB-XC ablation drops branches whose offset exceeds
            // the widest way by design (they would live in BTB-XC).
            let overflows = ev.target.abs_diff(ev.pc) >= 1 << 27;
            if org == OrgKind::BtbXNoXc && overflows {
                btb.update(&ev);
                assert!(
                    btb.lookup(ev.pc).is_none(),
                    "{org}: overflow branches must be permanent misses"
                );
                continue;
            }
            btb.update(&ev);
            let hit = btb
                .lookup(ev.pc)
                .unwrap_or_else(|| panic!("{org}: fresh branch {:#x} must hit", ev.pc));
            match hit.target {
                TargetSource::ReturnStack => {
                    assert_eq!(ev.class, BranchClass::Return, "{org}");
                }
                TargetSource::Address(a) => {
                    assert_eq!(a, ev.target, "{org}: target corrupted for {:#x}", ev.pc);
                }
            }
        }
    }
}

#[test]
fn clear_resets_entries_but_not_storage() {
    for org in OrgKind::ALL {
        let mut btb = build(org);
        let storage_before = btb.storage();
        for ev in working_set() {
            btb.update(&ev);
        }
        btb.clear();
        for ev in working_set() {
            assert!(
                btb.lookup(ev.pc).is_none(),
                "{org}: {:#x} must miss after clear",
                ev.pc
            );
        }
        let storage_after = btb.storage();
        assert_eq!(
            storage_before.total_bits, storage_after.total_bits,
            "{org}: clear must not change storage"
        );
        assert_eq!(
            storage_before.branch_capacity, storage_after.branch_capacity,
            "{org}: clear must not change capacity"
        );
    }
}

#[test]
fn reset_counts_zeroes_counters_and_keeps_entries() {
    for org in OrgKind::ALL {
        let mut btb = build(org);
        for ev in working_set() {
            btb.update(&ev);
            let _ = btb.lookup(ev.pc);
        }
        let counts = btb.counts();
        assert!(counts.reads > 0, "{org}: lookups must count reads");
        assert!(counts.writes > 0, "{org}: allocations must count writes");

        btb.reset_counts();
        assert_eq!(
            btb.counts(),
            Default::default(),
            "{org}: reset_counts must zero every counter"
        );
        // Contents are untouched: the working set still hits…
        assert!(
            btb.lookup(0x40_1000).is_some(),
            "{org}: entries must survive"
        );
        // …and the probe above counted again from zero.
        assert_eq!(btb.counts().reads, 1, "{org}: counting restarts at zero");
    }
}

#[test]
fn not_taken_events_do_not_allocate() {
    for org in OrgKind::ALL {
        let mut btb = build(org);
        let ev = BranchEvent::not_taken(0x5000, 0x6000);
        btb.update(&ev);
        assert!(
            btb.lookup(0x5000).is_none(),
            "{org}: Section VI-A taken-only allocation violated"
        );
    }
}

#[test]
fn storage_report_is_internally_consistent() {
    for org in OrgKind::ALL {
        let btb = build(org);
        let storage = btb.storage();
        assert_eq!(
            storage.partition_sum(),
            storage.total_bits,
            "{org}: partitions must sum to the total"
        );
        assert_eq!(
            btb.branch_capacity(),
            storage.branch_capacity,
            "{org}: trait default must agree with the report"
        );
    }
}
