//! Property-based integration tests: invariants that must hold for every
//! BTB organization under arbitrary (valid) branch streams.

use btbx::core::storage::BudgetPoint;
use btbx::core::types::{Arch, BranchClass, BranchEvent, TargetSource};
use btbx::core::{BtbEngine, OrgKind};
use proptest::prelude::*;

const ORGS: [OrgKind; 6] = [
    OrgKind::Conv,
    OrgKind::Pdede,
    OrgKind::BtbX,
    OrgKind::RBtb,
    OrgKind::Hoogerbrugge,
    OrgKind::Infinite,
];

fn arb_branch() -> impl Strategy<Value = BranchEvent> {
    let pc = (0u64..(1 << 44)).prop_map(|v| v << 2);
    let class = prop_oneof![
        4 => Just(BranchClass::CondDirect),
        1 => Just(BranchClass::UncondDirect),
        2 => Just(BranchClass::CallDirect),
        1 => Just(BranchClass::CallIndirect),
        1 => Just(BranchClass::Return),
    ];
    // Targets biased toward short offsets, with a long-distance tail.
    let delta = prop_oneof![
        6 => (1i64..256).boxed(),
        3 => (256i64..1 << 20).boxed(),
        1 => (1i64 << 26..1i64 << 40).boxed(),
    ];
    (pc, class, delta, any::<bool>()).prop_map(|(pc, class, d, back)| {
        let d = (d as u64) << 2;
        let target = if back {
            pc.saturating_sub(d) | 4
        } else {
            (pc + d) & ((1 << 48) - 1)
        };
        BranchEvent {
            pc,
            target: target & !3,
            class,
            taken: true,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After updating with a taken branch, an immediate lookup must hit
    /// and non-return hits must reconstruct the exact target.
    #[test]
    fn lookup_after_update_is_exact(ev in arb_branch()) {
        for org in ORGS {
            let mut btb = BtbEngine::build(org, BudgetPoint::Kb3_6.bits(Arch::Arm64), Arch::Arm64);
            btb.update(&ev);
            let hit = btb.lookup(ev.pc)
                .unwrap_or_else(|| panic!("{org}: freshly inserted branch must hit"));
            match hit.target {
                TargetSource::ReturnStack => {
                    prop_assert_eq!(ev.class, BranchClass::Return);
                }
                TargetSource::Address(a) => {
                    prop_assert_eq!(a, ev.target, "{} target corrupted", org.id());
                }
            }
        }
    }

    /// Streams of branches keep predicted targets *well-formed*. Under
    /// 12-bit partial-tag aliasing, compressed organizations (PDede,
    /// BTB-X, R-BTB) may legitimately return a *fabricated* target — the
    /// requester's high bits spliced onto another branch's offset — which
    /// the pipeline later catches at execute. What must always hold:
    /// returned addresses are canonical (48-bit, instruction-aligned),
    /// and the *conventional* BTB, which stores full targets, only ever
    /// returns a target that was actually inserted.
    #[test]
    fn streams_return_well_formed_targets(
        branches in proptest::collection::vec(arb_branch(), 1..120)
    ) {
        let mut last: std::collections::HashMap<u64, BranchEvent> = Default::default();
        for ev in &branches {
            last.insert(ev.pc, *ev);
        }
        for org in ORGS {
            let mut btb = BtbEngine::build(org, BudgetPoint::Kb0_9.bits(Arch::Arm64), Arch::Arm64);
            for ev in &branches {
                btb.update(ev);
            }
            for pc in last.keys() {
                if let Some(hit) = btb.lookup(*pc) {
                    if let TargetSource::Address(a) = hit.target {
                        prop_assert!(a < 1 << 48, "{}: non-canonical {a:#x}", org.id());
                        prop_assert_eq!(a & 3, 0, "{}: misaligned target", org.id());
                        if org == OrgKind::Conv {
                            let stored_somewhere = last.values().any(|o| o.target == a);
                            prop_assert!(
                                stored_somewhere,
                                "conv: fabricated target {a:#x} for pc {pc:#x}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Not-taken conditionals never allocate (Section VI-A).
    #[test]
    fn not_taken_never_allocates(pc in (0u64..(1u64 << 40)).prop_map(|v| v << 2)) {
        for org in ORGS {
            let mut btb = BtbEngine::build(org, BudgetPoint::Kb0_9.bits(Arch::Arm64), Arch::Arm64);
            btb.update(&BranchEvent::not_taken(pc, pc + 64));
            prop_assert!(btb.lookup(pc).is_none(), "{}", org.id());
        }
    }

    /// Access counters are consistent: hits ≤ reads, and every update of
    /// a fresh branch produces at least one write.
    #[test]
    fn counters_are_consistent(branches in proptest::collection::vec(arb_branch(), 1..60)) {
        for org in ORGS {
            let mut btb = BtbEngine::build(org, BudgetPoint::Kb0_9.bits(Arch::Arm64), Arch::Arm64);
            for ev in &branches {
                btb.update(ev);
                btb.lookup(ev.pc);
            }
            let c = btb.counts();
            prop_assert!(c.read_hits <= c.reads, "{}", org.id());
            prop_assert!(c.writes >= 1, "{}", org.id());
            prop_assert_eq!(c.reads, branches.len() as u64, "{}", org.id());
        }
    }
}

#[test]
fn clear_behaves_uniformly() {
    let ev = BranchEvent::taken(0x1000, 0x1100, BranchClass::CondDirect);
    for org in ORGS {
        let mut btb = BtbEngine::build(org, BudgetPoint::Kb0_9.bits(Arch::Arm64), Arch::Arm64);
        btb.update(&ev);
        assert!(btb.lookup(0x1000).is_some(), "{org}");
        btb.clear();
        assert!(btb.lookup(0x1000).is_none(), "{org}: clear must empty");
    }
}
