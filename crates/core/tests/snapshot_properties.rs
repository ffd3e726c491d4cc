//! Property tests for the microarchitectural snapshot layer: for *every*
//! BTB organization and a spread of storage budgets, cutting an arbitrary
//! update/lookup stream at an arbitrary point, snapshotting, restoring
//! into a freshly built engine, and continuing must be bit-identical to
//! never having stopped — predictions, counters, and the bytes of a
//! subsequent snapshot all included. This is the per-component guarantee
//! a simulator resumed from a warm snapshot builds its exactness claim
//! on.

use btbx_core::snap::{restore_sealed, save_sealed, SnapError};
use btbx_core::storage::BudgetPoint;
use btbx_core::{Arch, BranchClass, BranchEvent, BtbEngine, OrgKind};
use proptest::prelude::*;

/// An arbitrary branch stream: clustered PCs (so sets conflict and
/// replacement state matters), every branch class, near and far targets,
/// and not-taken conditionals.
fn arb_events(max_len: usize) -> impl Strategy<Value = Vec<BranchEvent>> {
    proptest::collection::vec(
        (
            0u64..4096,
            0usize..BranchClass::ALL.len(),
            0u64..(1 << 20),
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(|(pc_slot, class_index, span, far, taken)| {
                let pc = 0x1_0000 + pc_slot * 4;
                let class = BranchClass::ALL[class_index];
                let target = if far {
                    pc ^ ((span << 8) | 4)
                } else {
                    pc + 4 + span % 512 * 4
                };
                BranchEvent {
                    pc,
                    target,
                    class,
                    taken: class.is_always_taken() || taken,
                }
            }),
        1..max_len,
    )
}

fn budgets() -> impl Strategy<Value = BudgetPoint> {
    (0usize..3).prop_map(|i| [BudgetPoint::Kb0_9, BudgetPoint::Kb3_6, BudgetPoint::Kb14_5][i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// snapshot → restore → continue ≡ straight through, for every
    /// organization, at a random budget and a random cut point.
    #[test]
    fn restore_then_continue_equals_straight_through(
        events in arb_events(1200),
        cut_fraction in 0u64..=100,
        budget in budgets(),
    ) {
        let bits = budget.bits(Arch::Arm64);
        let cut = events.len() * cut_fraction as usize / 100;
        for kind in OrgKind::ALL {
            let key = format!("prop/{kind}/{bits}");

            // Straight-through engine: consumes the whole stream.
            let mut straight = BtbEngine::build(kind, bits, Arch::Arm64);
            // Cut engine: consumes the prefix, round-trips through a
            // sealed snapshot into a *fresh* engine, then the suffix.
            let mut prefix = BtbEngine::build(kind, bits, Arch::Arm64);

            for ev in &events[..cut] {
                straight.lookup(ev.pc);
                straight.update(ev);
                prefix.lookup(ev.pc);
                prefix.update(ev);
            }
            let sealed = save_sealed(&key, &prefix);
            let mut resumed = BtbEngine::build(kind, bits, Arch::Arm64);
            restore_sealed(&mut resumed, &key, &sealed).expect("round trip");

            for ev in &events[cut..] {
                prop_assert_eq!(
                    straight.lookup(ev.pc),
                    resumed.lookup(ev.pc),
                    "{} diverged after restore", kind
                );
                straight.update(ev);
                resumed.update(ev);
            }
            prop_assert_eq!(straight.counts(), resumed.counts(), "{} counters", kind);
            prop_assert_eq!(
                save_sealed(&key, &straight),
                save_sealed(&key, &resumed),
                "{}: post-continuation snapshots must be byte-identical", kind
            );
        }
    }

    /// A sealed snapshot is rejected under any other identity key — the
    /// guard that stops a run from resuming a snapshot sealed for another
    /// workload, organization, or budget.
    #[test]
    fn sealed_snapshot_refuses_a_foreign_identity(
        events in arb_events(200),
        budget in budgets(),
    ) {
        let bits = budget.bits(Arch::Arm64);
        let mut engine = BtbEngine::build(OrgKind::BtbX, bits, Arch::Arm64);
        for ev in &events {
            engine.lookup(ev.pc);
            engine.update(ev);
        }
        let sealed = save_sealed("identity-a", &engine);
        let mut other = BtbEngine::build(OrgKind::BtbX, bits, Arch::Arm64);
        let err = restore_sealed(&mut other, "identity-b", &sealed).unwrap_err();
        prop_assert!(
            matches!(err, SnapError::KeyMismatch { .. }),
            "expected a key mismatch, got {:?}", err
        );
    }

    /// Flipping any single byte of a sealed snapshot is detected — either
    /// by the content hash or by a structural validation error; it must
    /// never restore silently.
    #[test]
    fn corruption_anywhere_is_detected(
        events in arb_events(64),
        victim in 0usize..10_000,
    ) {
        let bits = BudgetPoint::Kb0_9.bits(Arch::Arm64);
        let mut engine = BtbEngine::build(OrgKind::Conv, bits, Arch::Arm64);
        for ev in &events {
            engine.lookup(ev.pc);
            engine.update(ev);
        }
        let sealed = save_sealed("corrupt-me", &engine);
        let mut bytes = sealed.clone();
        let index = victim % bytes.len();
        bytes[index] ^= 0x5a;
        let mut target = BtbEngine::build(OrgKind::Conv, bits, Arch::Arm64);
        prop_assert!(
            restore_sealed(&mut target, "corrupt-me", &bytes).is_err(),
            "byte {} flip restored silently", index
        );
    }
}
