//! Golden replay: every organization at several budgets replays a fixed,
//! seeded event stream through `BtbEngine` and must reproduce a recorded
//! fingerprint of everything it observably did — every lookup outcome
//! (hit/miss, predicted target, branch type, hit site), the access
//! counters, the storage report, the branch capacity and the name, before
//! and after a `clear` + `reset_counts`.
//!
//! The fingerprints were recorded while a second, independently
//! dispatched construction path still existed and replayed in lockstep
//! with the engine, so they pin the organizations' behaviour itself: a
//! change to any organization's replacement, allocation, target
//! reconstruction, counting or sizing fails this test. A deliberate
//! behaviour change re-records them from the failure message.
//!
//! A second check replays a used-then-cleared engine in lockstep with a
//! freshly built one, so `clear` + `reset_counts` must restore the
//! organization's initial state exactly.

use btbx::core::snap::fnv64;
use btbx::core::stats::AccessCounts;
use btbx::core::storage::BudgetPoint;
use btbx::core::types::{Arch, BranchClass, BranchEvent};
use btbx::core::{Btb, BtbEngine, BtbSpec, OrgKind};
use std::fmt::Write;

const BUDGETS: [BudgetPoint; 3] = [BudgetPoint::Kb0_9, BudgetPoint::Kb3_6, BudgetPoint::Kb14_5];

/// Deterministic xorshift64* stream; the same seed always reproduces the
/// same event sequence, so failures are replayable.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A stream mixing hot re-references (a bounded PC pool forces hits,
/// replacement and aliasing) with every branch class, short and
/// cross-page offsets, and occasional not-taken conditionals.
fn event_stream(seed: u64, len: usize) -> Vec<BranchEvent> {
    let mut rng = Rng(seed | 1);
    let pool: Vec<u64> = (0..512)
        .map(|_| (rng.next() & ((1 << 40) - 1)) & !3)
        .collect();
    (0..len)
        .map(|_| {
            let pc = pool[rng.below(pool.len() as u64) as usize];
            let class = match rng.below(10) {
                0..=4 => BranchClass::CondDirect,
                5 => BranchClass::UncondDirect,
                6 => BranchClass::CallDirect,
                7 => BranchClass::CallIndirect,
                8 => BranchClass::Return,
                _ => BranchClass::UncondIndirect,
            };
            let offset = match rng.below(10) {
                0..=5 => 4 + (rng.below(1 << 10) << 2),         // same page
                6..=8 => (1 << 14) + (rng.below(1 << 18) << 2), // cross page
                _ => (1 << 27) + (rng.below(1 << 12) << 2),     // overflow-length
            };
            let target = if rng.below(2) == 0 {
                pc.wrapping_add(offset) & ((1 << 48) - 1) & !3
            } else {
                pc.saturating_sub(offset) & !3
            };
            let taken = class != BranchClass::CondDirect || rng.below(4) != 0;
            BranchEvent {
                pc,
                target,
                class,
                taken,
            }
        })
        .collect()
}

/// Drive `btb` through the BPU's per-event protocol — probe, consume the
/// predicted target, commit the update — logging every outcome.
fn replay(btb: &mut impl Btb, events: &[BranchEvent], log: &mut String) {
    for ev in events {
        let hit = btb.lookup(ev.pc);
        write!(log, "{hit:?};").unwrap();
        if let (true, Some(hit)) = (ev.taken, hit) {
            btb.note_target_consumed(&hit);
        }
        btb.update(ev);
    }
    let storage = btb.storage();
    writeln!(
        log,
        "{:?}|{}|{}|{}|{}",
        btb.counts(),
        storage.total_bits,
        storage.branch_capacity,
        btb.branch_capacity(),
        btb.name()
    )
    .unwrap();
}

/// Fingerprint one (organization, budget): replay its stream, clear and
/// reset, probe what was inserted before the clear, replay a second
/// stream, and hash the whole log.
fn digest(btb: &mut impl Btb, kind: OrgKind, budget: BudgetPoint) -> u64 {
    // Seed per (org, budget) so each combination sees a distinct stream
    // while staying reproducible.
    let seed = 0x9e37_79b9_7f4a_7c15 ^ ((kind as u64) << 8) ^ budget.bits(Arch::Arm64);
    let events = event_stream(seed, 4_000);
    let mut log = String::new();
    replay(btb, &events, &mut log);

    btb.clear();
    btb.reset_counts();
    assert_eq!(
        btb.counts(),
        AccessCounts::default(),
        "{kind} at {budget}: reset_counts must zero every counter"
    );
    for ev in events.iter().take(64) {
        write!(log, "{:?};", btb.lookup(ev.pc)).unwrap();
    }
    replay(btb, &event_stream(seed ^ 0xabcd, 1_000), &mut log);
    fnv64(log.as_bytes())
}

/// `(org id, digest at each of BUDGETS)`, in `OrgKind::ALL` order.
const GOLDEN: [(&str, [u64; 3]); 8] = [
    (
        "conv",
        [0x1944e3453eee6127, 0x00b36f093f9e32d0, 0x44f25f21038ad806],
    ),
    (
        "pdede",
        [0x7fd5d1658232672b, 0xbc345ce8ec3e7225, 0x17bd141b0b471e04],
    ),
    (
        "btbx",
        [0x1d06a62a95440aa9, 0xa5eb81715424218a, 0x2f705735a06a4dc6],
    ),
    (
        "rbtb",
        [0x3f006700f9d38d9d, 0x1105491fd2857773, 0xea0d817ed278f994],
    ),
    (
        "hoogerbrugge",
        [0x25bdd01523398909, 0x2c0668695aa06c7e, 0xf1ad1e43b90dd673],
    ),
    (
        "infinite",
        [0x214a96be269e6440, 0x154602bf3d01c1f7, 0x7d9dbe19d163e7b9],
    ),
    (
        "btbx-uniform",
        [0xa9bba9db4dd3b200, 0x75bfefc5c02eb4f5, 0xbc6315cd55cbc0df],
    ),
    (
        "btbx-noxc",
        [0xe6c97a98cac8e11c, 0xde7b730e643766eb, 0x505f56f5844fe808],
    ),
];

#[test]
fn every_org_and_budget_replays_identically() {
    let mut actual = String::new();
    let mut mismatches = Vec::new();
    for (kind, (id, golden)) in OrgKind::ALL.into_iter().zip(GOLDEN) {
        assert_eq!(kind.id(), id, "GOLDEN must follow OrgKind::ALL");
        let digests = BUDGETS.map(|budget| {
            let mut engine = BtbEngine::build(kind, budget.bits(Arch::Arm64), Arch::Arm64);
            digest(&mut engine, kind, budget)
        });
        for ((budget, got), want) in BUDGETS.into_iter().zip(digests).zip(golden) {
            if got != want {
                mismatches.push(format!("{kind} at {budget}"));
            }
        }
        let row: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
        writeln!(actual, "    (\"{id}\", [{}]),", row.join(", ")).unwrap();
    }
    assert!(
        mismatches.is_empty(),
        "replays diverged from the golden digests: {mismatches:?}\nactual:\n{actual}"
    );
}

/// `clear` + `reset_counts` must return a used BTB to the state of a
/// freshly built one: a cleared engine and a new engine built through
/// `BtbSpec` must then answer every probe and count every access alike.
#[test]
fn clear_and_reset_keep_the_paths_in_lockstep() {
    for kind in OrgKind::ALL {
        let bits = BudgetPoint::Kb1_8.bits(Arch::Arm64);
        let mut used = BtbEngine::build(kind, bits, Arch::Arm64);
        let events = event_stream(0xabcd ^ kind as u64, 1_500);
        let (first, second) = events.split_at(events.len() / 2);

        for ev in first {
            used.update(ev);
            used.lookup(ev.pc);
        }
        used.clear();
        used.reset_counts();
        let mut fresh = BtbSpec::of(kind)
            .budget_bits(bits)
            .build_engine()
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(used.counts(), fresh.counts(), "{kind}: post-reset");

        // Everything inserted before the clear must miss, and the replay
        // afterwards must stay in lockstep with the fresh build.
        for ev in first.iter().take(64) {
            let (u, f) = (used.lookup(ev.pc), fresh.lookup(ev.pc));
            assert_eq!(u, None, "{kind}: entry survived the clear");
            assert_eq!(u, f, "{kind}: post-clear lookups diverged");
        }
        for ev in second {
            used.update(ev);
            fresh.update(ev);
            assert_eq!(used.lookup(ev.pc), fresh.lookup(ev.pc), "{kind}");
        }
        assert_eq!(used.counts(), fresh.counts(), "{kind}: final");
        assert_eq!(
            used.storage().total_bits,
            fresh.storage().total_bits,
            "{kind}"
        );
    }
}
