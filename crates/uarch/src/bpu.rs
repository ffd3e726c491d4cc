//! The branch prediction unit: BTB + hashed perceptron + RAS.
//!
//! Each cycle the BPU walks the upcoming instruction stream (the trace is
//! the correct path), probes the BTB for *every* PC — branches are only
//! discoverable through the BTB (Section II) — and classifies what the
//! front-end would do:
//!
//! * correct prediction: fetch continues seamlessly;
//! * decode-stage resteer (Section VI-A): BTB-missing unconditional
//!   *direct* branches, taken-predicted BTB-missing conditionals, and
//!   false BTB hits on non-branches — decode sees the instruction bytes
//!   and fixes the front-end after `decode_depth` cycles;
//! * execute-stage resteer: direction mispredictions, target
//!   mispredictions (indirect branches, aliased entries), BTB-missing
//!   returns and indirect branches.
//!
//! The BPU also keeps the RAS (calls push, returns pop) and trains the
//! direction predictor.

use crate::perceptron::HashedPerceptron;
use crate::ras::ReturnAddressStack;
use btbx_core::types::{BranchClass, BranchEvent, BtbBranchType, TargetSource};
use btbx_core::Btb;
use serde::{Deserialize, Serialize};

/// Where (whether) a misprediction is resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Prediction was correct; no pipeline disturbance.
    Correct,
    /// Fixed at decode: bubble of `decode_depth` + redirect.
    DecodeResteer,
    /// Fixed at execute: bubble of `execute_depth` + redirect.
    ExecuteResteer,
}

/// Why an execute/decode resteer happened (statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MispredictKind {
    /// Taken branch missed in the BTB.
    BtbMissTaken,
    /// Conditional direction mispredicted.
    Direction,
    /// Target mismatch (indirect branch or aliased entry).
    Target,
    /// BTB falsely identified a non-branch as a taken branch.
    FalseHit,
}

/// Per-instruction BPU verdict handed to the FTQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// How the front-end recovers.
    pub resolution: Resolution,
    /// Why (when not correct).
    pub kind: Option<MispredictKind>,
    /// The BTB supplied a (possibly wrong) next-fetch target this cycle.
    pub predicted_taken: bool,
    /// Extra BPU cycles consumed by the BTB lookup (PDede's second-cycle
    /// Page-/Region-BTB access for taken different-page branches).
    pub extra_bpu_cycles: u32,
}

/// BPU statistics over the measurement window.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BpuStats {
    /// Instructions examined (BTB lookups on the correct path).
    pub lookups: u64,
    /// Dynamic branches seen.
    pub branches: u64,
    /// Dynamic taken branches seen.
    pub taken_branches: u64,
    /// Taken branches that missed in the BTB — the numerator of the
    /// paper's BTB MPKI (Section VI-C).
    pub btb_miss_taken: u64,
    /// Conditional direction mispredictions.
    pub direction_mispredicts: u64,
    /// Target mispredictions on BTB hits.
    pub target_mispredicts: u64,
    /// False BTB hits on non-branches that caused a bogus redirect.
    pub false_hits: u64,
    /// Decode-stage resteers.
    pub decode_resteers: u64,
    /// Execute-stage resteers.
    pub execute_resteers: u64,
    /// Conditional branches predicted by the perceptron.
    pub cond_predictions: u64,
}

impl BpuStats {
    /// BTB misses (taken branches) per kilo-instruction, given committed
    /// instructions.
    pub fn btb_mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.btb_miss_taken as f64 * 1000.0 / instructions as f64
        }
    }

    /// All pipeline-flushing events.
    pub fn flushes(&self) -> u64 {
        self.decode_resteers + self.execute_resteers
    }

    /// Merge counters from another window.
    pub fn merge(&mut self, o: &BpuStats) {
        self.lookups += o.lookups;
        self.branches += o.branches;
        self.taken_branches += o.taken_branches;
        self.btb_miss_taken += o.btb_miss_taken;
        self.direction_mispredicts += o.direction_mispredicts;
        self.target_mispredicts += o.target_mispredicts;
        self.false_hits += o.false_hits;
        self.decode_resteers += o.decode_resteers;
        self.execute_resteers += o.execute_resteers;
        self.cond_predictions += o.cond_predictions;
    }
}

/// The branch prediction unit.
///
/// Generic over the BTB: [`btbx_core::BtbEngine`] for every in-tree
/// organization, or any other [`Btb`] implementation; either way every
/// probe on the hot path is monomorphized.
pub struct Bpu<B: Btb> {
    btb: B,
    dir: HashedPerceptron,
    ras: ReturnAddressStack,
    decode_resteer_enabled: bool,
    stats: BpuStats,
}

impl<B: Btb> Bpu<B> {
    /// Assemble a BPU around a BTB organization.
    pub fn new(btb: B, ras_entries: usize, decode_resteer: bool) -> Self {
        Bpu {
            btb,
            dir: HashedPerceptron::new(),
            ras: ReturnAddressStack::new(ras_entries),
            decode_resteer_enabled: decode_resteer,
            stats: BpuStats::default(),
        }
    }

    /// Borrow the underlying BTB (for storage/energy reporting).
    pub fn btb(&self) -> &B {
        &self.btb
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BpuStats {
        self.stats
    }

    /// Reset statistics and the BTB's access counters (warm-up boundary).
    pub fn reset_stats(&mut self) {
        self.stats = BpuStats::default();
        self.btb.reset_counts();
    }

    fn resteer(&mut self, decode_ok: bool, kind: MispredictKind) -> (Resolution, MispredictKind) {
        if decode_ok && self.decode_resteer_enabled {
            self.stats.decode_resteers += 1;
            (Resolution::DecodeResteer, kind)
        } else {
            self.stats.execute_resteers += 1;
            (Resolution::ExecuteResteer, kind)
        }
    }

    /// Examine the next correct-path instruction at prediction time.
    ///
    /// `branch` is `Some` when the instruction is a branch (with its
    /// actual outcome); `size` gives the fall-through distance.
    pub fn predict(&mut self, pc: u64, size: u8, branch: Option<&BranchEvent>) -> Verdict {
        self.stats.lookups += 1;
        let hit = self.btb.lookup(pc);

        let Some(ev) = branch else {
            // Non-branch instruction. A tag alias can make the BTB claim
            // it is a branch; if that claim redirects fetch, decode
            // discovers the instruction is not a branch and resteers.
            if let Some(h) = hit {
                let redirects = match h.btype {
                    BtbBranchType::Conditional => {
                        // Direction predictor consulted; only a taken
                        // prediction disturbs fetch.
                        self.dir.predict(pc).taken
                    }
                    _ => true,
                };
                if redirects {
                    self.btb.note_target_consumed(&h);
                    self.stats.false_hits += 1;
                    let (resolution, kind) = self.resteer(true, MispredictKind::FalseHit);
                    return Verdict {
                        resolution,
                        kind: Some(kind),
                        predicted_taken: true,
                        extra_bpu_cycles: h.extra_latency(),
                    };
                }
            }
            return Verdict {
                resolution: Resolution::Correct,
                kind: None,
                predicted_taken: false,
                extra_bpu_cycles: 0,
            };
        };

        self.stats.branches += 1;
        if ev.taken {
            self.stats.taken_branches += 1;
        }

        // Direction prediction is made for every conditional, BTB hit or
        // not — the fetch stage forwards it to decode (Section VI-A).
        let dir_pred = if ev.class == BranchClass::CondDirect {
            self.stats.cond_predictions += 1;
            Some(self.dir.predict(pc))
        } else {
            None
        };

        // Speculative RAS maintenance on the correct path.
        let ras_target = if ev.class == BranchClass::Return {
            self.ras.pop()
        } else {
            None
        };
        if ev.class.is_call() {
            self.ras.push(pc + size as u64);
        }

        let verdict = match hit {
            Some(h) => {
                let predicted_taken = match h.btype {
                    BtbBranchType::Conditional => dir_pred.map_or(ev.taken, |p| p.taken),
                    _ => true,
                };
                let extra = if predicted_taken {
                    h.extra_latency()
                } else {
                    0
                };
                if predicted_taken {
                    self.btb.note_target_consumed(&h);
                }
                let predicted_target = match h.target {
                    TargetSource::ReturnStack => ras_target,
                    TargetSource::Address(a) => Some(a),
                };
                if predicted_taken && ev.taken {
                    if predicted_target == Some(ev.target) {
                        (Resolution::Correct, None, predicted_taken, extra)
                    } else {
                        self.stats.target_mispredicts += 1;
                        let (r, k) = self.resteer(false, MispredictKind::Target);
                        (r, Some(k), predicted_taken, extra)
                    }
                } else if !predicted_taken && !ev.taken {
                    (Resolution::Correct, None, predicted_taken, extra)
                } else {
                    // Direction misprediction (either polarity): resolved
                    // at execute.
                    self.stats.direction_mispredicts += 1;
                    let (r, k) = self.resteer(false, MispredictKind::Direction);
                    (r, Some(k), predicted_taken, extra)
                }
            }
            None => {
                // BTB miss: fetch falls through. Harmless for not-taken
                // conditionals; a resteer otherwise.
                if !ev.taken {
                    (Resolution::Correct, None, false, 0)
                } else {
                    self.stats.btb_miss_taken += 1;
                    // Section VI-A: decode resteers unconditional direct
                    // branches and taken-predicted conditionals; returns
                    // and indirect branches wait for execute.
                    let decode_ok = match ev.class {
                        BranchClass::UncondDirect | BranchClass::CallDirect => true,
                        BranchClass::CondDirect => dir_pred.is_some_and(|p| p.taken),
                        _ => false,
                    };
                    let (r, k) = self.resteer(decode_ok, MispredictKind::BtbMissTaken);
                    (r, Some(k), false, 0)
                }
            }
        };

        // Train the direction predictor; record taken control flow in the
        // global history.
        if let Some(p) = dir_pred {
            self.dir.train(p, ev.taken);
        } else if ev.taken {
            self.dir.note_unconditional();
        }

        Verdict {
            resolution: verdict.0,
            kind: verdict.1,
            predicted_taken: verdict.2,
            extra_bpu_cycles: verdict.3,
        }
    }

    /// Commit-time BTB update (taken branches only allocate —
    /// Section VI-A; the call ignores not-taken events internally).
    pub fn commit(&mut self, ev: &BranchEvent) {
        self.btb.update(ev);
    }
}

impl<B: Btb> std::fmt::Debug for Bpu<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bpu")
            .field("btb", &self.btb.name())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btbx_core::storage::BudgetPoint;
    use btbx_core::types::Arch;
    use btbx_core::{BtbEngine, OrgKind};

    fn bpu() -> Bpu<BtbEngine> {
        let bits = BudgetPoint::Kb14_5.bits(Arch::Arm64);
        Bpu::new(BtbEngine::build(OrgKind::BtbX, bits, Arch::Arm64), 64, true)
    }

    fn taken(pc: u64, target: u64, class: BranchClass) -> BranchEvent {
        BranchEvent::taken(pc, target, class)
    }

    #[test]
    fn cold_taken_direct_jump_resteers_at_decode() {
        let mut b = bpu();
        let ev = taken(0x1000, 0x2000, BranchClass::UncondDirect);
        let v = b.predict(0x1000, 4, Some(&ev));
        assert_eq!(v.resolution, Resolution::DecodeResteer);
        assert_eq!(v.kind, Some(MispredictKind::BtbMissTaken));
        assert_eq!(b.stats().btb_miss_taken, 1);
    }

    #[test]
    fn cold_return_resolves_at_execute() {
        let mut b = bpu();
        let ev = taken(0x1000, 0x9000, BranchClass::Return);
        let v = b.predict(0x1000, 4, Some(&ev));
        assert_eq!(
            v.resolution,
            Resolution::ExecuteResteer,
            "returns are indirect; decode cannot produce the target"
        );
    }

    #[test]
    fn warm_branch_predicts_correctly() {
        let mut b = bpu();
        let ev = taken(0x1000, 0x2000, BranchClass::UncondDirect);
        b.predict(0x1000, 4, Some(&ev));
        b.commit(&ev);
        let v = b.predict(0x1000, 4, Some(&ev));
        assert_eq!(v.resolution, Resolution::Correct);
        assert!(v.predicted_taken);
    }

    #[test]
    fn decode_resteer_disabled_falls_back_to_execute() {
        let bits = BudgetPoint::Kb14_5.bits(Arch::Arm64);
        let mut b = Bpu::new(
            BtbEngine::build(OrgKind::BtbX, bits, Arch::Arm64),
            64,
            false,
        );
        let ev = taken(0x1000, 0x2000, BranchClass::UncondDirect);
        let v = b.predict(0x1000, 4, Some(&ev));
        assert_eq!(v.resolution, Resolution::ExecuteResteer);
    }

    #[test]
    fn call_return_pair_uses_ras() {
        let mut b = bpu();
        let call = taken(0x1000, 0x8000, BranchClass::CallDirect);
        let ret = taken(0x8010, 0x1004, BranchClass::Return);
        // Warm both into the BTB.
        b.predict(0x1000, 4, Some(&call));
        b.commit(&call);
        b.predict(0x8010, 4, Some(&ret));
        b.commit(&ret);
        // Second pass: call pushes 0x1004; return must pop it and match.
        assert_eq!(
            b.predict(0x1000, 4, Some(&call)).resolution,
            Resolution::Correct
        );
        assert_eq!(
            b.predict(0x8010, 4, Some(&ret)).resolution,
            Resolution::Correct
        );
    }

    #[test]
    fn ras_mismatch_is_target_mispredict() {
        let mut b = bpu();
        let call = taken(0x1000, 0x8000, BranchClass::CallDirect);
        let ret = taken(0x8010, 0x1004, BranchClass::Return);
        b.predict(0x1000, 4, Some(&call));
        b.commit(&call);
        b.predict(0x8010, 4, Some(&ret));
        b.commit(&ret);
        // A return with no matching call on the RAS (stack was drained).
        let bogus_ret = taken(0x8010, 0x5555_0000, BranchClass::Return);
        b.predict(0x1000, 4, Some(&call)); // push 0x1004
        let v = b.predict(0x8010, 4, Some(&bogus_ret)); // pops 0x1004 ≠ target
        assert_eq!(v.resolution, Resolution::ExecuteResteer);
        assert_eq!(v.kind, Some(MispredictKind::Target));
    }

    #[test]
    fn not_taken_conditional_btb_miss_is_free() {
        let mut b = bpu();
        let ev = BranchEvent::not_taken(0x3000, 0x4000);
        let v = b.predict(0x3000, 4, Some(&ev));
        assert_eq!(v.resolution, Resolution::Correct);
        assert_eq!(
            b.stats().btb_miss_taken,
            0,
            "paper counts taken misses only"
        );
    }

    #[test]
    fn conditional_direction_learned_then_mispredicted_on_flip() {
        let mut b = bpu();
        let t = taken(0x5000, 0x5100, BranchClass::CondDirect);
        // Teach taken.
        for _ in 0..80 {
            b.predict(0x5000, 4, Some(&t));
            b.commit(&t);
        }
        assert_eq!(
            b.predict(0x5000, 4, Some(&t)).resolution,
            Resolution::Correct
        );
        // Now the branch falls through once: direction mispredict.
        let nt = BranchEvent { taken: false, ..t };
        let v = b.predict(0x5000, 4, Some(&nt));
        assert_eq!(v.resolution, Resolution::ExecuteResteer);
        assert_eq!(v.kind, Some(MispredictKind::Direction));
    }

    #[test]
    fn indirect_retarget_is_target_mispredict() {
        let mut b = bpu();
        let a = taken(0x6000, 0x7000, BranchClass::CallIndirect);
        b.predict(0x6000, 4, Some(&a));
        b.commit(&a);
        let other = taken(0x6000, 0x7400, BranchClass::CallIndirect);
        let v = b.predict(0x6000, 4, Some(&other));
        assert_eq!(v.resolution, Resolution::ExecuteResteer);
        assert_eq!(v.kind, Some(MispredictKind::Target));
        assert_eq!(b.stats().target_mispredicts, 1);
    }

    #[test]
    fn mpki_accounting() {
        let mut b = bpu();
        for i in 0..10u64 {
            let ev = taken(0x10_0000 + i * 0x40, 0x20_0000, BranchClass::UncondDirect);
            b.predict(ev.pc, 4, Some(&ev));
        }
        assert_eq!(b.stats().btb_miss_taken, 10);
        assert!((b.stats().btb_mpki(10_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pdede_different_page_hits_cost_an_extra_bpu_cycle() {
        let bits = BudgetPoint::Kb14_5.bits(Arch::Arm64);
        let mut b = Bpu::new(
            BtbEngine::build(OrgKind::Pdede, bits, Arch::Arm64),
            64,
            true,
        );
        // Same-page branch: single-cycle lookup.
        let near = taken(0x1000, 0x1400, BranchClass::UncondDirect);
        b.predict(near.pc, 4, Some(&near));
        b.commit(&near);
        let v = b.predict(near.pc, 4, Some(&near));
        assert_eq!(v.extra_bpu_cycles, 0, "same-page: one cycle");
        // Different-page branch: the sequential Page-/Region-BTB access
        // costs a second cycle (Section VI-E).
        let far = taken(0x2000, 0x7f00_0040, BranchClass::CallDirect);
        b.predict(far.pc, 4, Some(&far));
        b.commit(&far);
        let v = b.predict(far.pc, 4, Some(&far));
        assert_eq!(v.resolution, Resolution::Correct);
        assert_eq!(v.extra_bpu_cycles, 1, "different-page: two cycles");
    }

    #[test]
    fn infinite_btb_only_misses_cold() {
        let mut b = Bpu::new(
            BtbEngine::build(OrgKind::Infinite, 0, Arch::Arm64),
            64,
            true,
        );
        for i in 0..2000u64 {
            let ev = taken(0x10_0000 + i * 8, 0x20_0000, BranchClass::UncondDirect);
            b.predict(ev.pc, 4, Some(&ev));
            b.commit(&ev);
        }
        assert_eq!(b.stats().btb_miss_taken, 2000, "every first sight misses");
        b.reset_stats();
        for i in 0..2000u64 {
            let ev = taken(0x10_0000 + i * 8, 0x20_0000, BranchClass::UncondDirect);
            b.predict(ev.pc, 4, Some(&ev));
        }
        assert_eq!(b.stats().btb_miss_taken, 0, "no capacity misses ever");
    }

    #[test]
    fn non_branch_usually_harmless() {
        let mut b = bpu();
        let v = b.predict(0x9000, 4, None);
        assert_eq!(v.resolution, Resolution::Correct);
        assert_eq!(b.stats().branches, 0);
        assert_eq!(b.stats().lookups, 1);
    }
}
