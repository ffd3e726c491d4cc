//! Statically dispatched BTB engine: every organization behind one enum.
//!
//! [`BtbEngine`] is how every in-tree organization is built and run: it
//! wraps each [`OrgKind`] variant concretely, so a simulator generic over
//! `B: Btb` monomorphizes the whole lookup/update hot path — way search,
//! tag match, replacement update — with no vtable and no per-event
//! allocation. Out-of-tree organizations implement [`crate::Btb`]
//! themselves and plug into the same generic simulator.
//! `tests/btb_differential.rs` pins every variant's per-event behaviour
//! to recorded digests.
//!
//! ```
//! use btbx_core::engine::BtbEngine;
//! use btbx_core::storage::BudgetPoint;
//! use btbx_core::types::{Arch, BranchClass, BranchEvent};
//! use btbx_core::OrgKind;
//!
//! let mut engine = BtbEngine::build(
//!     OrgKind::BtbX,
//!     BudgetPoint::Kb14_5.bits(Arch::Arm64),
//!     Arch::Arm64,
//! );
//! engine.update(&BranchEvent::taken(0x1000, 0x1040, BranchClass::CondDirect));
//! assert!(engine.lookup(0x1000).is_some());
//! assert_eq!(engine.kind(), OrgKind::BtbX);
//! ```

use crate::btb::{Btb, BtbHit};
use crate::conv::ConvBtb;
use crate::factory::{btbx_entries_for_budget, OrgKind};
use crate::hooger::MixedBtb;
use crate::infinite::InfiniteBtb;
use crate::pdede::PdedeBtb;
use crate::rbtb::RBtb;
use crate::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use crate::stats::{AccessCounts, StorageReport};
use crate::types::{Arch, BranchEvent};
use crate::x::{BtbX, BtbXConfig};

/// A concretely stored BTB organization: one variant per [`OrgKind`], so
/// every method dispatches through a jump table the compiler can flatten
/// instead of a vtable. Build one with [`BtbEngine::build`] or
/// [`crate::spec::BtbSpec::build_engine`].
#[derive(Debug, Clone)]
pub enum BtbEngine {
    /// Conventional set-associative BTB ([`OrgKind::Conv`]).
    Conv(ConvBtb),
    /// PDede ([`OrgKind::Pdede`]).
    Pdede(PdedeBtb),
    /// BTB-X with BTB-XC ([`OrgKind::BtbX`]).
    BtbX(BtbX),
    /// Seznec's R-BTB ([`OrgKind::RBtb`]).
    RBtb(RBtb),
    /// Hoogerbrugge's mixed-entry-size BTB ([`OrgKind::Hoogerbrugge`]).
    Hoogerbrugge(MixedBtb),
    /// Idealized infinite BTB ([`OrgKind::Infinite`]).
    Infinite(InfiniteBtb),
    /// Ablation: BTB-X with eight uniform widest ways
    /// ([`OrgKind::BtbXUniform`]).
    BtbXUniform(BtbX),
    /// Ablation: BTB-X without the BTB-XC overflow structure
    /// ([`OrgKind::BtbXNoXc`]).
    BtbXNoXc(BtbX),
}

/// Delegate a method body to the wrapped concrete organization.
macro_rules! dispatch {
    ($self:expr, $b:ident => $body:expr) => {
        match $self {
            BtbEngine::Conv($b) => $body,
            BtbEngine::Pdede($b) => $body,
            BtbEngine::BtbX($b) => $body,
            BtbEngine::RBtb($b) => $body,
            BtbEngine::Hoogerbrugge($b) => $body,
            BtbEngine::Infinite($b) => $body,
            BtbEngine::BtbXUniform($b) => $body,
            BtbEngine::BtbXNoXc($b) => $body,
        }
    };
}

impl BtbEngine {
    /// Build the engine for `kind` at `budget_bits`, sized per the paper's
    /// Section VI-B conventions.
    ///
    /// For the BTB-X variants the budget is interpreted the way the paper
    /// defines the tiers — the entry count whose Table III storage equals
    /// the budget — so `build(BtbX, BudgetPoint::Kb14_5.bits(arch), arch)`
    /// yields exactly 4096 + 64 entries.
    ///
    /// # Panics
    ///
    /// Panics if the budget is too small for the smallest legal instance
    /// of the requested organization (one 8-way set); use
    /// [`crate::spec::BtbSpec::build_engine`] for a typed error instead.
    pub fn build(kind: OrgKind, budget_bits: u64, arch: Arch) -> BtbEngine {
        match kind {
            OrgKind::Conv => BtbEngine::Conv(ConvBtb::with_budget_bits(budget_bits, arch)),
            OrgKind::Pdede => BtbEngine::Pdede(PdedeBtb::with_budget_bits(budget_bits, arch)),
            OrgKind::BtbX => BtbEngine::BtbX(BtbX::with_entries(
                btbx_entries_for_budget(budget_bits, arch),
                arch,
            )),
            OrgKind::RBtb => BtbEngine::RBtb(RBtb::with_budget_bits(budget_bits, arch)),
            OrgKind::Hoogerbrugge => {
                BtbEngine::Hoogerbrugge(MixedBtb::with_budget_bits(budget_bits, arch))
            }
            OrgKind::Infinite => BtbEngine::Infinite(InfiniteBtb::new()),
            OrgKind::BtbXUniform => {
                // Same *entry count* as the paper BTB-X at this budget
                // would have, so the ablation shows the storage
                // inflation; callers that want equal-storage comparisons
                // should shrink entries instead.
                let entries = btbx_entries_for_budget(budget_bits, arch);
                BtbEngine::BtbXUniform(BtbX::with_config(entries, arch, BtbXConfig::uniform(arch)))
            }
            OrgKind::BtbXNoXc => {
                let entries = btbx_entries_for_budget(budget_bits, arch);
                let config = BtbXConfig {
                    with_overflow: false,
                    ..BtbXConfig::paper(arch)
                };
                BtbEngine::BtbXNoXc(BtbX::with_config(entries, arch, config))
            }
        }
    }

    /// The organization this engine embodies.
    pub const fn kind(&self) -> OrgKind {
        match self {
            BtbEngine::Conv(_) => OrgKind::Conv,
            BtbEngine::Pdede(_) => OrgKind::Pdede,
            BtbEngine::BtbX(_) => OrgKind::BtbX,
            BtbEngine::RBtb(_) => OrgKind::RBtb,
            BtbEngine::Hoogerbrugge(_) => OrgKind::Hoogerbrugge,
            BtbEngine::Infinite(_) => OrgKind::Infinite,
            BtbEngine::BtbXUniform(_) => OrgKind::BtbXUniform,
            BtbEngine::BtbXNoXc(_) => OrgKind::BtbXNoXc,
        }
    }

    /// Probe at fetch time (see [`Btb::lookup`]).
    #[inline]
    pub fn lookup(&mut self, pc: u64) -> Option<BtbHit> {
        dispatch!(self, b => b.lookup(pc))
    }

    /// Commit-time update (see [`Btb::update`]).
    #[inline]
    pub fn update(&mut self, event: &BranchEvent) {
        dispatch!(self, b => b.update(event))
    }

    /// Target-consumption notification (see [`Btb::note_target_consumed`]).
    #[inline]
    pub fn note_target_consumed(&mut self, hit: &BtbHit) {
        dispatch!(self, b => b.note_target_consumed(hit))
    }

    /// Itemized storage cost (see [`Btb::storage`]).
    pub fn storage(&self) -> StorageReport {
        dispatch!(self, b => b.storage())
    }

    /// Dynamic access counters (see [`Btb::counts`]).
    #[inline]
    pub fn counts(&self) -> AccessCounts {
        dispatch!(self, b => b.counts())
    }

    /// Reset dynamic access counters (see [`Btb::reset_counts`]).
    pub fn reset_counts(&mut self) {
        dispatch!(self, b => b.reset_counts())
    }

    /// Remove all entries (see [`Btb::clear`]).
    pub fn clear(&mut self) {
        dispatch!(self, b => b.clear())
    }

    /// Short organization name (see [`Btb::name`]).
    pub fn name(&self) -> &'static str {
        dispatch!(self, b => b.name())
    }

    /// Trackable branches (see [`Btb::branch_capacity`]).
    pub fn branch_capacity(&self) -> u64 {
        dispatch!(self, b => b.branch_capacity())
    }

    /// Stable snapshot discriminant of the active variant. Distinct from
    /// [`OrgKind`] values only in being a codec contract: reordering
    /// `OrgKind` must not silently change snapshot bytes.
    const fn snap_code(&self) -> u8 {
        match self {
            BtbEngine::Conv(_) => 0,
            BtbEngine::Pdede(_) => 1,
            BtbEngine::BtbX(_) => 2,
            BtbEngine::RBtb(_) => 3,
            BtbEngine::Hoogerbrugge(_) => 4,
            BtbEngine::Infinite(_) => 5,
            BtbEngine::BtbXUniform(_) => 6,
            BtbEngine::BtbXNoXc(_) => 7,
        }
    }
}

impl Snapshot for BtbEngine {
    fn save_state(&self, w: &mut SnapWriter) {
        w.u8(self.snap_code());
        dispatch!(self, b => b.save_state(w))
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        if r.u8()? != self.snap_code() {
            return Err(SnapError::Corrupt("btb engine organization"));
        }
        dispatch!(self, b => b.restore_state(r))
    }
}

impl Btb for BtbEngine {
    #[inline]
    fn lookup(&mut self, pc: u64) -> Option<BtbHit> {
        BtbEngine::lookup(self, pc)
    }

    #[inline]
    fn update(&mut self, event: &BranchEvent) {
        BtbEngine::update(self, event)
    }

    #[inline]
    fn note_target_consumed(&mut self, hit: &BtbHit) {
        BtbEngine::note_target_consumed(self, hit)
    }

    fn storage(&self) -> StorageReport {
        BtbEngine::storage(self)
    }

    #[inline]
    fn counts(&self) -> AccessCounts {
        BtbEngine::counts(self)
    }

    fn reset_counts(&mut self) {
        BtbEngine::reset_counts(self)
    }

    fn clear(&mut self) {
        BtbEngine::clear(self)
    }

    fn name(&self) -> &'static str {
        BtbEngine::name(self)
    }

    fn branch_capacity(&self) -> u64 {
        BtbEngine::branch_capacity(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::BudgetPoint;
    use crate::types::BranchClass;

    #[test]
    fn every_kind_builds_and_reports_itself() {
        for kind in OrgKind::ALL {
            let bits = BudgetPoint::Kb14_5.bits(Arch::Arm64);
            let mut e = BtbEngine::build(kind, bits, Arch::Arm64);
            assert_eq!(e.kind(), kind);
            let ev = BranchEvent::taken(0x2000, 0x2080, BranchClass::CondDirect);
            e.update(&ev);
            assert!(e.lookup(0x2000).is_some(), "{kind}");
        }
    }

    #[test]
    fn engine_is_usable_through_the_trait() {
        fn probe<B: Btb>(btb: &mut B) -> bool {
            btb.update(&BranchEvent::taken(0x40, 0x80, BranchClass::UncondDirect));
            btb.lookup(0x40).is_some()
        }
        let mut e = BtbEngine::build(
            OrgKind::Conv,
            BudgetPoint::Kb0_9.bits(Arch::Arm64),
            Arch::Arm64,
        );
        assert!(probe(&mut e));
    }

    fn pseudo_events(seed: u64, n: usize) -> Vec<BranchEvent> {
        // Deterministic xorshift stream exercising every branch class,
        // short and long offsets, and not-taken conditionals.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|_| {
                let r = next();
                let pc = (r % 4096) * 4 + 0x1_0000;
                let class = BranchClass::ALL[(r >> 12) as usize % BranchClass::ALL.len()];
                let span = if r & (1 << 20) != 0 { 1 << 27 } else { 1 << 9 };
                let target = pc ^ ((r >> 24) % span * 4).max(4);
                BranchEvent {
                    pc,
                    target,
                    class,
                    taken: class.is_always_taken() || r & (1 << 21) != 0,
                }
            })
            .collect()
    }

    #[test]
    fn snapshot_restore_continues_bit_identically_for_every_kind() {
        use crate::snap::{restore_sealed, save_sealed};
        let bits = BudgetPoint::Kb0_9.bits(Arch::Arm64);
        for kind in OrgKind::ALL {
            let key = format!("{kind}/test");
            let mut original = BtbEngine::build(kind, bits, Arch::Arm64);
            for ev in pseudo_events(7, 4000) {
                original.update(&ev);
                original.lookup(ev.pc);
            }
            let sealed = save_sealed(&key, &original);
            let mut restored = BtbEngine::build(kind, bits, Arch::Arm64);
            restore_sealed(&mut restored, &key, &sealed).unwrap();
            // Continue both with the same stream: every prediction and
            // every counter must stay identical.
            for ev in pseudo_events(99, 4000) {
                assert_eq!(original.lookup(ev.pc), restored.lookup(ev.pc), "{kind}");
                original.update(&ev);
                restored.update(&ev);
            }
            assert_eq!(original.counts(), restored.counts(), "{kind}");
            assert_eq!(
                save_sealed(&key, &original),
                save_sealed(&key, &restored),
                "{kind}: snapshots of identical state must be byte-identical"
            );
        }
    }

    #[test]
    fn snapshot_rejects_the_wrong_organization() {
        let bits = BudgetPoint::Kb0_9.bits(Arch::Arm64);
        let conv = BtbEngine::build(OrgKind::Conv, bits, Arch::Arm64);
        let mut w = SnapWriter::new();
        conv.save_state(&mut w);
        let bytes = w.into_vec();
        let mut pdede = BtbEngine::build(OrgKind::Pdede, bits, Arch::Arm64);
        let err = pdede
            .restore_state(&mut SnapReader::new(&bytes))
            .unwrap_err();
        assert_eq!(err, SnapError::Corrupt("btb engine organization"));
    }

    #[test]
    fn snapshot_rejects_a_different_geometry() {
        let mut small = BtbEngine::build(
            OrgKind::Conv,
            BudgetPoint::Kb0_9.bits(Arch::Arm64),
            Arch::Arm64,
        );
        let big = BtbEngine::build(
            OrgKind::Conv,
            BudgetPoint::Kb14_5.bits(Arch::Arm64),
            Arch::Arm64,
        );
        let mut w = SnapWriter::new();
        big.save_state(&mut w);
        let bytes = w.into_vec();
        assert!(small.restore_state(&mut SnapReader::new(&bytes)).is_err());
    }

    #[test]
    fn clear_and_counts_delegate() {
        let mut e = BtbEngine::build(
            OrgKind::BtbX,
            BudgetPoint::Kb0_9.bits(Arch::Arm64),
            Arch::Arm64,
        );
        e.update(&BranchEvent::taken(0x100, 0x140, BranchClass::CondDirect));
        assert!(e.lookup(0x100).is_some());
        assert!(e.counts().reads > 0);
        e.clear();
        assert!(e.lookup(0x100).is_none());
        e.reset_counts();
        assert_eq!(e.counts().reads, 0);
    }
}
