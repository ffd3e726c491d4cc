//! The selectable BTB organizations ([`OrgKind`]) and the BTB-X budget
//! sizing rule.
//!
//! [`crate::BtbEngine::build`] maps an [`OrgKind`] plus a budget in bits
//! (usually a [`crate::storage::BudgetPoint`]) to an instance sized the
//! way the paper sizes it in Section VI-B.

use crate::storage::btbx_total_bits;
use crate::types::Arch;
use serde::{Deserialize, Serialize};

/// Selectable BTB organizations, including the paper's two evaluation
/// baselines and this repository's ablation variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OrgKind {
    /// Conventional BTB, full targets (Figure 1).
    Conv,
    /// PDede (Figures 6/7), the state-of-the-art baseline.
    Pdede,
    /// BTB-X with BTB-XC (Figure 8), the paper's design.
    BtbX,
    /// Seznec's R-BTB (Figure 5); related-work baseline.
    RBtb,
    /// Hoogerbrugge's mixed-entry-size BTB (Section VII); related-work
    /// baseline.
    Hoogerbrugge,
    /// Idealized infinite-capacity BTB (ChampSim's implicit oracle;
    /// headroom studies). Ignores the storage budget.
    Infinite,
    /// Ablation: BTB-X with eight uniform widest ways.
    BtbXUniform,
    /// Ablation: BTB-X without the BTB-XC overflow structure.
    BtbXNoXc,
}

impl OrgKind {
    /// The three organizations of the paper's evaluation, in the order the
    /// figures plot them.
    pub const PAPER_EVAL: [OrgKind; 3] = [OrgKind::Conv, OrgKind::Pdede, OrgKind::BtbX];

    /// Every organization, paper-evaluation ones first. The canonical list
    /// for conformance suites and CLI parsing — extend it when adding a
    /// variant so downstream coverage picks the new organization up.
    pub const ALL: [OrgKind; 8] = [
        OrgKind::Conv,
        OrgKind::Pdede,
        OrgKind::BtbX,
        OrgKind::RBtb,
        OrgKind::Hoogerbrugge,
        OrgKind::Infinite,
        OrgKind::BtbXUniform,
        OrgKind::BtbXNoXc,
    ];

    /// Short stable identifier used in file names and CSV columns.
    pub const fn id(self) -> &'static str {
        match self {
            OrgKind::Conv => "conv",
            OrgKind::Pdede => "pdede",
            OrgKind::BtbX => "btbx",
            OrgKind::RBtb => "rbtb",
            OrgKind::Hoogerbrugge => "hoogerbrugge",
            OrgKind::Infinite => "infinite",
            OrgKind::BtbXUniform => "btbx-uniform",
            OrgKind::BtbXNoXc => "btbx-noxc",
        }
    }

    /// Display label matching the paper's figure legends where applicable.
    pub const fn label(self) -> &'static str {
        match self {
            OrgKind::Conv => "Conv-BTB",
            OrgKind::Pdede => "PDede",
            OrgKind::BtbX => "BTB-X",
            OrgKind::RBtb => "R-BTB",
            OrgKind::Hoogerbrugge => "Mixed-entry BTB",
            OrgKind::Infinite => "Infinite BTB",
            OrgKind::BtbXUniform => "BTB-X (uniform ways)",
            OrgKind::BtbXNoXc => "BTB-X (no BTB-XC)",
        }
    }
}

impl std::fmt::Display for OrgKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Largest BTB-X entry count (multiple of 8) whose Table III storage fits
/// in `budget_bits`.
pub fn btbx_entries_for_budget(budget_bits: u64, arch: Arch) -> usize {
    let mut entries = 8usize;
    while btbx_total_bits(entries + 8, arch) <= budget_bits {
        entries += 8;
    }
    assert!(
        btbx_total_bits(entries, arch) <= budget_bits,
        "budget {budget_bits} too small for one BTB-X set"
    );
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::BudgetPoint;
    use crate::BtbEngine;

    #[test]
    fn budget_tiers_reproduce_exact_entry_counts() {
        for bp in BudgetPoint::ALL {
            let entries = btbx_entries_for_budget(bp.bits(Arch::Arm64), Arch::Arm64);
            assert_eq!(entries, bp.btbx_entries(), "{bp}");
        }
    }

    #[test]
    fn all_organizations_fit_their_budget() {
        let bits = BudgetPoint::Kb14_5.bits(Arch::Arm64);
        for kind in [OrgKind::Conv, OrgKind::Pdede, OrgKind::BtbX, OrgKind::RBtb] {
            let btb = BtbEngine::build(kind, bits, Arch::Arm64);
            assert!(
                btb.storage().total_bits <= bits,
                "{kind} exceeds budget: {} > {bits}",
                btb.storage().total_bits
            );
        }
    }

    #[test]
    fn all_enumerates_every_variant() {
        // An exhaustive match: adding an OrgKind variant fails to compile
        // here until OrgKind::ALL (checked below) is extended with it.
        fn armed(kind: OrgKind) {
            match kind {
                OrgKind::Conv
                | OrgKind::Pdede
                | OrgKind::BtbX
                | OrgKind::RBtb
                | OrgKind::Hoogerbrugge
                | OrgKind::Infinite
                | OrgKind::BtbXUniform
                | OrgKind::BtbXNoXc => {}
            }
        }
        let mut ids: Vec<_> = OrgKind::ALL.iter().map(|o| o.id()).collect();
        OrgKind::ALL.into_iter().for_each(armed);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), OrgKind::ALL.len(), "ALL must not repeat");
    }

    #[test]
    fn capacity_ordering_matches_table_iv() {
        // At every tier: BTB-X > PDede > Conv in trackable branches.
        for bp in BudgetPoint::ALL {
            let bits = bp.bits(Arch::Arm64);
            let x = BtbEngine::build(OrgKind::BtbX, bits, Arch::Arm64).branch_capacity();
            let p = BtbEngine::build(OrgKind::Pdede, bits, Arch::Arm64).branch_capacity();
            let c = BtbEngine::build(OrgKind::Conv, bits, Arch::Arm64).branch_capacity();
            assert!(x > p && p > c, "{bp}: x={x} p={p} c={c}");
        }
    }

    #[test]
    fn ids_and_labels_are_stable() {
        assert_eq!(OrgKind::BtbX.id(), "btbx");
        assert_eq!(OrgKind::Pdede.label(), "PDede");
        assert_eq!(OrgKind::PAPER_EVAL.len(), 3);
    }
}
