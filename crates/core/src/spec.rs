//! Typed, validated construction of BTB organizations: the [`BtbSpec`]
//! builder.
//!
//! [`crate::BtbEngine::build`] is the low-level positional entry point; it
//! panics on undersized budgets and forces every caller to thread
//! `(org, bits, arch)` tuples around. `BtbSpec` is the public way to
//! describe *which* BTB to build:
//!
//! ```
//! use btbx_core::spec::BtbSpec;
//! use btbx_core::storage::BudgetPoint;
//! use btbx_core::{Arch, OrgKind};
//!
//! let btb = BtbSpec::of(OrgKind::BtbX)
//!     .at(BudgetPoint::Kb14_5)
//!     .arch(Arch::Arm64)
//!     .build_engine()
//!     .expect("14.5 KB is a valid BTB-X budget");
//! assert!(btb.branch_capacity() > 4000);
//!
//! // Undersized budgets are a typed error, not a panic.
//! let err = BtbSpec::of(OrgKind::BtbX).budget_bits(10).validate().unwrap_err();
//! assert!(err.to_string().contains("too small"));
//! ```
//!
//! Specs are plain serializable data, so experiment definitions (see
//! `btbx-bench`'s `Sweep`) can carry them in JSON.

use crate::engine::BtbEngine;
use crate::factory::OrgKind;
use crate::storage::{btbx_total_bits, BudgetPoint};
use crate::types::Arch;
use crate::Btb;
use serde::{Deserialize, Serialize};

/// A storage budget: either one of the paper's named Table III/IV tiers or
/// a raw bit count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Budget {
    /// A named tier ("0.9KB" … "58KB"); resolves per-architecture.
    Point(BudgetPoint),
    /// An explicit number of storage bits.
    Bits(u64),
}

impl Budget {
    /// Resolve to bits for `arch`.
    pub fn bits(self, arch: Arch) -> u64 {
        match self {
            Budget::Point(bp) => bp.bits(arch),
            Budget::Bits(b) => b,
        }
    }

    /// Short stable label used in cache keys and file names.
    pub fn label(self) -> String {
        match self {
            Budget::Point(bp) => bp.label().to_string(),
            Budget::Bits(b) => format!("{b}b"),
        }
    }
}

impl From<BudgetPoint> for Budget {
    fn from(bp: BudgetPoint) -> Self {
        Budget::Point(bp)
    }
}

impl From<u64> for Budget {
    fn from(bits: u64) -> Self {
        Budget::Bits(bits)
    }
}

impl std::fmt::Display for Budget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Why a [`BtbSpec`] cannot be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The budget cannot hold the smallest legal instance of the
    /// organization (one full set, plus fixed partitions where the design
    /// has them).
    BudgetTooSmall {
        /// Requested organization.
        org: OrgKind,
        /// Architecture the spec resolves for.
        arch: Arch,
        /// Requested budget in bits.
        got_bits: u64,
        /// Smallest buildable budget in bits.
        min_bits: u64,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::BudgetTooSmall {
                org,
                arch,
                got_bits,
                min_bits,
            } => write!(
                f,
                "budget of {got_bits} bits is too small for {} on {}: \
                 the smallest legal instance needs {min_bits} bits",
                org.id(),
                arch.name()
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// Smallest budget (bits) that yields a legal instance of `org` on `arch`.
///
/// Computed from the organizations' own minimal instances, so it cannot
/// drift from the sizing logic in each module.
pub fn min_budget_bits(org: OrgKind, arch: Arch) -> u64 {
    match org {
        OrgKind::Conv => {
            crate::conv::ConvBtb::with_entries(8, arch)
                .storage()
                .total_bits
        }
        OrgKind::Pdede => {
            // The floor sizing `for_budget` can produce: one Main-BTB set
            // with the 16-entry Page-BTB floor and the fixed Region-BTB.
            let sizing = crate::pdede::PdedeSizing {
                main_sets: 1,
                page_entries: 16,
                page_ptr_bits: 4,
            };
            crate::pdede::PdedeBtb::with_sizing(sizing, arch)
                .storage()
                .total_bits
        }
        OrgKind::BtbX | OrgKind::BtbXUniform | OrgKind::BtbXNoXc => btbx_total_bits(8, arch),
        OrgKind::RBtb => crate::rbtb::storage_bits(8, arch),
        OrgKind::Hoogerbrugge => {
            crate::hooger::MixedBtb::with_budget_bits(1, arch)
                .storage()
                .total_bits
        }
        OrgKind::Infinite => 0,
    }
}

/// A complete, validated description of one BTB instance: organization,
/// storage budget and architecture.
///
/// Construct with [`BtbSpec::of`] and refine with the builder methods; the
/// spec itself is inert data (serde-serializable, hashable) and only
/// [`build_engine`](BtbSpec::build_engine) touches real storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BtbSpec {
    /// BTB organization.
    pub org: OrgKind,
    /// Storage budget.
    pub budget: Budget,
    /// Instruction-set flavour (drives offset widths and alignment).
    pub arch: Arch,
}

impl BtbSpec {
    /// Spec for `org` at the paper's default evaluation point: 14.5 KB on
    /// Arm64.
    pub fn of(org: OrgKind) -> Self {
        BtbSpec {
            org,
            budget: Budget::Point(BudgetPoint::Kb14_5),
            arch: Arch::Arm64,
        }
    }

    /// Use a named budget tier.
    pub fn at(mut self, point: BudgetPoint) -> Self {
        self.budget = Budget::Point(point);
        self
    }

    /// Use a raw bit budget.
    pub fn budget_bits(mut self, bits: u64) -> Self {
        self.budget = Budget::Bits(bits);
        self
    }

    /// Use any budget value.
    pub fn budget(mut self, budget: impl Into<Budget>) -> Self {
        self.budget = budget.into();
        self
    }

    /// Set the architecture.
    pub fn arch(mut self, arch: Arch) -> Self {
        self.arch = arch;
        self
    }

    /// The budget resolved to bits for this spec's architecture.
    pub fn bits(&self) -> u64 {
        self.budget.bits(self.arch)
    }

    /// Check the spec without building storage.
    ///
    /// # Errors
    ///
    /// [`SpecError::BudgetTooSmall`] when the budget cannot hold the
    /// smallest legal instance of the organization.
    pub fn validate(&self) -> Result<(), SpecError> {
        let min_bits = min_budget_bits(self.org, self.arch);
        let got_bits = self.bits();
        if got_bits < min_bits {
            return Err(SpecError::BudgetTooSmall {
                org: self.org,
                arch: self.arch,
                got_bits,
                min_bits,
            });
        }
        Ok(())
    }

    /// Build the described BTB instance.
    ///
    /// # Errors
    ///
    /// Everything [`validate`](BtbSpec::validate) reports; on `Ok` the
    /// construction itself cannot panic.
    pub fn build_engine(&self) -> Result<BtbEngine, SpecError> {
        self.validate()?;
        Ok(BtbEngine::build(self.org, self.bits(), self.arch))
    }

    /// Short stable identity, e.g. `btbx@14.5KB/arm64` — used in cache
    /// keys and report labels.
    pub fn id(&self) -> String {
        format!(
            "{}@{}/{}",
            self.org.id(),
            self.budget.label(),
            self.arch.name()
        )
    }
}

impl std::fmt::Display for BtbSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{BranchClass, BranchEvent};

    #[test]
    fn builds_every_org_at_every_tier() {
        for org in OrgKind::ALL {
            for bp in BudgetPoint::ALL {
                let spec = BtbSpec::of(org).at(bp);
                let mut btb = spec
                    .build_engine()
                    .unwrap_or_else(|e| panic!("{spec}: {e}"));
                let ev = BranchEvent::taken(0x1000, 0x1080, BranchClass::CondDirect);
                btb.update(&ev);
                assert!(btb.lookup(0x1000).is_some(), "{spec}");
            }
        }
    }

    #[test]
    fn undersized_budget_is_an_error_not_a_panic() {
        for org in OrgKind::ALL {
            if org == OrgKind::Infinite {
                continue;
            }
            let Err(err) = BtbSpec::of(org).budget_bits(4).build_engine() else {
                panic!("{org}: 4 bits must not build");
            };
            let SpecError::BudgetTooSmall {
                got_bits, min_bits, ..
            } = err;
            assert_eq!(got_bits, 4);
            assert!(min_bits > 4, "{org}: min {min_bits}");
        }
    }

    #[test]
    fn min_budgets_are_tight() {
        // At the minimum the build succeeds; one bit below, it fails.
        for org in OrgKind::ALL {
            let min = min_budget_bits(org, Arch::Arm64);
            let spec = BtbSpec::of(org).budget_bits(min);
            assert!(
                spec.build_engine().is_ok(),
                "{org} must build at its min {min}"
            );
            if min > 0 {
                assert!(
                    BtbSpec::of(org).budget_bits(min - 1).validate().is_err(),
                    "{org} must reject {min} - 1"
                );
            }
        }
    }

    #[test]
    fn infinite_ignores_budget() {
        assert!(BtbSpec::of(OrgKind::Infinite)
            .budget_bits(0)
            .build_engine()
            .is_ok());
    }

    #[test]
    fn spec_round_trips_through_serde() {
        for spec in [
            BtbSpec::of(OrgKind::BtbX).at(BudgetPoint::Kb7_25),
            BtbSpec::of(OrgKind::Pdede)
                .budget_bits(123_456)
                .arch(Arch::X86),
        ] {
            let v = serde::Serialize::to_value(&spec);
            let back: BtbSpec = serde::Deserialize::from_value(&v).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn ids_are_stable_and_distinct() {
        assert_eq!(BtbSpec::of(OrgKind::BtbX).id(), "btbx@14.5KB/arm64");
        assert_eq!(
            BtbSpec::of(OrgKind::Conv)
                .budget_bits(512)
                .arch(Arch::X86)
                .id(),
            "conv@512b/x86"
        );
    }

    #[test]
    fn budget_conversions() {
        let b: Budget = BudgetPoint::Kb0_9.into();
        assert_eq!(b.bits(Arch::Arm64), BudgetPoint::Kb0_9.bits(Arch::Arm64));
        let b: Budget = 4096u64.into();
        assert_eq!(b.bits(Arch::X86), 4096);
        assert_eq!(b.label(), "4096b");
    }

    #[test]
    fn built_storage_respects_budget_at_tiers() {
        for org in [OrgKind::Conv, OrgKind::Pdede, OrgKind::BtbX, OrgKind::RBtb] {
            let spec = BtbSpec::of(org).at(BudgetPoint::Kb3_6);
            let btb = spec.build_engine().unwrap();
            assert!(btb.storage().total_bits <= spec.bits(), "{spec}");
        }
    }
}
