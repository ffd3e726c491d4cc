//! Branch target buffer (BTB) organizations from *“A Storage-Effective BTB
//! Organization for Servers”* (Asheim, Grot, Kumar — HPCA 2023).
//!
//! This crate implements, from scratch, every BTB organization the paper
//! evaluates or builds upon:
//!
//! * [`ConvBtb`] — the conventional set-associative BTB of Figure 1
//!   (full 46-bit targets, 12-bit hashed partial tags, true LRU),
//! * [`RBtb`] — Seznec's *Reduced BTB* (Figure 5): page offsets in a
//!   Main-BTB plus pointers into a deduplicated Page-BTB,
//! * [`PdedeBtb`] — the state-of-the-art *PDede* (Figure 6/7): partitioned
//!   Main/Page/Region BTBs, same-page ways with a delta bit, multi-cycle
//!   lookup for different-page branches,
//! * [`BtbX`] — the paper's contribution (Figure 8): an 8-way BTB whose ways
//!   store 0-, 4-, 5-, 7-, 9-, 11-, 19- and 25-bit *target offsets*
//!   (Arm64 sizing; x86 uses 0/5/6/7/9/12/20/27), backed by the tiny
//!   direct-mapped **BTB-XC** holding full targets for the ~1 % of branches
//!   whose offsets exceed the largest way.
//!
//! The common abstraction is the [`Btb`] trait; organizations are built for
//! a given storage budget as a [`BtbEngine`] (directly or through a
//! validated [`BtbSpec`]) and budgets themselves through [`storage`], which
//! reproduces the paper's Table III and Table IV bit-for-bit.
//!
//! # Target offsets
//!
//! The paper's key insight is that the *offset* — the low-order target bits
//! up to and including the most-significant bit in which branch PC and
//! target differ — is short for the vast majority of dynamic branches.
//! [`offset`] implements the Section III definition, including the
//! concatenation-based reconstruction that avoids a 48-bit adder:
//!
//! ```
//! use btbx_core::offset::{stored_offset_len, extract_offset, reconstruct_target};
//! use btbx_core::Arch;
//!
//! let pc = 0x0000_7f03_1a40u64;
//! let target = 0x0000_7f03_1a58u64;
//! let n = stored_offset_len(pc, target, Arch::Arm64);
//! assert_eq!(n, 3); // |0x40 ^ 0x58| differs at bit 4 (1-based 5); minus 2 alignment bits
//! let stored = extract_offset(target, n, Arch::Arm64);
//! assert_eq!(reconstruct_target(pc, stored, n, Arch::Arm64), target);
//! ```
//!
//! # Quick start
//!
//! ```
//! use btbx_core::{Arch, BranchClass, BranchEvent, BtbEngine, OrgKind, TargetSource};
//! use btbx_core::storage::BudgetPoint;
//!
//! // A 14.5 KB BTB-X, the paper's default evaluation budget.
//! let budget = BudgetPoint::Kb14_5.bits(Arch::Arm64);
//! let mut btb = BtbEngine::build(OrgKind::BtbX, budget, Arch::Arm64);
//!
//! let call = BranchEvent::taken(0x1000, 0x9000, BranchClass::CallDirect);
//! btb.update(&call);
//! let hit = btb.lookup(0x1000).expect("allocated at commit");
//! assert_eq!(hit.target, TargetSource::Address(0x9000));
//! ```

pub mod btb;
pub mod conv;
pub mod engine;
pub mod factory;
pub mod faults;
pub mod hash;
pub mod hooger;
pub mod infinite;
pub mod offset;
pub mod pdede;
pub mod rbtb;
pub mod replacement;
pub mod snap;
pub mod spec;
pub mod stats;
pub mod storage;
pub mod tag;
pub mod types;
pub mod x;

pub use btb::{Btb, BtbHit, HitSite};
pub use conv::ConvBtb;
pub use engine::BtbEngine;
pub use factory::OrgKind;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use hooger::MixedBtb;
pub use infinite::InfiniteBtb;
pub use pdede::PdedeBtb;
pub use rbtb::RBtb;
pub use spec::{BtbSpec, Budget, SpecError};
pub use stats::{AccessCounts, StorageReport};
pub use types::{Arch, BranchClass, BranchEvent, BtbBranchType, TargetSource};
pub use x::BtbX;
