//! The [`Btb`] trait: the contract every BTB organization implements and
//! the simulator consumes.
//!
//! A BTB answers one question per fetch-stage probe — *is this PC a branch,
//! and if so where does it go?* — and is updated at commit time by taken
//! branches (Section VI-A). Implementations also expose their storage
//! breakdown (for the Table III/IV reproductions) and access counters (for
//! the Table V energy analysis).

use crate::stats::{AccessCounts, StorageReport};
use crate::types::{BranchEvent, BtbBranchType, TargetSource};

/// Which physical structure produced a hit; used for latency modelling and
/// per-partition statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitSite {
    /// The main (or only) set-associative structure; for BTB-X this is one
    /// of the eight offset ways.
    Main,
    /// BTB-X's small direct-mapped overflow BTB holding full targets.
    Overflow,
    /// A hit that required following the Page-/Region-BTB indirection
    /// (PDede different-page entries and every R-BTB hit): the target is
    /// available one cycle later (Section IV-C / VI-E).
    Indirect,
}

/// Outcome of a BTB probe that matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbHit {
    /// Branch type from the entry's 2-bit type field.
    pub btype: BtbBranchType,
    /// Predicted target, or "pop the RAS" for returns.
    pub target: TargetSource,
    /// Which structure supplied the entry.
    pub site: HitSite,
}

impl BtbHit {
    /// Extra lookup cycles beyond a single-cycle probe that the front-end
    /// must charge for this hit.
    ///
    /// PDede's different-page branches pay one extra cycle for the
    /// sequential Page-/Region-BTB access (Section VI-E: the Main-BTB is
    /// accessed in the first cycle and the Page-BTB in the next when the
    /// branch is predicted taken); everything else resolves in one cycle.
    #[inline]
    pub fn extra_latency(&self) -> u32 {
        match self.site {
            HitSite::Indirect => 1,
            HitSite::Main | HitSite::Overflow => 0,
        }
    }
}

/// A branch target buffer organization.
///
/// All methods take `&mut self`: probes update recency state and counters.
/// In-tree organizations run as a [`crate::BtbEngine`]; the simulator is
/// generic over `B: Btb`, so an out-of-tree organization plugs in by
/// implementing this trait.
pub trait Btb {
    /// Probe the BTB at fetch time. Returns `None` when `pc` does not
    /// match any entry (the front-end then assumes a non-branch and
    /// continues sequentially). Counts one read access.
    fn lookup(&mut self, pc: u64) -> Option<BtbHit>;

    /// Commit-time update. Only taken branches allocate or refresh entries
    /// (Section VI-A); implementations must ignore not-taken events except
    /// for recency bookkeeping on an existing entry.
    fn update(&mut self, event: &BranchEvent);

    /// Inform the BTB that the front-end actually consumed the target of
    /// `hit` (the branch was predicted taken).
    ///
    /// PDede's Page-/Region-BTB are physically read only in this case — the
    /// second lookup cycle happens for predicted-taken different-page
    /// branches (Section VI-E) — so the default implementation does nothing
    /// and PDede overrides it to count those reads.
    fn note_target_consumed(&mut self, hit: &BtbHit) {
        let _ = hit;
    }

    /// Itemized storage cost (reproduces the paper's storage tables).
    fn storage(&self) -> StorageReport;

    /// Dynamic access counters accumulated so far.
    fn counts(&self) -> AccessCounts;

    /// Reset dynamic access counters (storage/contents are untouched).
    fn reset_counts(&mut self);

    /// Remove all entries and reset recency state (used between the warm-up
    /// and measurement phases only when explicitly requested).
    fn clear(&mut self);

    /// Short organization name, e.g. `"conv"`, `"pdede"`, `"btbx"`.
    fn name(&self) -> &'static str;

    /// Number of branches this instance can track (Table IV column).
    fn branch_capacity(&self) -> u64 {
        self.storage().branch_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indirect_hits_cost_an_extra_cycle() {
        let hit = BtbHit {
            btype: BtbBranchType::Unconditional,
            target: TargetSource::Address(0x40),
            site: HitSite::Indirect,
        };
        assert_eq!(hit.extra_latency(), 1);
        let hit = BtbHit {
            site: HitSite::Main,
            ..hit
        };
        assert_eq!(hit.extra_latency(), 0);
        let hit = BtbHit {
            site: HitSite::Overflow,
            ..hit
        };
        assert_eq!(hit.extra_latency(), 0);
    }
}
