//! An idealized infinite-capacity BTB — ChampSim's implicit "oracle" BTB
//! that the paper's Section VI-A methodology replaces with realistic
//! organizations.
//!
//! Full-PC tags (no aliasing), unbounded entries, only compulsory misses.
//! Useful for headroom studies: the gap between any real organization and
//! [`InfiniteBtb`] is the remaining front-end opportunity.

use crate::btb::{Btb, BtbHit, HitSite};
use crate::hash::FxHashMap;
use crate::stats::{AccessCounts, StorageReport};
use crate::types::{BranchEvent, BtbBranchType, TargetSource};

/// The idealized BTB.
///
/// Entries live in a [`FxHashMap`]: the keys are trusted PCs, so the
/// deterministic multiply-xor hasher replaces SipHash — the per-probe
/// hash was the dominant cost of headroom simulations.
#[derive(Debug, Clone, Default)]
pub struct InfiniteBtb {
    entries: FxHashMap<u64, (BtbBranchType, u64)>,
    counts: AccessCounts,
}

impl InfiniteBtb {
    /// An empty ideal BTB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Branches currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no branch has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Btb for InfiniteBtb {
    #[inline]
    fn lookup(&mut self, pc: u64) -> Option<BtbHit> {
        self.counts.reads += 1;
        let &(btype, target) = self.entries.get(&pc)?;
        self.counts.read_hits += 1;
        let target = if btype == BtbBranchType::Return {
            TargetSource::ReturnStack
        } else {
            TargetSource::Address(target)
        };
        Some(BtbHit {
            btype,
            target,
            site: HitSite::Main,
        })
    }

    #[inline]
    fn update(&mut self, event: &BranchEvent) {
        if !event.taken {
            return;
        }
        let new = (event.class.btb_type(), event.target);
        if self.entries.insert(event.pc, new) != Some(new) {
            self.counts.writes += 1;
        }
    }

    fn storage(&self) -> StorageReport {
        StorageReport {
            name: "infinite".into(),
            total_bits: 0, // idealized: unaccounted storage
            branch_capacity: u64::MAX,
            partitions: vec![("ideal".into(), 0)],
        }
    }

    fn counts(&self) -> AccessCounts {
        self.counts
    }

    fn reset_counts(&mut self) {
        self.counts.reset();
    }

    fn clear(&mut self) {
        self.entries.clear();
    }

    fn name(&self) -> &'static str {
        "infinite"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::BranchClass;

    #[test]
    fn never_evicts() {
        let mut b = InfiniteBtb::new();
        for i in 0..100_000u64 {
            b.update(&BranchEvent::taken(
                i * 4,
                i * 4 + 64,
                BranchClass::CondDirect,
            ));
        }
        assert_eq!(b.len(), 100_000);
        assert!(b.lookup(0).is_some());
        assert!(b.lookup(99_999 * 4).is_some());
    }

    #[test]
    fn no_aliasing_with_full_tags() {
        let mut b = InfiniteBtb::new();
        b.update(&BranchEvent::taken(
            0x1000,
            0x2000,
            BranchClass::UncondDirect,
        ));
        // A PC that would alias under 12-bit partial tags cannot hit here.
        assert!(b.lookup(0x1000 + (1 << 20)).is_none());
    }

    #[test]
    fn only_compulsory_misses() {
        let mut b = InfiniteBtb::new();
        let ev = BranchEvent::taken(0x40, 0x80, BranchClass::CondDirect);
        assert!(b.lookup(0x40).is_none(), "compulsory miss");
        b.update(&ev);
        assert!(b.lookup(0x40).is_some(), "never misses again");
    }
}
