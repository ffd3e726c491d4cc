//! Hoogerbrugge's cost-efficient BTB (Euro-Par 2000) — the mixed-entry-
//! size related-work baseline of Section VII.
//!
//! Half of the ways in each set are *short* entries holding a small
//! target offset (the branch stays in the set only if its offset fits);
//! the other half are *full* entries with complete targets. This predates
//! BTB-X's insight by one step: two entry sizes instead of eight, no
//! overflow structure, and a fixed short-offset width rather than
//! distribution-matched ways. Included for the ablation benches.

use crate::btb::{Btb, BtbHit, HitSite};
use crate::offset::{extract_offset, reconstruct_target, stored_offset_len};
use crate::replacement::{eligibility_mask, LruSet};
use crate::stats::{AccessCounts, StorageReport};
use crate::tag::{partial_tag, set_index, PARTIAL_TAG_BITS};
use crate::types::{Arch, BranchEvent, BtbBranchType, TargetSource};

const WAYS: usize = 8;
/// Ways `0..SHORT_WAYS` hold short offsets; the rest hold full targets.
const SHORT_WAYS: usize = 4;
/// Offset width of the short entries.
pub const SHORT_OFFSET_BITS: u32 = 12;

/// Bits per short entry: valid 1 + tag 12 + type 2 + rep 3 + offset 12.
pub const SHORT_ENTRY_BITS: u64 = 1 + PARTIAL_TAG_BITS as u64 + 2 + 3 + SHORT_OFFSET_BITS as u64;
/// Bits per full entry (as a conventional entry).
pub const FULL_ENTRY_BITS: u64 = 64;
/// Bits per set.
pub const SET_BITS: u64 =
    SHORT_WAYS as u64 * SHORT_ENTRY_BITS + (WAYS - SHORT_WAYS) as u64 * FULL_ENTRY_BITS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    valid: bool,
    tag: u16,
    btype: BtbBranchType,
    /// Short ways: stored offset bits; full ways: the complete target.
    payload: u64,
}

const INVALID: Entry = Entry {
    valid: false,
    tag: 0,
    btype: BtbBranchType::Unconditional,
    payload: 0,
};

/// The mixed-entry-size BTB.
#[derive(Debug, Clone)]
pub struct MixedBtb {
    arch: Arch,
    sets: usize,
    entries: Vec<Entry>,
    lru: Vec<LruSet>,
    counts: AccessCounts,
}

impl MixedBtb {
    /// Build with `entries` total entries (multiple of 8).
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a positive multiple of 8.
    pub fn with_entries(entries: usize, arch: Arch) -> Self {
        assert!(
            entries > 0 && entries.is_multiple_of(WAYS),
            "entries must be a multiple of 8"
        );
        let sets = entries / WAYS;
        MixedBtb {
            arch,
            sets,
            entries: vec![INVALID; entries],
            lru: vec![LruSet::new(WAYS); sets],
            counts: AccessCounts::default(),
        }
    }

    /// Largest instance fitting `budget_bits`.
    pub fn with_budget_bits(budget_bits: u64, arch: Arch) -> Self {
        let sets = (budget_bits / SET_BITS).max(1) as usize;
        Self::with_entries(sets * WAYS, arch)
    }

    /// Total entries.
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    fn find(&self, set: usize, tag: u16) -> Option<usize> {
        let base = set * WAYS;
        (0..WAYS).find(|&w| {
            let e = &self.entries[base + w];
            e.valid && e.tag == tag
        })
    }
}

impl Btb for MixedBtb {
    #[inline]
    fn lookup(&mut self, pc: u64) -> Option<BtbHit> {
        self.counts.reads += 1;
        let set = set_index(pc, self.sets, self.arch);
        let tag = partial_tag(pc, self.sets, self.arch);
        let way = self.find(set, tag)?;
        self.counts.read_hits += 1;
        self.lru[set].touch(way);
        let e = self.entries[set * WAYS + way];
        let target = if e.btype == BtbBranchType::Return {
            TargetSource::ReturnStack
        } else if way < SHORT_WAYS {
            TargetSource::Address(reconstruct_target(
                pc,
                e.payload,
                SHORT_OFFSET_BITS,
                self.arch,
            ))
        } else {
            TargetSource::Address(e.payload)
        };
        Some(BtbHit {
            btype: e.btype,
            target,
            site: HitSite::Main,
        })
    }

    #[inline]
    fn update(&mut self, event: &BranchEvent) {
        if !event.taken {
            return;
        }
        let btype = event.class.btb_type();
        let fits_short = btype == BtbBranchType::Return
            || stored_offset_len(event.pc, event.target, self.arch) <= SHORT_OFFSET_BITS;
        let set = set_index(event.pc, self.sets, self.arch);
        let tag = partial_tag(event.pc, self.sets, self.arch);
        let base = set * WAYS;

        let payload_for = |way: usize| {
            if way < SHORT_WAYS {
                extract_offset(event.target, SHORT_OFFSET_BITS, self.arch)
            } else {
                event.target
            }
        };

        if let Some(way) = self.find(set, tag) {
            if way >= SHORT_WAYS || fits_short {
                let new = Entry {
                    valid: true,
                    tag,
                    btype,
                    payload: payload_for(way),
                };
                if self.entries[base + way] != new {
                    self.entries[base + way] = new;
                    self.counts.writes += 1;
                }
                self.lru[set].touch(way);
                return;
            }
            // Outgrew its short slot: invalidate and reallocate below.
            self.entries[base + way] = INVALID;
        }
        let eligible = eligibility_mask(WAYS, |w| w >= SHORT_WAYS || fits_short);
        let way = (0..WAYS)
            .find(|&w| eligible & (1 << w) != 0 && !self.entries[base + w].valid)
            .unwrap_or_else(|| self.lru[set].victim_among(eligible));
        self.entries[base + way] = Entry {
            valid: true,
            tag,
            btype,
            payload: payload_for(way),
        };
        self.lru[set].touch(way);
        self.counts.writes += 1;
    }

    fn storage(&self) -> StorageReport {
        let bits = self.sets as u64 * SET_BITS;
        StorageReport {
            name: "hoogerbrugge".into(),
            total_bits: bits,
            branch_capacity: self.entries.len() as u64,
            partitions: vec![("mixed".into(), bits)],
        }
    }

    fn counts(&self) -> AccessCounts {
        self.counts
    }

    fn reset_counts(&mut self) {
        self.counts.reset();
    }

    fn clear(&mut self) {
        self.entries.fill(INVALID);
        for l in &mut self.lru {
            *l = LruSet::new(WAYS);
        }
    }

    fn name(&self) -> &'static str {
        "hoogerbrugge"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::BranchClass;

    #[test]
    fn set_cost_sits_between_conv_and_btbx() {
        // Conv: 512 bits/set; BTB-X: 224; mixed design in between.
        assert_eq!(SET_BITS, 4 * 30 + 4 * 64);
        assert!((225..512).contains(&SET_BITS));
    }

    #[test]
    fn short_branch_round_trip() {
        let mut b = MixedBtb::with_entries(64, Arch::Arm64);
        let ev = BranchEvent::taken(0x1000, 0x1100, BranchClass::CondDirect);
        b.update(&ev);
        assert_eq!(
            b.lookup(0x1000).unwrap().target,
            TargetSource::Address(0x1100)
        );
    }

    #[test]
    fn long_branch_round_trip_uses_full_ways() {
        let mut b = MixedBtb::with_entries(64, Arch::Arm64);
        let ev = BranchEvent::taken(0x1000, 0x7f00_0000, BranchClass::CallDirect);
        b.update(&ev);
        assert_eq!(
            b.lookup(0x1000).unwrap().target,
            TargetSource::Address(0x7f00_0000)
        );
    }

    #[test]
    fn long_branches_confined_to_full_ways() {
        let mut b = MixedBtb::with_entries(8, Arch::Arm64); // one set
        for i in 0..8u64 {
            b.update(&BranchEvent::taken(
                0x1000 + i * 4,
                0x7f00_0000 + i * 0x10_0000,
                BranchClass::CallDirect,
            ));
        }
        let alive = (0..8u64)
            .filter(|i| b.lookup(0x1000 + i * 4).is_some())
            .count();
        assert_eq!(alive, 4, "only the 4 full ways can hold long branches");
    }

    #[test]
    fn capacity_beats_conv_at_equal_storage() {
        let budget = 64 * 512u64; // 64 conv sets
        let mixed = MixedBtb::with_budget_bits(budget, Arch::Arm64);
        assert!(mixed.entries() > 64 * 8);
    }

    #[test]
    fn retarget_from_short_to_long_relocates() {
        let mut b = MixedBtb::with_entries(64, Arch::Arm64);
        let pc = 0x2000u64;
        b.update(&BranchEvent::taken(pc, pc + 32, BranchClass::CallIndirect));
        b.update(&BranchEvent::taken(
            pc,
            0x7a00_0000,
            BranchClass::CallIndirect,
        ));
        assert_eq!(
            b.lookup(pc).unwrap().target,
            TargetSource::Address(0x7a00_0000)
        );
    }
}
