//! Conventional set-associative BTB (paper Figure 1).
//!
//! Every entry stores a full 46-bit target (48-bit virtual address space,
//! 4-byte-aligned Arm64 instructions), a 12-bit hashed partial tag, a 2-bit
//! branch type, a valid bit and 3 bits of LRU state — 64 bits per entry.
//! This is the baseline whose storage the paper shows to be ~72 % target
//! bits, and the organization BTB-X beats by 2.24× in branch capacity.

use crate::btb::{Btb, BtbHit, HitSite};
use crate::replacement::LruSet;
use crate::stats::{AccessCounts, StorageReport};
use crate::tag::{partial_tag, set_index, PARTIAL_TAG_BITS};
use crate::types::{Arch, BranchEvent, BtbBranchType, TargetSource};

/// Bits per conventional BTB entry (Figure 1): valid 1 + tag 12 + type 2 +
/// target 46 + replacement 3.
pub const CONV_ENTRY_BITS: u64 = 1 + PARTIAL_TAG_BITS as u64 + 2 + 46 + 3;

/// Associativity of the conventional BTB (matching the 8-way BTB-X so the
/// comparison isolates the entry organization).
pub const CONV_WAYS: usize = 8;

#[derive(Debug, Clone, Copy)]
struct Entry {
    valid: bool,
    tag: u16,
    btype: BtbBranchType,
    target: u64,
}

impl Entry {
    const INVALID: Entry = Entry {
        valid: false,
        tag: 0,
        btype: BtbBranchType::Unconditional,
        target: 0,
    };
}

/// The conventional BTB of Figure 1.
#[derive(Debug, Clone)]
pub struct ConvBtb {
    arch: Arch,
    sets: usize,
    entries: Vec<Entry>, // sets × CONV_WAYS, row-major
    lru: Vec<LruSet>,
    counts: AccessCounts,
}

impl ConvBtb {
    /// Build a conventional BTB with exactly `entries` entries
    /// (`entries` is rounded down to a multiple of the associativity).
    ///
    /// # Panics
    ///
    /// Panics if fewer than [`CONV_WAYS`] entries are requested.
    pub fn with_entries(entries: usize, arch: Arch) -> Self {
        assert!(entries >= CONV_WAYS, "need at least one full set");
        let sets = entries / CONV_WAYS;
        ConvBtb {
            arch,
            sets,
            entries: vec![Entry::INVALID; sets * CONV_WAYS],
            lru: vec![LruSet::new(CONV_WAYS); sets],
            counts: AccessCounts::default(),
        }
    }

    /// Build the largest conventional BTB that fits in `budget_bits`
    /// (Table IV: `budget / 64` entries).
    pub fn with_budget_bits(budget_bits: u64, arch: Arch) -> Self {
        let entries = (budget_bits / CONV_ENTRY_BITS) as usize;
        Self::with_entries(entries, arch)
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Total entries.
    pub fn entries(&self) -> usize {
        self.sets * CONV_WAYS
    }

    fn find(&self, set: usize, tag: u16) -> Option<usize> {
        let base = set * CONV_WAYS;
        (0..CONV_WAYS).find(|&w| {
            let e = &self.entries[base + w];
            e.valid && e.tag == tag
        })
    }
}

impl Btb for ConvBtb {
    #[inline]
    fn lookup(&mut self, pc: u64) -> Option<BtbHit> {
        self.counts.reads += 1;
        let set = set_index(pc, self.sets, self.arch);
        let tag = partial_tag(pc, self.sets, self.arch);
        let way = self.find(set, tag)?;
        self.counts.read_hits += 1;
        self.lru[set].touch(way);
        let e = self.entries[set * CONV_WAYS + way];
        let target = if e.btype == BtbBranchType::Return {
            TargetSource::ReturnStack
        } else {
            TargetSource::Address(e.target)
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
        let set = set_index(event.pc, self.sets, self.arch);
        let tag = partial_tag(event.pc, self.sets, self.arch);
        let base = set * CONV_WAYS;
        let btype = event.class.btb_type();
        if let Some(way) = self.find(set, tag) {
            let e = &mut self.entries[base + way];
            if e.target != event.target || e.btype != btype {
                e.target = event.target;
                e.btype = btype;
                self.counts.writes += 1;
            }
            self.lru[set].touch(way);
            return;
        }
        // Prefer an invalid way; otherwise evict the LRU way.
        let way = (0..CONV_WAYS)
            .find(|&w| !self.entries[base + w].valid)
            .unwrap_or_else(|| self.lru[set].victim());
        self.entries[base + way] = Entry {
            valid: true,
            tag,
            btype,
            target: event.target,
        };
        self.lru[set].touch(way);
        self.counts.writes += 1;
    }

    fn storage(&self) -> StorageReport {
        let entries = self.entries() as u64;
        StorageReport {
            name: "conv".into(),
            total_bits: entries * CONV_ENTRY_BITS,
            branch_capacity: entries,
            partitions: vec![("main".into(), entries * CONV_ENTRY_BITS)],
        }
    }

    fn counts(&self) -> AccessCounts {
        self.counts
    }

    fn reset_counts(&mut self) {
        self.counts.reset();
    }

    fn clear(&mut self) {
        self.entries.fill(Entry::INVALID);
        for l in &mut self.lru {
            *l = LruSet::new(CONV_WAYS);
        }
    }

    fn name(&self) -> &'static str {
        "conv"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::BranchClass;

    fn btb() -> ConvBtb {
        ConvBtb::with_entries(256, Arch::Arm64)
    }

    #[test]
    fn entry_is_64_bits() {
        assert_eq!(CONV_ENTRY_BITS, 64);
    }

    #[test]
    fn miss_then_update_then_hit() {
        let mut b = btb();
        assert!(b.lookup(0x4000).is_none());
        b.update(&BranchEvent::taken(
            0x4000,
            0x5000,
            BranchClass::UncondDirect,
        ));
        let hit = b.lookup(0x4000).expect("hit after update");
        assert_eq!(hit.target, TargetSource::Address(0x5000));
        assert_eq!(hit.btype, BtbBranchType::Unconditional);
        assert_eq!(hit.site, HitSite::Main);
    }

    #[test]
    fn not_taken_branches_do_not_allocate() {
        let mut b = btb();
        b.update(&BranchEvent::not_taken(0x4000, 0x5000));
        assert!(
            b.lookup(0x4000).is_none(),
            "Section VI-A: taken-only update"
        );
    }

    #[test]
    fn returns_resolve_via_ras() {
        let mut b = btb();
        b.update(&BranchEvent::taken(
            0x4000,
            0x9999_0000,
            BranchClass::Return,
        ));
        assert_eq!(b.lookup(0x4000).unwrap().target, TargetSource::ReturnStack);
    }

    #[test]
    fn target_change_rewrites_entry() {
        let mut b = btb();
        b.update(&BranchEvent::taken(
            0x4000,
            0x5000,
            BranchClass::CallIndirect,
        ));
        b.update(&BranchEvent::taken(
            0x4000,
            0x7000,
            BranchClass::CallIndirect,
        ));
        assert_eq!(
            b.lookup(0x4000).unwrap().target,
            TargetSource::Address(0x7000)
        );
        assert_eq!(b.counts().writes, 2, "both allocation and re-target count");
    }

    #[test]
    fn steady_state_update_is_not_a_write() {
        let mut b = btb();
        let ev = BranchEvent::taken(0x4000, 0x5000, BranchClass::UncondDirect);
        b.update(&ev);
        b.update(&ev);
        b.update(&ev);
        assert_eq!(b.counts().writes, 1, "unchanged entries are not rewritten");
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let mut b = ConvBtb::with_entries(8, Arch::Arm64); // one set
                                                           // Fill all 8 ways with branches mapping to set 0.
        let stride = 4u64; // consecutive instruction words share the set in a 1-set BTB
        for i in 0..8u64 {
            b.update(&BranchEvent::taken(
                0x1000 + i * stride,
                0x2000,
                BranchClass::UncondDirect,
            ));
        }
        // Touch the first so it is MRU, then insert a ninth branch.
        assert!(b.lookup(0x1000).is_some());
        b.update(&BranchEvent::taken(
            0x9000,
            0x2000,
            BranchClass::UncondDirect,
        ));
        assert!(b.lookup(0x1000).is_some(), "MRU entry must survive");
        assert!(b.lookup(0x9000).is_some());
    }

    #[test]
    fn budget_sizing_matches_table_iv() {
        // Table IV: 0.9 KB (7424 bits) → 116 entries … 58 KB → 7424 entries.
        let expect = [
            (7424u64, 116usize),
            (14848, 232),
            (29696, 464),
            (59392, 928),
            (118784, 1856),
            (237568, 3712),
            (475136, 7424),
        ];
        for (bits, entries) in expect {
            let b = ConvBtb::with_budget_bits(bits, Arch::Arm64);
            // Rounded down to a multiple of 8 ways.
            assert_eq!(b.entries(), entries / 8 * 8, "budget {bits}");
        }
    }

    #[test]
    fn storage_report_is_consistent() {
        let b = btb();
        let r = b.storage();
        assert_eq!(r.total_bits, 256 * 64);
        assert_eq!(r.partition_sum(), r.total_bits);
        assert_eq!(r.branch_capacity, 256);
    }

    #[test]
    fn clear_empties_everything() {
        let mut b = btb();
        b.update(&BranchEvent::taken(
            0x4000,
            0x5000,
            BranchClass::UncondDirect,
        ));
        b.clear();
        assert!(b.lookup(0x4000).is_none());
    }
}
