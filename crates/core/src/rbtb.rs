//! Seznec's Reduced BTB (R-BTB) — "Don't use the page number, but a
//! pointer to it" (ISCA 1996); paper Section IV-A, Figure 5.
//!
//! R-BTB splits each target into a 10-bit page offset kept in the
//! **Main-BTB** and a 36-bit page number deduplicated in a fully
//! associative **Page-BTB**; Main-BTB entries store a pointer to the page
//! entry. Every hit therefore pays the Page-BTB indirection, and every
//! allocation a fully associative search — the two complexity costs the
//! paper contrasts BTB-X against. R-BTB is not part of the paper's
//! headline evaluation (PDede subsumes it) but is implemented as the
//! historical baseline and for ablation benches.

use crate::btb::{Btb, BtbHit, HitSite};
use crate::replacement::LruSet;
use crate::stats::{AccessCounts, StorageReport};
use crate::tag::{partial_tag, set_index, PARTIAL_TAG_BITS};
use crate::types::{Arch, BranchEvent, BtbBranchType, TargetSource};

const WAYS: usize = 8;

/// Bits per Page-BTB entry: a 36-bit page number (48-bit VA, 4 KB pages)
/// plus replacement state.
pub const RBTB_PAGE_ENTRY_BITS: u64 = 36 + 4;

/// Main-BTB entries per Page-BTB entry (Seznec provisions the Page-BTB at
/// a small fraction of the Main-BTB; one page per 16 branches is ample for
/// the page locality his design exploits).
pub const RBTB_PAGE_DIVISOR: usize = 16;

/// Page-BTB entries of an R-BTB with `entries` Main-BTB entries.
fn page_entries_for(entries: usize) -> usize {
    (entries / RBTB_PAGE_DIVISOR).clamp(4, 64)
}

/// Main-BTB and Page-BTB bits of an R-BTB with `entries` Main-BTB entries.
fn partition_bits(entries: usize, arch: Arch) -> (u64, u64) {
    let page_entries = page_entries_for(entries);
    let page_ptr_bits = usize::BITS - (page_entries - 1).leading_zeros();
    // valid 1 + tag 12 + type 2 + rep 3 + offset (12 - align) + pointer.
    let main_entry_bits = 1
        + PARTIAL_TAG_BITS as u64
        + 2
        + 3
        + (12 - arch.align_bits()) as u64
        + page_ptr_bits as u64;
    (
        entries as u64 * main_entry_bits,
        page_entries as u64 * RBTB_PAGE_ENTRY_BITS,
    )
}

/// Total storage bits of an R-BTB with `entries` Main-BTB entries on
/// `arch`: what `RBtb::with_entries(entries, arch).storage()` reports,
/// computed without building the instance.
pub(crate) fn storage_bits(entries: usize, arch: Arch) -> u64 {
    let (main_bits, page_bits) = partition_bits(entries, arch);
    main_bits + page_bits
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MainEntry {
    valid: bool,
    tag: u16,
    btype: BtbBranchType,
    /// Page offset with alignment bits dropped.
    offset: u16,
    page_ptr: u32,
}

impl MainEntry {
    const INVALID: MainEntry = MainEntry {
        valid: false,
        tag: 0,
        btype: BtbBranchType::Unconditional,
        offset: 0,
        page_ptr: 0,
    };
}

/// Seznec's Reduced BTB.
#[derive(Debug, Clone)]
pub struct RBtb {
    arch: Arch,
    sets: usize,
    main: Vec<MainEntry>,
    lru: Vec<LruSet>,
    pages: Vec<Option<u64>>,
    page_lru: LruSet,
    counts: AccessCounts,
}

impl RBtb {
    /// Build an R-BTB with `entries` Main-BTB entries (multiple of 8) and
    /// `entries / 16` fully associative Page-BTB entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of 8.
    pub fn with_entries(entries: usize, arch: Arch) -> Self {
        assert!(
            entries > 0 && entries.is_multiple_of(WAYS),
            "entries must be a multiple of 8"
        );
        #[cfg(test)]
        tests::INSTANCES_BUILT.with(|n| n.set(n.get() + 1));
        let sets = entries / WAYS;
        let page_entries = page_entries_for(entries);
        RBtb {
            arch,
            sets,
            main: vec![MainEntry::INVALID; entries],
            lru: vec![LruSet::new(WAYS); sets],
            pages: vec![None; page_entries],
            page_lru: LruSet::new(page_entries),
            counts: AccessCounts::default(),
        }
    }

    /// Build the largest R-BTB fitting `budget_bits` (one set when even
    /// that does not fit).
    pub fn with_budget_bits(budget_bits: u64, arch: Arch) -> Self {
        // `storage_bits` never decreases as entries grow, so the first
        // multiple of 8 whose successor overflows is the largest that fits.
        let mut entries = WAYS;
        while storage_bits(entries + WAYS, arch) <= budget_bits {
            entries += WAYS;
        }
        Self::with_entries(entries, arch)
    }

    /// Main-BTB entries.
    pub fn entries(&self) -> usize {
        self.main.len()
    }

    /// Page-BTB entries.
    pub fn page_entries(&self) -> usize {
        self.pages.len()
    }

    fn find_way(&self, set: usize, tag: u16) -> Option<usize> {
        let base = set * WAYS;
        (0..WAYS).find(|&w| {
            let e = &self.main[base + w];
            e.valid && e.tag == tag
        })
    }

    /// Fully associative Page-BTB search-or-allocate.
    fn ensure_page(&mut self, page: u64) -> u32 {
        self.counts.page_searches += 1;
        for (i, p) in self.pages.iter().enumerate() {
            if *p == Some(page) {
                self.page_lru.touch(i);
                return i as u32;
            }
        }
        let victim = (0..self.pages.len())
            .find(|&i| self.pages[i].is_none())
            .unwrap_or_else(|| self.page_lru.victim());
        if self.pages[victim].is_some() {
            let v = victim as u32;
            for e in &mut self.main {
                if e.valid && e.page_ptr == v {
                    *e = MainEntry::INVALID;
                }
            }
        }
        self.pages[victim] = Some(page);
        self.page_lru.touch(victim);
        self.counts.page_writes += 1;
        victim as u32
    }
}

impl Btb for RBtb {
    #[inline]
    fn lookup(&mut self, pc: u64) -> Option<BtbHit> {
        self.counts.reads += 1;
        let set = set_index(pc, self.sets, self.arch);
        let tag = partial_tag(pc, self.sets, self.arch);
        let way = self.find_way(set, tag)?;
        self.counts.read_hits += 1;
        self.lru[set].touch(way);
        let e = self.main[set * WAYS + way];
        if e.btype == BtbBranchType::Return {
            return Some(BtbHit {
                btype: e.btype,
                target: TargetSource::ReturnStack,
                site: HitSite::Main,
            });
        }
        let page = self.pages[e.page_ptr as usize].expect("live pointer to dead page");
        let target = (page << 12) | ((e.offset as u64) << self.arch.align_bits());
        Some(BtbHit {
            btype: e.btype,
            target: TargetSource::Address(target),
            site: HitSite::Indirect,
        })
    }

    #[inline]
    fn note_target_consumed(&mut self, hit: &BtbHit) {
        if hit.site == HitSite::Indirect {
            self.counts.page_reads += 1;
        }
    }

    #[inline]
    fn update(&mut self, event: &BranchEvent) {
        if !event.taken {
            return;
        }
        let btype = event.class.btb_type();
        let set = set_index(event.pc, self.sets, self.arch);
        let tag = partial_tag(event.pc, self.sets, self.arch);
        let base = set * WAYS;
        let offset = ((event.target & 0xfff) >> self.arch.align_bits()) as u16;
        let page_ptr = if btype == BtbBranchType::Return {
            0 // returns never read their pointer
        } else {
            self.ensure_page(event.target >> 12)
        };
        let new = MainEntry {
            valid: true,
            tag,
            btype,
            offset,
            page_ptr,
        };
        if let Some(way) = self.find_way(set, tag) {
            if self.main[base + way] != new {
                self.main[base + way] = new;
                self.counts.writes += 1;
            }
            self.lru[set].touch(way);
            return;
        }
        let way = (0..WAYS)
            .find(|&w| !self.main[base + w].valid)
            .unwrap_or_else(|| self.lru[set].victim());
        self.main[base + way] = new;
        self.lru[set].touch(way);
        self.counts.writes += 1;
    }

    fn storage(&self) -> StorageReport {
        let (main_bits, page_bits) = partition_bits(self.main.len(), self.arch);
        StorageReport {
            name: "rbtb".into(),
            total_bits: main_bits + page_bits,
            branch_capacity: self.main.len() as u64,
            partitions: vec![
                ("main-btb".into(), main_bits),
                ("page-btb".into(), page_bits),
            ],
        }
    }

    fn counts(&self) -> AccessCounts {
        self.counts
    }

    fn reset_counts(&mut self) {
        self.counts.reset();
    }

    fn clear(&mut self) {
        self.main.fill(MainEntry::INVALID);
        for l in &mut self.lru {
            *l = LruSet::new(WAYS);
        }
        self.pages.fill(None);
        self.page_lru = LruSet::new(self.pages.len());
    }

    fn name(&self) -> &'static str {
        "rbtb"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::BudgetPoint;
    use crate::types::BranchClass;
    use std::cell::Cell;

    thread_local! {
        /// Instances [`RBtb::with_entries`] built on this test's thread.
        pub(super) static INSTANCES_BUILT: Cell<usize> = const { Cell::new(0) };
    }

    #[test]
    fn round_trip_any_distance() {
        let mut b = RBtb::with_entries(256, Arch::Arm64);
        for (pc, target) in [
            (0x1000u64, 0x1040u64),
            (0x1000, 0x7f00_1234_5678 & !3),
            (0x7f00_0000, 0x10_0000),
        ] {
            b.update(&BranchEvent::taken(pc, target, BranchClass::CallDirect));
            assert_eq!(
                b.lookup(pc).unwrap().target,
                TargetSource::Address(target),
                "pc {pc:#x}"
            );
        }
    }

    #[test]
    fn every_hit_pays_indirection() {
        let mut b = RBtb::with_entries(64, Arch::Arm64);
        b.update(&BranchEvent::taken(0x1000, 0x1040, BranchClass::CondDirect));
        assert_eq!(b.lookup(0x1000).unwrap().site, HitSite::Indirect);
    }

    #[test]
    fn returns_skip_the_page_btb() {
        let mut b = RBtb::with_entries(64, Arch::Arm64);
        b.update(&BranchEvent::taken(0x1000, 0x9000, BranchClass::Return));
        let hit = b.lookup(0x1000).unwrap();
        assert_eq!(hit.site, HitSite::Main);
        assert_eq!(hit.target, TargetSource::ReturnStack);
        assert_eq!(b.counts().page_searches, 0);
    }

    #[test]
    fn page_dedup() {
        let mut b = RBtb::with_entries(256, Arch::Arm64);
        b.update(&BranchEvent::taken(
            0x1000,
            0x5000_0040,
            BranchClass::CallDirect,
        ));
        b.update(&BranchEvent::taken(
            0x2000,
            0x5000_0080,
            BranchClass::CallDirect,
        ));
        assert_eq!(b.counts().page_writes, 1);
    }

    #[test]
    fn page_eviction_never_leaves_stale_pointers() {
        let mut b = RBtb::with_entries(64, Arch::Arm64); // 4 page entries
        b.update(&BranchEvent::taken(
            0x1000,
            0x5000_0040,
            BranchClass::CallDirect,
        ));
        for i in 0..8u64 {
            b.update(&BranchEvent::taken(
                0x2000 + 4 * i,
                0x6000_0040 + (i << 12),
                BranchClass::CallDirect,
            ));
        }
        // Either miss, or a live self-consistent target; lookup() panics on
        // stale pointers, so reaching here without panic is the assertion.
        let _ = b.lookup(0x1000);
    }

    #[test]
    fn storage_bits_matches_built_instances() {
        // Past the 58 KB instance (13,896 entries on Arm64).
        for arch in [Arch::Arm64, Arch::X86] {
            for entries in (WAYS..=14_400).step_by(WAYS) {
                assert_eq!(
                    storage_bits(entries, arch),
                    RBtb::with_entries(entries, arch).storage().total_bits,
                    "{entries} entries on {}",
                    arch.name()
                );
            }
        }
    }

    #[test]
    fn budget_sizing_respects_budget() {
        // Within budget, and 8 more entries would not be.
        for arch in [Arch::Arm64, Arch::X86] {
            for bp in BudgetPoint::ALL {
                let bits = bp.bits(arch);
                let n = RBtb::with_budget_bits(bits, arch).entries();
                assert!(storage_bits(n, arch) <= bits, "{bp} over budget");
                assert!(storage_bits(n + WAYS, arch) > bits, "{bp} not maximal");
            }
        }
    }

    #[test]
    fn budget_sizing_builds_one_instance() {
        INSTANCES_BUILT.with(|n| n.set(0));
        let b = RBtb::with_budget_bits(475_136, Arch::Arm64);
        assert_eq!(b.entries(), 13_896);
        assert_eq!(INSTANCES_BUILT.with(Cell::get), 1);
    }
}
