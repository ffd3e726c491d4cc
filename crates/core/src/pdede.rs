//! PDede: the state-of-the-art partitioned, deduplicated, delta BTB
//! (Soundararajan et al., MICRO 2021; paper Section IV-B, Figures 6 and 7).
//!
//! PDede splits the target address into region (bits 47..28), page
//! (bits 27..12) and page offset (bits 11..0). The **Main-BTB** stores the
//! page offset plus *pointers* into a **Page-BTB** (16-bit page numbers,
//! stored once per page) and a **Region-BTB** (20-bit region numbers,
//! stored once per region). Half of the ways in each Main-BTB set are
//! reserved for *same-page* branches — branch and target on the same (or
//! delta-adjacent) page — which need no pointers at all because the page
//! and region come from the branch PC.
//!
//! The organization's weaknesses, which BTB-X avoids, are modelled
//! faithfully:
//!
//! * **indirection** — different-page hits need a second cycle to read the
//!   Page-/Region-BTB ([`crate::btb::HitSite::Indirect`]);
//! * **associative searches** — allocations must search the Page-BTB set
//!   (16 entries) and the Region-BTB (4 entries, fully associative), which
//!   the Table V energy analysis charges;
//! * **conflict evictions** — evicting a page/region entry invalidates
//!   every Main-BTB entry pointing at it.

use crate::btb::{Btb, BtbHit, HitSite};
use crate::offset::{pdede_page_bits, region_number};
use crate::replacement::{eligibility_mask, LruSet};
use crate::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use crate::stats::{AccessCounts, StorageReport};
use crate::tag::{partial_tag, set_index};
use crate::types::{Arch, BranchEvent, BtbBranchType, TargetSource};

const WAYS: usize = 8;
/// Ways `0..SAME_PAGE_WAYS` hold only same-page entries (Figure 7).
const SAME_PAGE_WAYS: usize = 4;
/// Page-BTB associativity: PDede restricts a page number to 16 locations
/// (Section IV-C).
const PAGE_WAYS: usize = 16;
/// Region-BTB entries, fixed across all storage budgets (Section VI-B).
pub const REGION_ENTRIES: usize = 4;

/// Bits of a same-page Main-BTB entry (Figure 7): valid 1 + tag 12 +
/// type 2 + rep 3 + offset 10 + delta 1.
pub const SAME_PAGE_ENTRY_BITS: u64 = 29;
/// Bits of a different-page entry excluding the Page-BTB pointer:
/// valid 1 + tag 12 + type 2 + rep 3 + offset 10 + region pointer 2.
pub const DIFF_PAGE_BASE_BITS: u64 = 30;
/// Bits per Page-BTB entry: 16-bit page number + 4-bit replacement.
pub const PAGE_ENTRY_BITS: u64 = 20;
/// Total Region-BTB bits: 4 × (20-bit region + 2-bit replacement).
pub const REGION_BITS: u64 = (REGION_ENTRIES as u64) * 22;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MainEntry {
    Invalid,
    SamePage {
        tag: u16,
        btype: BtbBranchType,
        /// Page offset with alignment bits dropped (10 bits on Arm64).
        offset: u16,
        /// Target page = PC page + delta (0 or 1).
        delta: bool,
    },
    DiffPage {
        tag: u16,
        btype: BtbBranchType,
        offset: u16,
        /// Global Page-BTB entry index.
        page_ptr: u32,
        /// Region-BTB entry index.
        region_ptr: u8,
    },
}

impl MainEntry {
    fn tag(&self) -> Option<u16> {
        match self {
            MainEntry::Invalid => None,
            MainEntry::SamePage { tag, .. } | MainEntry::DiffPage { tag, .. } => Some(*tag),
        }
    }

    fn save(&self, w: &mut SnapWriter) {
        match *self {
            MainEntry::Invalid => w.u8(0),
            MainEntry::SamePage {
                tag,
                btype,
                offset,
                delta,
            } => {
                w.u8(1);
                w.u16(tag);
                w.u8(btype.snap_code());
                w.u16(offset);
                w.bool(delta);
            }
            MainEntry::DiffPage {
                tag,
                btype,
                offset,
                page_ptr,
                region_ptr,
            } => {
                w.u8(2);
                w.u16(tag);
                w.u8(btype.snap_code());
                w.u16(offset);
                w.u32(page_ptr);
                w.u8(region_ptr);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>, page_entries: usize) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => MainEntry::Invalid,
            1 => MainEntry::SamePage {
                tag: r.u16()?,
                btype: BtbBranchType::from_snap_code(r.u8()?)?,
                offset: r.u16()?,
                delta: r.bool()?,
            },
            2 => {
                let tag = r.u16()?;
                let btype = BtbBranchType::from_snap_code(r.u8()?)?;
                let offset = r.u16()?;
                let page_ptr = r.u32()?;
                let region_ptr = r.u8()?;
                if page_ptr as usize >= page_entries || region_ptr as usize >= REGION_ENTRIES {
                    return Err(SnapError::Corrupt("pdede pointer out of range"));
                }
                MainEntry::DiffPage {
                    tag,
                    btype,
                    offset,
                    page_ptr,
                    region_ptr,
                }
            }
            _ => return Err(SnapError::Corrupt("pdede entry discriminant")),
        })
    }
}

#[derive(Debug, Clone, Copy)]
struct PageEntry {
    valid: bool,
    page: u16,
}

#[derive(Debug, Clone, Copy)]
struct RegionEntry {
    valid: bool,
    region: u32,
}

/// The PDede BTB organization (Multi-Entry-Size variant, the paper's
/// best-performing configuration).
#[derive(Debug, Clone)]
pub struct PdedeBtb {
    arch: Arch,
    sets: usize,
    main: Vec<MainEntry>,
    main_lru: Vec<LruSet>,
    page_sets: usize,
    pages: Vec<PageEntry>,
    page_lru: Vec<LruSet>,
    regions: [RegionEntry; REGION_ENTRIES],
    region_lru: LruSet,
    counts: AccessCounts,
    page_ptr_bits: u32,
}

/// Sizing derived from a total storage budget, following the paper's
/// Table IV budget split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PdedeSizing {
    /// Main-BTB sets (8 ways each).
    pub main_sets: usize,
    /// Page-BTB entries (power of two; 16-way set associative).
    pub page_entries: usize,
    /// Width of a Page-BTB pointer in Main-BTB entries.
    pub page_ptr_bits: u32,
}

impl PdedeSizing {
    /// Split `budget_bits` the way the paper does (Section VI-B): the
    /// Page-BTB gets 32 entries per 0.9 KB of total budget (doubling with
    /// the budget), the Region-BTB is a fixed 88 bits, and the Main-BTB
    /// receives the remainder.
    ///
    /// # Panics
    ///
    /// Panics if the budget is too small to hold one Main-BTB set.
    pub fn for_budget(budget_bits: u64) -> Self {
        // 32 Page-BTB entries at the 7424-bit (0.9 KB) tier, scaling
        // linearly, rounded down to a power of two, floor 16.
        let raw = (32.0 * budget_bits as f64 / 7424.0).max(16.0);
        let page_entries = 1usize << (raw.log2().floor() as u32);
        let page_ptr_bits = page_entries.trailing_zeros();
        let main_bits = budget_bits
            .checked_sub(page_entries as u64 * PAGE_ENTRY_BITS + REGION_BITS)
            .expect("budget too small for PDede page/region partitions");
        let set_bits = Self::set_bits(page_ptr_bits);
        let main_sets = (main_bits / set_bits) as usize;
        assert!(main_sets > 0, "budget too small for one PDede set");
        PdedeSizing {
            main_sets,
            page_entries,
            page_ptr_bits,
        }
    }

    /// Bits per Main-BTB set: 4 same-page entries + 4 different-page
    /// entries whose size depends on the Page-BTB pointer width.
    pub fn set_bits(page_ptr_bits: u32) -> u64 {
        SAME_PAGE_WAYS as u64 * SAME_PAGE_ENTRY_BITS
            + (WAYS - SAME_PAGE_WAYS) as u64 * (DIFF_PAGE_BASE_BITS + page_ptr_bits as u64)
    }

    /// Average Main-BTB entry size (the paper's Table IV "Entry Size"
    /// column): mean of the same-page and different-page entry sizes.
    pub fn avg_entry_bits(page_ptr_bits: u32) -> f64 {
        (SAME_PAGE_ENTRY_BITS as f64 + (DIFF_PAGE_BASE_BITS + page_ptr_bits as u64) as f64) / 2.0
    }
}

impl PdedeBtb {
    /// Build a PDede instance for a total storage budget, using the
    /// paper's budget split (Table IV).
    pub fn with_budget_bits(budget_bits: u64, arch: Arch) -> Self {
        Self::with_sizing(PdedeSizing::for_budget(budget_bits), arch)
    }

    /// Build from an explicit sizing.
    ///
    /// # Panics
    ///
    /// Panics if `page_entries` is zero or not a power of two.
    pub fn with_sizing(sizing: PdedeSizing, arch: Arch) -> Self {
        assert!(
            sizing.page_entries.is_power_of_two(),
            "page entries must be a power of two"
        );
        let page_sets = (sizing.page_entries / PAGE_WAYS).max(1);
        let page_ways = sizing.page_entries.min(PAGE_WAYS);
        PdedeBtb {
            arch,
            sets: sizing.main_sets,
            main: vec![MainEntry::Invalid; sizing.main_sets * WAYS],
            main_lru: vec![LruSet::new(WAYS); sizing.main_sets],
            page_sets,
            pages: vec![
                PageEntry {
                    valid: false,
                    page: 0
                };
                page_sets * page_ways
            ],
            page_lru: vec![LruSet::new(page_ways); page_sets],
            regions: [RegionEntry {
                valid: false,
                region: 0,
            }; REGION_ENTRIES],
            region_lru: LruSet::new(REGION_ENTRIES),
            counts: AccessCounts::default(),
            page_ptr_bits: sizing.page_ptr_bits,
        }
    }

    /// Number of Main-BTB sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Number of Main-BTB entries (branches trackable at runtime).
    pub fn main_entries(&self) -> usize {
        self.sets * WAYS
    }

    /// Number of Page-BTB entries.
    pub fn page_entries(&self) -> usize {
        self.pages.len()
    }

    fn page_ways(&self) -> usize {
        self.pages.len() / self.page_sets
    }

    fn split_offset(&self, target: u64) -> u16 {
        ((target & 0xfff) >> self.arch.align_bits()) as u16
    }

    fn find_way(&self, set: usize, tag: u16) -> Option<usize> {
        let base = set * WAYS;
        (0..WAYS).find(|&w| self.main[base + w].tag() == Some(tag))
    }

    /// Locate or allocate the Region-BTB entry for `region`; returns its
    /// index. Evicting a live region invalidates dependent Main-BTB
    /// entries.
    fn ensure_region(&mut self, region: u32) -> u8 {
        self.counts.region_searches += 1;
        for (i, e) in self.regions.iter().enumerate() {
            if e.valid && e.region == region {
                self.region_lru.touch(i);
                return i as u8;
            }
        }
        let victim = (0..REGION_ENTRIES)
            .find(|&i| !self.regions[i].valid)
            .unwrap_or_else(|| self.region_lru.victim());
        if self.regions[victim].valid {
            for e in &mut self.main {
                if matches!(e, MainEntry::DiffPage { region_ptr, .. } if *region_ptr == victim as u8)
                {
                    *e = MainEntry::Invalid;
                }
            }
        }
        self.regions[victim] = RegionEntry {
            valid: true,
            region,
        };
        self.region_lru.touch(victim);
        self.counts.region_writes += 1;
        victim as u8
    }

    /// Locate or allocate the Page-BTB entry for `page`; returns its
    /// global index. Evicting a live page invalidates dependent Main-BTB
    /// entries (the conflict-miss cost of restricting page locations,
    /// Section IV-C).
    fn ensure_page(&mut self, page: u16) -> u32 {
        self.counts.page_searches += 1;
        let ways = self.page_ways();
        let set = page as usize % self.page_sets;
        let base = set * ways;
        for w in 0..ways {
            let e = self.pages[base + w];
            if e.valid && e.page == page {
                self.page_lru[set].touch(w);
                return (base + w) as u32;
            }
        }
        let way = (0..ways)
            .find(|&w| !self.pages[base + w].valid)
            .unwrap_or_else(|| self.page_lru[set].victim());
        let global = (base + way) as u32;
        if self.pages[base + way].valid {
            for e in &mut self.main {
                if matches!(e, MainEntry::DiffPage { page_ptr, .. } if *page_ptr == global) {
                    *e = MainEntry::Invalid;
                }
            }
        }
        self.pages[base + way] = PageEntry { valid: true, page };
        self.page_lru[set].touch(way);
        self.counts.page_writes += 1;
        global
    }

    fn hit_for(&self, pc: u64, entry: MainEntry) -> BtbHit {
        match entry {
            MainEntry::Invalid => unreachable!("hit_for on invalid entry"),
            MainEntry::SamePage {
                btype,
                offset,
                delta,
                ..
            } => {
                let target = if btype == BtbBranchType::Return {
                    TargetSource::ReturnStack
                } else {
                    let page = (pc >> 12) + delta as u64;
                    TargetSource::Address(
                        (page << 12) | ((offset as u64) << self.arch.align_bits()),
                    )
                };
                BtbHit {
                    btype,
                    target,
                    site: HitSite::Main,
                }
            }
            MainEntry::DiffPage {
                btype,
                offset,
                page_ptr,
                region_ptr,
                ..
            } => {
                let page = self.pages[page_ptr as usize].page as u64;
                let region = self.regions[region_ptr as usize].region as u64;
                let target =
                    (region << 28) | (page << 12) | ((offset as u64) << self.arch.align_bits());
                BtbHit {
                    btype,
                    target: TargetSource::Address(target),
                    site: HitSite::Indirect,
                }
            }
        }
    }

    /// Same-page classification: target page equals the PC page (`delta =
    /// false`) or the next page (`delta = true`).
    fn classify(pc: u64, target: u64) -> Option<bool> {
        let pp = pc >> 12;
        let tp = target >> 12;
        if tp == pp {
            Some(false)
        } else if tp == pp + 1 {
            Some(true)
        } else {
            None
        }
    }
}

impl Btb for PdedeBtb {
    #[inline]
    fn lookup(&mut self, pc: u64) -> Option<BtbHit> {
        self.counts.reads += 1;
        let set = set_index(pc, self.sets, self.arch);
        let tag = partial_tag(pc, self.sets, self.arch);
        let way = self.find_way(set, tag)?;
        self.counts.read_hits += 1;
        self.main_lru[set].touch(way);
        Some(self.hit_for(pc, self.main[set * WAYS + way]))
    }

    #[inline]
    fn note_target_consumed(&mut self, hit: &BtbHit) {
        // The second access cycle: Page- and Region-BTB reads happen only
        // when a different-page target is actually used (Section VI-E).
        if hit.site == HitSite::Indirect {
            self.counts.page_reads += 1;
            self.counts.region_reads += 1;
        }
    }

    #[inline]
    fn update(&mut self, event: &BranchEvent) {
        if !event.taken {
            return;
        }
        let pc = event.pc;
        let btype = event.class.btb_type();
        let offset = self.split_offset(event.target);
        // Returns never consume their stored target, so they are stored as
        // same-page entries with a zero offset.
        let same = if btype == BtbBranchType::Return {
            Some(false)
        } else {
            Self::classify(pc, event.target)
        };
        let set = set_index(pc, self.sets, self.arch);
        let tag = partial_tag(pc, self.sets, self.arch);
        let base = set * WAYS;

        // Refresh an existing entry when possible.
        if let Some(way) = self.find_way(set, tag) {
            let can_hold_diff = way >= SAME_PAGE_WAYS;
            match same {
                Some(delta) => {
                    let new = MainEntry::SamePage {
                        tag,
                        btype,
                        offset,
                        delta,
                    };
                    if self.main[base + way] != new {
                        self.main[base + way] = new;
                        self.counts.writes += 1;
                    }
                    self.main_lru[set].touch(way);
                    return;
                }
                None if can_hold_diff => {
                    let region = region_number(event.target) as u32;
                    let page = pdede_page_bits(event.target) as u16;
                    let region_ptr = self.ensure_region(region);
                    let page_ptr = self.ensure_page(page);
                    let new = MainEntry::DiffPage {
                        tag,
                        btype,
                        offset,
                        page_ptr,
                        region_ptr,
                    };
                    // ensure_page/ensure_region may have invalidated this
                    // very entry; rewrite unconditionally when different.
                    if self.main[base + way] != new {
                        self.main[base + way] = new;
                        self.counts.writes += 1;
                    }
                    self.main_lru[set].touch(way);
                    return;
                }
                None => {
                    // Same-page-only way can no longer hold the branch.
                    self.main[base + way] = MainEntry::Invalid;
                }
            }
        }

        // Fresh allocation.
        let entry = match same {
            Some(delta) => MainEntry::SamePage {
                tag,
                btype,
                offset,
                delta,
            },
            None => {
                let region = region_number(event.target) as u32;
                let page = pdede_page_bits(event.target) as u16;
                let region_ptr = self.ensure_region(region);
                let page_ptr = self.ensure_page(page);
                MainEntry::DiffPage {
                    tag,
                    btype,
                    offset,
                    page_ptr,
                    region_ptr,
                }
            }
        };
        let eligible = match same {
            Some(_) => eligibility_mask(WAYS, |_| true),
            None => eligibility_mask(WAYS, |w| w >= SAME_PAGE_WAYS),
        };
        let way = (0..WAYS)
            .find(|&w| eligible & (1 << w) != 0 && self.main[base + w] == MainEntry::Invalid)
            .unwrap_or_else(|| self.main_lru[set].victim_among(eligible));
        self.main[base + way] = entry;
        self.main_lru[set].touch(way);
        self.counts.writes += 1;
    }

    fn storage(&self) -> StorageReport {
        let set_bits = PdedeSizing::set_bits(self.page_ptr_bits);
        let main_bits = self.sets as u64 * set_bits;
        let page_bits = self.pages.len() as u64 * PAGE_ENTRY_BITS;
        StorageReport {
            name: "pdede".into(),
            total_bits: main_bits + page_bits + REGION_BITS,
            branch_capacity: self.main_entries() as u64,
            partitions: vec![
                ("main-btb".into(), main_bits),
                ("page-btb".into(), page_bits),
                ("region-btb".into(), REGION_BITS),
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
        self.main.fill(MainEntry::Invalid);
        for l in &mut self.main_lru {
            *l = LruSet::new(WAYS);
        }
        for p in &mut self.pages {
            p.valid = false;
        }
        let ways = self.page_ways();
        for l in &mut self.page_lru {
            *l = LruSet::new(ways);
        }
        for r in &mut self.regions {
            r.valid = false;
        }
        self.region_lru = LruSet::new(REGION_ENTRIES);
    }

    fn name(&self) -> &'static str {
        "pdede"
    }
}

impl Snapshot for PdedeBtb {
    fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.sets as u64);
        w.u64(self.pages.len() as u64);
        for e in &self.main {
            e.save(w);
        }
        for l in &self.main_lru {
            l.save_state(w);
        }
        for p in &self.pages {
            w.bool(p.valid);
            w.u16(p.page);
        }
        for l in &self.page_lru {
            l.save_state(w);
        }
        for e in &self.regions {
            w.bool(e.valid);
            w.u32(e.region);
        }
        self.region_lru.save_state(w);
        self.counts.save_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_u64(self.sets as u64, "pdede main set count")?;
        r.expect_u64(self.pages.len() as u64, "pdede page entry count")?;
        let page_entries = self.pages.len();
        for e in &mut self.main {
            *e = MainEntry::load(r, page_entries)?;
        }
        for l in &mut self.main_lru {
            l.restore_state(r)?;
        }
        for p in &mut self.pages {
            *p = PageEntry {
                valid: r.bool()?,
                page: r.u16()?,
            };
        }
        for l in &mut self.page_lru {
            l.restore_state(r)?;
        }
        for e in &mut self.regions {
            *e = RegionEntry {
                valid: r.bool()?,
                region: r.u32()?,
            };
        }
        self.region_lru.restore_state(r)?;
        self.counts.restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::BranchClass;

    fn btb() -> PdedeBtb {
        PdedeBtb::with_budget_bits(7424, Arch::Arm64) // the 0.9 KB tier
    }

    #[test]
    fn sizing_matches_table_iv_tiers() {
        // (budget bits, page entries, avg entry bits, ~branches)
        let tiers = [
            (7424u64, 32usize, 32.0, 210u64),
            (14848, 64, 32.5, 415),
            (29696, 128, 33.0, 820),
            (59392, 256, 33.5, 1617),
            (118784, 512, 34.0, 3190),
            (237568, 1024, 34.5, 6292),
            (475136, 2048, 35.0, 12405),
        ];
        for (bits, pages, avg, branches) in tiers {
            let s = PdedeSizing::for_budget(bits);
            assert_eq!(s.page_entries, pages, "budget {bits}");
            assert_eq!(PdedeSizing::avg_entry_bits(s.page_ptr_bits), avg);
            // Runtime entries (sets × 8, rounded down to whole sets) land
            // within 2.5 % of the paper's idealized `main_bits / avg_entry`
            // count.
            let runtime = (s.main_sets * WAYS) as f64;
            let ideal = branches as f64;
            assert!(
                (runtime - ideal).abs() / ideal < 0.025,
                "budget {bits}: runtime {runtime} vs paper {ideal}"
            );
        }
    }

    #[test]
    fn same_page_round_trip() {
        let mut b = btb();
        let pc = 0x0000_7f00_1000u64;
        let target = pc + 0x40;
        b.update(&BranchEvent::taken(pc, target, BranchClass::CondDirect));
        let hit = b.lookup(pc).expect("hit");
        assert_eq!(hit.target, TargetSource::Address(target));
        assert_eq!(hit.site, HitSite::Main, "same-page: single cycle");
    }

    #[test]
    fn next_page_uses_delta_bit() {
        let mut b = btb();
        let pc = 0x0000_7f00_1ff0u64;
        let target = 0x0000_7f00_2010u64; // next page
        b.update(&BranchEvent::taken(pc, target, BranchClass::CondDirect));
        let hit = b.lookup(pc).expect("hit");
        assert_eq!(hit.target, TargetSource::Address(target));
        assert_eq!(hit.site, HitSite::Main, "delta branches avoid indirection");
    }

    #[test]
    fn different_page_round_trip_pays_indirection() {
        let mut b = btb();
        let pc = 0x0000_7f00_1000u64;
        let target = 0x0000_7f09_0040u64; // same region, different page
        b.update(&BranchEvent::taken(pc, target, BranchClass::CallDirect));
        let hit = b.lookup(pc).expect("hit");
        assert_eq!(hit.target, TargetSource::Address(target));
        assert_eq!(hit.site, HitSite::Indirect);
        assert_eq!(hit.extra_latency(), 1);
    }

    #[test]
    fn cross_region_round_trip() {
        let mut b = btb();
        let pc = 0x0000_0001_0000u64;
        let target = 0x0000_7f00_0040u64;
        b.update(&BranchEvent::taken(pc, target, BranchClass::CallDirect));
        assert_eq!(b.lookup(pc).unwrap().target, TargetSource::Address(target));
    }

    #[test]
    fn page_numbers_are_deduplicated() {
        let mut b = btb();
        let t1 = 0x0000_7f09_0040u64;
        let t2 = 0x0000_7f09_0100u64; // same page as t1
        b.update(&BranchEvent::taken(0x1000, t1, BranchClass::CallDirect));
        b.update(&BranchEvent::taken(0x2000, t2, BranchClass::CallDirect));
        assert_eq!(b.counts().page_writes, 1, "one page entry for both");
        assert_eq!(b.counts().page_searches, 2);
    }

    #[test]
    fn region_numbers_are_deduplicated() {
        let mut b = btb();
        b.update(&BranchEvent::taken(
            0x1000,
            0x7f09_0040,
            BranchClass::CallDirect,
        ));
        b.update(&BranchEvent::taken(
            0x2000,
            0x7f11_0040,
            BranchClass::CallDirect,
        ));
        assert_eq!(b.counts().region_writes, 1, "same region stored once");
    }

    #[test]
    fn page_eviction_invalidates_dependents() {
        // Tiny PDede: 1 main set, 16 page entries in one set.
        let s = PdedeSizing {
            main_sets: 1,
            page_entries: 16,
            page_ptr_bits: 4,
        };
        let mut b = PdedeBtb::with_sizing(s, Arch::Arm64);
        let pc = 0x1000u64;
        b.update(&BranchEvent::taken(
            pc,
            0x7f00_0040,
            BranchClass::CallDirect,
        ));
        assert!(b.lookup(pc).is_some());
        // Thrash the Page-BTB with 16 more distinct pages.
        for i in 0..16u64 {
            b.update(&BranchEvent::taken(
                0x2000 + i * 4,
                0x7f10_0040 + (i << 12),
                BranchClass::CallDirect,
            ));
        }
        // The original page entry has been evicted; the main entry must not
        // return a stale pointer. (It may be invalid or re-allocated.)
        match b.lookup(pc) {
            None => {}
            Some(hit) => {
                assert_ne!(
                    hit.target,
                    TargetSource::Address(0x7f00_0040),
                    "stale page pointer returned after eviction"
                );
            }
        }
    }

    #[test]
    fn region_eviction_invalidates_dependents() {
        let mut b = btb();
        let pc = 0x1000u64;
        b.update(&BranchEvent::taken(
            pc,
            0x0f00_0040,
            BranchClass::CallDirect,
        ));
        // 4 more regions evict the first (Region-BTB holds 4).
        for i in 0..4u64 {
            b.update(&BranchEvent::taken(
                0x2000 + i * 4,
                0x1_0000_0040 + (i << 28),
                BranchClass::CallDirect,
            ));
        }
        match b.lookup(pc) {
            None => {}
            Some(hit) => assert_ne!(hit.target, TargetSource::Address(0x0f00_0040)),
        }
    }

    #[test]
    fn diff_page_confined_to_shared_ways() {
        // Fill one set with 8 different-page branches: only 4 can stay.
        let s = PdedeSizing {
            main_sets: 1,
            page_entries: 16,
            page_ptr_bits: 4,
        };
        let mut b = PdedeBtb::with_sizing(s, Arch::Arm64);
        for i in 0..8u64 {
            b.update(&BranchEvent::taken(
                0x1000 + i * 4,
                0x7f00_0040, // one shared page target
                BranchClass::CallDirect,
            ));
        }
        let alive = (0..8u64)
            .filter(|i| b.lookup(0x1000 + i * 4).is_some())
            .count();
        assert_eq!(alive, 4, "different-page branches use only 4 of 8 ways");
    }

    #[test]
    fn same_page_can_use_all_ways() {
        let s = PdedeSizing {
            main_sets: 1,
            page_entries: 16,
            page_ptr_bits: 4,
        };
        let mut b = PdedeBtb::with_sizing(s, Arch::Arm64);
        for i in 0..8u64 {
            let pc = 0x1000 + i * 4;
            b.update(&BranchEvent::taken(pc, pc + 0x40, BranchClass::CondDirect));
        }
        let alive = (0..8u64)
            .filter(|i| b.lookup(0x1000 + i * 4).is_some())
            .count();
        assert_eq!(alive, 8);
    }

    #[test]
    fn returns_are_same_page_entries() {
        let mut b = btb();
        b.update(&BranchEvent::taken(
            0x1000,
            0x7fff_0000,
            BranchClass::Return,
        ));
        let hit = b.lookup(0x1000).expect("hit");
        assert_eq!(hit.target, TargetSource::ReturnStack);
        assert_eq!(hit.site, HitSite::Main, "returns never pay indirection");
    }

    #[test]
    fn page_reads_counted_only_when_consumed() {
        let mut b = btb();
        let pc = 0x1000u64;
        b.update(&BranchEvent::taken(
            pc,
            0x7f00_0040,
            BranchClass::CallDirect,
        ));
        let hit = b.lookup(pc).unwrap();
        assert_eq!(b.counts().page_reads, 0);
        b.note_target_consumed(&hit);
        assert_eq!(b.counts().page_reads, 1);
        assert_eq!(b.counts().region_reads, 1);
    }

    #[test]
    fn storage_report_partitions() {
        let b = btb();
        let r = b.storage();
        assert_eq!(r.partitions.len(), 3);
        assert_eq!(r.partition_sum(), r.total_bits);
        assert!(r.total_bits <= 7424);
    }
}
