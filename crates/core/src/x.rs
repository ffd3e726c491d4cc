//! BTB-X: the paper's storage-effective BTB organization (Section V,
//! Figure 8).
//!
//! BTB-X is an 8-way set-associative BTB whose ways store *target offsets*
//! of different widths — 0, 4, 5, 7, 9, 11, 19 and 25 bits on Arm64 — sized
//! so each way covers ≈ 12.5 % of dynamic branches (Figure 4). Way 0 has no
//! offset storage at all: it holds returns, whose targets come from the
//! RAS. Branches whose offsets exceed the widest way (≈ 1 % of dynamic
//! branches) live in **BTB-XC**, a small direct-mapped BTB with full
//! targets and 64× fewer entries than BTB-X.
//!
//! Allocation uses the paper's *modified LRU*: the victim search considers
//! only the ways whose offset field is wide enough for the incoming
//! branch; recency bookkeeping is unchanged (Section V-B).

use crate::btb::{Btb, BtbHit, HitSite};
use crate::offset::{extract_offset, reconstruct_target, stored_offset_len};
use crate::replacement::{eligibility_mask, LruSet};
use crate::stats::{AccessCounts, StorageReport};
use crate::tag::{partial_tag, set_index, PARTIAL_TAG_BITS};
use crate::types::{Arch, BranchEvent, BtbBranchType, TargetSource};

/// Metadata bits per BTB-X way entry: valid 1 + tag 12 + type 2 + LRU 3
/// (Figure 8).
pub const BTBX_META_BITS: u64 = 1 + PARTIAL_TAG_BITS as u64 + 2 + 3;

/// Bits per BTB-XC entry: modelled as a full conventional entry without
/// replacement state, padded to the 64 bits Table III charges.
pub const BTBXC_ENTRY_BITS: u64 = 64;

/// Ratio of BTB-X entries to BTB-XC entries (Section V-A: "64x fewer
/// entries than BTB-X, i.e., 8x fewer entries than the number of sets").
pub const XC_ENTRY_DIVISOR: usize = 64;

const WAYS: usize = 8;

#[derive(Debug, Clone, Copy)]
struct WayEntry {
    valid: bool,
    tag: u16,
    btype: BtbBranchType,
    /// Low `width + align` bits of the target, alignment bits dropped.
    stored: u64,
}

impl WayEntry {
    const INVALID: WayEntry = WayEntry {
        valid: false,
        tag: 0,
        btype: BtbBranchType::Unconditional,
        stored: 0,
    };
}

#[derive(Debug, Clone, Copy)]
struct XcEntry {
    valid: bool,
    tag: u16,
    btype: BtbBranchType,
    target: u64,
}

impl XcEntry {
    const INVALID: XcEntry = XcEntry {
        valid: false,
        tag: 0,
        btype: BtbBranchType::Unconditional,
        target: 0,
    };
}

/// Configuration knobs for [`BtbX`], exposing the paper's design choices
/// as ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbXConfig {
    /// Offset width of each way, narrowest first. The paper's sizing is
    /// [`Arch::btbx_way_widths`]; ablations may use uniform widths.
    pub way_widths: [u32; 8],
    /// Whether the BTB-XC overflow structure exists. Disabling it makes
    /// every branch wider than the widest way uncacheable (a permanent
    /// BTB miss), quantifying BTB-XC's contribution.
    pub with_overflow: bool,
    /// Use the paper's modified LRU (victim restricted to eligible ways).
    /// When `false`, the victim is the global LRU way; if the branch does
    /// not fit there the allocation is dropped — a deliberately naive
    /// policy used as an ablation baseline.
    pub modified_lru: bool,
}

impl BtbXConfig {
    /// The paper's configuration for `arch`.
    pub fn paper(arch: Arch) -> Self {
        BtbXConfig {
            way_widths: arch.btbx_way_widths(),
            with_overflow: true,
            modified_lru: true,
        }
    }

    /// Ablation: eight uniform ways, each as wide as the paper's widest
    /// way. Storage balloons for the same entry count (Section V-A's
    /// argument for uneven sizing).
    pub fn uniform(arch: Arch) -> Self {
        let widest = arch.btbx_way_widths()[7];
        BtbXConfig {
            way_widths: [widest; 8],
            with_overflow: true,
            modified_lru: true,
        }
    }

    /// Offset bits per set under this configuration.
    pub fn offset_bits_per_set(&self) -> u64 {
        self.way_widths.iter().map(|&w| w as u64).sum()
    }

    /// Total bits per set: 8 × metadata + offset fields (Table III's
    /// 224-bit sets for the Arm64 paper configuration).
    pub fn set_bits(&self) -> u64 {
        WAYS as u64 * BTBX_META_BITS + self.offset_bits_per_set()
    }
}

/// The BTB-X organization with its BTB-XC overflow companion.
#[derive(Debug, Clone)]
pub struct BtbX {
    arch: Arch,
    config: BtbXConfig,
    sets: usize,
    ways: Vec<WayEntry>, // sets × 8, row-major
    lru: Vec<LruSet>,
    xc: Vec<XcEntry>,
    counts: AccessCounts,
}

impl BtbX {
    /// Build a BTB-X with `entries` main entries (a multiple of 8) and the
    /// paper's way sizing for `arch`. BTB-XC is sized at
    /// `entries / 64` entries, minimum 1.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of 8.
    pub fn with_entries(entries: usize, arch: Arch) -> Self {
        Self::with_config(entries, arch, BtbXConfig::paper(arch))
    }

    /// Build with an explicit [`BtbXConfig`] (ablations).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of 8 or the way
    /// widths are not non-decreasing.
    pub fn with_config(entries: usize, arch: Arch, config: BtbXConfig) -> Self {
        assert!(
            entries > 0 && entries.is_multiple_of(WAYS),
            "entries must be a multiple of 8"
        );
        assert!(
            config.way_widths.windows(2).all(|w| w[0] <= w[1]),
            "way widths must be non-decreasing"
        );
        let sets = entries / WAYS;
        let xc_entries = if config.with_overflow {
            (entries / XC_ENTRY_DIVISOR).max(1)
        } else {
            0
        };
        BtbX {
            arch,
            config,
            sets,
            ways: vec![WayEntry::INVALID; sets * WAYS],
            lru: vec![LruSet::new(WAYS); sets],
            xc: vec![XcEntry::INVALID; xc_entries],
            counts: AccessCounts::default(),
        }
    }

    /// Number of BTB-X sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Number of main entries.
    pub fn entries(&self) -> usize {
        self.sets * WAYS
    }

    /// Number of BTB-XC entries.
    pub fn xc_entries(&self) -> usize {
        self.xc.len()
    }

    /// The active configuration.
    pub fn config(&self) -> &BtbXConfig {
        &self.config
    }

    fn find_way(&self, set: usize, tag: u16) -> Option<usize> {
        let base = set * WAYS;
        (0..WAYS).find(|&w| {
            let e = &self.ways[base + w];
            e.valid && e.tag == tag
        })
    }

    fn xc_slot(&self, pc: u64) -> Option<usize> {
        if self.xc.is_empty() {
            None
        } else {
            Some(set_index(pc, self.xc.len(), self.arch))
        }
    }

    fn lookup_xc(&self, pc: u64) -> Option<(usize, XcEntry)> {
        let slot = self.xc_slot(pc)?;
        let e = self.xc[slot];
        let tag = partial_tag(pc, self.xc.len(), self.arch);
        (e.valid && e.tag == tag).then_some((slot, e))
    }

    fn hit_from_way(&self, pc: u64, way: usize, e: WayEntry) -> BtbHit {
        let target = if e.btype == BtbBranchType::Return {
            TargetSource::ReturnStack
        } else {
            let width = self.config.way_widths[way];
            TargetSource::Address(reconstruct_target(pc, e.stored, width, self.arch))
        };
        BtbHit {
            btype: e.btype,
            target,
            site: HitSite::Main,
        }
    }

    /// Allocate or refresh the entry for a taken branch.
    fn allocate(&mut self, event: &BranchEvent) {
        let pc = event.pc;
        let btype = event.class.btb_type();
        // Returns read their target from the RAS, so they need no offset
        // bits and fit in every way (Section V-A).
        let needed = if event.class.btb_type() == BtbBranchType::Return {
            0
        } else {
            stored_offset_len(pc, event.target, self.arch)
        };
        let widest = self.config.way_widths[WAYS - 1];

        let set = set_index(pc, self.sets, self.arch);
        let tag = partial_tag(pc, self.sets, self.arch);
        let base = set * WAYS;

        if needed > widest {
            // Too large for any way: BTB-XC or nothing.
            // Drop a stale main-BTB alias for this PC if present so the
            // two structures never disagree.
            if let Some(way) = self.find_way(set, tag) {
                self.ways[base + way] = WayEntry::INVALID;
            }
            let Some(slot) = self.xc_slot(pc) else { return };
            let xtag = partial_tag(pc, self.xc.len(), self.arch);
            let e = &mut self.xc[slot];
            if !(e.valid && e.tag == xtag && e.target == event.target && e.btype == btype) {
                *e = XcEntry {
                    valid: true,
                    tag: xtag,
                    btype,
                    target: event.target,
                };
                self.counts.writes += 1;
            }
            return;
        }

        // Existing main entry for this PC?
        if let Some(way) = self.find_way(set, tag) {
            let width = self.config.way_widths[way];
            if needed <= width {
                let stored = extract_offset(event.target, width, self.arch);
                let e = &mut self.ways[base + way];
                if e.stored != stored || e.btype != btype {
                    e.stored = stored;
                    e.btype = btype;
                    self.counts.writes += 1;
                }
                self.lru[set].touch(way);
                return;
            }
            // The branch's target moved out of this way's reach (indirect
            // branch with a new, farther target): invalidate and realloc.
            self.ways[base + way] = WayEntry::INVALID;
        }
        // A stale BTB-XC alias for this PC would shadow nothing (main is
        // checked first on lookup), but drop it to keep state clean.
        if let Some((slot, _)) = self.lookup_xc(pc) {
            self.xc[slot] = XcEntry::INVALID;
        }

        // Choose a way: invalid eligible way first, then modified LRU.
        let eligible = eligibility_mask(WAYS, |w| self.config.way_widths[w] >= needed);
        debug_assert!(eligible != 0, "widest way must always be eligible");
        let invalid = (0..WAYS).find(|&w| eligible & (1 << w) != 0 && !self.ways[base + w].valid);
        let way = match invalid {
            Some(w) => w,
            None if self.config.modified_lru => self.lru[set].victim_among(eligible),
            None => {
                // Naive ablation policy: global LRU victim; drop the
                // allocation if the branch does not fit there.
                let v = self.lru[set].victim();
                if eligible & (1 << v) == 0 {
                    return;
                }
                v
            }
        };
        let width = self.config.way_widths[way];
        self.ways[base + way] = WayEntry {
            valid: true,
            tag,
            btype,
            stored: extract_offset(event.target, width, self.arch),
        };
        self.lru[set].touch(way);
        self.counts.writes += 1;
    }
}

impl Btb for BtbX {
    #[inline]
    fn lookup(&mut self, pc: u64) -> Option<BtbHit> {
        // BTB-X and BTB-XC are probed in parallel (Section V-B); one read.
        self.counts.reads += 1;
        let set = set_index(pc, self.sets, self.arch);
        let tag = partial_tag(pc, self.sets, self.arch);
        if let Some(way) = self.find_way(set, tag) {
            self.counts.read_hits += 1;
            self.lru[set].touch(way);
            let e = self.ways[set * WAYS + way];
            return Some(self.hit_from_way(pc, way, e));
        }
        if let Some((_, e)) = self.lookup_xc(pc) {
            self.counts.read_hits += 1;
            let target = if e.btype == BtbBranchType::Return {
                TargetSource::ReturnStack
            } else {
                TargetSource::Address(e.target)
            };
            return Some(BtbHit {
                btype: e.btype,
                target,
                site: HitSite::Overflow,
            });
        }
        None
    }

    #[inline]
    fn update(&mut self, event: &BranchEvent) {
        if !event.taken {
            return;
        }
        self.allocate(event);
    }

    fn storage(&self) -> StorageReport {
        let main_bits = self.sets as u64 * self.config.set_bits();
        let xc_bits = self.xc.len() as u64 * BTBXC_ENTRY_BITS;
        StorageReport {
            name: "btbx".into(),
            total_bits: main_bits + xc_bits,
            branch_capacity: (self.entries() + self.xc.len()) as u64,
            partitions: vec![("btb-x".into(), main_bits), ("btb-xc".into(), xc_bits)],
        }
    }

    fn counts(&self) -> AccessCounts {
        self.counts
    }

    fn reset_counts(&mut self) {
        self.counts.reset();
    }

    fn clear(&mut self) {
        self.ways.fill(WayEntry::INVALID);
        self.xc.fill(XcEntry::INVALID);
        for l in &mut self.lru {
            *l = LruSet::new(WAYS);
        }
    }

    fn name(&self) -> &'static str {
        "btbx"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::BranchClass;

    fn btb() -> BtbX {
        BtbX::with_entries(256, Arch::Arm64)
    }

    #[test]
    fn paper_set_is_224_bits_arm64() {
        assert_eq!(BtbXConfig::paper(Arch::Arm64).set_bits(), 224);
    }

    #[test]
    fn paper_set_is_230_bits_x86() {
        // 144 metadata + 86 offset bits (Section VI-G).
        assert_eq!(BtbXConfig::paper(Arch::X86).set_bits(), 230);
    }

    #[test]
    fn xc_sizing_is_one_sixtyfourth() {
        let b = BtbX::with_entries(2048, Arch::Arm64);
        assert_eq!(b.xc_entries(), 32);
        assert_eq!(b.sets(), 256);
    }

    #[test]
    fn short_offset_round_trip() {
        let mut b = btb();
        // Conditional branch 40 bytes forward: needs 4 stored bits.
        let pc = 0x0000_7f00_1000u64;
        let target = pc + 40;
        b.update(&BranchEvent::taken(pc, target, BranchClass::CondDirect));
        let hit = b.lookup(pc).expect("hit");
        assert_eq!(hit.target, TargetSource::Address(target));
        assert_eq!(hit.site, HitSite::Main);
    }

    #[test]
    fn long_offset_goes_to_xc() {
        let mut b = btb();
        // Cross-region branch: far more than 25 stored bits.
        let pc = 0x0000_0001_0000u64;
        let target = 0x0000_7f00_0000u64;
        assert!(stored_offset_len(pc, target, Arch::Arm64) > 25);
        b.update(&BranchEvent::taken(pc, target, BranchClass::CallDirect));
        let hit = b.lookup(pc).expect("hit in BTB-XC");
        assert_eq!(hit.site, HitSite::Overflow);
        assert_eq!(hit.target, TargetSource::Address(target));
    }

    #[test]
    fn long_offset_without_xc_misses_forever() {
        let mut cfg = BtbXConfig::paper(Arch::Arm64);
        cfg.with_overflow = false;
        let mut b = BtbX::with_config(256, Arch::Arm64, cfg);
        let pc = 0x0000_0001_0000u64;
        let target = 0x0000_7f00_0000u64;
        b.update(&BranchEvent::taken(pc, target, BranchClass::CallDirect));
        assert!(b.lookup(pc).is_none());
    }

    #[test]
    fn returns_fit_in_way_zero() {
        let mut b = btb();
        b.update(&BranchEvent::taken(
            0x4000,
            0x1234_5678,
            BranchClass::Return,
        ));
        let hit = b.lookup(0x4000).expect("hit");
        assert_eq!(hit.target, TargetSource::ReturnStack);
    }

    #[test]
    fn eligibility_respects_way_widths() {
        // A branch needing 20 bits may only occupy way 7 (25 bits) on Arm64.
        let widths = Arch::Arm64.btbx_way_widths();
        let needed = 20;
        let eligible: Vec<usize> = (0..8).filter(|&w| widths[w] >= needed).collect();
        assert_eq!(eligible, vec![7]);
    }

    #[test]
    fn modified_lru_evicts_lru_among_eligible_only() {
        // One-set BTB-X. The victim search is restricted to eligible ways,
        // and within them it is true LRU (Section V-B): a recently-used
        // wide branch in way 7 survives a short-branch insertion even
        // though way 7 is eligible for short branches too.
        let mut b = BtbX::with_entries(8, Arch::Arm64);
        let base = 0x10_0000u64;
        // Way 0 can only be filled by a return (0-bit offset).
        b.update(&BranchEvent::taken(base, 0x9000, BranchClass::Return));
        // Wide branch lands in way 7 (the only way ≥ 21 stored bits).
        let wide_pc = base + 4;
        b.update(&BranchEvent::taken(
            wide_pc,
            wide_pc + (1 << 22),
            BranchClass::CallDirect,
        ));
        // Six short branches fill ways 1..6; the first is the LRU of them.
        let first_short = base + 2 * 4;
        for i in 2..=7u64 {
            let pc = base + i * 4;
            b.update(&BranchEvent::taken(pc, pc + 8, BranchClass::CondDirect));
        }
        // Make the wide branch MRU, then insert one more short branch.
        assert!(b.lookup(wide_pc).is_some());
        let newcomer = base + 8 * 4;
        b.update(&BranchEvent::taken(
            newcomer,
            newcomer + 8,
            BranchClass::CondDirect,
        ));
        assert!(b.lookup(newcomer).is_some());
        assert!(
            b.lookup(wide_pc).is_some(),
            "MRU wide branch must not be the victim"
        );
        assert!(
            b.lookup(first_short).is_none(),
            "the LRU eligible way holds the victim"
        );
        assert!(
            b.lookup(base).is_some(),
            "way-0 return is not eligible for eviction"
        );
    }

    #[test]
    fn wide_branch_can_evict_anywhere_eligible() {
        // A 20-bit branch has exactly one eligible way; inserting two such
        // branches in one set must replace the first.
        let mut b = BtbX::with_entries(8, Arch::Arm64);
        let a = 0x10_0000u64;
        let c = a + 4;
        b.update(&BranchEvent::taken(
            a,
            a + (1 << 22),
            BranchClass::CallDirect,
        ));
        b.update(&BranchEvent::taken(
            c,
            c + (1 << 22),
            BranchClass::CallDirect,
        ));
        assert!(b.lookup(c).is_some());
        assert!(b.lookup(a).is_none(), "only way 7 can hold either branch");
    }

    #[test]
    fn indirect_branch_retarget_across_ways() {
        let mut b = btb();
        let pc = 0x0000_7f00_1000u64;
        // First target nearby (narrow way), then far away (wide way).
        b.update(&BranchEvent::taken(pc, pc + 16, BranchClass::CallIndirect));
        assert_eq!(b.lookup(pc).unwrap().target, TargetSource::Address(pc + 16));
        let far = pc + (1 << 20);
        b.update(&BranchEvent::taken(pc, far, BranchClass::CallIndirect));
        assert_eq!(b.lookup(pc).unwrap().target, TargetSource::Address(far));
    }

    #[test]
    fn storage_matches_table_iii_smallest_point() {
        // 256 entries: 32 sets × 224 bits + 4 XC × 64 bits = 7424 bits = 0.90625 KB.
        let b = btb();
        let r = b.storage();
        assert_eq!(r.total_bits, 7424);
        assert!((r.total_kb() - 0.90625).abs() < 1e-9);
        assert_eq!(r.branch_capacity, 260);
    }

    #[test]
    fn uniform_ablation_is_bigger() {
        let paper = BtbX::with_entries(1024, Arch::Arm64).storage().total_bits;
        let uni = BtbX::with_config(1024, Arch::Arm64, BtbXConfig::uniform(Arch::Arm64))
            .storage()
            .total_bits;
        assert!(uni > paper, "uniform 25-bit ways must cost more storage");
    }

    #[test]
    fn counts_track_reads_hits_writes() {
        let mut b = btb();
        b.lookup(0x4000);
        b.update(&BranchEvent::taken(0x4000, 0x4040, BranchClass::CondDirect));
        b.lookup(0x4000);
        let c = b.counts();
        assert_eq!(c.reads, 2);
        assert_eq!(c.read_hits, 1);
        assert_eq!(c.writes, 1);
    }

    #[test]
    fn clear_resets_contents_not_counts() {
        let mut b = btb();
        b.update(&BranchEvent::taken(0x4000, 0x4040, BranchClass::CondDirect));
        b.clear();
        assert!(b.lookup(0x4000).is_none());
        assert!(b.counts().reads > 0);
        b.reset_counts();
        assert_eq!(b.counts().reads, 0);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn entries_must_be_multiple_of_ways() {
        BtbX::with_entries(100, Arch::Arm64);
    }
}
