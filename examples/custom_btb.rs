//! Extending the library: implement your own BTB organization against the
//! `Btb` trait and drive it through the full simulator.
//!
//! The toy design here is a *fully associative* 64-entry BTB with full
//! targets — tiny but alias-free — compared against BTB-X at the same
//! storage.
//!
//! ```text
//! cargo run --release --example custom_btb
//! ```

use btbx::core::btb::{Btb, BtbHit, HitSite};
use btbx::core::replacement::LruSet;
use btbx::core::spec::BtbSpec;
use btbx::core::stats::{AccessCounts, StorageReport};
use btbx::core::types::{BranchEvent, BtbBranchType, TargetSource};
use btbx::core::OrgKind;
use btbx::trace::suite;
use btbx::uarch::SimSession;

/// A fully associative BTB with full 48-bit tags (no aliasing) and full
/// targets — simple, power-hungry, and capacity-starved.
struct FullyAssocBtb {
    entries: Vec<Option<(u64, BtbBranchType, u64)>>, // (pc, type, target)
    lru: LruSet,
    counts: AccessCounts,
}

impl FullyAssocBtb {
    fn new(entries: usize) -> Self {
        FullyAssocBtb {
            entries: vec![None; entries],
            lru: LruSet::new(entries),
            counts: AccessCounts::default(),
        }
    }
}

impl Btb for FullyAssocBtb {
    fn lookup(&mut self, pc: u64) -> Option<BtbHit> {
        self.counts.reads += 1;
        let slot = self
            .entries
            .iter()
            .position(|e| matches!(e, Some((p, _, _)) if *p == pc))?;
        self.counts.read_hits += 1;
        self.lru.touch(slot);
        let (_, btype, target) = self.entries[slot].unwrap();
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

    fn update(&mut self, event: &BranchEvent) {
        if !event.taken {
            return;
        }
        let btype = event.class.btb_type();
        let slot = self
            .entries
            .iter()
            .position(|e| matches!(e, Some((p, _, _)) if *p == event.pc))
            .unwrap_or_else(|| {
                self.entries
                    .iter()
                    .position(Option::is_none)
                    .unwrap_or_else(|| self.lru.victim())
            });
        let new = Some((event.pc, btype, event.target));
        if self.entries[slot] != new {
            self.counts.writes += 1;
            self.entries[slot] = new;
        }
        self.lru.touch(slot);
    }

    fn storage(&self) -> StorageReport {
        // 46 tag + 2 type + 46 target + 1 valid + 6 LRU ≈ 101 bits/entry.
        let bits = self.entries.len() as u64 * 101;
        StorageReport {
            name: "fa-toy".into(),
            total_bits: bits,
            branch_capacity: self.entries.len() as u64,
            partitions: vec![("fa".into(), bits)],
        }
    }

    fn counts(&self) -> AccessCounts {
        self.counts
    }

    fn reset_counts(&mut self) {
        self.counts.reset();
    }

    fn clear(&mut self) {
        self.entries.fill(None);
    }

    fn name(&self) -> &'static str {
        "fa-toy"
    }
}

fn main() {
    let spec = &suite::ipc1_server()[4];
    let (warmup, measure) = (200_000, 400_000);

    let toy = FullyAssocBtb::new(64);
    let toy_bits = toy.storage().total_bits;
    let r_toy = SimSession::new(spec.build_trace())
        .btb(toy)
        .warmup(warmup)
        .measure(measure)
        .run()
        .expect("instance-backed session");

    // BTB-X squeezed into the same (tiny) storage, via a validated spec.
    let btbx_spec = BtbSpec::of(OrgKind::BtbX).budget_bits(toy_bits);
    let cap = btbx_spec
        .build_engine()
        .expect("toy budget fits BTB-X")
        .branch_capacity();
    let r_btbx = SimSession::new(spec.build_trace())
        .btb_spec(btbx_spec)
        .warmup(warmup)
        .measure(measure)
        .run()
        .expect("valid spec");

    println!("equal storage: {} bits", toy_bits);
    println!(
        "fa-toy : 64 branches,  MPKI {:>6.2}, IPC {:.3}",
        r_toy.stats.btb_mpki(),
        r_toy.stats.ipc()
    );
    println!(
        "btb-x  : {cap} branches, MPKI {:>6.2}, IPC {:.3}",
        r_btbx.stats.btb_mpki(),
        r_btbx.stats.ipc()
    );
    assert!(r_btbx.stats.btb_mpki() <= r_toy.stats.btb_mpki());
    println!("\noffset encoding beats full tags+targets at equal storage.");
}
