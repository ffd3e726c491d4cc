//! Fetch-directed instruction prefetching (FDIP), Figure 2.
//!
//! The prefetch engine scans the FTQ — the stream of *predicted* upcoming
//! instruction addresses — ahead of the fetch pointer and issues L1-I
//! prefetches for blocks that are neither resident nor in flight. Because
//! the FTQ is filled by the BPU, FDIP's reach is exactly as good as the
//! BTB lets it be: a BTB miss stalls prediction and starves the
//! prefetcher, which is the coupling the paper exploits (Section II-C).

use crate::ftq::Ftq;
use crate::hierarchy::Hierarchy;
use serde::{Deserialize, Serialize};

/// FDIP statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FdipStats {
    /// Prefetches issued to the hierarchy.
    pub issued: u64,
    /// FTQ entries examined.
    pub scanned: u64,
}

impl FdipStats {
    /// Merge counters from another window.
    pub fn merge(&mut self, o: &FdipStats) {
        self.issued += o.issued;
        self.scanned += o.scanned;
    }
}

/// The prefetch engine.
#[derive(Debug, Clone)]
pub struct Fdip {
    /// Index of the next FTQ entry to examine (relative to the head).
    cursor: usize,
    /// Entries examined per cycle.
    scan_width: usize,
    stats: FdipStats,
}

impl Fdip {
    /// A prefetch engine scanning up to `scan_width` FTQ entries per
    /// cycle.
    pub fn new(scan_width: usize) -> Self {
        Fdip {
            cursor: 0,
            scan_width,
            stats: FdipStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> FdipStats {
        self.stats
    }

    /// Index of the next FTQ entry to examine. A tick is a no-op exactly
    /// when the cursor has caught up with the FTQ tail; the simulator's
    /// inert-cycle detector relies on this.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Reset statistics (cursor preserved).
    pub fn reset_stats(&mut self) {
        self.stats = FdipStats::default();
    }

    /// Account for `n` entries popped from the FTQ head (the cursor is
    /// relative to the head).
    pub fn on_fetch(&mut self, n: usize) {
        self.cursor = self.cursor.saturating_sub(n);
    }

    /// The FTQ was flushed; restart scanning from the new head.
    pub fn on_flush(&mut self) {
        self.cursor = 0;
    }

    /// One cycle of scanning: examine up to `scan_width` entries beyond
    /// the cursor and prefetch their instruction blocks.
    pub fn tick(&mut self, ftq: &Ftq, hierarchy: &mut Hierarchy, now: u64) {
        let mut examined = 0;
        while examined < self.scan_width {
            let Some(entry) = ftq.get(self.cursor) else {
                break;
            };
            self.stats.scanned += 1;
            if hierarchy.prefetch_instr(entry.instr.pc, now) {
                self.stats.issued += 1;
            }
            // Instructions spanning a block boundary prefetch the tail
            // block too (relevant for x86).
            let last_byte = entry.instr.pc + entry.instr.size.max(1) as u64 - 1;
            if last_byte / 64 != entry.instr.pc / 64 && hierarchy.prefetch_instr(last_byte, now) {
                self.stats.issued += 1;
            }
            self.cursor += 1;
            examined += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bpu::{Resolution, Verdict};
    use crate::config::SimConfig;
    use crate::hierarchy::Port;
    use btbx_trace::TraceInstr;

    fn verdict() -> Verdict {
        Verdict {
            resolution: Resolution::Correct,
            kind: None,
            predicted_taken: false,
            extra_bpu_cycles: 0,
        }
    }

    fn setup() -> (Ftq, Hierarchy, Fdip) {
        (
            Ftq::new(128),
            Hierarchy::new(&SimConfig::default()),
            Fdip::new(8),
        )
    }

    #[test]
    fn prefetches_distinct_blocks_ahead() {
        let (mut ftq, mut h, mut fdip) = setup();
        for i in 0..8u64 {
            ftq.push(TraceInstr::other(0x1_0000 + i * 64, 4), verdict());
        }
        fdip.tick(&ftq, &mut h, 0);
        assert_eq!(fdip.stats().issued, 8);
        // Demand fetch later hits prefetched blocks.
        let ready = h.access(Port::Instr, 0x1_0000, 500);
        assert_eq!(ready, 504, "prefetched block is an L1I hit");
    }

    #[test]
    fn same_block_prefetched_once() {
        let (mut ftq, mut h, mut fdip) = setup();
        for i in 0..8u64 {
            ftq.push(TraceInstr::other(0x2_0000 + i * 4, 4), verdict());
        }
        fdip.tick(&ftq, &mut h, 0);
        assert_eq!(fdip.stats().issued, 1, "all eight share one block");
    }

    #[test]
    fn cursor_advances_across_ticks() {
        let (mut ftq, mut h, mut fdip) = setup();
        for i in 0..16u64 {
            ftq.push(TraceInstr::other(0x3_0000 + i * 64, 4), verdict());
        }
        fdip.tick(&ftq, &mut h, 0); // first 8 (MSHR capacity limits fills)
        fdip.tick(&ftq, &mut h, 1); // next 8 — mostly dropped (MSHRs full)
        assert_eq!(fdip.stats().scanned, 16);
    }

    #[test]
    fn fetch_moves_cursor_back() {
        let (mut ftq, mut h, mut fdip) = setup();
        for i in 0..4u64 {
            ftq.push(TraceInstr::other(0x4_0000 + i * 64, 4), verdict());
        }
        fdip.tick(&ftq, &mut h, 0);
        // Fetch pops two entries; the cursor must track the new head.
        ftq.pop();
        ftq.pop();
        fdip.on_fetch(2);
        // New entries appended are scanned next tick.
        ftq.push(TraceInstr::other(0x9_0000, 4), verdict());
        fdip.tick(&ftq, &mut h, 1);
        assert!(fdip.stats().scanned >= 5);
    }

    #[test]
    fn flush_resets_cursor() {
        let (mut ftq, mut h, mut fdip) = setup();
        ftq.push(TraceInstr::other(0x5_0000, 4), verdict());
        fdip.tick(&ftq, &mut h, 0);
        ftq.clear();
        fdip.on_flush();
        ftq.push(TraceInstr::other(0x6_0000, 4), verdict());
        fdip.tick(&ftq, &mut h, 1);
        assert_eq!(fdip.stats().issued, 2);
    }
}
