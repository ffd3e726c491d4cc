//! The fetch target queue (FTQ) that decouples the branch prediction unit
//! from the fetch engine (Figure 2).
//!
//! The BPU runs ahead, pushing predicted instructions; the fetch engine
//! pops them; the FDIP prefetch engine scans the occupancy in between
//! for prefetch candidates. FTQ depth (128 instructions, Table II) is
//! exactly the prefetcher's lookahead.

use crate::bpu::Verdict;
use btbx_trace::TraceInstr;
use std::collections::VecDeque;

/// One FTQ slot: a predicted instruction plus its fetch bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct FtqEntry {
    /// The instruction (correct-path; mispredictions appear as bubbles,
    /// not wrong-path slots).
    pub instr: TraceInstr,
    /// The BPU's verdict for this instruction.
    pub verdict: Verdict,
    /// Cycle at which this instruction's cache block is usable, once the
    /// fetch engine has issued the access.
    pub block_ready: Option<u64>,
}

/// Bounded FTQ.
#[derive(Debug)]
pub struct Ftq {
    entries: VecDeque<FtqEntry>,
    capacity: usize,
}

impl Ftq {
    /// An empty FTQ with the given capacity.
    pub fn new(capacity: usize) -> Self {
        Ftq {
            entries: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when another entry fits.
    pub fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Push a predicted instruction.
    ///
    /// # Panics
    ///
    /// Panics if the FTQ is full; callers must check [`Ftq::has_room`].
    pub fn push(&mut self, instr: TraceInstr, verdict: Verdict) {
        assert!(self.has_room(), "FTQ overflow");
        self.entries.push_back(FtqEntry {
            instr,
            verdict,
            block_ready: None,
        });
    }

    /// Peek the head entry (next to fetch).
    pub fn head(&self) -> Option<&FtqEntry> {
        self.entries.front()
    }

    /// Mutable head access (fetch records `block_ready` here).
    pub fn head_mut(&mut self) -> Option<&mut FtqEntry> {
        self.entries.front_mut()
    }

    /// Pop the head entry after it has been fetched.
    pub fn pop(&mut self) -> Option<FtqEntry> {
        self.entries.pop_front()
    }

    /// Iterate entries from the head (index 0 = next to fetch); used by
    /// the FDIP scan.
    pub fn iter(&self) -> impl Iterator<Item = &FtqEntry> {
        self.entries.iter()
    }

    /// Entry at `index` from the head.
    pub fn get(&self, index: usize) -> Option<&FtqEntry> {
        self.entries.get(index)
    }

    /// Mutable entry access (the fetch engine's ifetch window records
    /// block readiness on entries behind the head).
    pub fn get_mut(&mut self, index: usize) -> Option<&mut FtqEntry> {
        self.entries.get_mut(index)
    }

    /// Drop all entries (pipeline flush).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bpu::Resolution;

    fn verdict() -> Verdict {
        Verdict {
            resolution: Resolution::Correct,
            kind: None,
            predicted_taken: false,
            extra_bpu_cycles: 0,
        }
    }

    #[test]
    fn fifo_order() {
        let mut q = Ftq::new(4);
        q.push(TraceInstr::other(0x100, 4), verdict());
        q.push(TraceInstr::other(0x104, 4), verdict());
        assert_eq!(q.pop().unwrap().instr.pc, 0x100);
        assert_eq!(q.pop().unwrap().instr.pc, 0x104);
        assert!(q.pop().is_none());
    }

    #[test]
    fn capacity_enforced() {
        let mut q = Ftq::new(2);
        q.push(TraceInstr::other(0, 4), verdict());
        assert!(q.has_room());
        q.push(TraceInstr::other(4, 4), verdict());
        assert!(!q.has_room());
    }

    #[test]
    #[should_panic(expected = "FTQ overflow")]
    fn overflow_panics() {
        let mut q = Ftq::new(1);
        q.push(TraceInstr::other(0, 4), verdict());
        q.push(TraceInstr::other(4, 4), verdict());
    }

    #[test]
    fn block_ready_persists_on_head() {
        let mut q = Ftq::new(2);
        q.push(TraceInstr::other(0x100, 4), verdict());
        q.head_mut().unwrap().block_ready = Some(42);
        assert_eq!(q.head().unwrap().block_ready, Some(42));
    }

    #[test]
    fn scan_iterates_in_order() {
        let mut q = Ftq::new(8);
        for i in 0..5u64 {
            q.push(TraceInstr::other(i * 64, 4), verdict());
        }
        let pcs: Vec<u64> = q.iter().map(|e| e.instr.pc).collect();
        assert_eq!(pcs, vec![0, 64, 128, 192, 256]);
        assert_eq!(q.get(2).unwrap().instr.pc, 128);
    }

    #[test]
    fn clear_empties() {
        let mut q = Ftq::new(4);
        q.push(TraceInstr::other(0, 4), verdict());
        q.clear();
        assert!(q.is_empty());
    }
}
