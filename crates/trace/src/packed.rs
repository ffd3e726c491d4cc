//! Packed structure-of-arrays event buffers.
//!
//! A [`crate::record::TraceInstr`] is ergonomic but wide (its `Op` enum
//! carries a full [`btbx_core::types::BranchEvent`]), so buffering a
//! measurement window costs ~40 bytes per event. Everything this
//! simulator buffers fits in far less: PCs, targets and data addresses
//! are canonical 48-bit virtual addresses, the size is a byte, and the
//! branch class + taken flag need 4 bits together. [`PackedInstr`]
//! bit-packs one instruction into two 64-bit words — 16 bytes per event —
//! and [`PackedBuf`] stores them as two parallel `Vec<u64>` columns (SoA),
//! with a rarely used side table for the odd non-canonical record so the
//! format is still lossless for arbitrary traces.
//!
//! Word layout (`lo` / `hi`):
//!
//! ```text
//! lo[47:0]   pc (48-bit canonical VA)
//! lo[55:48]  size in bytes
//! lo[59:56]  kind: 0 = other, 1 = load, 2 = store,
//!            3 + BranchClass (6 classes), 15 = escape to side table
//! lo[60]     taken (branches only)
//! hi[47:0]   payload: data address (loads/stores) or branch target
//! ```
//!
//! Used by the simulator's streaming block buffer (the only place trace
//! events are still buffered now that runs stream their windows)
//! and by the on-disk `.btbt` container ([`crate::container`]), which
//! stores the same word layout block by block. In-memory replays use
//! [`crate::source::VecSource`].

use crate::record::{MemAccess, Op, TraceInstr};
use btbx_core::types::{BranchClass, BranchEvent};

const ADDR_BITS: u32 = 48;
const ADDR_MASK: u64 = (1 << ADDR_BITS) - 1;
const SIZE_SHIFT: u32 = 48;
pub(crate) const KIND_SHIFT: u32 = 56;
const TAKEN_SHIFT: u32 = 60;
const KIND_OTHER: u64 = 0;
const KIND_LOAD: u64 = 1;
const KIND_STORE: u64 = 2;
const KIND_BRANCH0: u64 = 3;
pub(crate) const KIND_ESCAPE: u64 = 15;

/// One instruction packed into 16 bytes. See the module docs for the
/// bit layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedInstr {
    pub(crate) lo: u64,
    pub(crate) hi: u64,
}

impl PackedInstr {
    /// Pack `instr`, or `None` when an address exceeds the canonical
    /// 48-bit VA range (callers fall back to a side table).
    #[inline]
    pub fn encode(instr: &TraceInstr) -> Option<PackedInstr> {
        if instr.pc > ADDR_MASK {
            return None;
        }
        let base = instr.pc | (instr.size as u64) << SIZE_SHIFT;
        let (kind, taken, payload) = match instr.op {
            Op::Other => (KIND_OTHER, 0, 0),
            Op::Mem(MemAccess::Load(a)) => (KIND_LOAD, 0, a),
            Op::Mem(MemAccess::Store(a)) => (KIND_STORE, 0, a),
            // A branch event whose pc disagrees with the instruction pc
            // (possible in release builds: the invariant is only a debug
            // assertion in `TraceInstr::branch`) cannot be reconstructed
            // from the packed words — escape it instead of silently
            // rewriting its pc on decode.
            Op::Branch(ev) if ev.pc != instr.pc => return None,
            Op::Branch(ev) => (KIND_BRANCH0 + ev.class as u64, ev.taken as u64, ev.target),
        };
        if payload > ADDR_MASK {
            return None;
        }
        Some(PackedInstr {
            lo: base | kind << KIND_SHIFT | taken << TAKEN_SHIFT,
            hi: payload,
        })
    }

    /// Unpack back into the wide record. Exact inverse of
    /// [`encode`](Self::encode) (pinned by round-trip tests).
    #[inline]
    pub fn decode(self) -> TraceInstr {
        let pc = self.lo & ADDR_MASK;
        let size = (self.lo >> SIZE_SHIFT) as u8;
        let kind = (self.lo >> KIND_SHIFT) & 0xf;
        let op = match kind {
            KIND_OTHER => Op::Other,
            KIND_LOAD => Op::Mem(MemAccess::Load(self.hi)),
            KIND_STORE => Op::Mem(MemAccess::Store(self.hi)),
            k => Op::Branch(BranchEvent {
                pc,
                target: self.hi,
                class: BranchClass::ALL[(k - KIND_BRANCH0) as usize],
                taken: (self.lo >> TAKEN_SHIFT) & 1 != 0,
            }),
        };
        TraceInstr { pc, size, op }
    }
}

/// A growable packed event buffer: two SoA `u64` columns at 16 bytes per
/// event, plus a side table for records that do not pack (non-canonical
/// addresses — absent in every in-repo workload).
#[derive(Debug, Clone, Default)]
pub struct PackedBuf {
    lo: Vec<u64>,
    hi: Vec<u64>,
    /// Escaped wide records, indexed by the `hi` word of escape entries.
    overflow: Vec<TraceInstr>,
}

impl PackedBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        PackedBuf::default()
    }

    /// An empty buffer with room for `n` events.
    pub fn with_capacity(n: usize) -> Self {
        PackedBuf {
            lo: Vec::with_capacity(n),
            hi: Vec::with_capacity(n),
            overflow: Vec::new(),
        }
    }

    /// Events stored.
    pub fn len(&self) -> usize {
        self.lo.len()
    }

    /// `true` when no event is stored.
    pub fn is_empty(&self) -> bool {
        self.lo.is_empty()
    }

    /// Append one instruction.
    #[inline]
    pub fn push(&mut self, instr: TraceInstr) {
        match PackedInstr::encode(&instr) {
            Some(p) => {
                self.lo.push(p.lo);
                self.hi.push(p.hi);
            }
            None => {
                self.lo.push(KIND_ESCAPE << KIND_SHIFT);
                self.hi.push(self.overflow.len() as u64);
                self.overflow.push(instr);
            }
        }
    }

    /// Decode the event at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn get(&self, index: usize) -> TraceInstr {
        let lo = self.lo[index];
        if lo >> KIND_SHIFT == KIND_ESCAPE {
            self.overflow[self.hi[index] as usize]
        } else {
            PackedInstr {
                lo,
                hi: self.hi[index],
            }
            .decode()
        }
    }

    /// Drop all events, keeping allocations.
    pub fn clear(&mut self) {
        self.lo.clear();
        self.hi.clear();
        self.overflow.clear();
    }

    /// Bytes of event storage currently allocated (columns plus side
    /// table).
    pub fn capacity_bytes(&self) -> u64 {
        (self.lo.capacity() + self.hi.capacity()) as u64 * 8
            + self.overflow.capacity() as u64 * std::mem::size_of::<TraceInstr>() as u64
    }

    /// Iterate the decoded events.
    pub fn iter(&self) -> impl Iterator<Item = TraceInstr> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

impl FromIterator<TraceInstr> for PackedBuf {
    fn from_iter<I: IntoIterator<Item = TraceInstr>>(iter: I) -> Self {
        let mut buf = PackedBuf::new();
        for i in iter {
            buf.push(i);
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_instrs() -> Vec<TraceInstr> {
        vec![
            TraceInstr::other(0x1000, 4),
            TraceInstr::other((1 << 48) - 4, 15),
            TraceInstr::mem(0x2000, 7, MemAccess::Load(0x7fff_ffff_fff8)),
            TraceInstr::mem(0x2010, 1, MemAccess::Store(8)),
            TraceInstr::branch(
                0x3000,
                4,
                BranchEvent::taken(0x3000, 0x7f00_0000_0040, BranchClass::CallIndirect),
            ),
            TraceInstr::branch(0x3004, 2, BranchEvent::not_taken(0x3004, 0x3100)),
            TraceInstr::branch(
                0x3010,
                4,
                BranchEvent::taken(0x3010, 0, BranchClass::Return),
            ),
        ]
    }

    #[test]
    fn every_class_round_trips() {
        for class in BranchClass::ALL {
            for taken in [true, false] {
                let i = TraceInstr::branch(
                    0xdead_0000,
                    4,
                    BranchEvent {
                        pc: 0xdead_0000,
                        target: 0xbeef_0000,
                        class,
                        taken,
                    },
                );
                let p = PackedInstr::encode(&i).expect("canonical");
                assert_eq!(p.decode(), i, "{class}/{taken}");
            }
        }
    }

    #[test]
    fn canonical_records_round_trip_through_the_buffer() {
        let instrs = sample_instrs();
        let buf: PackedBuf = instrs.iter().copied().collect();
        assert_eq!(buf.len(), instrs.len());
        assert!(buf.overflow.is_empty(), "all sample records pack");
        for (i, want) in instrs.iter().enumerate() {
            assert_eq!(buf.get(i), *want, "record {i}");
        }
    }

    #[test]
    fn non_canonical_records_escape_losslessly() {
        let weird = [
            TraceInstr::other(1 << 48, 4),
            TraceInstr::mem(0x40, 4, MemAccess::Load(u64::MAX)),
            TraceInstr::branch(
                0x40,
                4,
                BranchEvent::taken(0x40, 1 << 60, BranchClass::UncondDirect),
            ),
            // Mismatched event pc (constructible in release builds where
            // `TraceInstr::branch` only debug-asserts): must escape, not
            // silently decode with the instruction pc.
            TraceInstr {
                pc: 0x100,
                size: 4,
                op: Op::Branch(BranchEvent::taken(0x200, 0x300, BranchClass::CondDirect)),
            },
        ];
        let buf: PackedBuf = weird.iter().copied().collect();
        assert_eq!(buf.overflow.len(), 4);
        for (i, want) in weird.iter().enumerate() {
            assert_eq!(buf.get(i), *want, "escaped record {i}");
        }
    }

    #[test]
    fn sixteen_bytes_per_packed_event() {
        assert_eq!(std::mem::size_of::<PackedInstr>(), 16);
        let mut buf = PackedBuf::with_capacity(64);
        for i in 0..64u64 {
            buf.push(TraceInstr::other(i * 4, 4));
        }
        assert_eq!(buf.capacity_bytes(), 64 * 16);
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.capacity_bytes(), 64 * 16, "allocations kept");
    }
}
