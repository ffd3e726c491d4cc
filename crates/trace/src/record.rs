//! The instruction record shared by trace producers (generators, parsers)
//! and consumers (the simulator, analyses).

use btbx_core::snap::{SnapError, SnapReader, SnapWriter};
use btbx_core::types::BranchEvent;
use serde::{Deserialize, Serialize};

/// A data-memory access performed by an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemAccess {
    /// Load from the given byte address.
    Load(u64),
    /// Store to the given byte address.
    Store(u64),
}

impl MemAccess {
    /// The accessed byte address.
    #[inline]
    pub fn address(self) -> u64 {
        match self {
            MemAccess::Load(a) | MemAccess::Store(a) => a,
        }
    }

    /// `true` for loads.
    #[inline]
    pub fn is_load(self) -> bool {
        matches!(self, MemAccess::Load(_))
    }
}

/// Semantic payload of one dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Neither a branch nor a memory access (ALU, FP, nop, …).
    Other,
    /// A data-memory access.
    Mem(MemAccess),
    /// A control-flow instruction with its resolved outcome.
    Branch(BranchEvent),
}

/// One dynamic instruction of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceInstr {
    /// Program counter.
    pub pc: u64,
    /// Instruction size in bytes (4 on Arm64; 1–15 on x86). The front-end
    /// uses `pc + size` as the sequential successor.
    pub size: u8,
    /// Branch/memory semantics.
    pub op: Op,
}

impl TraceInstr {
    /// A non-branch, non-memory instruction.
    pub fn other(pc: u64, size: u8) -> Self {
        TraceInstr {
            pc,
            size,
            op: Op::Other,
        }
    }

    /// A memory instruction.
    pub fn mem(pc: u64, size: u8, access: MemAccess) -> Self {
        TraceInstr {
            pc,
            size,
            op: Op::Mem(access),
        }
    }

    /// A branch instruction.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `event.pc != pc`.
    pub fn branch(pc: u64, size: u8, event: BranchEvent) -> Self {
        debug_assert_eq!(event.pc, pc, "branch event PC must match instruction PC");
        TraceInstr {
            pc,
            size,
            op: Op::Branch(event),
        }
    }

    /// The branch event, if this instruction is a branch.
    #[inline]
    pub fn branch_event(&self) -> Option<&BranchEvent> {
        match &self.op {
            Op::Branch(ev) => Some(ev),
            _ => None,
        }
    }

    /// Address of the next instruction actually executed after this one.
    #[inline]
    pub fn next_pc(&self) -> u64 {
        match &self.op {
            Op::Branch(ev) if ev.taken => ev.target,
            _ => self.pc + self.size as u64,
        }
    }

    /// Serialize into a [`SnapWriter`] (microarchitectural snapshots carry
    /// in-flight instructions through checkpoint/restore).
    pub fn save_snap(&self, w: &mut SnapWriter) {
        w.u64(self.pc);
        w.u8(self.size);
        match &self.op {
            Op::Other => w.u8(0),
            Op::Mem(MemAccess::Load(a)) => {
                w.u8(1);
                w.u64(*a);
            }
            Op::Mem(MemAccess::Store(a)) => {
                w.u8(2);
                w.u64(*a);
            }
            Op::Branch(ev) => {
                w.u8(3);
                ev.save_state(w);
            }
        }
    }

    /// Deserialize an instruction written by [`TraceInstr::save_snap`].
    pub fn load_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let pc = r.u64()?;
        let size = r.u8()?;
        let op = match r.u8()? {
            0 => Op::Other,
            1 => Op::Mem(MemAccess::Load(r.u64()?)),
            2 => Op::Mem(MemAccess::Store(r.u64()?)),
            3 => Op::Branch(BranchEvent::load_state(r)?),
            _ => return Err(SnapError::Corrupt("trace instruction op discriminant")),
        };
        Ok(TraceInstr { pc, size, op })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btbx_core::types::BranchClass;

    #[test]
    fn next_pc_sequential() {
        let i = TraceInstr::other(0x100, 4);
        assert_eq!(i.next_pc(), 0x104);
        let i = TraceInstr::mem(0x100, 7, MemAccess::Load(0xdead));
        assert_eq!(i.next_pc(), 0x107);
    }

    #[test]
    fn next_pc_taken_branch() {
        let ev = BranchEvent::taken(0x100, 0x900, BranchClass::UncondDirect);
        let i = TraceInstr::branch(0x100, 4, ev);
        assert_eq!(i.next_pc(), 0x900);
    }

    #[test]
    fn next_pc_not_taken_branch() {
        let ev = BranchEvent::not_taken(0x100, 0x900);
        let i = TraceInstr::branch(0x100, 4, ev);
        assert_eq!(i.next_pc(), 0x104);
    }

    #[test]
    fn mem_access_helpers() {
        assert!(MemAccess::Load(1).is_load());
        assert!(!MemAccess::Store(1).is_load());
        assert_eq!(MemAccess::Store(0x40).address(), 0x40);
    }

    #[test]
    fn branch_event_accessor() {
        let ev = BranchEvent::taken(0x10, 0x20, BranchClass::Return);
        let i = TraceInstr::branch(0x10, 4, ev);
        assert_eq!(i.branch_event(), Some(&ev));
        assert_eq!(TraceInstr::other(0, 4).branch_event(), None);
    }
}
