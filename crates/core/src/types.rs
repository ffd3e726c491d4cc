//! Fundamental types shared by every BTB organization and by the trace and
//! simulator crates: instruction-set flavour, branch classes, and the
//! commit-time branch event that drives BTB updates.

use serde::{Deserialize, Serialize};

/// Instruction-set flavour of a workload.
///
/// The paper evaluates Arm64 traces (IPC-1, CVP-1) and revisits the offset
/// distribution for x86 server applications in Section VI-G. The only
/// architectural property the BTB organizations depend on is instruction
/// alignment: Arm64 instructions are 4-byte aligned, so the two low target
/// bits are always zero and need not be stored; x86 instructions are
/// byte-aligned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Arch {
    /// Fixed 4-byte instructions; offsets are stored without the two
    /// always-zero low bits (Section III).
    #[default]
    Arm64,
    /// Variable-length, byte-aligned instructions; offsets are stored in
    /// full (Section VI-G).
    X86,
}

impl Arch {
    /// Number of always-zero low bits in instruction addresses.
    #[inline]
    pub const fn align_bits(self) -> u32 {
        match self {
            Arch::Arm64 => 2,
            Arch::X86 => 0,
        }
    }

    /// BTB-X way offset widths for this architecture, smallest way first
    /// (Figure 8 for Arm64; Section VI-G for x86).
    pub const fn btbx_way_widths(self) -> [u32; 8] {
        match self {
            Arch::Arm64 => [0, 4, 5, 7, 9, 11, 19, 25],
            Arch::X86 => [0, 5, 6, 7, 9, 12, 20, 27],
        }
    }

    /// Human-readable name used in reports.
    pub const fn name(self) -> &'static str {
        match self {
            Arch::Arm64 => "arm64",
            Arch::X86 => "x86",
        }
    }
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Fine-grained branch classification as it appears in instruction traces.
///
/// The BTB stores only a 2-bit type ([`BtbBranchType`]); the extra
/// granularity here (direct vs. indirect) is needed by the front-end model:
/// direct branches can be resteered at decode because their target is
/// encoded in the instruction, indirect ones cannot (Section VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BranchClass {
    /// Conditional direct branch (`b.cond`, `jcc`).
    CondDirect,
    /// Unconditional direct jump (`b`, `jmp imm`).
    UncondDirect,
    /// Direct call (`bl`, `call imm`); pushes the return address.
    CallDirect,
    /// Indirect call (`blr`, `call reg`); pushes the return address.
    CallIndirect,
    /// Indirect jump (`br`, `jmp reg`), excluding returns.
    UncondIndirect,
    /// Function return (`ret`); target comes from the return address stack.
    Return,
}

impl BranchClass {
    /// The 2-bit type stored in a BTB entry (Figure 1).
    #[inline]
    pub const fn btb_type(self) -> BtbBranchType {
        match self {
            BranchClass::CondDirect => BtbBranchType::Conditional,
            BranchClass::UncondDirect | BranchClass::UncondIndirect => BtbBranchType::Unconditional,
            BranchClass::CallDirect | BranchClass::CallIndirect => BtbBranchType::Call,
            BranchClass::Return => BtbBranchType::Return,
        }
    }

    /// `true` for branches that are always taken (everything but
    /// conditional branches).
    #[inline]
    pub const fn is_always_taken(self) -> bool {
        !matches!(self, BranchClass::CondDirect)
    }

    /// `true` when the target is encoded in the instruction word, enabling
    /// decode-stage resteer on a BTB miss.
    #[inline]
    pub const fn is_direct(self) -> bool {
        matches!(
            self,
            BranchClass::CondDirect | BranchClass::UncondDirect | BranchClass::CallDirect
        )
    }

    /// `true` for calls (direct or indirect), which push the return address
    /// onto the RAS.
    #[inline]
    pub const fn is_call(self) -> bool {
        matches!(self, BranchClass::CallDirect | BranchClass::CallIndirect)
    }

    /// All six classes, for exhaustive iteration in tests and generators.
    pub const ALL: [BranchClass; 6] = [
        BranchClass::CondDirect,
        BranchClass::UncondDirect,
        BranchClass::CallDirect,
        BranchClass::CallIndirect,
        BranchClass::UncondIndirect,
        BranchClass::Return,
    ];
}

impl std::fmt::Display for BranchClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BranchClass::CondDirect => "cond",
            BranchClass::UncondDirect => "jump",
            BranchClass::CallDirect => "call",
            BranchClass::CallIndirect => "icall",
            BranchClass::UncondIndirect => "ijump",
            BranchClass::Return => "ret",
        };
        f.write_str(s)
    }
}

/// The 2-bit branch type field of a BTB entry (Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BtbBranchType {
    /// May fall through; direction predictor decides.
    Conditional,
    /// Always redirects to the stored target.
    Unconditional,
    /// Always redirects and pushes the return address.
    Call,
    /// Always redirects to the RAS top; no target bits needed.
    Return,
}

impl BtbBranchType {
    /// Encoding width in bits (constant, documents Figure 1).
    pub const BITS: u32 = 2;
}

/// Where a predicted target comes from after a BTB hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetSource {
    /// A concrete target address (reconstructed from offset bits where
    /// applicable).
    Address(u64),
    /// The branch is a return: pop the return address stack.
    ReturnStack,
}

impl TargetSource {
    /// The concrete address, if this is not a RAS-sourced target.
    #[inline]
    pub fn address(self) -> Option<u64> {
        match self {
            TargetSource::Address(a) => Some(a),
            TargetSource::ReturnStack => None,
        }
    }
}

/// A retired branch instruction, as seen at commit time.
///
/// This is the record the simulator hands to [`crate::Btb::update`]: the
/// paper updates the BTB at commit, and only for taken branches
/// (Section VI-A), but the event also describes not-taken conditionals so
/// analyses can cover the full dynamic branch working set (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchEvent {
    /// Program counter of the branch instruction.
    pub pc: u64,
    /// Branch target. For conditional branches this is the taken target
    /// regardless of the outcome; for returns it is the actual return
    /// address.
    pub target: u64,
    /// Fine-grained branch class.
    pub class: BranchClass,
    /// Actual direction of this dynamic instance.
    pub taken: bool,
}

impl BranchEvent {
    /// Convenience constructor for a taken branch.
    pub fn taken(pc: u64, target: u64, class: BranchClass) -> Self {
        BranchEvent {
            pc,
            target,
            class,
            taken: true,
        }
    }

    /// Convenience constructor for a not-taken conditional branch.
    pub fn not_taken(pc: u64, target: u64) -> Self {
        BranchEvent {
            pc,
            target,
            class: BranchClass::CondDirect,
            taken: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_alignment() {
        assert_eq!(Arch::Arm64.align_bits(), 2);
        assert_eq!(Arch::X86.align_bits(), 0);
    }

    #[test]
    fn btbx_way_widths_match_paper() {
        // Figure 8: Arm64 ways sum to 80 offset bits per set.
        assert_eq!(Arch::Arm64.btbx_way_widths().iter().sum::<u32>(), 80);
        // Section VI-G: x86 ways sum to 86 offset bits per set.
        assert_eq!(Arch::X86.btbx_way_widths().iter().sum::<u32>(), 86);
    }

    #[test]
    fn way_widths_are_monotonic() {
        for arch in [Arch::Arm64, Arch::X86] {
            let w = arch.btbx_way_widths();
            for i in 1..w.len() {
                assert!(w[i] > w[i - 1], "{arch}: way {i} not wider than {}", i - 1);
            }
        }
    }

    #[test]
    fn class_to_btb_type() {
        assert_eq!(
            BranchClass::CondDirect.btb_type(),
            BtbBranchType::Conditional
        );
        assert_eq!(BranchClass::CallIndirect.btb_type(), BtbBranchType::Call);
        assert_eq!(
            BranchClass::UncondIndirect.btb_type(),
            BtbBranchType::Unconditional
        );
        assert_eq!(BranchClass::Return.btb_type(), BtbBranchType::Return);
    }

    #[test]
    fn always_taken_classes() {
        for class in BranchClass::ALL {
            assert_eq!(
                class.is_always_taken(),
                class != BranchClass::CondDirect,
                "{class}"
            );
        }
    }

    #[test]
    fn directness() {
        assert!(BranchClass::CallDirect.is_direct());
        assert!(!BranchClass::CallIndirect.is_direct());
        assert!(!BranchClass::Return.is_direct());
    }

    #[test]
    fn target_source_address() {
        assert_eq!(TargetSource::Address(0x40).address(), Some(0x40));
        assert_eq!(TargetSource::ReturnStack.address(), None);
    }

    #[test]
    fn event_constructors() {
        let t = BranchEvent::taken(4, 8, BranchClass::UncondDirect);
        assert!(t.taken);
        let nt = BranchEvent::not_taken(4, 8);
        assert!(!nt.taken);
        assert_eq!(nt.class, BranchClass::CondDirect);
    }
}
