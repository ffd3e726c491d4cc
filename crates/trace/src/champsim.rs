//! ChampSim `input_instr` trace format: parsing, writing, and ChampSim's
//! register-pattern branch classification.
//!
//! The paper's artifact runs on ChampSim with the Qualcomm IPC-1 traces,
//! which are distributed as streams of 64-byte `input_instr` records:
//!
//! ```c
//! struct input_instr {
//!     unsigned long long ip;                     //  8 bytes
//!     unsigned char is_branch;                   //  1
//!     unsigned char branch_taken;                //  1
//!     unsigned char destination_registers[2];    //  2
//!     unsigned char source_registers[4];         //  4
//!     unsigned long long destination_memory[2];  // 16
//!     unsigned long long source_memory[4];       // 32
//! };                                             // 64 bytes, no padding
//! ```
//!
//! Branch *class* is not stored; ChampSim infers it from which special
//! registers (stack pointer, instruction pointer, flags) the instruction
//! reads and writes, and derives the *target* from the next record's `ip`.
//! This module reproduces both conventions so genuine IPC-1 traces can be
//! imported, and can also serialize our synthetic traces into the same
//! format for interoperability.
//!
//! ChampSim is an import format only: [`ChampSimReader`] is a
//! forward-only stream that `btbx trace convert` drains into a `.btbt`
//! container (see [`crate::container`]), and that container is what
//! sweeps, `trace check` and the serving paths replay.

use crate::record::{MemAccess, Op, TraceInstr};
use crate::source::TraceSource;
use btbx_core::types::{BranchClass, BranchEvent};
use std::io::{self, Read, Write};

/// Size of one `input_instr` record in bytes.
pub const RECORD_BYTES: usize = 64;

/// Why a ChampSim byte stream stopped being parseable, pinned to the
/// byte offset where the damage starts.
#[derive(Debug)]
pub enum ChampSimError {
    /// The stream ended inside a record: `got` of the 64 bytes arrived.
    /// Typical of interrupted downloads and truncated conversions.
    TruncatedRecord {
        /// Byte offset of the partial record.
        offset: u64,
        /// Bytes of it that were present.
        got: usize,
    },
    /// The underlying reader failed at the given byte offset.
    Io {
        /// Byte offset where the read failed.
        offset: u64,
        /// The underlying error.
        error: io::Error,
    },
}

impl std::fmt::Display for ChampSimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChampSimError::TruncatedRecord { offset, got } => write!(
                f,
                "truncated ChampSim record at byte {offset}: {got} of {RECORD_BYTES} bytes"
            ),
            ChampSimError::Io { offset, error } => {
                write!(f, "I/O error at byte {offset} of ChampSim stream: {error}")
            }
        }
    }
}

impl std::error::Error for ChampSimError {}

/// ChampSim's special register numbers (x86 translation convention).
pub mod reg {
    /// Stack pointer.
    pub const SP: u8 = 6;
    /// Flags register.
    pub const FLAGS: u8 = 25;
    /// Instruction pointer.
    pub const IP: u8 = 26;
    /// A generic non-special register used by our writer.
    pub const GPR: u8 = 10;
}

/// A raw 64-byte ChampSim record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InputInstr {
    /// Instruction pointer.
    pub ip: u64,
    /// Non-zero when the instruction is a branch.
    pub is_branch: u8,
    /// Non-zero when a branch was taken.
    pub branch_taken: u8,
    /// Destination registers (0 = unused).
    pub destination_registers: [u8; 2],
    /// Source registers (0 = unused).
    pub source_registers: [u8; 4],
    /// Store addresses (0 = unused).
    pub destination_memory: [u64; 2],
    /// Load addresses (0 = unused).
    pub source_memory: [u64; 4],
}

impl InputInstr {
    /// Decode from a 64-byte little-endian buffer.
    pub fn from_bytes(buf: &[u8; RECORD_BYTES]) -> Self {
        let u64le = |o: usize| u64::from_le_bytes(buf[o..o + 8].try_into().unwrap());
        InputInstr {
            ip: u64le(0),
            is_branch: buf[8],
            branch_taken: buf[9],
            destination_registers: [buf[10], buf[11]],
            source_registers: [buf[12], buf[13], buf[14], buf[15]],
            destination_memory: [u64le(16), u64le(24)],
            source_memory: [u64le(32), u64le(40), u64le(48), u64le(56)],
        }
    }

    /// Encode to the 64-byte little-endian layout.
    pub fn to_bytes(&self) -> [u8; RECORD_BYTES] {
        let mut buf = [0u8; RECORD_BYTES];
        buf[0..8].copy_from_slice(&self.ip.to_le_bytes());
        buf[8] = self.is_branch;
        buf[9] = self.branch_taken;
        buf[10] = self.destination_registers[0];
        buf[11] = self.destination_registers[1];
        buf[12..16].copy_from_slice(&self.source_registers);
        buf[16..24].copy_from_slice(&self.destination_memory[0].to_le_bytes());
        buf[24..32].copy_from_slice(&self.destination_memory[1].to_le_bytes());
        for (i, m) in self.source_memory.iter().enumerate() {
            buf[32 + i * 8..40 + i * 8].copy_from_slice(&m.to_le_bytes());
        }
        buf
    }

    fn reads(&self, r: u8) -> bool {
        self.source_registers.contains(&r)
    }

    fn writes(&self, r: u8) -> bool {
        self.destination_registers.contains(&r)
    }

    fn reads_other(&self) -> bool {
        self.source_registers
            .iter()
            .any(|&r| r != 0 && r != reg::SP && r != reg::IP && r != reg::FLAGS)
    }

    /// ChampSim's branch classification from register read/write patterns
    /// (mirrors `ooo_cpu.cc`).
    pub fn classify(&self) -> Option<BranchClass> {
        if self.is_branch == 0 {
            return None;
        }
        let reads_sp = self.reads(reg::SP);
        let reads_ip = self.reads(reg::IP);
        let reads_flags = self.reads(reg::FLAGS);
        let writes_sp = self.writes(reg::SP);
        let writes_ip = self.writes(reg::IP);
        let reads_other = self.reads_other();

        let class = if reads_ip && !reads_sp && !reads_flags && !reads_other && writes_ip {
            BranchClass::UncondDirect
        } else if reads_ip && reads_flags && !reads_sp && !reads_other && writes_ip {
            BranchClass::CondDirect
        } else if reads_ip && reads_sp && writes_ip && writes_sp && !reads_other {
            BranchClass::CallDirect
        } else if reads_sp && writes_ip && writes_sp && reads_other {
            BranchClass::CallIndirect
        } else if reads_sp && writes_ip && writes_sp && !reads_ip && !reads_other {
            BranchClass::Return
        } else if writes_ip && reads_other && !reads_sp {
            BranchClass::UncondIndirect
        } else {
            // ChampSim's BRANCH_OTHER: treat as conditional so the
            // direction bit is honoured.
            BranchClass::CondDirect
        };
        Some(class)
    }

    /// Build the canonical register pattern for a branch class (used when
    /// writing traces).
    pub fn registers_for(class: BranchClass) -> ([u8; 2], [u8; 4]) {
        match class {
            BranchClass::UncondDirect => ([reg::IP, 0], [reg::IP, 0, 0, 0]),
            BranchClass::CondDirect => ([reg::IP, 0], [reg::IP, reg::FLAGS, 0, 0]),
            BranchClass::CallDirect => ([reg::IP, reg::SP], [reg::IP, reg::SP, 0, 0]),
            BranchClass::CallIndirect => ([reg::IP, reg::SP], [reg::SP, reg::GPR, 0, 0]),
            BranchClass::Return => ([reg::IP, reg::SP], [reg::SP, 0, 0, 0]),
            BranchClass::UncondIndirect => ([reg::IP, 0], [reg::GPR, 0, 0, 0]),
        }
    }
}

/// Streaming reader turning ChampSim records into [`TraceInstr`]s.
///
/// Targets are derived with one record of lookahead, exactly as ChampSim
/// does: the target of a taken branch is the `ip` of the next record; for
/// a not-taken branch no target is recoverable from the trace, so the
/// (unknown) taken target is reported as `ip + size` — such events carry
/// `taken = false` and never allocate BTB entries (Section VI-A).
pub struct ChampSimReader<R> {
    input: R,
    name: String,
    pending: Option<InputInstr>,
    /// Fixed instruction size assumed when reconstructing fall-through
    /// addresses (IPC-1 traces are Arm64: 4 bytes).
    pub instr_size: u8,
    eof: bool,
    /// Bytes consumed from `input` so far.
    offset: u64,
    error: Option<ChampSimError>,
}

impl<R: Read> ChampSimReader<R> {
    /// Wrap a byte stream of `input_instr` records.
    pub fn new(input: R, name: impl Into<String>) -> Self {
        ChampSimReader {
            input,
            name: name.into(),
            pending: None,
            instr_size: 4,
            eof: false,
            offset: 0,
            error: None,
        }
    }

    /// Why the stream stopped, if it stopped on damage rather than a
    /// clean end. `next_instr` returning `None` means *either* end of
    /// trace or an error; callers that must distinguish (converters,
    /// strict replays) check here afterwards. The reader never resumes
    /// past an error.
    pub fn error(&self) -> Option<&ChampSimError> {
        self.error.as_ref()
    }

    /// Consume the reader, surfacing any stream damage as `Err`.
    ///
    /// # Errors
    ///
    /// The [`ChampSimError`] that stopped the stream, if any.
    pub fn into_result(self) -> Result<(), ChampSimError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn read_record(&mut self) -> Option<InputInstr> {
        if self.eof {
            return None;
        }
        let mut buf = [0u8; RECORD_BYTES];
        let mut filled = 0;
        while filled < RECORD_BYTES {
            match self.input.read(&mut buf[filled..]) {
                Ok(0) => {
                    self.eof = true;
                    if filled > 0 {
                        // A partial record is damage, not end-of-trace:
                        // report where it starts instead of dropping it
                        // silently.
                        self.error = Some(ChampSimError::TruncatedRecord {
                            offset: self.offset,
                            got: filled,
                        });
                    }
                    return None;
                }
                Ok(n) => filled += n,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.eof = true;
                    self.error = Some(ChampSimError::Io {
                        offset: self.offset + filled as u64,
                        error: e,
                    });
                    return None;
                }
            }
        }
        self.offset += RECORD_BYTES as u64;
        Some(InputInstr::from_bytes(&buf))
    }

    fn convert(&self, cur: InputInstr, next: Option<&InputInstr>) -> TraceInstr {
        convert_record(cur, next, self.instr_size)
    }
}

/// Turn one ChampSim record into a [`TraceInstr`], deriving the taken
/// target from the next record's `ip` exactly as ChampSim does (see the
/// [`ChampSimReader`] docs for the not-taken convention).
fn convert_record(cur: InputInstr, next: Option<&InputInstr>, size: u8) -> TraceInstr {
    if let Some(class) = cur.classify() {
        let fallthrough = cur.ip + size as u64;
        let taken = cur.branch_taken != 0;
        let target = if taken {
            next.map_or(fallthrough, |n| n.ip)
        } else {
            fallthrough
        };
        return TraceInstr::branch(
            cur.ip,
            size,
            BranchEvent {
                pc: cur.ip,
                target,
                class,
                taken,
            },
        );
    }
    if cur.source_memory[0] != 0 {
        return TraceInstr::mem(cur.ip, size, MemAccess::Load(cur.source_memory[0]));
    }
    if cur.destination_memory[0] != 0 {
        return TraceInstr::mem(cur.ip, size, MemAccess::Store(cur.destination_memory[0]));
    }
    TraceInstr::other(cur.ip, size)
}

impl<R: Read> TraceSource for ChampSimReader<R> {
    fn next_instr(&mut self) -> Option<TraceInstr> {
        let cur = match self.pending.take() {
            Some(c) => c,
            None => self.read_record()?,
        };
        self.pending = self.read_record();
        Some(self.convert(cur, self.pending.as_ref()))
    }

    fn source_name(&self) -> &str {
        &self.name
    }

    fn error(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.error.as_ref().map(|e| e as _)
    }
}

/// Serialize a stream of [`TraceInstr`]s as ChampSim records.
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
pub fn write_champsim<W: Write>(
    mut out: W,
    instrs: impl IntoIterator<Item = TraceInstr>,
) -> io::Result<u64> {
    let mut written = 0u64;
    for instr in instrs {
        let mut rec = InputInstr {
            ip: instr.pc,
            ..InputInstr::default()
        };
        match instr.op {
            Op::Other => {}
            Op::Mem(MemAccess::Load(a)) => rec.source_memory[0] = a,
            Op::Mem(MemAccess::Store(a)) => rec.destination_memory[0] = a,
            Op::Branch(ev) => {
                rec.is_branch = 1;
                rec.branch_taken = ev.taken as u8;
                let (dst, src) = InputInstr::registers_for(ev.class);
                rec.destination_registers = dst;
                rec.source_registers = src;
            }
        }
        out.write_all(&rec.to_bytes())?;
        written += 1;
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_layout_is_64_bytes_and_round_trips() {
        let rec = InputInstr {
            ip: 0xdead_beef_1234,
            is_branch: 1,
            branch_taken: 1,
            destination_registers: [reg::IP, reg::SP],
            source_registers: [reg::IP, reg::SP, 0, 0],
            destination_memory: [0x10, 0],
            source_memory: [0x20, 0x28, 0, 0],
        };
        let bytes = rec.to_bytes();
        assert_eq!(bytes.len(), RECORD_BYTES);
        assert_eq!(InputInstr::from_bytes(&bytes), rec);
    }

    #[test]
    fn classification_covers_all_classes() {
        for class in BranchClass::ALL {
            let (dst, src) = InputInstr::registers_for(class);
            let rec = InputInstr {
                ip: 0x1000,
                is_branch: 1,
                branch_taken: 1,
                destination_registers: dst,
                source_registers: src,
                ..InputInstr::default()
            };
            assert_eq!(rec.classify(), Some(class), "{class}");
        }
    }

    #[test]
    fn non_branch_has_no_class() {
        assert_eq!(InputInstr::default().classify(), None);
    }

    #[test]
    fn reader_derives_target_from_next_ip() {
        let recs = vec![
            // taken direct jump at 0x1000 …
            InputInstr {
                ip: 0x1000,
                is_branch: 1,
                branch_taken: 1,
                destination_registers: InputInstr::registers_for(BranchClass::UncondDirect).0,
                source_registers: InputInstr::registers_for(BranchClass::UncondDirect).1,
                ..InputInstr::default()
            },
            // … lands at 0x2000.
            InputInstr {
                ip: 0x2000,
                ..InputInstr::default()
            },
        ];
        let mut bytes = Vec::new();
        for r in &recs {
            bytes.extend_from_slice(&r.to_bytes());
        }
        let mut reader = ChampSimReader::new(&bytes[..], "t");
        let b = reader.next_instr().unwrap();
        let ev = b.branch_event().unwrap();
        assert_eq!(ev.target, 0x2000);
        assert!(ev.taken);
        let plain = reader.next_instr().unwrap();
        assert_eq!(plain.pc, 0x2000);
        assert!(reader.next_instr().is_none());
    }

    #[test]
    fn writer_reader_round_trip_preserves_semantics() {
        use btbx_core::types::BranchClass;
        let original = vec![
            TraceInstr::other(0x100, 4),
            TraceInstr::mem(0x104, 4, MemAccess::Load(0x9000)),
            TraceInstr::branch(
                0x108,
                4,
                BranchEvent::taken(0x108, 0x200, BranchClass::CallDirect),
            ),
            TraceInstr::other(0x200, 4),
            TraceInstr::branch(0x204, 4, BranchEvent::not_taken(0x204, 0x300)),
            TraceInstr::other(0x208, 4),
        ];
        let mut bytes = Vec::new();
        write_champsim(&mut bytes, original.clone()).unwrap();
        let reader = ChampSimReader::new(&bytes[..], "rt");
        let back: Vec<TraceInstr> = reader.into_iter_instrs().collect();
        assert_eq!(back.len(), original.len());
        for (a, b) in original.iter().zip(&back) {
            assert_eq!(a.pc, b.pc);
            match (a.branch_event(), b.branch_event()) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.class, y.class);
                    assert_eq!(x.taken, y.taken);
                    if x.taken {
                        assert_eq!(x.target, y.target, "taken targets recoverable");
                    }
                }
                (None, None) => {}
                _ => panic!("branchness changed in round trip"),
            }
        }
    }

    #[test]
    fn truncated_trailing_record_is_a_typed_error() {
        let rec = InputInstr {
            ip: 0x1000,
            ..InputInstr::default()
        };
        let mut bytes = rec.to_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3]); // partial second record
        let mut reader = ChampSimReader::new(&bytes[..], "trunc");
        assert_eq!(reader.next_instr().unwrap().pc, 0x1000);
        assert!(reader.next_instr().is_none(), "partial record not emitted");
        match reader.error() {
            Some(ChampSimError::TruncatedRecord { offset, got }) => {
                assert_eq!(*offset, RECORD_BYTES as u64, "damage starts after rec 0");
                assert_eq!(*got, 3);
            }
            other => panic!("expected TruncatedRecord, got {other:?}"),
        }
        // A session over the stream sees the damage too.
        assert!(TraceSource::error(&reader).is_some());
        let err = reader.into_result().unwrap_err();
        assert!(err.to_string().contains("byte 64"), "{err}");
    }

    #[test]
    fn clean_end_of_trace_reports_no_error() {
        let bytes = InputInstr::default().to_bytes();
        let mut reader = ChampSimReader::new(&bytes[..], "clean");
        assert!(reader.next_instr().is_some());
        assert!(reader.next_instr().is_none());
        assert!(reader.error().is_none());
        assert!(reader.into_result().is_ok());
    }

    /// A reader that yields some whole records, then fails.
    struct FailAfter {
        bytes: Vec<u8>,
        served: usize,
    }

    impl io::Read for FailAfter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.served >= self.bytes.len() {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "link died"));
            }
            let n = buf.len().min(self.bytes.len() - self.served);
            buf[..n].copy_from_slice(&self.bytes[self.served..self.served + n]);
            self.served += n;
            Ok(n)
        }
    }

    #[test]
    fn io_failures_are_typed_errors_with_offsets() {
        let mut bytes = Vec::new();
        for ip in [0x10u64, 0x20] {
            bytes.extend_from_slice(
                &InputInstr {
                    ip,
                    ..InputInstr::default()
                }
                .to_bytes(),
            );
        }
        let mut reader = ChampSimReader::new(FailAfter { bytes, served: 0 }, "io");
        assert!(reader.next_instr().is_some());
        // Record 1 is pending (lookahead); record 2's read fails.
        assert!(reader.next_instr().is_some());
        assert!(reader.next_instr().is_none());
        match reader.error() {
            Some(ChampSimError::Io { offset, error }) => {
                assert_eq!(*offset, 2 * RECORD_BYTES as u64);
                assert_eq!(error.kind(), io::ErrorKind::BrokenPipe);
            }
            other => panic!("expected Io, got {other:?}"),
        }
    }
}
