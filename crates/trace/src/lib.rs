//! Trace substrate for the BTB-X reproduction.
//!
//! The paper evaluates on proprietary Qualcomm traces (IPC-1 and CVP-1)
//! and on x86 server applications. Those inputs are not redistributable,
//! so this crate provides — per the reproduction's substitution policy —
//! everything needed to exercise the same code paths:
//!
//! * [`record`] — the instruction record every consumer shares
//!   ([`TraceInstr`]), carrying branch and memory semantics;
//! * [`source`] — the [`TraceSource`] streaming abstraction with
//!   combinators (`take`, `skip`) used by the simulator;
//! * [`champsim`] — a streaming parser/writer for the 64-byte ChampSim
//!   `input_instr` format, including ChampSim's register-based branch
//!   classification and typed truncation errors. ChampSim is an import
//!   format: real IPC-1 traces are converted to `.btbt` containers
//!   (`btbx trace convert`) before they are replayed;
//! * [`packed`] — 16-byte-per-event SoA buffers ([`PackedBuf`]) for the
//!   few places that still buffer events;
//! * [`container`] — the on-disk `.btbt` form of the packed format and
//!   the only trace file format that replays: an indexed block container
//!   whose [`PackedFileSource`] seeks in O(1), bringing file-backed
//!   traces onto the sharded streaming engine;
//! * [`any`] — [`AnySource`], the unified synthetic / packed-file entry
//!   point every consumer (sessions, sweeps, benches) builds its streams
//!   through;
//! * [`synth`] — the synthetic workload generator: a seeded program image
//!   (functions, basic blocks, calls across pages and library regions)
//!   plus a dynamic walker that emits instruction streams whose branch
//!   offset distribution matches the paper's Figure 4 and whose branch
//!   working sets range from client-small to server-huge;
//! * [`suite`] — named workload specs mirroring the paper's
//!   `client_001..008` / `server_001..039` sets, a CVP-1-like family, and
//!   the five x86 applications of Figure 13;
//! * [`stats`] — trace-level statistics (dynamic branch mix, working-set
//!   sizes, offset histogram feed).

pub mod any;
pub mod champsim;
pub mod container;
pub mod packed;
pub mod record;
pub mod source;
pub mod stats;
pub mod suite;
pub mod synth;

pub use any::{AnyCheckpoint, AnySource, TraceOpenError};
pub use container::{ContainerInfo, ContainerWriter, PackedFileSource};
pub use packed::{PackedBuf, PackedInstr};
pub use record::{MemAccess, Op, TraceInstr};
pub use source::{SeekableSource, TraceSource};
pub use stats::TraceStats;
pub use suite::{Suite, TraceRef, WorkloadSpec};
pub use synth::{SynthCheckpoint, SynthParams, SyntheticTrace};
