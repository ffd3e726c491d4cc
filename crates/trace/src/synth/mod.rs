//! Synthetic workload generation (the substitution for the proprietary
//! IPC-1 / CVP-1 traces).
//!
//! Split into three stages:
//!
//! 1. [`profile`] — the calibrated statistical profiles: per-branch-kind
//!    offset-length distributions (paper Figures 4/12/13), the branch-kind
//!    mix, x86 instruction lengths, Zipf popularity;
//! 2. [`image`] — building a static [`ProgramImage`]: function sizes and
//!    layout across library regions, layered call graph, intra-function
//!    control flow;
//! 3. [`exec`] — the [`SyntheticTrace`] walker that executes the image and
//!    implements [`crate::TraceSource`].
//!
//! ```
//! use btbx_trace::synth::{ProgramImage, SynthParams, SyntheticTrace};
//! use btbx_trace::TraceSource;
//!
//! let image = ProgramImage::generate(&SynthParams::server(200), 42);
//! let mut trace = SyntheticTrace::new(image, "demo", 42);
//! let first = trace.next_instr().unwrap();
//! assert!(first.pc > 0);
//! ```

pub mod exec;
pub mod image;
pub mod profile;

pub use exec::{SynthCheckpoint, SyntheticTrace};
pub use image::{FuncMeta, Instrs, ProgramImage, SInstr, SKind, SynthParams, INSTR_RECORD_BYTES};
pub use profile::{BranchKindMix, OffsetLengthDist, OffsetProfile, Zipf};
