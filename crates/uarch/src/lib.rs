//! Front-end microarchitecture simulator for the BTB-X reproduction.
//!
//! This crate is the stand-in for the paper's (modified) ChampSim: a
//! trace-driven, cycle-based model of an Intel Sunny-Cove-like core front
//! end (Table II) with the two methodological changes of Section VI-A
//! built in natively:
//!
//! 1. a *realistic* BTB (a [`btbx_core::BtbEngine`], or any other
//!    [`btbx_core::Btb`]) instead of ChampSim's implicit oracle BTB, and
//! 2. decode-stage resteer for BTB-missing unconditional direct branches
//!    and taken-predicted conditionals (instead of execute-stage-only
//!    resolution), plus commit-time, taken-only BTB updates.
//!
//! Modules:
//!
//! * [`config`] — the Table II parameter set plus model depths;
//! * [`perceptron`] — a hashed perceptron direction predictor;
//! * [`ras`] — the 64-entry return address stack;
//! * [`bpu`] — the branch prediction unit combining BTB + direction
//!   predictor + RAS and classifying per-instruction outcomes;
//! * [`cache`] — set-associative caches with MSHRs;
//! * [`hierarchy`] — the L1I/L1D/L2/LLC memory hierarchy;
//! * [`ftq`] — the fetch target queue that decouples prediction from
//!   fetch;
//! * [`fdip`] — the fetch-directed instruction prefetcher scanning the
//!   FTQ;
//! * [`sim`] — the cycle loop tying everything together;
//! * [`stats`] — IPC, MPKI, flush and energy-relevant access statistics;
//! * [`runner`] — the panic-safe work-queue thread pool;
//! * [`parallel`] — the [`ParallelSession`] builder, kept for older
//!   callers: one serial run with telemetry;
//! * [`batch`] — batched multi-lane execution: many org×budget lanes,
//!   each a solo session over a clone of one shared trace source.
//!
//! # Model fidelity
//!
//! The backend is deliberately simplified relative to a full OoO core:
//! instructions complete at `fetch + frontend_depth (+ memory latency)`
//! and commit in order (≤ 6/cycle) bounded by a 352-entry ROB; there is no
//! register dependence tracking. Front-end behaviour — the subject of the
//! paper — is modelled in detail: FTQ occupancy, per-block L1-I access
//! with MSHR merging, FDIP prefetch, decode- vs execute-stage resteer
//! bubbles, and wrong-path accounting. DESIGN.md discusses the
//! substitution.

pub mod batch;
pub mod bpu;
pub mod cache;
pub mod config;
pub mod fdip;
pub mod ftq;
pub mod hierarchy;
pub mod parallel;
pub mod perceptron;
pub mod ras;
pub mod runner;
pub mod session;
pub mod sim;
pub mod stats;

pub use batch::{BatchLane, BatchSession};
pub use config::SimConfig;
pub use parallel::{ParallelOutcome, ParallelSession, ParallelTelemetry};
pub use session::{run_resumed, SessionError, SimSession};
pub use sim::Simulator;
pub use stats::{SimResult, SimStats};
