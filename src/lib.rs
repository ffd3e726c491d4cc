//! # btbx — reproduction of “A Storage-Effective BTB Organization for Servers”
//!
//! This facade crate re-exports the workspace crates that together
//! reproduce Asheim, Grot and Kumar's HPCA 2023 paper:
//!
//! * [`core`] (`btbx-core`) — the BTB organizations: conventional,
//!   Seznec R-BTB, PDede, and the paper's BTB-X (+BTB-XC), together with
//!   the storage models behind Tables III/IV;
//! * [`trace`] (`btbx-trace`) — trace records, a ChampSim-compatible
//!   parser, and the synthetic IPC-1/CVP-1/x86 workload generators;
//! * [`uarch`] (`btbx-uarch`) — the front-end simulator: hashed-perceptron
//!   direction prediction, RAS, FTQ, FDIP instruction prefetching, the
//!   L1I/L1D/L2/LLC hierarchy, and the cycle-level pipeline model;
//! * [`energy`] (`btbx-energy`) — the calibrated SRAM energy/latency model
//!   standing in for Cacti 7.0 (Table V);
//! * [`analysis`] (`btbx-analysis`) — offset-distribution statistics,
//!   metric aggregation and table/CSV rendering.
//!
//! ## Quick start
//!
//! Describe a BTB with a validated [`BtbSpec`], then either probe it
//! directly or drive a full front-end simulation through a
//! [`SimSession`]:
//!
//! ```
//! use btbx::core::storage::BudgetPoint;
//! use btbx::core::OrgKind;
//! use btbx::{BtbSpec, SimSession};
//! use btbx::trace::suite;
//!
//! // The paper's default evaluation point: BTB-X at 14.5 KB on Arm64.
//! let spec = BtbSpec::of(OrgKind::BtbX).at(BudgetPoint::Kb14_5);
//! let btb = spec.build_engine().expect("a valid budget");
//! assert!(btb.branch_capacity() > 4000);
//!
//! // A short simulation of an IPC-1-like client workload.
//! let workload = &suite::ipc1_client()[0];
//! let result = SimSession::new(workload.build_trace())
//!     .btb_spec(spec)
//!     .warmup(10_000)
//!     .measure(20_000)
//!     .run()
//!     .expect("valid session");
//! assert!(result.stats.ipc() > 0.0);
//! ```
//!
//! See `examples/` for end-to-end studies. Every table and figure in the
//! paper is regenerated by the `btbx` CLI in `crates/bench`
//! (`cargo run --release -p btbx-bench --bin btbx -- all`); EXPERIMENTS.md
//! documents the CLI and its result cache.

pub use btbx_analysis as analysis;
pub use btbx_core as core;
pub use btbx_energy as energy;
pub use btbx_trace as trace;
pub use btbx_uarch as uarch;

pub use btbx_core::spec::{BtbSpec, Budget, SpecError};
pub use btbx_uarch::{SessionError, SimSession};
