//! Experiment harness for the BTB-X reproduction.
//!
//! One binary — `btbx` — regenerates every paper table and figure through
//! subcommands (`btbx fig 9`, `btbx table 3`, `btbx all`, `btbx sweep`);
//! see EXPERIMENTS.md for the CLI guide. The machinery:
//!
//! * [`registry`] — the table of every runnable experiment; the CLI
//!   derives dispatch, `btbx list` and `btbx all` from it;
//! * [`figures`] — one `run(&HarnessOpts)` function per experiment;
//! * [`sweep`] — declarative workloads × orgs × budgets × FDIP matrices
//!   ([`Sweep`]), serde-serializable and executed behind a
//!   content-addressed per-simulation cache keyed by *all* parameters
//!   (workload, organization, budget, windows, `SimConfig`);
//! * [`experiments`] — the named sweeps behind the figures
//!   (`eval_matrix`, `budget_sweep`) and the offset-study drivers;
//! * [`opts`] — shared command-line options (`--warmup`, `--measure`,
//!   `--quick`, `--fresh`, `--threads`, `--out`), `Result`-based;
//! * [`faults`] — deterministic fault-injection plans (JSON) armed via
//!   `BTBX_FAULT_PLAN`, driving the I/O seam in `btbx_core::faults`;
//! * [`journal`] — an fsync'd append-only record file that no sweep
//!   writes, kept for the benchmark harness's append timing;
//! * [`store`] — the durable per-point result cache ([`ResultStore`])
//!   over one directory (`<out>/cache`, or a server's `cache_dir`):
//!   atomic temp-file+rename writes, corrupt-entry quarantine, and
//!   process-wide single-flight computation, shared by sweeps and the
//!   server. It is also the crash-recovery record: rerunning a killed
//!   sweep recomputes only the points it has no entry for;
//! * [`serve`] — `btbx serve`, a long-lived JSON-over-HTTP simulation
//!   service deduplicating concurrent requests through the store;
//! * [`report`] — text/CSV emission helpers.

pub mod experiments;
pub mod faults;
pub mod figures;
pub mod journal;
pub mod opts;
pub mod registry;
pub mod report;
pub mod serve;
pub mod store;
pub mod sweep;

pub use opts::HarnessOpts;
pub use store::ResultStore;
pub use sweep::{SimPoint, Sweep};
