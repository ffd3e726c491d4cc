//! Aggregate simulation statistics: IPC, BTB MPKI, flush and prefetch
//! accounting — the raw material for the paper's Figures 9–11 and
//! Table V.

use crate::bpu::BpuStats;
use crate::cache::CacheStats;
use crate::fdip::FdipStats;
use btbx_core::stats::AccessCounts;
use serde::{Deserialize, Serialize};

/// Statistics over the measurement window of one simulation.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimStats {
    /// Committed instructions.
    pub instructions: u64,
    /// Elapsed cycles.
    pub cycles: u64,
    /// Branch prediction unit counters.
    pub bpu: BpuStats,
    /// L1 instruction cache counters.
    pub l1i: CacheStats,
    /// L1 data cache counters.
    pub l1d: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// LLC counters.
    pub llc: CacheStats,
    /// FDIP counters.
    pub fdip: FdipStats,
    /// BTB access counters (reads/writes/page searches) for the Table V
    /// energy analysis.
    pub btb_counts: AccessCounts,
    /// Cycles the BPU was stalled on an unresolved misprediction: the
    /// window in which a real front-end would fetch the wrong path.
    pub bubble_cycles: u64,
    /// Cycles fetch found an empty FTQ.
    pub fetch_starved_cycles: u64,
    /// Cycles fetch was blocked by a full ROB.
    pub rob_full_cycles: u64,
    /// Estimated wrong-path BTB lookups: `bubble_cycles ×` half the fetch
    /// width. Trace-driven simulation cannot replay the wrong path, so
    /// Table V charges this estimate on top of correct-path reads, as
    /// discussed in DESIGN.md.
    pub wrong_path_btb_reads: u64,
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Taken-branch BTB misses per kilo-instruction (Figure 9's metric).
    pub fn btb_mpki(&self) -> f64 {
        self.bpu.btb_mpki(self.instructions)
    }

    /// Pipeline flushes per kilo-instruction.
    pub fn flush_pki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.bpu.flushes() as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// L1-I demand misses per kilo-instruction.
    pub fn l1i_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            (self.l1i.misses + self.l1i.mshr_merges) as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Total BTB reads charged for energy: correct-path lookups plus the
    /// wrong-path estimate.
    pub fn btb_reads_for_energy(&self) -> u64 {
        self.btb_counts.reads + self.wrong_path_btb_reads
    }

    /// Merge every counter from another measurement window (derived
    /// metrics like IPC are recomputed from the merged counters, never
    /// averaged).
    pub fn merge(&mut self, o: &SimStats) {
        self.instructions += o.instructions;
        self.cycles += o.cycles;
        self.bpu.merge(&o.bpu);
        self.l1i.merge(&o.l1i);
        self.l1d.merge(&o.l1d);
        self.l2.merge(&o.l2);
        self.llc.merge(&o.llc);
        self.fdip.merge(&o.fdip);
        self.btb_counts.merge(&o.btb_counts);
        self.bubble_cycles += o.bubble_cycles;
        self.fetch_starved_cycles += o.fetch_starved_cycles;
        self.rob_full_cycles += o.rob_full_cycles;
        self.wrong_path_btb_reads += o.wrong_path_btb_reads;
    }
}

/// A finished simulation: workload/organization identity plus statistics.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimResult {
    /// Workload name.
    pub workload: String,
    /// BTB organization id (`conv`, `pdede`, `btbx`, …).
    pub org: String,
    /// Whether FDIP was enabled.
    pub fdip_enabled: bool,
    /// Storage budget in bits for the BTB under test.
    pub btb_budget_bits: u64,
    /// Measurement-window statistics.
    pub stats: SimStats,
}

impl SimResult {
    /// Speedup of this run's IPC over a baseline IPC.
    pub fn speedup_over(&self, baseline_ipc: f64) -> f64 {
        if baseline_ipc == 0.0 {
            0.0
        } else {
            self.stats.ipc() / baseline_ipc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(SimStats::default().ipc(), 0.0);
    }

    #[test]
    fn derived_metrics() {
        let stats = SimStats {
            instructions: 10_000,
            cycles: 5_000,
            bpu: BpuStats {
                btb_miss_taken: 50,
                decode_resteers: 30,
                execute_resteers: 20,
                ..BpuStats::default()
            },
            ..SimStats::default()
        };
        assert!((stats.ipc() - 2.0).abs() < 1e-12);
        assert!((stats.btb_mpki() - 5.0).abs() < 1e-12);
        assert!((stats.flush_pki() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn energy_reads_include_wrong_path() {
        let mut stats = SimStats::default();
        stats.btb_counts.reads = 100;
        stats.wrong_path_btb_reads = 40;
        assert_eq!(stats.btb_reads_for_energy(), 140);
    }

    #[test]
    fn speedup_is_relative() {
        let r = SimResult {
            workload: "w".into(),
            org: "btbx".into(),
            fdip_enabled: true,
            btb_budget_bits: 0,
            stats: SimStats {
                instructions: 100,
                cycles: 50,
                ..SimStats::default()
            },
        };
        assert!((r.speedup_over(1.0) - 2.0).abs() < 1e-12);
        assert_eq!(r.speedup_over(0.0), 0.0);
    }
}
