//! The memory hierarchy of Table II: split L1-I/L1-D, unified L2, LLC and
//! main memory, wired for demand accesses and FDIP prefetch fills.

use crate::cache::{block_of, Cache, CacheStats, Probe};
use crate::config::SimConfig;

/// Which L1 a request enters through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Port {
    /// Instruction fetch (L1-I).
    Instr,
    /// Data access (L1-D).
    Data,
}

/// The full cache hierarchy.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    llc: Cache,
    memory_latency: u32,
}

impl Hierarchy {
    /// Build the hierarchy from a simulation configuration.
    pub fn new(config: &SimConfig) -> Self {
        Hierarchy {
            l1i: Cache::new("L1I", config.l1i),
            l1d: Cache::new("L1D", config.l1d),
            l2: Cache::new("L2", config.l2),
            llc: Cache::new("LLC", config.llc),
            memory_latency: config.memory_latency,
        }
    }

    /// Demand access for the byte at `addr` entering through `port` at
    /// cycle `now`; returns the cycle the data is usable.
    pub fn access(&mut self, port: Port, addr: u64, now: u64) -> u64 {
        let block = block_of(addr);
        let l1 = match port {
            Port::Instr => &mut self.l1i,
            Port::Data => &mut self.l1d,
        };
        match l1.probe(block, now) {
            Probe::Hit(t) | Probe::Pending(t) => t,
            Probe::Miss(start) => {
                let l1_lat = l1.latency as u64;
                let fill = self.lower_access(block, start + l1_lat);
                let l1 = match port {
                    Port::Instr => &mut self.l1i,
                    Port::Data => &mut self.l1d,
                };
                l1.record_fill(block, fill, false);
                fill
            }
        }
    }

    /// FDIP prefetch of the instruction block containing `addr`; returns
    /// `true` if a prefetch was issued (an L1-I MSHR was allocated).
    pub fn prefetch_instr(&mut self, addr: u64, now: u64) -> bool {
        let block = block_of(addr);
        let Some(start) = self.l1i.probe_prefetch(block, now) else {
            return false;
        };
        let l1_lat = self.l1i.latency as u64;
        let fill = self.lower_access(block, start + l1_lat);
        self.l1i.record_fill(block, fill, true);
        true
    }

    fn lower_access(&mut self, block: u64, now: u64) -> u64 {
        match self.l2.probe(block, now) {
            Probe::Hit(t) | Probe::Pending(t) => t,
            Probe::Miss(start) => {
                let l2_lat = self.l2.latency as u64;
                let fill = match self.llc.probe(block, start + l2_lat) {
                    Probe::Hit(t) | Probe::Pending(t) => t,
                    Probe::Miss(llc_start) => {
                        let f = llc_start + self.llc.latency as u64 + self.memory_latency as u64;
                        self.llc.record_fill(block, f, false);
                        f
                    }
                };
                self.l2.record_fill(block, fill, false);
                fill
            }
        }
    }

    /// Per-level statistics `(L1I, L1D, L2, LLC)`.
    pub fn stats(&self) -> (CacheStats, CacheStats, CacheStats, CacheStats) {
        (
            self.l1i.stats(),
            self.l1d.stats(),
            self.l2.stats(),
            self.llc.stats(),
        )
    }

    /// Reset statistics at the warm-up boundary (contents preserved).
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.llc.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> Hierarchy {
        Hierarchy::new(&SimConfig::default())
    }

    #[test]
    fn l1i_hit_costs_l1i_latency() {
        let mut h = hierarchy();
        let _ = h.access(Port::Instr, 0x1000, 0); // cold fill
        let ready = h.access(Port::Instr, 0x1000, 1000);
        assert_eq!(ready, 1004);
    }

    #[test]
    fn cold_instruction_miss_goes_to_memory() {
        let mut h = hierarchy();
        let ready = h.access(Port::Instr, 0x1000, 0);
        // L1I(4) + L2(15) + LLC(35) + memory(200) = 254.
        assert_eq!(ready, 254);
    }

    #[test]
    fn l2_hit_path_is_much_cheaper() {
        let mut h = hierarchy();
        let _ = h.access(Port::Instr, 0x1000, 0);
        // Evict from tiny L1I by touching 9 conflicting blocks (8 ways);
        // blocks conflict when block % 64 matches.
        for i in 1..=9u64 {
            let _ = h.access(Port::Instr, 0x1000 + i * 64 * 64, 10_000 * i);
        }
        let ready = h.access(Port::Instr, 0x1000, 200_000);
        // L1I miss (4) + L2 hit (15): well under a memory access.
        assert!(ready <= 200_000 + 4 + 15, "ready {ready}");
    }

    #[test]
    fn data_and_instruction_paths_are_separate() {
        let mut h = hierarchy();
        let _ = h.access(Port::Instr, 0x1000, 0);
        // Same address through the data port still misses L1D (hits L2).
        let ready = h.access(Port::Data, 0x1000, 1000);
        assert!(ready > 1005, "L1D must not hit on an L1I fill");
        let (l1i, l1d, _, _) = h.stats();
        assert_eq!(l1i.accesses, 1);
        assert_eq!(l1d.accesses, 1);
    }

    #[test]
    fn prefetch_then_demand_hit() {
        let mut h = hierarchy();
        assert!(h.prefetch_instr(0x2000, 0));
        // After the fill completes, the demand access is an L1I hit.
        let ready = h.access(Port::Instr, 0x2000, 300);
        assert_eq!(ready, 304);
        let (l1i, ..) = h.stats();
        assert_eq!(l1i.prefetches, 1);
        assert_eq!(l1i.prefetch_hits, 1);
    }

    #[test]
    fn late_prefetch_still_shortens_the_miss() {
        let mut h = hierarchy();
        assert!(h.prefetch_instr(0x3000, 0));
        // Demand arrives while the prefetch is in flight: it merges and
        // waits until the prefetch fill, not a fresh memory access.
        let ready = h.access(Port::Instr, 0x3000, 10);
        assert_eq!(ready, 254, "merged with the in-flight prefetch");
    }

    #[test]
    fn duplicate_prefetch_is_dropped() {
        let mut h = hierarchy();
        assert!(h.prefetch_instr(0x4000, 0));
        assert!(!h.prefetch_instr(0x4000, 1));
    }
}
