//! Set-associative caches with MSHR-based miss tracking.
//!
//! Timing model: a lookup at cycle `t` returns the cycle at which the data
//! is usable. Hits cost the level's latency; misses allocate an MSHR and
//! are filled by the next level (the hierarchy wires levels together).
//! Concurrent misses to the same block merge into one MSHR (one fill
//! serves all), and a full MSHR file back-pressures demand accesses —
//! both first-order effects for FDIP, which keeps many instruction misses
//! in flight (Table II gives the L1-I just 8 MSHRs).

use crate::config::CacheParams;
use btbx_core::replacement::LruSet;
use btbx_core::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use serde::{Deserialize, Serialize};

/// Cache block size (bytes) used throughout the hierarchy.
pub const BLOCK_BYTES: u64 = 64;

/// Convert a byte address to a block address.
#[inline]
pub fn block_of(addr: u64) -> u64 {
    addr / BLOCK_BYTES
}

/// Per-cache access statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Demand lookups.
    pub accesses: u64,
    /// Demand hits (tag present and fill already complete).
    pub hits: u64,
    /// Demand lookups that merged into an in-flight miss.
    pub mshr_merges: u64,
    /// Demand misses that allocated a new MSHR.
    pub misses: u64,
    /// Cycles lost waiting for a free MSHR.
    pub mshr_stall_cycles: u64,
    /// Prefetches issued (allocated an MSHR).
    pub prefetches: u64,
    /// Prefetches dropped (hit, already in flight, or MSHRs full).
    pub prefetch_drops: u64,
    /// Demand hits on blocks brought in by a prefetch (useful
    /// prefetches).
    pub prefetch_hits: u64,
}

impl CacheStats {
    /// Demand miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            (self.misses + self.mshr_merges) as f64 / self.accesses as f64
        }
    }

    /// Merge counters (for aggregation across runs).
    pub fn merge(&mut self, o: &CacheStats) {
        self.accesses += o.accesses;
        self.hits += o.hits;
        self.mshr_merges += o.mshr_merges;
        self.misses += o.misses;
        self.mshr_stall_cycles += o.mshr_stall_cycles;
        self.prefetches += o.prefetches;
        self.prefetch_drops += o.prefetch_drops;
        self.prefetch_hits += o.prefetch_hits;
    }
}

#[derive(Debug, Clone, Copy)]
struct Mshr {
    block: u64,
    fill_at: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    block: u64,
    prefetched: bool,
}

const INVALID: Line = Line {
    block: u64::MAX,
    prefetched: false,
};

/// Outcome of a cache probe, before next-level involvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Present; data usable at the contained cycle.
    Hit(u64),
    /// An in-flight miss already covers this block; usable at fill time.
    Pending(u64),
    /// Genuine miss; the caller must fetch from the next level, starting
    /// no earlier than the contained cycle (accounts for MSHR stalls).
    Miss(u64),
}

/// One cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    name: &'static str,
    sets: usize,
    ways: usize,
    /// Hit latency (cycles).
    pub latency: u32,
    lines: Vec<Line>,
    lru: Vec<LruSet>,
    mshrs: Vec<Mshr>,
    mshr_capacity: usize,
    stats: CacheStats,
}

impl Cache {
    /// Build a cache level from parameters.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield at least one set.
    pub fn new(name: &'static str, params: CacheParams) -> Self {
        let sets = params.sets();
        assert!(sets > 0, "{name}: geometry yields zero sets");
        Cache {
            name,
            sets,
            ways: params.ways,
            latency: params.latency,
            lines: vec![INVALID; sets * params.ways],
            lru: vec![LruSet::new(params.ways); sets],
            mshrs: Vec::with_capacity(params.mshrs),
            mshr_capacity: params.mshrs,
            stats: CacheStats::default(),
        }
    }

    /// Level name (for reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset statistics (contents preserved — used at the warm-up
    /// boundary).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn set_of(&self, block: u64) -> usize {
        (block % self.sets as u64) as usize
    }

    fn expire_mshrs(&mut self, now: u64) {
        self.mshrs.retain(|m| m.fill_at > now);
    }

    fn find(&self, block: u64) -> Option<(usize, usize)> {
        let set = self.set_of(block);
        let base = set * self.ways;
        (0..self.ways)
            .find(|&w| self.lines[base + w].block == block)
            .map(|w| (set, w))
    }

    /// Demand probe at cycle `now`.
    pub fn probe(&mut self, block: u64, now: u64) -> Probe {
        self.expire_mshrs(now);
        self.stats.accesses += 1;
        if let Some((set, way)) = self.find(block) {
            self.lru[set].touch(way);
            let line = &mut self.lines[set * self.ways + way];
            if line.prefetched {
                // Useful prefetch: demand touched a prefetched block
                // (possibly while its fill is still in flight — a late
                // but still useful prefetch).
                line.prefetched = false;
                self.stats.prefetch_hits += 1;
            }
            // The tag is installed at miss time; the data is usable only
            // once the corresponding fill completes.
            if let Some(m) = self.mshrs.iter().find(|m| m.block == block) {
                self.stats.mshr_merges += 1;
                return Probe::Pending(m.fill_at.max(now + self.latency as u64));
            }
            self.stats.hits += 1;
            return Probe::Hit(now + self.latency as u64);
        }
        if let Some(m) = self.mshrs.iter().find(|m| m.block == block) {
            // The line was evicted while its fill is still in flight.
            self.stats.mshr_merges += 1;
            return Probe::Pending(m.fill_at.max(now + self.latency as u64));
        }
        // Miss. If the MSHR file is full, the access must wait for the
        // earliest fill to free a slot.
        let mut start = now;
        if self.mshrs.len() >= self.mshr_capacity {
            let earliest = self.mshrs.iter().map(|m| m.fill_at).min().unwrap();
            self.stats.mshr_stall_cycles += earliest.saturating_sub(now);
            start = earliest;
            self.mshrs.retain(|m| m.fill_at > start);
        }
        self.stats.misses += 1;
        Probe::Miss(start)
    }

    /// Record an outstanding miss filling at `fill_at`, and install the
    /// block (victim chosen by LRU). `prefetched` marks prefetch fills
    /// for usefulness accounting.
    pub fn record_fill(&mut self, block: u64, fill_at: u64, prefetched: bool) {
        debug_assert!(
            self.mshrs.len() < self.mshr_capacity,
            "{}: MSHR overflow",
            self.name
        );
        self.mshrs.push(Mshr { block, fill_at });
        let set = self.set_of(block);
        let base = set * self.ways;
        let way = (0..self.ways)
            .find(|&w| self.lines[base + w] == INVALID)
            .unwrap_or_else(|| self.lru[set].victim());
        self.lines[base + way] = Line { block, prefetched };
        self.lru[set].touch(way);
    }

    /// Prefetch probe: returns `Some(start_cycle)` when a prefetch should
    /// be issued to the next level, `None` when it should be dropped
    /// (already present, already in flight, or no MSHR available —
    /// prefetches never stall for MSHRs).
    pub fn probe_prefetch(&mut self, block: u64, now: u64) -> Option<u64> {
        self.expire_mshrs(now);
        if self.find(block).is_some() || self.mshrs.iter().any(|m| m.block == block) {
            self.stats.prefetch_drops += 1;
            return None;
        }
        if self.mshrs.len() >= self.mshr_capacity {
            self.stats.prefetch_drops += 1;
            return None;
        }
        self.stats.prefetches += 1;
        Some(now)
    }
}

impl Snapshot for CacheStats {
    fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.accesses);
        w.u64(self.hits);
        w.u64(self.mshr_merges);
        w.u64(self.misses);
        w.u64(self.mshr_stall_cycles);
        w.u64(self.prefetches);
        w.u64(self.prefetch_drops);
        w.u64(self.prefetch_hits);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.accesses = r.u64()?;
        self.hits = r.u64()?;
        self.mshr_merges = r.u64()?;
        self.misses = r.u64()?;
        self.mshr_stall_cycles = r.u64()?;
        self.prefetches = r.u64()?;
        self.prefetch_drops = r.u64()?;
        self.prefetch_hits = r.u64()?;
        Ok(())
    }
}

impl Snapshot for Cache {
    fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.sets as u64);
        w.u64(self.ways as u64);
        w.u64(self.mshr_capacity as u64);
        for line in &self.lines {
            w.u64(line.block);
            w.bool(line.prefetched);
        }
        for l in &self.lru {
            l.save_state(w);
        }
        w.u64(self.mshrs.len() as u64);
        for m in &self.mshrs {
            w.u64(m.block);
            w.u64(m.fill_at);
        }
        self.stats.save_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.expect_u64(self.sets as u64, "cache set count")?;
        r.expect_u64(self.ways as u64, "cache way count")?;
        r.expect_u64(self.mshr_capacity as u64, "cache mshr capacity")?;
        for line in &mut self.lines {
            *line = Line {
                block: r.u64()?,
                prefetched: r.bool()?,
            };
        }
        for l in &mut self.lru {
            l.restore_state(r)?;
        }
        let inflight = r.u64()? as usize;
        if inflight > self.mshr_capacity {
            return Err(SnapError::Corrupt("cache mshr occupancy exceeds capacity"));
        }
        self.mshrs.clear();
        for _ in 0..inflight {
            self.mshrs.push(Mshr {
                block: r.u64()?,
                fill_at: r.u64()?,
            });
        }
        self.stats.restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        Cache::new(
            "t",
            CacheParams {
                bytes: 8 * 64, // 8 blocks
                ways: 2,
                latency: 4,
                mshrs: 2,
            },
        )
    }

    #[test]
    fn cold_miss_then_pending_merge() {
        let mut c = tiny();
        match c.probe(10, 0) {
            Probe::Miss(start) => {
                assert_eq!(start, 0);
                c.record_fill(10, 50, false);
            }
            p => panic!("expected miss, got {p:?}"),
        }
        // Before the fill completes, a second access merges and waits for
        // the fill — it must NOT look like a 4-cycle hit.
        assert_eq!(c.probe(10, 10), Probe::Pending(50));
    }

    #[test]
    fn pending_merge_returns_fill_time() {
        let mut c = tiny();
        assert!(matches!(c.probe(10, 0), Probe::Miss(_)));
        c.record_fill(10, 100, false);
        match c.probe(10, 5) {
            Probe::Pending(t) => assert_eq!(t, 100),
            p => panic!("in-flight block must merge, got {p:?}"),
        }
        assert_eq!(c.stats().mshr_merges, 1);
    }

    #[test]
    fn hit_after_fill_expires() {
        let mut c = tiny();
        assert!(matches!(c.probe(10, 0), Probe::Miss(_)));
        c.record_fill(10, 50, false);
        match c.probe(10, 60) {
            Probe::Hit(t) => assert_eq!(t, 64),
            p => panic!("expected plain hit, got {p:?}"),
        }
    }

    #[test]
    fn mshr_full_delays_start() {
        let mut c = tiny(); // 2 MSHRs
        assert!(matches!(c.probe(1, 0), Probe::Miss(_)));
        c.record_fill(1, 100, false);
        assert!(matches!(c.probe(2, 0), Probe::Miss(_)));
        c.record_fill(2, 120, false);
        match c.probe(3, 0) {
            Probe::Miss(start) => assert_eq!(start, 100, "waits for earliest fill"),
            p => panic!("{p:?}"),
        }
        assert!(c.stats().mshr_stall_cycles >= 100);
    }

    #[test]
    fn lru_evicts_cold_block() {
        let mut c = tiny(); // 4 sets × 2 ways; blocks 0,4,8 share set 0
        for b in [0u64, 4, 8] {
            if let Probe::Miss(_) = c.probe(b, 0) {
                c.record_fill(b, 0, false);
            }
        }
        // Block 0 was LRU; it must be gone. 4 and 8 remain.
        assert!(matches!(c.probe(0, 10), Probe::Miss(_)));
    }

    #[test]
    fn prefetch_dropped_when_present_or_full() {
        let mut c = tiny();
        if let Probe::Miss(_) = c.probe(1, 0) {
            c.record_fill(1, 10, false);
        }
        assert!(c.probe_prefetch(1, 0).is_none(), "present → drop");
        assert!(c.probe_prefetch(2, 0).is_some());
        c.record_fill(2, 30, true);
        assert!(c.probe_prefetch(3, 0).is_none(), "MSHRs full → drop");
        assert_eq!(c.stats().prefetch_drops, 2);
    }

    #[test]
    fn prefetch_hit_is_counted_once() {
        let mut c = tiny();
        let start = c.probe_prefetch(7, 0).unwrap();
        c.record_fill(7, start + 20, true);
        // Demand access after the fill: a useful prefetch.
        assert!(matches!(c.probe(7, 30), Probe::Hit(_)));
        assert_eq!(c.stats().prefetch_hits, 1);
        // Second access is a plain hit.
        assert!(matches!(c.probe(7, 40), Probe::Hit(_)));
        assert_eq!(c.stats().prefetch_hits, 1);
    }

    #[test]
    fn miss_ratio_math() {
        let s = CacheStats {
            accesses: 10,
            misses: 2,
            mshr_merges: 1,
            ..CacheStats::default()
        };
        assert!((s.miss_ratio() - 0.3).abs() < 1e-12);
    }
}
