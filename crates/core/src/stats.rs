//! Access accounting and storage reporting for BTB organizations.
//!
//! [`AccessCounts`] mirrors the access categories of the paper's Table V
//! (reads, writes, and the Page-BTB reads/writes/searches that only PDede
//! and R-BTB incur); [`StorageReport`] itemizes the bit cost of each
//! partition the way Tables III and IV do.

use serde::{Deserialize, Serialize};

/// Dynamic access counters for one BTB instance.
///
/// The main `reads`/`writes` counters cover the primary structure
/// (Conv-BTB, BTB-X including BTB-XC, or PDede's Main-BTB). The `page_*`
/// and `region_*` counters cover the indirection structures of R-BTB and
/// PDede; they stay zero for the other organizations.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessCounts {
    /// Main-structure lookups (every front-end BTB probe).
    pub reads: u64,
    /// Main-structure lookups that hit.
    pub read_hits: u64,
    /// Main-structure entry writes (allocations and target changes).
    pub writes: u64,
    /// Page-BTB pointer-indexed reads (different-page PDede hits, all
    /// R-BTB hits).
    pub page_reads: u64,
    /// Page-BTB entry writes (new page numbers).
    pub page_writes: u64,
    /// Page-BTB associative searches performed on allocation.
    pub page_searches: u64,
    /// Region-BTB reads (different-page PDede hits).
    pub region_reads: u64,
    /// Region-BTB writes (new region numbers).
    pub region_writes: u64,
    /// Region-BTB associative searches performed on allocation.
    pub region_searches: u64,
}

impl AccessCounts {
    /// Main-structure read hit rate in `[0, 1]`; `0` when no reads occurred.
    pub fn hit_rate(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.read_hits as f64 / self.reads as f64
        }
    }

    /// Merge counters from another instance (used when aggregating
    /// per-workload simulations).
    pub fn merge(&mut self, other: &AccessCounts) {
        self.reads += other.reads;
        self.read_hits += other.read_hits;
        self.writes += other.writes;
        self.page_reads += other.page_reads;
        self.page_writes += other.page_writes;
        self.page_searches += other.page_searches;
        self.region_reads += other.region_reads;
        self.region_writes += other.region_writes;
        self.region_searches += other.region_searches;
    }

    /// Reset all counters to zero.
    pub fn reset(&mut self) {
        *self = AccessCounts::default();
    }
}

/// Itemized storage cost of a BTB organization.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageReport {
    /// Organization name (for reports).
    pub name: String,
    /// Total storage in bits, including every partition.
    pub total_bits: u64,
    /// Number of branches the organization can track (paper's Table IV
    /// "Branches" column).
    pub branch_capacity: u64,
    /// Per-partition breakdown: `(partition name, bits)`.
    pub partitions: Vec<(String, u64)>,
}

impl StorageReport {
    /// Total storage in KB (1 KB = 1024 bytes), as the paper reports it.
    pub fn total_kb(&self) -> f64 {
        self.total_bits as f64 / 8.0 / 1024.0
    }

    /// Sum of the partition bits; equals `total_bits` by construction in
    /// all our organizations (checked in tests).
    pub fn partition_sum(&self) -> u64 {
        self.partitions.iter().map(|(_, b)| *b).sum()
    }
}

impl std::fmt::Display for StorageReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.2} KB, {} branches",
            self.name,
            self.total_kb(),
            self.branch_capacity
        )?;
        for (part, bits) in &self.partitions {
            write!(
                f,
                "\n  {part}: {bits} bits ({:.3} KB)",
                *bits as f64 / 8192.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero_reads() {
        assert_eq!(AccessCounts::default().hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_basic() {
        let c = AccessCounts {
            reads: 10,
            read_hits: 7,
            ..AccessCounts::default()
        };
        assert!((c.hit_rate() - 0.7).abs() < 1e-12);
    }

    fn counts(base: u64) -> AccessCounts {
        AccessCounts {
            reads: base + 1,
            read_hits: base + 2,
            writes: base + 3,
            page_reads: base + 4,
            page_writes: base + 5,
            page_searches: base + 6,
            region_reads: base + 7,
            region_writes: base + 8,
            region_searches: base + 9,
        }
    }

    #[test]
    fn merge_adds_every_field() {
        // Two *distinct* operands: a self-merge would hide a field that
        // copies instead of adds (both look like doubling).
        let mut a = counts(0);
        a.merge(&counts(100));
        assert_eq!(
            a,
            AccessCounts {
                reads: 102,
                read_hits: 104,
                writes: 106,
                page_reads: 108,
                page_writes: 110,
                page_searches: 112,
                region_reads: 114,
                region_writes: 116,
                region_searches: 118,
            }
        );
    }

    #[test]
    fn merge_has_the_default_as_identity() {
        let reference = counts(7);
        let mut left = AccessCounts::default();
        left.merge(&reference);
        assert_eq!(left, reference, "identity ⊕ x = x");
        let mut right = reference;
        right.merge(&AccessCounts::default());
        assert_eq!(right, reference, "x ⊕ identity = x");
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let (a, b, c) = (counts(1), counts(50), counts(4000));
        // (a ⊕ b) ⊕ c
        let mut ab = a;
        ab.merge(&b);
        let mut ab_c = ab;
        ab_c.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b;
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "merge order must not matter");
        // b ⊕ a
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "merge commutes");
    }

    #[test]
    fn storage_report_kb() {
        let r = StorageReport {
            name: "test".into(),
            total_bits: 8 * 1024 * 8,
            branch_capacity: 1,
            partitions: vec![("main".into(), 8 * 1024 * 8)],
        };
        assert!((r.total_kb() - 8.0).abs() < 1e-12);
        assert_eq!(r.partition_sum(), r.total_bits);
        assert!(r.to_string().contains("test"));
    }
}
