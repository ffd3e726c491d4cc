//! Replacement policies for set-associative BTB partitions.
//!
//! All organizations in the paper use true LRU within a set; BTB-X uses a
//! *modified* LRU that restricts the victim search to the ways whose offset
//! field is wide enough for the incoming branch while leaving recency
//! bookkeeping untouched (Section V-B). [`LruSet`] provides the shared
//! recency machinery; the modification lives in the victim-selection
//! methods that accept an eligibility mask.

/// True-LRU recency state for one set of up to 64 ways.
///
/// Each way holds an age in `0..ways`; age `0` is most-recently used and
/// `ways - 1` least-recently used. The encoding matches the `rep_policy`
/// counter bits the paper charges to each entry (3 bits for 8 ways).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LruSet {
    age: Vec<u8>,
}

impl LruSet {
    /// A set with `ways` ways, initially aged oldest-first so empty ways
    /// are consumed in way order.
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0` or `ways > 64`.
    pub fn new(ways: usize) -> Self {
        assert!(ways > 0 && ways <= 64, "unsupported associativity {ways}");
        LruSet {
            age: (0..ways as u8).collect(),
        }
    }

    /// Number of ways tracked.
    #[inline]
    pub fn ways(&self) -> usize {
        self.age.len()
    }

    /// Recency age of `way` (0 = MRU).
    #[inline]
    pub fn age(&self, way: usize) -> u8 {
        self.age[way]
    }

    /// Mark `way` as most-recently used, ageing every way that was younger.
    ///
    /// This is the unmodified part of BTB-X's policy: hits and allocations
    /// update recency exactly as baseline LRU does.
    pub fn touch(&mut self, way: usize) {
        let old = self.age[way];
        for a in &mut self.age {
            if *a < old {
                *a += 1;
            }
        }
        self.age[way] = 0;
    }

    /// The least-recently-used way among all ways.
    pub fn victim(&self) -> usize {
        self.victim_among(u64::MAX)
    }

    /// The least-recently-used way among the ways set in `eligible`
    /// (bit `i` = way `i`): BTB-X's modified LRU (Section V-B).
    ///
    /// # Panics
    ///
    /// Panics if `eligible` selects no way.
    pub fn victim_among(&self, eligible: u64) -> usize {
        let mut best: Option<(usize, u8)> = None;
        for (way, &age) in self.age.iter().enumerate() {
            if eligible & (1 << way) == 0 {
                continue;
            }
            match best {
                Some((_, b)) if b >= age => {}
                _ => best = Some((way, age)),
            }
        }
        best.expect("eligibility mask must select at least one way")
            .0
    }
}

/// Build an eligibility mask for `ways` ways from a predicate.
pub fn eligibility_mask(ways: usize, mut eligible: impl FnMut(usize) -> bool) -> u64 {
    let mut mask = 0u64;
    for way in 0..ways {
        if eligible(way) {
            mask |= 1 << way;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_set_evicts_way_order() {
        let s = LruSet::new(8);
        // Way 7 starts oldest.
        assert_eq!(s.victim(), 7);
    }

    #[test]
    fn touch_moves_to_mru() {
        let mut s = LruSet::new(4);
        s.touch(2);
        assert_eq!(s.age(2), 0);
        assert_ne!(s.victim(), 2);
    }

    #[test]
    fn full_rotation_is_true_lru() {
        let mut s = LruSet::new(4);
        for w in [0usize, 1, 2, 3, 0, 1] {
            s.touch(w);
        }
        // Access order (old → new): 2, 3, 0, 1 ⇒ victim is 2.
        assert_eq!(s.victim(), 2);
        s.touch(2);
        assert_eq!(s.victim(), 3);
    }

    #[test]
    fn victim_among_respects_mask() {
        let mut s = LruSet::new(8);
        for w in 0..8 {
            s.touch(w); // way 0 is now oldest
        }
        assert_eq!(s.victim(), 0);
        // If only ways 5..8 are eligible, the LRU among them is 5.
        assert_eq!(s.victim_among(0b1110_0000), 5);
    }

    #[test]
    fn touch_never_evicts_mru() {
        let mut s = LruSet::new(8);
        for i in 0..1000usize {
            let w = (i * 7 + 3) % 8;
            s.touch(w);
            assert_ne!(s.victim(), w, "MRU way must never be the victim");
        }
    }

    #[test]
    fn ages_stay_a_permutation() {
        let mut s = LruSet::new(8);
        for i in 0..100usize {
            s.touch((i * 5) % 8);
            let mut seen = [false; 8];
            for w in 0..8 {
                let a = s.age(w) as usize;
                assert!(!seen[a], "duplicate age");
                seen[a] = true;
            }
        }
    }

    #[test]
    fn mask_builder() {
        let m = eligibility_mask(8, |w| w >= 6);
        assert_eq!(m, 0b1100_0000);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn empty_mask_panics() {
        LruSet::new(4).victim_among(0);
    }

    #[test]
    #[should_panic(expected = "unsupported associativity")]
    fn zero_ways_panics() {
        LruSet::new(0);
    }
}
