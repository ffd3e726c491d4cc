//! Hashed perceptron conditional-branch direction predictor (Table II).
//!
//! A faithful software model of the hashed perceptron family used by
//! ChampSim and commercial cores: several weight tables, each indexed by a
//! hash of the branch PC with a different-length slice of global history;
//! the prediction is the sign of the summed weights plus a bias, and
//! training bumps the selected weights when the outcome disagrees or the
//! magnitude is below threshold.

/// Number of weight tables.
const TABLES: usize = 8;
/// Entries per table (power of two).
const TABLE_ENTRIES: usize = 2048;
/// History lengths per table (geometric-ish series; table 0 is bias-like
/// with no history).
const HIST_LENGTHS: [usize; TABLES] = [0, 3, 8, 15, 24, 37, 59, 118];
/// Weight saturation bound (6-bit signed weights).
const WEIGHT_MAX: i8 = 31;
const WEIGHT_MIN: i8 = -32;
/// Training threshold, per the original perceptron heuristic
/// (θ ≈ 1.93·h + 14 for the longest history).
const THRESHOLD: i32 = 2 * TABLES as i32 + 14;

/// Global history length kept.
pub const HISTORY_BITS: usize = 128;

/// A hashed perceptron direction predictor.
#[derive(Debug, Clone)]
pub struct HashedPerceptron {
    weights: Vec<[i8; TABLE_ENTRIES]>,
    /// Global history as a bit deque; bit 0 is the most recent outcome.
    history: u128,
}

/// The outcome of a prediction, carried to training time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirPrediction {
    /// Predicted taken?
    pub taken: bool,
    /// Summed weight (confidence); training uses it.
    pub sum: i32,
    /// Table indices used for this prediction.
    indices: [u16; TABLES],
}

impl Default for HashedPerceptron {
    fn default() -> Self {
        Self::new()
    }
}

impl HashedPerceptron {
    /// A zero-initialized predictor (predicts weakly not-taken).
    pub fn new() -> Self {
        HashedPerceptron {
            weights: vec![[0; TABLE_ENTRIES]; TABLES],
            history: 0,
        }
    }

    fn index(&self, table: usize, pc: u64) -> u16 {
        let len = HIST_LENGTHS[table];
        let hist = if len == 0 {
            0
        } else {
            (self.history & ((1u128 << len) - 1)) as u64
                ^ ((self.history >> len.min(64)) as u64 & 0xffff)
        };
        let mut h = pc >> 2;
        h ^= hist.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 27;
        h = h.wrapping_mul(0x2545_f491_4f6c_dd1d);
        (h as usize % TABLE_ENTRIES) as u16
    }

    /// Predict the direction of the conditional branch at `pc`.
    pub fn predict(&self, pc: u64) -> DirPrediction {
        let mut indices = [0u16; TABLES];
        let mut sum = 0i32;
        #[allow(clippy::needless_range_loop)]
        for t in 0..TABLES {
            let i = self.index(t, pc);
            indices[t] = i;
            sum += self.weights[t][i as usize] as i32;
        }
        DirPrediction {
            taken: sum >= 0,
            sum,
            indices,
        }
    }

    /// Train on the actual outcome and shift it into the global history.
    ///
    /// Call exactly once per dynamic conditional branch, with the
    /// prediction returned by [`HashedPerceptron::predict`] for the same
    /// branch.
    pub fn train(&mut self, pred: DirPrediction, taken: bool) {
        let mispredicted = pred.taken != taken;
        if mispredicted || pred.sum.abs() <= THRESHOLD {
            for t in 0..TABLES {
                let w = &mut self.weights[t][pred.indices[t] as usize];
                *w = if taken {
                    (*w).saturating_add(1).min(WEIGHT_MAX)
                } else {
                    (*w).saturating_sub(1).max(WEIGHT_MIN)
                };
            }
        }
        self.history = (self.history << 1) | taken as u128;
    }

    /// Record a non-conditional control-flow event in the history (taken
    /// unconditional branches perturb global history on real cores).
    pub fn note_unconditional(&mut self) {
        self.history = (self.history << 1) | 1;
    }

    /// Storage cost in bits: weights only (history registers are
    /// negligible), ~16 KB for the default geometry.
    pub fn storage_bits(&self) -> u64 {
        (TABLES * TABLE_ENTRIES) as u64 * 6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_always_taken() {
        let mut p = HashedPerceptron::new();
        let pc = 0x40_1000;
        for _ in 0..64 {
            let pred = p.predict(pc);
            p.train(pred, true);
        }
        assert!(p.predict(pc).taken);
        assert!(p.predict(pc).sum > THRESHOLD / 2, "should be confident");
    }

    #[test]
    fn learns_always_not_taken() {
        let mut p = HashedPerceptron::new();
        let pc = 0x40_2000;
        for _ in 0..64 {
            let pred = p.predict(pc);
            p.train(pred, false);
        }
        assert!(!p.predict(pc).taken);
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut p = HashedPerceptron::new();
        let pc = 0x40_3000;
        let mut flip = false;
        // Warm up on a strict alternation.
        for _ in 0..4000 {
            let pred = p.predict(pc);
            p.train(pred, flip);
            flip = !flip;
        }
        // Measure accuracy over the next 1000.
        let mut correct = 0;
        for _ in 0..1000 {
            let pred = p.predict(pc);
            if pred.taken == flip {
                correct += 1;
            }
            p.train(pred, flip);
            flip = !flip;
        }
        assert!(
            correct > 900,
            "perceptron should learn alternation, got {correct}/1000"
        );
    }

    #[test]
    fn learns_loop_exit_pattern() {
        // taken,taken,taken,not-taken repeated: classic 4-iteration loop.
        let mut p = HashedPerceptron::new();
        let pc = 0x40_4000;
        let mut i = 0u32;
        for _ in 0..6000 {
            let taken = i % 4 != 3;
            let pred = p.predict(pc);
            p.train(pred, taken);
            i += 1;
        }
        let mut correct = 0;
        for _ in 0..1000 {
            let taken = i % 4 != 3;
            let pred = p.predict(pc);
            if pred.taken == taken {
                correct += 1;
            }
            p.train(pred, taken);
            i += 1;
        }
        assert!(correct > 850, "loop pattern accuracy {correct}/1000");
    }

    #[test]
    fn distinct_branches_do_not_destructively_interfere() {
        let mut p = HashedPerceptron::new();
        for _ in 0..200 {
            for b in 0..16u64 {
                let pc = 0x50_0000 + b * 64;
                let taken = b % 2 == 0;
                let pred = p.predict(pc);
                p.train(pred, taken);
            }
        }
        let mut correct = 0;
        for b in 0..16u64 {
            let pc = 0x50_0000 + b * 64;
            if p.predict(pc).taken == (b % 2 == 0) {
                correct += 1;
            }
        }
        assert!(correct >= 14, "{correct}/16 branches learned");
    }

    #[test]
    fn weights_saturate() {
        let mut p = HashedPerceptron::new();
        let pc = 0x60_0000;
        for _ in 0..10_000 {
            let pred = p.predict(pc);
            p.train(pred, true);
        }
        // No overflow panic, and weights bounded.
        for t in 0..TABLES {
            for w in p.weights[t].iter() {
                assert!((WEIGHT_MIN..=WEIGHT_MAX).contains(w));
            }
        }
    }

    #[test]
    fn storage_is_reported() {
        assert_eq!(HashedPerceptron::new().storage_bits(), 8 * 2048 * 6);
    }
}
