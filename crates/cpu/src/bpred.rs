//! The GAp branch predictor of Table 1: an 8-bit global history register
//! indexing a 4096-entry pattern history table of 2-bit saturating
//! counters (\[YP93\]), with per-address selection bits.

/// Two-bit saturating counter states are just 0..=3; ≥2 predicts taken.
const TAKEN_THRESHOLD: u8 = 2;

/// GAp predictor state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchPredictor {
    /// Global history register (low `history_bits` bits valid).
    ghr: u32,
    history_bits: u32,
    pht: Vec<u8>,
    predictions: u64,
    correct: u64,
}

impl BranchPredictor {
    /// Table 1's configuration: 8 history bits, 4096 PHT entries.
    pub fn table1() -> Self {
        BranchPredictor::new(8, 4096)
    }

    /// Creates a predictor with `history_bits` of global history and a
    /// `pht_entries`-entry pattern history table.
    ///
    /// # Panics
    ///
    /// Panics unless `pht_entries` is a power of two at least
    /// `2^history_bits`.
    pub fn new(history_bits: u32, pht_entries: usize) -> Self {
        assert!(pht_entries.is_power_of_two(), "PHT must be a power of two");
        assert!(
            pht_entries >= (1 << history_bits),
            "PHT must cover the history space"
        );
        BranchPredictor {
            ghr: 0,
            history_bits,
            // Weakly taken initial state: loops start out predicted taken.
            pht: vec![TAKEN_THRESHOLD; pht_entries],
            predictions: 0,
            correct: 0,
        }
    }

    fn index(&self, pc: u32) -> usize {
        // GAp: the global history selects the pattern, low PC bits select
        // the per-address column of the table.
        let hist_mask = (1u32 << self.history_bits) - 1;
        let pc_bits = self.pht.len().trailing_zeros() - self.history_bits;
        let pc_mask = (1u32 << pc_bits) - 1;
        (((pc & pc_mask) << self.history_bits) | (self.ghr & hist_mask)) as usize
    }

    /// Predicts the direction of the conditional branch at `pc`.
    pub fn predict(&self, pc: u32) -> bool {
        // hbat-lint: allow(panic-reach) index masked to the PHT size asserted in new()
        self.pht[self.index(pc)] >= TAKEN_THRESHOLD
    }

    /// Records the actual `taken` outcome (training + history update) and
    /// returns whether the prediction made just before was correct.
    pub fn update(&mut self, pc: u32, taken: bool) -> bool {
        let idx = self.index(pc);
        // hbat-lint: allow(panic-reach) index masked to the PHT size asserted in new()
        let predicted = self.pht[idx] >= TAKEN_THRESHOLD;
        let ctr = &mut self.pht[idx];
        if taken {
            *ctr = (*ctr + 1).min(3);
        } else {
            *ctr = ctr.saturating_sub(1);
        }
        self.ghr = (self.ghr << 1) | u32::from(taken);
        self.predictions += 1;
        let right = predicted == taken;
        if right {
            self.correct += 1;
        }
        right
    }

    /// Conditional branches predicted so far.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Current global history register contents.
    pub fn ghr(&self) -> u32 {
        self.ghr
    }

    /// The pattern history table (2-bit counters, one byte each).
    pub fn pht(&self) -> &[u8] {
        &self.pht
    }

    /// Restores learned state (GHR and PHT counters) captured from another
    /// predictor of the same shape. Accuracy bookkeeping is left untouched:
    /// it counts only predictions made by *this* run.
    ///
    /// # Panics
    ///
    /// Panics if `pht.len()` differs from this predictor's table size.
    pub fn restore_tables(&mut self, ghr: u32, pht: &[u8]) {
        assert_eq!(
            pht.len(),
            self.pht.len(),
            "restored PHT must match the configured table size"
        );
        self.ghr = ghr;
        self.pht.copy_from_slice(pht);
    }

    /// Fraction predicted correctly.
    pub fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.correct as f64 / self.predictions as f64
        }
    }
}

impl Default for BranchPredictor {
    fn default() -> Self {
        BranchPredictor::table1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_an_always_taken_loop() {
        let mut p = BranchPredictor::table1();
        for _ in 0..100 {
            p.update(10, true);
        }
        assert!(p.predict(10));
        assert!(p.accuracy() > 0.95);
    }

    #[test]
    fn learns_an_alternating_pattern_through_history() {
        let mut p = BranchPredictor::table1();
        // T,N,T,N...: global history disambiguates perfectly after warmup.
        for i in 0..400u32 {
            p.update(20, i % 2 == 0);
        }
        // After training, both phases predict correctly.
        let mut right = 0;
        for i in 0..100u32 {
            if p.update(20, i % 2 == 0) {
                right += 1;
            }
        }
        assert!(right > 95, "history should nail alternation: {right}/100");
    }

    #[test]
    fn random_outcomes_predict_poorly() {
        let mut p = BranchPredictor::table1();
        let mut x = 0x12345678u64;
        let mut right = 0u32;
        let n = 2000;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if p.update(30, x & 1 == 1) {
                right += 1;
            }
        }
        let acc = right as f64 / n as f64;
        assert!(acc < 0.65, "random branches can't be predicted: {acc}");
    }

    #[test]
    fn different_pcs_use_different_counters() {
        let mut p = BranchPredictor::table1();
        for _ in 0..50 {
            p.update(1, true);
            p.update(2, false);
        }
        // GAp: predictions are per (pc, history) pair, so probe each pc at
        // the history phase it was trained under.
        assert!(p.predict(1), "pc 1 trained taken at this phase");
        p.update(1, true); // advance history to pc 2's phase
        assert!(!p.predict(2), "pc 2 trained not-taken at this phase");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_pht_rejected() {
        let _ = BranchPredictor::new(8, 1000);
    }
}
