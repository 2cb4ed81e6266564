//! Replacement policies for fully-associative TLB banks.
//!
//! The paper pairs LRU replacement with the small upper-level structures
//! (L1 TLBs and the pretranslation cache, 4–16 entries) and random
//! replacement with the 128-entry base TLBs — small structures can afford
//! true LRU bookkeeping, large CAMs cannot.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which victim-selection policy a bank uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used way (used for L1 TLBs, ≤16 entries).
    Lru,
    /// Evict a uniformly random way (used for 128-entry base TLBs).
    Random,
    /// Evict ways in insertion order (provided for ablation studies).
    Fifo,
}

impl std::fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplacementPolicy::Lru => write!(f, "LRU"),
            ReplacementPolicy::Random => write!(f, "random"),
            ReplacementPolicy::Fifo => write!(f, "FIFO"),
        }
    }
}

/// Per-bank replacement state machine.
///
/// Ways are numbered `0..ways`. The owner reports touches and insertions;
/// `victim` picks the way to evict when every way is valid.
#[derive(Debug, Clone)]
pub struct Replacer {
    policy: ReplacementPolicy,
    /// For LRU: stamp[way] = last-use counter. For FIFO: insertion counter.
    stamps: Vec<u64>,
    counter: u64,
    rng: SmallRng,
}

impl Replacer {
    /// Creates replacement state for a bank with `ways` ways.
    ///
    /// Random replacement draws from a deterministic stream seeded with
    /// `seed` so simulations are reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0`.
    pub fn new(policy: ReplacementPolicy, ways: usize, seed: u64) -> Self {
        assert!(ways > 0, "a bank needs at least one way");
        Replacer {
            policy,
            stamps: vec![0; ways],
            counter: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Policy in force.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Number of ways tracked.
    pub fn ways(&self) -> usize {
        self.stamps.len()
    }

    /// Records a hit on `way`; out-of-range ways are ignored.
    pub fn touch(&mut self, way: usize) {
        self.counter += 1;
        match self.policy {
            ReplacementPolicy::Lru => {
                if let Some(stamp) = self.stamps.get_mut(way) {
                    *stamp = self.counter;
                }
            }
            // FIFO and random ignore re-references.
            ReplacementPolicy::Fifo | ReplacementPolicy::Random => {}
        }
    }

    /// Records that a new entry was installed in `way`; out-of-range ways
    /// are ignored.
    pub fn insert(&mut self, way: usize) {
        self.counter += 1;
        if let Some(stamp) = self.stamps.get_mut(way) {
            *stamp = self.counter;
        }
    }

    /// Chooses the way to evict, assuming all ways hold valid entries.
    pub fn victim(&mut self) -> usize {
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => self
                .stamps
                .iter()
                .enumerate()
                .min_by_key(|&(_, &s)| s)
                .map_or(0, |(i, _)| i),
            ReplacementPolicy::Random => self.rng.gen_range(0..self.stamps.len()),
        }
    }

    /// Resets all history (bank flush).
    pub fn reset(&mut self) {
        self.stamps.fill(0);
        self.counter = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_victim_is_least_recently_touched() {
        let mut r = Replacer::new(ReplacementPolicy::Lru, 4, 1);
        for w in 0..4 {
            r.insert(w);
        }
        r.touch(0);
        r.touch(2);
        // way 1 was inserted before way 3 and never re-touched.
        assert_eq!(r.victim(), 1);
        r.touch(1);
        assert_eq!(r.victim(), 3);
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut r = Replacer::new(ReplacementPolicy::Fifo, 3, 1);
        for w in 0..3 {
            r.insert(w);
        }
        r.touch(0);
        r.touch(0);
        assert_eq!(
            r.victim(),
            0,
            "FIFO evicts oldest insertion despite touches"
        );
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let mut a = Replacer::new(ReplacementPolicy::Random, 8, 42);
        let mut b = Replacer::new(ReplacementPolicy::Random, 8, 42);
        for _ in 0..100 {
            let (va, vb) = (a.victim(), b.victim());
            assert_eq!(va, vb);
            assert!(va < 8);
        }
    }

    #[test]
    fn random_eventually_covers_all_ways() {
        let mut r = Replacer::new(ReplacementPolicy::Random, 4, 7);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.victim()] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "random victims should cover all ways"
        );
    }

    #[test]
    fn reset_clears_lru_order() {
        let mut r = Replacer::new(ReplacementPolicy::Lru, 2, 1);
        r.insert(0);
        r.insert(1);
        r.touch(0);
        r.reset();
        r.insert(1);
        assert_eq!(r.victim(), 0);
    }

    #[test]
    fn display_names() {
        assert_eq!(ReplacementPolicy::Lru.to_string(), "LRU");
        assert_eq!(ReplacementPolicy::Random.to_string(), "random");
        assert_eq!(ReplacementPolicy::Fifo.to_string(), "FIFO");
    }
}
