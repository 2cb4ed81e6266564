//! A fast, deterministic hasher for the simulator's hot-path maps.
//!
//! The standard library's default `HashMap` hasher (SipHash with a
//! per-process random key) is built for resistance against adversarial
//! key sets; a TLB simulator hashes small trusted integers (VPNs)
//! millions of times per run, where SipHash's setup and finalization
//! dominate the lookup. This multiply-rotate hasher is a few
//! instructions per word, and being keyless it is also deterministic
//! across processes — map *contents* never depend on it, but identical
//! behaviour run-to-run keeps profiles and debugging sessions stable.
//!
//! Not DoS-resistant by design: use only for maps keyed by simulator
//! state, never for externally controlled input.
//!
//! # Examples
//!
//! ```
//! use std::collections::HashMap;
//! use hbat_core::hash::FastHashBuilder;
//!
//! let mut m: HashMap<u64, &str, FastHashBuilder> = HashMap::default();
//! m.insert(7, "page");
//! assert_eq!(m.get(&7), Some(&"page"));
//! ```

use std::hash::{BuildHasher, Hasher};

/// 2^64 / φ, the usual Fibonacci-hashing multiplier: odd, with
/// well-mixed high bits.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// One step of SplitMix64: advances `state` by 2^64 / φ and returns the
/// mixed output. The simulator's one small deterministic generator:
/// sample placement, fault plans and the warm TLB model's victim choice
/// draw from it.
///
/// ```
/// use hbat_core::hash::splitmix64;
///
/// let mut state = 0;
/// assert_eq!(splitmix64(&mut state), 0xE220_A839_7B1D_CDAF);
/// assert_eq!(state, 0x9E37_79B9_7F4A_7C15);
/// ```
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(K);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One-word-at-a-time multiply-rotate hasher (FxHash-style).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline(always)]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(K).rotate_left(26);
    }
}

impl Hasher for FastHasher {
    #[inline(always)]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for composite keys: mix whole words, then the tail.
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            // hbat-lint: allow(panic) chunks_exact(8) yields exactly 8-byte slices
            self.mix(u64::from_ne_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = 0u64;
        for (i, &b) in chunks.remainder().iter().enumerate() {
            tail |= u64::from(b) << (8 * i);
        }
        if !chunks.remainder().is_empty() {
            self.mix(tail);
        }
    }

    #[inline(always)]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline(always)]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }

    #[inline(always)]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline(always)]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline(always)]
    fn write_u128(&mut self, n: u128) {
        self.mix(n as u64);
        self.mix((n >> 64) as u64);
    }

    #[inline(always)]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// Builds [`FastHasher`]s; stateless, so `Default` is the only state.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHashBuilder;

impl BuildHasher for FastHashBuilder {
    type Hasher = FastHasher;

    #[inline(always)]
    fn build_hasher(&self) -> FastHasher {
        FastHasher::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn hash_of(f: impl FnOnce(&mut FastHasher)) -> u64 {
        let mut h = FastHashBuilder.build_hasher();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_builders() {
        let a = hash_of(|h| h.write_u64(0xdead_beef));
        let b = hash_of(|h| h.write_u64(0xdead_beef));
        assert_eq!(a, b);
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Sequential VPNs — the common key pattern — must not collide.
        let hashes: Vec<u64> = (0..1000u64).map(|v| hash_of(|h| h.write_u64(v))).collect();
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), hashes.len(), "collision among 1000 keys");
    }

    #[test]
    fn byte_stream_fallback_mixes_everything() {
        let a = hash_of(|h| h.write(b"0123456789abcdef"));
        let b = hash_of(|h| h.write(b"0123456789abcdeg"));
        let c = hash_of(|h| h.write(b"0123456789abcde"));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn works_as_a_hashmap_hasher() {
        let mut m: HashMap<u64, u64, FastHashBuilder> = HashMap::default();
        for v in 0..512 {
            m.insert(v, v * 2);
        }
        for v in 0..512 {
            assert_eq!(m.get(&v), Some(&(v * 2)));
        }
    }
}
