//! The workspace's one deterministic generator (splitmix64).
//!
//! The network simulator draws link loss and jitter from it, the chaos
//! generator draws its scripts, RPC retries draw their backoff jitter,
//! and every seeded property test draws its cases. splitmix64 mixes
//! bits well enough for all of these and keeps the workspace free of
//! external dependencies. Same seed, same sequence, forever: the
//! simulator's determinism guarantee rests on this.
//!
//! A property test loops `for seed in 0..CASES`, draws each case from
//! `SimRng::new(seed)` and names the seed in every failure message.

use std::ops::Range;

/// Deterministic pseudo-random generator (splitmix64).
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

/// What [`SimRng::any_i64`] draws one time in four.
const EDGE_I64: [i64; 5] = [0, 1, -1, i64::MIN, i64::MAX];

impl SimRng {
    /// Creates a generator from a seed; equal seeds yield equal
    /// sequences.
    #[must_use]
    pub fn new(seed: u64) -> SimRng {
        SimRng { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)` (53 bits of precision).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`). `p <= 0`
    /// never draws, so a lossless link consumes no randomness.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }

    /// A uniform value in `[0, n)` via Lemire's widening multiply.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    #[inline]
    pub fn range_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A uniform index in `[0, n)`: [`SimRng::range_u64`] for lengths.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        self.range_u64(n as u64) as usize
    }

    /// A uniformly chosen element of `xs`.
    ///
    /// # Panics
    ///
    /// Panics when `xs` is empty.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    /// Any `i64`, with the values arithmetic breaks on made common:
    /// one draw in four is 0, ±1, `MIN` or `MAX`, one in four lies in
    /// `[-8, 8)`, and the rest are uniform.
    pub fn any_i64(&mut self) -> i64 {
        match self.range_u64(4) {
            0 => *self.pick(&EDGE_I64),
            1 => self.range_u64(16) as i64 - 8,
            _ => self.next_u64() as i64,
        }
    }

    /// Uniform bytes; their count is uniform in `len`.
    ///
    /// # Panics
    ///
    /// Panics when `len` is empty.
    pub fn bytes(&mut self, len: Range<usize>) -> Vec<u8> {
        let n = self.len_in(len);
        (0..n).map(|_| self.next_u64() as u8).collect()
    }

    /// A string of arbitrary Unicode scalar values, its char count
    /// uniform in `len`. Half the chars are ASCII, so the punctuation
    /// parsers react to turns up often; the rest range over all of
    /// Unicode.
    ///
    /// # Panics
    ///
    /// Panics when `len` is empty.
    pub fn string(&mut self, len: Range<usize>) -> String {
        let n = self.len_in(len);
        (0..n)
            .map(|_| {
                let max = if self.chance(0.5) { 0x80 } else { 0x11_0000 };
                // Surrogates are not scalar values: fold them onto ASCII.
                char::from_u32(self.range_u64(max) as u32).unwrap_or('?')
            })
            .collect()
    }

    fn len_in(&mut self, len: Range<usize>) -> usize {
        assert!(len.start < len.end, "empty length range");
        len.start + self.below(len.end - len.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::new(43);
        assert_ne!(SimRng::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn floats_are_unit_interval() {
        let mut r = SimRng::new(7);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(1);
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0));
        }
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SimRng::new(9);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "hits: {hits}");
    }

    #[test]
    fn range_stays_in_bounds_and_covers() {
        let mut r = SimRng::new(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = r.range_u64(8);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }

    #[test]
    fn integer_draws_reach_every_edge() {
        let mut r = SimRng::new(3);
        let drawn: Vec<i64> = (0..1000).map(|_| r.any_i64()).collect();
        for edge in EDGE_I64 {
            assert!(drawn.contains(&edge), "{edge} never drawn");
        }
        assert!(
            drawn.iter().any(|v| v.unsigned_abs() > 1 << 32),
            "no large value"
        );
    }

    #[test]
    fn lengths_stay_in_their_range() {
        let mut r = SimRng::new(11);
        for _ in 0..200 {
            let b = r.bytes(3..9);
            assert!((3..9).contains(&b.len()), "{}", b.len());
            let s = r.string(0..5);
            assert!(s.chars().count() < 5, "{s:?}");
        }
        assert_eq!(r.bytes(4..5).len(), 4);
    }

    #[test]
    fn strings_mix_ascii_and_wider_unicode() {
        let mut r = SimRng::new(13);
        let s: String = (0..50).map(|_| r.string(1..8)).collect();
        assert!(s.chars().any(|c| c.is_ascii()), "{s:?}");
        assert!(s.chars().any(|c| c.len_utf8() > 2), "{s:?}");
    }
}
