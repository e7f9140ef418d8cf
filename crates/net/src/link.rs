//! Wireless link model: latency, jitter, and loss.

use crate::clock::SimTime;
use pmp_telemetry::SimRng;

/// Parameters of the (shared) wireless medium.
#[derive(Debug, Clone)]
pub struct LinkModel {
    /// Fixed per-message latency (ns).
    pub base_latency_ns: u64,
    /// Additional latency per payload byte (ns).
    pub per_byte_ns: u64,
    /// Uniform jitter added on top, in `[0, jitter_ns)`.
    pub jitter_ns: u64,
    /// Probability a unicast/broadcast copy is lost, in `[0, 1]`.
    pub loss_prob: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        // Ballpark 802.11b numbers of the paper's era: ~1 ms base, ~1 µs
        // per byte (≈1 MB/s effective), small jitter, no loss.
        Self {
            base_latency_ns: 1_000_000,
            per_byte_ns: 1_000,
            jitter_ns: 200_000,
            loss_prob: 0.0,
        }
    }
}

impl LinkModel {
    /// An ideal instantaneous lossless link (useful in unit tests).
    pub fn ideal() -> Self {
        Self {
            base_latency_ns: 1,
            per_byte_ns: 0,
            jitter_ns: 0,
            loss_prob: 0.0,
        }
    }

    /// A lossy variant of the default model.
    pub fn lossy(loss_prob: f64) -> Self {
        Self {
            loss_prob,
            ..Self::default()
        }
    }

    /// Samples the delivery time for a message of `len` bytes sent at
    /// `now`, or `None` if the copy is lost.
    pub fn sample(&self, now: SimTime, len: usize, rng: &mut SimRng) -> Option<SimTime> {
        if rng.chance(self.loss_prob.clamp(0.0, 1.0)) {
            return None;
        }
        let jitter = if self.jitter_ns > 0 {
            rng.range_u64(self.jitter_ns)
        } else {
            0
        };
        let latency = self
            .base_latency_ns
            .saturating_add(self.per_byte_ns.saturating_mul(len as u64))
            .saturating_add(jitter);
        Some(now.plus(latency))
    }

    /// Delivery time over a *wired* backhaul segment: same base and
    /// per-byte latency as the radio, but no jitter and no loss — and
    /// crucially no RNG draw, so federation traffic never perturbs the
    /// radio's loss-sampling stream.
    pub fn sample_wired(&self, now: SimTime, len: usize) -> SimTime {
        let latency = self
            .base_latency_ns
            .saturating_add(self.per_byte_ns.saturating_mul(len as u64));
        now.plus(latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_link_is_instant_and_lossless() {
        let mut rng = SimRng::new(1);
        let m = LinkModel::ideal();
        for len in [0usize, 10, 10_000] {
            let t = m.sample(SimTime::ZERO, len, &mut rng).unwrap();
            assert_eq!(t, SimTime(1));
        }
    }

    #[test]
    fn latency_scales_with_size() {
        let mut rng = SimRng::new(1);
        let m = LinkModel {
            jitter_ns: 0,
            ..LinkModel::default()
        };
        let small = m.sample(SimTime::ZERO, 10, &mut rng).unwrap();
        let large = m.sample(SimTime::ZERO, 10_000, &mut rng).unwrap();
        assert!(large > small);
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut rng = SimRng::new(1);
        let m = LinkModel::lossy(1.0);
        for _ in 0..100 {
            assert!(m.sample(SimTime::ZERO, 8, &mut rng).is_none());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let m = LinkModel::default();
        let mut r1 = SimRng::new(7);
        let mut r2 = SimRng::new(7);
        for len in 0..50 {
            assert_eq!(
                m.sample(SimTime::ZERO, len, &mut r1),
                m.sample(SimTime::ZERO, len, &mut r2)
            );
        }
    }
}
