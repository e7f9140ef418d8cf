//! The one timing implementation: warm up, take interleaved samples,
//! and summarise them as min / median / p90 with a noise band.
//!
//! A *sample* is the mean time of one call over a block of `iters`
//! calls; a measurement takes `repeats` samples. When several legs are
//! compared they are sampled round-robin, so host drift lands on every
//! leg alike.

use std::hint::black_box;
use std::time::Instant;

/// Summary of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// Median sample.
    pub median: f64,
    /// 90th-percentile sample.
    pub p90: f64,
    /// Interquartile range as a share of the median: the spread a
    /// comparison must beat before a difference counts.
    pub noise: f64,
}

impl Summary {
    /// Summarises `samples`; an empty set reads as all zeros.
    #[must_use]
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                n: 0,
                min: 0.0,
                median: 0.0,
                p90: 0.0,
                noise: 0.0,
            };
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let median = quantile(&v, 0.5);
        let iqr = quantile(&v, 0.75) - quantile(&v, 0.25);
        Summary {
            n: v.len(),
            min: v[0],
            median,
            p90: quantile(&v, 0.9),
            noise: if median.abs() > 0.0 {
                iqr / median.abs()
            } else {
                0.0
            },
        }
    }

    /// The same summary with every value multiplied by `k` (unit change).
    #[must_use]
    pub fn scaled(self, k: f64) -> Summary {
        Summary {
            min: self.min * k,
            median: self.median * k,
            p90: self.p90 * k,
            ..self
        }
    }
}

/// The `q`-quantile of an ascending slice, linearly interpolated
/// between closest ranks. `sorted` must be non-empty.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The `q`-percentile of a pooled latency set by nearest rank: the
/// smallest sample with at least `q` of the set at or below it. Returns
/// 0 for an empty set.
#[must_use]
pub fn nearest_rank(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Sampling plan: `warmup` untimed calls, then `repeats` samples of
/// `iters` calls each.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Untimed calls before the first sample.
    pub warmup: u32,
    /// Calls per sample.
    pub iters: u32,
    /// Samples per leg.
    pub repeats: usize,
}

impl Plan {
    /// `iters` calls per sample, 11 samples, warm-up of one sample's
    /// worth of calls (at most 64).
    #[must_use]
    pub const fn new(iters: u32) -> Plan {
        Plan {
            warmup: if iters < 64 { iters } else { 64 },
            iters,
            repeats: 11,
        }
    }
}

/// Nanoseconds per call of `f`.
pub fn time_ns<R>(plan: Plan, mut f: impl FnMut() -> R) -> Summary {
    let mut legs: [&mut dyn FnMut(); 1] = [&mut || {
        black_box(f());
    }];
    interleaved_ns(plan, &mut legs).remove(0)
}

/// Nanoseconds per call of each leg, sampled round-robin so drift hits
/// every leg alike.
pub fn interleaved_ns(plan: Plan, legs: &mut [&mut dyn FnMut()]) -> Vec<Summary> {
    for leg in legs.iter_mut() {
        for _ in 0..plan.warmup {
            leg();
        }
    }
    let mut samples = vec![Vec::with_capacity(plan.repeats); legs.len()];
    for _ in 0..plan.repeats {
        for (leg, out) in legs.iter_mut().zip(&mut samples) {
            let t0 = Instant::now();
            for _ in 0..plan.iters {
                leg();
            }
            out.push(t0.elapsed().as_nanos() as f64 / f64::from(plan.iters.max(1)));
        }
    }
    samples.iter().map(|s| Summary::of(s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_a_known_set() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert!((s.p90 - 4.6).abs() < 1e-9);
        // q1 = 2, q3 = 4: IQR 2 over median 3.
        assert!((s.noise - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn constant_samples_have_no_noise() {
        let s = Summary::of(&[7.0; 9]);
        assert_eq!((s.min, s.median, s.p90, s.noise), (7.0, 7.0, 7.0, 0.0));
    }

    #[test]
    fn one_outlier_moves_neither_median_nor_noise_much() {
        let mut v = vec![100.0; 20];
        v.push(10_000.0);
        let s = Summary::of(&v);
        assert_eq!(s.median, 100.0);
        assert_eq!(s.noise, 0.0);
        assert_eq!(s.min, 100.0);
    }

    #[test]
    fn empty_set_is_all_zero() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.median, 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 500.0);
        assert_eq!(nearest_rank(&v, 0.99), 990.0);
        assert_eq!(nearest_rank(&v, 1.0), 1000.0);
        assert_eq!(nearest_rank(&[], 0.99), 0.0);
    }

    #[test]
    fn scaling_keeps_relative_noise() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).scaled(1000.0);
        assert_eq!(s.min, 1000.0);
        assert_eq!(s.median, 2500.0);
        assert!((s.noise - Summary::of(&[1.0, 2.0, 3.0, 4.0]).noise).abs() < 1e-12);
    }

    #[test]
    fn timing_grows_with_work() {
        let small = time_ns(Plan::new(50), || (0..100u64).map(black_box).sum::<u64>());
        let large = time_ns(Plan::new(50), || (0..10_000u64).map(black_box).sum::<u64>());
        assert_eq!(small.n, 11);
        assert!(large.median > small.median);
    }

    #[test]
    fn interleaved_legs_each_get_every_repeat() {
        let (mut a, mut b) = (0u32, 0u32);
        let plan = Plan {
            warmup: 2,
            iters: 3,
            repeats: 4,
        };
        let out = interleaved_ns(plan, &mut [&mut || a += 1, &mut || b += 1]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].n, 4);
        assert_eq!((a, b), (2 + 12, 2 + 12));
    }
}
