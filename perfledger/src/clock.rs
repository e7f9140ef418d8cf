//! The CPU clock rate, measured from inside the run.
//!
//! On a shared host the clock of a virtual CPU drifts by several percent
//! over minutes with the load of other tenants; wall times turned into
//! cycles do not drift with it. The rate comes from a dependent chain of
//! or, multiply and add: each step waits for the one before, and on
//! x86-64 cores the three take 1 + 3 + 1 cycles. The chain is not linear
//! in its state, so the compiler cannot fold steps together.

use std::hint::black_box;
use std::time::Instant;

/// Cycles one step of the chain takes.
pub const CYCLES_PER_STEP: f64 = 5.0;
/// Steps per timing: about 0.4 ms at 3 GHz.
const STEPS: u64 = 1 << 18;
/// Timings per measurement. The fastest counts: an interrupt or a
/// preemption only ever lengthens one.
const REPEATS: usize = 8;

/// Cycles per second the calling thread runs at now.
#[must_use]
pub fn hz() -> f64 {
    let fastest = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            black_box(chain(black_box(STEPS)));
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    STEPS as f64 * CYCLES_PER_STEP / fastest.max(1e-12)
}

fn chain(steps: u64) -> u64 {
    let mut x = 1u64;
    for _ in 0..steps {
        x = x.wrapping_mul(x | 1).wrapping_add(0x1405_7B7E_F767_814F);
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chain_takes_time_in_proportion_to_its_steps() {
        let fastest = |steps| {
            (0..REPEATS)
                .map(|_| {
                    let t = Instant::now();
                    black_box(chain(black_box(steps)));
                    t.elapsed()
                })
                .min()
                .expect("REPEATS > 0")
        };
        let (short, long) = (fastest(STEPS), fastest(STEPS * 16));
        assert!(long > short * 8, "{short:?} then {long:?}");
    }

    #[test]
    fn the_clock_reads_as_a_plausible_rate() {
        let hz = hz();
        assert!(hz.is_finite() && hz > 1e8, "{hz}");
    }
}
