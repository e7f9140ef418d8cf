//! Long-horizon soak scenarios: sustained RPC load plus an
//! adversarial publish stream, on a quiet loss-free radio, so the
//! `perf.soak-*` oracle family (DESIGN.md §17) is armed end to end.
//!
//! A soak is just a [`Scenario`] — same wire format, same executor,
//! same shrinker — whose step program is a dense periodic schedule
//! instead of sparse chaos: semantic calls at a fixed cadence cycling
//! through at-most-once / at-least-once / maybe, hostile packages
//! hammering the admission gate, stream subscribers mirroring every
//! durable namespace, and periodic checkpoints so the WAL cannot grow
//! with the horizon. Because everything is simulated time, an
//! "hour-long" soak costs only the event count, not the hour — and an
//! injected [`Op::SlowLinks`] regression is caught by
//! `perf.soak-rpc-p99` at the first barrier whose p99 crosses the
//! ceiling, then ddmin-shrinks like any other failure.

use crate::script::{CatalogEntry, ExtKind, Op, Scenario, Step, Topology};
use pmp_telemetry::SimRng;

/// Decorrelates soak scheduling jitter from both the generator's
/// script stream and the platform's link RNG.
const SOAK_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Soak knobs. All times are simulated milliseconds.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Active load phase length (steps stop here; settle follows).
    pub horizon_ms: u32,
    /// Period between semantic RPC calls.
    pub rpc_every_ms: u32,
    /// Period between hostile publishes (0 disables them).
    pub adversarial_every_ms: u32,
    /// Attach a stream subscriber per durable namespace at start.
    pub subscribe_streams: bool,
    /// Inject a link-latency regression: `(at_ms, multiplier)`. The
    /// perf oracles must then flag the run — this is the knob the
    /// pinned `.redrepro` and the E19 harness row are built on.
    pub slow_link: Option<(u32, u8)>,
}

impl SoakConfig {
    /// CI-sized soak: one simulated minute of sustained load, a call
    /// every 500 ms, a hostile publish every 2 s.
    #[must_use]
    pub fn ci() -> SoakConfig {
        SoakConfig {
            horizon_ms: 60_000,
            rpc_every_ms: 500,
            adversarial_every_ms: 2_000,
            subscribe_streams: true,
            slow_link: None,
        }
    }

    /// Hour-scale soak: 3600 simulated seconds, a call every 250 ms
    /// (~14k calls), a hostile publish every second (~3.6k attacks).
    #[must_use]
    pub fn hour() -> SoakConfig {
        SoakConfig {
            horizon_ms: 3_600_000,
            rpc_every_ms: 250,
            adversarial_every_ms: 1_000,
            subscribe_streams: true,
            slow_link: None,
        }
    }
}

/// Compiles a soak scenario. Deterministic in `(seed, cfg)`; the seed
/// feeds both the platform link RNG and the schedule's small
/// decisions (which node, which semantics offset, which attack).
///
/// The topology deliberately avoids every radio disturbance — no
/// roams, no corridors, no partitions, no crashes — so
/// `OracleState::radio_quiet` holds and `perf.soak-rpc-p99` stays
/// armed for the whole horizon. Checkpoints are scheduled every ~10 s
/// to keep recovery material bounded; they perturb nothing the perf
/// oracles watch.
#[must_use]
pub fn soak(seed: u64, cfg: &SoakConfig) -> Scenario {
    let mut rng = SimRng::new(seed ^ SOAK_SALT);
    let robots = 2u8;
    let mut steps: Vec<Step> = Vec::new();

    if cfg.subscribe_streams {
        for ns in 0..3u8 {
            steps.push(Step {
                at_ms: 300 + u32::from(ns) * 20,
                op: Op::Subscribe { base: 0, ns },
            });
        }
    }

    // Let adaptation converge before the load phase begins.
    let start_ms: u32 = 3_000;
    let mut t = start_ms;
    while t < cfg.horizon_ms {
        steps.push(Step {
            at_ms: t,
            op: Op::RpcSem {
                base: 0,
                node: rng.range_u64(u64::from(robots)) as u8,
                // Cycle 1,2,1,2,...,0: mostly semantic calls, with an
                // occasional maybe call riding along as the control.
                sem: if rng.chance(0.1) { 0 } else { 1 + (t / cfg.rpc_every_ms % 2) as u8 },
                x: rng.range_u64(60) as u8,
                y: rng.range_u64(60) as u8,
            },
        });
        t += cfg.rpc_every_ms.max(1);
    }
    if cfg.adversarial_every_ms > 0 {
        let mut t = start_ms + 100;
        let mut attack = 0u8;
        while t < cfg.horizon_ms {
            steps.push(Step {
                at_ms: t,
                op: Op::AdversarialPublish {
                    base: 0,
                    attack,
                    version: 1 + t / cfg.adversarial_every_ms.max(1),
                },
            });
            attack = (attack + 1) % 5;
            t += cfg.adversarial_every_ms;
        }
    }
    let mut t = start_ms + 10_000;
    while t < cfg.horizon_ms {
        steps.push(Step {
            at_ms: t,
            op: Op::CheckpointBase { base: 0 },
        });
        t += 10_000;
    }
    if let Some((at_ms, mult)) = cfg.slow_link {
        steps.push(Step {
            at_ms,
            op: Op::SlowLinks { mult },
        });
    }
    steps.sort_by_key(|s| s.at_ms);

    Scenario {
        seed,
        topology: Topology {
            halls: 1,
            loss_per_mille: 0,
            robots,
            catalogs: vec![vec![
                CatalogEntry {
                    kind: ExtKind::Session,
                    version: 1,
                },
                CatalogEntry {
                    kind: ExtKind::Monitoring,
                    version: 1,
                },
            ]],
            lease_ms: 3_000,
            link_neighbors: false,
        },
        steps,
        // Longer than the full retry schedule plus the throughput
        // oracle's slack, so every call issued at the horizon's edge
        // still gets its resolution checked.
        settle_ms: 20_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_is_deterministic_and_time_ordered() {
        let cfg = SoakConfig::ci();
        let a = soak(9, &cfg);
        assert_eq!(a, soak(9, &cfg));
        assert_ne!(a, soak(10, &cfg));
        assert!(a.steps.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        // ~1 call per 500ms over 57s of load phase.
        let calls = a
            .steps
            .iter()
            .filter(|s| matches!(s.op, Op::RpcSem { .. }))
            .count();
        assert!(calls > 100, "{calls} calls");
    }

    #[test]
    fn hour_soak_scales_without_duplicating_schedules() {
        let sc = soak(3, &SoakConfig::hour());
        let calls = sc
            .steps
            .iter()
            .filter(|s| matches!(s.op, Op::RpcSem { .. }))
            .count();
        let attacks = sc
            .steps
            .iter()
            .filter(|s| matches!(s.op, Op::AdversarialPublish { .. }))
            .count();
        assert!(calls > 14_000, "{calls}");
        assert!(attacks > 3_500, "{attacks}");
    }

    #[test]
    fn slow_link_injection_lands_in_the_schedule() {
        let cfg = SoakConfig {
            slow_link: Some((30_000, 2)),
            ..SoakConfig::ci()
        };
        let sc = soak(1, &cfg);
        assert!(sc
            .steps
            .iter()
            .any(|s| s.at_ms == 30_000 && s.op == Op::SlowLinks { mult: 2 }));
    }
}
