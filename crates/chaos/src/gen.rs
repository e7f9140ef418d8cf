//! Seed → scenario compilation.
//!
//! One `u64` seed deterministically expands into a full [`Scenario`]
//! via the same splitmix generator the network simulator uses. The
//! generator keeps a small model of the world (which bases it has
//! crashed, how many robots exist, catalog version counters) so the
//! scripts it emits are *mostly* well-aimed — crash ops usually hit
//! live bases, restarts usually hit crashed ones — but soundness never
//! depends on that: the executor's totality guards make stray ops
//! no-ops. Every still-crashed base gets a restart appended at the
//! end, so final-state oracles always run against a live world.

use crate::script::{
    CatalogEntry, ExtKind, Op, Scenario, Step, Topology, ALL_KINDS, MAX_NODES, MAX_SUBS,
    STREAM_NAMESPACES,
};
use pmp_telemetry::SimRng;
use std::collections::BTreeMap;

/// Generation knobs.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Chaos steps per scenario (before the appended restarts).
    pub steps: usize,
    /// Upper bound on halls (1..=this).
    pub max_halls: u8,
    /// Upper bound on initial robots (1..=this).
    pub max_robots: u8,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            steps: 36,
            max_halls: 3,
            max_robots: 3,
        }
    }
}

/// Decorrelates the script stream from the platform's own link RNG,
/// which is seeded with the raw scenario seed.
const STREAM_SALT: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// Expands `seed` into a scenario.
#[must_use]
pub fn generate(seed: u64, cfg: &GenConfig) -> Scenario {
    let mut rng = SimRng::new(seed ^ STREAM_SALT);
    let halls = 1 + rng.range_u64(u64::from(cfg.max_halls.max(1))) as u8;
    let robots = 1 + rng.range_u64(u64::from(cfg.max_robots.max(1))) as u8;
    let loss_per_mille = if rng.chance(0.35) {
        0
    } else {
        rng.range_u64(200) as u16
    };
    let lease_ms = 2_000 + 500 * rng.range_u64(5) as u32;
    let link_neighbors = rng.chance(0.7);

    let mut catalogs = Vec::new();
    for _ in 0..halls {
        let mut cat: Vec<CatalogEntry> = ALL_KINDS
            .iter()
            .filter(|_| rng.chance(0.55))
            .map(|&kind| CatalogEntry { kind, version: 1 })
            .collect();
        // Access control requires the session extension; make the
        // catalog self-sufficient so installs can complete.
        if cat.iter().any(|e| e.kind == ExtKind::AccessControl)
            && !cat.iter().any(|e| e.kind == ExtKind::Session)
        {
            cat.insert(
                0,
                CatalogEntry {
                    kind: ExtKind::Session,
                    version: 1,
                },
            );
        }
        if cat.is_empty() {
            cat.push(CatalogEntry {
                kind: ExtKind::Monitoring,
                version: 1,
            });
        }
        catalogs.push(cat);
    }

    // The generator's model of the evolving world.
    let mut crashed = vec![false; usize::from(halls)];
    let mut parented = vec![false; usize::from(halls)];
    let mut node_count = u64::from(robots);
    let mut sub_count: u64 = 0;
    let mut versions: BTreeMap<(u8, ExtKind), u32> = BTreeMap::new();
    for (i, cat) in catalogs.iter().enumerate() {
        for e in cat {
            versions.insert((i as u8, e.kind), e.version);
        }
    }

    let mut steps = Vec::with_capacity(cfg.steps + usize::from(halls));
    let mut t_ms: u64 = 400;
    let pick_node = |rng: &mut SimRng, n: u64| rng.range_u64(n) as u8;

    for _ in 0..cfg.steps {
        t_ms += 100 + rng.range_u64(900);
        let at_ms = t_ms as u32;
        let hall_of = |rng: &mut SimRng| rng.range_u64(u64::from(halls)) as u8;
        let kind_of = |rng: &mut SimRng| *rng.pick(&ALL_KINDS);
        // Bases that may still take a directory parent (base 0 is
        // every tree's root).
        let orphans: Vec<u8> = (1..halls).filter(|&i| !parented[usize::from(i)]).collect();
        let op = match rng.range_u64(100) {
            13..=14 if !orphans.is_empty() => {
                let child = *rng.pick(&orphans);
                parented[usize::from(child)] = true;
                Op::DirParent {
                    child,
                    parent: rng.range_u64(u64::from(child)) as u8,
                }
            }
            0..=14 => Op::MoveToHall {
                node: pick_node(&mut rng, node_count),
                hall: hall_of(&mut rng),
            },
            15..=22 => Op::MoveToCorridor {
                node: pick_node(&mut rng, node_count),
            },
            23..=29 => Op::SetOnline {
                node: pick_node(&mut rng, node_count),
                online: rng.chance(0.5),
            },
            30..=33 => {
                if node_count < MAX_NODES as u64 {
                    node_count += 1;
                }
                Op::AddRobot {
                    hall: hall_of(&mut rng),
                }
            }
            34..=39 => {
                let base = hall_of(&mut rng);
                crashed[usize::from(base)] = true;
                Op::CrashBase { base }
            }
            40..=46 => {
                let base = crashed
                    .iter()
                    .position(|&c| c)
                    .map_or_else(|| hall_of(&mut rng), |i| i as u8);
                crashed[usize::from(base)] = false;
                Op::RestartBase { base }
            }
            47..=50 => Op::CheckpointBase {
                base: hall_of(&mut rng),
            },
            51..=58 => {
                let base = hall_of(&mut rng);
                let kind = kind_of(&mut rng);
                let v = versions.entry((base, kind)).or_insert(0);
                *v += 1;
                Op::Publish {
                    base,
                    kind,
                    version: *v,
                }
            }
            59..=62 => Op::Revoke {
                base: hall_of(&mut rng),
                kind: kind_of(&mut rng),
            },
            63..=64 => Op::AdversarialPublish {
                base: hall_of(&mut rng),
                attack: rng.range_u64(5) as u8,
                version: 1 + rng.range_u64(3) as u32,
            },
            65..=68 => Op::Rpc {
                base: hall_of(&mut rng),
                node: pick_node(&mut rng, node_count),
                x: rng.range_u64(60) as u8,
                y: rng.range_u64(60) as u8,
            },
            // Never SlowLinks: a generated latency regression would
            // turn every loss-free sweep seed perf-red by design.
            69..=72 => Op::RpcSem {
                base: hall_of(&mut rng),
                node: pick_node(&mut rng, node_count),
                sem: rng.range_u64(3) as u8,
                x: rng.range_u64(60) as u8,
                y: rng.range_u64(60) as u8,
            },
            73..=76 => Op::InjectTornTail {
                base: crashed
                    .iter()
                    .position(|&c| c)
                    .map_or_else(|| hall_of(&mut rng), |i| i as u8),
                drop: 1 + rng.range_u64(40) as u8,
            },
            77..=80 => Op::InjectBitFlip {
                base: crashed
                    .iter()
                    .position(|&c| c)
                    .map_or_else(|| hall_of(&mut rng), |i| i as u8),
                offset: rng.range_u64(2048) as u16,
            },
            81..=85 => Op::Partition {
                node: pick_node(&mut rng, node_count),
                base: hall_of(&mut rng),
            },
            86..=88 => Op::Heal {
                node: pick_node(&mut rng, node_count),
                base: hall_of(&mut rng),
            },
            89..=91 => Op::LinkBases {
                a: hall_of(&mut rng),
                b: hall_of(&mut rng),
            },
            92..=93 => Op::PartitionBases {
                a: hall_of(&mut rng),
                b: hall_of(&mut rng),
            },
            94 => Op::HealBases {
                a: hall_of(&mut rng),
                b: hall_of(&mut rng),
            },
            95..=97 => {
                if sub_count < MAX_SUBS as u64 {
                    sub_count += 1;
                }
                Op::Subscribe {
                    base: hall_of(&mut rng),
                    ns: rng.range_u64(STREAM_NAMESPACES.len() as u64) as u8,
                }
            }
            _ => Op::DropSubscriber {
                sub: if sub_count == 0 {
                    0
                } else {
                    rng.range_u64(sub_count) as u8
                },
            },
        };
        steps.push(Step { at_ms, op });
    }

    // Leave no base down going into settle: the final observables
    // should describe a recovered world.
    for (i, c) in crashed.iter().enumerate() {
        if *c {
            t_ms += 300 + rng.range_u64(300);
            steps.push(Step {
                at_ms: t_ms as u32,
                op: Op::RestartBase { base: i as u8 },
            });
        }
    }

    let settle_ms = lease_ms + 4_000 + rng.range_u64(2_000) as u32;
    Scenario {
        seed,
        topology: Topology {
            halls,
            loss_per_mille,
            robots,
            catalogs,
            lease_ms,
            link_neighbors,
        },
        steps,
        settle_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        assert_eq!(generate(7, &cfg), generate(7, &cfg));
        assert_ne!(generate(7, &cfg), generate(8, &cfg));
    }

    #[test]
    fn catalogs_are_dependency_closed() {
        let cfg = GenConfig::default();
        for seed in 0..200 {
            let sc = generate(seed, &cfg);
            for cat in &sc.topology.catalogs {
                if cat.iter().any(|e| e.kind == ExtKind::AccessControl) {
                    assert!(
                        cat.iter().any(|e| e.kind == ExtKind::Session),
                        "seed {seed}: access-control without session"
                    );
                }
                assert!(!cat.is_empty());
            }
        }
    }

    #[test]
    fn every_crashed_base_is_restarted_before_settle() {
        let cfg = GenConfig::default();
        for seed in 0..200 {
            let sc = generate(seed, &cfg);
            let mut down = vec![false; usize::from(sc.topology.halls)];
            for s in &sc.steps {
                match s.op {
                    Op::CrashBase { base } => down[usize::from(base)] = true,
                    Op::RestartBase { base } => down[usize::from(base)] = false,
                    _ => {}
                }
            }
            assert!(
                down.iter().all(|d| !d),
                "seed {seed} leaves a base crashed at settle"
            );
        }
    }

    /// Directory edges form a forest: a parent's index is below its
    /// child's, and no child is parented twice.
    #[test]
    fn directory_edges_form_a_forest() {
        let cfg = GenConfig::default();
        let mut edges = 0;
        for seed in 0..200 {
            let sc = generate(seed, &cfg);
            let mut parented = std::collections::BTreeSet::new();
            for s in &sc.steps {
                if let Op::DirParent { child, parent } = s.op {
                    assert!(parent < child && child < sc.topology.halls, "seed {seed}");
                    assert!(parented.insert(child), "seed {seed}: {child} parented twice");
                    edges += 1;
                }
            }
        }
        assert!(edges > 0, "the generator builds directory edges");
    }

    #[test]
    fn steps_are_time_ordered_and_bounded() {
        let cfg = GenConfig::default();
        let sc = generate(3, &cfg);
        assert!(sc.steps.len() >= cfg.steps);
        assert!(sc.steps.windows(2).all(|p| p[0].at_ms <= p[1].at_ms));
    }
}
