//! `adapt`: a published extension upgrade reaching its first woven
//! dispatch on every receiver.
//!
//! Two federated halls; the robots of hall A carry session, access
//! control and monitoring from set-up. Each round publishes the next
//! access-control version, pumps in 1 ms steps until every robot reports
//! it installed, then makes one woven `DrawingService.position` call per
//! robot as operator 2, who is allowed exactly by the odd versions. One
//! operation is one robot upgraded and dispatched.
//!
//! Why: the crypto, wire, analyze, prose and midas path, with
//! replication to the replica hall; almost no WAL growth and no stream
//! readers.

use crate::spans::SpanLog;
use crate::world::{self, Anchor, Rng, Slice, Workload, MS};
use pmp_core::{BaseId, MobId, Platform};
use pmp_midas::ReceiverEvent;
use std::time::Instant;

const EXT: &str = "ext/access-control";
/// Pump steps a round may take before the upgrade counts as lost.
const MAX_STEPS: usize = 5_000;

/// The adapt world.
pub struct Adapt {
    p: Platform,
    bases: Vec<BaseId>,
    robots: Vec<MobId>,
    rounds: usize,
    version: u32,
}

impl Workload for Adapt {
    const NAME: &'static str = "adapt";

    fn build(seed: u64, tiny: bool, threads: usize) -> Adapt {
        let mut rng = Rng::new(seed);
        let robots = if tiny { 4 } else { 32 };
        let (mut p, bases, robots) =
            world::federated_halls(rng.next_u64(), threads, robots, &mut rng);
        world::adapt_all(&mut p, &robots);
        Adapt {
            p,
            bases,
            robots,
            rounds: if tiny { 3 } else { 100 },
            version: 1,
        }
    }

    fn platform(&mut self) -> &mut Platform {
        &mut self.p
    }

    fn anchor(&mut self) -> Anchor<'_> {
        Anchor {
            p: &mut self.p,
            base: self.bases[0],
            robot: self.robots[0],
        }
    }

    fn run(&mut self, log: &mut SpanLog) -> Slice {
        let mut s = Slice::default();
        let before = world::counts(&self.p, &self.bases, &self.robots);
        let started = Instant::now();
        for round in 0..self.rounds {
            let op = round as u64;
            self.version += 1;
            let version = self.version;
            let pkg = world::access_control(version);
            let round_start = Instant::now();
            for r in &self.robots {
                self.p.node_mut(*r).events.clear();
            }
            let sim_start = self.p.now().0;
            log.span("publish_extension", op, |_| {
                self.p.publish_extension(self.bases[0], &pkg);
            });
            let mut pending: Vec<MobId> = self.robots.clone();
            for _ in 0..MAX_STEPS {
                if pending.is_empty() {
                    break;
                }
                log.span("pump", op, |_| self.p.pump(MS));
                let p = &mut self.p;
                pending.retain(|r| {
                    let events = std::mem::take(&mut p.node_mut(*r).events);
                    !events.iter().any(|e| {
                        matches!(e, ReceiverEvent::Installed { ext_id, version: v, .. }
                            if ext_id == EXT && *v == version)
                    })
                });
            }
            // Each robot's VM journal stamps its weave with the simulated
            // time it happened, finer than the 1 ms pump steps.
            let installed_at = self
                .robots
                .iter()
                .filter_map(|r| {
                    let journal = &self.p.node(*r).vm.telemetry().journal;
                    journal
                        .events()
                        .filter(|e| e.name == "prose.weave")
                        .map(|e| e.at)
                        .last()
                })
                .max()
                .unwrap_or(sim_start);
            s.sim_ms
                .push(installed_at.saturating_sub(sim_start) as f64 / 1e6);
            s.check(pending.is_empty(), || {
                format!(
                    "round {round}: {} robots never installed v{version}",
                    pending.len()
                )
            });
            for r in &self.robots {
                let node = self.p.node_mut(*r);
                *node.wiring.caller.lock() = "operator:2".into();
                let svc = node.services["DrawingService"].clone();
                let dispatched = node.vm.stats().advice_dispatches;
                let result = log.span("vm.call", op, |_| {
                    node.vm.call("DrawingService", "position", svc, vec![])
                });
                let right = result.is_ok() == world::allows_operator_2(version)
                    && node.vm.stats().advice_dispatches > dispatched;
                s.check(right, || {
                    format!(
                        "round {round}: operator 2 on {} under v{version}: {result:?}",
                        node.name
                    )
                });
                s.attempted += 1;
                if right && !pending.contains(r) {
                    s.ops += 1;
                } else {
                    s.failed += 1;
                }
            }
            s.op_ms.push(round_start.elapsed().as_secs_f64() * 1e3);
        }
        s.wall_s = started.elapsed().as_secs_f64();
        s.counts = world::delta(&world::counts(&self.p, &self.bases, &self.robots), &before);
        s.digest = world::run_digest(&self.p);
        s
    }
}
