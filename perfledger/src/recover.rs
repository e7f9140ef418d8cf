//! `recover`: a base crash through to the first call served after
//! recovery.
//!
//! The federated production halls with 16 adapted robots and hall A's
//! database preloaded with movement records. Each cycle crashes hall A,
//! pumps 100 simulated ms, restarts it, and pumps in 1 ms steps until an
//! at-most-once call to the next robot returns ok. One operation is one
//! cycle.
//!
//! Why: the snapshot decode and WAL replay path, plus midas, stream and
//! rpc re-arm after a restart.

use crate::spans::SpanLog;
use crate::world::{self, Anchor, Rng, Slice, Workload, MS};
use pmp_core::{BaseId, InvocationSemantics, MobId, Platform};
use pmp_store::MovementRecord;
use std::time::Instant;

/// Simulated time hall A stays down per cycle.
const OUTAGE: u64 = 100 * MS;
/// 1 ms steps a cycle may take to serve its call.
const MAX_STEPS: usize = 10_000;

/// The recover world.
pub struct Recover {
    p: Platform,
    bases: Vec<BaseId>,
    robots: Vec<MobId>,
    cycles: usize,
}

impl Workload for Recover {
    const NAME: &'static str = "recover";

    fn build(seed: u64, tiny: bool, threads: usize) -> Recover {
        let mut rng = Rng::new(seed);
        let n = if tiny { 3 } else { 16 };
        let (mut p, bases, robots) = world::federated_halls(rng.next_u64(), threads, n, &mut rng);
        let preload = if tiny { 300 } else { 5_000 };
        let station = p.base_mut(bases[0]);
        for i in 0..preload {
            station.record_movement(MovementRecord {
                robot: format!("robot:1:{}", i % n + 1),
                device: format!("motor:{}", ["x", "y", "pen"][i % 3]),
                command: "Motor.rotate".into(),
                args: vec![rng.below(720) as i64 - 360],
                issued_at: i as u64 * MS,
                duration_ns: rng.below(20) * MS,
            });
        }
        world::adapt_all(&mut p, &robots);
        Recover {
            p,
            bases,
            robots,
            cycles: if tiny { 3 } else { 100 },
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
        let hall_a = self.bases[0];
        let before = world::counts(&self.p, &self.bases, &self.robots);
        let (mut replayed, mut rearmed) = (0, 0);
        let started = Instant::now();
        for cycle in 0..self.cycles {
            let op = cycle as u64;
            let digest = self.p.base(hall_a).durable_digest();
            log.span("crash_base", op, |_| self.p.crash_base(hall_a));
            log.span("pump", op, |_| self.p.pump(OUTAGE));
            let restart = Instant::now();
            let report = log.span("restart_base", op, |_| self.p.restart_base(hall_a));
            s.op_ms.push(restart.elapsed().as_secs_f64() * 1e3);
            replayed += report.replayed;
            rearmed += self.p.base(hall_a).rpc.outstanding() as u64;
            s.check(report.is_clean(), || {
                format!("cycle {cycle}: recovery {report:?}")
            });
            let recovered = self.p.base(hall_a).durable_digest();
            s.check(recovered == digest, || {
                format!("cycle {cycle}: durable digest {digest:x} came back {recovered:x}")
            });

            let robot = self.robots[cycle % self.robots.len()];
            let restarted_at = self.p.now().0;
            let req = log.span("rpc_with", op, |_| {
                self.p.rpc_with(
                    hall_a,
                    robot,
                    "operator:1",
                    "DrawingService",
                    "position",
                    vec![],
                    InvocationSemantics::AtMostOnce,
                )
            });
            let mut served = false;
            for _ in 0..MAX_STEPS {
                log.span("pump", op, |_| self.p.pump(MS));
                let outcomes = log.span("take_rpc_outcomes", op, |_| self.p.take_rpc_outcomes());
                if let Some(o) = outcomes.iter().find(|o| o.req == req) {
                    s.check(o.ok, || format!("cycle {cycle}: call failed: {}", o.value));
                    served = o.ok;
                    s.sim_ms.push((o.at - restarted_at) as f64 / 1e6);
                    break;
                }
            }
            s.check(served, || {
                format!("cycle {cycle}: no ok call after recovery")
            });
            s.attempted += 1;
            if served {
                s.ops += 1;
            } else {
                s.failed += 1;
            }
        }
        s.wall_s = started.elapsed().as_secs_f64();
        let dups = world::duplicate_executions(&self.p, &self.robots);
        s.check(dups == 0, || {
            format!("{dups} duplicate at-most-once executions")
        });
        s.counts = world::delta(&world::counts(&self.p, &self.bases, &self.robots), &before);
        s.counts.insert("durable.replayed".into(), replayed);
        s.counts.insert("core.rearmed".into(), rearmed);
        s.digest = world::run_digest(&self.p);
        s
    }
}
