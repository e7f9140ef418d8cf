//! `rpc`: remote calls under each invocation semantic.
//!
//! One base and its adapted robots over radio links that lose 5% of
//! messages. An open loop in simulated time issues one `moveTo` every
//! 10 ms, cycling through at-most-once, at-least-once and maybe, then
//! pumps until every retried call has resolved. One operation is one
//! call that returned ok; a maybe-call the radio lost has no outcome by
//! definition and counts as neither ok nor failed.
//!
//! Why: write-heavy (about four WAL appends per call, auto-snapshots
//! over a growing movement store), woven dispatch with retries and
//! dedup, stream encoding with no readers. It bypasses publish and
//! fan-out.

use crate::spans::SpanLog;
use crate::world::{self, Anchor, Rng, Slice, Workload, MS, SEC};
use pmp_core::{BaseId, InvocationSemantics, MobId, Platform};
use pmp_net::{LinkModel, Position};
use std::collections::BTreeMap;
use std::time::Instant;

const SEMANTICS: [InvocationSemantics; 3] = [
    InvocationSemantics::AtMostOnce,
    InvocationSemantics::AtLeastOnce,
    InvocationSemantics::Maybe,
];
/// Simulated time between two calls.
const CADENCE: u64 = 10 * MS;
/// Link loss probability per message.
pub const LOSS: f64 = 0.05;

/// The rpc world.
pub struct Rpc {
    p: Platform,
    base: BaseId,
    robots: Vec<MobId>,
    calls: usize,
    rng: Rng,
}

impl Workload for Rpc {
    const NAME: &'static str = "rpc";

    fn build(seed: u64, tiny: bool, threads: usize) -> Rpc {
        let mut rng = Rng::new(seed);
        let mut p = Platform::with_link(rng.next_u64(), LinkModel::lossy(LOSS));
        world::pin_driver(&mut p, threads);
        p.add_area("hall-a", Position::new(0.0, 0.0), Position::new(60.0, 60.0));
        let base = p.add_base("hall-a", Position::new(30.0, 30.0), 80.0);
        world::stock_hall_a(&mut p, base);
        let policy = p.trusting_policy(&[base], world::robot_cap());
        let n = if tiny { 3 } else { 16 };
        let robots: Vec<MobId> = (0..n)
            .map(|i| {
                let pos = world::hall_a_position(&mut rng);
                p.add_robot(&format!("robot:1:{}", i + 1), pos, 80.0, policy.clone())
                    .expect("robot construction")
            })
            .collect();
        world::adapt_all(&mut p, &robots);
        Rpc {
            p,
            base,
            robots,
            calls: if tiny { 60 } else { 4_000 },
            rng,
        }
    }

    fn platform(&mut self) -> &mut Platform {
        &mut self.p
    }

    fn anchor(&mut self) -> Anchor<'_> {
        Anchor {
            p: &mut self.p,
            base: self.base,
            robot: self.robots[0],
        }
    }

    fn run(&mut self, log: &mut SpanLog) -> Slice {
        let mut s = Slice::default();
        let before = world::counts(&self.p, &[self.base], &self.robots);
        // req → (semantics, simulated issue time)
        let mut open: BTreeMap<u64, (InvocationSemantics, u64)> = BTreeMap::new();
        let started = Instant::now();
        for i in 0..self.calls {
            let op = i as u64;
            let call_start = Instant::now();
            let robot = self.robots[i % self.robots.len()];
            let sem = SEMANTICS[i % SEMANTICS.len()];
            let args = vec![self.rng.below(40) as i64, self.rng.below(40) as i64];
            let issued_at = self.p.now().0;
            let req = log.span("rpc_with", op, |_| {
                self.p.rpc_with(
                    self.base,
                    robot,
                    "operator:1",
                    "DrawingService",
                    "moveTo",
                    args,
                    sem,
                )
            });
            open.insert(req, (sem, issued_at));
            log.span("pump", op, |_| self.p.pump(CADENCE));
            let outcomes = log.span("take_rpc_outcomes", op, |_| self.p.take_rpc_outcomes());
            settle(&mut s, &mut open, outcomes);
            s.op_ms.push(call_start.elapsed().as_secs_f64() * 1e3);
        }
        // Let every retried call run out its backoff schedule.
        for _ in 0..30 {
            if open
                .values()
                .all(|(sem, _)| *sem == InvocationSemantics::Maybe)
            {
                break;
            }
            log.span("pump", self.calls as u64, |_| self.p.pump(SEC));
            let outcomes = log.span("take_rpc_outcomes", self.calls as u64, |_| {
                self.p.take_rpc_outcomes()
            });
            settle(&mut s, &mut open, outcomes);
        }
        s.wall_s = started.elapsed().as_secs_f64();
        s.attempted = self.calls as u64;
        let mut lost_maybe = 0;
        for (req, (sem, _)) in &open {
            if *sem == InvocationSemantics::Maybe {
                lost_maybe += 1;
            } else {
                s.failed += 1;
                s.errors.push(format!("{sem} call {req} never resolved"));
            }
        }
        let dups = world::duplicate_executions(&self.p, &self.robots);
        s.check(dups == 0, || {
            format!("{dups} duplicate at-most-once executions")
        });
        s.counts = world::delta(&world::counts(&self.p, &[self.base], &self.robots), &before);
        s.counts.insert("core.maybe_lost".into(), lost_maybe);
        s.digest = world::run_digest(&self.p);
        s
    }
}

/// Books outcomes against their open calls: ok calls complete an
/// operation with their simulated latency, anything else fails.
fn settle(
    s: &mut Slice,
    open: &mut BTreeMap<u64, (InvocationSemantics, u64)>,
    outcomes: Vec<pmp_core::RpcOutcome>,
) {
    for o in outcomes {
        match open.remove(&o.req) {
            Some((_, issued_at)) if o.ok => {
                s.ops += 1;
                s.sim_ms.push(o.at.saturating_sub(issued_at) as f64 / 1e6);
            }
            Some((sem, _)) => {
                s.failed += 1;
                s.errors
                    .push(format!("{sem} call {} failed: {}", o.req, o.value));
            }
            None => s.errors.push(format!("outcome for unknown call {}", o.req)),
        }
    }
}
