//! `fanout`: durable commits reaching stream subscribers.
//!
//! The federated production halls with thousands of live cursors on
//! hall A's movement namespace; 1% of them are slow and drain only every
//! 64 bursts, so they overflow the 512-entry ring and resync. Each burst
//! is one remote `drawLine` per simulated second, after which every fast
//! cursor is drained. One operation is one delivery to a subscriber.
//!
//! Why: read-heavy on the stream, the mirror of `rpc`: a change that
//! moves work between commit and drain shows on one or the other.

use crate::spans::SpanLog;
use crate::world::{self, Anchor, Rng, Slice, Workload, SEC};
use pmp_core::{BaseId, MobId, Platform, StreamSub};
use std::time::Instant;

const NS: &str = "store.movements";
/// One cursor in this many is slow.
const SLOW_EVERY: usize = 100;
/// Slow cursors drain once per this many bursts.
const SLOW_PERIOD: usize = 64;

/// The fanout world.
pub struct Fanout {
    p: Platform,
    bases: Vec<BaseId>,
    robot: MobId,
    subs: Vec<StreamSub>,
    /// Last rev each cursor has seen.
    seen: Vec<u64>,
    bursts: usize,
    rng: Rng,
    /// How the world was built, for the one-subscriber control.
    build: (u64, bool, usize),
}

impl Fanout {
    fn with_subscribers(seed: u64, tiny: bool, threads: usize, subscribers: usize) -> Fanout {
        let mut rng = Rng::new(seed);
        let (mut p, bases, robots) = world::federated_halls(rng.next_u64(), threads, 1, &mut rng);
        world::adapt_all(&mut p, &robots);
        let subs: Vec<StreamSub> = (0..subscribers)
            .map(|_| p.subscribe_live(bases[0], NS))
            .collect();
        let head = p.stream_head_rev(bases[0], NS);
        Fanout {
            p,
            bases,
            robot: robots[0],
            seen: vec![head; subs.len()],
            subs,
            bursts: if tiny { 4 } else { 128 },
            rng,
            build: (seed, tiny, threads),
        }
    }

    /// Drains cursor `i`, checking that revs only move forward; returns
    /// the deliveries.
    fn drain(&mut self, i: usize, s: &mut Slice, log: &mut SpanLog, op: u64) -> u64 {
        let events = log.span("drain_updates", op, |_| self.p.drain_updates(self.subs[i]));
        for ev in &events {
            s.check(ev.rev() > self.seen[i], || {
                format!("cursor {i} went from rev {} to {}", self.seen[i], ev.rev())
            });
            self.seen[i] = ev.rev();
        }
        events.len() as u64
    }

    /// The timed bursts; returns the deltas hall A encoded meanwhile.
    fn bursts(&mut self, s: &mut Slice, log: &mut SpanLog) -> u64 {
        let base = self.bases[0];
        let encoded_before = self.p.stream_stats(base).encoded;
        for burst in 0..self.bursts {
            let op = burst as u64;
            let x = self.rng.below(12) as i64;
            let head_before = self.p.stream_head_rev(base, NS);
            let sim_start = self.p.now().0;
            log.span("rpc", op, |_| {
                self.p.rpc(
                    base,
                    self.robot,
                    "operator:1",
                    "DrawingService",
                    "drawLine",
                    vec![x, 0, x + 8, 4],
                )
            });
            log.span("pump", op, |_| self.p.pump(SEC));
            let outcomes = log.span("take_rpc_outcomes", op, |_| self.p.take_rpc_outcomes());
            match outcomes.as_slice() {
                [o] if o.ok => s.sim_ms.push((o.at - sim_start) as f64 / 1e6),
                _ => s
                    .errors
                    .push(format!("burst {burst}: drawLine outcomes {outcomes:?}")),
            }
            let head = self.p.stream_head_rev(base, NS);
            s.check(head > head_before, || {
                format!("burst {burst} committed nothing")
            });

            let pass = Instant::now();
            let mut delivered = 0;
            for i in (0..self.subs.len()).filter(|i| i % SLOW_EVERY != 0) {
                delivered += self.drain(i, s, log, op);
            }
            s.op_ms.push(pass.elapsed().as_secs_f64() * 1e3);
            if burst % SLOW_PERIOD == SLOW_PERIOD - 1 {
                for i in (0..self.subs.len()).step_by(SLOW_EVERY) {
                    delivered += self.drain(i, s, log, op);
                }
            }
            s.ops += delivered;
        }
        for i in (0..self.subs.len()).step_by(SLOW_EVERY) {
            s.ops += self.drain(i, s, log, self.bursts as u64);
        }
        let head = self.p.stream_head_rev(base, NS);
        let behind = self.seen.iter().filter(|r| **r != head).count();
        s.check(behind == 0, || {
            format!("{behind} cursors short of head rev {head}")
        });
        self.p.stream_stats(base).encoded - encoded_before
    }
}

impl Workload for Fanout {
    const NAME: &'static str = "fanout";

    fn build(seed: u64, tiny: bool, threads: usize) -> Fanout {
        Fanout::with_subscribers(seed, tiny, threads, if tiny { 200 } else { 20_000 })
    }

    fn platform(&mut self) -> &mut Platform {
        &mut self.p
    }

    fn anchor(&mut self) -> Anchor<'_> {
        Anchor {
            p: &mut self.p,
            base: self.bases[0],
            robot: self.robot,
        }
    }

    fn run(&mut self, log: &mut SpanLog) -> Slice {
        let mut s = Slice::default();
        let before = world::counts(&self.p, &self.bases, &[self.robot]);
        let started = Instant::now();
        let encoded = self.bursts(&mut s, log);
        s.wall_s = started.elapsed().as_secs_f64();
        s.attempted = s.ops;
        s.counts = world::delta(&world::counts(&self.p, &self.bases, &[self.robot]), &before);
        s.digest = world::run_digest(&self.p);

        // The same seed, schedule and tracing with one subscriber: each
        // commit is encoded once, however many cursors read it.
        let (seed, tiny, threads) = self.build;
        let mut control = Fanout::with_subscribers(seed, tiny, threads, 1);
        control.p.set_tracing(self.p.tracing());
        let control_encoded = control.bursts(&mut Slice::default(), &mut SpanLog::new(false));
        s.check(encoded == control_encoded, || {
            format!("encoded {encoded} deltas, one-subscriber control {control_encoded}")
        });
        s
    }
}
