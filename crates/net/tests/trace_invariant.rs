//! Property test for the delivery-accounting invariant: every unicast
//! submission is eventually counted exactly once as delivered,
//! dropped-at/en-route-out-of-range, or lost on the link — i.e. after
//! the event queue drains,
//!
//! `sent == delivered + dropped_range + dropped_loss`.
//!
//! (Broadcast copies are accounted under `broadcasts`/`dropped_*` with
//! no `sent` bump, so the randomized runs below use unicast only.)
//!
//! Each seeded run is replayed through both entry points of the
//! scheduler — direct calls stepped by `step`, and buffered commands
//! merged by `apply_cmds` and drained by `drain_epoch` — which must
//! produce the same delivery log, wired backhaul segments included.
//!
//! Randomization comes from the simulator's own deterministic
//! [`SimRng`], so each of these cases is exactly reproducible by seed.

use pmp_net::prelude::*;
use pmp_telemetry::SimRng;

/// How a run's effects reach the scheduler.
#[derive(Clone, Copy, Debug)]
enum Entry {
    /// `Simulator::send`/`set_timer`, events stepped by `step`.
    Direct,
    /// `NetCmd`s through `apply_cmds`, events drained epoch by epoch
    /// and then `run_until`, as `Platform::pump` does.
    Barrier,
}

fn send(sim: &mut Simulator, entry: Entry, from: NodeId, to: NodeId, len: usize) {
    match entry {
        Entry::Direct => {
            sim.send(from, to, "prop", vec![0u8; len]);
        }
        Entry::Barrier => sim.apply_cmds([NetCmd::Send {
            at: sim.now(),
            from,
            to,
            channel: "prop".into(),
            payload: vec![0u8; len],
        }]),
    }
}

fn set_timer(sim: &mut Simulator, entry: Entry, node: NodeId, delay_ns: u64) {
    match entry {
        Entry::Direct => {
            sim.set_timer(node, delay_ns, "t");
        }
        Entry::Barrier => sim.apply_cmds([NetCmd::Timer {
            at: sim.now(),
            node,
            token: 0,
            delay_ns,
            tag: "t".into(),
        }]),
    }
}

fn run_until(sim: &mut Simulator, entry: Entry, until: SimTime) {
    match entry {
        Entry::Direct => sim.run_until(until),
        Entry::Barrier => {
            let mut epoch = Epoch::default();
            while sim.drain_epoch(until, &mut epoch) {}
            sim.run_until(until);
        }
    }
}

/// One randomized world: 2–6 nodes scattered near/far, some joined by
/// wired segments, a random link loss rate, random mid-run moves,
/// partitions, radio toggles and timers. Returns the counters and the
/// delivery-log digest (logging on).
fn randomized_run(seed: u64, entry: Entry) -> (NetStats, u64) {
    let mut r = SimRng::new(seed);
    let loss = r.next_f64() * 0.6;
    let mut sim = Simulator::with_link(seed, LinkModel::lossy(loss));
    sim.deliveries.set_logging(true);

    let n_nodes = 2 + r.range_u64(5) as usize;
    let nodes: Vec<NodeId> = (0..n_nodes)
        .map(|i| {
            // Mostly clustered in range, some stragglers far away.
            let x = r.range_u64(120) as f64;
            let y = r.range_u64(40) as f64;
            sim.add_node(format!("n{i}"), Position::new(x, y), 60.0)
        })
        .collect();
    let pick = |r: &mut SimRng| *r.pick(&nodes);
    for _ in 0..r.range_u64(3) {
        let (a, b) = (pick(&mut r), pick(&mut r));
        sim.add_wired_link(a, b);
    }

    let n_sends = 20 + r.range_u64(80);
    for _ in 0..n_sends {
        let (from, to) = (pick(&mut r), pick(&mut r));
        let len = r.range_u64(64) as usize;
        send(&mut sim, entry, from, to, len);

        // Occasionally shake the world while messages are in flight, so
        // the delivery-time range check exercises `dropped_range`.
        match r.range_u64(11) {
            0 => {
                let node = pick(&mut r);
                let x = r.range_u64(400) as f64;
                sim.move_node(node, Position::new(x, 0.0));
            }
            1 => {
                let (a, b) = (pick(&mut r), pick(&mut r));
                sim.partition(a, b);
            }
            2 => {
                let node = pick(&mut r);
                sim.set_online(node, r.chance(0.5));
            }
            3 => {
                let until = sim.now().plus(1 + r.range_u64(2_000_000));
                run_until(&mut sim, entry, until);
            }
            4 => {
                let node = pick(&mut r);
                set_timer(&mut sim, entry, node, 1 + r.range_u64(3_000_000));
            }
            _ => {}
        }
    }

    // Drain every in-flight event so each submission has been resolved
    // one way or the other.
    while let Some(next) = sim.peek_next() {
        run_until(&mut sim, entry, next);
    }
    (sim.stats(), sim.trace_digest())
}

#[test]
fn sent_equals_delivered_plus_drops_across_randomized_runs() {
    for seed in 0..60 {
        let (direct, direct_digest) = randomized_run(seed, Entry::Direct);
        let (barrier, barrier_digest) = randomized_run(seed, Entry::Barrier);
        for (entry, stats) in [(Entry::Direct, direct), (Entry::Barrier, barrier)] {
            assert_eq!(
                stats.sent,
                stats.delivered + stats.dropped_range + stats.dropped_loss,
                "accounting leak at seed {seed} ({entry:?}): {stats:?}"
            );
            assert_eq!(stats.broadcasts, 0, "unicast-only run");
        }
        assert_eq!(
            direct_digest, barrier_digest,
            "entry points diverged at seed {seed}: {direct:?} vs {barrier:?}"
        );
    }
}

#[test]
fn mixed_workload_still_balances_after_drain() {
    // A hand-built nasty case: loss + an offline receiver + a receiver
    // that walks out of range mid-flight.
    let mut sim = Simulator::with_link(99, LinkModel::lossy(0.4));
    let a = sim.add_node("a", Position::new(0.0, 0.0), 50.0);
    let b = sim.add_node("b", Position::new(10.0, 0.0), 50.0);
    let c = sim.add_node("c", Position::new(20.0, 0.0), 50.0);
    for i in 0..50 {
        sim.send(a, b, "x", vec![0; 16]);
        sim.send(a, c, "y", vec![0; 32]);
        if i == 10 {
            sim.set_online(c, false);
        }
        if i == 20 {
            sim.move_node(b, Position::new(500.0, 0.0));
        }
    }
    while sim.has_events() {
        sim.step();
    }
    let s = sim.stats();
    assert_eq!(s.sent, 100);
    assert_eq!(s.sent, s.delivered + s.dropped_range + s.dropped_loss, "{s:?}");
    assert!(s.dropped_range > 0, "range drops exercised: {s:?}");
    assert!(s.dropped_loss > 0, "loss drops exercised: {s:?}");
}
