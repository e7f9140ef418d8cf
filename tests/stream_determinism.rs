//! Cross-driver determinism of the rev stream (pmp-stream): the delta
//! sequence every subscriber observes — revs, event kinds, and the
//! exact bytes — must be identical under the serial and parallel epoch
//! drivers, including across a crash → restart boundary where cursors
//! go through forced snapshot resync.
//!
//! The test also closes the loop semantically: a mirror `MovementStore`
//! built purely from drained stream events must converge to the
//! publisher's state digest at every barrier.

use pmp::core::{
    Driver, InvocationSemantics, ParallelDriver, Platform, ProductionHalls, SerialDriver,
    StreamEvent, StreamSub,
};
use pmp::durable::Durable;
use pmp::store::MovementStore;
use pmp::telemetry::Fnv64;

const SEC: u64 = 1_000_000_000;

const NAMESPACES: [&str; 3] = ["store.movements", "midas.base", "trace.flight"];

fn fingerprint_event(ns: &str, ev: &StreamEvent) -> String {
    let (kind, rev, bytes) = match ev {
        StreamEvent::Delta { rev, bytes } => ("delta", *rev, bytes),
        StreamEvent::Snapshot { rev, bytes } => ("snapshot", *rev, bytes),
    };
    let mut h = Fnv64::new();
    h.write(bytes);
    format!("{ns} {kind} rev={rev} len={} fnv={:016x}", bytes.len(), h.finish())
}

/// Applies one stream event to a mirror store the way any subscriber
/// would: deltas through `apply_record`, snapshots adopted whole.
fn apply_to_mirror(mirror: &mut MovementStore, ev: &StreamEvent) {
    match ev {
        StreamEvent::Delta { bytes, .. } => mirror.apply_record(bytes).expect("delta applies"),
        StreamEvent::Snapshot { bytes, .. } => {
            mirror.restore_snapshot(bytes).expect("snapshot restores");
        }
    }
}

struct StreamRun {
    /// Every drained event of every subscriber, in drain order.
    log: Vec<String>,
    driver: &'static str,
}

fn drain_all(
    p: &mut Platform,
    subs: &[(String, StreamSub)],
    log: &mut Vec<String>,
    mirror: &mut MovementStore,
) {
    for (ns, sub) in subs {
        for ev in p.drain_updates(*sub) {
            log.push(fingerprint_event(ns, &ev));
            if ns == "store.movements" {
                apply_to_mirror(mirror, &ev);
            }
        }
    }
}

fn run_stream(driver: Box<dyn Driver>) -> StreamRun {
    let name = driver.name();
    let mut w = ProductionHalls::build(23);
    w.platform.set_driver(driver);
    let base_a = w.base_a;
    let subs: Vec<(String, StreamSub)> = NAMESPACES
        .iter()
        .map(|ns| (ns.to_string(), w.platform.subscribe(base_a, ns)))
        .collect();
    let mut log = Vec::new();
    let mut mirror = MovementStore::new();

    // Adaptation: catalog deliveries land in "midas.base", spans in
    // "trace.flight".
    w.platform.pump(6 * SEC);
    drain_all(&mut w.platform, &subs, &mut log, &mut mirror);

    // A drawing RPC: the monitoring extension reports movements to the
    // base, which WAL-logs them into "store.movements".
    w.platform.rpc(
        base_a,
        w.robot,
        "operator:1",
        "DrawingService",
        "drawLine",
        vec![0, 0, 10, 0],
    );
    w.platform.pump(3 * SEC);
    drain_all(&mut w.platform, &subs, &mut log, &mut mirror);
    assert_eq!(
        mirror.state_digest(),
        w.platform.base(base_a).store.state_digest(),
        "mirror diverged from publisher before the crash"
    );

    // Crash → restart: cursors are force-resynced; the drained sequence
    // after restart must start with snapshots, identically per driver.
    w.platform.crash_base(base_a);
    w.platform.pump(2 * SEC);
    drain_all(&mut w.platform, &subs, &mut log, &mut mirror); // crashed: drains empty
    w.platform.restart_base(base_a);
    w.platform.pump(6 * SEC);
    drain_all(&mut w.platform, &subs, &mut log, &mut mirror);

    // A late subscriber bootstraps the full history (log or snapshot)
    // — also identically per driver.
    let late = w.platform.subscribe(base_a, "store.movements");
    let mut late_mirror = MovementStore::new();
    for ev in w.platform.drain_updates(late) {
        log.push(fingerprint_event("late:store.movements", &ev));
        apply_to_mirror(&mut late_mirror, &ev);
    }

    assert_eq!(
        mirror.state_digest(),
        w.platform.base(base_a).store.state_digest(),
        "mirror diverged from publisher after restart resync"
    );
    assert_eq!(
        late_mirror.state_digest(),
        w.platform.base(base_a).store.state_digest(),
        "late subscriber did not converge"
    );

    StreamRun { log, driver: name }
}

#[test]
fn subscriber_streams_are_driver_invariant() {
    let serial = run_stream(Box::new(SerialDriver));
    let parallel = run_stream(Box::new(ParallelDriver { threads: 3 }));
    assert_eq!(
        serial.log, parallel.log,
        "{} vs {} subscriber event sequences diverged",
        serial.driver, parallel.driver
    );
    // The run exercised all three stream kinds: ordinary deltas, the
    // forced post-restart resync, and a late bootstrap.
    assert!(serial.log.iter().any(|l| l.contains(" delta ")));
    assert!(
        serial.log.iter().any(|l| l.contains("snapshot")),
        "restart should have forced at least one snapshot resync: {:?}",
        serial.log.iter().take(8).collect::<Vec<_>>()
    );
    assert!(serial.log.iter().any(|l| l.starts_with("late:")));
}

#[test]
fn serial_stream_runs_are_repeatable() {
    let a = run_stream(Box::new(SerialDriver));
    let b = run_stream(Box::new(SerialDriver));
    assert_eq!(a.log, b.log);
}

/// `rpc.calls` is the base's fourth durable store and the hub publishes
/// its records, so a cursor on it must resync from a snapshot after a
/// restart like a cursor on any other namespace — not stay in resync
/// for good.
#[test]
fn an_rpc_calls_cursor_resyncs_from_a_snapshot_after_a_base_restart() {
    let mut w = ProductionHalls::build(23);
    let (p, base_a) = (&mut w.platform, w.base_a);
    p.pump(6 * SEC);
    let sub = p.subscribe(base_a, "rpc.calls");
    let req = p.rpc_with(
        base_a,
        w.robot,
        "operator:1",
        "DrawingService",
        "position",
        vec![],
        InvocationSemantics::AtMostOnce,
    );
    p.pump(SEC);
    assert!(p.take_rpc_outcomes().iter().any(|o| o.req == req));

    p.crash_base(base_a);
    p.restart_base(base_a);
    let table = p.base(base_a).rpc.snapshot_bytes();
    assert!(
        p.base(base_a).rpc.recently_resolved(req),
        "the resolved call survived the restart"
    );
    let events = p.drain_updates(sub);
    assert!(
        matches!(events.as_slice(), [StreamEvent::Snapshot { bytes, .. }] if bytes[..] == table[..]),
        "one snapshot of the recovered call table, got {events:?}"
    );
}
