//! Layer replays: each layer's public function timed from outside on
//! the workload's own inputs — the extension in the world's catalog,
//! the robot's VM and trust store, the base's store at the size the
//! workload left it.

use crate::run::Metric;
use crate::sample::{self, Plan};
use crate::world::{Anchor, MS};
use pmp_analyze::{AnalyzeOptions, SysPerm};
use pmp_core::{InvocationSemantics, RpcMsg};
use pmp_durable::{Durable, WalRecord};
use pmp_midas::SignedExtension;
use pmp_prose::WeaveOptions;
use pmp_store::{MovementRecord, MovementStore};
use pmp_stream::{NullSource, StreamConfig, StreamHub, StreamSource};
use pmp_vm::perm::Permissions;
use std::hint::black_box;
use std::time::Instant;

/// One cheap call's plan: 11 samples of 50 calls.
const CALLS: Plan = Plan::new(50);
/// One costly call's plan: 7 samples of one call.
const ONCE: Plan = Plan {
    warmup: 1,
    iters: 1,
    repeats: 7,
};
/// Subscribers the stream replay drains per published record.
const FANOUT: usize = 64;
/// Records the stream replay publishes per sample.
const BATCH: u64 = 32;
/// Records the append replay appends per sample.
const APPENDS: usize = 256;
/// The namespace the stream replays publish to.
const NS: &str = "store.movements";

/// A stream source with no log, whose snapshots are the store's.
struct StoreSource<'a>(&'a MovementStore);

impl StreamSource for StoreSource<'_> {
    fn full_log(&self) -> Option<Vec<WalRecord>> {
        None
    }

    fn snapshot(&self, _ns: &str) -> Option<Vec<u8>> {
        Some(self.0.snapshot_bytes())
    }
}

/// Median time of a checkpoint of `a`'s base, in microseconds.
pub fn checkpoint_us(a: Anchor<'_>) -> f64 {
    sample::time_ns(ONCE, || a.p.checkpoint_base(a.base)).median / 1e3
}

/// Times every layer on `a`'s inputs. `batch` is the workload's records
/// per group commit, and `checkpoint_at_start_us` what a checkpoint of
/// the world cost before its timed phase. Mutates the world (a woven and
/// unwoven aspect, extra movement records, checkpoints and restarts), so
/// call it after the timed phase.
pub fn replay(a: Anchor<'_>, batch: usize, checkpoint_at_start_us: f64) -> Vec<Metric> {
    let Anchor { p, base, robot } = a;
    let signed: SignedExtension = p
        .base(base)
        .base
        .catalog
        .get("ext/access-control")
        .expect("hall A publishes access control")
        .clone();
    let pkg = signed.open().expect("catalog entries decode");
    let trust = p.node(robot).receiver.policy.trust.clone();
    let mut m = Vec::new();

    m.push(Metric::sampled(
        "crypto.verify_us",
        "us",
        sample::time_ns(CALLS, || signed.verify_and_open(&trust).expect("verifies")),
        1e-3,
    ));
    m.push(Metric::sampled(
        "crypto.sign_us",
        "us",
        sample::time_ns(CALLS, || p.base(base).seal(&pkg)),
        1e-3,
    ));
    let bytes = pmp_wire::to_bytes(&signed);
    m.push(Metric::sampled(
        "wire.decode_us",
        "us",
        sample::time_ns(CALLS, || {
            pmp_wire::from_bytes::<SignedExtension>(black_box(&bytes)).expect("decodes")
        }),
        1e-3,
    ));
    let msg = RpcMsg::CallSem {
        caller: "operator:1".into(),
        class: "DrawingService".into(),
        method: "moveTo".into(),
        args: vec![3, 4],
        req: 1,
        sem: InvocationSemantics::AtMostOnce,
        attempt: 1,
    };
    m.push(Metric::sampled(
        "wire.rpcmsg_roundtrip_ns",
        "ns",
        sample::time_ns(Plan::new(2_000), || {
            pmp_wire::from_bytes::<RpcMsg>(&pmp_wire::to_bytes(black_box(&msg))).expect("decodes")
        }),
        1.0,
    ));

    // The admission gate exactly as the receiver runs it.
    let node = p.node_mut(robot);
    let declared = Permissions::from_names(pkg.meta.permissions.iter().map(String::as_str));
    let opts = AnalyzeOptions::default();
    {
        let reg = node.vm.sys_registry();
        let resolver = |name: &str| match reg.lookup(name) {
            Some(idx) => match reg.perm_of(idx) {
                Some(perm) => SysPerm::Guarded(perm),
                None => SysPerm::Unguarded,
            },
            None => SysPerm::Unknown,
        };
        m.push(Metric::sampled(
            "analyze.gate_us",
            "us",
            sample::time_ns(CALLS, || {
                pmp_analyze::analyze_aspect(&pkg.aspect, declared, &resolver, &opts)
            }),
            1e-3,
        ));
    }
    m.push(Metric::sampled(
        "analyze.interference_us",
        "us",
        sample::time_ns(CALLS, || node.prose.interference_report(&node.vm)),
        1e-3,
    ));
    m.push(Metric::sampled(
        "analyze.opt_us",
        "us",
        sample::time_ns(CALLS, || pmp_midas::optimize_package(&pkg)),
        1e-3,
    ));
    let perms = node
        .receiver
        .policy
        .effective(signed.signer(), &pkg.meta.permissions);
    m.push(Metric::sampled(
        "prose.weave_us",
        "us",
        sample::time_ns(CALLS, || {
            let id = node
                .prose
                .weave(
                    &mut node.vm,
                    pkg.aspect.clone().into(),
                    WeaveOptions::sandboxed(perms),
                )
                .expect("weaves");
            node.prose
                .unweave(&mut node.vm, id, "replay")
                .expect("unweaves");
        }),
        1e-3,
    ));

    // A woven service call, and its cost per advice dispatch.
    *node.wiring.caller.lock() = "operator:1".into();
    let svc = node.services["DrawingService"].clone();
    let position = |vm: &mut pmp_vm::Vm| {
        vm.call("DrawingService", "position", svc.clone(), vec![])
            .expect("operator 1 is always allowed")
    };
    let before = node.vm.stats().advice_dispatches;
    position(&mut node.vm);
    let per_call = (node.vm.stats().advice_dispatches - before).max(1) as f64;
    let woven = sample::time_ns(Plan::new(500), || position(&mut node.vm));
    m.push(Metric::sampled("vm.woven_call_us", "us", woven, 1e-3));
    m.push(Metric::sampled(
        "vm.dispatch_ns",
        "ns",
        woven,
        1.0 / per_call,
    ));

    // Durable, on the store the workload left: a checkpoint, crash-restarts,
    // then appends in the workload's group-commit batches (these grow the
    // store, so they come last).
    let record = MovementRecord {
        robot: "robot:1:1".into(),
        device: "motor:x".into(),
        command: "Motor.rotate".into(),
        args: vec![90],
        issued_at: p.now().0,
        duration_ns: 5 * MS,
    };
    m.push(Metric::single(
        "durable.snapshot_kb",
        "kB",
        p.base(base).store.snapshot_bytes().len() as f64 / 1e3,
    ));
    // The store grows about linearly over the timed phase, and so does a
    // checkpoint's cost: the mean of its cost at both ends stands for
    // the checkpoints taken in between.
    let at_end = sample::time_ns(ONCE, || p.checkpoint_base(base)).median / 1e3;
    m.push(Metric::median(
        "durable.checkpoint_us",
        "us",
        &[checkpoint_at_start_us, at_end],
    ));
    let mut restarts = Vec::new();
    for _ in 0..ONCE.repeats {
        p.crash_base(base);
        let t = Instant::now();
        black_box(p.restart_base(base));
        restarts.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.push(Metric::median("durable.recover_ms", "ms", &restarts));

    // A cursor the ring has rolled past, resynced from a snapshot of the
    // workload's store, as the platform does once checkpoints have
    // compacted the log.
    let payload = MovementStore::wal_payload(&record);
    let store = StoreSource(&p.base(base).store);
    let mut hub = StreamHub::new(StreamConfig::default());
    let sub = hub.subscribe_live(NS);
    let (mut seq, mut resyncs) = (0, Vec::new());
    for _ in 0..ONCE.repeats {
        for _ in 0..=StreamConfig::default().ring_cap {
            seq += 1;
            hub.publish(NS, seq, &payload);
        }
        let t = Instant::now();
        black_box(hub.drain(sub, &store));
        resyncs.push(t.elapsed().as_secs_f64() * 1e6);
    }
    m.push(Metric::median("stream.resync_us", "us", &resyncs));

    let batch = batch.clamp(1, APPENDS);
    let appends = Plan {
        warmup: 1,
        iters: (APPENDS / batch) as u32,
        repeats: CALLS.repeats,
    };
    let per_batch = sample::time_ns(appends, || {
        let station = p.base_mut(base);
        for _ in 0..batch {
            station.record_movement(record.clone());
        }
        station.durable.commit();
    });
    m.push(Metric::sampled(
        "durable.append_commit_ns",
        "ns",
        per_batch,
        1.0 / batch as f64,
    ));

    // Stream: movement records published once each, then drained by
    // many cursors; both per record (per delivery for the drain).
    let mut hub = StreamHub::new(StreamConfig::default());
    let subs: Vec<_> = (0..FANOUT).map(|_| hub.subscribe_live(NS)).collect();
    let (mut publish, mut drain) = (Vec::new(), Vec::new());
    let mut seq = 0;
    for _ in 0..CALLS.repeats {
        let t = Instant::now();
        for _ in 0..BATCH {
            seq += 1;
            black_box(hub.publish(NS, seq, &payload));
        }
        publish.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
        let t = Instant::now();
        for s in &subs {
            black_box(hub.drain(*s, &NullSource));
        }
        drain.push(t.elapsed().as_nanos() as f64 / (FANOUT as u64 * BATCH) as f64);
    }
    m.push(Metric::median("stream.publish_ns", "ns", &publish));
    m.push(Metric::median("stream.drain_ns", "ns", &drain));

    m.push(Metric::sampled(
        "core.idle_pump_us",
        "us",
        sample::time_ns(Plan::new(20), || p.pump(MS)),
        1e-3,
    ));
    m
}
