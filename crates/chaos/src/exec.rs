//! Executes a chaos script against the real [`Platform`].
//!
//! The executor is the only piece that touches the system under test.
//! It builds the world the topology describes, replays the steps in
//! time order, pumps in fixed slices, and runs the barrier oracles
//! after every slice. Two properties matter more than anything here:
//!
//! * **Determinism** — the same scenario and driver produce the same
//!   [`RunReport`] byte for byte. Nothing reads wall-clock time, no
//!   hash-ordered container leaks into the report, and the pump-slice
//!   quantum is a constant.
//! * **Totality** — every op is valid in every state. Precondition
//!   failures (crash a crashed base, publish from a dead one, index
//!   past the node table) are no-ops, so the shrinker may delete any
//!   subset of steps and still have a meaningful script.

use crate::oracle::{
    check_barrier, stream_resync, OracleState, StreamMirror, Violation, HOSTILE_PREFIX,
};
use crate::script::{
    Op, Scenario, Step, CORRIDOR, HALL_PITCH, HALL_SIDE, MAX_NODES, MAX_SUBS, RADIO_RANGE,
    STREAM_NAMESPACES,
};
use pmp_core::rpc::InvocationSemantics;
use pmp_core::{BaseId, MobId, ParallelDriver, Platform, RpcOutcome, SerialDriver};
use pmp_crypto::KeyPair;
use pmp_midas::{ExtensionMeta, ExtensionPackage, SignedExtension};
use pmp_net::{LinkModel, Position};
use pmp_prose::{Aspect, Crosscut, PortableAspect, PortableClass, PortableMethod};
use pmp_vm::builder::MethodBuilder;
use pmp_vm::op::Op as VmOp;
use pmp_vm::perm::{Permission, Permissions};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Which node-execution driver to run the platform under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverKind {
    /// The golden reference: rank order, one thread.
    Serial,
    /// Scoped worker threads with the epoch-barrier merge.
    Parallel,
}

impl DriverKind {
    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DriverKind::Serial => "serial",
            DriverKind::Parallel => "parallel",
        }
    }
}

/// Everything one chaos run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Driver the run used.
    pub driver: &'static str,
    /// Network trace digest at the end of the run.
    pub trace: u64,
    /// Journal digest (platform + per-node VM journals).
    pub journal: u64,
    /// Span digest over every trace span the run produced.
    pub span_digest: u64,
    /// Per-node flight-recorder dumps (bases first, then mobiles, in
    /// rank order) for the `.repro` artifact.
    pub flight: Vec<(u32, Vec<pmp_trace::FlightEntry>)>,
    /// Invariant breaches, in observation order.
    pub violations: Vec<Violation>,
    /// Canonical end-of-run state, one line per fact.
    pub observables: Vec<String>,
    /// True if the run aborted early (a `recover()` panic).
    pub aborted: bool,
}

impl RunReport {
    /// Whether any oracle fired.
    #[must_use]
    pub fn failed(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// A serial + parallel pair over the same scenario, with the
/// cross-driver oracle applied.
#[derive(Debug, Clone)]
pub struct CrossReport {
    /// The serial run.
    pub serial: RunReport,
    /// The parallel run.
    pub parallel: RunReport,
    /// All violations: serial's, parallel's, plus any `cross-driver`
    /// mismatches.
    pub violations: Vec<Violation>,
}

impl CrossReport {
    /// Whether anything at all went wrong.
    #[must_use]
    pub fn failed(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// Pump quantum between oracle barriers, ms. A constant: changing it
/// changes observation times and therefore run reports.
const SLICE_MS: u64 = 250;
/// Worker cap for the parallel driver — fixed, not host-derived, so
/// reports cannot depend on the machine.
const PARALLEL_THREADS: usize = 3;

struct World {
    p: Platform,
    bases: Vec<BaseId>,
    nodes: Vec<MobId>,
    st: OracleState,
    violations: Vec<Violation>,
    /// RPC outcomes drained at every slice (the throughput oracle
    /// needs them per barrier); rendered once at end of run in the
    /// same request-id order the old end-only drain produced.
    rpc_outcomes: Vec<RpcOutcome>,
    now_ms: u64,
    aborted: bool,
}

fn hall_center(i: usize) -> Position {
    Position::new(i as f64 * HALL_PITCH + HALL_SIDE / 2.0, HALL_SIDE / 2.0)
}

/// Deterministic parking slot for node `k` inside hall `i`: a 4×4 grid
/// around the hall centre, all well inside radio range.
fn slot(i: usize, k: usize) -> Position {
    let x0 = i as f64 * HALL_PITCH;
    Position::new(
        x0 + 22.0 + 4.0 * (k % 4) as f64,
        22.0 + 4.0 * ((k / 4) % 4) as f64,
    )
}

fn receiver_cap() -> Permissions {
    Permissions::none()
        .with(Permission::Print)
        .with(Permission::Net)
        .with(Permission::Time)
        .with(Permission::Store)
}

fn build(sc: &Scenario, driver: DriverKind) -> World {
    let t = &sc.topology;
    let link = if t.loss_per_mille == 0 {
        LinkModel::ideal()
    } else {
        LinkModel::lossy(f64::from(t.loss_per_mille) / 1000.0)
    };
    let mut p = Platform::with_link(sc.seed, link);
    match driver {
        DriverKind::Serial => p.set_driver(Box::new(SerialDriver)),
        DriverKind::Parallel => p.set_driver(Box::new(ParallelDriver {
            threads: PARALLEL_THREADS,
        })),
    }
    p.sim.deliveries.set_logging(true);
    p.set_tracing(true);

    let halls = usize::from(t.halls.max(1));
    let mut bases = Vec::with_capacity(halls);
    for i in 0..halls {
        let name = format!("hall-{i}");
        let x0 = i as f64 * HALL_PITCH;
        p.add_area(
            &name,
            Position::new(x0, 0.0),
            Position::new(x0 + HALL_SIDE, HALL_SIDE),
        );
        let b = p.add_base(&name, hall_center(i), RADIO_RANGE);
        p.base_mut(b)
            .base
            .set_lease(u64::from(t.lease_ms) * 1_000_000);
        bases.push(b);
    }
    if t.link_neighbors {
        for w in 1..bases.len() {
            p.link_bases(bases[w - 1], bases[w]);
        }
    }
    for (i, &b) in bases.iter().enumerate() {
        if let Some(catalog) = t.catalogs.get(i) {
            for entry in catalog {
                p.publish_extension(b, &entry.kind.package(entry.version));
            }
        }
    }

    let mut nodes = Vec::new();
    for k in 0..usize::from(t.robots.max(1)) {
        let hall = k % halls;
        let name = format!("robot:{}:1", k + 1);
        let policy = p.trusting_policy(&bases, receiver_cap());
        let m = p
            .add_robot(&name, slot(hall, k), RADIO_RANGE, policy)
            .expect("robot registration is infallible with stock classes");
        nodes.push(m);
    }

    let mut st = OracleState::new(u64::from(t.lease_ms), bases.len(), nodes.len());
    st.loss_free = t.loss_per_mille == 0;
    st.baseline_latency_ns = p.sim.link_model().base_latency_ns;
    World {
        p,
        bases,
        nodes,
        st,
        violations: Vec::new(),
        rpc_outcomes: Vec::new(),
        now_ms: 0,
        aborted: false,
    }
}

/// Pumps to `target_ms`, running the barrier oracles every slice.
fn pump_to(w: &mut World, target_ms: u64) {
    while w.now_ms < target_ms && !w.aborted {
        let step = SLICE_MS.min(target_ms - w.now_ms);
        w.p.pump_millis(step);
        w.now_ms += step;
        for o in w.p.take_rpc_outcomes() {
            w.st.rpc_resolved.insert(o.req);
            w.rpc_outcomes.push(o);
        }
        stream_resync(&mut w.p, &w.bases, &mut w.st, w.now_ms, &mut w.violations);
        check_barrier(
            &w.p,
            &w.bases,
            &w.nodes,
            &mut w.st,
            w.now_ms,
            &mut w.violations,
        );
    }
}

fn apply(w: &mut World, op: &Op) {
    let halls = w.bases.len();
    match *op {
        Op::MoveToHall { node, hall } => {
            w.st.radio_quiet = false;
            if let Some(&m) = w.nodes.get(usize::from(node)) {
                let h = usize::from(hall) % halls;
                w.p.move_node(m, slot(h, usize::from(node)));
            }
        }
        Op::MoveToCorridor { node } => {
            w.st.radio_quiet = false;
            if let Some(&m) = w.nodes.get(usize::from(node)) {
                let k = usize::from(node) as f64;
                w.p.move_node(m, Position::new(CORRIDOR.0 + 5.0 * k, CORRIDOR.1));
            }
        }
        Op::SetOnline { node, online } => {
            w.st.radio_quiet = false;
            if let Some(&m) = w.nodes.get(usize::from(node)) {
                let nid = w.p.node(m).node;
                w.p.sim.set_online(nid, online);
            }
        }
        Op::AddRobot { hall } => {
            if w.nodes.len() < MAX_NODES {
                let h = usize::from(hall) % halls;
                let k = w.nodes.len();
                let name = format!("robot:{}:1", k + 1);
                let policy = w.p.trusting_policy(&w.bases, receiver_cap());
                if let Ok(m) = w.p.add_robot(&name, slot(h, k), RADIO_RANGE, policy) {
                    w.nodes.push(m);
                    w.st.uncovered_since.push(None);
                    w.st.grant_state.push(Default::default());
                }
            }
        }
        Op::CrashBase { base } => {
            w.st.radio_quiet = false;
            if let Some(&b) = w.bases.get(usize::from(base)) {
                if !w.p.base(b).crashed {
                    // Force the pending batch down before the power cut
                    // so the captured digest is the barrier-committed
                    // state the restart must reproduce exactly.
                    w.p.base_mut(b).durable.commit();
                    let digest = w.p.base(b).durable_digest();
                    w.p.crash_base(b);
                    w.st.digest_at_crash[usize::from(base)] = Some(digest);
                }
            }
        }
        Op::RestartBase { base } => {
            if let Some(&b) = w.bases.get(usize::from(base)) {
                if w.p.base(b).crashed {
                    restart(w, usize::from(base), b);
                }
            }
        }
        Op::CheckpointBase { base } => {
            if let Some(&b) = w.bases.get(usize::from(base)) {
                if !w.p.base(b).crashed {
                    w.p.checkpoint_base(b);
                }
            }
        }
        Op::Publish {
            base,
            kind,
            version,
        } => {
            if let Some(&b) = w.bases.get(usize::from(base)) {
                if !w.p.base(b).crashed {
                    w.p.publish_extension(b, &kind.package(version.max(1)));
                }
            }
        }
        Op::Revoke { base, kind } => {
            if let Some(&b) = w.bases.get(usize::from(base)) {
                if !w.p.base(b).crashed {
                    w.p.revoke_extension(b, kind.ext_id(), "chaos revoke");
                }
            }
        }
        Op::Rpc { base, node, x, y } => {
            let (Some(&b), Some(&m)) = (
                w.bases.get(usize::from(base)),
                w.nodes.get(usize::from(node)),
            ) else {
                return;
            };
            if !w.p.base(b).crashed {
                w.p.rpc(
                    b,
                    m,
                    "operator:1",
                    "DrawingService",
                    "moveTo",
                    vec![i64::from(x), i64::from(y)],
                );
            }
        }
        Op::InjectTornTail { base, drop } => {
            inject(w, base, |disk_file, e| {
                e.disk_mut()
                    .inject_torn_tail(&disk_file, usize::from(drop.max(1)))
            });
        }
        Op::InjectBitFlip { base, offset } => {
            inject(w, base, |disk_file, e| {
                let len = e.disk().len(&disk_file);
                len > 0 && e.disk_mut().inject_bit_flip(&disk_file, usize::from(offset) % len)
            });
        }
        Op::Partition { node, base } => {
            w.st.radio_quiet = false;
            let (Some(&m), Some(&b)) = (
                w.nodes.get(usize::from(node)),
                w.bases.get(usize::from(base)),
            ) else {
                return;
            };
            let (nid, bid) = (w.p.node(m).node, w.p.base(b).node);
            w.p.sim.partition(nid, bid);
            w.st.partitions.insert((node, base));
        }
        Op::Heal { node, base } => {
            let (Some(&m), Some(&b)) = (
                w.nodes.get(usize::from(node)),
                w.bases.get(usize::from(base)),
            ) else {
                return;
            };
            let (nid, bid) = (w.p.node(m).node, w.p.base(b).node);
            w.p.sim.heal(nid, bid);
            w.st.partitions.remove(&(node, base));
        }
        Op::LinkBases { a, b } => {
            let (Some(&ba), Some(&bb)) = (
                w.bases.get(usize::from(a)),
                w.bases.get(usize::from(b)),
            ) else {
                return;
            };
            if a != b {
                w.p.federate_bases(ba, bb);
                w.st.fed_pairs.insert((a.min(b), a.max(b)));
            }
        }
        Op::PartitionBases { a, b } => {
            let (Some(&ba), Some(&bb)) = (
                w.bases.get(usize::from(a)),
                w.bases.get(usize::from(b)),
            ) else {
                return;
            };
            if a != b {
                let (na, nb) = (w.p.base(ba).node, w.p.base(bb).node);
                w.p.sim.partition(na, nb);
                w.st.base_partitions.insert((a.min(b), a.max(b)));
            }
        }
        Op::HealBases { a, b } => {
            let (Some(&ba), Some(&bb)) = (
                w.bases.get(usize::from(a)),
                w.bases.get(usize::from(b)),
            ) else {
                return;
            };
            if a != b {
                let (na, nb) = (w.p.base(ba).node, w.p.base(bb).node);
                w.p.sim.heal(na, nb);
                w.st.base_partitions.remove(&(a.min(b), a.max(b)));
            }
        }
        Op::Subscribe { base, ns } => {
            let Some(&b) = w.bases.get(usize::from(base)) else {
                return;
            };
            if w.st.subscribers.len() < MAX_SUBS {
                let ns = STREAM_NAMESPACES[usize::from(ns) % STREAM_NAMESPACES.len()];
                let sub = w.p.subscribe(b, ns);
                w.st.subscribers.push(StreamMirror::new(base, ns, sub));
            }
        }
        Op::DropSubscriber { sub } => {
            if let Some(s) = w.st.subscribers.get_mut(usize::from(sub)) {
                if s.live {
                    s.live = false;
                    w.p.drop_subscription(s.sub);
                }
            }
        }
        Op::RpcSem {
            base,
            node,
            sem,
            x,
            y,
        } => {
            let (Some(&b), Some(&m)) = (
                w.bases.get(usize::from(base)),
                w.nodes.get(usize::from(node)),
            ) else {
                return;
            };
            if !w.p.base(b).crashed {
                let semantics = match sem % 3 {
                    0 => InvocationSemantics::Maybe,
                    1 => InvocationSemantics::AtMostOnce,
                    _ => InvocationSemantics::AtLeastOnce,
                };
                let req = w.p.rpc_with(
                    b,
                    m,
                    "operator:1",
                    "DrawingService",
                    "moveTo",
                    vec![i64::from(x), i64::from(y)],
                    semantics,
                );
                // Maybe calls may legitimately never resolve under
                // loss; only semantic calls carry the resolution
                // guarantee the throughput oracle enforces.
                if semantics != InvocationSemantics::Maybe {
                    w.st.rpc_issued.push((w.now_ms, req, base));
                }
            }
        }
        Op::AdversarialPublish {
            base,
            attack,
            version,
        } => {
            if let Some(&b) = w.bases.get(usize::from(base)) {
                if !w.p.base(b).crashed {
                    let sealed = hostile_package(&w.p, b, attack, version.max(1));
                    w.p.publish_sealed(b, sealed);
                }
            }
        }
        Op::SlowLinks { mult } => {
            w.p.sim.scale_link_latency(u32::from(mult.max(1)));
        }
        Op::DirParent { child, parent } => {
            let (Some(&bc), Some(&bp)) = (
                w.bases.get(usize::from(child)),
                w.bases.get(usize::from(parent)),
            ) else {
                return;
            };
            let parented = w.st.dir_edges.iter().any(|&(c, _)| c == child);
            if parent < child && !parented {
                w.p.set_directory_parent(bc, bp);
                w.st.dir_edges.insert((child, parent));
            }
        }
    }
}

/// Builds one hostile [`SignedExtension`] for the MIDAS admission gate
/// to repel. `attack % 5` selects the vector; every payload targets a
/// different gate stage, and every id carries [`HOSTILE_PREFIX`] so
/// the `adversarial-containment` oracle can spot an escape:
///
/// * `0` **forged** — a clean package sealed by the hall authority,
///   then one payload byte flipped: the signature check must fail.
/// * `1` **sneaky** — bytecode calls the guarded `print` syscall but
///   the manifest declares no permissions: permission-inference must
///   reject before weaving (declaring *more* than the cap is not an
///   attack — the sandbox silently clamps to `requested ∩ cap`).
/// * `2` **underflow** — structurally unsound bytecode (pop on an
///   empty stack): the verifier must reject.
/// * `3` **rogue** — sealed by a keypair no receiver trusts: the
///   signature check must fail on the unknown signer.
/// * `4` **meddle** — validly signed, capability-clean, but its
///   crosscut blankets `DrawingService` to pressure the interference
///   analyzer; installation is the expected (contained) outcome.
fn hostile_package(p: &Platform, b: BaseId, attack: u8, version: u32) -> SignedExtension {
    let aspect = |class_name: &str, ops: Vec<VmOp>| -> PortableAspect {
        let mut body = MethodBuilder::new();
        for op in ops {
            body.op(op);
        }
        let class = PortableClass {
            name: class_name.into(),
            fields: vec![],
            methods: vec![PortableMethod {
                name: "onCall".into(),
                params: vec!["any".into(); 5],
                ret: "any".into(),
                body: body.build(),
            }],
        };
        let aspect = Aspect::script(
            class_name,
            class,
            vec![(
                Crosscut::parse("before * DrawingService.*(..)").expect("static crosscut"),
                "onCall".into(),
                0,
            )],
        );
        PortableAspect::try_from(&aspect).expect("hostile aspect is portable")
    };
    let package = |id: &str, permissions: Vec<String>, a: PortableAspect| ExtensionPackage {
        meta: ExtensionMeta {
            id: id.into(),
            version,
            description: format!("{id} adversarial probe"),
            requires: vec![],
            permissions,
            implicit: false,
        },
        aspect: a,
    };
    let print_call = vec![
        VmOp::Load(2),
        VmOp::Sys {
            name: "print".into(),
            argc: 1,
        },
        VmOp::Pop,
        VmOp::Ret,
    ];
    match attack % 5 {
        0 => {
            let pkg = package(
                &format!("{HOSTILE_PREFIX}forged"),
                vec!["print".into()],
                aspect("HostForged", print_call),
            );
            let mut sealed = p.base(b).seal(&pkg);
            let mid = sealed.blob.payload.len() / 2;
            sealed.blob.payload[mid] ^= 1;
            sealed
        }
        1 => p.base(b).seal(&package(
            &format!("{HOSTILE_PREFIX}sneaky"),
            vec![],
            aspect("HostSneaky", print_call),
        )),
        2 => p.base(b).seal(&package(
            &format!("{HOSTILE_PREFIX}underflow"),
            vec!["print".into()],
            aspect("HostUnderflow", vec![VmOp::Pop, VmOp::Ret]),
        )),
        3 => {
            let rogue = KeyPair::from_seed(b"authority:rogue");
            SignedExtension::seal(
                "authority:rogue",
                &rogue,
                &package(
                    &format!("{HOSTILE_PREFIX}rogue"),
                    vec!["print".into()],
                    aspect("HostRogue", print_call),
                ),
            )
        }
        _ => p.base(b).seal(&package(
            &format!("{HOSTILE_PREFIX}meddle"),
            vec![],
            aspect("HostMeddle", vec![VmOp::Ret]),
        )),
    }
}

/// Disk-fault helper: only meaningful while the base is down (a live
/// base would just overwrite); targets the newest WAL segment.
fn inject(
    w: &mut World,
    base: u8,
    f: impl FnOnce(String, &mut pmp_durable::DurableEngine) -> bool,
) {
    let Some(&b) = w.bases.get(usize::from(base)) else {
        return;
    };
    if !w.p.base(b).crashed {
        return;
    }
    let hit = w.p.base_mut(b).durable.with(|e| {
        let segs = e.segments();
        match segs.last() {
            Some(seg) => f(seg.clone(), e),
            None => false,
        }
    });
    if hit {
        w.st.fault_injected[usize::from(base)] = true;
    }
}

fn restart(w: &mut World, idx: usize, b: BaseId) {
    let faulted = w.st.fault_injected[idx];
    let expected = w.st.digest_at_crash[idx];
    w.st.fault_injected[idx] = false;
    w.st.digest_at_crash[idx] = None;
    // Recovered calls re-arm their retry timers now; the throughput
    // oracle's resolution clock restarts here for this base.
    w.st.base_restart_ms[idx] = w.now_ms;

    let outcome = catch_unwind(AssertUnwindSafe(|| w.p.restart_base(b)));
    let report = match outcome {
        Ok(report) => report,
        Err(_) => {
            // The platform may be half-rebuilt; nothing after this
            // point is trustworthy, so stop the run here.
            w.violations.push(Violation {
                invariant: "recover-panic",
                at_ms: w.now_ms,
                detail: format!(
                    "restart of base {idx} panicked (fault injected: {faulted})"
                ),
            });
            w.aborted = true;
            return;
        }
    };
    if faulted {
        // With an injected fault the digest may legitimately regress to
        // the surviving prefix, and the report may even be clean (a
        // torn tail that cuts exactly at a record boundary looks like a
        // shorter valid log). The contract under faults is only: don't
        // panic, keep serving — both checked elsewhere.
        let _ = report;
        return;
    }
    if !report.is_clean() {
        w.violations.push(Violation {
            invariant: "durable-digest",
            at_ms: w.now_ms,
            detail: format!("base {idx}: unfaulted recovery reported anomalies: {report:?}"),
        });
    }
    let got = w.p.base(b).durable_digest();
    if expected != Some(got) {
        w.violations.push(Violation {
            invariant: "durable-digest",
            at_ms: w.now_ms,
            detail: format!(
                "base {idx}: digest {got:#018x} after restart, {expected:?} at crash"
            ),
        });
    }
}

fn observables(w: &mut World) -> Vec<String> {
    let mut out = Vec::new();
    out.push(format!("now_ns={}", w.p.now().0));
    for &m in &w.nodes {
        let node = w.p.node(m);
        let sim_node = w.p.sim.node(node.node);
        out.push(format!(
            "node {} pos=({:.1},{:.1}) online={} installed={:?} strokes={}",
            node.name,
            sim_node.pos.x,
            sim_node.pos.y,
            sim_node.online,
            node.receiver.installed_ids(),
            node.canvas().map_or(0, |c| c.len()),
        ));
    }
    for &b in &w.bases {
        let station = w.p.base(b);
        out.push(format!(
            "base {} crashed={} catalog={:?} leases={:?} charges={:?} movements={}",
            station.name,
            station.crashed,
            station.base.catalog.ids(),
            station.base.lease_table(),
            station.charges,
            station.store.len(),
        ));
    }
    let mut rpcs = std::mem::take(&mut w.rpc_outcomes);
    rpcs.extend(w.p.take_rpc_outcomes());
    rpcs.sort_by_key(|o| o.req);
    for o in rpcs {
        out.push(format!("rpc req={} ok={} value={}", o.req, o.ok, o.value));
    }
    out
}

/// Runs `sc` to completion under one driver.
#[must_use]
pub fn run(sc: &Scenario, driver: DriverKind) -> RunReport {
    let mut w = build(sc, driver);
    let mut steps: Vec<Step> = sc.steps.clone();
    steps.sort_by_key(|s| s.at_ms); // stable: ties keep script order

    for step in &steps {
        pump_to(&mut w, u64::from(step.at_ms));
        if w.aborted {
            break;
        }
        apply(&mut w, &step.op);
    }
    if !w.aborted {
        let end = w.now_ms + u64::from(sc.settle_ms);
        pump_to(&mut w, end);
    }

    let observables = observables(&mut w);
    let span_digest = w.p.span_digest();
    let flight = w.p.flight_dump();
    RunReport {
        driver: driver.name(),
        trace: w.p.trace_digest(),
        journal: w.p.journal_digest(),
        span_digest,
        flight,
        violations: w.violations,
        observables,
        aborted: w.aborted,
    }
}

/// Runs `sc` under both drivers and applies the `cross-driver` oracle:
/// trace digest, journal digest, observables, and even the violation
/// lists must match exactly.
#[must_use]
pub fn run_cross(sc: &Scenario) -> CrossReport {
    let serial = run(sc, DriverKind::Serial);
    let parallel = run(sc, DriverKind::Parallel);
    let mut violations = serial.violations.clone();
    violations.extend(parallel.violations.clone());

    let end_ms = last_ms(sc);
    if serial.trace != parallel.trace {
        violations.push(Violation {
            invariant: "cross-driver",
            at_ms: end_ms,
            detail: format!(
                "trace digest diverged: serial {:#018x} vs parallel {:#018x}",
                serial.trace, parallel.trace
            ),
        });
    }
    if serial.journal != parallel.journal {
        violations.push(Violation {
            invariant: "cross-driver",
            at_ms: end_ms,
            detail: format!(
                "journal digest diverged: serial {:#018x} vs parallel {:#018x}",
                serial.journal, parallel.journal
            ),
        });
    }
    if serial.span_digest != parallel.span_digest {
        violations.push(Violation {
            invariant: "cross-driver",
            at_ms: end_ms,
            detail: format!(
                "span digest diverged: serial {:#018x} vs parallel {:#018x}",
                serial.span_digest, parallel.span_digest
            ),
        });
    }
    if serial.observables != parallel.observables {
        let detail = serial
            .observables
            .iter()
            .zip(parallel.observables.iter())
            .find(|(a, b)| a != b)
            .map_or_else(
                || "observable line counts differ".to_string(),
                |(a, b)| format!("first divergence:\n  serial:   {a}\n  parallel: {b}"),
            );
        violations.push(Violation {
            invariant: "cross-driver",
            at_ms: end_ms,
            detail,
        });
    }
    // Perf-SLO oracles read wall-clock histograms, so their outcomes
    // may legitimately differ between the two runs; every other oracle
    // must agree exactly.
    let sv: Vec<_> = serial
        .violations
        .iter()
        .filter(|v| !v.invariant.starts_with("perf."))
        .collect();
    let pv: Vec<_> = parallel
        .violations
        .iter()
        .filter(|v| !v.invariant.starts_with("perf."))
        .collect();
    if sv != pv {
        violations.push(Violation {
            invariant: "cross-driver",
            at_ms: end_ms,
            detail: format!("oracle outcomes diverged: serial {sv:?} vs parallel {pv:?}"),
        });
    }
    CrossReport {
        serial,
        parallel,
        violations,
    }
}

/// The scenario's nominal end time in ms.
#[must_use]
pub fn last_ms(sc: &Scenario) -> u64 {
    let last_step = sc.steps.iter().map(|s| u64::from(s.at_ms)).max().unwrap_or(0);
    last_step + u64::from(sc.settle_ms)
}
