//! # pmp-bench — fixtures for reproducing the paper's measurements
//!
//! Shared setups for the performance ledger (`perfledger/`), which
//! times every wall-clock figure, and for the harness
//! (`src/bin/harness.rs`), which prints only deterministic results.
//! Each experiment Eⁿ is indexed in `DESIGN.md` and recorded against
//! the paper's numbers in `EXPERIMENTS.md`.

use pmp_core::{MobId, Platform};
use pmp_net::Position;
use pmp_prose::{Aspect, Crosscut, PortableClass, PortableMethod, Prose, WeaveOptions};
use pmp_spec::{Size, Suite};
use pmp_vm::builder::MethodBuilder;
use pmp_vm::class::ClassDef;
use pmp_vm::op::Op;
use pmp_vm::prelude::*;
use std::sync::Arc;

const SEC: u64 = 1_000_000_000;

// ---------------------------------------------------------------------
// E1 — SPECjvm-style baseline overhead
// ---------------------------------------------------------------------

/// A VM with the spec suite registered, stubs on or off.
pub fn suite_vm(hooks: bool) -> (Vm, Suite) {
    let mut vm = Vm::new(if hooks {
        VmConfig::default()
    } else {
        VmConfig::without_hooks()
    });
    if hooks {
        // A dispatcher is installed (as on any PROSE-enabled node) but
        // no aspects are woven — the paper's "no extensions" setup.
        let _prose = Prose::attach(&mut vm);
    }
    let suite = Suite::register_all(&mut vm).expect("suite registers");
    (vm, suite)
}

/// Runs the whole suite once; returns total bytecode ops executed.
pub fn run_suite(vm: &mut Vm, suite: &Suite, size: Size) -> u64 {
    let before = vm.stats().bytecode_ops;
    suite.run_all(vm, size).expect("suite runs");
    vm.stats().bytecode_ops - before
}

// ---------------------------------------------------------------------
// E2 — interception micro-costs
// ---------------------------------------------------------------------

/// How the `Ping.ping` call is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PingMode {
    /// Stubs compiled out (unmodified runtime).
    NoStubs,
    /// Stubs in, hook inactive (the ~7 % configuration).
    InactiveHook,
    /// A do-nothing native advice fires per call (~900 ns config).
    NativeAdvice,
    /// A do-nothing *script* advice fires per call (shipped-extension
    /// config: includes the VM-level advice invocation).
    ScriptAdvice,
}

/// A VM with a `Ping` class (`void ping()`), set up per `mode`.
/// Returns the receiver object to call on.
pub fn ping_vm(mode: PingMode) -> (Vm, Value) {
    let mut vm = Vm::new(match mode {
        PingMode::NoStubs => VmConfig::without_hooks(),
        _ => VmConfig::default(),
    });
    vm.register_class(
        ClassDef::build("Ping")
            .method("ping", [], TypeSig::Void, |b| {
                b.op(Op::Ret);
            })
            .done(),
    )
    .expect("register");
    if mode != PingMode::NoStubs {
        let prose = Prose::attach(&mut vm);
        match mode {
            PingMode::NativeAdvice => {
                let aspect = Aspect::build("nop")
                    .before("* Ping.*(..)", |_| Ok(()))
                    .done()
                    .expect("aspect");
                prose
                    .weave(&mut vm, aspect, WeaveOptions::default())
                    .expect("weave");
            }
            PingMode::ScriptAdvice => {
                let mut body = MethodBuilder::new();
                body.op(Op::Ret);
                let class = PortableClass {
                    name: "NopAspect".into(),
                    fields: vec![],
                    methods: vec![PortableMethod {
                        name: "nop".into(),
                        params: vec![
                            "any".into(),
                            "str".into(),
                            "any".into(),
                            "any".into(),
                            "any".into(),
                        ],
                        ret: "any".into(),
                        body: body.build(),
                    }],
                };
                let aspect = Aspect::script(
                    "nop-script",
                    class,
                    vec![(
                        Crosscut::parse("before * Ping.*(..)").expect("pattern"),
                        "nop".into(),
                        0,
                    )],
                );
                prose
                    .weave(&mut vm, aspect, WeaveOptions::sandboxed(Permissions::none()))
                    .expect("weave");
            }
            _ => {}
        }
    }
    let obj = vm.new_object("Ping").expect("object");
    (vm, obj)
}

/// One intercepted (or not) void interface call.
pub fn ping_once(vm: &mut Vm, obj: &Value) {
    vm.call("Ping", "ping", obj.clone(), vec![])
        .expect("ping");
}

// ---------------------------------------------------------------------
// E3 — cost of real extensions vs their interception
// ---------------------------------------------------------------------

/// Which real extension is woven over the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceExt {
    /// No extension (baseline).
    None,
    /// Do-nothing advice (pure interception cost).
    Nop,
    /// Session + access control (security).
    Security,
    /// Ad-hoc transactions over two fields.
    Transactions,
    /// Orthogonal persistence of field writes.
    Persistence,
}

/// A VM with a `Service` class whose `txWork(n)` loops `n` times
/// updating two fields, instrumented per `ext`.
pub fn service_vm(ext: ServiceExt) -> (Vm, Value) {
    let mut vm = Vm::new(VmConfig::default());
    vm.register_class(
        ClassDef::build("Service")
            .field("state", TypeSig::Int)
            .field("ops", TypeSig::Int)
            .method("txWork", [TypeSig::Int], TypeSig::Int, |b| {
                b.locals(1); // 2: i
                let top = b.label();
                let done = b.label();
                b.konst(0i64).op(Op::Store(2));
                b.bind(top);
                b.op(Op::Load(2)).op(Op::Load(1)).op(Op::Lt);
                b.jump_if_not(done);
                b.op(Op::Load(0));
                b.op(Op::Load(0)).op(Op::GetField {
                    class: "Service".into(),
                    field: "state".into(),
                });
                b.op(Op::Load(2)).op(Op::Add);
                b.op(Op::PutField {
                    class: "Service".into(),
                    field: "state".into(),
                });
                b.op(Op::Load(0));
                b.op(Op::Load(0)).op(Op::GetField {
                    class: "Service".into(),
                    field: "ops".into(),
                });
                b.konst(1i64).op(Op::Add);
                b.op(Op::PutField {
                    class: "Service".into(),
                    field: "ops".into(),
                });
                b.op(Op::Load(2)).konst(1i64).op(Op::Add).op(Op::Store(2));
                b.jump(top);
                b.bind(done);
                b.op(Op::Load(0))
                    .op(Op::GetField {
                        class: "Service".into(),
                        field: "state".into(),
                    })
                    .op(Op::RetVal);
            })
            .done(),
    )
    .expect("register");
    // Host-side stubs for extension system calls.
    pmp_extensions::support::register_session_blackboard(&mut vm);
    vm.register_sys(
        "session.caller",
        None,
        Arc::new(|_vm, _| Ok(Value::str("operator:1"))),
    );
    vm.register_sys("persist.put", None, Arc::new(|_vm, _| Ok(Value::Null)));

    let prose = Prose::attach(&mut vm);
    let sandbox = WeaveOptions::sandboxed(Permissions::all());
    match ext {
        ServiceExt::None => {}
        ServiceExt::Nop => {
            let aspect = Aspect::build("nop")
                .before("* Service.tx*(..)", |_| Ok(()))
                .after("* Service.tx*(..)", |_| Ok(()))
                .done()
                .expect("aspect");
            prose
                .weave(&mut vm, aspect, WeaveOptions::default())
                .expect("weave");
        }
        ServiceExt::Security => {
            for pkg in [
                pmp_extensions::session::package("* Service.*(..)", 1),
                pmp_extensions::access_control::package(
                    "* Service.*(..)",
                    &["operator:1"],
                    1,
                ),
            ] {
                prose
                    .weave(&mut vm, pkg.aspect.into(), sandbox)
                    .expect("weave");
            }
        }
        ServiceExt::Transactions => {
            let pkg = pmp_extensions::transactions::package(
                "* Service.tx*(..)",
                "Service",
                &["state", "ops"],
                1,
            );
            prose
                .weave(&mut vm, pkg.aspect.into(), sandbox)
                .expect("weave");
        }
        ServiceExt::Persistence => {
            let pkg = pmp_extensions::persistence::package("Service.*", 1);
            prose
                .weave(&mut vm, pkg.aspect.into(), sandbox)
                .expect("weave");
        }
    }
    let obj = vm.new_object("Service").expect("object");
    (vm, obj)
}

/// One service call of loop size `n`.
pub fn service_call(vm: &mut Vm, obj: &Value, n: i64) {
    vm.call("Service", "txWork", obj.clone(), vec![Value::Int(n)])
        .expect("txWork");
}

// ---------------------------------------------------------------------
// E4 — weaving latency vs matched join points
// ---------------------------------------------------------------------

/// A VM with `classes × methods` void methods to match against.
pub fn weave_target_vm(classes: usize, methods: usize) -> Vm {
    let mut vm = Vm::new(VmConfig::default());
    for c in 0..classes {
        let mut def = ClassDef::build(format!("Target{c}"));
        for m in 0..methods {
            def = def.method(format!("m{m}"), [], TypeSig::Void, |b| {
                b.op(Op::Ret);
            });
        }
        vm.register_class(def.done()).expect("register");
    }
    let _ = Prose::attach(&mut vm);
    vm
}

/// Weaves + unweaves a match-everything aspect once; returns how many
/// join points matched.
pub fn weave_unweave_once(vm: &mut Vm, prose: &Prose) -> usize {
    let aspect = Aspect::build("wide")
        .before("* Target*.*(..)", |_| Ok(()))
        .done()
        .expect("aspect");
    let id = prose
        .weave(vm, aspect, WeaveOptions::default())
        .expect("weave");
    let n = prose.info(id).expect("info").join_points;
    prose.unweave(vm, id, "bench").expect("unweave");
    n
}

// ---------------------------------------------------------------------
// E5 — end-to-end adapted-call cost (Fig. 2c)
// ---------------------------------------------------------------------

/// Builds an adapted robot (hall A world) and returns the pieces needed
/// to invoke its drawing service directly, with the full extension
/// stack woven. `with_extensions = false` gives the unadapted baseline.
pub fn adapted_robot(with_extensions: bool) -> (Platform, MobId) {
    let mut w = pmp_core::scenario::ProductionHalls::build(97);
    if !with_extensions {
        // Empty the hall's catalog before the robot is adapted.
        for id in ["ext/session", "ext/access-control", "ext/monitoring"] {
            w.platform.base_mut(w.base_a).base.catalog.remove(id);
        }
    }
    w.platform.pump(6 * SEC);
    (w.platform, w.robot)
}

/// One local `DrawingService.moveTo` call on the adapted robot.
pub fn adapted_call(platform: &mut Platform, robot: MobId, x: i64, y: i64) {
    let node = platform.node_mut(robot);
    let svc = node.services["DrawingService"].clone();
    *node.wiring.caller.lock() = "operator:1".into();
    node.vm
        .call(
            "DrawingService",
            "moveTo",
            svc,
            vec![Value::Int(x), Value::Int(y)],
        )
        .expect("moveTo");
}

// ---------------------------------------------------------------------
// E6 — distribution scalability (sim time, deterministic)
// ---------------------------------------------------------------------

/// Result of a distribution-scaling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributionResult {
    /// Number of receiver nodes.
    pub nodes: usize,
    /// Simulated seconds from start until every node is adapted.
    pub time_to_all_adapted_s: f64,
    /// Total network messages submitted.
    pub messages: u64,
}

/// Builds the E6 world: one hall base with a billing catalog and `n`
/// devices on a circle, all in range. Shared by [`distribution_run`]
/// and the E12 driver-scaling runs so both pump the same event stream.
pub fn distribution_world(n: usize) -> (Platform, Vec<MobId>) {
    let mut p = Platform::new(1000 + n as u64);
    p.add_area("hall", Position::new(0.0, 0.0), Position::new(100.0, 100.0));
    let base = p.add_base("hall", Position::new(50.0, 50.0), 150.0);
    let pkg = pmp_extensions::billing::package("* Motor.*(..)", 1, 1);
    let sealed = p.base(base).seal(&pkg);
    p.base_mut(base).base.catalog.put(sealed);

    let cap = Permissions::none().with(Permission::Net);
    let policy = p.trusting_policy(&[base], cap);
    let mut ids: Vec<MobId> = Vec::with_capacity(n);
    for i in 0..n {
        let angle = (i as f64) * std::f64::consts::TAU / (n as f64);
        let pos = Position::new(50.0 + 30.0 * angle.cos(), 50.0 + 30.0 * angle.sin());
        ids.push(
            p.add_device(&format!("pda:{i}"), pos, 150.0, policy.clone())
                .expect("device"),
        );
    }
    (p, ids)
}

/// Measures time-to-adapted for `n` devices joining one hall at once.
pub fn distribution_run(n: usize) -> DistributionResult {
    let (mut p, ids) = distribution_world(n);
    let mut pumped = 0u64;
    let step = SEC / 10;
    while pumped < 120 * SEC {
        p.pump(step);
        pumped += step;
        if ids
            .iter()
            .all(|id| p.node(*id).receiver.is_installed("ext/billing"))
        {
            break;
        }
    }
    DistributionResult {
        nodes: n,
        time_to_all_adapted_s: p.now().as_secs_f64(),
        messages: p.sim.stats().sent,
    }
}

// ---------------------------------------------------------------------
// E7 — revocation latency vs lease period (sim time, deterministic)
// ---------------------------------------------------------------------

/// Result of a revocation-latency run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RevocationResult {
    /// The extension lease period (seconds).
    pub lease_s: f64,
    /// Simulated seconds from departure to autonomous withdrawal.
    pub revocation_latency_s: f64,
}

/// Measures how long after leaving the hall the extension survives.
pub fn revocation_run(lease_ns: u64) -> RevocationResult {
    let mut p = Platform::new(7_000 + lease_ns % 97);
    p.add_area("hall", Position::new(0.0, 0.0), Position::new(60.0, 60.0));
    let base = p.add_base("hall", Position::new(30.0, 30.0), 80.0);
    p.base_mut(base).base.set_lease(lease_ns);
    // Renew well within the lease period (the base's keep-alive cadence
    // follows its scan interval).
    p.base_mut(base).base.set_scan_interval((lease_ns / 4).max(SEC / 10));
    let pkg = pmp_extensions::billing::package("* Motor.*(..)", 1, 1);
    let sealed = p.base(base).seal(&pkg);
    p.base_mut(base).base.catalog.put(sealed);
    let policy = p.trusting_policy(&[base], Permissions::none().with(Permission::Net));
    let dev = p
        .add_device("pda:0", Position::new(35.0, 30.0), 80.0, policy)
        .expect("device");
    let mut waited = 0u64;
    while !p.node(dev).receiver.is_installed("ext/billing") {
        p.pump(SEC / 4);
        waited += SEC / 4;
        assert!(waited < 60 * SEC, "device never adapted");
    }
    // Let the adaptation settle into steady renewals.
    p.pump(2 * lease_ns);
    assert!(p.node(dev).receiver.is_installed("ext/billing"));

    let departure = p.now();
    p.move_node(dev, Position::new(500.0, 500.0));
    let step = SEC / 20;
    while p.node(dev).receiver.is_installed("ext/billing") {
        p.pump(step);
        if p.now().since(departure) > 300 * SEC {
            panic!("extension never revoked");
        }
    }
    RevocationResult {
        lease_s: lease_ns as f64 / 1e9,
        revocation_latency_s: p.now().since(departure) as f64 / 1e9,
    }
}

// ---------------------------------------------------------------------
// E12 — driver invariance (digest-checked)
// ---------------------------------------------------------------------

/// Result of one E12 run: the E6 distribution workload executed under
/// a chosen [`pmp_core::Driver`], with the two determinism digests
/// (DESIGN.md §10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverScalingResult {
    /// Number of receiver nodes.
    pub nodes: usize,
    /// [`Platform::trace_digest`] after the run.
    pub trace_digest: u64,
    /// [`Platform::journal_digest`] after the run.
    pub journal_digest: u64,
    /// Whether every device finished adapting within the time budget.
    pub all_adapted: bool,
}

/// Runs the E6 distribution workload under `driver`: `n` devices adapt
/// at once — the busy epochs fan the crypto-verify, admission-analysis
/// and weave work across all `n` cells — then a fixed 5 s settle tail
/// adds the steady-state renewal traffic. The seed and schedule are
/// identical across drivers, so digests must match.
pub fn driver_scaling_run(
    n: usize,
    driver: Box<dyn pmp_core::Driver>,
) -> DriverScalingResult {
    let (mut p, ids) = distribution_world(n);
    p.set_driver(driver);
    p.sim.deliveries.set_logging(true);
    let step = SEC / 10;
    let mut pumped = 0u64;
    let mut adapted_at: Option<u64> = None;
    while pumped < 120 * SEC {
        p.pump(step);
        pumped += step;
        if adapted_at.is_none()
            && ids
                .iter()
                .all(|id| p.node(*id).receiver.is_installed("ext/billing"))
        {
            adapted_at = Some(pumped);
        }
        // A fixed settle tail after full adaptation: renewals and lease
        // sweeps keep every cell mildly busy, and a *fixed* endpoint
        // keeps the event stream identical across drivers.
        if let Some(at) = adapted_at {
            if pumped >= at + 5 * SEC {
                break;
            }
        }
    }
    DriverScalingResult {
        nodes: n,
        trace_digest: p.trace_digest(),
        journal_digest: p.journal_digest(),
        all_adapted: adapted_at.is_some(),
    }
}

// ---------------------------------------------------------------------
// E17 — federated base fabric (directory lookups + roaming handoff)
// ---------------------------------------------------------------------

/// Result of one federated-lookup scaling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedLookupResult {
    /// Number of bases in the federation.
    pub bases: usize,
    /// Registrar-to-registrar hops the query took.
    pub hops: u16,
    /// Whether the service was found.
    pub found: bool,
    /// Simulated milliseconds from query to answer.
    pub latency_ms: f64,
}

/// Builds a federation of `bases` base stations wired into a
/// `branching`-ary registrar tree, registers one service at the deepest
/// rightmost leaf, and issues a federated lookup from the deepest
/// *leftmost* leaf — the longest tree path, so the measured hop count
/// is the worst case for that federation size. Lookup cost must stay
/// O(log bases): the directory tier routes over tree edges only, never
/// a flat broadcast.
pub fn fed_lookup_run(bases: usize, branching: usize) -> FedLookupResult {
    use pmp_core::BaseId;
    use pmp_discovery::{DiscoveryEvent, ServiceItem, ServiceQuery};

    let mut p = Platform::new(9_000 + bases as u64);
    let side = (bases as f64).sqrt().ceil().max(1.0) as usize;
    let span = (side * 20 + 20) as f64;
    p.add_area("fab", Position::new(0.0, 0.0), Position::new(span, span));
    for i in 0..bases {
        let x = ((i % side) * 20 + 10) as f64;
        let y = ((i / side) * 20 + 10) as f64;
        // Tiny radios: everything interesting rides the wired tree.
        p.add_base("fab", Position::new(x, y), 4.0);
    }
    p.federate_tree(branching);

    let target = BaseId(bases - 1);
    let provider = p.base(target).node;
    p.register_service(
        target,
        ServiceItem::new("print", "laser", provider.0),
        3_600 * SEC,
    );
    // Registration, then the route exchange (digest → pull → push)
    // climbs the tree one level per registrar sweep.
    p.pump(3 * SEC);

    let mut origin = 1usize.min(bases.saturating_sub(1));
    while origin * branching + 1 < bases {
        origin = origin * branching + 1;
    }
    let origin = BaseId(origin);
    let t0 = p.now().0;
    let req = p.fed_lookup(origin, ServiceQuery::of_type("print"));
    let mut result = FedLookupResult {
        bases,
        hops: 0,
        found: false,
        latency_ms: f64::NAN,
    };
    let step = SEC / 1_000; // 1 ms pumps: latency resolution
    for _ in 0..5_000 {
        p.pump(step);
        let done = p.take_discoveries(origin).into_iter().find_map(|e| match e {
            DiscoveryEvent::FedLookupDone { req: r, items, hops } if r == req => {
                Some((items, hops))
            }
            _ => None,
        });
        if let Some((items, hops)) = done {
            result.hops = hops;
            result.found = !items.is_empty();
            result.latency_ms = (p.now().0 - t0) as f64 / 1e6;
            break;
        }
    }
    result
}

/// Result of the federated roaming-handoff run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedHandoffResult {
    /// Extensions installed on the robot when it roamed.
    pub roamed_exts: usize,
    /// Grants rebound in place by the adopting base (migrated leases).
    pub migrated: u64,
    /// `Deliver` messages sent anywhere in the federation during the
    /// roam — the zero-re-delivery claim.
    pub redelivered: u64,
    /// Movement-history records for the robot visible at the adopting
    /// base after migration.
    pub movements: usize,
    /// Simulated milliseconds from the move until the adopting base
    /// held every lease.
    pub adopt_ms: f64,
}

/// Runs the production-halls roaming scenario with the two halls fully
/// federated (neighbours + replicas): the robot adapts and works in
/// hall A, then roams to hall B. Because the halls replicate catalogs
/// and lease tables, hall B adopts the robot by rebinding every grant
/// in place — the paper's roaming algorithm with **zero** re-`Deliver`
/// messages — and the movement history follows over the backhaul.
pub fn fed_handoff_run() -> FedHandoffResult {
    use pmp_core::scenario::{ProductionHalls, IN_HALL_B};

    let mut w = ProductionHalls::build(77);
    w.platform.federate_bases(w.base_a, w.base_b);
    // Adapt + anti-entropy: the two catalogs converge before the roam.
    w.platform.pump(10 * SEC);
    for (x0, y0, x1, y1) in [(0, 0, 12, 0), (12, 0, 12, 12)] {
        w.platform.rpc(
            w.base_a,
            w.robot,
            "operator:1",
            "DrawingService",
            "drawLine",
            vec![x0, y0, x1, y1],
        );
        w.platform.pump(SEC);
    }
    w.platform.pump(3 * SEC);

    let roamed_exts = w.platform.node(w.robot).receiver.installed_ids().len();
    let b_node = w.platform.base(w.base_b).node;
    let tel = w.platform.telemetry().clone();
    let migrated0 = tel.counter_value("midas.base.migrated");
    let delivered0 = tel.counter_value("midas.base.delivered");

    w.platform.move_node(w.robot, IN_HALL_B);
    let t0 = w.platform.now().0;
    let mut adopt_ms = f64::NAN;
    for _ in 0..600 {
        w.platform.pump(SEC / 10);
        let node = w.platform.node(w.robot);
        let ids = node.receiver.installed_ids();
        let all_at_b = !ids.is_empty()
            && ids
                .iter()
                .all(|id| node.receiver.lease_holder(id) == Some(b_node));
        if all_at_b {
            adopt_ms = (w.platform.now().0 - t0) as f64 / 1e6;
            break;
        }
    }
    // Settle: movement export and lease renewals drain.
    w.platform.pump(3 * SEC);

    FedHandoffResult {
        roamed_exts,
        migrated: tel.counter_value("midas.base.migrated") - migrated0,
        redelivered: tel.counter_value("midas.base.delivered") - delivered0,
        movements: w.platform.base(w.base_b).store.by_robot("robot:1:1").len(),
        adopt_ms,
    }
}

// ---------------------------------------------------------------------
// E16 — weave-time optimization of shipped advice
// ---------------------------------------------------------------------

/// A shipped extension whose before-advice is written the way a real
/// extension author would write a guard: a constant arithmetic check,
/// a rate-limit probe through a virtual call on a sibling method, and
/// a fall-through return. Every op is resolvable at weave time — the
/// optimizer devirtualises the `limit` call, folds the guard, inlines
/// the constant summary, and DCE collapses `onCall` to a bare `Ret`,
/// with both methods proved hoistable — so the Original-vs-Optimized
/// gap on this package is the cost of shipping advice as authored.
pub fn guard_package() -> pmp_midas::ExtensionPackage {
    use pmp_vm::op::{BytecodeBody, Const};
    let advice = BytecodeBody {
        extra_locals: 0,
        ops: vec![
            Op::Const(Const::Int(6)),
            Op::Const(Const::Int(7)),
            Op::Mul, // 42
            Op::Const(Const::Int(40)),
            Op::Const(Const::Int(2)),
            Op::Add, // 42
            Op::Eq,  // true: the guard is satisfied
            Op::JumpIfNot(11),
            Op::Load(0),
            Op::CallV {
                method: "limit".into(),
                argc: 0,
            },
            Op::Pop,
            Op::Ret,
        ],
        handlers: vec![],
    };
    let limit = BytecodeBody {
        extra_locals: 0,
        ops: vec![Op::Const(Const::Int(9)), Op::RetVal],
        handlers: vec![],
    };
    let class = PortableClass {
        name: "GuardAspect".into(),
        fields: vec![],
        methods: vec![
            PortableMethod {
                name: "onCall".into(),
                params: vec!["any".into(); 5],
                ret: "any".into(),
                body: advice,
            },
            PortableMethod {
                name: "limit".into(),
                params: vec![],
                ret: "int".into(),
                body: limit,
            },
        ],
    };
    let aspect = Aspect::script(
        "guard",
        class,
        vec![(
            Crosscut::parse("before * Ping.*(..)").expect("pattern"),
            "onCall".into(),
            0,
        )],
    );
    pmp_midas::ExtensionPackage {
        meta: pmp_midas::ExtensionMeta {
            id: "bench/guard".into(),
            version: 1,
            description: "constant-guard advice for E16".into(),
            requires: vec![],
            permissions: vec![],
            implicit: false,
        },
        aspect: pmp_prose::PortableAspect::try_from(&aspect).expect("portable"),
    }
}

/// A `Ping` VM with [`guard_package`] woven the way a receiver would
/// install it: as shipped when `optimize` is false (the paper's
/// behaviour), or through the base-side optimizer plus receiver-side
/// hook hoisting when true (what every base ships).
pub fn ping_vm_shipped(optimize: bool) -> (Vm, Value) {
    let mut vm = Vm::new(VmConfig::default());
    vm.register_class(
        ClassDef::build("Ping")
            .method("ping", [], TypeSig::Void, |b| {
                b.op(Op::Ret);
            })
            .done(),
    )
    .expect("register");
    let prose = Prose::attach(&mut vm);
    let pkg = guard_package();
    let pkg = if optimize {
        let (optimized, report) = pmp_midas::optimize_package(&pkg);
        assert!(report.all_validated(), "E16 package must optimize clean");
        optimized
    } else {
        pkg
    };
    prose
        .weave(
            &mut vm,
            pkg.aspect.clone().into(),
            WeaveOptions::sandboxed(Permissions::none()),
        )
        .expect("weave");
    if optimize {
        // Receivers recompute hoisting locally from the shipped class;
        // they never trust the base's report.
        for m in pmp_analyze::opt::hoist::hoistable_methods(&pkg.aspect.class) {
            vm.hoist_hooks(&pkg.aspect.class.name, &m);
        }
    }
    let obj = vm.new_object("Ping").expect("object");
    (vm, obj)
}

// ---------------------------------------------------------------------
// E18 — pmp-stream fan-out (rev-streamed state, snapshot resync)
// ---------------------------------------------------------------------

/// Result of one stream fan-out load run (DESIGN.md §16, EXPERIMENTS.md
/// E18): one base, `subscribers` cursors on its movement namespace, a
/// fixed RPC traffic schedule, every cursor drained after every burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamFanoutResult {
    /// Synthetic subscribers attached to the base.
    pub subscribers: usize,
    /// Deltas the base's hub wire-encoded into its rings — once per
    /// committed WAL record, *independent of subscriber count* (the
    /// serialize-once claim; compare across runs).
    pub encoded: u64,
    /// Bytes wire-encoded (same once-per-record independence).
    pub encoded_bytes: u64,
    /// Platform-wide `stream.delta.encoded` telemetry delta over the
    /// run — the counter the serialize-once assertion reads.
    pub telemetry_encoded: u64,
    /// Per-subscriber delta deliveries (each a `Bytes` clone of an
    /// already-encoded buffer, never a re-serialization).
    pub deliveries: u64,
    /// Bytes handed to subscribers across all deliveries.
    pub delivered_bytes: u64,
}

/// Runs the E18 load: a production-halls world, `subscribers` live
/// cursors on hall A's `store.movements` namespace, then `rounds`
/// drawing RPCs — each producing a burst of WAL-logged movement
/// records — with a full fan-out (every cursor drained) after each
/// burst. The simulated schedule is identical for every subscriber
/// count, so `encoded` / `encoded_bytes` / `telemetry_encoded` must
/// not move with `subscribers`: that *is* the serialize-once proof.
pub fn stream_fanout_run(subscribers: usize, rounds: usize) -> StreamFanoutResult {
    let mut w = pmp_core::scenario::ProductionHalls::build(41);
    w.platform.pump(6 * SEC);
    let subs: Vec<pmp_core::StreamSub> = (0..subscribers)
        .map(|_| w.platform.subscribe_live(w.base_a, "store.movements"))
        .collect();
    let tel = w.platform.telemetry().clone();
    let tel0 = tel.counter_value("stream.delta.encoded");
    let stats0 = w.platform.stream_stats(w.base_a);

    let mut deliveries = 0u64;
    let mut delivered_bytes = 0u64;
    for round in 0..rounds {
        let x = (round % 12) as i64;
        w.platform.rpc(
            w.base_a,
            w.robot,
            "operator:1",
            "DrawingService",
            "drawLine",
            vec![x, 0, x + 8, 4],
        );
        w.platform.pump(SEC);
        for &sub in &subs {
            for ev in w.platform.drain_updates(sub) {
                deliveries += 1;
                delivered_bytes += ev.bytes().len() as u64;
            }
        }
    }

    let stats = w.platform.stream_stats(w.base_a);
    StreamFanoutResult {
        subscribers,
        encoded: stats.encoded - stats0.encoded,
        encoded_bytes: stats.encoded_bytes - stats0.encoded_bytes,
        telemetry_encoded: tel.counter_value("stream.delta.encoded") - tel0,
        deliveries,
        delivered_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_modes_all_work() {
        for mode in [
            PingMode::NoStubs,
            PingMode::InactiveHook,
            PingMode::NativeAdvice,
            PingMode::ScriptAdvice,
        ] {
            let (mut vm, obj) = ping_vm(mode);
            ping_once(&mut vm, &obj);
            let expect_dispatch = matches!(mode, PingMode::NativeAdvice | PingMode::ScriptAdvice);
            assert_eq!(
                vm.stats().advice_dispatches > 0,
                expect_dispatch,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn guard_package_collapses_and_both_legs_run() {
        let (opt, report) = pmp_midas::optimize_package(&guard_package());
        assert!(report.all_validated());
        assert_eq!(opt.aspect.class.methods[0].body.ops, vec![Op::Ret]);
        assert_eq!(
            pmp_analyze::opt::hoist::hoistable_methods(&opt.aspect.class),
            vec!["limit".to_string(), "onCall".to_string()]
        );
        for optimize in [false, true] {
            let (mut vm, obj) = ping_vm_shipped(optimize);
            ping_once(&mut vm, &obj);
            assert!(vm.stats().advice_dispatches > 0, "optimize={optimize}");
        }
    }

    #[test]
    fn service_exts_all_work() {
        for ext in [
            ServiceExt::None,
            ServiceExt::Nop,
            ServiceExt::Security,
            ServiceExt::Transactions,
            ServiceExt::Persistence,
        ] {
            let (mut vm, obj) = service_vm(ext);
            service_call(&mut vm, &obj, 10);
        }
    }

    #[test]
    fn weave_counts_join_points() {
        let mut vm = weave_target_vm(4, 25);
        let prose = Prose::attach(&mut vm);
        assert_eq!(weave_unweave_once(&mut vm, &prose), 100);
    }

    #[test]
    fn adapted_robot_call_paths() {
        let (mut p, robot) = adapted_robot(true);
        assert_eq!(p.node(robot).receiver.installed_ids().len(), 3);
        adapted_call(&mut p, robot, 3, 3);
        let (mut p, robot) = adapted_robot(false);
        assert!(p.node(robot).receiver.installed_ids().is_empty());
        adapted_call(&mut p, robot, 3, 3);
    }

    #[test]
    fn distribution_and_revocation_runs() {
        let d = distribution_run(3);
        assert_eq!(d.nodes, 3);
        assert!(d.time_to_all_adapted_s < 30.0);
        let r = revocation_run(2 * SEC);
        assert!(r.revocation_latency_s > 0.0);
        assert!(r.revocation_latency_s < 30.0);
    }

    #[test]
    fn driver_scaling_digests_agree() {
        let s = driver_scaling_run(3, Box::new(pmp_core::SerialDriver));
        let p = driver_scaling_run(3, Box::new(pmp_core::ParallelDriver { threads: 3 }));
        assert!(s.all_adapted && p.all_adapted);
        assert_eq!(s.trace_digest, p.trace_digest);
        assert_eq!(s.journal_digest, p.journal_digest);
    }

    #[test]
    fn stream_fanout_serializes_once() {
        let control = stream_fanout_run(1, 2);
        let r = stream_fanout_run(64, 2);
        assert!(control.encoded > 0, "the schedule must commit deltas");
        assert_eq!(r.encoded, control.encoded);
        assert_eq!(r.encoded_bytes, control.encoded_bytes);
        assert_eq!(r.telemetry_encoded, control.telemetry_encoded);
        assert_eq!(r.deliveries, control.deliveries * 64);
        assert!(r.delivered_bytes >= r.encoded_bytes);
    }
}
