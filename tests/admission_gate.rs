//! End-to-end tests for the static-analysis admission gate: a base
//! station ships signed-but-unsafe extensions to a robot, and
//! `midas::receiver` must reject them *before weaving* — with the
//! verdict and per-pass latency mirrored into telemetry. The paper
//! admits on cryptographic trust alone; this gate supplies the
//! JVM-verifier role our VM otherwise lacks.

use pmp::crypto::{KeyPair, Principal};
use pmp::discovery::Registrar;
use pmp::midas::{
    AdaptationService, ExtensionBase, ExtensionMeta, ExtensionPackage, ReceiverEvent,
    ReceiverPolicy, SignedExtension,
};
use pmp::net::prelude::*;
use pmp::prose::{Aspect, Crosscut, PortableAspect, PortableClass, PortableMethod, Prose};
use pmp::telemetry::{Shared, Sink, Subsystem};
use pmp::vm::builder::MethodBuilder;
use pmp::vm::prelude::*;

const SEC: u64 = 1_000_000_000;

fn any5() -> Vec<String> {
    vec![
        "any".into(),
        "str".into(),
        "any".into(),
        "any".into(),
        "any".into(),
    ]
}

/// A script aspect whose single advice method runs `ops`, bound to
/// `crosscut`.
fn script_aspect(name: &str, class_name: &str, crosscut: &str, ops: Vec<Op>) -> PortableAspect {
    let mut body = MethodBuilder::new();
    for op in ops {
        body.op(op);
    }
    let class = PortableClass {
        name: class_name.into(),
        fields: vec![],
        methods: vec![PortableMethod {
            name: "onCall".into(),
            params: any5(),
            ret: "any".into(),
            body: body.build(),
        }],
    };
    let aspect = Aspect::script(
        name,
        class,
        vec![(Crosscut::parse(crosscut).unwrap(), "onCall".into(), 0)],
    );
    PortableAspect::try_from(&aspect).unwrap()
}

fn package(id: &str, permissions: Vec<String>, aspect: PortableAspect) -> ExtensionPackage {
    ExtensionPackage {
        meta: ExtensionMeta {
            id: id.into(),
            version: 1,
            description: format!("{id} extension"),
            requires: vec![],
            permissions,
            implicit: false,
        },
        aspect,
    }
}

struct World {
    sim: Simulator,
    base_node: NodeId,
    registrar: Registrar,
    base: ExtensionBase,
    robot_node: NodeId,
    vm: Vm,
    prose: Prose,
    receiver: AdaptationService,
    receiver_events: Vec<ReceiverEvent>,
    telemetry: Shared,
    authority: KeyPair,
}

fn world() -> World {
    let mut sim = Simulator::new(41);
    sim.add_area("hall-a", Position::new(0.0, 0.0), Position::new(50.0, 50.0));
    let base_node = sim.add_node("base:hall-a", Position::new(25.0, 25.0), 60.0);
    let robot_node = sim.add_node("robot:1:1", Position::new(30.0, 25.0), 60.0);

    let mut registrar = Registrar::new(base_node, "lookup:hall-a");
    registrar.start(&mut sim);
    let mut base = ExtensionBase::new(base_node, base_node);
    base.start(&mut sim);

    let authority = KeyPair::from_seed(b"authority:hall-a");
    let mut policy = ReceiverPolicy::new();
    policy
        .trust
        .add(Principal::new("authority:hall-a", authority.public_key()));
    policy.set_signer_cap(
        "authority:hall-a",
        Permissions::none()
            .with(Permission::Print)
            .with(Permission::Net),
    );

    let mut vm = Vm::new(VmConfig::default());
    vm.register_class(
        ClassDef::build("Motor")
            .field("position", TypeSig::Int)
            .method("rotate", [TypeSig::Int], TypeSig::Void, |b| {
                b.op(Op::Ret);
            })
            .done(),
    )
    .unwrap();
    let prose = Prose::attach(&mut vm);

    let telemetry = Shared::new();
    let mut receiver = AdaptationService::new(robot_node, "robot:1:1", policy);
    receiver.attach_sink(Sink::direct(&telemetry));
    receiver.start(&mut sim);

    World {
        sim,
        base_node,
        registrar,
        base,
        robot_node,
        vm,
        prose,
        receiver,
        receiver_events: Vec::new(),
        telemetry,
        authority,
    }
}

impl World {
    fn offer(&mut self, pkg: &ExtensionPackage) {
        let sealed = SignedExtension::seal("authority:hall-a", &self.authority, pkg);
        self.base.catalog.put(sealed);
    }

    fn pump(&mut self, ns: u64) {
        let until = self.sim.now().plus(ns);
        loop {
            match self.sim.peek_next() {
                Some(t) if t <= until => {
                    self.sim.step();
                }
                _ => break,
            }
            for inc in self.sim.drain_inbox(self.base_node) {
                self.registrar.handle(&mut self.sim, &inc);
                self.base.handle(&mut self.sim, &inc);
            }
            for inc in self.sim.drain_inbox(self.robot_node) {
                self.receiver_events.extend(self.receiver.handle(
                    &mut self.sim,
                    &mut self.vm,
                    &self.prose,
                    &inc,
                ));
            }
        }
    }

    fn rejection_reason(&self, id: &str) -> Option<String> {
        self.receiver_events.iter().find_map(|e| match e {
            ReceiverEvent::Rejected { ext_id, reason } if ext_id == id => Some(reason.clone()),
            _ => None,
        })
    }

    fn journal_details(&self, event_name: &str) -> Vec<String> {
        self.telemetry.with(|t| {
            t.journal
                .events()
                .filter(|e| e.subsystem == Subsystem::Midas && e.name == event_name)
                .map(|e| e.detail().into_owned())
                .collect()
        })
    }
}

#[test]
fn underflowing_package_is_rejected_before_weaving() {
    let mut w = world();
    // Pop on an empty stack: signed by a fully trusted authority, but
    // structurally unsound bytecode.
    let pkg = package(
        "hall-a/underflow",
        vec!["print".into()],
        script_aspect("underflow", "Uf1", "before * Motor.*(..)", vec![Op::Pop, Op::Ret]),
    );
    w.offer(&pkg);
    w.pump(5 * SEC);

    assert!(!w.receiver.is_installed("hall-a/underflow"));
    let reason = w.rejection_reason("hall-a/underflow").expect("nack reason");
    assert!(
        reason.contains("analysis: bytecode-verifier") && reason.contains("underflow"),
        "{reason}"
    );
    // Rejected before weaving: the aspect class never reached the VM
    // and nothing is woven.
    assert!(w.prose.woven().is_empty());
    assert!(w.vm.class_id("Uf1").is_none());
    // The base may redeliver after the nack; every delivery must be
    // re-rejected and none accepted.
    assert!(w.telemetry.counter_value("midas.analyze.rejected") >= 1);
    assert_eq!(w.telemetry.counter_value("midas.analyze.accepted"), 0);
    // The journal names the failing pass.
    let details = w.journal_details("midas.analyze");
    assert!(
        details
            .iter()
            .any(|d| d.contains("REJECTED by bytecode-verifier")),
        "{details:?}"
    );
}

#[test]
fn wild_jump_package_is_rejected() {
    let mut w = world();
    let pkg = package(
        "hall-a/wildjump",
        vec!["print".into()],
        script_aspect("wildjump", "Wj1", "before * Motor.*(..)", vec![Op::Jump(99)]),
    );
    w.offer(&pkg);
    w.pump(5 * SEC);

    assert!(!w.receiver.is_installed("hall-a/wildjump"));
    let reason = w.rejection_reason("hall-a/wildjump").unwrap();
    assert!(
        reason.contains("bytecode-verifier") && reason.contains("jump target"),
        "{reason}"
    );
}

#[test]
fn overprivileged_package_is_rejected_by_permission_inference() {
    let mut w = world();
    // Uses `print` but declares no permissions at all: at run time the
    // sandbox would throw mid-advice; the gate refuses it up front.
    let pkg = package(
        "hall-a/sneaky",
        vec![],
        script_aspect(
            "sneaky",
            "Sn1",
            "before * Motor.*(..)",
            vec![
                Op::Load(2),
                Op::Sys {
                    name: "print".into(),
                    argc: 1,
                },
                Op::Pop,
                Op::Ret,
            ],
        ),
    );
    w.offer(&pkg);
    w.pump(5 * SEC);

    assert!(!w.receiver.is_installed("hall-a/sneaky"));
    let reason = w.rejection_reason("hall-a/sneaky").unwrap();
    assert!(
        reason.contains("permission-inference") && reason.contains("undeclared"),
        "{reason}"
    );
    let details = w.journal_details("midas.analyze");
    assert!(
        details
            .iter()
            .any(|d| d.contains("REJECTED by permission-inference")),
        "{details:?}"
    );
}

#[test]
fn clean_package_passes_the_gate_and_installs() {
    let mut w = world();
    let pkg = package(
        "hall-a/clean",
        vec!["print".into()],
        script_aspect(
            "clean",
            "Cl1",
            "before * Motor.*(..)",
            vec![
                Op::Load(2),
                Op::Sys {
                    name: "print".into(),
                    argc: 1,
                },
                Op::Pop,
                Op::Ret,
            ],
        ),
    );
    w.offer(&pkg);
    w.pump(5 * SEC);

    assert!(w.receiver.is_installed("hall-a/clean"));
    assert_eq!(w.telemetry.counter_value("midas.analyze.accepted"), 1);
    assert_eq!(w.telemetry.counter_value("midas.analyze.rejected"), 0);
    // Per-pass latency histograms were recorded.
    let lines = w.telemetry.to_json_lines();
    for h in [
        "midas.analyze.bytecode_ns",
        "midas.analyze.perms_ns",
        "midas.analyze.termination_ns",
    ] {
        assert!(lines.contains(h), "missing histogram {h}");
    }
    // And the woven advice actually runs.
    let motor = w.vm.new_object("Motor").unwrap();
    w.vm
        .call("Motor", "rotate", motor, vec![Value::Int(30)])
        .unwrap();
    assert_eq!(w.vm.take_output(), vec!["Motor.rotate".to_string()]);
}

#[test]
fn disabling_the_gate_restores_trust_only_admission() {
    let mut w = world();
    w.receiver.policy.analysis.enabled = false;
    // The underflowing package now sails through (the paper's
    // behaviour: signature + sandbox, no static checks).
    let pkg = package(
        "hall-a/underflow",
        vec!["print".into()],
        script_aspect("underflow", "Uf1", "before * Motor.*(..)", vec![Op::Pop, Op::Ret]),
    );
    w.offer(&pkg);
    w.pump(5 * SEC);
    assert!(w.receiver.is_installed("hall-a/underflow"));
}

#[test]
fn equal_priority_interference_is_journaled_but_not_fatal_by_default() {
    let mut w = world();
    let a = package(
        "hall-a/mon-a",
        vec![],
        script_aspect("mon-a", "MonA1", "before * Motor.*(..)", vec![Op::Ret]),
    );
    let b = package(
        "hall-a/mon-b",
        vec![],
        script_aspect("mon-b", "MonB1", "before * Motor.*(..)", vec![Op::Ret]),
    );
    w.offer(&a);
    w.offer(&b);
    w.pump(5 * SEC);

    assert!(w.receiver.is_installed("hall-a/mon-a"));
    assert!(w.receiver.is_installed("hall-a/mon-b"));
    assert!(w.telemetry.counter_value("midas.analyze.interference") >= 1);
    let details = w.journal_details("midas.analyze");
    assert!(
        details.iter().any(|d| d.contains("ambiguous-order")),
        "{details:?}"
    );
}

#[test]
fn interference_rejection_unweaves_the_newcomer() {
    let mut w = world();
    w.receiver.policy.analysis.reject_on_interference = true;
    let a = package(
        "hall-a/writer-a",
        vec![],
        script_aspect("writer-a", "WrA1", "set Motor.position", vec![Op::Ret]),
    );
    let b = package(
        "hall-a/writer-b",
        vec![],
        script_aspect("writer-b", "WrB1", "set Motor.position", vec![Op::Ret]),
    );
    w.offer(&a);
    w.offer(&b);
    w.pump(5 * SEC);

    // Exactly one of the two field writers survives; the other was
    // woven, found to interfere, and unwoven again.
    let survivors = [
        w.receiver.is_installed("hall-a/writer-a"),
        w.receiver.is_installed("hall-a/writer-b"),
    ];
    assert_eq!(survivors.iter().filter(|s| **s).count(), 1, "{survivors:?}");
    assert_eq!(w.prose.woven().len(), 1);
    let rejected = w
        .receiver_events
        .iter()
        .find_map(|e| match e {
            ReceiverEvent::Rejected { ext_id, reason } => Some((ext_id.clone(), reason.clone())),
            _ => None,
        })
        .expect("one writer must be rejected");
    assert!(
        rejected.1.contains("analysis: interference"),
        "{rejected:?}"
    );
}

#[test]
fn interference_between_residents_is_not_blamed_on_a_same_named_newcomer() {
    let mut w = world();
    let twin = |id: &str, class: &str| {
        package(
            id,
            vec![],
            script_aspect("twin", class, "before * Motor.*(..)", vec![Op::Ret]),
        )
    };
    w.offer(&twin("hall-a/twin-a", "TwinA1"));
    w.offer(&twin("hall-a/twin-b", "TwinB1"));
    w.offer(&package(
        "hall-a/field-c",
        vec![],
        script_aspect("field-c", "FieldC1", "set Motor.position", vec![Op::Ret]),
    ));
    w.pump(5 * SEC);
    for id in ["hall-a/twin-a", "hall-a/twin-b", "hall-a/field-c"] {
        assert!(w.receiver.is_installed(id), "{id}");
    }

    // The two residents interfere with each other at Motor.rotate; the
    // upgrade shares their aspect name but advises only the field.
    w.receiver.policy.analysis.reject_on_interference = true;
    let mut upgrade = package(
        "hall-a/field-c",
        vec![],
        script_aspect("twin", "FieldC2", "set Motor.position", vec![Op::Ret]),
    );
    upgrade.meta.version = 2;
    let sealed = SignedExtension::seal("authority:hall-a", &w.authority, &upgrade);
    w.base.update_extension(&mut w.sim, sealed);
    w.pump(5 * SEC);

    assert_eq!(w.rejection_reason("hall-a/field-c"), None);
    assert!(w.receiver.is_installed("hall-a/field-c"));
    assert!(
        w.receiver_events.iter().any(|e| matches!(
            e,
            ReceiverEvent::Installed { ext_id, version: 2, .. } if ext_id == "hall-a/field-c"
        )),
        "the upgrade must have been woven"
    );
}
