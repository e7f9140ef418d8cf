//! End-to-end MIDAS tests: a base station (registrar + extension base)
//! and a robot (VM + PROSE + adaptation service) over the simulated
//! wireless network — the paper's Fig. 2 lifecycle.

use pmp_crypto::{KeyPair, Principal};
use pmp_discovery::Registrar;
use pmp_midas::{
    AdaptationService, BaseEvent, ExtensionBase, ExtensionMeta, ExtensionPackage, MidasMsg,
    ReceiverEvent, ReceiverPolicy, SignedExtension,
};
use pmp_net::prelude::*;
use pmp_prose::{Aspect, Crosscut, PortableAspect, PortableClass, PortableMethod, Prose};
use pmp_vm::builder::MethodBuilder;
use pmp_vm::prelude::*;

// ---------------------------------------------------------------------
// Extension fixtures
// ---------------------------------------------------------------------

fn any5() -> Vec<String> {
    vec!["any".into(), "str".into(), "any".into(), "any".into(), "any".into()]
}

/// A monitoring script aspect counting Motor calls and printing them.
fn monitoring_aspect(class_name: &str) -> PortableAspect {
    let mut body = MethodBuilder::new();
    body.op(Op::Load(2));
    body.op(Op::Sys {
        name: "print".into(),
        argc: 1,
    });
    body.op(Op::Pop).op(Op::Ret);
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
        "monitoring",
        class,
        vec![(
            Crosscut::parse("before * Motor.*(..)").unwrap(),
            "onCall".into(),
            0,
        )],
    );
    PortableAspect::try_from(&aspect).unwrap()
}

fn package(
    id: &str,
    version: u32,
    requires: Vec<String>,
    implicit: bool,
    aspect: PortableAspect,
) -> ExtensionPackage {
    ExtensionPackage {
        meta: ExtensionMeta {
            id: id.into(),
            version,
            description: format!("{id} extension"),
            requires,
            permissions: vec!["print".into()],
            implicit,
        },
        aspect,
    }
}

fn noop_aspect(aspect_name: &str, class_name: &str) -> PortableAspect {
    let mut body = MethodBuilder::new();
    body.op(Op::Ret);
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
        aspect_name,
        class,
        vec![(
            Crosscut::parse("before * Motor.*(..)").unwrap(),
            "onCall".into(),
            0,
        )],
    );
    PortableAspect::try_from(&aspect).unwrap()
}

// ---------------------------------------------------------------------
// World driver
// ---------------------------------------------------------------------

struct World {
    sim: Simulator,
    // base station
    base_node: NodeId,
    registrar: Registrar,
    base: ExtensionBase,
    base_events: Vec<BaseEvent>,
    // robot
    robot_node: NodeId,
    vm: Vm,
    prose: Prose,
    receiver: AdaptationService,
    receiver_events: Vec<ReceiverEvent>,
    // credentials
    authority: KeyPair,
}

fn robot_vm() -> (Vm, Prose) {
    let mut vm = Vm::new(VmConfig::default());
    vm.register_class(
        ClassDef::build("Motor")
            .field("position", TypeSig::Int)
            .method("rotate", [TypeSig::Int], TypeSig::Void, |b| {
                b.op(Op::Ret);
            })
            .method("stop", [], TypeSig::Void, |b| {
                b.op(Op::Ret);
            })
            .done(),
    )
    .unwrap();
    let prose = Prose::attach(&mut vm);
    (vm, prose)
}

fn world() -> World {
    let mut sim = Simulator::new(77);
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
        Permissions::none().with(Permission::Print).with(Permission::Net),
    );

    let (vm, prose) = robot_vm();
    let mut receiver = AdaptationService::new(robot_node, "robot:1:1", policy);
    receiver.start(&mut sim);

    World {
        sim,
        base_node,
        registrar,
        base,
        base_events: Vec::new(),
        robot_node,
        vm,
        prose,
        receiver,
        receiver_events: Vec::new(),
        authority,
    }
}

impl World {
    fn seal(&self, pkg: &ExtensionPackage) -> SignedExtension {
        SignedExtension::seal("authority:hall-a", &self.authority, pkg)
    }

    /// Pumps the simulation for `ns`, dispatching all inboxes.
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
                self.base_events
                    .extend(self.base.handle(&mut self.sim, &inc));
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
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[test]
fn robot_entering_hall_gets_adapted() {
    let mut w = world();
    let pkg = package("hall-a/monitoring", 1, vec![], false, monitoring_aspect("Mon1"));
    let sealed = w.seal(&pkg);
    w.base.catalog.put(sealed);

    w.pump(5_000_000_000);

    assert!(w.receiver.is_installed("hall-a/monitoring"));
    assert!(w
        .receiver_events
        .iter()
        .any(|e| matches!(e, ReceiverEvent::Installed { ext_id, .. } if ext_id == "hall-a/monitoring")));
    assert!(w
        .base_events
        .iter()
        .any(|e| matches!(e, BaseEvent::NodeDiscovered { node_name, delivered }
            if node_name == "robot:1:1" && *delivered == 1)));
    assert!(w
        .base_events
        .iter()
        .any(|e| matches!(e, BaseEvent::InstallAck { ok: true, .. })));

    // The woven extension actually intercepts the application.
    let motor = w.vm.new_object("Motor").unwrap();
    w.vm
        .call("Motor", "rotate", motor, vec![Value::Int(30)])
        .unwrap();
    assert_eq!(w.vm.take_output(), vec!["Motor.rotate".to_string()]);
}

#[test]
fn extensions_revoked_when_robot_leaves() {
    let mut w = world();
    w.base.set_lease(2_000_000_000);
    let pkg = package("hall-a/monitoring", 1, vec![], false, monitoring_aspect("Mon1"));
    let sealed = w.seal(&pkg);
    w.base.catalog.put(sealed);
    w.pump(5_000_000_000);
    assert!(w.receiver.is_installed("hall-a/monitoring"));

    // The robot drives away; renewals stop; the lease lapses.
    w.sim.move_node(w.robot_node, Position::new(500.0, 500.0));
    w.pump(10_000_000_000);

    assert!(!w.receiver.is_installed("hall-a/monitoring"));
    assert!(w.receiver_events.iter().any(|e| matches!(
        e,
        ReceiverEvent::Removed { reason, .. } if reason.contains("lease expired")
    )));
    assert!(w
        .base_events
        .iter()
        .any(|e| matches!(e, BaseEvent::NodeDeparted { node_name } if node_name == "robot:1:1")));
    // Interception is gone.
    let motor = w.vm.new_object("Motor").unwrap();
    w.vm
        .call("Motor", "rotate", motor, vec![Value::Int(5)])
        .unwrap();
    assert!(w.vm.take_output().is_empty());
}

#[test]
fn untrusted_base_is_rejected() {
    let mut w = world();
    let pkg = package("evil/monitoring", 1, vec![], false, monitoring_aspect("Evil1"));
    // Signed by an unknown key claiming an untrusted name.
    let mallory = KeyPair::from_seed(b"mallory");
    let sealed = SignedExtension::seal("mallory", &mallory, &pkg);
    w.base.catalog.put(sealed);

    w.pump(5_000_000_000);

    assert!(!w.receiver.is_installed("evil/monitoring"));
    assert!(w.receiver_events.iter().any(|e| matches!(
        e,
        ReceiverEvent::Rejected { reason, .. } if reason.contains("not trusted")
    )));
    assert!(w
        .base_events
        .iter()
        .any(|e| matches!(e, BaseEvent::InstallAck { ok: false, .. })));
}

#[test]
fn forged_signature_is_rejected() {
    let mut w = world();
    let pkg = package("hall-a/monitoring", 1, vec![], false, monitoring_aspect("Mon1"));
    // Mallory claims the trusted name but signs with her own key.
    let mallory = KeyPair::from_seed(b"mallory");
    let sealed = SignedExtension::seal("authority:hall-a", &mallory, &pkg);
    w.base.catalog.put(sealed);

    w.pump(5_000_000_000);

    assert!(!w.receiver.is_installed("hall-a/monitoring"));
    assert!(w.receiver_events.iter().any(|e| matches!(
        e,
        ReceiverEvent::Rejected { reason, .. } if reason.contains("signature")
    )));
}

#[test]
fn implicit_dependencies_install_first_and_cascade_out() {
    let mut w = world();
    let session = package(
        "hall-a/session",
        1,
        vec![],
        true, // implicit
        noop_aspect("session", "Session1"),
    );
    let access = package(
        "hall-a/access-control",
        1,
        vec!["hall-a/session".into()],
        false,
        noop_aspect("access-control", "Access1"),
    );
    let s1 = w.seal(&session);
    let s2 = w.seal(&access);
    w.base.catalog.put(s1);
    w.base.catalog.put(s2);

    w.pump(5_000_000_000);

    assert!(w.receiver.is_installed("hall-a/session"));
    assert!(w.receiver.is_installed("hall-a/access-control"));

    // Installation order: session (dependency) before access control.
    let installs: Vec<&String> = w
        .receiver_events
        .iter()
        .filter_map(|e| match e {
            ReceiverEvent::Installed { ext_id, .. } => Some(ext_id),
            _ => None,
        })
        .collect();
    let pos = |id: &str| installs.iter().position(|x| *x == id).unwrap();
    assert!(pos("hall-a/session") < pos("hall-a/access-control"));

    // Revoking the dependent also removes the now-unused implicit dep.
    w.base
        .revoke_extension(&mut w.sim, "hall-a/access-control", "policy change");
    w.pump(2_000_000_000);
    assert!(!w.receiver.is_installed("hall-a/access-control"));
    assert!(
        !w.receiver.is_installed("hall-a/session"),
        "implicit dependency removed with its last dependent"
    );
}

#[test]
fn policy_update_replaces_extension_on_live_nodes() {
    let mut w = world();
    let v1 = package("hall-a/policy", 1, vec![], false, monitoring_aspect("Policy_v1"));
    let s1 = w.seal(&v1);
    w.base.catalog.put(s1);
    w.pump(5_000_000_000);
    assert!(w.receiver.is_installed("hall-a/policy"));

    // The hall's policy evolves: v2 replaces v1 on the live robot.
    let v2 = package("hall-a/policy", 2, vec![], false, noop_aspect("policy", "Policy_v2"));
    let s2 = w.seal(&v2);
    w.base.update_extension(&mut w.sim, s2);
    w.pump(3_000_000_000);

    assert!(w.receiver.is_installed("hall-a/policy"));
    assert!(w.receiver_events.iter().any(|e| matches!(
        e,
        ReceiverEvent::Removed { reason, .. } if reason.contains("replaced")
    )));
    assert!(w.receiver_events.iter().any(|e| matches!(
        e,
        ReceiverEvent::Installed { ext_id, version, .. }
            if ext_id == "hall-a/policy" && *version == 2
    )));
    // v2 is a no-op monitor: no more prints.
    let motor = w.vm.new_object("Motor").unwrap();
    w.vm
        .call("Motor", "rotate", motor, vec![Value::Int(1)])
        .unwrap();
    assert!(w.vm.take_output().is_empty());
}

#[test]
fn version_downgrade_refused() {
    let mut w = world();
    let v2 = package("hall-a/policy", 2, vec![], false, noop_aspect("policy", "PolicyB_v2"));
    let s2 = w.seal(&v2);
    w.base.catalog.put(s2);
    w.pump(5_000_000_000);
    assert!(w.receiver.is_installed("hall-a/policy"));

    // A stale v1 delivery must be refused (delivered directly, bypassing
    // the catalog's own downgrade check).
    let v1 = package("hall-a/policy", 1, vec![], false, noop_aspect("policy", "PolicyB_v1"));
    let s1 = w.seal(&v1);
    let msg = pmp_midas::MidasMsg::Deliver {
        ext: s1,
        lease_ns: 4_000_000_000,
        grant: 999,
    };
    w.sim.send(
        w.base_node,
        w.robot_node,
        pmp_midas::CHANNEL,
        pmp_trace::TraceCtx::NIL.wrap(&msg),
    );
    w.pump(2_000_000_000);
    assert!(w.receiver_events.iter().any(|e| matches!(
        e,
        ReceiverEvent::Rejected { reason, .. } if reason.contains("downgrade")
    )));
}

#[test]
fn leases_keep_extensions_alive_while_present() {
    let mut w = world();
    w.base.set_lease(1_500_000_000); // 1.5 s lease, run 12 s
    let pkg = package("hall-a/monitoring", 1, vec![], false, monitoring_aspect("MonL"));
    let sealed = w.seal(&pkg);
    w.base.catalog.put(sealed);
    w.pump(12_000_000_000);
    assert!(
        w.receiver.is_installed("hall-a/monitoring"),
        "base renewals kept the extension alive across 8 lease periods"
    );
}

#[test]
fn roaming_handoff_reaches_neighbour_base() {
    let mut w = world();
    // A second base in range (simplified: same radio neighbourhood).
    let base_b = w.sim.add_node("base:hall-b", Position::new(45.0, 25.0), 60.0);
    let mut nb_base = ExtensionBase::new(base_b, base_b);
    w.base.add_neighbor(base_b);

    let pkg = package("hall-a/monitoring", 1, vec![], false, monitoring_aspect("MonR"));
    let sealed = w.seal(&pkg);
    w.base.catalog.put(sealed);
    w.pump(5_000_000_000);
    assert!(w.receiver.is_installed("hall-a/monitoring"));

    // Robot leaves hall A.
    w.sim.move_node(w.robot_node, Position::new(500.0, 500.0));
    // Pump and let the neighbour base drain its inbox.
    let mut handoffs = Vec::new();
    let until = w.sim.now().plus(10_000_000_000);
    loop {
        match w.sim.peek_next() {
            Some(t) if t <= until => {
                w.sim.step();
            }
            _ => break,
        }
        for inc in w.sim.drain_inbox(w.base_node) {
            w.registrar.handle(&mut w.sim, &inc);
            w.base_events.extend(w.base.handle(&mut w.sim, &inc));
        }
        for inc in w.sim.drain_inbox(base_b) {
            handoffs.extend(nb_base.handle(&mut w.sim, &inc));
        }
        for inc in w.sim.drain_inbox(w.robot_node) {
            w.receiver_events.extend(w.receiver.handle(
                &mut w.sim,
                &mut w.vm,
                &w.prose,
                &inc,
            ));
        }
    }
    assert!(handoffs.iter().any(|e| matches!(
        e,
        BaseEvent::HandoffReceived { node_name, ext_ids }
            if node_name == "robot:1:1" && ext_ids.contains(&"hall-a/monitoring".to_string())
    )));
    assert!(nb_base.roaming_cache.contains_key("robot:1:1"));
}

/// The full roaming algorithm: a robot adapted in hall A drives into
/// hall B. Hall B holds the handoff record (grants + packages), so when
/// the robot registers there its lease is *migrated* — one
/// `GrantTransfer`, zero re-`Deliver` messages for the roamed set — and
/// only hall B's own catalog entry is delivered on top.
#[test]
fn roaming_migration_rebinds_grants_without_redelivery() {
    let mut w = world();
    w.base.set_lease(20_000_000_000); // survive the transit
    let base_b = w.sim.add_node("base:hall-b", Position::new(500.0, 25.0), 60.0);
    // The halls are far apart; the handoff rides the wired backhaul.
    w.sim.add_wired_link(w.base_node, base_b);
    let mut reg_b = Registrar::new(base_b, "lookup:hall-b");
    reg_b.start(&mut w.sim);
    let mut nb_base = ExtensionBase::new(base_b, base_b);
    nb_base.start(&mut w.sim);
    w.base.add_neighbor(base_b);
    // Federated halls (one administrative domain): hall B adopts hall
    // A's foreign grants instead of letting their leases lapse.
    w.base.add_replica(base_b);
    nb_base.add_replica(w.base_node);

    let pkg = package("hall-a/monitoring", 1, vec![], false, monitoring_aspect("MonM"));
    let sealed = w.seal(&pkg);
    w.base.catalog.put(sealed);
    // Hall B distributes its own policy on top.
    let local = package("hall-b/local", 1, vec![], false, noop_aspect("local", "LocB"));
    let sealed_local = w.seal(&local);
    nb_base.catalog.put(sealed_local);

    w.pump(5_000_000_000);
    assert!(w.receiver.is_installed("hall-a/monitoring"));

    // Drive out of hall A through the uncovered corridor: hall A
    // detects the departure and hands the robot's state to hall B
    // before the robot gets there.
    w.sim.move_node(w.robot_node, Position::new(250.0, 500.0));
    let mut nb_events = Vec::new();
    let mut arrived = false;
    let until = w.sim.now().plus(18_000_000_000);
    loop {
        match w.sim.peek_next() {
            Some(t) if t <= until => {
                w.sim.step();
            }
            _ => break,
        }
        for inc in w.sim.drain_inbox(w.base_node) {
            w.registrar.handle(&mut w.sim, &inc);
            w.base_events.extend(w.base.handle(&mut w.sim, &inc));
        }
        for inc in w.sim.drain_inbox(base_b) {
            reg_b.handle(&mut w.sim, &inc);
            nb_events.extend(nb_base.handle(&mut w.sim, &inc));
        }
        for inc in w.sim.drain_inbox(w.robot_node) {
            w.receiver_events.extend(w.receiver.handle(
                &mut w.sim,
                &mut w.vm,
                &w.prose,
                &inc,
            ));
        }
        // Once hall B holds the handoff record, the robot arrives.
        if !arrived && nb_base.roaming_cache.contains_key("robot:1:1") {
            arrived = true;
            w.sim.move_node(w.robot_node, Position::new(505.0, 25.0));
        }
    }
    assert!(arrived, "hall B received the handoff record");

    // The lease moved: the handoff record was adopted (grants rebound
    // in place), not redelivered.
    assert!(nb_events.iter().any(|e| matches!(
        e,
        BaseEvent::NodeMigrated { node_name, rebound, .. }
            if node_name == "robot:1:1" && *rebound >= 1
    )));
    assert!(w.receiver_events.iter().any(|e| matches!(
        e,
        ReceiverEvent::Rebound { base, ext_ids }
            if *base == base_b && ext_ids.contains(&"hall-a/monitoring".to_string())
    )));
    // The roamed extension was installed exactly once (in hall A) and
    // never removed: zero re-`Deliver` for the roamed set.
    let installs = w
        .receiver_events
        .iter()
        .filter(|e| matches!(e, ReceiverEvent::Installed { ext_id, .. } if ext_id == "hall-a/monitoring"))
        .count();
    assert_eq!(installs, 1, "migration must not re-deliver");
    assert!(!w.receiver_events.iter().any(|e| matches!(
        e,
        ReceiverEvent::Removed { ext_id, .. } if ext_id == "hall-a/monitoring"
    )));
    assert!(w.receiver.is_installed("hall-a/monitoring"));
    assert_eq!(
        w.receiver.lease_holder("hall-a/monitoring"),
        Some(base_b),
        "the lease now belongs to hall B"
    );
    // Hall B's own policy arrived the normal way.
    assert!(w.receiver.is_installed("hall-b/local"));
    // The roam record was consumed by the adoption.
    assert!(!nb_base.roaming_cache.contains_key("robot:1:1"));

    // Hall B keeps the migrated lease alive.
    let deadline_before = w
        .receiver
        .lease_deadlines()
        .iter()
        .find(|(id, _)| id == "hall-a/monitoring")
        .map(|(_, d)| *d)
        .unwrap();
    let mut renew_until = w.sim.now().plus(6_000_000_000);
    loop {
        match w.sim.peek_next() {
            Some(t) if t <= renew_until => {
                w.sim.step();
            }
            _ => break,
        }
        for inc in w.sim.drain_inbox(base_b) {
            reg_b.handle(&mut w.sim, &inc);
            nb_base.handle(&mut w.sim, &inc);
        }
        for inc in w.sim.drain_inbox(w.robot_node) {
            w.receiver.handle(&mut w.sim, &mut w.vm, &w.prose, &inc);
        }
    }
    renew_until = w.sim.now();
    let _ = renew_until;
    let deadline_after = w
        .receiver
        .lease_deadlines()
        .iter()
        .find(|(id, _)| id == "hall-a/monitoring")
        .map(|(_, d)| *d)
        .unwrap();
    assert!(
        deadline_after > deadline_before,
        "hall B renews the migrated grant"
    );
    assert!(w.receiver.is_installed("hall-a/monitoring"));
}

#[test]
fn reentering_hall_readapts() {
    let mut w = world();
    let pkg = package("hall-a/monitoring", 1, vec![], false, monitoring_aspect("MonRe"));
    let sealed = w.seal(&pkg);
    w.base.catalog.put(sealed);
    w.pump(5_000_000_000);
    assert!(w.receiver.is_installed("hall-a/monitoring"));

    w.sim.move_node(w.robot_node, Position::new(500.0, 500.0));
    w.pump(10_000_000_000);
    assert!(!w.receiver.is_installed("hall-a/monitoring"));

    w.sim.move_node(w.robot_node, Position::new(30.0, 25.0));
    w.pump(8_000_000_000);
    assert!(
        w.receiver.is_installed("hall-a/monitoring"),
        "re-entry re-adapts the robot"
    );
}

#[test]
fn missing_dependency_is_requested_and_resolved() {
    let mut w = world();
    let session = package(
        "hall-a/session",
        1,
        vec![],
        true,
        noop_aspect("session", "SessionD1"),
    );
    let access = package(
        "hall-a/access-control",
        1,
        vec!["hall-a/session".into()],
        false,
        noop_aspect("access-control", "AccessD1"),
    );
    let s_session = w.seal(&session);
    let s_access = w.seal(&access);
    // Catalog the dependency so the base can serve RequestDep...
    w.base.catalog.put(s_session);
    w.pump(3_000_000_000);

    // ...but deliver ONLY the dependent directly, out of order.
    let msg = pmp_midas::MidasMsg::Deliver {
        ext: s_access,
        lease_ns: 8_000_000_000,
        grant: 777,
    };
    w.sim.send(
        w.base_node,
        w.robot_node,
        pmp_midas::CHANNEL,
        pmp_trace::TraceCtx::NIL.wrap(&msg),
    );
    w.pump(4_000_000_000);

    // The receiver requested the dependency, the base served it, and
    // both ended up installed — dependency first.
    assert!(w
        .receiver_events
        .iter()
        .any(|e| matches!(e, ReceiverEvent::DependencyRequested { ext_id }
            if ext_id == "hall-a/session")));
    assert!(w.receiver.is_installed("hall-a/session"));
    assert!(w.receiver.is_installed("hall-a/access-control"));
    let installs: Vec<&String> = w
        .receiver_events
        .iter()
        .filter_map(|e| match e {
            ReceiverEvent::Installed { ext_id, .. } => Some(ext_id),
            _ => None,
        })
        .collect();
    let pos = |id: &str| installs.iter().position(|x| *x == id).unwrap();
    assert!(pos("hall-a/session") < pos("hall-a/access-control"));
}

#[test]
fn a_successor_waiting_for_a_dependency_keeps_its_predecessor_woven() {
    let mut w = world();
    let v1 = package(
        "hall-a/policy",
        1,
        vec![],
        false,
        monitoring_aspect("PolicyW_v1"),
    );
    let session = package(
        "hall-a/session",
        1,
        vec![],
        true,
        noop_aspect("session", "SessionW1"),
    );
    let (s1, s_session) = (w.seal(&v1), w.seal(&session));
    w.base.catalog.put(s1);
    w.base.catalog.put(s_session);
    w.pump(5_000_000_000);
    assert!(w.receiver.is_installed("hall-a/policy"));
    assert!(
        !w.receiver.is_installed("hall-a/session"),
        "nothing requires session yet"
    );

    // v2 requires the session the robot does not hold: it waits for it.
    let v2 = package(
        "hall-a/policy",
        2,
        vec!["hall-a/session".into()],
        false,
        noop_aspect("policy", "PolicyW_v2"),
    );
    let s2 = w.seal(&v2);
    w.base.update_extension(&mut w.sim, s2);
    // One event at a time, until the robot asks for session.
    let requested = |w: &World| {
        w.receiver_events
            .iter()
            .any(|e| matches!(e, ReceiverEvent::DependencyRequested { .. }))
    };
    for _ in 0..1_000 {
        if requested(&w) {
            break;
        }
        let next = w.sim.peek_next().expect("timers keep the world running");
        w.pump(next.0 - w.sim.now().0);
    }
    assert!(requested(&w), "v2 asked for session");
    assert!(!w.receiver.is_installed("hall-a/session"));
    let motor = w.vm.new_object("Motor").unwrap();
    w.vm.call("Motor", "rotate", motor.clone(), vec![Value::Int(1)])
        .unwrap();
    assert_eq!(
        w.vm.take_output(),
        vec!["Motor.rotate".to_string()],
        "v1 still intercepts while v2 waits"
    );

    // Session arrives, v2 replaces v1, and v1 was removed only then.
    w.pump(3_000_000_000);
    let at = |pred: &dyn Fn(&ReceiverEvent) -> bool| {
        w.receiver_events
            .iter()
            .position(pred)
            .expect("event present")
    };
    let session_in =
        at(&|e| matches!(e, ReceiverEvent::Installed { ext_id, .. } if ext_id == "hall-a/session"));
    let v1_out =
        at(&|e| matches!(e, ReceiverEvent::Removed { ext_id, .. } if ext_id == "hall-a/policy"));
    let v2_in = at(&|e| matches!(e, ReceiverEvent::Installed { version: 2, .. }));
    assert!(
        session_in < v1_out && v1_out < v2_in,
        "{:?}",
        w.receiver_events
    );
    assert!(w.receiver.is_installed("hall-a/session"));
    w.vm.call("Motor", "rotate", motor, vec![Value::Int(2)])
        .unwrap();
    assert!(w.vm.take_output().is_empty(), "v2 is a no-op");
}

/// A replica base on its own node, wired to the world's base.
struct Peer {
    node: NodeId,
    base: ExtensionBase,
}

fn peer(w: &mut World, name: &str, x: f64) -> Peer {
    let node = w.sim.add_node(name, Position::new(x, 25.0), 60.0);
    w.sim.add_wired_link(w.base_node, node);
    let mut base = ExtensionBase::new(node, node);
    base.start(&mut w.sim);
    Peer { node, base }
}

/// Pumps the world and its peer bases for `ns`, returning every MIDAS
/// message a base received as `(from, to, message)`.
fn pump_federation(w: &mut World, peers: &mut [Peer], ns: u64) -> Vec<(NodeId, NodeId, MidasMsg)> {
    let mut seen = Vec::new();
    let mut note = |to: NodeId, inc: &Incoming| {
        if let Incoming::Message { from, payload, .. } = inc {
            if let Ok(env) = pmp_wire::from_bytes::<pmp_trace::Traced<MidasMsg>>(payload) {
                seen.push((*from, to, env.msg));
            }
        }
    };
    let until = w.sim.now().plus(ns);
    loop {
        match w.sim.peek_next() {
            Some(t) if t <= until => {
                w.sim.step();
            }
            _ => break,
        }
        for inc in w.sim.drain_inbox(w.base_node) {
            note(w.base_node, &inc);
            w.registrar.handle(&mut w.sim, &inc);
            w.base_events.extend(w.base.handle(&mut w.sim, &inc));
        }
        for p in peers.iter_mut() {
            for inc in w.sim.drain_inbox(p.node) {
                note(p.node, &inc);
                p.base.handle(&mut w.sim, &inc);
            }
        }
        for inc in w.sim.drain_inbox(w.robot_node) {
            w.receiver_events
                .extend(w.receiver.handle(&mut w.sim, &mut w.vm, &w.prose, &inc));
        }
    }
    seen
}

/// `(from, to)` of every `CatalogPush` in `seen`.
fn pushes(seen: &[(NodeId, NodeId, MidasMsg)]) -> Vec<(NodeId, NodeId)> {
    seen.iter()
        .filter(|(_, _, m)| matches!(m, MidasMsg::CatalogPush { .. }))
        .map(|(from, to, _)| (*from, *to))
        .collect()
}

fn catalog_version(base: &ExtensionBase, id: &str) -> Option<u32> {
    base.catalog.get(id).map(|e| e.open().unwrap().meta.version)
}

/// Catalog anti-entropy and lease-table sync between replica bases:
/// an entry put into hall A's catalog without a publish reaches hall B
/// via the scan-tick digest → pull → push repair, and hall B shadows
/// hall A's lease table so it could adopt hall A's robots without
/// redelivery.
#[test]
fn replicas_converge_catalogs_and_shadow_lease_tables() {
    let mut w = world();
    let mut b = peer(&mut w, "base:hall-b", 500.0);
    w.base.add_replica(b.node);
    b.base.add_replica(w.base_node);

    let pkg = package(
        "hall-a/monitoring",
        1,
        vec![],
        false,
        monitoring_aspect("MonAE"),
    );
    let sealed = w.seal(&pkg);
    w.base.catalog.put(sealed);
    let seen = pump_federation(&mut w, std::slice::from_mut(&mut b), 6_000_000_000);

    // The digest exchange repaired the catalog entry.
    assert!(seen
        .iter()
        .any(|(_, _, m)| matches!(m, MidasMsg::ReplicaPull { .. })));
    assert_eq!(b.base.catalog.ids(), ["hall-a/monitoring"]);
    assert_eq!(b.base.catalog_digest(), w.base.catalog_digest());
    // The lease table was shadowed: hall B can adopt robot:1:1 with
    // the exact grants hall A issued.
    let shadow = b
        .base
        .roaming_cache
        .get("robot:1:1")
        .expect("lease sync shadowed the adapted robot");
    assert_eq!(shadow.from, w.base_node.0);
    assert_eq!(
        shadow
            .grants
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect::<Vec<_>>(),
        w.receiver.grants(),
        "shadow grants match the robot's live grants"
    );
}

/// A publish reaches the replica as it commits, not at the next scan:
/// one `CatalogPush` per publish, and the replica sends nothing back to
/// the base it came from.
#[test]
fn each_publish_is_pushed_once_to_the_replica_before_the_next_scan() {
    let mut w = world();
    let mut b = peer(&mut w, "base:hall-b", 500.0);
    w.base.add_replica(b.node);
    b.base.add_replica(w.base_node);
    let (a, b_node) = (w.base_node, b.node);

    for version in [1, 2] {
        // Publish between scan ticks (they fall on whole seconds); the
        // push needs a few ms of backhaul.
        pump_federation(&mut w, std::slice::from_mut(&mut b), 500_000_000);
        let pkg = package(
            "hall-a/monitoring",
            version,
            vec![],
            false,
            monitoring_aspect("MonP"),
        );
        let sealed = w.seal(&pkg);
        w.base.update_extension(&mut w.sim, sealed);
        let seen = pump_federation(&mut w, std::slice::from_mut(&mut b), 100_000_000);

        assert_eq!(catalog_version(&b.base, "hall-a/monitoring"), Some(version));
        assert_eq!(
            pushes(&seen),
            [(a, b_node)],
            "v{version}: one push, no echo"
        );
        assert!(
            !seen
                .iter()
                .any(|(_, _, m)| matches!(m, MidasMsg::ReplicaDigest { .. })),
            "v{version}: converged before any scan tick"
        );
    }
}

/// Replication is transitive along a replica chain A–B–C (A and C are
/// not replicas of each other): B passes A's publish on to C before the
/// next scan, and no push travels back toward the origin.
#[test]
fn a_replica_chain_converges_before_the_next_scan() {
    let mut w = world();
    let mut peers = [
        peer(&mut w, "base:hall-b", 500.0),
        peer(&mut w, "base:hall-c", 1000.0),
    ];
    let (a, b, c) = (w.base_node, peers[0].node, peers[1].node);
    w.sim.add_wired_link(b, c);
    w.base.add_replica(b);
    peers[0].base.add_replica(a);
    peers[0].base.add_replica(c);
    peers[1].base.add_replica(b);

    pump_federation(&mut w, &mut peers, 500_000_000);
    let pkg = package(
        "hall-a/monitoring",
        1,
        vec![],
        false,
        monitoring_aspect("MonC"),
    );
    let sealed = w.seal(&pkg);
    w.base.update_extension(&mut w.sim, sealed);
    let seen = pump_federation(&mut w, &mut peers, 100_000_000);

    assert_eq!(pushes(&seen), [(a, b), (b, c)]);
    for p in &peers {
        assert_eq!(catalog_version(&p.base, "hall-a/monitoring"), Some(1));
        assert_eq!(p.base.catalog_digest(), w.base.catalog_digest());
    }
}

/// The roaming table is bounded: at capacity the oldest record is
/// evicted FIFO, so a base flooded with handoffs cannot grow without
/// limit (the unbounded `roaming_cache` this replaces).
#[test]
fn roaming_cache_is_bounded_with_fifo_eviction() {
    let mut w = world();
    w.base.set_roam_cap(2);
    let peer = w.sim.add_node("base:peer", Position::new(20.0, 25.0), 60.0);
    for i in 0..3 {
        let mut grants = std::collections::BTreeMap::new();
        grants.insert("hall-x/mon".to_string(), 10 + i);
        let msg = pmp_midas::MidasMsg::HandoffState {
            node_name: format!("wanderer:{i}"),
            grants,
            exts: vec![],
        };
        w.sim.send(
            peer,
            w.base_node,
            pmp_midas::CHANNEL,
            pmp_trace::TraceCtx::NIL.wrap(&msg),
        );
        w.pump(100_000_000);
    }
    assert_eq!(w.base.roaming_cache.len(), 2, "capped at 2");
    assert!(
        !w.base.roaming_cache.contains_key("wanderer:0"),
        "oldest record evicted first"
    );
    assert!(w.base.roaming_cache.contains_key("wanderer:1"));
    assert!(w.base.roaming_cache.contains_key("wanderer:2"));
}
