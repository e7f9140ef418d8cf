//! Upgrades in place: a successor passes every check before its
//! predecessor is touched, and the swap itself is one step.
//!
//! The world is one hall: a base whose catalog holds session management
//! and an access control that allows only `operator:1`, and one robot.
//! Most tests upgrade something on the adapted robot: with a forged
//! successor, during an access-control upgrade, across a session
//! upgrade, and with a successor that is refused, waits or fails to
//! weave. Others send what a stranger in range can: a replayed package
//! the hall signed, or a `Revoke`. The calls each test makes as
//! `intruder` must all be denied, and an access-control upgrade must
//! cost one delivery and one signature check.

use pmp::core::{BaseId, MobId, Platform};
use pmp::crypto::KeyPair;
use pmp::midas::{
    ExtensionPackage, MidasMsg, ReceiverEvent, ReceiverPolicy, SignedExtension, CHANNEL,
};
use pmp::net::Position;
use pmp::prose::PortableMethod;
use pmp::trace::TraceCtx;
use pmp::vm::builder::MethodBuilder;
use pmp::vm::op::{Const, Op};
use pmp::vm::perm::{Permission, Permissions};

const MS: u64 = 1_000_000;
const SEC: u64 = 1_000 * MS;
const SESSION: &str = "ext/session";
const ACCESS: &str = "ext/access-control";

fn access_control(version: u32) -> ExtensionPackage {
    pmp::extensions::access_control::package("* DrawingService.*(..)", &["operator:1"], version)
}

fn session(version: u32) -> ExtensionPackage {
    pmp::extensions::session::package("* DrawingService.*(..)", version)
}

/// The hall with session v1 and access control v1 installed on its
/// robot.
fn guarded_world(seed: u64) -> (Platform, BaseId, MobId) {
    let mut p = Platform::new(seed);
    p.add_area("hall", Position::new(0.0, 0.0), Position::new(60.0, 60.0));
    let base = p.add_base("hall", Position::new(30.0, 30.0), 80.0);
    for pkg in [session(1), access_control(1)] {
        let sealed = p.base(base).seal(&pkg);
        p.base_mut(base).base.catalog.put(sealed);
    }
    let cap = Permissions::none().with(Permission::Print);
    let policy = p.trusting_policy(&[base], cap);
    let robot = p
        .add_robot("robot:1:1", Position::new(30.0, 40.0), 80.0, policy)
        .expect("robot construction");
    p.pump(3 * SEC);
    assert_eq!(
        p.node(robot).receiver.installed_ids(),
        vec![ACCESS.to_string(), SESSION.to_string()],
        "the hall's catalog is installed"
    );
    assert!(!call_succeeds(&mut p, robot, "intruder"));
    assert!(call_succeeds(&mut p, robot, "operator:1"));
    p.node_mut(robot).events.clear();
    (p, base, robot)
}

/// Calls `DrawingService.position` on the robot's VM as `caller`.
fn call_succeeds(p: &mut Platform, robot: MobId, caller: &str) -> bool {
    let node = p.node_mut(robot);
    *node.wiring.caller.lock() = caller.into();
    let svc = node.services["DrawingService"].clone();
    let result = node.vm.call("DrawingService", "position", svc, vec![]);
    node.wiring.caller.lock().clear();
    result.is_ok()
}

fn installed_version(p: &Platform, robot: MobId, id: &str) -> Option<u32> {
    p.node(robot).events.iter().rev().find_map(|e| match e {
        ReceiverEvent::Installed {
            ext_id, version, ..
        } if ext_id == id => Some(*version),
        _ => None,
    })
}

/// The robot's `Removed` events, as (id, reason), in order.
fn removals(p: &Platform, robot: MobId) -> Vec<(&str, &str)> {
    p.node(robot)
        .events
        .iter()
        .filter_map(|e| match e {
            ReceiverEvent::Removed { ext_id, reason } => Some((ext_id.as_str(), reason.as_str())),
            _ => None,
        })
        .collect()
}

fn counter(p: &Platform, name: &str) -> u64 {
    p.telemetry().lock().registry.counter_value(name)
}

fn samples(p: &Platform, name: &str) -> u64 {
    let t = p.telemetry().lock();
    t.registry.histogram_by_name(name).map_or(0, |h| h.count())
}

/// Sends `msg` to the robot from a stranger in range. MIDAS messages
/// travel unauthenticated (only a package inside is signed), so any
/// node can send one.
fn send_as_stranger(p: &mut Platform, robot: MobId, msg: &MidasMsg) {
    let stranger = p
        .add_device(
            "mallory",
            Position::new(35.0, 40.0),
            80.0,
            ReceiverPolicy::new(),
        )
        .expect("device construction");
    let (from, to) = (p.node(stranger).node, p.node(robot).node);
    p.sim.send(from, to, CHANNEL, TraceCtx::NIL.wrap(msg));
}

/// A successor that fails the signature check leaves the node as it
/// was: here a stranger's forged access control that would let
/// `intruder` in.
#[test]
fn a_forged_successor_leaves_the_installed_version_running() {
    let (mut p, _, robot) = guarded_world(31);
    let key = KeyPair::from_seed(b"mallory");
    let forged = pmp::extensions::access_control::package(
        "* DrawingService.*(..)",
        &["operator:1", "intruder"],
        2,
    );
    let msg = MidasMsg::Deliver {
        ext: SignedExtension::seal("mallory", &key, &forged),
        lease_ns: 4 * SEC,
        grant: 1,
    };
    send_as_stranger(&mut p, robot, &msg);
    p.pump(SEC);

    let node = p.node(robot);
    assert!(node.events.iter().any(|e| matches!(
        e,
        ReceiverEvent::Rejected { ext_id, .. } if ext_id == ACCESS
    )));
    // Five lease periods later the base still renews the version it
    // granted, and nothing was ever removed.
    p.pump(20 * SEC);
    let node = p.node(robot);
    assert_eq!(
        node.receiver.installed_ids(),
        vec![ACCESS.to_string(), SESSION.to_string()]
    );
    assert!(
        !node
            .events
            .iter()
            .any(|e| matches!(e, ReceiverEvent::Removed { .. })),
        "nothing removed: {:?}",
        node.events
    );
    assert!(!call_succeeds(&mut p, robot, "intruder"));
    assert!(call_succeeds(&mut p, robot, "operator:1"));
}

/// A delivery names only the extension it carries: a stranger that
/// replays a package the hall signed, for an id the robot does not
/// hold, adds that extension and removes nothing.
#[test]
fn a_replayed_package_removes_nothing() {
    let (mut p, base, robot) = guarded_world(37);
    let heard = p
        .base(base)
        .seal(&pmp::extensions::geofence::package(0, 0, 10, 10, 1));
    let msg = MidasMsg::Deliver {
        ext: heard,
        lease_ns: 4 * SEC,
        grant: 1,
    };
    send_as_stranger(&mut p, robot, &msg);
    p.pump(20 * SEC);

    let receiver = &p.node(robot).receiver;
    assert!(receiver.is_installed(ACCESS) && receiver.is_installed(SESSION));
    let removed = removals(&p, robot);
    assert!(
        removed
            .iter()
            .all(|(id, _)| ![ACCESS, SESSION].contains(id)),
        "{removed:?}"
    );
    assert!(!call_succeeds(&mut p, robot, "intruder"));
    assert!(call_succeeds(&mut p, robot, "operator:1"));
}

/// Only the base that holds an extension's lease may revoke it: a
/// stranger's `Revoke` of access control removes nothing.
#[test]
fn a_strangers_revoke_removes_nothing() {
    let (mut p, _, robot) = guarded_world(40);
    let msg = MidasMsg::Revoke {
        ext_id: ACCESS.into(),
        reason: "forged".into(),
    };
    send_as_stranger(&mut p, robot, &msg);
    p.pump(20 * SEC);

    assert_eq!(
        p.node(robot).receiver.installed_ids(),
        vec![ACCESS.to_string(), SESSION.to_string()]
    );
    assert_eq!(removals(&p, robot), vec![]);
    assert!(!call_succeeds(&mut p, robot, "intruder"));
    assert!(call_succeeds(&mut p, robot, "operator:1"));
}

/// A successor its base ships but the robot refuses keeps the
/// predecessor leased: the base renews only the successor's grant from
/// then on, and the predecessor took that grant, so nothing lapses and
/// nothing is shipped again.
#[test]
fn a_refused_successor_keeps_its_predecessor_leased() {
    let (mut p, base, robot) = guarded_world(38);
    let key = KeyPair::from_seed(b"mallory");
    let forged = pmp::extensions::access_control::package(
        "* DrawingService.*(..)",
        &["operator:1", "intruder"],
        2,
    );
    p.publish_sealed(base, SignedExtension::seal("mallory", &key, &forged));
    p.pump(SEC);
    let delivered = counter(&p, "midas.base.delivered");
    p.pump(20 * SEC);

    let node = p.node(robot);
    assert!(node.events.iter().any(|e| matches!(
        e,
        ReceiverEvent::Rejected { ext_id, .. } if ext_id == ACCESS
    )));
    assert_eq!(
        node.receiver.installed_ids(),
        vec![ACCESS.to_string(), SESSION.to_string()]
    );
    assert_eq!(removals(&p, robot), vec![]);
    assert_eq!(
        counter(&p, "midas.base.delivered"),
        delivered,
        "nothing shipped again"
    );
    assert!(!call_succeeds(&mut p, robot, "intruder"));
    assert!(call_succeeds(&mut p, robot, "operator:1"));
}

/// A successor waiting for a dependency that no catalog holds keeps its
/// predecessor, and the session the predecessor requires, leased.
#[test]
fn a_waiting_successor_keeps_its_predecessor_leased() {
    let (mut p, base, robot) = guarded_world(39);
    let mut v2 = access_control(2);
    v2.meta.requires.push("ext/audit".into());
    p.publish_extension(base, &v2);
    p.pump(20 * SEC);

    let node = p.node(robot);
    assert!(node.events.iter().any(|e| matches!(
        e,
        ReceiverEvent::DependencyRequested { ext_id } if ext_id == "ext/audit"
    )));
    assert_eq!(
        node.receiver.installed_ids(),
        vec![ACCESS.to_string(), SESSION.to_string()]
    );
    assert_eq!(installed_version(&p, robot, ACCESS), None, "v2 still waits");
    assert_eq!(removals(&p, robot), vec![]);
    assert!(!call_succeeds(&mut p, robot, "intruder"));
    assert!(call_succeeds(&mut p, robot, "operator:1"));
}

/// An access-control upgrade swaps the two versions in one step: a call
/// between any two events of the upgrade meets one of them.
#[test]
fn no_call_is_unguarded_during_an_access_control_upgrade() {
    let (mut p, base, robot) = guarded_world(32);
    p.publish_extension(base, &access_control(2));
    let mut unguarded = 0;
    for _ in 0..200 {
        p.pump(50_000);
        if call_succeeds(&mut p, robot, "intruder") {
            unguarded += 1;
        }
    }
    assert_eq!(unguarded, 0, "intruder calls that got through");
    assert_eq!(installed_version(&p, robot, ACCESS), Some(2));
    assert!(call_succeeds(&mut p, robot, "operator:1"));
}

/// A same-id successor takes over its predecessor's dependents: a new
/// session version keeps access control installed, for good.
#[test]
fn upgrading_session_keeps_access_control() {
    let (mut p, base, robot) = guarded_world(33);
    p.publish_extension(base, &session(2));
    p.pump(20 * SEC);

    let node = p.node(robot);
    assert_eq!(
        node.receiver.installed_ids(),
        vec![ACCESS.to_string(), SESSION.to_string()]
    );
    assert_eq!(installed_version(&p, robot, SESSION), Some(2));
    assert_eq!(
        removals(&p, robot),
        vec![(SESSION, "replaced by newer policy")]
    );
    assert!(!call_succeeds(&mut p, robot, "intruder"));
    assert!(call_succeeds(&mut p, robot, "operator:1"));
}

/// An access-control upgrade on a node that holds session costs one
/// delivery, one signature check, no dependency request, and removes
/// nothing but the old access control.
#[test]
fn an_access_control_upgrade_costs_one_delivery_and_one_verify() {
    let (mut p, base, robot) = guarded_world(34);
    let delivered = counter(&p, "midas.base.delivered");
    let verified = samples(&p, "midas.receiver.verify_ns");
    p.publish_extension(base, &access_control(2));
    p.pump(SEC);

    assert_eq!(installed_version(&p, robot, ACCESS), Some(2));
    assert_eq!(counter(&p, "midas.base.delivered") - delivered, 1);
    assert_eq!(samples(&p, "midas.receiver.verify_ns") - verified, 1);
    let events = &p.node(robot).events;
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, ReceiverEvent::DependencyRequested { .. })),
        "no dependency requested: {events:?}"
    );
    assert_eq!(
        removals(&p, robot),
        vec![(ACCESS, "replaced by newer policy")]
    );
}

/// `pkg` with an `init` that throws: it passes the gate and fails to
/// weave.
fn with_throwing_init(mut pkg: ExtensionPackage) -> ExtensionPackage {
    let mut init = MethodBuilder::new();
    init.op(Op::Const(Const::Str("boom".into())))
        .op(Op::Throw("Boom".into()));
    pkg.aspect.class.methods.push(PortableMethod {
        name: "init".into(),
        params: vec![],
        ret: "void".into(),
        body: init.build(),
    });
    pkg
}

/// A successor that passes the gate but fails to weave is nacked; its
/// predecessor is gone, so the implicit session it left without a
/// dependent is released too.
#[test]
fn a_successor_that_fails_to_weave_leaves_no_orphaned_dependency() {
    let (mut p, base, robot) = guarded_world(35);
    let sealed = p.base(base).seal(&with_throwing_init(access_control(2)));
    let (robot_node, base_node) = (p.node(robot).node, p.base(base).node);
    p.sim.deliveries.set_logging(true);
    p.publish_sealed(base, sealed);
    p.pump(100 * MS);

    let node = p.node(robot);
    let rejected_at_weave = node.events.iter().any(|e| matches!(
        e,
        ReceiverEvent::Rejected { ext_id, reason } if ext_id == ACCESS && reason.starts_with("weave failed")
    ));
    assert!(rejected_at_weave, "nacked at the weave: {:?}", node.events);
    assert!(
        p.sim
            .deliveries
            .log()
            .iter()
            .any(|d| d.from == robot_node && d.to == base_node && d.channel == CHANNEL),
        "the nack reached the base"
    );
    assert!(
        node.receiver.installed_ids().is_empty(),
        "no implicit extension left without a dependent: {:?}",
        node.receiver.installed_ids()
    );
    // The base keeps shipping its catalog's failing successor; each try
    // ends the same way.
    p.pump(10 * SEC);
    assert!(p.node(robot).receiver.installed_ids().is_empty());
}

/// A session successor that fails to weave after its predecessor was
/// swapped out takes the dependents it inherited with it: nothing is
/// left requiring a session that is gone.
#[test]
fn a_dependency_that_fails_to_weave_cascades_its_dependents() {
    let (mut p, base, robot) = guarded_world(36);
    let sealed = p.base(base).seal(&with_throwing_init(session(2)));
    p.publish_sealed(base, sealed);
    p.pump(100 * MS);

    let node = p.node(robot);
    assert!(node.events.iter().any(|e| matches!(
        e,
        ReceiverEvent::Rejected { ext_id, reason } if ext_id == SESSION && reason.starts_with("weave failed")
    )));
    assert!(node.receiver.installed_ids().is_empty());
    let session_removed = format!("dependency {SESSION} removed");
    assert_eq!(
        removals(&p, robot),
        vec![
            (SESSION, "replaced by newer policy"),
            (ACCESS, session_removed.as_str()),
        ]
    );
}
