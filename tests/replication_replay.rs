//! Integration tests for the §4.5 applications of the monitoring data:
//! remote replication (mirrored and scaled robots) and simulation
//! (replay from the hall database), plus live policy evolution.

use pmp::core::{Platform, ProductionHalls};
use pmp::extensions;
use pmp::net::Position;
use pmp::vm::prelude::{Permission, Permissions};
use std::collections::BTreeMap;

const SEC: u64 = 1_000_000_000;

/// Builds a world with a source robot and an identical replica in hall
/// A, whose catalog carries the replication extension.
fn replication_world() -> (Platform, pmp::core::BaseId, pmp::core::MobId, pmp::core::MobId) {
    let mut p = Platform::new(23);
    p.add_area("hall-a", Position::new(0.0, 0.0), Position::new(60.0, 60.0));
    let base = p.add_base("hall-a", Position::new(30.0, 30.0), 80.0);
    let cap = Permissions::none()
        .with(Permission::Net)
        .with(Permission::Print);
    let policy = p.trusting_policy(&[base], cap);
    let source = p
        .add_robot("robot:src", Position::new(35.0, 30.0), 80.0, policy.clone())
        .unwrap();
    let replica = p
        .add_robot("robot:mirror", Position::new(25.0, 30.0), 80.0, policy)
        .unwrap();

    let pkg = extensions::replication::package(1);
    let sealed = p.base(base).seal(&pkg);
    p.base_mut(base).base.catalog.put(sealed);
    (p, base, source, replica)
}

#[test]
fn remote_replication_mirrors_the_drawing() {
    let (mut p, base, source, replica) = replication_world();
    p.mirror(base, "robot:src", replica, 1, 1);
    p.pump(6 * SEC);
    assert!(p.node(source).receiver.is_installed("ext/replication"));

    // Draw a square on the source via remote calls.
    for (x0, y0, x1, y1) in [(0, 0, 10, 0), (10, 0, 10, 10), (10, 10, 0, 10), (0, 10, 0, 0)] {
        p.rpc(
            base,
            source,
            "operator:1",
            "DrawingService",
            "drawLine",
            vec![x0, y0, x1, y1],
        );
        p.pump(SEC);
    }
    p.pump(3 * SEC);

    let src_canvas = p.node(source).canvas().unwrap();
    let mirror_canvas = p.node(replica).canvas().unwrap();
    assert_eq!(src_canvas.len(), 4, "source drew the square");
    assert_eq!(
        mirror_canvas, src_canvas,
        "the replica reproduced it stroke for stroke"
    );
}

#[test]
fn scaled_replication_amplifies_the_drawing() {
    let (mut p, base, source, replica) = replication_world();
    p.mirror(base, "robot:src", replica, 3, 1);
    p.pump(6 * SEC);

    p.rpc(
        base,
        source,
        "operator:1",
        "DrawingService",
        "drawLine",
        vec![0, 0, 10, 0],
    );
    p.pump(4 * SEC);

    let src = p.node(source).canvas().unwrap();
    let mirror = p.node(replica).canvas().unwrap();
    assert_eq!(
        mirror,
        src.scaled(3, 1),
        "replica at 3× scale (paper: replication at a different scale)"
    );
    assert_eq!(mirror.strokes()[0].to, (30, 0));
}

#[test]
fn scaling_a_radio_supplied_movement_saturates_instead_of_overflowing() {
    let (mut p, base, source, replica) = replication_world();
    p.mirror(base, "robot:src", replica, 2, 1);
    p.pump(6 * SEC);
    assert!(p.node(source).receiver.is_installed("ext/replication"));

    // A record whose argument doubles past `i64::MAX`, as any sender on
    // the radio could post it.
    let record = pmp::store::MovementRecord {
        robot: "robot:src".into(),
        device: "motor:A".into(),
        command: "Motor.rotate".into(),
        args: vec![i64::MAX],
        issued_at: 1,
        duration_ns: 0,
    };
    p.node(source)
        .wiring
        .outbox
        .lock()
        .push(pmp::core::AppMsg::Replicate {
            record: record.clone(),
        });
    p.pump(SEC);

    assert!(p.base(base).store.by_robot("robot:src").contains(&record));
    let mirror = p.node(replica).robot.as_ref().unwrap();
    assert_eq!(
        mirror.lock().rcx.motor(pmp::robot::Port::A).position(),
        i64::MAX
    );
}

#[test]
fn replay_from_the_hall_database_reproduces_the_figure() {
    // Draw in the standard world, then replay the log onto a fresh
    // robot and compare drawings (paper §4.5 "Simulation").
    let mut w = ProductionHalls::build(31);
    w.platform.pump(6 * SEC);
    for (x0, y0, x1, y1) in [(0, 0, 12, 0), (12, 0, 12, 8)] {
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
    let original = w.platform.node(w.robot).canvas().unwrap();
    assert!(original.len() >= 2);

    // Stand up an offline replica robot and replay the log.
    let mut vm = pmp::vm::Vm::new(pmp::vm::VmConfig::default());
    let handle = pmp::robot::new_handle();
    pmp::robot::register_robot_classes(&mut vm, &handle).unwrap();
    let mut motors = BTreeMap::new();
    for port in pmp::robot::Port::MOTORS {
        motors.insert(
            format!("motor:{port}"),
            pmp::robot::spawn_motor(&mut vm, port).unwrap(),
        );
    }
    let store = &w.platform.base(w.base_a).store;
    let steps = extensions::replay::plan(store, "robot:1:1");
    assert!(!steps.is_empty(), "the database has the movement log");
    extensions::replay::apply_plan(&mut vm, &motors, &steps).unwrap();

    assert_eq!(
        handle.lock().canvas(),
        &original,
        "replay reproduced the exact drawing"
    );
}

#[test]
fn policy_evolution_replaces_extensions_on_live_robots() {
    let mut w = ProductionHalls::build(37);
    w.platform.pump(6 * SEC);
    assert!(w.platform.node(w.robot).receiver.is_installed("ext/monitoring"));

    // Draw once: movements logged.
    w.platform.rpc(
        w.base_a,
        w.robot,
        "operator:1",
        "DrawingService",
        "drawLine",
        vec![0, 0, 5, 0],
    );
    w.platform.pump(2 * SEC);
    let logged_before = w.platform.base(w.base_a).store.len();
    assert!(logged_before > 0);

    // The hall now wants access control to also allow operator:3 —
    // publish v2 of the access-control extension to the live robot.
    let v2 = extensions::access_control::package(
        "* DrawingService.*(..)",
        &["operator:3"],
        2,
    );
    w.platform.publish_extension(w.base_a, &v2);
    w.platform.pump(3 * SEC);

    // operator:1 is no longer allowed; operator:3 now is.
    let old = w.platform.rpc(
        w.base_a,
        w.robot,
        "operator:1",
        "DrawingService",
        "moveTo",
        vec![1, 1],
    );
    let new = w.platform.rpc(
        w.base_a,
        w.robot,
        "operator:3",
        "DrawingService",
        "moveTo",
        vec![2, 2],
    );
    w.platform.pump(2 * SEC);
    let outcomes = w.platform.take_rpc_outcomes();
    assert!(!outcomes.iter().find(|o| o.req == old).unwrap().ok);
    assert!(outcomes.iter().find(|o| o.req == new).unwrap().ok);
}
