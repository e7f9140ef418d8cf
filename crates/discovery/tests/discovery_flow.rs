//! End-to-end discovery tests over the simulated wireless network.

use pmp_discovery::{DiscoveryClient, DiscoveryEvent, Registrar, ServiceItem, ServiceQuery};
use pmp_net::prelude::*;
use pmp_telemetry::{Shared, Sink};

struct World {
    sim: Simulator,
    base: NodeId,
    registrar: Registrar,
    robot: NodeId,
    client: DiscoveryClient,
    /// The registrar's telemetry.
    telemetry: Shared,
}

fn world() -> World {
    let mut sim = Simulator::new(42);
    sim.add_area("hall-a", Position::new(0.0, 0.0), Position::new(50.0, 50.0));
    let base = sim.add_node("base", Position::new(25.0, 25.0), 60.0);
    let robot = sim.add_node("robot", Position::new(30.0, 25.0), 60.0);
    let mut registrar = Registrar::new(base, "lookup:hall-a");
    let telemetry = Shared::new();
    registrar.attach_sink(Sink::direct(&telemetry));
    let mut client = DiscoveryClient::new(robot);
    registrar.start(&mut sim);
    client.start(&mut sim);
    World {
        sim,
        base,
        registrar,
        robot,
        client,
        telemetry,
    }
}

/// Pumps the simulation for `ns`, dispatching inboxes; returns all
/// client events.
fn pump(w: &mut World, ns: u64) -> Vec<DiscoveryEvent> {
    let mut events = Vec::new();
    let until = w.sim.now().plus(ns);
    loop {
        match w.sim.peek_next() {
            Some(t) if t <= until => {
                w.sim.step();
            }
            _ => break,
        }
        for inc in w.sim.drain_inbox(w.base) {
            w.registrar.handle(&mut w.sim, &inc);
        }
        for inc in w.sim.drain_inbox(w.robot) {
            events.extend(w.client.handle(&mut w.sim, &inc));
        }
    }
    events
}

#[test]
fn client_discovers_registrar_via_announce() {
    let mut w = world();
    let events = pump(&mut w, 2_000_000_000);
    assert!(events.iter().any(|e| matches!(
        e,
        DiscoveryEvent::RegistrarDiscovered { name, .. } if name == "lookup:hall-a"
    )));
    // Only one discovery event despite repeated announcements.
    let count = events
        .iter()
        .filter(|e| matches!(e, DiscoveryEvent::RegistrarDiscovered { .. }))
        .count();
    assert_eq!(count, 1);
}

#[test]
fn register_lookup_and_cancel() {
    let mut w = world();
    pump(&mut w, 1_000_000_000);
    let item = ServiceItem::new("midas.adaptation", "robot:1:1", w.robot.0).with_attr("vm", "pmp");
    let req = w
        .client
        .register(&mut w.sim, w.base, item, 5_000_000_000);
    let events = pump(&mut w, 500_000_000);
    let service = events
        .iter()
        .find_map(|e| match e {
            DiscoveryEvent::Registered {
                req: r, service, ..
            } if *r == req => Some(*service),
            _ => None,
        })
        .expect("registered");
    assert_eq!(w.registrar.service_count(), 1);
    assert_eq!(
        w.telemetry
            .counter_value("discovery.registrar.registrations"),
        1
    );

    // Lookup from the same client.
    let lreq = w.client.lookup(
        &mut w.sim,
        w.base,
        ServiceQuery::of_type("midas.adaptation"),
    );
    let events = pump(&mut w, 500_000_000);
    let items = events
        .iter()
        .find_map(|e| match e {
            DiscoveryEvent::LookupDone { req, items } if *req == lreq => Some(items.clone()),
            _ => None,
        })
        .expect("lookup result");
    assert_eq!(items.len(), 1);
    assert_eq!(items[0].name, "robot:1:1");
    assert_eq!(items[0].attrs.get("vm").map(String::as_str), Some("pmp"));

    // Cancel removes it.
    w.client.cancel(&mut w.sim, service);
    pump(&mut w, 500_000_000);
    assert_eq!(w.registrar.service_count(), 0);
}

#[test]
fn lease_is_kept_alive_by_renewals() {
    let mut w = world();
    pump(&mut w, 500_000_000);
    let item = ServiceItem::new("midas.adaptation", "robot:1:1", w.robot.0);
    // 2 s lease, but we run for 10 s: without renewals it would lapse.
    w.client.register(&mut w.sim, w.base, item, 2_000_000_000);
    pump(&mut w, 10_000_000_000);
    assert_eq!(w.registrar.service_count(), 1, "renewals kept it alive");
}

#[test]
fn departure_expires_lease_and_drops_service() {
    let mut w = world();
    pump(&mut w, 500_000_000);
    let item = ServiceItem::new("midas.adaptation", "robot:1:1", w.robot.0);
    w.client.register(&mut w.sim, w.base, item, 2_000_000_000);
    pump(&mut w, 1_000_000_000);
    assert_eq!(w.registrar.service_count(), 1);

    // The robot leaves the hall — renewals stop arriving.
    w.sim.move_node(w.robot, Position::new(500.0, 500.0));
    let events = pump(&mut w, 10_000_000_000);

    assert_eq!(w.registrar.service_count(), 0, "lease lapsed");
    assert_eq!(
        w.telemetry
            .counter_value("discovery.registrar.lease_expiries"),
        1
    );
    // The client also notices: its renewals go unanswered.
    assert!(events
        .iter()
        .any(|e| matches!(e, DiscoveryEvent::RegistrationLost { .. })));
    // And eventually the registrar itself is declared lost.
    assert!(events
        .iter()
        .any(|e| matches!(e, DiscoveryEvent::RegistrarLost { .. })));
}

#[test]
fn queries_filter_by_type_and_attrs() {
    let mut w = world();
    pump(&mut w, 500_000_000);
    w.client.register(
        &mut w.sim,
        w.base,
        ServiceItem::new("midas.adaptation", "robot", w.robot.0).with_attr("hall", "a"),
        5_000_000_000,
    );
    w.client.register(
        &mut w.sim,
        w.base,
        ServiceItem::new("drawing", "plotter", w.robot.0),
        5_000_000_000,
    );
    pump(&mut w, 500_000_000);
    assert_eq!(w.registrar.service_count(), 2);

    let lreq = w
        .client
        .lookup(&mut w.sim, w.base, ServiceQuery::of_type("drawing"));
    let events = pump(&mut w, 500_000_000);
    let items = events
        .iter()
        .find_map(|e| match e {
            DiscoveryEvent::LookupDone { req, items } if *req == lreq => Some(items.clone()),
            _ => None,
        })
        .unwrap();
    assert_eq!(items.len(), 1);
    assert_eq!(items[0].service_type, "drawing");

    let lreq = w.client.lookup(
        &mut w.sim,
        w.base,
        ServiceQuery::default().with_attr("hall", "b"),
    );
    let events = pump(&mut w, 500_000_000);
    let items = events
        .iter()
        .find_map(|e| match e {
            DiscoveryEvent::LookupDone { req, items } if *req == lreq => Some(items.clone()),
            _ => None,
        })
        .unwrap();
    assert!(items.is_empty());
}

/// A three-registrar tree (root over two leaves, 1 km apart, wired
/// backhaul on the tree edges): a robot in leaf A's hall finds a
/// service held by leaf B without any flat broadcast — the query is
/// routed A → root → B and the answer retraces the path.
#[test]
fn fed_lookup_routes_through_the_registrar_tree() {
    let mut sim = Simulator::new(42);
    let root_n = sim.add_node("root", Position::new(500.0, 1000.0), 60.0);
    let leaf_a = sim.add_node("leaf-a", Position::new(0.0, 0.0), 60.0);
    let leaf_b = sim.add_node("leaf-b", Position::new(1000.0, 0.0), 60.0);
    let robot = sim.add_node("robot", Position::new(10.0, 0.0), 60.0);
    let printer = sim.add_node("printer", Position::new(990.0, 0.0), 60.0);
    sim.add_wired_link(root_n, leaf_a);
    sim.add_wired_link(root_n, leaf_b);

    let mut root = Registrar::new(root_n, "lookup:root");
    let mut reg_a = Registrar::new(leaf_a, "lookup:hall-a");
    let mut reg_b = Registrar::new(leaf_b, "lookup:hall-b");
    reg_a.set_parent(root_n);
    reg_b.set_parent(root_n);
    let mut robot_client = DiscoveryClient::new(robot);
    let mut printer_client = DiscoveryClient::new(printer);
    for r in [&mut root, &mut reg_a, &mut reg_b] {
        r.start(&mut sim);
    }
    robot_client.start(&mut sim);
    printer_client.start(&mut sim);
    printer_client.register(
        &mut sim,
        leaf_b,
        ServiceItem::new("print", "laser", printer.0),
        60_000_000_000,
    );

    let mut events = Vec::new();
    let mut asked = false;
    let until = sim.now().plus(6_000_000_000);
    loop {
        match sim.peek_next() {
            Some(t) if t <= until => {
                sim.step();
            }
            _ => break,
        }
        for inc in sim.drain_inbox(root_n) {
            root.handle(&mut sim, &inc);
        }
        for inc in sim.drain_inbox(leaf_a) {
            reg_a.handle(&mut sim, &inc);
        }
        for inc in sim.drain_inbox(leaf_b) {
            reg_b.handle(&mut sim, &inc);
        }
        for inc in sim.drain_inbox(printer) {
            printer_client.handle(&mut sim, &inc);
        }
        for inc in sim.drain_inbox(robot) {
            events.extend(robot_client.handle(&mut sim, &inc));
        }
        // Give registration + route exchange ~2 s to settle, then ask once.
        if !asked && sim.now().0 > 2_000_000_000 {
            asked = true;
            robot_client.fed_lookup(&mut sim, leaf_a, ServiceQuery::of_type("print"));
        }
    }

    let (items, hops) = events
        .iter()
        .find_map(|e| match e {
            DiscoveryEvent::FedLookupDone { items, hops, .. } => Some((items.clone(), *hops)),
            _ => None,
        })
        .expect("federated lookup answered");
    assert_eq!(items.len(), 1);
    assert_eq!(items[0].name, "laser");
    assert_eq!(hops, 2, "leaf-a -> root -> leaf-b");

    // A local federated hit is answered with zero hops.
    robot_client.register(
        &mut sim,
        leaf_a,
        ServiceItem::new("midas.adaptation", "robot", robot.0),
        60_000_000_000,
    );
    let mut events = Vec::new();
    let mut asked = false;
    let until = sim.now().plus(4_000_000_000);
    loop {
        match sim.peek_next() {
            Some(t) if t <= until => {
                sim.step();
            }
            _ => break,
        }
        for inc in sim.drain_inbox(leaf_a) {
            reg_a.handle(&mut sim, &inc);
        }
        for inc in sim.drain_inbox(robot) {
            events.extend(robot_client.handle(&mut sim, &inc));
        }
        if !asked && sim.now().0 > until.0 - 2_000_000_000 {
            asked = true;
            robot_client.fed_lookup(&mut sim, leaf_a, ServiceQuery::of_type("midas.adaptation"));
        }
    }
    assert!(events
        .iter()
        .any(|e| matches!(e, DiscoveryEvent::FedLookupDone { hops: 0, items, .. } if items.len() == 1)));
}

#[test]
fn reentering_range_rediscovers_registrar() {
    let mut w = world();
    pump(&mut w, 1_000_000_000);
    w.sim.move_node(w.robot, Position::new(500.0, 500.0));
    let events = pump(&mut w, 10_000_000_000);
    assert!(events
        .iter()
        .any(|e| matches!(e, DiscoveryEvent::RegistrarLost { .. })));

    w.sim.move_node(w.robot, Position::new(30.0, 25.0));
    let events = pump(&mut w, 3_000_000_000);
    assert!(
        events
            .iter()
            .any(|e| matches!(e, DiscoveryEvent::RegistrarDiscovered { .. })),
        "re-announce after returning"
    );
}
