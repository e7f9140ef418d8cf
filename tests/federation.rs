//! The federated base fabric through the full platform: directory-tier
//! lookups over a registrar tree, re-delivery-free roaming between
//! replicated halls, federation topology and base settings surviving a
//! base restart, and the anti-entropy exchange healing routes and lease
//! views after a restart or a partition.

use pmp::core::scenario::{ProductionHalls, IN_HALL_A, IN_HALL_B};
use pmp::core::{BaseId, Platform};
use pmp::discovery::{DiscoveryEvent, ServiceItem, ServiceQuery};
use pmp::net::Position;
use pmp::vm::perm::{Permission, Permissions};

const SEC: u64 = 1_000_000_000;
const MS: u64 = 1_000_000;
/// A second spot in hall A, near the first robot.
const IN_HALL_A_EAST: Position = Position { x: 40.0, y: 30.0 };

/// 16 bases in a 4-ary registrar tree: a lookup entered at the deepest
/// leftmost leaf finds a service registered at the deepest rightmost
/// leaf by routing over tree edges — several registrar hops, no flat
/// broadcast, no radio reachability between the two.
#[test]
fn fed_lookup_routes_through_the_directory_tier() {
    let bases = 16usize;
    let mut p = Platform::new(4242);
    p.add_area("fab", Position::new(0.0, 0.0), Position::new(500.0, 500.0));
    for i in 0..bases {
        let x = ((i % 4) * 100 + 50) as f64;
        let y = ((i / 4) * 100 + 50) as f64;
        // 4 m radios: no two bases can hear each other over the air.
        p.add_base("fab", Position::new(x, y), 4.0);
    }
    p.federate_tree(4);

    let target = BaseId(bases - 1);
    let provider = p.base(target).node;
    p.register_service(
        target,
        ServiceItem::new("print", "laser", provider.0),
        3_600 * SEC,
    );
    p.pump(3 * SEC); // registration + route exchange up the tree

    let origin = BaseId(5); // deepest leftmost leaf of a 16-node 4-ary tree
    let req = p.fed_lookup(origin, ServiceQuery::of_type("print"));
    p.pump(2 * SEC);

    let done = p
        .take_discoveries(origin)
        .into_iter()
        .find_map(|e| match e {
            DiscoveryEvent::FedLookupDone { req: r, items, hops } if r == req => {
                Some((items, hops))
            }
            _ => None,
        })
        .expect("federated lookup must complete");
    let (items, hops) = done;
    assert_eq!(items.len(), 1, "exactly the one registered service");
    assert_eq!(items[0].service_type, "print");
    assert_eq!(items[0].name, "laser");
    assert!(
        hops >= 2,
        "leaf-to-leaf routing must cross the tree (got {hops} hops)"
    );
}

/// Fully federated production halls: the robot works in hall A, roams
/// to hall B, and hall B takes over every lease by rebinding grants in
/// place — zero re-`Deliver` messages for the roamed set — while the
/// robot's movement history follows over the backhaul.
#[test]
fn federated_roam_migrates_grants_and_history_without_redelivery() {
    let mut w = ProductionHalls::build(77);
    w.platform.federate_bases(w.base_a, w.base_b);
    // Adapt, and let anti-entropy converge the two catalogs.
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

    let installed = w.platform.node(w.robot).receiver.installed_ids();
    assert!(
        installed.len() >= 4,
        "converged catalogs adapt the robot with both halls' extensions: {installed:?}"
    );
    let history_at_a = w.platform.base(w.base_a).store.by_robot("robot:1:1").len();
    assert!(history_at_a > 0, "strokes logged movement records at A");

    let tel = w.platform.telemetry().clone();
    let delivered0 = tel.counter_value("midas.base.delivered");
    let migrated0 = tel.counter_value("midas.base.migrated");

    w.platform.move_node(w.robot, IN_HALL_B);
    w.platform.pump(20 * SEC);

    let b_node = w.platform.base(w.base_b).node;
    let node = w.platform.node(w.robot);
    let ids = node.receiver.installed_ids();
    assert_eq!(ids, installed, "the roamed set is unchanged");
    for id in &ids {
        assert_eq!(
            node.receiver.lease_holder(id),
            Some(b_node),
            "{id} must be leased by hall B after the roam"
        );
    }
    assert_eq!(
        tel.counter_value("midas.base.delivered") - delivered0,
        0,
        "zero re-Deliver messages for the roamed set"
    );
    assert_eq!(
        tel.counter_value("midas.base.migrated") - migrated0,
        installed.len() as u64,
        "every grant was rebound in place"
    );
    assert_eq!(
        w.platform.base(w.base_b).store.by_robot("robot:1:1").len(),
        history_at_a,
        "the movement history migrated to the adopting hall"
    );
}

/// Federation topology and base settings are configuration: hall B
/// restarts in place, keeping its neighbour links, replica links,
/// directory parent, lease, scan interval and roam cap, so a robot
/// roaming into the rebooted hall is still adopted without re-delivery
/// under B's own lease, and federated lookups entered there still
/// resolve — through B's one discovery client, whose counters reach
/// the platform telemetry.
#[test]
fn federation_topology_survives_base_restart() {
    let mut w = ProductionHalls::build(31);
    w.platform.federate_bases(w.base_a, w.base_b);
    w.platform.set_directory_parent(w.base_b, w.base_a);
    let b = &mut w.platform.base_mut(w.base_b).base;
    b.set_lease(2_500 * MS);
    b.set_scan_interval(500 * MS);
    b.set_roam_cap(16);
    w.platform.pump(10 * SEC);

    let provider = w.platform.base(w.base_a).node;
    w.platform.register_service(
        w.base_a,
        ServiceItem::new("paint", "sprayer", provider.0),
        3_600 * SEC,
    );
    w.platform.pump(2 * SEC);

    w.platform.crash_base(w.base_b);
    w.platform.pump(SEC);
    let report = w.platform.restart_base(w.base_b);
    assert!(report.replayed > 0 || report.snapshot_seq.is_some());
    w.platform.pump(5 * SEC);

    // The rebooted hall still adopts a roamer without re-delivery...
    let installed = w.platform.node(w.robot).receiver.installed_ids();
    let tel = w.platform.telemetry().clone();
    let delivered0 = tel.counter_value("midas.base.delivered");
    w.platform.move_node(w.robot, IN_HALL_B);
    w.platform.pump(20 * SEC);
    let b_node = w.platform.base(w.base_b).node;
    let node = w.platform.node(w.robot);
    for id in &installed {
        assert_eq!(
            node.receiver.lease_holder(id),
            Some(b_node),
            "{id} must be leased by the rebooted hall B"
        );
    }
    assert_eq!(
        tel.counter_value("midas.base.delivered") - delivered0,
        0,
        "adoption after the restart is still re-delivery-free"
    );
    // ...under the 2.5-s lease B was configured with before the crash.
    let now = w.platform.now().0;
    for (id, deadline) in node.receiver.lease_deadlines() {
        assert!(
            deadline <= now + 2_500 * MS,
            "{id}: lease ends {} ms from now, past hall B's 2.5-s lease",
            (deadline - now) / MS
        );
    }

    // ...and its directory parent came back: a federated lookup entered
    // at B routes up to A and finds the service.
    let req = w.platform.fed_lookup(w.base_b, ServiceQuery::of_type("paint"));
    w.platform.pump(2 * SEC);
    let found = w.platform.take_discoveries(w.base_b);
    assert_eq!(
        found.len(),
        1,
        "only the lookup's answer comes back: {found:?}"
    );
    assert!(
        matches!(&found[0], DiscoveryEvent::FedLookupDone { req: r, items, .. }
            if *r == req && items.len() == 1),
        "directory tier must survive the restart: {found:?}"
    );
    // One discovery client per base, counting into the platform
    // telemetry: the lookup is seen leaving and coming back once, and
    // no scan reply is counted twice.
    let tel = w.platform.telemetry();
    assert_eq!(tel.counter_value("discovery.client.fed_lookups_sent"), 1);
    assert_eq!(
        tel.counter_value("discovery.client.fed_lookup_roundtrips"),
        1
    );
    assert!(
        tel.counter_value("discovery.client.lookup_roundtrips")
            <= tel.counter_value("discovery.client.lookups_sent")
    );

    // Move home again so the world ends quiescent (and the reverse
    // handoff also works against the restarted topology).
    w.platform.move_node(w.robot, IN_HALL_A);
    w.platform.pump(20 * SEC);
    let a_node = w.platform.base(w.base_a).node;
    let node = w.platform.node(w.robot);
    for id in &installed {
        assert_eq!(node.receiver.lease_holder(id), Some(a_node));
    }
}

/// A restarted registrar relearns the routes its children hold: root
/// A has children B and C, a `print` service lives at B, and after A
/// crashes and restarts a lookup entered at C still routes down
/// through A to B — because B's next route digest mismatches A's empty
/// view, A pulls, and B pushes its types again.
#[test]
fn a_restarted_registrar_relearns_its_childrens_routes() {
    let mut p = Platform::new(2603);
    p.add_area("fab", Position::new(0.0, 0.0), Position::new(400.0, 100.0));
    let bases: Vec<BaseId> = [50.0, 200.0, 350.0]
        .iter()
        .map(|&x| p.add_base("fab", Position::new(x, 50.0), 4.0))
        .collect();
    let (a, b, c) = (bases[0], bases[1], bases[2]);
    p.set_directory_parent(b, a);
    p.set_directory_parent(c, a);
    let provider = p.base(b).node;
    p.register_service(b, ServiceItem::new("print", "laser", provider.0), 3_600 * SEC);
    p.pump(3 * SEC);

    let lookup = |p: &mut Platform| {
        let req = p.fed_lookup(c, ServiceQuery::of_type("print"));
        p.pump(SEC);
        p.take_discoveries(c)
            .into_iter()
            .find_map(|e| match e {
                DiscoveryEvent::FedLookupDone { req: r, items, .. } if r == req => {
                    Some(items.len())
                }
                _ => None,
            })
            .expect("the lookup is answered")
    };
    assert_eq!(lookup(&mut p), 1, "found before the restart");

    p.crash_base(a);
    p.pump(SEC);
    p.restart_base(a);
    p.pump(SEC);
    assert_eq!(
        lookup(&mut p),
        1,
        "within 2 s of the restart the root routes down to B again"
    );
}

/// A lease table written while the backhaul was cut reaches the
/// replica after the heal: robot:1:2 adapts in hall A while the A–B
/// link is partitioned, and within three scan periods of the heal hall
/// B shadows it in its roaming cache, because A's next digest
/// mismatches B's view and B pulls the difference.
#[test]
fn a_partitioned_replica_heals_its_lease_view() {
    let mut w = ProductionHalls::build(2604);
    let (a, b) = (w.base_a, w.base_b);
    w.platform.federate_bases(a, b);
    w.platform.pump(10 * SEC);

    let (na, nb) = (w.platform.base(a).node, w.platform.base(b).node);
    w.platform.sim.partition(na, nb);
    let policy = w.platform.trusting_policy(
        &[a, b],
        Permissions::none()
            .with(Permission::Print)
            .with(Permission::Net)
            .with(Permission::Time)
            .with(Permission::Store),
    );
    let robot = w
        .platform
        .add_robot("robot:1:2", IN_HALL_A_EAST, 80.0, policy)
        .expect("robot construction");
    w.platform.pump(5 * SEC);
    assert!(
        !w.platform.node(robot).receiver.installed_ids().is_empty(),
        "robot:1:2 adapted in hall A during the partition"
    );
    assert!(!w.platform.base(b).base.roaming_cache.contains_key("robot:1:2"));

    w.platform.sim.heal(na, nb);
    w.platform.pump(3 * SEC);
    let shadow = w
        .platform
        .base(b)
        .base
        .roaming_cache
        .get("robot:1:2")
        .expect("hall B shadows robot:1:2 within three scans of the heal");
    assert_eq!(shadow.from, na.0);
    assert_eq!(
        w.platform.base(b).base.replica_view_digest(na),
        w.platform.base(a).base.replica_digest(),
        "B's view of A's catalog and lease table equals A's own"
    );
}
