//! End-to-end tracing tests: one MIDAS publish on a three-hall world
//! reconstructs as a single causal span tree (publish → sign → ship →
//! verify → weave → first interception), byte-identically across the
//! serial and parallel execution drivers, with the flight recorder
//! surviving a base crash and riding along in `.repro` artifacts.

use pmp::chaos::script::{CatalogEntry, ExtKind, Op, Scenario, Step, Topology};
use pmp::chaos::{exec, repro, DriverKind};
use pmp::core::{BaseId, MobId, ParallelDriver, Platform, SerialDriver};
use pmp::net::{LinkModel, Position};
use pmp::trace::{FlightEntry, SpanRecord};
use pmp::vm::perm::{Permission, Permissions};
use std::collections::BTreeMap;

const SEC: u64 = 1_000_000_000;

/// Three halls 150 m apart, one base each (80 m radios, wired
/// backhaul), one robot parked in each hall — the chaos executor's
/// world shape, built directly so the tests can reach the collector.
fn three_halls(seed: u64, loss: f64, parallel: bool) -> (Platform, Vec<BaseId>, Vec<MobId>) {
    let link = if loss == 0.0 {
        LinkModel::ideal()
    } else {
        LinkModel::lossy(loss)
    };
    let mut p = Platform::with_link(seed, link);
    if parallel {
        p.set_driver(Box::new(ParallelDriver { threads: 3 }));
    } else {
        p.set_driver(Box::new(SerialDriver));
    }
    p.set_tracing(true);

    let mut bases = Vec::new();
    for i in 0..3usize {
        let x0 = i as f64 * 150.0;
        p.add_area(
            &format!("hall-{i}"),
            Position::new(x0, 0.0),
            Position::new(x0 + 60.0, 60.0),
        );
        bases.push(p.add_base(&format!("hall-{i}"), Position::new(x0 + 30.0, 30.0), 80.0));
    }
    for w in 1..bases.len() {
        p.link_bases(bases[w - 1], bases[w]);
    }

    let mut nodes = Vec::new();
    for k in 0..3usize {
        let cap = Permissions::none()
            .with(Permission::Print)
            .with(Permission::Net)
            .with(Permission::Time)
            .with(Permission::Store);
        let policy = p.trusting_policy(&bases, cap);
        let x0 = k as f64 * 150.0;
        let m = p
            .add_robot(
                &format!("robot:{}:1", k + 1),
                Position::new(x0 + 25.0, 25.0),
                80.0,
                policy,
            )
            .expect("robot registration");
        nodes.push(m);
    }
    (p, bases, nodes)
}

/// Publishes monitoring from hall 0, lets it install, then fires one
/// RPC so the woven advice actually dispatches.
fn publish_and_intercept(p: &mut Platform, bases: &[BaseId], nodes: &[MobId]) {
    p.publish_extension(bases[0], &ExtKind::Monitoring.package(1));
    p.pump(6 * SEC);
    p.rpc(
        bases[0],
        nodes[0],
        "operator:1",
        "DrawingService",
        "moveTo",
        vec![7, 3],
    );
    p.pump(2 * SEC);
}

/// The retained trace whose root is the `midas.publish` span.
fn publish_trace_id(p: &mut Platform) -> u64 {
    let c = p.collector();
    c.trace_ids()
        .into_iter()
        .find(|&id| c.spans_of(id).iter().any(|s| s.name == "midas.publish"))
        .expect("a publish trace was collected")
}

#[test]
fn one_publish_reconstructs_as_one_span_tree() {
    let (mut p, bases, nodes) = three_halls(11, 0.0, false);
    publish_and_intercept(&mut p, &bases, &nodes);

    let id = publish_trace_id(&mut p);
    let spans = p.collector().spans_of(id);

    // The whole adaptation chain landed in one trace.
    for name in [
        "midas.publish",
        "midas.sign",
        "midas.ship",
        "midas.verify",
        "midas.weave",
        "midas.intercept",
    ] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "{name} missing from trace: {spans:#?}"
        );
    }

    // It is a single tree: exactly one root, every other span's parent
    // resolves within the trace.
    let roots: Vec<_> = spans.iter().filter(|s| s.parent_id == 0).collect();
    assert_eq!(roots.len(), 1, "one root: {roots:?}");
    assert_eq!(roots[0].name, "midas.publish");
    for s in &spans {
        assert!(
            s.parent_id == 0 || spans.iter().any(|q| q.span_id == s.parent_id),
            "orphan span {s:?}"
        );
    }

    // Publisher and receiver are different nodes — the tree really
    // crossed the wire.
    let publish_node = roots[0].node;
    let verify = spans.iter().find(|s| s.name == "midas.verify").unwrap();
    assert_ne!(verify.node, publish_node, "verify ran on the receiver");

    // Rendered artifacts name the chain.
    let tree = p.render_trace(id);
    let path = p.render_critical_path(id);
    for name in ["midas.publish", "midas.verify", "midas.intercept"] {
        assert!(tree.contains(name), "tree misses {name}:\n{tree}");
    }
    assert!(path.contains("midas.publish"), "{path}");
    assert!(path.contains("total:"), "{path}");
}

/// Each node keeps exactly one flight ring, filled at the barrier: it
/// holds every span the collector holds for that node, in the order the
/// node minted them (span ids carry a per-node sequence) — on bases and
/// mobiles alike.
#[test]
fn each_flight_ring_holds_its_nodes_spans_in_mint_order() {
    let (mut p, bases, nodes) = three_halls(11, 0.0, false);
    publish_and_intercept(&mut p, &bases, &nodes);

    let mut minted: BTreeMap<u32, Vec<SpanRecord>> = BTreeMap::new();
    let collector = p.collector();
    for id in collector.trace_ids() {
        for s in collector.spans_of(id) {
            minted.entry(s.node).or_default().push(s);
        }
    }
    for spans in minted.values_mut() {
        spans.sort_by_key(|s| s.span_id);
    }

    let (base, mobile) = (p.base(bases[0]).node.0, p.node(nodes[0]).node.0);
    for (node, entries) in p.flight_dump() {
        let ring: Vec<SpanRecord> = entries.into_iter().map(|FlightEntry::Span(s)| s).collect();
        if node == base || node == mobile {
            assert!(!ring.is_empty(), "node {node} recorded spans");
        }
        assert_eq!(
            ring,
            minted.remove(&node).unwrap_or_default(),
            "node {node}: flight ring vs collector"
        );
    }
    assert!(
        minted.is_empty(),
        "spans of nodes without a ring: {minted:?}"
    );
}

/// One full run's deterministic artifacts: span digest plus the
/// rendered critical path of the publish trace.
fn run_artifacts(seed: u64, loss: f64, parallel: bool) -> (u64, String) {
    let (mut p, bases, nodes) = three_halls(seed, loss, parallel);
    publish_and_intercept(&mut p, &bases, &nodes);
    let id = publish_trace_id(&mut p);
    let path = p.render_critical_path(id);
    (p.span_digest(), path)
}

#[test]
fn serial_and_parallel_drivers_trace_identically() {
    let (ds, ps) = run_artifacts(21, 0.0, false);
    let (dp, pp) = run_artifacts(21, 0.0, true);
    assert_eq!(ds, dp, "span digest diverged across drivers");
    assert_eq!(ps, pp, "critical path diverged across drivers:\n{ps}\nvs\n{pp}");
}

#[test]
fn drivers_trace_identically_under_twenty_percent_loss() {
    let (ds, ps) = run_artifacts(33, 0.2, false);
    let (dp, pp) = run_artifacts(33, 0.2, true);
    assert_eq!(ds, dp, "lossy span digest diverged across drivers");
    assert_eq!(ps, pp, "lossy critical path diverged:\n{ps}\nvs\n{pp}");
}

/// The network trace digest of one publish-and-intercept run, with
/// every delivery logged into it.
fn air_digest(seed: u64, loss: f64, tracing: bool) -> u64 {
    let (mut p, bases, nodes) = three_halls(seed, loss, false);
    p.set_tracing(tracing);
    p.sim.deliveries.set_logging(true);
    publish_and_intercept(&mut p, &bases, &nodes);
    p.trace_digest()
}

#[test]
fn tracing_does_not_change_the_air() {
    for (seed, loss) in [(11, 0.0), (5, 0.2), (7, 0.05)] {
        assert_eq!(
            air_digest(seed, loss, false),
            air_digest(seed, loss, true),
            "seed {seed}, loss {loss}: tracing changed what went on the air"
        );
    }
}

#[test]
fn base_flight_recorder_survives_crash_and_restart() {
    let (mut p, bases, nodes) = three_halls(5, 0.0, false);
    publish_and_intercept(&mut p, &bases, &nodes);

    let before = p.base(bases[0]).flight.digest();
    assert!(
        !p.base(bases[0]).flight.is_empty(),
        "publishing filled the base flight ring"
    );

    p.crash_base(bases[0]);
    let report = p.restart_base(bases[0]);
    assert!(report.is_clean(), "unfaulted recovery is clean: {report:?}");
    assert_eq!(
        p.base(bases[0]).flight.digest(),
        before,
        "WAL replay reproduced the flight ring"
    );
}

/// The three-hall chaos scenario the acceptance criteria name: hall-0
/// catalogues monitoring, one mid-run publish, one RPC to dispatch it.
fn chaos_scenario(loss_per_mille: u16) -> Scenario {
    Scenario {
        seed: 42,
        topology: Topology {
            halls: 3,
            loss_per_mille,
            robots: 3,
            catalogs: vec![
                vec![CatalogEntry {
                    kind: ExtKind::Monitoring,
                    version: 1,
                }],
                Vec::new(),
                Vec::new(),
            ],
            lease_ms: 3_000,
            link_neighbors: true,
        },
        steps: vec![
            Step {
                at_ms: 500,
                op: Op::Publish {
                    base: 1,
                    kind: ExtKind::Session,
                    version: 1,
                },
            },
            Step {
                at_ms: 4_000,
                op: Op::Rpc {
                    base: 0,
                    node: 0,
                    x: 9,
                    y: 4,
                },
            },
        ],
        settle_ms: 4_000,
    }
}

#[test]
fn chaos_cross_driver_span_digests_agree() {
    for loss in [0u16, 200] {
        let cross = exec::run_cross(&chaos_scenario(loss));
        assert!(
            cross.violations.is_empty(),
            "loss={loss}‰: {:?}",
            cross.violations
        );
        assert_eq!(
            cross.serial.span_digest, cross.parallel.span_digest,
            "loss={loss}‰: span digest diverged"
        );
        assert_eq!(
            cross.serial.flight, cross.parallel.flight,
            "loss={loss}‰: flight dumps diverged"
        );
    }
}

#[test]
fn chaos_repro_carries_the_flight_dump() {
    let sc = chaos_scenario(0);
    let run = exec::run(&sc, DriverKind::Serial);
    assert!(
        run.flight.iter().any(|(_, entries)| !entries.is_empty()),
        "the run recorded flight entries"
    );
    let bytes = repro::save(&sc, &run.flight);
    let (sc2, flight2) = repro::load_full(&bytes).unwrap();
    assert_eq!(sc2, sc);
    assert_eq!(flight2, run.flight);
}
