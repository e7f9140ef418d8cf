//! Roaming handoffs between bases and the orthogonal-persistence
//! extension through the full platform.

use pmp::core::Platform;
use pmp::extensions;
use pmp::net::Position;
use pmp::vm::prelude::*;

const SEC: u64 = 1_000_000_000;

#[test]
fn departing_node_is_handed_off_to_the_neighbour_base() {
    let mut p = Platform::new(83);
    p.add_area("hall-a", Position::new(0.0, 0.0), Position::new(60.0, 60.0));
    p.add_area("hall-b", Position::new(70.0, 0.0), Position::new(130.0, 60.0));
    // Adjacent halls: both bases in radio range of each other.
    let base_a = p.add_base("hall-a", Position::new(30.0, 30.0), 80.0);
    let base_b = p.add_base("hall-b", Position::new(100.0, 30.0), 80.0);
    p.link_bases(base_a, base_b);

    let pkg = extensions::billing::package("* Motor.*(..)", 1, 1);
    let sealed = p.base(base_a).seal(&pkg);
    p.base_mut(base_a).base.catalog.put(sealed);

    let policy = p.trusting_policy(&[base_a, base_b], Permissions::none().with(Permission::Net));
    let dev = p
        .add_device("pda:r", Position::new(35.0, 30.0), 40.0, policy)
        .unwrap();
    p.pump(5 * SEC);
    assert!(p.node(dev).receiver.is_installed("ext/billing"));

    // The device wanders far away; base A notices the departure and
    // hands the roaming record to base B.
    p.move_node(dev, Position::new(500.0, 500.0));
    p.pump(10 * SEC);

    let handoff = p
        .base(base_b)
        .base
        .roaming_cache
        .get("pda:r")
        .expect("base B holds the roaming record");
    assert_eq!(handoff.from, p.base(base_a).node.0);
    assert!(handoff.grants.contains_key("ext/billing"));
    let t = p.telemetry();
    assert_eq!(t.counter_value("midas.base.handoffs_sent"), 1);
    assert_eq!(t.counter_value("midas.base.handoffs_received"), 1);

    // The whole episode is observable in the platform registry: the
    // device's adaptation, the shipped extension, and the expiry of its
    // presence lease after wandering off.
    assert!(t.counter_value("midas.base.delivered") >= 1);
    assert!(t.counter_value("midas.receiver.installed") >= 1);
    assert!(
        t.counter_value("discovery.registrar.lease_expiries") >= 1,
        "departure showed up as a lease expiry"
    );
    println!("{}", p.render_telemetry());
}

#[test]
fn persistence_extension_streams_field_writes_to_the_base() {
    let mut p = Platform::new(84);
    p.add_area("hall", Position::new(0.0, 0.0), Position::new(60.0, 60.0));
    let base = p.add_base("hall", Position::new(30.0, 30.0), 80.0);
    // Persist every write to Counter.value.
    let pkg = extensions::persistence::package("Counter.value", 1);
    let sealed = p.base(base).seal(&pkg);
    p.base_mut(base).base.catalog.put(sealed);

    let cap = Permissions::none().with(Permission::Store).with(Permission::Net);
    let policy = p.trusting_policy(&[base], cap);
    let dev = p
        .add_device("pda:p", Position::new(35.0, 30.0), 80.0, policy)
        .unwrap();

    // The device's own application, registered after the fact — the
    // platform refreshes the weaves so existing aspects cover it.
    {
        let node = p.node_mut(dev);
        node.vm
            .register_class(
                ClassDef::build("Counter")
                    .field("value", TypeSig::Int)
                    .method("set", [TypeSig::Int], TypeSig::Void, |b| {
                        b.op(Op::Load(0)).op(Op::Load(1)).op(Op::PutField {
                            class: "Counter".into(),
                            field: "value".into(),
                        });
                        b.op(Op::Ret);
                    })
                    .done(),
            )
            .unwrap();
    }
    p.pump(5 * SEC);
    assert!(p.node(dev).receiver.is_installed("ext/persistence"));

    // Drive the app locally; writes stream to the base asynchronously.
    {
        let node = p.node_mut(dev);
        let counter = node.vm.new_object("Counter").unwrap();
        for v in [7i64, 8, 9] {
            node.vm
                .call("Counter", "set", counter.clone(), vec![Value::Int(v)])
                .unwrap();
        }
    }
    p.pump(3 * SEC);

    let persisted = &p.base(base).persisted;
    assert_eq!(persisted.len(), 3, "{persisted:?}");
    assert!(persisted
        .iter()
        .all(|(robot, key, _)| robot == "pda:p" && key == "Counter.value"));
    let values: Vec<&str> = persisted.iter().map(|(_, _, v)| v.as_str()).collect();
    assert_eq!(values, ["7", "8", "9"]);
}
