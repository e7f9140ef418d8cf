//! The plotter prototype with the hardware-monitoring extension
//! (paper Fig. 3b–Fig. 6): every movement is intercepted, streamed to
//! the base-station database, and then used for replay and remote
//! replication at a different scale.
//!
//! ```bash
//! cargo run --example plotter_monitoring
//! ```

use pmp::core::Platform;
use pmp::extensions;
use pmp::net::Position;
use pmp::vm::prelude::{Permission, Permissions};
use std::collections::BTreeMap;

const SEC: u64 = 1_000_000_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut p = Platform::new(4);
    p.add_area("hall-a", Position::new(0.0, 0.0), Position::new(60.0, 60.0));
    let base = p.add_base("hall-a", Position::new(30.0, 30.0), 80.0);

    // The hall distributes replication (a monitoring variant that also
    // feeds replicas).
    let pkg = extensions::replication::package(1);
    let sealed = p.base(base).seal(&pkg);
    p.base_mut(base).base.catalog.put(sealed);

    let cap = Permissions::none().with(Permission::Net);
    let policy = p.trusting_policy(&[base], cap);
    let plotter = p.add_robot("robot:1:1", Position::new(35.0, 30.0), 80.0, policy.clone())?;
    // An identical robot mirrors the work at double scale (§4.5).
    let replica = p.add_robot("robot:mirror", Position::new(25.0, 30.0), 80.0, policy)?;
    p.mirror(base, "robot:1:1", replica, 2, 1);

    p.pump(6 * SEC);
    println!(
        "robot adapted with {:?}",
        p.node(plotter).receiver.installed_ids()
    );

    // Draw a little house remotely.
    let house = [
        (0, 0, 20, 0),
        (20, 0, 20, 15),
        (20, 15, 0, 15),
        (0, 15, 0, 0),
        (0, 15, 10, 22),
        (10, 22, 20, 15),
    ];
    for (x0, y0, x1, y1) in house {
        p.rpc(base, plotter, "operator:1", "DrawingService", "drawLine", vec![x0, y0, x1, y1]);
        p.pump(SEC / 2);
    }
    p.pump(3 * SEC);

    let original = p.node(plotter).canvas().unwrap();
    let mirrored = p.node(replica).canvas().unwrap();
    println!("original drew {} strokes; replica {} strokes at 2x scale", original.len(), mirrored.len());
    assert_eq!(mirrored, original.scaled(2, 1));
    println!("replica canvas == original scaled by 2 ✓");

    // The hall database (Fig. 6's left panel).
    let store = &p.base(base).store;
    println!("\nhall database: {} movement records for {:?}", store.len(), store.robots());
    for r in store.by_robot("robot:1:1").iter().take(6) {
        println!("  {} {} {:?} at t={}ns (took {}ns)", r.device, r.command, r.args, r.issued_at, r.duration_ns);
    }
    println!("  ...");

    // Replay onto a fresh, offline robot (Fig. 6's "Simulation").
    let mut vm = pmp::vm::Vm::new(pmp::vm::VmConfig::default());
    let handle = pmp::robot::new_handle();
    pmp::robot::register_robot_classes(&mut vm, &handle)?;
    let mut motors = BTreeMap::new();
    for port in pmp::robot::Port::MOTORS {
        motors.insert(format!("motor:{port}"), pmp::robot::spawn_motor(&mut vm, port)?);
    }
    let steps = extensions::replay::plan(store, "robot:1:1");
    let applied = extensions::replay::apply_plan(&mut vm, &motors, &steps)?;
    println!("\nreplayed {applied} commands onto an offline robot");
    assert_eq!(handle.lock().canvas(), &original);
    println!("replayed canvas == original ✓");
    Ok(())
}
