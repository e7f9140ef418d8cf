//! # pmp-net — a deterministic discrete-event wireless-network simulator
//!
//! The paper's platform ran on iPAQ PDAs and robots over a wireless LAN;
//! this crate replaces that testbed with a reproducible simulation:
//! nodes with positions and radio ranges, rectangular areas (the
//! production halls), waypoint mobility, a latency/jitter/loss link
//! model, partitions, and one-shot timers — all driven by a virtual
//! clock and a seeded RNG, so every run is exactly repeatable.
//!
//! Protocol logic (discovery, MIDAS) lives in higher crates: they send
//! messages and set timers here, and a driver loop steps the simulator
//! and dispatches each node's inbox.
//!
//! # Examples
//!
//! ```
//! use pmp_net::prelude::*;
//!
//! let mut sim = Simulator::new(1);
//! let hall = sim.add_area("hall-a", Position::new(0.0, 0.0), Position::new(50.0, 50.0));
//! let base = sim.add_node("base", Position::new(25.0, 25.0), 40.0);
//! let robot = sim.add_node("robot", Position::new(30.0, 25.0), 40.0);
//! assert_eq!(sim.node_area(robot), Some(hall));
//!
//! sim.send(base, robot, "midas", b"extension bytes".to_vec());
//! sim.run_for(10_000_000); // 10 ms
//! assert_eq!(sim.drain_inbox(robot).len(), 1);
//! ```

pub mod clock;
pub mod delivery;
pub mod geo;
pub mod link;
pub mod node;
pub mod port;
pub mod sim;

pub use clock::{ClockHandle, SimTime};
pub use delivery::{Delivery, DeliveryLog, NetStats};
pub use geo::{Area, AreaId, Position};
pub use link::LinkModel;
pub use node::{Incoming, NodeId, SimNode};
pub use port::{NetCmd, NetPort, PortBuf};
pub use sim::{Epoch, Simulator, TimedIncoming};

/// Common imports for simulator users.
pub mod prelude {
    pub use crate::clock::{ClockHandle, SimTime};
    pub use crate::delivery::NetStats;
    pub use crate::geo::{Area, AreaId, Position};
    pub use crate::link::LinkModel;
    pub use crate::node::{Incoming, NodeId};
    pub use crate::port::{NetCmd, NetPort, PortBuf};
    pub use crate::sim::{Epoch, Simulator, TimedIncoming};
}
