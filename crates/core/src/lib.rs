//! # pmp-core — the proactive middleware platform
//!
//! The facade over the whole reproduction: a [`platform::Platform`]
//! owns a deterministic simulated world and wires each node's stack
//! together exactly as the paper composes it (Fig. 2 / Fig. 3a):
//!
//! * **base stations** ([`node::BaseStation`]) — lookup service
//!   (`pmp-discovery`), extension base (`pmp-midas`), the hall database
//!   (`pmp-store`), and the hall's signing authority (`pmp-crypto`);
//! * **mobile nodes** ([`node::MobileNode`]) — managed runtime
//!   (`pmp-vm`), weaver (`pmp-prose`), adaptation service
//!   (`pmp-midas`), optional plotter hardware (`pmp-robot`) with the
//!   `DrawingService` the robot exports, and the host wiring
//!   ([`wiring`]) that turns extension system-calls into asynchronous
//!   network traffic;
//! * **remote calls** — the platform carries `m_R` invocations so
//!   session extraction and access control interpose exactly as in
//!   Fig. 2c.
//!
//! [`scenario::ProductionHalls`] builds the paper's two-hall world in
//! one call; the `examples/` directory shows it in action.

pub mod driver;
pub mod node;
pub mod platform;
pub mod rpc;
pub mod scenario;
pub mod wiring;

pub use driver::{Driver, NodeCell, ParallelDriver, SerialDriver};
pub use node::{BaseStation, MobileNode};
pub use platform::{BaseId, MobId, Platform, RpcOutcome, StreamSub};
pub use pmp_stream::{StreamEvent, StreamStats};
pub use rpc::{backoff_delay, DedupTable, InvocationSemantics, RpcEngine, RpcServer};
pub use scenario::{ProductionHalls, CORRIDOR, IN_HALL_A, IN_HALL_B};
pub use wiring::{
    AppMsg, NodeWiring, Outbox, OutboxGuard, RpcMsg, APP_CHANNEL, MIRROR_CHANNEL, RPC_CHANNEL,
};
