//! # pmp-tuplespace — a Linda-style tuple space over the simulated radio
//!
//! The paper's future work (§4.6): "we are looking at tuple spaces
//! \[Gelernter 85, TSpaces\] to get a more flexible and expressive
//! platform for distributing extensions". This crate implements that
//! direction: a generative-communication space hosted on one node, with
//! the classic `out`/`rd`/`in` operations plus **reactive
//! subscriptions** (`notify`) — the primitive that makes distribution
//! *proactive*: a base station `out`s extension tuples; any newcomer
//! whose subscription matches is pushed a copy without either side
//! naming the other.
//!
//! Like the rest of the platform, both ends are message-driven state
//! machines over [`pmp_net::Simulator`]; see
//! `tests/tuplespace_dist.rs` at the workspace root for extension
//! distribution through a space.

pub mod client;
pub mod proto;
pub mod space;
pub mod tuple;

pub use client::{SpaceClient, SpaceEvent};
pub use proto::{SpaceMsg, CHANNEL};
pub use space::TupleSpace;
pub use tuple::{Field, Pattern, PatternField, Tuple};
