//! # pmp-store — the base-station database
//!
//! The paper's monitoring extension streams every robot movement to a
//! database at the base station (Fig. 3b step 3); client tools then
//! query it for replay, remote replication, and simulation (§4.5,
//! Fig. 6). This crate is that database: a small in-memory append-only
//! store with time/robot-indexed queries and replay cursors, which keeps
//! its rows in their wire encoding so snapshots and restores are copies.

pub mod durable;
pub mod movement;

pub use movement::{MovementRecord, MovementStore, RecordId};
