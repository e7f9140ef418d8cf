//! # pmp-discovery — Jini-like spontaneous networking
//!
//! The paper uses Jini for "service detection and brokerage": mobile
//! nodes advertise their adaptation service, base stations discover
//! newcomers, and everything is leased so state evaporates when nodes
//! leave. This crate reimplements those pieces over the
//! [`pmp_net::Simulator`]:
//!
//! * [`registrar::Registrar`] — the lookup service a base station
//!   hosts: registration under leases, lookup by type/attributes,
//!   multicast announcements, lease expiry sweeps;
//! * [`client::DiscoveryClient`] — the node-side library: registrar
//!   tracking with loss detection, registration with automatic renewal,
//!   and lookups;
//! * [`lease::Lease`] — the lease primitive shared with MIDAS;
//! * [`inventory::Inventory`] — the digest → pull → diff exchange that
//!   keeps every table bases share in step: MIDAS's catalog and lease
//!   table, and the directory tier's routes.
//!
//! Both sides are message-driven state machines: a host drains its
//! node's inbox each simulation step and feeds entries to `handle`.

pub mod client;
pub mod directory;
pub mod inventory;
pub mod lease;
pub mod proto;
pub mod registrar;
pub mod service;

pub use client::{DiscoveryClient, DiscoveryEvent};
pub use directory::{Directory, MAX_HOPS};
pub use inventory::{Diff, Inventory};
pub use lease::Lease;
pub use proto::{DiscoveryMsg, CHANNEL};
pub use registrar::Registrar;
pub use service::{ServiceId, ServiceItem, ServiceQuery};
