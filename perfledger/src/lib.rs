//! # pmp-perfledger — the platform's performance ledger
//!
//! Four seeded end-to-end workloads run through `Platform`'s public API
//! (see `README.md` for why each was chosen):
//!
//! * [`adapt::Adapt`] — a published upgrade reaching its first woven
//!   dispatch on every receiver;
//! * [`rpc::Rpc`] — remote calls under each invocation semantic;
//! * [`fanout::Fanout`] — durable commits reaching stream subscribers;
//! * [`recover::Recover`] — a base crash through to recovery.
//!
//! [`run`] measures them (untraced for the end-to-end metrics, traced for
//! the per-layer ones), [`layers`] and [`micro`] time single layers with
//! the one [`sample`] implementation, and [`ledger`] writes and compares
//! the machine-readable ledger.

pub mod adapt;
pub mod clock;
pub mod fanout;
pub mod json;
pub mod layers;
pub mod ledger;
pub mod micro;
pub mod recover;
pub mod rpc;
pub mod run;
pub mod sample;
pub mod spans;
pub mod world;

/// Names of the workloads, in ledger order.
pub const WORKLOADS: [&str; 4] = ["adapt", "rpc", "fanout", "recover"];
