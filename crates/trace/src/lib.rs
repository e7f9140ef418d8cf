//! # pmp-trace — deterministic causal tracing across the simulated wire
//!
//! The paper's headline numbers are per-hop costs (≈900 ns per
//! interception, sign/verify/weave latencies), but an *adaptation* is a
//! causal chain across machines: a base publishes, signs, and ships an
//! extension; every receiver verifies, weaves, and eventually fires the
//! first interception. This crate reconstructs that chain as one span
//! tree without any randomness:
//!
//! * [`TraceCtx`] — a `(trace id, span id)` pair carried inside the
//!   pmp-wire envelope of MIDAS, discovery, tuple-space, and RPC
//!   messages via [`Traced`]. Ids are `(node << 32) | seq`, so two runs
//!   (and the serial vs. parallel execution drivers, DESIGN.md §10)
//!   produce byte-identical trees.
//! * [`Tracer`] — the per-node-cell span factory. Spans are instant
//!   (`start == end`, stamped with sim-time): per-hop latency is the
//!   *delta between* parent and child start times, which is pure
//!   sim-time and therefore deterministic. Wall-clock durations stay in
//!   the telemetry histograms where nondeterminism is expected.
//! * [`FlightRecorder`] — a bounded ring of the recent spans of one
//!   node, filled at epoch barriers (one ring per node), dumped into
//!   chaos `.repro` artifacts when an oracle fires and (for base
//!   stations) persisted through `pmp-durable` across crash/restart.
//! * [`Collector`] — the base-tier service that absorbs drained spans
//!   at epoch barriers and renders span trees, critical paths, and
//!   JSON lines, all canonically.
//!
//! Envelopes are *always* 16 bytes of context plus the payload — even
//! when tracing is disabled (the context is then [`TraceCtx::NIL`]) —
//! so message lengths, and with them the link model's loss sampling,
//! are identical whether tracing is on or off.

#![warn(missing_docs)]

mod collect;
mod ctx;
mod flight;
mod span;
mod tracer;

pub use collect::{Collector, DEFAULT_COLLECT_CAP};
pub use ctx::{TraceCtx, Traced};
pub use flight::{FlightRecorder, DEFAULT_FLIGHT_CAP, FLIGHT_NAMESPACE};
pub use span::{FlightEntry, SpanRecord};
pub use tracer::Tracer;
