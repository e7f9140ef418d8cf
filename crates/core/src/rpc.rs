//! Configurable invocation semantics for remote service calls.
//!
//! The paper's RPC layer (§4.4) assumes one implicit semantic: fire a
//! call, hope the radio cooperates. A hall with 20%+ link loss needs
//! the classic spectrum instead — selectable per call:
//!
//! * **Maybe** — one transmission, no retries, no dedup. The default
//!   of [`crate::Platform::rpc`]; it travels as the plain
//!   [`RpcMsg::Call`], which carries no semantics field.
//! * **At-least-once** — the caller's base retransmits on a
//!   deterministic exponential-backoff schedule until a reply arrives
//!   or the attempt budget is exhausted. The server executes every
//!   arriving copy; duplicate executions are the accepted cost.
//! * **At-most-once** — retransmission as above, plus a bounded
//!   server-side dedup table (request id → cached reply, FIFO
//!   eviction) that filters duplicates and replays the cached reply.
//!
//! Three pieces live here: [`RpcEngine`] (caller side, owned by a base
//! station; durable under `"rpc.calls"`), [`RpcServer`] (server side,
//! owned by a mobile node), and [`backoff_delay`] (the pure retry
//! schedule — simulated time only, never the wall clock, so both
//! drivers compute the same schedule from the same inputs).
//!
//! The dedup table needs no durability: servers are mobile nodes,
//! which have no storage engine and are never crashed. What survives a
//! crash is the base's call table, so a restarted base resumes
//! retrying with the same request ids and the servers' dedup tables
//! keep filtering them.

use crate::wiring::RpcMsg;
use pmp_durable::{DurableError, DurableHub, Store};
use pmp_net::{NetPort, NodeId};
use pmp_telemetry::SimRng;
use pmp_wire::{wire_enum, wire_struct, Reader, Wire, Writer};
use std::collections::{BTreeMap, VecDeque};

/// Durable namespace of the caller-side call table.
pub const RPC_CALLS_NAMESPACE: &str = "rpc.calls";
/// Timer tag for retransmission timers armed by the engine.
pub const RPC_RETRY_TAG: &str = "rpc.retry";

/// The delivery/execution guarantee requested for one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InvocationSemantics {
    /// One transmission, no retries, no filtering.
    Maybe,
    /// Retransmit until acknowledged; the server filters duplicates
    /// through its dedup table and replays the cached reply.
    AtMostOnce,
    /// Retransmit until acknowledged; the server executes every copy.
    AtLeastOnce,
}

impl InvocationSemantics {
    /// Stable lowercase name, used in observables and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            InvocationSemantics::Maybe => "maybe",
            InvocationSemantics::AtMostOnce => "at-most-once",
            InvocationSemantics::AtLeastOnce => "at-least-once",
        }
    }
}

impl std::fmt::Display for InvocationSemantics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

wire_enum!(InvocationSemantics {
    0 => Maybe,
    1 => AtMostOnce,
    2 => AtLeastOnce,
});

/// First-attempt timeout in simulated nanoseconds (150 ms, well above
/// the ~1 ms link RTT); each later attempt doubles it
/// ([`backoff_delay`]).
pub const RPC_TIMEOUT_NS: u64 = 150_000_000;
/// Total transmission budget (the initial send counts as attempt 1);
/// exhaustion resolves the call as a failed outcome.
pub const RPC_MAX_ATTEMPTS: u32 = 8;
/// Ceiling on any single backoff delay (2 s).
pub const RPC_BACKOFF_CAP_NS: u64 = 2_000_000_000;
/// Upper bound on the deterministic per-attempt jitter added to the
/// exponential schedule (10 ms; decorrelates retry bursts).
pub const RPC_JITTER_NS: u64 = 10_000_000;
/// Capacity of each mobile node's dedup table (FIFO eviction).
pub const DEDUP_CAP: usize = 256;

/// The retransmission delay before attempt `attempt + 1`, given that
/// `attempt` transmissions have already happened (`attempt >= 1`).
///
/// Pure function of `(req, attempt)`: exponential doubling from
/// [`RPC_TIMEOUT_NS`], capped at [`RPC_BACKOFF_CAP_NS`], plus splitmix
/// jitter seeded from the request id and attempt counter. No wall
/// clock, no shared RNG — both drivers, any thread count, and a
/// crash-restarted base all compute the identical schedule.
#[must_use]
pub fn backoff_delay(req: u64, attempt: u32) -> u64 {
    let shift = attempt.saturating_sub(1).min(20);
    let base = RPC_TIMEOUT_NS
        .saturating_mul(1u64 << shift)
        .min(RPC_BACKOFF_CAP_NS);
    let mut rng = SimRng::new(req.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(attempt));
    base.saturating_add(rng.range_u64(RPC_JITTER_NS))
}

/// One remote call as issued; the engine holds the outstanding ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingCall {
    /// Destination node id (raw `NodeId.0`).
    pub target: u32,
    /// Requested semantics (`Maybe` calls are sent once and never
    /// enter the engine).
    pub sem: InvocationSemantics,
    /// Caller identity.
    pub caller: String,
    /// Service class name.
    pub class: String,
    /// Method name.
    pub method: String,
    /// Integer arguments.
    pub args: Vec<i64>,
    /// Transmissions so far (1 = only the initial send).
    pub attempts: u32,
    /// Simulated time the call was issued, for latency histograms.
    pub issued_at: u64,
}

wire_struct!(PendingCall {
    target: u32,
    sem: InvocationSemantics,
    caller: String,
    class: String,
    method: String,
    args: Vec<i64>,
    attempts: u32,
    issued_at: u64,
});

impl PendingCall {
    /// The message that transmits attempt `attempts` of this call as
    /// request `req`: a plain [`RpcMsg::Call`] for `Maybe`, a
    /// [`RpcMsg::CallSem`] naming the semantics otherwise.
    #[must_use]
    pub fn message(&self, req: u64) -> RpcMsg {
        let (caller, class, method, args) = (
            self.caller.clone(),
            self.class.clone(),
            self.method.clone(),
            self.args.clone(),
        );
        match self.sem {
            InvocationSemantics::Maybe => RpcMsg::Call {
                caller,
                class,
                method,
                args,
                req,
            },
            sem => RpcMsg::CallSem {
                caller,
                class,
                method,
                args,
                req,
                sem,
                attempt: self.attempts,
            },
        }
    }
}

/// WAL operations of the caller-side call table.
#[derive(Debug, Clone, PartialEq)]
pub enum CallOp {
    /// A new call was issued (attempt 1 sent).
    Issue {
        /// The request id.
        req: u64,
        /// The call as issued.
        call: PendingCall,
    },
    /// One retransmission happened.
    Attempt {
        /// The request id.
        req: u64,
    },
    /// The call resolved (reply, or budget exhausted).
    Resolve {
        /// The request id.
        req: u64,
    },
}

wire_enum!(CallOp {
    0 => Issue { req: u64, call: PendingCall },
    1 => Attempt { req: u64 },
    2 => Resolve { req: u64 },
});

/// How many resolved request ids the engine remembers, to drop late
/// duplicate replies without growing without bound.
pub const RESOLVED_MEMORY: usize = 1_024;

/// Caller-side call table of one base station.
///
/// Tracks every semantic (`AtMostOnce`/`AtLeastOnce`) call issued
/// through this base: the outstanding set drives retransmission
/// timers, the resolved FIFO filters late duplicate replies, and both
/// are durable so a crash → restart resumes retrying with the *same*
/// request ids (the server's dedup table then makes resumption safe
/// for at-most-once calls). Timer tokens are deliberately *not*
/// durable: [`crate::BaseStation::start`] arms a fresh timer for every
/// call in [`RpcEngine::rearm_tokens`].
#[derive(Debug, Default)]
pub struct RpcEngine {
    calls: BTreeMap<u64, PendingCall>,
    /// Recently-resolved ids, FIFO-bounded to [`RESOLVED_MEMORY`].
    resolved: VecDeque<u64>,
    /// Live timer token → request id (rebuilt after restart).
    timers: BTreeMap<u64, u64>,
    wal: Option<DurableHub>,
    /// Retries sent (telemetry; not durable).
    pub retries: u64,
    /// Calls that exhausted their budget (telemetry; not durable).
    pub exhausted: u64,
}

impl RpcEngine {
    /// A fresh engine. Call [`RpcEngine::attach`] before issuing.
    #[must_use]
    pub fn new() -> RpcEngine {
        RpcEngine::default()
    }

    /// Wires the engine to the storage engine it logs its call table to.
    pub fn attach(&mut self, hub: DurableHub) {
        self.wal = Some(hub);
    }

    /// Applies `op` and logs it: the one way the call table changes.
    fn commit_op(&mut self, op: CallOp) {
        let mut wal = self.wal.take();
        let applied = self.commit(&mut wal, op);
        self.wal = wal;
        debug_assert!(applied.is_ok(), "call-table ops always apply");
    }

    /// Records a freshly-issued call (the initial transmission is
    /// attempt 1; the caller sends it and arms the first timer).
    pub fn issue(&mut self, req: u64, call: PendingCall) {
        self.commit_op(CallOp::Issue { req, call });
    }

    /// Records one retransmission; returns the new attempt count, or
    /// `None` if the call is no longer outstanding.
    pub fn note_attempt(&mut self, req: u64) -> Option<u32> {
        if !self.calls.contains_key(&req) {
            return None;
        }
        self.commit_op(CallOp::Attempt { req });
        self.retries += 1;
        self.calls.get(&req).map(|c| c.attempts)
    }

    /// Resolves `req` (first reply, or budget exhausted). Returns the
    /// call if it was outstanding; `None` means a duplicate or
    /// unknown id, which the caller must ignore.
    pub fn resolve(&mut self, req: u64) -> Option<PendingCall> {
        let call = self.calls.get(&req)?.clone();
        self.commit_op(CallOp::Resolve { req });
        Some(call)
    }

    /// Whether `req` is outstanding.
    #[must_use]
    pub fn is_outstanding(&self, req: u64) -> bool {
        self.calls.contains_key(&req)
    }

    /// Whether `req` resolved recently (a late duplicate reply).
    #[must_use]
    pub fn recently_resolved(&self, req: u64) -> bool {
        self.resolved.contains(&req)
    }

    /// The outstanding call for `req`, if any.
    #[must_use]
    pub fn get(&self, req: u64) -> Option<&PendingCall> {
        self.calls.get(&req)
    }

    /// Number of outstanding calls (the soak memory oracle bounds it).
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.calls.len()
    }

    /// Length of the resolved-id FIFO; never exceeds
    /// [`RESOLVED_MEMORY`] (the soak memory oracle asserts this).
    #[must_use]
    pub fn resolved_len(&self) -> usize {
        self.resolved.len()
    }

    /// Outstanding request ids in ascending order — a restarted base
    /// arms a fresh retransmission timer for each.
    #[must_use]
    pub fn rearm_tokens(&self) -> Vec<u64> {
        self.calls.keys().copied().collect()
    }

    /// Arms the retransmission timer of outstanding call `req` on
    /// `node`: the backoff step after the attempts it has made. The one
    /// place a retry timer is set — on issue, after each
    /// retransmission, and for every recovered call at restart.
    pub fn arm_retry(&mut self, port: &mut dyn NetPort, node: NodeId, req: u64) {
        let Some(call) = self.calls.get(&req) else {
            return;
        };
        let delay = backoff_delay(req, call.attempts);
        let token = port.set_timer(node, delay, RPC_RETRY_TAG);
        self.timers.insert(token, req);
    }

    /// Consumes a fired timer token; returns the request it was
    /// armed for, or `None` for foreign/stale tokens.
    pub fn take_timer(&mut self, token: u64) -> Option<u64> {
        self.timers.remove(&token)
    }
}

impl Store for RpcEngine {
    const NAMESPACE: &'static str = RPC_CALLS_NAMESPACE;
    type Op = CallOp;

    fn encode_state(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(self.calls.len() as u32);
        for (req, call) in &self.calls {
            w.put_u64(*req);
            call.encode(&mut w);
        }
        w.put_u32(self.resolved.len() as u32);
        for req in &self.resolved {
            w.put_u64(*req);
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), DurableError> {
        let mut r = Reader::new(bytes);
        let n = r.get_u32()?;
        let mut calls = BTreeMap::new();
        for _ in 0..n {
            let req = r.get_u64()?;
            calls.insert(req, PendingCall::decode(&mut r)?);
        }
        let m = r.get_u32()?;
        // Eight bytes per id: a hostile count cannot allocate beyond
        // what the input could hold.
        let mut resolved = VecDeque::with_capacity((m as usize).min(r.remaining() / 8));
        for _ in 0..m {
            resolved.push_back(r.get_u64()?);
        }
        r.finish()?;
        self.calls = calls;
        self.resolved = resolved;
        self.timers.clear();
        Ok(())
    }

    fn apply(&mut self, op: CallOp) -> Result<(), DurableError> {
        match op {
            CallOp::Issue { req, call } => {
                self.calls.insert(req, call);
            }
            CallOp::Attempt { req } => {
                if let Some(c) = self.calls.get_mut(&req) {
                    c.attempts += 1;
                }
            }
            CallOp::Resolve { req } => {
                if self.calls.remove(&req).is_some() {
                    self.resolved.push_back(req);
                    if self.resolved.len() > RESOLVED_MEMORY {
                        self.resolved.pop_front();
                    }
                }
            }
        }
        Ok(())
    }
}

/// Bounded request-id → cached-reply table (server side).
///
/// At-most-once execution hinges on this table: an arriving duplicate
/// whose id is present is answered from the cache without touching the
/// service object. Capacity-bounded with FIFO eviction — the soak
/// memory oracle asserts `len() <= cap()` forever.
#[derive(Debug)]
pub struct DedupTable {
    cap: usize,
    order: VecDeque<u64>,
    replies: BTreeMap<u64, (bool, String)>,
    /// Duplicate hits answered from cache (telemetry; not durable).
    pub hits: u64,
}

impl DedupTable {
    /// A table holding at most `cap` cached replies.
    #[must_use]
    pub fn new(cap: usize) -> DedupTable {
        DedupTable {
            cap: cap.max(1),
            order: VecDeque::new(),
            replies: BTreeMap::new(),
            hits: 0,
        }
    }

    /// The cached reply for `req`, if present.
    #[must_use]
    pub fn lookup(&self, req: u64) -> Option<&(bool, String)> {
        self.replies.get(&req)
    }

    /// Caches the reply for `req`, evicting the oldest entry at
    /// capacity. Re-inserting an existing id refreshes the value but
    /// not its eviction position.
    pub fn insert(&mut self, req: u64, ok: bool, value: String) {
        if self.replies.insert(req, (ok, value)).is_none() {
            self.order.push_back(req);
            while self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.replies.remove(&old);
                }
            }
        }
    }

    /// Entries currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.replies.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.replies.is_empty()
    }

    /// The capacity bound.
    #[must_use]
    pub fn cap(&self) -> usize {
        self.cap
    }
}

/// Server-side RPC state of one mobile node: the dedup table plus an
/// execution ledger the duplicate-execution oracle reads.
#[derive(Debug)]
pub struct RpcServer {
    /// The at-most-once dedup table.
    pub dedup: DedupTable,
    /// req → (semantics, executions). Grows with distinct requests —
    /// instrumentation for tests and oracles, like
    /// [`crate::MobileNode`]'s receiver-event ledger, not product
    /// state.
    exec: BTreeMap<u64, (InvocationSemantics, u32)>,
}

impl Default for RpcServer {
    fn default() -> Self {
        RpcServer::new()
    }
}

impl RpcServer {
    /// A server with a dedup table of [`DEDUP_CAP`] entries.
    #[must_use]
    pub fn new() -> RpcServer {
        RpcServer {
            dedup: DedupTable::new(DEDUP_CAP),
            exec: BTreeMap::new(),
        }
    }

    /// Records one actual execution of `req`.
    pub fn note_execution(&mut self, req: u64, sem: InvocationSemantics) {
        let e = self.exec.entry(req).or_insert((sem, 0));
        e.1 += 1;
    }

    /// Times `req` was executed.
    #[must_use]
    pub fn executions(&self, req: u64) -> u32 {
        self.exec.get(&req).map_or(0, |e| e.1)
    }

    /// Total *duplicate* executions of at-most-once requests — the
    /// `rpc-duplicate-execution` oracle asserts this stays zero.
    #[must_use]
    pub fn duplicate_at_most_once_executions(&self) -> u64 {
        self.exec
            .values()
            .filter(|(sem, _)| *sem == InvocationSemantics::AtMostOnce)
            .map(|(_, n)| u64::from(n.saturating_sub(1)))
            .sum()
    }

    /// Distinct requests executed at least once, per semantics.
    #[must_use]
    pub fn delivered(&self, sem: InvocationSemantics) -> u64 {
        self.exec
            .values()
            .filter(|(s, n)| *s == sem && *n >= 1)
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_durable::{Durable, DurableHub};
    use pmp_wire::WireError;

    #[test]
    fn semantics_roundtrip_on_the_wire() {
        for sem in [
            InvocationSemantics::Maybe,
            InvocationSemantics::AtMostOnce,
            InvocationSemantics::AtLeastOnce,
        ] {
            let bytes = pmp_wire::to_bytes(&sem);
            assert_eq!(
                pmp_wire::from_bytes::<InvocationSemantics>(&bytes).unwrap(),
                sem
            );
        }
    }

    /// Cases per seeded property below.
    const CASES: u64 = 256;

    /// The backoff schedule is a pure function of its inputs — no wall
    /// clock, no hidden state — and bounded by the first timeout below
    /// and cap + jitter above, for any request id and attempt.
    #[test]
    fn backoff_is_pure_and_bounded() {
        for seed in 0..CASES {
            let mut rng = SimRng::new(seed);
            let req = rng.next_u64();
            let attempt = 1 + rng.range_u64(15) as u32;
            let a = backoff_delay(req, attempt);
            assert_eq!(a, backoff_delay(req, attempt), "seed {seed}: impure");
            assert!(a >= RPC_TIMEOUT_NS, "seed {seed}: {a}");
            assert!(a <= RPC_BACKOFF_CAP_NS + RPC_JITTER_NS, "seed {seed}: {a}");
        }
        // Doubling dominates the jitter for early attempts.
        let d1 = backoff_delay(5, 1);
        let d3 = backoff_delay(5, 3);
        assert!(d3 > d1);
    }

    /// Under any retry/loss interleaving — duplicate arrivals of any of
    /// eight calls, in any order — an at-most-once request executes at
    /// most once while the dedup table has room for the distinct ids in
    /// flight, and every other arrival is a cache hit.
    #[test]
    fn dedup_never_reexecutes() {
        for seed in 0..CASES {
            let mut rng = SimRng::new(seed);
            let arrivals = 1 + rng.range_u64(63);
            let mut server = RpcServer::new();
            let mut executions = [0u32; 8];
            for _ in 0..arrivals {
                let idx = rng.range_u64(8) as usize;
                let req = 100 + idx as u64;
                if server.dedup.lookup(req).is_none() {
                    executions[idx] += 1;
                    server.note_execution(req, InvocationSemantics::AtMostOnce);
                    server.dedup.insert(req, true, format!("v{idx}"));
                } else {
                    server.dedup.hits += 1;
                }
            }
            assert!(
                executions.iter().all(|&n| n <= 1),
                "seed {seed}: executions {executions:?}"
            );
            assert_eq!(server.duplicate_at_most_once_executions(), 0, "seed {seed}");
            assert_eq!(
                server.dedup.hits + server.dedup.len() as u64,
                arrivals,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn dedup_table_is_fifo_bounded() {
        let mut t = DedupTable::new(3);
        for req in 0..5u64 {
            t.insert(req, true, format!("v{req}"));
        }
        assert_eq!(t.len(), 3);
        assert!(t.lookup(0).is_none(), "oldest entries evicted");
        assert!(t.lookup(1).is_none());
        assert_eq!(t.lookup(4).unwrap().1, "v4");
    }

    #[test]
    fn engine_walks_through_issue_attempt_resolve() {
        let hub = DurableHub::new();
        let mut e = RpcEngine::new();
        e.attach(hub.clone());
        let call = PendingCall {
            target: 3,
            sem: InvocationSemantics::AtMostOnce,
            caller: "op".into(),
            class: "DrawingService".into(),
            method: "moveTo".into(),
            args: vec![1, 2],
            attempts: 1,
            issued_at: 10,
        };
        e.issue(42, call);
        assert!(e.is_outstanding(42));
        assert_eq!(e.note_attempt(42), Some(2));
        hub.commit();
        let digest = e.state_digest();

        // WAL replay rebuilds the same state.
        hub.crash();
        let mut r = RpcEngine::new();
        hub.recover(&mut [&mut r]);
        assert_eq!(r.state_digest(), digest);
        assert_eq!(r.get(42).unwrap().attempts, 2);

        // Resolution removes and remembers.
        assert!(r.resolve(42).is_some());
        assert!(r.resolve(42).is_none(), "double resolve is filtered");
        assert!(r.recently_resolved(42));
    }

    #[test]
    fn hostile_resolved_count_is_an_error_not_an_allocation() {
        // No calls, then a claim of u32::MAX resolved ids backed by two.
        // Sizing the FIFO from the claim would ask for 32 GiB and abort.
        let mut w = Writer::new();
        w.put_u32(0);
        w.put_u32(u32::MAX);
        w.put_u64(1);
        w.put_u64(2);
        let mut e = RpcEngine::new();
        assert!(matches!(
            e.restore_snapshot(&w.into_bytes()),
            Err(DurableError::Wire(_))
        ));
        assert_eq!(e.resolved_len(), 0, "a failed restore changes nothing");
    }

    #[test]
    fn snapshot_with_trailing_bytes_is_rejected() {
        let mut bytes = RpcEngine::new().snapshot_bytes();
        bytes.push(0);
        assert!(matches!(
            RpcEngine::new().restore_snapshot(&bytes),
            Err(DurableError::Wire(WireError::TrailingBytes { .. }))
        ));
    }

    #[test]
    fn server_ledger_counts_duplicates() {
        let mut s = RpcServer::new();
        s.note_execution(1, InvocationSemantics::AtMostOnce);
        s.note_execution(2, InvocationSemantics::AtLeastOnce);
        s.note_execution(2, InvocationSemantics::AtLeastOnce);
        assert_eq!(s.duplicate_at_most_once_executions(), 0);
        s.note_execution(1, InvocationSemantics::AtMostOnce);
        assert_eq!(s.duplicate_at_most_once_executions(), 1);
        assert_eq!(s.delivered(InvocationSemantics::AtLeastOnce), 1);
    }
}
