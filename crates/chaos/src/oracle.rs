//! Global invariants checked at epoch barriers.
//!
//! Each oracle states a property the platform must uphold *no matter
//! what* the chaos script does — they are about the protocols, not the
//! scenario. All of them are phrased with explicit slack windows so
//! they stay sound under message latency, sweep granularity, and the
//! executor's pump-slice quantum:
//!
//! | id               | property                                              |
//! |------------------|-------------------------------------------------------|
//! | `lease-liveness` | no advice stays active past lease lapse + sweep slack |
//! | `departure`      | a long-uncovered node ends up with nothing installed  |
//! | `cross-driver`   | serial and parallel runs are byte-identical           |
//! | `durable-digest` | crash→restart reproduces the barrier-committed state  |
//! | `conservation`   | installed − removed counters == Σ live installs       |
//! | `grant-catalog`  | every lease-table grant names a catalogued extension  |
//! | `recover-panic`  | `recover()` never panics, even on a corrupt image     |
//! | `perf.adapt-p99` | verify/weave p99 stays under a generous wall ceiling  |
//! | `trace.ring-growth` | flight rings and the collector never exceed caps   |
//! | `stream-resync`  | every live subscriber converges to the publisher      |
//! | `rpc-duplicate-execution` | at-most-once calls never execute twice       |
//! | `adversarial-containment` | hostile packages never install on a node     |
//! | `perf.soak-rpc-p99` | sim-time RPC p99 stays near the link baseline      |
//! | `perf.soak-throughput` | every semantic call resolves within its window  |
//! | `perf.soak-memory` | dedup tables and resolved FIFOs honour their caps   |
//! | `replica-convergence` | a quiet, healthy edge's view equals its owner's  |
//!
//! The `perf.*` oracles are excluded from the cross-driver violation
//! diff: the original `perf.adapt-p99` reads wall-clock histograms
//! (genuinely nondeterministic), and the soak family keeps the prefix
//! so a scenario can be perf-red without also being flagged as a
//! determinism bug. Everything else is pure sim-state and must agree
//! byte for byte. (`perf.soak-*` actually *are* simulated-time
//! properties — the latency histogram and the retry schedule are
//! functions of sim time — so they fire identically under both
//! drivers; the prefix only controls reporting.)
//!
//! `durable-digest` compares against the digest captured after the
//! pre-crash `commit()` the executor forces, so it asserts equality of
//! *barrier-committed* state: what the WAL promised is exactly what
//! recovery rebuilds. Torn-tail / bit-flip injections switch that
//! restart to "must not panic, must report unclean" instead — the lost
//! suffix is the fault's point.

use crate::script::RADIO_RANGE;
use pmp_core::{BaseId, MobId, Platform, StreamEvent, StreamSub};
use pmp_durable::Durable;
use pmp_midas::ReceiverEvent;
use std::collections::{BTreeMap, BTreeSet};

/// One invariant breach.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which oracle fired (stable id, see module table).
    pub invariant: &'static str,
    /// Simulated ms at which the breach was observed.
    pub at_ms: u64,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] t+{}ms: {}", self.invariant, self.at_ms, self.detail)
    }
}

/// Extra observation delay the oracles must forgive: one pump slice
/// plus scheduling/latency grace.
const OBS_SLACK_MS: u64 = 500;
/// How long past lease expiry an install may linger: one sweep period
/// (500 ms) plus observation slack.
const SWEEP_SLACK_MS: u64 = 500 + OBS_SLACK_MS;
/// Renewal-in-flight grace for the departure oracle.
const DEPART_SLACK_MS: u64 = 2_000;

/// Cross-run oracle state the executor threads through the barriers.
#[derive(Debug)]
pub struct OracleState {
    /// Lease duration bases grant, ms (from the topology).
    pub lease_ms: u64,
    /// Per-node: since when (ms) the node has been out of coverage,
    /// `None` while covered.
    pub uncovered_since: Vec<Option<u64>>,
    /// Per-base: digest captured at the crash barrier, if down.
    pub digest_at_crash: Vec<Option<u64>>,
    /// Per-base: a disk fault was injected while down, so the next
    /// restart skips the digest-equality check.
    pub fault_injected: Vec<bool>,
    /// Severed (node index, base index) radio pairs.
    pub partitions: BTreeSet<(u8, u8)>,
    /// Federated (replica-linked) base pairs, `(min, max)` indices.
    pub fed_pairs: BTreeSet<(u8, u8)>,
    /// Severed inter-base paths, `(min, max)` indices.
    pub base_partitions: BTreeSet<(u8, u8)>,
    /// Directory-tree edges, `(child, parent)` indices.
    pub dir_edges: BTreeSet<(u8, u8)>,
    /// Per directed anti-entropy edge, what `replica-convergence` last
    /// saw (see [`EdgeWatch`]).
    pub edge_watch: BTreeMap<(Exchange, u8, u8), EdgeWatch>,
    /// Whether the radio is loss-free — the handoff-migration oracle
    /// is only sound when `GrantTransfer` cannot be dropped.
    pub loss_free: bool,
    /// Per-node: last observed `(lease holder, installs seen, version)`
    /// for every installed extension, keyed by ext id.
    pub grant_state: Vec<BTreeMap<String, (u32, u64, u32)>>,
    /// Stream subscribers attached by `Op::Subscribe`, in creation
    /// order (dropped ones stay, marked dead, so indices are stable).
    pub subscribers: Vec<StreamMirror>,
    /// True while no op has disturbed the radio or topology (no roam,
    /// corridor trip, radio toggle, partition, or base crash). The
    /// `perf.soak-rpc-p99` oracle is only sound on a quiet radio: a
    /// retry that succeeds after a heal is a legitimate seconds-scale
    /// latency, not a regression.
    pub radio_quiet: bool,
    /// Unscaled link base latency (ns) captured at build time — the
    /// yardstick `perf.soak-rpc-p99` measures against, immune to
    /// `Op::SlowLinks` rescaling the live link.
    pub baseline_latency_ns: u64,
    /// Report-once latch for `perf.soak-rpc-p99`: the histogram is
    /// cumulative, so once the p99 crosses the ceiling it stays
    /// crossed — re-reporting every barrier would bury an hour-scale
    /// soak report under thousands of copies of one regression.
    pub p99_reported: bool,
    /// Semantic (non-maybe) calls issued by `Op::RpcSem`:
    /// `(issue_ms, request id, base index)`. Pruned as they resolve.
    pub rpc_issued: Vec<(u64, u64, u8)>,
    /// Request ids whose outcome the executor has drained.
    pub rpc_resolved: BTreeSet<u64>,
    /// Per-base: last `Op::RestartBase` completion, ms. A restarted
    /// base re-arms its recovered call timers, so the throughput
    /// oracle restarts the resolution clock from here.
    pub base_restart_ms: Vec<u64>,
}

/// Which anti-entropy exchange an edge runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Exchange {
    /// Replica pair: the owner's catalog and lease table, one digest
    /// per scan of the owner's extension base.
    Replica,
    /// Directory edge: the child's advert, one digest per sweep of the
    /// child's registrar.
    Directory,
}

/// What `replica-convergence` tracks for one directed edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeWatch {
    /// Digests of what the two ends own, at the last barrier.
    owned: (u64, u64),
    /// Since when `owned` has held with the edge up, ms.
    stable_since: Option<u64>,
    /// Since when the receiver's view has differed in that window, ms.
    mismatch_since: Option<u64>,
    /// Whether this mismatch was already reported.
    reported: bool,
}

/// One chaos stream subscriber: a platform cursor plus the mirror
/// replica the `stream-resync` oracle rebuilds purely from drained
/// events. Mirrors are constructed with placeholder identity (node
/// ids, ring caps at their defaults) — sound because every
/// [`Durable::state_digest`] hashes only the canonical snapshot
/// encoding, which WAL replay fully determines.
pub struct StreamMirror {
    /// Base index the cursor is attached to.
    pub base: u8,
    /// Namespace followed (one of [`crate::script::STREAM_NAMESPACES`]).
    pub ns: &'static str,
    /// The platform-side cursor.
    pub sub: StreamSub,
    /// False once dropped by `Op::DropSubscriber`.
    pub live: bool,
    mirror: Box<dyn Durable>,
}

impl std::fmt::Debug for StreamMirror {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamMirror")
            .field("base", &self.base)
            .field("ns", &self.ns)
            .field("live", &self.live)
            .finish_non_exhaustive()
    }
}

impl StreamMirror {
    /// A fresh mirror for `ns` on `base`, tracking cursor `sub`.
    #[must_use]
    pub fn new(base: u8, ns: &'static str, sub: StreamSub) -> StreamMirror {
        let mirror: Box<dyn Durable> = match ns {
            "midas.base" => Box::new(pmp_midas::ExtensionBase::new(
                pmp_net::NodeId(0),
                pmp_net::NodeId(0),
            )),
            "trace.flight" => Box::new(pmp_trace::FlightRecorder::new(
                pmp_trace::DEFAULT_FLIGHT_CAP,
            )),
            _ => Box::new(pmp_store::MovementStore::new()),
        };
        StreamMirror {
            base,
            ns,
            sub,
            live: true,
            mirror,
        }
    }
}

impl OracleState {
    /// Fresh state for `bases` bases and `nodes` initial nodes.
    #[must_use]
    pub fn new(lease_ms: u64, bases: usize, nodes: usize) -> OracleState {
        OracleState {
            lease_ms,
            uncovered_since: vec![None; nodes],
            digest_at_crash: vec![None; bases],
            fault_injected: vec![false; bases],
            partitions: BTreeSet::new(),
            fed_pairs: BTreeSet::new(),
            base_partitions: BTreeSet::new(),
            dir_edges: BTreeSet::new(),
            edge_watch: BTreeMap::new(),
            loss_free: true,
            grant_state: vec![BTreeMap::new(); nodes],
            subscribers: Vec::new(),
            radio_quiet: true,
            baseline_latency_ns: 1,
            p99_reported: false,
            rpc_issued: Vec::new(),
            rpc_resolved: BTreeSet::new(),
            base_restart_ms: vec![0; bases],
        }
    }
}

/// `stream-resync`: drains every live subscriber at the barrier,
/// applies the events to its mirror, and requires the mirror's digest
/// to equal the publisher's for that namespace — i.e. after any
/// crash/restart/checkpoint/partition sequence the tiered
/// ring / log-bootstrap / snapshot protocol always re-converges, with
/// no lost, duplicated, or reordered delta. Skipped while the base is
/// down (drains are empty by contract; the forced post-restart
/// snapshot resync re-anchors the mirror at the next barrier).
///
/// Runs before [`check_barrier`] in the executor because it needs the
/// platform mutably (cursor drains advance hub state); it perturbs
/// nothing any other oracle or digest observes.
pub fn stream_resync(
    p: &mut Platform,
    bases: &[BaseId],
    st: &mut OracleState,
    now_ms: u64,
    out: &mut Vec<Violation>,
) {
    for (i, s) in st.subscribers.iter_mut().enumerate() {
        if !s.live {
            continue;
        }
        let Some(&b) = bases.get(usize::from(s.base)) else {
            continue;
        };
        if p.base(b).crashed {
            continue;
        }
        for ev in p.drain_updates(s.sub) {
            let applied = match &ev {
                StreamEvent::Delta { bytes, .. } => s.mirror.apply_record(bytes),
                StreamEvent::Snapshot { bytes, .. } => s.mirror.restore_snapshot(bytes),
            };
            if let Err(e) = applied {
                out.push(Violation {
                    invariant: "stream-resync",
                    at_ms: now_ms,
                    detail: format!(
                        "subscriber {i} (base {} ns {}): event at rev {} failed to apply: {e}",
                        s.base,
                        s.ns,
                        ev.rev()
                    ),
                });
            }
        }
        let station = p.base(b);
        let want = match s.ns {
            "midas.base" => station.base.state_digest(),
            "trace.flight" => station.flight.state_digest(),
            _ => station.store.state_digest(),
        };
        let got = s.mirror.state_digest();
        if got != want {
            out.push(Violation {
                invariant: "stream-resync",
                at_ms: now_ms,
                detail: format!(
                    "subscriber {i} (base {} ns {}): mirror digest {got:#018x} \
                     != publisher {want:#018x} after drain",
                    s.base, s.ns
                ),
            });
        }
    }
}

/// Runs every barrier oracle once, appending any breaches.
pub fn check_barrier(
    p: &Platform,
    bases: &[BaseId],
    nodes: &[MobId],
    st: &mut OracleState,
    now_ms: u64,
    out: &mut Vec<Violation>,
) {
    lease_liveness(p, nodes, now_ms, out);
    departure_revocation(p, bases, nodes, st, now_ms, out);
    conservation(p, nodes, now_ms, out);
    grant_catalog(p, bases, now_ms, out);
    grant_survives_handoff(p, bases, nodes, st, now_ms, out);
    adapt_latency_slo(p, now_ms, out);
    ring_growth(p, now_ms, out);
    rpc_duplicate_execution(p, nodes, now_ms, out);
    adversarial_containment(p, nodes, now_ms, out);
    soak_rpc_p99(p, st, now_ms, out);
    soak_throughput(p, bases, st, now_ms, out);
    soak_memory(p, bases, nodes, now_ms, out);
    replica_convergence(p, bases, st, now_ms, out);
}

/// `replica-convergence`: the digest → pull → diff exchange converges.
/// Each replica pair is two directed edges (each base owns its catalog
/// and lease table), and each directory edge runs from child to
/// parent. Once an edge is unpartitioned, both ends are up, and what
/// the ends own has not changed for three digest periods, the
/// receiver's view must hash like the owner's table: for a replica,
/// equal catalogs and a lease view equal to the owner's lease table;
/// for a directory edge, the parent's view of the child equals the
/// child's advert. A mismatch counts once it outlives one more
/// period plus observation slack — a change that comes and goes
/// between two barriers is repaired by the next digest — and is
/// reported once per episode.
fn replica_convergence(
    p: &Platform,
    bases: &[BaseId],
    st: &mut OracleState,
    now_ms: u64,
    out: &mut Vec<Violation>,
) {
    let mut edges = Vec::new();
    for &(a, b) in &st.fed_pairs {
        edges.push((Exchange::Replica, a, b));
        edges.push((Exchange::Replica, b, a));
    }
    for &(child, parent) in &st.dir_edges {
        edges.push((Exchange::Directory, child, parent));
    }
    for (exchange, owner, receiver) in edges {
        let (o, r) = (
            p.base(bases[usize::from(owner)]),
            p.base(bases[usize::from(receiver)]),
        );
        let watch = st
            .edge_watch
            .entry((exchange, owner, receiver))
            .or_default();
        let pair = (owner.min(receiver), owner.max(receiver));
        if o.crashed || r.crashed || st.base_partitions.contains(&pair) {
            *watch = EdgeWatch::default();
            continue;
        }
        // The owner's digest period, read from the owner so a changed
        // scan interval or sweep moves the windows with it.
        let (owned, want, view, period_ns) = match exchange {
            Exchange::Replica => {
                let want = o.base.replica_digest();
                let view = r.base.replica_view_digest(o.node);
                let owned = (want, r.base.catalog_digest());
                (owned, want, view, o.base.scan_interval_ns())
            }
            Exchange::Directory => {
                let want = o.registrar.advert().digest();
                let view = r.registrar.directory().view_of(o.node);
                let view = view.cloned().unwrap_or_default().digest();
                ((want, 0), want, view, o.registrar.sweep_interval_ns())
            }
        };
        if watch.stable_since.is_none() || watch.owned != owned {
            *watch = EdgeWatch {
                owned,
                stable_since: Some(now_ms),
                ..EdgeWatch::default()
            };
            continue;
        }
        let period = period_ns / 1_000_000;
        let stable_for = now_ms - watch.stable_since.unwrap_or(now_ms);
        if view == want || stable_for < 3 * period {
            watch.mismatch_since = None;
            watch.reported = false;
            continue;
        }
        let since = *watch.mismatch_since.get_or_insert(now_ms);
        if now_ms - since >= period + OBS_SLACK_MS && !watch.reported {
            watch.reported = true;
            out.push(Violation {
                invariant: "replica-convergence",
                at_ms: now_ms,
                detail: format!(
                    "{exchange:?} edge base {owner} -> base {receiver}: view {view:#018x} \
                     != owner's {want:#018x} after {stable_for} ms with both up, \
                     linked and the owned tables unchanged"
                ),
            });
        }
    }
}

/// `rpc-duplicate-execution`: the tentpole at-most-once guarantee —
/// whatever mix of loss, retries, base crashes, and recoveries the
/// script produces, no at-most-once call's service method ever runs
/// twice. The server-side dedup table plus the durable caller table
/// make this unconditional, so the oracle carries no gating at all.
fn rpc_duplicate_execution(p: &Platform, nodes: &[MobId], now_ms: u64, out: &mut Vec<Violation>) {
    for &m in nodes {
        let node = p.node(m);
        let dups = node.rpc_server.duplicate_at_most_once_executions();
        if dups > 0 {
            out.push(Violation {
                invariant: "rpc-duplicate-execution",
                at_ms: now_ms,
                detail: format!(
                    "{}: {dups} at-most-once execution(s) past the first",
                    node.name
                ),
            });
        }
    }
}

/// Id prefix every hostile package uses (see `exec`'s adversarial
/// workload builder).
pub const HOSTILE_PREFIX: &str = "ext/hostile-";

/// `adversarial-containment`: no hostile package ever clears the MIDAS
/// admission gate onto a node — tampered signatures, rogue signers,
/// over-privileged manifests, and verifier-rejecting bytecode must all
/// die at the receiver, no matter how hard the script hammers the
/// publish path. The one exception is the interference probe
/// (`ext/hostile-meddle`): it is validly signed and capability-clean —
/// its hostility is crosscut pressure on the interference analyzer,
/// which journals the overlap but (by default policy) does not reject,
/// so installation is the *expected* contained outcome.
fn adversarial_containment(p: &Platform, nodes: &[MobId], now_ms: u64, out: &mut Vec<Violation>) {
    for &m in nodes {
        let node = p.node(m);
        for id in node.receiver.installed_ids() {
            if id.starts_with(HOSTILE_PREFIX) && !id.contains("meddle") {
                out.push(Violation {
                    invariant: "adversarial-containment",
                    at_ms: now_ms,
                    detail: format!("{}: hostile package {id} cleared the gate", node.name),
                });
            }
        }
    }
}

/// How far past its full backoff schedule a semantic call may stay
/// unresolved before `perf.soak-throughput` fires: the default
/// schedule (8 attempts, 2 s cap) finishes in ~10.4 s, so 15 s is a
/// whole-schedule's worth of slack.
const RPC_RESOLVE_SLACK_MS: u64 = 15_000;

/// `perf.soak-rpc-p99`: the simulated-time p99 of successful RPC
/// round-trips stays within 3× the link's *unscaled* base latency. A
/// clean round-trip is two hops (call + reply ≈ 2× base), so a 2×
/// link-latency regression (`Op::SlowLinks`) lands at 4× base and
/// fires, while the healthy 2× stays under. Only sound on a loss-free,
/// undisturbed radio: a retry after loss or a heal legitimately
/// resolves seconds late.
fn soak_rpc_p99(p: &Platform, st: &mut OracleState, now_ms: u64, out: &mut Vec<Violation>) {
    if !st.loss_free || !st.radio_quiet || st.p99_reported {
        return;
    }
    let sample = p.telemetry().with(|t| {
        t.registry
            .histogram_by_name("rpc.latency_ns")
            .map(|h| (h.count(), h.p99()))
    });
    let ceiling = st.baseline_latency_ns.saturating_mul(3);
    if let Some((count, p99)) = sample {
        if count > 0 && p99 > ceiling {
            st.p99_reported = true;
            out.push(Violation {
                invariant: "perf.soak-rpc-p99",
                at_ms: now_ms,
                detail: format!(
                    "rpc.latency_ns: p99 {p99}ns over {count} calls exceeds {ceiling}ns \
                     (3x link baseline {}ns)",
                    st.baseline_latency_ns
                ),
            });
        }
    }
}

/// `perf.soak-throughput`: the delivery floor — every semantic
/// (at-most-once / at-least-once) call resolves, with a reply or a
/// timeout outcome, within its full retry schedule plus slack. The
/// engine's timers make resolution independent of the radio; the only
/// thing that can stall a call is its issuing base being down, so the
/// clock restarts at the base's last restart (recovered calls re-arm
/// their timers there) and pauses while it is crashed.
fn soak_throughput(
    p: &Platform,
    bases: &[BaseId],
    st: &mut OracleState,
    now_ms: u64,
    out: &mut Vec<Violation>,
) {
    let resolved = &st.rpc_resolved;
    let restarts = &st.base_restart_ms;
    let mut stalled: Vec<(u64, u64, u8)> = Vec::new();
    st.rpc_issued.retain(|&(issue_ms, req, base)| {
        if resolved.contains(&req) {
            return false; // resolved: drop, keeping the ledger bounded
        }
        let Some(&b) = bases.get(usize::from(base)) else {
            return false;
        };
        if p.base(b).crashed {
            return true; // clock paused until restart
        }
        let clock_start = issue_ms.max(restarts[usize::from(base)]);
        if now_ms.saturating_sub(clock_start) > RPC_RESOLVE_SLACK_MS {
            stalled.push((issue_ms, req, base));
            return false; // report once, not at every later barrier
        }
        true
    });
    for (issue_ms, req, base) in stalled {
        out.push(Violation {
            invariant: "perf.soak-throughput",
            at_ms: now_ms,
            detail: format!(
                "req {req} (base {base}, issued t+{issue_ms}ms) unresolved after \
                 {}ms — retry schedule wedged",
                now_ms - issue_ms
            ),
        });
    }
}

/// `perf.soak-memory`: the RPC layer's long-horizon memory bounds —
/// every server dedup table stays within its FIFO cap and every
/// caller engine's resolved-id memory within [`RESOLVED_MEMORY`].
/// Pure state inspection, sound under any script.
///
/// [`RESOLVED_MEMORY`]: pmp_core::rpc::RESOLVED_MEMORY
fn soak_memory(
    p: &Platform,
    bases: &[BaseId],
    nodes: &[MobId],
    now_ms: u64,
    out: &mut Vec<Violation>,
) {
    for &m in nodes {
        let node = p.node(m);
        let (len, cap) = (node.rpc_server.dedup.len(), node.rpc_server.dedup.cap());
        if len > cap {
            out.push(Violation {
                invariant: "perf.soak-memory",
                at_ms: now_ms,
                detail: format!("{}: dedup table holds {len} entries, cap {cap}", node.name),
            });
        }
    }
    for &b in bases {
        let station = p.base(b);
        if station.crashed {
            continue;
        }
        let len = station.rpc.resolved_len();
        if len > pmp_core::rpc::RESOLVED_MEMORY {
            out.push(Violation {
                invariant: "perf.soak-memory",
                at_ms: now_ms,
                detail: format!(
                    "{}: resolved FIFO holds {len} ids, cap {}",
                    station.name,
                    pmp_core::rpc::RESOLVED_MEMORY
                ),
            });
        }
    }
}

/// Wall-clock ceiling for the `perf.adapt-p99` oracle: verify and
/// weave are microsecond-scale operations, so a p99 past a quarter
/// second means the platform is pathologically slow, not merely a
/// noisy host.
const ADAPT_P99_CEILING_NS: u64 = 250_000_000;

/// `perf.adapt-p99`: the 99th-percentile wall-clock latency of the
/// receiver's verify and weave stages stays under a deliberately
/// generous ceiling. Unlike every other oracle this reads real time,
/// so the executor excludes `perf.*` breaches from the cross-driver
/// violation comparison.
fn adapt_latency_slo(p: &Platform, now_ms: u64, out: &mut Vec<Violation>) {
    for name in ["midas.receiver.verify_ns", "midas.receiver.weave_ns"] {
        let sample = p.telemetry().with(|t| {
            t.registry
                .histogram_by_name(name)
                .map(|h| (h.count(), h.p99()))
        });
        if let Some((count, p99)) = sample {
            if count > 0 && p99 > ADAPT_P99_CEILING_NS {
                out.push(Violation {
                    invariant: "perf.adapt-p99",
                    at_ms: now_ms,
                    detail: format!(
                        "{name}: p99 {}µs over {} samples exceeds {}ms ceiling",
                        p99 / 1_000,
                        count,
                        ADAPT_P99_CEILING_NS / 1_000_000
                    ),
                });
            }
        }
    }
}

/// `trace.ring-growth`: tracing memory is strictly bounded — every
/// flight ring holds at most its capacity and the collector never
/// retains more spans than its cap. A breach means the eviction logic
/// regressed and tracing could grow without bound on a long run.
fn ring_growth(p: &Platform, now_ms: u64, out: &mut Vec<Violation>) {
    for (node, len, cap) in p.flight_stats() {
        if len > cap {
            out.push(Violation {
                invariant: "trace.ring-growth",
                at_ms: now_ms,
                detail: format!("node {node}: flight ring holds {len} entries, cap {cap}"),
            });
        }
    }
    let (retained, cap) = p.collector_stats();
    if retained > cap {
        out.push(Violation {
            invariant: "trace.ring-growth",
            at_ms: now_ms,
            detail: format!("collector retains {retained} spans, cap {cap}"),
        });
    }
}

/// `lease-liveness`: every installed extension's lease deadline is in
/// the recent past at worst — the sweep must have removed anything
/// older than deadline + sweep period + slack.
fn lease_liveness(p: &Platform, nodes: &[MobId], now_ms: u64, out: &mut Vec<Violation>) {
    let now_ns = p.now().0;
    for &m in nodes {
        let node = p.node(m);
        let sweep_ns = node.receiver.sweep_interval_ns();
        for (ext_id, deadline_ns) in node.receiver.lease_deadlines() {
            let limit = deadline_ns + sweep_ns + OBS_SLACK_MS * 1_000_000;
            if now_ns > limit {
                out.push(Violation {
                    invariant: "lease-liveness",
                    at_ms: now_ms,
                    detail: format!(
                        "{}: {ext_id} still installed {}ms past its lease deadline",
                        node.name,
                        (now_ns - deadline_ns) / 1_000_000
                    ),
                });
            }
        }
    }
}

/// Whether some live, unpartitioned base covers the node's position.
fn covered(p: &Platform, bases: &[BaseId], node_idx: usize, m: MobId, st: &OracleState) -> bool {
    let sim_node = p.sim.node(p.node(m).node);
    if !sim_node.online {
        return false;
    }
    let (nx, ny) = (sim_node.pos.x, sim_node.pos.y);
    bases.iter().enumerate().any(|(j, &b)| {
        let station = p.base(b);
        if station.crashed {
            return false;
        }
        if st.partitions.contains(&(node_idx as u8, j as u8)) {
            return false;
        }
        let bpos = p.sim.node(station.node).pos;
        let (dx, dy) = (bpos.x - nx, bpos.y - ny);
        (dx * dx + dy * dy).sqrt() <= RADIO_RANGE
    })
}

/// `departure`: once a node has been out of coverage longer than a full
/// lease plus renewal/sweep slack, nothing may remain installed — the
/// paper's "immediately withdrawn from the system" on departure.
fn departure_revocation(
    p: &Platform,
    bases: &[BaseId],
    nodes: &[MobId],
    st: &mut OracleState,
    now_ms: u64,
    out: &mut Vec<Violation>,
) {
    for (i, &m) in nodes.iter().enumerate() {
        if covered(p, bases, i, m, st) {
            st.uncovered_since[i] = None;
            continue;
        }
        let since = *st.uncovered_since[i].get_or_insert(now_ms);
        let uncovered_for = now_ms - since;
        let limit = st.lease_ms + SWEEP_SLACK_MS + DEPART_SLACK_MS;
        if uncovered_for > limit {
            let installed = p.node(m).receiver.installed_ids();
            if !installed.is_empty() {
                out.push(Violation {
                    invariant: "departure",
                    at_ms: now_ms,
                    detail: format!(
                        "{}: uncovered for {uncovered_for}ms but still holds {installed:?}",
                        p.node(m).name
                    ),
                });
            }
        }
    }
}

/// `conservation`: the telemetry counters and the live state agree —
/// `midas.receiver.installed − midas.receiver.removed` equals the sum
/// of currently-installed extensions over all nodes. Every install and
/// removal path counts exactly once (upgrades count one of each), so
/// any drift means a lost or double-counted transition.
fn conservation(p: &Platform, nodes: &[MobId], now_ms: u64, out: &mut Vec<Violation>) {
    let t = p.telemetry();
    let installed = t.counter_value("midas.receiver.installed");
    let removed = t.counter_value("midas.receiver.removed");
    let live: u64 = nodes
        .iter()
        .map(|&m| p.node(m).receiver.installed_ids().len() as u64)
        .sum();
    if installed != removed + live {
        out.push(Violation {
            invariant: "conservation",
            at_ms: now_ms,
            detail: format!(
                "installed={installed} removed={removed} but Σ live installs={live}"
            ),
        });
    }
}

/// `grant-catalog`: a base never tracks a grant for an extension it
/// cannot serve — its own catalog, or a foreign package adopted with a
/// roaming handoff. Revocation strips grants from every adapted entry
/// atomically, and WAL replay reproduces that.
fn grant_catalog(p: &Platform, bases: &[BaseId], now_ms: u64, out: &mut Vec<Violation>) {
    for &b in bases {
        let station = p.base(b);
        if station.crashed {
            continue;
        }
        let mut served: BTreeSet<String> = station.base.catalog.ids().into_iter().collect();
        served.extend(station.base.foreign_ids());
        for (name, (_, _, grants)) in station.base.lease_table() {
            for ext_id in grants.keys() {
                if !served.contains(ext_id) {
                    out.push(Violation {
                        invariant: "grant-catalog",
                        at_ms: now_ms,
                        detail: format!(
                            "{}: grant for {ext_id} held by {name} but not in catalog/foreign {served:?}",
                            station.name
                        ),
                    });
                }
            }
        }
    }
}

/// `grant-survives-handoff`: when a node's installed extension changes
/// lease holder between two *federated* bases, the move must be a
/// grant migration, not a remove-and-redeliver — the install count for
/// that extension must not grow across the handoff (same version, no
/// upgrade in flight). Only sound on a loss-free radio with no
/// partitions touching the node: a dropped `GrantTransfer` degrades to
/// legitimate redelivery.
fn grant_survives_handoff(
    p: &Platform,
    bases: &[BaseId],
    nodes: &[MobId],
    st: &mut OracleState,
    now_ms: u64,
    out: &mut Vec<Violation>,
) {
    if !st.loss_free || st.fed_pairs.is_empty() {
        return;
    }
    let base_idx_of = |node: u32| -> Option<u8> {
        bases
            .iter()
            .position(|&b| p.base(b).node.0 == node)
            .map(|i| i as u8)
    };
    for (i, &m) in nodes.iter().enumerate() {
        let node = p.node(m);
        let quarantined = st.partitions.iter().any(|&(n, _)| usize::from(n) == i);
        // Install count + latest version per extension, from the
        // receiver's accumulated event log (chaos never drains it).
        let mut installs: BTreeMap<String, (u64, u32)> = BTreeMap::new();
        for e in &node.events {
            if let ReceiverEvent::Installed {
                ext_id, version, ..
            } = e
            {
                let ent = installs.entry(ext_id.clone()).or_insert((0, 0));
                ent.0 += 1;
                ent.1 = *version;
            }
        }
        let mut next: BTreeMap<String, (u32, u64, u32)> = BTreeMap::new();
        for ext_id in node.receiver.installed_ids() {
            let Some(holder) = node.receiver.lease_holder(&ext_id) else {
                continue;
            };
            let (count, ver) = installs.get(&ext_id).copied().unwrap_or((0, 0));
            if let Some(&(old_holder, old_count, old_ver)) =
                st.grant_state[i].get(&ext_id)
            {
                let (Some(from), Some(to)) =
                    (base_idx_of(old_holder), base_idx_of(holder.0))
                else {
                    next.insert(ext_id, (holder.0, count, ver));
                    continue;
                };
                let pair = (from.min(to), from.max(to));
                let migratable = from != to
                    && st.fed_pairs.contains(&pair)
                    && !st.base_partitions.contains(&pair)
                    && !p.base(bases[usize::from(from)]).crashed
                    && !p.base(bases[usize::from(to)]).crashed
                    && !quarantined;
                if migratable && count > old_count && ver == old_ver {
                    out.push(Violation {
                        invariant: "grant-survives-handoff",
                        at_ms: now_ms,
                        detail: format!(
                            "{}: {ext_id} moved base {from} -> {to} (federated) by \
                             redelivery ({old_count} -> {count} installs) instead of \
                             grant migration",
                            node.name
                        ),
                    });
                }
            }
            next.insert(ext_id, (holder.0, count, ver));
        }
        st.grant_state[i] = next;
    }
}
