//! The platform: owns the simulated world and drives every node's
//! protocol stacks — the glue that turns the substrate crates into the
//! paper's running system.

use crate::driver::{flush_outbox, CellBody, CellId, Cells, Driver, NodeCell};
use crate::node::{BaseStation, MobileNode};
use crate::wiring::RPC_CHANNEL;
use pmp_durable::WalRecord;
use pmp_midas::ReceiverPolicy;
use pmp_net::{AreaId, Epoch, NetCmd, NodeId, Position, SimTime, Simulator};
use pmp_stream::{StreamConfig, StreamEvent, StreamHub, StreamSource, StreamStats, SubscriberId};
use pmp_telemetry::{PendingEvent, Stopwatch};
use pmp_vm::perm::Permissions;
use pmp_vm::prelude::VmError;
use std::sync::{Arc, Mutex};

/// Index of a base station within a [`Platform`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaseId(pub usize);

/// Index of a mobile node within a [`Platform`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MobId(pub usize);

/// Handle naming one stream subscription: a cursor on one base's
/// fan-out hub (see [`Platform::subscribe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSub {
    base: usize,
    id: SubscriberId,
}

/// [`StreamSource`] over one base station: the committed WAL serves
/// tier-1 gap bootstrap, the live durable states serve tier-2
/// snapshots. Valid at barriers, where in-memory state and committed
/// log agree.
struct BaseSource<'a> {
    station: &'a BaseStation,
}

impl StreamSource for BaseSource<'_> {
    fn full_log(&self) -> Option<Vec<WalRecord>> {
        self.station.durable.wal_tail(1)
    }

    fn snapshot(&self, ns: &str) -> Option<Vec<u8>> {
        let store = self
            .station
            .stores()
            .into_iter()
            .find(|s| s.namespace() == ns)?;
        Some(store.snapshot_bytes())
    }
}

/// A completed remote call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcOutcome {
    /// The request id returned by [`Platform::rpc`].
    pub req: u64,
    /// Whether the call completed normally.
    pub ok: bool,
    /// Display form of the result (or the error text).
    pub value: String,
    /// Simulated time the outcome was observed at the caller's base.
    /// Outcomes merge at the epoch barrier sorted by `(at, req)`, so
    /// their order is a pure function of the simulation — not of which
    /// driver or thread count ran the cells.
    pub at: u64,
}

/// The proactive middleware platform over one simulated world.
///
/// # Examples
///
/// ```
/// use pmp_core::{Platform};
/// use pmp_net::Position;
/// use pmp_vm::perm::Permissions;
///
/// # fn main() -> Result<(), pmp_vm::VmError> {
/// let mut p = Platform::new(7);
/// p.add_area("hall-a", Position::new(0.0, 0.0), Position::new(60.0, 60.0));
/// let base = p.add_base("hall-a", Position::new(30.0, 30.0), 80.0);
/// let policy = p.trusting_policy(&[base], Permissions::all());
/// let robot = p.add_robot("robot:1:1", Position::new(40.0, 30.0), 80.0, policy)?;
/// p.pump_millis(3_000);
/// assert!(p.node(robot).name == "robot:1:1");
/// # Ok(())
/// # }
/// ```
pub struct Platform {
    /// The simulated world.
    pub sim: Simulator,
    bases: Vec<BaseStation>,
    nodes: Vec<MobileNode>,
    /// Per-cell runtime state, parallel to `bases` / `nodes`, and the
    /// barrier's lists of the cells that buffered something.
    cells: Cells,
    /// Per simulator node (indexed by `NodeId.0`), the cell that runs it.
    cell_of: Vec<Option<CellId>>,
    /// The epoch loop's buffers, reused window after window.
    barrier: Barrier,
    next_req: u64,
    rpc_outcomes: Vec<RpcOutcome>,
    /// Issue time per in-flight request id, for the `rpc.latency_ns`
    /// histogram recorded at outcome merge. Bounded: entries leave on
    /// outcome, and the oldest are shed past a fixed cap (lost
    /// maybe-calls never produce outcomes).
    rpc_issue_at: std::collections::BTreeMap<u64, u64>,
    telemetry: pmp_telemetry::Shared,
    driver: Box<dyn Driver>,
    /// Base-tier span collector, fed from every cell tracer at epoch
    /// barriers (see `pmp-trace`).
    collector: pmp_trace::Collector,
    tracing: bool,
    /// Optimization reports from every publish, in publish order
    /// (`(extension id, report)`).
    opt_reports: Vec<(String, pmp_midas::OptReport)>,
    /// Per-base fan-out hub (parallel to `bases`): every committed WAL
    /// record is published here as a rev-stamped delta at the same
    /// barrier that committed it.
    streams: Vec<StreamHub>,
    /// Per-base commit-tap buffers (parallel to `bases`): the engine's
    /// commit tap pushes each committed batch here under the engine
    /// lock; the platform drains them into the hubs at barriers.
    stream_taps: Vec<Arc<Mutex<Vec<WalRecord>>>>,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("bases", &self.bases.len())
            .field("nodes", &self.nodes.len())
            .field("now", &self.sim.now())
            .field("driver", &self.driver.name())
            .finish()
    }
}

impl Platform {
    /// Creates a platform over a fresh deterministic world.
    pub fn new(seed: u64) -> Platform {
        Self::with_link(seed, pmp_net::LinkModel::default())
    }

    /// Creates a platform with an explicit radio link model (lossy
    /// worlds for failure testing).
    pub fn with_link(seed: u64, link: pmp_net::LinkModel) -> Platform {
        let telemetry = pmp_telemetry::Shared::new();
        let mut sim = Simulator::with_link(seed, link);
        sim.attach_telemetry(&telemetry);
        Platform {
            sim,
            bases: Vec::new(),
            nodes: Vec::new(),
            cells: Cells::default(),
            cell_of: Vec::new(),
            barrier: Barrier::default(),
            next_req: 1,
            rpc_outcomes: Vec::new(),
            rpc_issue_at: std::collections::BTreeMap::new(),
            telemetry,
            driver: crate::driver::driver_from_env(),
            collector: pmp_trace::Collector::default(),
            tracing: false,
            opt_reports: Vec::new(),
            streams: Vec::new(),
            stream_taps: Vec::new(),
        }
    }

    /// Optimization reports of every [`Platform::publish_extension`]
    /// so far, in publish order.
    pub fn opt_reports(&self) -> &[(String, pmp_midas::OptReport)] {
        &self.opt_reports
    }

    /// Turns causal span tracing on or off for every node cell. Off by
    /// default: contexts still travel in the wire envelopes (16 nil
    /// bytes), but no spans are minted and the collector stays empty.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        for cell in self.cells.iter() {
            cell.tracer.set_enabled(on);
        }
    }

    /// Whether span tracing is enabled.
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Installs the epoch driver (serial is the default; `PMP_DRIVER=parallel`
    /// selects the sharded driver at construction). Both drivers run the
    /// same drain → compute → merge pipeline, so digests are identical.
    pub fn set_driver(&mut self, driver: Box<dyn Driver>) {
        self.driver = driver;
    }

    /// The platform-wide telemetry (sim-clocked registry + journal):
    /// the network simulator, every registrar, every extension base,
    /// and every adaptation service record into it. Per-node VM
    /// metrics live in each node's own registry
    /// ([`MobileNode::vm`]'s `telemetry()`).
    pub fn telemetry(&self) -> &pmp_telemetry::Shared {
        // Merge any cell-buffered journal events emitted since the last
        // pump barrier (direct-path operations between pumps).
        self.flush_direct_events();
        &self.telemetry
    }

    /// Renders the platform registry plus every node's VM registry as
    /// one text report — the per-scenario telemetry summary.
    pub fn render_telemetry(&self) -> String {
        self.flush_direct_events();
        let mut out = String::new();
        out.push_str("== platform ==\n");
        out.push_str(&self.telemetry.render_table());
        for n in &self.nodes {
            out.push_str(&format!("== vm {} ==\n", n.name));
            out.push_str(&n.vm.telemetry().render_table());
        }
        out
    }

    /// Adds a rectangular area (production hall).
    pub fn add_area(&mut self, name: &str, min: Position, max: Position) -> AreaId {
        self.sim.add_area(name, min, max)
    }

    /// Adds a base station for `hall` at `pos`; its registrar and
    /// extension base start immediately.
    pub fn add_base(&mut self, hall: &str, pos: Position, range: f64) -> BaseId {
        let node = self.sim.add_node(format!("base:{hall}"), pos, range);
        let id = CellId::Base(self.bases.len());
        let cell = self.cells.new_cell(id, node, self.sim.now(), &self.telemetry);
        let mut station = BaseStation::build(node, hall, format!("seed:{hall}").as_bytes());
        // Engine telemetry goes direct: its journal events (snapshot/
        // compact/recover) are emitted only at main-thread barriers, so
        // both drivers see them at identical sequence points.
        station
            .durable
            .attach_sink(pmp_telemetry::Sink::direct(&self.telemetry));
        // Each append lists the base for the next barrier's commit.
        station.durable.set_append_mark(cell.store_mark.clone());
        station.registrar.attach_sink(cell.sink.clone());
        station.base.attach_sink(cell.sink.clone());
        station.base.attach_tracer(cell.tracer.clone());
        cell.tracer.set_enabled(self.tracing);
        station.start(&mut self.sim);
        // Every committed WAL batch is mirrored into a per-base tap
        // buffer; at the same barrier that ran the commit, the platform
        // drains it into the base's fan-out hub (one rev per record per
        // namespace, encoded once).
        let tap: Arc<Mutex<Vec<WalRecord>>> = Arc::default();
        let sink = Arc::clone(&tap);
        station.durable.set_commit_tap(Box::new(move |batch| {
            sink.lock().unwrap().extend(batch);
        }));
        self.streams.push(StreamHub::new(StreamConfig::default()));
        self.stream_taps.push(tap);
        self.bases.push(station);
        self.cells.bases.push(cell);
        self.note_cell(node, id);
        BaseId(self.bases.len() - 1)
    }

    /// Records which cell runs simulator node `node`.
    fn note_cell(&mut self, node: NodeId, id: CellId) {
        let i = node.0 as usize;
        if self.cell_of.len() <= i {
            self.cell_of.resize(i + 1, None);
        }
        self.cell_of[i] = Some(id);
    }

    /// Kills a base station: its uncommitted WAL batch and unsynced
    /// disk bytes are lost (exactly what a power cut would take), and
    /// until [`Platform::restart_base`] resets its memory the node
    /// answers nothing — traffic addressed to it is dropped.
    pub fn crash_base(&mut self, id: BaseId) {
        let station = &mut self.bases[id.0];
        station.crashed = true;
        station.durable.crash();
        self.telemetry.event(
            pmp_telemetry::Subsystem::Durable,
            "crash",
            format!("base {}", station.name),
        );
    }

    /// Brings a crashed base back in place ([`BaseStation::restart`]):
    /// its memory — registrar table, extension base state, stores, call
    /// table — is recovered from the surviving storage engine, and it
    /// keeps its sinks, tracer, authority, mirrors, federation topology,
    /// lease, scan interval and roam cap. Outstanding calls retry under
    /// the *same* request ids, which the servers' dedup tables make safe
    /// for at-most-once calls; the recovered lease table lets the base
    /// renew grants instead of re-delivering its catalog.
    pub fn restart_base(&mut self, id: BaseId) -> pmp_durable::RecoverReport {
        let station = &mut self.bases[id.0];
        let report = station.restart();
        station.start(&mut self.sim);
        // Replayed records count toward the next checkpoint: the next
        // barrier checks this base.
        self.cells.bases[id.0].store_mark.set();
        // Streams: recovery may have rolled history back (a truncated
        // torn tail, a checkpoint-on-anomaly), so drop anything the tap
        // buffered before the crash, re-align publisher revs with the
        // recovered log, and force every cursor through snapshot
        // resync. Subscribers converge on the recovered state without
        // ever seeing a rev go backwards unannounced.
        self.stream_taps[id.0].lock().unwrap().clear();
        let Platform { bases, streams, .. } = self;
        streams[id.0].rebase(&BaseSource {
            station: &bases[id.0],
        });
        report
    }

    /// Snapshots a base's durable state and compacts its WAL now
    /// (checkpoints also fire automatically once enough records commit;
    /// see [`pmp_durable::EngineConfig::snapshot_every`]).
    pub fn checkpoint_base(&mut self, id: BaseId) {
        self.bases[id.0].checkpoint();
    }

    /// Subscribes to a base's durable namespace from scratch: the first
    /// drain replays the namespace's full history — as deltas when the
    /// ring or committed log still covers it, as one canonical snapshot
    /// otherwise — and every later drain returns exactly the deltas
    /// committed since. Namespaces are the base's durable stores:
    /// `"store.movements"`, `"midas.base"`, `"trace.flight"`,
    /// `"rpc.calls"`.
    pub fn subscribe(&mut self, base: BaseId, ns: &str) -> StreamSub {
        StreamSub {
            base: base.0,
            id: self.streams[base.0].subscribe(ns),
        }
    }

    /// Subscribes at the head: only records committed after this call
    /// are streamed.
    pub fn subscribe_live(&mut self, base: BaseId, ns: &str) -> StreamSub {
        StreamSub {
            base: base.0,
            id: self.streams[base.0].subscribe_live(ns),
        }
    }

    /// Drains a subscription's pending updates. Call between pumps —
    /// publication happens at epoch barriers, so what you get is
    /// exactly the committed record stream up to the last barrier,
    /// byte-identical under either driver. While the base is crashed
    /// this returns nothing (the publisher is powered off with it).
    pub fn drain_updates(&mut self, sub: StreamSub) -> Vec<StreamEvent> {
        let Platform { bases, streams, .. } = self;
        let station = &bases[sub.base];
        if station.crashed {
            return Vec::new();
        }
        streams[sub.base].drain(sub.id, &BaseSource { station })
    }

    /// Retires a subscription; its cursor is freed and later drains
    /// return nothing.
    pub fn drop_subscription(&mut self, sub: StreamSub) {
        self.streams[sub.base].drop_subscriber(sub.id);
    }

    /// Fan-out counters for one base's hub — `encoded` counts each
    /// delta once at publish (independent of subscriber count), while
    /// `delivered` counts every per-subscriber delivery.
    #[must_use]
    pub fn stream_stats(&self, base: BaseId) -> StreamStats {
        self.streams[base.0].stats()
    }

    /// Current head rev of a base's namespace stream.
    #[must_use]
    pub fn stream_head_rev(&self, base: BaseId, ns: &str) -> u64 {
        self.streams[base.0].head_rev(ns)
    }

    /// A receiver policy trusting the given bases' authorities, each
    /// capped at `cap`.
    pub fn trusting_policy(&self, bases: &[BaseId], cap: Permissions) -> ReceiverPolicy {
        let mut policy = ReceiverPolicy::new();
        for b in bases {
            let principal = self.bases[b.0].principal();
            policy.set_signer_cap(principal.name.clone(), cap);
            policy.trust.add(principal);
        }
        policy
    }

    fn add_mobile(
        &mut self,
        name: &str,
        pos: Position,
        range: f64,
        policy: ReceiverPolicy,
        with_robot: bool,
    ) -> Result<MobId, VmError> {
        let node = self.sim.add_node(name, pos, range);
        let id = CellId::Mobile(self.nodes.len());
        // The node's whole stack (VM, robot, receiver events) reads the
        // cell clock, not the global one: during an epoch the cell sees
        // the timestamp of the event it is dispatching, wherever the
        // other cells have got to.
        let cell = self.cells.new_cell(id, node, self.sim.now(), &self.telemetry);
        let mut mobile = MobileNode::build(node, name, policy, cell.clock_fn(), with_robot)?;
        mobile.wiring.outbox.attach_mark(cell.store_mark.clone());
        mobile.receiver.attach_sink(cell.sink.clone());
        mobile.receiver.attach_tracer(cell.tracer.clone());
        cell.tracer.set_enabled(self.tracing);
        mobile.receiver.start(&mut self.sim);
        self.nodes.push(mobile);
        self.cells.mobiles.push(cell);
        self.note_cell(node, id);
        Ok(MobId(self.nodes.len() - 1))
    }

    /// Adds a robot node (plotter hardware + drawing service).
    ///
    /// # Errors
    ///
    /// VM registration failures.
    pub fn add_robot(
        &mut self,
        name: &str,
        pos: Position,
        range: f64,
        policy: ReceiverPolicy,
    ) -> Result<MobId, VmError> {
        self.add_mobile(name, pos, range, policy, true)
    }

    /// Adds a bare mobile node (e.g. a PDA) without robot hardware.
    ///
    /// # Errors
    ///
    /// VM registration failures.
    pub fn add_device(
        &mut self,
        name: &str,
        pos: Position,
        range: f64,
        policy: ReceiverPolicy,
    ) -> Result<MobId, VmError> {
        self.add_mobile(name, pos, range, policy, false)
    }

    /// Immutable base access.
    pub fn base(&self, id: BaseId) -> &BaseStation {
        &self.bases[id.0]
    }

    /// Mutable base access. The caller may append or commit out of
    /// band, so the next barrier looks at this base.
    pub fn base_mut(&mut self, id: BaseId) -> &mut BaseStation {
        self.cells.bases[id.0].store_mark.set();
        &mut self.bases[id.0]
    }

    /// Immutable mobile-node access.
    pub fn node(&self, id: MobId) -> &MobileNode {
        &self.nodes[id.0]
    }

    /// Mutable mobile-node access. The caller may give the node a home
    /// base for data already queued, so the next pump's start looks at
    /// this node's outbox.
    pub fn node_mut(&mut self, id: MobId) -> &mut MobileNode {
        self.cells.mobiles[id.0].store_mark.set();
        &mut self.nodes[id.0]
    }

    /// Moves a mobile node.
    pub fn move_node(&mut self, id: MobId, pos: Position) {
        let node = self.nodes[id.0].node;
        self.sim.move_node(node, pos);
    }

    /// Seals `pkg` with `base`'s authority and adds it to the catalog;
    /// nodes already holding its id receive it as a newer delivery and
    /// upgrade in place
    /// ([`pmp_midas::base::ExtensionBase::update_extension`]).
    pub fn publish_extension(&mut self, base: BaseId, pkg: &pmp_midas::ExtensionPackage) {
        // Weave-time optimization at the base, between admission and
        // shipping: smaller, devirtualised advice bodies go over the
        // air; receivers re-verify whatever arrives.
        let watch = Stopwatch::start();
        let (optimized, report) = pmp_midas::optimize_package(pkg);
        self.telemetry.record_elapsed("analyze.opt.ns", watch);
        self.telemetry
            .record("analyze.opt.removed_ops", report.total_removed() as u64);
        self.telemetry
            .record("analyze.opt.hoistable", report.hoisted.len() as u64);
        self.telemetry.event(
            pmp_telemetry::Subsystem::Midas,
            "analyze.opt",
            format!(
                "{}: -{} ops, {} hoistable, validated {}",
                pkg.meta.id,
                report.total_removed(),
                report.hoisted.len(),
                report.all_validated(),
            ),
        );
        self.opt_reports.push((pkg.meta.id.clone(), report));
        let pkg = &optimized;
        let watch = Stopwatch::start();
        let sealed = self.bases[base.0].seal(pkg);
        self.telemetry.record_elapsed("midas.base.sign_ns", watch);
        self.telemetry.event(
            pmp_telemetry::Subsystem::Midas,
            "midas.sign",
            format!("{} by {}", pkg.meta.id, sealed.signer()),
        );
        // The adaptation's trace roots here: publish → sign, then the
        // base mints one ship child per delivery, the receivers verify/
        // weave children of those, and the first interception closes it.
        let now = self.sim.now().0;
        let tracer = &self.cells.bases[base.0].tracer;
        let root = tracer.root(now, "midas.publish", &pkg.meta.id);
        let sign_ctx = tracer.child(
            root,
            now,
            "midas.sign",
            &format!("{} by {}", pkg.meta.id, sealed.signer()),
        );
        self.bases[base.0]
            .base
            .update_extension_traced(&mut self.sim, sealed, sign_ctx);
    }

    /// Revokes an extension hall-wide: removed from the catalog and
    /// withdrawn from every adapted node.
    pub fn revoke_extension(&mut self, base: BaseId, ext_id: &str, reason: &str) {
        self.bases[base.0]
            .base
            .revoke_extension(&mut self.sim, ext_id, reason);
    }

    /// Makes two bases roaming neighbours (both directions) over a
    /// wired backhaul segment: when a node departs one, the other
    /// receives a handoff record — grants, leases, and (via the driver)
    /// movement history — regardless of radio range (paper §3.2's
    /// roaming algorithm, federated).
    pub fn link_bases(&mut self, a: BaseId, b: BaseId) {
        let (na, nb) = (self.bases[a.0].node, self.bases[b.0].node);
        self.bases[a.0].base.add_neighbor(nb);
        self.bases[b.0].base.add_neighbor(na);
        self.sim.add_wired_link(na, nb);
    }

    /// Makes two bases replicas of each other over a wired backhaul
    /// segment: each base pushes every catalog put it commits to the
    /// other as a `CatalogPush`, and every scan sends the other one
    /// digest of its catalog and lease table. A replica whose view
    /// differs pulls, and the owner pushes the difference: missing or
    /// newer catalog entries, and lease-table entries to shadow in the
    /// replica's roaming cache, so either side can adopt the other's
    /// nodes without re-delivery. A lost push, a partition or a
    /// restart heals at the next digest. Handoffs need
    /// [`Platform::link_bases`] as well (both come with
    /// [`Platform::federate_bases`]).
    pub fn replicate_bases(&mut self, a: BaseId, b: BaseId) {
        let (na, nb) = (self.bases[a.0].node, self.bases[b.0].node);
        self.bases[a.0].base.add_replica(nb);
        self.bases[b.0].base.add_replica(na);
        self.sim.add_wired_link(na, nb);
    }

    /// Full federation between two bases: roaming neighbours *and*
    /// replicas (see [`Platform::link_bases`] and
    /// [`Platform::replicate_bases`]).
    pub fn federate_bases(&mut self, a: BaseId, b: BaseId) {
        self.link_bases(a, b);
        self.replicate_bases(a, b);
    }

    /// Wires `child`'s registrar under `parent`'s in the directory tree
    /// (wired backhaul between them): service lookups entered anywhere
    /// in the tree route hop-by-hop toward whichever registrar holds a
    /// match (see `pmp-discovery`'s directory tier). Every sweep the
    /// child sends the parent the digest of the service types its
    /// subtree reaches; a parent whose routes differ pulls the
    /// difference, so a restarted parent relearns its routes within a
    /// sweep or two.
    pub fn set_directory_parent(&mut self, child: BaseId, parent: BaseId) {
        let (nc, np) = (self.bases[child.0].node, self.bases[parent.0].node);
        self.bases[child.0].registrar.set_parent(np);
        self.sim.add_wired_link(nc, np);
    }

    /// Builds a `branching`-ary registrar tree over every base added so
    /// far (base 0 is the root): the directory tier for federated
    /// lookups. Lookup cost is then O(log_branching(bases)) hops.
    pub fn federate_tree(&mut self, branching: usize) {
        let branching = branching.max(2);
        for i in 1..self.bases.len() {
            let parent = (i - 1) / branching;
            self.set_directory_parent(BaseId(i), BaseId(parent));
        }
    }

    /// Issues a federated service lookup from `base` through its
    /// extension base's discovery client (the base's only one, which
    /// records into the platform telemetry): the query enters the
    /// directory tier at the base's own registrar (loopback) and routes
    /// through the registrar tree. The answer arrives as
    /// [`pmp_discovery::DiscoveryEvent::FedLookupDone`] in
    /// [`Platform::take_discoveries`] after pumping.
    pub fn fed_lookup(&mut self, base: BaseId, query: pmp_discovery::ServiceQuery) -> u64 {
        let station = &mut self.bases[base.0];
        let client = station.base.discovery();
        client.fed_lookup(&mut self.sim, station.node, query)
    }

    /// Drains the answers to the federated lookups issued from `base`:
    /// one [`pmp_discovery::DiscoveryEvent::FedLookupDone`] per answered
    /// [`Platform::fed_lookup`], nothing else.
    pub fn take_discoveries(&mut self, base: BaseId) -> Vec<pmp_discovery::DiscoveryEvent> {
        self.bases[base.0].base.take_fed_lookups()
    }

    /// Registers a service item at `base`'s own registrar (loopback)
    /// through its extension base's discovery client, which renews the
    /// lease, making it reachable from every other base through the
    /// directory tier's federated lookups.
    pub fn register_service(
        &mut self,
        base: BaseId,
        item: pmp_discovery::ServiceItem,
        lease_ns: u64,
    ) -> u64 {
        let station = &mut self.bases[base.0];
        let client = station.base.discovery();
        client.register(&mut self.sim, station.node, item, lease_ns)
    }

    /// Routes movements of `source_robot` (as observed by `base`) to a
    /// replica robot, scaled by `num/den` (paper §4.5 remote
    /// replication).
    pub fn mirror(&mut self, base: BaseId, source_robot: &str, replica: MobId, num: i64, den: i64) {
        assert!(den != 0, "scale denominator must be nonzero");
        let replica_node = self.nodes[replica.0].node;
        self.bases[base.0]
            .mirrors
            .entry(source_robot.to_string())
            .or_default()
            .push((replica_node, num, den));
    }

    /// Issues a remote service call to `target` from `base`'s node
    /// (Fig. 2: the remote invocation of `m_R`) with `Maybe` semantics:
    /// one transmission, no retries. The outcome arrives in
    /// [`Platform::take_rpc_outcomes`] after pumping.
    pub fn rpc(
        &mut self,
        base: BaseId,
        target: MobId,
        caller: &str,
        class: &str,
        method: &str,
        args: Vec<i64>,
    ) -> u64 {
        use crate::rpc::InvocationSemantics::Maybe;
        self.rpc_with(base, target, caller, class, method, args, Maybe)
    }

    /// Issues a remote service call with explicit invocation semantics
    /// (DESIGN.md §17). A `Maybe` call is sent once, as a plain
    /// [`RpcMsg::Call`](crate::RpcMsg::Call). The other two register the call with `base`'s
    /// durable RPC engine, which retransmits on a deterministic
    /// exponential backoff until the first reply or the attempt budget
    /// resolves it.
    #[allow(clippy::too_many_arguments)]
    pub fn rpc_with(
        &mut self,
        base: BaseId,
        target: MobId,
        caller: &str,
        class: &str,
        method: &str,
        args: Vec<i64>,
        sem: crate::rpc::InvocationSemantics,
    ) -> u64 {
        let req = self.next_req;
        self.next_req += 1;
        let from = self.bases[base.0].node;
        let to = self.nodes[target.0].node;
        let now = self.sim.now().0;
        let tracked = sem != crate::rpc::InvocationSemantics::Maybe;
        let detail = if tracked {
            format!("{class}.{method} [{sem}] -> n{}", to.0)
        } else {
            format!("{class}.{method} -> n{}", to.0)
        };
        let ctx = self.cells.bases[base.0]
            .tracer
            .root(now, "rpc.call", &detail);
        let call = crate::rpc::PendingCall {
            target: to.0,
            sem,
            caller: caller.to_string(),
            class: class.to_string(),
            method: method.to_string(),
            args,
            attempts: 1,
            issued_at: now,
        };
        let msg = call.message(req);
        if tracked {
            self.bases[base.0].rpc.issue(req, call);
        }
        self.note_rpc_issue(req);
        self.sim.send(from, to, RPC_CHANNEL, ctx.wrap(&msg));
        if tracked {
            self.bases[base.0].rpc.arm_retry(&mut self.sim, from, req);
        }
        req
    }

    /// Records the issue time of `req` for the `rpc.latency_ns`
    /// histogram, shedding the oldest entries past a fixed cap.
    fn note_rpc_issue(&mut self, req: u64) {
        self.rpc_issue_at.insert(req, self.sim.now().0);
        while self.rpc_issue_at.len() > 4_096 {
            self.rpc_issue_at.pop_first();
        }
    }

    /// Ships an already-sealed extension from `base` to its hall —
    /// the door through which the chaos harness drives *hostile*
    /// packages (tampered signatures, foreign signers) at the MIDAS
    /// admission gate. Normal publishes go through
    /// [`Platform::publish_extension`], which optimizes and seals with
    /// the hall authority.
    pub fn publish_sealed(&mut self, base: BaseId, sealed: pmp_midas::SignedExtension) {
        let Platform { sim, bases, .. } = self;
        bases[base.0].base.update_extension(sim, sealed);
    }

    /// Drains completed remote calls.
    pub fn take_rpc_outcomes(&mut self) -> Vec<RpcOutcome> {
        std::mem::take(&mut self.rpc_outcomes)
    }

    /// Pumps the world for `ns` of simulated time: epoch by epoch, the
    /// scheduler drains every event within the conservative lookahead
    /// window, the active driver runs each busy node cell against its
    /// batch, and the cells' effects merge back at the barrier in
    /// `(time, cell rank, emission seq)` order (DESIGN.md §10).
    pub fn pump(&mut self, ns: u64) {
        let until = self.sim.now().plus(ns);
        // Outboxes may hold data queued by direct VM calls since the
        // last pump; ship it before the first epoch.
        self.preflush_outboxes();
        while self.sim.drain_epoch(until, &mut self.barrier.epoch) {
            self.run_epoch();
        }
        if self.sim.now() < until {
            self.sim.run_until(until);
        }
        // Cells idle until their next event; park their clocks at the
        // global time so direct calls between pumps read current time.
        let now = self.sim.now();
        for cell in self.cells.iter() {
            cell.clock.set(now);
        }
        // Pump end is a quiescent barrier: drain spans minted by direct
        // calls since the last epoch, commit anything appended, and
        // take any snapshot the engine's record budget asks for.
        self.drain_spans_now();
        self.commit_bases(true);
        self.flush_events();
    }

    /// Pumps for `ms` milliseconds of simulated time.
    pub fn pump_millis(&mut self, ms: u64) {
        self.pump(ms * 1_000_000);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Stable 64-bit digest of the simulator's delivery log: its
    /// counters, plus every delivery once
    /// `sim.deliveries.set_logging(true)` is on.
    #[must_use]
    pub fn trace_digest(&self) -> u64 {
        self.sim.trace_digest()
    }

    /// Stable 64-bit digest over the platform journal plus every
    /// node-VM journal — the observable event history of a run.
    #[must_use]
    pub fn journal_digest(&self) -> u64 {
        self.flush_direct_events();
        let mut h = pmp_telemetry::Fnv64::new();
        h.write_u64(self.telemetry.journal_digest());
        h.write_u64(self.nodes.len() as u64);
        for n in &self.nodes {
            h.write_u64(n.vm.telemetry().journal.digest());
        }
        h.finish()
    }

    /// Flushes the outbox of every mobile node that has data queued,
    /// through its cell port at the current time (rank order, so the
    /// merge stays deterministic).
    fn preflush_outboxes(&mut self) {
        let Platform {
            sim,
            nodes,
            cells,
            barrier,
            ..
        } = self;
        cells.dirty.outboxes.take(&mut barrier.keys);
        let now = sim.now();
        for &key in &barrier.keys {
            let CellId::Mobile(i) = CellId::from_key(key) else {
                continue;
            };
            let cell = &mut cells.mobiles[i];
            cell.clock.set(now);
            flush_outbox(&mut nodes[i], &mut cell.port);
            cell.port.drain_into(&mut barrier.cmds);
        }
        sim.apply_cmds(barrier.cmds.drain(..));
    }

    /// Runs the epoch in `self.barrier.epoch`: batch routing → driver
    /// compute → barrier merge. An epoch in which no cell computed
    /// (only moves, or traffic to a crashed base) has no barrier.
    fn run_epoch(&mut self) {
        if self.compute_epoch() {
            // Spans drain in rank order (bases first) into the collector
            // and each node's flight ring; a base's is durable, so its
            // spans land before the commit below and ride the same group
            // fsync.
            self.drain_spans_now();
            self.commit_bases(false);
            self.flush_events();
        }
    }

    /// Routes the epoch's batches to their cells, runs the cells, and
    /// merges their network commands and RPC outcomes. Returns whether
    /// any cell ran.
    fn compute_epoch(&mut self) -> bool {
        let Platform {
            sim,
            bases,
            nodes,
            cells,
            cell_of,
            barrier,
            rpc_outcomes,
            rpc_issue_at,
            telemetry,
            driver,
            ..
        } = self;

        // Route each busy destination's batch to its cell, bases first —
        // rank order fixes the merge order below. The busy list is in
        // node order, so within bases (and within mobiles) indices only
        // grow, and skipping along each slice's iterator reaches a cell
        // in O(1) without touching the idle ones.
        let mut busy: Vec<NodeCell<'_>> = Vec::with_capacity(barrier.epoch.busy.len());
        let mut listed_bases = 0;
        let (mut stations, mut base_states) = (bases.iter_mut(), cells.bases.iter_mut());
        let (mut mobiles, mut mobile_states) = (nodes.iter_mut(), cells.mobiles.iter_mut());
        let (mut next_base, mut next_mobile) = (0, 0);
        for (node, batch) in &mut barrier.epoch.busy {
            match cell_of.get(node.0 as usize).copied().flatten() {
                Some(CellId::Base(i)) => {
                    let skip = i - next_base;
                    next_base = i + 1;
                    let station = stations.nth(skip).expect("a listed base exists");
                    let state = base_states.nth(skip).expect("every base has a cell");
                    // A crashed base is a powered-off machine: traffic
                    // addressed to it is taken off the wire and dropped.
                    if !station.crashed {
                        let body = CellBody::Base(station);
                        busy.insert(listed_bases, NodeCell { body, state, batch });
                        listed_bases += 1;
                    }
                }
                Some(CellId::Mobile(i)) => {
                    let skip = i - next_mobile;
                    next_mobile = i + 1;
                    let node = mobiles.nth(skip).expect("a listed mobile exists");
                    let state = mobile_states.nth(skip).expect("every mobile has a cell");
                    let body = CellBody::Mobile(node);
                    busy.push(NodeCell { body, state, batch });
                }
                None => debug_assert!(
                    false,
                    "epoch event addressed to a node the platform does not manage"
                ),
            }
        }
        if busy.is_empty() {
            return false;
        }

        driver.compute(&mut busy);

        // Barrier merge. Network commands: concatenating per-cell
        // buffers in rank order and stable-sorting by time yields
        // (time, rank, seq) — exactly the order a serial sweep over the
        // window would have produced. Link randomness (loss, jitter) is
        // sampled here, on this thread, so it cannot depend on the
        // driver's scheduling.
        let Barrier { cmds, outcomes, .. } = barrier;
        for cell in &mut busy {
            cell.state.port.drain_into(cmds);
            outcomes.append(&mut cell.state.rpc);
        }
        drop(busy);
        cmds.sort_by_key(NetCmd::at);
        sim.apply_cmds(cmds.drain(..));
        // RPC outcomes: merged sorted by (observation time, request
        // id). Epochs are disjoint time windows, so per-epoch sorting
        // keeps the accumulated vector globally ordered — and the
        // order is driver-invariant, where the old rank-order append
        // depended on which cell held each outcome.
        outcomes.sort_by_key(|o| (o.at, o.req));
        for o in outcomes.iter() {
            if let Some(issued) = rpc_issue_at.remove(&o.req) {
                // Only successful calls feed the latency histogram: a
                // timeout outcome lands at the end of the full backoff
                // schedule (seconds), which is a delivery fact, not a
                // latency sample — it would drown the p99 the soak SLO
                // oracle watches.
                if o.ok {
                    telemetry.record("rpc.latency_ns", o.at.saturating_sub(issued));
                }
            }
        }
        rpc_outcomes.append(outcomes);
        true
    }

    /// Group-commits the WAL of each live base that appended since the
    /// last barrier — one simulated fsync per base per barrier, and the
    /// same batch boundaries under either driver — then publishes the
    /// freshly committed batches to each base's fan-out hub, on this
    /// thread and in rank order, so streams are identical under either
    /// driver. At a pump's end it also takes any snapshot the record
    /// budget asks for, of each base a barrier of the pump looked at.
    fn commit_bases(&mut self, pump_end: bool) {
        let Platform {
            bases,
            cells,
            barrier,
            streams,
            stream_taps,
            telemetry,
            ..
        } = self;
        let Barrier {
            keys, committed, ..
        } = barrier;
        cells.dirty.wal.take(keys);
        if pump_end {
            keys.extend(committed.drain(..).map(|i| CellId::Base(i).key()));
            keys.sort_unstable();
            keys.dedup();
        }
        for &key in keys.iter() {
            let CellId::Base(i) = CellId::from_key(key) else {
                continue;
            };
            let station = &mut bases[i];
            if station.crashed {
                continue;
            }
            station.durable.commit();
            if pump_end {
                if station.durable.should_checkpoint() {
                    station.checkpoint();
                }
            } else if !committed.contains(&i) {
                committed.push(i);
            }
        }
        for &key in keys.iter() {
            let CellId::Base(i) = CellId::from_key(key) else {
                continue;
            };
            if bases[i].crashed {
                // Committed-but-unpublished records of a crashed base
                // stay in the tap until the restart rebase reconciles
                // them.
                continue;
            }
            let batch = std::mem::take(&mut *stream_taps[i].lock().unwrap());
            if !batch.is_empty() {
                telemetry.add("stream.delta.encoded", batch.len() as u64);
                streams[i].publish_batch(&batch);
            }
        }
    }

    /// Merges the journal events the cells buffered into the shared
    /// journal (see [`flush_cell_events`]), with the barrier's buffers.
    fn flush_events(&mut self) {
        let Barrier { keys, events, .. } = &mut self.barrier;
        flush_cell_events(&self.telemetry, &self.cells, keys, events);
    }

    /// [`Platform::flush_events`] for the read-only accessors: direct
    /// calls between pumps may have buffered events.
    fn flush_direct_events(&self) {
        flush_cell_events(&self.telemetry, &self.cells, &mut Vec::new(), &mut Vec::new());
    }

    /// Drains the tracers that minted spans into the collector (the
    /// same thing epoch barriers do; needed before reading traces when
    /// spans were minted by direct calls since the last pump).
    fn drain_spans_now(&mut self) {
        let Platform {
            bases,
            nodes,
            cells,
            collector,
            barrier,
            ..
        } = self;
        drain_spans(collector, bases, nodes, cells, &mut barrier.keys);
    }

    /// The span collector (drained up to date). Trace ids, trees, and
    /// critical paths read off this.
    pub fn collector(&mut self) -> &pmp_trace::Collector {
        self.drain_spans_now();
        &self.collector
    }

    /// Stable order-independent digest over every retained span — the
    /// cross-driver trace-equality check.
    #[must_use]
    pub fn span_digest(&mut self) -> u64 {
        self.drain_spans_now();
        self.collector.digest()
    }

    /// One trace rendered as an indented tree.
    #[must_use]
    pub fn render_trace(&mut self, trace_id: u64) -> String {
        self.drain_spans_now();
        self.collector.render_tree(trace_id)
    }

    /// Every retained trace rendered as an indented tree, in trace-id
    /// order (canonical — no map-iteration order leaks in).
    #[must_use]
    pub fn render_traces(&mut self) -> String {
        self.drain_spans_now();
        let mut out = String::new();
        for id in self.collector.trace_ids() {
            out.push_str(&self.collector.render_tree(id));
        }
        out
    }

    /// One trace's critical path with per-hop latencies.
    #[must_use]
    pub fn render_critical_path(&mut self, trace_id: u64) -> String {
        self.drain_spans_now();
        self.collector.render_critical_path(trace_id)
    }

    /// Every node's one flight ring, `(node id, ring)`, in rank order:
    /// bases then mobiles.
    fn flight_rings(&self) -> impl Iterator<Item = (u32, &pmp_trace::FlightRecorder)> {
        let bases = self.bases.iter().map(|b| (b.node.0, &b.flight));
        bases.chain(self.nodes.iter().map(|n| (n.node.0, &n.flight)))
    }

    /// Every node's flight ring, `(node id, entries oldest first)` —
    /// bases (their durable rings) then mobiles, in rank order. This is
    /// what chaos `.repro` artifacts attach.
    #[must_use]
    pub fn flight_dump(&mut self) -> Vec<(u32, Vec<pmp_trace::FlightEntry>)> {
        self.drain_spans_now();
        self.flight_rings()
            .map(|(node, ring)| (node, ring.snapshot()))
            .collect()
    }

    /// Per-node `(node id, retained, capacity)` of every flight ring —
    /// the ring-growth oracle's raw numbers.
    #[must_use]
    pub fn flight_stats(&self) -> Vec<(u32, usize, usize)> {
        self.flight_rings()
            .map(|(node, ring)| (node, ring.len(), ring.cap()))
            .collect()
    }

    /// `(retained spans, cap)` of the collector.
    #[must_use]
    pub fn collector_stats(&self) -> (usize, usize) {
        (self.collector.retained(), self.collector.cap())
    }
}

/// What the serial barrier reuses from epoch to epoch: the epoch buffer
/// the scheduler refills, the merge vectors, and the bases the current
/// pump's barriers committed.
#[derive(Debug, Default)]
struct Barrier {
    epoch: Epoch,
    cmds: Vec<NetCmd>,
    outcomes: Vec<RpcOutcome>,
    events: Vec<PendingEvent>,
    /// Keys taken from a dirty list.
    keys: Vec<u64>,
    /// Bases an epoch barrier of the current pump looked at: the pump's
    /// end checks their checkpoint budget.
    committed: Vec<usize>,
}

/// Drains the tracers that minted spans in rank order (bases first,
/// then mobiles) into the collector, copying each node's spans into its
/// flight ring on the way (a base's as one durable batch; a crashed
/// base's are lost with it).
fn drain_spans(
    collector: &mut pmp_trace::Collector,
    bases: &mut [BaseStation],
    nodes: &mut [MobileNode],
    cells: &Cells,
    keys: &mut Vec<u64>,
) {
    use pmp_trace::FlightEntry;
    cells.dirty.spans.take(keys);
    for &key in keys.iter() {
        let id = CellId::from_key(key);
        let spans = cells.get(id).tracer.drain();
        match id {
            CellId::Base(i) => {
                let station = &mut bases[i];
                if !station.crashed && !spans.is_empty() {
                    let entries = spans.iter().cloned().map(FlightEntry::Span).collect();
                    station.note_flight_batch(entries);
                }
            }
            CellId::Mobile(i) => {
                for span in &spans {
                    nodes[i].flight.record(FlightEntry::Span(span.clone()));
                }
            }
        }
        collector.absorb(spans);
    }
}

/// Merges the journal events of the cells whose sinks buffered one into
/// the shared journal in `(time, cell rank, emission seq)` order.
fn flush_cell_events(
    telemetry: &pmp_telemetry::Shared,
    cells: &Cells,
    keys: &mut Vec<u64>,
    pending: &mut Vec<PendingEvent>,
) {
    cells.dirty.events.take(keys);
    for &key in keys.iter() {
        cells.get(CellId::from_key(key)).sink.drain_pending_into(pending);
    }
    if pending.is_empty() {
        return;
    }
    // Stable sort: within one timestamp, rank/emission order survives.
    pending.sort_by_key(|e| e.at);
    telemetry.with(|t| {
        for e in pending.drain(..) {
            t.journal.event_at(e.at, e.subsystem, e.name, e.detail);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_vm::perm::Permissions;

    /// A direct call between pumps mints spans and buffers a journal
    /// event on a base's cell; the first epoch of the next pump, run by
    /// hand here, leaves that cell idle. Its barrier must still drain
    /// both: a barrier that visited only busy cells would lose them.
    #[test]
    fn a_direct_call_on_an_idle_cell_drains_at_the_next_barrier() {
        let mut p = Platform::new(7);
        p.set_tracing(true);
        p.add_area("hall-a", Position::new(0.0, 0.0), Position::new(60.0, 60.0));
        let base = p.add_base("hall-a", Position::new(30.0, 30.0), 80.0);
        let policy = p.trusting_policy(&[base], Permissions::all());
        p.add_robot("robot:1:1", Position::new(40.0, 30.0), 80.0, policy)
            .unwrap();
        p.publish_extension(base, &pmp_extensions::monitoring::package(1));
        p.pump_millis(3_250);
        let ships = |p: &Platform| {
            p.telemetry
                .with(|t| t.journal.events().filter(|e| e.name == "midas.ship").count())
        };
        let flight_spans = |p: &Platform, name: &str| {
            p.bases[base.0]
                .flight
                .snapshot()
                .iter()
                .filter(|e| matches!(e, pmp_trace::FlightEntry::Span(s) if s.name == name))
                .count()
        };
        let (ships_before, publishes_before) = (ships(&p), flight_spans(&p, "midas.publish"));
        let spans_before = p.collector.retained();

        // The update ships to the adapted robot: a root, a sign and a
        // ship span on the base's tracer, and a `midas.ship` event in
        // its cell sink.
        p.publish_extension(base, &pmp_extensions::monitoring::package(2));
        let until = p.now().plus(1_000_000_000);
        p.preflush_outboxes();
        assert!(p.sim.drain_epoch(until, &mut p.barrier.epoch));
        let base_node = p.bases[base.0].node;
        assert!(
            p.barrier.epoch.busy.iter().all(|(node, _)| *node != base_node),
            "the base is idle in the epoch"
        );
        p.run_epoch();

        assert_eq!(ships(&p), ships_before + 1, "the event reached the journal");
        assert!(p.collector.retained() >= spans_before + 3, "the spans reached the collector");
        assert_eq!(
            flight_spans(&p, "midas.publish"),
            publishes_before + 1,
            "the spans reached the base's flight ring"
        );
    }
}
