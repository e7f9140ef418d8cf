//! The extension base: discovers adaptation services, distributes
//! signed extensions, keeps their leases alive, revokes and replaces
//! them, and hands roaming nodes off to neighbour bases (paper §3.2).

use crate::catalog::Catalog;
use crate::durable::BaseWalOp;
use crate::package::SignedExtension;
use crate::proto::{MidasMsg, ACK_RELEASED, ACK_UNKNOWN_GRANT, CHANNEL};
use pmp_discovery::{
    inventory, Diff, DiscoveryClient, DiscoveryEvent, Inventory, ServiceItem, ServiceQuery,
};
use pmp_durable::{DurableHub, Store};
use pmp_net::{Incoming, NetPort, NodeId};
use pmp_telemetry::{Fnv64, Sink, Subsystem};
use pmp_trace::{TraceCtx, Traced, Tracer};
use std::collections::BTreeMap;

const SCAN_TAG: &str = "midas.scan";

/// Events surfaced by the base to its host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaseEvent {
    /// A new adaptation service appeared; the catalog was delivered.
    NodeDiscovered {
        /// The node's advertised name.
        node_name: String,
        /// Number of extensions sent.
        delivered: usize,
    },
    /// A receiver acknowledged an installation.
    InstallAck {
        /// The node's name (if known).
        node_name: String,
        /// The extension.
        ext_id: String,
        /// Success flag.
        ok: bool,
        /// Failure reason when `ok` is false.
        reason: String,
    },
    /// An adapted node stopped appearing in lookups (left the area).
    NodeDeparted {
        /// The node's name.
        node_name: String,
    },
    /// A neighbour base told us one of its nodes roamed away.
    HandoffReceived {
        /// The roaming node's name.
        node_name: String,
        /// Extensions it held at the neighbour.
        ext_ids: Vec<String>,
    },
    /// A roaming node arrived with a migratable handoff record: its
    /// grants were rebound in place (zero re-`Deliver` messages for the
    /// roamed set) and only catalog entries it lacked were delivered.
    NodeMigrated {
        /// The node's name.
        node_name: String,
        /// Grants rebound via [`MidasMsg::GrantTransfer`].
        rebound: usize,
        /// Local catalog entries it did not hold, delivered normally.
        delivered: usize,
    },
    /// A peer base exported a departed node's movement history; the
    /// host should merge the records into its context store.
    MovementImport {
        /// The node's name.
        node_name: String,
        /// Opaque store records in arrival order.
        records: Vec<Vec<u8>>,
    },
}

/// One roaming node's migrated state, received from a peer base.
#[derive(Debug, Clone, PartialEq)]
pub struct RoamEntry {
    /// Network id of the base that sent the handoff.
    pub from: u32,
    /// Extension id → the grant the node held at that base.
    pub grants: BTreeMap<String, u64>,
    /// Signed packages behind those grants.
    pub exts: Vec<SignedExtension>,
    /// FIFO admission sequence, for capacity eviction.
    pub seq: u64,
}

#[derive(Debug)]
pub(crate) struct AdaptedNode {
    pub(crate) node: NodeId,
    pub(crate) grants: BTreeMap<String, u64>,
    pub(crate) present: bool,
}

/// The extension-base state machine. Drive it by passing every
/// [`Incoming`] of its host node to [`ExtensionBase::handle`].
#[derive(Debug)]
pub struct ExtensionBase {
    node: NodeId,
    registrar: NodeId,
    discovery: DiscoveryClient,
    /// The catalog of extensions this base distributes.
    pub catalog: Catalog,
    lease_ns: u64,
    scan_interval_ns: u64,
    pub(crate) adapted: BTreeMap<String, AdaptedNode>,
    neighbors: Vec<NodeId>,
    pub(crate) next_grant: u64,
    pending_scan: Option<u64>,
    scan_token: Option<u64>,
    started: bool,
    events: Vec<BaseEvent>,
    /// Roaming records received from peer bases, bounded by
    /// [`ExtensionBase::set_roam_cap`]; entries are evicted FIFO at
    /// capacity and dropped when the node is adopted or re-registers.
    pub roaming_cache: BTreeMap<String, RoamEntry>,
    /// Next FIFO sequence for roaming admissions.
    pub(crate) roam_seq: u64,
    roam_cap: usize,
    /// Packages adopted from handoffs that are not part of this base's
    /// own catalog: needed for renewal-failure redelivery and onward
    /// handoffs, but never delivered to newcomers.
    pub(crate) foreign: BTreeMap<String, SignedExtension>,
    /// Peer bases receiving catalog pushes and, every scan, the digest
    /// of this base's catalog and lease table.
    replicas: Vec<NodeId>,
    /// This base's view of each replica's lease table, keyed by the
    /// replica's network id: what its lease pushes put here. Memory
    /// only, so a restart empties it and the next digest refills it.
    lease_views: BTreeMap<u32, Inventory>,
    telemetry: Sink,
    durable: Option<DurableHub>,
    tracer: Tracer,
    /// Root context of the publish that last put each extension in the
    /// catalog, so every later ship of it (catalog delivery, dependency
    /// request, redelivery) joins the same adaptation span tree.
    publish_ctx: BTreeMap<String, TraceCtx>,
    /// Answers to the host's federated lookups, until drained.
    fed_lookups: Vec<DiscoveryEvent>,
}

impl ExtensionBase {
    /// Creates a base on `node` that polls the registrar at
    /// `registrar` (usually the same node).
    pub fn new(node: NodeId, registrar: NodeId) -> Self {
        Self {
            node,
            registrar,
            discovery: DiscoveryClient::new(node),
            catalog: Catalog::new(),
            lease_ns: 4_000_000_000,      // 4 s extension leases
            scan_interval_ns: 1_000_000_000, // 1 s scan
            adapted: BTreeMap::new(),
            neighbors: Vec::new(),
            next_grant: 1,
            pending_scan: None,
            scan_token: None,
            started: false,
            events: Vec::new(),
            roaming_cache: BTreeMap::new(),
            roam_seq: 0,
            roam_cap: 64,
            foreign: BTreeMap::new(),
            replicas: Vec::new(),
            lease_views: BTreeMap::new(),
            telemetry: Sink::default(),
            durable: None,
            tracer: Tracer::new(node.0),
            publish_ctx: BTreeMap::new(),
            fed_lookups: Vec::new(),
        }
    }

    /// Restarts the base in place after its host crashed: catalog,
    /// lease table, roaming cache, grant counter and scan state go back
    /// to what [`ExtensionBase::new`] makes and the discovery client
    /// restarts, ready for WAL recovery and [`ExtensionBase::start`].
    /// What the base was configured with survives: lease, scan
    /// interval, roam cap, neighbours, replicas, storage engine, sink
    /// and tracer.
    pub fn restart(&mut self) {
        let old = std::mem::replace(self, ExtensionBase::new(self.node, self.registrar));
        self.lease_ns = old.lease_ns;
        self.scan_interval_ns = old.scan_interval_ns;
        self.roam_cap = old.roam_cap;
        self.neighbors = old.neighbors;
        self.replicas = old.replicas;
        self.durable = old.durable;
        self.tracer = old.tracer;
        self.telemetry = old.telemetry;
        self.discovery = old.discovery;
        self.discovery.restart();
    }

    /// Mints ship spans on the host cell's span factory instead of the
    /// base's own, which is disabled.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Logs every catalog and lease-table mutation to `hub`, making
    /// the base crash-recoverable (see [`crate::durable`]).
    pub fn attach_durable(&mut self, hub: DurableHub) {
        self.durable = Some(hub);
    }

    /// Applies `op` and logs it (see [`Store::commit`]): the one way
    /// the base's durable state changes. The live path decides, this
    /// commits, and WAL replay runs the same transition.
    fn commit_op(&mut self, op: BaseWalOp) {
        let mut wal = self.durable.take();
        let applied = self.commit(&mut wal, op);
        self.durable = wal;
        debug_assert!(applied.is_ok(), "the live path commits only valid ops");
    }

    /// Records base activity (`midas.base.*` counters, `midas.ship`
    /// journal events) through `sink` instead of the base's private
    /// one; the inner discovery client records through it too.
    pub fn attach_sink(&mut self, sink: Sink) {
        self.discovery.attach_sink(sink.clone());
        self.telemetry = sink;
    }

    /// Records an extension leaving the base toward `to` (the "ship"
    /// stage of the sign→ship→verify→weave distribution trail), and
    /// mints the `midas.ship` span under the extension's publish root.
    /// Returns the context the shipped message must carry.
    fn note_ship(&self, sim: &dyn NetPort, ext_id: &str, to: NodeId) -> TraceCtx {
        let detail = format!("{ext_id} -> n{}", to.0);
        let parent = self
            .publish_ctx
            .get(ext_id)
            .copied()
            .unwrap_or(TraceCtx::NIL);
        let ctx = self.tracer.child(parent, sim.now().0, "midas.ship", &detail);
        self.telemetry.inc("midas.base.delivered");
        self.telemetry.event(Subsystem::Midas, "midas.ship", detail);
        ctx
    }

    /// Overrides the extension lease duration (ns).
    pub fn set_lease(&mut self, lease_ns: u64) {
        self.lease_ns = lease_ns;
    }

    /// Overrides the scan interval (ns).
    pub fn set_scan_interval(&mut self, ns: u64) {
        self.scan_interval_ns = ns;
    }

    /// The scan interval (ns): how often the base polls its registrar
    /// and sends each replica a [`MidasMsg::ReplicaDigest`].
    #[must_use]
    pub fn scan_interval_ns(&self) -> u64 {
        self.scan_interval_ns
    }

    /// Registers a neighbour base for roaming handoffs.
    pub fn add_neighbor(&mut self, base: NodeId) {
        if !self.neighbors.contains(&base) {
            self.neighbors.push(base);
        }
    }

    /// Neighbour bases, in registration order.
    pub fn neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// Registers a replica peer: every catalog put this base commits is
    /// pushed to it as a [`MidasMsg::CatalogPush`] (unless the put came
    /// from that peer), and each scan sends it one
    /// [`MidasMsg::ReplicaDigest`] of this base's catalog and lease
    /// table; the replica pulls what differs, which repairs whatever a
    /// partition or crash lost and shadows this base's nodes there.
    /// Opt-in and directional — call on both bases for symmetric
    /// replication. Unlike neighbours (handoff-only), replicas converge
    /// toward the same catalog, so only federate bases meant to serve
    /// the same policy.
    pub fn add_replica(&mut self, base: NodeId) {
        if !self.replicas.contains(&base) {
            self.replicas.push(base);
        }
    }

    /// Ids of foreign packages held for migrated grants (sorted): not
    /// part of this base's catalog, kept for redelivery and onward
    /// handoffs.
    pub fn foreign_ids(&self) -> Vec<String> {
        self.foreign.keys().cloned().collect()
    }

    /// Overrides the roaming-table capacity (default 64 entries).
    pub fn set_roam_cap(&mut self, cap: usize) {
        self.roam_cap = cap.max(1);
    }

    /// Admits a roaming record under the next FIFO sequence, then
    /// evicts the oldest entries while over capacity. Evictions are
    /// committed as explicit drops, so replay never re-runs capacity
    /// policy.
    fn roam_insert(
        &mut self,
        name: String,
        from: u32,
        grants: BTreeMap<String, u64>,
        exts: Vec<SignedExtension>,
    ) {
        self.commit_op(BaseWalOp::RoamState {
            name,
            from,
            grants,
            exts,
            seq: self.roam_seq,
        });
        while self.roaming_cache.len() > self.roam_cap {
            let oldest = self
                .roaming_cache
                .iter()
                .min_by_key(|(_, e)| e.seq)
                .map(|(n, _)| n.clone());
            let Some(name) = oldest else { break };
            self.commit_op(BaseWalOp::RoamDrop { name });
            self.telemetry.inc("midas.base.roam_evicted");
        }
    }

    /// Drops a roaming record (the node was adopted or re-registered).
    fn roam_drop(&mut self, name: &str) {
        if self.roaming_cache.contains_key(name) {
            self.commit_op(BaseWalOp::RoamDrop {
                name: name.to_string(),
            });
        }
    }

    /// Digest of the catalog's inventory (extension id → version).
    #[must_use]
    pub fn catalog_digest(&self) -> u64 {
        self.catalog_inventory().digest()
    }

    /// The digest this base sends its replicas each scan: its catalog
    /// and its own lease table.
    #[must_use]
    pub fn replica_digest(&self) -> u64 {
        inventory::digest(&[&self.catalog_inventory(), &self.lease_inventory()])
    }

    /// What this base compares a [`MidasMsg::ReplicaDigest`] from
    /// `owner` against: its own catalog and its view of the owner's
    /// lease table. Equal to the owner's [`ExtensionBase::replica_digest`]
    /// once the two have converged.
    #[must_use]
    pub fn replica_view_digest(&self, owner: NodeId) -> u64 {
        inventory::digest(&[&self.catalog_inventory(), &self.lease_view(owner)])
    }

    /// This base's view of `owner`'s lease table (empty until a push).
    fn lease_view(&self, owner: NodeId) -> Inventory {
        self.lease_views.get(&owner.0).cloned().unwrap_or_default()
    }

    /// The catalog as an inventory: extension id → package version.
    fn catalog_inventory(&self) -> Inventory {
        self.catalog
            .by_id
            .iter()
            .map(|(id, e)| {
                let version = e.open().map_or(0, |p| p.meta.version);
                (id.clone(), u64::from(version))
            })
            .collect()
    }

    /// The live lease table (present nodes only) as an inventory:
    /// name → [`lease_version`].
    fn lease_inventory(&self) -> Inventory {
        self.adapted
            .iter()
            .filter(|(_, a)| a.present)
            .map(|(name, a)| (name.clone(), lease_version(a.node.0, &a.grants)))
            .collect()
    }

    /// Sends every replica peer the digest of this base's catalog and
    /// lease table. A replica whose view differs pulls the difference,
    /// so whatever a partition, a lost push or a restart cost heals at
    /// the next scan.
    fn sync_replicas(&mut self, sim: &mut dyn NetPort) {
        if self.replicas.is_empty() {
            return;
        }
        let digest = self.replica_digest();
        for r in self.replicas.clone() {
            self.send(sim, r, &MidasMsg::ReplicaDigest { digest }, TraceCtx::NIL);
        }
    }

    /// Adopts a roaming node from its migrated handoff record: every
    /// grant it held at the previous base is rebound in place with one
    /// [`MidasMsg::GrantTransfer`] — zero re-`Deliver` messages for the
    /// roamed set — and only local catalog entries it lacks are
    /// delivered. Returns `(rebound, delivered)`.
    fn adopt_roamer(
        &mut self,
        sim: &mut dyn NetPort,
        node: NodeId,
        name: &str,
        entry: &RoamEntry,
    ) -> (usize, usize) {
        // Keep the signed packages behind migrated grants reachable
        // for renewal-failure redelivery and onward handoffs.
        for ext in &entry.exts {
            let Ok(pkg) = ext.open() else { continue };
            let id = pkg.meta.id;
            if self.catalog.get(&id).is_none() && !self.foreign.contains_key(&id) {
                self.commit_op(BaseWalOp::ForeignPut { ext: ext.clone() });
            }
        }
        // Rebind the migrated grants. A grant is adopted when this base
        // serves the extension itself, or when the record came from a
        // replica (one federated administrative domain — catalogs
        // converge by anti-entropy anyway). Foreign grants from a mere
        // roaming neighbour are *not* adopted: the paper's locality of
        // adaptations means the old hall's policy lapses with its
        // leases. Either way a rebind requires the signed package in
        // hand (catalog or foreign): a grant this base cannot redeliver
        // on a renewal failure would be a dangling promise — shadow
        // lease entries synced without packages (or revoked locally
        // since) simply lapse. BTreeMap order keeps the wire payload
        // byte-stable.
        let federated = self.replicas.iter().any(|r| r.0 == entry.from);
        let mut grants = BTreeMap::new();
        let mut rebinds = Vec::new();
        for (id, old) in &entry.grants {
            let servable = self.catalog.get(id).is_some()
                || (federated && self.foreign.contains_key(id));
            if !servable {
                continue;
            }
            let fresh = self.fresh_grant();
            grants.insert(id.clone(), fresh);
            rebinds.push((id.clone(), *old, fresh));
            self.telemetry.inc("midas.base.migrated");
        }
        let rebound = rebinds.len();
        if rebound > 0 {
            let msg = MidasMsg::GrantTransfer {
                node_name: name.to_string(),
                rebinds,
                lease_ns: self.lease_ns,
            };
            self.send(sim, node, &msg, TraceCtx::NIL);
        }
        // Deliver only what the local catalog adds on top.
        let mut delivered = 0;
        for id in self.catalog.delivery_order() {
            if grants.contains_key(&id) {
                continue;
            }
            let Some(ext) = self.catalog.get(&id).cloned() else {
                continue;
            };
            let grant = self.ship(sim, node, &id, ext, None);
            grants.insert(id, grant);
            delivered += 1;
        }
        self.commit_op(BaseWalOp::NodeAdapted {
            name: name.to_string(),
            node: node.0,
            grants,
        });
        (rebound, delivered)
    }

    /// Starts scanning. Idempotent.
    pub fn start(&mut self, sim: &mut dyn NetPort) {
        if self.started {
            return;
        }
        self.started = true;
        self.discovery.start(sim);
        self.scan(sim);
        self.scan_token = Some(sim.set_timer(self.node, self.scan_interval_ns, SCAN_TAG));
    }

    /// The base's discovery client — its node's only one — for the
    /// host's federated lookups and service registrations.
    pub fn discovery(&mut self) -> &mut DiscoveryClient {
        &mut self.discovery
    }

    /// Drains the client's [`DiscoveryEvent::FedLookupDone`] answers.
    pub fn take_fed_lookups(&mut self) -> Vec<DiscoveryEvent> {
        std::mem::take(&mut self.fed_lookups)
    }

    /// The name of the adapted node at network id `node`, if any.
    fn adapted_name(&self, node: NodeId) -> Option<String> {
        self.adapted
            .iter()
            .find(|(_, a)| a.node == node)
            .map(|(name, _)| name.clone())
    }

    fn fresh_grant(&mut self) -> u64 {
        let g = self.next_grant;
        self.next_grant += 1;
        g
    }

    fn scan(&mut self, sim: &mut dyn NetPort) {
        let req = self.discovery.lookup(
            sim,
            self.registrar,
            ServiceQuery::of_type("midas.adaptation"),
        );
        self.pending_scan = Some(req);
    }

    fn send(&self, sim: &mut dyn NetPort, to: NodeId, msg: &MidasMsg, ctx: TraceCtx) {
        sim.send(self.node, to, CHANNEL, ctx.wrap(msg));
    }

    /// Delivers extension `id` (`ext`) to `to` under a fresh grant
    /// and returns it. With `holder`, the grant is logged as that
    /// node's `GrantSet` before the send; without, the caller logs it
    /// in the node's `NodeAdapted`.
    fn ship(
        &mut self,
        sim: &mut dyn NetPort,
        to: NodeId,
        id: &str,
        ext: SignedExtension,
        holder: Option<&str>,
    ) -> u64 {
        let grant = self.fresh_grant();
        if let Some(name) = holder {
            self.commit_op(BaseWalOp::GrantSet {
                name: name.to_string(),
                ext_id: id.to_string(),
                grant,
            });
        }
        let msg = MidasMsg::Deliver {
            ext,
            lease_ns: self.lease_ns,
            grant,
        };
        let ctx = self.note_ship(sim, id, to);
        self.send(sim, to, &msg, ctx);
        grant
    }

    fn deliver_catalog(&mut self, sim: &mut dyn NetPort, node: NodeId, node_name: &str) -> usize {
        let order = self.catalog.delivery_order();
        let mut grants = BTreeMap::new();
        let mut count = 0;
        for id in order {
            if let Some(ext) = self.catalog.get(&id).cloned() {
                let grant = self.ship(sim, node, &id, ext, None);
                grants.insert(id, grant);
                count += 1;
            }
        }
        self.commit_op(BaseWalOp::NodeAdapted {
            name: node_name.to_string(),
            node: node.0,
            grants,
        });
        count
    }

    /// Installs (or upgrades) an extension in the catalog and pushes a
    /// [`MidasMsg::Replace`] to every adapted node that already holds an
    /// older instance — this is how "the local policy evolves" reaches
    /// robots already in the hall.
    pub fn update_extension(&mut self, sim: &mut dyn NetPort, ext: SignedExtension) {
        self.update_extension_traced(sim, ext, TraceCtx::NIL);
    }

    /// [`ExtensionBase::update_extension`] with the publish's trace
    /// context: every ship of this extension — now and later — becomes
    /// a child of `ctx`, so the whole adaptation reconstructs as one
    /// span tree.
    pub fn update_extension_traced(
        &mut self,
        sim: &mut dyn NetPort,
        ext: SignedExtension,
        ctx: TraceCtx,
    ) {
        let Ok(pkg) = ext.open() else { return };
        let id = pkg.meta.id.clone();
        if ctx.is_nil() {
            self.publish_ctx.remove(&id);
        } else {
            self.publish_ctx.insert(id.clone(), ctx);
        }
        self.put_catalog(sim, ext.clone(), None);
        let targets: Vec<(String, NodeId)> = self
            .adapted
            .iter()
            .filter(|(_, a)| a.present && a.grants.contains_key(&id))
            .map(|(name, a)| (name.clone(), a.node))
            .collect();
        for (name, node) in targets {
            let grant = self.fresh_grant();
            let msg = MidasMsg::Replace {
                old_id: id.clone(),
                ext: ext.clone(),
                lease_ns: self.lease_ns,
                grant,
            };
            let ship = self.note_ship(sim, &id, node);
            self.send(sim, node, &msg, ship);
            self.commit_op(BaseWalOp::GrantSet {
                name,
                ext_id: id.clone(),
                grant,
            });
        }
    }

    /// Removes an extension from the catalog and revokes it everywhere.
    pub fn revoke_extension(&mut self, sim: &mut dyn NetPort, ext_id: &str, reason: &str) {
        self.publish_ctx.remove(ext_id);
        let mut targets: Vec<NodeId> = self
            .adapted
            .values()
            .filter(|a| a.present && a.grants.contains_key(ext_id))
            .map(|a| a.node)
            .collect();
        // Node order, not name order: revocation sends go out by id.
        targets.sort_by_key(|n| n.0);
        self.commit_op(BaseWalOp::Revoked {
            ext_id: ext_id.to_string(),
        });
        for node in targets {
            let msg = MidasMsg::Revoke {
                ext_id: ext_id.to_string(),
                reason: reason.to_string(),
            };
            self.send(sim, node, &msg, TraceCtx::NIL);
            self.telemetry.inc("midas.base.revocations");
        }
    }

    /// Processes one inbox entry of the host node.
    pub fn handle(&mut self, sim: &mut dyn NetPort, incoming: &Incoming) -> Vec<BaseEvent> {
        match incoming {
            Incoming::Timer { token, .. } if Some(*token) == self.scan_token => {
                self.scan(sim);
                self.sync_replicas(sim);
                self.scan_token =
                    Some(sim.set_timer(self.node, self.scan_interval_ns, SCAN_TAG));
            }
            Incoming::Message {
                from,
                channel,
                payload,
                ..
            } if &**channel == CHANNEL => {
                if let Ok(env) = pmp_wire::from_bytes::<Traced<MidasMsg>>(payload) {
                    self.handle_midas(sim, *from, env.msg);
                }
            }
            other => {
                // Everything else may belong to the discovery client.
                for ev in self.discovery.handle(sim, other) {
                    match ev {
                        DiscoveryEvent::LookupDone { req, items } => {
                            self.scan_done(sim, req, &items);
                        }
                        done @ DiscoveryEvent::FedLookupDone { .. } => self.fed_lookups.push(done),
                        _ => {}
                    }
                }
            }
        }
        std::mem::take(&mut self.events)
    }

    /// Acts on the answer to a presence scan: delivers the catalog to
    /// newcomers (or adopts roamers), renews the leases of nodes still
    /// here, and hands departed nodes off to the neighbours.
    fn scan_done(&mut self, sim: &mut dyn NetPort, req: u64, items: &[ServiceItem]) {
        if self.pending_scan != Some(req) {
            return;
        }
        self.pending_scan = None;
        // Mark presence.
        let mut present: BTreeMap<String, NodeId> = BTreeMap::new();
        for item in items {
            present.insert(item.name.clone(), NodeId(item.provider));
        }
        // New nodes, in name order: deliver the catalog.
        let new_nodes: Vec<(String, NodeId)> = present
            .iter()
            .filter(|(name, _)| self.adapted.get(*name).is_none_or(|a| !a.present))
            .map(|(n, id)| (n.clone(), *id))
            .collect();
        for (name, node) in new_nodes {
            if let Some(entry) = self.roaming_cache.get(&name).cloned() {
                // The node roamed here with a migratable record:
                // take over its leases instead of re-delivering.
                let (rebound, delivered) = self.adopt_roamer(sim, node, &name, &entry);
                self.roam_drop(&name);
                self.events.push(BaseEvent::NodeMigrated {
                    node_name: name,
                    rebound,
                    delivered,
                });
            } else {
                let delivered = self.deliver_catalog(sim, node, &name);
                self.events.push(BaseEvent::NodeDiscovered {
                    node_name: name,
                    delivered,
                });
            }
        }
        // Known nodes still present: keep their leases alive.
        let mut renewals: Vec<(NodeId, Vec<u64>)> = self
            .adapted
            .iter()
            .filter(|(name, a)| a.present && present.contains_key(*name))
            .map(|(_, a)| {
                let mut grants: Vec<u64> = a.grants.values().copied().collect();
                grants.sort_unstable();
                (a.node, grants)
            })
            .collect();
        renewals.sort_by_key(|(n, _)| n.0);
        for (node, grants) in renewals {
            for grant in grants {
                let msg = MidasMsg::LeaseRenew { grant };
                self.send(sim, node, &msg, TraceCtx::NIL);
                self.telemetry.inc("midas.base.lease_renewals_sent");
            }
        }
        // Departed nodes: mark, event, and roam.
        let departed: Vec<String> = self
            .adapted
            .iter()
            .filter(|(name, a)| a.present && !present.contains_key(*name))
            .map(|(name, _)| name.clone())
            .collect();
        for name in departed {
            let Some(a) = self.adapted.get(&name) else {
                continue;
            };
            // Migratable handoff: the leases *and* the signed
            // packages behind them, so the adopting base can take
            // over without re-delivering anything.
            let mut exts = Vec::new();
            for id in a.grants.keys() {
                let ext = self
                    .catalog
                    .get(id)
                    .cloned()
                    .or_else(|| self.foreign.get(id).cloned());
                if let Some(ext) = ext {
                    exts.push(ext);
                }
            }
            for nb in &self.neighbors {
                let msg = MidasMsg::HandoffState {
                    node_name: name.clone(),
                    grants: a.grants.clone(),
                    exts: exts.clone(),
                };
                self.send(sim, *nb, &msg, TraceCtx::NIL);
                self.telemetry.inc("midas.base.handoffs_sent");
            }
            self.commit_op(BaseWalOp::Presence {
                name: name.clone(),
                present: false,
            });
            self.events
                .push(BaseEvent::NodeDeparted { node_name: name });
        }
    }

    /// Commits `ext` to the catalog and pushes it to every replica but
    /// `from`, the one it came from. Forwarding stops at the first base
    /// that already holds the version; the scan-tick digest exchange
    /// repairs whatever a partition or crash drops on the way.
    fn put_catalog(&mut self, sim: &mut dyn NetPort, ext: SignedExtension, from: Option<NodeId>) {
        self.commit_op(BaseWalOp::CatalogPut { ext: ext.clone() });
        let msg = MidasMsg::CatalogPush { exts: vec![ext] };
        for r in self.replicas.iter().filter(|r| Some(**r) != from) {
            self.send(sim, *r, &msg, TraceCtx::NIL);
        }
    }

    /// Merges catalog entries pushed by `from` (version-gated), passes
    /// each one on to the other replicas, and delivers anything new to
    /// nodes already present.
    fn merge_replicated(
        &mut self,
        sim: &mut dyn NetPort,
        from: NodeId,
        exts: Vec<SignedExtension>,
    ) {
        let mut merged = false;
        for ext in exts {
            let Ok(pkg) = ext.open() else { continue };
            let id = pkg.meta.id;
            let before = self
                .catalog
                .get(&id)
                .and_then(|e| e.open().ok())
                .map(|p| p.meta.version);
            if before.is_some_and(|v| v >= pkg.meta.version) {
                continue;
            }
            self.put_catalog(sim, ext, Some(from));
            self.telemetry.inc("midas.base.replicated");
            merged = true;
        }
        if merged {
            // Replicated policy reaches robots already here.
            let names: Vec<String> = self
                .adapted
                .iter()
                .filter(|(_, a)| a.present)
                .map(|(n, _)| n.clone())
                .collect();
            for name in names {
                let node = self.adapted[&name].node;
                for id in self.catalog.delivery_order() {
                    if self.adapted[&name].grants.contains_key(&id) {
                        continue;
                    }
                    let Some(ext) = self.catalog.get(&id).cloned() else {
                        continue;
                    };
                    self.ship(sim, node, &id, ext, Some(&name));
                }
            }
        }
    }

    fn handle_midas(&mut self, sim: &mut dyn NetPort, from: NodeId, msg: MidasMsg) {
        match msg {
            MidasMsg::Ack {
                ext_id,
                grant,
                ok,
                reason,
            } => {
                if !ok && reason == ACK_RELEASED {
                    // The receiver dropped this grant on purpose
                    // (implicit dep released, upgrade, revocation):
                    // stop renewing it.
                    if let Some(name) = self.adapted_name(from) {
                        self.commit_op(BaseWalOp::GrantDropped { name, grant });
                    }
                    return;
                }
                if !ok && reason == ACK_UNKNOWN_GRANT {
                    // The receiver no longer holds this grant (lost
                    // delivery, or our outage outlived its leases):
                    // redeliver that extension with a fresh grant.
                    let stale: Option<(String, String)> = self
                        .adapted
                        .iter()
                        .find(|(_, a)| a.node == from)
                        .and_then(|(name, a)| {
                            a.grants
                                .iter()
                                .find(|(_, g)| **g == grant)
                                .map(|(id, _)| (name.clone(), id.clone()))
                        });
                    if let Some((name, id)) = stale {
                        let ext = self
                            .catalog
                            .get(&id)
                            .cloned()
                            .or_else(|| self.foreign.get(&id).cloned());
                        if let Some(ext) = ext {
                            self.ship(sim, from, &id, ext, Some(&name));
                        }
                    }
                    return;
                }
                let node_name = self.adapted_name(from).unwrap_or_else(|| from.to_string());
                self.events.push(BaseEvent::InstallAck {
                    node_name,
                    ext_id,
                    ok,
                    reason,
                });
            }
            MidasMsg::RequestDep { ext_id } => {
                // Deliver the dependency closure of the requested id to
                // nodes this base adapted only: a grant shipped to a
                // stranger is logged nowhere, so replay could reissue it.
                let Some(name) = self.adapted_name(from) else {
                    return;
                };
                for id in self.catalog.closure_of(&ext_id) {
                    if let Some(ext) = self.catalog.get(&id).cloned() {
                        self.ship(sim, from, &id, ext, Some(&name));
                    }
                }
            }
            MidasMsg::HandoffState {
                node_name,
                grants,
                exts,
            } => {
                // A node we are actively serving did not roam anywhere.
                if self.adapted.get(&node_name).is_some_and(|a| a.present) {
                    return;
                }
                let ext_ids: Vec<String> = grants.keys().cloned().collect();
                self.roam_insert(node_name.clone(), from.0, grants, exts);
                self.telemetry.inc("midas.base.handoffs_received");
                self.events
                    .push(BaseEvent::HandoffReceived { node_name, ext_ids });
            }
            MidasMsg::MovementExport { node_name, records } => {
                self.events
                    .push(BaseEvent::MovementImport { node_name, records });
            }
            MidasMsg::ReplicaDigest { digest } => {
                if digest != self.replica_view_digest(from) {
                    let msg = MidasMsg::ReplicaPull {
                        catalog: self.catalog_inventory(),
                        leases: self.lease_view(from),
                    };
                    self.send(sim, from, &msg, TraceCtx::NIL);
                }
            }
            MidasMsg::ReplicaPull { catalog, leases } => {
                // Catalog half: what the puller lacks or holds older.
                // No drops: a replica merges puts only.
                let mut exts = Vec::new();
                for (id, version) in self.catalog_inventory().iter() {
                    if catalog.get(id).is_none_or(|held| held < version) {
                        if let Some(ext) = self.catalog.get(id).cloned() {
                            exts.push(ext);
                        }
                    }
                }
                if !exts.is_empty() {
                    self.send(sim, from, &MidasMsg::CatalogPush { exts }, TraceCtx::NIL);
                }
                // Lease half: the difference, each put with its entry.
                let diff = self.lease_inventory().diff(&leases);
                if !diff.is_empty() {
                    let mut put = Vec::new();
                    for (name, _) in diff.put {
                        if let Some(a) = self.adapted.get(&name) {
                            put.push((name, a.node.0, a.grants.clone()));
                        }
                    }
                    let msg = MidasMsg::LeasePush {
                        put,
                        drop: diff.drop,
                    };
                    self.send(sim, from, &msg, TraceCtx::NIL);
                }
            }
            MidasMsg::CatalogPush { exts } => {
                self.merge_replicated(sim, from, exts);
            }
            MidasMsg::LeasePush { put, drop } => {
                let put_versions = put
                    .iter()
                    .map(|(name, node, grants)| (name.clone(), lease_version(*node, grants)))
                    .collect();
                let view = self.lease_views.entry(from.0).or_default();
                view.apply(&Diff {
                    put: put_versions,
                    drop,
                });
                // Shadow lease table: nodes a replica is serving become
                // adoptable here without redelivery if it dies. No
                // event — this is background replication.
                for (name, _node, grants) in put {
                    if self.adapted.get(&name).is_some_and(|a| a.present) {
                        continue;
                    }
                    let (exts, unchanged) = match self.roaming_cache.get(&name) {
                        Some(e) if e.from == from.0 => (e.exts.clone(), e.grants == grants),
                        _ => (Vec::new(), false),
                    };
                    if unchanged {
                        continue;
                    }
                    self.roam_insert(name, from.0, grants, exts);
                }
            }
            // Receiver-bound messages are ignored by the base.
            MidasMsg::Deliver { .. }
            | MidasMsg::LeaseRenew { .. }
            | MidasMsg::Revoke { .. }
            | MidasMsg::Replace { .. }
            | MidasMsg::GrantTransfer { .. } => {}
        }
    }
}

/// The version of one lease-table entry: FNV-64 over the node's
/// network id and its grants.
fn lease_version(node: u32, grants: &BTreeMap<String, u64>) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(u64::from(node));
    for (id, g) in grants {
        h.write_str(id);
        h.write_u64(*g);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::tests::ops;
    use pmp_durable::Durable;

    /// A restart forgets what the base remembers and keeps what it was
    /// configured with; recovery then brings the memory back from the
    /// log and leaves the settings alone.
    #[test]
    fn a_restart_keeps_the_settings_and_forgets_the_state_until_recovery() {
        let hub = DurableHub::new();
        let mut base = ExtensionBase::new(NodeId(1), NodeId(1));
        base.attach_durable(hub.clone());
        base.set_lease(2_500_000_000);
        base.set_scan_interval(250_000_000);
        base.set_roam_cap(3);
        base.add_neighbor(NodeId(8));
        base.add_replica(NodeId(9));
        for op in ops() {
            base.commit_op(op);
        }
        hub.commit();
        let digest = base.state_digest();
        assert!(!base.catalog.ids().is_empty() && !base.adapted.is_empty());
        assert!(!base.roaming_cache.is_empty() && !base.foreign.is_empty());

        base.restart();
        let settings = |b: &ExtensionBase| (b.lease_ns, b.scan_interval_ns, b.roam_cap);
        assert_eq!(settings(&base), (2_500_000_000, 250_000_000, 3));
        assert_eq!(base.neighbors(), [NodeId(8)]);
        assert_eq!(base.replicas, [NodeId(9)]);
        assert!(base.catalog.ids().is_empty(), "no catalog entry");
        assert!(base.adapted.is_empty(), "no lease-table entry");
        assert!(base.roaming_cache.is_empty(), "no roaming entry");
        assert!(base.foreign.is_empty());
        assert_eq!(base.next_grant, 1);

        hub.crash();
        assert!(hub.recover(&mut [&mut base]).is_clean());
        assert_eq!(base.state_digest(), digest);
        assert_eq!(settings(&base), (2_500_000_000, 250_000_000, 3));
    }
}
