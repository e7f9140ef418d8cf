//! The lookup service (Jini registrar) hosted by a base station.

use crate::directory::{Directory, MAX_HOPS};
use crate::inventory::Inventory;
use crate::lease::Lease;
use crate::proto::{DiscoveryMsg, CHANNEL};
use crate::service::{ServiceId, ServiceItem};
use pmp_net::{Incoming, NetPort, NodeId, SimTime};
use pmp_telemetry::Sink;
use pmp_trace::{TraceCtx, Traced};
use std::collections::BTreeMap;

const ANNOUNCE_TAG: &str = "disc.announce";
const SWEEP_TAG: &str = "disc.sweep";
/// Period of the multicast announce.
const ANNOUNCE_INTERVAL_NS: u64 = 500_000_000;
/// Period of the lease sweep, twice the announce rate. Each sweep also
/// sends the parent the digest of this registrar's advert.
const SWEEP_INTERVAL_NS: u64 = ANNOUNCE_INTERVAL_NS / 2;

/// The registrar state machine. Drive it by passing every [`Incoming`]
/// of its host node to [`Registrar::handle`].
#[derive(Debug)]
pub struct Registrar {
    node: NodeId,
    name: String,
    services: BTreeMap<ServiceId, (ServiceItem, Lease)>,
    counter: u32,
    started: bool,
    announce_token: Option<u64>,
    sweep_token: Option<u64>,
    telemetry: Sink,
    /// Federation state: place in the registrar tree plus the routes
    /// learned from the children.
    directory: Directory,
}

impl Registrar {
    /// Creates a registrar hosted on `node`.
    pub fn new(node: NodeId, name: impl Into<String>) -> Self {
        Self {
            node,
            name: name.into(),
            services: BTreeMap::new(),
            counter: 0,
            started: false,
            announce_token: None,
            sweep_token: None,
            telemetry: Sink::default(),
            directory: Directory::new(),
        }
    }

    /// Restarts the registrar in place after a crash: its service table,
    /// timers and learned routes reset; its name, sink and place in the
    /// federation tree stay. Call [`Registrar::start`] again afterwards.
    pub fn restart(&mut self) {
        let fresh = Registrar::new(self.node, std::mem::take(&mut self.name));
        let old = std::mem::replace(self, fresh);
        self.telemetry = old.telemetry;
        self.directory = old.directory;
        self.directory.restart();
    }

    /// Wires this registrar under `parent` in the federation tree.
    /// From the next sweep on, the digest of its advert goes to the
    /// parent every sweep.
    pub fn set_parent(&mut self, parent: NodeId) {
        self.directory.set_parent(parent);
    }

    /// Read-only view of the federation state.
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// The sweep period (ns): how often leases are swept and the
    /// parent is sent the advert's digest.
    #[must_use]
    pub fn sweep_interval_ns(&self) -> u64 {
        SWEEP_INTERVAL_NS
    }

    /// The advert this registrar keeps its parent in step with: the
    /// service types registered here plus every routed type.
    pub fn advert(&self) -> Inventory {
        let local = self
            .services
            .values()
            .map(|(item, _)| item.service_type.clone());
        self.directory.advert(local)
    }

    /// Sends the advert's digest to the parent, if federated.
    fn send_dir_digest(&self, sim: &mut dyn NetPort) {
        if let Some(parent) = self.directory.parent() {
            let msg = DiscoveryMsg::DirDigest {
                digest: self.advert().digest(),
            };
            sim.send(self.node, parent, CHANNEL, TraceCtx::NIL.wrap(&msg));
        }
    }

    /// Records registrar activity (`discovery.registrar.*` counters
    /// and a live-services gauge) through `sink` instead of the
    /// registrar's private one.
    pub fn attach_sink(&mut self, sink: Sink) {
        self.telemetry = sink;
    }

    fn update_live_gauge(&self) {
        // Scoped per registrar instance (like `net.channel.<name>.bytes`):
        // several registrars share one platform registry, and a plain
        // set-gauge under a common name would let an idle registrar's
        // sweep overwrite its neighbour's live count.
        let name = format!("discovery.registrar.{}.live_services", self.name);
        let n = self.services.len() as i64;
        self.telemetry.with(|t| {
            let g = t.registry.gauge(&name);
            t.registry.set_gauge(g, n);
        });
    }

    /// Starts announcing and lease sweeping. Idempotent.
    pub fn start(&mut self, sim: &mut dyn NetPort) {
        if self.started {
            return;
        }
        self.started = true;
        self.announce(sim);
        self.announce_token = Some(sim.set_timer(self.node, ANNOUNCE_INTERVAL_NS, ANNOUNCE_TAG));
        self.sweep_token = Some(sim.set_timer(self.node, SWEEP_INTERVAL_NS, SWEEP_TAG));
    }

    fn announce(&self, sim: &mut dyn NetPort) {
        let msg = DiscoveryMsg::Announce {
            name: self.name.clone(),
        };
        sim.broadcast(self.node, CHANNEL, TraceCtx::NIL.wrap(&msg));
    }

    /// Number of live registrations.
    pub fn service_count(&self) -> usize {
        self.services.len()
    }

    fn sweep(&mut self, now: SimTime) {
        let expired: Vec<ServiceId> = self
            .services
            .iter()
            .filter(|(_, (_, lease))| lease.expired(now))
            .map(|(id, _)| *id)
            .collect();
        for id in expired {
            if self.services.remove(&id).is_some() {
                self.telemetry.inc("discovery.registrar.lease_expiries");
            }
        }
        self.update_live_gauge();
    }

    /// Processes one inbox entry of the host node. Entries not addressed
    /// to the registrar (other channels, other timer tags) are ignored.
    pub fn handle(&mut self, sim: &mut dyn NetPort, incoming: &Incoming) {
        match incoming {
            Incoming::Timer { token, .. } if Some(*token) == self.announce_token => {
                self.announce(sim);
                self.announce_token =
                    Some(sim.set_timer(self.node, ANNOUNCE_INTERVAL_NS, ANNOUNCE_TAG));
            }
            Incoming::Timer { token, .. } if Some(*token) == self.sweep_token => {
                self.sweep(sim.now());
                self.send_dir_digest(sim);
                self.sweep_token =
                    Some(sim.set_timer(self.node, SWEEP_INTERVAL_NS, SWEEP_TAG));
            }
            Incoming::Message {
                from,
                channel,
                payload,
                ..
            } if &**channel == CHANNEL => {
                let Ok(env) = pmp_wire::from_bytes::<Traced<DiscoveryMsg>>(payload) else {
                    return; // malformed traffic is dropped
                };
                self.handle_msg(sim, *from, env.msg, env.ctx);
            }
            _ => {}
        }
    }

    fn handle_msg(&mut self, sim: &mut dyn NetPort, from: NodeId, msg: DiscoveryMsg, ctx: TraceCtx) {
        let now = sim.now();
        match msg {
            DiscoveryMsg::Register {
                mut item,
                lease_ns,
                req,
            } => {
                self.counter += 1;
                let id = ServiceId::compose(self.node.0, self.counter);
                item.id = id;
                item.provider = from.0;
                let lease = Lease::grant(now, lease_ns);
                self.services.insert(id, (item, lease));
                self.telemetry.inc("discovery.registrar.registrations");
                self.update_live_gauge();
                let reply = DiscoveryMsg::Registered {
                    service: id,
                    lease_ns,
                    req,
                };
                sim.send(self.node, from, CHANNEL, ctx.wrap(&reply));
            }
            DiscoveryMsg::Renew { service, req } => {
                self.telemetry.inc("discovery.registrar.renewals");
                let ok = match self.services.get_mut(&service) {
                    Some((_, lease)) => lease.renew(now),
                    None => false,
                };
                if !ok {
                    // Lapsed entries are removed eagerly on failed renew.
                    if self.services.remove(&service).is_some() {
                        self.telemetry.inc("discovery.registrar.lease_expiries");
                        self.update_live_gauge();
                    }
                }
                let reply = DiscoveryMsg::RenewAck { service, ok, req };
                sim.send(self.node, from, CHANNEL, ctx.wrap(&reply));
            }
            DiscoveryMsg::Cancel { service } => {
                if self.services.remove(&service).is_some() {
                    self.telemetry.inc("discovery.registrar.cancellations");
                    self.update_live_gauge();
                }
            }
            DiscoveryMsg::Lookup { query, req } => {
                self.telemetry.inc("discovery.registrar.lookups");
                self.sweep(now);
                let mut items: Vec<ServiceItem> = self
                    .services
                    .values()
                    .filter(|(item, _)| query.matches(item))
                    .map(|(item, _)| item.clone())
                    .collect();
                // Name order, not service-id order: the items travel
                // inside the reply payload.
                items.sort_by(|a, b| (&a.name, a.provider).cmp(&(&b.name, b.provider)));
                let reply = DiscoveryMsg::LookupResult { items, req };
                sim.send(self.node, from, CHANNEL, ctx.wrap(&reply));
            }
            DiscoveryMsg::DirDigest { digest } => {
                let have = self.directory.view_of(from).cloned().unwrap_or_default();
                if digest != have.digest() {
                    self.telemetry.inc("discovery.registrar.dir_pulls");
                    let pull = DiscoveryMsg::DirPull { have };
                    sim.send(self.node, from, CHANNEL, ctx.wrap(&pull));
                }
            }
            DiscoveryMsg::DirPull { have } => {
                let diff = self.advert().diff(&have);
                if !diff.is_empty() {
                    let push = DiscoveryMsg::DirPush { diff };
                    sim.send(self.node, from, CHANNEL, ctx.wrap(&push));
                }
            }
            DiscoveryMsg::DirPush { diff } => self.directory.learn(from, &diff),
            DiscoveryMsg::FedLookup {
                query,
                origin,
                mut path,
                req,
            } => {
                self.telemetry.inc("discovery.registrar.fed_lookups");
                self.sweep(now);
                let hops = path.len() as u16;
                let mut items: Vec<ServiceItem> = self
                    .services
                    .values()
                    .filter(|(item, _)| query.matches(item))
                    .map(|(item, _)| item.clone())
                    .collect();
                items.sort_by(|a, b| (&a.name, a.provider).cmp(&(&b.name, b.provider)));
                if !items.is_empty() || hops >= MAX_HOPS {
                    // Answer (or give up): the reply retraces the path
                    // stack — only tree edges are guaranteed reachable.
                    self.send_fed_result(sim, items, hops, origin, path, req, ctx);
                    return;
                }
                // Nothing local: route down a subtree advertising the
                // queried type, else up to the parent. Never bounce the
                // query straight back where it came from.
                let down = query
                    .service_type
                    .as_deref()
                    .and_then(|ty| self.directory.route_for(ty, from));
                let next = down.or_else(|| self.directory.parent().filter(|p| *p != from));
                match next {
                    Some(next) => {
                        path.push(self.node.0);
                        let fwd = DiscoveryMsg::FedLookup {
                            query,
                            origin,
                            path,
                            req,
                        };
                        sim.send(self.node, next, CHANNEL, ctx.wrap(&fwd));
                    }
                    None => {
                        self.send_fed_result(sim, Vec::new(), hops, origin, path, req, ctx);
                    }
                }
            }
            DiscoveryMsg::FedLookupResult {
                items,
                hops,
                origin,
                path,
                req,
            } => {
                // A reply in transit: relay it one step back along the
                // recorded path. A reply that already reached the
                // origin node is the co-located client's business.
                if origin != self.node.0 {
                    self.send_fed_result(sim, items, hops, origin, path, req, ctx);
                }
            }
            // Client-bound messages are ignored by the registrar.
            DiscoveryMsg::Announce { .. }
            | DiscoveryMsg::Registered { .. }
            | DiscoveryMsg::RenewAck { .. }
            | DiscoveryMsg::LookupResult { .. } => {}
        }
    }

    /// Sends a [`DiscoveryMsg::FedLookupResult`] one step toward the
    /// origin: to the last registrar on the return path, or — when the
    /// path is exhausted — over the final radio hop to the origin.
    #[allow(clippy::too_many_arguments)]
    fn send_fed_result(
        &self,
        sim: &mut dyn NetPort,
        items: Vec<ServiceItem>,
        hops: u16,
        origin: u32,
        mut path: Vec<u32>,
        req: u64,
        ctx: TraceCtx,
    ) {
        let next = match path.pop() {
            Some(prev) => NodeId(prev),
            None => NodeId(origin),
        };
        let reply = DiscoveryMsg::FedLookupResult {
            items,
            hops,
            origin,
            path,
            req,
        };
        sim.send(self.node, next, CHANNEL, ctx.wrap(&reply));
    }
}
