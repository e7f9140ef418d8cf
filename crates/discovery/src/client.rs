//! The client side of discovery: registrar tracking, registration with
//! auto-renewal, and lookups.

use crate::proto::{DiscoveryMsg, CHANNEL};
use crate::service::{ServiceId, ServiceItem, ServiceQuery};
use pmp_net::{Incoming, NetPort, NodeId, SimTime};
use pmp_telemetry::Sink;
use std::collections::BTreeMap;

const RENEW_TAG: &str = "disc.renew";
const REGCHECK_TAG: &str = "disc.regcheck";

/// Events surfaced to the client's host component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiscoveryEvent {
    /// A registrar announced itself for the first time (or after being
    /// lost).
    RegistrarDiscovered {
        /// The registrar's host node.
        node: NodeId,
        /// Its advertised name.
        name: String,
    },
    /// A known registrar has not announced within the timeout.
    RegistrarLost {
        /// The registrar's host node.
        node: NodeId,
    },
    /// A registration completed.
    Registered {
        /// The request id returned by [`DiscoveryClient::register`].
        req: u64,
        /// The assigned service id.
        service: ServiceId,
        /// The registrar holding it.
        registrar: NodeId,
    },
    /// A lease renewal was refused (the registrar dropped us) or the
    /// registrar is unreachable; the registration is gone.
    RegistrationLost {
        /// The lost service.
        service: ServiceId,
        /// The registrar that held it.
        registrar: NodeId,
    },
    /// A lookup completed.
    LookupDone {
        /// The request id returned by [`DiscoveryClient::lookup`].
        req: u64,
        /// Matching services.
        items: Vec<ServiceItem>,
    },
    /// A federated lookup completed.
    FedLookupDone {
        /// The request id returned by [`DiscoveryClient::fed_lookup`].
        req: u64,
        /// Matching services.
        items: Vec<ServiceItem>,
        /// Registrar-to-registrar hops the query took to be answered.
        hops: u16,
    },
}

#[derive(Debug)]
struct Registration {
    registrar: NodeId,
    service: Option<ServiceId>,
    lease_ns: u64,
    req: u64,
    /// The item, kept for re-sending unconfirmed registrations.
    item: ServiceItem,
    /// Renewals sent without an ack yet.
    outstanding: u32,
}

#[derive(Debug)]
struct KnownRegistrar {
    name: String,
    last_seen: SimTime,
    announced: bool,
}

/// The discovery client state machine for one node. Drive it by passing
/// every [`Incoming`] to [`DiscoveryClient::handle`] and collecting the
/// returned events.
#[derive(Debug)]
pub struct DiscoveryClient {
    node: NodeId,
    registrars: BTreeMap<NodeId, KnownRegistrar>,
    registrations: Vec<Registration>,
    next_req: u64,
    /// A registrar is lost after this long without an announcement.
    pub registrar_timeout_ns: u64,
    started: bool,
    /// Token of the outstanding renewal timer (exactly one is kept
    /// regardless of how many registrations exist). Timers are matched
    /// by token so co-located components never react to each other's
    /// firings.
    renew_token: Option<u64>,
    /// Token of the outstanding registrar-liveness timer.
    regcheck_token: Option<u64>,
    telemetry: Sink,
}

impl DiscoveryClient {
    /// Creates a client for `node`.
    pub fn new(node: NodeId) -> Self {
        Self {
            node,
            registrars: BTreeMap::new(),
            registrations: Vec::new(),
            next_req: 1,
            registrar_timeout_ns: 1_600_000_000, // ≈3 announce periods
            started: false,
            renew_token: None,
            regcheck_token: None,
            telemetry: Sink::default(),
        }
    }

    /// Restarts the client in place after its host crashed: known
    /// registrars, registrations, request ids and timers reset; its
    /// registrar timeout and sink stay. Call [`DiscoveryClient::start`]
    /// again afterwards.
    pub fn restart(&mut self) {
        let old = std::mem::replace(self, DiscoveryClient::new(self.node));
        self.registrar_timeout_ns = old.registrar_timeout_ns;
        self.telemetry = old.telemetry;
    }

    /// Records client activity (`discovery.client.*` counters: requests
    /// sent, lookup round-trips completed) through `sink` instead of
    /// the client's private one.
    pub fn attach_sink(&mut self, sink: Sink) {
        self.telemetry = sink;
    }

    /// Schedules the single renewal timer if none is outstanding.
    fn ensure_renew_timer(&mut self, sim: &mut dyn NetPort) {
        if self.renew_token.is_some() {
            return;
        }
        let Some(min_half) = self
            .registrations
            .iter()
            .map(|r| r.lease_ns / 2)
            .min()
        else {
            return;
        };
        self.renew_token = Some(sim.set_timer(self.node, min_half.max(1), RENEW_TAG));
    }

    /// Starts the periodic registrar-liveness check. Idempotent.
    pub fn start(&mut self, sim: &mut dyn NetPort) {
        if self.started {
            return;
        }
        self.started = true;
        self.regcheck_token =
            Some(sim.set_timer(self.node, self.registrar_timeout_ns / 2, REGCHECK_TAG));
    }

    fn fresh_req(&mut self) -> u64 {
        let r = self.next_req;
        self.next_req += 1;
        r
    }

    /// Registrars currently believed alive, as `(node, name)`, in node
    /// order: one the client has reported lost is listed again once it
    /// is rediscovered.
    pub fn known_registrars(&self) -> Vec<(NodeId, String)> {
        self.registrars
            .iter()
            .filter(|(_, k)| k.announced)
            .map(|(n, k)| (*n, k.name.clone()))
            .collect()
    }

    /// Registers `item` with `registrar` under a lease of `lease_ns`;
    /// the client renews it automatically at half-lease until
    /// [`DiscoveryClient::cancel`] or loss, and re-sends the
    /// registration itself while unconfirmed (lossy radios drop
    /// messages). Returns the request id that correlates with
    /// [`DiscoveryEvent::Registered`].
    pub fn register(
        &mut self,
        sim: &mut dyn NetPort,
        registrar: NodeId,
        item: ServiceItem,
        lease_ns: u64,
    ) -> u64 {
        let req = self.fresh_req();
        self.registrations.push(Registration {
            registrar,
            service: None,
            lease_ns,
            req,
            item: item.clone(),
            outstanding: 0,
        });
        let msg = DiscoveryMsg::Register {
            item,
            lease_ns,
            req,
        };
        sim.send(self.node, registrar, CHANNEL, pmp_trace::TraceCtx::NIL.wrap(&msg));
        self.ensure_renew_timer(sim);
        req
    }

    /// Cancels an active registration.
    pub fn cancel(&mut self, sim: &mut dyn NetPort, service: ServiceId) {
        if let Some(idx) = self
            .registrations
            .iter()
            .position(|r| r.service == Some(service))
        {
            let reg = self.registrations.remove(idx);
            let msg = DiscoveryMsg::Cancel { service };
            sim.send(self.node, reg.registrar, CHANNEL, pmp_trace::TraceCtx::NIL.wrap(&msg));
        }
    }

    /// Sends a lookup to `registrar`; the result arrives as
    /// [`DiscoveryEvent::LookupDone`] with the returned request id.
    pub fn lookup(&mut self, sim: &mut dyn NetPort, registrar: NodeId, query: ServiceQuery) -> u64 {
        self.telemetry.inc("discovery.client.lookups_sent");
        let req = self.fresh_req();
        let msg = DiscoveryMsg::Lookup { query, req };
        sim.send(self.node, registrar, CHANNEL, pmp_trace::TraceCtx::NIL.wrap(&msg));
        req
    }

    /// Sends a *federated* lookup: the query enters the directory tier
    /// at `registrar` and is routed through the registrar tree; the
    /// answering registrar replies straight back here. The result
    /// arrives as [`DiscoveryEvent::FedLookupDone`].
    pub fn fed_lookup(
        &mut self,
        sim: &mut dyn NetPort,
        registrar: NodeId,
        query: ServiceQuery,
    ) -> u64 {
        self.telemetry.inc("discovery.client.fed_lookups_sent");
        let req = self.fresh_req();
        let msg = DiscoveryMsg::FedLookup {
            query,
            origin: self.node.0,
            path: Vec::new(),
            req,
        };
        sim.send(self.node, registrar, CHANNEL, pmp_trace::TraceCtx::NIL.wrap(&msg));
        req
    }

    /// Processes one inbox entry; returns surfaced events.
    pub fn handle(&mut self, sim: &mut dyn NetPort, incoming: &Incoming) -> Vec<DiscoveryEvent> {
        let mut events = Vec::new();
        match incoming {
            Incoming::Timer { token, .. } if Some(*token) == self.renew_token => {
                self.renew_token = None;
                self.renew_all(sim, &mut events);
                self.ensure_renew_timer(sim);
            }
            Incoming::Timer { token, .. } if Some(*token) == self.regcheck_token => {
                self.check_registrars(sim.now(), &mut events);
                self.regcheck_token =
                    Some(sim.set_timer(self.node, self.registrar_timeout_ns / 2, REGCHECK_TAG));
            }
            Incoming::Message {
                from,
                channel,
                payload,
                ..
            } if &**channel == CHANNEL => {
                if let Ok(env) = pmp_wire::from_bytes::<pmp_trace::Traced<DiscoveryMsg>>(payload) {
                    self.handle_msg(sim, *from, env.msg, &mut events);
                }
            }
            _ => {}
        }
        events
    }

    fn handle_msg(
        &mut self,
        sim: &mut dyn NetPort,
        from: NodeId,
        msg: DiscoveryMsg,
        events: &mut Vec<DiscoveryEvent>,
    ) {
        match msg {
            DiscoveryMsg::Announce { name } => {
                let now = sim.now();
                let entry = self.registrars.entry(from).or_insert(KnownRegistrar {
                    name: name.clone(),
                    last_seen: now,
                    announced: false,
                });
                entry.last_seen = now;
                entry.name = name.clone();
                if !entry.announced {
                    entry.announced = true;
                    events.push(DiscoveryEvent::RegistrarDiscovered { node: from, name });
                }
            }
            DiscoveryMsg::Registered {
                service,
                lease_ns,
                req,
            } => {
                if let Some(reg) = self.registrations.iter_mut().find(|r| r.req == req) {
                    reg.service = Some(service);
                    reg.lease_ns = lease_ns;
                    events.push(DiscoveryEvent::Registered {
                        req,
                        service,
                        registrar: from,
                    });
                    // Schedule the first renewal at half-lease.
                    self.ensure_renew_timer(sim);
                }
            }
            DiscoveryMsg::RenewAck { service, ok, .. } => {
                if let Some(idx) = self
                    .registrations
                    .iter()
                    .position(|r| r.service == Some(service))
                {
                    if ok {
                        self.registrations[idx].outstanding = 0;
                    } else {
                        let reg = self.registrations.remove(idx);
                        events.push(DiscoveryEvent::RegistrationLost {
                            service,
                            registrar: reg.registrar,
                        });
                    }
                }
            }
            DiscoveryMsg::LookupResult { items, req } => {
                self.telemetry.inc("discovery.client.lookup_roundtrips");
                events.push(DiscoveryEvent::LookupDone { req, items });
            }
            DiscoveryMsg::FedLookupResult {
                items,
                hops,
                origin,
                req,
                ..
            } => {
                // In-transit relays are the co-located registrar's
                // business; only the origin's client consumes.
                if origin == self.node.0 {
                    self.telemetry.inc("discovery.client.fed_lookup_roundtrips");
                    events.push(DiscoveryEvent::FedLookupDone { req, items, hops });
                }
            }
            // Registrar-bound messages are ignored by the client.
            DiscoveryMsg::Register { .. }
            | DiscoveryMsg::Renew { .. }
            | DiscoveryMsg::Cancel { .. }
            | DiscoveryMsg::Lookup { .. }
            | DiscoveryMsg::FedLookup { .. }
            | DiscoveryMsg::DirDigest { .. }
            | DiscoveryMsg::DirPull { .. }
            | DiscoveryMsg::DirPush { .. } => {}
        }
    }

    fn renew_all(&mut self, sim: &mut dyn NetPort, events: &mut Vec<DiscoveryEvent>) {
        let mut lost: Vec<usize> = Vec::new();
        for (idx, reg) in self.registrations.iter_mut().enumerate() {
            let Some(service) = reg.service else {
                // Unconfirmed: the Register (or its reply) may have been
                // lost — re-send it with the same correlation id.
                let msg = DiscoveryMsg::Register {
                    item: reg.item.clone(),
                    lease_ns: reg.lease_ns,
                    req: reg.req,
                };
                sim.send(self.node, reg.registrar, CHANNEL, pmp_trace::TraceCtx::NIL.wrap(&msg));
                continue;
            };
            // Two unanswered renewals ⇒ the registrar is unreachable and
            // the lease will lapse: declare the registration lost.
            if reg.outstanding >= 2 {
                lost.push(idx);
                continue;
            }
            reg.outstanding += 1;
            let req = 0; // renewals correlate by service id
            let msg = DiscoveryMsg::Renew { service, req };
            sim.send(self.node, reg.registrar, CHANNEL, pmp_trace::TraceCtx::NIL.wrap(&msg));
        }
        for idx in lost.into_iter().rev() {
            let reg = self.registrations.remove(idx);
            if let Some(service) = reg.service {
                events.push(DiscoveryEvent::RegistrationLost {
                    service,
                    registrar: reg.registrar,
                });
            }
        }
    }

    fn check_registrars(&mut self, now: SimTime, events: &mut Vec<DiscoveryEvent>) {
        let timeout = self.registrar_timeout_ns;
        for (node, k) in &mut self.registrars {
            if k.announced && now.since(k.last_seen) > timeout {
                k.announced = false;
                events.push(DiscoveryEvent::RegistrarLost { node: *node });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registrar;
    use pmp_net::{Position, Simulator};

    /// Steps the world to `until`, feeding the registrar and the
    /// client; returns the client's events.
    fn run(
        sim: &mut Simulator,
        (base, registrar): (NodeId, &mut Registrar),
        client: &mut DiscoveryClient,
        until: SimTime,
    ) -> Vec<DiscoveryEvent> {
        let robot = client.node;
        let mut events = Vec::new();
        while sim.peek_next().is_some_and(|t| t <= until) {
            sim.step();
            for inc in sim.drain_inbox(base) {
                registrar.handle(sim, &inc);
            }
            for inc in sim.drain_inbox(robot) {
                events.extend(client.handle(sim, &inc));
            }
        }
        events
    }

    #[test]
    fn a_lost_registrar_is_not_known_until_it_is_rediscovered() {
        let mut sim = Simulator::new(42);
        let base = sim.add_node("base", Position::new(0.0, 0.0), 60.0);
        let robot = sim.add_node("robot", Position::new(5.0, 0.0), 60.0);
        let mut registrar = Registrar::new(base, "lookup:hall-a");
        let mut client = DiscoveryClient::new(robot);
        registrar.start(&mut sim);
        client.start(&mut sim);
        let known = |c: &DiscoveryClient| -> Vec<NodeId> {
            c.known_registrars().into_iter().map(|(n, _)| n).collect()
        };

        let events = run(&mut sim, (base, &mut registrar), &mut client, SimTime::from_secs(3));
        assert!(events.contains(&DiscoveryEvent::RegistrarDiscovered {
            node: base,
            name: "lookup:hall-a".into()
        }));
        assert_eq!(known(&client), [base]);

        // Out of range for longer than the registrar timeout.
        sim.move_node(robot, Position::new(1_000.0, 0.0));
        let away = SimTime::from_secs(3).plus(2 * client.registrar_timeout_ns);
        let events = run(&mut sim, (base, &mut registrar), &mut client, away);
        assert!(events.contains(&DiscoveryEvent::RegistrarLost { node: base }));
        assert!(known(&client).is_empty(), "a lost registrar is not listed");

        // Back in range: rediscovered and listed again.
        sim.move_node(robot, Position::new(5.0, 0.0));
        let events = run(&mut sim, (base, &mut registrar), &mut client, away.plus(3_000_000_000));
        assert!(events
            .iter()
            .any(|e| matches!(e, DiscoveryEvent::RegistrarDiscovered { node, .. } if *node == base)));
        assert_eq!(known(&client), [base]);
    }
}
