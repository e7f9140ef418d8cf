//! The discrete-event simulator: nodes, areas, mobility, radio
//! connectivity, and the event queue.

use crate::clock::{ClockHandle, SimTime};
use crate::delivery::{DeliveryLog, NetStats};
use crate::geo::{Area, AreaId, Position};
use crate::link::LinkModel;
use crate::node::{Incoming, NodeId, SimNode};
use crate::port::{Names, NetCmd, NetPort};
use pmp_telemetry::{Shared, SimRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::sync::Arc;

/// One event routed to a node within an epoch, stamped with its
/// simulated delivery instant so the cell's clock can be set per event.
#[derive(Debug)]
pub struct TimedIncoming {
    /// The event's simulated time.
    pub at: SimTime,
    /// The event itself.
    pub incoming: Incoming,
}

/// All events of one conservative lookahead window, grouped by
/// destination node. [`Simulator::drain_epoch`] refills one `Epoch`
/// window after window, so its vectors are reused: the cost of a window
/// follows the nodes that have events, not the nodes in the world.
#[derive(Debug, Default)]
pub struct Epoch {
    /// First event time of the window (inclusive).
    pub start: SimTime,
    /// Window end (exclusive): `min(start + lookahead, until + 1)`.
    pub end: SimTime,
    /// The destinations that have events, in node order, each with its
    /// batch. Within a batch events are in global `(time, seq)` order.
    pub busy: Vec<(NodeId, Vec<TimedIncoming>)>,
    /// Emptied batch vectors, handed out again to the next window's
    /// destinations.
    spare: Vec<Vec<TimedIncoming>>,
    /// Per node, its position in `busy` while a window fills, else
    /// [`Epoch::UNLISTED`].
    slot: Vec<u32>,
}

impl Epoch {
    const UNLISTED: u32 = u32::MAX;

    /// Returns every batch vector to the spare pool, emptied.
    fn recycle(&mut self) {
        for (_, mut batch) in self.busy.drain(..) {
            batch.clear();
            self.spare.push(batch);
        }
    }

    /// Appends one event to `node`'s batch, listing `node` on its first.
    fn push(&mut self, node: NodeId, item: TimedIncoming) {
        let slot = &mut self.slot[node.0 as usize];
        if *slot == Epoch::UNLISTED {
            *slot = self.busy.len() as u32;
            self.busy.push((node, self.spare.pop().unwrap_or_default()));
        }
        self.busy[*slot as usize].1.push(item);
    }
}

#[derive(Debug)]
enum Pending {
    Deliver {
        to: NodeId,
        from: NodeId,
        channel: Arc<str>,
        payload: Vec<u8>,
        sent_at: SimTime,
    },
    TimerFire {
        node: NodeId,
        token: u64,
        tag: Arc<str>,
    },
    Move {
        node: NodeId,
        pos: Position,
    },
}

#[derive(Debug)]
struct QueueEntry {
    at: SimTime,
    seq: u64,
    pending: Pending,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The deterministic wireless-world simulator.
///
/// Protocol logic lives outside. Effects enter through two doors that
/// share one scheduler: direct calls ([`Simulator::send`] /
/// [`Simulator::broadcast`] / [`Simulator::set_timer`], issued now) and
/// buffered [`NetCmd`]s merged at an epoch barrier
/// ([`Simulator::apply_cmds`], issued at each command's `at`). Events
/// leave through [`Simulator::step`] (into node inboxes) or
/// [`Simulator::drain_epoch`] (into per-node batches), which route them
/// the same way. Determinism: all randomness (loss, jitter) comes from a
/// seeded RNG, and simultaneous events fire in submission order.
///
/// # Examples
///
/// ```
/// use pmp_net::prelude::*;
///
/// let mut sim = Simulator::new(42);
/// let a = sim.add_node("a", Position::new(0.0, 0.0), 50.0);
/// let b = sim.add_node("b", Position::new(10.0, 0.0), 50.0);
/// sim.send(a, b, "chat", b"hello".to_vec());
/// sim.step();
/// let inbox = sim.drain_inbox(b);
/// assert_eq!(inbox.len(), 1);
/// ```
#[derive(Debug)]
pub struct Simulator {
    clock: ClockHandle,
    nodes: Vec<SimNode>,
    areas: Vec<Area>,
    queue: BinaryHeap<Reverse<QueueEntry>>,
    seq: u64,
    next_timer_token: u64,
    rng: SimRng,
    link: LinkModel,
    partitions: BTreeSet<(NodeId, NodeId)>,
    /// Wired backhaul segments (both directions): unicast sends between
    /// these pairs ignore radio range and are never lost, modelling the
    /// LAN that connects federated base stations. Partitions still cut
    /// them (a backhaul switch can fail too).
    wired: BTreeSet<(NodeId, NodeId)>,
    /// Per-pair FIFO enforcement: a later send between the same two
    /// nodes never overtakes an earlier one (single-channel radio
    /// between one pair behaves like a FIFO link).
    fifo: BTreeMap<(NodeId, NodeId), SimTime>,
    /// Channel names and timer tags of the direct calls.
    names: Names,
    /// Delivery counters (in the telemetry registry) and the optional
    /// delivery log.
    pub deliveries: DeliveryLog,
}

impl Simulator {
    /// Creates a simulator with the default link model and the given
    /// RNG seed.
    pub fn new(seed: u64) -> Self {
        Self::with_link(seed, LinkModel::default())
    }

    /// Creates a simulator with an explicit link model.
    pub fn with_link(seed: u64, link: LinkModel) -> Self {
        Self {
            clock: ClockHandle::new(),
            nodes: Vec::new(),
            areas: Vec::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            next_timer_token: 1,
            rng: SimRng::new(seed),
            link,
            partitions: BTreeSet::new(),
            wired: BTreeSet::new(),
            fifo: BTreeMap::new(),
            names: Names::default(),
            deliveries: DeliveryLog::new(&Shared::new()),
        }
    }

    /// Clamps a sampled delivery time so the (from, to) pair stays FIFO.
    fn fifo_clamp(&mut self, from: NodeId, to: NodeId, at: SimTime) -> SimTime {
        let entry = self.fifo.entry((from, to)).or_insert(SimTime::ZERO);
        let at = if at <= *entry { entry.plus(1) } else { at };
        *entry = at;
        at
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// A shareable clock handle (for VMs and external components).
    pub fn clock(&self) -> ClockHandle {
        self.clock.clone()
    }

    /// Keeps the delivery counters in `shared` from now on (counters
    /// `net.sim.*` and `net.channel.<name>.bytes`, deliveries as
    /// `net.deliver` journal events) and stamps its journal with this
    /// simulator's clock. Until then they live in a registry of the
    /// simulator's own, so attach before any traffic.
    pub fn attach_telemetry(&mut self, shared: &Shared) {
        let clock = self.clock();
        shared.set_clock(Arc::new(move || clock.now().0));
        self.deliveries.attach(shared);
    }

    /// The delivery counters, read from the registry.
    pub fn stats(&self) -> NetStats {
        self.deliveries.stats()
    }

    // ------------------------------------------------------------------
    // World construction
    // ------------------------------------------------------------------

    /// Adds a node; returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, pos: Position, radio_range: f64) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(SimNode::new(id, name.into(), pos, radio_range));
        id
    }

    /// Adds a rectangular area; returns its id.
    pub fn add_area(&mut self, name: impl Into<String>, min: Position, max: Position) -> AreaId {
        let id = AreaId(self.areas.len() as u32);
        self.areas.push(Area {
            id,
            name: name.into(),
            min,
            max,
        });
        id
    }

    /// Immutable node access.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn node(&self, id: NodeId) -> &SimNode {
        &self.nodes[id.0 as usize]
    }

    /// Mutable node access.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn node_mut(&mut self, id: NodeId) -> &mut SimNode {
        &mut self.nodes[id.0 as usize]
    }

    /// All node ids.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as u32).map(NodeId).collect()
    }

    /// Area metadata.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn area(&self, id: AreaId) -> &Area {
        &self.areas[id.0 as usize]
    }

    /// The (first) area containing the node's position, if any.
    pub fn node_area(&self, id: NodeId) -> Option<AreaId> {
        let pos = self.node(id).pos;
        self.areas.iter().find(|a| a.contains(pos)).map(|a| a.id)
    }

    /// Moves a node immediately.
    pub fn move_node(&mut self, id: NodeId, pos: Position) {
        self.node_mut(id).pos = pos;
    }

    /// Schedules a move at a future time (simple waypoint mobility).
    pub fn schedule_move(&mut self, id: NodeId, at: SimTime, pos: Position) {
        self.push(at, Pending::Move { node: id, pos });
    }

    /// Turns a node's radio on or off.
    pub fn set_online(&mut self, id: NodeId, online: bool) {
        self.node_mut(id).online = online;
    }

    /// Blocks direct communication between two nodes (both directions) —
    /// partition injection for failure testing.
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        self.partitions.insert((a, b));
        self.partitions.insert((b, a));
    }

    /// Removes a partition.
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        self.partitions.remove(&(a, b));
        self.partitions.remove(&(b, a));
    }

    /// Adds a wired backhaul segment between two nodes (both
    /// directions): their unicast sends ignore radio range and loss,
    /// like the LAN linking federated base stations. Broadcasts stay
    /// radio-only, and partitions still sever the pair.
    pub fn add_wired_link(&mut self, a: NodeId, b: NodeId) {
        self.wired.insert((a, b));
        self.wired.insert((b, a));
    }

    /// Whether `a` and `b` share a wired backhaul segment.
    pub fn is_wired(&self, a: NodeId, b: NodeId) -> bool {
        self.wired.contains(&(a, b))
    }

    /// Multiplies every latency component of the link model by
    /// `mult` (base latency, per-byte cost, and jitter; loss is
    /// untouched). Models a degraded radio environment — the chaos
    /// harness uses it to inject latency regressions that the soak
    /// perf oracles must catch. `mult = 1` is a no-op.
    pub fn scale_link_latency(&mut self, mult: u32) {
        let m = u64::from(mult.max(1));
        self.link.base_latency_ns = self.link.base_latency_ns.saturating_mul(m);
        self.link.per_byte_ns = self.link.per_byte_ns.saturating_mul(m);
        self.link.jitter_ns = self.link.jitter_ns.saturating_mul(m);
    }

    /// The link model currently in force.
    pub fn link_model(&self) -> &LinkModel {
        &self.link
    }

    // ------------------------------------------------------------------
    // Communication
    // ------------------------------------------------------------------

    /// Whether a copy from `from` can reach `to`: loopback needs only an
    /// online node; otherwise both must be online and unpartitioned, and
    /// `to` within the sender's radio range or — when `wire` is set —
    /// joined to it by a wired backhaul segment.
    fn reaches(&self, from: NodeId, to: NodeId, wire: bool) -> bool {
        if from == to {
            // Loopback: components on one node always reach each other.
            return self.node(from).online;
        }
        if self.partitions.contains(&(from, to)) {
            return false;
        }
        let f = self.node(from);
        let t = self.node(to);
        f.online
            && t.online
            && ((wire && self.wired.contains(&(from, to)))
                || f.pos.distance(t.pos) <= f.radio_range)
    }

    /// Sends a unicast message. Returns `true` if the copy was queued
    /// (in range and not lost); the receiver must *still* be in range at
    /// delivery time.
    pub fn send(&mut self, from: NodeId, to: NodeId, channel: &str, payload: Vec<u8>) -> bool {
        let channel = self.names.get(channel);
        self.schedule_send(self.now(), from, to, channel, payload)
    }

    /// Broadcasts to every node currently in radio range; returns the
    /// number of copies queued.
    pub fn broadcast(&mut self, from: NodeId, channel: &str, payload: Vec<u8>) -> usize {
        let channel = self.names.get(channel);
        self.schedule_broadcast(self.now(), from, channel, payload)
    }

    /// Sets a one-shot timer on a node; the token identifies the firing
    /// in the inbox.
    pub fn set_timer(&mut self, node: NodeId, delay_ns: u64, tag: &str) -> u64 {
        let token = self.next_timer_token;
        self.next_timer_token += 1;
        let tag = self.names.get(tag);
        self.schedule_timer(self.now(), node, token, delay_ns, tag);
        token
    }

    /// Drains a node's inbox.
    pub fn drain_inbox(&mut self, id: NodeId) -> Vec<Incoming> {
        self.node_mut(id).inbox.drain(..).collect()
    }

    /// Schedules a unicast issued at `at`: over the wired backhaul when
    /// the pair has a segment, else over the radio if `to` is in range.
    fn schedule_send(
        &mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        channel: Arc<str>,
        payload: Vec<u8>,
    ) -> bool {
        self.deliveries.record_sent();
        if !self.reaches(from, to, true) {
            self.deliveries.record_drop_range();
            return false;
        }
        let wired = self.wired.contains(&(from, to));
        self.schedule_copy(at, from, to, wired, channel, payload)
    }

    /// Schedules a broadcast issued at `at`: one radio copy per node in
    /// radio reach (wired segments carry no broadcasts).
    fn schedule_broadcast(
        &mut self,
        at: SimTime,
        from: NodeId,
        channel: Arc<str>,
        payload: Vec<u8>,
    ) -> usize {
        self.deliveries.record_broadcast();
        let targets: Vec<NodeId> = self
            .node_ids()
            .into_iter()
            .filter(|&to| self.reaches(from, to, false))
            .collect();
        let mut queued = 0;
        for to in targets {
            if self.schedule_copy(at, from, to, false, channel.clone(), payload.clone()) {
                queued += 1;
            }
        }
        queued
    }

    /// Queues one copy issued at `at`. A wired copy takes the backhaul's
    /// fixed latency and draws no RNG, so backhaul traffic cannot shift
    /// the radio's loss stream; a radio copy samples loss and jitter.
    /// Returns `false` if the copy was lost.
    fn schedule_copy(
        &mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        wired: bool,
        channel: Arc<str>,
        payload: Vec<u8>,
    ) -> bool {
        let sampled = if wired {
            Some(self.link.sample_wired(at, payload.len()))
        } else {
            self.link.sample(at, payload.len(), &mut self.rng)
        };
        let Some(deliver_at) = sampled else {
            self.deliveries.record_drop_loss();
            return false;
        };
        let deliver_at = self.fifo_clamp(from, to, deliver_at);
        debug_assert!(
            deliver_at >= self.now(),
            "lookahead violated: delivery {deliver_at:?} before now {:?}",
            self.now()
        );
        self.push(
            deliver_at,
            Pending::Deliver {
                to,
                from,
                channel,
                payload,
                sent_at: at,
            },
        );
        true
    }

    /// Schedules a timer armed at `at` under a token the caller holds.
    fn schedule_timer(
        &mut self,
        at: SimTime,
        node: NodeId,
        token: u64,
        delay_ns: u64,
        tag: Arc<str>,
    ) {
        // A sub-lookahead delay armed inside a drained window could
        // point behind the clock; clamp to "now" so it stays monotonic
        // (documented divergence — every real timer in the platform is
        // orders of magnitude above the lookahead).
        let fire_at = at.plus(delay_ns).max(self.now());
        self.push(fire_at, Pending::TimerFire { node, token, tag });
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    fn push(&mut self, at: SimTime, pending: Pending) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(QueueEntry { at, seq, pending }));
    }

    /// `true` if events remain.
    pub fn has_events(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Time of the next pending event.
    pub fn peek_next(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(e)| e.at)
    }

    /// Pops the next event, advances the clock to it and routes it. A
    /// move applies here. A delivery whose receiver is still in reach,
    /// or a timer firing, is counted and returned with its destination;
    /// a delivery whose receiver left reach in flight is counted as a
    /// range drop. Returns `None` for anything not handed to a node.
    fn pop_event(&mut self) -> Option<(NodeId, Incoming)> {
        let Reverse(QueueEntry { at, pending, .. }) = self.queue.pop()?;
        self.clock.set(at);
        match pending {
            Pending::Deliver {
                to,
                from,
                channel,
                payload,
                sent_at,
            } => {
                if !self.reaches(from, to, true) {
                    self.deliveries.record_drop_range();
                    return None;
                }
                self.deliveries
                    .record_delivery(at, from, to, &channel, payload.len());
                Some((
                    to,
                    Incoming::Message {
                        from,
                        channel,
                        payload,
                        sent_at,
                    },
                ))
            }
            Pending::TimerFire { node, token, tag } => {
                self.deliveries.record_timer();
                Some((node, Incoming::Timer { token, tag }))
            }
            Pending::Move { node, pos } => {
                self.node_mut(node).pos = pos;
                None
            }
        }
    }

    /// Advances to the next event, processes *all* events at that
    /// instant, and returns the new time. Returns `None` when idle.
    pub fn step(&mut self) -> Option<SimTime> {
        let at = self.peek_next()?;
        while self.peek_next() == Some(at) {
            if let Some((node, incoming)) = self.pop_event() {
                self.node_mut(node).inbox.push_back(incoming);
            }
        }
        Some(at)
    }

    /// Runs events until simulated time exceeds `until` (events at
    /// exactly `until` are processed). The clock ends at
    /// `max(now, until)` even if the queue drains early.
    pub fn run_until(&mut self, until: SimTime) {
        while let Some(next) = self.peek_next() {
            if next > until {
                break;
            }
            self.step();
        }
        if self.now() < until {
            self.clock.set(until);
        }
    }

    /// Runs for `delta_ns` of simulated time from now.
    pub fn run_for(&mut self, delta_ns: u64) {
        let until = self.now().plus(delta_ns);
        self.run_until(until);
    }

    // ------------------------------------------------------------------
    // Sharded execution: epoch extraction and command merge
    // ------------------------------------------------------------------

    /// The conservative lookahead window, in nanoseconds: no message
    /// sent at time `t` can arrive before `t + lookahead`, because the
    /// link's base latency is the minimum of every sampled delay. Events
    /// within one window are therefore causally independent across
    /// nodes and may be dispatched concurrently.
    pub fn lookahead(&self) -> u64 {
        self.link.base_latency_ns.max(1)
    }

    /// Drains the next epoch into `epoch`: every queued event in
    /// `[next_event_time, min(next_event_time + lookahead, until + 1))`,
    /// grouped by destination node in [`Epoch::busy`]. The previous
    /// window's batches are emptied and their vectors reused first.
    /// Returns `false`, leaving `epoch` empty, when the next event lies
    /// beyond `until` (or the queue is idle).
    ///
    /// Scheduler-side effects stay here and stay serial: events are
    /// routed exactly as [`Simulator::step`] routes them, at their own
    /// timestamps, and the global clock advances through the window.
    /// Node-side dispatch is the driver's job.
    pub fn drain_epoch(&mut self, until: SimTime, epoch: &mut Epoch) -> bool {
        epoch.recycle();
        let Some(start) = self.peek_next().filter(|&start| start <= until) else {
            return false;
        };
        let end = start.plus(self.lookahead()).min(until.plus(1));
        (epoch.start, epoch.end) = (start, end);
        if epoch.slot.len() < self.nodes.len() {
            epoch.slot.resize(self.nodes.len(), Epoch::UNLISTED);
        }
        while let Some(at) = self.peek_next() {
            if at >= end {
                break;
            }
            if let Some((node, incoming)) = self.pop_event() {
                epoch.push(node, TimedIncoming { at, incoming });
            }
        }
        for (node, _) in &epoch.busy {
            epoch.slot[node.0 as usize] = Epoch::UNLISTED;
        }
        epoch.busy.sort_unstable_by_key(|(node, _)| *node);
        true
    }

    /// Replays buffered node effects against the scheduler, each at its
    /// issue time, through the same routines as the direct calls. The
    /// caller passes commands in deterministic `(time, source rank,
    /// seq)` order; loss and jitter are sampled *here*, so the RNG
    /// stream depends only on that order — never on how many threads
    /// computed the epoch.
    pub fn apply_cmds(&mut self, cmds: impl IntoIterator<Item = NetCmd>) {
        for cmd in cmds {
            match cmd {
                NetCmd::Send {
                    at,
                    from,
                    to,
                    channel,
                    payload,
                } => {
                    self.schedule_send(at, from, to, channel, payload);
                }
                NetCmd::Broadcast {
                    at,
                    from,
                    channel,
                    payload,
                } => {
                    self.schedule_broadcast(at, from, channel, payload);
                }
                NetCmd::Timer {
                    at,
                    node,
                    token,
                    delay_ns,
                    tag,
                } => self.schedule_timer(at, node, token, delay_ns, tag),
            }
        }
    }

    /// Stable 64-bit digest of the delivery log: the six counters plus
    /// every delivery when logging is enabled. See
    /// [`DeliveryLog::digest`].
    pub fn trace_digest(&self) -> u64 {
        self.deliveries.digest()
    }
}

impl NetPort for Simulator {
    fn now(&self) -> SimTime {
        Simulator::now(self)
    }

    fn send(&mut self, from: NodeId, to: NodeId, channel: &str, payload: Vec<u8>) -> bool {
        Simulator::send(self, from, to, channel, payload)
    }

    fn broadcast(&mut self, from: NodeId, channel: &str, payload: Vec<u8>) -> usize {
        Simulator::broadcast(self, from, channel, payload)
    }

    fn set_timer(&mut self, node: NodeId, delay_ns: u64, tag: &str) -> u64 {
        Simulator::set_timer(self, node, delay_ns, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::with_link(7, LinkModel::ideal());
        let a = sim.add_node("a", Position::new(0.0, 0.0), 50.0);
        let b = sim.add_node("b", Position::new(10.0, 0.0), 50.0);
        (sim, a, b)
    }

    #[test]
    fn unicast_delivery() {
        let (mut sim, a, b) = world();
        assert!(sim.send(a, b, "c", vec![1, 2, 3]));
        sim.step();
        let inbox = sim.drain_inbox(b);
        assert_eq!(inbox.len(), 1);
        match &inbox[0] {
            Incoming::Message { from, channel, payload, .. } => {
                assert_eq!(*from, a);
                assert_eq!(&**channel, "c");
                assert_eq!(payload, &[1, 2, 3]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(sim.stats().delivered, 1);
    }

    #[test]
    fn out_of_range_send_fails() {
        let (mut sim, a, b) = world();
        sim.move_node(b, Position::new(1000.0, 0.0));
        assert!(!sim.send(a, b, "c", vec![]));
        assert_eq!(sim.stats().dropped_range, 1);
    }

    #[test]
    fn in_flight_message_lost_when_receiver_leaves() {
        let mut sim = Simulator::new(7); // default link: ~1ms latency
        let a = sim.add_node("a", Position::new(0.0, 0.0), 50.0);
        let b = sim.add_node("b", Position::new(10.0, 0.0), 50.0);
        assert!(sim.send(a, b, "c", vec![0; 64]));
        // b leaves range before the ~1 ms delivery.
        sim.move_node(b, Position::new(1000.0, 0.0));
        sim.step();
        assert!(sim.drain_inbox(b).is_empty());
        assert_eq!(sim.stats().dropped_range, 1);
    }

    #[test]
    fn wired_link_ignores_range_and_loss() {
        let mut sim = Simulator::with_link(7, LinkModel::lossy(1.0));
        let a = sim.add_node("base-a", Position::new(0.0, 0.0), 50.0);
        let b = sim.add_node("base-b", Position::new(1000.0, 0.0), 50.0);
        assert!(!sim.send(a, b, "c", vec![1]), "radio: out of range");
        sim.add_wired_link(a, b);
        assert!(sim.is_wired(a, b) && sim.is_wired(b, a));
        // Reliable despite a 100%-loss radio, and despite the distance,
        // through either entry point.
        assert!(sim.send(a, b, "c", vec![2]));
        let at = sim.now();
        sim.apply_cmds([NetCmd::Send {
            at,
            from: a,
            to: b,
            channel: "c".into(),
            payload: vec![3],
        }]);
        sim.run_for(5_000_000);
        assert_eq!(sim.drain_inbox(b).len(), 2);
        assert_eq!(sim.stats().dropped_loss, 0);
    }

    #[test]
    fn wired_link_is_still_severed_by_partitions() {
        let mut sim = Simulator::with_link(7, LinkModel::ideal());
        let a = sim.add_node("base-a", Position::new(0.0, 0.0), 50.0);
        let b = sim.add_node("base-b", Position::new(1000.0, 0.0), 50.0);
        sim.add_wired_link(a, b);
        sim.partition(a, b);
        assert!(!sim.send(a, b, "c", vec![1]));
        sim.heal(a, b);
        assert!(sim.send(a, b, "c", vec![2]));
    }

    #[test]
    fn wired_sends_do_not_perturb_the_radio_rng() {
        // Two identical lossy worlds; one also exchanges wired traffic.
        // The radio messages must meet identical fates in both.
        let build = |wired_chatter: bool| {
            let mut sim = Simulator::with_link(11, LinkModel::lossy(0.5));
            let a = sim.add_node("a", Position::new(0.0, 0.0), 50.0);
            let b = sim.add_node("b", Position::new(10.0, 0.0), 50.0);
            let w1 = sim.add_node("w1", Position::new(0.0, 500.0), 50.0);
            let w2 = sim.add_node("w2", Position::new(500.0, 500.0), 50.0);
            sim.add_wired_link(w1, w2);
            let mut fates = Vec::new();
            for i in 0..32u8 {
                if wired_chatter {
                    sim.send(w1, w2, "backhaul", vec![i]);
                }
                fates.push(sim.send(a, b, "radio", vec![i]));
            }
            fates
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn broadcast_reaches_only_nodes_in_range() {
        let mut sim = Simulator::with_link(7, LinkModel::ideal());
        let base = sim.add_node("base", Position::new(0.0, 0.0), 30.0);
        let near = sim.add_node("near", Position::new(10.0, 0.0), 30.0);
        let far = sim.add_node("far", Position::new(100.0, 0.0), 30.0);
        // A wired peer out of radio range: the backhaul carries no
        // broadcasts.
        let wired = sim.add_node("wired", Position::new(1000.0, 0.0), 30.0);
        sim.add_wired_link(base, wired);
        let queued = sim.broadcast(base, "ann", b"hi".to_vec());
        assert_eq!(queued, 2, "near node plus loopback copy");
        // The same broadcast through the epoch barrier.
        let at = sim.now();
        sim.apply_cmds([NetCmd::Broadcast {
            at,
            from: base,
            channel: "ann".into(),
            payload: b"hi".to_vec(),
        }]);
        sim.run_for(1_000);
        assert_eq!(sim.drain_inbox(near).len(), 2);
        assert_eq!(sim.drain_inbox(base).len(), 2, "loopback multicast");
        assert!(sim.drain_inbox(far).is_empty());
        assert!(sim.drain_inbox(wired).is_empty());
    }

    #[test]
    fn an_epoch_lists_only_busy_destinations_in_node_order_and_reuses_its_buffers() {
        let (mut sim, a, b) = world();
        for i in 0..240 {
            sim.add_node(format!("idle-{i}"), Position::new(5_000.0 + f64::from(i), 0.0), 1.0);
        }
        let c = sim.add_node("c", Position::new(20.0, 0.0), 50.0);
        let mut epoch = Epoch::default();
        assert!(sim.send(a, c, "x", vec![1]));
        assert!(sim.drain_epoch(SimTime::from_secs(1), &mut epoch));
        assert_eq!(epoch.busy.len(), 1, "one busy destination, one entry");
        assert_eq!(epoch.busy[0].0, c);
        let batch = epoch.busy[0].1.as_ptr();
        // Sent to c first, then to b: listed in node order all the same,
        // and the first batch vector is handed out again.
        assert!(sim.send(a, c, "x", vec![2]));
        assert!(sim.send(a, b, "x", vec![3]));
        assert!(sim.drain_epoch(SimTime::from_secs(1), &mut epoch));
        let listed: Vec<NodeId> = epoch.busy.iter().map(|(node, _)| *node).collect();
        assert_eq!(listed, [b, c]);
        assert!(epoch.busy.iter().any(|(_, items)| items.as_ptr() == batch));
        assert!(epoch.busy.iter().all(|(_, items)| items.len() == 1));
        // An idle queue empties the epoch and keeps every vector.
        assert!(!sim.drain_epoch(SimTime::from_secs(1), &mut epoch));
        assert!(epoch.busy.is_empty());
        assert_eq!(epoch.spare.len(), 2);
        assert!(epoch.slot.iter().all(|&slot| slot == Epoch::UNLISTED));
    }

    #[test]
    fn loopback_unicast_delivers() {
        let (mut sim, a, _) = world();
        assert!(sim.send(a, a, "self", vec![9]));
        sim.step();
        assert_eq!(sim.drain_inbox(a).len(), 1);
    }

    #[test]
    fn timers_fire_in_order() {
        let (mut sim, a, _) = world();
        sim.set_timer(a, 3_000, "late");
        sim.set_timer(a, 1_000, "early");
        sim.run_for(10_000);
        let inbox = sim.drain_inbox(a);
        let tags: Vec<String> = inbox
            .iter()
            .map(|i| match i {
                Incoming::Timer { tag, .. } => tag.to_string(),
                _ => panic!(),
            })
            .collect();
        assert_eq!(tags, ["early", "late"]);
        assert_eq!(sim.stats().timers, 2);
    }

    #[test]
    fn partitions_block_and_heal() {
        let (mut sim, a, b) = world();
        sim.partition(a, b);
        assert!(!sim.send(a, b, "c", vec![]));
        assert!(!sim.send(b, a, "c", vec![]));
        sim.heal(a, b);
        assert!(sim.send(a, b, "c", vec![]));
    }

    #[test]
    fn offline_nodes_unreachable() {
        let (mut sim, a, b) = world();
        sim.set_online(b, false);
        assert!(!sim.send(a, b, "c", vec![]));
        sim.set_online(b, true);
        assert!(sim.send(a, b, "c", vec![]));
    }

    #[test]
    fn scheduled_moves_apply_at_time() {
        let (mut sim, a, _) = world();
        sim.schedule_move(a, SimTime::from_millis(5), Position::new(99.0, 0.0));
        assert_eq!(sim.node(a).pos, Position::new(0.0, 0.0));
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.node(a).pos, Position::new(99.0, 0.0));
    }

    #[test]
    fn areas_track_node_positions() {
        let mut sim = Simulator::new(1);
        let hall_a = sim.add_area("hall-a", Position::new(0.0, 0.0), Position::new(50.0, 50.0));
        let hall_b = sim.add_area("hall-b", Position::new(100.0, 0.0), Position::new(150.0, 50.0));
        let robot = sim.add_node("robot", Position::new(25.0, 25.0), 30.0);
        assert_eq!(sim.node_area(robot), Some(hall_a));
        sim.move_node(robot, Position::new(125.0, 25.0));
        assert_eq!(sim.node_area(robot), Some(hall_b));
        sim.move_node(robot, Position::new(75.0, 25.0));
        assert_eq!(sim.node_area(robot), None);
        assert_eq!(sim.area(hall_a).name, "hall-a");
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let (mut sim, _, _) = world();
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn per_pair_delivery_is_fifo() {
        // Many messages with jitter between the same pair must arrive
        // in send order.
        let mut sim = Simulator::new(3); // default link has jitter
        let a = sim.add_node("a", Position::new(0.0, 0.0), 50.0);
        let b = sim.add_node("b", Position::new(10.0, 0.0), 50.0);
        for i in 0..50u8 {
            sim.send(a, b, "seq", vec![i]);
        }
        sim.run_for(1_000_000_000);
        let got: Vec<u8> = sim
            .drain_inbox(b)
            .into_iter()
            .map(|inc| match inc {
                Incoming::Message { payload, .. } => payload[0],
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        let expected: Vec<u8> = (0..50).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn same_seed_same_outcome() {
        let run = |seed: u64| -> (u64, u64) {
            let mut sim = Simulator::with_link(seed, LinkModel::lossy(0.3));
            let a = sim.add_node("a", Position::new(0.0, 0.0), 50.0);
            let b = sim.add_node("b", Position::new(10.0, 0.0), 50.0);
            for _ in 0..100 {
                sim.send(a, b, "c", vec![0; 16]);
            }
            sim.run_for(1_000_000_000);
            (sim.stats().delivered, sim.stats().dropped_loss)
        };
        assert_eq!(run(5), run(5));
        // Loss actually happens at 30%.
        let (delivered, lost) = run(5);
        assert!(delivered > 0 && lost > 0);
        assert_eq!(delivered + lost, 100);
    }
}
