//! The component-facing network port.
//!
//! Protocol components (discovery, MIDAS, the host wiring) talk to the
//! world through the narrow [`NetPort`] surface: read the clock, send,
//! broadcast, arm a timer. Two implementations exist, and both feed one
//! scheduler: the simulator has one routine per effect (unicast,
//! broadcast, timer) that takes the effect's issue time.
//!
//! * [`Simulator`](crate::Simulator) — the direct path: effects are
//!   issued now and scheduled immediately. It carries out-of-band
//!   platform calls (RPC issue, publish, revoke, register, start) and
//!   component tests driven by [`Simulator::step`](crate::Simulator::step);
//! * [`PortBuf`] — the sharded path: effects are buffered as
//!   [`NetCmd`]s while a node computes inside an epoch, then merged
//!   into the scheduler in a deterministic `(time, source, seq)` order
//!   at the epoch barrier, each at its own issue time, so a parallel run
//!   inserts exactly the same events as a serial one.
//!
//! `&mut Simulator` coerces implicitly to `&mut dyn NetPort`, so call
//! sites that own a simulator keep working unchanged.

use crate::clock::{ClockHandle, SimTime};
use crate::node::NodeId;
use std::sync::Arc;

/// What a protocol component may do to the network.
pub trait NetPort {
    /// Current simulated time as seen by this component.
    fn now(&self) -> SimTime;

    /// Sends a unicast message. On the direct path the return value
    /// reports whether a copy was queued; a buffering port cannot know
    /// yet and optimistically returns `true` (the link model is applied
    /// at the merge). Components must not branch on it.
    fn send(&mut self, from: NodeId, to: NodeId, channel: &str, payload: Vec<u8>) -> bool;

    /// Broadcasts to every node in range; returns the number of copies
    /// queued on the direct path and `0` on a buffering port.
    fn broadcast(&mut self, from: NodeId, channel: &str, payload: Vec<u8>) -> usize;

    /// Arms a one-shot timer and returns its token. Tokens from a
    /// buffering port come from a disjoint per-node namespace so they
    /// never collide with the simulator's sequential tokens.
    fn set_timer(&mut self, node: NodeId, delay_ns: u64, tag: &str) -> u64;
}

/// A buffered network effect, replayed against the scheduler at an
/// epoch barrier. `at` is the simulated instant the component issued
/// the call (its event's timestamp), which the scheduler uses as the
/// send/arm time when it applies the command.
#[derive(Debug, Clone, PartialEq)]
pub enum NetCmd {
    /// A unicast send issued at `at`.
    Send {
        /// Issue time.
        at: SimTime,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Channel name.
        channel: Arc<str>,
        /// Payload bytes.
        payload: Vec<u8>,
    },
    /// A broadcast issued at `at`.
    Broadcast {
        /// Issue time.
        at: SimTime,
        /// Sender.
        from: NodeId,
        /// Channel name.
        channel: Arc<str>,
        /// Payload bytes.
        payload: Vec<u8>,
    },
    /// A timer armed at `at`, firing `delay_ns` later.
    Timer {
        /// Arm time.
        at: SimTime,
        /// Owning node.
        node: NodeId,
        /// Pre-allocated token (the component already holds it).
        token: u64,
        /// Delay from `at` to firing.
        delay_ns: u64,
        /// Tag echoed in the firing.
        tag: Arc<str>,
    },
}

impl NetCmd {
    /// The simulated instant the command was issued.
    pub fn at(&self) -> SimTime {
        match self {
            NetCmd::Send { at, .. } | NetCmd::Broadcast { at, .. } | NetCmd::Timer { at, .. } => {
                *at
            }
        }
    }
}

/// Channel names and timer tags, each allocated once, so buffering or
/// scheduling a message costs a reference count, not an allocation.
/// Components use a handful of constant names; past [`Names::CAP`]
/// distinct ones a name is allocated per use instead of kept.
#[derive(Debug, Default)]
pub(crate) struct Names(Vec<Arc<str>>);

impl Names {
    const CAP: usize = 64;

    /// The shared copy of `name`.
    pub(crate) fn get(&mut self, name: &str) -> Arc<str> {
        if let Some(known) = self.0.iter().find(|known| ***known == *name) {
            return Arc::clone(known);
        }
        let fresh: Arc<str> = Arc::from(name);
        if self.0.len() < Names::CAP {
            self.0.push(Arc::clone(&fresh));
        }
        fresh
    }
}

/// Timer tokens handed out by a [`PortBuf`] live in a per-node high
/// namespace (`(node + 1) << PORT_TOKEN_SHIFT | counter`) so they are
/// deterministic per node — independent of scheduling — and disjoint
/// from the simulator's small sequential tokens on the direct path.
pub const PORT_TOKEN_SHIFT: u32 = 40;

/// A buffering [`NetPort`] owned by one node's cell.
///
/// Reads time from a per-cell [`ClockHandle`] (set by the driver to the
/// timestamp of the event being dispatched) and records every effect as
/// a [`NetCmd`] for the barrier merge.
#[derive(Debug)]
pub struct PortBuf {
    node: NodeId,
    clock: ClockHandle,
    token_base: u64,
    token_counter: u64,
    cmds: Vec<NetCmd>,
    names: Names,
}

impl PortBuf {
    /// Creates a port for `node` reading `clock`.
    pub fn new(node: NodeId, clock: ClockHandle) -> Self {
        Self {
            node,
            clock,
            token_base: (u64::from(node.0) + 1) << PORT_TOKEN_SHIFT,
            token_counter: 0,
            cmds: Vec::new(),
            names: Names::default(),
        }
    }

    /// The owning node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The per-cell clock this port reads.
    pub fn clock(&self) -> ClockHandle {
        self.clock.clone()
    }

    /// `true` when no effects are buffered.
    pub fn is_empty(&self) -> bool {
        self.cmds.is_empty()
    }

    /// Moves the buffered effects, in issue order, to the end of `out`;
    /// the port keeps its buffer's capacity.
    pub fn drain_into(&mut self, out: &mut Vec<NetCmd>) {
        out.append(&mut self.cmds);
    }
}

impl NetPort for PortBuf {
    fn now(&self) -> SimTime {
        self.clock.now()
    }

    fn send(&mut self, from: NodeId, to: NodeId, channel: &str, payload: Vec<u8>) -> bool {
        self.cmds.push(NetCmd::Send {
            at: self.clock.now(),
            from,
            to,
            channel: self.names.get(channel),
            payload,
        });
        true
    }

    fn broadcast(&mut self, from: NodeId, channel: &str, payload: Vec<u8>) -> usize {
        self.cmds.push(NetCmd::Broadcast {
            at: self.clock.now(),
            from,
            channel: self.names.get(channel),
            payload,
        });
        0
    }

    fn set_timer(&mut self, node: NodeId, delay_ns: u64, tag: &str) -> u64 {
        self.token_counter += 1;
        let token = self.token_base | self.token_counter;
        self.cmds.push(NetCmd::Timer {
            at: self.clock.now(),
            node,
            token,
            delay_ns,
            tag: self.names.get(tag),
        });
        token
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_effects_with_issue_time() {
        let clock = ClockHandle::new();
        let mut port = PortBuf::new(NodeId(2), clock.clone());
        clock.set(SimTime(500));
        assert!(port.send(NodeId(2), NodeId(0), "c", vec![1]));
        clock.set(SimTime(900));
        let token = port.set_timer(NodeId(2), 1_000, "t");
        assert_eq!(token, (3u64 << PORT_TOKEN_SHIFT) | 1);
        let mut cmds = Vec::new();
        port.drain_into(&mut cmds);
        assert_eq!(cmds.len(), 2);
        assert_eq!(cmds[0].at(), SimTime(500));
        assert_eq!(cmds[1].at(), SimTime(900));
        assert!(port.is_empty());
    }

    #[test]
    fn tokens_are_per_node_deterministic() {
        let mut p1 = PortBuf::new(NodeId(0), ClockHandle::new());
        let mut p2 = PortBuf::new(NodeId(1), ClockHandle::new());
        let t1 = p1.set_timer(NodeId(0), 1, "a");
        let t2 = p2.set_timer(NodeId(1), 1, "a");
        assert_ne!(t1, t2);
        // Re-creating the port reproduces the same token sequence.
        let mut p1b = PortBuf::new(NodeId(0), ClockHandle::new());
        assert_eq!(p1b.set_timer(NodeId(0), 1, "a"), t1);
    }
}
