//! Simulated nodes and their inboxes.

use crate::clock::SimTime;
use crate::geo::Position;
use pmp_wire::{Reader, Wire, WireError, Writer};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Identifier of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// A node id travels as its `u32`.
impl Wire for NodeId {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        u32::decode(r).map(NodeId)
    }
}

/// Something that arrived at a node: a message or a fired timer.
#[derive(Debug, Clone, PartialEq)]
pub enum Incoming {
    /// A delivered message.
    Message {
        /// Sender.
        from: NodeId,
        /// Logical channel, e.g. `"midas"` (used to demultiplex).
        channel: Arc<str>,
        /// Payload bytes (wire-encoded by the protocol layer).
        payload: Vec<u8>,
        /// When it was sent.
        sent_at: SimTime,
    },
    /// A timer set via `Simulator::set_timer` fired.
    Timer {
        /// The token returned when the timer was set.
        token: u64,
        /// The caller-supplied tag.
        tag: Arc<str>,
    },
}

/// A simulated device: position, radio, and inbox.
#[derive(Debug)]
pub struct SimNode {
    /// The node's id.
    pub id: NodeId,
    /// Human-readable name (`"robot:1:1"`, `"base:hall-a"`).
    pub name: String,
    /// Current position.
    pub pos: Position,
    /// Radio range in metres.
    pub radio_range: f64,
    /// Whether the radio is on.
    pub online: bool,
    pub(crate) inbox: VecDeque<Incoming>,
}

impl SimNode {
    pub(crate) fn new(id: NodeId, name: String, pos: Position, radio_range: f64) -> Self {
        Self {
            id,
            name,
            pos,
            radio_range,
            online: true,
            inbox: VecDeque::new(),
        }
    }

    /// Number of queued inbox entries.
    pub fn inbox_len(&self) -> usize {
        self.inbox.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_basics() {
        let n = SimNode::new(NodeId(1), "robot".into(), Position::new(1.0, 2.0), 30.0);
        assert_eq!(n.inbox_len(), 0);
        assert!(n.online);
        assert_eq!(n.id.to_string(), "node#1");
    }
}
