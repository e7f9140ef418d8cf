//! The space server: the bag of tuples plus subscriptions.

use crate::proto::{SpaceMsg, CHANNEL};
use crate::tuple::{Pattern, Tuple};
use pmp_net::{Incoming, NodeId, Simulator};
use pmp_trace::{TraceCtx, Traced};

#[derive(Debug)]
struct Subscription {
    owner: NodeId,
    sub: u64,
    pattern: Pattern,
}

/// A tuple space hosted on one node. Drive it by passing every
/// [`Incoming`] of its host node to [`TupleSpace::handle`].
#[derive(Debug)]
pub struct TupleSpace {
    node: NodeId,
    tuples: Vec<Tuple>,
    subs: Vec<Subscription>,
}

impl TupleSpace {
    /// Creates an empty space on `node`.
    pub fn new(node: NodeId) -> Self {
        Self {
            node,
            tuples: Vec::new(),
            subs: Vec::new(),
        }
    }

    /// Number of tuples currently in the space.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Returns `true` if the space holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Deposits a tuple locally (host-side `out`, no network hop) and
    /// pushes notifications to matching subscribers.
    pub fn out_local(&mut self, sim: &mut Simulator, tuple: Tuple) {
        self.out_with(sim, tuple, TraceCtx::NIL);
    }

    /// `out` with the depositing request's trace context: notifications
    /// triggered by the deposit inherit its causal position.
    fn out_with(&mut self, sim: &mut Simulator, tuple: Tuple, ctx: TraceCtx) {
        for s in &self.subs {
            if s.pattern.matches(&tuple) {
                let msg = SpaceMsg::Notify {
                    sub: s.sub,
                    tuple: tuple.clone(),
                };
                sim.send(self.node, s.owner, CHANNEL, ctx.wrap(&msg));
            }
        }
        self.tuples.push(tuple);
    }

    fn find(&self, pattern: &Pattern) -> Option<usize> {
        self.tuples.iter().position(|t| pattern.matches(t))
    }

    /// Processes one inbox entry of the host node.
    pub fn handle(&mut self, sim: &mut Simulator, incoming: &Incoming) {
        let Incoming::Message {
            from,
            channel,
            payload,
            ..
        } = incoming
        else {
            return;
        };
        if &**channel != CHANNEL {
            return;
        }
        let Ok(env) = pmp_wire::from_bytes::<Traced<SpaceMsg>>(payload) else {
            return;
        };
        let ctx = env.ctx;
        match env.msg {
            SpaceMsg::Out { tuple } => self.out_with(sim, tuple, ctx),
            SpaceMsg::Rd { pattern, req } => {
                let tuple = self.find(&pattern).map(|i| self.tuples[i].clone());
                let reply = SpaceMsg::Result { req, tuple };
                sim.send(self.node, *from, CHANNEL, ctx.wrap(&reply));
            }
            SpaceMsg::In { pattern, req } => {
                let tuple = self.find(&pattern).map(|i| self.tuples.remove(i));
                let reply = SpaceMsg::Result { req, tuple };
                sim.send(self.node, *from, CHANNEL, ctx.wrap(&reply));
            }
            SpaceMsg::Subscribe { pattern, sub } => {
                // Replay matching existing tuples, then remember.
                for t in self.tuples.iter().filter(|t| pattern.matches(t)) {
                    let msg = SpaceMsg::Notify {
                        sub,
                        tuple: t.clone(),
                    };
                    sim.send(self.node, *from, CHANNEL, ctx.wrap(&msg));
                }
                self.subs.push(Subscription {
                    owner: *from,
                    sub,
                    pattern,
                });
            }
            SpaceMsg::Unsubscribe { sub } => {
                self.subs.retain(|s| !(s.owner == *from && s.sub == sub));
            }
            // Client-bound messages are ignored by the server.
            SpaceMsg::Result { .. } | SpaceMsg::Notify { .. } => {}
        }
    }
}
