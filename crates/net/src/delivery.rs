//! Delivery accounting and an optional delivery log.
//!
//! The simulator's telemetry registry is the only store of its
//! numbers: every send, broadcast, timer firing, drop and delivery
//! bumps one `net.sim.*` counter there (plus `net.channel.<name>.bytes`
//! per delivery), and each delivery is journaled as a `net.deliver`
//! event. [`NetStats`] is a value read back from those counters
//! ([`crate::Simulator::stats`]), the way `VmStats` is read from a VM's
//! registry.

use crate::clock::SimTime;
use crate::node::NodeId;
use pmp_telemetry::{CounterId, Shared, Subsystem};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Aggregate counters over a simulation run, read from the registry.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetStats {
    /// Unicast messages submitted.
    pub sent: u64,
    /// Message copies delivered into inboxes.
    pub delivered: u64,
    /// Copies dropped because sender/receiver were out of range or
    /// offline at send or delivery time.
    pub dropped_range: u64,
    /// Copies dropped by the link loss model.
    pub dropped_loss: u64,
    /// Broadcast operations submitted.
    pub broadcasts: u64,
    /// Timers fired.
    pub timers: u64,
}

/// One logged delivery (only kept when logging is enabled).
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// Delivery time.
    pub at: SimTime,
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Channel name.
    pub channel: String,
    /// Payload size in bytes.
    pub bytes: usize,
}

/// Registry ids of the six `net.sim.*` counters.
#[derive(Debug, Clone, Copy)]
struct Counters {
    sent: CounterId,
    delivered: CounterId,
    dropped_range: CounterId,
    dropped_loss: CounterId,
    broadcasts: CounterId,
    timers: CounterId,
}

/// The simulator's delivery counters, held in a telemetry registry,
/// and the optional per-delivery log.
#[derive(Debug)]
pub struct DeliveryLog {
    telemetry: Shared,
    ids: Counters,
    /// Lazily-registered `net.channel.<name>.bytes` counters.
    channel_bytes: BTreeMap<String, CounterId>,
    logging: bool,
    log: Vec<Delivery>,
}

impl DeliveryLog {
    /// Accounting into `telemetry`, with logging off.
    pub(crate) fn new(telemetry: &Shared) -> DeliveryLog {
        let mut t = telemetry.lock();
        let ids = Counters {
            sent: t.registry.counter("net.sim.sent"),
            delivered: t.registry.counter("net.sim.delivered"),
            dropped_range: t.registry.counter("net.sim.dropped_range"),
            dropped_loss: t.registry.counter("net.sim.dropped_loss"),
            broadcasts: t.registry.counter("net.sim.broadcasts"),
            timers: t.registry.counter("net.sim.timers"),
        };
        drop(t);
        DeliveryLog {
            telemetry: telemetry.clone(),
            ids,
            channel_bytes: BTreeMap::new(),
            logging: false,
            log: Vec::new(),
        }
    }

    /// Moves the counters into `telemetry`; the logging flag and the
    /// log stay. Counts already taken stay behind in the old registry.
    pub(crate) fn attach(&mut self, telemetry: &Shared) {
        *self = DeliveryLog {
            logging: self.logging,
            log: std::mem::take(&mut self.log),
            ..DeliveryLog::new(telemetry)
        };
    }

    /// Enables/disables the per-delivery log.
    pub fn set_logging(&mut self, enabled: bool) {
        self.logging = enabled;
    }

    /// The logged deliveries (empty unless logging was enabled).
    pub fn log(&self) -> &[Delivery] {
        &self.log
    }

    fn inc(&self, id: CounterId) {
        self.telemetry.with(|t| t.registry.inc(id));
    }

    pub(crate) fn record_sent(&self) {
        self.inc(self.ids.sent);
    }

    pub(crate) fn record_broadcast(&self) {
        self.inc(self.ids.broadcasts);
    }

    pub(crate) fn record_timer(&self) {
        self.inc(self.ids.timers);
    }

    pub(crate) fn record_drop_range(&self) {
        self.inc(self.ids.dropped_range);
    }

    pub(crate) fn record_drop_loss(&self) {
        self.inc(self.ids.dropped_loss);
    }

    /// Counts a delivery and journals it as a `net.deliver` event,
    /// whose `"{from}->{to} {channel} {bytes}B"` detail the journal
    /// renders only if it is read.
    pub(crate) fn record_delivery(
        &mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        channel: &Arc<str>,
        bytes: usize,
    ) {
        let chan = match self.channel_bytes.get(&**channel) {
            Some(&id) => id,
            None => {
                let id = self
                    .telemetry
                    .lock()
                    .registry
                    .counter(&format!("net.channel.{channel}.bytes"));
                self.channel_bytes.insert(channel.to_string(), id);
                id
            }
        };
        let delivered = self.ids.delivered;
        self.telemetry.with(|t| {
            t.registry.inc(delivered);
            t.registry.add(chan, bytes as u64);
            t.journal.delivery(
                Subsystem::Net,
                "net.deliver",
                from.0,
                to.0,
                Arc::clone(channel),
                bytes as u64,
            );
        });
        if self.logging {
            self.log.push(Delivery {
                at,
                from,
                to,
                channel: channel.to_string(),
                bytes,
            });
        }
    }

    /// The six counters, read from the registry.
    pub(crate) fn stats(&self) -> NetStats {
        let t = self.telemetry.lock();
        let r = &t.registry;
        NetStats {
            sent: r.counter_get(self.ids.sent),
            delivered: r.counter_get(self.ids.delivered),
            dropped_range: r.counter_get(self.ids.dropped_range),
            dropped_loss: r.counter_get(self.ids.dropped_loss),
            broadcasts: r.counter_get(self.ids.broadcasts),
            timers: r.counter_get(self.ids.timers),
        }
    }

    /// Stable 64-bit FNV-1a digest over the six counters and — when
    /// logging is enabled — every delivery's `(at, from, to, channel,
    /// bytes)` in order. The cross-driver determinism suite enables
    /// logging and compares digests between the serial and parallel
    /// engines; equal digests mean the byte-level delivery sequence is
    /// identical.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let s = self.stats();
        let mut h = pmp_telemetry::Fnv64::new();
        h.write_u64(s.sent);
        h.write_u64(s.delivered);
        h.write_u64(s.dropped_range);
        h.write_u64(s.dropped_loss);
        h.write_u64(s.broadcasts);
        h.write_u64(s.timers);
        h.write_u64(self.log.len() as u64);
        for e in &self.log {
            h.write_u64(e.at.0);
            h.write_u64(u64::from(e.from.0));
            h.write_u64(u64::from(e.to.0));
            h.write_str(&e.channel);
            h.write_u64(e.bytes as u64);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(log: &mut DeliveryLog, channel: &str, bytes: usize) {
        log.record_delivery(SimTime::ZERO, NodeId(0), NodeId(1), &Arc::from(channel), bytes);
    }

    #[test]
    fn logging_toggle() {
        let mut d = DeliveryLog::new(&Shared::new());
        deliver(&mut d, "x", 3);
        assert_eq!(d.stats().delivered, 1);
        assert!(d.log().is_empty());
        d.set_logging(true);
        deliver(&mut d, "x", 3);
        assert_eq!(d.log().len(), 1);
        assert_eq!(d.log()[0].channel, "x");
    }

    #[test]
    fn attached_registry_takes_channel_bytes_and_deliver_events() {
        let own = Shared::new();
        let mut d = DeliveryLog::new(&own);
        d.set_logging(true);
        let shared = Shared::new();
        d.attach(&shared);
        d.record_sent();
        deliver(&mut d, "x", 3);
        deliver(&mut d, "y", 10);
        deliver(&mut d, "x", 4);
        assert_eq!(shared.counter_value("net.channel.x.bytes"), 7);
        assert_eq!(shared.counter_value("net.channel.y.bytes"), 10);
        // Deliveries are journaled in the attached registry's journal.
        let details: Vec<String> = shared.with(|t| {
            t.journal
                .events()
                .filter(|e| e.name == "net.deliver")
                .map(|e| e.detail().into_owned())
                .collect()
        });
        assert_eq!(details, ["0->1 x 3B", "0->1 y 10B", "0->1 x 4B"]);
        // Nothing lands in the registry it left, and logging survived.
        assert_eq!(own.counter_value("net.sim.sent"), 0);
        assert_eq!(own.counter_value("net.channel.x.bytes"), 0);
        assert_eq!(d.log().len(), 3);
    }
}
