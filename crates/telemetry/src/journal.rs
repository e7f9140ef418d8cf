//! The structured event journal: a ring buffer of sim-time-stamped
//! point events.
//!
//! Components call [`Journal::event`] (or [`Journal::event_at`]) for
//! each event. Causal, multi-step work (a weave, an extension
//! verification) is traced as spans by `pmp-trace`, not here. The ring
//! drops the oldest events once full and counts what it dropped, so a
//! long scenario can run with a small cap.
//!
//! Most events the simulator journals are evicted unread, so a network
//! delivery ([`Journal::delivery`]) keeps its fields and renders its
//! detail text only when someone reads it ([`Event::detail`]).

use crate::Clock;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::Write;
use std::sync::Arc;

/// The platform layer an event originates from: the `subsystem` field
/// of exported events.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Subsystem {
    /// The managed runtime (`pmp-vm`).
    Vm,
    /// The weaver (`pmp-prose`).
    Prose,
    /// Extension distribution (`pmp-midas`).
    Midas,
    /// Registrar + leases (`pmp-discovery`).
    Discovery,
    /// The network simulator (`pmp-net`).
    Net,
    /// Platform facade and scenarios (`pmp-core`).
    Core,
    /// The benchmark harness (`pmp-bench`).
    Bench,
    /// The storage engine (`pmp-durable`).
    Durable,
}

impl Subsystem {
    /// Every subsystem, in export order.
    pub const ALL: [Subsystem; 8] = [
        Subsystem::Vm,
        Subsystem::Prose,
        Subsystem::Midas,
        Subsystem::Discovery,
        Subsystem::Net,
        Subsystem::Core,
        Subsystem::Bench,
        Subsystem::Durable,
    ];

    /// The lowercase display name (`"vm"`, `"prose"`, …).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Vm => "vm",
            Subsystem::Prose => "prose",
            Subsystem::Midas => "midas",
            Subsystem::Discovery => "discovery",
            Subsystem::Net => "net",
            Subsystem::Core => "core",
            Subsystem::Bench => "bench",
            Subsystem::Durable => "durable",
        }
    }
}

/// One journal entry: a point event.
#[derive(Clone, Debug)]
pub struct Event {
    /// Monotonic sequence number (survives ring-buffer eviction).
    pub seq: u64,
    /// Sim-time stamp from the injected clock (0 without a clock).
    pub at: u64,
    /// Originating layer.
    pub subsystem: Subsystem,
    /// Event name, dot-scoped like metrics (`"midas.verify"`).
    pub name: &'static str,
    detail: Detail,
}

/// What an event says beyond its name.
#[derive(Clone, Debug)]
enum Detail {
    Text(String),
    /// A network delivery, read as `"{from}->{to} {channel} {bytes}B"`.
    Delivery {
        from: u32,
        to: u32,
        channel: Arc<str>,
        bytes: u64,
    },
}

impl Event {
    /// Free-form detail (extension id, node, byte count, …). A
    /// delivery's text is rendered here, on read.
    #[must_use]
    pub fn detail(&self) -> Cow<'_, str> {
        match &self.detail {
            Detail::Text(text) => Cow::Borrowed(text),
            Detail::Delivery { .. } => {
                let mut out = String::new();
                self.render_detail(&mut out);
                Cow::Owned(out)
            }
        }
    }

    /// Appends the detail text to `out`.
    fn render_detail(&self, out: &mut String) {
        match &self.detail {
            Detail::Text(text) => out.push_str(text),
            Detail::Delivery {
                from,
                to,
                channel,
                bytes,
            } => {
                let _ = write!(out, "{from}->{to} {channel} {bytes}B");
            }
        }
    }
}

/// The ring-buffered event journal.
pub struct Journal {
    cap: usize,
    buf: VecDeque<Event>,
    seq: u64,
    dropped: u64,
    clock: Option<Clock>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("cap", &self.cap)
            .field("len", &self.buf.len())
            .field("seq", &self.seq)
            .field("dropped", &self.dropped)
            .finish_non_exhaustive()
    }
}

impl Default for Journal {
    fn default() -> Journal {
        Journal::new(crate::DEFAULT_JOURNAL_CAP)
    }
}

impl Journal {
    /// An empty journal keeping at most `cap` events.
    #[must_use]
    pub fn new(cap: usize) -> Journal {
        Journal {
            cap: cap.max(1),
            buf: VecDeque::new(),
            seq: 0,
            dropped: 0,
            clock: None,
        }
    }

    /// Installs the time source used to stamp events.
    pub fn set_clock(&mut self, clock: Clock) {
        self.clock = Some(clock);
    }

    /// Current time from the injected clock (0 without one).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.clock.as_ref().map_or(0, |c| c())
    }

    /// Appends a point event.
    pub fn event(&mut self, sub: Subsystem, name: &'static str, detail: impl Into<String>) {
        let at = self.now();
        self.push(at, sub, name, Detail::Text(detail.into()));
    }

    /// Appends a point event stamped with an explicit time instead of
    /// the injected clock. Used by execution drivers that buffer events
    /// per node cell during an epoch and merge them at the barrier in
    /// deterministic `(time, cell, seq)` order — each buffered event
    /// carries the cell-clock reading it was emitted at.
    pub fn event_at(&mut self, at: u64, sub: Subsystem, name: &'static str, detail: impl Into<String>) {
        self.push(at, sub, name, Detail::Text(detail.into()));
    }

    /// Appends a network delivery of `bytes` on `channel` from node
    /// `from` to node `to`. The fields are kept as they are; the detail
    /// reads `"{from}->{to} {channel} {bytes}B"` once rendered.
    pub fn delivery(
        &mut self,
        sub: Subsystem,
        name: &'static str,
        from: u32,
        to: u32,
        channel: Arc<str>,
        bytes: u64,
    ) {
        let at = self.now();
        let detail = Detail::Delivery {
            from,
            to,
            channel,
            bytes,
        };
        self.push(at, sub, name, detail);
    }

    fn push(&mut self, at: u64, sub: Subsystem, name: &'static str, detail: Detail) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(Event {
            seq: self.seq,
            at,
            subsystem: sub,
            name,
            detail,
        });
        self.seq += 1;
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf.iter()
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted by the ring so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever journaled (retained + dropped).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.seq
    }

    /// Stable 64-bit FNV-1a digest over the journal's observable state:
    /// total/dropped counts plus every retained event's `(seq, at,
    /// subsystem, name, detail)`. Two runs are journal-identical iff
    /// their digests match (module hash collisions). Histogram *values*
    /// never enter the journal, so wall-clock-measured durations
    /// recorded via the registry don't perturb the digest.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = crate::digest::Fnv64::new();
        h.write_u64(self.seq);
        h.write_u64(self.dropped);
        let mut detail = String::new();
        for e in &self.buf {
            h.write_u64(e.seq);
            h.write_u64(e.at);
            // Span id 0 and point-kind tag 2 of the former layout: digests stay put.
            h.write_u64(0);
            h.write_str(e.subsystem.name());
            h.write_u64(2);
            h.write_str(e.name);
            detail.clear();
            e.render_detail(&mut detail);
            h.write_str(&detail);
        }
        h.finish()
    }

    /// Forgets all events and resets the drop counter; the clock
    /// survives.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.seq = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_events_are_sequenced() {
        let mut j = Journal::new(8);
        j.event(Subsystem::Vm, "a", "1");
        j.event(Subsystem::Net, "b", "2");
        let seqs: Vec<u64> = j.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
        assert_eq!(j.events().next().unwrap().at, 0, "no clock → at=0");
    }

    // -- Ring wraparound (satellite: telemetry coverage) --

    #[test]
    fn ring_wraps_and_counts_drops() {
        const NAMES: [&str; 10] = ["e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"];
        let mut j = Journal::new(3);
        for name in NAMES {
            j.event(Subsystem::Core, name, "");
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.dropped(), 7);
        assert_eq!(j.total(), 10);
        let names: Vec<&str> = j.events().map(|e| e.name).collect();
        assert_eq!(names, vec!["e7", "e8", "e9"], "oldest evicted first");
        let seqs: Vec<u64> = j.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9], "sequence numbers survive eviction");
    }

    #[test]
    fn a_delivery_renders_its_detail_on_read_and_digests_as_text() {
        let mut stored = Journal::new(8);
        stored.delivery(Subsystem::Net, "net.deliver", 3, 0, Arc::from("rpc"), 42);
        let mut text = Journal::new(8);
        text.event(Subsystem::Net, "net.deliver", "3->0 rpc 42B");
        let e = stored.events().next().unwrap();
        assert_eq!(e.name, "net.deliver");
        assert_eq!(e.detail(), "3->0 rpc 42B");
        assert_eq!(stored.digest(), text.digest());
    }

    #[test]
    fn subsystem_names_are_distinct() {
        let mut names: Vec<&str> = Subsystem::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Subsystem::ALL.len());
    }
}
