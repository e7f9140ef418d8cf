//! Span records and flight-recorder entries.

use pmp_wire::{wire_enum, wire_struct};

/// One finished span. Spans are *instant* — `start == end` in sim-time
/// — because within a node cell sim-time does not advance; the latency
/// structure of a trace lives in the start-time deltas between parent
/// and child spans (the network hops).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to (the root span's id).
    pub trace_id: u64,
    /// This span's id: `(node << 32) | seq`, seq starting at 1.
    pub span_id: u64,
    /// The causing span's id (0 for a root).
    pub parent_id: u64,
    /// The node the span was recorded on.
    pub node: u32,
    /// Sim-time (ns) the span was recorded at.
    pub start: u64,
    /// Sim-time (ns) the span ended at (== `start` today).
    pub end: u64,
    /// Dot-scoped name, like metrics (`"midas.verify"`).
    pub name: String,
    /// Free-form detail (extension id, target node, …).
    pub detail: String,
}

wire_struct!(SpanRecord {
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    node: u32,
    start: u64,
    end: u64,
    name: String,
    detail: String
});

impl SpanRecord {
    /// The node a span id was minted on.
    #[must_use]
    pub fn node_of(span_id: u64) -> u32 {
        (span_id >> 32) as u32
    }

    /// Feeds this span's canonical fields into `h`.
    pub fn hash_into(&self, h: &mut pmp_telemetry::Fnv64) {
        h.write_u64(self.trace_id);
        h.write_u64(self.span_id);
        h.write_u64(self.parent_id);
        h.write_u64(u64::from(self.node));
        h.write_u64(self.start);
        h.write_u64(self.end);
        h.write_str(&self.name);
        h.write_str(&self.detail);
    }
}

/// One flight-recorder entry: a span recorded on the node. Tag 1 is
/// reserved (it once held journal point events, which no node wrote)
/// and decodes as an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightEntry {
    /// A span recorded on this node.
    Span(SpanRecord),
}

wire_enum!(FlightEntry {
    0 => Span(SpanRecord),
});

#[cfg(test)]
mod tests {
    use super::*;

    fn span() -> SpanRecord {
        SpanRecord {
            trace_id: (2u64 << 32) | 1,
            span_id: (5u64 << 32) | 3,
            parent_id: (2u64 << 32) | 1,
            node: 5,
            start: 1_000,
            end: 1_000,
            name: "midas.verify".into(),
            detail: "ext/monitoring".into(),
        }
    }

    #[test]
    fn span_roundtrips_and_decomposes() {
        let s = span();
        let bytes = pmp_wire::to_bytes(&s);
        assert_eq!(pmp_wire::from_bytes::<SpanRecord>(&bytes).unwrap(), s);
        assert_eq!(SpanRecord::node_of(s.span_id), 5);
    }

    #[test]
    fn flight_entries_roundtrip_and_tag_one_is_reserved() {
        let e = FlightEntry::Span(span());
        let bytes = pmp_wire::to_bytes(&e);
        assert_eq!(pmp_wire::from_bytes::<FlightEntry>(&bytes).unwrap(), e);
        let mut reserved = bytes;
        reserved[0] = 1;
        assert!(pmp_wire::from_bytes::<FlightEntry>(&reserved).is_err());
    }
}
