//! The bounded per-node flight recorder.

use crate::span::FlightEntry;
use pmp_durable::{DurableError, Store};
use pmp_telemetry::Fnv64;
use pmp_wire::Wire;
use std::collections::VecDeque;

/// The WAL namespace base stations persist their flight ring under.
pub const FLIGHT_NAMESPACE: &str = "trace.flight";

/// Default ring capacity.
pub const DEFAULT_FLIGHT_CAP: usize = 256;

/// A bounded ring of the most recent [`FlightEntry`]s on one node —
/// the "black box" dumped into chaos `.repro` artifacts when an oracle
/// fires. Each node keeps exactly one, filled with the spans drained
/// from its tracer at epoch barriers. Base stations persist theirs
/// through `pmp-durable` (namespace [`FLIGHT_NAMESPACE`]), so the
/// causal history survives a crash/restart.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    cap: usize,
    buf: VecDeque<FlightEntry>,
    dropped: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_FLIGHT_CAP)
    }
}

impl FlightRecorder {
    /// An empty ring keeping at most `cap` entries.
    #[must_use]
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            cap: cap.max(1),
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Appends an entry, evicting the oldest once full.
    pub fn record(&mut self, entry: FlightEntry) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(entry);
    }

    /// The ring capacity.
    #[must_use]
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Number of retained entries (always ≤ [`FlightRecorder::cap`]).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Entries evicted so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained entries, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<FlightEntry> {
        self.buf.iter().cloned().collect()
    }

    /// Stable FNV-1a digest of the retained entries + drop counter.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(self.dropped);
        for e in &self.buf {
            let bytes = pmp_wire::to_bytes(e);
            h.write_u64(bytes.len() as u64);
            h.write(&bytes);
        }
        h.finish()
    }
}

/// Canonical snapshot form: `(cap, dropped, entries)`. The op is a
/// *batch* of entries — one record per node per epoch barrier,
/// mirroring the engine's group-commit discipline (see
/// `BaseStation::note_flight_batch`) — and it is weightless, so trace
/// chatter never forces an extra snapshot.
impl Store for FlightRecorder {
    const NAMESPACE: &'static str = FLIGHT_NAMESPACE;
    const WEIGHTLESS: bool = true;
    type Op = Vec<FlightEntry>;

    fn encode_state(&self) -> Vec<u8> {
        let mut w = pmp_wire::Writer::new();
        w.put_varu64(self.cap as u64);
        w.put_u64(self.dropped);
        w.put_varu64(self.buf.len() as u64);
        for e in &self.buf {
            e.encode(&mut w);
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), DurableError> {
        let mut r = pmp_wire::Reader::new(bytes);
        let parse = (|| -> Result<(usize, u64, VecDeque<FlightEntry>), pmp_wire::WireError> {
            let cap = r.get_varu64()? as usize;
            let dropped = r.get_u64()?;
            let n = r.get_varu64()? as usize;
            let mut buf = VecDeque::with_capacity(n.min(4096));
            for _ in 0..n {
                buf.push_back(FlightEntry::decode(&mut r)?);
            }
            r.finish()?;
            Ok((cap, dropped, buf))
        })();
        let (cap, dropped, buf) = parse?;
        self.cap = cap.max(1);
        self.dropped = dropped;
        self.buf = buf;
        Ok(())
    }

    fn apply(&mut self, batch: Vec<FlightEntry>) -> Result<(), DurableError> {
        for entry in batch {
            self.record(entry);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanRecord;
    use pmp_durable::Durable;

    fn ev(i: u64) -> FlightEntry {
        FlightEntry::Span(SpanRecord {
            trace_id: 1,
            span_id: i + 1,
            parent_id: 0,
            node: 0,
            start: i,
            end: i,
            name: format!("e{i}"),
            detail: String::new(),
        })
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut f = FlightRecorder::new(3);
        for i in 0..10 {
            f.record(ev(i));
        }
        assert_eq!(f.len(), 3);
        assert_eq!(f.dropped(), 7);
        let names: Vec<String> = f
            .snapshot()
            .into_iter()
            .map(|FlightEntry::Span(s)| s.name)
            .collect();
        assert_eq!(names, vec!["e7", "e8", "e9"]);
    }

    #[test]
    fn snapshot_restore_roundtrips_digest() {
        let mut f = FlightRecorder::new(4);
        for i in 0..6 {
            f.record(ev(i));
        }
        let bytes = f.snapshot_bytes();
        let mut g = FlightRecorder::new(1);
        g.restore_snapshot(&bytes).unwrap();
        assert_eq!(g, f);
        assert_eq!(g.state_digest(), f.state_digest());
        assert_eq!(g.digest(), f.digest());
    }

    #[test]
    fn garbage_payload_is_an_error_not_a_panic() {
        let mut f = FlightRecorder::new(3);
        assert!(f.apply_record(&[0xff, 0xff]).is_err());
        assert!(f.is_empty());
    }
}
