//! # pmp-stream — rev-streamed state fan-out with snapshot resync
//!
//! Every [`pmp_durable::Durable`] namespace already writes its state
//! transitions through the WAL as canonical wire-encoded records. This
//! crate turns that same record stream into a fan-out primitive: each
//! namespace gets a monotonically increasing **rev** (one per committed
//! record of that namespace), and subscribers consume `(rev, delta)`
//! pairs where the delta bytes are exactly the WAL payload the owning
//! store applied.
//!
//! ## Memory model: shared ring, per-subscriber cursor
//!
//! Fan-out to N subscribers must not cost N buffers. Each namespace
//! publisher keeps **one** bounded ring of recent deltas, encoded once
//! into shared [`Bytes`]; a subscriber is just a cursor — namespace
//! index, next expected rev, and a resync flag — about two dozen bytes.
//! A million subscribers is a few tens of megabytes of cursors plus one
//! ring, not a million queues.
//!
//! ## Gap protocol
//!
//! A subscriber whose cursor has fallen off the ring's tail (or who
//! subscribed from scratch after the ring rolled) is *gapped*. Recovery
//! is tiered:
//!
//! 1. **Log bootstrap** — if the committed WAL still covers every
//!    record from sequence 1 (no checkpoint has compacted it), the gap
//!    is served as ordinary deltas read back from the log. Revs align
//!    because a namespace's rev is its record's ordinal among that
//!    namespace's committed records.
//! 2. **Snapshot resync** — otherwise the subscriber receives the
//!    namespace's canonical snapshot bytes (the same bytes
//!    [`pmp_durable::Durable::snapshot_bytes`] produces for
//!    checkpoints) stamped with the publisher's head rev, adopts it
//!    unconditionally, and resumes deltas from there.
//!
//! Backpressure is therefore *drop-to-resync*: the publisher never
//! buffers unboundedly for a slow consumer; falling behind costs the
//! consumer one snapshot, not the publisher any memory.
//!
//! ## Determinism contract
//!
//! Publish and drain are meant to run at epoch barriers, after
//! `DurableHub::commit`. Subscribers only ever observe committed
//! records, so the drained event sequence is a pure function of the
//! committed record sequence — byte-identical across schedulers.

use pmp_durable::WalRecord;
use pmp_wire::Bytes;
use std::collections::{BTreeMap, VecDeque};

/// Tuning knobs for a [`StreamHub`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Deltas retained per namespace ring. A subscriber more than this
    /// many revs behind is gapped and goes through the resync tiers.
    pub ring_cap: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self { ring_cap: 512 }
    }
}

/// One update delivered to a subscriber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent {
    /// A single committed record's payload; apply via
    /// [`pmp_durable::Durable::apply_record`]. `rev` is contiguous per
    /// namespace.
    Delta {
        /// Namespace-local revision of this delta.
        rev: u64,
        /// The WAL payload bytes, shared across all subscribers.
        bytes: Bytes,
    },
    /// Full canonical state; adopt unconditionally via
    /// [`pmp_durable::Durable::restore_snapshot`], then expect deltas
    /// from `rev + 1`.
    Snapshot {
        /// Publisher head rev the snapshot corresponds to.
        rev: u64,
        /// Canonical snapshot bytes.
        bytes: Bytes,
    },
}

impl StreamEvent {
    /// The payload bytes, whichever variant.
    #[must_use]
    pub fn bytes(&self) -> &Bytes {
        match self {
            StreamEvent::Delta { bytes, .. } | StreamEvent::Snapshot { bytes, .. } => bytes,
        }
    }

    /// The rev stamped on the event.
    #[must_use]
    pub fn rev(&self) -> u64 {
        match self {
            StreamEvent::Delta { rev, .. } | StreamEvent::Snapshot { rev, .. } => *rev,
        }
    }
}

/// Where a draining hub gets out-of-ring data: the committed log (for
/// tier-1 bootstrap) and canonical snapshots (for tier-2 resync).
///
/// Implementations must answer *as of the last commit barrier* — the
/// snapshot for a namespace must correspond exactly to the state whose
/// last record the hub published.
pub trait StreamSource {
    /// Every committed record from sequence 1, in order, or `None` if
    /// the log has been compacted (checkpoint) or cannot prove
    /// contiguity. Maps to `DurableHub::wal_tail(1)`.
    fn full_log(&self) -> Option<Vec<WalRecord>>;

    /// Canonical snapshot bytes for `ns` at the current barrier.
    fn snapshot(&self, ns: &str) -> Option<Vec<u8>>;
}

/// A [`StreamSource`] with nothing to give: every gap becomes a
/// snapshot miss and the subscriber stays parked in resync. Useful for
/// tests and for drains that must not touch the log.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSource;

impl StreamSource for NullSource {
    fn full_log(&self) -> Option<Vec<WalRecord>> {
        None
    }
    fn snapshot(&self, _ns: &str) -> Option<Vec<u8>> {
        None
    }
}

/// Opaque handle naming one subscriber cursor within a hub.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriberId(u32);

impl SubscriberId {
    /// Stable dense index (handles are never reused within a hub).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Fan-out counters. `encoded` counts one per *published* delta — it
/// must stay independent of subscriber count; that is the
/// serialize-once guarantee the load generator asserts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Deltas encoded into shared bytes at publish time (once each).
    pub encoded: u64,
    /// Total bytes encoded at publish time.
    pub encoded_bytes: u64,
    /// Delta events handed to subscribers (counts every delivery).
    pub delivered: u64,
    /// Gaps detected (cursor off the ring tail).
    pub gaps: u64,
    /// Gap records served from the committed log (tier-1 resync).
    pub bootstrapped: u64,
    /// Full-snapshot resyncs served (tier-2).
    pub snapshots: u64,
}

#[derive(Debug)]
struct Publisher {
    ns: String,
    /// Rev of the newest committed record of this namespace — equal to
    /// the record's ordinal among the namespace's committed records.
    head_rev: u64,
    /// `(rev, wal_seq, delta)` — newest at the back, bounded by
    /// `ring_cap`.
    ring: VecDeque<(u64, u64, Bytes)>,
}

#[derive(Debug, Clone, Copy)]
struct Subscriber {
    ns_idx: u32,
    /// Next rev this cursor expects.
    next_rev: u64,
    /// Set when the publisher's history may have diverged from what
    /// this cursor saw (base restart after corruption rollback); the
    /// next drain serves a snapshot regardless of rev arithmetic.
    force_resync: bool,
    live: bool,
}

/// Per-base fan-out hub: one publisher per durable namespace, any
/// number of cursor subscribers.
#[derive(Debug, Default)]
pub struct StreamHub {
    cfg: StreamConfig,
    publishers: Vec<Publisher>,
    ns_index: BTreeMap<String, u32>,
    subs: Vec<Subscriber>,
    stats: StreamStats,
    /// Set when a [`StreamHub::rebase`] could not prove log contiguity
    /// (recovery checkpointed or truncated past sequence 1): rev 1 of
    /// the current lineage is then *not* the namespace's first record
    /// ever, so a from-scratch subscribe cannot be served as "deltas
    /// from rev 1" — it must bootstrap via snapshot. Cleared when a
    /// later rebase re-proves contiguity.
    lineage_broken: bool,
}

impl StreamHub {
    /// Creates a hub with the given configuration.
    #[must_use]
    pub fn new(cfg: StreamConfig) -> Self {
        Self {
            cfg,
            ..Self::default()
        }
    }

    fn publisher_idx(&mut self, ns: &str) -> u32 {
        if let Some(&i) = self.ns_index.get(ns) {
            return i;
        }
        let i = self.publishers.len() as u32;
        self.publishers.push(Publisher {
            ns: ns.to_string(),
            head_rev: 0,
            ring: VecDeque::new(),
        });
        self.ns_index.insert(ns.to_string(), i);
        i
    }

    /// Publishes one committed record's payload, assigning the next rev
    /// for its namespace and encoding the delta **once** into shared
    /// bytes. Returns the assigned rev.
    pub fn publish(&mut self, ns: &str, wal_seq: u64, payload: &[u8]) -> u64 {
        let idx = self.publisher_idx(ns) as usize;
        let p = &mut self.publishers[idx];
        p.head_rev += 1;
        let rev = p.head_rev;
        p.ring.push_back((rev, wal_seq, Bytes::copy_from(payload)));
        while p.ring.len() > self.cfg.ring_cap {
            p.ring.pop_front();
        }
        self.stats.encoded += 1;
        self.stats.encoded_bytes += payload.len() as u64;
        rev
    }

    /// Publishes every record of a committed batch in order — the shape
    /// a `DurableHub` commit tap hands over.
    pub fn publish_batch(&mut self, batch: &[WalRecord]) {
        for rec in batch {
            self.publish(&rec.ns, rec.seq, &rec.payload);
        }
    }

    /// Subscribes from scratch: the cursor starts at rev 1, so the
    /// first drain replays the namespace's full history (from the ring
    /// or the log) or resyncs via snapshot.
    pub fn subscribe(&mut self, ns: &str) -> SubscriberId {
        let ns_idx = self.publisher_idx(ns);
        // In a broken lineage, "everything from rev 1" is not the full
        // history — hand the cursor a snapshot first instead.
        let force_resync = self.lineage_broken;
        self.push_sub(Subscriber {
            ns_idx,
            next_rev: 1,
            force_resync,
            live: true,
        })
    }

    /// Subscribes at the head: only deltas committed after this call
    /// are delivered.
    pub fn subscribe_live(&mut self, ns: &str) -> SubscriberId {
        let ns_idx = self.publisher_idx(ns);
        let next_rev = self.publishers[ns_idx as usize].head_rev + 1;
        self.push_sub(Subscriber {
            ns_idx,
            next_rev,
            force_resync: false,
            live: true,
        })
    }

    fn push_sub(&mut self, sub: Subscriber) -> SubscriberId {
        let id = SubscriberId(self.subs.len() as u32);
        self.subs.push(sub);
        id
    }

    /// Retires a cursor; further drains return nothing. Handles are
    /// never reused.
    pub fn drop_subscriber(&mut self, id: SubscriberId) {
        if let Some(s) = self.subs.get_mut(id.index()) {
            s.live = false;
        }
    }

    /// Whether the cursor is still live.
    #[must_use]
    pub fn is_live(&self, id: SubscriberId) -> bool {
        self.subs.get(id.index()).is_some_and(|s| s.live)
    }

    /// Current head rev for a namespace (0 if nothing published).
    #[must_use]
    pub fn head_rev(&self, ns: &str) -> u64 {
        self.ns_index
            .get(ns)
            .map_or(0, |&i| self.publishers[i as usize].head_rev)
    }

    /// Fan-out counters so far.
    #[must_use]
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Marks every live cursor for unconditional snapshot resync. Call
    /// after any event that may have rolled the publisher's state back
    /// relative to what subscribers already saw (crash recovery that
    /// truncated a corrupt tail).
    pub fn force_resync_all(&mut self) {
        for s in &mut self.subs {
            if s.live {
                s.force_resync = true;
            }
        }
    }

    /// Re-aligns publisher revs with a freshly recovered engine and
    /// resyncs every cursor.
    ///
    /// After recovery the rev lineage is rebuilt from the committed
    /// log: a namespace's head rev is its record count from sequence 1
    /// (the ordinal invariant). If the log cannot prove contiguity
    /// (`full_log()` is `None` — e.g. recovery checkpointed), head revs
    /// restart at 0; the forced snapshot resync makes the discontinuity
    /// invisible to subscribers.
    pub fn rebase(&mut self, src: &dyn StreamSource) {
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        match src.full_log() {
            Some(recs) => {
                for rec in &recs {
                    *counts.entry(rec.ns.clone()).or_insert(0) += 1;
                }
                self.lineage_broken = false;
            }
            None => self.lineage_broken = true,
        }
        for (ns, _) in counts.clone() {
            self.publisher_idx(&ns);
        }
        for p in &mut self.publishers {
            p.head_rev = counts.get(&p.ns).copied().unwrap_or(0);
            p.ring.clear();
        }
        self.force_resync_all();
    }

    /// Drains everything the cursor has not yet seen, advancing it.
    ///
    /// Caught-up cursors return an empty vec. Gapped cursors go through
    /// the tiered resync protocol (log bootstrap, then snapshot); if
    /// the source can serve neither, the cursor stays parked and a
    /// later drain retries.
    pub fn drain(&mut self, id: SubscriberId, src: &dyn StreamSource) -> Vec<StreamEvent> {
        let Some(sub) = self.subs.get(id.index()).copied() else {
            return Vec::new();
        };
        if !sub.live {
            return Vec::new();
        }
        let p = &self.publishers[sub.ns_idx as usize];
        let head = p.head_rev;

        if sub.force_resync {
            return self.resync_via_snapshot(id, src);
        }
        if sub.next_rev == head + 1 {
            return Vec::new(); // caught up
        }
        if sub.next_rev > head + 1 {
            // Cursor ahead of the publisher: history rolled back under
            // us without a rebase. Defensive snapshot.
            return self.resync_via_snapshot(id, src);
        }

        // There are unseen revs in [next_rev, head].
        let covered_by_ring = p
            .ring
            .front()
            .is_some_and(|&(front_rev, _, _)| sub.next_rev >= front_rev);
        if covered_by_ring {
            let front_rev = p.ring.front().unwrap().0;
            let skip = (sub.next_rev - front_rev) as usize;
            let out: Vec<StreamEvent> = self.publishers[sub.ns_idx as usize]
                .ring
                .iter()
                .skip(skip)
                .map(|(rev, _, bytes)| StreamEvent::Delta {
                    rev: *rev,
                    bytes: bytes.clone(),
                })
                .collect();
            self.stats.delivered += out.len() as u64;
            self.subs[id.index()].next_rev = head + 1;
            return out;
        }

        // Gapped: the ring has rolled past this cursor.
        self.stats.gaps += 1;
        if let Some(recs) = src.full_log() {
            let ns = self.publishers[sub.ns_idx as usize].ns.clone();
            let mine: Vec<&WalRecord> = recs.iter().filter(|r| r.ns == ns).collect();
            // Ordinal alignment check: the log serves this gap only if
            // it demonstrably contains the namespace's entire history.
            if mine.len() as u64 == head {
                let out: Vec<StreamEvent> = mine[(sub.next_rev - 1) as usize..]
                    .iter()
                    .enumerate()
                    .map(|(i, rec)| StreamEvent::Delta {
                        rev: sub.next_rev + i as u64,
                        bytes: Bytes::copy_from(&rec.payload),
                    })
                    .collect();
                self.stats.bootstrapped += out.len() as u64;
                self.stats.delivered += out.len() as u64;
                self.subs[id.index()].next_rev = head + 1;
                return out;
            }
        }
        self.resync_via_snapshot(id, src)
    }

    fn resync_via_snapshot(&mut self, id: SubscriberId, src: &dyn StreamSource) -> Vec<StreamEvent> {
        let sub = self.subs[id.index()];
        let p = &self.publishers[sub.ns_idx as usize];
        let head = p.head_rev;
        // No head-0 shortcut here: a cursor only reaches this path when
        // it is forced or ahead of the publisher, and either way it may
        // hold state from a history that no longer exists (recovery
        // rolled the namespace back to nothing). Only the snapshot —
        // even a snapshot of the empty state — re-converges it; a
        // silent realign would leave stale state in place forever (the
        // chaos `stream-resync` oracle found exactly that on seed 14).
        let Some(bytes) = src.snapshot(&p.ns) else {
            // Source cannot serve a snapshot right now; stay parked so
            // a later drain (with a capable source) retries.
            self.subs[id.index()].force_resync = true;
            return Vec::new();
        };
        self.stats.snapshots += 1;
        self.subs[id.index()].next_rev = head + 1;
        self.subs[id.index()].force_resync = false;
        vec![StreamEvent::Snapshot {
            rev: head,
            bytes: Bytes::from_vec(bytes),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test double: a source backed by explicit record and snapshot
    /// tables.
    #[derive(Default)]
    struct TableSource {
        log: Option<Vec<WalRecord>>,
        snaps: BTreeMap<String, Vec<u8>>,
    }

    impl StreamSource for TableSource {
        fn full_log(&self) -> Option<Vec<WalRecord>> {
            self.log.clone()
        }
        fn snapshot(&self, ns: &str) -> Option<Vec<u8>> {
            self.snaps.get(ns).cloned()
        }
    }

    fn rec(seq: u64, ns: &str, payload: &[u8]) -> WalRecord {
        WalRecord {
            seq,
            ns: ns.into(),
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn deltas_flow_in_rev_order_and_encode_once() {
        let mut hub = StreamHub::new(StreamConfig::default());
        let a = hub.subscribe_live("store.movements");
        let b = hub.subscribe("store.movements");
        for (seq, payload) in [(1, b"one"), (2, b"two")] {
            hub.publish("store.movements", seq, payload.as_slice());
        }
        let src = NullSource;
        let got_a = hub.drain(a, &src);
        let got_b = hub.drain(b, &src);
        let revs: Vec<u64> = got_a.iter().map(StreamEvent::rev).collect();
        assert_eq!(revs, vec![1, 2]);
        assert_eq!(got_a, got_b, "both cursors see the same sequence");
        assert!(matches!(&got_a[0], StreamEvent::Delta { bytes, .. } if &**bytes == b"one"));
        // Two deltas encoded, four delivered: encoding is per-publish,
        // not per-subscriber.
        let st = hub.stats();
        assert_eq!(st.encoded, 2);
        assert_eq!(st.delivered, 4);
        // Caught-up cursors drain empty.
        assert!(hub.drain(a, &src).is_empty());
    }

    #[test]
    fn short_gap_bootstraps_from_the_log() {
        let mut hub = StreamHub::new(StreamConfig { ring_cap: 2 });
        for seq in 1..=5u64 {
            hub.publish("midas.base", seq, &[seq as u8]);
        }
        // Ring only holds revs 4..=5; a from-scratch subscriber is
        // gapped but the full log can serve it.
        let sub = hub.subscribe("midas.base");
        let src = TableSource {
            log: Some((1..=5).map(|s| rec(s, "midas.base", &[s as u8])).collect()),
            snaps: BTreeMap::new(),
        };
        let got = hub.drain(sub, &src);
        let revs: Vec<u64> = got.iter().map(StreamEvent::rev).collect();
        assert_eq!(revs, vec![1, 2, 3, 4, 5]);
        assert!(got.iter().all(|e| matches!(e, StreamEvent::Delta { .. })));
        assert_eq!(hub.stats().bootstrapped, 5);
        assert_eq!(hub.stats().snapshots, 0);
        // Subsequent publishes flow as ordinary ring deltas.
        hub.publish("midas.base", 6, &[6]);
        let next = hub.drain(sub, &src);
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].rev(), 6);
    }

    #[test]
    fn gap_beyond_a_compacted_log_snapshots() {
        let mut hub = StreamHub::new(StreamConfig { ring_cap: 2 });
        for seq in 1..=5u64 {
            hub.publish("store.movements", seq, &[seq as u8]);
        }
        let sub = hub.subscribe("store.movements");
        let src = TableSource {
            log: None, // checkpointed away
            snaps: [("store.movements".to_string(), b"SNAP".to_vec())].into(),
        };
        let got = hub.drain(sub, &src);
        assert_eq!(got.len(), 1);
        assert!(
            matches!(&got[0], StreamEvent::Snapshot { rev: 5, bytes } if &**bytes == b"SNAP")
        );
        assert_eq!(hub.stats().snapshots, 1);
        // The snapshot advanced the cursor to the head.
        assert!(hub.drain(sub, &src).is_empty());
        hub.publish("store.movements", 6, &[6]);
        assert_eq!(hub.drain(sub, &src).len(), 1);
    }

    #[test]
    fn a_partial_log_fails_ordinal_alignment_and_snapshots() {
        let mut hub = StreamHub::new(StreamConfig { ring_cap: 1 });
        for seq in 1..=4u64 {
            hub.publish("store.movements", seq, &[seq as u8]);
        }
        let sub = hub.subscribe("store.movements");
        // A log that only covers a suffix must NOT be used to serve
        // rev-1-onward deltas: the ordinal check rejects it.
        let src = TableSource {
            log: Some(vec![rec(4, "store.movements", &[4])]),
            snaps: [("store.movements".to_string(), b"S".to_vec())].into(),
        };
        let got = hub.drain(sub, &src);
        assert!(matches!(&got[0], StreamEvent::Snapshot { rev: 4, .. }));
    }

    #[test]
    fn rebase_realigns_revs_and_forces_resync() {
        let mut hub = StreamHub::new(StreamConfig::default());
        let sub = hub.subscribe("store.movements");
        for seq in 1..=3u64 {
            hub.publish("store.movements", seq, &[seq as u8]);
        }
        let src = TableSource {
            log: Some((1..=3).map(|s| rec(s, "store.movements", &[s as u8])).collect()),
            snaps: [("store.movements".to_string(), b"POST".to_vec())].into(),
        };
        assert_eq!(hub.drain(sub, &src).len(), 3);
        // Crash + recovery rolled the engine back to 2 records (torn
        // tail truncated): the rebased head must follow the log, and
        // the already-ahead cursor must resync rather than wait at a
        // rev that will never come again.
        let rolled = TableSource {
            log: Some((1..=2).map(|s| rec(s, "store.movements", &[s as u8])).collect()),
            snaps: [("store.movements".to_string(), b"POST".to_vec())].into(),
        };
        hub.rebase(&rolled);
        assert_eq!(hub.head_rev("store.movements"), 2);
        let got = hub.drain(sub, &rolled);
        assert!(matches!(&got[0], StreamEvent::Snapshot { rev: 2, bytes } if &**bytes == b"POST"));
    }

    #[test]
    fn rebase_without_a_log_restarts_revs_behind_a_snapshot() {
        let mut hub = StreamHub::new(StreamConfig::default());
        let sub = hub.subscribe("midas.base");
        for seq in 1..=3u64 {
            hub.publish("midas.base", seq, &[seq as u8]);
        }
        let src = TableSource {
            log: None,
            snaps: [("midas.base".to_string(), b"CKPT".to_vec())].into(),
        };
        assert_eq!(hub.drain(sub, &NullSource).len(), 3);
        hub.rebase(&src);
        assert_eq!(hub.head_rev("midas.base"), 0);
        // Head 0 with a forced resync: the cursor already applied three
        // deltas from the rolled-back history, so it must be handed the
        // recovered state — even at head 0 — not silently realigned.
        let got = hub.drain(sub, &src);
        assert!(matches!(&got[0], StreamEvent::Snapshot { rev: 0, bytes } if &**bytes == b"CKPT"));
        hub.publish("midas.base", 7, b"new-epoch");
        let got = hub.drain(sub, &src);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].rev(), 1, "revs restart in the new epoch");
    }

    #[test]
    fn dropped_subscribers_stay_silent_and_handles_are_stable() {
        let mut hub = StreamHub::new(StreamConfig::default());
        let a = hub.subscribe_live("store.movements");
        let b = hub.subscribe_live("store.movements");
        hub.drop_subscriber(a);
        hub.publish("store.movements", 1, b"x");
        assert!(hub.drain(a, &NullSource).is_empty());
        assert!(!hub.is_live(a));
        assert!(hub.is_live(b));
        assert_eq!(hub.drain(b, &NullSource).len(), 1);
    }

    #[test]
    fn a_million_cursors_share_one_ring() {
        let mut hub = StreamHub::new(StreamConfig { ring_cap: 8 });
        let subs: Vec<SubscriberId> = (0..10_000)
            .map(|_| hub.subscribe_live("store.movements"))
            .collect();
        hub.publish("store.movements", 1, &[0u8; 128]);
        let src = NullSource;
        let mut total = 0usize;
        for &s in &subs {
            let got = hub.drain(s, &src);
            total += got.len();
            // Every cursor sees the SAME allocation.
            if let StreamEvent::Delta { bytes, .. } = &got[0] {
                assert_eq!(bytes.len(), 128);
            }
        }
        assert_eq!(total, 10_000);
        let st = hub.stats();
        assert_eq!(st.encoded, 1, "one encode regardless of fan-out");
        assert_eq!(st.delivered, 10_000);
        assert_eq!(st.encoded_bytes, 128);
    }
}
