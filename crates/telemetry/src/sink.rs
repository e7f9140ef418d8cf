//! Per-cell telemetry sinks for sharded execution.
//!
//! Counter, gauge, and histogram updates are commutative — concurrent
//! node cells may apply them straight to the platform's [`Shared`]
//! registry in any interleaving and still reach the same totals. The
//! journal is not: event order is observable (digests, exports, ring
//! eviction), so under a parallel driver each cell's point events are
//! buffered locally, stamped with the cell clock, and merged into the
//! shared journal at the epoch barrier in deterministic
//! `(time, cell rank, emission seq)` order.
//!
//! A [`Sink`] routes accordingly: metrics always go direct; events go
//! into the cell buffer ([`Sink::buffered`], what every node cell's
//! components hold under both drivers — the serial driver uses the
//! same buffering so the two are journal-identical by construction) or
//! direct ([`Sink::direct`], how the storage engine's barrier-time
//! events land in order between the cells' merged ones). A cell buffer
//! sets its [`DirtyMark`] with every event, so the barrier's merge
//! visits only the cells that buffered one.
//!
//! Every component holds a sink from construction. Until the platform
//! attaches its cell's, that is [`Sink::default`], which records into a
//! private registry and journal nothing reads.

use crate::dirty::DirtyMark;
use crate::journal::Subsystem;
use crate::{sync, Clock, Shared};
use std::sync::Arc;

/// A journal event captured in a cell buffer, waiting for the barrier
/// merge. `at` is the cell-clock reading at emission time.
#[derive(Debug, Clone)]
pub struct PendingEvent {
    /// Sim-time stamp from the cell clock.
    pub at: u64,
    /// Originating layer.
    pub subsystem: Subsystem,
    /// Event name.
    pub name: &'static str,
    /// Free-form detail.
    pub detail: String,
}

#[derive(Clone)]
struct Buffered {
    clock: Clock,
    pending: Arc<sync::Mutex<Vec<PendingEvent>>>,
    mark: DirtyMark,
}

/// A component-facing handle on the platform telemetry: metrics pass
/// through to the [`Shared`] registry, journal events either pass
/// through or buffer per cell (see module docs).
#[derive(Clone)]
pub struct Sink {
    shared: Shared,
    buffered: Option<Buffered>,
}

impl std::fmt::Debug for Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sink")
            .field("shared", &self.shared)
            .field("buffered", &self.buffered.is_some())
            .finish()
    }
}

/// A sink into a private [`Shared`]: a component's own until the
/// platform attaches the cell's.
impl Default for Sink {
    fn default() -> Sink {
        Sink::direct(&Shared::new())
    }
}

impl Sink {
    /// A pass-through sink: every call lands on `shared` immediately.
    #[must_use]
    pub fn direct(shared: &Shared) -> Sink {
        Sink {
            shared: shared.clone(),
            buffered: None,
        }
    }

    /// A cell sink: metrics pass through, events buffer locally stamped
    /// by `clock` until [`Sink::drain_pending_into`], and each sets
    /// `mark`. Clones share one buffer — hand clones to every component
    /// of the same cell.
    #[must_use]
    pub fn buffered(shared: &Shared, clock: Clock, mark: DirtyMark) -> Sink {
        Sink {
            shared: shared.clone(),
            buffered: Some(Buffered {
                clock,
                pending: Arc::new(sync::Mutex::new(Vec::new())),
                mark,
            }),
        }
    }

    /// The underlying shared telemetry.
    #[must_use]
    pub fn shared(&self) -> &Shared {
        &self.shared
    }

    /// Bumps a named counter by 1.
    pub fn inc(&self, name: &str) {
        self.shared.inc(name);
    }

    /// Bumps a named counter by `n`.
    pub fn add(&self, name: &str, n: u64) {
        self.shared.add(name, n);
    }

    /// Records into a named histogram.
    pub fn record(&self, name: &str, value: u64) {
        self.shared.record(name, value);
    }

    /// Runs `f` with the shared telemetry locked. Meant for metric
    /// access (gauges); journal writes through this bypass the cell
    /// buffer and must only happen on the direct path.
    pub fn with<R>(&self, f: impl FnOnce(&mut crate::Telemetry) -> R) -> R {
        self.shared.with(f)
    }

    /// Appends a point event: direct to the shared journal, or into the
    /// cell buffer stamped with the cell clock.
    pub fn event(&self, sub: Subsystem, name: &'static str, detail: impl Into<String>) {
        match &self.buffered {
            None => self.shared.event(sub, name, detail),
            Some(b) => {
                b.pending.lock().push(PendingEvent {
                    at: (b.clock)(),
                    subsystem: sub,
                    name,
                    detail: detail.into(),
                });
                b.mark.set();
            }
        }
    }

    /// Moves the buffered events, in emission order, to the end of
    /// `out` (nothing for a direct sink); the buffer keeps its capacity.
    /// The driver merges them into the shared journal at the epoch
    /// barrier.
    pub fn drain_pending_into(&self, out: &mut Vec<PendingEvent>) {
        if let Some(b) = &self.buffered {
            out.append(&mut b.pending.lock());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirtyList;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn take_pending(s: &Sink) -> Vec<PendingEvent> {
        let mut out = Vec::new();
        s.drain_pending_into(&mut out);
        out
    }

    #[test]
    fn direct_sink_passes_through() {
        let shared = Shared::new();
        let s = Sink::direct(&shared);
        s.inc("a.b");
        s.event(Subsystem::Core, "e", "d");
        assert_eq!(shared.counter_value("a.b"), 1);
        assert_eq!(shared.with(|t| t.journal.len()), 1);
        assert!(take_pending(&s).is_empty());
    }

    #[test]
    fn buffered_sink_holds_events_but_not_metrics() {
        let shared = Shared::new();
        let t = Arc::new(AtomicU64::new(7));
        let t2 = t.clone();
        let dirty = DirtyList::default();
        let clock = Arc::new(move || t2.load(Ordering::Relaxed));
        let s = Sink::buffered(&shared, clock, dirty.mark(4));
        s.inc("a.b");
        s.event(Subsystem::Midas, "e1", "");
        t.store(9, Ordering::Relaxed);
        s.event(Subsystem::Midas, "e2", "");
        assert_eq!(shared.counter_value("a.b"), 1, "metrics go direct");
        assert_eq!(shared.with(|t| t.journal.len()), 0, "events buffered");
        let mut keys = Vec::new();
        dirty.take(&mut keys);
        assert_eq!(keys, [4], "the cell is listed once");
        let pending = take_pending(&s);
        assert_eq!(pending.len(), 2);
        assert_eq!(pending[0].at, 7);
        assert_eq!(pending[1].at, 9);
        assert!(take_pending(&s).is_empty());
    }

    #[test]
    fn clones_share_one_buffer() {
        let shared = Shared::new();
        let s = Sink::buffered(&shared, Arc::new(|| 0), DirtyList::default().mark(0));
        let s2 = s.clone();
        s.event(Subsystem::Vm, "a", "");
        s2.event(Subsystem::Vm, "b", "");
        assert_eq!(take_pending(&s).len(), 2);
    }
}
