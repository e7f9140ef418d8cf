//! The per-node-cell span factory.

use crate::ctx::TraceCtx;
use crate::span::SpanRecord;
use pmp_telemetry::sync::Mutex;
use pmp_telemetry::DirtyMark;
use std::sync::Arc;

/// A pending first-interception watch: once the node's advice-dispatch
/// counter moves past `baseline`, an `"midas.intercept"` span closes
/// the adaptation chain.
#[derive(Debug)]
struct InterceptWatch {
    parent: TraceCtx,
    detail: String,
    baseline: u64,
}

#[derive(Debug)]
struct TracerInner {
    node: u32,
    seq: u32,
    enabled: bool,
    finished: Vec<SpanRecord>,
    watches: Vec<InterceptWatch>,
    /// Set with every span minted, so the barrier drains this tracer.
    mark: Option<DirtyMark>,
}

/// The span factory owned by one node cell. Cloneable — clones share
/// state, so the platform hands one to the cell's components and keeps
/// another for the barrier drain, which moves the finished spans into
/// the collector and the node's flight ring. Span ids are
/// `(node << 32) | seq` with a per-node sequence starting at 1: no
/// randomness, no clock reads, hence byte-identical traces across
/// execution drivers.
#[derive(Clone, Debug)]
pub struct Tracer {
    inner: Arc<Mutex<TracerInner>>,
}

impl Tracer {
    /// A tracer for `node`, initially disabled (roots and children all
    /// come back [`TraceCtx::NIL`] and nothing is recorded).
    #[must_use]
    pub fn new(node: u32) -> Tracer {
        Tracer::with_mark(node, None)
    }

    /// A node cell's tracer: like [`Tracer::new`], and every span it
    /// mints sets `mark`, so the epoch barrier knows to drain it.
    #[must_use]
    pub fn marked(node: u32, mark: DirtyMark) -> Tracer {
        Tracer::with_mark(node, Some(mark))
    }

    fn with_mark(node: u32, mark: Option<DirtyMark>) -> Tracer {
        Tracer {
            inner: Arc::new(Mutex::new(TracerInner {
                node,
                seq: 0,
                enabled: false,
                finished: Vec::new(),
                watches: Vec::new(),
                mark,
            })),
        }
    }

    /// Turns span recording on or off. Disabling does not clear
    /// already-recorded, undrained spans.
    pub fn set_enabled(&self, on: bool) {
        self.inner.lock().enabled = on;
    }

    fn push(
        inner: &mut TracerInner,
        trace_id: u64,
        parent_id: u64,
        now: u64,
        name: &str,
        detail: &str,
    ) -> TraceCtx {
        inner.seq += 1;
        let span_id = (u64::from(inner.node) << 32) | u64::from(inner.seq);
        let trace_id = if trace_id == 0 { span_id } else { trace_id };
        let rec = SpanRecord {
            trace_id,
            span_id,
            parent_id,
            node: inner.node,
            start: now,
            end: now,
            name: name.to_string(),
            detail: detail.to_string(),
        };
        inner.finished.push(rec);
        if let Some(mark) = &inner.mark {
            mark.set();
        }
        TraceCtx { trace_id, span_id }
    }

    /// Starts a new trace rooted at this node. Returns
    /// [`TraceCtx::NIL`] when disabled.
    pub fn root(&self, now: u64, name: &str, detail: &str) -> TraceCtx {
        let mut inner = self.inner.lock();
        if !inner.enabled {
            return TraceCtx::NIL;
        }
        Self::push(&mut inner, 0, 0, now, name, detail)
    }

    /// Records a child span of `parent`. A nil parent yields a nil
    /// child — so a context minted on a node with tracing off
    /// propagates "off" across the wire for free.
    pub fn child(&self, parent: TraceCtx, now: u64, name: &str, detail: &str) -> TraceCtx {
        let mut inner = self.inner.lock();
        if !inner.enabled || parent.is_nil() {
            return TraceCtx::NIL;
        }
        Self::push(&mut inner, parent.trace_id, parent.span_id, now, name, detail)
    }

    /// Arms a first-interception watch under `parent`: the next time
    /// [`Tracer::poll_interception`] observes the advice-dispatch
    /// counter above `baseline`, a `"midas.intercept"` span is
    /// recorded. Nil parents are ignored.
    pub fn watch_interception(&self, parent: TraceCtx, detail: &str, baseline: u64) {
        let mut inner = self.inner.lock();
        if !inner.enabled || parent.is_nil() {
            return;
        }
        inner.watches.push(InterceptWatch {
            parent,
            detail: detail.to_string(),
            baseline,
        });
    }

    /// Checks armed watches against the current advice-dispatch count,
    /// recording `"midas.intercept"` spans (in arming order) for every
    /// watch whose baseline has been passed.
    pub fn poll_interception(&self, now: u64, dispatches: u64) {
        let mut inner = self.inner.lock();
        let fired: Vec<InterceptWatch> = {
            let mut kept = Vec::new();
            let mut fired = Vec::new();
            for w in inner.watches.drain(..) {
                if dispatches > w.baseline {
                    fired.push(w);
                } else {
                    kept.push(w);
                }
            }
            inner.watches = kept;
            fired
        };
        for w in fired {
            Self::push(
                &mut inner,
                w.parent.trace_id,
                w.parent.span_id,
                now,
                "midas.intercept",
                &w.detail,
            );
        }
    }

    /// Takes every span finished since the last drain, in the order
    /// they were minted (the barrier feed for the [`crate::Collector`]
    /// and the node's [`crate::FlightRecorder`]).
    #[must_use]
    pub fn drain(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut self.inner.lock().finished)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_mints_nil_and_records_nothing() {
        let t = Tracer::new(3);
        let root = t.root(10, "midas.publish", "ext/m");
        assert!(root.is_nil());
        assert!(t.drain().is_empty());
    }

    #[test]
    fn ids_are_node_and_sequence() {
        let t = Tracer::new(3);
        t.set_enabled(true);
        let root = t.root(10, "midas.publish", "ext/m");
        assert_eq!(root.span_id, (3u64 << 32) | 1);
        assert_eq!(root.trace_id, root.span_id);
        let child = t.child(root, 10, "midas.sign", "ext/m");
        assert_eq!(child.span_id, (3u64 << 32) | 2);
        assert_eq!(child.trace_id, root.trace_id);
        let spans = t.drain();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent_id, root.span_id);
        assert!(t.drain().is_empty(), "drain takes");
    }

    #[test]
    fn nil_parent_propagates_off() {
        let t = Tracer::new(1);
        t.set_enabled(true);
        let c = t.child(TraceCtx::NIL, 5, "midas.verify", "");
        assert!(c.is_nil());
        assert!(t.drain().is_empty());
    }

    #[test]
    fn a_marked_tracer_lists_its_cell_when_it_mints_a_span() {
        let dirty = pmp_telemetry::DirtyList::default();
        let t = Tracer::marked(5, dirty.mark(9));
        let mut keys = Vec::new();
        let _ = t.root(1, "rpc.call", "off");
        dirty.take(&mut keys);
        assert!(keys.is_empty(), "a disabled tracer mints nothing");
        t.set_enabled(true);
        let _ = t.root(2, "rpc.call", "on");
        dirty.take(&mut keys);
        assert_eq!(keys, [9]);
    }

    #[test]
    fn interception_watch_fires_once_past_baseline() {
        let t = Tracer::new(2);
        t.set_enabled(true);
        let root = t.root(0, "midas.publish", "");
        let weave = t.child(root, 40, "midas.weave", "ext/m");
        t.watch_interception(weave, "ext/m", 5);
        let _ = t.drain();
        t.poll_interception(50, 5);
        assert!(t.drain().is_empty(), "at baseline: not fired");
        t.poll_interception(60, 6);
        let spans = t.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "midas.intercept");
        assert_eq!(spans[0].parent_id, weave.span_id);
        assert_eq!(spans[0].start, 60);
        t.poll_interception(70, 9);
        assert!(t.drain().is_empty(), "a watch fires once");
    }
}
