//! Spans the benchmark records around its own calls into the platform's
//! public API. Nothing inside the program is instrumented: a span covers
//! one call as seen from outside, so its duration is that call's whole
//! cost, children included.
//!
//! Spans stay in memory (at most [`SpanLog::RETAIN`] of them; totals per
//! name cover every span) and are written as JSON lines at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Dense id, from 1.
    pub id: u32,
    /// The enclosing span's id, 0 at the root.
    pub parent: u32,
    /// The call's name (`pump`, `rpc_with`, …).
    pub name: &'static str,
    /// The workload operation the call served.
    pub op: u64,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the log was created.
    pub end_ns: u64,
}

/// In-memory span recorder; a disabled log just runs the calls.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    next_id: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
    /// Per name: `(calls, total ns)`, over every span including those
    /// past the retention cap.
    totals: BTreeMap<&'static str, (u64, u64)>,
}

impl SpanLog {
    /// Spans kept for the export; later ones only feed the totals.
    pub const RETAIN: usize = 1 << 18;

    /// A recorder that records when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            enabled,
            epoch: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Turns recording on or off for later calls.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Runs `f` as the span `name` serving operation `op`; spans opened
    /// inside `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut SpanLog) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.stack.pop();
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.duration_since(self.epoch).as_nanos() as u64;
        let total = self.totals.entry(name).or_default();
        total.0 += 1;
        total.1 += end_ns - start_ns;
        if self.spans.len() < Self::RETAIN {
            self.spans.push(Span {
                id,
                parent,
                name,
                op,
                start_ns,
                end_ns,
            });
        }
        out
    }

    /// `(calls, total ns)` per span name.
    #[must_use]
    pub fn totals(&self) -> &BTreeMap<&'static str, (u64, u64)> {
        &self.totals
    }

    /// Writes the retained spans as JSON lines to `path`, creating its
    /// directory.
    ///
    /// # Errors
    ///
    /// File-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"name":"{}","op":{},"start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut log = SpanLog::new(true);
        log.span("round", 7, |log| {
            log.span("pump", 7, |_| ());
            log.span("pump", 7, |_| ());
        });
        let s = &log.spans;
        assert_eq!(s.len(), 3);
        let root = s.iter().find(|s| s.name == "round").unwrap();
        assert_eq!(root.parent, 0);
        assert!(s
            .iter()
            .filter(|s| s.name == "pump")
            .all(|s| s.parent == root.id && s.op == 7));
        assert_eq!(log.totals()["pump"].0, 2);
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn a_disabled_log_records_nothing_but_runs_the_call() {
        let mut log = SpanLog::new(false);
        assert_eq!(log.span("pump", 1, |_| 42), 42);
        assert!(log.spans.is_empty());
        assert!(log.totals().is_empty());
    }
}
