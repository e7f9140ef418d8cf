//! The platform's one wall-clock read.
//!
//! Every wall time the platform measures about itself (signing,
//! verification, weaving, the analysis passes, WAL appends, recovery)
//! is a [`Stopwatch`] started before the work and recorded after it
//! into a named histogram of a [`Registry`] — directly, through a
//! [`Shared`] or through a [`Sink`]. The stopwatch has no other way to
//! end, so its reading can reach a histogram and nothing else: never
//! simulated state, a journal event or a digest.

use crate::{Registry, Shared, Sink};
use std::time::Instant;

/// A running wall-clock measurement.
#[must_use = "a stopwatch measures nothing until it is recorded"]
#[derive(Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts measuring now.
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    /// Nanoseconds since [`Stopwatch::start`], saturating at `u64::MAX`.
    fn elapsed_ns(self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Registry {
    /// Stops `watch` into the named histogram (registering it on first
    /// use).
    pub fn record_elapsed(&mut self, name: &str, watch: Stopwatch) {
        let ns = watch.elapsed_ns();
        let id = self.histogram(name);
        self.record(id, ns);
    }
}

impl Shared {
    /// Stops `watch` into the named histogram. The clock is read before
    /// the lock is taken, so waiting for it is not measured.
    pub fn record_elapsed(&self, name: &str, watch: Stopwatch) {
        self.record(name, watch.elapsed_ns());
    }
}

impl Sink {
    /// Stops `watch` into the named histogram (see
    /// [`Shared::record_elapsed`]).
    pub fn record_elapsed(&self, name: &str, watch: Stopwatch) {
        self.shared().record_elapsed(name, watch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(registry: &Registry, name: &str) -> u64 {
        registry.histogram_by_name(name).map_or(0, |h| h.count())
    }

    #[test]
    fn a_stopwatch_records_one_sample_through_a_sink_and_a_registry() {
        let shared = Shared::new();
        let sink = Sink::direct(&shared);
        sink.record_elapsed("a.sink_ns", Stopwatch::start());
        shared.with(|t| {
            assert_eq!(samples(&t.registry, "a.sink_ns"), 1);
            assert_eq!(t.journal.len(), 0, "a timing is never an event");
        });

        let mut registry = Registry::new();
        registry.record_elapsed("a.registry_ns", Stopwatch::start());
        assert_eq!(samples(&registry, "a.registry_ns"), 1);
        assert_eq!(samples(&registry, "a.sink_ns"), 0);
    }
}
