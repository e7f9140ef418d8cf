//! Runs a workload slice by slice and turns the slices into metrics.
//!
//! A slice builds a fresh world (its set-up, timed on its own) and runs
//! the world's timed phase. A run takes slices until its time budget is
//! spent, and at least `min_slices` of them.
//!
//! Other tenants of a shared host slow whole stretches of a run and never
//! speed one up, so a wall-clock figure is taken per slice and the run
//! reports its best slice: the one least disturbed. The deterministic
//! figures (simulated latency, bytes on the air) pool the first
//! `min_slices` slices, which every run of a seed builds alike.
//!
//! The untraced run gives the end-to-end metrics. The traced run cycles
//! its slices through three legs over the same worlds — plain, with the
//! benchmark's own spans, and with the platform's tracing on — and then
//! replays single layers on the last world's inputs.

use crate::sample::{nearest_rank, Summary};
use crate::spans::SpanLog;
use crate::world::{self, Counts, Slice, Workload};
use crate::{clock, json, layers, micro};
use std::time::Instant;

/// How long and how big a run is.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seed of every generated input.
    pub seed: u64,
    /// Wall-clock budget of the whole run.
    pub seconds: f64,
    /// Slices run whatever the budget.
    pub min_slices: usize,
    /// Slices never exceeded.
    pub max_slices: usize,
    /// Test-sized worlds.
    pub tiny: bool,
    /// Epoch-driver threads (1 = serial).
    pub threads: usize,
}

impl RunConfig {
    /// A full-size run of `seconds` under the serial driver.
    #[must_use]
    pub fn timed(seed: u64, seconds: f64) -> RunConfig {
        RunConfig {
            seed,
            seconds,
            min_slices: 8,
            max_slices: 1024,
            tiny: false,
            threads: 1,
        }
    }

    /// Exactly `slices` test-sized slices.
    #[must_use]
    pub fn tiny(seed: u64, slices: usize) -> RunConfig {
        RunConfig {
            seed,
            seconds: 0.0,
            min_slices: slices,
            max_slices: slices,
            tiny: true,
            threads: 1,
        }
    }
}

/// What a slice runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    /// Nothing extra: the end-to-end measurement.
    Plain,
    /// The benchmark's spans around every platform call.
    Spans,
    /// `Platform::set_tracing(true)`.
    Tracing,
}

/// The slices of a run and the last world, kept for layer replays.
pub struct Measured<W> {
    /// Each slice with the leg it ran under.
    pub slices: Vec<(Leg, Slice)>,
    /// The last slice's world.
    pub last: W,
    /// Spans of the [`Leg::Spans`] slices.
    pub log: SpanLog,
}

/// The slices of one leg.
#[must_use]
pub fn leg(slices: &[(Leg, Slice)], leg: Leg) -> Vec<&Slice> {
    slices
        .iter()
        .filter(|(l, _)| *l == leg)
        .map(|(_, s)| s)
        .collect()
}

/// Runs slices of `W` for `cfg.seconds`, cycling through `legs`; slice
/// `i` runs world `i / legs.len()`, so every leg sees the same worlds.
pub fn measure<W: Workload>(cfg: &RunConfig, legs: &[Leg]) -> Measured<W> {
    let start = Instant::now();
    let mut log = SpanLog::new(false);
    let mut slices = Vec::new();
    let mut last = None;
    for i in 0..cfg.max_slices.max(1) {
        if i >= cfg.min_slices.max(1) && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
        let leg = legs[i % legs.len()];
        let seed = world::slice_seed(cfg.seed, i / legs.len());
        let hz_before = clock::hz();
        let t = Instant::now();
        let mut w = W::build(seed, cfg.tiny, cfg.threads);
        let setup_s = t.elapsed().as_secs_f64();
        w.platform().set_tracing(leg == Leg::Tracing);
        log.set_enabled(leg == Leg::Spans);
        let rss_before = rss_kb("VmRSS");
        let mut s = w.run(&mut log);
        s.setup_s = setup_s;
        s.rss_growth_kb = rss_kb("VmRSS") - rss_before;
        s.hz = (hz_before + clock::hz()) / 2.0;
        slices.push((leg, s));
        last = Some(w);
    }
    log.set_enabled(false);
    Measured {
        slices,
        last: last.expect("at least one slice"),
        log,
    }
}

/// One measured number, with the spread it showed.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// The metric over single slices or sample repeats: its min, p90
    /// and noise band.
    pub spread: Summary,
    /// Samples behind the value.
    pub n: usize,
}

impl Metric {
    /// A metric whose value is the median of `samples`.
    #[must_use]
    pub fn median(name: &str, unit: &'static str, samples: &[f64]) -> Metric {
        Metric::of_stat(name, unit, samples, |v| Summary::of(v).median)
    }

    /// A metric whose value is the best of its per-slice values: the
    /// largest when `higher_better`, else the smallest.
    #[must_use]
    pub fn best(name: &str, unit: &'static str, per_slice: &[f64], higher_better: bool) -> Metric {
        let pick = if higher_better { f64::max } else { f64::min };
        Metric::of_stat(name, unit, per_slice, |v| {
            v.iter().copied().reduce(pick).unwrap_or(0.0)
        })
    }

    /// A metric whose value is `stat` of `samples`. Its noise is how far
    /// `stat` of the odd samples lies from `stat` of the even ones, as a
    /// share of the value: the repeatability of the statistic itself,
    /// which the spread of single samples overstates (a slow slice moves
    /// neither a median nor a best slice).
    fn of_stat(
        name: &str,
        unit: &'static str,
        samples: &[f64],
        stat: impl Fn(&[f64]) -> f64,
    ) -> Metric {
        let value = stat(samples);
        let half =
            |first: usize| -> Vec<f64> { samples.iter().skip(first).step_by(2).copied().collect() };
        let (even, odd) = (half(0), half(1));
        let noise = if odd.is_empty() || value == 0.0 {
            0.0
        } else {
            (stat(&even) - stat(&odd)).abs() / value.abs()
        };
        let spread = Summary {
            noise,
            ..Summary::of(samples)
        };
        Metric {
            name: name.into(),
            unit,
            value,
            spread,
            n: spread.n,
        }
    }

    /// A metric computed once, with no spread of its own.
    #[must_use]
    pub fn single(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric::median(name, unit, &[value])
    }

    /// A metric from a [`Summary`] of sampled times, rescaled by `k`.
    #[must_use]
    pub fn sampled(name: &str, unit: &'static str, s: Summary, k: f64) -> Metric {
        let spread = s.scaled(k);
        Metric {
            name: name.into(),
            unit,
            value: spread.median,
            spread,
            n: spread.n,
        }
    }
}

/// A run's verdict and numbers.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload.
    pub workload: &'static str,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Correctness violations (empty when correct).
    pub errors: Vec<String>,
    /// The metrics.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn of(workload: &'static str, slices: &[&Slice], metrics: Vec<Metric>) -> Outcome {
        Outcome {
            workload,
            attempted: slices.iter().map(|s| s.attempted).sum(),
            failed: slices.iter().map(|s| s.failed).sum(),
            errors: slices
                .iter()
                .flat_map(|s| s.errors.iter().cloned())
                .collect(),
            metrics,
        }
    }

    /// Whether every correctness check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The run's one-line JSON result.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(&m.name),
                    json::number(m.value),
                    json::quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The untraced run: every end-to-end metric.
pub fn e2e_run<W: Workload>(cfg: &RunConfig) -> Outcome {
    let m = measure::<W>(cfg, &[Leg::Plain]);
    let slices = leg(&m.slices, Leg::Plain);
    Outcome::of(W::NAME, &slices, e2e_metrics(&slices, cfg.min_slices))
}

/// The end-to-end metrics of a set of slices; the deterministic ones
/// pool the first `exact` slices.
#[must_use]
pub fn e2e_metrics(slices: &[&Slice], exact: usize) -> Vec<Metric> {
    let each = |f: &dyn Fn(&Slice) -> f64| -> Vec<f64> { slices.iter().map(|s| f(s)).collect() };
    let fixed = &slices[..exact.clamp(1, slices.len())];
    let sim_ms: Vec<f64> = fixed
        .iter()
        .flat_map(|s| s.sim_ms.iter().copied())
        .collect();
    let ops: u64 = fixed.iter().map(|s| s.ops).sum();
    let air: u64 = fixed.iter().map(|s| world::air_bytes(&s.counts)).sum();
    let per_fixed =
        |f: &dyn Fn(&Slice) -> f64| Summary::of(&fixed.iter().map(|s| f(s)).collect::<Vec<_>>());
    vec![
        Metric::median("setup_s", "s", &each(&|s| s.setup_s)),
        Metric::best("ops_per_gcycle", "1/Gcycle", &each(&ops_per_gcycle), true),
        Metric::best(
            "op_mcycles_p50",
            "Mcycle",
            &each(&|s| op_mcycles(s, 0.5)),
            false,
        ),
        Metric::best(
            "op_mcycles_p90",
            "Mcycle",
            &each(&|s| op_mcycles(s, 0.9)),
            false,
        ),
        Metric {
            name: "sim_ms_p99".into(),
            unit: "ms",
            value: nearest_rank(&sim_ms, 0.99),
            spread: per_fixed(&|s| nearest_rank(&s.sim_ms, 0.99)),
            n: sim_ms.len(),
        },
        Metric::single("rss_peak_mb", "MB", rss_kb("VmHWM") / 1024.0),
        Metric {
            name: "air_bytes_per_op".into(),
            unit: "B",
            value: air as f64 / ops.max(1) as f64,
            spread: per_fixed(&|s| world::air_bytes(&s.counts) as f64 / s.ops.max(1) as f64),
            n: fixed.len(),
        },
    ]
}

/// Operations per wall second of a slice's timed phase.
fn throughput(s: &Slice) -> f64 {
    s.ops as f64 / s.wall_s.max(1e-9)
}

/// Operations per billion cycles of a slice's timed phase.
fn ops_per_gcycle(s: &Slice) -> f64 {
    throughput(s) * 1e9 / s.hz.max(1.0)
}

/// The `q`-percentile of a slice's op latency, in millions of cycles.
fn op_mcycles(s: &Slice, q: f64) -> f64 {
    nearest_rank(&s.op_ms, q) * 1e-3 * s.hz / 1e6
}

/// Per-operation counts: `(metric, counters summed)`.
const COUNTS: [(&str, &[&str]); 24] = [
    (
        "crypto.verifies_per_op",
        &["midas.receiver.verify_ns.count"],
    ),
    ("crypto.signs_per_op", &["midas.base.sign_ns.count"]),
    ("analyze.gates_per_op", &["midas.analyze.bytecode_ns.count"]),
    ("analyze.opts_per_op", &["analyze.opt.ns.count"]),
    ("prose.weaves_per_op", &["midas.receiver.weave_ns.count"]),
    ("midas.deliveries_per_op", &["midas.base.delivered"]),
    ("midas.installs_per_op", &["midas.receiver.installed"]),
    ("midas.replicated_per_op", &["stream.fed.forwarded"]),
    ("net.msgs_per_op", &["net.sim.sent"]),
    (
        "net.dropped_per_op",
        &["net.sim.dropped_loss", "net.sim.dropped_range"],
    ),
    ("durable.appends_per_op", &["durable.wal.appends"]),
    ("durable.commits_per_op", &["durable.wal.commits"]),
    ("durable.snapshots_per_op", &["durable.snapshot.count"]),
    ("durable.recovers_per_op", &["durable.recover.count"]),
    ("durable.replayed_per_op", &["durable.replayed"]),
    ("stream.encoded_per_op", &["stream.delta.encoded"]),
    ("stream.delivered_per_op", &["stream.delivered"]),
    ("stream.resyncs_per_op", &["stream.gaps"]),
    ("vm.dispatches_per_op", &["vm.advice_dispatches"]),
    ("vm.bytecode_ops_per_op", &["vm.bytecode_ops"]),
    ("core.rpc_retries_per_op", &["core.rpc_retries"]),
    ("core.dedup_hits_per_op", &["core.dedup_hits"]),
    ("core.maybe_lost_per_op", &["core.maybe_lost"]),
    ("core.rearmed_per_op", &["core.rearmed"]),
];

/// Budget the traced run keeps back for its layer replays.
const REPLAY_S: f64 = 1.5;

/// The traced run: every per-layer metric.
pub fn traced_run<W: Workload>(cfg: &RunConfig, span_dir: &std::path::Path) -> Outcome {
    let started = Instant::now();
    let mut errors = Vec::new();
    // The fixed-size measurements first; the slices take what is left
    // of the budget.
    let speedup = parallel_speedup::<W>(cfg, &mut errors);
    let micro = micro::rows(cfg.tiny);
    let legs = [Leg::Plain, Leg::Spans, Leg::Tracing];
    let slice_cfg = RunConfig {
        seconds: cfg.seconds - started.elapsed().as_secs_f64() - REPLAY_S,
        min_slices: cfg.min_slices.min(legs.len()),
        ..*cfg
    };
    let mut m = measure::<W>(&slice_cfg, &legs);
    if let Err(e) = m
        .log
        .write_jsonl(&span_dir.join(format!("{}.spans.jsonl", W::NAME)))
    {
        errors.push(format!("writing spans: {e}"));
    }
    let plain = leg(&m.slices, Leg::Plain);
    let mut metrics = Vec::new();

    let mut total = Counts::new();
    for s in &plain {
        world::accumulate(&mut total, &s.counts);
    }
    let ops = plain.iter().map(|s| s.ops).sum::<u64>().max(1) as f64;
    let per_op =
        |keys: &[&str]| keys.iter().filter_map(|k| total.get(*k)).sum::<u64>() as f64 / ops;
    for (name, keys) in COUNTS {
        metrics.push(Metric::single(name, "count", per_op(keys)));
    }

    let spans = leg(&m.slices, Leg::Spans);
    let span_ops = spans.iter().map(|s| s.ops).sum::<u64>().max(1) as f64;
    let span_wall_ns = spans.iter().map(|s| s.wall_s).sum::<f64>().max(1e-9) * 1e9;
    let totals = m.log.totals();
    let (pumps, pump_ns) = totals.get("pump").copied().unwrap_or_default();
    let api_ns: u64 = totals.values().map(|(_, ns)| ns).sum();
    let pumps_per_op = pumps as f64 / span_ops;
    metrics.push(Metric::single("core.pumps_per_op", "count", pumps_per_op));
    metrics.push(Metric::single(
        "span.pump.share",
        "share",
        pump_ns as f64 / span_wall_ns,
    ));
    metrics.push(Metric::single(
        "span.api.share",
        "share",
        api_ns as f64 / span_wall_ns,
    ));

    // Legs compare best slices, as the end-to-end throughput does.
    let best = |leg: &[&Slice]| leg.iter().map(|s| throughput(s)).fold(0.0, f64::max);
    let plain_tput = best(&plain);
    let overhead = |l: Leg| (plain_tput / best(&leg(&m.slices, l)).max(1e-9) - 1.0) * 100.0;
    metrics.push(Metric::single(
        "bench_span_overhead_pct",
        "%",
        overhead(Leg::Spans),
    ));
    metrics.push(Metric::single(
        "trace.overhead_pct",
        "%",
        overhead(Leg::Tracing),
    ));
    let growth: Vec<f64> = plain
        .iter()
        .map(|s| s.rss_growth_kb / (s.ops.max(1) as f64 / 1e3))
        .collect();
    metrics.push(Metric::median("core.rss_growth_kb_per_kop", "kB", &growth));
    let per_plain =
        |f: &dyn Fn(&Slice) -> f64| -> Vec<f64> { plain.iter().map(|s| f(s)).collect() };
    metrics.push(Metric::median(
        "host.clock_ghz",
        "GHz",
        &per_plain(&|s| s.hz / 1e9),
    ));
    metrics.push(Metric::best(
        "wall.ops_per_s",
        "1/s",
        &per_plain(&throughput),
        true,
    ));
    for (name, q) in [("wall.op_ms_p50", 0.5), ("wall.op_ms_p90", 0.9)] {
        metrics.push(Metric::best(
            name,
            "ms",
            &per_plain(&|s| nearest_rank(&s.op_ms, q)),
            false,
        ));
    }

    // The last slice's world once more as built, for what a checkpoint
    // cost before the timed phase grew the store.
    let last_seed = world::slice_seed(cfg.seed, (m.slices.len() - 1) / legs.len());
    let at_start = layers::checkpoint_us(W::build(last_seed, cfg.tiny, cfg.threads).anchor());
    let batch = per_op(&["durable.wal.appends"]) / per_op(&["durable.wal.commits"]).max(1e-9);
    let anchor = m.last.anchor();
    anchor.p.set_tracing(false);
    let replays = layers::replay(anchor, batch.round() as usize, at_start);
    let wall_us_per_op = plain
        .iter()
        .map(|s| s.wall_s * 1e6 / s.ops.max(1) as f64)
        .fold(f64::INFINITY, f64::min)
        .max(1e-9);
    let count = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let time = |name: &str| {
        replays
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let shares = [
        (
            "crypto.share",
            count("crypto.verifies_per_op") * time("crypto.verify_us")
                + count("crypto.signs_per_op") * time("crypto.sign_us"),
        ),
        (
            "analyze.share",
            count("analyze.gates_per_op")
                * (time("analyze.gate_us") + time("analyze.interference_us"))
                + count("analyze.opts_per_op") * time("analyze.opt_us"),
        ),
        (
            "prose.share",
            count("prose.weaves_per_op") * time("prose.weave_us"),
        ),
        (
            "vm.share",
            count("vm.dispatches_per_op") * time("vm.dispatch_ns") / 1e3,
        ),
        (
            "durable.share",
            count("durable.appends_per_op") * time("durable.append_commit_ns") / 1e3
                + count("durable.snapshots_per_op") * time("durable.checkpoint_us")
                + count("durable.recovers_per_op") * time("durable.recover_ms") * 1e3,
        ),
        (
            "stream.share",
            count("stream.encoded_per_op") * time("stream.publish_ns") / 1e3
                + count("stream.delivered_per_op") * time("stream.drain_ns") / 1e3
                + count("stream.resyncs_per_op") * time("stream.resync_us"),
        ),
        ("core.share", pumps_per_op * time("core.idle_pump_us")),
    ];
    let mut attributed = 0.0;
    for (name, us) in shares {
        let share = us / wall_us_per_op;
        attributed += share;
        metrics.push(Metric::single(name, "share", share));
    }
    metrics.push(Metric::single(
        "unattributed_share",
        "share",
        1.0 - attributed,
    ));
    metrics.extend(replays);
    metrics.push(speedup);
    metrics.extend(micro);

    let all: Vec<&Slice> = m.slices.iter().map(|(_, s)| s).collect();
    let mut out = Outcome::of(W::NAME, &all, metrics);
    out.errors.extend(errors);
    out
}

/// Wall time of a slice under the serial driver over its time under a
/// two-thread parallel driver, on the same world; the two runs must
/// leave identical digests.
fn parallel_speedup<W: Workload>(cfg: &RunConfig, errors: &mut Vec<String>) -> Metric {
    let seed = world::slice_seed(cfg.seed, 0);
    let mut ratios = Vec::new();
    for _ in 0..2 {
        let run = |threads| {
            let mut w = W::build(seed, cfg.tiny, threads);
            w.run(&mut SpanLog::new(false))
        };
        let (serial, parallel) = (run(1), run(2));
        if serial.digest != parallel.digest {
            errors.push(format!(
                "{}: serial digest {:x} but parallel {:x}",
                W::NAME,
                serial.digest,
                parallel.digest
            ));
        }
        ratios.push(serial.wall_s / parallel.wall_s.max(1e-9));
    }
    Metric::median("core.parallel_speedup", "x", &ratios)
}

/// A `/proc/self/status` memory field in kB (0 where unavailable).
#[must_use]
pub fn rss_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix(field)?
                    .strip_prefix(':')?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_best_slice_is_as_noisy_as_its_halves_disagree() {
        // Slow slices spread the set widely, but each half's best is near
        // the other's.
        let m = Metric::best(
            "ops_per_gcycle",
            "1/Gcycle",
            &[100.0, 98.0, 40.0, 60.0],
            true,
        );
        assert_eq!(m.value, 100.0);
        assert!((m.spread.noise - 0.02).abs() < 1e-12, "{}", m.spread.noise);
        assert!(Summary::of(&[100.0, 98.0, 40.0, 60.0]).noise > 0.5);
        let m = Metric::best("op_mcycles_p50", "Mcycle", &[8.0, 9.0, 20.0, 30.0], false);
        assert_eq!((m.value, m.spread.noise), (8.0, 1.0 / 8.0));
    }

    #[test]
    fn a_median_is_as_noisy_as_its_halves_disagree() {
        let m = Metric::median("setup_s", "s", &[1.0, 1.1, 5.0, 1.0, 1.1, 0.9]);
        // Halves [1.0, 5.0, 1.1] and [1.1, 1.0, 0.9]: medians 1.1 and 1.0.
        assert!((m.value - 1.05).abs() < 1e-12);
        assert!((m.spread.noise - 0.1 / 1.05).abs() < 1e-12);
        assert_eq!(Metric::single("x", "s", 3.0).spread.noise, 0.0);
    }
}
