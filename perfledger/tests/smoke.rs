//! Every workload at a tiny size: correctness checks, exact metrics that
//! repeat across runs and drivers, and metric names that match
//! `BENCHMARK.json` both ways.

use pmp_perfledger::adapt::Adapt;
use pmp_perfledger::fanout::Fanout;
use pmp_perfledger::json;
use pmp_perfledger::ledger::{self, BENCHMARK_JSON};
use pmp_perfledger::recover::Recover;
use pmp_perfledger::rpc::Rpc;
use pmp_perfledger::run::{self, Leg, Outcome, RunConfig};
use pmp_perfledger::world::{Counts, Workload};
use std::collections::BTreeSet;
use std::path::Path;

/// Every deterministic output of a run: per slice, the run digest, the
/// completed operations, the simulated latencies and the counters.
fn exact<W: Workload>(seed: u64, threads: usize) -> Vec<(u64, u64, Vec<u64>, Counts)> {
    let cfg = RunConfig {
        threads,
        ..RunConfig::tiny(seed, 2)
    };
    run::measure::<W>(&cfg, &[Leg::Plain])
        .slices
        .into_iter()
        .map(|(_, s)| {
            let sim: Vec<u64> = s
                .sim_ms
                .iter()
                .map(|ms| (ms * 1e6).round() as u64)
                .collect();
            (s.digest, s.ops, sim, s.counts)
        })
        .collect()
}

fn correct<W: Workload>() {
    for seed in [1, 2] {
        let out = run::e2e_run::<W>(&RunConfig::tiny(seed, 2));
        assert!(out.correct(), "{} seed {seed}: {:?}", W::NAME, out.errors);
        assert!(out.attempted > 0);
        assert_eq!(out.failed, 0, "{} seed {seed}", W::NAME);
    }
}

fn repeatable<W: Workload>() {
    let serial = exact::<W>(7, 1);
    assert!(
        serial
            .iter()
            .all(|(_, ops, sim, _)| *ops > 0 && !sim.is_empty()),
        "{}",
        W::NAME
    );
    assert_eq!(
        serial,
        exact::<W>(7, 1),
        "{}: two runs of one seed differ",
        W::NAME
    );
    assert_eq!(
        serial,
        exact::<W>(7, 2),
        "{}: serial and parallel drivers differ",
        W::NAME
    );
}

#[test]
fn adapt_is_correct() {
    correct::<Adapt>();
}

#[test]
fn rpc_is_correct() {
    correct::<Rpc>();
}

#[test]
fn fanout_is_correct() {
    correct::<Fanout>();
}

#[test]
fn recover_is_correct() {
    correct::<Recover>();
}

#[test]
fn adapt_is_exactly_repeatable() {
    repeatable::<Adapt>();
}

#[test]
fn rpc_is_exactly_repeatable() {
    repeatable::<Rpc>();
}

#[test]
fn fanout_is_exactly_repeatable() {
    repeatable::<Fanout>();
}

#[test]
fn recover_is_exactly_repeatable() {
    repeatable::<Recover>();
}

fn names(out: &Outcome) -> BTreeSet<String> {
    out.metrics.iter().map(|m| m.name.clone()).collect()
}

fn declared(section: &str) -> BTreeSet<String> {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(json::Value::arr)
        .expect("section present")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(json::Value::str)
                .expect("named")
                .to_string()
        })
        .collect()
}

/// The result line has exactly the keys `correct`, `attempted`, `failed`
/// and `metrics`, in that order, and every metric its value and unit.
fn check_result_line(out: &Outcome) {
    let v = json::parse(&out.result_line()).expect("result line is JSON");
    let json::Value::Obj(members) = &v else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let json::Value::Obj(metrics) = v.get("metrics").unwrap() else {
        panic!("metrics is not an object")
    };
    for (name, m) in metrics {
        assert!(
            m.get("value").and_then(json::Value::num).is_some(),
            "{name}"
        );
        assert!(m.get("unit").and_then(json::Value::str).is_some(), "{name}");
    }
}

#[test]
fn emitted_names_match_the_declaration_both_ways() {
    let spans = Path::new(env!("CARGO_TARGET_TMPDIR")).join("spans");
    let cfg = RunConfig::tiny(1, 3);
    let runs = [
        (
            run::e2e_run::<Adapt>(&cfg),
            run::traced_run::<Adapt>(&cfg, &spans),
        ),
        (
            run::e2e_run::<Rpc>(&cfg),
            run::traced_run::<Rpc>(&cfg, &spans),
        ),
        (
            run::e2e_run::<Fanout>(&cfg),
            run::traced_run::<Fanout>(&cfg, &spans),
        ),
        (
            run::e2e_run::<Recover>(&cfg),
            run::traced_run::<Recover>(&cfg, &spans),
        ),
    ];
    for (e2e, traced) in &runs {
        assert!(
            e2e.correct() && traced.correct(),
            "{:?} {:?}",
            e2e.errors,
            traced.errors
        );
        assert_eq!(names(e2e), declared("end_to_end"), "{}", e2e.workload);
        assert_eq!(names(traced), declared("per_layer"), "{}", traced.workload);
        assert!(spans
            .join(format!("{}.spans.jsonl", traced.workload))
            .exists());
        check_result_line(e2e);
        check_result_line(traced);
        assert!(
            e2e.metrics.iter().all(|m| m.value > 0.0),
            "{}: an end-to-end metric read 0",
            e2e.workload
        );
    }
    let spec = ledger::declared(BENCHMARK_JSON).unwrap();
    assert!(spec
        .values()
        .filter(|d| d.bound.is_some())
        .all(|d| d.bound.unwrap() <= 0.25));
}
