//! The pinned soak performance regression (DESIGN.md §17).
//!
//! `tests/repros/soak-slowlinks-p99.redrepro` is the ddmin-shrunk
//! remains of a 60-second soak with a 2× link-latency regression
//! injected halfway: two steps — `SlowLinks { mult: 2 }` followed by
//! one semantic call — that the `perf.soak-rpc-p99` oracle must flag
//! forever. Unlike the `.repro` corpus (bugs that were *fixed*, so
//! replays must be green), a `.redrepro` pins a failure that is
//! *supposed* to fail: it proves the perf oracle still has teeth. The
//! green-replay suite's glob skips the extension; this test owns it.

use pmp::chaos::{exec, repro, DriverKind, Op};

const RED: &str = "soak-slowlinks-p99.redrepro";

fn load_red() -> pmp::chaos::Scenario {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/repros")
        .join(RED);
    let bytes = std::fs::read(&path).expect("red repro must exist");
    repro::load(&bytes).expect("red repro must parse")
}

/// The shrinker got it down to the essentials: the regression knob
/// plus a single probe call. If a future change to the soak schedule
/// or the shrinker balloons this, the pin should be re-minimized, not
/// silently accepted.
#[test]
fn red_repro_is_minimal() {
    let sc = load_red();
    assert!(
        sc.steps.len() <= 10,
        "expected a ddmin-minimal repro, got {} steps",
        sc.steps.len()
    );
    assert!(
        sc.steps
            .iter()
            .any(|s| matches!(s.op, Op::SlowLinks { .. })),
        "the latency regression step is the point of the repro"
    );
}

/// Red under both drivers: the injected 2× regression pushes the RPC
/// round-trip to 4× the link baseline, over the oracle's 3× ceiling.
#[test]
fn red_repro_trips_the_p99_oracle_under_both_drivers() {
    let sc = load_red();
    for driver in [DriverKind::Serial, DriverKind::Parallel] {
        let report = exec::run(&sc, driver);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.invariant == "perf.soak-rpc-p99"),
            "{driver:?}: expected perf.soak-rpc-p99, got {:?}",
            report.violations
        );
    }
}

/// Green after reverting the regression: strip the `SlowLinks` steps
/// and the identical scenario passes clean. This is the
/// red-before/green-after pair in one file — the oracle fires on the
/// regression, not on the workload around it.
#[test]
fn stripping_the_regression_turns_the_repro_green() {
    let mut sc = load_red();
    sc.steps.retain(|s| !matches!(s.op, Op::SlowLinks { .. }));
    let cross = exec::run_cross(&sc);
    assert!(
        cross.violations.is_empty(),
        "without SlowLinks the soak must be clean: {:?}",
        cross.violations
    );
}

/// The pinned bytes survive a decode → encode round trip, so the
/// artifact stays replayable across format-preserving refactors.
#[test]
fn red_repro_bytes_are_roundtrip_stable() {
    let sc = load_red();
    let reencoded =
        repro::load(&repro::save(&sc, &Vec::new())).expect("re-encoded repro must parse");
    assert_eq!(sc, reencoded);
}
