//! Invocation-semantics matrix (DESIGN.md §17): every semantics ×
//! every loss level × both drivers, on the real platform.
//!
//! For each cell of the matrix the world is identical — same seed,
//! same topology, same call script — and the assertions are the
//! classic RPC guarantees:
//!
//! * **at-most-once** — exactly zero duplicate executions, at any
//!   loss level, because the server's dedup table filters retries;
//! * **at-least-once** — every request executes at least once under
//!   bounded loss (the backoff schedule out-lasts the loss streaks
//!   these seeds produce);
//! * **both drivers** — byte-identical delivery logs, journals, and
//!   outcome streams, because retry timers, backoff, and dedup are all
//!   functions of simulated time and the link RNG, never of the
//!   scheduler.

use pmp::core::rpc::InvocationSemantics;
use pmp::core::{BaseId, Driver, MobId, ParallelDriver, Platform, SerialDriver};
use pmp::net::{LinkModel, Position};
use pmp::vm::perm::Permissions;

const SEC: u64 = 1_000_000_000;
const CALLS: u64 = 10;

/// One hall, one base, one robot in range. No extensions are needed:
/// the `DrawingService` is exported by the robot host itself.
fn build_world(seed: u64, loss: f64) -> (Platform, BaseId, MobId) {
    let mut p = Platform::with_link(seed, LinkModel::lossy(loss));
    p.add_area("hall", Position::new(0.0, 0.0), Position::new(60.0, 60.0));
    let base = p.add_base("hall", Position::new(30.0, 30.0), 80.0);
    let policy = p.trusting_policy(&[base], Permissions::all());
    let robot = p
        .add_robot("robot:1:1", Position::new(40.0, 30.0), 80.0, policy)
        .expect("robot");
    (p, base, robot)
}

/// Everything one matrix cell exposes to an observer.
#[derive(Debug, PartialEq)]
struct CellReport {
    trace: u64,
    journal: u64,
    outcomes: Vec<String>,
    executions: Vec<u32>,
    duplicates: u64,
    dedup_len: usize,
    dedup_cap: usize,
}

fn run_cell(
    seed: u64,
    loss: f64,
    sem: InvocationSemantics,
    driver: Box<dyn Driver>,
) -> CellReport {
    let (mut p, base, robot) = build_world(seed, loss);
    p.set_driver(driver);
    p.sim.deliveries.set_logging(true);
    p.pump(3 * SEC);

    let mut reqs = Vec::new();
    for i in 0..CALLS {
        let req = p.rpc_with(
            base,
            robot,
            "operator:1",
            "DrawingService",
            "moveTo",
            vec![i as i64, (i * 2) as i64],
            sem,
        );
        reqs.push(req);
        p.pump(SEC / 2);
    }
    // Generous settle: the full backoff schedule (8 attempts, 2 s cap)
    // finishes well inside this window.
    p.pump(20 * SEC);

    let outcomes = p
        .take_rpc_outcomes()
        .into_iter()
        .map(|o| format!("req={} ok={} value={}", o.req, o.ok, o.value))
        .collect();
    let node = p.node(robot);
    CellReport {
        trace: p.trace_digest(),
        journal: p.journal_digest(),
        outcomes,
        executions: reqs.iter().map(|&r| node.rpc_server.executions(r)).collect(),
        duplicates: node.rpc_server.duplicate_at_most_once_executions(),
        dedup_len: node.rpc_server.dedup.len(),
        dedup_cap: node.rpc_server.dedup.cap(),
    }
}

const LOSSES: [f64; 3] = [0.0, 0.20, 0.50];
const SEMANTICS: [InvocationSemantics; 3] = [
    InvocationSemantics::Maybe,
    InvocationSemantics::AtMostOnce,
    InvocationSemantics::AtLeastOnce,
];

#[test]
fn semantics_matrix_holds_under_both_drivers() {
    for sem in SEMANTICS {
        for loss in LOSSES {
            let serial = run_cell(402, loss, sem, Box::new(SerialDriver));
            let parallel = run_cell(402, loss, sem, Box::new(ParallelDriver::default()));
            assert_eq!(
                serial, parallel,
                "{sem} at {loss} loss diverged across drivers"
            );

            // The dedup table never grows past its bound.
            assert!(serial.dedup_len <= serial.dedup_cap);

            match sem {
                InvocationSemantics::AtMostOnce => {
                    // The tentpole guarantee: retries at 50 % loss mean
                    // plenty of duplicate arrivals, and not one of them
                    // reaches the service object.
                    assert_eq!(
                        serial.duplicates, 0,
                        "at-most-once produced duplicate executions at {loss} loss"
                    );
                    for (i, &n) in serial.executions.iter().enumerate() {
                        assert!(
                            n <= 1,
                            "call {i} executed {n} times at {loss} loss"
                        );
                    }
                }
                InvocationSemantics::AtLeastOnce => {
                    // Bounded loss: every request runs at least once.
                    for (i, &n) in serial.executions.iter().enumerate() {
                        assert!(
                            n >= 1,
                            "at-least-once call {i} never executed at {loss} loss"
                        );
                    }
                }
                InvocationSemantics::Maybe => {
                    // No retries: executions can be 0 (lost) but never >1.
                    for &n in &serial.executions {
                        assert!(n <= 1);
                    }
                }
            }
        }
    }
}

#[test]
fn lossless_runs_execute_every_call_exactly_once() {
    for sem in SEMANTICS {
        let r = run_cell(402, 0.0, sem, Box::new(SerialDriver));
        if sem != InvocationSemantics::Maybe {
            // Maybe rides the legacy path, which predates the
            // execution ledger; its guarantee shows in the outcomes.
            assert_eq!(
                r.executions,
                vec![1; CALLS as usize],
                "{sem} on a clean link must execute each call exactly once"
            );
        }
        assert_eq!(r.outcomes.len(), CALLS as usize);
        assert!(r.outcomes.iter().all(|o| o.contains("ok=true")));
    }
}

#[test]
fn retries_actually_happen_under_loss() {
    // Sanity that the matrix is exercising retransmission at all: at
    // 50 % loss the at-least-once run must show duplicate executions
    // (that is its contract), and the at-most-once run must show
    // dedup-table hits instead.
    let alo = run_cell(402, 0.50, InvocationSemantics::AtLeastOnce, Box::new(SerialDriver));
    let total: u32 = alo.executions.iter().sum();
    assert!(
        total > CALLS as u32,
        "no duplicate at-least-once executions at 50% loss — retries inert? {:?}",
        alo.executions
    );

    let (mut p, base, robot) = build_world(402, 0.50);
    p.pump(3 * SEC);
    for i in 0..CALLS {
        p.rpc_with(
            base,
            robot,
            "operator:1",
            "DrawingService",
            "moveTo",
            vec![i as i64, 0],
            InvocationSemantics::AtMostOnce,
        );
        p.pump(SEC / 2);
    }
    p.pump(20 * SEC);
    assert!(
        p.node(robot).rpc_server.dedup.hits > 0,
        "at-most-once at 50% loss should answer some duplicates from cache"
    );
    assert_eq!(p.node(robot).rpc_server.duplicate_at_most_once_executions(), 0);
}

#[test]
fn at_most_once_survives_base_crash_without_reexecution() {
    // Crash the caller's base mid-retry: the recovered call table
    // resumes retrying under the same request ids, and the server's
    // dedup table answers any resend of an already-executed call from
    // cache. Total executions stay ≤ 1 per request.
    let (mut p, base, robot) = build_world(77, 0.20);
    p.pump(3 * SEC);
    let mut reqs = Vec::new();
    for i in 0..4u64 {
        reqs.push(p.rpc_with(
            base,
            robot,
            "operator:1",
            "DrawingService",
            "moveTo",
            vec![i as i64, 3],
            InvocationSemantics::AtMostOnce,
        ));
    }
    // Let the first sends land (some will have executed), then crash
    // before the schedule completes.
    p.pump_millis(120);
    p.crash_base(base);
    p.pump(2 * SEC);
    p.restart_base(base);
    p.pump(25 * SEC);

    let node = p.node(robot);
    assert_eq!(node.rpc_server.duplicate_at_most_once_executions(), 0);
    for &r in &reqs {
        assert!(
            node.rpc_server.executions(r) <= 1,
            "req {r} executed more than once across the crash"
        );
    }
    // The platform kept retrying after restart: outstanding calls
    // resolved one way or the other.
    assert_eq!(p.base(base).rpc.outstanding(), 0);
}
