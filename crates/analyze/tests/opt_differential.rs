//! Seeded translation validation for the weave-time optimizer: any
//! random program the verifier *accepts* must optimize without a
//! revert and behave identically before and after
//! `opt::optimize_aspect`: the same return value or the same thrown
//! error, and the same final value of `this.f`. The programs (see
//! `programs`) return whatever is left on their stack, concatenated,
//! and write `f`, so a wrong fold shows; calls to the constant sibling
//! `limit()` make devirtualisation and interprocedural inlining fire,
//! and constant branches feed dead-code elimination.
//!
//! Fuel exhaustion is the one permitted divergence: optimization
//! legitimately reduces fuel consumption (that is its point), so a
//! case where either leg runs out of fuel is discarded rather than
//! compared.

mod programs;

use pmp_analyze::opt;
use pmp_vm::op::{Const, Op};
use pmp_vm::prelude::*;
use programs::{admitted, aspect_for, check_seed, run};

/// Cases; most of them pass the verifier and get compared.
const CASES: u64 = 256;

fn canon(v: &Value) -> String {
    match v {
        Value::Ref(_) => "<ref>".to_string(),
        other => format!("{other:?}"),
    }
}

/// A run's result and `f`, heap ids compared opaquely; `None` when a
/// limit (fuel) stopped it.
fn observed((result, f): (Result<Value, VmError>, Value)) -> Option<(String, String)> {
    let result = match result {
        Err(VmError::Limit(_)) => return None,
        Ok(v) => format!("Ok({})", canon(&v)),
        Err(e) => format!("Err({e})"),
    };
    Some((result, canon(&f)))
}

/// Checks one program as admission and the optimizer see it. Returns
/// whether its two runs were compared: a program the verifier rejects
/// or whose run a limit stopped is not.
fn behaves_identically(ops: &[Op]) -> bool {
    let aspect = aspect_for(ops);
    if !admitted(&aspect) {
        return false; // admission would refuse it: nothing to compare
    }
    let (optimized, report) = opt::optimize_aspect(&aspect);
    assert!(
        report.all_validated(),
        "translation validation reverted a verifier-accepted program: {ops:?}\n{report}"
    );
    let (Some(before), Some(after)) = (
        observed(run(&aspect.class)),
        observed(run(&optimized.class)),
    ) else {
        return false;
    };
    assert_eq!(
        before, after,
        "optimized program diverged\n  ops: {ops:?}\n  optimized: {:?}",
        optimized.class.methods[0].body.ops
    );
    true
}

#[test]
fn optimized_programs_behave_identically() {
    let compared = (0..CASES)
        .filter(|&seed| check_seed(seed, behaves_identically))
        .count() as u64;
    // A generator that stops yielding comparable programs would leave
    // the property checking nothing.
    assert!(
        2 * compared >= CASES,
        "only {compared} of {CASES} programs compared"
    );
}

/// Seed 128, shrunk: constant propagation once folded `5 * 3` across a
/// `Swap` and deleted the `5` the `Swap` still moved, so the optimized
/// body passed the verifier but returned `"null2150"`, not
/// `"2null150"`.
#[test]
fn a_fold_after_a_swap_keeps_the_stack_order() {
    let ops = [
        Op::Const(Const::Int(2)),
        Op::Const(Const::Int(5)),
        Op::Load(1),
        Op::Swap,
        Op::Const(Const::Int(3)),
        Op::Mul,
        Op::Load(0),
        Op::GetField {
            class: "T".into(),
            field: "f".into(),
        },
        Op::Concat,
        Op::Concat,
        Op::Concat,
        Op::RetVal,
    ];
    assert!(behaves_identically(&ops));
}
