//! Seeded soundness check for the bytecode verifier: any random program
//! the verifier *accepts* must execute in the real VM without the
//! faults the verifier claims to rule out: no operand-stack underflow,
//! no bad local slot, no out-of-range jump (all surfaced by the JIT or
//! the interpreter as `VmError::Link`). Type exceptions and fuel
//! exhaustion are allowed: the verifier tracks stack *depth*, not
//! types, and loops are bounded by fuel, not rejected.

mod programs;

use pmp_vm::op::Op;
use pmp_vm::prelude::*;
use programs::{admitted, aspect_for, check_seed, run};

/// Cases; the verifier accepts most and rejects the rest.
const CASES: u64 = 256;

/// Whether admission accepts `ops`; an accepted program must not
/// link-fault when called.
fn accepted_and_sound(ops: &[Op]) -> bool {
    let aspect = aspect_for(ops);
    if !admitted(&aspect) {
        return false; // admission would refuse it
    }
    if let (Err(VmError::Link(msg)), _) = run(&aspect.class) {
        panic!("verifier accepted {ops:?} but execution link-faulted: {msg}");
    }
    true
}

#[test]
fn accepted_programs_never_link_fault() {
    let accepted = (0..CASES)
        .filter(|&seed| check_seed(seed, accepted_and_sound))
        .count() as u64;
    // Both verdicts must stay common: at least half the programs
    // accepted and an eighth rejected.
    assert!(
        2 * accepted >= CASES && 8 * (CASES - accepted) >= CASES,
        "{accepted} of {CASES} programs accepted"
    );
}
