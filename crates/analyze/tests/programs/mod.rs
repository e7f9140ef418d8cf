//! The random programs both seeded suites draw: bodies for `T.m` over
//! what the optimizer rewrites — constants, stack shuffles, arithmetic,
//! locals, branches, reads and writes of `this.f`, and calls to the
//! constant sibling `limit()`.
//!
//! Each op is drawn for the stack depth and, mostly, the operand kinds
//! the ops before it leave, and each jump lands where that
//! straight-line depth equals its own, so most programs pass the
//! verifier and run past their first few ops. They return whatever is
//! left on their stack, concatenated. One draw in twelve is a slip:
//! any op, any jump target and any local slot, whatever the depth, so
//! the verifier's rejections get exercised too.

use pmp_analyze::{verifier, AnalyzeOptions, Severity};
use pmp_prose::{PortableAspect, PortableClass, PortableMethod};
use pmp_telemetry::SimRng;
use pmp_vm::op::{BytecodeBody, Const, Op};
use pmp_vm::prelude::*;
use std::panic::{self, AssertUnwindSafe};

/// Extra locals of `T.m`: slots 1 and 2 (slot 0 is `this`).
const EXTRA_LOCALS: u16 = 2;
/// Ops drawn before the closing return (at least one).
const MAX_OPS: usize = 24;
/// The stack depth at which the generator stops pushing.
const DEPTH_CAP: usize = 6;
/// Fuel per call: bounds the loops backward jumps make.
const FUEL: u64 = 10_000;
/// The target of a drawn jump until the program is complete.
const UNRESOLVED: u32 = u32::MAX;

fn get_f() -> Op {
    Op::GetField {
        class: "T".into(),
        field: "f".into(),
    }
}

fn put_f() -> Op {
    Op::PutField {
        class: "T".into(),
        field: "f".into(),
    }
}

fn call_limit() -> Op {
    Op::CallV {
        method: "limit".into(),
        argc: 0,
    }
}

/// Mostly a small int, sometimes any int, a bool or a string.
fn constant(rng: &mut SimRng) -> Op {
    Op::Const(match rng.below(8) {
        0..=4 => Const::Int(rng.range_u64(16) as i64 - 8),
        5 => Const::Int(rng.any_i64()),
        6 => Const::Bool(rng.chance(0.5)),
        _ => Const::Str(format!("s{}", rng.below(3))),
    })
}

/// A slip: any op of the alphabet, blind to the stack depth. Targets
/// and slots are often out of range.
fn any_op(rng: &mut SimRng, len: usize) -> Op {
    let target = rng.below(len + 8) as u32;
    match rng.below(24) {
        0..=3 => constant(rng),
        4 => Op::Dup,
        5 => Op::Pop,
        6 => Op::Swap,
        7 => Op::Add,
        8 => Op::Sub,
        9 => Op::Mul,
        10 => Op::Eq,
        11 => Op::Lt,
        12 => Op::Not,
        13 => Op::Neg,
        14 => Op::Concat,
        15 => Op::ToStr,
        16 => Op::Jump(target),
        17 => Op::JumpIf(target),
        18 => Op::JumpIfNot(target),
        19 => Op::Load(rng.below(4) as u16),
        20 => Op::Store(rng.below(4) as u16),
        21 => call_limit(),
        22 => get_f(),
        _ => put_f(),
    }
}

/// What the straight-line flow leaves in a stack slot or a local.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Int,
    Bool,
    Str,
    /// `this`, `null`, or whatever a slip left.
    Other,
}

/// The straight-line stack and locals, by kind.
struct Shape {
    stack: Vec<Kind>,
    locals: [Kind; 3],
}

impl Shape {
    fn top(&self, i: usize) -> Option<Kind> {
        self.stack.iter().rev().nth(i).copied()
    }

    /// Applies `op`; a slip that underflows pops what is there.
    fn apply(&mut self, op: &Op) {
        use Kind::{Bool, Int, Other, Str};
        let (pops, pushed) = match op {
            Op::Const(Const::Int(_)) => (0, Some(Int)),
            Op::Const(Const::Bool(_)) => (0, Some(Bool)),
            Op::Const(Const::Str(_)) => (0, Some(Str)),
            Op::Const(_) => (0, Some(Other)),
            Op::Load(i) => (0, Some(*self.locals.get(usize::from(*i)).unwrap_or(&Other))),
            Op::Store(i) => {
                if let (Some(slot), Some(k)) =
                    (self.locals.get_mut(usize::from(*i)), self.stack.last())
                {
                    *slot = *k;
                }
                (1, None)
            }
            Op::Dup => (0, Some(self.top(0).unwrap_or(Other))),
            Op::Swap => {
                let n = self.stack.len();
                if n >= 2 {
                    self.stack.swap(n - 1, n - 2);
                }
                (0, None)
            }
            Op::Add | Op::Sub | Op::Mul => (2, Some(Int)),
            Op::Eq | Op::Lt => (2, Some(Bool)),
            Op::Concat => (2, Some(Str)),
            Op::Neg | Op::GetField { .. } | Op::CallV { .. } => (1, Some(Int)),
            Op::Not => (1, Some(Bool)),
            Op::ToStr => (1, Some(Str)),
            Op::PutField { .. } => (2, None),
            Op::Pop | Op::JumpIf(_) | Op::JumpIfNot(_) | Op::RetVal => (1, None),
            _ => (0, None),
        };
        let keep = self.stack.len().saturating_sub(pops);
        self.stack.truncate(keep);
        self.stack.extend(pushed);
    }
}

/// Ops that fit `shape`: their depth always, their operand kinds
/// mostly, so that few programs stop at their first type error. One op,
/// or a short idiom around `this`; jumps are left [`UNRESOLVED`].
fn fitting(rng: &mut SimRng, shape: &Shape) -> Vec<Op> {
    use Kind::{Bool, Int, Str};
    let (a, b) = (shape.top(0), shape.top(1));
    let mut menu: Vec<(usize, Vec<Op>)> = vec![(1, vec![Op::Jump(UNRESOLVED)])];
    if shape.stack.len() < DEPTH_CAP {
        menu.push((6, vec![constant(rng)]));
        menu.push((1, vec![Op::Load(rng.below(3) as u16)]));
        menu.push((1, vec![Op::Load(0), get_f()]));
        menu.push((1, vec![Op::Load(0), call_limit()]));
    }
    if a.is_some() {
        let any = [Op::Pop, Op::Dup, Op::ToStr, Op::RetVal];
        menu.push((2, vec![rng.pick(&any).clone()]));
        menu.push((1, vec![Op::Store(1 + rng.below(2) as u16)]));
    }
    if b.is_some() {
        menu.push((1, vec![rng.pick(&[Op::Swap, Op::Concat, Op::Eq]).clone()]));
    }
    if a == Some(Int) {
        menu.push((1, vec![Op::Neg]));
        menu.push((1, vec![Op::Load(0), Op::Swap, put_f()]));
    }
    if (a, b) == (Some(Int), Some(Int)) {
        let ops = [Op::Add, Op::Sub, Op::Mul, Op::Eq, Op::Lt];
        menu.push((6, vec![rng.pick(&ops).clone()]));
    }
    if (a, b) == (Some(Str), Some(Str)) {
        menu.push((2, vec![rng.pick(&[Op::Concat, Op::Lt]).clone()]));
    }
    if a == Some(Bool) {
        menu.push((1, vec![Op::Not]));
        let branch = [Op::JumpIf(UNRESOLVED), Op::JumpIfNot(UNRESOLVED)];
        menu.push((3, vec![rng.pick(&branch).clone()]));
    }
    let mut pick = rng.below(menu.iter().map(|(w, _)| w).sum());
    for (w, ops) in menu {
        if pick < w {
            return ops;
        }
        pick -= w;
    }
    unreachable!("the pick lies below the total weight")
}

/// Checks `case` on the program `seed` draws. A panic anywhere in the
/// case (the verifier, the optimizer, the VM or an assertion) fails
/// the test with its seed.
pub fn check_seed<T>(seed: u64, case: impl FnOnce(&[Op]) -> T) -> T {
    let ops = program(&mut SimRng::new(seed));
    panic::catch_unwind(AssertUnwindSafe(|| case(&ops))).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("a panic without a message");
        panic!("seed {seed}: {msg}")
    })
}

/// One random body for `T.m`.
fn program(rng: &mut SimRng) -> Vec<Op> {
    let n = 1 + rng.below(MAX_OPS);
    let mut ops = Vec::new();
    let mut shape = Shape {
        stack: Vec::new(),
        locals: [Kind::Other; 3],
    };
    // The straight-line stack depth before each op, and each drawn
    // jump's pc with the depth it leaves.
    let mut depth_at = Vec::new();
    let mut jumps = Vec::new();
    let mut emit = |op: Op, shape: &mut Shape, ops: &mut Vec<Op>| {
        depth_at.push(shape.stack.len());
        shape.apply(&op);
        if matches!(
            op,
            Op::Jump(UNRESOLVED) | Op::JumpIf(UNRESOLVED) | Op::JumpIfNot(UNRESOLVED)
        ) {
            jumps.push((ops.len(), shape.stack.len()));
        }
        ops.push(op);
    };
    while ops.len() < n {
        // After a jump or a return, the next op is dead unless a jump
        // lands on it. Dead code is where the verifier, which follows
        // paths, and the JIT, which compiles every op, could disagree,
        // so half of it slips.
        let dead = matches!(ops.last(), Some(Op::Jump(_) | Op::RetVal));
        let drawn = if rng.below(if dead { 2 } else { 12 }) == 0 {
            vec![any_op(rng, n)]
        } else {
            fitting(rng, &shape)
        };
        for op in drawn {
            emit(op, &mut shape, &mut ops);
        }
    }
    // Return every value left on the stack, concatenated, so that a
    // wrong value anywhere on it shows. One program in sixteen slips
    // and falls off the end instead.
    if rng.below(16) != 0 {
        while shape.stack.len() > 1 {
            emit(Op::Concat, &mut shape, &mut ops);
        }
        let ret = if shape.stack.is_empty() {
            Op::Ret
        } else {
            Op::RetVal
        };
        emit(ret, &mut shape, &mut ops);
    }
    // Land each jump where the depth fits, mostly forward: a backward
    // jump loops until the fuel runs out unless a branch leaves.
    for (pc, d) in jumps {
        let fits: Vec<usize> = (0..ops.len()).filter(|&t| depth_at[t] == d).collect();
        let forward: Vec<usize> = fits.iter().copied().filter(|&t| t > pc).collect();
        let target = if !forward.is_empty() && rng.below(8) != 0 {
            *rng.pick(&forward)
        } else if !fits.is_empty() {
            *rng.pick(&fits)
        } else {
            rng.below(ops.len() + 2)
        } as u32;
        match &mut ops[pc] {
            Op::Jump(t) | Op::JumpIf(t) | Op::JumpIfNot(t) => *t = target,
            other => unreachable!("pc {pc} holds {other:?}, not a jump"),
        }
    }
    ops
}

/// The constant sibling: `limit() -> 9`, the target for
/// devirtualisation and interprocedural constant inlining.
fn limit_method() -> PortableMethod {
    PortableMethod {
        name: "limit".into(),
        params: vec![],
        ret: "int".into(),
        body: BytecodeBody {
            extra_locals: 0,
            ops: vec![Op::Const(Const::Int(9)), Op::RetVal],
            handlers: vec![],
        },
    }
}

/// The aspect whose class `T` has an int field `f`, the method `m`
/// with body `ops`, and `limit`.
pub fn aspect_for(ops: &[Op]) -> PortableAspect {
    PortableAspect {
        name: "t".into(),
        class: PortableClass {
            name: "T".into(),
            fields: vec![("f".into(), "int".into())],
            methods: vec![
                PortableMethod {
                    name: "m".into(),
                    params: vec![],
                    ret: "any".into(),
                    body: BytecodeBody {
                        extra_locals: EXTRA_LOCALS,
                        ops: ops.to_vec(),
                        handlers: vec![],
                    },
                },
                limit_method(),
            ],
        },
        bindings: vec![],
    }
}

/// Whether admission's verifier accepts `aspect`.
pub fn admitted(aspect: &PortableAspect) -> bool {
    let findings = verifier::verify_class(&aspect.class, &AnalyzeOptions::default());
    !findings.iter().any(|f| f.severity >= Severity::Error)
}

/// Calls `T.m` on a fresh instance of `class`, as advice, under
/// [`FUEL`]. Returns the call's result and the value it left in `f`.
pub fn run(class: &PortableClass) -> (Result<Value, VmError>, Value) {
    let mut vm = Vm::new(VmConfig::default());
    let def = class.to_class_def().expect("class def");
    vm.register_class(def).expect("register");
    let this = vm.new_object("T").expect("object");
    let scope = vm.begin_advice(Permissions::all(), Some(FUEL));
    let result = vm.call("T", "m", this.clone(), vec![]);
    vm.end_advice(scope);
    let f = vm
        .get_field(this.as_ref_id().expect("ref"), "T", "f")
        .expect("T.f");
    (result, f)
}
