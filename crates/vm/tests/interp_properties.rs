//! Seeded interpreter validation: random expression trees are
//! compiled to bytecode and must evaluate exactly like the Rust
//! reference (wrapping integer semantics).

use pmp_telemetry::SimRng;
use pmp_vm::builder::MethodBuilder;
use pmp_vm::class::ClassDef;
use pmp_vm::op::Op;
use pmp_vm::prelude::*;

/// Cases per seeded property below.
const CASES: u64 = 256;

#[derive(Debug, Clone)]
enum Expr {
    Const(i64),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
}

impl Expr {
    fn eval(&self) -> i64 {
        match self {
            Expr::Const(v) => *v,
            Expr::Add(a, b) => a.eval().wrapping_add(b.eval()),
            Expr::Sub(a, b) => a.eval().wrapping_sub(b.eval()),
            Expr::Mul(a, b) => a.eval().wrapping_mul(b.eval()),
            Expr::Xor(a, b) => a.eval() ^ b.eval(),
            Expr::And(a, b) => a.eval() & b.eval(),
            Expr::Or(a, b) => a.eval() | b.eval(),
            Expr::Neg(a) => a.eval().wrapping_neg(),
        }
    }

    fn emit(&self, b: &mut MethodBuilder) {
        match self {
            Expr::Const(v) => {
                b.konst(*v);
            }
            Expr::Add(x, y) => {
                x.emit(b);
                y.emit(b);
                b.op(Op::Add);
            }
            Expr::Sub(x, y) => {
                x.emit(b);
                y.emit(b);
                b.op(Op::Sub);
            }
            Expr::Mul(x, y) => {
                x.emit(b);
                y.emit(b);
                b.op(Op::Mul);
            }
            Expr::Xor(x, y) => {
                x.emit(b);
                y.emit(b);
                b.op(Op::BitXor);
            }
            Expr::And(x, y) => {
                x.emit(b);
                y.emit(b);
                b.op(Op::BitAnd);
            }
            Expr::Or(x, y) => {
                x.emit(b);
                y.emit(b);
                b.op(Op::BitOr);
            }
            Expr::Neg(x) => {
                x.emit(b);
                b.op(Op::Neg);
            }
        }
    }
}

/// An expression tree at most `depth` operators deep, over edge-heavy
/// constants.
fn expr(rng: &mut SimRng, depth: u32) -> Expr {
    if depth == 0 || rng.below(4) == 0 {
        return Expr::Const(rng.any_i64());
    }
    let a = Box::new(expr(rng, depth - 1));
    if rng.below(7) == 0 {
        return Expr::Neg(a);
    }
    let b = Box::new(expr(rng, depth - 1));
    match rng.below(6) {
        0 => Expr::Add(a, b),
        1 => Expr::Sub(a, b),
        2 => Expr::Mul(a, b),
        3 => Expr::Xor(a, b),
        4 => Expr::And(a, b),
        _ => Expr::Or(a, b),
    }
}

/// Compiles `expr` into `E.eval` and calls it.
fn run_expr(expr: &Expr, hooks: bool) -> Result<Value, VmError> {
    let mut vm = Vm::new(if hooks {
        VmConfig::default()
    } else {
        VmConfig::without_hooks()
    });
    let mut b = MethodBuilder::new();
    expr.emit(&mut b);
    b.op(Op::RetVal);
    let body = b.build();
    vm.register_class(
        ClassDef::build("E")
            .method_body("eval", [], TypeSig::Int, body)
            .done(),
    )?;
    vm.call("E", "eval", Value::Null, vec![])
}

#[test]
fn prop_bytecode_matches_rust_semantics() {
    for seed in 0..CASES {
        let e = expr(&mut SimRng::new(seed), 4);
        assert_eq!(
            run_expr(&e, true),
            Ok(Value::Int(e.eval())),
            "seed {seed}: {e:?}"
        );
    }
}

#[test]
fn prop_stubs_do_not_change_results() {
    for seed in 0..CASES {
        let e = expr(&mut SimRng::new(seed), 4);
        assert_eq!(
            run_expr(&e, true),
            run_expr(&e, false),
            "seed {seed}: {e:?}"
        );
    }
}

#[test]
fn prop_comparisons_match() {
    let mut vm = Vm::new(VmConfig::default());
    vm.register_class(
        ClassDef::build("C")
            .method("lt", [TypeSig::Int, TypeSig::Int], TypeSig::Bool, |m| {
                m.op(Op::Load(1)).op(Op::Load(2)).op(Op::Lt).op(Op::RetVal);
            })
            .method("ge", [TypeSig::Int, TypeSig::Int], TypeSig::Bool, |m| {
                m.op(Op::Load(1)).op(Op::Load(2)).op(Op::Ge).op(Op::RetVal);
            })
            .method("div", [TypeSig::Int, TypeSig::Int], TypeSig::Int, |m| {
                m.op(Op::Load(1)).op(Op::Load(2)).op(Op::Div).op(Op::RetVal);
            })
            .done(),
    )
    .unwrap();
    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let (a, b) = (rng.any_i64(), rng.any_i64());
        let args = || vec![a.into(), b.into()];
        let lt = vm.call("C", "lt", Value::Null, args());
        assert_eq!(lt, Ok(Value::Bool(a < b)), "seed {seed}: {a} < {b}");
        let ge = vm.call("C", "ge", Value::Null, args());
        assert_eq!(ge, Ok(Value::Bool(a >= b)), "seed {seed}: {a} >= {b}");
        let div = vm.call("C", "div", Value::Null, args());
        if b == 0 {
            assert!(div.is_err(), "seed {seed}: {a} / 0");
        } else {
            assert_eq!(
                div,
                Ok(Value::Int(a.wrapping_div(b))),
                "seed {seed}: {a} / {b}"
            );
        }
    }
}

#[test]
fn prop_shifts_mask_like_jvm() {
    let mut vm = Vm::new(VmConfig::default());
    vm.register_class(
        ClassDef::build("S")
            .method("shl", [TypeSig::Int, TypeSig::Int], TypeSig::Int, |m| {
                m.op(Op::Load(1)).op(Op::Load(2)).op(Op::Shl).op(Op::RetVal);
            })
            .done(),
    )
    .unwrap();
    for seed in 0..CASES {
        let mut rng = SimRng::new(seed);
        let (a, s) = (rng.any_i64(), rng.range_u64(200) as i64);
        let got = vm.call("S", "shl", Value::Null, vec![a.into(), s.into()]);
        assert_eq!(
            got,
            Ok(Value::Int(a.wrapping_shl(s as u32 & 63))),
            "seed {seed}: {a} << {s}"
        );
    }
}
