//! Typed abstract-interpretation lattice for the weave-time optimizer.
//!
//! Each abstract value is one of three lattice points:
//!
//! ```text
//!            Any
//!          /     \
//!   Const(c)      SelfRef
//! ```
//!
//! `Const(c)` means "at run time this slot always holds exactly the
//! value of portable constant `c`"; `SelfRef` means "this slot always
//! holds the receiver (`this`)" — the fact class-hierarchy analysis
//! needs for devirtualisation, since advice classes are leaf classes;
//! `Any` is ⊤. The analysis runs the same worklist the stack-depth
//! verifier uses, so it agrees with admission on which pcs are
//! reachable and on merge points, and it computes the *entry* state
//! (abstract stack + locals) of every reachable pc.
//!
//! [`fold`] is the constant evaluator: it mirrors the interpreter's
//! exec semantics *exactly* (wrapping integer arithmetic, `Display`
//! formatting for `Concat`/`ToStr`, trim-then-parse for `ToInt`), and
//! refuses to fold anything whose concrete execution would throw
//! (division by zero, NaN ordering, type mismatches, unparseable
//! strings) — those ops must stay in the body so the exception still
//! fires at run time.

use pmp_vm::op::{BytecodeBody, Const, Op};

/// One point of the abstract-value lattice.
#[derive(Debug, Clone, PartialEq)]
pub enum AbsVal {
    /// Always exactly this constant.
    Const(Const),
    /// Always the receiver (`this`, local slot 0 at entry).
    SelfRef,
    /// Unknown (⊤).
    Any,
}

impl AbsVal {
    /// Least upper bound of two lattice points.
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        if self == other {
            self.clone()
        } else {
            AbsVal::Any
        }
    }

    /// The constant, if this point is one.
    pub fn as_const(&self) -> Option<&Const> {
        match self {
            AbsVal::Const(c) => Some(c),
            _ => None,
        }
    }
}

/// Abstract machine state at the entry of one pc.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsState {
    /// Abstract operand stack, bottom first.
    pub stack: Vec<AbsVal>,
    /// Abstract local slots (`0` = `this`).
    pub locals: Vec<AbsVal>,
}

impl AbsState {
    fn join_from(&mut self, other: &AbsState) -> Option<bool> {
        if self.stack.len() != other.stack.len() || self.locals.len() != other.locals.len() {
            return None; // depth disagreement — verifier rejects such bodies
        }
        let mut changed = false;
        for (a, b) in self
            .stack
            .iter_mut()
            .zip(&other.stack)
            .chain(self.locals.iter_mut().zip(&other.locals))
        {
            let j = a.join(b);
            if *a != j {
                *a = j;
                changed = true;
            }
        }
        Some(changed)
    }
}

/// Number of operands a *pure* (side-effect-free, non-throwing-on-fold)
/// op consumes, or `None` if the op is not a folding candidate.
pub fn pure_arity(op: &Op) -> Option<usize> {
    match op {
        Op::Add
        | Op::Sub
        | Op::Mul
        | Op::Div
        | Op::Rem
        | Op::Shl
        | Op::Shr
        | Op::BitAnd
        | Op::BitOr
        | Op::BitXor
        | Op::Eq
        | Op::Ne
        | Op::Lt
        | Op::Le
        | Op::Gt
        | Op::Ge
        | Op::Concat => Some(2),
        Op::Neg | Op::Not | Op::ToStr | Op::ToInt | Op::ToFloat => Some(1),
        _ => None,
    }
}

/// Evaluates a pure op over constant operands (`args` bottom-to-top),
/// mirroring the interpreter exactly. Returns `None` when the concrete
/// execution would throw or the operand types don't fit — the op is
/// left in place in that case.
#[allow(clippy::too_many_lines)]
pub fn fold(op: &Op, args: &[Const]) -> Option<Const> {
    use Const::{Bool, Float, Int, Str};
    let bin = || (args[0].clone(), args[1].clone());
    Some(match op {
        Op::Add => match bin() {
            (Int(a), Int(b)) => Int(a.wrapping_add(b)),
            (Float(a), Float(b)) => Float(a + b),
            _ => return None,
        },
        Op::Sub => match bin() {
            (Int(a), Int(b)) => Int(a.wrapping_sub(b)),
            (Float(a), Float(b)) => Float(a - b),
            _ => return None,
        },
        Op::Mul => match bin() {
            (Int(a), Int(b)) => Int(a.wrapping_mul(b)),
            (Float(a), Float(b)) => Float(a * b),
            _ => return None,
        },
        Op::Div => match bin() {
            (Int(_), Int(0)) => return None, // would throw ArithmeticException
            (Int(a), Int(b)) => Int(a.wrapping_div(b)),
            (Float(a), Float(b)) => Float(a / b),
            _ => return None,
        },
        Op::Rem => match bin() {
            (Int(_), Int(0)) => return None, // would throw ArithmeticException
            (Int(a), Int(b)) => Int(a.wrapping_rem(b)),
            (Float(a), Float(b)) => Float(a % b),
            _ => return None,
        },
        Op::Neg => match &args[0] {
            Int(i) => Int(i.wrapping_neg()),
            Float(f) => Float(-f),
            _ => return None,
        },
        Op::Shl => match bin() {
            (Int(a), Int(b)) => Int(a.wrapping_shl(b as u32 & 63)),
            _ => return None,
        },
        Op::Shr => match bin() {
            (Int(a), Int(b)) => Int(a.wrapping_shr(b as u32 & 63)),
            _ => return None,
        },
        Op::BitAnd => match bin() {
            (Int(a), Int(b)) => Int(a & b),
            _ => return None,
        },
        Op::BitOr => match bin() {
            (Int(a), Int(b)) => Int(a | b),
            _ => return None,
        },
        Op::BitXor => match bin() {
            (Int(a), Int(b)) => Int(a ^ b),
            _ => return None,
        },
        // Structural equality, exactly the interpreter's `a == b` on
        // `Value` (so `Int(1) != Float(1.0)` and `NaN != NaN`).
        Op::Eq => Bool(args[0].to_value() == args[1].to_value()),
        Op::Ne => Bool(args[0].to_value() != args[1].to_value()),
        Op::Lt | Op::Le | Op::Gt | Op::Ge => {
            let ord = match bin() {
                (Int(a), Int(b)) => a.cmp(&b),
                (Float(a), Float(b)) => a.partial_cmp(&b)?, // NaN: would throw
                (Str(a), Str(b)) => a.cmp(&b),
                _ => return None,
            };
            Bool(match op {
                Op::Lt => ord.is_lt(),
                Op::Le => ord.is_le(),
                Op::Gt => ord.is_gt(),
                _ => ord.is_ge(),
            })
        }
        Op::Not => match &args[0] {
            Bool(b) => Bool(!b),
            _ => return None,
        },
        Op::Concat => Str(format!("{}{}", args[0].to_value(), args[1].to_value())),
        Op::ToStr => Str(args[0].to_value().to_string()),
        Op::ToInt => match &args[0] {
            Int(i) => Int(*i),
            Float(f) => Int(*f as i64),
            Bool(b) => Int(i64::from(*b)),
            Str(s) => Int(s.trim().parse::<i64>().ok()?), // parse failure: would throw
            Const::Null => return None,
        },
        Op::ToFloat => match &args[0] {
            Int(i) => Float(*i as f64),
            Float(f) => Float(*f),
            Str(s) => Float(s.trim().parse::<f64>().ok()?),
            _ => return None, // the VM has no bool→float coercion
        },
        _ => return None,
    })
}

/// Applies one op to an abstract state, returning the fall-through
/// successor state (`None` on abstract underflow — a body the verifier
/// rejects anyway). Branch targets receive the same popped state.
fn transfer(op: &Op, state: &AbsState) -> Option<AbsState> {
    let mut s = state.clone();
    let popn = |s: &mut AbsState, n: usize| -> Option<Vec<AbsVal>> {
        if s.stack.len() < n {
            return None;
        }
        let at = s.stack.len() - n;
        Some(s.stack.split_off(at))
    };
    match op {
        Op::Const(c) => s.stack.push(AbsVal::Const(c.clone())),
        Op::Load(i) => {
            let v = s.locals.get(*i as usize)?.clone();
            s.stack.push(v);
        }
        Op::Store(i) => {
            let v = popn(&mut s, 1)?.pop()?;
            *s.locals.get_mut(*i as usize)? = v;
        }
        Op::Dup => {
            let v = s.stack.last()?.clone();
            s.stack.push(v);
        }
        Op::Swap => {
            let n = s.stack.len();
            if n < 2 {
                return None;
            }
            s.stack.swap(n - 1, n - 2);
        }
        pure if pure_arity(pure).is_some() => {
            // Pure value ops: pop operands, push the fold (or Any).
            let operands = popn(&mut s, pure_arity(pure)?)?;
            let consts: Option<Vec<Const>> =
                operands.iter().map(|v| v.as_const().cloned()).collect();
            let out = consts
                .and_then(|cs| fold(pure, &cs))
                .map_or(AbsVal::Any, AbsVal::Const);
            s.stack.push(out);
        }
        opaque => {
            // Everything else: pop operands, push unknowns.
            let (pops, pushes, _) = opaque.effect();
            popn(&mut s, pops as usize)?;
            s.stack
                .extend(std::iter::repeat_n(AbsVal::Any, pushes as usize));
        }
    }
    Some(s)
}

/// Runs the abstract interpretation over `body` and returns the entry
/// state of every pc (`None` for unreachable pcs), or `None` if the
/// body is malformed (abstract underflow / merge-depth disagreement —
/// cases the admission verifier rejects, so optimization just bails).
///
/// `params` is the declared parameter count; locals are laid out as
/// `this` + params + `extra_locals`, with `this` entering as
/// [`AbsVal::SelfRef`], params as [`AbsVal::Any`], and extra locals as
/// `Const(Null)` (the interpreter zero-initialises them to `null`).
pub fn analyze_method(body: &BytecodeBody, params: usize) -> Option<Vec<Option<AbsState>>> {
    let len = body.ops.len();
    let mut entry: Vec<Option<AbsState>> = vec![None; len];
    if len == 0 {
        return Some(entry);
    }

    let mut locals = vec![AbsVal::SelfRef];
    locals.extend(std::iter::repeat_n(AbsVal::Any, params));
    locals.extend(std::iter::repeat_n(
        AbsVal::Const(Const::Null),
        body.extra_locals as usize,
    ));
    entry[0] = Some(AbsState {
        stack: Vec::new(),
        locals,
    });

    let mut work = vec![0usize];
    // `merge` returns whether pc needs (re)processing; None = malformed.
    fn merge(entry: &mut [Option<AbsState>], pc: usize, state: &AbsState) -> Option<bool> {
        match &mut entry[pc] {
            Some(existing) => existing.join_from(state),
            slot @ None => {
                *slot = Some(state.clone());
                Some(true)
            }
        }
    }

    while let Some(pc) = work.pop() {
        let state = entry[pc].clone()?;
        let op = &body.ops[pc];
        let out = transfer(op, &state)?;
        for succ in crate::cfg::successors(op, pc) {
            if succ < len && merge(&mut entry, succ, &out)? {
                work.push(succ);
            }
        }
        // Arm handlers guarding this pc: their entry sees a cleared
        // stack holding the exception message (unknown string) and
        // whatever the locals held when the op faulted — ops never
        // mutate locals mid-fault, so the entry locals are exact.
        for h in &body.handlers {
            let t = h.target as usize;
            if t < len && (h.start as usize..h.end as usize).contains(&pc) {
                let hstate = AbsState {
                    stack: vec![AbsVal::Any],
                    locals: state.locals.clone(),
                };
                if merge(&mut entry, t, &hstate)? {
                    work.push(t);
                }
            }
        }
    }
    Some(entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(ops: Vec<Op>) -> BytecodeBody {
        BytecodeBody {
            extra_locals: 0,
            ops,
            handlers: vec![],
        }
    }

    #[test]
    fn fold_mirrors_wrapping_arithmetic() {
        assert_eq!(
            fold(&Op::Add, &[Const::Int(i64::MAX), Const::Int(1)]),
            Some(Const::Int(i64::MIN))
        );
        assert_eq!(
            fold(&Op::Mul, &[Const::Int(3), Const::Int(7)]),
            Some(Const::Int(21))
        );
    }

    #[test]
    fn fold_refuses_trapping_ops() {
        assert_eq!(fold(&Op::Div, &[Const::Int(1), Const::Int(0)]), None);
        assert_eq!(fold(&Op::Rem, &[Const::Int(1), Const::Int(0)]), None);
        assert_eq!(
            fold(&Op::Lt, &[Const::Float(f64::NAN), Const::Float(1.0)]),
            None
        );
        assert_eq!(fold(&Op::ToInt, &[Const::Str("zebra".into())]), None);
        assert_eq!(fold(&Op::Add, &[Const::Int(1), Const::Float(2.0)]), None);
        assert_eq!(fold(&Op::ToFloat, &[Const::Bool(true)]), None);
    }

    #[test]
    fn fold_concat_uses_display_formatting() {
        assert_eq!(
            fold(&Op::Concat, &[Const::Str("n=".into()), Const::Int(4)]),
            Some(Const::Str("n=4".into()))
        );
        assert_eq!(
            fold(&Op::ToStr, &[Const::Null]),
            Some(Const::Str("null".into()))
        );
    }

    #[test]
    fn fold_equality_is_structural() {
        assert_eq!(
            fold(&Op::Eq, &[Const::Int(1), Const::Float(1.0)]),
            Some(Const::Bool(false))
        );
        assert_eq!(
            fold(&Op::Eq, &[Const::Str("a".into()), Const::Str("a".into())]),
            Some(Const::Bool(true))
        );
    }

    #[test]
    fn entry_state_tracks_self_and_constants() {
        // this.load; const 2; const 3; add; retval
        let b = body(vec![
            Op::Load(0),
            Op::Const(Const::Int(2)),
            Op::Const(Const::Int(3)),
            Op::Add,
            Op::RetVal,
        ]);
        let states = analyze_method(&b, 0).unwrap();
        let at4 = states[4].as_ref().unwrap();
        assert_eq!(
            at4.stack,
            vec![AbsVal::SelfRef, AbsVal::Const(Const::Int(5))]
        );
    }

    #[test]
    fn join_of_distinct_constants_is_any() {
        // if-else pushing 1 or 2, merging at retval
        let b = body(vec![
            Op::Load(1),              // 0: param (Any bool)
            Op::JumpIf(4),            // 1
            Op::Const(Const::Int(1)), // 2
            Op::Jump(5),              // 3
            Op::Const(Const::Int(2)), // 4
            Op::RetVal,               // 5
        ]);
        let states = analyze_method(&b, 1).unwrap();
        let at5 = states[5].as_ref().unwrap();
        assert_eq!(at5.stack, vec![AbsVal::Any]);
    }

    #[test]
    fn extra_locals_enter_as_null_constants() {
        let b = BytecodeBody {
            extra_locals: 1,
            ops: vec![Op::Load(1), Op::RetVal],
            handlers: vec![],
        };
        let states = analyze_method(&b, 0).unwrap();
        let at1 = states[1].as_ref().unwrap();
        assert_eq!(at1.stack, vec![AbsVal::Const(Const::Null)]);
    }

    #[test]
    fn store_updates_abstract_local() {
        let b = BytecodeBody {
            extra_locals: 1,
            ops: vec![
                Op::Const(Const::Int(9)),
                Op::Store(1),
                Op::Load(1),
                Op::RetVal,
            ],
            handlers: vec![],
        };
        let states = analyze_method(&b, 0).unwrap();
        let at3 = states[3].as_ref().unwrap();
        assert_eq!(at3.stack, vec![AbsVal::Const(Const::Int(9))]);
    }
}
