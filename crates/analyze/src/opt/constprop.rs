//! Intra- and interprocedural constant propagation and folding.
//!
//! Works block-locally over a *provenance stack*: each simulated stack
//! slot remembers which in-block pc produced it and whether that
//! producer is removable (a `Const`, or a side-effect-free `Load`).
//! When every operand of a pure op is a known constant produced in the
//! same block, the operands' producers become `Nop` and the op itself
//! is rewritten to push the folded constant — [`crate::lattice::fold`]
//! mirrors the interpreter exactly and refuses any fold whose concrete
//! execution would throw, so observable behaviour is unchanged.
//!
//! The interprocedural half: a sibling method with a *constant
//! summary* — an acyclic body of provably non-throwing ops whose every
//! return yields the same constant, regardless of arguments — can be
//! called away entirely. A `CallStatic`/`CallDirect` to such a method
//! whose arguments (and, for `CallDirect`, a provably-`this` receiver)
//! were produced in-block by removable ops is replaced with the
//! summary constant. This is sound *for advice code specifically*
//! because advice executes under `begin_advice`, where method-entry /
//! method-exit hooks are suppressed — eliding the call cannot elide an
//! observable join point.
//!
//! Constant `JumpIf`/`JumpIfNot` conditions fold to `Jump` or `Nop`,
//! turning statically-dead branch arms unreachable for the DCE pass.

use crate::cfg::Cfg;
use crate::lattice::{analyze_method, fold, pure_arity};
use pmp_prose::PortableClass;
use pmp_vm::op::{Const, Op};
use std::collections::BTreeMap;

/// What one pass of constant propagation rewrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConstpropStats {
    /// Pure ops folded to constants.
    pub folded: usize,
    /// Conditional branches with constant conditions resolved.
    pub branches: usize,
    /// Calls to constant-summary siblings eliminated.
    pub calls: usize,
}

impl ConstpropStats {
    /// Whether the pass changed anything (directly or by Nop-ing).
    pub fn any(&self, nops: usize) -> bool {
        self.folded + self.branches + self.calls + nops > 0
    }
}

/// One simulated stack slot with provenance.
#[derive(Debug, Clone)]
enum Slot {
    /// Produced in this block at `pc` by an op that can be deleted
    /// without observable effect (`Const`, folded const, or `Load`).
    Removable {
        pc: usize,
        konst: Option<Const>,
        self_ref: bool,
    },
    /// Anything else (block-entry values, call results, field reads…).
    Opaque,
}

impl Slot {
    fn konst(&self) -> Option<&Const> {
        match self {
            Slot::Removable { konst, .. } => konst.as_ref(),
            Slot::Opaque => None,
        }
    }
}

/// Computes the constant summary of `method`: `Some(c)` iff every
/// execution, for *any* arguments, terminates normally returning
/// exactly `c` with no observable side effect. Requirements:
///
/// - only stack-shuffling ops, `Load`/`Store`, control flow, and pure
///   ops whose operands the lattice proves constant (so the fold is
///   known not to throw);
/// - conditional branches only on constant booleans;
/// - forward jumps only (acyclic ⇒ guaranteed termination — removing
///   a call must not remove a potential fuel-exhaustion loop);
/// - every `RetVal` returns the same constant; `Ret` counts as `null`.
fn constant_summary(method: &pmp_prose::PortableMethod) -> Option<Const> {
    let body = &method.body;
    let states = analyze_method(body, method.params.len())?;
    let mut ret: Option<Const> = None;
    let mut saw_ret = false;
    for (pc, op) in body.ops.iter().enumerate() {
        let Some(state) = states[pc].as_ref() else {
            continue; // unreachable
        };
        match op {
            Op::Const(_) | Op::Dup | Op::Pop | Op::Swap | Op::Nop => {}
            Op::Load(i) | Op::Store(i) => {
                if *i as usize >= state.locals.len() {
                    return None;
                }
            }
            Op::Jump(t) => {
                if *t as usize <= pc {
                    return None; // back edge: possible non-termination
                }
            }
            Op::JumpIf(t) | Op::JumpIfNot(t) => {
                if *t as usize <= pc {
                    return None;
                }
                match state.stack.last()?.as_const() {
                    Some(Const::Bool(_)) => {}
                    _ => return None, // unknown or non-bool: could throw
                }
            }
            Op::Ret => {
                let c = Const::Null;
                if *ret.get_or_insert_with(|| c.clone()) != c {
                    return None;
                }
                saw_ret = true;
            }
            Op::RetVal => {
                let c = state.stack.last()?.as_const()?.clone();
                if *ret.get_or_insert_with(|| c.clone()) != c {
                    return None;
                }
                saw_ret = true;
            }
            pure if pure_arity(pure).is_some() => {
                let n = pure_arity(pure).unwrap();
                if state.stack.len() < n {
                    return None;
                }
                let consts: Option<Vec<Const>> = state.stack[state.stack.len() - n..]
                    .iter()
                    .map(|v| v.as_const().cloned())
                    .collect();
                fold(pure, &consts?)?; // must provably not throw
            }
            _ => return None, // calls, sys, fields, allocation, throw
        }
    }
    if saw_ret {
        ret
    } else {
        None
    }
}

/// Constant summaries for every summarisable method of `class`, plus
/// arities, keyed by method name.
pub(crate) fn summaries(class: &PortableClass) -> BTreeMap<String, (usize, Const)> {
    class
        .methods
        .iter()
        .filter_map(|m| constant_summary(m).map(|c| (m.name.clone(), (m.params.len(), c))))
        .collect()
}

/// Runs one constant-propagation pass over `class.methods[midx]`.
/// Returns the rewrite stats and the number of ops turned into `Nop`
/// (producers of folded constants, eliminated pops, dead branches).
pub fn propagate(
    class: &mut PortableClass,
    midx: usize,
    summaries: &BTreeMap<String, (usize, Const)>,
) -> (ConstpropStats, usize) {
    let params = class.methods[midx].params.len();
    let class_name = class.name.clone();
    let method_name = class.methods[midx].name.clone();
    let Some(states) = analyze_method(&class.methods[midx].body, params) else {
        return (ConstpropStats::default(), 0);
    };
    let cfg = Cfg::build(&class.methods[midx].body);
    let body = &mut class.methods[midx].body;

    let mut stats = ConstpropStats::default();
    let mut nops = 0usize;
    let nop = |ops: &mut Vec<Op>, pc: usize, nops: &mut usize| {
        if ops[pc] != Op::Nop {
            ops[pc] = Op::Nop;
            *nops += 1;
        }
    };

    for block in &cfg.blocks {
        let Some(entry) = states[block.start].as_ref() else {
            continue; // unreachable block
        };
        let mut sim: Vec<Slot> = vec![Slot::Opaque; entry.stack.len()];

        'ops: for pc in block.start..block.end {
            let op = body.ops[pc].clone();
            match &op {
                Op::Const(c) => sim.push(Slot::Removable {
                    pc,
                    konst: Some(c.clone()),
                    self_ref: false,
                }),
                Op::Load(i) => sim.push(Slot::Removable {
                    pc,
                    konst: None,
                    self_ref: *i == 0,
                }),
                Op::Store(_) => {
                    if sim.pop().is_none() {
                        break 'ops;
                    }
                }
                Op::Dup => {
                    match sim.last() {
                        Some(s) if s.konst().is_some() => {
                            let c = s.konst().unwrap().clone();
                            body.ops[pc] = Op::Const(c.clone());
                            stats.folded += 1;
                            sim.push(Slot::Removable {
                                pc,
                                konst: Some(c),
                                self_ref: false,
                            });
                        }
                        Some(_) => {
                            // Two slots now share one producer; neither
                            // may claim the right to delete it.
                            let n = sim.len();
                            sim[n - 1] = Slot::Opaque;
                            sim.push(Slot::Opaque);
                        }
                        None => break 'ops,
                    }
                }
                Op::Pop => match sim.pop() {
                    Some(Slot::Removable { pc: ppc, .. }) => {
                        // Dead push-pop pair: delete both.
                        nop(&mut body.ops, ppc, &mut nops);
                        nop(&mut body.ops, pc, &mut nops);
                    }
                    Some(Slot::Opaque) => {}
                    None => break 'ops,
                },
                Op::Swap => {
                    // The `Swap` stays in the body, so deleting either
                    // producer would leave it short of an operand: like
                    // a shared `Dup`, it ends both slots' removability.
                    let n = sim.len();
                    if n < 2 {
                        break 'ops;
                    }
                    sim[n - 2..].fill(Slot::Opaque);
                }
                Op::Jump(_) | Op::Ret | Op::Nop => {}
                Op::RetVal | Op::Throw(_) => {
                    sim.pop();
                }
                Op::JumpIf(t) | Op::JumpIfNot(t) => {
                    let taken_if = matches!(op, Op::JumpIf(_));
                    match sim.pop() {
                        Some(Slot::Removable {
                            pc: ppc,
                            konst: Some(Const::Bool(b)),
                            ..
                        }) => {
                            nop(&mut body.ops, ppc, &mut nops);
                            body.ops[pc] = if b == taken_if {
                                Op::Jump(*t)
                            } else {
                                Op::Nop
                            };
                            if body.ops[pc] == Op::Nop {
                                nops += 1;
                            }
                            stats.branches += 1;
                        }
                        Some(_) => {} // unknown or non-bool condition
                        None => break 'ops,
                    }
                }
                Op::CallStatic {
                    class: cname,
                    method,
                    argc,
                } if *cname == class_name => {
                    let n = *argc as usize;
                    if let Some((arity, c)) = summaries.get(method) {
                        // Never summarise away a self-recursive frame.
                        if *arity == n && *method != method_name && removable(&sim, n, false) {
                            for _ in 0..n {
                                if let Some(Slot::Removable { pc: ppc, .. }) = sim.pop() {
                                    nop(&mut body.ops, ppc, &mut nops);
                                }
                            }
                            body.ops[pc] = Op::Const(c.clone());
                            stats.calls += 1;
                            sim.push(Slot::Removable {
                                pc,
                                konst: Some(c.clone()),
                                self_ref: false,
                            });
                            continue 'ops;
                        }
                    }
                    if !pop_push(&mut sim, n, 1) {
                        break 'ops;
                    }
                }
                Op::CallDirect {
                    class: cname,
                    method,
                    argc,
                } if *cname == class_name => {
                    let n = *argc as usize;
                    if let Some((arity, c)) = summaries.get(method) {
                        // Receiver must be provably `this` (non-null).
                        if *arity == n && *method != method_name && removable(&sim, n + 1, true) {
                            for _ in 0..=n {
                                if let Some(Slot::Removable { pc: ppc, .. }) = sim.pop() {
                                    nop(&mut body.ops, ppc, &mut nops);
                                }
                            }
                            body.ops[pc] = Op::Const(c.clone());
                            stats.calls += 1;
                            sim.push(Slot::Removable {
                                pc,
                                konst: Some(c.clone()),
                                self_ref: false,
                            });
                            continue 'ops;
                        }
                    }
                    if !pop_push(&mut sim, n + 1, 1) {
                        break 'ops;
                    }
                }
                pure if pure_arity(pure).is_some() => {
                    let n = pure_arity(pure).unwrap();
                    if sim.len() < n {
                        break 'ops;
                    }
                    let consts: Option<Vec<Const>> = sim[sim.len() - n..]
                        .iter()
                        .map(|s| s.konst().cloned())
                        .collect();
                    let folded = consts.and_then(|cs| fold(pure, &cs));
                    if let Some(c) = folded {
                        for _ in 0..n {
                            if let Some(Slot::Removable { pc: ppc, .. }) = sim.pop() {
                                nop(&mut body.ops, ppc, &mut nops);
                            }
                        }
                        body.ops[pc] = Op::Const(c.clone());
                        stats.folded += 1;
                        sim.push(Slot::Removable {
                            pc,
                            konst: Some(c),
                            self_ref: false,
                        });
                    } else if !pop_push(&mut sim, n, 1) {
                        break 'ops;
                    }
                }
                other => {
                    let (pops, pushes, _) = other.effect();
                    if !pop_push(&mut sim, pops as usize, pushes as usize) {
                        break 'ops;
                    }
                }
            }
        }
    }
    (stats, nops)
}

/// Whether the top `n` slots are all removable — and, if `need_self`,
/// the bottom of those (the receiver) is provably `this`.
fn removable(sim: &[Slot], n: usize, need_self: bool) -> bool {
    if sim.len() < n {
        return false;
    }
    let top = &sim[sim.len() - n..];
    if !top.iter().all(|s| matches!(s, Slot::Removable { .. })) {
        return false;
    }
    !need_self
        || matches!(
            top.first(),
            Some(Slot::Removable { self_ref: true, .. })
        )
}

fn pop_push(sim: &mut Vec<Slot>, pops: usize, pushes: usize) -> bool {
    if sim.len() < pops {
        return false;
    }
    sim.truncate(sim.len() - pops);
    sim.extend(std::iter::repeat_with(|| Slot::Opaque).take(pushes));
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_prose::PortableMethod;
    use pmp_vm::op::BytecodeBody;

    fn method(name: &str, nparams: usize, ops: Vec<Op>) -> PortableMethod {
        PortableMethod {
            name: name.into(),
            params: vec!["any".into(); nparams],
            ret: "any".into(),
            body: BytecodeBody {
                extra_locals: 0,
                ops,
                handlers: vec![],
            },
        }
    }

    fn class(methods: Vec<PortableMethod>) -> PortableClass {
        PortableClass {
            name: "A".into(),
            fields: vec![],
            methods,
        }
    }

    #[test]
    fn folds_constant_arithmetic_chain() {
        let mut c = class(vec![method(
            "m",
            0,
            vec![
                Op::Const(Const::Int(2)),
                Op::Const(Const::Int(3)),
                Op::Add,
                Op::Const(Const::Int(10)),
                Op::Mul,
                Op::RetVal,
            ],
        )]);
        let (stats, nops) = propagate(&mut c, 0, &BTreeMap::new());
        assert_eq!(stats.folded, 2);
        assert!(nops >= 3);
        assert_eq!(c.methods[0].body.ops[4], Op::Const(Const::Int(50)));
        assert_eq!(c.methods[0].body.ops[5], Op::RetVal);
    }

    #[test]
    fn folds_constant_branch_to_jump() {
        let mut c = class(vec![method(
            "m",
            0,
            vec![
                Op::Const(Const::Bool(true)), // 0
                Op::JumpIf(4),                // 1
                Op::Const(Const::Int(0)),     // 2 (dead)
                Op::RetVal,                   // 3
                Op::Const(Const::Int(1)),     // 4
                Op::RetVal,                   // 5
            ],
        )]);
        let (stats, _) = propagate(&mut c, 0, &BTreeMap::new());
        assert_eq!(stats.branches, 1);
        assert_eq!(c.methods[0].body.ops[0], Op::Nop);
        assert_eq!(c.methods[0].body.ops[1], Op::Jump(4));
    }

    #[test]
    fn does_not_fold_division_by_zero() {
        let mut c = class(vec![method(
            "m",
            0,
            vec![
                Op::Const(Const::Int(1)),
                Op::Const(Const::Int(0)),
                Op::Div,
                Op::RetVal,
            ],
        )]);
        let (stats, nops) = propagate(&mut c, 0, &BTreeMap::new());
        assert_eq!((stats.folded, nops), (0, 0));
        assert_eq!(c.methods[0].body.ops[2], Op::Div);
    }

    #[test]
    fn removes_dead_push_pop_pair() {
        let mut c = class(vec![method(
            "m",
            0,
            vec![Op::Load(0), Op::Pop, Op::Ret],
        )]);
        let (_, nops) = propagate(&mut c, 0, &BTreeMap::new());
        assert_eq!(nops, 2);
        assert_eq!(c.methods[0].body.ops[0], Op::Nop);
        assert_eq!(c.methods[0].body.ops[1], Op::Nop);
    }

    #[test]
    fn constant_summary_accepts_straightline_constants() {
        let m = method(
            "k",
            2,
            vec![Op::Const(Const::Int(7)), Op::RetVal],
        );
        assert_eq!(constant_summary(&m), Some(Const::Int(7)));
    }

    #[test]
    fn constant_summary_rejects_argument_dependence_and_effects() {
        assert_eq!(
            constant_summary(&method("a", 1, vec![Op::Load(1), Op::RetVal])),
            None
        );
        assert_eq!(
            constant_summary(&method(
                "b",
                0,
                vec![
                    Op::Sys {
                        name: "print".into(),
                        argc: 0
                    },
                    Op::RetVal
                ]
            )),
            None
        );
        // Back edge: could loop forever under low fuel.
        assert_eq!(
            constant_summary(&method("c", 0, vec![Op::Jump(0)])),
            None
        );
    }

    #[test]
    fn summarised_sibling_call_is_eliminated() {
        let mut c = class(vec![
            method(
                "onCall",
                0,
                vec![
                    Op::Load(0),
                    Op::Const(Const::Int(1)),
                    Op::CallDirect {
                        class: "A".into(),
                        method: "k".into(),
                        argc: 1,
                    },
                    Op::RetVal,
                ],
            ),
            method("k", 1, vec![Op::Const(Const::Int(7)), Op::RetVal]),
        ]);
        let sums = summaries(&c);
        assert_eq!(sums.get("k"), Some(&(1, Const::Int(7))));
        let (stats, _) = propagate(&mut c, 0, &sums);
        assert_eq!(stats.calls, 1);
        assert_eq!(c.methods[0].body.ops[0], Op::Nop);
        assert_eq!(c.methods[0].body.ops[1], Op::Nop);
        assert_eq!(c.methods[0].body.ops[2], Op::Const(Const::Int(7)));
    }

    #[test]
    fn call_with_opaque_receiver_is_kept() {
        // Receiver comes from a field read — could be null; the call
        // (and its potential NullPointerException) must survive.
        let mut c = class(vec![
            method(
                "onCall",
                0,
                vec![
                    Op::Load(0),
                    Op::GetField {
                        class: "A".into(),
                        field: "peer".into(),
                    },
                    Op::CallDirect {
                        class: "A".into(),
                        method: "k".into(),
                        argc: 0,
                    },
                    Op::RetVal,
                ],
            ),
            method("k", 0, vec![Op::Const(Const::Int(7)), Op::RetVal]),
        ]);
        let sums = summaries(&c);
        let (stats, _) = propagate(&mut c, 0, &sums);
        assert_eq!(stats.calls, 0);
        assert!(matches!(c.methods[0].body.ops[2], Op::CallDirect { .. }));
    }
}
