//! Hook-check hoisting for provably pure advice paths.
//!
//! Advice bodies always execute inside `begin_advice`, where the VM
//! suppresses join-point dispatch (`hooks_live()` is false while
//! `advice_depth > 0`). The per-call stub check is therefore pure
//! overhead for advice code — but the VM flag that elides it
//! (`Vm::hoist_hooks`) is only set for methods this analysis *proves*
//! could never need a hook even outside advice context, as a static
//! belt on top of the dynamic suppression:
//!
//! - no `Sys` ops (observable effects stay instrumentable);
//! - no `Throw` ops and no exception handlers (throw/catch join
//!   points stay live);
//! - field access only on the aspect instance itself (receiver proven
//!   [`AbsVal::SelfRef`] by the lattice);
//! - calls only to sibling methods that are themselves hoistable,
//!   computed as a greatest fixpoint (mutual recursion is fine).

use crate::lattice::{analyze_method, AbsVal};
use pmp_prose::{PortableClass, PortableMethod};
use pmp_vm::op::Op;
use std::collections::BTreeMap;

/// Returns the names of `class`'s methods whose hook checks may be
/// hoisted, in sorted order. A name shared by several methods is judged
/// by its first.
pub fn hoistable_methods(class: &PortableClass) -> Vec<String> {
    // Each method's own checks, once: the sibling methods it calls, or
    // no entry when it fails on its own.
    let mut seen = BTreeMap::new();
    for m in &class.methods {
        seen.entry(m.name.as_str())
            .or_insert_with(|| sibling_calls(class, m));
    }
    let mut candidates: BTreeMap<&str, Vec<&str>> = seen
        .into_iter()
        .filter_map(|(name, calls)| Some((name, calls?)))
        .collect();
    // Greatest fixpoint: drop every candidate that calls a non-candidate.
    loop {
        let demoted: Vec<&str> = candidates
            .iter()
            .filter(|(_, calls)| calls.iter().any(|c| !candidates.contains_key(c)))
            .map(|(name, _)| *name)
            .collect();
        if demoted.is_empty() {
            return candidates.into_keys().map(str::to_string).collect();
        }
        for d in demoted {
            candidates.remove(d);
        }
    }
}

/// The sibling methods `m` calls, or `None` when `m` cannot be hoisted
/// whatever its siblings are. A scan of the ops rules out handlers,
/// `Sys`, `Throw` and calls into other classes before the abstract
/// interpreter runs; the interpreter then proves each field access and
/// instance call lands on the aspect instance itself.
fn sibling_calls<'c>(class: &PortableClass, m: &'c PortableMethod) -> Option<Vec<&'c str>> {
    if !m.body.handlers.is_empty() {
        return None; // a catch would be a suppressed join point
    }
    let ruled_out = m.body.ops.iter().any(|op| match op {
        Op::Sys { .. } | Op::Throw(_) => true,
        Op::CallDirect { class: c, .. } | Op::CallStatic { class: c, .. } => *c != class.name,
        _ => false,
    });
    if ruled_out {
        return None;
    }
    let states = analyze_method(&m.body, m.params.len())?;
    // Receiver of an op popping `argc + 1` sits at stack[len - 1 - argc].
    let recv_is_self = |pc: usize, argc: usize| {
        states[pc].as_ref().is_some_and(|s| {
            s.stack
                .len()
                .checked_sub(argc + 1)
                .is_some_and(|i| s.stack[i] == AbsVal::SelfRef)
        })
    };
    let mut calls = Vec::new();
    for (pc, op) in m.body.ops.iter().enumerate() {
        let ok = match op {
            Op::GetField { .. } => recv_is_self(pc, 0),
            Op::PutField { .. } => recv_is_self(pc, 1),
            Op::CallV { method, argc } | Op::CallDirect { method, argc, .. } => {
                calls.push(method.as_str());
                recv_is_self(pc, *argc as usize)
            }
            Op::CallStatic { method, .. } => {
                calls.push(method.as_str());
                true
            }
            _ => true,
        };
        if !ok {
            return None;
        }
    }
    Some(calls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_vm::op::{BytecodeBody, Const, HandlerDef, Op};

    fn method(name: &str, ops: Vec<Op>) -> PortableMethod {
        PortableMethod {
            name: name.into(),
            params: vec![],
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
    fn pure_self_contained_methods_are_hoistable() {
        let c = class(vec![
            method(
                "m",
                vec![
                    Op::Load(0),
                    Op::GetField {
                        class: "A".into(),
                        field: "n".into(),
                    },
                    Op::RetVal,
                ],
            ),
            method("nop", vec![Op::Ret]),
        ]);
        assert_eq!(hoistable_methods(&c), vec!["m", "nop"]);
    }

    #[test]
    fn sys_ops_block_hoisting() {
        let c = class(vec![method(
            "m",
            vec![
                Op::Sys {
                    name: "print".into(),
                    argc: 0,
                },
                Op::Pop,
                Op::Ret,
            ],
        )]);
        assert!(hoistable_methods(&c).is_empty());
    }

    #[test]
    fn call_to_impure_sibling_demotes_transitively() {
        let c = class(vec![
            method(
                "m",
                vec![
                    Op::Load(0),
                    Op::CallV {
                        method: "noisy".into(),
                        argc: 0,
                    },
                    Op::Pop,
                    Op::Ret,
                ],
            ),
            method(
                "noisy",
                vec![
                    Op::Sys {
                        name: "print".into(),
                        argc: 0,
                    },
                    Op::Pop,
                    Op::Ret,
                ],
            ),
            method("quiet", vec![Op::Ret]),
        ]);
        assert_eq!(hoistable_methods(&c), vec!["quiet"]);
    }

    #[test]
    fn demotion_crosses_rounds_through_a_call_chain() {
        // `outer` is pure itself and calls `inner`, also pure itself,
        // which calls `noisy`: each drop lets the next one happen.
        let call = |callee: &str| {
            vec![
                Op::Load(0),
                Op::CallV {
                    method: callee.into(),
                    argc: 0,
                },
                Op::Pop,
                Op::Ret,
            ]
        };
        let c = class(vec![
            method("outer", call("inner")),
            method("inner", call("noisy")),
            method(
                "noisy",
                vec![
                    Op::Sys {
                        name: "print".into(),
                        argc: 0,
                    },
                    Op::Pop,
                    Op::Ret,
                ],
            ),
            method("quiet", call("quiet")),
        ]);
        assert_eq!(hoistable_methods(&c), vec!["quiet"]);
    }

    #[test]
    fn field_access_on_foreign_object_blocks_hoisting() {
        let c = class(vec![method(
            "m",
            vec![
                Op::New("B".into()),
                Op::GetField {
                    class: "B".into(),
                    field: "x".into(),
                },
                Op::RetVal,
            ],
        )]);
        assert!(hoistable_methods(&c).is_empty());
    }

    #[test]
    fn handlers_block_hoisting() {
        let mut m = method(
            "m",
            vec![Op::Const(Const::Int(1)), Op::Pop, Op::Ret, Op::Pop, Op::Ret],
        );
        m.body.handlers.push(HandlerDef {
            start: 0,
            end: 2,
            class: "*".into(),
            target: 3,
        });
        assert!(hoistable_methods(&class(vec![m])).is_empty());
    }
}
