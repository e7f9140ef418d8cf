//! Pass 1 — the abstract-interpretation bytecode verifier.
//!
//! Plays the role of the JVM's built-in verifier for our portable
//! bytecode: a worklist dataflow over the instructions of each shipped
//! method, tracking the one abstract fact the interpreter's safety
//! depends on — the operand-stack depth at every pc. The pass checks:
//!
//! * stack underflow and overflow at every instruction,
//! * jump targets in bounds, at every instruction whether reached or
//!   not (the rule [`Op::wild_target`] states for the JIT too),
//! * a single consistent stack depth at every merge point (the
//!   interpreter has no per-path stacks, so disagreeing depths mean
//!   one path underflows or leaks),
//! * `Load`/`Store` slots within `this + params + extra_locals`,
//! * call-arity consistency for calls that resolve within the shipped
//!   class itself,
//! * no fall-through past the last instruction (the interpreter treats
//!   it as an implicit `Ret`, but shipped code relying on that is
//!   almost always a mis-assembled body),
//! * exception-handler ranges and targets in bounds (handler entry
//!   starts with the exception message as the only stack slot).
//!
//! Types are *not* tracked: a depth-safe program may still raise a
//! `TypeException` at run time, which the sandbox converts into an
//! ordinary advice fault. Depth safety is what keeps the interpreter's
//! own invariants intact.

use crate::{AnalyzeOptions, Finding, Pass, Severity};
use pmp_prose::{PortableClass, PortableMethod};
use pmp_vm::op::{BytecodeBody, Flow, Op};

/// Verifies every method of a shipped class, including the cross-method
/// arity checks for calls that resolve within the class itself.
pub fn verify_class(class: &PortableClass, opts: &AnalyzeOptions) -> Vec<Finding> {
    let mut findings = Vec::new();
    for m in &class.methods {
        findings.extend(verify_method(m, opts));
        findings.extend(check_arity(class, m));
    }
    findings
}

/// Verifies one method body: the dataflow pass proper.
pub fn verify_method(method: &PortableMethod, opts: &AnalyzeOptions) -> Vec<Finding> {
    verify_body(&method.name, method.params.len(), &method.body, opts)
}

/// Verifies a raw body given its parameter count (`nlocals` is
/// `1 (this) + params + extra_locals`, matching the JIT).
pub fn verify_body(
    method: &str,
    params: usize,
    body: &BytecodeBody,
    opts: &AnalyzeOptions,
) -> Vec<Finding> {
    let err = |pc, msg: String| Finding::new(Severity::Error, Pass::Bytecode, method, pc, msg);
    let len = body.ops.len();
    let mut findings = Vec::new();

    if len == 0 {
        findings.push(err(None, "empty body: execution falls off the end".into()));
        return findings;
    }

    // Handler table sanity (mirrors the JIT's own checks, but at
    // admission time instead of first invocation).
    let mut handler_entries = Vec::new();
    for (i, h) in body.handlers.iter().enumerate() {
        if h.start > h.end || h.end as usize > len || h.target as usize >= len {
            findings.push(err(
                None,
                format!(
                    "handler {i} malformed: [{}, {}) target {} (method length {len})",
                    h.start, h.end, h.target
                ),
            ));
        } else {
            handler_entries.push(h.target as usize);
        }
    }

    // Every jump target must land in the body, reached or not: the
    // JIT applies the same rule to every op and refuses the whole
    // method at its first call otherwise.
    for (pc, op) in body.ops.iter().enumerate() {
        if let Some(t) = op.wild_target(len) {
            findings.push(err(Some(pc), format!("jump target {t} out of range")));
        }
    }

    let nlocals = 1 + params + body.extra_locals as usize;

    // Worklist dataflow: `depth[pc]` is the single stack depth every
    // path must agree on when reaching `pc`.
    let mut depth: Vec<Option<u32>> = vec![None; len];
    let mut work: Vec<(usize, u32)> = vec![(0, 0)];
    // The interpreter clears the stack and pushes the exception message
    // before entering a handler, so handler entry depth is always 1.
    work.extend(handler_entries.iter().map(|&t| (t, 1)));

    while let Some((pc, d)) = work.pop() {
        match depth[pc] {
            Some(prev) if prev == d => continue,
            Some(prev) => {
                findings.push(err(
                    Some(pc),
                    format!("inconsistent stack depth at merge point: {prev} vs {d}"),
                ));
                continue;
            }
            None => depth[pc] = Some(d),
        }
        let op = &body.ops[pc];
        let (pops, pushes, flow) = op.effect();
        if d < pops {
            findings.push(err(
                Some(pc),
                format!("operand stack underflow: depth {d}, {op:?} pops {pops}"),
            ));
            continue; // don't propagate a bogus depth past the fault
        }
        let nd = d - pops + pushes;
        if nd as usize > opts.max_stack {
            findings.push(err(
                Some(pc),
                format!("operand stack overflow: depth {nd} exceeds limit {}", opts.max_stack),
            ));
            continue;
        }
        if let Op::Load(slot) | Op::Store(slot) = op {
            if usize::from(*slot) >= nlocals {
                findings.push(err(
                    Some(pc),
                    format!("local slot {slot} out of range (method has {nlocals} slots)"),
                ));
            }
        }
        // Successors: `(target, via_jump)`. A wild jump target was
        // reported above; a fall-through past the end is reported here.
        let mut succs: Vec<(usize, bool)> = Vec::with_capacity(2);
        match flow {
            Flow::Next => succs.push((pc + 1, false)),
            Flow::Jump(t) => succs.push((t as usize, true)),
            Flow::Branch(t) => {
                succs.push((t as usize, true));
                succs.push((pc + 1, false));
            }
            Flow::Exit => {}
        }
        for (succ, via_jump) in succs {
            if succ < len {
                work.push((succ, nd));
            } else if !via_jump {
                findings.push(err(
                    Some(pc),
                    "execution falls off the end of the method".into(),
                ));
            }
        }
    }

    // Dead code is not unsafe, but it usually means a mis-assembled
    // body; surface it below the rejection threshold.
    let unreachable: Vec<usize> = (0..len).filter(|&pc| depth[pc].is_none()).collect();
    if let Some(&first) = unreachable.first() {
        findings.push(Finding::new(
            Severity::Info,
            Pass::Bytecode,
            method,
            Some(first),
            format!("{} unreachable instruction(s)", unreachable.len()),
        ));
    }

    findings
}

/// Arity consistency for calls that resolve within the shipped class:
/// a `CallStatic` naming the class itself must hit an existing sibling
/// method with matching arity; a `CallV` whose method name exists on
/// the class is checked advisorily (dynamic dispatch may land
/// elsewhere).
fn check_arity(class: &PortableClass, method: &PortableMethod) -> Vec<Finding> {
    let mut findings = Vec::new();
    let sibling = |name: &str| class.methods.iter().find(|m| m.name == name);
    for (pc, op) in method.body.ops.iter().enumerate() {
        match op {
            Op::CallStatic {
                class: cname,
                method: mname,
                argc,
            } if *cname == class.name => match sibling(mname) {
                None => findings.push(Finding::new(
                    Severity::Error,
                    Pass::Bytecode,
                    &method.name,
                    Some(pc),
                    format!("static call to unknown method {cname}.{mname}"),
                )),
                Some(target) if target.params.len() != usize::from(*argc) => {
                    findings.push(Finding::new(
                        Severity::Error,
                        Pass::Bytecode,
                        &method.name,
                        Some(pc),
                        format!(
                            "static call to {cname}.{mname} passes {argc} args, method takes {}",
                            target.params.len()
                        ),
                    ));
                }
                Some(_) => {}
            },
            Op::CallV {
                method: mname,
                argc,
            } => {
                if let Some(target) = sibling(mname) {
                    if target.params.len() != usize::from(*argc) {
                        findings.push(Finding::new(
                            Severity::Warning,
                            Pass::Bytecode,
                            &method.name,
                            Some(pc),
                            format!(
                                "virtual call to {mname} passes {argc} args, but {}.{mname} takes {}",
                                class.name,
                                target.params.len()
                            ),
                        ));
                    }
                }
            }
            // A devirtualised call naming the shipped class must hit an
            // existing sibling with matching arity — same rule as
            // `CallStatic`, since its dispatch is equally static.
            Op::CallDirect {
                class: cname,
                method: mname,
                argc,
            } if *cname == class.name => match sibling(mname) {
                None => findings.push(Finding::new(
                    Severity::Error,
                    Pass::Bytecode,
                    &method.name,
                    Some(pc),
                    format!("direct call to unknown method {cname}.{mname}"),
                )),
                Some(target) if target.params.len() != usize::from(*argc) => {
                    findings.push(Finding::new(
                        Severity::Error,
                        Pass::Bytecode,
                        &method.name,
                        Some(pc),
                        format!(
                            "direct call to {cname}.{mname} passes {argc} args, method takes {}",
                            target.params.len()
                        ),
                    ));
                }
                Some(_) => {}
            },
            _ => {}
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_vm::builder::MethodBuilder;
    use pmp_vm::op::{Const, HandlerDef};

    fn body(ops: Vec<Op>) -> BytecodeBody {
        BytecodeBody {
            extra_locals: 0,
            ops,
            handlers: vec![],
        }
    }

    fn errors(findings: &[Finding]) -> Vec<&Finding> {
        findings.iter().filter(|f| f.severity == Severity::Error).collect()
    }

    #[test]
    fn balanced_body_is_clean() {
        let b = body(vec![
            Op::Const(Const::Int(1)),
            Op::Const(Const::Int(2)),
            Op::Add,
            Op::RetVal,
        ]);
        let f = verify_body("m", 0, &b, &AnalyzeOptions::default());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn underflow_is_reported_at_the_faulting_pc() {
        let b = body(vec![Op::Pop, Op::Ret]);
        let f = verify_body("m", 0, &b, &AnalyzeOptions::default());
        let e = errors(&f);
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].pc, Some(0));
        assert!(e[0].message.contains("underflow"));
    }

    #[test]
    fn jump_out_of_bounds_is_an_error() {
        let b = body(vec![Op::Jump(99)]);
        let f = verify_body("m", 0, &b, &AnalyzeOptions::default());
        assert!(errors(&f)[0].message.contains("out of range"));
    }

    #[test]
    fn a_wild_jump_in_dead_code_is_an_error() {
        // pc 1 is unreachable, but the JIT resolves it at the first
        // call and refuses the method: the gate must refuse it first.
        let b = body(vec![Op::Jump(2), Op::Jump(9), Op::Ret]);
        let f = verify_body("m", 0, &b, &AnalyzeOptions::default());
        let e = errors(&f);
        assert_eq!(e.len(), 1, "{f:?}");
        assert_eq!(e[0].pc, Some(1));
        assert!(e[0].message.contains("jump target 9 out of range"), "{f:?}");
    }

    #[test]
    fn fall_through_past_last_instruction_is_an_error() {
        let b = body(vec![Op::Const(Const::Int(1)), Op::Pop]);
        let f = verify_body("m", 0, &b, &AnalyzeOptions::default());
        assert!(errors(&f)[0].message.contains("falls off the end"));
    }

    #[test]
    fn empty_body_is_an_error() {
        let b = body(vec![]);
        let f = verify_body("m", 0, &b, &AnalyzeOptions::default());
        assert!(errors(&f)[0].message.contains("empty body"));
    }

    #[test]
    fn merge_points_must_agree_on_depth() {
        // if (local1) { push 1 } else { } ; ret — one arm leaks a slot.
        let b = body(vec![
            Op::Load(1),             // 0
            Op::JumpIfNot(3),        // 1: false → 3
            Op::Const(Const::Int(7)), // 2: depth 1 at 3
            Op::Ret,                 // 3: reached with depth 0 and 1
        ]);
        let f = verify_body("m", 1, &b, &AnalyzeOptions::default());
        assert!(errors(&f)
            .iter()
            .any(|e| e.message.contains("inconsistent stack depth")));
    }

    #[test]
    fn local_slot_bounds_respect_params_and_extras() {
        let b = BytecodeBody {
            extra_locals: 1,
            // 0 = this, 1..=2 params, 3 extra → slot 4 is out of range.
            ops: vec![Op::Load(4), Op::Pop, Op::Ret],
            handlers: vec![],
        };
        let f = verify_body("m", 2, &b, &AnalyzeOptions::default());
        assert!(errors(&f)[0].message.contains("local slot 4"));
        let ok = BytecodeBody {
            extra_locals: 1,
            ops: vec![Op::Load(3), Op::Pop, Op::Ret],
            handlers: vec![],
        };
        assert!(verify_body("m", 2, &ok, &AnalyzeOptions::default()).is_empty());
    }

    #[test]
    fn loops_verify_when_depth_is_stable() {
        // i = 0; while (i < 3) i += 1; ret
        let mut b = MethodBuilder::new();
        b.locals(1);
        let top = b.label();
        let done = b.label();
        b.konst(0i64).op(Op::Store(1));
        b.bind(top);
        b.op(Op::Load(1)).konst(3i64).op(Op::Lt);
        b.jump_if_not(done);
        b.op(Op::Load(1)).konst(1i64).op(Op::Add).op(Op::Store(1));
        b.jump(top);
        b.bind(done);
        b.op(Op::Ret);
        let f = verify_body("m", 0, &b.build(), &AnalyzeOptions::default());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn stack_overflow_is_detected() {
        // Dup forever within a loop would need a back-edge; simplest
        // overflow: a tiny max_stack with straight-line pushes.
        let b = body(vec![
            Op::Const(Const::Int(1)),
            Op::Dup,
            Op::Dup,
            Op::Dup,
            Op::Ret,
        ]);
        let opts = AnalyzeOptions {
            max_stack: 2,
            ..AnalyzeOptions::default()
        };
        let f = verify_body("m", 0, &b, &opts);
        assert!(errors(&f)[0].message.contains("overflow"));
    }

    #[test]
    fn handler_entry_has_depth_one() {
        // try { throw } catch { pop message; ret }
        let b = BytecodeBody {
            extra_locals: 0,
            ops: vec![
                Op::Const(Const::Str("boom".into())), // 0
                Op::Throw("E".into()),                // 1
                Op::Pop,                              // 2: handler target
                Op::Ret,                              // 3
            ],
            handlers: vec![HandlerDef {
                start: 0,
                end: 2,
                class: "*".into(),
                target: 2,
            }],
        };
        let f = verify_body("m", 0, &b, &AnalyzeOptions::default());
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn malformed_handler_is_an_error() {
        let b = BytecodeBody {
            extra_locals: 0,
            ops: vec![Op::Ret],
            handlers: vec![HandlerDef {
                start: 0,
                end: 5,
                class: "*".into(),
                target: 0,
            }],
        };
        let f = verify_body("m", 0, &b, &AnalyzeOptions::default());
        assert!(errors(&f)[0].message.contains("handler"));
    }

    #[test]
    fn unreachable_code_is_info_only() {
        let b = body(vec![Op::Ret, Op::Nop, Op::Ret]);
        let f = verify_body("m", 0, &b, &AnalyzeOptions::default());
        assert!(errors(&f).is_empty());
        assert!(f
            .iter()
            .any(|x| x.severity == Severity::Info && x.message.contains("unreachable")));
    }

    #[test]
    fn static_call_arity_checked_within_own_class() {
        let class = PortableClass {
            name: "A".into(),
            fields: vec![],
            methods: vec![
                PortableMethod {
                    name: "helper".into(),
                    params: vec!["int".into()],
                    ret: "any".into(),
                    body: body(vec![Op::Const(Const::Null), Op::RetVal]),
                },
                PortableMethod {
                    name: "main".into(),
                    params: vec![],
                    ret: "any".into(),
                    body: body(vec![
                        Op::CallStatic {
                            class: "A".into(),
                            method: "helper".into(),
                            argc: 2, // wrong: helper takes 1
                        },
                        Op::Pop,
                        Op::Ret,
                    ]),
                },
            ],
        };
        let f = verify_class(&class, &AnalyzeOptions::default());
        assert!(f
            .iter()
            .any(|x| x.severity == Severity::Error && x.message.contains("passes 2 args")));
    }
}
