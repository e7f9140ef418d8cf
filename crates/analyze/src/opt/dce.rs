//! Dead-code and unreachable-branch elimination.
//!
//! Two stages. First, every op unreachable from entry (or from a live
//! exception handler — handler liveness is a fixpoint with
//! reachability, see [`crate::cfg::reachable_ops`]) is turned into
//! `Nop`; constant-folded branches from the constprop pass are what
//! usually makes whole arms unreachable. Second, *compaction*: all
//! `Nop`s are removed and every jump target and handler range is
//! remapped to the compacted pc space. Remapping a target `T` to the
//! first surviving pc `>= T` is sound because the ops that terminate a
//! reachable path (`Ret`, `RetVal`, `Throw`, `Jump`) are never Nop-ed,
//! so a reachable target always has a surviving op at or after it.
//! Handlers whose guarded range compacts to nothing are dropped.

use crate::cfg::reachable_ops;
use pmp_vm::op::{BytecodeBody, Flow, Op};

/// Removes unreachable code and compacts `Nop`s out of `body`.
/// Returns the number of ops removed. On any internal inconsistency
/// (a jump target with no surviving successor) the body is left
/// untouched — translation validation would reject it anyway.
pub fn eliminate(body: &mut BytecodeBody) -> usize {
    let len = body.ops.len();
    if len == 0 {
        return 0;
    }
    let reach = reachable_ops(body);
    let mut work = body.ops.clone();
    for (pc, live) in reach.iter().enumerate() {
        if !live {
            work[pc] = Op::Nop;
        }
    }

    // Compaction: `remap[pc]` = new index of the first kept op >= pc.
    let keep: Vec<bool> = work.iter().map(|op| *op != Op::Nop).collect();
    if keep.iter().all(|&k| k) {
        return 0; // nothing to remove
    }
    if !keep.iter().any(|&k| k) {
        return 0; // all-Nop body: leave as-is rather than emit an empty one
    }
    let mut remap = vec![usize::MAX; len + 1];
    let mut next = keep.iter().filter(|&&k| k).count(); // = new length
    for pc in (0..len).rev() {
        if keep[pc] {
            next -= 1;
        }
        remap[pc] = if keep[pc] { next } else { remap[pc + 1] };
    }
    remap[len] = keep.iter().filter(|&&k| k).count();

    // Every live jump must land on a surviving op.
    for (pc, op) in work.iter().enumerate() {
        if !keep[pc] {
            continue;
        }
        let t = match op.effect().2 {
            Flow::Jump(t) | Flow::Branch(t) => t as usize,
            _ => continue,
        };
        if t > len || remap[t] == usize::MAX || remap[t] >= remap[len] {
            return 0;
        }
    }

    let new_ops: Vec<Op> = work
        .into_iter()
        .enumerate()
        .filter(|(pc, _)| keep[*pc])
        .map(|(_, op)| match op {
            Op::Jump(t) => Op::Jump(remap[t as usize] as u32),
            Op::JumpIf(t) => Op::JumpIf(remap[t as usize] as u32),
            Op::JumpIfNot(t) => Op::JumpIfNot(remap[t as usize] as u32),
            other => other,
        })
        .collect();

    let new_handlers = body
        .handlers
        .iter()
        .filter_map(|h| {
            let start = remap[(h.start as usize).min(len)];
            let end = remap[(h.end as usize).min(len)];
            let target = remap[(h.target as usize).min(len)];
            if start >= end || target >= new_ops.len() {
                return None; // guarded range or handler body compacted away
            }
            let mut nh = h.clone();
            nh.start = start as u32;
            nh.end = end as u32;
            nh.target = target as u32;
            Some(nh)
        })
        .collect();

    let removed = len - new_ops.len();
    body.ops = new_ops;
    body.handlers = new_handlers;
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_vm::op::{Const, HandlerDef};

    fn body(ops: Vec<Op>) -> BytecodeBody {
        BytecodeBody {
            extra_locals: 0,
            ops,
            handlers: vec![],
        }
    }

    #[test]
    fn removes_nops_and_remaps_jumps() {
        let mut b = body(vec![
            Op::Nop,                      // 0
            Op::Const(Const::Bool(true)), // 1
            Op::JumpIf(5),                // 2
            Op::Nop,                      // 3
            Op::Ret,                      // 4
            Op::Ret,                      // 5
        ]);
        assert_eq!(eliminate(&mut b), 2);
        assert_eq!(
            b.ops,
            vec![
                Op::Const(Const::Bool(true)),
                Op::JumpIf(3),
                Op::Ret,
                Op::Ret,
            ]
        );
    }

    #[test]
    fn unreachable_arm_is_dropped() {
        let mut b = body(vec![
            Op::Jump(3),              // 0
            Op::Const(Const::Int(0)), // 1 (dead)
            Op::RetVal,               // 2 (dead)
            Op::Ret,                  // 3
        ]);
        assert_eq!(eliminate(&mut b), 2);
        assert_eq!(b.ops, vec![Op::Jump(1), Op::Ret]);
    }

    #[test]
    fn dead_handler_is_dropped_with_its_range() {
        let mut b = BytecodeBody {
            extra_locals: 0,
            ops: vec![
                Op::Ret,                              // 0
                Op::Const(Const::Str("x".into())),    // 1 (dead, guarded)
                Op::Throw("E".into()),                // 2 (dead)
                Op::Pop,                              // 3 (dead handler)
                Op::Ret,                              // 4 (dead)
            ],
            handlers: vec![HandlerDef {
                start: 1,
                end: 3,
                class: "*".into(),
                target: 3,
            }],
        };
        assert_eq!(eliminate(&mut b), 4);
        assert_eq!(b.ops, vec![Op::Ret]);
        assert!(b.handlers.is_empty());
    }

    #[test]
    fn live_handler_range_is_remapped() {
        let mut b = BytecodeBody {
            extra_locals: 0,
            ops: vec![
                Op::Nop,                           // 0
                Op::Const(Const::Str("m".into())), // 1
                Op::Throw("E".into()),             // 2
                Op::Pop,                           // 3: handler entry
                Op::Ret,                           // 4
            ],
            handlers: vec![HandlerDef {
                start: 1,
                end: 3,
                class: "*".into(),
                target: 3,
            }],
        };
        assert_eq!(eliminate(&mut b), 1);
        assert_eq!(b.handlers.len(), 1);
        assert_eq!(
            (b.handlers[0].start, b.handlers[0].end, b.handlers[0].target),
            (0, 2, 2)
        );
    }

    #[test]
    fn untouched_body_reports_zero() {
        let mut b = body(vec![Op::Const(Const::Int(1)), Op::RetVal]);
        assert_eq!(eliminate(&mut b), 0);
        assert_eq!(b.ops.len(), 2);
    }
}
