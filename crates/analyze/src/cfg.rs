//! Explicit control-flow graph over a portable bytecode body.
//!
//! The admission verifier (pass 1) only needs per-pc stack depths, but
//! the weave-time optimizer reasons about *regions*: constant
//! propagation rewrites within basic blocks, branch folding kills whole
//! blocks, and dead-code elimination walks block reachability. This
//! module builds that region structure once so every `opt` pass shares
//! the same notion of leaders, blocks, and successors.

use pmp_vm::op::{BytecodeBody, Flow, Op};
use std::collections::BTreeSet;

/// A basic block: the half-open pc range `[start, end)`. The op at
/// `end - 1` is the block's terminator (or an ordinary op whose
/// successor is simply the next leader).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// First pc of the block (a leader).
    pub start: usize,
    /// One past the last pc of the block.
    pub end: usize,
}

/// The control-flow graph of one method body.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Basic blocks in pc order.
    pub blocks: Vec<Block>,
    /// `block_of[pc]` — index into `blocks` of the block containing pc.
    pub block_of: Vec<usize>,
}

/// Where control can go after the op at `pc`.
pub fn successors(op: &Op, pc: usize) -> Vec<usize> {
    match op.effect().2 {
        Flow::Next => vec![pc + 1],
        Flow::Jump(t) => vec![t as usize],
        Flow::Branch(t) => vec![t as usize, pc + 1],
        Flow::Exit => vec![],
    }
}

impl Cfg {
    /// Builds the CFG of `body`. Leaders: pc 0, every jump target,
    /// every pc following a jump/branch/exit, and every handler entry.
    pub fn build(body: &BytecodeBody) -> Cfg {
        let len = body.ops.len();
        let mut leaders: BTreeSet<usize> = BTreeSet::new();
        leaders.insert(0);
        for (pc, op) in body.ops.iter().enumerate() {
            match op.effect().2 {
                Flow::Next => {}
                Flow::Jump(t) | Flow::Branch(t) => {
                    leaders.insert(t as usize);
                    leaders.insert(pc + 1);
                }
                Flow::Exit => {
                    leaders.insert(pc + 1);
                }
            }
        }
        for h in &body.handlers {
            leaders.insert(h.target as usize);
        }
        leaders.retain(|&l| l < len);

        let bounds: Vec<usize> = leaders.iter().copied().chain(std::iter::once(len)).collect();
        let mut blocks = Vec::with_capacity(bounds.len().saturating_sub(1));
        for w in bounds.windows(2) {
            blocks.push(Block {
                start: w[0],
                end: w[1],
            });
        }
        let mut block_of = vec![0usize; len];
        for (i, b) in blocks.iter().enumerate() {
            block_of[b.start..b.end].fill(i);
        }
        Cfg { blocks, block_of }
    }
}

/// Op-level reachability from pc 0 plus every *live* exception
/// handler's entry — a handler is live iff some reachable pc lies in
/// its guarded range, so the set is computed to a fixpoint (a handler
/// body can itself sit inside another handler's range).
pub fn reachable_ops(body: &BytecodeBody) -> Vec<bool> {
    let len = body.ops.len();
    let mut reach = vec![false; len];
    let mut work = vec![0usize];
    loop {
        while let Some(pc) = work.pop() {
            if pc >= len || reach[pc] {
                continue;
            }
            reach[pc] = true;
            for s in successors(&body.ops[pc], pc) {
                work.push(s);
            }
        }
        // Arm handlers whose range now contains reachable code.
        let mut grew = false;
        for h in &body.handlers {
            let t = h.target as usize;
            if t < len
                && !reach[t]
                && (h.start as usize..h.end as usize).any(|pc| pc < len && reach[pc])
            {
                work.push(t);
                grew = true;
            }
        }
        if !grew {
            return reach;
        }
    }
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
    fn straight_line_is_one_block() {
        let b = body(vec![Op::Const(Const::Int(1)), Op::Pop, Op::Ret]);
        let cfg = Cfg::build(&b);
        assert_eq!(cfg.blocks, vec![Block { start: 0, end: 3 }]);
    }

    #[test]
    fn branch_splits_blocks_at_target_and_fallthrough() {
        let b = body(vec![
            Op::Const(Const::Bool(true)), // 0
            Op::JumpIf(4),                // 1
            Op::Nop,                      // 2
            Op::Ret,                      // 3
            Op::Ret,                      // 4
        ]);
        let cfg = Cfg::build(&b);
        assert_eq!(
            cfg.blocks,
            vec![
                Block { start: 0, end: 2 },
                Block { start: 2, end: 4 },
                Block { start: 4, end: 5 },
            ]
        );
        assert_eq!(cfg.block_of[3], 1);
    }

    #[test]
    fn unreachable_ops_are_detected() {
        let b = body(vec![Op::Ret, Op::Nop, Op::Ret]);
        let reach = reachable_ops(&b);
        assert_eq!(reach, vec![true, false, false]);
    }

    #[test]
    fn handler_target_is_reachable_when_range_is() {
        let b = BytecodeBody {
            extra_locals: 0,
            ops: vec![
                Op::Const(Const::Str("boom".into())), // 0
                Op::Throw("E".into()),                // 1
                Op::Pop,                              // 2: handler
                Op::Ret,                              // 3
            ],
            handlers: vec![HandlerDef {
                start: 0,
                end: 2,
                class: "*".into(),
                target: 2,
            }],
        };
        let reach = reachable_ops(&b);
        assert_eq!(reach, vec![true, true, true, true]);
    }

    #[test]
    fn dead_handler_keeps_its_body_dead() {
        let b = BytecodeBody {
            extra_locals: 0,
            ops: vec![
                Op::Ret,               // 0
                Op::Const(Const::Null), // 1: guarded but unreachable
                Op::Ret,               // 2
                Op::Pop,               // 3: handler of dead range
                Op::Ret,               // 4
            ],
            handlers: vec![HandlerDef {
                start: 1,
                end: 3,
                class: "*".into(),
                target: 3,
            }],
        };
        let reach = reachable_ops(&b);
        assert_eq!(reach, vec![true, false, false, false, false]);
    }
}
