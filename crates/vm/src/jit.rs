//! The simulated JIT: translates portable [`Op`]s into resolved
//! [`CompiledOp`]s, planting PROSE stubs iff the VM was configured with
//! `prose_hooks` at compile time.
//!
//! The paper's PROSE "adds extension functionality by instructing the
//! JIT-compiler to insert additional actions when transforming the
//! bytecode into native code" (§3.1). The `stub` flag on a compiled
//! method is that inserted action: when set, every invocation checks the
//! hook table (cheap); when clear, invocation proceeds with zero
//! adaptation overhead — re-JIT-ing with different settings is how the
//! benchmarks measure the baseline cost.

use crate::class::MethodBody;
use crate::error::VmError;
use crate::hooks::MethodId;
use crate::op::{CompiledOp, Op};
use crate::vm::{Compiled, CompiledHandler, CompiledMethod, Vm};
use std::sync::Arc;

pub(crate) fn compile(vm: &mut Vm, mid: MethodId) -> Result<(), VmError> {
    let body = vm.method_rt(mid).body.clone();
    // Hook-check hoisting: the weave-time analyzer may prove a method
    // needs no entry/exit stub (see `Vm::hoist_hooks`); such methods
    // compile stub-free even on a hook-carrying VM.
    let stub = vm.config().prose_hooks && !vm.method_rt(mid).hoisted;
    let compiled = match body {
        MethodBody::Native(f) => Compiled::Native { f, stub },
        MethodBody::Bytecode(b) => {
            let sig = vm.method_sig(mid).clone();
            let nlocals = 1 + sig.params.len() as u16 + b.extra_locals;
            let len = b.ops.len() as u32;
            let mut ops = Vec::with_capacity(b.ops.len());
            for (pc, op) in b.ops.iter().enumerate() {
                ops.push(resolve_op(vm, mid, pc, op, len)?);
            }
            let mut handlers = Vec::with_capacity(b.handlers.len());
            for h in &b.handlers {
                if h.start > h.end || h.end > len || h.target >= len {
                    return Err(VmError::link(format!(
                        "{}: malformed handler range {}..{} -> {}",
                        sig, h.start, h.end, h.target
                    )));
                }
                handlers.push(CompiledHandler {
                    start: h.start,
                    end: h.end,
                    class: Arc::from(h.class.as_str()),
                    target: h.target,
                });
            }
            Compiled::Bytecode(Arc::new(CompiledMethod {
                mid,
                ops,
                handlers,
                nlocals,
                stub,
            }))
        }
    };
    vm.install_compiled(mid, compiled);
    Ok(())
}

fn resolve_op(vm: &Vm, mid: MethodId, pc: usize, op: &Op, len: u32) -> Result<CompiledOp, VmError> {
    let ctx = || format!("{} @{pc}", vm.method_sig(mid));
    if let Some(t) = op.wild_target(len as usize) {
        return Err(VmError::link(format!(
            "{}: jump target {t} out of range",
            ctx()
        )));
    }
    Ok(match op {
        Op::Const(c) => CompiledOp::Const(c.to_value()),
        Op::Load(i) => CompiledOp::Load(*i),
        Op::Store(i) => CompiledOp::Store(*i),
        Op::Dup => CompiledOp::Dup,
        Op::Pop => CompiledOp::Pop,
        Op::Swap => CompiledOp::Swap,
        Op::Add => CompiledOp::Add,
        Op::Sub => CompiledOp::Sub,
        Op::Mul => CompiledOp::Mul,
        Op::Div => CompiledOp::Div,
        Op::Rem => CompiledOp::Rem,
        Op::Neg => CompiledOp::Neg,
        Op::Shl => CompiledOp::Shl,
        Op::Shr => CompiledOp::Shr,
        Op::BitAnd => CompiledOp::BitAnd,
        Op::BitOr => CompiledOp::BitOr,
        Op::BitXor => CompiledOp::BitXor,
        Op::Eq => CompiledOp::Eq,
        Op::Ne => CompiledOp::Ne,
        Op::Lt => CompiledOp::Lt,
        Op::Le => CompiledOp::Le,
        Op::Gt => CompiledOp::Gt,
        Op::Ge => CompiledOp::Ge,
        Op::Not => CompiledOp::Not,
        Op::Jump(t) => CompiledOp::Jump(*t),
        Op::JumpIf(t) => CompiledOp::JumpIf(*t),
        Op::JumpIfNot(t) => CompiledOp::JumpIfNot(*t),
        Op::Ret => CompiledOp::Ret,
        Op::RetVal => CompiledOp::RetVal,
        Op::New(name) => {
            let cid = vm
                .class_id(name)
                .ok_or_else(|| VmError::link(format!("{}: unknown class {name:?}", ctx())))?;
            CompiledOp::New(cid)
        }
        Op::GetField { class, field } => {
            let (slot, fid) = vm.resolve_field(class, field).ok_or_else(|| {
                VmError::link(format!("{}: unknown field {class}.{field}", ctx()))
            })?;
            CompiledOp::GetField { slot, fid }
        }
        Op::PutField { class, field } => {
            let (slot, fid) = vm.resolve_field(class, field).ok_or_else(|| {
                VmError::link(format!("{}: unknown field {class}.{field}", ctx()))
            })?;
            CompiledOp::PutField { slot, fid }
        }
        Op::CallV { method, argc } => CompiledOp::CallV {
            method: Arc::from(method.as_str()),
            argc: *argc,
        },
        Op::CallStatic {
            class,
            method,
            argc,
        } => {
            let cid = vm
                .class_id(class)
                .ok_or_else(|| VmError::link(format!("{}: unknown class {class:?}", ctx())))?;
            let target = vm.resolve_virtual(cid, method).ok_or_else(|| {
                VmError::link(format!("{}: unknown method {class}.{method}", ctx()))
            })?;
            CompiledOp::CallStatic {
                mid: target,
                argc: *argc,
            }
        }
        Op::CallDirect {
            class,
            method,
            argc,
        } => {
            let cid = vm
                .class_id(class)
                .ok_or_else(|| VmError::link(format!("{}: unknown class {class:?}", ctx())))?;
            let target = vm.resolve_virtual(cid, method).ok_or_else(|| {
                VmError::link(format!("{}: unknown method {class}.{method}", ctx()))
            })?;
            CompiledOp::CallDirect {
                mid: target,
                argc: *argc,
            }
        }
        Op::NewArray => CompiledOp::NewArray,
        Op::ArrGet => CompiledOp::ArrGet,
        Op::ArrSet => CompiledOp::ArrSet,
        Op::ArrLen => CompiledOp::ArrLen,
        Op::NewBuffer => CompiledOp::NewBuffer,
        Op::BufGet => CompiledOp::BufGet,
        Op::BufSet => CompiledOp::BufSet,
        Op::BufLen => CompiledOp::BufLen,
        Op::Throw(class) => CompiledOp::Throw(Arc::from(class.as_str())),
        Op::Concat => CompiledOp::Concat,
        Op::ToStr => CompiledOp::ToStr,
        Op::ToInt => CompiledOp::ToInt,
        Op::ToFloat => CompiledOp::ToFloat,
        Op::Sys { name, argc } => {
            let sys = vm
                .sys_registry()
                .lookup(name)
                .ok_or_else(|| VmError::link(format!("{}: unknown sys op {name:?}", ctx())))?;
            CompiledOp::Sys { sys, argc: *argc }
        }
        Op::Nop => CompiledOp::Nop,
    })
}
