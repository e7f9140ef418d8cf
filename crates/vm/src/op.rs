//! Portable bytecode.
//!
//! [`Op`] is the *portable* instruction form: names are symbolic strings,
//! so method bodies can be shipped across the network (this is how MIDAS
//! extensions carry advice code). The simulated JIT
//! resolves names into direct indices before execution.

use crate::value::Value;
use pmp_wire::wire_enum;
use std::sync::Arc;

/// A constant operand — the subset of [`Value`] with no heap identity,
/// hence safely serialisable.
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    /// `null`
    Null,
    /// Boolean constant.
    Bool(bool),
    /// Integer constant.
    Int(i64),
    /// Float constant.
    Float(f64),
    /// String constant.
    Str(String),
}

impl Const {
    /// Materialises the constant as a runtime value.
    pub fn to_value(&self) -> Value {
        match self {
            Const::Null => Value::Null,
            Const::Bool(b) => Value::Bool(*b),
            Const::Int(i) => Value::Int(*i),
            Const::Float(f) => Value::Float(*f),
            Const::Str(s) => Value::str(s),
        }
    }
}

impl From<i64> for Const {
    fn from(v: i64) -> Self {
        Const::Int(v)
    }
}
impl From<f64> for Const {
    fn from(v: f64) -> Self {
        Const::Float(v)
    }
}
impl From<bool> for Const {
    fn from(v: bool) -> Self {
        Const::Bool(v)
    }
}
impl From<&str> for Const {
    fn from(v: &str) -> Self {
        Const::Str(v.to_string())
    }
}

wire_enum!(Const {
    0 => Null,
    1 => Bool(bool),
    2 => Int(i64),
    3 => Float(f64),
    4 => Str(String),
});

/// One portable instruction of the stack machine.
///
/// Stack effects are noted as `before -> after` (top of stack rightmost).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// ` -> c` push a constant.
    Const(Const),
    /// ` -> v` push local slot (0 = `this` for instance methods).
    Load(u16),
    /// `v -> ` pop into local slot.
    Store(u16),
    /// `v -> v v` duplicate top.
    Dup,
    /// `v -> ` discard top.
    Pop,
    /// `a b -> b a` swap top two.
    Swap,
    /// `a b -> a+b` (int+int, float+float).
    Add,
    /// `a b -> a-b`
    Sub,
    /// `a b -> a*b`
    Mul,
    /// `a b -> a/b` — throws `ArithmeticException` on int division by 0.
    Div,
    /// `a b -> a%b` — throws `ArithmeticException` on int remainder by 0.
    Rem,
    /// `a -> -a`
    Neg,
    /// `a b -> a<<b` (ints).
    Shl,
    /// `a b -> a>>b` (arithmetic, ints).
    Shr,
    /// `a b -> a&b` (ints).
    BitAnd,
    /// `a b -> a|b` (ints).
    BitOr,
    /// `a b -> a^b` (ints).
    BitXor,
    /// `a b -> a==b` (structural on primitives, identity on refs).
    Eq,
    /// `a b -> a!=b`
    Ne,
    /// `a b -> a<b` (int/float/str).
    Lt,
    /// `a b -> a<=b`
    Le,
    /// `a b -> a>b`
    Gt,
    /// `a b -> a>=b`
    Ge,
    /// `b -> !b`
    Not,
    /// ` -> ` unconditional jump to pc.
    Jump(u32),
    /// `b -> ` jump if true.
    JumpIf(u32),
    /// `b -> ` jump if false.
    JumpIfNot(u32),
    /// ` -> ` return `null` from the method.
    Ret,
    /// `v -> ` return top of stack from the method.
    RetVal,
    /// ` -> ref` allocate an instance with default field values.
    New(String),
    /// `obj -> value` read a field (join point: field get).
    GetField {
        /// Declaring class name.
        class: String,
        /// Field name.
        field: String,
    },
    /// `obj value -> ` write a field (join point: field set).
    PutField {
        /// Declaring class name.
        class: String,
        /// Field name.
        field: String,
    },
    /// `obj a1..aN -> ret` virtual call by name on the receiver's class
    /// (join points: method entry/exit).
    CallV {
        /// Method name, resolved against the receiver's runtime class.
        method: String,
        /// Number of arguments (excluding receiver).
        argc: u8,
    },
    /// `a1..aN -> ret` static call to `class.method`.
    CallStatic {
        /// Declaring class name.
        class: String,
        /// Method name.
        method: String,
        /// Number of arguments.
        argc: u8,
    },
    /// `obj a1..aN -> ret` devirtualised call: like [`Op::CallV`] but the
    /// receiver's class is statically known, so dispatch resolves to a
    /// direct method id at JIT time and skips the run-time class lookup.
    /// Emitted only by the weave-time optimizer when class-hierarchy
    /// analysis proves the receiver is exactly an instance of `class`.
    CallDirect {
        /// The receiver's statically proven class.
        class: String,
        /// Method name.
        method: String,
        /// Number of arguments (excluding receiver).
        argc: u8,
    },
    /// `len -> ref` allocate an array of nulls.
    NewArray,
    /// `arr idx -> v`
    ArrGet,
    /// `arr idx v -> `
    ArrSet,
    /// `arr -> len`
    ArrLen,
    /// `len -> ref` allocate a zeroed byte buffer (the paper's `byte[]`).
    NewBuffer,
    /// `buf idx -> int`
    BufGet,
    /// `buf idx int -> `
    BufSet,
    /// `buf -> len`
    BufLen,
    /// `msg -> !` throw an exception of the operand class with the popped
    /// message (join point: exception throw).
    Throw(String),
    /// `a b -> str` string concatenation via `Display`.
    Concat,
    /// `v -> str`
    ToStr,
    /// `v -> int` (parses strings, truncates floats) — throws `TypeError`
    /// if not convertible.
    ToInt,
    /// `v -> float`
    ToFloat,
    /// `a1..aN -> ret` call a named, permission-checked system operation.
    Sys {
        /// Registered system-operation name, e.g. `"print"`.
        name: String,
        /// Number of arguments.
        argc: u8,
    },
    /// ` -> ` no operation.
    Nop,
}

/// Where control can go after one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Fall through to `pc + 1`.
    Next,
    /// Unconditional jump.
    Jump(u32),
    /// Conditional: jump or fall through.
    Branch(u32),
    /// Leaves the method (return or throw).
    Exit,
}

impl Op {
    /// `(pops, pushes, flow)`: the operand-stack slots the instruction
    /// takes and leaves, and where control goes next. This is the one
    /// statement of the interpreter's stack discipline (`exec_op`) that
    /// the analyzers read: the admission verifier, the control-flow
    /// graph, the termination pass and the optimizer's opaque ops.
    pub fn effect(&self) -> (u32, u32, Flow) {
        match self {
            Op::Const(_) | Op::New(_) | Op::Load(_) => (0, 1, Flow::Next),
            Op::Store(_) | Op::Pop => (1, 0, Flow::Next),
            Op::Dup => (1, 2, Flow::Next),
            Op::Swap => (2, 2, Flow::Next),
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
            | Op::Concat => (2, 1, Flow::Next),
            Op::Neg | Op::Not | Op::ToStr | Op::ToInt | Op::ToFloat => (1, 1, Flow::Next),
            Op::Jump(t) => (0, 0, Flow::Jump(*t)),
            Op::JumpIf(t) | Op::JumpIfNot(t) => (1, 0, Flow::Branch(*t)),
            Op::Ret => (0, 0, Flow::Exit),
            Op::RetVal | Op::Throw(_) => (1, 0, Flow::Exit),
            Op::GetField { .. } => (1, 1, Flow::Next),
            Op::PutField { .. } => (2, 0, Flow::Next),
            Op::CallV { argc, .. } | Op::CallDirect { argc, .. } => {
                (u32::from(*argc) + 1, 1, Flow::Next)
            }
            Op::CallStatic { argc, .. } | Op::Sys { argc, .. } => (u32::from(*argc), 1, Flow::Next),
            Op::NewArray | Op::ArrLen | Op::NewBuffer | Op::BufLen => (1, 1, Flow::Next),
            Op::ArrGet | Op::BufGet => (2, 1, Flow::Next),
            Op::ArrSet | Op::BufSet => (3, 0, Flow::Next),
            Op::Nop => (0, 0, Flow::Next),
        }
    }

    /// The one jump-target rule the JIT and the admission verifier
    /// share: a jump or branch must land on one of its body's `len`
    /// ops, whether or not any path reaches it. Returns the target that
    /// breaks the rule.
    pub fn wild_target(&self, len: usize) -> Option<u32> {
        match self.effect().2 {
            Flow::Jump(t) | Flow::Branch(t) if t as usize >= len => Some(t),
            _ => None,
        }
    }
}

wire_enum!(Op {
    0 => Const(Const),
    1 => Load(u16),
    2 => Store(u16),
    3 => Dup,
    4 => Pop,
    5 => Swap,
    6 => Add,
    7 => Sub,
    8 => Mul,
    9 => Div,
    10 => Rem,
    11 => Neg,
    12 => Shl,
    13 => Shr,
    14 => BitAnd,
    15 => BitOr,
    16 => BitXor,
    17 => Eq,
    18 => Ne,
    19 => Lt,
    20 => Le,
    21 => Gt,
    22 => Ge,
    23 => Not,
    24 => Jump(u32),
    25 => JumpIf(u32),
    26 => JumpIfNot(u32),
    27 => Ret,
    28 => RetVal,
    29 => New(String),
    30 => GetField { class: String, field: String },
    31 => PutField { class: String, field: String },
    32 => CallV { method: String, argc: u8 },
    33 => CallStatic { class: String, method: String, argc: u8 },
    34 => NewArray,
    35 => ArrGet,
    36 => ArrSet,
    37 => ArrLen,
    38 => NewBuffer,
    39 => BufGet,
    40 => BufSet,
    41 => BufLen,
    42 => Throw(String),
    43 => Concat,
    44 => ToStr,
    45 => ToInt,
    46 => ToFloat,
    47 => Sys { name: String, argc: u8 },
    48 => Nop,
    49 => CallDirect { class: String, method: String, argc: u8 },
});

/// An exception-handler range for a bytecode body: if an exception of a
/// matching class escapes an op in `[start, end)`, control transfers to
/// `target` with the exception message pushed on the (cleared) stack.
#[derive(Debug, Clone, PartialEq)]
pub struct HandlerDef {
    /// First covered pc (inclusive).
    pub start: u32,
    /// One past the last covered pc.
    pub end: u32,
    /// Exception class to catch; `"*"` catches any class.
    pub class: String,
    /// Handler entry pc.
    pub target: u32,
}

pmp_wire::wire_struct!(HandlerDef {
    start: u32,
    end: u32,
    class: String,
    target: u32,
});

/// A portable bytecode method body: shippable over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct BytecodeBody {
    /// Extra local slots beyond `this` + parameters.
    pub extra_locals: u16,
    /// The instructions.
    pub ops: Vec<Op>,
    /// Exception handler table.
    pub handlers: Vec<HandlerDef>,
}

pmp_wire::wire_struct!(BytecodeBody {
    extra_locals: u16,
    ops: Vec<Op>,
    handlers: Vec<HandlerDef>,
});

/// Compiled ("native") instruction with names resolved to indices.
///
/// Produced by the simulated JIT; mirrors [`Op`] one-to-one so pc values
/// are stable across compilation.
#[derive(Debug, Clone)]
pub enum CompiledOp {
    /// See [`Op::Const`].
    Const(Value),
    /// See [`Op::Load`].
    Load(u16),
    /// See [`Op::Store`].
    Store(u16),
    /// See [`Op::Dup`].
    Dup,
    /// See [`Op::Pop`].
    Pop,
    /// See [`Op::Swap`].
    Swap,
    /// See [`Op::Add`].
    Add,
    /// See [`Op::Sub`].
    Sub,
    /// See [`Op::Mul`].
    Mul,
    /// See [`Op::Div`].
    Div,
    /// See [`Op::Rem`].
    Rem,
    /// See [`Op::Neg`].
    Neg,
    /// See [`Op::Shl`].
    Shl,
    /// See [`Op::Shr`].
    Shr,
    /// See [`Op::BitAnd`].
    BitAnd,
    /// See [`Op::BitOr`].
    BitOr,
    /// See [`Op::BitXor`].
    BitXor,
    /// See [`Op::Eq`].
    Eq,
    /// See [`Op::Ne`].
    Ne,
    /// See [`Op::Lt`].
    Lt,
    /// See [`Op::Le`].
    Le,
    /// See [`Op::Gt`].
    Gt,
    /// See [`Op::Ge`].
    Ge,
    /// See [`Op::Not`].
    Not,
    /// See [`Op::Jump`].
    Jump(u32),
    /// See [`Op::JumpIf`].
    JumpIf(u32),
    /// See [`Op::JumpIfNot`].
    JumpIfNot(u32),
    /// See [`Op::Ret`].
    Ret,
    /// See [`Op::RetVal`].
    RetVal,
    /// See [`Op::New`] — class resolved.
    New(crate::hooks::ClassId),
    /// See [`Op::GetField`] — slot and hook id resolved.
    GetField {
        /// Field slot in the object layout.
        slot: u16,
        /// Global field id (hook key).
        fid: crate::hooks::FieldId,
    },
    /// See [`Op::PutField`].
    PutField {
        /// Field slot in the object layout.
        slot: u16,
        /// Global field id (hook key).
        fid: crate::hooks::FieldId,
    },
    /// See [`Op::CallV`] — method name interned; receiver class resolved
    /// at run time (virtual dispatch).
    CallV {
        /// Interned method name.
        method: Arc<str>,
        /// Number of arguments.
        argc: u8,
    },
    /// See [`Op::CallStatic`] — resolved to a direct method id.
    CallStatic {
        /// Target method.
        mid: crate::hooks::MethodId,
        /// Number of arguments.
        argc: u8,
    },
    /// See [`Op::CallDirect`] — resolved to a direct method id; the
    /// receiver is popped and passed as `this` without a class lookup.
    CallDirect {
        /// Target method.
        mid: crate::hooks::MethodId,
        /// Number of arguments (excluding receiver).
        argc: u8,
    },
    /// See [`Op::NewArray`].
    NewArray,
    /// See [`Op::ArrGet`].
    ArrGet,
    /// See [`Op::ArrSet`].
    ArrSet,
    /// See [`Op::ArrLen`].
    ArrLen,
    /// See [`Op::NewBuffer`].
    NewBuffer,
    /// See [`Op::BufGet`].
    BufGet,
    /// See [`Op::BufSet`].
    BufSet,
    /// See [`Op::BufLen`].
    BufLen,
    /// See [`Op::Throw`] — class name interned.
    Throw(Arc<str>),
    /// See [`Op::Concat`].
    Concat,
    /// See [`Op::ToStr`].
    ToStr,
    /// See [`Op::ToInt`].
    ToInt,
    /// See [`Op::ToFloat`].
    ToFloat,
    /// See [`Op::Sys`] — resolved to a system-op index.
    Sys {
        /// Index into the system-op registry.
        sys: u32,
        /// Number of arguments.
        argc: u8,
    },
    /// See [`Op::Nop`].
    Nop,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_to_value() {
        assert_eq!(Const::Int(4).to_value(), Value::Int(4));
        assert_eq!(Const::Null.to_value(), Value::Null);
        assert_eq!(Const::from("x").to_value(), Value::str("x"));
    }

    #[test]
    fn op_wire_roundtrip_all_variants() {
        let ops = vec![
            Op::Const(Const::Int(1)),
            Op::Const(Const::Str("s".into())),
            Op::Const(Const::Float(2.5)),
            Op::Const(Const::Bool(true)),
            Op::Const(Const::Null),
            Op::Load(3),
            Op::Store(4),
            Op::Dup,
            Op::Pop,
            Op::Swap,
            Op::Add,
            Op::Sub,
            Op::Mul,
            Op::Div,
            Op::Rem,
            Op::Neg,
            Op::Shl,
            Op::Shr,
            Op::BitAnd,
            Op::BitOr,
            Op::BitXor,
            Op::Eq,
            Op::Ne,
            Op::Lt,
            Op::Le,
            Op::Gt,
            Op::Ge,
            Op::Not,
            Op::Jump(9),
            Op::JumpIf(10),
            Op::JumpIfNot(11),
            Op::Ret,
            Op::RetVal,
            Op::New("Motor".into()),
            Op::GetField {
                class: "Motor".into(),
                field: "pos".into(),
            },
            Op::PutField {
                class: "Motor".into(),
                field: "pos".into(),
            },
            Op::CallV {
                method: "rotate".into(),
                argc: 2,
            },
            Op::CallStatic {
                class: "Math".into(),
                method: "abs".into(),
                argc: 1,
            },
            Op::CallDirect {
                class: "Motor".into(),
                method: "rotate".into(),
                argc: 2,
            },
            Op::NewArray,
            Op::ArrGet,
            Op::ArrSet,
            Op::ArrLen,
            Op::NewBuffer,
            Op::BufGet,
            Op::BufSet,
            Op::BufLen,
            Op::Throw("E".into()),
            Op::Concat,
            Op::ToStr,
            Op::ToInt,
            Op::ToFloat,
            Op::Sys {
                name: "print".into(),
                argc: 1,
            },
            Op::Nop,
        ];
        let bytes = pmp_wire::to_bytes(&ops);
        let back: Vec<Op> = pmp_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, ops);
    }

    #[test]
    fn body_wire_roundtrip() {
        let body = BytecodeBody {
            extra_locals: 2,
            ops: vec![Op::Const(Const::Int(1)), Op::RetVal],
            handlers: vec![HandlerDef {
                start: 0,
                end: 2,
                class: "*".into(),
                target: 1,
            }],
        };
        let bytes = pmp_wire::to_bytes(&body);
        assert_eq!(pmp_wire::from_bytes::<BytecodeBody>(&bytes).unwrap(), body);
    }
}
