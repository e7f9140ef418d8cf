//! Join-point hooks: the "minimal stubs" the simulated JIT plants.
//!
//! The paper's PROSE instructs the JIT compiler to insert minimal hooks
//! before/after every potential join point; when a join point fires, a
//! hook checks whether any advice is registered and, only then, calls
//! into the AOP runtime (Fig. 1). Here:
//!
//! * a *stub* is compiled into a method iff `VmConfig::prose_hooks` was
//!   set when the method was JIT-compiled (the ~7 % baseline cost of the
//!   paper's §4.6),
//! * an *active* hook is an atomic flag set by the weaver; only then is
//!   the [`Dispatcher`] invoked (the ~900 ns per-interception cost).

use crate::error::{VmError, VmException};
use crate::value::{ObjId, Value};
use crate::vm::Vm;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// Dense index of a registered class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// Dense global index of a declared method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodId(pub u32);

/// Dense global index of a declared field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldId(pub u32);

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class#{}", self.0)
    }
}
impl fmt::Display for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "method#{}", self.0)
    }
}
impl fmt::Display for FieldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "field#{}", self.0)
    }
}

/// Method hook flag: entry advice present.
pub const HOOK_ENTRY: u8 = 1 << 0;
/// Method hook flag: exit advice present.
pub const HOOK_EXIT: u8 = 1 << 1;
/// Field hook flag: get advice present.
pub const HOOK_GET: u8 = 1 << 0;
/// Field hook flag: set advice present.
pub const HOOK_SET: u8 = 1 << 1;
/// Exception hook flag: throw advice present.
pub const HOOK_THROW: u8 = 1 << 0;
/// Exception hook flag: catch advice present.
pub const HOOK_CATCH: u8 = 1 << 1;

/// Per-VM tables of active hook flags, indexed by dense ids.
///
/// Flags are atomics so the weaver can flip them without recompiling;
/// this is exactly the paper's activation model.
#[derive(Debug, Default)]
pub struct HookRegistry {
    methods: Vec<AtomicU8>,
    fields: Vec<AtomicU8>,
    exceptions: AtomicU8,
}

impl HookRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the method table to cover `mid`.
    pub(crate) fn ensure_method(&mut self, mid: MethodId) {
        while self.methods.len() <= mid.0 as usize {
            self.methods.push(AtomicU8::new(0));
        }
    }

    /// Grows the field table to cover `fid`.
    pub(crate) fn ensure_field(&mut self, fid: FieldId) {
        while self.fields.len() <= fid.0 as usize {
            self.fields.push(AtomicU8::new(0));
        }
    }

    /// Current flags for a method (0 if unknown).
    #[inline]
    pub fn method_flags(&self, mid: MethodId) -> u8 {
        self.methods
            .get(mid.0 as usize)
            .map_or(0, |f| f.load(Ordering::Relaxed))
    }

    /// Sets the given flag bits on a method hook.
    pub fn activate_method(&self, mid: MethodId, flags: u8) {
        if let Some(f) = self.methods.get(mid.0 as usize) {
            f.fetch_or(flags, Ordering::Relaxed);
        }
    }

    /// Clears the given flag bits on a method hook.
    pub fn deactivate_method(&self, mid: MethodId, flags: u8) {
        if let Some(f) = self.methods.get(mid.0 as usize) {
            f.fetch_and(!flags, Ordering::Relaxed);
        }
    }

    /// Current flags for a field (0 if unknown).
    #[inline]
    pub fn field_flags(&self, fid: FieldId) -> u8 {
        self.fields
            .get(fid.0 as usize)
            .map_or(0, |f| f.load(Ordering::Relaxed))
    }

    /// Sets the given flag bits on a field hook.
    pub fn activate_field(&self, fid: FieldId, flags: u8) {
        if let Some(f) = self.fields.get(fid.0 as usize) {
            f.fetch_or(flags, Ordering::Relaxed);
        }
    }

    /// Clears the given flag bits on a field hook.
    pub fn deactivate_field(&self, fid: FieldId, flags: u8) {
        if let Some(f) = self.fields.get(fid.0 as usize) {
            f.fetch_and(!flags, Ordering::Relaxed);
        }
    }

    /// Current global exception-hook flags.
    #[inline]
    pub fn exception_flags(&self) -> u8 {
        self.exceptions.load(Ordering::Relaxed)
    }

    /// Sets global exception-hook flag bits.
    pub fn activate_exception(&self, flags: u8) {
        self.exceptions.fetch_or(flags, Ordering::Relaxed);
    }

    /// Clears global exception-hook flag bits.
    pub fn deactivate_exception(&self, flags: u8) {
        self.exceptions.fetch_and(!flags, Ordering::Relaxed);
    }
}

/// Outcome of a method body, as seen by exit advice. Exit advice may
/// replace the return value but cannot turn a throw into a return.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// The method returned this value.
    Returned(Value),
    /// The method threw this exception.
    Threw(VmException),
}

/// The AOP runtime's entry points, invoked from active hooks.
///
/// Implemented by PROSE's dispatcher; the VM knows nothing about aspects
/// beyond this trait. All methods receive `&mut Vm` so advice can execute
/// bytecode, allocate, and call system operations.
pub trait Dispatcher: Send + Sync {
    /// Fires before a method body runs. May mutate `args`; returning an
    /// `Err` aborts the call (used by access-control advice).
    ///
    /// # Errors
    ///
    /// Any [`VmError`]; an exception aborts the intercepted call.
    fn method_entry(
        &self,
        vm: &mut Vm,
        mid: MethodId,
        this: &Value,
        args: &mut Vec<Value>,
    ) -> Result<(), VmError>;

    /// Fires after a method body completes (normally or exceptionally).
    /// Receives the (entry-time) arguments and may replace the return
    /// value inside `outcome`.
    ///
    /// # Errors
    ///
    /// Any [`VmError`]; it replaces the method outcome.
    fn method_exit(
        &self,
        vm: &mut Vm,
        mid: MethodId,
        this: &Value,
        args: &[Value],
        outcome: &mut Outcome,
    ) -> Result<(), VmError>;

    /// Fires after a field read; may replace the observed value.
    ///
    /// # Errors
    ///
    /// Any [`VmError`]; aborts the reading method.
    fn field_get(
        &self,
        vm: &mut Vm,
        fid: FieldId,
        obj: ObjId,
        value: &mut Value,
    ) -> Result<(), VmError>;

    /// Fires before a field write; may replace the value to be written.
    ///
    /// # Errors
    ///
    /// Any [`VmError`]; aborts the writing method (vetoes the write).
    fn field_set(
        &self,
        vm: &mut Vm,
        fid: FieldId,
        obj: ObjId,
        value: &mut Value,
    ) -> Result<(), VmError>;

    /// Fires when an explicit `Throw` op raises `exc` inside `site`.
    ///
    /// # Errors
    ///
    /// Any [`VmError`]; replaces the thrown exception.
    fn exception_throw(
        &self,
        vm: &mut Vm,
        site: MethodId,
        exc: &VmException,
    ) -> Result<(), VmError>;

    /// Fires when a handler in `site` catches `exc`.
    ///
    /// # Errors
    ///
    /// Any [`VmError`]; aborts the catching method.
    fn exception_catch(
        &self,
        vm: &mut Vm,
        site: MethodId,
        exc: &VmException,
    ) -> Result<(), VmError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_flags_lifecycle() {
        let mut reg = HookRegistry::new();
        reg.ensure_method(MethodId(3));
        assert_eq!(reg.method_flags(MethodId(3)), 0);
        reg.activate_method(MethodId(3), HOOK_ENTRY);
        reg.activate_method(MethodId(3), HOOK_EXIT);
        assert_eq!(reg.method_flags(MethodId(3)), HOOK_ENTRY | HOOK_EXIT);
        reg.deactivate_method(MethodId(3), HOOK_ENTRY);
        assert_eq!(reg.method_flags(MethodId(3)), HOOK_EXIT);
    }

    #[test]
    fn unknown_ids_read_as_zero_and_ignore_writes() {
        let reg = HookRegistry::new();
        assert_eq!(reg.method_flags(MethodId(42)), 0);
        reg.activate_method(MethodId(42), HOOK_ENTRY); // no-op, no panic
        assert_eq!(reg.method_flags(MethodId(42)), 0);
    }

    #[test]
    fn field_and_exception_flags() {
        let mut reg = HookRegistry::new();
        reg.ensure_field(FieldId(0));
        reg.activate_field(FieldId(0), HOOK_SET);
        assert_eq!(reg.field_flags(FieldId(0)), HOOK_SET);
        reg.activate_exception(HOOK_THROW | HOOK_CATCH);
        reg.deactivate_exception(HOOK_THROW);
        assert_eq!(reg.exception_flags(), HOOK_CATCH);
    }
}
