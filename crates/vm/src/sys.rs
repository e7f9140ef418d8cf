//! The permission-checked system interface.
//!
//! Everything side-effecting that VM code (and therefore *advice* code)
//! can do goes through a named system operation gated by a
//! [`Permission`]. This is the enforcement point of the PROSE sandbox:
//! the hosting application runs with all permissions, while advice runs
//! with whatever its extension package was granted.

use crate::error::{exception_class, VmError};
use crate::perm::Permission;
use crate::value::Value;
use crate::vm::Vm;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Implementation of a system operation.
pub type SysFn = Arc<dyn Fn(&mut Vm, Vec<Value>) -> Result<Value, VmError> + Send + Sync>;

pub(crate) struct SysEntry {
    pub(crate) name: Arc<str>,
    pub(crate) perm: Option<Permission>,
    pub(crate) f: SysFn,
}

impl fmt::Debug for SysEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SysEntry({}, perm={:?})", self.name, self.perm)
    }
}

/// Registry of named system operations.
#[derive(Debug, Default)]
pub struct SysRegistry {
    by_name: BTreeMap<Arc<str>, u32>,
    entries: Vec<SysEntry>,
}

impl SysRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a system operation guarded by `perm`
    /// (`None` means unguarded). Returns its dense index.
    pub fn register(
        &mut self,
        name: impl AsRef<str>,
        perm: Option<Permission>,
        f: SysFn,
    ) -> u32 {
        let name: Arc<str> = Arc::from(name.as_ref());
        if let Some(&idx) = self.by_name.get(&name) {
            self.entries[idx as usize] = SysEntry {
                name: name.clone(),
                perm,
                f,
            };
            return idx;
        }
        let idx = self.entries.len() as u32;
        self.entries.push(SysEntry {
            name: name.clone(),
            perm,
            f,
        });
        self.by_name.insert(name, idx);
        idx
    }

    /// Resolves a name to its index.
    pub fn lookup(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// The permission guarding an operation.
    pub fn perm_of(&self, idx: u32) -> Option<Permission> {
        self.entries.get(idx as usize).and_then(|e| e.perm)
    }

    /// The name of an operation.
    pub fn name_of(&self, idx: u32) -> Option<Arc<str>> {
        self.entries.get(idx as usize).map(|e| e.name.clone())
    }

    pub(crate) fn entry(&self, idx: u32) -> Option<(&SysEntry, SysFn)> {
        self.entries
            .get(idx as usize)
            .map(|e| (e, e.f.clone()))
    }

    /// Number of registered operations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no operation is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Builds the `SecurityException` raised when an operation is attempted
/// without its permission.
pub fn security_violation(op: &str, perm: Permission) -> VmError {
    VmError::exception(
        exception_class::SECURITY,
        format!("operation {op:?} requires permission {perm}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut reg = SysRegistry::new();
        let idx = reg.register("print", Some(Permission::Print), Arc::new(|_, _| Ok(Value::Null)));
        assert_eq!(reg.lookup("print"), Some(idx));
        assert_eq!(reg.perm_of(idx), Some(Permission::Print));
        assert_eq!(reg.name_of(idx).unwrap().as_ref(), "print");
        assert_eq!(reg.lookup("missing"), None);
    }

    #[test]
    fn replace_keeps_index() {
        let mut reg = SysRegistry::new();
        let a = reg.register("op", None, Arc::new(|_, _| Ok(Value::Int(1))));
        let b = reg.register("op", Some(Permission::Net), Arc::new(|_, _| Ok(Value::Int(2))));
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.perm_of(a), Some(Permission::Net));
    }

    #[test]
    fn violation_is_security_exception() {
        let err = security_violation("net.send", Permission::Net);
        assert_eq!(
            err.as_exception().unwrap().class.as_ref(),
            exception_class::SECURITY
        );
    }
}
