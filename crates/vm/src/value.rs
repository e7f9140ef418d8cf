//! Runtime values.

use std::fmt;
use std::sync::Arc;

/// Identifier of a heap entry (object, array, or byte buffer).
///
/// Reference semantics mirror Java: copying a [`Value::Ref`] aliases the
/// same heap entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// A value manipulated by the VM: primitives, interned strings, and heap
/// references.
#[derive(Debug, Clone, PartialEq)]
#[derive(Default)]
pub enum Value {
    /// The null reference.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// An immutable interned string.
    Str(Arc<str>),
    /// A reference to a heap entry (object, array, or buffer).
    Ref(ObjId),
}

impl Value {
    /// Convenience string constructor.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Returns the integer if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float if this is a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the bool if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the string if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the heap id if this is a `Ref`.
    pub fn as_ref_id(&self) -> Option<ObjId> {
        match self {
            Value::Ref(id) => Some(*id),
            _ => None,
        }
    }

    /// Returns `true` for `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Short name of the value's runtime kind, used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
            Value::Ref(_) => "ref",
        }
    }
}


impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Ref(id) => write!(f, "{id}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl From<ObjId> for Value {
    fn from(v: ObjId) -> Self {
        Value::Ref(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Ref(ObjId(7)).as_ref_id(), Some(ObjId(7)));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Int(3).as_bool(), None);
    }

    #[test]
    fn display_and_kind() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Ref(ObjId(2)).to_string(), "@2");
        assert_eq!(Value::Int(5).kind(), "int");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(4i64), Value::Int(4));
        assert_eq!(Value::from("a"), Value::str("a"));
        assert_eq!(Value::from(true), Value::Bool(true));
    }
}
