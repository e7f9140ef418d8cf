//! Tuples and patterns (Linda's generative data model).

use pmp_wire::{wire_enum, wire_struct};
use std::fmt;

/// One field of a tuple.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Field {
    /// An integer.
    Int(i64),
    /// A string.
    Str(String),
    /// Raw bytes (extension payloads travel here).
    Bytes(Vec<u8>),
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::Int(i) => write!(f, "{i}"),
            Field::Str(s) => write!(f, "{s:?}"),
            Field::Bytes(b) => write!(f, "<{} bytes>", b.len()),
        }
    }
}

impl From<i64> for Field {
    fn from(v: i64) -> Self {
        Field::Int(v)
    }
}
impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::Str(v.to_string())
    }
}
impl From<Vec<u8>> for Field {
    fn from(v: Vec<u8>) -> Self {
        Field::Bytes(v)
    }
}

wire_enum!(Field {
    0 => Int(i64),
    1 => Str(String),
    2 => Bytes(Vec<u8>),
});

/// An ordered tuple of fields.
///
/// # Examples
///
/// ```
/// use pmp_tuplespace::{Tuple, Field};
///
/// let t = Tuple::new(vec!["ext".into(), "monitoring".into(), 1i64.into()]);
/// assert_eq!(t.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Tuple {
    fields: Vec<Field>,
}

impl Tuple {
    /// Creates a tuple.
    pub fn new(fields: Vec<Field>) -> Self {
        Self { fields }
    }

    /// The fields.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Returns `true` for the empty tuple.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The `i`-th field.
    pub fn get(&self, i: usize) -> Option<&Field> {
        self.fields.get(i)
    }
}

wire_struct!(Tuple { fields: Vec<Field> });

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{field}")?;
        }
        write!(f, ")")
    }
}

/// One position of a pattern (Linda's formal/actual distinction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternField {
    /// Matches any field (a *formal*).
    Any,
    /// Matches a field equal to this one (an *actual*).
    Exact(Field),
    /// Matches any string field (typed formal).
    AnyStr,
    /// Matches any integer field (typed formal).
    AnyInt,
    /// Matches any bytes field (typed formal).
    AnyBytes,
}

impl PatternField {
    fn matches(&self, field: &Field) -> bool {
        match self {
            PatternField::Any => true,
            PatternField::Exact(f) => f == field,
            PatternField::AnyStr => matches!(field, Field::Str(_)),
            PatternField::AnyInt => matches!(field, Field::Int(_)),
            PatternField::AnyBytes => matches!(field, Field::Bytes(_)),
        }
    }
}

wire_enum!(PatternField {
    0 => Any,
    1 => Exact(Field),
    2 => AnyStr,
    3 => AnyInt,
    4 => AnyBytes,
});

/// A tuple template: same arity, each position matching.
///
/// # Examples
///
/// ```
/// use pmp_tuplespace::{Pattern, PatternField, Tuple, Field};
///
/// let p = Pattern::new(vec![
///     PatternField::Exact("ext".into()),
///     PatternField::AnyStr,
///     PatternField::AnyBytes,
/// ]);
/// let t = Tuple::new(vec!["ext".into(), "monitoring".into(), vec![1u8].into()]);
/// assert!(p.matches(&t));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Pattern {
    fields: Vec<PatternField>,
}

impl Pattern {
    /// Creates a pattern.
    pub fn new(fields: Vec<PatternField>) -> Self {
        Self { fields }
    }

    /// The positions.
    pub fn fields(&self) -> &[PatternField] {
        &self.fields
    }

    /// Does `tuple` match (same arity, every position satisfied)?
    pub fn matches(&self, tuple: &Tuple) -> bool {
        self.fields.len() == tuple.len()
            && self
                .fields
                .iter()
                .zip(tuple.fields())
                .all(|(p, f)| p.matches(f))
    }
}

wire_struct!(Pattern { fields: Vec<PatternField> });

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_telemetry::SimRng;

    fn t(fields: Vec<Field>) -> Tuple {
        Tuple::new(fields)
    }

    #[test]
    fn exact_and_formal_matching() {
        let p = Pattern::new(vec![
            PatternField::Exact("ext".into()),
            PatternField::AnyStr,
            PatternField::AnyInt,
        ]);
        assert!(p.matches(&t(vec!["ext".into(), "mon".into(), 3i64.into()])));
        assert!(!p.matches(&t(vec!["other".into(), "mon".into(), 3i64.into()])));
        assert!(!p.matches(&t(vec!["ext".into(), 5i64.into(), 3i64.into()])), "typed formal");
        assert!(!p.matches(&t(vec!["ext".into(), "mon".into()])), "arity");
    }

    #[test]
    fn any_matches_every_kind() {
        let p = Pattern::new(vec![PatternField::Any]);
        assert!(p.matches(&t(vec![1i64.into()])));
        assert!(p.matches(&t(vec!["s".into()])));
        assert!(p.matches(&t(vec![vec![1u8, 2].into()])));
    }

    #[test]
    fn wire_roundtrips() {
        let tuple = t(vec!["ext".into(), 9i64.into(), vec![1u8, 2, 3].into()]);
        let bytes = pmp_wire::to_bytes(&tuple);
        assert_eq!(pmp_wire::from_bytes::<Tuple>(&bytes).unwrap(), tuple);
        let p = Pattern::new(vec![
            PatternField::Any,
            PatternField::Exact(Field::Int(2)),
            PatternField::AnyBytes,
        ]);
        let bytes = pmp_wire::to_bytes(&p);
        assert_eq!(pmp_wire::from_bytes::<Pattern>(&bytes).unwrap(), p);
    }

    #[test]
    fn prop_exact_pattern_matches_own_tuple() {
        for seed in 0..256 {
            let mut rng = SimRng::new(seed);
            let ints: Vec<i64> = (0..rng.below(6)).map(|_| rng.any_i64()).collect();
            let tuple = Tuple::new(ints.iter().map(|i| Field::Int(*i)).collect());
            let exact = ints.iter().map(|i| PatternField::Exact(Field::Int(*i)));
            assert!(
                Pattern::new(exact.collect()).matches(&tuple),
                "seed {seed}: {ints:?}"
            );
            // All-formals of the right arity matches too.
            let formals = Pattern::new(ints.iter().map(|_| PatternField::Any).collect());
            assert!(formals.matches(&tuple), "seed {seed}: {ints:?}");
        }
    }
}
