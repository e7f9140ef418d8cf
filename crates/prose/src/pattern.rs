//! Crosscut pattern primitives: glob-style name patterns, type patterns,
//! and parameter-list patterns (supporting the paper's `..`/`REST`).

use pmp_vm::types::{MethodSig, TypeSig};
use std::fmt;

/// A glob pattern over a single name: literal characters plus `*`
/// matching any (possibly empty) substring.
///
/// # Examples
///
/// ```
/// use pmp_prose::pattern::NamePat;
///
/// let p = NamePat::new("send*");
/// assert!(p.matches("sendBytes"));
/// assert!(p.matches("send"));
/// assert!(!p.matches("resend"));
/// assert!(NamePat::new("*").matches("anything"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NamePat {
    raw: String,
}

impl NamePat {
    /// Creates a pattern from its textual form.
    pub fn new(pattern: impl Into<String>) -> Self {
        Self {
            raw: pattern.into(),
        }
    }

    /// The wildcard pattern `*`.
    pub fn any() -> Self {
        Self::new("*")
    }

    /// The textual form of the pattern.
    pub fn as_str(&self) -> &str {
        &self.raw
    }

    /// Returns `true` if the pattern matches every name.
    pub fn is_wildcard(&self) -> bool {
        self.raw == "*"
    }

    /// Glob match against `name`.
    pub fn matches(&self, name: &str) -> bool {
        glob_match(self.raw.as_bytes(), name.as_bytes())
    }
}

impl fmt::Display for NamePat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.raw)
    }
}

/// Iterative glob matcher (`*` only), linear in `text` with
/// backtracking bounded by the last-star trick.
fn glob_match(pat: &[u8], text: &[u8]) -> bool {
    let (mut p, mut t) = (0usize, 0usize);
    let (mut star, mut mark) = (usize::MAX, 0usize);
    while t < text.len() {
        if p < pat.len() && pat[p] != b'*' && pat[p] == text[t] {
            p += 1;
            t += 1;
        } else if p < pat.len() && pat[p] == b'*' {
            star = p;
            mark = t;
            p += 1;
        } else if star != usize::MAX {
            p = star + 1;
            mark += 1;
            t = mark;
        } else {
            return false;
        }
    }
    while p < pat.len() && pat[p] == b'*' {
        p += 1;
    }
    p == pat.len()
}

/// A pattern over one type position.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TypePat {
    /// Matches any type (`*`).
    Any,
    /// Matches exactly this type. For `Object` types, the class name is
    /// matched as a [`NamePat`], so `Motor*` works.
    Exact(TypeSig),
}

impl TypePat {
    /// Parses the textual form: `*` or a type name.
    pub fn parse(s: &str) -> Option<TypePat> {
        let s = s.trim();
        if s == "*" {
            Some(TypePat::Any)
        } else {
            TypeSig::parse(s).map(TypePat::Exact)
        }
    }

    /// Does `ty` satisfy this pattern?
    pub fn matches(&self, ty: &TypeSig) -> bool {
        match self {
            TypePat::Any => true,
            TypePat::Exact(TypeSig::Object(pat)) => match ty {
                TypeSig::Object(name) => NamePat::new(pat.as_ref()).matches(name),
                _ => false,
            },
            TypePat::Exact(t) => t == ty,
        }
    }
}

impl fmt::Display for TypePat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypePat::Any => write!(f, "*"),
            TypePat::Exact(t) => write!(f, "{t}"),
        }
    }
}

/// A pattern over a parameter list: a fixed prefix of [`TypePat`]s,
/// optionally followed by `..` (the paper's `REST`) matching any tail.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ParamsPat {
    /// Patterns for the leading parameters.
    pub prefix: Vec<TypePat>,
    /// Whether additional trailing parameters are allowed.
    pub rest: bool,
}

impl ParamsPat {
    /// Matches any parameter list (`(..)`).
    pub fn any() -> Self {
        Self {
            prefix: Vec::new(),
            rest: true,
        }
    }

    /// Matches exactly the given patterns.
    pub fn exact(prefix: Vec<TypePat>) -> Self {
        Self {
            prefix,
            rest: false,
        }
    }

    /// Does `params` satisfy this pattern?
    pub fn matches(&self, params: &[TypeSig]) -> bool {
        if self.rest {
            if params.len() < self.prefix.len() {
                return false;
            }
        } else if params.len() != self.prefix.len() {
            return false;
        }
        self.prefix
            .iter()
            .zip(params.iter())
            .all(|(p, t)| p.matches(t))
    }
}

impl fmt::Display for ParamsPat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = self.prefix.iter().map(ToString::to_string).collect();
        if self.rest {
            parts.push("..".to_string());
        }
        write!(f, "({})", parts.join(", "))
    }
}

/// A full method-signature pattern, e.g. `void *.send*(byte[], ..)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MethodPattern {
    /// Return-type pattern.
    pub ret: TypePat,
    /// Class-name pattern.
    pub class: NamePat,
    /// Method-name pattern.
    pub name: NamePat,
    /// Parameter-list pattern.
    pub params: ParamsPat,
}

impl MethodPattern {
    /// A pattern matching every method of every class.
    pub fn any() -> Self {
        Self {
            ret: TypePat::Any,
            class: NamePat::any(),
            name: NamePat::any(),
            params: ParamsPat::any(),
        }
    }

    /// A pattern matching any method of classes matching `class`
    /// (the paper's `ANYMETHOD(Motor, REST)`).
    pub fn any_method_of(class: impl Into<String>) -> Self {
        Self {
            class: NamePat::new(class),
            ..Self::any()
        }
    }

    /// Does `sig` satisfy this pattern?
    pub fn matches(&self, sig: &MethodSig) -> bool {
        self.ret.matches(&sig.ret)
            && self.class.matches(&sig.class)
            && self.name.matches(&sig.name)
            && self.params.matches(&sig.params)
    }
}

impl fmt::Display for MethodPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}.{}{}", self.ret, self.class, self.name, self.params)
    }
}

/// A field pattern: class-name and field-name globs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FieldPattern {
    /// Class-name pattern (matches the *declaring* class).
    pub class: NamePat,
    /// Field-name pattern.
    pub field: NamePat,
}

impl FieldPattern {
    /// Creates a field pattern.
    pub fn new(class: impl Into<String>, field: impl Into<String>) -> Self {
        Self {
            class: NamePat::new(class),
            field: NamePat::new(field),
        }
    }

    /// Does the named field satisfy this pattern?
    pub fn matches(&self, class: &str, field: &str) -> bool {
        self.class.matches(class) && self.field.matches(field)
    }
}

impl fmt::Display for FieldPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.class, self.field)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_telemetry::SimRng;
    use std::sync::Arc;

    fn sig(ret: TypeSig, class: &str, name: &str, params: Vec<TypeSig>) -> MethodSig {
        MethodSig {
            class: Arc::from(class),
            name: Arc::from(name),
            params,
            ret,
        }
    }

    #[test]
    fn glob_basics() {
        assert!(NamePat::new("send").matches("send"));
        assert!(!NamePat::new("send").matches("sendX"));
        assert!(NamePat::new("send*").matches("sendBytes"));
        assert!(NamePat::new("*send*").matches("resendAll"));
        assert!(NamePat::new("*or").matches("Motor"));
        assert!(NamePat::new("M*t*r").matches("Motor"));
        assert!(!NamePat::new("M*t*r").matches("Sensor"));
        assert!(NamePat::new("*").matches(""));
        assert!(NamePat::new("").matches(""));
        assert!(!NamePat::new("").matches("x"));
    }

    #[test]
    fn paper_example_pattern() {
        // before methods-with-signature 'void *.send*(byte[], ..)'
        let p = MethodPattern {
            ret: TypePat::Exact(TypeSig::Void),
            class: NamePat::any(),
            name: NamePat::new("send*"),
            params: ParamsPat {
                prefix: vec![TypePat::Exact(TypeSig::Bytes)],
                rest: true,
            },
        };
        assert!(p.matches(&sig(
            TypeSig::Void,
            "Radio",
            "sendPacket",
            vec![TypeSig::Bytes, TypeSig::Int]
        )));
        assert!(p.matches(&sig(TypeSig::Void, "Port", "send", vec![TypeSig::Bytes])));
        // wrong first param
        assert!(!p.matches(&sig(TypeSig::Void, "Port", "send", vec![TypeSig::Int])));
        // no params at all
        assert!(!p.matches(&sig(TypeSig::Void, "Port", "send", vec![])));
        // wrong return type
        assert!(!p.matches(&sig(
            TypeSig::Int,
            "Port",
            "send",
            vec![TypeSig::Bytes]
        )));
        // wrong name
        assert!(!p.matches(&sig(
            TypeSig::Void,
            "Port",
            "transmit",
            vec![TypeSig::Bytes]
        )));
    }

    #[test]
    fn any_method_of_class() {
        let p = MethodPattern::any_method_of("Motor");
        assert!(p.matches(&sig(TypeSig::Void, "Motor", "rotate", vec![TypeSig::Int])));
        assert!(p.matches(&sig(TypeSig::Int, "Motor", "position", vec![])));
        assert!(!p.matches(&sig(TypeSig::Void, "Sensor", "read", vec![])));
    }

    #[test]
    fn object_type_patterns_glob_class_names() {
        let p = TypePat::Exact(TypeSig::object("Motor*"));
        assert!(p.matches(&TypeSig::object("MotorProxy")));
        assert!(!p.matches(&TypeSig::object("Sensor")));
        assert!(!p.matches(&TypeSig::Int));
    }

    #[test]
    fn params_exact_vs_rest() {
        let exact = ParamsPat::exact(vec![TypePat::Exact(TypeSig::Int)]);
        assert!(exact.matches(&[TypeSig::Int]));
        assert!(!exact.matches(&[TypeSig::Int, TypeSig::Int]));
        assert!(!exact.matches(&[]));
        let rest = ParamsPat {
            prefix: vec![TypePat::Exact(TypeSig::Int)],
            rest: true,
        };
        assert!(rest.matches(&[TypeSig::Int]));
        assert!(rest.matches(&[TypeSig::Int, TypeSig::Str]));
        assert!(!rest.matches(&[]));
    }

    #[test]
    fn field_pattern() {
        let p = FieldPattern::new("Motor", "*");
        assert!(p.matches("Motor", "position"));
        assert!(!p.matches("Sensor", "position"));
    }

    #[test]
    fn display_roundtrip_shape() {
        let p = MethodPattern {
            ret: TypePat::Exact(TypeSig::Void),
            class: NamePat::any(),
            name: NamePat::new("send*"),
            params: ParamsPat {
                prefix: vec![TypePat::Exact(TypeSig::Bytes)],
                rest: true,
            },
        };
        assert_eq!(p.to_string(), "void *.send*(byte[], ..)");
    }

    /// Cases per seeded property below.
    const CASES: u64 = 256;

    /// A name over `[a-z]`, 1–20 chars.
    fn lower_name(rng: &mut SimRng) -> String {
        (0..1 + rng.below(20))
            .map(|_| char::from(b'a' + rng.below(26) as u8))
            .collect()
    }

    #[test]
    fn prop_literal_patterns_match_themselves() {
        for seed in 0..CASES {
            let name = SimRng::new(seed).string(0..21).replace('*', "");
            assert!(
                NamePat::new(name.clone()).matches(&name),
                "seed {seed}: {name:?}"
            );
        }
    }

    #[test]
    fn prop_wildcard_matches_everything() {
        for seed in 0..CASES {
            let name = SimRng::new(seed).string(0..41);
            assert!(NamePat::any().matches(&name), "seed {seed}: {name:?}");
        }
    }

    #[test]
    fn prop_star_prefix_suffix() {
        for seed in 0..CASES {
            let name = lower_name(&mut SimRng::new(seed));
            for pat in [format!("{name}*"), format!("*{name}"), format!("*{name}*")] {
                assert!(
                    NamePat::new(pat.clone()).matches(&name),
                    "seed {seed}: {pat}"
                );
            }
        }
    }

    /// Globs over any Unicode, with `*`s between multi-byte chars.
    #[test]
    fn prop_glob_never_panics() {
        for seed in 0..CASES {
            let mut rng = SimRng::new(seed);
            let pat: String = (0..rng.below(21))
                .map(|_| {
                    if rng.chance(0.3) {
                        "*".to_string()
                    } else {
                        rng.string(1..2)
                    }
                })
                .collect();
            let text = rng.string(0..41);
            let glob = std::panic::catch_unwind(|| NamePat::new(pat.as_str()).matches(&text));
            assert!(glob.is_ok(), "seed {seed}: {pat:?} on {text:?} panicked");
        }
    }
}
