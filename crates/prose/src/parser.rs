//! Parser for the textual crosscut language.
//!
//! Method-signature patterns follow the paper's examples:
//!
//! ```text
//! void *.send*(byte[], ..)
//! * Motor.*(..)
//! int Math.abs(int)
//! ```
//!
//! Grammar (whitespace-insensitive around tokens):
//!
//! ```text
//! method-pattern ::= type-pat class-pat '.' name-pat '(' params ')'
//! params         ::= ''
//!                  | '..'                       (any parameters — REST)
//!                  | type-pat (',' type-pat)* (',' '..')?
//! field-pattern  ::= class-pat '.' name-pat
//! type-pat       ::= '*' | type-name
//! ```

use crate::pattern::{FieldPattern, MethodPattern, NamePat, ParamsPat, TypePat};
use std::fmt;

/// Error produced when a pattern string cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePatternError {
    /// The offending input.
    pub input: String,
    /// What went wrong.
    pub reason: String,
}

impl ParsePatternError {
    fn new(input: &str, reason: impl Into<String>) -> Self {
        Self {
            input: input.to_string(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ParsePatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot parse pattern {:?}: {}", self.input, self.reason)
    }
}

impl std::error::Error for ParsePatternError {}

/// Parses a method-signature pattern like `void *.send*(byte[], ..)`.
///
/// # Errors
///
/// [`ParsePatternError`] describing the malformed part.
///
/// # Examples
///
/// ```
/// use pmp_prose::parser::parse_method_pattern;
///
/// let p = parse_method_pattern("void *.send*(byte[], ..)").unwrap();
/// assert_eq!(p.to_string(), "void *.send*(byte[], ..)");
/// ```
pub fn parse_method_pattern(input: &str) -> Result<MethodPattern, ParsePatternError> {
    let s = input.trim();
    let open = s
        .find('(')
        .ok_or_else(|| ParsePatternError::new(input, "missing '('"))?;
    if !s.ends_with(')') {
        return Err(ParsePatternError::new(input, "missing trailing ')'"));
    }
    let head = s[..open].trim();
    let params_src = &s[open + 1..s.len() - 1];

    // Head: "<ret> <class>.<name>" where ret is a single token and the
    // class/name part is the last whitespace-separated token.
    let (ret_src, target_src) = match head.rsplit_once(char::is_whitespace) {
        Some((ret, target)) => (ret.trim(), target.trim()),
        None => return Err(ParsePatternError::new(input, "expected 'ret Class.name'")),
    };
    if ret_src.is_empty() || ret_src.contains(char::is_whitespace) {
        return Err(ParsePatternError::new(input, "malformed return type"));
    }
    let ret = TypePat::parse(ret_src)
        .ok_or_else(|| ParsePatternError::new(input, "empty return type"))?;

    let (class_src, name_src) = target_src
        .rsplit_once('.')
        .ok_or_else(|| ParsePatternError::new(input, "expected 'Class.name'"))?;
    if class_src.is_empty() || name_src.is_empty() {
        return Err(ParsePatternError::new(input, "empty class or method name"));
    }

    let params = parse_params(input, params_src)?;
    Ok(MethodPattern {
        ret,
        class: NamePat::new(class_src),
        name: NamePat::new(name_src),
        params,
    })
}

fn parse_params(input: &str, src: &str) -> Result<ParamsPat, ParsePatternError> {
    let src = src.trim();
    if src.is_empty() {
        return Ok(ParamsPat::exact(Vec::new()));
    }
    let mut prefix = Vec::new();
    let mut rest = false;
    let parts: Vec<&str> = src.split(',').map(str::trim).collect();
    for (i, part) in parts.iter().enumerate() {
        if *part == ".." || part.eq_ignore_ascii_case("rest") {
            if i != parts.len() - 1 {
                return Err(ParsePatternError::new(input, "'..' must be last"));
            }
            rest = true;
        } else {
            let pat = TypePat::parse(part)
                .ok_or_else(|| ParsePatternError::new(input, "empty parameter type"))?;
            prefix.push(pat);
        }
    }
    Ok(ParamsPat { prefix, rest })
}

/// Parses a field pattern like `Motor.position` or `*.state`.
///
/// # Errors
///
/// [`ParsePatternError`] if the `Class.field` shape is missing.
pub fn parse_field_pattern(input: &str) -> Result<FieldPattern, ParsePatternError> {
    let s = input.trim();
    let (class, field) = s
        .rsplit_once('.')
        .ok_or_else(|| ParsePatternError::new(input, "expected 'Class.field'"))?;
    if class.is_empty() || field.is_empty() {
        return Err(ParsePatternError::new(input, "empty class or field name"));
    }
    Ok(FieldPattern::new(class, field))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_telemetry::SimRng;
    use pmp_vm::types::TypeSig;

    #[test]
    fn parses_paper_example() {
        let p = parse_method_pattern("void *.send*(byte[], ..)").unwrap();
        assert_eq!(p.ret, TypePat::Exact(TypeSig::Void));
        assert!(p.class.is_wildcard());
        assert_eq!(p.name.as_str(), "send*");
        assert_eq!(p.params.prefix.len(), 1);
        assert!(p.params.rest);
    }

    #[test]
    fn parses_any_method_any_params() {
        let p = parse_method_pattern("* Motor.*(..)").unwrap();
        assert_eq!(p.ret, TypePat::Any);
        assert_eq!(p.class.as_str(), "Motor");
        assert!(p.name.is_wildcard());
        assert!(p.params.rest);
        assert!(p.params.prefix.is_empty());
    }

    #[test]
    fn parses_exact_signature() {
        let p = parse_method_pattern("int Math.abs(int)").unwrap();
        assert_eq!(p.ret, TypePat::Exact(TypeSig::Int));
        assert!(!p.params.rest);
        assert_eq!(p.params.prefix, vec![TypePat::Exact(TypeSig::Int)]);
    }

    #[test]
    fn parses_empty_params() {
        let p = parse_method_pattern("void A.f()").unwrap();
        assert!(!p.params.rest);
        assert!(p.params.prefix.is_empty());
    }

    #[test]
    fn parses_rest_keyword() {
        let p = parse_method_pattern("* *.ANYMETHOD(Motor, REST)").unwrap();
        assert!(p.params.rest);
        assert_eq!(p.params.prefix.len(), 1);
    }

    #[test]
    fn display_roundtrip() {
        for src in [
            "void *.send*(byte[], ..)",
            "* Motor.*(..)",
            "int Math.abs(int)",
            "void A.f()",
        ] {
            let p = parse_method_pattern(src).unwrap();
            let back = parse_method_pattern(&p.to_string()).unwrap();
            assert_eq!(p, back, "{src}");
        }
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "void",
            "void f()",             // no class
            "void A.f(",            // unclosed
            "void A.f(..,int)",     // rest not last
            "A.f()",                // no return type
            "void .f()",            // empty class
            "void A.()",            // empty name
            "void A.f(,)",          // empty param
        ] {
            assert!(parse_method_pattern(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn field_patterns() {
        let p = parse_field_pattern("Motor.pos*").unwrap();
        assert!(p.matches("Motor", "position"));
        assert!(parse_field_pattern("justaname").is_err());
        assert!(parse_field_pattern(".x").is_err());
    }

    /// Cases per seeded property below.
    const CASES: u64 = 256;

    const UPPER: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ";
    const LETTERS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
    const IDENT: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_";

    /// One char from `first`, then up to six from `rest`.
    fn word(rng: &mut SimRng, first: &[u8], rest: &[u8]) -> String {
        let mut w = String::from(char::from(*rng.pick(first)));
        w.extend((0..rng.below(7)).map(|_| char::from(*rng.pick(rest))));
        w
    }

    /// A primitive type, `*`, or a class name.
    fn type_name(rng: &mut SimRng) -> String {
        const PRIMS: &[&str] = &["void", "int", "bool", "float", "str", "byte[]", "any", "*"];
        if rng.chance(0.5) {
            rng.pick(PRIMS).to_string()
        } else {
            word(rng, UPPER, &IDENT[..62])
        }
    }

    /// `*`, or an identifier with optional stars around it.
    fn name_pat(rng: &mut SimRng) -> String {
        if rng.below(5) == 0 {
            return "*".into();
        }
        let star = |rng: &mut SimRng| if rng.chance(0.5) { "*" } else { "" };
        format!("{}{}{}", star(rng), word(rng, LETTERS, IDENT), star(rng))
    }

    /// The source of a valid method pattern.
    fn method_src(rng: &mut SimRng) -> String {
        let mut params: Vec<String> = (0..rng.below(4)).map(|_| type_name(rng)).collect();
        if rng.chance(0.5) {
            params.push("..".into());
        }
        let (ret, class, name) = (type_name(rng), name_pat(rng), name_pat(rng));
        format!("{ret} {class}.{name}({})", params.join(", "))
    }

    #[test]
    fn prop_parse_display_roundtrip() {
        for seed in 0..CASES {
            let src = method_src(&mut SimRng::new(seed));
            let parsed = parse_method_pattern(&src)
                .unwrap_or_else(|e| panic!("seed {seed}: {src:?} does not parse: {e:?}"));
            let shown = parsed.to_string();
            let reparsed = parse_method_pattern(&shown)
                .unwrap_or_else(|e| panic!("seed {seed}: {shown:?} does not reparse: {e:?}"));
            assert_eq!(parsed, reparsed, "seed {seed}: {src:?}");
        }
    }

    /// Arbitrary text, or a crosscut with a stretch of it replaced.
    #[test]
    fn prop_parser_never_panics() {
        const KINDS: &[&str] = &["", "before ", "after ", "get ", "set ", "throw ", "catch "];
        for seed in 0..CASES {
            let mut rng = SimRng::new(seed);
            let s: String = if rng.chance(0.5) {
                rng.string(0..61)
            } else {
                let src = format!("{}{}", rng.pick(KINDS), method_src(&mut rng));
                let mut chars: Vec<char> = src.chars().collect();
                let at = rng.below(chars.len() + 1);
                let cut = rng.below(chars.len() - at + 1);
                chars.splice(at..at + cut, rng.string(0..4).chars());
                chars.into_iter().collect()
            };
            let parse = std::panic::catch_unwind(|| {
                let _ = parse_method_pattern(&s);
                let _ = parse_field_pattern(&s);
                let _ = crate::crosscut::Crosscut::parse(&s);
            });
            assert!(parse.is_ok(), "seed {seed}: parsing {s:?} panicked");
        }
    }
}
