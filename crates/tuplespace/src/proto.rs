//! The tuple-space wire protocol, on the `"tuplespace"` channel.

use crate::tuple::{Pattern, Tuple};
use pmp_wire::wire_enum;

/// Channel name for tuple-space traffic.
pub const CHANNEL: &str = "tuplespace";

/// A tuple-space protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum SpaceMsg {
    /// Client → space: deposit a tuple (Linda `out`).
    Out {
        /// The tuple.
        tuple: Tuple,
    },
    /// Client → space: non-destructive read (Linda `rd`, non-blocking
    /// variant — replies immediately with a match or none).
    Rd {
        /// The template.
        pattern: Pattern,
        /// Correlation id.
        req: u64,
    },
    /// Client → space: destructive take (Linda `in`, non-blocking).
    In {
        /// The template.
        pattern: Pattern,
        /// Correlation id.
        req: u64,
    },
    /// Space → client: result of `Rd`/`In`.
    Result {
        /// Echoed correlation id.
        req: u64,
        /// The matched tuple, if any.
        tuple: Option<Tuple>,
    },
    /// Client → space: subscribe; every current *and future* matching
    /// tuple is pushed as [`SpaceMsg::Notify`]. This is the reactive
    /// primitive that makes distribution proactive.
    Subscribe {
        /// The template.
        pattern: Pattern,
        /// Subscription id (client-chosen).
        sub: u64,
    },
    /// Client → space: cancel a subscription.
    Unsubscribe {
        /// The subscription id.
        sub: u64,
    },
    /// Space → client: a tuple matching subscription `sub`.
    Notify {
        /// The subscription id.
        sub: u64,
        /// The matching tuple (a copy; the tuple stays in the space).
        tuple: Tuple,
    },
}

wire_enum!(SpaceMsg {
    0 => Out { tuple: Tuple },
    1 => Rd { pattern: Pattern, req: u64 },
    2 => In { pattern: Pattern, req: u64 },
    3 => Result { req: u64, tuple: Option<Tuple> },
    4 => Subscribe { pattern: Pattern, sub: u64 },
    5 => Unsubscribe { sub: u64 },
    6 => Notify { sub: u64, tuple: Tuple },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::PatternField;

    #[test]
    fn roundtrip_all_variants() {
        let tuple = Tuple::new(vec!["ext".into(), 1i64.into()]);
        let pattern = Pattern::new(vec![PatternField::Any, PatternField::AnyInt]);
        let msgs = vec![
            SpaceMsg::Out {
                tuple: tuple.clone(),
            },
            SpaceMsg::Rd {
                pattern: pattern.clone(),
                req: 1,
            },
            SpaceMsg::In {
                pattern: pattern.clone(),
                req: 2,
            },
            SpaceMsg::Result {
                req: 1,
                tuple: Some(tuple.clone()),
            },
            SpaceMsg::Result { req: 2, tuple: None },
            SpaceMsg::Subscribe { pattern, sub: 7 },
            SpaceMsg::Unsubscribe { sub: 7 },
            SpaceMsg::Notify { sub: 7, tuple },
        ];
        for m in msgs {
            let bytes = pmp_wire::to_bytes(&m);
            assert_eq!(pmp_wire::from_bytes::<SpaceMsg>(&bytes).unwrap(), m);
        }
    }
}
