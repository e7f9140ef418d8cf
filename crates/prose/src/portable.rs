//! Wire form of shippable aspects.
//!
//! MIDAS distributes extensions as bytes; this module defines the
//! canonical encoding of a script aspect (its class, bindings, and
//! priorities) and the conversions to/from [`Aspect`].

use crate::aspect::{Aspect, AspectImpl, Binding, PortableClass, PortableMethod};
use crate::advice::AdviceBody;
use crate::crosscut::Crosscut;
use crate::error::ProseError;
use pmp_vm::op::BytecodeBody;
use pmp_wire::wire_struct;
use std::sync::Arc;

wire_struct!(PortableMethod {
    name: String,
    params: Vec<String>,
    ret: String,
    body: BytecodeBody,
});

wire_struct!(PortableClass {
    name: String,
    fields: Vec<(String, String)>,
    methods: Vec<PortableMethod>,
});

/// One wire-format binding: crosscut text, advice method name, priority.
#[derive(Debug, Clone, PartialEq)]
pub struct PortableBinding {
    /// The crosscut.
    pub crosscut: Crosscut,
    /// Advice method name on the aspect class.
    pub method: String,
    /// Advice ordering priority.
    pub priority: i32,
}

wire_struct!(PortableBinding {
    crosscut: Crosscut,
    method: String,
    priority: i32,
});

/// The complete wire form of a shippable aspect.
///
/// # Examples
///
/// ```
/// use pmp_prose::portable::PortableAspect;
/// use pmp_prose::aspect::{Aspect, PortableClass};
///
/// let aspect = Aspect::script("mon", PortableClass {
///     name: "Mon".into(), fields: vec![], methods: vec![],
/// }, vec![]);
/// let portable = PortableAspect::try_from(&aspect).unwrap();
/// let bytes = pmp_wire::to_bytes(&portable);
/// let back: PortableAspect = pmp_wire::from_bytes(&bytes).unwrap();
/// assert_eq!(back, portable);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PortableAspect {
    /// Aspect name.
    pub name: String,
    /// The shipped implementation class.
    pub class: PortableClass,
    /// Crosscut → advice-method bindings.
    pub bindings: Vec<PortableBinding>,
}

wire_struct!(PortableAspect {
    name: String,
    class: PortableClass,
    bindings: Vec<PortableBinding>,
});

impl TryFrom<&Aspect> for PortableAspect {
    type Error = ProseError;

    fn try_from(aspect: &Aspect) -> Result<Self, Self::Error> {
        let class = match &aspect.implementation {
            AspectImpl::Script(c) => c.clone(),
            AspectImpl::Native => return Err(ProseError::NotPortable(aspect.name.clone())),
        };
        let mut bindings = Vec::with_capacity(aspect.bindings.len());
        for b in &aspect.bindings {
            match &b.advice {
                AdviceBody::Script { method } => bindings.push(PortableBinding {
                    crosscut: b.crosscut.clone(),
                    method: method.to_string(),
                    priority: b.priority,
                }),
                AdviceBody::Native(_) => {
                    return Err(ProseError::NotPortable(aspect.name.clone()))
                }
            }
        }
        Ok(PortableAspect {
            name: aspect.name.clone(),
            class,
            bindings,
        })
    }
}

impl From<PortableAspect> for Aspect {
    fn from(p: PortableAspect) -> Self {
        let mut aspect = Aspect::script(p.name, p.class, vec![]);
        aspect.bindings = p
            .bindings
            .into_iter()
            .map(|b| Binding {
                crosscut: b.crosscut,
                advice: AdviceBody::Script {
                    method: Arc::from(b.method.as_str()),
                },
                priority: b.priority,
            })
            .collect();
        aspect
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_vm::op::Op;

    fn sample_class() -> PortableClass {
        PortableClass {
            name: "Mon".into(),
            fields: vec![("count".into(), "int".into())],
            methods: vec![
                PortableMethod {
                    name: "onEntry".into(),
                    params: vec!["any".into(), "str".into(), "any".into(), "any".into(), "any".into()],
                    ret: "any".into(),
                    body: BytecodeBody {
                        extra_locals: 0,
                        ops: vec![Op::Const(pmp_vm::op::Const::Null), Op::RetVal],
                        handlers: vec![],
                    },
                },
                PortableMethod {
                    name: Aspect::SHUTDOWN_METHOD.into(),
                    params: vec!["any".into(), "str".into(), "any".into(), "any".into(), "any".into()],
                    ret: "any".into(),
                    body: BytecodeBody {
                        extra_locals: 0,
                        ops: vec![Op::Ret],
                        handlers: vec![],
                    },
                },
            ],
        }
    }

    #[test]
    fn roundtrip_full_aspect() {
        let aspect = Aspect::script(
            "mon",
            sample_class(),
            vec![(
                Crosscut::parse("before * Motor.*(..)").unwrap(),
                "onEntry".into(),
                2,
            )],
        );
        let portable = PortableAspect::try_from(&aspect).unwrap();
        let bytes = pmp_wire::to_bytes(&portable);
        let back: PortableAspect = pmp_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, portable);

        let rebuilt: Aspect = back.into();
        assert_eq!(rebuilt.name, "mon");
        assert_eq!(rebuilt.bindings.len(), 1);
        assert_eq!(rebuilt.bindings[0].priority, 2);
        // onShutdown present on the class → shutdown advice wired.
        assert!(rebuilt.shutdown.is_some());
    }

    #[test]
    fn native_aspects_are_rejected() {
        let aspect = Aspect::build("local")
            .before("* X.*(..)", |_| Ok(()))
            .done()
            .unwrap();
        assert!(matches!(
            PortableAspect::try_from(&aspect),
            Err(ProseError::NotPortable(_))
        ));
    }

    #[test]
    fn decoding_garbage_fails_cleanly() {
        assert!(pmp_wire::from_bytes::<PortableAspect>(&[1, 2, 3]).is_err());
    }
}
