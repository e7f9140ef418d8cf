//! Aspects as first-class values.
//!
//! An aspect is a named bundle of *(crosscut, advice)* bindings plus an
//! implementation: either native Rust closures (local use) or a portable
//! VM class whose methods are the advice bodies (the form MIDAS ships
//! over the network — see [`crate::portable`]).

use crate::advice::{AdviceBody, NativeAdviceFn};
use crate::crosscut::Crosscut;
use crate::parser::ParsePatternError;
use pmp_vm::class::ClassDef;
use pmp_vm::op::BytecodeBody;
use pmp_vm::types::TypeSig;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// One *(crosscut → advice)* binding.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Which join points the advice applies to.
    pub crosscut: Crosscut,
    /// The advice body.
    pub advice: AdviceBody,
    /// Ordering among advice at the same join point: *before* advice
    /// runs in ascending priority, *after* advice in descending
    /// priority (standard AOP nesting).
    pub priority: i32,
}

/// A portable method definition (name + signature + bytecode body).
#[derive(Debug, Clone, PartialEq)]
pub struct PortableMethod {
    /// Method name.
    pub name: String,
    /// Parameter types, in [`TypeSig`] display form.
    pub params: Vec<String>,
    /// Return type, in display form.
    pub ret: String,
    /// The body.
    pub body: BytecodeBody,
}

/// A portable class definition: what a script aspect ships as its
/// implementation (fields hold aspect state, methods hold advice bodies
/// and helpers).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PortableClass {
    /// Class name (registered in the receiver's VM on weaving).
    pub name: String,
    /// Fields as `(name, type-display-form)` pairs.
    pub fields: Vec<(String, String)>,
    /// Methods.
    pub methods: Vec<PortableMethod>,
}

impl PortableClass {
    /// Converts to a registrable [`ClassDef`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed type string.
    pub fn to_class_def(&self) -> Result<ClassDef, String> {
        let mut b = ClassDef::build(self.name.clone());
        for (name, ty) in &self.fields {
            let ty = TypeSig::parse(ty).ok_or_else(|| format!("bad field type {ty:?}"))?;
            b = b.field(name.clone(), ty);
        }
        let mut def = b.done();
        for m in &self.methods {
            let params: Result<Vec<TypeSig>, String> = m
                .params
                .iter()
                .map(|p| TypeSig::parse(p).ok_or_else(|| format!("bad param type {p:?}")))
                .collect();
            let ret = TypeSig::parse(&m.ret).ok_or_else(|| format!("bad return type {:?}", m.ret))?;
            def.methods.push(pmp_vm::class::MethodDef {
                name: m.name.clone(),
                params: params?,
                ret,
                body: pmp_vm::class::MethodBody::Bytecode(m.body.clone()),
            });
        }
        Ok(def)
    }
}

/// The implementation side of an aspect.
#[derive(Debug, Clone)]
pub enum AspectImpl {
    /// Advice bodies are Rust closures; aspect state lives in the
    /// closures' captures. Not shippable.
    Native,
    /// Advice bodies are methods of this class; an instance is created
    /// in the target VM on weaving (paper Fig. 5: `class HwMonitoring
    /// extends Aspect { ... }`). Shippable.
    Script(PortableClass),
}

/// A first-class aspect.
///
/// # Examples
///
/// A native logging aspect:
///
/// ```
/// use pmp_prose::aspect::Aspect;
///
/// let aspect = Aspect::build("logger")
///     .before("* Motor.*(..)", |ctx| {
///         if let pmp_prose::advice::JoinPoint::MethodEntry { sig, .. } = &ctx.jp {
///             println!("calling {sig}");
///         }
///         Ok(())
///     })
///     .done()
///     .unwrap();
/// assert_eq!(aspect.name, "logger");
/// assert_eq!(aspect.bindings.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Aspect {
    /// Unique (per node) aspect name.
    pub name: String,
    /// The crosscut → advice bindings.
    pub bindings: Vec<Binding>,
    /// Native or shipped-class implementation.
    pub implementation: AspectImpl,
    /// Advice run when the aspect is withdrawn (paper §3.2: extensions
    /// are notified before leaving a proactive space so that they can
    /// execute a shut-down procedure"). For script aspects this is wired
    /// automatically to an `onShutdown` method when present.
    pub shutdown: Option<AdviceBody>,
}

impl Aspect {
    /// The method name a script aspect may declare to receive shutdown
    /// notifications.
    pub const SHUTDOWN_METHOD: &'static str = "onShutdown";

    /// Starts a builder for a native aspect.
    pub fn build(name: impl Into<String>) -> AspectBuilder {
        AspectBuilder {
            name: name.into(),
            bindings: Vec::new(),
            shutdown: None,
            error: None,
        }
    }

    /// Creates a script aspect from a shipped class and bindings. If the
    /// class declares an [`Aspect::SHUTDOWN_METHOD`] method, it becomes
    /// the shutdown advice.
    pub fn script(
        name: impl Into<String>,
        class: PortableClass,
        bindings: Vec<(Crosscut, String, i32)>,
    ) -> Aspect {
        let shutdown = class
            .methods
            .iter()
            .any(|m| m.name == Self::SHUTDOWN_METHOD)
            .then(|| AdviceBody::Script {
                method: Arc::from(Self::SHUTDOWN_METHOD),
            });
        Aspect {
            name: name.into(),
            bindings: bindings
                .into_iter()
                .map(|(crosscut, method, priority)| Binding {
                    crosscut,
                    advice: AdviceBody::Script {
                        method: Arc::from(method.as_str()),
                    },
                    priority,
                })
                .collect(),
            implementation: AspectImpl::Script(class),
            shutdown,
        }
    }

    /// Returns `true` if the aspect can be serialised and shipped.
    pub fn is_portable(&self) -> bool {
        matches!(self.implementation, AspectImpl::Script(_))
    }
}

impl fmt::Display for Aspect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "aspect {} ({} bindings)", self.name, self.bindings.len())
    }
}

/// Fluent builder for native aspects.
#[derive(Debug)]
pub struct AspectBuilder {
    name: String,
    bindings: Vec<Binding>,
    shutdown: Option<AdviceBody>,
    error: Option<ParsePatternError>,
}

impl AspectBuilder {
    fn bind(mut self, crosscut_src: &str, advice: NativeAdviceFn, priority: i32) -> Self {
        if self.error.is_some() {
            return self;
        }
        match Crosscut::parse(crosscut_src) {
            Ok(crosscut) => self.bindings.push(Binding {
                crosscut,
                advice: AdviceBody::Native(advice),
                priority,
            }),
            Err(e) => self.error = Some(e),
        }
        self
    }

    /// Adds before-method advice: `pattern` is a method signature
    /// pattern like `void *.send*(byte[], ..)`.
    pub fn before<F>(self, pattern: &str, f: F) -> Self
    where
        F: for<'a, 'b> Fn(&mut crate::advice::AdviceCtx<'a, 'b>) -> Result<(), pmp_vm::VmError>
            + Send
            + Sync
            + 'static,
    {
        let src = format!("before {pattern}");
        self.bind(&src, Arc::new(f), 0)
    }

    /// Adds after-method advice.
    pub fn after<F>(self, pattern: &str, f: F) -> Self
    where
        F: for<'a, 'b> Fn(&mut crate::advice::AdviceCtx<'a, 'b>) -> Result<(), pmp_vm::VmError>
            + Send
            + Sync
            + 'static,
    {
        let src = format!("after {pattern}");
        self.bind(&src, Arc::new(f), 0)
    }

    /// Adds advice for an arbitrary crosscut in textual form
    /// (`before …`, `after …`, `get …`, `set …`, `throw …`, `catch …`)
    /// with an explicit priority.
    pub fn on<F>(self, crosscut: &str, priority: i32, f: F) -> Self
    where
        F: for<'a, 'b> Fn(&mut crate::advice::AdviceCtx<'a, 'b>) -> Result<(), pmp_vm::VmError>
            + Send
            + Sync
            + 'static,
    {
        self.bind(crosscut, Arc::new(f), priority)
    }

    /// Registers shutdown advice, run when the aspect is withdrawn.
    pub fn on_shutdown<F>(mut self, f: F) -> Self
    where
        F: for<'a, 'b> Fn(&mut crate::advice::AdviceCtx<'a, 'b>) -> Result<(), pmp_vm::VmError>
            + Send
            + Sync
            + 'static,
    {
        self.shutdown = Some(AdviceBody::Native(Arc::new(f)));
        self
    }

    /// Finishes the aspect.
    ///
    /// # Errors
    ///
    /// The first pattern-parse error encountered, if any.
    pub fn done(self) -> Result<Aspect, ParsePatternError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(Aspect {
                name: self.name,
                bindings: self.bindings,
                implementation: AspectImpl::Native,
                shutdown: self.shutdown,
            }),
        }
    }
}

/// Helper: collect the advice methods a script aspect's bindings refer
/// to, to validate they exist on the shipped class.
pub(crate) fn script_advice_methods(aspect: &Aspect) -> BTreeMap<Arc<str>, usize> {
    let mut out = BTreeMap::new();
    for b in &aspect.bindings {
        if let AdviceBody::Script { method } = &b.advice {
            *out.entry(method.clone()).or_insert(0) += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_bindings() {
        let aspect = Aspect::build("a")
            .before("* X.*(..)", |_| Ok(()))
            .after("* X.*(..)", |_| Ok(()))
            .on("set X.state", 5, |_| Ok(()))
            .done()
            .unwrap();
        assert_eq!(aspect.bindings.len(), 3);
        assert_eq!(aspect.bindings[2].priority, 5);
        assert!(!aspect.is_portable());
    }

    #[test]
    fn builder_reports_first_error() {
        let res = Aspect::build("a")
            .before("not a pattern", |_| Ok(()))
            .done();
        assert!(res.is_err());
    }

    #[test]
    fn portable_class_converts() {
        let class = PortableClass {
            name: "Mon".into(),
            fields: vec![("count".into(), "int".into())],
            methods: vec![PortableMethod {
                name: "onEntry".into(),
                params: vec!["any".into(), "str".into(), "any".into(), "any".into(), "any".into()],
                ret: "any".into(),
                body: BytecodeBody {
                    extra_locals: 0,
                    ops: vec![pmp_vm::op::Op::Ret],
                    handlers: vec![],
                },
            }],
        };
        let def = class.to_class_def().unwrap();
        assert_eq!(def.name, "Mon");
        assert_eq!(def.fields.len(), 1);
        assert_eq!(def.methods.len(), 1);
    }

    #[test]
    fn portable_class_rejects_bad_types() {
        let class = PortableClass {
            name: "Mon".into(),
            fields: vec![("x".into(), "".into())],
            methods: vec![],
        };
        assert!(class.to_class_def().is_err());
    }

    #[test]
    fn script_aspect_is_portable() {
        let aspect = Aspect::script(
            "mon",
            PortableClass {
                name: "Mon".into(),
                fields: vec![],
                methods: vec![],
            },
            vec![(Crosscut::parse("before * M.*(..)").unwrap(), "onEntry".into(), 0)],
        );
        assert!(aspect.is_portable());
        let methods = script_advice_methods(&aspect);
        assert_eq!(methods.len(), 1);
    }
}
