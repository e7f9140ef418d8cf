//! The weaver: the public PROSE API for attaching the AOP runtime to a
//! VM and weaving/unweaving aspects at run time.

use crate::advice::{AdviceBody, JoinPoint};
use crate::aspect::{Aspect, AspectImpl};
use crate::error::ProseError;
use crate::handle::{AspectId, AspectInfo};
use crate::runtime::{advice_exec, AdviceRef, AspectRt, ErrorPolicy, ProseRuntime, Woven};
use pmp_telemetry::{Stopwatch, Subsystem};
use pmp_vm::perm::Permissions;
use pmp_vm::value::Value;
use pmp_vm::vm::Vm;
use std::sync::Arc;

/// Default fuel budget for script advice: generous for real extensions,
/// finite so hostile loops cannot wedge the node.
pub const DEFAULT_SCRIPT_FUEL: u64 = 1_000_000;

/// Options controlling how an aspect is woven.
#[derive(Debug, Clone, Copy)]
pub struct WeaveOptions {
    /// Permissions advice runs with (the sandbox).
    pub perms: Permissions,
    /// Fuel budget per advice execution (`None` = unlimited; script
    /// aspects received from the network should always be limited).
    pub fuel: Option<u64>,
    /// What happens when advice fails.
    pub policy: ErrorPolicy,
}

impl Default for WeaveOptions {
    fn default() -> Self {
        Self {
            perms: Permissions::all(),
            fuel: None,
            policy: ErrorPolicy::Propagate,
        }
    }
}

impl WeaveOptions {
    /// Options appropriate for a foreign (network-received) extension:
    /// explicit permissions, finite fuel, propagate errors.
    pub fn sandboxed(perms: Permissions) -> Self {
        Self {
            perms,
            fuel: Some(DEFAULT_SCRIPT_FUEL),
            policy: ErrorPolicy::Propagate,
        }
    }
}

/// The PROSE weaver attached to one VM.
///
/// # Examples
///
/// ```
/// use pmp_prose::prelude::*;
/// use pmp_vm::prelude::*;
/// use std::sync::atomic::{AtomicU32, Ordering};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut vm = Vm::new(VmConfig::default());
/// vm.register_class(
///     ClassDef::build("Motor")
///         .method("rotate", [TypeSig::Int], TypeSig::Void, |b| { b.op(Op::Ret); })
///         .done(),
/// )?;
/// let prose = Prose::attach(&mut vm);
///
/// let hits = Arc::new(AtomicU32::new(0));
/// let h = hits.clone();
/// let aspect = Aspect::build("count")
///     .before("* Motor.*(..)", move |_ctx| {
///         h.fetch_add(1, Ordering::SeqCst);
///         Ok(())
///     })
///     .done()?;
/// let id = prose.weave(&mut vm, aspect, WeaveOptions::default())?;
///
/// let motor = vm.new_object("Motor")?;
/// vm.call("Motor", "rotate", motor, vec![Value::Int(30)])?;
/// assert_eq!(hits.load(Ordering::SeqCst), 1);
///
/// prose.unweave(&mut vm, id, "done")?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Prose {
    pub(crate) rt: Arc<ProseRuntime>,
}

impl Prose {
    /// Creates a runtime and installs it as `vm`'s dispatcher.
    pub fn attach(vm: &mut Vm) -> Prose {
        let rt = Arc::new(ProseRuntime::new());
        vm.set_dispatcher(rt.clone());
        Prose { rt }
    }

    /// Weaves `aspect` into `vm`, returning its id.
    ///
    /// For script aspects this registers the shipped class (rejecting
    /// collisions with application classes), validates the advice
    /// methods (4-parameter convention), instantiates the aspect
    /// object, and runs its `init` method if present — all under the
    /// aspect's sandbox.
    ///
    /// # Errors
    ///
    /// [`ProseError`] on malformed aspects or VM failures.
    pub fn weave(
        &self,
        vm: &mut Vm,
        aspect: Aspect,
        opts: WeaveOptions,
    ) -> Result<AspectId, ProseError> {
        let name = aspect.name.clone();
        let watch = Stopwatch::start();
        let result = self.weave_inner(vm, aspect, opts);
        self.record_op(vm, "prose.weave.latency_ns", watch, "prose.weave", &name);
        result
    }

    fn weave_inner(
        &self,
        vm: &mut Vm,
        aspect: Aspect,
        opts: WeaveOptions,
    ) -> Result<AspectId, ProseError> {
        let (instance, class_name) = match &aspect.implementation {
            AspectImpl::Native => (Value::Null, None),
            AspectImpl::Script(class) => {
                let def = class
                    .to_class_def()
                    .map_err(ProseError::BadAspectClass)?;
                // Validate advice methods (including shutdown).
                let mut required: Vec<String> = crate::aspect::script_advice_methods(&aspect)
                    .keys()
                    .map(ToString::to_string)
                    .collect();
                if let Some(AdviceBody::Script { method }) = &aspect.shutdown {
                    required.push(method.to_string());
                }
                for name in required {
                    let ok = def
                        .methods
                        .iter()
                        .any(|m| m.name == name && m.params.len() == 5);
                    if !ok {
                        return Err(ProseError::MissingAdviceMethod {
                            class: class.name.clone(),
                            method: name,
                        });
                    }
                }
                // Register the class (reuse if we registered it before).
                let already_ours = self
                    .rt
                    .state
                    .lock()
                    .registered_classes
                    .contains(&class.name);
                if vm.class_id(&class.name).is_some() {
                    if !already_ours {
                        return Err(ProseError::ClassCollision(class.name.clone()));
                    }
                } else {
                    vm.register_class(def)?;
                    self.rt
                        .state
                        .lock()
                        .registered_classes
                        .insert(class.name.clone());
                }
                let instance = vm.new_object(&class.name)?;
                (instance, Some(Arc::<str>::from(class.name.as_str())))
            }
        };

        let id = {
            let mut s = self.rt.state.lock();
            let id = AspectId(s.next_id);
            s.next_id += 1;
            id
        };

        // Run the optional init method under the sandbox.
        if let Some(class) = &class_name {
            if let Some(init_mid) = vm.method_id(class, "init") {
                if vm.method_sig(init_mid).params.is_empty() {
                    let scope = vm.begin_advice(opts.perms, opts.fuel);
                    let r = vm.invoke(init_mid, instance.clone(), vec![]);
                    vm.end_advice(scope);
                    if let Err(e) = r {
                        // Failed init: the aspect is never added, but the
                        // others still advise the class it registered.
                        self.rt.state.lock().catch_up(vm);
                        return Err(ProseError::Vm(e));
                    }
                }
            }
        }

        let rt = Arc::new(AspectRt {
            id,
            name: aspect.name.clone(),
            perms: opts.perms,
            fuel: opts.fuel,
            policy: opts.policy,
            instance,
            class: class_name,
        });
        self.rt.state.lock().install(
            vm,
            Woven {
                rt,
                aspect,
                sites: Vec::new(),
            },
        );
        Ok(id)
    }

    /// Unweaves an aspect: notifies its shutdown advice with `reason`,
    /// removes its advice from all tables, and deactivates hooks no
    /// longer needed.
    ///
    /// # Errors
    ///
    /// [`ProseError::UnknownAspect`] if the id is not woven.
    pub fn unweave(&self, vm: &mut Vm, id: AspectId, reason: &str) -> Result<(), ProseError> {
        let watch = Stopwatch::start();
        let result = self.unweave_inner(vm, id, reason);
        self.record_op(vm, "prose.unweave.latency_ns", watch, "prose.unweave", reason);
        result
    }

    fn unweave_inner(&self, vm: &mut Vm, id: AspectId, reason: &str) -> Result<(), ProseError> {
        let woven = self
            .rt
            .state
            .lock()
            .woven
            .remove(&id.0)
            .ok_or(ProseError::UnknownAspect(id))?;
        // Shutdown notification (paper §3.2) — best-effort: a failing
        // shutdown handler cannot block revocation.
        if let Some(body) = &woven.aspect.shutdown {
            let aref = AdviceRef {
                aspect: woven.rt.clone(),
                exec: advice_exec(vm, &woven.rt, body),
                priority: 0,
            };
            let jp = JoinPoint::Shutdown {
                reason: reason.to_string(),
            };
            if let Err(e) = self.rt.run_advice(vm, &aref, jp) {
                self.rt
                    .state
                    .lock()
                    .faults
                    .push(format!("aspect {} shutdown: {e}", woven.rt.name));
            }
        }
        let mut s = self.rt.state.lock();
        s.catch_up(vm);
        s.remove(vm, id, &woven.sites);
        Ok(())
    }

    /// Unweaves every aspect (e.g. when a node leaves all proactive
    /// spaces).
    pub fn unweave_all(&self, vm: &mut Vm, reason: &str) {
        let ids: Vec<AspectId> = {
            let s = self.rt.state.lock();
            s.woven.keys().map(|k| AspectId(*k)).collect()
        };
        for id in ids {
            let _ = self.unweave(vm, id, reason);
        }
    }

    /// Matches every woven aspect against the classes registered since
    /// the last weave, unweave or refresh. Call after registering new
    /// application classes so existing aspects extend them too
    /// (class-load-time weaving).
    pub fn refresh(&self, vm: &mut Vm) {
        self.rt.state.lock().catch_up(vm);
    }

    /// Snapshot of the woven aspects.
    pub fn woven(&self) -> Vec<AspectInfo> {
        let s = self.rt.state.lock();
        s.woven
            .values()
            .map(|w| AspectInfo {
                id: w.rt.id,
                name: w.rt.name.clone(),
                join_points: w.sites.len(),
            })
            .collect()
    }

    /// Info for one woven aspect.
    pub fn info(&self, id: AspectId) -> Option<AspectInfo> {
        let s = self.rt.state.lock();
        s.woven.get(&id.0).map(|w| AspectInfo {
            id: w.rt.id,
            name: w.rt.name.clone(),
            join_points: w.sites.len(),
        })
    }

    /// Drains the fault log recorded under [`ErrorPolicy::Isolate`].
    pub fn take_faults(&self) -> Vec<String> {
        std::mem::take(&mut self.rt.state.lock().faults)
    }

    /// Analyzes the live dispatch tables for aspect interference: two
    /// active aspects writing the same field, or advising the same
    /// join point with equal priority. Run after a weave (or
    /// [`Prose::refresh`]) — the tables, not the patterns, are the
    /// ground truth of what fires where. Reports every pair, sites in
    /// id order (field writes, field reads, method entries, method
    /// exits); [`Prose::interference_with`] is the same pass for one
    /// aspect.
    pub fn interference_report(&self, vm: &Vm) -> Vec<crate::interference::Interference> {
        let s = self.rt.state.lock();
        crate::interference::report(&s, vm, None)
    }

    /// The pairs of [`Prose::interference_report`] that include aspect
    /// `id`, in the same order, found by walking only the sites `id`
    /// advises: the admission check for a newcomer, whose cost does not
    /// grow with the aspects already woven.
    pub fn interference_with(
        &self,
        vm: &Vm,
        id: AspectId,
    ) -> Vec<crate::interference::Interference> {
        let s = self.rt.state.lock();
        crate::interference::report(&s, vm, Some(id))
    }

    /// Records one weave/unweave operation into the VM's telemetry:
    /// wall-time latency histogram, the active-aspect gauge, and a
    /// journal event naming the aspect (or reason).
    fn record_op(
        &self,
        vm: &mut Vm,
        histogram: &str,
        watch: Stopwatch,
        event: &'static str,
        detail: &str,
    ) {
        let active = self.rt.state.lock().woven.len() as i64;
        let t = vm.telemetry_mut();
        t.registry.record_elapsed(histogram, watch);
        let g = t.registry.gauge("prose.aspects.active");
        t.registry.set_gauge(g, active);
        t.journal
            .event(Subsystem::Prose, event, detail.to_string());
    }
}
