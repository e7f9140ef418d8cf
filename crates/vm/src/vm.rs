//! The VM facade: class registration, method resolution, invocation
//! with join-point hooks, the sandbox, and reflection.

use crate::class::{ClassDef, MethodBody, NativeCall, NativeFn};
use crate::error::{exception_class, Limit, VmError, VmException};
use crate::heap::Heap;
use crate::hooks::{
    ClassId, Dispatcher, FieldId, HookRegistry, MethodId, Outcome, HOOK_ENTRY, HOOK_EXIT,
};
use crate::jit;
use crate::perm::Permissions;
use crate::sys::{security_violation, SysFn, SysRegistry};
use crate::types::{MethodSig, TypeSig};
use crate::value::{ObjId, Value};
use pmp_telemetry::{CounterId, Subsystem, Telemetry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Plant PROSE stubs when JIT-compiling methods. When `false` the VM
    /// behaves like an unmodified runtime (the benchmark baseline).
    pub prose_hooks: bool,
    /// Maximum nested call depth.
    pub max_call_depth: u32,
}

impl Default for VmConfig {
    fn default() -> Self {
        Self {
            prose_hooks: true,
            max_call_depth: 256,
        }
    }
}

impl VmConfig {
    /// Configuration with stubs disabled (unmodified-JVM baseline).
    pub fn without_hooks() -> Self {
        Self {
            prose_hooks: false,
            ..Self::default()
        }
    }
}

/// Counters describing engine activity; used by benches and tests.
///
/// Since the telemetry refactor this is a *view* over the VM's
/// [`pmp_telemetry::Registry`] (metric names `vm.*`, see
/// [`Vm::stats`]), kept for its convenient struct shape.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VmStats {
    /// Method invocations (bytecode and native).
    pub invocations: u64,
    /// Bytecode instructions executed.
    pub bytecode_ops: u64,
    /// Hook-flag checks performed by stubs: exactly one per planted
    /// stub reached while hooks are live (one entry stub + one exit
    /// stub per invocation), never one per hook-table probe.
    pub hook_checks: u64,
    /// Advice dispatches (hook fired into the AOP runtime).
    pub advice_dispatches: u64,
    /// Methods JIT-compiled.
    pub compiled_methods: u64,
    /// Fuel consumed inside advice scopes (sandboxed advice only).
    pub advice_fuel_used: u64,
}

/// Pre-registered ids of the VM's hot-path metrics, so the interpreter
/// bumps plain array slots instead of doing name lookups.
#[derive(Debug, Clone, Copy)]
struct VmMetricIds {
    invocations: CounterId,
    bytecode_ops: CounterId,
    hook_checks: CounterId,
    advice_dispatches: CounterId,
    compiled_methods: CounterId,
    advice_fuel_used: CounterId,
}

impl VmMetricIds {
    fn register(t: &mut Telemetry) -> VmMetricIds {
        let r = &mut t.registry;
        VmMetricIds {
            invocations: r.counter("vm.interp.invocations"),
            bytecode_ops: r.counter("vm.interp.bytecode_ops"),
            hook_checks: r.counter("vm.hooks.checks"),
            advice_dispatches: r.counter("vm.hooks.advice_dispatches"),
            compiled_methods: r.counter("vm.jit.compiled_methods"),
            advice_fuel_used: r.counter("vm.advice.fuel_used"),
        }
    }
}

/// A resolved exception handler range.
#[derive(Debug, Clone)]
pub struct CompiledHandler {
    /// First covered pc (inclusive).
    pub start: u32,
    /// One past the last covered pc.
    pub end: u32,
    /// Exception class caught (`"*"` for all).
    pub class: Arc<str>,
    /// Handler entry pc.
    pub target: u32,
}

/// JIT output for a bytecode method.
#[derive(Debug)]
pub struct CompiledMethod {
    /// The method this code belongs to.
    pub mid: MethodId,
    /// Resolved instructions.
    pub ops: Vec<crate::op::CompiledOp>,
    /// Resolved handler table.
    pub handlers: Vec<CompiledHandler>,
    /// Total local slots (`this` + params + extra).
    pub nlocals: u16,
    /// Whether PROSE stubs were planted at compile time.
    pub stub: bool,
}

/// Compiled form of a method body.
#[derive(Clone)]
pub(crate) enum Compiled {
    Bytecode(Arc<CompiledMethod>),
    Native { f: NativeFn, stub: bool },
}

pub(crate) struct FieldRt {
    pub(crate) name: Arc<str>,
    pub(crate) ty: TypeSig,
    pub(crate) fid: FieldId,
    pub(crate) declared_in: ClassId,
}

pub(crate) struct ClassRt {
    pub(crate) name: Arc<str>,
    pub(crate) superclass: Option<ClassId>,
    pub(crate) field_slots: Vec<FieldRt>,
    // Filled once at registration and then only searched: sorted by
    // name for `by_name`'s binary search.
    pub(crate) field_by_name: Box<[(Arc<str>, u16)]>,
    pub(crate) method_by_name: Box<[(Arc<str>, MethodId)]>,
}

/// The value filed under `name` in a table sorted by name.
fn by_name<T: Copy>(table: &[(Arc<str>, T)], name: &str) -> Option<T> {
    let at = table.binary_search_by(|(n, _)| (**n).cmp(name)).ok()?;
    Some(table[at].1)
}

pub(crate) struct MethodRt {
    pub(crate) sig: MethodSig,
    pub(crate) body: MethodBody,
    pub(crate) compiled: Option<Compiled>,
    /// Hook-check hoisting: when set, the JIT skips planting the PROSE
    /// entry/exit stubs even on a hook-carrying VM. Set only via
    /// [`Vm::hoist_hooks`] for methods the weave-time analyzer proved
    /// are never join points that matter (pure advice bodies — they run
    /// inside `begin_advice`, where hooks are suppressed anyway).
    pub(crate) hoisted: bool,
}

/// Saved state for a nested advice execution; restore with
/// [`Vm::end_advice`].
#[derive(Debug)]
pub struct AdviceScope {
    saved_fuel: Option<u64>,
    /// The fuel budget this scope started with, so `end_advice` can
    /// attribute consumed fuel to `vm.advice.fuel_used`.
    budget: Option<u64>,
}

/// The managed runtime.
///
/// # Examples
///
/// ```
/// use pmp_vm::prelude::*;
///
/// # fn main() -> Result<(), VmError> {
/// let mut vm = Vm::new(VmConfig::default());
/// let class = ClassDef::build("Greeter")
///     .native("greet", [TypeSig::Str], TypeSig::Str, |_vm, call| {
///         Ok(Value::str(format!("hello {}", call.str_arg(0)?)))
///     })
///     .done();
/// vm.register_class(class)?;
/// let out = vm.call("Greeter", "greet", Value::Null, vec![Value::str("world")])?;
/// assert_eq!(out, Value::str("hello world"));
/// # Ok(())
/// # }
/// ```
pub struct Vm {
    classes: Vec<ClassRt>,
    class_by_name: BTreeMap<Arc<str>, ClassId>,
    methods: Vec<MethodRt>,
    heap: Heap,
    hooks: HookRegistry,
    dispatcher: Option<Arc<dyn Dispatcher>>,
    sys: SysRegistry,
    config: VmConfig,
    perm_stack: Vec<Permissions>,
    advice_depth: u32,
    depth: u32,
    fuel: Option<u64>,
    clock: Arc<dyn Fn() -> u64 + Send + Sync>,
    telemetry: Telemetry,
    ids: VmMetricIds,
    field_count: u32,
    output: Vec<String>,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("classes", &self.classes.len())
            .field("methods", &self.methods.len())
            .field("heap", &self.heap.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl Default for Vm {
    fn default() -> Self {
        Self::new(VmConfig::default())
    }
}

impl Vm {
    /// Creates a VM and registers the built-in system operations
    /// (`print`, `time.now`).
    pub fn new(config: VmConfig) -> Self {
        let mut telemetry = Telemetry::new();
        let ids = VmMetricIds::register(&mut telemetry);
        let mut vm = Self {
            classes: Vec::new(),
            class_by_name: BTreeMap::new(),
            methods: Vec::new(),
            heap: Heap::new(),
            hooks: HookRegistry::new(),
            dispatcher: None,
            sys: SysRegistry::new(),
            config,
            perm_stack: vec![Permissions::all()],
            advice_depth: 0,
            depth: 0,
            fuel: None,
            clock: Arc::new(|| 0),
            telemetry,
            ids,
            field_count: 0,
            output: Vec::new(),
        };
        vm.register_builtin_sys();
        vm
    }

    fn register_builtin_sys(&mut self) {
        self.register_sys(
            "print",
            Some(crate::perm::Permission::Print),
            Arc::new(|vm: &mut Vm, args: Vec<Value>| {
                let line = args
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(" ");
                vm.output.push(line);
                Ok(Value::Null)
            }),
        );
        self.register_sys(
            "time.now",
            Some(crate::perm::Permission::Time),
            Arc::new(|vm: &mut Vm, _args| Ok(Value::Int(vm.now() as i64))),
        );
    }

    // ------------------------------------------------------------------
    // Configuration & plumbing
    // ------------------------------------------------------------------

    /// Current configuration.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// Enables/disables PROSE stubs and discards all JIT output so the
    /// next invocations recompile with the new setting.
    pub fn set_prose_hooks(&mut self, enabled: bool) {
        self.config.prose_hooks = enabled;
        for m in &mut self.methods {
            m.compiled = None;
        }
    }

    /// Installs the AOP dispatcher (PROSE runtime).
    pub fn set_dispatcher(&mut self, d: Arc<dyn Dispatcher>) {
        self.dispatcher = Some(d);
    }

    /// Installs the clock used by `time.now` (the platform wires the
    /// simulated clock in here).
    pub fn set_clock(&mut self, clock: Arc<dyn Fn() -> u64 + Send + Sync>) {
        self.telemetry.set_clock(clock.clone());
        self.clock = clock;
    }

    /// Current clock reading (nanoseconds).
    pub fn now(&self) -> u64 {
        (self.clock)()
    }

    /// Registers (or replaces) a named system operation.
    pub fn register_sys(
        &mut self,
        name: impl AsRef<str>,
        perm: Option<crate::perm::Permission>,
        f: SysFn,
    ) {
        self.sys.register(name, perm, f);
        // Sys indices may have changed meaning only for new names;
        // existing compiled code keeps valid indices because replacement
        // preserves them.
    }

    /// The system-operation registry.
    pub fn sys_registry(&self) -> &SysRegistry {
        &self.sys
    }

    /// Captured `print` output (drains).
    pub fn take_output(&mut self) -> Vec<String> {
        std::mem::take(&mut self.output)
    }

    /// Engine counters, read back out of the telemetry registry.
    pub fn stats(&self) -> VmStats {
        let r = &self.telemetry.registry;
        VmStats {
            invocations: r.counter_get(self.ids.invocations),
            bytecode_ops: r.counter_get(self.ids.bytecode_ops),
            hook_checks: r.counter_get(self.ids.hook_checks),
            advice_dispatches: r.counter_get(self.ids.advice_dispatches),
            compiled_methods: r.counter_get(self.ids.compiled_methods),
            advice_fuel_used: r.counter_get(self.ids.advice_fuel_used),
        }
    }

    /// Resets engine counters (every metric in the registry, so no
    /// `VmStats` field can be missed when new counters are added).
    pub fn reset_stats(&mut self) {
        self.telemetry.registry.reset();
    }

    /// This VM's telemetry (registry + event journal).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// This VM's telemetry, mutably (other layers record into it).
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    #[inline]
    pub(crate) fn count_bytecode_op(&mut self) {
        self.telemetry.registry.inc(self.ids.bytecode_ops);
    }

    /// The hook-flag registry (the weaver flips these).
    pub fn hooks(&self) -> &HookRegistry {
        &self.hooks
    }

    /// Remaining fuel for sandboxed execution, if limited.
    pub fn fuel(&self) -> Option<u64> {
        self.fuel
    }

    /// Sets the fuel budget (`None` = unlimited).
    pub fn set_fuel(&mut self, fuel: Option<u64>) {
        self.fuel = fuel;
    }

    /// The heap.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// The heap, mutably.
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    // ------------------------------------------------------------------
    // Sandbox
    // ------------------------------------------------------------------

    /// The permission set of the code currently executing.
    pub fn effective_perms(&self) -> Permissions {
        *self.perm_stack.last().expect("perm stack never empty")
    }

    /// Enters an advice execution scope: hooks are suppressed (advice is
    /// never itself intercepted — the paper's aspect isolation), the
    /// given permissions apply, and the fuel budget limits runaway code.
    pub fn begin_advice(&mut self, perms: Permissions, fuel: Option<u64>) -> AdviceScope {
        self.advice_depth += 1;
        self.perm_stack.push(perms);
        let saved_fuel = self.fuel;
        self.fuel = fuel;
        AdviceScope {
            saved_fuel,
            budget: fuel,
        }
    }

    /// Leaves an advice scope started with [`Vm::begin_advice`].
    pub fn end_advice(&mut self, scope: AdviceScope) {
        self.advice_depth = self.advice_depth.saturating_sub(1);
        if self.perm_stack.len() > 1 {
            self.perm_stack.pop();
        }
        if let Some(budget) = scope.budget {
            let used = budget.saturating_sub(self.fuel.unwrap_or(0));
            self.telemetry
                .registry
                .add(self.ids.advice_fuel_used, used);
        }
        self.fuel = scope.saved_fuel;
    }

    /// Whether hooks may fire right now (dispatcher installed, not
    /// already inside advice).
    pub(crate) fn hooks_live(&self) -> bool {
        self.advice_depth == 0 && self.dispatcher.is_some()
    }

    // ------------------------------------------------------------------
    // Classes & reflection
    // ------------------------------------------------------------------

    /// Registers a class.
    ///
    /// # Errors
    ///
    /// [`VmError::Link`] on duplicate names, unknown superclasses, or
    /// duplicate members.
    pub fn register_class(&mut self, def: ClassDef) -> Result<ClassId, VmError> {
        let name: Arc<str> = Arc::from(def.name.as_str());
        if self.class_by_name.contains_key(&name) {
            return Err(VmError::link(format!("duplicate class {name:?}")));
        }
        let superclass = match &def.superclass {
            None => None,
            Some(s) => Some(
                self.class_id(s)
                    .ok_or_else(|| VmError::link(format!("unknown superclass {s:?}")))?,
            ),
        };
        let cid = ClassId(self.classes.len() as u32);

        // Field layout: inherited slots first, then declared.
        let mut field_slots: Vec<FieldRt> = Vec::new();
        let mut field_by_name: BTreeMap<Arc<str>, u16> = BTreeMap::new();
        if let Some(sup) = superclass {
            for f in &self.classes[sup.0 as usize].field_slots {
                field_by_name.insert(f.name.clone(), field_slots.len() as u16);
                field_slots.push(FieldRt {
                    name: f.name.clone(),
                    ty: f.ty.clone(),
                    fid: f.fid,
                    declared_in: f.declared_in,
                });
            }
        }
        for f in &def.fields {
            let fname: Arc<str> = Arc::from(f.name.as_str());
            if field_by_name.contains_key(&fname) {
                return Err(VmError::link(format!(
                    "duplicate field {}.{}",
                    name, f.name
                )));
            }
            let fid = FieldId(self.field_count);
            self.field_count += 1;
            self.hooks.ensure_field(fid);
            field_by_name.insert(fname.clone(), field_slots.len() as u16);
            field_slots.push(FieldRt {
                name: fname,
                ty: f.ty.clone(),
                fid,
                declared_in: cid,
            });
        }

        // Method table: own declarations only. Inherited methods are
        // found by walking the superclass chain at resolution time
        // (`resolve_virtual`), so loading a subclass costs O(own
        // methods) instead of cloning the parent's whole table.
        let mut method_by_name: BTreeMap<Arc<str>, MethodId> = BTreeMap::new();
        for m in &def.methods {
            if method_by_name.contains_key(m.name.as_str()) {
                return Err(VmError::link(format!(
                    "duplicate method {}.{}",
                    name, m.name
                )));
            }
            let mid = MethodId(self.methods.len() as u32);
            self.hooks.ensure_method(mid);
            let sig = MethodSig {
                class: name.clone(),
                name: Arc::from(m.name.as_str()),
                params: m.params.clone(),
                ret: m.ret.clone(),
            };
            method_by_name.insert(sig.name.clone(), mid);
            self.methods.push(MethodRt {
                sig,
                body: m.body.clone(),
                compiled: None,
                hoisted: false,
            });
        }

        self.class_by_name.insert(name.clone(), cid);
        self.classes.push(ClassRt {
            name,
            superclass,
            field_slots,
            field_by_name: field_by_name.into_iter().collect(),
            method_by_name: method_by_name.into_iter().collect(),
        });
        Ok(cid)
    }

    /// Resolves a class name.
    pub fn class_id(&self, name: &str) -> Option<ClassId> {
        self.class_by_name.get(name).copied()
    }

    /// The name of a class.
    ///
    /// # Panics
    ///
    /// Panics if `cid` was not produced by this VM.
    pub fn class_name(&self, cid: ClassId) -> &str {
        &self.classes[cid.0 as usize].name
    }

    /// Number of declared methods: every [`MethodId`] is below it, and
    /// a newly registered method takes the next one.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Number of declared fields: every [`FieldId`] is below it, and a
    /// newly registered field takes the next one.
    pub fn field_count(&self) -> usize {
        self.field_count as usize
    }

    /// Returns `true` if `sub` is `sup` or a transitive subclass of it.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.classes[c.0 as usize].superclass;
        }
        false
    }

    /// Looks up a method id by class and method name (virtual: includes
    /// inherited methods).
    pub fn method_id(&self, class: &str, method: &str) -> Option<MethodId> {
        let cid = self.class_id(class)?;
        self.resolve_virtual(cid, method)
    }

    /// The signature of a method.
    ///
    /// # Panics
    ///
    /// Panics if `mid` was not produced by this VM.
    pub fn method_sig(&self, mid: MethodId) -> &MethodSig {
        &self.methods[mid.0 as usize].sig
    }

    /// Iterates over every declared method `(id, signature)`.
    pub fn methods(&self) -> impl Iterator<Item = (MethodId, &MethodSig)> {
        self.methods
            .iter()
            .enumerate()
            .map(|(i, m)| (MethodId(i as u32), &m.sig))
    }

    /// Iterates over every declared field
    /// `(id, declaring class name, field name, type)`.
    pub fn fields(&self) -> impl Iterator<Item = (FieldId, &str, &str, &TypeSig)> {
        self.classes.iter().enumerate().flat_map(|(i, c)| {
            c.field_slots
                .iter()
                .filter(move |f| f.declared_in == ClassId(i as u32))
                .map(move |f| (f.fid, &*c.name, &*f.name, &f.ty))
        })
    }

    pub(crate) fn method_rt(&self, mid: MethodId) -> &MethodRt {
        &self.methods[mid.0 as usize]
    }

    pub(crate) fn install_compiled(&mut self, mid: MethodId, compiled: Compiled) {
        self.telemetry.registry.inc(self.ids.compiled_methods);
        let sig = self.methods[mid.0 as usize].sig.to_string();
        self.telemetry
            .journal
            .event(Subsystem::Vm, "vm.jit.compile", sig);
        self.methods[mid.0 as usize].compiled = Some(compiled);
    }

    /// Resolves `(slot, field id)` of `class.field`.
    pub fn resolve_field(&self, class: &str, field: &str) -> Option<(u16, FieldId)> {
        let cid = self.class_id(class)?;
        let c = &self.classes[cid.0 as usize];
        let slot = by_name(&c.field_by_name, field)?;
        Some((slot, c.field_slots[slot as usize].fid))
    }

    /// Marks `class.method` as hook-hoisted: its next compilation skips
    /// the PROSE entry/exit stubs entirely, removing the per-call hook
    /// check. Callers must have *proved* the method needs no stubs
    /// (pmp-analyze's hoisting pass does); existing JIT output is
    /// discarded so the flag takes effect on the next invocation.
    /// Returns `true` if the method existed.
    pub fn hoist_hooks(&mut self, class: &str, method: &str) -> bool {
        let Some(mid) = self.method_id(class, method) else {
            return false;
        };
        let m = &mut self.methods[mid.0 as usize];
        m.hoisted = true;
        m.compiled = None;
        true
    }

    /// Which of the first 64 local slots (`this` = bit 0, param `i` =
    /// bit `i`) a bytecode body may read, as a bitmask. Native methods
    /// conservatively read everything. Advice dispatch uses this to
    /// skip materialising arguments the advice never looks at.
    pub fn param_load_mask(&self, mid: MethodId) -> u64 {
        match &self.methods[mid.0 as usize].body {
            MethodBody::Native(_) => u64::MAX,
            MethodBody::Bytecode(b) => {
                let mut mask = 0u64;
                for op in &b.ops {
                    if let crate::op::Op::Load(i) = op {
                        if *i < 64 {
                            mask |= 1 << i;
                        }
                    }
                }
                mask
            }
        }
    }

    /// Resolves a virtual method on a runtime class: nearest
    /// declaration wins, walking up the superclass chain (overrides
    /// shadow inherited methods).
    pub fn resolve_virtual(&self, cid: ClassId, method: &str) -> Option<MethodId> {
        let mut cur = Some(cid);
        while let Some(c) = cur {
            let class = &self.classes[c.0 as usize];
            if let Some(mid) = by_name(&class.method_by_name, method) {
                return Some(mid);
            }
            cur = class.superclass;
        }
        None
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocates an instance of `cid` with type-default field values.
    ///
    /// # Errors
    ///
    /// Never fails for valid ids; returns a link error for foreign ids.
    pub fn alloc_instance(&mut self, cid: ClassId) -> Result<Value, VmError> {
        let class = self
            .classes
            .get(cid.0 as usize)
            .ok_or_else(|| VmError::link(format!("unknown class id {cid}")))?;
        let fields: Vec<Value> = class
            .field_slots
            .iter()
            .map(|f| default_value(&f.ty))
            .collect();
        Ok(Value::Ref(self.heap.alloc_object(cid, fields)))
    }

    /// Allocates an instance by class name.
    ///
    /// # Errors
    ///
    /// Link error for unknown classes.
    pub fn new_object(&mut self, class: &str) -> Result<Value, VmError> {
        let cid = self
            .class_id(class)
            .ok_or_else(|| VmError::link(format!("unknown class {class:?}")))?;
        self.alloc_instance(cid)
    }

    /// Allocates a byte buffer from `bytes`.
    pub fn new_buffer(&mut self, bytes: Vec<u8>) -> Value {
        Value::Ref(self.heap.alloc_buffer_from(bytes))
    }

    /// Allocates an array from `values`.
    pub fn new_array(&mut self, values: Vec<Value>) -> Value {
        Value::Ref(self.heap.alloc_array_from(values))
    }

    /// Reads an object field by name.
    ///
    /// # Errors
    ///
    /// Link error for unknown fields; heap errors otherwise.
    pub fn get_field(&self, obj: ObjId, class: &str, field: &str) -> Result<Value, VmError> {
        let (slot, _) = self
            .resolve_field(class, field)
            .ok_or_else(|| VmError::link(format!("unknown field {class}.{field}")))?;
        self.heap.field(obj, slot)
    }

    /// Writes an object field by name (bypasses hooks — reflective).
    ///
    /// # Errors
    ///
    /// Link error for unknown fields; heap errors otherwise.
    pub fn set_field(
        &mut self,
        obj: ObjId,
        class: &str,
        field: &str,
        value: Value,
    ) -> Result<(), VmError> {
        let (slot, _) = self
            .resolve_field(class, field)
            .ok_or_else(|| VmError::link(format!("unknown field {class}.{field}")))?;
        self.heap.set_field(obj, slot, value)
    }

    // ------------------------------------------------------------------
    // Invocation
    // ------------------------------------------------------------------

    /// Calls `class.method` with virtual dispatch: if `this` is an
    /// object, its runtime class overrides `class`.
    ///
    /// # Errors
    ///
    /// Link errors for unknown targets, plus anything the method raises.
    pub fn call(
        &mut self,
        class: &str,
        method: &str,
        this: Value,
        args: Vec<Value>,
    ) -> Result<Value, VmError> {
        let cid = match &this {
            Value::Ref(id) => self.heap.object_class(*id)?,
            _ => self
                .class_id(class)
                .ok_or_else(|| VmError::link(format!("unknown class {class:?}")))?,
        };
        let mid = self.resolve_virtual(cid, method).ok_or_else(|| {
            VmError::link(format!(
                "no method {method:?} on class {}",
                self.class_name(cid)
            ))
        })?;
        self.invoke(mid, this, args)
    }

    /// Virtual call used by the interpreter's `CallV`: receiver must be
    /// an object.
    pub(crate) fn call_virtual(
        &mut self,
        method: &str,
        recv: Value,
        args: Vec<Value>,
    ) -> Result<Value, VmError> {
        let id = match &recv {
            Value::Ref(id) => *id,
            Value::Null => {
                return Err(VmError::exception(
                    exception_class::NULL_POINTER,
                    format!("virtual call {method:?} on null"),
                ))
            }
            other => {
                return Err(VmError::exception(
                    exception_class::TYPE,
                    format!("virtual call {method:?} on {}", other.kind()),
                ))
            }
        };
        let cid = self.heap.object_class(id)?;
        let mid = self.resolve_virtual(cid, method).ok_or_else(|| {
            VmError::exception(
                exception_class::TYPE,
                format!("no method {method:?} on {}", self.class_name(cid)),
            )
        })?;
        self.invoke(mid, recv, args)
    }

    /// Invokes a method by id. This is the join-point spine: entry/exit
    /// stubs fire here when present and active.
    ///
    /// # Errors
    ///
    /// Whatever the method raises, plus engine limits.
    pub fn invoke(&mut self, mid: MethodId, this: Value, args: Vec<Value>) -> Result<Value, VmError> {
        if self.depth >= self.config.max_call_depth {
            return Err(VmError::Limit(Limit::CallDepth));
        }
        self.depth += 1;
        let r = self.invoke_inner(mid, this, args);
        self.depth -= 1;
        r
    }

    fn invoke_inner(
        &mut self,
        mid: MethodId,
        this: Value,
        mut args: Vec<Value>,
    ) -> Result<Value, VmError> {
        if self.methods[mid.0 as usize].compiled.is_none() {
            jit::compile(self, mid)?;
        }
        self.telemetry.registry.inc(self.ids.invocations);
        let compiled = self.methods[mid.0 as usize]
            .compiled
            .clone()
            .expect("just compiled");
        let stub = match &compiled {
            Compiled::Bytecode(c) => c.stub,
            Compiled::Native { stub, .. } => *stub,
        };
        // The JIT-planted entry stub: one flag check on the fast path.
        let hooks_live = stub && self.hooks_live();
        let mut exit_args: Option<Vec<Value>> = None;
        if hooks_live {
            self.telemetry.registry.inc(self.ids.hook_checks);
            if self.hooks.method_flags(mid) & HOOK_ENTRY != 0 {
                // `hooks_live` implies a dispatcher, but a hostile or
                // buggy advice could tear it down mid-call: fault as a
                // link error rather than unwinding the interpreter.
                let Some(d) = self.dispatcher.clone() else {
                    return Err(VmError::link("entry hook fired with no dispatcher installed"));
                };
                self.telemetry.registry.inc(self.ids.advice_dispatches);
                catch_hook_panic("method_entry", || {
                    d.method_entry(self, mid, &this, &mut args)
                })?;
            }
            // Exit advice observes the (post-entry-advice) arguments;
            // keep a copy only when the exit hook is active.
            if self.hooks.method_flags(mid) & HOOK_EXIT != 0 {
                exit_args = Some(args.clone());
            }
        }
        let result = match &compiled {
            Compiled::Native { f, .. } => f(
                self,
                NativeCall {
                    this: this.clone(),
                    args,
                },
            ),
            Compiled::Bytecode(c) => {
                let expected = self.methods[mid.0 as usize].sig.params.len();
                if args.len() != expected {
                    return Err(VmError::link(format!(
                        "{}: expected {} args, got {}",
                        self.methods[mid.0 as usize].sig,
                        expected,
                        args.len()
                    )));
                }
                crate::interp::run(self, c, this.clone(), args)
            }
        };
        // The exit stub.
        let mut outcome = match result {
            Ok(v) => Outcome::Returned(v),
            Err(VmError::Exception(e)) => Outcome::Threw(e),
            Err(other) => return Err(other),
        };
        // The exit stub probes the hook table exactly once whenever
        // hooks are live — the check happens (and is counted) even when
        // the exit hook turns out to be inactive.
        if hooks_live {
            self.telemetry.registry.inc(self.ids.hook_checks);
            if self.hooks.method_flags(mid) & HOOK_EXIT != 0 {
                let Some(d) = self.dispatcher.clone() else {
                    return Err(VmError::link("exit hook fired with no dispatcher installed"));
                };
                self.telemetry.registry.inc(self.ids.advice_dispatches);
                let saved = exit_args.unwrap_or_default();
                catch_hook_panic("method_exit", || {
                    d.method_exit(self, mid, &this, &saved, &mut outcome)
                })?;
            }
        }
        match outcome {
            Outcome::Returned(v) => Ok(v),
            Outcome::Threw(e) => Err(e.into()),
        }
    }

    pub(crate) fn call_sys(&mut self, sys: u32, args: Vec<Value>) -> Result<Value, VmError> {
        let (perm, name, f) = {
            let (entry, f) = self
                .sys
                .entry(sys)
                .ok_or_else(|| VmError::link(format!("unknown sys index {sys}")))?;
            (entry.perm, entry.name.clone(), f)
        };
        if let Some(p) = perm {
            if !self.effective_perms().allows(p) {
                return Err(security_violation(&name, p));
            }
        }
        f(self, args)
    }

    /// Invokes a named system operation directly (native helpers).
    ///
    /// # Errors
    ///
    /// Link error for unknown names; `SecurityException` without the
    /// required permission.
    pub fn sys(&mut self, name: &str, args: Vec<Value>) -> Result<Value, VmError> {
        let idx = self
            .sys
            .lookup(name)
            .ok_or_else(|| VmError::link(format!("unknown sys op {name:?}")))?;
        self.call_sys(idx, args)
    }

    // ------------------------------------------------------------------
    // Hook dispatch helpers used by the interpreter
    // ------------------------------------------------------------------

    pub(crate) fn dispatch_field_get(
        &mut self,
        fid: FieldId,
        obj: ObjId,
        value: &mut Value,
    ) -> Result<(), VmError> {
        if let Some(d) = self.dispatcher.clone() {
            self.telemetry.registry.inc(self.ids.advice_dispatches);
            catch_hook_panic("field_get", || d.field_get(self, fid, obj, value))?;
        }
        Ok(())
    }

    pub(crate) fn dispatch_field_set(
        &mut self,
        fid: FieldId,
        obj: ObjId,
        value: &mut Value,
    ) -> Result<(), VmError> {
        if let Some(d) = self.dispatcher.clone() {
            self.telemetry.registry.inc(self.ids.advice_dispatches);
            catch_hook_panic("field_set", || d.field_set(self, fid, obj, value))?;
        }
        Ok(())
    }

    pub(crate) fn dispatch_exception_throw(
        &mut self,
        site: MethodId,
        exc: &VmException,
    ) -> Result<(), VmError> {
        if let Some(d) = self.dispatcher.clone() {
            self.telemetry.registry.inc(self.ids.advice_dispatches);
            catch_hook_panic("exception_throw", || d.exception_throw(self, site, exc))?;
        }
        Ok(())
    }

    pub(crate) fn dispatch_exception_catch(
        &mut self,
        site: MethodId,
        exc: &VmException,
    ) -> Result<(), VmError> {
        if let Some(d) = self.dispatcher.clone() {
            self.telemetry.registry.inc(self.ids.advice_dispatches);
            catch_hook_panic("exception_catch", || d.exception_catch(self, site, exc))?;
        }
        Ok(())
    }

    /// Field metadata: `(declaring class name, field name)`.
    pub fn field_info(&self, fid: FieldId) -> Option<(&str, &str)> {
        for (i, c) in self.classes.iter().enumerate() {
            for f in &c.field_slots {
                if f.fid == fid && f.declared_in == ClassId(i as u32) {
                    return Some((&c.name, &f.name));
                }
            }
        }
        None
    }
}

/// Runs one dispatcher callback, converting an escaping panic into a
/// [`VmError`] link fault. Advice is foreign code woven in at runtime;
/// a bug in it must fault the intercepted call — observable, isolable
/// by PROSE error policy — rather than unwind the interpreter and take
/// the whole node down. The VM may be left mid-advice (depth counters,
/// partially-applied effects); that is the same contract as any advice
/// error, and the chaos harness leans on this totality.
fn catch_hook_panic<R>(
    site: &'static str,
    f: impl FnOnce() -> Result<R, VmError>,
) -> Result<R, VmError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Err(VmError::link(format!("{site} advice panicked: {msg}")))
        }
    }
}

/// The default value of a field of type `ty`.
pub fn default_value(ty: &TypeSig) -> Value {
    match ty {
        TypeSig::Bool => Value::Bool(false),
        TypeSig::Int => Value::Int(0),
        TypeSig::Float => Value::Float(0.0),
        TypeSig::Str => Value::str(""),
        _ => Value::Null,
    }
}
