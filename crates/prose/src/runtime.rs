//! The AOP runtime: dispatch tables consulted by the VM's hooks, and
//! the machinery that executes advice inside the aspect sandbox.

use crate::advice::{AdviceBody, AdviceCtx, JoinPoint, NativeAdviceFn};
use crate::aspect::Aspect;
use crate::crosscut::Crosscut;
use crate::handle::AspectId;
use crate::pattern::NamePat;
use pmp_telemetry::sync::Mutex;
use pmp_vm::hooks::{
    Dispatcher, FieldId, MethodId, Outcome, HOOK_CATCH, HOOK_ENTRY, HOOK_EXIT, HOOK_GET, HOOK_SET,
    HOOK_THROW,
};
use pmp_vm::perm::Permissions;
use pmp_vm::types::MethodSig;
use pmp_vm::value::{ObjId, Value};
use pmp_vm::vm::Vm;
use pmp_vm::{VmError, VmException};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// What happens when advice itself fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorPolicy {
    /// The failure aborts the intercepted operation (access-control
    /// semantics: "the execution is ended with an exception").
    #[default]
    Propagate,
    /// The failure is recorded in the fault log and the intercepted
    /// operation proceeds (monitoring semantics: a broken extension must
    /// not take the application down).
    Isolate,
}

/// Per-woven-aspect runtime configuration.
#[derive(Debug)]
pub(crate) struct AspectRt {
    pub(crate) id: AspectId,
    pub(crate) name: String,
    pub(crate) perms: Permissions,
    pub(crate) fuel: Option<u64>,
    pub(crate) policy: ErrorPolicy,
    /// Script aspects: the instance holding aspect state.
    pub(crate) instance: Value,
    /// Script aspects: the registered class name.
    pub(crate) class: Option<Arc<str>>,
}

#[derive(Clone)]
pub(crate) enum AdviceExec {
    Native(NativeAdviceFn),
    Script {
        method: Arc<str>,
        /// Pre-resolved dispatch: the advice method id plus its
        /// parameter-load mask (bit *i* set ⇔ the body loads local
        /// slot *i*), computed once at weave time so each dispatch
        /// skips the name lookup and can skip materialising join-point
        /// arguments the advice never reads. `None` falls back to
        /// per-dispatch resolution.
        resolved: Option<(MethodId, u64)>,
    },
}

/// Resolves a script advice method against `vm` for the fast path.
fn resolve_script(vm: &Vm, class: Option<&str>, method: &str) -> Option<(MethodId, u64)> {
    let mid = vm.method_id(class?, method)?;
    Some((mid, vm.param_load_mask(mid)))
}

#[derive(Clone)]
pub(crate) struct AdviceRef {
    pub(crate) aspect: Arc<AspectRt>,
    pub(crate) exec: AdviceExec,
    pub(crate) priority: i32,
}

/// One join point an aspect was added at: the key of one dispatch-table
/// entry. The variant order is the interference report's site order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Site {
    Set(FieldId),
    Get(FieldId),
    Entry(MethodId),
    Exit(MethodId),
    Throw,
    Catch,
}

pub(crate) struct Woven {
    pub(crate) rt: Arc<AspectRt>,
    pub(crate) aspect: Aspect,
    /// Every site the aspect was added at, one per table entry: a site
    /// two of its bindings match appears twice.
    pub(crate) sites: Vec<Site>,
}

#[derive(Default)]
pub(crate) struct State {
    pub(crate) next_id: u64,
    pub(crate) woven: BTreeMap<u64, Woven>,
    pub(crate) entry: BTreeMap<MethodId, Vec<AdviceRef>>,
    pub(crate) exit: BTreeMap<MethodId, Vec<AdviceRef>>,
    pub(crate) field_get: BTreeMap<FieldId, Vec<AdviceRef>>,
    pub(crate) field_set: BTreeMap<FieldId, Vec<AdviceRef>>,
    pub(crate) throw: Vec<(NamePat, AdviceRef)>,
    pub(crate) catch: Vec<(NamePat, AdviceRef)>,
    /// High-water marks of the VM's dense method and field ids: every
    /// woven aspect has been matched against the join points below them.
    methods_seen: usize,
    fields_seen: usize,
    /// Aspect classes this runtime registered in the VM.
    pub(crate) registered_classes: BTreeSet<String>,
    /// Faults recorded under [`ErrorPolicy::Isolate`].
    pub(crate) faults: Vec<String>,
}

impl State {
    /// Matches every woven aspect, in id order, against the methods and
    /// fields registered since the last call (class-load-time weaving),
    /// then advances the high-water marks. Every weave, unweave,
    /// failed-init rollback and refresh starts here, so the tables
    /// cover every join point before an aspect is added or removed.
    pub(crate) fn catch_up(&mut self, vm: &Vm) {
        let seen = (self.methods_seen, self.fields_seen);
        let now = (vm.method_count(), vm.field_count());
        if seen == now {
            return;
        }
        let ids: Vec<u64> = self.woven.keys().copied().collect();
        for id in ids {
            self.add(vm, id, Some(seen));
        }
        (self.methods_seen, self.fields_seen) = now;
    }

    /// Weaves a newcomer into the tables: catches the others up, then
    /// matches the newcomer against every join point.
    pub(crate) fn install(&mut self, vm: &Vm, woven: Woven) {
        self.catch_up(vm);
        let id = woven.rt.id.0;
        self.woven.insert(id, woven);
        self.add(vm, id, None);
    }

    /// Adds aspect `id`'s entries at the methods and fields whose dense
    /// ids are at least `since`, or — for a newcomer (`None`) — at every
    /// method and field plus its exception entries, which match by class
    /// name at dispatch time. A site's hook turns on with its first
    /// entry.
    fn add(&mut self, vm: &Vm, id: u64, since: Option<(usize, usize)>) {
        let State {
            woven,
            entry,
            exit,
            field_get,
            field_set,
            throw,
            catch,
            ..
        } = self;
        let w = woven.get_mut(&id).expect("only woven aspects gain entries");
        let (methods_from, fields_from) = since.unwrap_or_default();
        let hooks = vm.hooks();
        for b in &w.aspect.bindings {
            // Resolved on the first match: a catch-up usually has none.
            let mut made = None;
            let mut aref = || {
                made.get_or_insert_with(|| AdviceRef {
                    aspect: w.rt.clone(),
                    exec: advice_exec(vm, &w.rt, &b.advice),
                    priority: b.priority,
                })
                .clone()
            };
            match &b.crosscut {
                Crosscut::MethodEntry(p) | Crosscut::MethodExit(p) => {
                    let (table, flag, site): (_, _, fn(MethodId) -> Site) =
                        if matches!(b.crosscut, Crosscut::MethodEntry(_)) {
                            (&mut *entry, HOOK_ENTRY, Site::Entry)
                        } else {
                            (&mut *exit, HOOK_EXIT, Site::Exit)
                        };
                    for (mid, sig) in vm.methods().skip(methods_from) {
                        if p.matches(sig) {
                            let list = table.entry(mid).or_default();
                            if insert_ordered(list, aref(), |r| r.priority) {
                                hooks.activate_method(mid, flag);
                            }
                            w.sites.push(site(mid));
                        }
                    }
                }
                Crosscut::FieldGet(p) | Crosscut::FieldSet(p) => {
                    let (table, flag, site): (_, _, fn(FieldId) -> Site) =
                        if matches!(b.crosscut, Crosscut::FieldGet(_)) {
                            (&mut *field_get, HOOK_GET, Site::Get)
                        } else {
                            (&mut *field_set, HOOK_SET, Site::Set)
                        };
                    for (fid, class, field, _ty) in vm.fields() {
                        if fid.0 as usize >= fields_from && p.matches(class, field) {
                            let list = table.entry(fid).or_default();
                            if insert_ordered(list, aref(), |r| r.priority) {
                                hooks.activate_field(fid, flag);
                            }
                            w.sites.push(site(fid));
                        }
                    }
                }
                Crosscut::ExceptionThrow(p) | Crosscut::ExceptionCatch(p) if since.is_none() => {
                    let (list, flag, site) = if matches!(b.crosscut, Crosscut::ExceptionThrow(_)) {
                        (&mut *throw, HOOK_THROW, Site::Throw)
                    } else {
                        (&mut *catch, HOOK_CATCH, Site::Catch)
                    };
                    if insert_ordered(list, (p.clone(), aref()), |(_, r)| r.priority) {
                        hooks.activate_exception(flag);
                    }
                    w.sites.push(site);
                }
                Crosscut::ExceptionThrow(_) | Crosscut::ExceptionCatch(_) => {}
            }
        }
    }

    /// Removes aspect `id`'s entries from `sites`, the sites it was added
    /// at. A site's hook turns off with its last entry.
    pub(crate) fn remove(&mut self, vm: &Vm, id: AspectId, sites: &[Site]) {
        let hooks = vm.hooks();
        for site in sites {
            match *site {
                Site::Set(fid) => {
                    if remove_entries(&mut self.field_set, fid, id) {
                        hooks.deactivate_field(fid, HOOK_SET);
                    }
                }
                Site::Get(fid) => {
                    if remove_entries(&mut self.field_get, fid, id) {
                        hooks.deactivate_field(fid, HOOK_GET);
                    }
                }
                Site::Entry(mid) => {
                    if remove_entries(&mut self.entry, mid, id) {
                        hooks.deactivate_method(mid, HOOK_ENTRY);
                    }
                }
                Site::Exit(mid) => {
                    if remove_entries(&mut self.exit, mid, id) {
                        hooks.deactivate_method(mid, HOOK_EXIT);
                    }
                }
                Site::Throw => {
                    self.throw.retain(|(_, r)| r.aspect.id != id);
                    if self.throw.is_empty() {
                        hooks.deactivate_exception(HOOK_THROW);
                    }
                }
                Site::Catch => {
                    self.catch.retain(|(_, r)| r.aspect.id != id);
                    if self.catch.is_empty() {
                        hooks.deactivate_exception(HOOK_CATCH);
                    }
                }
            }
        }
    }
}

/// Inserts `entry` after every entry of priority ≤ its own and reports
/// whether it is the site's first. Aspect ids only grow, catch-ups visit
/// aspects in id order, and an aspect's bindings are added in order, so
/// every site stays ordered by priority, then aspect id, then binding.
fn insert_ordered<T>(list: &mut Vec<T>, entry: T, priority: fn(&T) -> i32) -> bool {
    let p = priority(&entry);
    let at = list.partition_point(|e| priority(e) <= p);
    list.insert(at, entry);
    list.len() == 1
}

/// Drops aspect `id`'s entries at `key`, removing the site when that
/// empties it; `true` if it did.
fn remove_entries<K: Ord>(table: &mut BTreeMap<K, Vec<AdviceRef>>, key: K, id: AspectId) -> bool {
    let Entry::Occupied(mut site) = table.entry(key) else {
        return false;
    };
    site.get_mut().retain(|r| r.aspect.id != id);
    if site.get().is_empty() {
        site.remove();
        return true;
    }
    false
}

/// How one binding's advice runs, with script advice pre-resolved.
pub(crate) fn advice_exec(vm: &Vm, rt: &AspectRt, body: &AdviceBody) -> AdviceExec {
    match body {
        AdviceBody::Native(f) => AdviceExec::Native(f.clone()),
        AdviceBody::Script { method } => AdviceExec::Script {
            method: method.clone(),
            resolved: resolve_script(vm, rt.class.as_deref(), method),
        },
    }
}

/// The PROSE runtime — installed into a [`Vm`] as its hook
/// [`Dispatcher`].
#[derive(Default)]
pub struct ProseRuntime {
    pub(crate) state: Mutex<State>,
}

impl std::fmt::Debug for ProseRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("ProseRuntime")
            .field("woven", &s.woven.len())
            .field("entry_sites", &s.entry.len())
            .field("exit_sites", &s.exit.len())
            .finish_non_exhaustive()
    }
}

impl ProseRuntime {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Runs one advice inside the aspect sandbox, applying its error
    /// policy.
    pub(crate) fn run_advice(
        &self,
        vm: &mut Vm,
        aref: &AdviceRef,
        jp: JoinPoint<'_>,
    ) -> Result<(), VmError> {
        let scope = vm.begin_advice(aref.aspect.perms, aref.aspect.fuel);
        let result = match &aref.exec {
            AdviceExec::Native(f) => {
                let mut ctx = AdviceCtx { vm, jp };
                f(&mut ctx)
            }
            AdviceExec::Script { method, resolved } => {
                run_script_advice(vm, &aref.aspect, method, *resolved, jp)
            }
        };
        vm.end_advice(scope);
        match result {
            Ok(()) => Ok(()),
            Err(e) => match aref.aspect.policy {
                ErrorPolicy::Propagate => Err(e),
                ErrorPolicy::Isolate => {
                    self.state
                        .lock()
                        .faults
                        .push(format!("aspect {}: {e}", aref.aspect.name));
                    Ok(())
                }
            },
        }
    }

    fn advice_for_method(
        &self,
        table: fn(&State) -> &BTreeMap<MethodId, Vec<AdviceRef>>,
        mid: MethodId,
    ) -> Vec<AdviceRef> {
        let s = self.state.lock();
        table(&s).get(&mid).cloned().unwrap_or_default()
    }

    fn advice_for_field(
        &self,
        table: fn(&State) -> &BTreeMap<FieldId, Vec<AdviceRef>>,
        fid: FieldId,
    ) -> Vec<AdviceRef> {
        let s = self.state.lock();
        table(&s).get(&fid).cloned().unwrap_or_default()
    }

    fn advice_for_exception(&self, catching: bool, class: &str) -> Vec<AdviceRef> {
        let s = self.state.lock();
        let list = if catching { &s.catch } else { &s.throw };
        list.iter()
            .filter(|(p, _)| p.matches(class))
            .map(|(_, r)| r.clone())
            .collect()
    }
}

/// Executes a script advice method with the fixed 5-argument calling
/// convention (local 0 is the aspect instance):
///
/// | slot | method entry     | method exit      | field get/set   | throw/catch      | shutdown     |
/// |------|------------------|------------------|-----------------|------------------|--------------|
/// | 1    | target `this`    | target `this`    | target object   | `null`           | `null`       |
/// | 2    | `"Class.method"` | `"Class.method"` | `"Class.field"` | `"Class.method"` | `"shutdown"` |
/// | 3    | args array       | args array       | value           | message          | reason       |
/// | 4    | `null`           | return value     | `null`          | exception class  | `null`       |
/// | 5    | `null`           | exception class or `null` | `null` | `null`           | `null`       |
///
/// Mutations of the args array propagate back into the call only at
/// entry; a non-null return value replaces the method return value
/// (exit) or the field value (get/set).
fn run_script_advice(
    vm: &mut Vm,
    aspect: &AspectRt,
    method: &str,
    resolved: Option<(MethodId, u64)>,
    jp: JoinPoint<'_>,
) -> Result<(), VmError> {
    let (mid, mask) = match resolved {
        Some(r) => r,
        None => {
            let class = aspect
                .class
                .as_deref()
                .ok_or_else(|| VmError::link("script advice without aspect class"))?;
            resolve_script(vm, Some(class), method).ok_or_else(|| {
                VmError::link(format!("missing advice method {class}.{method}"))
            })?
        }
    };
    // Advice parameter *i* (1-based, after `this`) lives in local slot
    // *i*; a slot the body never loads can receive `null` instead of a
    // freshly materialised description string or argument array — the
    // body has no way to observe the difference.
    let uses = |slot: u64| mask & (1 << slot) != 0;
    let instance = aspect.instance.clone();
    match jp {
        JoinPoint::MethodEntry { sig, this, args } => {
            let arr = if uses(3) {
                vm.new_array(args.clone())
            } else {
                Value::Null
            };
            let desc = if uses(2) {
                Value::str(format!("{}.{}", sig.class, sig.name))
            } else {
                Value::Null
            };
            vm.invoke(
                mid,
                instance,
                vec![this.clone(), desc, arr.clone(), Value::Null, Value::Null],
            )?;
            if let Some(id) = arr.as_ref_id() {
                let n = vm.heap().array_len(id)?.min(args.len());
                for (i, slot) in args.iter_mut().enumerate().take(n) {
                    *slot = vm.heap().array_get(id, i as i64)?;
                }
            }
            Ok(())
        }
        JoinPoint::MethodExit {
            sig,
            this,
            args,
            outcome,
        } => {
            let arr = if uses(3) {
                vm.new_array(args.to_vec())
            } else {
                Value::Null
            };
            let desc = if uses(2) {
                Value::str(format!("{}.{}", sig.class, sig.name))
            } else {
                Value::Null
            };
            let (retv, exc) = match &*outcome {
                Outcome::Returned(v) => (v.clone(), Value::Null),
                Outcome::Threw(e) => (Value::Null, Value::str(&*e.class)),
            };
            let ret = vm.invoke(mid, instance, vec![this.clone(), desc, arr, retv, exc])?;
            if !ret.is_null() {
                if let Outcome::Returned(v) = outcome {
                    *v = ret;
                }
            }
            Ok(())
        }
        JoinPoint::FieldGet {
            class: c,
            field,
            obj,
            value,
        }
        | JoinPoint::FieldSet {
            class: c,
            field,
            obj,
            value,
        } => {
            let desc = if uses(2) {
                Value::str(format!("{c}.{field}"))
            } else {
                Value::Null
            };
            let ret = vm.invoke(
                mid,
                instance,
                vec![Value::Ref(obj), desc, value.clone(), Value::Null, Value::Null],
            )?;
            if !ret.is_null() {
                *value = ret;
            }
            Ok(())
        }
        JoinPoint::ExceptionThrow { site, exc } | JoinPoint::ExceptionCatch { site, exc } => {
            let desc = if uses(2) {
                Value::str(format!("{}.{}", site.class, site.name))
            } else {
                Value::Null
            };
            vm.invoke(
                mid,
                instance,
                vec![
                    Value::Null,
                    desc,
                    Value::str(&exc.message),
                    Value::str(&*exc.class),
                    Value::Null,
                ],
            )?;
            Ok(())
        }
        JoinPoint::Shutdown { reason } => {
            vm.invoke(
                mid,
                instance,
                vec![
                    Value::Null,
                    Value::str("shutdown"),
                    Value::str(reason),
                    Value::Null,
                    Value::Null,
                ],
            )?;
            Ok(())
        }
    }
}

impl Dispatcher for ProseRuntime {
    fn method_entry(
        &self,
        vm: &mut Vm,
        mid: MethodId,
        this: &Value,
        args: &mut Vec<Value>,
    ) -> Result<(), VmError> {
        let refs = self.advice_for_method(|s| &s.entry, mid);
        if refs.is_empty() {
            return Ok(());
        }
        let sig: MethodSig = vm.method_sig(mid).clone();
        for r in &refs {
            let jp = JoinPoint::MethodEntry {
                sig: sig.clone(),
                this,
                args: &mut *args,
            };
            self.run_advice(vm, r, jp)?;
        }
        Ok(())
    }

    fn method_exit(
        &self,
        vm: &mut Vm,
        mid: MethodId,
        this: &Value,
        args: &[Value],
        outcome: &mut Outcome,
    ) -> Result<(), VmError> {
        let refs = self.advice_for_method(|s| &s.exit, mid);
        if refs.is_empty() {
            return Ok(());
        }
        let sig: MethodSig = vm.method_sig(mid).clone();
        // After advice unwinds in reverse priority order.
        for r in refs.iter().rev() {
            let jp = JoinPoint::MethodExit {
                sig: sig.clone(),
                this,
                args,
                outcome: &mut *outcome,
            };
            self.run_advice(vm, r, jp)?;
        }
        Ok(())
    }

    fn field_get(
        &self,
        vm: &mut Vm,
        fid: FieldId,
        obj: ObjId,
        value: &mut Value,
    ) -> Result<(), VmError> {
        let refs = self.advice_for_field(|s| &s.field_get, fid);
        if refs.is_empty() {
            return Ok(());
        }
        let (class, field) = vm
            .field_info(fid)
            .map(|(c, f)| (Arc::<str>::from(c), Arc::<str>::from(f)))
            .unwrap_or_else(|| (Arc::from("?"), Arc::from("?")));
        for r in &refs {
            let jp = JoinPoint::FieldGet {
                class: class.clone(),
                field: field.clone(),
                obj,
                value: &mut *value,
            };
            self.run_advice(vm, r, jp)?;
        }
        Ok(())
    }

    fn field_set(
        &self,
        vm: &mut Vm,
        fid: FieldId,
        obj: ObjId,
        value: &mut Value,
    ) -> Result<(), VmError> {
        let refs = self.advice_for_field(|s| &s.field_set, fid);
        if refs.is_empty() {
            return Ok(());
        }
        let (class, field) = vm
            .field_info(fid)
            .map(|(c, f)| (Arc::<str>::from(c), Arc::<str>::from(f)))
            .unwrap_or_else(|| (Arc::from("?"), Arc::from("?")));
        for r in &refs {
            let jp = JoinPoint::FieldSet {
                class: class.clone(),
                field: field.clone(),
                obj,
                value: &mut *value,
            };
            self.run_advice(vm, r, jp)?;
        }
        Ok(())
    }

    fn exception_throw(
        &self,
        vm: &mut Vm,
        site: MethodId,
        exc: &VmException,
    ) -> Result<(), VmError> {
        let refs = self.advice_for_exception(false, &exc.class);
        if refs.is_empty() {
            return Ok(());
        }
        let sig = vm.method_sig(site).clone();
        for r in &refs {
            let jp = JoinPoint::ExceptionThrow {
                site: sig.clone(),
                exc: exc.clone(),
            };
            self.run_advice(vm, r, jp)?;
        }
        Ok(())
    }

    fn exception_catch(
        &self,
        vm: &mut Vm,
        site: MethodId,
        exc: &VmException,
    ) -> Result<(), VmError> {
        let refs = self.advice_for_exception(true, &exc.class);
        if refs.is_empty() {
            return Ok(());
        }
        let sig = vm.method_sig(site).clone();
        for r in &refs {
            let jp = JoinPoint::ExceptionCatch {
                site: sig.clone(),
                exc: exc.clone(),
            };
            self.run_advice(vm, r, jp)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aspect::{PortableClass, PortableMethod};
    use crate::weaver::{Prose, WeaveOptions};
    use pmp_telemetry::SimRng;
    use pmp_vm::builder::MethodBuilder;
    use pmp_vm::class::ClassDef;
    use pmp_vm::hooks::{HOOK_CATCH, HOOK_THROW};
    use pmp_vm::op::{Const, Op};
    use pmp_vm::types::TypeSig;
    use pmp_vm::vm::VmConfig;

    /// What the in-place updates must leave behind.
    #[derive(Default)]
    struct Reference {
        entry: BTreeMap<MethodId, Vec<AdviceRef>>,
        exit: BTreeMap<MethodId, Vec<AdviceRef>>,
        field_get: BTreeMap<FieldId, Vec<AdviceRef>>,
        field_set: BTreeMap<FieldId, Vec<AdviceRef>>,
        throw: Vec<(NamePat, AdviceRef)>,
        catch: Vec<(NamePat, AdviceRef)>,
        join_points: BTreeMap<u64, usize>,
        method_flags: Vec<u8>,
        field_flags: Vec<u8>,
        exception_flags: u8,
    }

    /// The reference: every woven aspect matched from scratch against
    /// every join point, in id order, each list then stably sorted by
    /// priority, and every hook flag derived from the tables.
    fn rebuild(s: &State, vm: &Vm) -> Reference {
        let mut r = Reference::default();
        for (id, w) in &s.woven {
            let mut join_points = 0usize;
            for b in &w.aspect.bindings {
                let aref = AdviceRef {
                    aspect: w.rt.clone(),
                    exec: advice_exec(vm, &w.rt, &b.advice),
                    priority: b.priority,
                };
                match &b.crosscut {
                    Crosscut::MethodEntry(p) | Crosscut::MethodExit(p) => {
                        let table = if matches!(b.crosscut, Crosscut::MethodEntry(_)) {
                            &mut r.entry
                        } else {
                            &mut r.exit
                        };
                        for (mid, sig) in vm.methods() {
                            if p.matches(sig) {
                                table.entry(mid).or_default().push(aref.clone());
                                join_points += 1;
                            }
                        }
                    }
                    Crosscut::FieldGet(p) | Crosscut::FieldSet(p) => {
                        let table = if matches!(b.crosscut, Crosscut::FieldGet(_)) {
                            &mut r.field_get
                        } else {
                            &mut r.field_set
                        };
                        for (fid, class, field, _ty) in vm.fields() {
                            if p.matches(class, field) {
                                table.entry(fid).or_default().push(aref.clone());
                                join_points += 1;
                            }
                        }
                    }
                    Crosscut::ExceptionThrow(p) => {
                        r.throw.push((p.clone(), aref.clone()));
                        join_points += 1;
                    }
                    Crosscut::ExceptionCatch(p) => {
                        r.catch.push((p.clone(), aref.clone()));
                        join_points += 1;
                    }
                }
            }
            r.join_points.insert(*id, join_points);
        }
        for list in (r.entry.values_mut()).chain(r.exit.values_mut()) {
            list.sort_by_key(|r| r.priority);
        }
        for list in (r.field_get.values_mut()).chain(r.field_set.values_mut()) {
            list.sort_by_key(|r| r.priority);
        }
        r.throw.sort_by_key(|(_, r)| r.priority);
        r.catch.sort_by_key(|(_, r)| r.priority);

        r.method_flags = vec![0; vm.method_count()];
        for (table, flag) in [(&r.entry, HOOK_ENTRY), (&r.exit, HOOK_EXIT)] {
            for mid in table.keys() {
                r.method_flags[mid.0 as usize] |= flag;
            }
        }
        r.field_flags = vec![0; vm.field_count()];
        for (table, flag) in [(&r.field_get, HOOK_GET), (&r.field_set, HOOK_SET)] {
            for fid in table.keys() {
                r.field_flags[fid.0 as usize] |= flag;
            }
        }
        for (list, flag) in [(&r.throw, HOOK_THROW), (&r.catch, HOOK_CATCH)] {
            if !list.is_empty() {
                r.exception_flags |= flag;
            }
        }
        r
    }

    /// One entry as dispatch sees it: aspect, priority, and the advice
    /// that runs (a native closure by address, a script method with its
    /// pre-resolved id and mask).
    fn entry_key(r: &AdviceRef) -> (u64, i32, String) {
        let exec = match &r.exec {
            AdviceExec::Native(f) => format!("native@{:p}", Arc::as_ptr(f).cast::<()>()),
            AdviceExec::Script { method, resolved } => format!("{method}@{resolved:?}"),
        };
        (r.aspect.id.0, r.priority, exec)
    }

    type Keys = Vec<(u64, i32, String)>;

    fn table_keys<K: Copy + Ord>(t: &BTreeMap<K, Vec<AdviceRef>>) -> BTreeMap<K, Keys> {
        t.iter()
            .map(|(k, list)| (*k, list.iter().map(entry_key).collect()))
            .collect()
    }

    fn list_keys(l: &[(NamePat, AdviceRef)]) -> Vec<(String, (u64, i32, String))> {
        l.iter()
            .map(|(p, r)| (p.to_string(), entry_key(r)))
            .collect()
    }

    fn assert_equals_rebuild(prose: &Prose, vm: &Vm, step: &str) {
        let s = prose.rt.state.lock();
        let r = rebuild(&s, vm);
        assert_eq!(table_keys(&s.entry), table_keys(&r.entry), "{step}: entry");
        assert_eq!(table_keys(&s.exit), table_keys(&r.exit), "{step}: exit");
        assert_eq!(
            table_keys(&s.field_get),
            table_keys(&r.field_get),
            "{step}: get"
        );
        assert_eq!(
            table_keys(&s.field_set),
            table_keys(&r.field_set),
            "{step}: set"
        );
        assert_eq!(list_keys(&s.throw), list_keys(&r.throw), "{step}: throw");
        assert_eq!(list_keys(&s.catch), list_keys(&r.catch), "{step}: catch");
        let join_points: BTreeMap<u64, usize> =
            s.woven.iter().map(|(id, w)| (*id, w.sites.len())).collect();
        assert_eq!(join_points, r.join_points, "{step}: join points");
        let hooks = vm.hooks();
        let method_flags: Vec<u8> = (0..vm.method_count())
            .map(|i| hooks.method_flags(MethodId(i as u32)))
            .collect();
        assert_eq!(method_flags, r.method_flags, "{step}: method flags");
        let field_flags: Vec<u8> = (0..vm.field_count())
            .map(|i| hooks.field_flags(FieldId(i as u32)))
            .collect();
        assert_eq!(field_flags, r.field_flags, "{step}: field flags");
        assert_eq!(
            hooks.exception_flags(),
            r.exception_flags,
            "{step}: exception flags"
        );
    }

    /// Crosscuts of all six kinds over the application classes `C<n>`
    /// and the script aspect classes `Asp<k>`.
    const CROSSCUTS: &[&str] = &[
        "before * *.*(..)",
        "before * C*.m1(..)",
        "before void *.*(int)",
        "after * *.a*(..)",
        "after int C*.*(..)",
        "get C*.f0",
        "get *.*",
        "set *.f1",
        "set Asp*.s",
        "throw Err*",
        "throw *",
        "catch *",
        "catch Boom",
    ];
    /// Few priorities, so equal-priority neighbours are common.
    const PRIORITIES: &[i32] = &[-1, 0, 0, 1];

    /// One to three bindings; often two of them on one crosscut.
    fn bindings(rng: &mut SimRng) -> Vec<(Crosscut, i32)> {
        let n = 1 + rng.below(3);
        let mut out: Vec<(Crosscut, i32)> = Vec::new();
        for i in 0..n {
            let src = if i > 0 && rng.below(3) == 0 {
                out[0].0.to_string()
            } else {
                rng.pick(CROSSCUTS).to_string()
            };
            let cut = Crosscut::parse(&src).expect("test crosscut parses");
            out.push((cut, *rng.pick(PRIORITIES)));
        }
        out
    }

    fn register_app_class(vm: &mut Vm, n: usize) {
        vm.register_class(
            ClassDef::build(format!("C{n}"))
                .field("f0", TypeSig::Int)
                .field("f1", TypeSig::Int)
                .method("m0", [TypeSig::Int], TypeSig::Void, |b| {
                    b.op(Op::Ret);
                })
                .method("m1", [], TypeSig::Int, |b| {
                    b.op(Op::Const(Const::Int(1))).op(Op::RetVal);
                })
                .done(),
        )
        .expect("fresh class name");
    }

    fn advice_method(name: &str) -> PortableMethod {
        let mut body = MethodBuilder::new();
        body.op(Op::Ret);
        PortableMethod {
            name: name.into(),
            params: ["any", "str", "any", "any", "any"]
                .map(String::from)
                .to_vec(),
            ret: "any".into(),
            body: body.build(),
        }
    }

    /// A script aspect over class `class`, whose advice methods `a0`..`a2`
    /// serve bindings 0..2; with `failing_init`, its `init` throws.
    fn script_aspect(
        name: &str,
        class: &str,
        cuts: Vec<(Crosscut, i32)>,
        failing_init: bool,
    ) -> Aspect {
        let mut methods: Vec<PortableMethod> =
            (0..3).map(|i| advice_method(&format!("a{i}"))).collect();
        if failing_init {
            let mut body = MethodBuilder::new();
            body.op(Op::Const(Const::Str("boom".into())))
                .op(Op::Throw("Boom".into()));
            methods.push(PortableMethod {
                name: "init".into(),
                params: vec![],
                ret: "void".into(),
                body: body.build(),
            });
        }
        let class = PortableClass {
            name: class.into(),
            fields: vec![("s".into(), "int".into())],
            methods,
        };
        let bindings = cuts
            .into_iter()
            .enumerate()
            .map(|(i, (cut, priority))| (cut, format!("a{i}"), priority))
            .collect();
        Aspect::script(name, class, bindings)
    }

    fn native_aspect(name: &str, cuts: Vec<(Crosscut, i32)>) -> Aspect {
        let mut aspect = Aspect::build(name).done().expect("no bindings yet");
        for (crosscut, priority) in cuts {
            aspect.bindings.push(crate::aspect::Binding {
                crosscut,
                advice: AdviceBody::Native(Arc::new(|_| Ok(()))),
                priority,
            });
        }
        aspect
    }

    /// Each step may first register an application class, then weaves a
    /// native or script aspect, unweaves one, refreshes, weaves a script
    /// aspect whose `init` throws, or unweaves everything; after every
    /// step the tables, join-point counts and hook flags must equal the
    /// reference.
    #[test]
    fn in_place_updates_equal_the_rebuild_reference() {
        for seed in 0..256 {
            let mut rng = SimRng::new(seed);
            let mut vm = Vm::new(VmConfig::default());
            register_app_class(&mut vm, 0);
            let prose = Prose::attach(&mut vm);
            let mut classes = 1;
            let mut woven: Vec<AspectId> = Vec::new();
            for step in 0..24 {
                let mut what = String::new();
                if rng.below(3) == 0 {
                    register_app_class(&mut vm, classes);
                    what.push_str(&format!("register C{classes}, then "));
                    classes += 1;
                }
                let name = format!("x{}", rng.below(4));
                match rng.below(16) {
                    0..=5 => {
                        let aspect = native_aspect(&name, bindings(&mut rng));
                        let id = prose.weave(&mut vm, aspect, WeaveOptions::default());
                        woven.push(id.expect("native weave"));
                        what.push_str("weave native");
                    }
                    6..=9 => {
                        let class = format!("Asp{}", rng.below(4));
                        let aspect = script_aspect(&name, &class, bindings(&mut rng), false);
                        let id = prose.weave(&mut vm, aspect, WeaveOptions::default());
                        woven.push(id.expect("script weave"));
                        what.push_str(&format!("weave script {class}"));
                    }
                    10..=12 if !woven.is_empty() => {
                        let id = woven.remove(rng.below(woven.len()));
                        prose.unweave(&mut vm, id, "test").expect("woven");
                        what.push_str(&format!("unweave {id}"));
                    }
                    13 => {
                        prose.refresh(&mut vm);
                        what.push_str("refresh");
                    }
                    14 => {
                        let class = format!("Bad{}", rng.below(2));
                        let aspect = script_aspect(&name, &class, bindings(&mut rng), true);
                        let failed = prose.weave(&mut vm, aspect, WeaveOptions::default());
                        assert!(failed.is_err(), "seed {seed}: init must fail");
                        what.push_str(&format!("weave {class} with failing init"));
                    }
                    _ => {
                        prose.unweave_all(&mut vm, "test");
                        woven.clear();
                        what.push_str("unweave all");
                    }
                }
                assert_equals_rebuild(&prose, &vm, &format!("seed {seed} step {step} ({what})"));
            }
        }
    }
}
