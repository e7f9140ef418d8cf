//! Shared plumbing: the advice-parameter convention, class-name
//! versioning, and host-side system operations extensions rely on.

use pmp_telemetry::sync::Mutex;
use pmp_vm::perm::Permission;
use pmp_vm::prelude::{Value, Vm};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The 5-parameter advice signature, in display form
/// (see `pmp_prose::runtime` for the slot meanings).
pub fn advice_params() -> Vec<String> {
    vec![
        "any".into(),
        "str".into(),
        "any".into(),
        "any".into(),
        "any".into(),
    ]
}

/// Aspect class names embed the version: replacing an extension ships a
/// *differently named* class, since a VM's classes are immutable once
/// registered.
pub fn versioned_class(base: &str, version: u32) -> String {
    format!("{base}_v{version}")
}

/// Registers the session blackboard: `session.set(key, value)` and
/// `session.get(key) -> value` — the channel through which the implicit
/// session-management extension hands the caller identity to dependent
/// extensions like access control (paper §3.3).
///
/// Returns the shared map so the host can inspect or pre-seed it.
pub fn register_session_blackboard(vm: &mut Vm) -> Arc<Mutex<BTreeMap<String, Value>>> {
    let board: Arc<Mutex<BTreeMap<String, Value>>> = Arc::new(Mutex::new(BTreeMap::new()));
    let b1 = board.clone();
    vm.register_sys(
        "session.set",
        None,
        Arc::new(move |_vm, args: Vec<Value>| {
            if let Some(Value::Str(key)) = args.first() {
                let value = args.get(1).cloned().unwrap_or(Value::Null);
                b1.lock().insert(key.to_string(), value);
            }
            Ok(Value::Null)
        }),
    );
    let b2 = board.clone();
    vm.register_sys(
        "session.get",
        None,
        Arc::new(move |_vm, args: Vec<Value>| {
            let Some(Value::Str(key)) = args.first() else {
                return Ok(Value::Null);
            };
            Ok(b2.lock().get(&**key).cloned().unwrap_or(Value::Null))
        }),
    );
    board
}

/// A recorded host-side post (monitoring, replication, billing,
/// persistence all funnel through sinks like this in tests and in the
/// platform).
#[derive(Debug, Clone, PartialEq)]
pub struct Posted {
    /// The system-operation name that received it.
    pub op: String,
    /// The raw arguments.
    pub args: Vec<Value>,
}

/// Registers a recording sink for `op` guarded by `perm`; returns the
/// record list. Used by tests and by hosts that just want the data.
pub fn register_sink(
    vm: &mut Vm,
    op: &str,
    perm: Option<Permission>,
) -> Arc<Mutex<Vec<Posted>>> {
    let log: Arc<Mutex<Vec<Posted>>> = Arc::new(Mutex::new(Vec::new()));
    let l = log.clone();
    let name = op.to_string();
    vm.register_sys(
        op,
        perm,
        Arc::new(move |_vm, args: Vec<Value>| {
            l.lock().push(Posted {
                op: name.clone(),
                args,
            });
            Ok(Value::Null)
        }),
    );
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_vm::prelude::VmConfig;

    #[test]
    fn blackboard_set_get() {
        let mut vm = Vm::new(VmConfig::default());
        let board = register_session_blackboard(&mut vm);
        vm.sys(
            "session.set",
            vec![Value::str("caller"), Value::str("operator:7")],
        )
        .unwrap();
        let got = vm.sys("session.get", vec![Value::str("caller")]).unwrap();
        assert_eq!(got, Value::str("operator:7"));
        assert_eq!(board.lock().len(), 1);
        let missing = vm.sys("session.get", vec![Value::str("nope")]).unwrap();
        assert_eq!(missing, Value::Null);
    }

    #[test]
    fn sink_records_posts() {
        let mut vm = Vm::new(VmConfig::default());
        let log = register_sink(&mut vm, "monitor.post", None);
        vm.sys("monitor.post", vec![Value::str("motor:A"), Value::Int(30)])
            .unwrap();
        let posts = log.lock();
        assert_eq!(posts.len(), 1);
        assert_eq!(posts[0].args[1], Value::Int(30));
    }

    #[test]
    fn versioned_class_names() {
        assert_eq!(versioned_class("HwMonitoring", 3), "HwMonitoring_v3");
    }
}
