//! Host-side wiring of a mobile node's VM: the system operations that
//! extensions call (`monitor.post`, `session.caller`, ...), an outbox
//! that turns them into asynchronous network messages, and the
//! app-level wire protocol between robots and base stations.

use pmp_telemetry::sync::{Mutex, MutexGuard};
use pmp_telemetry::DirtyMark;
use pmp_store::MovementRecord;
use pmp_vm::perm::Permission;
use pmp_vm::prelude::{Value, Vm};
use pmp_wire::wire_enum;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};

/// Channel for application-level traffic (monitoring, billing, ...).
pub const APP_CHANNEL: &str = "app";
/// Channel for mirrored movements (base → replica robot).
pub const MIRROR_CHANNEL: &str = "mirror";
/// Channel for remote service calls.
pub const RPC_CHANNEL: &str = "rpc";

/// An application message from a robot to its base station.
#[derive(Debug, Clone, PartialEq)]
pub enum AppMsg {
    /// A monitored movement (the monitoring extension, Fig. 3b step 2).
    Monitor {
        /// The movement record (robot name filled by the sender host).
        record: MovementRecord,
    },
    /// A movement to mirror to replicas (the replication extension).
    Replicate {
        /// The movement record.
        record: MovementRecord,
    },
    /// A billing settlement (the accounting extension).
    Charge {
        /// Robot name.
        robot: String,
        /// Reason (e.g. the shutdown reason).
        reason: String,
        /// Amount in billing units.
        amount: i64,
    },
    /// A persisted field write (the orthogonal persistence extension).
    Persist {
        /// Robot name.
        robot: String,
        /// `Class.field` key.
        key: String,
        /// Display form of the value.
        value: String,
    },
}

wire_enum!(AppMsg {
    0 => Monitor { record: MovementRecord },
    1 => Replicate { record: MovementRecord },
    2 => Charge { robot: String, reason: String, amount: i64 },
    3 => Persist { robot: String, key: String, value: String },
});

/// A remote service call and its reply.
#[derive(Debug, Clone, PartialEq)]
pub enum RpcMsg {
    /// Invoke `class.method` on the target's exposed service object.
    Call {
        /// Caller identity (becomes `session.caller` during dispatch).
        caller: String,
        /// Service class name.
        class: String,
        /// Method name.
        method: String,
        /// Integer arguments (the drawing API is integer-based).
        args: Vec<i64>,
        /// Correlation id.
        req: u64,
    },
    /// The outcome.
    Reply {
        /// Correlation id.
        req: u64,
        /// Whether the call completed normally.
        ok: bool,
        /// Display form of the return value, or the error text.
        value: String,
    },
    /// A call carrying explicit invocation semantics (see
    /// [`crate::rpc::InvocationSemantics`]). A separate wire tag keeps
    /// the legacy `Call`/`Reply` encodings byte-identical, so every
    /// pinned trace from before the semantics work still replays.
    CallSem {
        /// Caller identity.
        caller: String,
        /// Service class name.
        class: String,
        /// Method name.
        method: String,
        /// Integer arguments.
        args: Vec<i64>,
        /// Correlation id (stable across retransmissions).
        req: u64,
        /// The requested delivery/execution guarantee.
        sem: crate::rpc::InvocationSemantics,
        /// 1-based attempt counter, for observability only — the
        /// server keys dedup on `req`, never on the attempt.
        attempt: u32,
    },
}

wire_enum!(RpcMsg {
    0 => Call { caller: String, class: String, method: String, args: Vec<i64>, req: u64 },
    1 => Reply { req: u64, ok: bool, value: String },
    2 => CallSem {
        caller: String,
        class: String,
        method: String,
        args: Vec<i64>,
        req: u64,
        sem: crate::rpc::InvocationSemantics,
        attempt: u32,
    },
});

/// Shared mutable wiring state of one mobile node's VM.
#[derive(Debug, Default)]
pub struct NodeWiring {
    /// Messages queued by sys ops, flushed to the home base by the
    /// platform pump ("first locally stored and then asynchronously
    /// sent to a base station", §4.4).
    pub outbox: Outbox,
    /// The current remote caller (set around RPC dispatch).
    pub caller: Mutex<String>,
}

/// A node's outbox. Data queued on it between pumps ships at the next
/// pump's start, and only the outboxes that hold data are visited
/// then: a lock released with the outbox non-empty sets the node's
/// dirty mark, once the platform has attached one.
#[derive(Debug, Default)]
pub struct Outbox {
    msgs: Mutex<Vec<AppMsg>>,
    mark: OnceLock<DirtyMark>,
}

impl Outbox {
    /// Locks the queued messages.
    pub fn lock(&self) -> OutboxGuard<'_> {
        OutboxGuard {
            msgs: self.msgs.lock(),
            mark: self.mark.get(),
        }
    }

    /// Sets `mark` whenever data is left queued from now on (the first
    /// attached mark stays).
    pub(crate) fn attach_mark(&self, mark: DirtyMark) {
        let _ = self.mark.set(mark);
    }
}

/// The locked outbox; see [`Outbox`].
pub struct OutboxGuard<'a> {
    msgs: MutexGuard<'a, Vec<AppMsg>>,
    mark: Option<&'a DirtyMark>,
}

impl Deref for OutboxGuard<'_> {
    type Target = Vec<AppMsg>;

    fn deref(&self) -> &Vec<AppMsg> {
        &self.msgs
    }
}

impl DerefMut for OutboxGuard<'_> {
    fn deref_mut(&mut self) -> &mut Vec<AppMsg> {
        &mut self.msgs
    }
}

impl Drop for OutboxGuard<'_> {
    fn drop(&mut self) {
        if let (Some(mark), false) = (self.mark, self.msgs.is_empty()) {
            mark.set();
        }
    }
}

/// Installs the extension-facing system operations on a mobile node's
/// VM. `robot_name` stamps outgoing records.
pub fn install_node_sys(vm: &mut Vm, robot_name: &str, wiring: &Arc<NodeWiring>) {
    // Session blackboard + caller.
    pmp_extensions::support::register_session_blackboard(vm);
    let w = wiring.clone();
    vm.register_sys(
        "session.caller",
        None,
        Arc::new(move |_vm, _args| Ok(Value::str(w.caller.lock().clone()))),
    );

    // monitor.post(device, command, arg, duration) / replicate.post(...)
    for (op, replicate) in [("monitor.post", false), ("replicate.post", true)] {
        let w = wiring.clone();
        let robot = robot_name.to_string();
        vm.register_sys(
            op,
            Some(Permission::Net),
            Arc::new(move |vm: &mut Vm, args: Vec<Value>| {
                let record = MovementRecord {
                    robot: robot.clone(),
                    device: args
                        .first()
                        .and_then(|v| v.as_str().map(str::to_string))
                        .unwrap_or_default(),
                    command: args
                        .get(1)
                        .and_then(|v| v.as_str().map(str::to_string))
                        .unwrap_or_default(),
                    args: vec![args.get(2).and_then(Value::as_int).unwrap_or(0)],
                    issued_at: vm.now(),
                    duration_ns: args.get(3).and_then(Value::as_int).unwrap_or(0) as u64,
                };
                let msg = if replicate {
                    AppMsg::Replicate { record }
                } else {
                    AppMsg::Monitor { record }
                };
                w.outbox.lock().push(msg);
                Ok(Value::Null)
            }),
        );
    }

    // billing.charge(reason, amount)
    let w = wiring.clone();
    let robot = robot_name.to_string();
    vm.register_sys(
        "billing.charge",
        Some(Permission::Net),
        Arc::new(move |_vm, args: Vec<Value>| {
            w.outbox.lock().push(AppMsg::Charge {
                robot: robot.clone(),
                reason: args
                    .first()
                    .and_then(|v| v.as_str().map(str::to_string))
                    .unwrap_or_default(),
                amount: args.get(1).and_then(Value::as_int).unwrap_or(0),
            });
            Ok(Value::Null)
        }),
    );

    // persist.put(key, value)
    let w = wiring.clone();
    let robot = robot_name.to_string();
    vm.register_sys(
        "persist.put",
        Some(Permission::Store),
        Arc::new(move |_vm, args: Vec<Value>| {
            w.outbox.lock().push(AppMsg::Persist {
                robot: robot.clone(),
                key: args
                    .first()
                    .and_then(|v| v.as_str().map(str::to_string))
                    .unwrap_or_default(),
                value: args.get(1).map(ToString::to_string).unwrap_or_default(),
            });
            Ok(Value::Null)
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_vm::prelude::VmConfig;

    #[test]
    fn app_msg_roundtrips() {
        let msgs = vec![
            AppMsg::Monitor {
                record: MovementRecord {
                    robot: "r".into(),
                    device: "motor:A".into(),
                    command: "rotate".into(),
                    args: vec![30],
                    issued_at: 5,
                    duration_ns: 6,
                },
            },
            AppMsg::Charge {
                robot: "r".into(),
                reason: "left".into(),
                amount: 15,
            },
            AppMsg::Persist {
                robot: "r".into(),
                key: "Robot.state".into(),
                value: "7".into(),
            },
        ];
        for m in msgs {
            let bytes = pmp_wire::to_bytes(&m);
            assert_eq!(pmp_wire::from_bytes::<AppMsg>(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn rpc_roundtrips() {
        let m = RpcMsg::Call {
            caller: "operator:1".into(),
            class: "DrawingService".into(),
            method: "drawLine".into(),
            args: vec![0, 0, 5, 5],
            req: 3,
        };
        let bytes = pmp_wire::to_bytes(&m);
        assert_eq!(pmp_wire::from_bytes::<RpcMsg>(&bytes).unwrap(), m);
    }

    #[test]
    fn sys_ops_fill_the_outbox() {
        let mut vm = pmp_vm::Vm::new(VmConfig::default());
        let wiring = Arc::new(NodeWiring::default());
        install_node_sys(&mut vm, "robot:1:1", &wiring);
        vm.sys(
            "monitor.post",
            vec![
                Value::str("motor:A"),
                Value::str("Motor.rotate"),
                Value::Int(30),
                Value::Int(500),
            ],
        )
        .unwrap();
        vm.sys(
            "billing.charge",
            vec![Value::str("bye"), Value::Int(9)],
        )
        .unwrap();
        let outbox = wiring.outbox.lock();
        assert_eq!(outbox.len(), 2);
        match &outbox[0] {
            AppMsg::Monitor { record } => {
                assert_eq!(record.robot, "robot:1:1");
                assert_eq!(record.args, vec![30]);
                assert_eq!(record.duration_ns, 500);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn session_caller_reflects_wiring_state() {
        let mut vm = pmp_vm::Vm::new(VmConfig::default());
        let wiring = Arc::new(NodeWiring::default());
        install_node_sys(&mut vm, "r", &wiring);
        *wiring.caller.lock() = "operator:2".into();
        let got = vm.sys("session.caller", vec![]).unwrap();
        assert_eq!(got, Value::str("operator:2"));
    }
}
