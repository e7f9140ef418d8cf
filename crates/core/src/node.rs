//! The two node roles of the platform: mobile nodes (VM + PROSE +
//! adaptation service + optional robot hardware) and base stations
//! (registrar + extension base + hall database + signing authority).

use crate::wiring::{install_node_sys, NodeWiring};
use pmp_crypto::{KeyPair, Principal};
use pmp_discovery::Registrar;
use pmp_durable::{Durable, DurableHub, RecoverReport, Store};
use pmp_midas::{
    AdaptationService, ExtensionBase, ExtensionPackage, ReceiverEvent, ReceiverPolicy,
    SignedExtension,
};
use pmp_net::{NetPort, NodeId};
use pmp_prose::Prose;
use pmp_robot::{new_handle, register_robot_classes, spawn_motor, spawn_plotter, Port, RobotHandle};
use pmp_store::{MovementRecord, MovementStore};
use pmp_vm::class::ClassDef;
use pmp_vm::prelude::{TypeSig, Value, Vm, VmConfig, VmError};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A mobile node: the paper's Fig. 2b stack (application + VM + PROSE +
/// adaptation service), optionally with the robot hardware of Fig. 3a.
pub struct MobileNode {
    /// The simulator node.
    pub node: NodeId,
    /// Advertised name (`"robot:1:1"`).
    pub name: String,
    /// The managed runtime.
    pub vm: Vm,
    /// The weaver.
    pub prose: Prose,
    /// The MIDAS adaptation service.
    pub receiver: AdaptationService,
    /// Host wiring (outbox, session caller).
    pub wiring: Arc<NodeWiring>,
    /// Robot hardware, if attached.
    pub robot: Option<RobotHandle>,
    /// Motor proxies by device name (mirror/replay targets).
    pub motors: BTreeMap<String, Value>,
    /// The plotter proxy, if a robot is attached.
    pub plotter: Option<Value>,
    /// Exposed service objects by class name (RPC targets).
    pub services: BTreeMap<String, Value>,
    /// Accumulated receiver events.
    pub events: Vec<ReceiverEvent>,
    /// Where app traffic is sent (the base that adapted us last).
    pub home_base: Option<NodeId>,
    /// Server-side RPC state: the at-most-once dedup table plus the
    /// execution ledger the duplicate-execution oracle reads.
    pub rpc_server: crate::rpc::RpcServer,
    /// Bounded ring of the spans recently recorded on this node (the
    /// flight recorder), filled at epoch barriers. Mobile nodes have no
    /// storage engine, so the ring lives in memory only.
    pub flight: pmp_trace::FlightRecorder,
}

impl std::fmt::Debug for MobileNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MobileNode")
            .field("node", &self.node)
            .field("name", &self.name)
            .field("robot", &self.robot.is_some())
            .finish_non_exhaustive()
    }
}

/// Registers the `DrawingService` class: the service `m_R` the robot
/// exports (paper §3.3 / §4.3 — "exports a drawing interface as a Jini
/// service"). Natives drive the `Plotter` proxy through VM calls, so
/// woven extensions intercept everything.
fn register_drawing_service(vm: &mut Vm) -> Result<(), VmError> {
    fn plotter_of(vm: &Vm, this: &Value) -> Result<Value, VmError> {
        let obj = this
            .as_ref_id()
            .ok_or_else(|| VmError::link("DrawingService without instance"))?;
        vm.get_field(obj, "DrawingService", "plotter")
    }
    let class = ClassDef::build("DrawingService")
        .field("plotter", TypeSig::object("Plotter"))
        .native(
            "drawLine",
            [TypeSig::Int, TypeSig::Int, TypeSig::Int, TypeSig::Int],
            TypeSig::Void,
            |vm, call| {
                let p = plotter_of(vm, &call.this)?;
                let (x0, y0) = (call.int_arg(0)?, call.int_arg(1)?);
                let (x1, y1) = (call.int_arg(2)?, call.int_arg(3)?);
                vm.call("Plotter", "penUp", p.clone(), vec![])?;
                vm.call(
                    "Plotter",
                    "moveTo",
                    p.clone(),
                    vec![Value::Int(x0), Value::Int(y0)],
                )?;
                vm.call("Plotter", "penDown", p.clone(), vec![])?;
                vm.call(
                    "Plotter",
                    "moveTo",
                    p.clone(),
                    vec![Value::Int(x1), Value::Int(y1)],
                )?;
                vm.call("Plotter", "penUp", p, vec![])?;
                Ok(Value::Null)
            },
        )
        .native(
            "moveTo",
            [TypeSig::Int, TypeSig::Int],
            TypeSig::Void,
            |vm, call| {
                let p = plotter_of(vm, &call.this)?;
                vm.call(
                    "Plotter",
                    "moveTo",
                    p,
                    vec![Value::Int(call.int_arg(0)?), Value::Int(call.int_arg(1)?)],
                )?;
                Ok(Value::Null)
            },
        )
        .native("position", [], TypeSig::Int, |vm, call| {
            // Encoded x*100000 + y for a single-int RPC reply.
            let p = plotter_of(vm, &call.this)?;
            let x = vm.call("Plotter", "x", p.clone(), vec![])?.as_int().unwrap_or(0);
            let y = vm.call("Plotter", "y", p, vec![])?.as_int().unwrap_or(0);
            Ok(Value::Int(x * 100_000 + y))
        })
        .done();
    vm.register_class(class)?;
    Ok(())
}

impl MobileNode {
    /// Builds a mobile node. When `with_robot` is set, the robot
    /// hardware, motor/plotter proxies, and the `DrawingService` are
    /// installed and exposed.
    ///
    /// # Errors
    ///
    /// VM registration failures.
    pub fn build(
        node: NodeId,
        name: impl Into<String>,
        policy: ReceiverPolicy,
        clock: Arc<dyn Fn() -> u64 + Send + Sync>,
        with_robot: bool,
    ) -> Result<MobileNode, VmError> {
        let name = name.into();
        let mut vm = Vm::new(VmConfig::default());
        vm.set_clock(clock.clone());
        let wiring = Arc::new(NodeWiring::default());
        install_node_sys(&mut vm, &name, &wiring);

        let mut robot = None;
        let mut motors = BTreeMap::new();
        let mut plotter = None;
        let mut services = BTreeMap::new();
        if with_robot {
            let handle = new_handle();
            handle.lock().rcx.set_clock(clock);
            register_robot_classes(&mut vm, &handle)?;
            for port in Port::MOTORS {
                motors.insert(format!("motor:{port}"), spawn_motor(&mut vm, port)?);
            }
            let p = spawn_plotter(&mut vm)?;
            register_drawing_service(&mut vm)?;
            let svc = vm.new_object("DrawingService")?;
            let obj = svc.as_ref_id().expect("fresh object");
            vm.set_field(obj, "DrawingService", "plotter", p.clone())?;
            services.insert("DrawingService".to_string(), svc);
            plotter = Some(p);
            robot = Some(handle);
        }

        let prose = Prose::attach(&mut vm);
        let receiver = AdaptationService::new(node, name.clone(), policy);
        Ok(MobileNode {
            node,
            name,
            vm,
            prose,
            receiver,
            wiring,
            robot,
            motors,
            plotter,
            services,
            events: Vec::new(),
            home_base: None,
            rpc_server: crate::rpc::RpcServer::new(),
            flight: pmp_trace::FlightRecorder::default(),
        })
    }

    /// The robot's recorded drawing, if hardware is attached.
    pub fn canvas(&self) -> Option<pmp_robot::Canvas> {
        self.robot.as_ref().map(|h| h.lock().canvas().clone())
    }
}

/// A base station: one per proactive space (production hall).
pub struct BaseStation {
    /// The simulator node.
    pub node: NodeId,
    /// Hall name (`"hall-a"`).
    pub name: String,
    /// The Jini-like lookup service.
    pub registrar: Registrar,
    /// The MIDAS extension base. Its discovery client is the base's
    /// only one: it scans for adaptation services and carries the
    /// host's federated lookups and service registrations.
    pub base: ExtensionBase,
    /// The hall database (movement logs).
    pub store: MovementStore,
    /// Extra persisted key/values from the persistence extension.
    pub persisted: Vec<(String, String, String)>,
    /// Billing settlements `(robot, reason, amount)`.
    pub charges: Vec<(String, String, i64)>,
    /// Mirror routes: source robot name → `(replica node, num, den)`.
    pub mirrors: BTreeMap<String, Vec<(NodeId, i64, i64)>>,
    /// The storage engine under this base: movement log + extension
    /// base state are WAL'd through it and survive a crash.
    pub durable: DurableHub,
    /// Bounded ring of the spans recently recorded at this base (the
    /// flight recorder), filled at epoch barriers and WAL'd so a
    /// post-crash `.repro` still carries the moments before the fault.
    pub flight: pmp_trace::FlightRecorder,
    /// Set while the base is down (between [`crate::Platform::crash_base`]
    /// and [`crate::Platform::restart_base`]); a crashed base receives
    /// no traffic.
    pub crashed: bool,
    /// Caller-side RPC call table: outstanding semantic calls and
    /// their retransmission bookkeeping, durable under `"rpc.calls"`
    /// so a restarted base resumes retrying with the same request ids.
    pub rpc: crate::rpc::RpcEngine,
    authority: KeyPair,
    principal_name: String,
}

impl std::fmt::Debug for BaseStation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaseStation")
            .field("node", &self.node)
            .field("name", &self.name)
            .field("store_len", &self.store.len())
            .finish_non_exhaustive()
    }
}

impl BaseStation {
    /// Builds a base station whose signing authority is derived from
    /// `authority_seed`, over a fresh storage engine.
    pub fn build(node: NodeId, name: impl Into<String>, authority_seed: &[u8]) -> BaseStation {
        let name = name.into();
        let durable = DurableHub::new();
        let registrar = Registrar::new(node, format!("lookup:{name}"));
        let mut base = ExtensionBase::new(node, node);
        base.attach_durable(durable.clone());
        let mut rpc = crate::rpc::RpcEngine::new();
        rpc.attach(durable.clone());
        BaseStation {
            node,
            registrar,
            base,
            store: MovementStore::new(),
            persisted: Vec::new(),
            charges: Vec::new(),
            mirrors: BTreeMap::new(),
            durable,
            flight: pmp_trace::FlightRecorder::new(pmp_trace::DEFAULT_FLIGHT_CAP),
            crashed: false,
            rpc,
            authority: KeyPair::from_seed(authority_seed),
            principal_name: format!("authority:{name}"),
            name,
        }
    }

    /// Starts the registrar and the extension base, and arms a retry
    /// timer for every outstanding call (after a restart, those in
    /// flight at the crash, under their *same* request ids).
    pub fn start(&mut self, sim: &mut dyn NetPort) {
        self.registrar.start(sim);
        self.base.start(sim);
        for req in self.rpc.rearm_tokens() {
            self.rpc.arm_retry(sim, self.node, req);
        }
    }

    /// Restarts a crashed station in place: its memory (registrar
    /// table, extension base state, stores, call table, in-memory
    /// ledgers) resets and is recovered from the surviving storage
    /// engine; what it was built or configured with stays. Call
    /// [`BaseStation::start`] afterwards.
    pub fn restart(&mut self) -> RecoverReport {
        self.registrar.restart();
        self.base.restart();
        self.store = MovementStore::new();
        self.persisted.clear();
        self.charges.clear();
        self.flight = pmp_trace::FlightRecorder::new(self.flight.cap());
        self.crashed = false;
        self.rpc = crate::rpc::RpcEngine::new();
        self.rpc.attach(self.durable.clone());
        self.recover()
    }

    /// Appends a movement record to the hall database, WAL-logging it
    /// so it survives a crash once the epoch commits.
    pub fn record_movement(&mut self, record: MovementRecord) {
        let applied = self.store.commit(&mut self.durable, record);
        debug_assert!(applied.is_ok(), "movement records always apply");
    }

    /// Appends an epoch's worth of flight entries as **one** WAL
    /// record, mirroring the engine's group-commit discipline: per-span
    /// framing cost is paid once per node per barrier, not per span.
    /// Flight records are also weightless — they commit and replay like
    /// any other record but never advance the snapshot cadence, so
    /// trace chatter cannot force extra full-state snapshots.
    pub fn note_flight_batch(&mut self, entries: Vec<pmp_trace::FlightEntry>) {
        if entries.is_empty() {
            return;
        }
        let applied = self.flight.commit(&mut self.durable, entries);
        debug_assert!(applied.is_ok(), "flight batches always apply");
    }

    /// The base's durable stores — movement log, extension base,
    /// flight recorder, RPC call table — in the order checkpoints,
    /// recovery and [`BaseStation::durable_digest`] walk them. Each is
    /// also a namespace stream subscribers can follow.
    pub fn stores(&self) -> [&dyn Durable; 4] {
        [&self.store, &self.base, &self.flight, &self.rpc]
    }

    /// [`BaseStation::stores`], mutably, for recovery.
    fn stores_mut(&mut self) -> [&mut dyn Durable; 4] {
        [
            &mut self.store,
            &mut self.base,
            &mut self.flight,
            &mut self.rpc,
        ]
    }

    /// Snapshots the base's durable stores and compacts the WAL.
    pub fn checkpoint(&mut self) {
        self.durable.clone().checkpoint(&self.stores());
    }

    /// Recovers the base's durable stores from the storage engine's
    /// committed image.
    pub fn recover(&mut self) -> RecoverReport {
        self.durable.clone().recover(&mut self.stores_mut())
    }

    /// A stable digest over the base's durable state — compare across
    /// a crash/restart boundary to prove recovery was exact.
    pub fn durable_digest(&self) -> u64 {
        let mut h = pmp_telemetry::Fnv64::new();
        for store in self.stores() {
            h.write_u64(store.state_digest());
        }
        h.finish()
    }

    /// The principal mobile nodes must trust to accept this hall's
    /// extensions.
    pub fn principal(&self) -> Principal {
        Principal::new(self.principal_name.clone(), self.authority.public_key())
    }

    /// Signs a package with this hall's authority.
    pub fn seal(&self, pkg: &ExtensionPackage) -> SignedExtension {
        SignedExtension::seal(self.principal_name.clone(), &self.authority, pkg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mobile_node_with_robot_exposes_services() {
        let node = MobileNode::build(
            NodeId(0),
            "robot:1:1",
            ReceiverPolicy::new(),
            Arc::new(|| 0),
            true,
        )
        .unwrap();
        assert!(node.robot.is_some());
        assert_eq!(node.motors.len(), 3);
        assert!(node.services.contains_key("DrawingService"));
        assert!(node.canvas().unwrap().is_empty());
    }

    #[test]
    fn drawing_service_draws_via_vm() {
        let mut node = MobileNode::build(
            NodeId(0),
            "robot:1:1",
            ReceiverPolicy::new(),
            Arc::new(|| 0),
            true,
        )
        .unwrap();
        let svc = node.services["DrawingService"].clone();
        node.vm
            .call(
                "DrawingService",
                "drawLine",
                svc.clone(),
                vec![0.into(), 0.into(), 10.into(), 0.into()],
            )
            .unwrap();
        let canvas = node.canvas().unwrap();
        assert_eq!(canvas.len(), 1);
        assert_eq!(canvas.strokes()[0].to, (10, 0));
        let pos = node
            .vm
            .call("DrawingService", "position", svc, vec![])
            .unwrap();
        assert_eq!(pos, Value::Int(10 * 100_000));
    }

    #[test]
    fn base_station_principal_and_sealing() {
        let base = BaseStation::build(NodeId(1), "hall-a", b"seed-a");
        assert_eq!(base.principal().name, "authority:hall-a");
        let pkg = pmp_extensions::monitoring::package(1);
        let sealed = base.seal(&pkg);
        assert_eq!(sealed.signer(), "authority:hall-a");
        let mut trust = pmp_crypto::TrustStore::new();
        trust.add(base.principal());
        assert!(sealed.verify_and_open(&trust).is_ok());
    }

    #[test]
    fn mobile_node_without_robot_is_bare() {
        let node = MobileNode::build(
            NodeId(0),
            "pda:7",
            ReceiverPolicy::new(),
            Arc::new(|| 0),
            false,
        )
        .unwrap();
        assert!(node.robot.is_none());
        assert!(node.services.is_empty());
        assert!(node.canvas().is_none());
    }
}
