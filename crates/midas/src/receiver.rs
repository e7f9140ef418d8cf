//! The adaptation service each mobile node carries (paper Fig. 2b):
//! advertises the node, accepts signed extensions, weaves them with
//! PROSE, tracks their leases, and withdraws them autonomously.

use crate::package::{ExtensionPackage, SignedExtension};
use crate::policy::ReceiverPolicy;
use crate::proto::{MidasMsg, ACK_RELEASED, ACK_UNKNOWN_GRANT, CHANNEL};
use pmp_analyze::{perms, termination, verifier};
use pmp_analyze::{AnalysisReport, AnalyzeOptions, Severity, SysPerm};
use pmp_discovery::{DiscoveryClient, DiscoveryEvent, Lease, ServiceItem};
use pmp_net::{Incoming, NetPort, NodeId};
use pmp_prose::{Aspect, AspectId, Prose, WeaveOptions};
use pmp_telemetry::{Sink, Stopwatch, Subsystem};
use pmp_trace::{TraceCtx, Traced, Tracer};
use pmp_vm::perm::Permissions;
use pmp_vm::Vm;
use std::collections::{BTreeMap, BTreeSet};

const EXPIRY_TAG: &str = "midas.expiry";
/// Presence (discovery) lease the receiver advertises under.
const ADVERTISE_LEASE_NS: u64 = 2_000_000_000;

/// Events surfaced by the adaptation service to its host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReceiverEvent {
    /// An extension was verified, woven, and is now active.
    Installed {
        /// Extension id.
        ext_id: String,
        /// Version.
        version: u32,
        /// The delivering base's node.
        base: NodeId,
    },
    /// A delivered extension was refused.
    Rejected {
        /// Extension id (or `"?"` if unreadable).
        ext_id: String,
        /// Why.
        reason: String,
    },
    /// An extension was withdrawn (lease expiry, revocation,
    /// replacement, or cascade).
    Removed {
        /// Extension id.
        ext_id: String,
        /// Why.
        reason: String,
    },
    /// A dependency was requested from the delivering base.
    DependencyRequested {
        /// The missing dependency id.
        ext_id: String,
    },
    /// A new base took over this node's leases after roaming: the
    /// listed extensions' grants were swapped in place — nothing was
    /// reinstalled or rewoven.
    Rebound {
        /// The adopting base.
        base: NodeId,
        /// Rebound extension ids, sorted.
        ext_ids: Vec<String>,
    },
}

#[derive(Debug)]
struct Installed {
    version: u32,
    aspect_id: AspectId,
    grant: u64,
    base: NodeId,
    lease: Lease,
    implicit: bool,
    requires: Vec<String>,
    dependents: BTreeSet<String>,
}

#[derive(Debug)]
struct PendingInstall {
    ext: SignedExtension,
    lease_ns: u64,
    grant: u64,
    from: NodeId,
    ctx: TraceCtx,
}

/// The adaptation-service state machine. Drive it by passing every
/// [`Incoming`] of its node — along with the node's VM and PROSE — to
/// [`AdaptationService::handle`].
#[derive(Debug)]
pub struct AdaptationService {
    node: NodeId,
    name: String,
    /// Trust store and permission caps.
    pub policy: ReceiverPolicy,
    discovery: DiscoveryClient,
    installed: BTreeMap<String, Installed>,
    pending: Vec<PendingInstall>,
    expiry_check_ns: u64,
    expiry_token: Option<u64>,
    started: bool,
    events: Vec<ReceiverEvent>,
    telemetry: Sink,
    tracer: Tracer,
}

impl AdaptationService {
    /// Creates the adaptation service for `node`, advertising under
    /// `name` (the paper's `robot:1:1`).
    pub fn new(node: NodeId, name: impl Into<String>, policy: ReceiverPolicy) -> Self {
        Self {
            node,
            name: name.into(),
            policy,
            discovery: DiscoveryClient::new(node),
            installed: BTreeMap::new(),
            pending: Vec::new(),
            expiry_check_ns: 500_000_000, // 0.5 s sweep
            expiry_token: None,
            started: false,
            events: Vec::new(),
            telemetry: Sink::default(),
            tracer: Tracer::new(node.0),
        }
    }

    /// Records receiver activity through `sink` instead of the
    /// receiver's private one: `midas.receiver.*` counters,
    /// verify/weave wall-time histograms, and the verify/weave stages
    /// of the distribution trail in the journal. The inner discovery
    /// client records through it too.
    pub fn attach_sink(&mut self, sink: Sink) {
        self.discovery.attach_sink(sink.clone());
        self.telemetry = sink;
    }

    /// Mints verify/weave spans (and arms first-interception watches)
    /// on the node cell's [`Tracer`]. The receiver's own is disabled,
    /// so until then contexts still flow through it but no spans are
    /// recorded.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The tracer verify/weave spans are minted on; the host polls its
    /// first-interception watches after each dispatch.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Starts advertising and lease sweeping. Idempotent.
    pub fn start(&mut self, sim: &mut dyn NetPort) {
        if self.started {
            return;
        }
        self.started = true;
        self.discovery.start(sim);
        self.expiry_token = Some(sim.set_timer(self.node, self.expiry_check_ns, EXPIRY_TAG));
    }

    fn advertise(&mut self, sim: &mut dyn NetPort, registrar: NodeId) {
        let item = ServiceItem::new("midas.adaptation", self.name.clone(), self.node.0)
            .with_attr("vm", "pmp");
        self.discovery
            .register(sim, registrar, item, ADVERTISE_LEASE_NS);
    }

    /// Ids of currently installed extensions, sorted.
    pub fn installed_ids(&self) -> Vec<String> {
        self.installed.keys().cloned().collect()
    }

    /// Is the extension installed?
    pub fn is_installed(&self, ext_id: &str) -> bool {
        self.installed.contains_key(ext_id)
    }

    /// Absolute lease deadline (sim-time ns) per installed extension,
    /// sorted by id. Oracles use this to bound how long an extension
    /// may outlive its lease: one sweep interval after the deadline the
    /// sweep must have withdrawn it.
    pub fn lease_deadlines(&self) -> Vec<(String, u64)> {
        self.installed
            .iter()
            .map(|(id, inst)| (id.clone(), inst.lease.expires.0))
            .collect()
    }

    /// The lease-sweep period: the slack an oracle must grant before
    /// calling a still-installed, lapsed extension a violation.
    pub fn sweep_interval_ns(&self) -> u64 {
        self.expiry_check_ns
    }

    /// The node's advertised name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// `(extension id, grant)` per installed extension, sorted by id.
    /// Federation oracles compare these across a roaming handoff.
    pub fn grants(&self) -> Vec<(String, u64)> {
        self.installed
            .iter()
            .map(|(id, i)| (id.clone(), i.grant))
            .collect()
    }

    /// The base currently holding an installed extension's lease.
    pub fn lease_holder(&self, ext_id: &str) -> Option<NodeId> {
        self.installed.get(ext_id).map(|i| i.base)
    }

    /// Processes one inbox entry.
    pub fn handle(
        &mut self,
        sim: &mut dyn NetPort,
        vm: &mut Vm,
        prose: &Prose,
        incoming: &Incoming,
    ) -> Vec<ReceiverEvent> {
        match incoming {
            Incoming::Timer { token, .. } if Some(*token) == self.expiry_token => {
                self.sweep(sim, vm, prose);
                self.expiry_token =
                    Some(sim.set_timer(self.node, self.expiry_check_ns, EXPIRY_TAG));
            }
            Incoming::Message {
                from,
                channel,
                payload,
                ..
            } if &**channel == CHANNEL => {
                if let Ok(env) = pmp_wire::from_bytes::<Traced<MidasMsg>>(payload) {
                    self.handle_midas(sim, vm, prose, *from, env.msg, env.ctx);
                }
            }
            other => {
                for ev in self.discovery.handle(sim, other) {
                    match ev {
                        // Advertise the adaptation service (Fig. 2b):
                        // announce that this node can be adapted.
                        DiscoveryEvent::RegistrarDiscovered { node, .. } => {
                            self.advertise(sim, node);
                        }
                        // A lossy radio killed our presence lease while
                        // the registrar is still around: re-advertise
                        // immediately.
                        DiscoveryEvent::RegistrationLost { registrar, .. }
                            if self
                                .discovery
                                .known_registrars()
                                .iter()
                                .any(|(n, _)| *n == registrar)
                            => {
                                self.advertise(sim, registrar);
                            }
                        _ => {}
                    }
                }
            }
        }
        std::mem::take(&mut self.events)
    }

    fn handle_midas(
        &mut self,
        sim: &mut dyn NetPort,
        vm: &mut Vm,
        prose: &Prose,
        from: NodeId,
        msg: MidasMsg,
        ctx: TraceCtx,
    ) {
        match msg {
            MidasMsg::Deliver {
                ext,
                lease_ns,
                grant,
            } => {
                self.try_install(sim, vm, prose, from, ext, lease_ns, grant, ctx);
                self.retry_pending(sim, vm, prose);
            }
            MidasMsg::LeaseRenew { grant } => {
                let now = sim.now();
                let mut known = false;
                for inst in self.installed.values_mut() {
                    if inst.grant == grant {
                        inst.lease.renew(now);
                        known = true;
                    }
                }
                if known {
                    self.telemetry.inc("midas.receiver.lease_renewals");
                }
                if !known {
                    // The base believes we hold this grant but we do not
                    // (its outage outlived our leases, or the delivery
                    // was lost). Tell it so it redelivers.
                    let msg = MidasMsg::Ack {
                        ext_id: String::new(),
                        grant,
                        ok: false,
                        reason: ACK_UNKNOWN_GRANT.into(),
                    };
                    sim.send(self.node, from, CHANNEL, ctx.wrap(&msg));
                }
            }
            MidasMsg::Revoke { ext_id, reason } => {
                if self.installed.contains_key(&ext_id) {
                    self.uninstall(sim, vm, prose, &ext_id, &format!("revoked: {reason}"), true);
                }
            }
            MidasMsg::Replace {
                old_id,
                ext,
                lease_ns,
                grant,
            } => {
                if self.installed.contains_key(&old_id) {
                    self.uninstall(sim, vm, prose, &old_id, "replaced by newer policy", true);
                }
                self.try_install(sim, vm, prose, from, ext, lease_ns, grant, ctx);
                self.retry_pending(sim, vm, prose);
            }
            MidasMsg::GrantTransfer {
                node_name,
                rebinds,
                lease_ns,
            } => {
                if node_name != self.name {
                    return;
                }
                let now = sim.now();
                let mut rebound = Vec::new();
                for (ext_id, old, new) in rebinds {
                    let matched = self
                        .installed
                        .get_mut(&ext_id)
                        .filter(|i| i.grant == old)
                        .map(|i| {
                            i.grant = new;
                            i.base = from;
                            i.lease = Lease::grant(now, lease_ns);
                        })
                        .is_some();
                    if matched {
                        self.telemetry.inc("midas.receiver.rebound");
                        rebound.push(ext_id);
                    } else {
                        // We do not hold that grant (legacy handoff,
                        // lost delivery, or the lease lapsed en route):
                        // ask the adopting base to redeliver under its
                        // fresh grant.
                        let msg = MidasMsg::Ack {
                            ext_id,
                            grant: new,
                            ok: false,
                            reason: ACK_UNKNOWN_GRANT.into(),
                        };
                        sim.send(self.node, from, CHANNEL, ctx.wrap(&msg));
                    }
                }
                if !rebound.is_empty() {
                    rebound.sort();
                    self.events.push(ReceiverEvent::Rebound {
                        base: from,
                        ext_ids: rebound,
                    });
                }
            }
            // Base-bound messages are ignored by the receiver.
            MidasMsg::Ack { .. }
            | MidasMsg::RequestDep { .. }
            | MidasMsg::HandoffState { .. }
            | MidasMsg::MovementExport { .. }
            | MidasMsg::ReplicaDigest { .. }
            | MidasMsg::CatalogPush { .. }
            | MidasMsg::ReplicaPull { .. }
            | MidasMsg::LeasePush { .. } => {}
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn nack(
        &mut self,
        sim: &mut dyn NetPort,
        to: NodeId,
        ext_id: &str,
        grant: u64,
        reason: String,
        ctx: TraceCtx,
    ) {
        self.telemetry.inc("midas.receiver.rejected");
        self.events.push(ReceiverEvent::Rejected {
            ext_id: ext_id.to_string(),
            reason: reason.clone(),
        });
        let msg = MidasMsg::Ack {
            ext_id: ext_id.to_string(),
            grant,
            ok: false,
            reason,
        };
        sim.send(self.node, to, CHANNEL, ctx.wrap(&msg));
    }

    /// Runs the static passes of the admission gate (bytecode
    /// verification, permission inference, termination) over a
    /// signature-verified package, timing each pass. `Err` carries the
    /// offending pass's name and its first error.
    fn analyze_package(
        &mut self,
        vm: &Vm,
        pkg: &ExtensionPackage,
    ) -> Result<(), (String, String)> {
        if !self.policy.analysis.enabled {
            return Ok(());
        }
        let declared = Permissions::from_names(pkg.meta.permissions.iter().map(String::as_str));
        let reg = vm.sys_registry();
        let resolver = |name: &str| match reg.lookup(name) {
            Some(idx) => match reg.perm_of(idx) {
                Some(p) => SysPerm::Guarded(p),
                None => SysPerm::Unguarded,
            },
            None => SysPerm::Unknown,
        };
        // Everything this receiver weaves is sandboxed with finite
        // fuel, so back-edges are bounded (pass 3 reports them as
        // info, not warnings).
        let opts = AnalyzeOptions::default();

        let watch = Stopwatch::start();
        let mut findings = verifier::verify_class(&pkg.aspect.class, &opts);
        self.telemetry
            .record_elapsed("midas.analyze.bytecode_ns", watch);

        let watch = Stopwatch::start();
        let inference = perms::check_permissions(&pkg.aspect, declared, &resolver);
        self.telemetry
            .record_elapsed("midas.analyze.perms_ns", watch);

        let watch = Stopwatch::start();
        findings.extend(termination::check_class(&pkg.aspect.class, &opts));
        self.telemetry
            .record_elapsed("midas.analyze.termination_ns", watch);

        let required = inference.required;
        findings.extend(inference.findings);
        let report = AnalysisReport { findings, required };

        // An error rejects (malformed bytecode, undeclared permissions);
        // lints (unknown sys ops, fuel-bounded loops) pass.
        if let Some(f) = report.first_at(Severity::Error) {
            let mut detail = String::new();
            if !f.method.is_empty() {
                detail.push_str(&f.method);
                if let Some(pc) = f.pc {
                    detail.push_str(&format!(" @{pc}"));
                }
                detail.push_str(": ");
            }
            detail.push_str(&f.message);
            return Err((f.pass.to_string(), detail));
        }

        self.telemetry.inc("midas.analyze.accepted");
        let summary = if report.findings.is_empty() {
            "clean".to_string()
        } else {
            format!(
                "{} finding(s), worst {}",
                report.findings.len(),
                report.worst().expect("non-empty findings")
            )
        };
        self.telemetry.event(
            Subsystem::Midas,
            "midas.analyze",
            format!("{} ok: {summary}", pkg.meta.id),
        );
        Ok(())
    }

    /// Pass 4 of the gate: interference of the newly woven aspect with
    /// the ones already active, computed on the live dispatch tables.
    /// Pairs are kept by aspect id, so a pair of residents that share
    /// the newcomer's name is not blamed on it.
    /// Advisory by default (journal + counter); when the policy makes
    /// interference fatal, the newcomer is unwoven again and the
    /// offending report returned.
    fn check_interference(
        &mut self,
        vm: &mut Vm,
        prose: &Prose,
        pkg: &ExtensionPackage,
        aspect_id: AspectId,
    ) -> Result<(), (String, String)> {
        if !self.policy.analysis.enabled {
            return Ok(());
        }
        let watch = Stopwatch::start();
        let reports = prose.interference_with(vm, aspect_id);
        self.telemetry
            .record_elapsed("midas.analyze.interference_ns", watch);
        if reports.is_empty() {
            return Ok(());
        }
        for f in pmp_analyze::interference::findings(&reports) {
            self.telemetry.inc("midas.analyze.interference");
            self.telemetry.event(
                Subsystem::Midas,
                "midas.analyze",
                format!("{} {}", pkg.meta.id, f),
            );
        }
        if self.policy.analysis.reject_on_interference {
            let _ = prose.unweave(vm, aspect_id, "interference rejected");
            let first = &reports[0];
            return Err(("interference".into(), first.detail.clone()));
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn try_install(
        &mut self,
        sim: &mut dyn NetPort,
        vm: &mut Vm,
        prose: &Prose,
        from: NodeId,
        ext: SignedExtension,
        lease_ns: u64,
        grant: u64,
        ctx: TraceCtx,
    ) {
        // 1. Trust and integrity (paper §3.2: verification of the
        //    originator before insertion). `verify_ns` is recorded on
        //    the rejection path too — slow *failed* verifications are
        //    exactly the ones worth seeing.
        let signer = ext.signer().to_string();
        let watch = Stopwatch::start();
        let verified = ext.verify_and_open(&self.policy.trust);
        self.telemetry
            .record_elapsed("midas.receiver.verify_ns", watch);
        let pkg = match verified {
            Ok(pkg) => pkg,
            Err(reason) => {
                let id = ext.open().map(|p| p.meta.id).unwrap_or_else(|_| "?".into());
                let detail = format!("{id} REJECTED: {reason}");
                self.tracer.child(ctx, sim.now().0, "midas.verify", &detail);
                self.telemetry
                    .event(Subsystem::Midas, "midas.verify", detail);
                self.nack(sim, from, &id, grant, reason, ctx);
                return;
            }
        };
        let id = pkg.meta.id.clone();
        let detail = format!("{id} ok (signer {signer})");
        let verify_ctx = self.tracer.child(ctx, sim.now().0, "midas.verify", &detail);
        self.telemetry
            .event(Subsystem::Midas, "midas.verify", detail);

        // 2. Static analysis (the admission gate): a valid signature
        //    says who shipped the code, not that the code is safe to
        //    weave. Our VM has no JVM-style load-time verifier, so the
        //    receiver runs one here.
        if let Err((pass, detail)) = self.analyze_package(vm, &pkg) {
            self.telemetry.inc("midas.analyze.rejected");
            self.telemetry.event(
                Subsystem::Midas,
                "midas.analyze",
                format!("{id} REJECTED by {pass}: {detail}"),
            );
            self.nack(sim, from, &id, grant, format!("analysis: {pass}: {detail}"), ctx);
            return;
        }

        // 3. Version check: same or newer only.
        if let Some(existing) = self.installed.get_mut(&id) {
            if existing.version > pkg.meta.version {
                self.nack(sim, from, &id, grant, "version downgrade refused".into(), ctx);
                return;
            }
            if existing.version == pkg.meta.version {
                // Duplicate delivery: adopt the new grant and lease.
                existing.grant = grant;
                existing.lease = Lease::grant(sim.now(), lease_ns);
                existing.base = from;
                let msg = MidasMsg::Ack {
                    ext_id: id,
                    grant,
                    ok: true,
                    reason: String::new(),
                };
                sim.send(self.node, from, CHANNEL, ctx.wrap(&msg));
                return;
            }
            // Newer version: replace in place.
            self.uninstall(sim, vm, prose, &id, "upgraded", true);
        }

        // 4. Implicit dependencies must be present (paper: the session
        //    management extension is automatically added first).
        let missing: Vec<String> = pkg
            .meta
            .requires
            .iter()
            .filter(|d| !self.installed.contains_key(*d))
            .cloned()
            .collect();
        if !missing.is_empty() {
            for dep in &missing {
                self.events.push(ReceiverEvent::DependencyRequested {
                    ext_id: dep.clone(),
                });
                let msg = MidasMsg::RequestDep {
                    ext_id: dep.clone(),
                };
                sim.send(self.node, from, CHANNEL, ctx.wrap(&msg));
            }
            self.pending.push(PendingInstall {
                ext,
                lease_ns,
                grant,
                from,
                ctx,
            });
            return;
        }

        // 5. Weave under the sandbox: requested ∩ policy cap.
        let perms = self.policy.effective(&signer, &pkg.meta.permissions);
        let aspect: Aspect = pkg.aspect.clone().into();
        let watch = Stopwatch::start();
        let woven = prose.weave(vm, aspect, WeaveOptions::sandboxed(perms));
        self.telemetry
            .record_elapsed("midas.receiver.weave_ns", watch);
        let detail = format!("{id} {}", if woven.is_ok() { "ok" } else { "FAILED" });
        let weave_ctx = self
            .tracer
            .child(verify_ctx, sim.now().0, "midas.weave", &detail);
        self.telemetry
            .event(Subsystem::Midas, "midas.weave", detail);
        match woven {
            Ok(aspect_id) => {
                // 6. Pass 4 of the gate — interference against the
                //    aspects already active, read off the live
                //    dispatch tables the weave just updated.
                if let Err((pass, detail)) =
                    self.check_interference(vm, prose, &pkg, aspect_id)
                {
                    self.telemetry.inc("midas.analyze.rejected");
                    self.telemetry.event(
                        Subsystem::Midas,
                        "midas.analyze",
                        format!("{id} REJECTED by {pass}: {detail}"),
                    );
                    self.nack(sim, from, &id, grant, format!("analysis: {pass}: {detail}"), ctx);
                    return;
                }
                // Hook-check hoisting: recompute which advice methods
                // the purity analysis proves can never need a join
                // point of their own, and elide their JIT stub checks.
                // Recomputed locally from the shipped class — the
                // receiver never trusts the base's optimization report.
                for m in pmp_analyze::opt::hoist::hoistable_methods(&pkg.aspect.class) {
                    if vm.hoist_hooks(&pkg.aspect.class.name, &m) {
                        self.telemetry.inc("midas.receiver.hoisted");
                    }
                }
                // Arm the first-interception watch: the next advice
                // dispatch past this baseline closes the adaptation's
                // span tree with a `midas.intercept` leaf.
                if !weave_ctx.is_nil() {
                    self.tracer
                        .watch_interception(weave_ctx, &id, vm.stats().advice_dispatches);
                }
                for dep in &pkg.meta.requires {
                    if let Some(d) = self.installed.get_mut(dep) {
                        d.dependents.insert(id.clone());
                    }
                }
                self.installed.insert(
                    id.clone(),
                    Installed {
                        version: pkg.meta.version,
                        aspect_id,
                        grant,
                        base: from,
                        lease: Lease::grant(sim.now(), lease_ns),
                        implicit: pkg.meta.implicit,
                        requires: pkg.meta.requires.clone(),
                        dependents: BTreeSet::new(),
                    },
                );
                self.telemetry.inc("midas.receiver.installed");
                self.events.push(ReceiverEvent::Installed {
                    ext_id: id.clone(),
                    version: pkg.meta.version,
                    base: from,
                });
                let msg = MidasMsg::Ack {
                    ext_id: id,
                    grant,
                    ok: true,
                    reason: String::new(),
                };
                sim.send(self.node, from, CHANNEL, ctx.wrap(&msg));
            }
            Err(e) => {
                self.nack(sim, from, &id, grant, format!("weave failed: {e}"), ctx);
            }
        }
    }

    fn retry_pending(&mut self, sim: &mut dyn NetPort, vm: &mut Vm, prose: &Prose) {
        // Retry queued installs whose dependencies may now be present;
        // loop until a fixpoint so chains resolve in one pass.
        loop {
            let ready: Vec<usize> = self
                .pending
                .iter()
                .enumerate()
                .filter(|(_, p)| {
                    p.ext.open().map_or(true, |pkg| {
                        pkg.meta
                            .requires
                            .iter()
                            .all(|d| self.installed.contains_key(d))
                    })
                })
                .map(|(i, _)| i)
                .collect();
            if ready.is_empty() {
                return;
            }
            for idx in ready.into_iter().rev() {
                let p = self.pending.remove(idx);
                self.try_install(sim, vm, prose, p.from, p.ext, p.lease_ns, p.grant, p.ctx);
            }
        }
    }

    /// Withdraws an extension: dependents are cascaded first, PROSE
    /// unweaves with a shutdown notification, implicit dependencies
    /// with no remaining dependents are removed too, and the granting
    /// base is told the grant was released (so it stops renewing and
    /// does not redeliver).
    #[allow(clippy::too_many_arguments)]
    fn uninstall(
        &mut self,
        sim: &mut dyn NetPort,
        vm: &mut Vm,
        prose: &Prose,
        ext_id: &str,
        reason: &str,
        notify_base: bool,
    ) {
        let Some(inst) = self.installed.get(ext_id) else {
            return;
        };
        // Cascade to dependents first (they rely on this extension),
        // in id order: removal order is observable (unweave journal
        // events, Removed reasons).
        let dependents: Vec<String> = inst.dependents.iter().cloned().collect();
        for d in dependents {
            self.uninstall(
                sim,
                vm,
                prose,
                &d,
                &format!("dependency {ext_id} removed"),
                notify_base,
            );
        }
        let Some(inst) = self.installed.remove(ext_id) else {
            return;
        };
        let _ = prose.unweave(vm, inst.aspect_id, reason);
        if notify_base {
            // Deliberate removal: tell the base to stop renewing this
            // grant (best-effort; silently lost if out of range). Lease
            // expiries do NOT notify — if the base is in fact alive, its
            // next renewal triggers redelivery instead.
            let msg = MidasMsg::Ack {
                ext_id: ext_id.to_string(),
                grant: inst.grant,
                ok: false,
                reason: ACK_RELEASED.into(),
            };
            sim.send(self.node, inst.base, CHANNEL, TraceCtx::NIL.wrap(&msg));
        }
        self.telemetry.inc("midas.receiver.removed");
        self.events.push(ReceiverEvent::Removed {
            ext_id: ext_id.to_string(),
            reason: reason.to_string(),
        });
        // Release implicit dependencies.
        for dep in &inst.requires {
            let remove_dep = match self.installed.get_mut(dep) {
                Some(d) => {
                    d.dependents.remove(ext_id);
                    d.implicit && d.dependents.is_empty()
                }
                None => false,
            };
            if remove_dep {
                self.uninstall(sim, vm, prose, dep, "no longer required", true);
            }
        }
    }

    /// Lease sweep: extensions whose base failed to renew are
    /// "immediately withdrawn from the system" (paper §3.2).
    fn sweep(&mut self, sim: &mut dyn NetPort, vm: &mut Vm, prose: &Prose) {
        let now = sim.now();
        // Sweep in id order: which lease "expires first" within one
        // sweep is observable through cascade reasons.
        let expired: Vec<String> = self
            .installed
            .iter()
            .filter(|(_, i)| i.lease.expired(now))
            .map(|(id, _)| id.clone())
            .collect();
        for id in expired {
            self.telemetry.inc("midas.receiver.lease_expiries");
            self.uninstall(sim, vm, prose, &id, "lease expired", false);
        }
    }
}
