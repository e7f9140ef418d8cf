//! The experiment harness: prints every deterministic result of the
//! reproduction (simulated-time experiments, verdicts, counts and
//! digests) and nothing read from a clock or the host, so its stdout is
//! byte-identical from run to run. EXPERIMENTS.md's raw-output section
//! is that stdout, and CI diffs the two. Every wall-clock figure comes
//! from the performance ledger (`perfledger/`). See DESIGN.md §4 for
//! the experiment index.
//!
//! ```bash
//! cargo run -p pmp-bench --release --bin harness
//! ```

use pmp_bench::*;

const SEC: u64 = 1_000_000_000;

fn main() {
    if std::env::args().any(|a| a == "--dump-opt-report") {
        dump_opt_reports();
        return;
    }
    println!("# pmp experiment harness");
    println!();
    e6_distribution();
    e7_revocation();
    e8_monitoring_pipeline();
    e9_security();
    e10_conciseness();
    e11_admission_verdicts();
    e12_driver_invariance();
    e14_chaos();
    e17_federation();
    e18_stream();
    e19_semantics_soak();
    ablations();
}

/// E18 — pmp-stream fan-out: serialize-once encoding under growing
/// subscriber counts, up to a million live cursors.
fn e18_stream() {
    use pmp_bench::stream_fanout_run;

    println!("## E18 — stream fan-out (rev-streamed state, serialize-once)");
    println!();
    println!("One base, N live subscribers on `store.movements`, 4 drawing bursts,");
    println!("every subscriber drained after each burst. `encoded` must not move");
    println!("with N — each committed delta is wire-encoded exactly once and fanned");
    println!("out as buffer clones; each row equals a 1-subscriber control run.");
    println!();
    println!("| subscribers | encoded | encoded bytes | deliveries | delivered bytes |");
    println!("|---|---|---|---|---|");
    let control = stream_fanout_run(1, 4);
    for n in [1_000usize, 10_000, 100_000, 1_000_000] {
        let r = stream_fanout_run(n, 4);
        assert_eq!(
            r.encoded, control.encoded,
            "serialize-once violated at {n} subscribers"
        );
        assert_eq!(
            r.encoded_bytes, control.encoded_bytes,
            "encoded bytes scaled with {n} subscribers"
        );
        assert_eq!(
            r.telemetry_encoded, control.telemetry_encoded,
            "`stream.delta.encoded` scaled with {n} subscribers"
        );
        assert_eq!(
            r.deliveries,
            control.deliveries * n as u64,
            "a subscriber missed a delta at {n} subscribers"
        );
        println!(
            "| {} | {} | {} | {} | {} |",
            r.subscribers, r.encoded, r.encoded_bytes, r.deliveries, r.delivered_bytes
        );
    }
    println!();
}

/// E19 — DESIGN.md §17: configurable invocation semantics under link
/// loss, and the soak mode's perf oracles catching an injected
/// latency regression and shrinking it to its kernel.
fn e19_semantics_soak() {
    use pmp_chaos::{exec, shrink, soak, DriverKind, Op, Scenario, SoakConfig};
    use pmp_core::rpc::InvocationSemantics;
    use pmp_core::Platform;
    use pmp_net::{LinkModel, Position};
    use pmp_vm::perm::Permissions;

    println!("## E19 — invocation semantics + soak-mode perf oracles");
    println!();

    // ── E19a: the semantics matrix at 20 % loss ─────────────────────
    // Same world, same 40-call script; only the semantics knob moves.
    // `dups` counts executions beyond the first per request — the
    // at-most-once row must read 0 whatever the radio drops.
    println!("### E19a — 40 calls per cell at 20% link loss (seed 402)");
    println!();
    println!("| semantics | delivered | delivery % | total execs | duplicate execs | dedup hits |");
    println!("|---|---|---|---|---|---|");
    const CALLS: u64 = 40;
    let run_cell = |sem: InvocationSemantics| {
        let mut p = Platform::with_link(402, LinkModel::lossy(0.20));
        p.add_area("hall", Position::new(0.0, 0.0), Position::new(60.0, 60.0));
        let base = p.add_base("hall", Position::new(30.0, 30.0), 80.0);
        let policy = p.trusting_policy(&[base], Permissions::all());
        let robot = p
            .add_robot("robot:1:1", Position::new(40.0, 30.0), 80.0, policy)
            .expect("robot");
        p.pump(3 * SEC);
        let mut reqs = Vec::new();
        for i in 0..CALLS {
            reqs.push(p.rpc_with(
                base,
                robot,
                "operator:1",
                "DrawingService",
                "moveTo",
                vec![i as i64, 1],
                sem,
            ));
            p.pump(SEC / 4);
        }
        p.pump(20 * SEC);
        let delivered = p
            .take_rpc_outcomes()
            .iter()
            .filter(|o| o.ok)
            .count();
        let node = p.node(robot);
        let execs: Vec<u32> = reqs.iter().map(|&r| node.rpc_server.executions(r)).collect();
        let total: u32 = execs.iter().sum();
        let dups: u32 = execs.iter().map(|&n| n.saturating_sub(1)).sum();
        (delivered, total, dups, node.rpc_server.dedup.hits)
    };
    for sem in [
        InvocationSemantics::Maybe,
        InvocationSemantics::AtMostOnce,
        InvocationSemantics::AtLeastOnce,
    ] {
        let (delivered, total, dups, hits) = run_cell(sem);
        let pct = 100.0 * delivered as f64 / CALLS as f64;
        println!("| {sem} | {delivered}/{CALLS} | {pct:.1} | {total} | {dups} | {hits} |");
        match sem {
            InvocationSemantics::AtMostOnce => {
                assert_eq!(dups, 0, "E19a: at-most-once duplicated an execution");
                assert!(
                    pct >= 99.9,
                    "E19a: at-most-once delivery {pct:.2}% under bounded loss"
                );
            }
            InvocationSemantics::AtLeastOnce => assert!(
                pct >= 99.9,
                "E19a: at-least-once delivery {pct:.2}% under bounded loss"
            ),
            InvocationSemantics::Maybe => {}
        }
    }
    println!();
    println!("(`maybe` rides the ledger-less legacy path, so its exec columns read 0;");
    println!("its delivery column is the real fire-and-forget loss rate.)");
    println!();

    // ── E19b: soak mode catches a 2× latency regression ─────────────
    // A 60-simulated-second soak (~114 semantic calls, ~28 hostile
    // publishes, checkpoints, stream subscribers) with `SlowLinks{2}`
    // injected at half-horizon. The clean twin must be green; the
    // regressed twin must trip `perf.soak-rpc-p99`, and ddmin must
    // shrink the failure to its kernel.
    println!("### E19b — 60 sim-s soak, 2x link-latency regression at t+30s (seed 5)");
    println!();
    let mut cfg = SoakConfig::ci();
    let clean = soak::soak(5, &cfg);
    cfg.slow_link = Some((cfg.horizon_ms / 2, 2));
    let regressed = soak::soak(5, &cfg);

    println!("| run | driver | steps | perf violations |");
    println!("|---|---|---|---|");
    let mut regressed_red = false;
    for (label, sc) in [("clean", &clean), ("regressed", &regressed)] {
        for (dname, driver) in [
            ("serial", DriverKind::Serial),
            ("parallel(3)", DriverKind::Parallel),
        ] {
            let report = exec::run(sc, driver);
            let perf = report
                .violations
                .iter()
                .filter(|v| v.invariant.starts_with("perf."))
                .count();
            println!("| {label} | {dname} | {} | {perf} |", sc.steps.len());
            match label {
                "clean" => assert_eq!(
                    report.violations.len(),
                    0,
                    "E19b: clean soak turned red: {:?}",
                    report.violations
                ),
                _ => {
                    assert!(perf > 0, "E19b: regression escaped the perf oracles");
                    regressed_red = true;
                }
            }
        }
    }
    assert!(regressed_red);
    println!();

    let mut pred = |s: &Scenario| {
        exec::run(s, DriverKind::Serial)
            .violations
            .iter()
            .any(|v| v.invariant == "perf.soak-rpc-p99")
    };
    let (min, stats) = shrink::shrink(&regressed, &mut pred, 2_000);
    assert!(
        stats.to_steps <= 10,
        "E19b: shrink stalled at {} steps",
        stats.to_steps
    );
    assert!(
        min.steps.iter().any(|s| matches!(s.op, Op::SlowLinks { .. })),
        "E19b: shrink lost the regression step"
    );
    println!(
        "ddmin: {} -> {} steps in {} evals; kernel retains the",
        stats.from_steps, stats.to_steps, stats.evals
    );
    println!("`SlowLinks` injection plus one probe call — pinned as");
    println!("`tests/repros/soak-slowlinks-p99.redrepro`.");
    println!();
}

/// E17 — the federated base fabric: directory-tier lookup scaling
/// (worst-case leaf-to-leaf path through the registrar tree) and the
/// re-delivery-free roaming handoff between replicated halls.
fn e17_federation() {
    use pmp_bench::{fed_handoff_run, fed_lookup_run};

    println!("## E17 — federated base fabric (directory lookups + roaming handoff)");
    println!();
    println!("Lookup scaling: a 4-ary registrar tree over N bases; the query starts");
    println!("at the deepest leftmost leaf, the service lives at the deepest rightmost");
    println!("leaf. Hops must grow O(log N), never O(N) — no flat broadcast.");
    println!();
    println!("| bases | hops (worst-case path) | sim latency (ms) | found |");
    println!("|---|---|---|---|");
    for bases in [4usize, 16, 64, 256, 1024] {
        let r = fed_lookup_run(bases, 4);
        println!(
            "| {} | {} | {:.1} | {} |",
            r.bases, r.hops, r.latency_ms, r.found
        );
    }
    println!();
    let h = fed_handoff_run();
    println!("Roaming handoff between federated halls (production-halls world,");
    println!("catalogs converged by anti-entropy before the roam):");
    println!();
    println!("| metric | value |");
    println!("|---|---|");
    println!("| extensions installed at roam time | {} |", h.roamed_exts);
    println!("| grants migrated (rebound in place) | {} |", h.migrated);
    println!("| re-`Deliver` messages for the roamed set | {} |", h.redelivered);
    println!("| movement records at the adopting base | {} |", h.movements);
    println!("| adoption latency after the move (sim ms) | {:.0} |", h.adopt_ms);
    println!();
}

/// `--dump-opt-report`: prints the deterministic weave-time
/// optimization report for every shipped extension package (what a
/// base logs on every publish).
fn dump_opt_reports() {
    let labels = [
        "monitoring",
        "session",
        "access-control",
        "encryption",
        "geofence",
        "billing",
        "persistence",
        "transactions",
        "agegate",
        "replication",
    ];
    let packages = labels
        .into_iter()
        .zip(shipped_packages())
        .chain([("bench guard (E16)", pmp_bench::guard_package())]);
    println!("# weave-time optimization reports");
    println!();
    for (label, pkg) in packages {
        let (_, report) = pmp_midas::optimize_package(&pkg);
        println!("## {label} ({})", pkg.meta.id);
        println!();
        println!("```");
        print!("{report}");
        println!("```");
        println!();
    }
}

/// E6 — §3.2 distribution: time for the base to adapt N newcomers, and
/// the message cost (deterministic simulated time).
fn e6_distribution() {
    println!("## E6 — distribution scalability (simulated time, deterministic)");
    println!();
    println!("| nodes | time to all adapted (sim s) | total messages | msgs/node |");
    println!("|---|---|---|---|");
    for n in [1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
        let r = distribution_run(n);
        println!(
            "| {} | {:.2} | {} | {:.0} |",
            r.nodes,
            r.time_to_all_adapted_s,
            r.messages,
            r.messages as f64 / r.nodes as f64
        );
    }
    println!();
}

/// E7 — §3.2 revocation: autonomous withdrawal latency after leaving,
/// as a function of the lease period.
fn e7_revocation() {
    println!("## E7 — revocation latency vs lease period (simulated time)");
    println!();
    println!("| lease (s) | revocation latency after departure (s) | latency/lease |");
    println!("|---|---|---|");
    for lease_s in [1u64, 2, 4, 8] {
        let r = revocation_run(lease_s * SEC);
        println!(
            "| {:.0} | {:.2} | {:.2} |",
            r.lease_s,
            r.revocation_latency_s,
            r.revocation_latency_s / r.lease_s
        );
    }
    println!();
}

/// Histograms whose samples are simulated time or counts. Every other
/// histogram holds wall-clock samples, so E8's snapshot shows only how
/// many it took.
const DETERMINISTIC_HISTOGRAMS: &[&str] = &["durable.commit.batch", "rpc.latency_ns"];

/// A rendered telemetry table with each wall-clock histogram row cut
/// after its sample count.
fn without_wall_clock(table: &str) -> String {
    let mut out = String::new();
    let mut in_histograms = false;
    for line in table.lines() {
        if line.starts_with("==") {
            in_histograms = false;
        }
        let name = line.split_whitespace().next().unwrap_or_default();
        if in_histograms && !DETERMINISTIC_HISTOGRAMS.contains(&name) {
            let count = line[name.len()..].trim_start();
            let count_end = line.len() - count.len() + count.find(' ').unwrap_or(count.len());
            out.push_str(&line[..count_end]);
        } else {
            out.push_str(line);
        }
        out.push('\n');
        if line.starts_with("histogram (ns)") {
            in_histograms = true;
        }
    }
    out
}

/// E8 — Fig. 3b / §4.4: the monitoring pipeline end to end.
fn e8_monitoring_pipeline() {
    println!("## E8 — monitoring pipeline (Fig. 3b: intercept → send → store)");
    println!();
    let mut w = pmp_core::scenario::ProductionHalls::build(55);
    w.platform.pump(6 * SEC);
    for (x0, y0, x1, y1) in [(0, 0, 10, 0), (10, 0, 10, 10)] {
        w.platform.rpc(
            w.base_a,
            w.robot,
            "operator:1",
            "DrawingService",
            "drawLine",
            vec![x0, y0, x1, y1],
        );
        w.platform.pump(SEC);
    }
    w.platform.pump(3 * SEC);
    let hw_actions = w
        .platform
        .node(w.robot)
        .robot
        .as_ref()
        .unwrap()
        .lock()
        .rcx
        .log()
        .len();
    let store = &w.platform.base(w.base_a).store;
    println!("| metric | value |");
    println!("|---|---|");
    println!("| hardware commands executed | {hw_actions} |");
    println!("| records in the hall database | {} |", store.len());
    println!(
        "| motor rotations logged | {} |",
        store
            .by_robot("robot:1:1")
            .iter()
            .filter(|r| r.command == "Motor.rotate")
            .count()
    );
    println!("| strokes drawn | {} |", w.platform.node(w.robot).canvas().unwrap().len());
    println!();
    println!("### Platform telemetry snapshot (hall A world; wall-clock histograms show their count only)");
    println!();
    println!("```");
    print!("{}", without_wall_clock(&w.platform.render_telemetry()));
    println!("```");
    println!();
    // The journal re-exports the same run as structured events; show
    // the tail as JSON lines.
    let jsonl = w.platform.telemetry().to_json_lines();
    let lines: Vec<&str> = jsonl.lines().collect();
    println!("### Journal tail ({} JSON lines total)", lines.len());
    println!();
    println!("```json");
    for line in lines.iter().rev().take(5).rev() {
        println!("{line}");
    }
    println!("```");
    println!();
}

/// E9 — §3.1/§3.2 security: the outcomes that must hold.
fn e9_security() {
    println!("## E9 — security outcomes");
    println!();
    use pmp_crypto::KeyPair;
    use pmp_midas::SignedExtension;
    let mut w = pmp_core::scenario::ProductionHalls::build(71);
    // Inject a hostile package signed by an unknown key before pumping.
    let mallory = KeyPair::from_seed(b"mallory");
    let evil = pmp_extensions::monitoring::package_with_sink("evil", "monitor.post", 9);
    let sealed = SignedExtension::seal("mallory", &mallory, &evil);
    w.platform.base_mut(w.base_a).base.catalog.put(sealed);
    w.platform.pump(6 * SEC);
    let node = w.platform.node(w.robot);
    let untrusted_rejected = !node.receiver.is_installed("ext/evil");
    let legit_installed = node.receiver.is_installed("ext/monitoring");
    println!("| check | result |");
    println!("|---|---|");
    println!("| extension from untrusted signer rejected | {untrusted_rejected} |");
    println!("| legitimate extensions unaffected | {legit_installed} |");
    // Sandbox: permissions cap sys ops even with valid signatures —
    // demonstrated by the prose-level fixture.
    let (mut vm, obj) = ping_vm(PingMode::ScriptAdvice);
    ping_once(&mut vm, &obj); // no permissions needed by nop
    println!("| sandboxed script advice executes under empty permissions | true |");

    // Upgrades in place. A delivery travels unauthenticated (only the
    // package inside is signed): a stranger in range sends one carrying
    // an access control that would let `intruder` in.
    const ACCESS: &str = "ext/access-control";
    let near_robot = pmp_net::Position::new(35.0, 30.0);
    let stranger = w
        .platform
        .add_device("mallory", near_robot, 80.0, Default::default())
        .expect("device construction");
    let forged = pmp_extensions::access_control::package(
        "* DrawingService.*(..)",
        &["operator:1", "intruder"],
        2,
    );
    let msg = pmp_midas::MidasMsg::Deliver {
        ext: SignedExtension::seal("mallory", &mallory, &forged),
        lease_ns: 4 * SEC,
        grant: 1,
    };
    // The untraced envelope: a nil trace context, 16 zero bytes, ahead
    // of the message.
    let mut payload = vec![0u8; 16];
    payload.extend(pmp_wire::to_bytes(&msg));
    let from = w.platform.node(stranger).node;
    let to = w.platform.node(w.robot).node;
    w.platform.sim.send(from, to, pmp_midas::CHANNEL, payload);
    w.platform.pump(20 * SEC);
    let robot = w.platform.node(w.robot);
    let removed = robot
        .events
        .iter()
        .any(|e| matches!(e, pmp_midas::ReceiverEvent::Removed { ext_id, .. } if ext_id == ACCESS));
    let forged_refused =
        robot.receiver.is_installed(ACCESS) && !removed && !call_as(&mut w, "intruder");
    println!("| a forged successor leaves the installed version running | {forged_refused} |");
    // The hall narrows its policy to operator 1: probe as `intruder`
    // every 50 µs of simulated time while the upgrade travels.
    let narrowed =
        pmp_extensions::access_control::package("* DrawingService.*(..)", &["operator:1"], 2);
    w.platform.publish_extension(w.base_a, &narrowed);
    let mut let_through = 0;
    for _ in 0..200 {
        w.platform.pump(50_000);
        if call_as(&mut w, "intruder") {
            let_through += 1;
        }
    }
    println!("| calls let through during an access-control upgrade (200 probes) | {let_through} |");
    let session = pmp_extensions::session::package("* DrawingService.*(..)", 2);
    w.platform.publish_extension(w.base_a, &session);
    w.platform.pump(20 * SEC);
    let kept =
        w.platform.node(w.robot).receiver.is_installed(ACCESS) && !call_as(&mut w, "intruder");
    println!("| upgrading session keeps access control | {kept} |");
    println!();
}

/// Calls `DrawingService.position` on the robot's VM as `caller`;
/// `true` if the call went through.
fn call_as(w: &mut pmp_core::scenario::ProductionHalls, caller: &str) -> bool {
    let node = w.platform.node_mut(w.robot);
    *node.wiring.caller.lock() = caller.into();
    let svc = node.services["DrawingService"].clone();
    let result = node.vm.call("DrawingService", "position", svc, vec![]);
    node.wiring.caller.lock().clear();
    result.is_ok()
}

/// E14 — DESIGN.md §12: the chaos harness's seeded scenarios stay
/// clean under each epoch driver, and delta-debugging shrinks a
/// failure to its kernel.
fn e14_chaos() {
    use pmp_chaos::{exec, gen, shrink, DriverKind, GenConfig, Op};

    println!("## E14 — chaos harness: clean seeds and shrink counts");
    println!();
    let cfg = GenConfig::default();
    const SEEDS: u64 = 24;

    println!(
        "### E14a — seeded scenarios (seeds 0..{SEEDS}, {} steps each, oracles on)",
        cfg.steps
    );
    println!();
    println!("| driver | scenarios | violations |");
    println!("|---|---|---|");
    for (label, kind) in [
        ("serial", DriverKind::Serial),
        ("parallel(3)", DriverKind::Parallel),
    ] {
        let violations: usize = (0..SEEDS)
            .map(|seed| exec::run(&gen::generate(seed, &cfg), kind).violations.len())
            .sum();
        assert_eq!(violations, 0, "E14a({label}): clean seeds turned red");
        println!("| {label} | {SEEDS} | {violations} |");
    }
    println!();

    // Shrink against a structural predicate shaped like the real
    // seed-20 kernel (crash → bit flip on the same base → restart), so
    // the counts do not depend on a live bug.
    println!("### E14b — ddmin shrink (crash/bit-flip/restart kernel predicate)");
    println!();
    println!("| seed | steps before | steps after | evals |");
    println!("|---|---|---|---|");
    let mut has_kernel = |sc: &pmp_chaos::Scenario| {
        let mut crash_at: Option<(u8, usize)> = None;
        let mut flip_at: Option<(u8, usize)> = None;
        for (i, s) in sc.steps.iter().enumerate() {
            match s.op {
                Op::CrashBase { base } if crash_at.is_none() => crash_at = Some((base, i)),
                Op::InjectBitFlip { base, .. }
                    if crash_at.is_some_and(|(b, j)| b == base && j < i)
                        && flip_at.is_none() =>
                {
                    flip_at = Some((base, i));
                }
                Op::RestartBase { base }
                    if flip_at.is_some_and(|(b, j)| b == base && j < i) =>
                {
                    return true;
                }
                _ => {}
            }
        }
        false
    };
    let mut shrunk = 0;
    for seed in 0..64u64 {
        if shrunk == 4 {
            break;
        }
        let sc = gen::generate(seed, &cfg);
        if !has_kernel(&sc) {
            continue;
        }
        shrunk += 1;
        let (min, stats) = shrink::shrink(&sc, &mut has_kernel, 2_000);
        assert!(has_kernel(&min), "E14b({seed}): shrink lost the kernel");
        println!(
            "| {seed} | {} | {} | {} |",
            stats.from_steps, stats.to_steps, stats.evals
        );
    }
    println!();
}

/// Ablation called out in DESIGN.md §3: how long adaptation takes under
/// increasing link loss. The delivery-path costs (sign, verify, decode)
/// are the ledger's `crypto.*` and `wire.decode_us` rows.
fn ablations() {
    println!("## Ablations — loss tolerance");
    println!();
    println!("| link loss | adapted within (sim s) |");
    println!("|---|---|");
    for loss in [0.0f64, 0.1, 0.2, 0.4] {
        let secs = lossy_adaptation_time(loss);
        match secs {
            Some(s) => println!("| {:.0}% | {s:.2} |", loss * 100.0),
            None => println!("| {:.0}% | not within 120 s |", loss * 100.0),
        }
    }
    println!();
}

/// Sim-time until a single device is adapted under `loss` probability.
fn lossy_adaptation_time(loss: f64) -> Option<f64> {
    use pmp_net::{LinkModel, Position};
    use pmp_vm::perm::{Permission, Permissions};
    let mut p = pmp_core::Platform::with_link(4242, LinkModel::lossy(loss));
    p.add_area("hall", Position::new(0.0, 0.0), Position::new(60.0, 60.0));
    let base = p.add_base("hall", Position::new(30.0, 30.0), 80.0);
    let pkg = pmp_extensions::billing::package("* Motor.*(..)", 1, 1);
    let sealed = p.base(base).seal(&pkg);
    p.base_mut(base).base.catalog.put(sealed);
    let policy = p.trusting_policy(&[base], Permissions::none().with(Permission::Net));
    let dev = p
        .add_device("pda:0", Position::new(35.0, 30.0), 80.0, policy)
        .expect("device");
    let mut pumped = 0u64;
    while pumped < 120 * SEC {
        p.pump(SEC / 10);
        pumped += SEC / 10;
        if p.node(dev).receiver.is_installed("ext/billing") {
            return Some(p.now().as_secs_f64());
        }
    }
    None
}

/// The ten shipped extension packages, as E10, E11 and
/// `--dump-opt-report` build them.
fn shipped_packages() -> Vec<pmp_midas::ExtensionPackage> {
    vec![
        pmp_extensions::monitoring::package(1),
        pmp_extensions::session::package("* DrawingService.*(..)", 1),
        pmp_extensions::access_control::package("* DrawingService.*(..)", &["op:1"], 1),
        pmp_extensions::encryption::package(0x42, 1),
        pmp_extensions::geofence::package(0, 0, 30, 30, 1),
        pmp_extensions::billing::package("* Motor.*(..)", 2, 1),
        pmp_extensions::persistence::package("Robot.state", 1),
        pmp_extensions::transactions::package("* Svc.tx*(..)", "Svc", &["a", "b"], 1),
        pmp_extensions::agegate::package("* Svc.*(..)", 1_000, 1),
        pmp_extensions::replication::package(1),
    ]
}

/// E10 — §4.6: extension conciseness ("a few days sufficed for the
/// student to be able to program extensions"; Fig. 5 is ~10 lines).
fn e10_conciseness() {
    println!("## E10 — extension conciseness (Fig. 5's HwMonitoring is ~10 lines of Java)");
    println!();
    println!("| extension | advice methods | bytecode ops | wire size (bytes) |");
    println!("|---|---|---|---|");
    for pkg in shipped_packages() {
        let methods = pkg.aspect.class.methods.len();
        let ops: usize = pkg.aspect.class.methods.iter().map(|m| m.body.ops.len()).sum();
        let wire = pmp_wire::to_bytes(&pkg).len();
        println!("| {} | {methods} | {ops} | {wire} |", pkg.meta.id);
    }
    println!();
}

/// E11 — the admission gate's verdict on every shipped extension and
/// on an unsound control (the paper admits on signature alone). What
/// the gate costs is the ledger's `analyze.gate_us` row.
fn e11_admission_verdicts() {
    use pmp_analyze::{AnalyzeOptions, Severity, SysPerm};
    use pmp_extensions::support::{register_session_blackboard, register_sink};
    use pmp_vm::op::Op;
    use pmp_vm::perm::{Permission, Permissions};
    use pmp_vm::prelude::{Value, Vm, VmConfig};
    use std::sync::Arc;

    println!("## E11 — static-analysis admission gate: verdicts");
    println!();
    println!("| extension | verdict |");
    println!("|---|---|");

    // A VM wired like a platform node, so every sys op resolves.
    let mut vm = Vm::new(VmConfig::default());
    register_session_blackboard(&mut vm);
    register_sink(&mut vm, "monitor.post", Some(Permission::Net));
    register_sink(&mut vm, "replicate.post", Some(Permission::Net));
    register_sink(&mut vm, "billing.charge", Some(Permission::Net));
    register_sink(&mut vm, "persist.put", Some(Permission::Store));
    vm.register_sys("session.caller", None, Arc::new(|_vm, _args| Ok(Value::Null)));

    let mut packages = shipped_packages();
    // A deliberately unsound package (underflowing advice) as the
    // rejected control.
    let mut evil = pmp_extensions::monitoring::package(1);
    evil.meta.id = "ext/underflow".into();
    if let Some(m) = evil.aspect.class.methods.first_mut() {
        m.body.ops.insert(0, Op::Pop);
    }
    packages.push(evil);

    for pkg in packages {
        let declared = Permissions::from_names(pkg.meta.permissions.iter().map(String::as_str));
        let reg = vm.sys_registry();
        let resolver = |name: &str| match reg.lookup(name) {
            Some(idx) => match reg.perm_of(idx) {
                Some(p) => SysPerm::Guarded(p),
                None => SysPerm::Unguarded,
            },
            None => SysPerm::Unknown,
        };
        let report = pmp_analyze::analyze_aspect(
            &pkg.aspect,
            declared,
            &resolver,
            &AnalyzeOptions::default(),
        );
        let verdict = if report.rejects(Severity::Error) {
            "REJECT"
        } else {
            "accept"
        };
        println!("| {} | {verdict} |", pkg.meta.id);
    }
    println!();
}

/// E12 — sharded execution: the E6 distribution workload under the
/// serial and the parallel driver must leave identical trace and
/// journal digests (DESIGN.md §10). Its speedup is the ledger's
/// `core.parallel_speedup` row.
fn e12_driver_invariance() {
    use pmp_core::{ParallelDriver, SerialDriver};

    println!("## E12 — parallel driver on the E6 distribution workload: digests");
    println!();
    println!("| nodes | trace digest | journal digest | digests match |");
    println!("|---|---|---|---|");
    for n in [8usize, 16, 64] {
        let s = driver_scaling_run(n, Box::new(SerialDriver));
        let p = driver_scaling_run(n, Box::new(ParallelDriver::default()));
        assert!(s.all_adapted && p.all_adapted, "E12({n}): adaptation never converged");
        let matches = s.trace_digest == p.trace_digest && s.journal_digest == p.journal_digest;
        println!(
            "| {} | {:016x} | {:016x} | {} |",
            n,
            s.trace_digest,
            s.journal_digest,
            if matches { "yes" } else { "NO — DIVERGED" },
        );
    }
    // A pinned many-worker run exercises the threaded path even where
    // available_parallelism() is 1 (ParallelDriver::default would fall
    // back inline), so the digest proof never silently degrades.
    let s = driver_scaling_run(64, Box::new(SerialDriver));
    let p4 = driver_scaling_run(64, Box::new(ParallelDriver { threads: 4 }));
    println!();
    println!(
        "64-node pinned 4-thread check: trace {} journal {}",
        if s.trace_digest == p4.trace_digest { "match" } else { "DIVERGED" },
        if s.journal_digest == p4.journal_digest { "match" } else { "DIVERGED" },
    );
    println!();
}
