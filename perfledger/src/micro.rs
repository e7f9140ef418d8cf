//! The paper's micro-measurements (§4.6: interception cost, extension
//! cost, weaving, the spec suite, the adapted call) on the fixtures of
//! `pmp-bench`, timed with the one sampler. Legs that are compared with
//! each other are sampled round-robin.

use crate::run::Metric;
use crate::sample::{self, Plan, Summary};
use pmp_bench::{PingMode, ServiceExt};
use pmp_spec::Size;

/// Every `micro.*` row; `quick` takes a tenth of the samples (tests).
#[must_use]
pub fn rows(quick: bool) -> Vec<Metric> {
    let scale = |iters: u32| if quick { iters.div_ceil(10) } else { iters };
    let mut m = Vec::new();

    // Interception: a void call under each instrumentation.
    let mut vms: Vec<_> = [
        PingMode::NoStubs,
        PingMode::InactiveHook,
        PingMode::NativeAdvice,
        PingMode::ScriptAdvice,
    ]
    .into_iter()
    .map(pmp_bench::ping_vm)
    .collect();
    vms.push(pmp_bench::ping_vm_shipped(true));
    let mut legs: Vec<Box<dyn FnMut() + '_>> = vms
        .iter_mut()
        .map(|(vm, obj)| Box::new(move || pmp_bench::ping_once(vm, obj)) as Box<dyn FnMut()>)
        .collect();
    let names = [
        "no_stubs",
        "inactive_hook",
        "native_advice",
        "script_advice",
        "script_optimized",
    ];
    push_legs(
        &mut m,
        "micro.vm.call_ns",
        &names,
        Plan::new(scale(5_000)),
        &mut legs,
        1.0,
        "ns",
    );
    drop(legs);

    // Real extensions over a 20-iteration service call.
    let mut vms: Vec<_> = [
        ServiceExt::None,
        ServiceExt::Nop,
        ServiceExt::Security,
        ServiceExt::Transactions,
        ServiceExt::Persistence,
    ]
    .into_iter()
    .map(pmp_bench::service_vm)
    .collect();
    let mut legs: Vec<Box<dyn FnMut() + '_>> = vms
        .iter_mut()
        .map(|(vm, obj)| Box::new(move || pmp_bench::service_call(vm, obj, 20)) as Box<dyn FnMut()>)
        .collect();
    let names = ["none", "nop", "security", "transactions", "persistence"];
    push_legs(
        &mut m,
        "micro.ext.call_ns",
        &names,
        Plan::new(scale(500)),
        &mut legs,
        1.0,
        "ns",
    );
    drop(legs);

    // Weave + unweave against 10, 100 and 1000 join points.
    for (label, classes, methods) in [("jp10", 1, 10), ("jp100", 4, 25), ("jp1000", 10, 100)] {
        let mut vm = pmp_bench::weave_target_vm(classes, methods);
        let prose = pmp_prose::Prose::attach(&mut vm);
        let s = sample::time_ns(Plan::new(scale(10)), || {
            pmp_bench::weave_unweave_once(&mut vm, &prose)
        });
        m.push(Metric::sampled(
            &format!("micro.prose.weave_unweave_us.{label}"),
            "us",
            s,
            1e-3,
        ));
    }

    // The spec suite with the weaver's stubs compiled out and in.
    let mut suites = [pmp_bench::suite_vm(false), pmp_bench::suite_vm(true)];
    let mut legs: Vec<Box<dyn FnMut() + '_>> = suites
        .iter_mut()
        .map(|(vm, suite)| {
            Box::new(move || {
                pmp_bench::run_suite(vm, suite, Size::Small);
            }) as Box<dyn FnMut()>
        })
        .collect();
    let plan = Plan {
        warmup: 1,
        iters: 1,
        repeats: if quick { 3 } else { 7 },
    };
    push_legs(
        &mut m,
        "micro.spec.suite_ms",
        &["stubs_off", "stubs_on"],
        plan,
        &mut legs,
        1e-6,
        "ms",
    );
    drop(legs);

    // The production-hall robot's service call, unadapted and adapted.
    let mut robots = [
        pmp_bench::adapted_robot(false),
        pmp_bench::adapted_robot(true),
    ];
    let mut legs: Vec<Box<dyn FnMut() + '_>> = robots
        .iter_mut()
        .map(|(p, robot)| {
            let robot = *robot;
            Box::new(move || pmp_bench::adapted_call(p, robot, 3, 3)) as Box<dyn FnMut()>
        })
        .collect();
    push_legs(
        &mut m,
        "micro.e5.call_ns",
        &["unadapted", "adapted"],
        Plan::new(scale(500)),
        &mut legs,
        1.0,
        "ns",
    );
    m
}

/// Samples `legs` round-robin and pushes `<prefix>.<name>` per leg.
fn push_legs(
    m: &mut Vec<Metric>,
    prefix: &str,
    names: &[&str],
    plan: Plan,
    legs: &mut [Box<dyn FnMut() + '_>],
    k: f64,
    unit: &'static str,
) {
    let mut refs: Vec<&mut dyn FnMut()> = legs
        .iter_mut()
        .map(|l| &mut **l as &mut dyn FnMut())
        .collect();
    let out: Vec<Summary> = sample::interleaved_ns(plan, &mut refs);
    for (name, s) in names.iter().zip(out) {
        m.push(Metric::sampled(&format!("{prefix}.{name}"), unit, s, k));
    }
}
