//! What every workload shares: the seeded generator, world builders on
//! the production-hall scenario, counter snapshots, and the per-slice
//! result.

use pmp_core::scenario::ProductionHalls;
use pmp_core::{BaseId, MobId, ParallelDriver, Platform, SerialDriver};
use pmp_net::Position;
use pmp_vm::perm::{Permission, Permissions};
use std::collections::BTreeMap;

/// One simulated millisecond, in nanoseconds.
pub const MS: u64 = 1_000_000;
/// One simulated second, in nanoseconds.
pub const SEC: u64 = 1_000 * MS;

/// The hall-A extensions every adapted robot carries.
pub const HALL_A_EXTS: [&str; 3] = ["ext/session", "ext/access-control", "ext/monitoring"];

/// Splitmix64: the generator behind every seeded input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator over `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The platform seed of slice `slice` of a run seeded `seed`.
#[must_use]
pub fn slice_seed(seed: u64, slice: usize) -> u64 {
    let mut r = Rng::new(seed ^ (slice as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    r.next_u64()
}

/// A seeded position inside hall A, in range of its base.
pub fn hall_a_position(rng: &mut Rng) -> Position {
    Position::new(rng.range_f64(5.0, 55.0), rng.range_f64(5.0, 55.0))
}

/// The permission cap the production-hall robot runs its extensions
/// under.
#[must_use]
pub fn robot_cap() -> Permissions {
    Permissions::none()
        .with(Permission::Print)
        .with(Permission::Net)
        .with(Permission::Time)
        .with(Permission::Store)
}

/// Puts the production-hall hall-A catalog (session, access control
/// allowing operators 1 and 2, hardware monitoring) on `base`.
pub fn stock_hall_a(p: &mut Platform, base: BaseId) {
    for pkg in [
        pmp_extensions::session::package("* DrawingService.*(..)", 1),
        access_control(1),
        pmp_extensions::monitoring::package(1),
    ] {
        let sealed = p.base(base).seal(&pkg);
        p.base_mut(base).base.catalog.put(sealed);
    }
}

/// Version `version` of hall A's access control: odd versions allow
/// operators 1 and 2, even versions operator 1 only.
#[must_use]
pub fn access_control(version: u32) -> pmp_midas::ExtensionPackage {
    let allowed: &[&str] = if allows_operator_2(version) {
        &["operator:1", "operator:2"]
    } else {
        &["operator:1"]
    };
    pmp_extensions::access_control::package("* DrawingService.*(..)", allowed, version)
}

/// Whether [`access_control`] at `version` allows operator 2.
#[must_use]
pub fn allows_operator_2(version: u32) -> bool {
    version % 2 == 1
}

/// Pins the epoch driver, whatever `PMP_DRIVER` says: serial for
/// `threads <= 1`, the sharded driver with `threads` workers otherwise.
pub fn pin_driver(p: &mut Platform, threads: usize) {
    if threads <= 1 {
        p.set_driver(Box::new(SerialDriver));
    } else {
        p.set_driver(Box::new(ParallelDriver { threads }));
    }
}

/// The production-hall world with its two halls federated (roaming
/// neighbours and replicas) and `robots` robots in hall A at seeded
/// positions (the scenario's own robot is the first). Returns the
/// platform, the bases (hall A first) and the robots.
pub fn federated_halls(
    seed: u64,
    threads: usize,
    robots: usize,
    rng: &mut Rng,
) -> (Platform, Vec<BaseId>, Vec<MobId>) {
    let w = ProductionHalls::build(seed);
    let mut p = w.platform;
    pin_driver(&mut p, threads);
    p.replicate_bases(w.base_a, w.base_b);
    let policy = p.trusting_policy(&[w.base_a, w.base_b], robot_cap());
    let mut ids = vec![w.robot];
    for i in 1..robots {
        let pos = hall_a_position(rng);
        ids.push(
            p.add_robot(&format!("robot:1:{}", i + 1), pos, 80.0, policy.clone())
                .expect("robot construction"),
        );
    }
    (p, vec![w.base_a, w.base_b], ids)
}

/// Pumps until every robot carries the hall-A extensions.
///
/// # Panics
///
/// When adaptation has not converged after a minute of simulated time.
pub fn adapt_all(p: &mut Platform, robots: &[MobId]) {
    for _ in 0..600 {
        let done = robots.iter().all(|r| {
            HALL_A_EXTS
                .iter()
                .all(|e| p.node(*r).receiver.is_installed(e))
        });
        if done {
            return;
        }
        p.pump(SEC / 10);
    }
    panic!("robots not adapted after 60 simulated seconds");
}

/// At-most-once calls the robots executed more than once (must be 0).
#[must_use]
pub fn duplicate_executions(p: &Platform, robots: &[MobId]) -> u64 {
    robots
        .iter()
        .map(|r| p.node(*r).rpc_server.duplicate_at_most_once_executions())
        .sum()
}

/// Named counters: exact platform counts the layer metrics divide by
/// operations.
pub type Counts = BTreeMap<String, u64>;

/// Snapshots the counters of `p` over the given bases and nodes:
/// platform counters and histogram counts (`<name>.count`), VM counters
/// summed over nodes, stream and RPC engine counters summed over bases.
pub fn counts(p: &Platform, bases: &[BaseId], nodes: &[MobId]) -> Counts {
    let mut c = Counts::new();
    {
        let t = p.telemetry().lock();
        for (name, v) in t.registry.counters() {
            c.insert(name.to_string(), v);
        }
        for (name, h) in t.registry.histograms() {
            c.insert(format!("{name}.count"), h.count());
        }
    }
    let mut add = |k: &str, v: u64| *c.entry(k.to_string()).or_default() += v;
    for n in nodes {
        let node = p.node(*n);
        let s = node.vm.stats();
        add("vm.advice_dispatches", s.advice_dispatches);
        add("vm.bytecode_ops", s.bytecode_ops);
        add("core.dedup_hits", node.rpc_server.dedup.hits);
    }
    for b in bases {
        let s = p.stream_stats(*b);
        add("stream.delivered", s.delivered);
        add("stream.gaps", s.gaps);
        add("core.rpc_retries", p.base(*b).rpc.retries);
    }
    c
}

/// `after - before`, per counter (counters that restart with a rebuilt
/// component read as 0).
#[must_use]
pub fn delta(after: &Counts, before: &Counts) -> Counts {
    after
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.saturating_sub(before.get(k).copied().unwrap_or(0)),
            )
        })
        .collect()
}

/// Adds every counter of `d` into `into`.
pub fn accumulate(into: &mut Counts, d: &Counts) {
    for (k, v) in d {
        *into.entry(k.clone()).or_default() += v;
    }
}

/// Bytes put on the simulated network, over every channel.
#[must_use]
pub fn air_bytes(c: &Counts) -> u64 {
    c.iter()
        .filter(|(k, _)| k.starts_with("net.channel.") && k.ends_with(".bytes"))
        .map(|(_, v)| v)
        .sum()
}

/// Digest of the simulated run: network trace and journal. Identical
/// under every driver for the same inputs.
#[must_use]
pub fn run_digest(p: &Platform) -> u64 {
    p.trace_digest() ^ p.journal_digest().rotate_left(17)
}

/// What one slice (one fresh world) of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Wall seconds spent building the world.
    pub setup_s: f64,
    /// Wall seconds of the timed phase.
    pub wall_s: f64,
    /// Operations completed (the workload's unit of work).
    pub ops: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Wall-clock latency of each operation, milliseconds.
    pub op_ms: Vec<f64>,
    /// Simulated latency of each operation, milliseconds.
    pub sim_ms: Vec<f64>,
    /// Counter deltas over the timed phase.
    pub counts: Counts,
    /// Correctness violations.
    pub errors: Vec<String>,
    /// Digest of the simulated run (network trace and journal).
    pub digest: u64,
    /// Resident-set growth over the timed phase, kB.
    pub rss_growth_kb: f64,
    /// Clock rate the slice ran at, cycles per second: the mean of
    /// readings before the set-up and after the timed phase.
    pub hz: f64,
}

impl Slice {
    /// Records a correctness violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// The platform, one base and one robot of a workload's world: where
/// the layer replays take their inputs.
pub struct Anchor<'a> {
    /// The world.
    pub p: &'a mut Platform,
    /// The base whose stores and catalog the workload exercises.
    pub base: BaseId,
    /// An adapted robot of that base.
    pub robot: MobId,
}

/// A workload: a seeded world and a timed phase over it.
pub trait Workload: Sized {
    /// Name on the command line and in metric ids.
    const NAME: &'static str;
    /// Builds a fresh world from a platform seed under the driver
    /// [`pin_driver`] picks for `threads`. `tiny` shrinks it for tests.
    fn build(seed: u64, tiny: bool, threads: usize) -> Self;
    /// The world's platform.
    fn platform(&mut self) -> &mut Platform;
    /// Runs the timed phase, recording spans into `log`.
    fn run(&mut self, log: &mut crate::spans::SpanLog) -> Slice;
    /// Where the layer replays take their inputs.
    fn anchor(&mut self) -> Anchor<'_>;
}
