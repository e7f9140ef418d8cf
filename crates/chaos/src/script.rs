//! The chaos script: an explicit, serializable event program.
//!
//! A [`Scenario`] is everything a chaos run needs — topology, catalogs,
//! and a time-ordered list of [`Step`]s — with *no* hidden state. The
//! generator compiles a seed into one, the executor replays it against
//! the real [`pmp_core::Platform`], the shrinker deletes steps from it,
//! and the `.repro` format is just its pmp-wire encoding behind a magic
//! prefix. Every step is total: an op whose target does not exist (or
//! whose precondition fails, like crashing an already-crashed base) is
//! a no-op, so *any* subset of a valid script is itself valid — the
//! property delta debugging rests on.

use pmp_midas::ExtensionPackage;
use pmp_wire::{wire_enum, wire_struct};

/// Horizontal spacing between halls; hall `i` spans
/// `[i*HALL_PITCH, i*HALL_PITCH + HALL_SIDE]` on the x axis.
pub const HALL_PITCH: f64 = 150.0;
/// Side length of a (square) hall.
pub const HALL_SIDE: f64 = 60.0;
/// Radio range of every base and mobile node.
pub const RADIO_RANGE: f64 = 80.0;
/// The corridor: out of every base's radio range.
pub const CORRIDOR: (f64, f64) = (1000.0, 1000.0);
/// Executor cap on the node population (AddRobot beyond this no-ops).
pub const MAX_NODES: usize = 6;
/// Executor cap on stream subscribers (Subscribe beyond this no-ops).
pub const MAX_SUBS: usize = 8;

/// The durable namespaces a chaos subscriber may follow, in wire
/// order: `Op::Subscribe::ns` indexes this table (mod its length).
pub const STREAM_NAMESPACES: [&str; 3] = ["store.movements", "midas.base", "trace.flight"];

/// A complete chaos scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Seed for the platform's network RNG (link loss, jitter).
    pub seed: u64,
    /// The static world the steps run against.
    pub topology: Topology,
    /// Time-ordered event program (executor sorts stably by `at_ms`).
    pub steps: Vec<Step>,
    /// Quiet tail after the last step, for leases to lapse and
    /// protocols to converge before final observables are read.
    pub settle_ms: u32,
}

wire_struct!(Scenario {
    seed: u64,
    topology: Topology,
    steps: Vec<Step>,
    settle_ms: u32
});

/// The static world: halls, initial robots, catalogs, lease policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Number of halls (1..=4), each with one base at its centre.
    pub halls: u8,
    /// Link loss probability in 1/1000 units (0 = ideal radio).
    pub loss_per_mille: u16,
    /// Robots present at t=0; robot `i` starts in hall `i % halls`.
    pub robots: u8,
    /// Per-hall extension catalog, published at t=0 through the WAL.
    pub catalogs: Vec<Vec<CatalogEntry>>,
    /// Lease duration every base grants, in milliseconds.
    pub lease_ms: u32,
    /// Whether consecutive bases get a wired backhaul (roaming
    /// handoffs work) or stand alone.
    pub link_neighbors: bool,
}

wire_struct!(Topology {
    halls: u8,
    loss_per_mille: u16,
    robots: u8,
    catalogs: Vec<Vec<CatalogEntry>>,
    lease_ms: u32,
    link_neighbors: bool
});

/// One catalog line: which extension, at which version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogEntry {
    /// The extension kind.
    pub kind: ExtKind,
    /// Package version (bases upgrade in place on re-publish).
    pub version: u32,
}

wire_struct!(CatalogEntry {
    kind: ExtKind,
    version: u32
});

/// One timed event.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Simulated milliseconds from t=0.
    pub at_ms: u32,
    /// What happens.
    pub op: Op,
}

wire_struct!(Step { at_ms: u32, op: Op });

/// The chaos vocabulary. Node/base operands are indices into the
/// platform's node/base tables; out-of-range or precondition-failing
/// ops are no-ops (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Teleport a node into a hall (a roam).
    MoveToHall {
        /// Node index.
        node: u8,
        /// Destination hall.
        hall: u8,
    },
    /// Teleport a node out of every base's range (a departure).
    MoveToCorridor {
        /// Node index.
        node: u8,
    },
    /// Radio silence on/off for a node.
    SetOnline {
        /// Node index.
        node: u8,
        /// New radio state.
        online: bool,
    },
    /// A new robot joins, starting in `hall`.
    AddRobot {
        /// Hall to join in.
        hall: u8,
    },
    /// Power-fail a base: in-memory state gone, disk survives.
    CrashBase {
        /// Base index.
        base: u8,
    },
    /// Rebuild a crashed base from its disk (recovery).
    RestartBase {
        /// Base index.
        base: u8,
    },
    /// Snapshot a live base's durable state and compact its WAL.
    CheckpointBase {
        /// Base index.
        base: u8,
    },
    /// Publish (or upgrade) an extension in a base's catalog.
    Publish {
        /// Base index.
        base: u8,
        /// Which extension.
        kind: ExtKind,
        /// New version.
        version: u32,
    },
    /// Revoke an extension: out of the catalog, all grants void.
    Revoke {
        /// Base index.
        base: u8,
        /// Which extension.
        kind: ExtKind,
    },
    /// Remote `DrawingService.moveTo(x, y)` call from a base to a node.
    Rpc {
        /// Calling base index.
        base: u8,
        /// Target node index.
        node: u8,
        /// Plotter x.
        x: u8,
        /// Plotter y.
        y: u8,
    },
    /// While a base is down, chop bytes off its newest WAL segment
    /// (simulates a torn final write). No-op on a live base.
    InjectTornTail {
        /// Base index (must be crashed).
        base: u8,
        /// Bytes to drop from the tail.
        drop: u8,
    },
    /// While a base is down, flip one bit of its newest WAL segment.
    /// No-op on a live base.
    InjectBitFlip {
        /// Base index (must be crashed).
        base: u8,
        /// Byte offset (clamped to the segment by the executor).
        offset: u16,
    },
    /// Sever the radio path between one node and one base.
    Partition {
        /// Node index.
        node: u8,
        /// Base index.
        base: u8,
    },
    /// Restore a severed path.
    Heal {
        /// Node index.
        node: u8,
        /// Base index.
        base: u8,
    },
    /// Federate two bases: roaming neighbours *and* replicas over a
    /// wired backhaul — catalog/lease anti-entropy plus migratable
    /// (zero-re-deliver) handoffs. Self-pairs are no-ops.
    LinkBases {
        /// First base index.
        a: u8,
        /// Second base index.
        b: u8,
    },
    /// Sever the inter-base path (backhaul included): handoffs and
    /// anti-entropy between the pair stop until healed.
    PartitionBases {
        /// First base index.
        a: u8,
        /// Second base index.
        b: u8,
    },
    /// Restore a severed inter-base path.
    HealBases {
        /// First base index.
        a: u8,
        /// Second base index.
        b: u8,
    },
    /// Attach a rev-stream subscriber to a base's durable namespace.
    /// The executor mirrors every drained event and the
    /// `stream-resync` oracle holds the mirror to the publisher's
    /// state digest at every barrier. No-op past [`MAX_SUBS`].
    Subscribe {
        /// Base index.
        base: u8,
        /// Index into [`STREAM_NAMESPACES`] (mod its length).
        ns: u8,
    },
    /// Detach a subscriber created by an earlier `Subscribe` (index in
    /// creation order). Out-of-range or already-dropped: no-op.
    DropSubscriber {
        /// Subscriber index.
        sub: u8,
    },
    /// Remote `DrawingService.moveTo(x, y)` call with explicit
    /// invocation semantics (DESIGN.md §17): `sem % 3` selects
    /// maybe / at-most-once / at-least-once. Semantic calls retry on
    /// per-base timers and always resolve (reply or timeout outcome),
    /// which the `perf.soak-throughput` oracle relies on.
    RpcSem {
        /// Calling base index.
        base: u8,
        /// Target node index.
        node: u8,
        /// Semantics selector (`% 3`): 0 maybe, 1 at-most-once,
        /// 2 at-least-once.
        sem: u8,
        /// Plotter x.
        x: u8,
        /// Plotter y.
        y: u8,
    },
    /// Publish a hostile package through the MIDAS admission gate:
    /// `attack % 4` selects tampered-signature / over-privileged /
    /// verifier-rejecting / rogue-signer (see
    /// [`crate::exec`] for the concrete payloads). The
    /// `adversarial-containment` oracle asserts no such package is
    /// ever installed on a node.
    AdversarialPublish {
        /// Base index to publish through.
        base: u8,
        /// Attack selector (`% 4`).
        attack: u8,
        /// Package version (re-publishes upgrade in place).
        version: u32,
    },
    /// Multiply every link-latency parameter (base, per-byte, jitter)
    /// by `mult` from this point on — a simulated-time performance
    /// regression for the `perf.soak-rpc-p99` oracle to catch. The
    /// generator never emits this op; it exists for soak scenarios and
    /// pinned perf repros.
    SlowLinks {
        /// Latency multiplier (clamped to ≥ 1).
        mult: u8,
    },
    /// Wire `child`'s registrar under `parent`'s in the directory tree
    /// (wired backhaul between them). Only a lower index may parent a
    /// higher one, and each child takes a parent at most once, so the
    /// edges always form a forest; any other `DirParent` is a no-op.
    DirParent {
        /// Child base index.
        child: u8,
        /// Parent base index (below `child`).
        parent: u8,
    },
}

wire_enum!(Op {
    0 => MoveToHall { node: u8, hall: u8 },
    1 => MoveToCorridor { node: u8 },
    2 => SetOnline { node: u8, online: bool },
    3 => AddRobot { hall: u8 },
    4 => CrashBase { base: u8 },
    5 => RestartBase { base: u8 },
    6 => CheckpointBase { base: u8 },
    7 => Publish { base: u8, kind: ExtKind, version: u32 },
    8 => Revoke { base: u8, kind: ExtKind },
    9 => Rpc { base: u8, node: u8, x: u8, y: u8 },
    10 => InjectTornTail { base: u8, drop: u8 },
    11 => InjectBitFlip { base: u8, offset: u16 },
    12 => Partition { node: u8, base: u8 },
    13 => Heal { node: u8, base: u8 },
    14 => LinkBases { a: u8, b: u8 },
    15 => PartitionBases { a: u8, b: u8 },
    16 => HealBases { a: u8, b: u8 },
    17 => Subscribe { base: u8, ns: u8 },
    18 => DropSubscriber { sub: u8 },
    19 => RpcSem { base: u8, node: u8, sem: u8, x: u8, y: u8 },
    20 => AdversarialPublish { base: u8, attack: u8, version: u32 },
    21 => SlowLinks { mult: u8 },
    22 => DirParent { child: u8, parent: u8 },
});

/// The extensions chaos runs distribute. All declared permissions fall
/// inside the receivers' `Print|Net|Time|Store` cap, so every one of
/// them is installable when its dependencies are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ExtKind {
    /// Session management (implicit dependency of access control).
    Session,
    /// Access control — `requires: ext/session`.
    AccessControl,
    /// Hardware monitoring (`net`).
    Monitoring,
    /// Per-call billing (`net`).
    Billing,
    /// Geofence on plotter movement.
    Geofence,
}

/// Every kind, in wire-tag order.
pub const ALL_KINDS: [ExtKind; 5] = [
    ExtKind::Session,
    ExtKind::AccessControl,
    ExtKind::Monitoring,
    ExtKind::Billing,
    ExtKind::Geofence,
];

impl ExtKind {
    /// The package's extension id.
    #[must_use]
    pub fn ext_id(self) -> &'static str {
        match self {
            ExtKind::Session => pmp_extensions::session::ID,
            ExtKind::AccessControl => pmp_extensions::access_control::ID,
            ExtKind::Monitoring => "ext/monitoring",
            ExtKind::Billing => pmp_extensions::billing::ID,
            ExtKind::Geofence => pmp_extensions::geofence::ID,
        }
    }

    /// Builds the concrete package at `version`, with the same
    /// crosscuts the production-hall scenario uses.
    #[must_use]
    pub fn package(self, version: u32) -> ExtensionPackage {
        match self {
            ExtKind::Session => {
                pmp_extensions::session::package("* DrawingService.*(..)", version)
            }
            ExtKind::AccessControl => pmp_extensions::access_control::package(
                "* DrawingService.*(..)",
                &["operator:1", "operator:2"],
                version,
            ),
            ExtKind::Monitoring => pmp_extensions::monitoring::package(version),
            ExtKind::Billing => pmp_extensions::billing::package("* Motor.*(..)", 2, version),
            ExtKind::Geofence => pmp_extensions::geofence::package(0, 0, 40, 40, version),
        }
    }
}

wire_enum!(ExtKind {
    0 => Session,
    1 => AccessControl,
    2 => Monitoring,
    3 => Billing,
    4 => Geofence,
});

impl Scenario {
    /// Pretty one-line-per-step rendering for failure reports.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let t = &self.topology;
        let _ = writeln!(
            out,
            "seed={} halls={} robots={} loss={}‰ lease={}ms linked={} settle={}ms",
            self.seed,
            t.halls,
            t.robots,
            t.loss_per_mille,
            t.lease_ms,
            t.link_neighbors,
            self.settle_ms
        );
        for (i, cat) in t.catalogs.iter().enumerate() {
            let items: Vec<String> = cat
                .iter()
                .map(|e| format!("{}@v{}", e.kind.ext_id(), e.version))
                .collect();
            let _ = writeln!(out, "  hall-{i}: [{}]", items.join(", "));
        }
        for s in &self.steps {
            let _ = writeln!(out, "  t+{:>6}ms {:?}", s.at_ms, s.op);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_wire::{from_bytes, to_bytes, WireError};

    fn sample() -> Scenario {
        Scenario {
            seed: 42,
            topology: Topology {
                halls: 2,
                loss_per_mille: 50,
                robots: 2,
                catalogs: vec![
                    vec![
                        CatalogEntry {
                            kind: ExtKind::Session,
                            version: 1,
                        },
                        CatalogEntry {
                            kind: ExtKind::AccessControl,
                            version: 1,
                        },
                    ],
                    vec![CatalogEntry {
                        kind: ExtKind::Billing,
                        version: 3,
                    }],
                ],
                lease_ms: 3000,
                link_neighbors: true,
            },
            steps: vec![
                Step {
                    at_ms: 500,
                    op: Op::MoveToHall { node: 0, hall: 1 },
                },
                Step {
                    at_ms: 900,
                    op: Op::CrashBase { base: 0 },
                },
                Step {
                    at_ms: 1400,
                    op: Op::InjectTornTail { base: 0, drop: 7 },
                },
                Step {
                    at_ms: 2000,
                    op: Op::RestartBase { base: 0 },
                },
                Step {
                    at_ms: 2500,
                    op: Op::Publish {
                        base: 1,
                        kind: ExtKind::Geofence,
                        version: 2,
                    },
                },
            ],
            settle_ms: 8000,
        }
    }

    #[test]
    fn scenario_roundtrips_on_the_wire() {
        let sc = sample();
        assert_eq!(from_bytes::<Scenario>(&to_bytes(&sc)).unwrap(), sc);
    }

    #[test]
    fn every_op_roundtrips() {
        let ops = vec![
            Op::MoveToHall { node: 1, hall: 2 },
            Op::MoveToCorridor { node: 0 },
            Op::SetOnline {
                node: 3,
                online: false,
            },
            Op::AddRobot { hall: 1 },
            Op::CrashBase { base: 0 },
            Op::RestartBase { base: 0 },
            Op::CheckpointBase { base: 1 },
            Op::Publish {
                base: 0,
                kind: ExtKind::Monitoring,
                version: 9,
            },
            Op::Revoke {
                base: 0,
                kind: ExtKind::Session,
            },
            Op::Rpc {
                base: 1,
                node: 2,
                x: 10,
                y: 20,
            },
            Op::InjectTornTail { base: 0, drop: 255 },
            Op::InjectBitFlip {
                base: 1,
                offset: 4096,
            },
            Op::Partition { node: 0, base: 1 },
            Op::Heal { node: 0, base: 1 },
            Op::LinkBases { a: 0, b: 1 },
            Op::PartitionBases { a: 1, b: 2 },
            Op::HealBases { a: 1, b: 2 },
            Op::Subscribe { base: 0, ns: 2 },
            Op::DropSubscriber { sub: 3 },
            Op::RpcSem {
                base: 0,
                node: 1,
                sem: 2,
                x: 5,
                y: 6,
            },
            Op::AdversarialPublish {
                base: 1,
                attack: 3,
                version: 4,
            },
            Op::SlowLinks { mult: 2 },
            Op::DirParent {
                child: 2,
                parent: 0,
            },
        ];
        for op in ops {
            assert_eq!(from_bytes::<Op>(&to_bytes(&op)).unwrap(), op);
        }
    }

    #[test]
    fn bad_tags_are_rejected_with_offsets() {
        assert_eq!(
            from_bytes::<Op>(&[200, 0, 0]),
            Err(WireError::InvalidTag {
                type_name: "Op",
                tag: 200,
                offset: 0,
            })
        );
        assert_eq!(
            from_bytes::<ExtKind>(&[7]),
            Err(WireError::InvalidTag {
                type_name: "ExtKind",
                tag: 7,
                offset: 0,
            })
        );
    }

    #[test]
    fn render_names_the_world_and_every_step() {
        let text = sample().render();
        assert!(text.contains("seed=42"));
        assert!(text.contains("hall-0: [ext/session@v1, ext/access-control@v1]"));
        assert!(text.contains("CrashBase"));
    }
}
