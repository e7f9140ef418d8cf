//! Replay ≡ live for every durable store.
//!
//! A store changes state only through `Store::commit`, and WAL replay
//! runs the same `Store::apply` on the same bytes. This suite drives
//! seeded splitmix op sequences through `commit` and requires three
//! digests to agree: the live state, `recover` from the WAL alone, and
//! `recover` from a checkpoint taken at a random step plus the WAL tail
//! after it. The generators also emit ops the store must reject (a
//! grant for an unknown node, say); a rejected op must leave the state
//! unchanged and never reach the log.

use pmp_core::rpc::{CallOp, InvocationSemantics, PendingCall, RpcEngine};
use pmp_durable::{Durable, DurableEngine, EngineConfig, Store, Wal};
use pmp_midas::durable::BaseWalOp;
use pmp_midas::{ExtensionBase, ExtensionMeta, ExtensionPackage, SignedExtension};
use pmp_net::{NodeId, SimRng};
use pmp_prose::{Aspect, PortableAspect, PortableClass};
use pmp_store::{MovementRecord, MovementStore};
use pmp_trace::{FlightEntry, FlightRecorder, SpanRecord};
use std::collections::BTreeMap;

const SEEDS: u64 = 256;
const MAX_STEPS: u64 = 48;

/// Every committed op goes to two logs: one is never checkpointed, the
/// other is checkpointed once, mid-run.
struct Tee {
    wal_only: DurableEngine,
    with_snapshot: DurableEngine,
}

impl Wal for Tee {
    fn append_op(&mut self, ns: &'static str, payload: Vec<u8>, weightless: bool) {
        self.wal_only.append_op(ns, payload.clone(), weightless);
        self.with_snapshot.append_op(ns, payload, weightless);
    }
}

fn engine() -> DurableEngine {
    // Small segments, so replay also crosses segment rolls.
    DurableEngine::new(EngineConfig {
        segment_bytes: 512,
        snapshot_every: 0,
    })
}

fn pick<'a, T>(rng: &mut SimRng, xs: &'a [T]) -> &'a T {
    &xs[rng.range_u64(xs.len() as u64) as usize]
}

/// Runs [`SEEDS`] op sequences against `fresh()` stores and checks
/// live ≡ WAL replay ≡ snapshot + tail after each.
fn replay_matches_live<S: Store>(fresh: impl Fn() -> S, mut op: impl FnMut(&mut SimRng) -> S::Op) {
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for seed in 0..SEEDS {
        let mut rng = SimRng::new(seed);
        let steps = 1 + rng.range_u64(MAX_STEPS);
        let cut = rng.range_u64(steps + 1);
        let mut tee = Tee {
            wal_only: engine(),
            with_snapshot: engine(),
        };
        let mut live = fresh();
        for step in 0..=steps {
            if step == cut {
                tee.with_snapshot.checkpoint(&[&live]);
            }
            if step == steps {
                break;
            }
            let op = op(&mut rng);
            let before = live.state_digest();
            let logged = tee.wal_only.pending_records();
            if live.commit(&mut tee, op).is_ok() {
                accepted += 1;
            } else {
                rejected += 1;
                assert_eq!(
                    live.state_digest(),
                    before,
                    "{}: seed {seed}: a rejected op changed state",
                    S::NAMESPACE
                );
                assert_eq!(
                    tee.wal_only.pending_records(),
                    logged,
                    "{}: seed {seed}: a rejected op was logged",
                    S::NAMESPACE
                );
            }
            if rng.chance(0.25) {
                tee.wal_only.commit();
                tee.with_snapshot.commit();
            }
        }
        tee.wal_only.commit();
        tee.with_snapshot.commit();
        for (path, engine) in [
            ("WAL", &mut tee.wal_only),
            ("snapshot + tail", &mut tee.with_snapshot),
        ] {
            engine.crash();
            let mut recovered = fresh();
            let report = engine.recover(&mut [&mut recovered]);
            assert!(
                report.is_clean(),
                "{}: seed {seed}: {path}: {report:?}",
                S::NAMESPACE
            );
            assert_eq!(
                recovered.state_digest(),
                live.state_digest(),
                "{}: seed {seed}: {path} replay diverged from the live state",
                S::NAMESPACE
            );
        }
    }
    assert!(
        accepted > SEEDS,
        "{}: too few accepted ops ({accepted})",
        S::NAMESPACE
    );
    eprintln!(
        "{}: {accepted} ops committed, {rejected} rejected",
        S::NAMESPACE
    );
}

fn signed(id: &str, version: u32) -> SignedExtension {
    let aspect = Aspect::script(
        id.to_string(),
        PortableClass {
            name: format!("C{id}"),
            fields: vec![],
            methods: vec![],
        },
        vec![],
    );
    let pkg = ExtensionPackage {
        meta: ExtensionMeta {
            id: id.into(),
            version,
            description: String::new(),
            requires: vec![],
            permissions: vec![],
            implicit: false,
        },
        aspect: PortableAspect::try_from(&aspect).unwrap(),
    };
    SignedExtension::seal(
        "authority",
        &pmp_crypto::KeyPair::from_seed(b"replay"),
        &pkg,
    )
}

const EXT_IDS: [&str; 3] = ["mon", "acl", "ctx"];
const NODES: [&str; 3] = ["robot:1:1", "robot:2:2", "robot:3:3"];

fn grants(rng: &mut SimRng) -> BTreeMap<String, u64> {
    (0..rng.range_u64(3))
        .map(|_| (pick(rng, &EXT_IDS).to_string(), 1 + rng.range_u64(40)))
        .collect()
}

#[test]
fn extension_base_replay_matches_live() {
    // Sealing is the expensive part: build the package pool once.
    let pool: Vec<SignedExtension> = EXT_IDS
        .iter()
        .flat_map(|id| (1..=2).map(move |v| signed(id, v)))
        .collect();
    replay_matches_live(
        || ExtensionBase::new(NodeId(1), NodeId(1)),
        |rng| {
            let name = pick(rng, &NODES).to_string();
            let ext_id = pick(rng, &EXT_IDS).to_string();
            match rng.range_u64(9) {
                0 => BaseWalOp::CatalogPut {
                    ext: pick(rng, &pool).clone(),
                },
                1 => BaseWalOp::Revoked { ext_id },
                2 => BaseWalOp::NodeAdapted {
                    name,
                    node: rng.range_u64(8) as u32,
                    grants: grants(rng),
                },
                3 => BaseWalOp::GrantSet {
                    name,
                    ext_id,
                    grant: 1 + rng.range_u64(40),
                },
                4 => BaseWalOp::GrantDropped {
                    name,
                    grant: 1 + rng.range_u64(40),
                },
                5 => BaseWalOp::Presence {
                    name,
                    present: rng.chance(0.5),
                },
                6 => BaseWalOp::RoamState {
                    name,
                    from: rng.range_u64(4) as u32,
                    grants: grants(rng),
                    exts: (0..rng.range_u64(3))
                        .map(|_| pick(rng, &pool).clone())
                        .collect(),
                    seq: rng.range_u64(32),
                },
                7 => BaseWalOp::RoamDrop { name },
                _ => BaseWalOp::ForeignPut {
                    ext: pick(rng, &pool).clone(),
                },
            }
        },
    );
}

#[test]
fn rpc_call_table_replay_matches_live() {
    replay_matches_live(RpcEngine::new, |rng| {
        let req = rng.range_u64(6);
        match rng.range_u64(3) {
            0 => CallOp::Issue {
                req,
                call: PendingCall {
                    target: rng.range_u64(4) as u32,
                    sem: if rng.chance(0.5) {
                        InvocationSemantics::AtMostOnce
                    } else {
                        InvocationSemantics::AtLeastOnce
                    },
                    caller: "operator".into(),
                    class: "DrawingService".into(),
                    method: "moveTo".into(),
                    args: vec![rng.range_u64(100) as i64, -(rng.range_u64(100) as i64)],
                    attempts: 1,
                    issued_at: rng.range_u64(1_000_000),
                },
            },
            1 => CallOp::Attempt { req },
            _ => CallOp::Resolve { req },
        }
    });
}

#[test]
fn movement_store_replay_matches_live() {
    replay_matches_live(MovementStore::new, |rng| MovementRecord {
        robot: pick(rng, &NODES).to_string(),
        device: "motor:x".into(),
        command: "Motor.rotate".into(),
        args: vec![rng.range_u64(360) as i64 - 180],
        issued_at: rng.range_u64(1_000_000),
        duration_ns: rng.range_u64(1_000),
    });
}

#[test]
fn flight_recorder_replay_matches_live() {
    // A small ring, so batches evict and the drop counter moves.
    replay_matches_live(
        || FlightRecorder::new(4),
        |rng| {
            (0..rng.range_u64(4))
                .map(|i| {
                    let at = rng.range_u64(1_000_000);
                    if rng.chance(0.5) {
                        FlightEntry::Event {
                            at,
                            name: "midas.ship".into(),
                            detail: format!("e{i}"),
                        }
                    } else {
                        FlightEntry::Span(SpanRecord {
                            trace_id: 1,
                            span_id: (1 << 32) | i,
                            parent_id: 0,
                            node: 1,
                            start: at,
                            end: at,
                            name: "midas.verify".into(),
                            detail: String::new(),
                        })
                    }
                })
                .collect()
        },
    );
}
