//! Replay ≡ live for every durable store.
//!
//! A store changes state only through `Store::commit`, and WAL replay
//! runs the same `Store::apply` on the same bytes. This suite drives
//! seeded splitmix op sequences through `commit` and requires three
//! digests to agree: the live state, `recover` from the WAL alone, and
//! `recover` from a checkpoint taken at a random step plus the WAL tail
//! after it. The generators (`store_ops`) also emit ops the store must
//! reject (a grant for an unknown node, say); a rejected op must leave
//! the state unchanged and never reach the log.

mod store_ops;

use pmp_core::rpc::RpcEngine;
use pmp_durable::{Durable, DurableEngine, EngineConfig, Store, Wal};
use pmp_midas::ExtensionBase;
use pmp_net::NodeId;
use pmp_store::MovementStore;
use pmp_telemetry::SimRng;
use pmp_trace::FlightRecorder;

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

#[test]
fn extension_base_replay_matches_live() {
    replay_matches_live(
        || ExtensionBase::new(NodeId(1), NodeId(1)),
        store_ops::base_ops(),
    );
}

#[test]
fn rpc_call_table_replay_matches_live() {
    replay_matches_live(RpcEngine::new, store_ops::rpc_op);
}

#[test]
fn movement_store_replay_matches_live() {
    replay_matches_live(MovementStore::new, store_ops::movement_op);
}

#[test]
fn flight_recorder_replay_matches_live() {
    // A small ring, so batches evict and the drop counter moves.
    replay_matches_live(|| FlightRecorder::new(4), store_ops::flight_op);
}
