//! The durable on-disk format, pinned to constants.
//!
//! The replay and cross-driver suites compare digests between two runs
//! of the same code, so a format change that both runs agree on passes
//! them. This test drives the seeded op generators of all four durable
//! stores (`store_ops`) through one engine, with a checkpoint mid-run
//! and a WAL tail after it, and compares an FNV-64 over every file on
//! the engine's disk (name and bytes), and over the journal's
//! `snapshot`/`compact` details, with constants. A deliberate format
//! change updates [`PINNED`] in the same commit.

mod store_ops;

use pmp_core::rpc::RpcEngine;
use pmp_durable::{Durable, DurableEngine, EngineConfig, Store};
use pmp_midas::ExtensionBase;
use pmp_net::{NodeId, SimRng};
use pmp_store::MovementStore;
use pmp_telemetry::{Fnv64, Shared, Sink};
use pmp_trace::FlightRecorder;

const STEPS: u64 = 400;

/// `(seed, disk digest, journal digest)`.
const PINNED: [(u64, u64, u64); 4] = [
    (0, 0x72db_9876_eadf_1efa, 0x6dc9_b26d_6263_248a),
    (1, 0xd117_50b4_68b9_7c53, 0xb369_3df0_8848_fef0),
    (2, 0x2f24_2f20_c5c3_f265, 0x9faf_c3c6_a121_9a3d),
    (3, 0x580a_847f_bb6f_2425, 0x0a8f_91e0_9f87_1642),
];

struct Stores {
    base: ExtensionBase,
    rpc: RpcEngine,
    movements: MovementStore,
    flight: FlightRecorder,
}

impl Stores {
    fn new() -> Stores {
        Stores {
            base: ExtensionBase::new(NodeId(1), NodeId(1)),
            rpc: RpcEngine::new(),
            movements: MovementStore::new(),
            flight: FlightRecorder::new(4),
        }
    }

    fn all(&self) -> [&dyn Durable; 4] {
        [&self.base, &self.rpc, &self.movements, &self.flight]
    }

    fn digests(&self) -> Vec<u64> {
        self.all().iter().map(|s| s.state_digest()).collect()
    }
}

/// Runs one seed's op sequence and returns its disk and journal
/// digests. Rejected ops are part of the sequence: they must leave no
/// trace on disk.
fn run(
    seed: u64,
    base_op: &mut impl FnMut(&mut SimRng) -> pmp_midas::durable::BaseWalOp,
) -> (u64, u64) {
    let shared = Shared::new();
    let mut engine = DurableEngine::new(EngineConfig {
        segment_bytes: 512,
        snapshot_every: 0,
    });
    engine.attach_sink(Sink::direct(&shared));
    let mut rng = SimRng::new(seed);
    let mut live = Stores::new();
    for step in 0..STEPS {
        if step == STEPS / 2 {
            engine.checkpoint(&live.all());
        }
        let _ = match rng.range_u64(4) {
            0 => live.base.commit(&mut engine, base_op(&mut rng)),
            1 => live.rpc.commit(&mut engine, store_ops::rpc_op(&mut rng)),
            2 => live
                .movements
                .commit(&mut engine, store_ops::movement_op(&mut rng)),
            _ => live
                .flight
                .commit(&mut engine, store_ops::flight_op(&mut rng)),
        };
        if rng.chance(0.25) {
            engine.commit();
        }
    }
    engine.commit();
    assert!(!engine.segments().is_empty(), "seed {seed}: no WAL tail");

    let mut disk = Fnv64::new();
    for file in engine.disk().files_with_prefix("") {
        let bytes = engine.disk().read(&file).expect("listed files exist");
        disk.write_u64(file.len() as u64);
        disk.write(file.as_bytes());
        disk.write_u64(bytes.len() as u64);
        disk.write(bytes);
    }
    let mut journal = Fnv64::new();
    let mut checkpoints = 0;
    shared.with(|t| {
        for e in t.journal.events() {
            if e.name == "snapshot" || e.name == "compact" {
                checkpoints += usize::from(e.name == "snapshot");
                journal.write(e.name.as_bytes());
                journal.write_u64(e.detail.len() as u64);
                journal.write(e.detail.as_bytes());
            }
        }
    });
    assert_eq!(checkpoints, 1, "seed {seed}: one mid-run snapshot");

    // The pinned image is a readable one: it recovers the live state.
    engine.crash();
    let mut recovered = Stores::new();
    let report = engine.recover(&mut [
        &mut recovered.base,
        &mut recovered.rpc,
        &mut recovered.movements,
        &mut recovered.flight,
    ]);
    assert!(report.is_clean(), "seed {seed}: {report:?}");
    assert!(report.snapshot_seq.is_some() && report.replayed > 0);
    assert_eq!(recovered.digests(), live.digests(), "seed {seed}");
    (disk.finish(), journal.finish())
}

#[test]
fn disk_bytes_and_checkpoint_journal_match_the_pinned_format() {
    let mut base_op = store_ops::base_ops();
    let got: Vec<(u64, u64, u64)> = PINNED
        .iter()
        .map(|&(seed, _, _)| {
            let (disk, journal) = run(seed, &mut base_op);
            (seed, disk, journal)
        })
        .collect();
    assert_eq!(got, PINNED, "the durable on-disk format changed: {got:#x?}");
}
