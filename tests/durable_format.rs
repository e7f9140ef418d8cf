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
//!
//! A second pin, [`PINNED_CHECKPOINTS`], takes many checkpoints over
//! growing stores, with a crash and recovery in the middle, and folds
//! the disk image after every checkpoint into one digest. Snapshot
//! frames are checksummed by combining CRCs that stores keep up to
//! date as they grow, so this is the test that shows those equal the
//! checksum recomputed over the frame, including at the first
//! checkpoint after a restore.

mod store_ops;

use pmp_core::rpc::RpcEngine;
use pmp_durable::{Durable, DurableEngine, EngineConfig, Store};
use pmp_midas::ExtensionBase;
use pmp_net::NodeId;
use pmp_store::MovementStore;
use pmp_telemetry::SimRng;
use pmp_telemetry::{Fnv64, Shared, Sink};
use pmp_trace::FlightRecorder;

const STEPS: u64 = 400;

/// `(seed, disk digest, journal digest)`.
const PINNED: [(u64, u64, u64); 4] = [
    (0, 0x46c5_b30c_76c7_5a39, 0xfb3e_ca8f_e357_5ff5),
    (1, 0xf5cb_adf2_c31a_f599, 0x6a5e_0d92_8acc_e65c),
    (2, 0x459f_3bb1_a826_47ca, 0xec83_b745_6c91_176a),
    (3, 0x4a68_1b77_71b4_7395, 0xe08f_c5de_5d30_2012),
];

/// Steps of the multi-checkpoint run, the spacing of its checkpoints,
/// and the step after which its base crashes and recovers (off the
/// checkpoint grid, so recovery replays a WAL tail).
const LONG_STEPS: u64 = 480;
const CHECKPOINT_EVERY: u64 = 40;
const RESTART_AT: u64 = 250;

/// `(seed, digest of the disk image after every checkpoint)`.
const PINNED_CHECKPOINTS: [(u64, u64); 4] = [
    (0, 0x81c4_ae94_a7d9_ce71),
    (1, 0x318d_4c6c_9d40_54d9),
    (2, 0xf74a_2a3c_5edf_7cc1),
    (3, 0x8407_d79f_071f_c09d),
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

    fn all_mut(&mut self) -> [&mut dyn Durable; 4] {
        [
            &mut self.base,
            &mut self.rpc,
            &mut self.movements,
            &mut self.flight,
        ]
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
        random_step(&mut engine, &mut live, &mut rng, base_op);
    }
    engine.commit();
    assert!(!engine.segments().is_empty(), "seed {seed}: no WAL tail");

    let mut disk = Fnv64::new();
    fold_disk(&mut disk, &engine);
    let mut journal = Fnv64::new();
    let mut checkpoints = 0;
    shared.with(|t| {
        for e in t.journal.events() {
            if e.name == "snapshot" || e.name == "compact" {
                checkpoints += usize::from(e.name == "snapshot");
                let detail = e.detail();
                journal.write(e.name.as_bytes());
                journal.write_u64(detail.len() as u64);
                journal.write(detail.as_bytes());
            }
        }
    });
    assert_eq!(checkpoints, 1, "seed {seed}: one mid-run snapshot");

    // The pinned image is a readable one: it recovers the live state.
    engine.crash();
    let mut recovered = Stores::new();
    let report = engine.recover(&mut recovered.all_mut());
    assert!(report.is_clean(), "seed {seed}: {report:?}");
    assert!(report.snapshot_seq.is_some() && report.replayed > 0);
    assert_eq!(recovered.digests(), live.digests(), "seed {seed}");
    (disk.finish(), journal.finish())
}

/// One random op on one of the stores (rejected ops included), then a
/// group commit with probability 1/4.
fn random_step(
    engine: &mut DurableEngine,
    live: &mut Stores,
    rng: &mut SimRng,
    base_op: &mut impl FnMut(&mut SimRng) -> pmp_midas::durable::BaseWalOp,
) {
    let _ = match rng.range_u64(4) {
        0 => live.base.commit(engine, base_op(rng)),
        1 => live.rpc.commit(engine, store_ops::rpc_op(rng)),
        2 => live.movements.commit(engine, store_ops::movement_op(rng)),
        _ => live.flight.commit(engine, store_ops::flight_op(rng)),
    };
    if rng.chance(0.25) {
        engine.commit();
    }
}

/// Folds every file on the engine's disk (name and bytes) into `h`.
fn fold_disk(h: &mut Fnv64, engine: &DurableEngine) {
    for file in engine.disk().files_with_prefix("") {
        let bytes = engine.disk().read(&file).expect("listed files exist");
        h.write_u64(file.len() as u64);
        h.write(file.as_bytes());
        h.write_u64(bytes.len() as u64);
        h.write(bytes);
    }
}

/// Commits, crashes and recovers the engine: the recovery must be
/// clean, from the newest snapshot, and rebuild `live` exactly.
/// Returns the recovered stores.
fn restart(engine: &mut DurableEngine, live: &Stores, seed: u64) -> Stores {
    engine.commit();
    engine.crash();
    let mut recovered = Stores::new();
    let report = engine.recover(&mut recovered.all_mut());
    assert!(report.is_clean(), "seed {seed}: {report:?}");
    assert_eq!(report.skipped_snapshots, 0, "seed {seed}");
    assert!(report.snapshot_seq.is_some(), "seed {seed}");
    assert_eq!(recovered.digests(), live.digests(), "seed {seed}");
    recovered
}

/// Runs one seed with a checkpoint every [`CHECKPOINT_EVERY`] steps and
/// a restart after step [`RESTART_AT`], going on with the recovered
/// stores, and returns the digest of the disk image after every
/// checkpoint.
fn run_with_checkpoints(
    seed: u64,
    base_op: &mut impl FnMut(&mut SimRng) -> pmp_midas::durable::BaseWalOp,
) -> u64 {
    let mut engine = DurableEngine::new(EngineConfig {
        segment_bytes: 512,
        snapshot_every: 0,
    });
    let mut rng = SimRng::new(seed);
    let mut live = Stores::new();
    let mut image = Fnv64::new();
    for step in 1..=LONG_STEPS {
        random_step(&mut engine, &mut live, &mut rng, base_op);
        if step % CHECKPOINT_EVERY == 0 {
            // A movement record is never rejected, so each checkpoint
            // follows a committed record and names a new horizon.
            live.movements
                .commit(&mut engine, store_ops::movement_op(&mut rng))
                .expect("movement records are always accepted");
            engine.checkpoint(&live.all());
            fold_disk(&mut image, &engine);
        }
        if step == RESTART_AT {
            live = restart(&mut engine, &live, seed);
        }
    }
    restart(&mut engine, &live, seed);
    image.finish()
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

#[test]
fn disk_bytes_across_many_checkpoints_and_a_restart_match_the_pin() {
    let mut base_op = store_ops::base_ops();
    let got: Vec<(u64, u64)> = PINNED_CHECKPOINTS
        .iter()
        .map(|&(seed, _)| (seed, run_with_checkpoints(seed, &mut base_op)))
        .collect();
    assert_eq!(
        got, PINNED_CHECKPOINTS,
        "the disk image across checkpoints changed: {got:#x?}"
    );
}
