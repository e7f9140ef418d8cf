//! # pmp-durable — crash-recoverable WAL + snapshot storage engine
//!
//! The paper's base stations are the *stationary* half of the platform:
//! they hold the extension catalog, the lease table for every adapted
//! node, and the movement history replicated between halls. In the
//! paper these live in Java heap and die with the process. This crate
//! gives the reproduction what a production deployment would need: a
//! log-structured storage engine so a base station can crash mid-epoch
//! and come back with byte-identical state.
//!
//! Layout:
//!
//! * [`crc`] — CRC-32 (IEEE, slicing-by-8) over every frame, and
//!   zlib's CRC combine for snapshot frames; no external crate.
//! * [`disk`] — [`SimDisk`], an in-memory disk with an explicit
//!   committed/pending boundary (the simulated `fsync`) and fault
//!   injection on the committed image.
//! * [`record`] — the frame format (`len | body | crc`) and
//!   [`WalRecord`]; all decode errors carry byte offsets.
//! * [`engine`] — [`DurableEngine`]: segmented WAL, group commit,
//!   snapshot + compaction, and a recovery path that truncates torn
//!   tails and reports corruption instead of panicking.
//!
//! State plugs in through the [`Store`] trait: a namespace, a
//! canonical snapshot, and one typed op whose [`Store::apply`] is the
//! only way the state changes. The live path calls [`Store::commit`]
//! (apply, then append the op's bytes) and replay decodes the same
//! bytes into the same `apply`. Every store is also a [`Durable`], the
//! object-safe surface the engine works through. `pmp-store`'s movement
//! table, `pmp-midas`'s extension base, `pmp-trace`'s flight recorder
//! and `pmp-core`'s RPC call table implement it.
//!
//! Components share one engine through a [`DurableHub`] and commit
//! into it as a [`Wal`]. Appends buffer in memory; the platform calls
//! [`DurableHub::commit`] at epoch barriers (group commit), which keeps
//! the write path off the parallel driver's worker threads and the
//! event journal deterministic across drivers.

pub mod crc;
pub mod disk;
pub mod engine;
pub mod record;

pub use disk::SimDisk;
pub use engine::{Anomaly, CommitTap, DurableEngine, EngineConfig, RecoverReport};
pub use record::{FrameError, WalRecord};

use pmp_telemetry::{sync, DirtyMark, Fnv64, Sink};
use pmp_wire::{Wire, WireError};
use std::sync::Arc;

/// Error from restoring or applying durable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// A snapshot or record payload failed wire decoding.
    Wire(WireError),
    /// A decoded operation violated an invariant of the state.
    Invalid(&'static str),
}

impl From<WireError> for DurableError {
    fn from(e: WireError) -> Self {
        DurableError::Wire(e)
    }
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Wire(e) => write!(f, "wire: {e}"),
            DurableError::Invalid(reason) => write!(f, "invalid operation: {reason}"),
        }
    }
}

impl std::error::Error for DurableError {}

/// State that can be made crash-safe by the engine: the object-safe
/// surface [`DurableEngine::checkpoint`], [`DurableEngine::recover`],
/// [`DurableHub`] and stream mirrors work through.
///
/// Implemented for every [`Store`]; implement [`Store`], not this.
pub trait Durable {
    /// The namespace this state owns (see [`Store::NAMESPACE`]).
    fn namespace(&self) -> &'static str;

    /// Canonical serialisation of the full current state.
    fn snapshot_bytes(&self) -> Vec<u8>;

    /// The CRC-32 of `bytes`, which must be what
    /// [`Durable::snapshot_bytes`] returned for the current state (see
    /// [`Store::encoded_crc`]).
    fn snapshot_crc(&self, bytes: &[u8]) -> u32;

    /// Replaces the state with a previously-taken snapshot.
    ///
    /// # Errors
    ///
    /// [`DurableError`] when the bytes do not decode.
    fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<(), DurableError>;

    /// Applies one logged operation: decodes it and runs the same
    /// [`Store::apply`] the live path committed it through.
    ///
    /// # Errors
    ///
    /// [`DurableError`] when the payload does not decode or violates
    /// an invariant.
    fn apply_record(&mut self, payload: &[u8]) -> Result<(), DurableError>;

    /// A stable digest of the current state, derived from the
    /// canonical snapshot encoding. Used by crash-recovery tests to
    /// prove restored state matches the pre-crash original.
    fn state_digest(&self) -> u64 {
        let bytes = self.snapshot_bytes();
        let mut h = Fnv64::new();
        h.write_u64(bytes.len() as u64);
        h.write(&bytes);
        h.finish()
    }
}

/// A durable store with one typed transition.
///
/// The live path decides what should change, builds the op, and calls
/// [`Store::commit`], which applies it and appends its bytes. WAL replay
/// decodes the same bytes and calls the same [`Store::apply`], so
/// replay rebuilds exactly the live state: there is no second copy of
/// any transition to drift.
///
/// `encode_state` must be **canonical**: equal logical state produces
/// identical bytes (sort maps, fix iteration order). Crash-recovery
/// tests compare [`Durable::state_digest`] across a crash/restart
/// boundary, which only works if the encoding is a pure function of
/// the state.
pub trait Store {
    /// The namespace this state owns, e.g. `"midas.base"`. Must be
    /// unique within a hub.
    const NAMESPACE: &'static str;

    /// Whether this store's records skip the snapshot cadence (see
    /// [`DurableEngine::append_weightless`]).
    const WEIGHTLESS: bool = false;

    /// One logged transition.
    type Op: Wire;

    /// Canonical serialisation of the full current state.
    fn encode_state(&self) -> Vec<u8>;

    /// The CRC-32 of `encoded`, which is what [`Store::encode_state`]
    /// just returned for the current state. A checkpoint folds it into
    /// the snapshot frame's checksum instead of reading the blob again.
    /// The default hashes `encoded`; a store that can keep its
    /// encoding's checksum up to date as it changes (the append-only
    /// movement store) overrides it to hash only what is new.
    fn encoded_crc(&self, encoded: &[u8]) -> u32 {
        crc::crc32(encoded)
    }

    /// Replaces the state with a previously-encoded one.
    ///
    /// # Errors
    ///
    /// [`DurableError`] when the bytes do not decode.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), DurableError>;

    /// The store's only state transition, shared by the live path and
    /// WAL replay. A rejected op must leave the state unchanged.
    ///
    /// # Errors
    ///
    /// [`DurableError::Invalid`] when `op` violates an invariant.
    fn apply(&mut self, op: Self::Op) -> Result<(), DurableError>;

    /// Encodes `op`, applies it, and appends the bytes to `wal` only if
    /// [`Store::apply`] accepted it.
    ///
    /// # Errors
    ///
    /// The error from [`Store::apply`]; nothing is appended then.
    fn commit(&mut self, wal: &mut impl Wal, op: Self::Op) -> Result<(), DurableError> {
        let payload = pmp_wire::to_bytes(&op);
        self.apply(op)?;
        wal.append_op(Self::NAMESPACE, payload, Self::WEIGHTLESS);
        Ok(())
    }
}

impl<S: Store> Durable for S {
    fn namespace(&self) -> &'static str {
        S::NAMESPACE
    }

    fn snapshot_bytes(&self) -> Vec<u8> {
        self.encode_state()
    }

    fn snapshot_crc(&self, bytes: &[u8]) -> u32 {
        self.encoded_crc(bytes)
    }

    fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<(), DurableError> {
        self.restore_state(bytes)
    }

    fn apply_record(&mut self, payload: &[u8]) -> Result<(), DurableError> {
        self.apply(pmp_wire::from_bytes(payload)?)
    }
}

/// Where [`Store::commit`] appends: a log that buffers records until
/// the next group commit.
pub trait Wal {
    /// Buffers `payload` under `ns`. A `weightless` record does not
    /// advance the snapshot cadence.
    fn append_op(&mut self, ns: &'static str, payload: Vec<u8>, weightless: bool);
}

impl Wal for DurableEngine {
    fn append_op(&mut self, ns: &'static str, payload: Vec<u8>, weightless: bool) {
        if weightless {
            self.append_weightless(ns, payload);
        } else {
            self.append(ns, payload);
        }
    }
}

impl Wal for DurableHub {
    fn append_op(&mut self, ns: &'static str, payload: Vec<u8>, weightless: bool) {
        self.inner.lock().append_op(ns, payload, weightless);
    }
}

/// A store with no log attached still applies its ops.
impl<W: Wal> Wal for Option<W> {
    fn append_op(&mut self, ns: &'static str, payload: Vec<u8>, weightless: bool) {
        if let Some(wal) = self {
            wal.append_op(ns, payload, weightless);
        }
    }
}

/// A cloneable, thread-safe handle on one shared [`DurableEngine`].
///
/// Node cells may append from worker threads under the parallel driver
/// (the engine sits behind a mutex); commits, checkpoints, and
/// recovery happen on the platform thread at epoch barriers.
#[derive(Clone, Debug, Default)]
pub struct DurableHub {
    inner: Arc<sync::Mutex<DurableEngine>>,
}

impl DurableHub {
    /// A hub around a fresh engine with default tuning.
    #[must_use]
    pub fn new() -> DurableHub {
        DurableHub::default()
    }

    /// Runs `f` with the engine locked.
    pub fn with<R>(&self, f: impl FnOnce(&mut DurableEngine) -> R) -> R {
        f(&mut self.inner.lock())
    }

    /// Routes engine telemetry through `sink`.
    pub fn attach_sink(&self, sink: Sink) {
        self.inner.lock().attach_sink(sink);
    }

    /// Installs the engine's commit observer (see
    /// [`engine::CommitTap`]): handed every batch, by value, right after
    /// the sync that makes it durable.
    pub fn set_commit_tap(&self, tap: CommitTap) {
        self.inner.lock().set_commit_tap(tap);
    }

    /// Sets `mark` with every append (see
    /// [`DurableEngine::set_append_mark`]).
    pub fn set_append_mark(&self, mark: DirtyMark) {
        self.inner.lock().set_append_mark(mark);
    }

    /// The committed WAL suffix from `since_seq` (see
    /// [`DurableEngine::wal_tail`]); `None` when not servable.
    #[must_use]
    pub fn wal_tail(&self, since_seq: u64) -> Option<Vec<WalRecord>> {
        self.inner.lock().wal_tail(since_seq)
    }

    /// Group-commits the buffered batch; returns the batch size.
    pub fn commit(&self) -> usize {
        self.inner.lock().commit()
    }

    /// Whether the engine's checkpoint hint has tripped.
    #[must_use]
    pub fn should_checkpoint(&self) -> bool {
        self.inner.lock().should_checkpoint()
    }

    /// Snapshots the given states and compacts the log.
    pub fn checkpoint(&self, states: &[&dyn Durable]) {
        self.inner.lock().checkpoint(states);
    }

    /// Simulates the owning process dying (drops all unsynced work).
    pub fn crash(&self) {
        self.inner.lock().crash();
    }

    /// Recovers the given states from the committed image.
    pub fn recover(&self, states: &mut [&mut dyn Durable]) -> RecoverReport {
        self.inner.lock().recover(states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct Counter {
        total: u64,
    }

    impl Store for Counter {
        const NAMESPACE: &'static str = "test.counter";
        type Op = u64;
        fn encode_state(&self) -> Vec<u8> {
            pmp_wire::to_bytes(&self.total)
        }
        fn restore_state(&mut self, bytes: &[u8]) -> Result<(), DurableError> {
            self.total = pmp_wire::from_bytes(bytes)?;
            Ok(())
        }
        fn apply(&mut self, n: u64) -> Result<(), DurableError> {
            self.total = self
                .total
                .checked_add(n)
                .ok_or(DurableError::Invalid("counter overflow"))?;
            Ok(())
        }
    }

    #[test]
    fn hub_round_trip_through_commit() {
        let mut hub = DurableHub::new();
        let mut live = Counter::default();
        for n in [5u64, 7] {
            live.commit(&mut hub, n).unwrap();
        }
        assert_eq!(live.total, 12);
        assert_eq!(hub.commit(), 2);
        hub.crash();

        let mut restored = Counter::default();
        let report = hub.recover(&mut [&mut restored]);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(restored.total, 12);
        assert_eq!(restored.state_digest(), live.state_digest());
    }

    #[test]
    fn state_digest_tracks_canonical_bytes() {
        let a = Counter { total: 3 };
        let b = Counter { total: 3 };
        let c = Counter { total: 4 };
        assert_eq!(a.state_digest(), b.state_digest());
        assert_ne!(a.state_digest(), c.state_digest());
    }

    #[test]
    fn rejected_ops_are_not_appended() {
        let mut hub = DurableHub::new();
        let mut live = Counter { total: u64::MAX };
        assert!(live.commit(&mut hub, 1).is_err());
        assert_eq!(live.total, u64::MAX);
        assert_eq!(hub.commit(), 0, "nothing logged for a rejected op");
    }

    #[test]
    fn detached_stores_still_apply() {
        let mut live = Counter::default();
        live.commit(&mut None::<DurableHub>, 3).unwrap();
        assert_eq!(live.total, 3);
    }

    #[test]
    fn hub_clones_share_one_engine() {
        let hub = DurableHub::new();
        let mut clone = hub.clone();
        Counter::default().commit(&mut clone, 1).unwrap();
        assert_eq!(hub.commit(), 1);
    }

    /// Seeded properties of the WAL frame decoder.
    mod frames {
        use crate::record::{decode_record, framed_record, FrameError, WalRecord};
        use pmp_telemetry::SimRng;

        /// Cases per property below.
        const CASES: u64 = 256;

        /// A record with a namespace of 1–24 chars from `[a-z.]`.
        fn record(rng: &mut SimRng, max_payload: usize) -> WalRecord {
            const NS: &[u8] = b"abcdefghijklmnopqrstuvwxyz.";
            WalRecord {
                seq: rng.any_i64() as u64,
                ns: (0..1 + rng.below(24))
                    .map(|_| char::from(*rng.pick(NS)))
                    .collect(),
                payload: rng.bytes(0..max_payload),
            }
        }

        /// Encode a WAL record, flip any one bit, decode. The decoder
        /// never panics; it either round-trips (impossible here: every
        /// flip changes some bit) or reports an error anchored at the
        /// frame start.
        #[test]
        fn prop_corrupt_one_byte_never_panics() {
            for seed in 0..CASES {
                let mut rng = SimRng::new(seed);
                let rec = record(&mut rng, 128);
                let mut buf = framed_record(&rec);
                let i = rng.below(buf.len());
                buf[i] ^= 1 << rng.below(8);
                let decoded = std::panic::catch_unwind(|| decode_record(&buf, 0))
                    .unwrap_or_else(|_| panic!("seed {seed}: the decoder panicked"));
                match decoded {
                    // Only reachable if the flip cancelled out; it
                    // cannot, but stay honest about the contract.
                    Ok(Some((back, next))) => {
                        assert_eq!(back, rec, "seed {seed}");
                        assert_eq!(next, buf.len(), "seed {seed}");
                    }
                    Ok(None) => panic!("seed {seed}: non-empty input decoded as end"),
                    Err(err) => {
                        assert_eq!(
                            err.offset(),
                            0,
                            "seed {seed}: error must carry the frame offset"
                        );
                        assert!(
                            !matches!(err, FrameError::Malformed { .. }),
                            "seed {seed}: checksum must catch the flip before the wire decoder: {err}"
                        );
                    }
                }
            }
        }

        /// Un-corrupted frames always round-trip.
        #[test]
        fn prop_clean_records_roundtrip() {
            for seed in 0..CASES {
                let rec = record(&mut SimRng::new(seed), 128);
                let buf = framed_record(&rec);
                assert_eq!(
                    decode_record(&buf, 0),
                    Ok(Some((rec, buf.len()))),
                    "seed {seed}"
                );
            }
        }

        /// Arbitrary garbage never panics the frame decoder.
        #[test]
        fn prop_decoding_random_bytes_never_panics() {
            for seed in 0..CASES {
                let b = SimRng::new(seed).bytes(0..256);
                let decode = std::panic::catch_unwind(|| decode_record(&b, 0));
                assert!(decode.is_ok(), "seed {seed}: the decoder panicked");
            }
        }

        /// Truncating a valid frame anywhere yields Torn at offset 0
        /// (or a length complaint if the prefix itself is cut).
        #[test]
        fn prop_truncation_reports_torn() {
            for seed in 0..CASES {
                let mut rng = SimRng::new(seed);
                let rec = record(&mut rng, 64);
                let mut buf = framed_record(&rec);
                let keep = rng.below(buf.len()); // strictly less than full
                buf.truncate(keep);
                if keep == 0 {
                    assert_eq!(decode_record(&buf, 0), Ok(None), "seed {seed}");
                } else {
                    let Err(err) = decode_record(&buf, 0) else {
                        panic!("seed {seed}: a frame cut to {keep} bytes decoded");
                    };
                    assert!(
                        err.is_torn() || matches!(err, FrameError::BadLength { .. }),
                        "seed {seed}: {err}"
                    );
                    assert_eq!(err.offset(), 0, "seed {seed}");
                }
            }
        }
    }
}
