//! The log-structured storage engine: segmented WAL, group commit,
//! snapshots with compaction, and crash recovery.
//!
//! # Write path
//!
//! [`DurableEngine::append`] assigns the next global sequence number
//! and buffers the record in memory — nothing touches the disk yet.
//! [`DurableEngine::commit`] frames the whole buffered batch into the
//! active segment and issues **one** [`crate::SimDisk::sync`]: the
//! group-commit discipline that amortises the (simulated) fsync cost
//! across every record of an epoch. A crash between append and commit
//! loses exactly the uncommitted batch, never a committed one.
//!
//! # Snapshots and compaction
//!
//! [`DurableEngine::checkpoint`] serialises every registered
//! [`crate::Durable`] state into one framed snapshot file, then deletes
//! all log segments (fully covered by the snapshot, since checkpoint
//! flushes the buffer first) and older snapshots. Recovery cost is
//! thereby bounded by the write volume since the last checkpoint, not
//! by history length. A snapshot too large for one frame could not be
//! read back, so it is not written and nothing is deleted.
//!
//! # Recovery
//!
//! [`DurableEngine::recover`] restores the newest *valid* snapshot
//! (corrupt ones are skipped, falling back to older generations), then
//! replays committed WAL records with `seq >=` the snapshot horizon in
//! segment order. Replay stops at the first anomaly: a torn frame at
//! the tail of the final segment is truncated away (the expected
//! after-crash shape); a checksum or decode failure anywhere marks the
//! log corrupt at that offset; a gap in segment numbering marks the
//! missing segment. All anomalies are reported in the returned
//! [`RecoverReport`] with file names and byte offsets — recovery never
//! panics on bad media.
//!
//! Journal events are emitted only for snapshot, compact, and recover
//! (main-thread barrier operations), keeping the event journal
//! byte-identical between the serial and parallel drivers.

use crate::crc::Crc32;
use crate::disk::SimDisk;
use crate::record::{decode_framed, decode_record, encode_framed_into, WalRecord, MAX_FRAME_BODY};
use crate::Durable;
use pmp_telemetry::{DirtyMark, Sink, Stopwatch, Subsystem};
use pmp_wire::{wire_struct, Writer};
use std::collections::BTreeMap;

/// Tuning knobs for the engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Segment roll threshold in bytes: a commit that would push the
    /// active segment past this opens a new one first.
    pub segment_bytes: usize,
    /// Auto-checkpoint hint: [`DurableEngine::should_checkpoint`] turns
    /// true after this many records commit since the last snapshot.
    /// `0` disables the hint (checkpoints become purely manual).
    pub snapshot_every: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            segment_bytes: 8 * 1024,
            snapshot_every: 256,
        }
    }
}

/// A snapshot file body: the sequence horizon it covers and one opaque
/// blob per namespace.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SnapshotFile {
    next_seq: u64,
    namespaces: BTreeMap<String, Vec<u8>>,
}

wire_struct!(SnapshotFile {
    next_seq: u64,
    namespaces: BTreeMap<String, Vec<u8>>,
});

impl SnapshotFile {
    /// Frames the file into one buffer of exactly the frame's length
    /// (so the disk image holds no spare capacity): the bytes
    /// [`encode_framed_into`] writes for it. `crcs` holds each blob's
    /// CRC-32 by namespace, so the checksum hashes only the framing
    /// around the blobs and folds each blob in by its CRC. Returns the
    /// bytes and the body length.
    fn framed(&self, crcs: &BTreeMap<&str, u32>) -> (Vec<u8>, usize) {
        let entries: usize = self
            .namespaces
            .iter()
            .map(|(ns, blob)| varint_len(ns.len()) + ns.len() + varint_len(blob.len()) + blob.len())
            .sum();
        let body_len = 8 + varint_len(self.namespaces.len()) + entries;
        let mut w = Writer::with_capacity(4 + body_len + 4);
        w.put_u32(body_len as u32);
        w.put_u64(self.next_seq);
        w.put_varu64(self.namespaces.len() as u64);
        let mut crc = Crc32::new();
        let mut hashed = 0;
        for (ns, blob) in &self.namespaces {
            w.put_str(ns);
            w.put_varu64(blob.len() as u64);
            crc.update(w.bytes_from(hashed));
            w.put_raw(blob);
            crc.append_crc(crcs[ns.as_str()], blob.len());
            hashed = w.len();
        }
        crc.update(w.bytes_from(hashed));
        w.put_u32(crc.finish());
        debug_assert_eq!(w.len(), 4 + body_len + 4);
        (w.into_bytes(), body_len)
    }
}

/// Bytes in the LEB128 varint encoding of `n`.
fn varint_len(n: usize) -> usize {
    (usize::BITS - (n | 1).leading_zeros()).div_ceil(7) as usize
}

/// Something recovery found wrong with the committed image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Anomaly {
    /// The file involved.
    pub file: String,
    /// Byte offset of the problem within the file.
    pub offset: usize,
    /// Human-readable description.
    pub detail: String,
}

/// What [`DurableEngine::recover`] did and found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoverReport {
    /// Sequence horizon restored from a snapshot, if one was usable.
    pub snapshot_seq: Option<u64>,
    /// Snapshot generations skipped as unreadable before one loaded.
    pub skipped_snapshots: u64,
    /// Records replayed from the WAL.
    pub replayed: u64,
    /// The engine's sequence counter after recovery.
    pub next_seq: u64,
    /// A torn tail that was truncated away, if any.
    pub torn: Option<Anomaly>,
    /// A corrupt record that stopped replay, if any.
    pub corrupt: Option<Anomaly>,
    /// Segment numbers missing from an otherwise contiguous run.
    pub missing_segments: Vec<u64>,
    /// Replayed records whose namespace no registered state claimed.
    pub unknown_namespace: u64,
    /// Records a state refused to apply: `(seq, error)`.
    pub apply_errors: Vec<(u64, String)>,
}

impl RecoverReport {
    /// Whether recovery saw a pristine image: no torn tail, no corrupt
    /// record, no missing segment, no apply failure.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.torn.is_none()
            && self.corrupt.is_none()
            && self.missing_segments.is_empty()
            && self.apply_errors.is_empty()
            && self.skipped_snapshots == 0
    }
}

fn segment_file(n: u64) -> String {
    format!("wal/{n:08}.seg")
}

fn snapshot_file(next_seq: u64) -> String {
    format!("snap/{next_seq:016}.snap")
}

fn segment_number(file: &str) -> Option<u64> {
    file.strip_prefix("wal/")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

/// Observer handed every batch the engine commits, by value, after
/// the sync that makes the batch durable. Recovery replay never
/// re-enters the tap (it does not commit), so an observer sees each
/// committed record exactly once per engine lifetime.
pub type CommitTap = Box<dyn FnMut(Vec<WalRecord>) + Send>;

/// The storage engine. Single-owner; share one through
/// [`crate::DurableHub`].
pub struct DurableEngine {
    disk: SimDisk,
    cfg: EngineConfig,
    next_seq: u64,
    segment: u64,
    segment_len: usize,
    buffered: Vec<WalRecord>,
    buffered_weightless: u64,
    since_snapshot: u64,
    sink: Sink,
    tap: Option<CommitTap>,
    /// Set with every append, so the owner's barrier commits this
    /// engine only when it holds a batch.
    append_mark: Option<DirtyMark>,
}

impl std::fmt::Debug for DurableEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableEngine")
            .field("disk", &self.disk)
            .field("cfg", &self.cfg)
            .field("next_seq", &self.next_seq)
            .field("segment", &self.segment)
            .field("segment_len", &self.segment_len)
            .field("buffered", &self.buffered)
            .field("buffered_weightless", &self.buffered_weightless)
            .field("since_snapshot", &self.since_snapshot)
            .field("tap", &self.tap.is_some())
            .field("append_mark", &self.append_mark.is_some())
            .finish_non_exhaustive()
    }
}

impl Default for DurableEngine {
    fn default() -> Self {
        DurableEngine::new(EngineConfig::default())
    }
}

impl DurableEngine {
    /// A fresh engine over an empty disk.
    #[must_use]
    pub fn new(cfg: EngineConfig) -> DurableEngine {
        DurableEngine {
            disk: SimDisk::new(),
            cfg,
            next_seq: 1,
            segment: 1,
            segment_len: 0,
            buffered: Vec::new(),
            buffered_weightless: 0,
            since_snapshot: 0,
            sink: Sink::default(),
            tap: None,
            append_mark: None,
        }
    }

    /// Routes telemetry through `sink` (counters/histograms for the hot
    /// path, journal events for snapshot/compact/recover) instead of
    /// the engine's private one.
    pub fn attach_sink(&mut self, sink: Sink) {
        self.sink = sink;
    }

    /// Installs (or replaces) the commit observer. See [`CommitTap`].
    pub fn set_commit_tap(&mut self, tap: CommitTap) {
        self.tap = Some(tap);
    }

    /// Sets `mark` with every append from now on: the owner's barrier
    /// then visits this engine only when it has something to commit.
    pub fn set_append_mark(&mut self, mark: DirtyMark) {
        self.append_mark = Some(mark);
    }

    /// The underlying simulated disk (fault injection, inspection).
    pub fn disk_mut(&mut self) -> &mut SimDisk {
        &mut self.disk
    }

    /// Read-only view of the simulated disk.
    #[must_use]
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    /// The next sequence number an append would receive.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Records buffered but not yet committed.
    #[must_use]
    pub fn pending_records(&self) -> usize {
        self.buffered.len()
    }

    /// Committed WAL segment file names, in order.
    #[must_use]
    pub fn segments(&self) -> Vec<String> {
        self.disk.files_with_prefix("wal/")
    }

    /// Buffers a record for the next commit and returns its sequence
    /// number. Cheap: one encode-free push plus counter bumps.
    pub fn append(&mut self, ns: &str, payload: Vec<u8>) -> u64 {
        let watch = Stopwatch::start();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.buffered.push(WalRecord {
            seq,
            ns: ns.to_string(),
            payload,
        });
        if let Some(mark) = &self.append_mark {
            mark.set();
        }
        self.sink.inc("durable.wal.appends");
        self.sink.record_elapsed("durable.wal.append_ns", watch);
        seq
    }

    /// Like [`DurableEngine::append`], but the record does not advance
    /// the snapshot cadence. For high-rate bounded diagnostics (the
    /// trace flight ring): the record still commits, replays, and is
    /// compacted away by checkpoints, but its chatter never forces an
    /// extra full-state snapshot of its own.
    pub fn append_weightless(&mut self, ns: &str, payload: Vec<u8>) -> u64 {
        self.buffered_weightless += 1;
        self.append(ns, payload)
    }

    /// Group commit: frames every buffered record into the log and
    /// issues a single sync. Returns the batch size (0 = no-op).
    ///
    /// The whole batch is framed into one buffer via the reserve/patch
    /// writer path — no per-record allocation — and flushed with one
    /// disk append per touched segment.
    pub fn commit(&mut self) -> usize {
        if self.buffered.is_empty() {
            return 0;
        }
        let batch = std::mem::take(&mut self.buffered);
        let n = batch.len();
        let mut w = pmp_wire::Writer::with_capacity(batch.iter().map(|r| r.payload.len() + r.ns.len() + 24).sum());
        let mut seg_start = 0;
        for rec in &batch {
            let frame_start = w.mark();
            let body_len = encode_framed_into(rec, &mut w);
            debug_assert!(body_len <= MAX_FRAME_BODY);
            let frame_len = w.mark() - frame_start;
            if self.segment_len > 0 && self.segment_len + frame_len > self.cfg.segment_bytes {
                // Flush the frames accumulated for the closing segment,
                // then roll; the frame just written opens the new one.
                if frame_start > seg_start {
                    self.disk.append(
                        &segment_file(self.segment),
                        &w.as_bytes()[seg_start..frame_start],
                    );
                }
                self.segment += 1;
                self.segment_len = 0;
                seg_start = frame_start;
            }
            self.segment_len += frame_len;
        }
        self.disk
            .append(&segment_file(self.segment), w.bytes_from(seg_start));
        self.disk.sync();
        self.since_snapshot += n as u64 - std::mem::take(&mut self.buffered_weightless);
        self.sink.inc("durable.wal.commits");
        self.sink.record("durable.commit.batch", n as u64);
        if let Some(tap) = &mut self.tap {
            tap(batch);
        }
        n
    }

    /// The committed WAL records with `seq >= since_seq`, in order —
    /// the short-gap bootstrap path for a late stream subscriber.
    ///
    /// Returns `None` when the log cannot prove contiguous coverage of
    /// `[since_seq, committed horizon)`: compaction dropped the range,
    /// a segment is missing, or a frame fails to read back. Callers
    /// must then fall back to a full snapshot. `Some(vec![])` means the
    /// caller is already at the horizon.
    #[must_use]
    pub fn wal_tail(&self, since_seq: u64) -> Option<Vec<WalRecord>> {
        let committed_next = self.next_seq - self.buffered.len() as u64;
        if since_seq >= committed_next {
            return Some(Vec::new());
        }
        let mut out = Vec::new();
        let mut expect = since_seq;
        for seg in self.segments() {
            let bytes = self.disk.read(&seg).unwrap_or(&[]);
            let mut offset = 0;
            loop {
                match decode_record(bytes, offset) {
                    Ok(None) => break,
                    Ok(Some((rec, next))) => {
                        offset = next;
                        if rec.seq < since_seq {
                            continue;
                        }
                        if rec.seq != expect {
                            return None; // gap: compacted or lost
                        }
                        expect = rec.seq + 1;
                        out.push(rec);
                    }
                    Err(_) => return None, // torn/corrupt: not servable
                }
            }
        }
        (expect == committed_next).then_some(out)
    }

    /// Whether enough records have committed since the last snapshot
    /// to warrant a checkpoint (see [`EngineConfig::snapshot_every`]).
    #[must_use]
    pub fn should_checkpoint(&self) -> bool {
        self.cfg.snapshot_every > 0 && self.since_snapshot >= self.cfg.snapshot_every
    }

    /// Writes a snapshot of every given state and compacts the log:
    /// all segments (now fully covered) and older snapshots are
    /// deleted. Flushes any buffered records first. A snapshot at the
    /// horizon of an existing one replaces that file.
    ///
    /// Each state is encoded once, and the snapshot file is framed into
    /// one buffer that moves onto the disk whole; each state supplies
    /// its blob's CRC ([`Durable::snapshot_crc`]), so the frame's
    /// checksum does not read the blobs again. A snapshot whose body
    /// exceeds [`MAX_FRAME_BODY`] could not be recovered, so it is not
    /// written: the log and the older snapshot stay, the
    /// `durable.snapshot.oversize` counter rises, and the checkpoint
    /// cadence restarts.
    pub fn checkpoint(&mut self, states: &[&dyn Durable]) {
        self.commit();
        let mut crcs = BTreeMap::new();
        let snap = SnapshotFile {
            next_seq: self.next_seq,
            namespaces: states
                .iter()
                .map(|state| {
                    let bytes = state.snapshot_bytes();
                    crcs.insert(state.namespace(), state.snapshot_crc(&bytes));
                    (state.namespace().to_string(), bytes)
                })
                .collect(),
        };
        let (framed, body_len) = snap.framed(&crcs);
        if body_len > MAX_FRAME_BODY {
            self.since_snapshot = 0;
            self.sink.inc("durable.snapshot.oversize");
            return;
        }
        let snap_name = snapshot_file(self.next_seq);
        let snap_bytes = framed.len();
        // Nothing committed since a snapshot at this horizon: the new
        // frame replaces it, where an append would leave it behind a
        // frame recovery never reads.
        self.disk.remove(&snap_name);
        self.disk.append(&snap_name, framed);

        let old_segments = self.segments();
        let dropped_bytes: usize = old_segments.iter().map(|s| self.disk.len(s)).sum();
        for seg in &old_segments {
            self.disk.remove(seg);
        }
        for old_snap in self.disk.files_with_prefix("snap/") {
            if old_snap != snap_name {
                self.disk.remove(&old_snap);
            }
        }
        self.disk.sync();
        self.segment += 1;
        self.segment_len = 0;
        self.since_snapshot = 0;

        self.sink.inc("durable.snapshot.count");
        self.sink.event(
            Subsystem::Durable,
            "snapshot",
            format!("seq={} states={} bytes={snap_bytes}", self.next_seq, states.len()),
        );
        self.sink.event(
            Subsystem::Durable,
            "compact",
            format!("segments={} bytes={dropped_bytes}", old_segments.len()),
        );
    }

    /// Simulates the process dying: the uncommitted batch and all
    /// unsynced disk bytes vanish. The committed image survives.
    pub fn crash(&mut self) {
        self.buffered.clear();
        self.buffered_weightless = 0;
        self.disk.crash();
    }

    /// Rebuilds state from the committed image: newest valid snapshot,
    /// then WAL replay (see module docs). Never panics on corruption.
    pub fn recover(&mut self, states: &mut [&mut dyn Durable]) -> RecoverReport {
        let watch = Stopwatch::start();
        let mut report = RecoverReport::default();
        self.buffered.clear();
        self.buffered_weightless = 0;
        self.disk.crash();

        // Newest snapshot that reads back clean wins; corrupt ones are
        // skipped (an older generation is better than no baseline).
        let mut snapshot = None;
        for snap_name in self.disk.files_with_prefix("snap/").into_iter().rev() {
            let bytes = self.disk.read(&snap_name).unwrap_or(&[]);
            let parsed = decode_framed(bytes, 0)
                .ok()
                .flatten()
                .and_then(|(body, _)| pmp_wire::from_bytes::<SnapshotFile>(body).ok());
            match parsed {
                Some(snap) => {
                    snapshot = Some(snap);
                    break;
                }
                None => report.skipped_snapshots += 1,
            }
        }

        let mut next_seq = 1;
        if let Some(snap) = &snapshot {
            next_seq = snap.next_seq;
            report.snapshot_seq = Some(snap.next_seq);
            for state in states.iter_mut() {
                if let Some(bytes) = snap.namespaces.get(state.namespace()) {
                    if let Err(e) = state.restore_snapshot(bytes) {
                        report
                            .apply_errors
                            .push((snap.next_seq, format!("snapshot restore: {e}")));
                    }
                }
            }
        }

        // Replay committed segments in order; a numbering gap means a
        // lost segment — records beyond it cannot be trusted in order.
        let seg_names = self.segments();
        let mut seg_numbers: Vec<u64> =
            seg_names.iter().filter_map(|s| segment_number(s)).collect();
        seg_numbers.sort_unstable();
        let mut replay: Vec<u64> = Vec::new();
        for &n in &seg_numbers {
            if let Some(&prev) = replay.last() {
                if n != prev + 1 {
                    report.missing_segments.extend(prev + 1..n);
                    break;
                }
            }
            replay.push(n);
        }

        'segments: for (i, &seg_n) in replay.iter().enumerate() {
            let file = segment_file(seg_n);
            let is_last = i + 1 == replay.len();
            let bytes = self.disk.read(&file).unwrap_or(&[]).to_vec();
            let mut offset = 0;
            loop {
                match decode_record(&bytes, offset) {
                    Ok(None) => break,
                    Ok(Some((rec, next))) => {
                        offset = next;
                        if rec.seq < next_seq {
                            continue; // covered by the snapshot
                        }
                        next_seq = rec.seq + 1;
                        report.replayed += 1;
                        let mut claimed = false;
                        for state in states.iter_mut() {
                            if state.namespace() == rec.ns {
                                claimed = true;
                                if let Err(e) = state.apply_record(&rec.payload) {
                                    report.apply_errors.push((rec.seq, e.to_string()));
                                }
                                break;
                            }
                        }
                        if !claimed {
                            report.unknown_namespace += 1;
                        }
                    }
                    Err(err) if err.is_torn() && is_last => {
                        // The expected after-crash shape: a partially
                        // written final record. Truncate it away.
                        self.disk.truncate(&file, offset);
                        self.disk.sync();
                        report.torn = Some(Anomaly {
                            file: file.clone(),
                            offset,
                            detail: err.to_string(),
                        });
                        break 'segments;
                    }
                    Err(err) => {
                        report.corrupt = Some(Anomaly {
                            file: file.clone(),
                            offset: err.offset(),
                            detail: err.to_string(),
                        });
                        break 'segments;
                    }
                }
            }
        }

        self.next_seq = next_seq;
        self.segment = seg_numbers.iter().copied().max().unwrap_or(0) + 1;
        self.segment_len = 0;
        self.since_snapshot = report.replayed;
        report.next_seq = next_seq;

        // A corrupt record or a lost segment stays on disk, and replay
        // always stops at the first anomaly — so without compaction the
        // *next* recovery would stall at the same spot and silently
        // discard everything committed after this one. Snapshot the
        // recovered image immediately: the checkpoint supersedes the
        // poisoned log and recovery stays idempotent.
        if report.corrupt.is_some() || !report.missing_segments.is_empty() {
            let recovered: Vec<&dyn Durable> =
                states.iter().map(|s| &**s as &dyn Durable).collect();
            self.checkpoint(&recovered);
        }

        self.sink.inc("durable.recover.count");
        self.sink.record_elapsed("durable.recover_ns", watch);
        if report.corrupt.is_some() {
            self.sink.inc("durable.recover.corrupt_records");
        }
        self.sink.event(
            Subsystem::Durable,
            "recover",
            format!(
                "replayed={} next_seq={} torn={} corrupt={} missing={}",
                report.replayed,
                report.next_seq,
                report.torn.is_some(),
                report.corrupt.is_some(),
                report.missing_segments.len()
            ),
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DurableError, Store};

    /// A toy durable state: an append-only list of u64 values.
    #[derive(Debug, Default, PartialEq, Eq)]
    struct Ledger {
        values: Vec<u64>,
    }

    impl Store for Ledger {
        const NAMESPACE: &'static str = "test.ledger";
        type Op = u64;
        fn encode_state(&self) -> Vec<u8> {
            pmp_wire::to_bytes(&self.values)
        }
        fn restore_state(&mut self, bytes: &[u8]) -> Result<(), DurableError> {
            self.values = pmp_wire::from_bytes(bytes)?;
            Ok(())
        }
        fn apply(&mut self, v: u64) -> Result<(), DurableError> {
            self.values.push(v);
            Ok(())
        }
    }

    fn append_value(engine: &mut DurableEngine, ledger: &mut Ledger, v: u64) {
        ledger.commit(engine, v).unwrap();
    }

    /// A counter whose snapshot carries `ballast` bytes, to push a
    /// snapshot past [`MAX_FRAME_BODY`].
    #[derive(Debug, Default)]
    struct Heavy {
        total: u64,
        ballast: usize,
    }

    impl Store for Heavy {
        const NAMESPACE: &'static str = "test.heavy";
        type Op = u64;
        fn encode_state(&self) -> Vec<u8> {
            pmp_wire::to_bytes(&(self.total, vec![0u8; self.ballast]))
        }
        fn restore_state(&mut self, bytes: &[u8]) -> Result<(), DurableError> {
            let (total, ballast): (u64, Vec<u8>) = pmp_wire::from_bytes(bytes)?;
            self.total = total;
            self.ballast = ballast.len();
            Ok(())
        }
        fn apply(&mut self, v: u64) -> Result<(), DurableError> {
            self.total += v;
            Ok(())
        }
    }

    #[test]
    fn commit_then_crash_then_recover_restores_everything() {
        let mut engine = DurableEngine::default();
        let mut ledger = Ledger::default();
        for v in [10, 20, 30] {
            append_value(&mut engine, &mut ledger, v);
        }
        assert_eq!(engine.commit(), 3);
        engine.crash();

        let mut restored = Ledger::default();
        let report = engine.recover(&mut [&mut restored]);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.replayed, 3);
        assert_eq!(restored, ledger);
        assert_eq!(engine.next_seq(), 4);
    }

    #[test]
    fn uncommitted_batch_is_lost_committed_batches_survive() {
        let mut engine = DurableEngine::default();
        let mut ledger = Ledger::default();
        append_value(&mut engine, &mut ledger, 1);
        engine.commit();
        append_value(&mut engine, &mut ledger, 2); // never committed
        engine.crash();

        let mut restored = Ledger::default();
        engine.recover(&mut [&mut restored]);
        assert_eq!(restored.values, vec![1]);
    }

    #[test]
    fn snapshot_compacts_the_log_and_recovery_uses_it() {
        let mut engine = DurableEngine::default();
        let mut ledger = Ledger::default();
        for v in 1..=5 {
            append_value(&mut engine, &mut ledger, v);
        }
        engine.commit();
        engine.checkpoint(&[&ledger]);
        assert!(engine.segments().is_empty(), "log compacted away");

        for v in 6..=8 {
            append_value(&mut engine, &mut ledger, v);
        }
        engine.commit();
        engine.crash();

        let mut restored = Ledger::default();
        let report = engine.recover(&mut [&mut restored]);
        assert_eq!(report.snapshot_seq, Some(6));
        assert_eq!(report.replayed, 3, "only post-snapshot records replay");
        assert_eq!(restored.values, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn segments_roll_at_the_configured_size() {
        let mut engine = DurableEngine::new(EngineConfig {
            segment_bytes: 64,
            snapshot_every: 0,
        });
        let mut ledger = Ledger::default();
        for v in 0..20 {
            append_value(&mut engine, &mut ledger, v);
            engine.commit();
        }
        assert!(engine.segments().len() > 1, "log should have rolled");
        let mut restored = Ledger::default();
        let report = engine.recover(&mut [&mut restored]);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(restored, ledger);
    }

    #[test]
    fn torn_tail_is_truncated_to_the_last_good_record() {
        let mut engine = DurableEngine::default();
        let mut ledger = Ledger::default();
        for v in [7, 8, 9] {
            append_value(&mut engine, &mut ledger, v);
        }
        engine.commit();
        let seg = engine.segments().pop().unwrap();
        assert!(engine.disk_mut().inject_torn_tail(&seg, 5));

        let mut restored = Ledger::default();
        let report = engine.recover(&mut [&mut restored]);
        let torn = report.torn.expect("torn tail reported");
        assert_eq!(torn.file, seg);
        assert_eq!(restored.values, vec![7, 8], "last record truncated away");
        assert_eq!(report.next_seq, 3);

        // Post-recovery writes land in a fresh segment and survive.
        append_value(&mut engine, &mut restored, 10);
        engine.commit();
        engine.crash();
        let mut again = Ledger::default();
        let report = engine.recover(&mut [&mut again]);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(again.values, vec![7, 8, 10]);
    }

    #[test]
    fn bit_flip_stops_replay_at_the_corrupt_offset() {
        let mut engine = DurableEngine::default();
        let mut ledger = Ledger::default();
        for v in [1, 2, 3] {
            append_value(&mut engine, &mut ledger, v);
        }
        engine.commit();
        let seg = engine.segments().pop().unwrap();
        // Corrupt the second record's body (frames are equal-sized here).
        let frame = engine.disk().len(&seg) / 3;
        assert!(engine.disk_mut().inject_bit_flip(&seg, frame + 6));

        let mut restored = Ledger::default();
        let report = engine.recover(&mut [&mut restored]);
        let corrupt = report.corrupt.expect("corruption reported");
        assert_eq!(corrupt.offset, frame, "offset names the frame start");
        assert_eq!(restored.values, vec![1], "replay stopped before the flip");
    }

    /// Found by the chaos harness (seed 20): a corrupt record used to
    /// stay on disk after recovery, so the *next* recovery stalled at
    /// the same offset and silently dropped everything committed since.
    /// Recovery must compact the poisoned log away.
    #[test]
    fn recovery_after_corruption_is_idempotent() {
        let mut engine = DurableEngine::default();
        let mut ledger = Ledger::default();
        for v in [1, 2, 3] {
            append_value(&mut engine, &mut ledger, v);
        }
        engine.commit();
        let seg = engine.segments().pop().unwrap();
        let frame = engine.disk().len(&seg) / 3;
        assert!(engine.disk_mut().inject_bit_flip(&seg, frame + 6));

        // First recovery: stops at the flip, keeps the prefix, and
        // checkpoints it so the corrupt segment is gone.
        let mut restored = Ledger::default();
        let report = engine.recover(&mut [&mut restored]);
        assert!(report.corrupt.is_some());
        assert_eq!(restored.values, vec![1]);
        assert!(
            engine.segments().is_empty(),
            "poisoned log compacted at recovery"
        );

        // Life goes on: new records commit after the recovery.
        append_value(&mut engine, &mut restored, 9);
        engine.commit();
        engine.crash();

        // Second recovery must see a clean image including the new
        // record — not re-trip over the old corruption.
        let mut again = Ledger::default();
        let report = engine.recover(&mut [&mut again]);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(again.values, vec![1, 9]);
    }

    #[test]
    fn missing_middle_segment_is_reported_and_bounds_replay() {
        let mut engine = DurableEngine::new(EngineConfig {
            segment_bytes: 32,
            snapshot_every: 0,
        });
        let mut ledger = Ledger::default();
        for v in 0..12 {
            append_value(&mut engine, &mut ledger, v);
            engine.commit();
        }
        let segs = engine.segments();
        assert!(segs.len() >= 3, "need at least three segments");
        assert!(engine.disk_mut().inject_remove(&segs[1]));

        let mut restored = Ledger::default();
        let report = engine.recover(&mut [&mut restored]);
        assert!(!report.missing_segments.is_empty());
        assert!(
            restored.values.len() < ledger.values.len(),
            "replay must stop at the gap"
        );
        // Whatever replayed is a strict prefix — never reordered data.
        assert_eq!(restored.values[..], ledger.values[..restored.values.len()]);
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_an_older_generation() {
        let mut engine = DurableEngine::default();
        let mut ledger = Ledger::default();
        append_value(&mut engine, &mut ledger, 1);
        engine.commit();
        engine.checkpoint(&[&ledger]);
        append_value(&mut engine, &mut ledger, 2);
        engine.commit();
        // Forge a newer, corrupt snapshot alongside the good one.
        engine.disk_mut().append("snap/9999999999999999.snap", b"junk");
        engine.disk_mut().sync();

        let mut restored = Ledger::default();
        let report = engine.recover(&mut [&mut restored]);
        assert_eq!(report.skipped_snapshots, 1);
        assert_eq!(report.snapshot_seq, Some(2));
        assert_eq!(restored.values, vec![1, 2]);
    }

    #[test]
    fn recovery_of_an_empty_disk_is_clean() {
        let mut engine = DurableEngine::default();
        let mut restored = Ledger::default();
        let report = engine.recover(&mut [&mut restored]);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.next_seq, 1);
        assert!(restored.values.is_empty());
    }

    #[test]
    fn should_checkpoint_follows_the_config() {
        let mut engine = DurableEngine::new(EngineConfig {
            segment_bytes: 8192,
            snapshot_every: 2,
        });
        let mut ledger = Ledger::default();
        append_value(&mut engine, &mut ledger, 1);
        engine.commit();
        assert!(!engine.should_checkpoint());
        append_value(&mut engine, &mut ledger, 2);
        engine.commit();
        assert!(engine.should_checkpoint());
        engine.checkpoint(&[&ledger]);
        assert!(!engine.should_checkpoint());
    }

    #[test]
    fn weightless_appends_commit_and_replay_without_advancing_cadence() {
        let mut engine = DurableEngine::new(EngineConfig {
            segment_bytes: 8192,
            snapshot_every: 2,
        });
        let mut ledger = Ledger::default();
        // Two weightless records commit fine but leave the hint cold.
        for v in [1u64, 2] {
            ledger.values.push(v);
            engine.append_weightless("test.ledger", pmp_wire::to_bytes(&v));
        }
        assert_eq!(engine.commit(), 2);
        assert!(!engine.should_checkpoint(), "weightless records trip no checkpoint");
        // A weighted pair still trips it as before.
        append_value(&mut engine, &mut ledger, 3);
        append_value(&mut engine, &mut ledger, 4);
        engine.commit();
        assert!(engine.should_checkpoint());
        // Durability is unaffected: everything replays.
        engine.crash();
        let mut restored = Ledger::default();
        let report = engine.recover(&mut [&mut restored]);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(restored, ledger);
    }

    #[test]
    fn commit_tap_sees_each_committed_batch_exactly_once() {
        use std::sync::{Arc, Mutex};
        let mut engine = DurableEngine::default();
        let seen: Arc<Mutex<Vec<u64>>> = Arc::default();
        let sink = Arc::clone(&seen);
        engine.set_commit_tap(Box::new(move |batch| {
            sink.lock().unwrap().extend(batch.iter().map(|r| r.seq));
        }));
        let mut ledger = Ledger::default();
        append_value(&mut engine, &mut ledger, 1);
        append_value(&mut engine, &mut ledger, 2);
        engine.commit();
        engine.commit(); // empty: no tap call
        append_value(&mut engine, &mut ledger, 3);
        engine.checkpoint(&[&ledger]); // flushes through commit
        assert_eq!(*seen.lock().unwrap(), vec![1, 2, 3]);

        // Recovery replays without re-entering the tap.
        engine.crash();
        let mut restored = Ledger::default();
        engine.recover(&mut [&mut restored]);
        assert_eq!(*seen.lock().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn wal_tail_serves_short_gaps_and_refuses_compacted_ones() {
        let mut engine = DurableEngine::new(EngineConfig {
            segment_bytes: 64, // force several segments
            snapshot_every: 0,
        });
        let mut ledger = Ledger::default();
        for v in 1..=6 {
            append_value(&mut engine, &mut ledger, v);
        }
        engine.commit();

        // Everything from seq 1, a suffix from seq 4, nothing from the
        // horizon — all servable from the log, even across segments.
        let all = engine.wal_tail(1).expect("full tail");
        assert_eq!(all.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 2, 3, 4, 5, 6]);
        let tail = engine.wal_tail(4).expect("suffix tail");
        assert_eq!(tail.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![4, 5, 6]);
        assert_eq!(engine.wal_tail(7), Some(Vec::new()));

        // Uncommitted appends never stream out of the tail.
        append_value(&mut engine, &mut ledger, 7);
        assert_eq!(engine.wal_tail(7), Some(Vec::new()));
        engine.commit();
        assert_eq!(engine.wal_tail(7).expect("now committed").len(), 1);

        // The crossover: checkpoint compacts the log, so a gap that
        // reaches behind the snapshot horizon is no longer servable —
        // the caller must fall back to snapshot bytes — while the
        // horizon itself still answers empty.
        engine.checkpoint(&[&ledger]);
        assert_eq!(engine.wal_tail(4), None, "compacted range refused");
        assert_eq!(engine.wal_tail(engine.next_seq()), Some(Vec::new()));
        for v in [8, 9] {
            append_value(&mut engine, &mut ledger, v);
        }
        engine.commit();
        let fresh = engine.wal_tail(8).expect("post-checkpoint tail");
        assert_eq!(fresh.len(), 2);
        assert_eq!(engine.wal_tail(4), None, "pre-snapshot range stays dead");
    }

    #[test]
    fn wal_tail_refuses_a_log_with_a_missing_segment() {
        let mut engine = DurableEngine::new(EngineConfig {
            segment_bytes: 32,
            snapshot_every: 0,
        });
        let mut ledger = Ledger::default();
        for v in 0..12 {
            append_value(&mut engine, &mut ledger, v);
            engine.commit();
        }
        let segs = engine.segments();
        assert!(segs.len() >= 3);
        assert!(engine.disk_mut().inject_remove(&segs[1]));
        assert_eq!(engine.wal_tail(1), None);
    }

    /// A checkpoint used to write a snapshot `recover` rejects as
    /// `BadLength` and then delete the log it replaced, so every record
    /// before it was lost.
    #[test]
    fn an_oversize_snapshot_keeps_the_log_and_the_older_snapshot() {
        use pmp_telemetry::{Shared, Sink};
        let shared = Shared::new();
        let mut engine = DurableEngine::new(EngineConfig {
            segment_bytes: 8192,
            snapshot_every: 2,
        });
        engine.attach_sink(Sink::direct(&shared));
        let mut live = Heavy::default();
        live.commit(&mut engine, 1).unwrap();
        engine.checkpoint(&[&live]); // small: written
        for v in [2, 3] {
            live.commit(&mut engine, v).unwrap();
        }
        engine.commit();
        assert!(engine.should_checkpoint());
        let snapshots = engine.disk().files_with_prefix("snap/");
        let segments = engine.segments();

        live.ballast = MAX_FRAME_BODY;
        engine.checkpoint(&[&live]);
        assert_eq!(shared.counter_value("durable.snapshot.oversize"), 1);
        assert_eq!(shared.counter_value("durable.snapshot.count"), 1);
        assert_eq!(engine.disk().files_with_prefix("snap/"), snapshots);
        assert_eq!(engine.segments(), segments, "the log is kept");
        assert!(!engine.should_checkpoint(), "the cadence restarts");

        live.commit(&mut engine, 10).unwrap();
        engine.commit();
        engine.crash();
        let mut restored = Heavy::default();
        let report = engine.recover(&mut [&mut restored]);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.snapshot_seq, Some(2));
        assert_eq!(report.replayed, 3);
        assert_eq!(restored.total, 16);
    }

    /// Found while measuring checkpoints: a second checkpoint with
    /// nothing committed since the first appended its frame to the
    /// first one's file, and recovery read only the older frame.
    #[test]
    fn a_checkpoint_at_an_unchanged_horizon_replaces_the_snapshot() {
        let mut engine = DurableEngine::default();
        let mut ledger = Ledger::default();
        append_value(&mut engine, &mut ledger, 1);
        engine.checkpoint(&[&ledger]);
        // A change no record carries, then a second checkpoint at the
        // same horizon.
        ledger.values.push(2);
        engine.checkpoint(&[&ledger]);

        let snaps = engine.disk().files_with_prefix("snap/");
        assert_eq!(snaps.len(), 1);
        let bytes = engine.disk().read(&snaps[0]).unwrap();
        let (_, end) = decode_framed(bytes, 0).unwrap().unwrap();
        assert_eq!(end, bytes.len(), "one frame");

        engine.crash();
        let mut restored = Ledger::default();
        let report = engine.recover(&mut [&mut restored]);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(restored.values, vec![1, 2], "the second checkpoint's state");
    }

    #[test]
    fn the_snapshot_frame_is_the_two_pass_frame_in_an_exact_buffer() {
        use crate::crc::crc32;
        use crate::record::encode_framed;
        let mut namespaces = BTreeMap::new();
        for (ns, len) in [("a", 0usize), ("store.movements", 200), ("z", 70_000)] {
            namespaces.insert(ns.to_string(), (0..len).map(|i| i as u8).collect());
        }
        let snap = SnapshotFile {
            next_seq: 77,
            namespaces,
        };
        let crcs = snap
            .namespaces
            .iter()
            .map(|(ns, blob)| (ns.as_str(), crc32(blob)))
            .collect();
        let (framed, body_len) = snap.framed(&crcs);
        let mut two_pass = Vec::new();
        encode_framed(&pmp_wire::to_bytes(&snap), &mut two_pass);
        assert_eq!(framed, two_pass);
        assert_eq!(body_len, framed.len() - 8);
        assert_eq!(framed.capacity(), framed.len());
        let (body, _) = decode_framed(&framed, 0).unwrap().unwrap();
        assert_eq!(pmp_wire::from_bytes::<SnapshotFile>(body).unwrap(), snap);
    }

    #[test]
    fn varint_len_matches_the_encoder() {
        for n in [0usize, 1, 127, 128, 16_383, 16_384, 1 << 21, usize::MAX] {
            let mut w = Writer::new();
            w.put_varu64(n as u64);
            assert_eq!(varint_len(n), w.len(), "{n}");
        }
    }

    #[test]
    fn telemetry_counts_appends_commits_and_recovery() {
        use pmp_telemetry::{Shared, Sink};
        let shared = Shared::new();
        let mut engine = DurableEngine::default();
        engine.attach_sink(Sink::direct(&shared));
        let mut ledger = Ledger::default();
        for v in [1, 2] {
            append_value(&mut engine, &mut ledger, v);
        }
        engine.commit();
        engine.checkpoint(&[&ledger]);
        engine.crash();
        let mut restored = Ledger::default();
        engine.recover(&mut [&mut restored]);

        assert_eq!(shared.counter_value("durable.wal.appends"), 2);
        assert_eq!(shared.counter_value("durable.wal.commits"), 1);
        assert_eq!(shared.counter_value("durable.snapshot.count"), 1);
        assert_eq!(shared.counter_value("durable.recover.count"), 1);
        let recover_samples = shared.with(|t| {
            t.registry
                .histogram_by_name("durable.recover_ns")
                .map(|h| h.count())
        });
        assert_eq!(recover_samples, Some(1));
        let names: Vec<&str> = shared.with(|t| t.journal.events().map(|e| e.name).collect());
        assert!(names.contains(&"snapshot"));
        assert!(names.contains(&"compact"));
        assert!(names.contains(&"recover"));
    }
}
