//! Crash-safety for the movement database.
//!
//! The movement store is append-only, so its durable form is simple:
//! the op is one [`MovementRecord`], and a snapshot is the full table
//! in insertion order (the wire encoding of a `Vec<MovementRecord>`).
//! Applying an op appends through [`MovementStore::append`], which
//! rebuilds the per-robot index as a side effect — no index state
//! needs logging.
//!
//! The store keeps its rows as their encodings back to back, so a
//! snapshot is the row count and one copy of those bytes, and a restore
//! is one checking pass over the rows (indexing them on the way) and
//! one copy. The rows only grow, so the snapshot's CRC-32 extends a
//! cached checksum over the rows added since the last snapshot instead
//! of reading all of them again.

use crate::movement::{MovementRecord, MovementStore};
use pmp_durable::crc::Crc32;
use pmp_durable::{DurableError, Store};
use pmp_wire::{Reader, Writer};

/// The shortest wire encoding of a [`MovementRecord`]: three empty
/// strings and an empty argument list (one length byte each) and two
/// fixed-width `u64`s. Bounds the rows a restore pre-allocates by the
/// input it has.
const MIN_RECORD_BYTES: usize = 4 + 2 * 8;

/// The WAL namespace owned by the movement store.
pub const NAMESPACE: &str = "store.movements";

impl MovementStore {
    /// The WAL payload [`Store::commit`] logs for one record.
    #[must_use]
    pub fn wal_payload(record: &MovementRecord) -> Vec<u8> {
        pmp_wire::to_bytes(record)
    }
}

impl Store for MovementStore {
    const NAMESPACE: &'static str = NAMESPACE;
    type Op = MovementRecord;

    fn encode_state(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(10 + self.bytes.len());
        w.put_varu64(self.len() as u64);
        w.put_raw(self.bytes.as_bytes());
        w.into_bytes()
    }

    /// Extends the cached checksum over the rows added since the last
    /// call, then combines it after the count varint: the rows are read
    /// once over the store's life (once more after a restore).
    fn encoded_crc(&self, encoded: &[u8]) -> u32 {
        let rows = self.bytes.as_bytes();
        debug_assert!(encoded.ends_with(rows), "not this store's encoding");
        let (done, mut rows_crc) = self.crc.get();
        rows_crc.update(&rows[done..]);
        self.crc.set((rows.len(), rows_crc));
        let mut crc = Crc32::new();
        crc.update(&encoded[..encoded.len() - rows.len()]);
        crc.append_crc(rows_crc.finish(), rows.len());
        crc.finish()
    }

    /// Checks every row with the reads [`MovementRecord`]'s decoder
    /// makes, so a bad snapshot fails with the same [`pmp_wire::WireError`]
    /// at the same offset, and leaves the store unchanged.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), DurableError> {
        let mut r = Reader::new(bytes);
        let len = r.get_len()?;
        let body = r.pos();
        let mut restored = MovementStore::default();
        restored
            .rows
            .reserve_exact(len.min(r.remaining() / MIN_RECORD_BYTES));
        for _ in 0..len {
            let start = r.pos() - body;
            r.read_str()?; // robot
            r.read_str()?; // device
            r.read_str()?; // command
            for _ in 0..r.get_len()? {
                r.get_vari64()?;
            }
            let issued_at = r.get_u64()?;
            r.get_u64()?; // duration_ns
            restored.rows.push((start, issued_at));
        }
        r.finish()?;
        restored.bytes.put_raw(&bytes[body..]);
        *self = restored;
        Ok(())
    }

    fn apply(&mut self, record: MovementRecord) -> Result<(), DurableError> {
        self.append(record);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_durable::Durable;

    fn rec(robot: &str, arg: i64, at: u64) -> MovementRecord {
        MovementRecord {
            robot: robot.into(),
            device: "motor:x".into(),
            command: "rotate".into(),
            args: vec![arg],
            issued_at: at,
            duration_ns: 100,
        }
    }

    #[test]
    fn snapshot_restore_rebuilds_table_and_index() {
        let mut live = MovementStore::new();
        live.append(rec("r1", 30, 10));
        live.append(rec("r2", -30, 20));
        live.append(rec("r1", 15, 30));

        let mut restored = MovementStore::new();
        restored.restore_snapshot(&live.snapshot_bytes()).unwrap();
        assert_eq!(restored.len(), 3);
        assert_eq!(restored.by_robot("r1").len(), 2);
        assert_eq!(restored.robots(), ["r1", "r2"]);
        assert_eq!(restored.state_digest(), live.state_digest());
        for robot in ["r1", "r2"] {
            assert!(restored.rows_of(robot).eq(live.rows_of(robot)));
        }
    }

    #[test]
    fn the_snapshot_crc_is_the_crc_of_the_snapshot_bytes() {
        use pmp_durable::crc::crc32;
        let check = |s: &MovementStore, when: &str| {
            let bytes = s.snapshot_bytes();
            assert_eq!(s.snapshot_crc(&bytes), crc32(&bytes), "{when}");
        };
        let mut live = MovementStore::new();
        check(&live, "empty");
        for i in 0..5 {
            live.append(rec("r1", i, 10 * i as u64));
        }
        check(&live, "after appends");
        check(&live, "again, nothing new");
        // Past 127 rows the count varint grows a byte.
        for i in 5..200 {
            live.append(rec(if i % 3 == 0 { "r2" } else { "r1" }, i, 10 * i as u64));
        }
        check(&live, "after a second snapshot with more appends");

        let mut restored = MovementStore::new();
        restored.append(rec("r9", 1, 1));
        check(&restored, "before the restore");
        restored.restore_snapshot(&live.snapshot_bytes()).unwrap();
        check(&restored, "after restore_snapshot");
        restored.append(rec("r3", 7, 7));
        check(&restored, "after appends to the restored store");
    }

    #[test]
    fn garbage_payload_is_an_error_not_a_panic() {
        let mut s = MovementStore::new();
        assert!(s.apply_record(&[0xff, 0x01]).is_err());
        assert!(s.restore_snapshot(&[0xff]).is_err());
    }

    #[test]
    fn the_shortest_record_is_min_record_bytes_long() {
        let empty = MovementRecord {
            robot: String::new(),
            device: String::new(),
            command: String::new(),
            args: vec![],
            issued_at: u64::MAX,
            duration_ns: u64::MAX,
        };
        assert_eq!(pmp_wire::to_bytes(&empty).len(), MIN_RECORD_BYTES);
    }

    fn sample() -> MovementStore {
        let mut s = MovementStore::new();
        for (i, robot) in ["r1", "r2", "r1", "r3", "r2"].into_iter().enumerate() {
            s.append(rec(robot, i as i64 - 2, 10 * i as u64));
        }
        s
    }

    #[test]
    fn snapshot_is_the_encoding_of_the_record_list() {
        let live = sample();
        let records = live.range(0, u64::MAX);
        assert_eq!(live.snapshot_bytes(), pmp_wire::to_bytes(&records));
    }

    /// A snapshot of one record whose encoding `edit` rewrites, under a
    /// count of `count`.
    fn one_row(count: u64, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut row = pmp_wire::to_bytes(&rec("r1", 7, 10));
        edit(&mut row);
        let mut w = Writer::new();
        w.put_varu64(count);
        w.put_raw(&row);
        w.into_bytes()
    }

    #[test]
    fn a_failed_restore_leaves_the_store_unchanged() {
        let bytes = sample().snapshot_bytes();
        let mut trailing = bytes.clone();
        trailing.push(0);
        let huge_count = one_row(1 << 40, |_| {});
        // The robot name "r1" is bytes 1..3 of the row.
        let bad_utf8 = one_row(1, |row| row[1] = 0xff);
        // The arg count follows the strings "r1", "motor:x" and "rotate";
        // 100 args run past the 18 bytes left in the row.
        let long_args = one_row(1, |row| row[3 + 8 + 7] = 100);
        let mut target = MovementStore::new();
        target.append(rec("r9", 1, 1));
        let before = target.state_digest();
        for bad in (0..bytes.len()).map(|cut| &bytes[..cut]).chain([
            &trailing[..],
            &huge_count,
            &bad_utf8,
            &long_args,
        ]) {
            let want = pmp_wire::from_bytes::<Vec<MovementRecord>>(bad).unwrap_err();
            assert_eq!(target.restore_snapshot(bad), Err(DurableError::Wire(want)));
            assert_eq!(target.state_digest(), before, "{} bytes", bad.len());
        }
    }
}
