//! Crash-safety for the movement database.
//!
//! The movement store is append-only, so its durable form is simple:
//! the op is one [`MovementRecord`], and a snapshot is the full table
//! in insertion order (the wire encoding of a `Vec<MovementRecord>`).
//! Applying an op appends through [`MovementStore::append`], which
//! rebuilds the per-robot index as a side effect — no index state
//! needs logging.
//!
//! The snapshot is encoded straight from the table rows and restored
//! straight into a fresh store, so neither direction materialises the
//! record list.

use crate::movement::{MovementRecord, MovementStore};
use pmp_durable::{DurableError, Store};
use pmp_wire::{Reader, Wire, Writer};

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
        let mut w = Writer::new();
        w.put_varu64(self.len() as u64);
        for (_, _, record) in self.table().iter() {
            record.encode(&mut w);
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), DurableError> {
        let mut r = Reader::new(bytes);
        let len = r.get_len()?;
        let mut restored = MovementStore::with_capacity(len.min(r.remaining() / MIN_RECORD_BYTES));
        for _ in 0..len {
            restored.append(MovementRecord::decode(&mut r)?);
        }
        r.finish()?;
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
        let records: Vec<MovementRecord> = live.table().iter().map(|(_, _, r)| r.clone()).collect();
        assert_eq!(live.snapshot_bytes(), pmp_wire::to_bytes(&records));
    }

    #[test]
    fn a_failed_restore_leaves_the_store_unchanged() {
        let bytes = sample().snapshot_bytes();
        let mut trailing = bytes.clone();
        trailing.push(0);
        let mut target = MovementStore::new();
        target.append(rec("r9", 1, 1));
        let before = target.state_digest();
        for bad in (0..bytes.len())
            .map(|cut| &bytes[..cut])
            .chain([&trailing[..]])
        {
            let want = pmp_wire::from_bytes::<Vec<MovementRecord>>(bad).unwrap_err();
            assert_eq!(target.restore_snapshot(bad), Err(DurableError::Wire(want)));
            assert_eq!(target.state_digest(), before, "{} bytes", bad.len());
        }
    }
}
