//! Crash-safety for the movement database.
//!
//! The movement store is append-only, so its durable form is simple:
//! the op is one [`MovementRecord`], and a snapshot is the full table
//! in insertion order. Applying an op appends through
//! [`MovementStore::append`], which rebuilds the per-robot index as a
//! side effect — no index state needs logging.

use crate::movement::{MovementRecord, MovementStore};
use pmp_durable::{DurableError, Store};

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
        let records: Vec<MovementRecord> =
            self.table().iter().map(|(_, _, r)| r.clone()).collect();
        pmp_wire::to_bytes(&records)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), DurableError> {
        let records: Vec<MovementRecord> = pmp_wire::from_bytes(bytes)?;
        *self = MovementStore::new();
        for r in records {
            self.append(r);
        }
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
}
