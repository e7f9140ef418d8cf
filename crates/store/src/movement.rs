//! Movement records and the movement store (Fig. 6's data model).

use crate::table::{RecordId, Table};
use pmp_wire::wire_struct;
use std::collections::HashMap;

/// One logged hardware action: which robot/device executed which
/// command, when, and for how long (the paper's monitoring extension
/// logs "the time when the command was issued, its duration, as well as
/// the identity of the robot").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MovementRecord {
    /// Robot identity, e.g. `"robot:1:1"`.
    pub robot: String,
    /// Device within the robot, e.g. `"motor:x"`.
    pub device: String,
    /// Command name, e.g. `"rotate"`.
    pub command: String,
    /// Command arguments.
    pub args: Vec<i64>,
    /// Issue time (ns, simulated).
    pub issued_at: u64,
    /// Execution duration (ns, simulated).
    pub duration_ns: u64,
}

wire_struct!(MovementRecord {
    robot: String,
    device: String,
    command: String,
    args: Vec<i64>,
    issued_at: u64,
    duration_ns: u64,
});

/// The base station's movement database, indexed by robot.
///
/// # Examples
///
/// ```
/// use pmp_store::{MovementRecord, MovementStore};
///
/// let mut store = MovementStore::new();
/// store.append(MovementRecord {
///     robot: "robot:1:1".into(), device: "motor:x".into(),
///     command: "rotate".into(), args: vec![30],
///     issued_at: 1_000, duration_ns: 500,
/// });
/// assert_eq!(store.by_robot("robot:1:1").len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct MovementStore {
    table: Table<MovementRecord>,
    by_robot: HashMap<String, Vec<RecordId>>,
}

impl MovementStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read-only view of the underlying table (insertion order), for
    /// the durable snapshot encoder.
    pub(crate) fn table(&self) -> &Table<MovementRecord> {
        &self.table
    }

    /// An empty store with room for `rows` records.
    pub(crate) fn with_capacity(rows: usize) -> Self {
        Self {
            table: Table::with_capacity(rows),
            by_robot: HashMap::new(),
        }
    }

    /// Appends a record; returns its id. The robot's name is cloned
    /// only the first time the robot appears.
    pub fn append(&mut self, record: MovementRecord) -> RecordId {
        let at = record.issued_at;
        if let Some(ids) = self.by_robot.get_mut(&record.robot) {
            let id = self.table.append(at, record);
            ids.push(id);
            return id;
        }
        let robot = record.robot.clone();
        let id = self.table.append(at, record);
        self.by_robot.insert(robot, vec![id]);
        id
    }

    /// Total records.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Returns `true` if no movement has been logged.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// All actions ever executed by `robot`, in issue order (the left
    /// panel of Fig. 6).
    pub fn by_robot(&self, robot: &str) -> Vec<&MovementRecord> {
        self.by_robot
            .get(robot)
            .map(|ids| {
                ids.iter()
                    .filter_map(|id| self.table.get(*id).map(|(r, _)| r))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Records with `from <= issued_at < to`, across all robots.
    pub fn range(&self, from: u64, to: u64) -> Vec<&MovementRecord> {
        self.table.range(from, to).map(|(_, _, r)| r).collect()
    }

    /// The distinct robots seen, sorted.
    pub fn robots(&self) -> Vec<String> {
        let mut names: Vec<String> = self.by_robot.keys().cloned().collect();
        names.sort();
        names
    }

    /// A replay cursor over `robot`'s actions: yields each record with
    /// the delay (ns) since the previous one, preserving relative time
    /// (the paper's simulation feature: "replay the sequence of
    /// movements of all robots at the right relative time").
    pub fn replay(&self, robot: &str) -> Vec<(u64, MovementRecord)> {
        let records = self.by_robot(robot);
        let mut out = Vec::with_capacity(records.len());
        let mut prev: Option<u64> = None;
        for r in records {
            let delay = match prev {
                None => 0,
                Some(p) => r.issued_at.saturating_sub(p),
            };
            prev = Some(r.issued_at);
            out.push((delay, r.clone()));
        }
        out
    }

    /// A scaled copy of `robot`'s actions: every argument multiplied by
    /// `num/den` (the paper's remote replication "at a scale different
    /// from what is being done by the original robot").
    pub fn scaled(&self, robot: &str, num: i64, den: i64) -> Vec<MovementRecord> {
        assert!(den != 0, "scale denominator must be nonzero");
        self.by_robot(robot)
            .into_iter()
            .map(|r| {
                let mut c = r.clone();
                for a in &mut c.args {
                    *a = *a * num / den;
                }
                c
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(robot: &str, cmd: &str, arg: i64, at: u64) -> MovementRecord {
        MovementRecord {
            robot: robot.into(),
            device: "motor:x".into(),
            command: cmd.into(),
            args: vec![arg],
            issued_at: at,
            duration_ns: 100,
        }
    }

    #[test]
    fn per_robot_index() {
        let mut s = MovementStore::new();
        s.append(rec("r1", "rotate", 30, 10));
        s.append(rec("r2", "rotate", -30, 20));
        s.append(rec("r1", "stop", 0, 30));
        assert_eq!(s.len(), 3);
        assert_eq!(s.by_robot("r1").len(), 2);
        assert_eq!(s.by_robot("r2").len(), 1);
        assert!(s.by_robot("r3").is_empty());
        assert_eq!(s.robots(), ["r1", "r2"]);
    }

    #[test]
    fn time_range_query() {
        let mut s = MovementStore::new();
        for at in [10u64, 20, 30, 40] {
            s.append(rec("r", "rotate", 1, at));
        }
        assert_eq!(s.range(15, 35).len(), 2);
    }

    #[test]
    fn replay_preserves_relative_time() {
        let mut s = MovementStore::new();
        s.append(rec("r", "a", 1, 100));
        s.append(rec("r", "b", 2, 250));
        s.append(rec("r", "c", 3, 1000));
        let replay = s.replay("r");
        let delays: Vec<u64> = replay.iter().map(|(d, _)| *d).collect();
        assert_eq!(delays, [0, 150, 750]);
    }

    #[test]
    fn scaling_amplifies_and_reduces() {
        let mut s = MovementStore::new();
        s.append(rec("r", "rotate", 30, 0));
        let doubled = s.scaled("r", 2, 1);
        assert_eq!(doubled[0].args, [60]);
        let halved = s.scaled("r", 1, 2);
        assert_eq!(halved[0].args, [15]);
    }

    #[test]
    fn record_wire_roundtrip() {
        let r = rec("robot:1:1", "rotate", 30, 5);
        let bytes = pmp_wire::to_bytes(&r);
        assert_eq!(
            pmp_wire::from_bytes::<MovementRecord>(&bytes).unwrap(),
            r
        );
    }
}
