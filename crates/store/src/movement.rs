//! Movement records and the movement store (Fig. 6's data model).

use pmp_durable::crc::Crc32;
use pmp_wire::{wire_struct, Reader, Wire, Writer};
use std::cell::{Cell, OnceCell};
use std::collections::BTreeMap;
use std::fmt;

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

/// Identifies a row within one store (dense, in insertion order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId(pub u64);

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rec#{}", self.0)
    }
}

/// The base station's movement database, indexed by robot.
///
/// Rows are kept as their canonical wire encoding, back to back, so
/// the store's contents already are its snapshot body (see
/// [`crate::durable`]). Reads decode the rows they return.
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
    /// Every row's [`MovementRecord`] encoding, in insertion order.
    /// Only [`MovementStore::append`] (which extends it) and
    /// `restore_state` (which replaces the whole store) write it, so a
    /// prefix, once checksummed, stays valid: `crc` relies on that.
    pub(crate) bytes: Writer,
    /// Each row's start offset in `bytes` and its issue time.
    pub(crate) rows: Vec<(usize, u64)>,
    /// Each robot's row ids, in insertion order. Derived from the rows
    /// on first read, so a restore indexes nothing, and kept current by
    /// [`MovementStore::append`] once built.
    by_robot: OnceCell<BTreeMap<String, Vec<RecordId>>>,
    /// The CRC-32 state over the first `.0` bytes of `bytes`, extended
    /// by each snapshot's checksum (see `encoded_crc`), never by
    /// `append`.
    pub(crate) crc: Cell<(usize, Crc32)>,
}

impl MovementStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record; returns its id. The robot's name is cloned
    /// only the first time the robot appears.
    pub fn append(&mut self, record: MovementRecord) -> RecordId {
        let id = RecordId(self.rows.len() as u64);
        self.rows.push((self.bytes.len(), record.issued_at));
        record.encode(&mut self.bytes);
        if let Some(index) = self.by_robot.get_mut() {
            Self::index(index, &record.robot, id);
        }
        id
    }

    /// Adds `id` to `robot`'s entry of `index`.
    fn index(index: &mut BTreeMap<String, Vec<RecordId>>, robot: &str, id: RecordId) {
        match index.get_mut(robot) {
            Some(ids) => ids.push(id),
            None => {
                index.insert(robot.to_owned(), vec![id]);
            }
        }
    }

    /// The per-robot index, built from the rows on first use.
    fn robot_index(&self) -> &BTreeMap<String, Vec<RecordId>> {
        self.by_robot.get_or_init(|| {
            let mut index = BTreeMap::new();
            for i in 0..self.rows.len() {
                let robot = Reader::new(self.row(i))
                    .read_str()
                    .expect("rows are checked when they come in");
                Self::index(&mut index, robot, RecordId(i as u64));
            }
            index
        })
    }

    /// Total records.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if no movement has been logged.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row `i`'s encoding.
    fn row(&self, i: usize) -> &[u8] {
        let end = self.rows.get(i + 1).map_or(self.bytes.len(), |r| r.0);
        &self.bytes.as_bytes()[self.rows[i].0..end]
    }

    fn decode(row: &[u8]) -> MovementRecord {
        pmp_wire::from_bytes(row).expect("rows are checked when they come in")
    }

    /// `robot`'s rows in insertion order, each as its issue time and its
    /// canonical encoding (exactly `pmp_wire::to_bytes` of the record),
    /// without decoding them.
    pub fn rows_of(&self, robot: &str) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        self.robot_index()
            .get(robot)
            .into_iter()
            .flatten()
            .map(|id| (self.rows[id.0 as usize].1, self.row(id.0 as usize)))
    }

    /// All actions ever executed by `robot`, in issue order (the left
    /// panel of Fig. 6).
    pub fn by_robot(&self, robot: &str) -> Vec<MovementRecord> {
        self.rows_of(robot)
            .map(|(_, row)| Self::decode(row))
            .collect()
    }

    /// Records with `from <= issued_at < to`, across all robots, in
    /// insertion order.
    pub fn range(&self, from: u64, to: u64) -> Vec<MovementRecord> {
        (0..self.rows.len())
            .filter(|&i| (from..to).contains(&self.rows[i].1))
            .map(|i| Self::decode(self.row(i)))
            .collect()
    }

    /// The distinct robots seen, sorted.
    pub fn robots(&self) -> Vec<String> {
        self.robot_index().keys().cloned().collect()
    }

    /// A replay cursor over `robot`'s actions: yields each record with
    /// the delay (ns) since the previous one, preserving relative time
    /// (the paper's simulation feature: "replay the sequence of
    /// movements of all robots at the right relative time").
    pub fn replay(&self, robot: &str) -> Vec<(u64, MovementRecord)> {
        let mut prev: Option<u64> = None;
        self.by_robot(robot)
            .into_iter()
            .map(|r| {
                let delay = prev.map_or(0, |p| r.issued_at.saturating_sub(p));
                prev = Some(r.issued_at);
                (delay, r)
            })
            .collect()
    }

    /// A scaled copy of `robot`'s actions: every argument multiplied by
    /// `num/den`, saturating at the `i64` bounds (the paper's remote
    /// replication "at a scale different from what is being done by the
    /// original robot").
    pub fn scaled(&self, robot: &str, num: i64, den: i64) -> Vec<MovementRecord> {
        assert!(den != 0, "scale denominator must be nonzero");
        let mut records = self.by_robot(robot);
        for a in records.iter_mut().flat_map(|r| &mut r.args) {
            *a = a.saturating_mul(num).saturating_div(den);
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_telemetry::SimRng;

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

    /// Cases per seeded property below.
    const CASES: u64 = 256;

    #[test]
    fn ids_are_dense_and_stable() {
        for seed in 0..CASES {
            let mut rng = SimRng::new(seed);
            let n = rng.below(100);
            let mut s = MovementStore::new();
            let mut appended = Vec::new();
            for i in 0..n {
                let r = rec(&format!("r{}", rng.below(4)), "rotate", i as i64, i as u64);
                assert_eq!(s.append(r.clone()), RecordId(i as u64), "seed {seed}");
                appended.push(r);
            }
            assert_eq!(s.len(), n, "seed {seed}");
            assert_eq!(s.range(0, u64::MAX), appended, "seed {seed}");
        }
    }

    #[test]
    fn range_equals_a_filter_over_issue_times() {
        for seed in 0..CASES {
            let mut rng = SimRng::new(seed);
            let mut times: Vec<u64> = (0..rng.below(50)).map(|_| rng.range_u64(1000)).collect();
            times.sort_unstable();
            let mut s = MovementStore::new();
            for &at in &times {
                s.append(rec("r", "rotate", at as i64, at));
            }
            let from = rng.range_u64(1000);
            let to = from.saturating_add(rng.range_u64(1000));
            let via_range: Vec<u64> = s.range(from, to).iter().map(|r| r.issued_at).collect();
            let via_filter: Vec<u64> = times
                .into_iter()
                .filter(|at| (from..to).contains(at))
                .collect();
            assert_eq!(via_range, via_filter, "seed {seed}");
        }
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
    fn scaling_saturates_instead_of_overflowing() {
        let mut s = MovementStore::new();
        s.append(rec("r", "rotate", i64::MAX, 0));
        s.append(rec("r", "rotate", i64::MIN, 1));
        let args = |v: Vec<MovementRecord>| v.into_iter().map(|r| r.args[0]).collect::<Vec<_>>();
        assert_eq!(args(s.scaled("r", 2, 1)), [i64::MAX, i64::MIN]);
        assert_eq!(args(s.scaled("r", 1, -1)), [-i64::MAX, i64::MAX]);
    }

    #[test]
    fn exported_rows_are_the_records_encodings() {
        let mut s = MovementStore::new();
        s.append(rec("r1", "rotate", 30, 10));
        s.append(rec("r2", "rotate", -30, 20));
        s.append(rec("r1", "stop", 0, 30));
        for robot in ["r1", "r2"] {
            let rows: Vec<(u64, &[u8])> = s.rows_of(robot).collect();
            let records = s.by_robot(robot);
            assert_eq!(rows.len(), records.len());
            for ((at, row), record) in rows.into_iter().zip(records) {
                assert_eq!(at, record.issued_at);
                assert_eq!(row, pmp_wire::to_bytes(&record));
            }
        }
        assert_eq!(s.rows_of("r3").count(), 0);
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
