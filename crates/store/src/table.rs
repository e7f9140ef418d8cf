//! A generic append-only table.

use std::fmt;

/// Identifies a row within one table (dense, in insertion order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId(pub u64);

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rec#{}", self.0)
    }
}

/// An append-only table of timestamped rows.
///
/// # Examples
///
/// ```
/// use pmp_store::Table;
///
/// let mut t: Table<String> = Table::new();
/// t.append(10, "a".to_string());
/// t.append(20, "b".to_string());
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.range(15, 25).count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Table<T> {
    rows: Vec<(RecordId, u64, T)>,
}

impl<T> Default for Table<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Table<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self { rows: Vec::new() }
    }

    /// Creates an empty table with room for `rows` rows.
    pub(crate) fn with_capacity(rows: usize) -> Self {
        Self {
            rows: Vec::with_capacity(rows),
        }
    }

    /// Appends a row with timestamp `at` (nanoseconds); returns its id.
    ///
    /// Timestamps are expected to be non-decreasing (rows arrive in
    /// time order from the simulator); range queries rely on scan order
    /// only, so out-of-order appends are stored but simply scanned.
    pub fn append(&mut self, at: u64, row: T) -> RecordId {
        let id = RecordId(self.rows.len() as u64);
        self.rows.push((id, at, row));
        id
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Fetches a row by id.
    pub fn get(&self, id: RecordId) -> Option<(&T, u64)> {
        self.rows.get(id.0 as usize).map(|(_, at, row)| (row, *at))
    }

    /// Iterates `(id, timestamp, row)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (RecordId, u64, &T)> {
        self.rows.iter().map(|(id, at, row)| (*id, *at, row))
    }

    /// Rows with `from <= timestamp < to`.
    pub fn range(&self, from: u64, to: u64) -> impl Iterator<Item = (RecordId, u64, &T)> {
        self.iter().filter(move |(_, at, _)| *at >= from && *at < to)
    }

    /// Rows matching a predicate.
    pub fn select<'a>(
        &'a self,
        pred: impl Fn(&T) -> bool + 'a,
    ) -> impl Iterator<Item = (RecordId, u64, &'a T)> {
        self.iter().filter(move |(_, _, row)| pred(row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_get_iterate() {
        let mut t = Table::new();
        let a = t.append(1, "x");
        let b = t.append(2, "y");
        assert_eq!(t.get(a), Some((&"x", 1)));
        assert_eq!(t.get(b), Some((&"y", 2)));
        assert_eq!(t.get(RecordId(9)), None);
        let all: Vec<_> = t.iter().map(|(_, _, r)| *r).collect();
        assert_eq!(all, ["x", "y"]);
    }

    #[test]
    fn range_bounds_are_half_open() {
        let mut t = Table::new();
        for at in [10u64, 20, 30] {
            t.append(at, at);
        }
        let got: Vec<u64> = t.range(10, 30).map(|(_, _, r)| *r).collect();
        assert_eq!(got, [10, 20]);
    }

    #[test]
    fn select_filters() {
        let mut t = Table::new();
        t.append(0, 1i64);
        t.append(0, -2);
        t.append(0, 3);
        let pos: Vec<i64> = t.select(|r| *r > 0).map(|(_, _, r)| *r).collect();
        assert_eq!(pos, [1, 3]);
    }

    // Property tests need the external `proptest` crate; the offline
    // default build gates them behind the (empty) `proptest` feature.
    #[cfg(feature = "proptest")]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_ids_are_dense_and_stable(n in 0usize..100) {
                let mut t = Table::new();
                for i in 0..n {
                    let id = t.append(i as u64, i);
                    prop_assert_eq!(id, RecordId(i as u64));
                }
                prop_assert_eq!(t.len(), n);
                for i in 0..n {
                    prop_assert_eq!(t.get(RecordId(i as u64)).unwrap().0, &i);
                }
            }

            #[test]
            fn prop_range_equals_filter(times in proptest::collection::vec(0u64..1000, 0..50),
                                        from in 0u64..1000, width in 0u64..1000) {
                let mut sorted = times.clone();
                sorted.sort_unstable();
                let mut t = Table::new();
                for at in &sorted {
                    t.append(*at, *at);
                }
                let to = from.saturating_add(width);
                let via_range: Vec<u64> = t.range(from, to).map(|(_, _, r)| *r).collect();
                let via_filter: Vec<u64> = sorted.iter().copied()
                    .filter(|x| *x >= from && *x < to).collect();
                prop_assert_eq!(via_range, via_filter);
            }
        }
    }
}
