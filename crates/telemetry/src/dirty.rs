//! Barrier to-do lists: which node cells buffered something since a
//! barrier last looked.
//!
//! An epoch barrier drains what the node cells buffered — journal
//! events, spans, outbox data, WAL appends — in rank order. Most cells
//! of a large world buffer nothing in a given epoch, so instead of
//! walking every cell the barrier reads a [`DirtyList`]: each buffer
//! holds a [`DirtyMark`] on the list of its kind and sets it whenever it
//! buffers something. The first set after a barrier took the list puts
//! the cell's key on it; later sets are one relaxed load. The barrier
//! takes the keys in ascending order, which the platform chooses to be
//! rank order, and visits only those cells.
//!
//! A cell may be listed and then found empty (its buffer was drained on
//! another path). That costs a visit, never a result.

use crate::sync::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[derive(Debug)]
struct Slot {
    key: u64,
    /// Set while the key is on the list: a set mark is not listed twice.
    listed: AtomicBool,
}

/// The cells of one kind of buffer that buffered something since the
/// list was last taken. Clones share one list.
#[derive(Clone, Debug, Default)]
pub struct DirtyList {
    listed: Arc<Mutex<Vec<Arc<Slot>>>>,
}

/// One cell's mark on a [`DirtyList`]. Clones share the mark: hand one
/// to every component that buffers into the same cell buffer.
#[derive(Clone, Debug)]
pub struct DirtyMark {
    slot: Arc<Slot>,
    list: DirtyList,
}

impl DirtyList {
    /// A mark that lists `key` when set. Keys order the barrier's visits.
    #[must_use]
    pub fn mark(&self, key: u64) -> DirtyMark {
        DirtyMark {
            slot: Arc::new(Slot {
                key,
                listed: AtomicBool::new(false),
            }),
            list: self.clone(),
        }
    }

    /// Empties the list into `keys` (cleared first), in ascending order.
    /// Each key's mark re-arms, so the next thing its cell buffers lists
    /// it again.
    pub fn take(&self, keys: &mut Vec<u64>) {
        keys.clear();
        for slot in self.listed.lock().drain(..) {
            slot.listed.store(false, Ordering::Relaxed);
            keys.push(slot.key);
        }
        keys.sort_unstable();
    }
}

impl DirtyMark {
    /// Lists the cell unless it is listed already.
    pub fn set(&self) {
        // Relaxed suffices: the list's lock orders the push against the
        // barrier's take, and the barrier runs after the threads that
        // set marks have joined.
        let listed = &self.slot.listed;
        if !listed.load(Ordering::Relaxed) && !listed.swap(true, Ordering::Relaxed) {
            self.list.listed.lock().push(Arc::clone(&self.slot));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_set_mark_is_listed_once_in_key_order_until_taken() {
        let list = DirtyList::default();
        let (a, b) = (list.mark(7), list.mark(2));
        a.set();
        b.set();
        a.clone().set();
        let mut keys = Vec::new();
        list.take(&mut keys);
        assert_eq!(keys, [2, 7]);
        list.take(&mut keys);
        assert!(keys.is_empty(), "taking empties the list");
        a.set();
        list.take(&mut keys);
        assert_eq!(keys, [7], "a taken mark re-arms");
    }
}
