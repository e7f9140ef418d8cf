//! An in-memory simulated disk with an explicit durability boundary.
//!
//! Real storage engines only get crash-safety guarantees from `fsync`;
//! everything written since the last sync may or may not survive.
//! [`SimDisk`] models exactly that: appends land in a *pending* overlay
//! and only become part of the *committed* image on [`SimDisk::sync`].
//! A [`SimDisk::crash`] drops the pending overlay, which naturally
//! produces torn tails (a partially-flushed final record) without any
//! special casing in the engine.
//!
//! Fault injection mutates the **committed** image — the bytes a real
//! recovery would read back — so torn-tail, bit-flip, and lost-segment
//! scenarios exercise the same code paths as genuine media faults.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// A named-file byte store with committed/pending separation.
#[derive(Debug, Default, Clone)]
pub struct SimDisk {
    committed: BTreeMap<String, Vec<u8>>,
    pending: BTreeMap<String, Vec<u8>>,
    syncs: u64,
}

impl SimDisk {
    /// An empty disk.
    #[must_use]
    pub fn new() -> SimDisk {
        SimDisk::default()
    }

    /// Appends bytes to a file's pending overlay. The bytes are not
    /// durable until the next [`SimDisk::sync`]. An owned buffer for a
    /// file with nothing pending becomes the overlay without a copy.
    pub fn append(&mut self, file: &str, bytes: impl Into<Vec<u8>>) {
        let bytes = bytes.into();
        match self.pending.get_mut(file) {
            Some(pending) => pending.extend_from_slice(&bytes),
            None => {
                self.pending.insert(file.to_string(), bytes);
            }
        }
    }

    /// The simulated `fsync`: folds every pending overlay into the
    /// committed image. A new file's overlay moves in whole.
    pub fn sync(&mut self) {
        for (file, bytes) in std::mem::take(&mut self.pending) {
            match self.committed.entry(file) {
                Entry::Occupied(mut committed) => committed.get_mut().extend_from_slice(&bytes),
                Entry::Vacant(slot) => {
                    slot.insert(bytes);
                }
            }
        }
        self.syncs += 1;
    }

    /// Simulates power loss: all unsynced bytes vanish.
    pub fn crash(&mut self) {
        self.pending.clear();
    }

    /// The committed (crash-surviving) contents of a file.
    #[must_use]
    pub fn read(&self, file: &str) -> Option<&[u8]> {
        self.committed.get(file).map(Vec::as_slice)
    }

    /// Committed length of a file (0 when absent).
    #[must_use]
    pub fn len(&self, file: &str) -> usize {
        self.committed.get(file).map_or(0, Vec::len)
    }

    /// Whether the disk holds no committed files.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.committed.is_empty()
    }

    /// Deletes a file (committed and pending). Returns whether any
    /// committed bytes existed.
    pub fn remove(&mut self, file: &str) -> bool {
        self.pending.remove(file);
        self.committed.remove(file).is_some()
    }

    /// Committed file names with the given prefix, in sorted order.
    #[must_use]
    pub fn files_with_prefix(&self, prefix: &str) -> Vec<String> {
        self.committed
            .range(prefix.to_string()..)
            .take_while(|(name, _)| name.starts_with(prefix))
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Number of syncs performed.
    #[must_use]
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Truncates a committed file to `keep` bytes (recovery repairs a
    /// torn tail this way). Returns false when the file is absent.
    pub fn truncate(&mut self, file: &str, keep: usize) -> bool {
        match self.committed.get_mut(file) {
            Some(bytes) => {
                bytes.truncate(keep);
                true
            }
            None => false,
        }
    }

    // -- Fault injection (committed image) --

    /// Drops the last `drop_bytes` committed bytes of a file, emulating
    /// a write that only partially reached the platter.
    pub fn inject_torn_tail(&mut self, file: &str, drop_bytes: usize) -> bool {
        match self.committed.get_mut(file) {
            Some(bytes) => {
                let keep = bytes.len().saturating_sub(drop_bytes);
                bytes.truncate(keep);
                true
            }
            None => false,
        }
    }

    /// Flips one bit of a committed byte, emulating media corruption.
    pub fn inject_bit_flip(&mut self, file: &str, offset: usize) -> bool {
        match self.committed.get_mut(file) {
            Some(bytes) if offset < bytes.len() => {
                bytes[offset] ^= 0x01;
                true
            }
            _ => false,
        }
    }

    /// Deletes a committed file outright, emulating a lost segment.
    pub fn inject_remove(&mut self, file: &str) -> bool {
        self.remove(file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsynced_bytes_do_not_survive_a_crash() {
        let mut d = SimDisk::new();
        d.append("wal/0.seg", b"abc");
        d.sync();
        d.append("wal/0.seg", b"def");
        d.crash();
        assert_eq!(d.read("wal/0.seg"), Some(&b"abc"[..]));
    }

    #[test]
    fn sync_makes_appends_durable() {
        let mut d = SimDisk::new();
        d.append("f", b"ab");
        d.append("f", b"cd");
        assert_eq!(d.read("f"), None, "nothing committed before sync");
        d.sync();
        d.crash();
        assert_eq!(d.read("f"), Some(&b"abcd"[..]));
        assert_eq!(d.syncs(), 1);
    }

    #[test]
    fn prefix_listing_is_sorted_and_scoped() {
        let mut d = SimDisk::new();
        for name in ["wal/00000002.seg", "wal/00000001.seg", "snap/a"] {
            d.append(name, b"x");
        }
        d.sync();
        assert_eq!(
            d.files_with_prefix("wal/"),
            vec!["wal/00000001.seg", "wal/00000002.seg"]
        );
    }

    #[test]
    fn faults_mutate_the_committed_image() {
        let mut d = SimDisk::new();
        d.append("f", [0xff; 8]);
        d.sync();
        assert!(d.inject_torn_tail("f", 3));
        assert_eq!(d.len("f"), 5);
        assert!(d.inject_bit_flip("f", 0));
        assert_eq!(d.read("f").unwrap()[0], 0xfe);
        assert!(!d.inject_bit_flip("f", 99), "out-of-range flip refused");
        assert!(d.inject_remove("f"));
        assert!(d.is_empty());
    }
}
