//! Anti-entropy for the tables bases share: the catalog and the lease
//! table between replicas, the service types a subtree reaches between
//! a registrar and its parent. Each is summarised as an [`Inventory`]
//! of `(key, version)` pairs. The owner sends its [`Inventory::digest`]
//! on a timer it already has; a receiver whose view hashes differently
//! pulls with that view, and the owner answers with the
//! [`Inventory::diff`]. Nothing is sent because a table changed, so a
//! lost message, a partition or a restart heals at the next digest.

use pmp_telemetry::Fnv64;
use pmp_wire::wire_struct;
use std::collections::BTreeMap;

/// A table's keys, each with its version, sorted by key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Inventory {
    entries: BTreeMap<String, u64>,
}

wire_struct!(Inventory {
    entries: BTreeMap<String, u64>
});

/// What turns one inventory into another ([`Inventory::diff`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diff {
    /// Keys to add or re-version, with their new version, sorted.
    pub put: Vec<(String, u64)>,
    /// Keys to remove, sorted.
    pub drop: Vec<String>,
}

wire_struct!(Diff {
    put: Vec<(String, u64)>,
    drop: Vec<String>
});

impl Diff {
    /// Whether the two inventories were already equal.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.put.is_empty() && self.drop.is_empty()
    }
}

impl FromIterator<(String, u64)> for Inventory {
    fn from_iter<I: IntoIterator<Item = (String, u64)>>(iter: I) -> Self {
        Inventory {
            entries: iter.into_iter().collect(),
        }
    }
}

impl Inventory {
    /// The version held under `key`.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<u64> {
        self.entries.get(key).copied()
    }

    /// The entries, sorted by key.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// FNV-64 over the entries; equal inventories have equal digests.
    #[must_use]
    pub fn digest(&self) -> u64 {
        digest(&[self])
    }

    /// What `have` lacks or holds at another version (`put`, with this
    /// inventory's version), and what it holds that this one does not
    /// (`drop`). Applying the diff to `have` gives `self`.
    #[must_use]
    pub fn diff(&self, have: &Inventory) -> Diff {
        let mut diff = Diff::default();
        for (k, v) in self.iter() {
            if have.get(k) != Some(v) {
                diff.put.push((k.to_string(), v));
            }
        }
        for (k, _) in have.iter() {
            if self.get(k).is_none() {
                diff.drop.push(k.to_string());
            }
        }
        diff
    }

    /// Applies `diff`: its puts first, then its drops.
    pub fn apply(&mut self, diff: &Diff) {
        for (k, v) in &diff.put {
            self.entries.insert(k.clone(), *v);
        }
        for k in &diff.drop {
            self.entries.remove(k);
        }
    }
}

/// FNV-64 over `parts` in order, each framed by its length, so one
/// 8-byte digest can cover several tables at once.
#[must_use]
pub fn digest(parts: &[&Inventory]) -> u64 {
    let mut h = Fnv64::new();
    for part in parts {
        h.write_u64(part.entries.len() as u64);
        for (k, v) in &part.entries {
            h.write_str(k);
            h.write_u64(*v);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_telemetry::SimRng;

    /// A small random inventory: few keys and versions, so two draws
    /// often overlap, share keys at other versions, or are equal.
    fn draw(rng: &mut SimRng) -> Inventory {
        (0..rng.range_u64(6))
            .map(|_| (format!("k{}", rng.range_u64(8)), rng.range_u64(3)))
            .collect()
    }

    #[test]
    fn applying_the_diff_converges_and_digests_match_exactly_on_equality() {
        for case in 0..256u64 {
            let seed = 0x1d0e_a5e0 ^ case;
            let mut rng = SimRng::new(seed);
            let mine = draw(&mut rng);
            let have = draw(&mut rng);
            let diff = mine.diff(&have);
            let mut healed = have.clone();
            healed.apply(&diff);
            assert_eq!(healed, mine, "seed {seed:#x}: diff {diff:?}");
            assert_eq!(
                mine == have,
                mine.digest() == have.digest(),
                "seed {seed:#x}: {mine:?} vs {have:?}"
            );
            assert_eq!(diff.is_empty(), mine == have, "seed {seed:#x}");
        }
    }

    #[test]
    fn a_joint_digest_frames_each_part() {
        let a: Inventory = [("x".to_string(), 1)].into_iter().collect();
        let empty = Inventory::default();
        assert_ne!(digest(&[&a, &empty]), digest(&[&empty, &a]));
    }
}
