//! The directory tier: hierarchical registrar federation.
//!
//! A flat registrar answers lookups from its own lease table only. At
//! city scale (ROADMAP: thousands of bases) that either floods every
//! registrar with every registration or forces clients to query each
//! base in turn. The directory tier instead arranges registrars in a
//! tree: every registrar keeps serving its hall locally, and
//! additionally *advertises* the set of service types reachable in its
//! subtree to its parent ([`crate::DiscoveryMsg::DirAdvertise`]).
//! A federated lookup ([`crate::DiscoveryMsg::FedLookup`]) then walks
//! the tree — down a matching route if one is advertised, up to the
//! parent otherwise — and the answering registrar replies *directly*
//! to the origin node, so the reply does not retrace the path. With
//! branching factor B the route takes O(log_B n) registrar hops, which
//! is the sublinear-lookup half of experiment E17.
//!
//! Advertisements are aggregates (type names, not items) and are sent
//! only on change, so a quiet federation exchanges no directory
//! traffic at all — the gossip cost is proportional to churn, not to
//! fleet size.

use pmp_net::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// Forwarding ceiling for a federated lookup: queries older than this
/// many registrar-to-registrar hops answer empty rather than loop.
pub const MAX_HOPS: u16 = 16;

/// Per-registrar directory state: its place in the federation tree and
/// the routes learned from child advertisements.
#[derive(Debug, Default)]
pub struct Directory {
    parent: Option<NodeId>,
    children: BTreeSet<NodeId>,
    /// service type → children whose subtrees advertise it.
    routes: BTreeMap<String, BTreeSet<NodeId>>,
    /// The advert last pushed to the parent (dedupe on change only).
    last_advert: Option<Vec<String>>,
}

impl Directory {
    /// A directory with no parent, children, or routes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Points this registrar at its parent in the federation tree.
    pub fn set_parent(&mut self, parent: NodeId) {
        self.parent = Some(parent);
        // Force a (re-)advertisement even if the reachable set is
        // unchanged: the new parent has never heard it.
        self.last_advert = None;
    }

    /// The parent registrar, if federated.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Registers `child` as a subtree (idempotent).
    pub fn add_child(&mut self, child: NodeId) {
        self.children.insert(child);
    }

    /// Child registrars, sorted by node id.
    pub fn children(&self) -> Vec<NodeId> {
        self.children.iter().copied().collect()
    }

    /// Forgets the learned routes and the last advert (the next sweep
    /// advertises afresh); keeps the tree edges.
    pub(crate) fn restart(&mut self) {
        self.routes.clear();
        self.last_advert = None;
    }

    /// Absorbs a child's advertisement: `types` replaces everything
    /// previously routed through `child`. Returns `true` when the set
    /// of reachable types changed (so the host should re-advertise).
    pub fn learn(&mut self, child: NodeId, types: &[String]) -> bool {
        self.children.insert(child);
        let before: BTreeSet<String> = self.routes.keys().cloned().collect();
        self.routes.retain(|_, members| {
            members.remove(&child);
            !members.is_empty()
        });
        for ty in types {
            self.routes
                .entry(ty.clone())
                .or_default()
                .insert(child);
        }
        let after: BTreeSet<String> = self.routes.keys().cloned().collect();
        before != after
    }

    /// The lowest-id child (other than `exclude`) whose subtree
    /// advertises `ty`.
    pub fn route_for(&self, ty: &str, exclude: NodeId) -> Option<NodeId> {
        self.routes
            .get(ty)?
            .iter()
            .find(|n| **n != exclude)
            .copied()
    }

    /// Computes the advert for the parent — the sorted union of
    /// `local` types and every routed type — and returns it only when
    /// it differs from the last one sent.
    pub fn advert_if_changed(&mut self, local: BTreeSet<String>) -> Option<Vec<String>> {
        let mut all = local;
        all.extend(self.routes.keys().cloned());
        let advert: Vec<String> = all.into_iter().collect();
        if self.last_advert.as_ref() == Some(&advert) {
            return None;
        }
        self.last_advert = Some(advert.clone());
        Some(advert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(id: u32) -> NodeId {
        NodeId(id)
    }

    #[test]
    fn learn_replaces_a_childs_routes() {
        let mut d = Directory::new();
        assert!(d.learn(n(5), &["print".into(), "scan".into()]));
        assert_eq!(d.route_for("print", n(99)), Some(n(5)));
        // Re-advertise without "scan": the stale route disappears.
        assert!(d.learn(n(5), &["print".into()]));
        assert_eq!(d.route_for("scan", n(99)), None);
        assert_eq!(d.route_for("print", n(99)), Some(n(5)));
    }

    #[test]
    fn route_for_skips_the_excluded_child() {
        let mut d = Directory::new();
        d.learn(n(3), &["print".into()]);
        d.learn(n(7), &["print".into()]);
        assert_eq!(d.route_for("print", n(99)), Some(n(3)));
        assert_eq!(d.route_for("print", n(3)), Some(n(7)));
    }

    #[test]
    fn advert_dedupes_until_something_changes() {
        let mut d = Directory::new();
        d.set_parent(n(1));
        let local: BTreeSet<String> = ["midas.adaptation".to_string()].into();
        assert_eq!(
            d.advert_if_changed(local.clone()),
            Some(vec!["midas.adaptation".to_string()])
        );
        assert_eq!(d.advert_if_changed(local.clone()), None);
        d.learn(n(4), &["print".into()]);
        assert_eq!(
            d.advert_if_changed(local.clone()),
            Some(vec!["midas.adaptation".to_string(), "print".to_string()])
        );
        // Re-parenting forces a fresh advert to the new parent.
        d.set_parent(n(2));
        assert!(d.advert_if_changed(local).is_some());
    }
}
