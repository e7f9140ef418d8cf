//! The directory tier: hierarchical registrar federation.
//!
//! A flat registrar answers lookups from its own lease table only. At
//! city scale (ROADMAP: thousands of bases) that either floods every
//! registrar with every registration or forces clients to query each
//! base in turn. The directory tier instead arranges registrars in a
//! tree: every registrar keeps serving its hall locally, and
//! additionally *advertises* the set of service types reachable in its
//! subtree to its parent. A federated lookup
//! ([`crate::DiscoveryMsg::FedLookup`]) then walks the tree — down a
//! matching route if one is advertised, up to the parent otherwise —
//! and the answering registrar replies *directly* to the origin node,
//! so the reply does not retrace the path. With branching factor B the
//! route takes O(log_B n) registrar hops, which is the sublinear-lookup
//! half of experiment E17.
//!
//! Adverts are aggregates (type names, not items) kept in step by the
//! exchange of [`crate::inventory`]: every sweep a child sends its
//! parent the digest of its advert, and a parent whose view of that
//! advert differs pulls the types to add and to drop. A quiet
//! federation sends one 8-byte digest per edge per sweep; a restarted
//! parent or a lost push heals at the next one.

use crate::inventory::{Diff, Inventory};
use pmp_net::NodeId;
use std::collections::BTreeMap;

/// Forwarding ceiling for a federated lookup: queries older than this
/// many registrar-to-registrar hops answer empty rather than loop.
pub const MAX_HOPS: u16 = 16;

/// Per-registrar directory state: its parent in the federation tree and
/// the routes learned from its children.
#[derive(Debug, Default)]
pub struct Directory {
    parent: Option<NodeId>,
    /// child → its advert as learned here: the routes through it.
    views: BTreeMap<NodeId, Inventory>,
}

impl Directory {
    /// A directory with no parent and no routes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Points this registrar at its parent in the federation tree.
    pub fn set_parent(&mut self, parent: NodeId) {
        self.parent = Some(parent);
    }

    /// The parent registrar, if federated.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Forgets the learned routes (each child's next digest restores
    /// them); keeps the parent.
    pub(crate) fn restart(&mut self) {
        self.views.clear();
    }

    /// This registrar's advert for its parent: the `local` types and
    /// every routed type, each at version 0.
    pub fn advert(&self, local: impl Iterator<Item = String>) -> Inventory {
        let routed = self.views.values().flat_map(|view| view.iter());
        let routed = routed.map(|(ty, _)| ty.to_string());
        local.chain(routed).map(|ty| (ty, 0)).collect()
    }

    /// This registrar's view of `child`'s advert, if it learned any.
    pub fn view_of(&self, child: NodeId) -> Option<&Inventory> {
        self.views.get(&child)
    }

    /// Applies a diff of `child`'s advert to the view of it.
    pub fn learn(&mut self, child: NodeId, diff: &Diff) {
        self.views.entry(child).or_default().apply(diff);
    }

    /// The lowest-id child (other than `exclude`) whose subtree
    /// advertises `ty`.
    pub fn route_for(&self, ty: &str, exclude: NodeId) -> Option<NodeId> {
        self.views
            .iter()
            .find(|(child, view)| **child != exclude && view.get(ty).is_some())
            .map(|(child, _)| *child)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(id: u32) -> NodeId {
        NodeId(id)
    }

    fn types<'a>(ts: &'a [&str]) -> impl Iterator<Item = String> + 'a {
        ts.iter().map(|t| t.to_string())
    }

    /// A child's advert reaches the parent as a diff against the
    /// parent's view, and a later diff drops what the child lost.
    #[test]
    fn learning_a_diff_makes_the_view_equal_the_childs_advert() {
        let child = Directory::new();
        let mut parent = Directory::new();
        let advert = child.advert(types(&["print", "scan"]));
        parent.learn(n(5), &advert.diff(&Inventory::default()));
        assert_eq!(parent.view_of(n(5)), Some(&advert));
        assert_eq!(parent.route_for("print", n(99)), Some(n(5)));

        let advert = child.advert(types(&["print"]));
        let diff = advert.diff(parent.view_of(n(5)).unwrap());
        assert_eq!(diff.drop, ["scan"]);
        parent.learn(n(5), &diff);
        assert_eq!(parent.view_of(n(5)), Some(&advert));
        assert_eq!(parent.route_for("scan", n(99)), None);
        assert_eq!(parent.route_for("print", n(99)), Some(n(5)));
    }

    #[test]
    fn route_for_skips_the_excluded_child() {
        let mut d = Directory::new();
        let print = Directory::new().advert(types(&["print"]));
        d.learn(n(3), &print.diff(&Inventory::default()));
        d.learn(n(7), &print.diff(&Inventory::default()));
        assert_eq!(d.route_for("print", n(99)), Some(n(3)));
        assert_eq!(d.route_for("print", n(3)), Some(n(7)));
    }

    /// An advert carries the routed types too, so types propagate up
    /// the tree one level per exchange.
    #[test]
    fn the_advert_is_local_types_plus_routed_types() {
        let mut d = Directory::new();
        let print = Directory::new().advert(types(&["print"]));
        d.learn(n(4), &print.diff(&Inventory::default()));
        let advert = d.advert(types(&["midas.adaptation"]));
        assert_eq!(
            advert,
            Directory::new().advert(types(&["midas.adaptation", "print"]))
        );
    }
}
