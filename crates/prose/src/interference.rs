//! Pass 4 of the admission pipeline — aspect-interference analysis.
//!
//! Weaving is compositional in mechanism but not in meaning: two
//! aspects that are each correct in isolation can interfere once both
//! are active. The analyzer inspects the runtime's *live* dispatch
//! tables (not the aspects' patterns — after a weave the tables are the
//! ground truth of which advice fires where) and reports:
//!
//! * **shared field writes** — two aspects advise `set` on the same
//!   concrete field: both may rewrite the stored value and the
//!   last-woven aspect silently wins;
//! * **ambiguous ordering** — two aspects advise the same join point
//!   with the same advice kind at *equal* priority: their relative
//!   order is an accident of weave order rather than a declared
//!   contract (distinct priorities order deterministically and are not
//!   flagged).
//!
//! Reports are advisory by default; `midas::policy` can escalate them
//! to rejection (`reject_on_interference`), in which case the receiver
//! unweaves the newcomer again.

use crate::handle::AspectId;
use crate::runtime::{AdviceRef, Site, State};
use pmp_vm::hooks::FieldId;
use pmp_vm::vm::Vm;
use std::fmt;

/// What kind of interference was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterferenceKind {
    /// Two aspects advise `set` on the same field — both can rewrite
    /// the stored value.
    SharedFieldWrite,
    /// Two aspects advise the same join point with the same advice
    /// kind at equal priority — execution order is weave-order.
    AmbiguousOrder,
}

impl fmt::Display for InterferenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InterferenceKind::SharedFieldWrite => "shared-field-write",
            InterferenceKind::AmbiguousOrder => "ambiguous-order",
        })
    }
}

/// One detected interference between two woven aspects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interference {
    /// What kind.
    pub kind: InterferenceKind,
    /// Name of the first (earlier-woven) aspect.
    pub aspect_a: String,
    /// Name of the second aspect.
    pub aspect_b: String,
    /// The contested join point (`Class.field` or a method signature).
    pub site: String,
    /// Human-readable explanation.
    pub detail: String,
}

/// Emits one record per unordered pair of distinct aspects advising a
/// site, keeping only the pairs that include `only` when it is given.
/// For field-set sites every pair interferes; elsewhere only
/// equal-priority pairs do. The site's text is built for its first pair.
fn pairs(
    out: &mut Vec<Interference>,
    advisers: &[AdviceRef],
    describe: impl Fn() -> String,
    kind: InterferenceKind,
    only: Option<AspectId>,
) {
    let mut text = None;
    for (i, a) in advisers.iter().enumerate() {
        for b in &advisers[i + 1..] {
            if a.aspect.id == b.aspect.id {
                continue;
            }
            if only.is_some_and(|id| a.aspect.id != id && b.aspect.id != id) {
                continue;
            }
            let conflict = match kind {
                InterferenceKind::SharedFieldWrite => true,
                InterferenceKind::AmbiguousOrder => a.priority == b.priority,
            };
            if !conflict {
                continue;
            }
            let site: &String = text.get_or_insert_with(&describe);
            let detail = match kind {
                InterferenceKind::SharedFieldWrite => format!(
                    "aspects {:?} and {:?} both advise writes of {site}; the last-woven value wins",
                    a.aspect.name, b.aspect.name
                ),
                InterferenceKind::AmbiguousOrder => format!(
                    "aspects {:?} and {:?} advise {site} at equal priority {}; their order is weave-order",
                    a.aspect.name, b.aspect.name, a.priority
                ),
            };
            out.push(Interference {
                kind,
                aspect_a: a.aspect.name.clone(),
                aspect_b: b.aspect.name.clone(),
                site: site.clone(),
                detail,
            });
        }
    }
}

/// Walks the dispatch tables in site order and reports every
/// interference, or, with `only`, the pairs that include that aspect,
/// visiting only the sites it was added at.
pub(crate) fn report(state: &State, vm: &Vm, only: Option<AspectId>) -> Vec<Interference> {
    let mut sites: Vec<Site> = match only {
        Some(id) => state
            .woven
            .get(&id.0)
            .map(|w| w.sites.clone())
            .unwrap_or_default(),
        None => (state.field_set.keys().map(|f| Site::Set(*f)))
            .chain(state.field_get.keys().map(|f| Site::Get(*f)))
            .chain(state.entry.keys().map(|m| Site::Entry(*m)))
            .chain(state.exit.keys().map(|m| Site::Exit(*m)))
            .collect(),
    };
    // An aspect's sites are in the order it was added at them, with a
    // site two bindings match listed twice: sort and dedup so the
    // report follows site order.
    sites.sort_unstable();
    sites.dedup();

    let field = |fid: FieldId| match vm.field_info(fid) {
        Some((class, field)) => format!("{class}.{field}"),
        None => format!("field#{}", fid.0),
    };
    let mut out = Vec::new();
    for site in sites {
        use InterferenceKind::{AmbiguousOrder, SharedFieldWrite};
        match site {
            Site::Set(fid) => {
                if let Some(list) = state.field_set.get(&fid) {
                    pairs(&mut out, list, || field(fid), SharedFieldWrite, only);
                }
            }
            Site::Get(fid) => {
                if let Some(list) = state.field_get.get(&fid) {
                    let site = || format!("get {}", field(fid));
                    pairs(&mut out, list, site, AmbiguousOrder, only);
                }
            }
            Site::Entry(mid) => {
                if let Some(list) = state.entry.get(&mid) {
                    let site = || format!("entry {}", vm.method_sig(mid));
                    pairs(&mut out, list, site, AmbiguousOrder, only);
                }
            }
            Site::Exit(mid) => {
                if let Some(list) = state.exit.get(&mid) {
                    let site = || format!("exit {}", vm.method_sig(mid));
                    pairs(&mut out, list, site, AmbiguousOrder, only);
                }
            }
            Site::Throw | Site::Catch => {}
        }
    }
    out
}
