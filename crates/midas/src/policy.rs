//! Receiver-side security policy: which signers are trusted and how
//! many permissions each may grant its extensions.

use pmp_crypto::TrustStore;
use pmp_vm::perm::Permissions;
use std::collections::BTreeMap;

/// How the receiver runs the static-analysis admission gate
/// (`pmp-analyze`) on verified packages, before weaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisPolicy {
    /// Run the gate at all. Off reproduces the paper's behaviour:
    /// cryptographic trust plus the run-time sandbox, nothing static.
    pub enabled: bool,
    /// Treat post-weave aspect interference (shared field writes,
    /// equal-priority ordering) as fatal: the newcomer is unwoven
    /// again and nacked. Off by default — interference is usually a
    /// lint, not an attack.
    pub reject_on_interference: bool,
}

impl Default for AnalysisPolicy {
    fn default() -> Self {
        Self {
            enabled: true,
            reject_on_interference: false,
        }
    }
}

/// A receiver's policy: trust store plus per-signer permission caps.
/// The effective permissions of an installed extension are
/// `requested ∩ cap(signer)`.
#[derive(Debug, Clone, Default)]
pub struct ReceiverPolicy {
    /// Who may sign extensions for this node.
    pub trust: TrustStore,
    /// The static-analysis admission gate.
    pub analysis: AnalysisPolicy,
    default_cap: Permissions,
    per_signer: BTreeMap<String, Permissions>,
}

impl ReceiverPolicy {
    /// A policy trusting no one, granting nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the cap applied to signers without an explicit entry.
    pub fn set_default_cap(&mut self, cap: Permissions) {
        self.default_cap = cap;
    }

    /// Sets the cap for one signer.
    pub fn set_signer_cap(&mut self, signer: impl Into<String>, cap: Permissions) {
        self.per_signer.insert(signer.into(), cap);
    }

    /// The cap for `signer`.
    pub fn cap_for(&self, signer: &str) -> Permissions {
        self.per_signer
            .get(signer)
            .copied()
            .unwrap_or(self.default_cap)
    }

    /// Effective permissions for a package: requested ∩ cap.
    pub fn effective(&self, signer: &str, requested: &[String]) -> Permissions {
        let requested = Permissions::from_names(requested.iter().map(String::as_str));
        requested.intersect(self.cap_for(signer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_vm::perm::Permission;

    #[test]
    fn caps_apply_per_signer() {
        let mut p = ReceiverPolicy::new();
        p.set_default_cap(Permissions::none().with(Permission::Print));
        p.set_signer_cap(
            "hall-a",
            Permissions::none().with(Permission::Net).with(Permission::Store),
        );

        // Known signer: capped to its entry.
        let eff = p.effective("hall-a", &["net".into(), "device".into()]);
        assert!(eff.allows(Permission::Net));
        assert!(!eff.allows(Permission::Device));

        // Unknown signer: default cap.
        let eff = p.effective("other", &["net".into(), "print".into()]);
        assert!(!eff.allows(Permission::Net));
        assert!(eff.allows(Permission::Print));
    }

    #[test]
    fn analysis_gate_is_on_and_interference_advisory_by_default() {
        let p = ReceiverPolicy::new();
        assert!(p.analysis.enabled);
        assert!(!p.analysis.reject_on_interference);
    }

    #[test]
    fn empty_policy_grants_nothing() {
        let p = ReceiverPolicy::new();
        let eff = p.effective("anyone", &["print".into(), "net".into()]);
        assert_eq!(eff, Permissions::none());
    }
}
