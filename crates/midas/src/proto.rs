//! The MIDAS wire protocol, carried on the `"midas"` channel.

use crate::package::SignedExtension;
use pmp_discovery::Inventory;
use pmp_wire::wire_enum;
use std::collections::BTreeMap;

/// Channel name for all MIDAS traffic.
pub const CHANNEL: &str = "midas";

/// The [`MidasMsg::Ack`] reason of a receiver that dropped a grant on
/// purpose (an implicit dependency released, an upgrade, a
/// revocation): the base stops renewing it.
pub const ACK_RELEASED: &str = "released";

/// The [`MidasMsg::Ack`] reason of a receiver asked to renew or rebind
/// a grant it does not hold: the base redelivers that extension under
/// a fresh grant.
pub const ACK_UNKNOWN_GRANT: &str = "unknown grant";

/// A MIDAS protocol message. An upgrade is a [`MidasMsg::Deliver`] of
/// a newer version of an id the node holds, so no delivery can name
/// another extension to remove. Messages are unauthenticated (only
/// packages are signed), so a receiver honours a [`MidasMsg::Revoke`]
/// only from the base that holds the extension's lease.
#[derive(Debug, Clone, PartialEq)]
pub enum MidasMsg {
    /// Base → receiver: install this extension under a lease, or
    /// upgrade to it from an older version of its id.
    Deliver {
        /// The signed extension.
        ext: SignedExtension,
        /// Lease duration (ns); the base keeps it alive with
        /// [`MidasMsg::LeaseRenew`].
        lease_ns: u64,
        /// Grant id, unique per base; names this lease.
        grant: u64,
    },
    /// Receiver → base: installation result.
    Ack {
        /// The extension id.
        ext_id: String,
        /// The grant being answered.
        grant: u64,
        /// Whether installation succeeded.
        ok: bool,
        /// Failure reason when `ok` is false.
        reason: String,
    },
    /// Base → receiver: keep the grant alive (the paper: "it is the
    /// responsibility of each extension base to keep alive the
    /// functionality it has distributed").
    LeaseRenew {
        /// The grant to refresh.
        grant: u64,
    },
    /// Base → receiver: withdraw an extension now. Honoured only from
    /// the base holding the extension's lease.
    Revoke {
        /// The extension id.
        ext_id: String,
        /// Why (surfaced to the extension's shutdown procedure).
        reason: String,
    },
    /// Receiver → base: a delivered extension requires `ext_id` but it
    /// is not installed; please deliver it.
    RequestDep {
        /// The missing dependency id.
        ext_id: String,
    },
    /// Base → base: a node this base had adapted left towards your
    /// area (the paper's "simple roaming algorithm"). Carries the
    /// departing node's lease grants *and* the signed packages behind
    /// them, so the adopting base can take over the leases with zero
    /// re-`Deliver` messages.
    HandoffState {
        /// The roaming node's advertised name.
        node_name: String,
        /// Extension id → grant the node held at the sender.
        grants: BTreeMap<String, u64>,
        /// Signed packages for those grants (the adopting base may not
        /// catalogue them; it still needs them for fallback redelivery
        /// and onward handoffs).
        exts: Vec<SignedExtension>,
    },
    /// Base → receiver: your installed extensions now lease from this
    /// base — swap each old grant for a fresh local one, no reinstall.
    GrantTransfer {
        /// The node's advertised name (as the handoff recorded it).
        node_name: String,
        /// `(ext_id, old_grant, new_grant)` per migrated extension.
        rebinds: Vec<(String, u64, u64)>,
        /// Lease duration for the rebound grants (ns).
        lease_ns: u64,
    },
    /// Base → base: a departed node's movement history, as opaque
    /// store records — the fabric moves context, it does not interpret
    /// it.
    MovementExport {
        /// The node's advertised name.
        node_name: String,
        /// Encoded movement records in arrival order.
        records: Vec<Vec<u8>>,
    },
    /// Base → replica, every scan: one digest over the sender's
    /// catalog and lease table (see [`pmp_discovery::inventory`]).
    ReplicaDigest {
        /// [`pmp_discovery::inventory::digest`] of both inventories.
        digest: u64,
    },
    /// Base → replica: catalog entries the peer may lack — each put
    /// as the sender commits it, or the catalog half of the answer to
    /// a [`MidasMsg::ReplicaPull`] (what the puller lacks or holds
    /// older versions of).
    CatalogPush {
        /// The missing/newer signed packages.
        exts: Vec<SignedExtension>,
    },
    /// Replica → base: the digests differed; here is my catalog and my
    /// view of your lease table, send me the difference.
    ReplicaPull {
        /// The puller's catalog: extension id → package version.
        catalog: Inventory,
        /// The puller's view of the sender's lease table.
        leases: Inventory,
    },
    /// Base → replica: the lease half of the answer to a
    /// [`MidasMsg::ReplicaPull`], shadowed in the replica's roaming
    /// cache so it can adopt those nodes if the sender crashes.
    LeasePush {
        /// `(node name, network id, ext id → grant)` per present node
        /// the puller lacks or holds at another version, sorted.
        put: Vec<(String, u32, BTreeMap<String, u64>)>,
        /// Names the puller holds that are no longer present here.
        drop: Vec<String>,
    },
}

wire_enum!(MidasMsg {
    0 => Deliver { ext: SignedExtension, lease_ns: u64, grant: u64 },
    1 => Ack { ext_id: String, grant: u64, ok: bool, reason: String },
    2 => LeaseRenew { grant: u64 },
    3 => Revoke { ext_id: String, reason: String },
    // Tag 4 is reserved: the retired Replace; an upgrade is a newer Deliver.
    5 => RequestDep { ext_id: String },
    // Tag 6 is reserved: the retired ids-only `RoamingHandoff`.
    7 => HandoffState {
        node_name: String,
        grants: BTreeMap<String, u64>,
        exts: Vec<SignedExtension>,
    },
    8 => GrantTransfer { node_name: String, rebinds: Vec<(String, u64, u64)>, lease_ns: u64 },
    9 => MovementExport { node_name: String, records: Vec<Vec<u8>> },
    10 => ReplicaDigest { digest: u64 },
    // Tag 11 is reserved: the catalog-only `CatalogPull`.
    12 => CatalogPush { exts: Vec<SignedExtension> },
    // Tag 13 is reserved: the whole-table, send-on-change `LeaseSync`.
    // Tag 14 is reserved: the retired stream-forwarded `StreamDelta`.
    15 => ReplicaPull { catalog: Inventory, leases: Inventory },
    16 => LeasePush {
        put: Vec<(String, u32, BTreeMap<String, u64>)>,
        drop: Vec<String>,
    },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::{ExtensionMeta, ExtensionPackage};
    use pmp_crypto::KeyPair;
    use pmp_prose::{Aspect, PortableAspect, PortableClass};
    use pmp_wire::WireError;

    fn signed() -> SignedExtension {
        let aspect = Aspect::script(
            "m",
            PortableClass {
                name: "M".into(),
                fields: vec![],
                methods: vec![],
            },
            vec![],
        );
        let pkg = ExtensionPackage {
            meta: ExtensionMeta {
                id: "m".into(),
                version: 1,
                description: String::new(),
                requires: vec![],
                permissions: vec![],
                implicit: false,
            },
            aspect: PortableAspect::try_from(&aspect).unwrap(),
        };
        SignedExtension::seal("a", &KeyPair::from_seed(b"a"), &pkg)
    }

    #[test]
    fn roundtrip_all_variants() {
        let msgs = vec![
            MidasMsg::Deliver {
                ext: signed(),
                lease_ns: 9,
                grant: 2,
            },
            MidasMsg::Ack {
                ext_id: "m".into(),
                grant: 2,
                ok: false,
                reason: "untrusted".into(),
            },
            MidasMsg::LeaseRenew { grant: 2 },
            MidasMsg::Revoke {
                ext_id: "m".into(),
                reason: "policy change".into(),
            },
            MidasMsg::RequestDep {
                ext_id: "session".into(),
            },
            MidasMsg::HandoffState {
                node_name: "robot:1:1".into(),
                grants: [("m".to_string(), 4u64)].into(),
                exts: vec![signed()],
            },
            MidasMsg::GrantTransfer {
                node_name: "robot:1:1".into(),
                rebinds: vec![("m".into(), 4, 11)],
                lease_ns: 9,
            },
            MidasMsg::MovementExport {
                node_name: "robot:1:1".into(),
                records: vec![vec![1, 2, 3], vec![]],
            },
            MidasMsg::ReplicaDigest { digest: 0xfeed },
            MidasMsg::CatalogPush {
                exts: vec![signed()],
            },
            MidasMsg::ReplicaPull {
                catalog: [("m".to_string(), 1)].into_iter().collect(),
                leases: [("robot:1:1".to_string(), 9)].into_iter().collect(),
            },
            MidasMsg::LeasePush {
                put: vec![(
                    "robot:1:1".into(),
                    7,
                    [("m".to_string(), 4u64)].into(),
                )],
                drop: vec!["robot:1:2".into()],
            },
        ];
        for m in msgs {
            let bytes = pmp_wire::to_bytes(&m);
            assert_eq!(pmp_wire::from_bytes::<MidasMsg>(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn reserved_tags_are_rejected_with_their_offset() {
        for tag in [4, 6, 11, 13, 14] {
            assert_eq!(
                pmp_wire::from_bytes::<MidasMsg>(&[tag]),
                Err(WireError::InvalidTag {
                    type_name: "MidasMsg",
                    tag,
                    offset: 0,
                })
            );
        }
    }
}
