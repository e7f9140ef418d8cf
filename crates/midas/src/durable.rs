//! Crash-safety for the extension base.
//!
//! The base's durable state is the extension catalog, the lease table
//! (which node holds which grant for which extension), and the roaming
//! cache. Every mutation point in [`ExtensionBase`] decides on one
//! [`BaseWalOp`] and commits it; [`Store::apply`] is the only code that
//! changes the state, so replaying the ops in sequence order reproduces
//! it exactly. A snapshot is the tables themselves, each map encoded
//! in key order.
//!
//! What is deliberately *not* durable: scan timers, pending lookups,
//! undelivered [`crate::BaseEvent`]s, and the discovery client — all
//! of that is session state a restarted base rebuilds by scanning
//! again. The lease table surviving is what lets the restarted base
//! *renew* grants instead of re-delivering the whole catalog.

use crate::base::{AdaptedNode, ExtensionBase, RoamEntry};
use crate::catalog::Catalog;
use crate::package::SignedExtension;
use pmp_durable::{DurableError, Store};
use pmp_net::NodeId;
use pmp_wire::{wire_enum, wire_struct, Reader, Wire, Writer};
use std::collections::BTreeMap;

/// The WAL namespace owned by the extension base.
pub const NAMESPACE: &str = "midas.base";

/// One logged mutation of the base's durable state.
#[derive(Debug, Clone, PartialEq)]
pub enum BaseWalOp {
    /// An extension entered (or upgraded in) the catalog.
    CatalogPut {
        /// The signed package.
        ext: SignedExtension,
    },
    /// An extension was revoked: out of the catalog, all grants void.
    Revoked {
        /// The revoked extension id.
        ext_id: String,
    },
    /// A node was adapted: full catalog delivery with fresh grants.
    NodeAdapted {
        /// The node's advertised name.
        name: String,
        /// Its network id.
        node: u32,
        /// Extension id → lease grant.
        grants: BTreeMap<String, u64>,
    },
    /// One grant was issued or replaced for an adapted node.
    GrantSet {
        /// The node's name.
        name: String,
        /// The extension id.
        ext_id: String,
        /// The new grant.
        grant: u64,
    },
    /// A grant was released by its holder.
    GrantDropped {
        /// The node's name.
        name: String,
        /// The dropped grant.
        grant: u64,
    },
    /// An adapted node's presence flag changed (departure/return).
    Presence {
        /// The node's name.
        name: String,
        /// Whether the node is in the base's area.
        present: bool,
    },
    /// A roaming record was admitted or refreshed (handoff or lease
    /// sync), with the migratable grants and packages.
    RoamState {
        /// The roaming node's name.
        name: String,
        /// Network id of the base that sent the record.
        from: u32,
        /// Extension id → the grant the node held there.
        grants: BTreeMap<String, u64>,
        /// Signed packages behind those grants.
        exts: Vec<SignedExtension>,
        /// FIFO admission sequence.
        seq: u64,
    },
    /// A roaming record left the table (adopted, re-registered, or
    /// evicted at capacity). Evictions are logged explicitly so replay
    /// never re-runs capacity policy.
    RoamDrop {
        /// The roaming node's name.
        name: String,
    },
    /// A migrated package outside our own catalog was retained for
    /// redelivery and onward handoffs.
    ForeignPut {
        /// The signed package.
        ext: SignedExtension,
    },
}

wire_enum!(BaseWalOp {
    0 => CatalogPut { ext: SignedExtension },
    1 => Revoked { ext_id: String },
    2 => NodeAdapted { name: String, node: u32, grants: BTreeMap<String, u64> },
    3 => GrantSet { name: String, ext_id: String, grant: u64 },
    4 => GrantDropped { name: String, grant: u64 },
    5 => Presence { name: String, present: bool },
    // Tag 6 is reserved: the retired grant-less `Roamed` op.
    7 => RoamState {
        name: String,
        from: u32,
        grants: BTreeMap<String, u64>,
        exts: Vec<SignedExtension>,
        seq: u64,
    },
    8 => RoamDrop { name: String },
    9 => ForeignPut { ext: SignedExtension },
});

wire_struct!(AdaptedNode {
    node: NodeId,
    present: bool,
    grants: BTreeMap<String, u64>,
});

wire_struct!(RoamEntry {
    from: u32,
    grants: BTreeMap<String, u64>,
    exts: Vec<SignedExtension>,
    seq: u64,
});

impl ExtensionBase {
    /// The lease table in canonical form: node name → (network id,
    /// present, extension id → grant). Crash-recovery tests compare
    /// this across a restart.
    #[must_use]
    pub fn lease_table(&self) -> BTreeMap<String, (u32, bool, BTreeMap<String, u64>)> {
        self.adapted
            .iter()
            .map(|(name, a)| (name.clone(), (a.node.0, a.present, a.grants.clone())))
            .collect()
    }

    fn bump_grant(&mut self, grant: u64) {
        self.next_grant = self.next_grant.max(grant.saturating_add(1));
    }
}

/// A snapshot is the base's tables in order: the grant counter, the
/// catalog, the lease table, the roaming cache, the foreign packages and
/// the roaming sequence, each map in key order.
impl Store for ExtensionBase {
    const NAMESPACE: &'static str = NAMESPACE;
    type Op = BaseWalOp;

    fn encode_state(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.next_grant.encode(&mut w);
        self.catalog.by_id.encode(&mut w);
        self.adapted.encode(&mut w);
        self.roaming_cache.encode(&mut w);
        self.foreign.encode(&mut w);
        self.roam_seq.encode(&mut w);
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), DurableError> {
        let mut r = Reader::new(bytes);
        let next_grant = u64::decode(&mut r)?;
        let catalog = BTreeMap::<String, SignedExtension>::decode(&mut r)?;
        let adapted = BTreeMap::decode(&mut r)?;
        let roaming_cache = BTreeMap::decode(&mut r)?;
        let foreign = BTreeMap::decode(&mut r)?;
        let roam_seq = u64::decode(&mut r)?;
        r.finish()?;
        self.catalog = Catalog::new();
        for ext in catalog.into_values() {
            self.catalog.put(ext);
        }
        self.adapted = adapted;
        self.roaming_cache = roaming_cache;
        self.foreign = foreign;
        self.roam_seq = roam_seq;
        self.next_grant = next_grant;
        Ok(())
    }

    fn apply(&mut self, op: BaseWalOp) -> Result<(), DurableError> {
        match op {
            BaseWalOp::CatalogPut { ext } => {
                // A catalog entry supersedes any foreign copy of the
                // same package (chaos kernel `tests/repros/seed-181.repro`).
                if let Ok(pkg) = ext.open() {
                    self.foreign.remove(&pkg.meta.id);
                }
                self.catalog.put(ext);
            }
            BaseWalOp::Revoked { ext_id } => {
                self.catalog.remove(&ext_id);
                for a in self.adapted.values_mut() {
                    a.grants.remove(&ext_id);
                }
            }
            BaseWalOp::NodeAdapted { name, node, grants } => {
                let max_grant = grants.values().copied().max();
                self.adapted.insert(
                    name,
                    AdaptedNode {
                        node: NodeId(node),
                        grants,
                        present: true,
                    },
                );
                if let Some(g) = max_grant {
                    self.bump_grant(g);
                }
            }
            BaseWalOp::GrantSet {
                name,
                ext_id,
                grant,
            } => {
                let a = self
                    .adapted
                    .get_mut(&name)
                    .ok_or(DurableError::Invalid("grant for unknown node"))?;
                a.grants.insert(ext_id, grant);
                self.bump_grant(grant);
            }
            BaseWalOp::GrantDropped { name, grant } => {
                let a = self
                    .adapted
                    .get_mut(&name)
                    .ok_or(DurableError::Invalid("drop for unknown node"))?;
                a.grants.retain(|_, g| *g != grant);
            }
            BaseWalOp::Presence { name, present } => {
                let a = self
                    .adapted
                    .get_mut(&name)
                    .ok_or(DurableError::Invalid("presence for unknown node"))?;
                a.present = present;
            }
            BaseWalOp::RoamState {
                name,
                from,
                grants,
                exts,
                seq,
            } => {
                // Evictions are ops of their own, so capacity policy
                // never runs here.
                self.roam_seq = self.roam_seq.max(seq.saturating_add(1));
                self.roaming_cache.insert(
                    name,
                    RoamEntry {
                        from,
                        grants,
                        exts,
                        seq,
                    },
                );
            }
            BaseWalOp::RoamDrop { name } => {
                self.roaming_cache.remove(&name);
            }
            BaseWalOp::ForeignPut { ext } => {
                if let Ok(pkg) = ext.open() {
                    self.foreign.insert(pkg.meta.id, ext);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::package::{ExtensionMeta, ExtensionPackage};
    use pmp_crypto::KeyPair;
    use pmp_durable::Durable;
    use pmp_prose::{Aspect, PortableAspect, PortableClass};
    use pmp_wire::WireError;

    fn ext(id: &str, version: u32) -> SignedExtension {
        let aspect = Aspect::script(
            id.to_string(),
            PortableClass {
                name: format!("C{id}"),
                fields: vec![],
                methods: vec![],
            },
            vec![],
        );
        let pkg = ExtensionPackage {
            meta: ExtensionMeta {
                id: id.into(),
                version,
                description: String::new(),
                requires: vec![],
                permissions: vec![],
                implicit: false,
            },
            aspect: PortableAspect::try_from(&aspect).unwrap(),
        };
        SignedExtension::seal("authority", &KeyPair::from_seed(b"seed"), &pkg)
    }

    fn fresh_base() -> ExtensionBase {
        ExtensionBase::new(NodeId(1), NodeId(1))
    }

    /// One op of every kind, in an order a fresh base accepts.
    pub(crate) fn ops() -> Vec<BaseWalOp> {
        vec![
            BaseWalOp::CatalogPut { ext: ext("mon", 1) },
            BaseWalOp::CatalogPut { ext: ext("acl", 1) },
            BaseWalOp::NodeAdapted {
                name: "robot:1:1".into(),
                node: 7,
                grants: [("mon".to_string(), 1u64), ("acl".to_string(), 2)].into(),
            },
            BaseWalOp::GrantSet {
                name: "robot:1:1".into(),
                ext_id: "mon".into(),
                grant: 3,
            },
            BaseWalOp::GrantDropped {
                name: "robot:1:1".into(),
                grant: 2,
            },
            BaseWalOp::Presence {
                name: "robot:1:1".into(),
                present: false,
            },
            BaseWalOp::RoamState {
                name: "robot:2:2".into(),
                from: 8,
                grants: [("mon".to_string(), 0u64)].into(),
                exts: vec![],
                seq: 2,
            },
            BaseWalOp::RoamState {
                name: "robot:3:3".into(),
                from: 9,
                grants: [("mon".to_string(), 5u64)].into(),
                exts: vec![ext("mon", 1)],
                seq: 4,
            },
            BaseWalOp::RoamDrop {
                name: "robot:2:2".into(),
            },
            BaseWalOp::ForeignPut { ext: ext("ctx", 1) },
            BaseWalOp::Revoked {
                ext_id: "acl".into(),
            },
        ]
    }

    #[test]
    fn ops_roundtrip_on_the_wire() {
        for op in ops() {
            let bytes = pmp_wire::to_bytes(&op);
            assert_eq!(pmp_wire::from_bytes::<BaseWalOp>(&bytes).unwrap(), op);
        }
    }

    #[test]
    fn unknown_and_reserved_tags_carry_the_offset() {
        for tag in [6, 99] {
            assert_eq!(
                pmp_wire::from_bytes::<BaseWalOp>(&[tag]),
                Err(WireError::InvalidTag {
                    type_name: "BaseWalOp",
                    tag,
                    offset: 0,
                })
            );
        }
    }

    #[test]
    fn replay_then_snapshot_restore_reach_the_same_digest() {
        let mut replayed = fresh_base();
        for op in ops() {
            replayed.apply_record(&pmp_wire::to_bytes(&op)).unwrap();
        }
        // The lease table shape after the full sequence.
        let leases = replayed.lease_table();
        let (node, present, grants) = &leases["robot:1:1"];
        assert_eq!(*node, 7);
        assert!(!present);
        assert_eq!(grants.len(), 1, "acl revoked, one mon grant left");
        assert_eq!(grants["mon"], 3);
        assert_eq!(replayed.next_grant, 4, "recovered past the max grant");
        assert_eq!(replayed.catalog.ids(), ["mon"]);
        // Roaming table: robot:2:2 dropped, robot:3:3 admitted with its
        // migratable grants; the FIFO sequence recovered past it.
        assert!(!replayed.roaming_cache.contains_key("robot:2:2"));
        let roam = &replayed.roaming_cache["robot:3:3"];
        assert_eq!(roam.from, 9);
        assert_eq!(roam.grants["mon"], 5);
        assert_eq!(roam.exts.len(), 1);
        assert_eq!(replayed.roam_seq, 5, "recovered past the max seq");

        let mut restored = fresh_base();
        restored
            .restore_snapshot(&replayed.snapshot_bytes())
            .unwrap();
        assert_eq!(restored.state_digest(), replayed.state_digest());
        assert_eq!(restored.lease_table(), replayed.lease_table());
        assert_eq!(restored.roaming_cache, replayed.roaming_cache);
    }

    /// A `RequestDep` from a node the base never adapted is ignored: a
    /// `Deliver` to it would carry a grant no op logs, so WAL replay
    /// would rebuild a lower `next_grant` and could reissue that id.
    #[test]
    fn a_strangers_dependency_request_ships_no_grant() {
        use crate::proto::{MidasMsg, CHANNEL};
        use pmp_durable::DurableHub;
        use pmp_net::{Incoming, Position, Simulator};
        use pmp_trace::{TraceCtx, Traced};

        let mut sim = Simulator::new(7);
        let node = sim.add_node("base", Position::new(0.0, 0.0), 60.0);
        let stranger = sim.add_node("stranger", Position::new(5.0, 0.0), 60.0);
        let hub = DurableHub::new();
        let mut live = ExtensionBase::new(node, node);
        live.attach_durable(hub.clone());
        live.update_extension(&mut sim, ext("mon", 1));
        let ask = MidasMsg::RequestDep {
            ext_id: "mon".into(),
        };
        sim.send(stranger, node, CHANNEL, TraceCtx::NIL.wrap(&ask));
        while sim.step().is_some() {
            for inc in sim.drain_inbox(node) {
                live.handle(&mut sim, &inc);
            }
        }
        let delivers = sim
            .drain_inbox(stranger)
            .iter()
            .filter(|inc| match inc {
                Incoming::Message { payload, .. } => matches!(
                    pmp_wire::from_bytes::<Traced<MidasMsg>>(payload).map(|e| e.msg),
                    Ok(MidasMsg::Deliver { .. })
                ),
                Incoming::Timer { .. } => false,
            })
            .count();
        assert_eq!(delivers, 0, "no grant for a node the base never adapted");

        hub.commit();
        let mut recovered = ExtensionBase::new(node, node);
        hub.recover(&mut [&mut recovered]);
        assert_eq!(recovered.next_grant, live.next_grant);
        assert_eq!(recovered.state_digest(), live.state_digest());
    }

    #[test]
    fn orphan_grant_ops_error_instead_of_panicking() {
        let mut base = fresh_base();
        let op = BaseWalOp::GrantSet {
            name: "ghost".into(),
            ext_id: "mon".into(),
            grant: 1,
        };
        assert!(base.apply_record(&pmp_wire::to_bytes(&op)).is_err());
        assert!(base.apply_record(&[0xff, 0x00]).is_err());
    }
}
