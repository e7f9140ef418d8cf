//! The discovery wire protocol, carried on the `"discovery"` channel.

use crate::inventory::{Diff, Inventory};
use crate::service::{ServiceId, ServiceItem, ServiceQuery};
use pmp_wire::wire_enum;

/// Channel name used for all discovery traffic.
pub const CHANNEL: &str = "discovery";

/// A discovery protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum DiscoveryMsg {
    /// Registrar broadcast: "I am here" (multicast announcement).
    Announce {
        /// Registrar's human-readable name (e.g. `"lookup:hall-a"`).
        name: String,
    },
    /// Client → registrar: register a service under a lease.
    Register {
        /// The item (id ignored; assigned by the registrar).
        item: ServiceItem,
        /// Requested lease duration (ns).
        lease_ns: u64,
        /// Request correlation id.
        req: u64,
    },
    /// Registrar → client: registration accepted.
    Registered {
        /// Assigned id.
        service: ServiceId,
        /// Granted lease duration (ns).
        lease_ns: u64,
        /// Echoed correlation id.
        req: u64,
    },
    /// Client → registrar: renew a service lease.
    Renew {
        /// The service.
        service: ServiceId,
        /// Correlation id.
        req: u64,
    },
    /// Registrar → client: renewal result.
    RenewAck {
        /// The service.
        service: ServiceId,
        /// Whether the lease was still alive and got extended.
        ok: bool,
        /// Correlation id.
        req: u64,
    },
    /// Client → registrar: cancel a registration.
    Cancel {
        /// The service.
        service: ServiceId,
    },
    /// Client → registrar: look up services.
    Lookup {
        /// The query.
        query: ServiceQuery,
        /// Correlation id.
        req: u64,
    },
    /// Registrar → client: lookup results.
    LookupResult {
        /// Matching items (with assigned ids).
        items: Vec<ServiceItem>,
        /// Echoed correlation id.
        req: u64,
    },
    /// A lookup routed through the directory tier instead of answered
    /// by one flat registrar.
    FedLookup {
        /// The query.
        query: ServiceQuery,
        /// Node id of the original requester.
        origin: u32,
        /// Registrar nodes traversed so far (each forwarder pushes
        /// itself); the reply retraces this stack, since only tree
        /// edges are guaranteed reachable (wired backhaul).
        path: Vec<u32>,
        /// Correlation id minted by the origin.
        req: u64,
    },
    /// Federated lookup results, routed back along the reverse of the
    /// query's path; the entry registrar makes the final radio hop to
    /// the origin node.
    FedLookupResult {
        /// Matching items (with assigned ids).
        items: Vec<ServiceItem>,
        /// Forwarding steps the query took before being answered.
        hops: u16,
        /// Node id of the original requester.
        origin: u32,
        /// Remaining return path (last element is the next stop).
        path: Vec<u32>,
        /// Echoed correlation id.
        req: u64,
    },
    /// Child registrar → parent, every sweep: the digest of the
    /// service types reachable in the child's subtree (its advert).
    DirDigest {
        /// [`Inventory::digest`] of the advert.
        digest: u64,
    },
    /// Parent → child: the digests differed; here is my view of your
    /// advert.
    DirPull {
        /// The parent's view of the child's advert.
        have: Inventory,
    },
    /// Child → parent: the advert's [`Inventory::diff`] against the
    /// pulled view.
    DirPush {
        /// The difference.
        diff: Diff,
    },
}

wire_enum!(DiscoveryMsg {
    0 => Announce { name: String },
    1 => Register { item: ServiceItem, lease_ns: u64, req: u64 },
    2 => Registered { service: ServiceId, lease_ns: u64, req: u64 },
    3 => Renew { service: ServiceId, req: u64 },
    4 => RenewAck { service: ServiceId, ok: bool, req: u64 },
    5 => Cancel { service: ServiceId },
    6 => Lookup { query: ServiceQuery, req: u64 },
    7 => LookupResult { items: Vec<ServiceItem>, req: u64 },
    // Tag 8 is reserved: the send-on-change `DirAdvertise`.
    9 => FedLookup { query: ServiceQuery, origin: u32, path: Vec<u32>, req: u64 },
    10 => FedLookupResult {
        items: Vec<ServiceItem>,
        hops: u16,
        origin: u32,
        path: Vec<u32>,
        req: u64,
    },
    11 => DirDigest { digest: u64 },
    12 => DirPull { have: Inventory },
    13 => DirPush { diff: Diff },
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_variants() {
        let msgs = vec![
            DiscoveryMsg::Announce {
                name: "lookup:hall-a".into(),
            },
            DiscoveryMsg::Register {
                item: ServiceItem::new("midas.adaptation", "robot", 1),
                lease_ns: 5_000_000,
                req: 9,
            },
            DiscoveryMsg::Registered {
                service: ServiceId::compose(1, 2),
                lease_ns: 5_000_000,
                req: 9,
            },
            DiscoveryMsg::Renew {
                service: ServiceId::compose(1, 2),
                req: 10,
            },
            DiscoveryMsg::RenewAck {
                service: ServiceId::compose(1, 2),
                ok: true,
                req: 10,
            },
            DiscoveryMsg::Cancel {
                service: ServiceId::compose(1, 2),
            },
            DiscoveryMsg::Lookup {
                query: ServiceQuery::of_type("midas.adaptation"),
                req: 11,
            },
            DiscoveryMsg::LookupResult {
                items: vec![ServiceItem::new("midas.adaptation", "robot", 1)],
                req: 11,
            },
            DiscoveryMsg::FedLookup {
                query: ServiceQuery::of_type("print"),
                origin: 3,
                path: vec![4, 1],
                req: 12,
            },
            DiscoveryMsg::FedLookupResult {
                items: vec![ServiceItem::new("print", "laser", 9)],
                hops: 3,
                origin: 3,
                path: vec![4],
                req: 12,
            },
            DiscoveryMsg::DirDigest { digest: 0xfeed },
            DiscoveryMsg::DirPull {
                have: [("print".to_string(), 0)].into_iter().collect(),
            },
            DiscoveryMsg::DirPush {
                diff: Diff {
                    put: vec![("print".into(), 0)],
                    drop: vec!["scan".into()],
                },
            },
        ];
        for m in msgs {
            let bytes = pmp_wire::to_bytes(&m);
            assert_eq!(pmp_wire::from_bytes::<DiscoveryMsg>(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn bad_and_reserved_tags_are_rejected() {
        for tag in [8, 99] {
            assert!(pmp_wire::from_bytes::<DiscoveryMsg>(&[tag]).is_err());
        }
    }
}
