//! Seeded op generators for the four durable stores, shared by the
//! replay suite (`durable_replay.rs`) and the on-disk format pin
//! (`durable_format.rs`). Each generator draws from a splitmix
//! [`SimRng`], so a seed names one op sequence. The generators also
//! emit ops the store must reject (a grant for an unknown node, say).

use pmp_core::rpc::{CallOp, InvocationSemantics, PendingCall};
use pmp_midas::durable::BaseWalOp;
use pmp_midas::{ExtensionMeta, ExtensionPackage, SignedExtension};
use pmp_prose::{Aspect, PortableAspect, PortableClass};
use pmp_store::MovementRecord;
use pmp_telemetry::SimRng;
use pmp_trace::{FlightEntry, SpanRecord};
use std::collections::BTreeMap;

fn signed(id: &str, version: u32) -> SignedExtension {
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
    SignedExtension::seal(
        "authority",
        &pmp_crypto::KeyPair::from_seed(b"replay"),
        &pkg,
    )
}

const EXT_IDS: [&str; 3] = ["mon", "acl", "ctx"];
const NODES: [&str; 3] = ["robot:1:1", "robot:2:2", "robot:3:3"];

fn grants(rng: &mut SimRng) -> BTreeMap<String, u64> {
    (0..rng.range_u64(3))
        .map(|_| (rng.pick(&EXT_IDS).to_string(), 1 + rng.range_u64(40)))
        .collect()
}

/// An extension-base op generator. Sealing is the expensive part, so
/// the package pool is built once, here.
pub fn base_ops() -> impl FnMut(&mut SimRng) -> BaseWalOp {
    let pool: Vec<SignedExtension> = EXT_IDS
        .iter()
        .flat_map(|id| (1..=2).map(move |v| signed(id, v)))
        .collect();
    move |rng| {
        let name = rng.pick(&NODES).to_string();
        let ext_id = rng.pick(&EXT_IDS).to_string();
        match rng.range_u64(9) {
            0 => BaseWalOp::CatalogPut {
                ext: rng.pick(&pool).clone(),
            },
            1 => BaseWalOp::Revoked { ext_id },
            2 => BaseWalOp::NodeAdapted {
                name,
                node: rng.range_u64(8) as u32,
                grants: grants(rng),
            },
            3 => BaseWalOp::GrantSet {
                name,
                ext_id,
                grant: 1 + rng.range_u64(40),
            },
            4 => BaseWalOp::GrantDropped {
                name,
                grant: 1 + rng.range_u64(40),
            },
            5 => BaseWalOp::Presence {
                name,
                present: rng.chance(0.5),
            },
            6 => BaseWalOp::RoamState {
                name,
                from: rng.range_u64(4) as u32,
                grants: grants(rng),
                exts: (0..rng.range_u64(3))
                    .map(|_| rng.pick(&pool).clone())
                    .collect(),
                seq: rng.range_u64(32),
            },
            7 => BaseWalOp::RoamDrop { name },
            _ => BaseWalOp::ForeignPut {
                ext: rng.pick(&pool).clone(),
            },
        }
    }
}

/// One RPC call-table op.
pub fn rpc_op(rng: &mut SimRng) -> CallOp {
    let req = rng.range_u64(6);
    match rng.range_u64(3) {
        0 => CallOp::Issue {
            req,
            call: PendingCall {
                target: rng.range_u64(4) as u32,
                sem: if rng.chance(0.5) {
                    InvocationSemantics::AtMostOnce
                } else {
                    InvocationSemantics::AtLeastOnce
                },
                caller: "operator".into(),
                class: "DrawingService".into(),
                method: "moveTo".into(),
                args: vec![rng.range_u64(100) as i64, -(rng.range_u64(100) as i64)],
                attempts: 1,
                issued_at: rng.range_u64(1_000_000),
            },
        },
        1 => CallOp::Attempt { req },
        _ => CallOp::Resolve { req },
    }
}

/// One movement-store record.
pub fn movement_op(rng: &mut SimRng) -> MovementRecord {
    MovementRecord {
        robot: rng.pick(&NODES).to_string(),
        device: "motor:x".into(),
        command: "Motor.rotate".into(),
        args: vec![rng.range_u64(360) as i64 - 180],
        issued_at: rng.range_u64(1_000_000),
        duration_ns: rng.range_u64(1_000),
    }
}

/// One flight-recorder batch of ship and verify spans.
pub fn flight_op(rng: &mut SimRng) -> Vec<FlightEntry> {
    (0..rng.range_u64(4))
        .map(|i| {
            let at = rng.range_u64(1_000_000);
            let (name, detail) = if rng.chance(0.5) {
                ("midas.ship", format!("e{i}"))
            } else {
                ("midas.verify", String::new())
            };
            FlightEntry::Span(SpanRecord {
                trace_id: 1,
                span_id: (1 << 32) | i,
                parent_id: 0,
                node: 1,
                start: at,
                end: at,
                name: name.into(),
                detail,
            })
        })
        .collect()
}
