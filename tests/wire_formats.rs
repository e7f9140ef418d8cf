//! The wire formats of the platform's tagged unions and of the structs
//! whose fields are listed by hand, pinned as hex.
//!
//! These bytes are the radio format, the WAL and snapshot format, the
//! chaos `.repro` format and the byte form that gets signed, so they
//! must never move by accident. Each sample carries non-trivial fields
//! (multi-byte varints, negative integers, `Some` and `None`, non-empty
//! sequences and maps). Its encoding must equal the pin, and the pin
//! must decode back to the sample. For a tagged union, every tag byte
//! that no sample starts with must be rejected as
//! [`WireError::InvalidTag`] at offset 0, naming the type. A deliberate
//! format change updates the pins in the same commit.

use pmp::chaos::{ExtKind, Op as ChaosOp};
use pmp::core::rpc::{CallOp, InvocationSemantics, PendingCall};
use pmp::core::{AppMsg, RpcMsg};
use pmp::crypto::{Signature, SignedBlob};
use pmp::discovery::{Diff, DiscoveryMsg, Inventory, ServiceId, ServiceItem, ServiceQuery};
use pmp::midas::durable::BaseWalOp;
use pmp::midas::{MidasMsg, SignedExtension};
use pmp::prose::{PortableClass, PortableMethod};
use pmp::store::MovementRecord;
use pmp::trace::{FlightEntry, SpanRecord, TraceCtx};
use pmp::tuplespace::{Field, Pattern, PatternField, SpaceMsg, Tuple};
use pmp::vm::op::{BytecodeBody, Const, HandlerDef, Op as VmOp};
use pmp::wire::{from_bytes, to_bytes, Wire, WireError};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(pin: &str) -> Vec<u8> {
    (0..pin.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&pin[i..i + 2], 16).expect("pin is hex"))
        .collect()
}

/// Each sample encodes to its pin, and the pin decodes to the sample.
fn pinned<T: Wire + PartialEq + Debug>(cases: &[(T, &str)]) {
    for (value, pin) in cases {
        assert_eq!(hex(&to_bytes(value)), *pin, "encoding of {value:?}");
        assert_eq!(
            &from_bytes::<T>(&unhex(pin)).unwrap(),
            value,
            "decoding of {pin}"
        );
    }
}

/// Pins `cases`, then checks that every tag byte no sample starts with
/// is rejected at offset 0, naming `type_name`. Returns those tags.
fn pinned_enum<T: Wire + PartialEq + Debug>(
    type_name: &'static str,
    cases: &[(T, &str)],
) -> BTreeSet<u8> {
    pinned(cases);
    let assigned: BTreeSet<u8> = cases.iter().map(|(_, pin)| unhex(pin)[0]).collect();
    let unassigned: BTreeSet<u8> = (0..=u8::MAX).filter(|t| !assigned.contains(t)).collect();
    for &tag in &unassigned {
        assert_eq!(
            from_bytes::<T>(&[tag]).unwrap_err(),
            WireError::InvalidTag {
                type_name,
                tag,
                offset: 0,
            },
            "tag {tag}"
        );
    }
    unassigned
}

fn s(v: &str) -> String {
    v.to_string()
}

fn inventory(entries: &[(&str, u64)]) -> Inventory {
    entries.iter().map(|(k, v)| (s(k), *v)).collect()
}

fn map(entries: &[(&str, u64)]) -> BTreeMap<String, u64> {
    entries.iter().map(|&(k, v)| (s(k), v)).collect()
}

fn signed(payload: &[u8]) -> SignedExtension {
    SignedExtension {
        blob: SignedBlob {
            signer: s("base:a"),
            payload: payload.to_vec(),
            signature: signature(),
        },
    }
}

fn signature() -> Signature {
    Signature {
        e: 0x0123_4567_89ab_cdef,
        s: 42,
    }
}

fn item() -> ServiceItem {
    ServiceItem {
        id: ServiceId::compose(1, 300),
        service_type: s("drawing"),
        name: s("robot:1:1"),
        provider: 4,
        attrs: [(s("hall"), s("a"))].into(),
    }
}

fn tuple() -> Tuple {
    Tuple::new(vec![
        Field::Str(s("ext")),
        Field::Int(-300),
        Field::Bytes(vec![1, 2, 3]),
    ])
}

fn pattern() -> Pattern {
    Pattern::new(vec![
        PatternField::Exact(Field::Str(s("ext"))),
        PatternField::AnyInt,
        PatternField::AnyBytes,
    ])
}

fn record() -> MovementRecord {
    MovementRecord {
        robot: s("robot:1:1"),
        device: s("motor:x"),
        command: s("rotate"),
        args: vec![-90, 300],
        issued_at: 1_000_000,
        duration_ns: 5_000,
    }
}

fn pending() -> PendingCall {
    PendingCall {
        target: 5,
        sem: InvocationSemantics::AtLeastOnce,
        caller: s("operator:1"),
        class: s("DrawingService"),
        method: s("moveTo"),
        args: vec![-300, 70_000],
        attempts: 2,
        issued_at: 1_500_000,
    }
}

#[test]
fn vm_const_format_is_pinned() {
    pinned_enum(
        "Const",
        &[
            (Const::Null, "00"),
            (Const::Bool(true), "0101"),
            (Const::Int(-300), "02d704"),
            (Const::Float(-2.5), "0300000000000004c0"),
            (Const::Str(s("pmp")), "0403706d70"),
        ],
    );
}

#[test]
fn vm_op_format_is_pinned() {
    pinned_enum(
        "Op",
        &[
            (VmOp::Const(Const::Int(1_000_000)), "000280897a"),
            (VmOp::Load(300), "012c01"),
            (VmOp::Store(2), "020200"),
            (VmOp::Dup, "03"),
            (VmOp::Pop, "04"),
            (VmOp::Swap, "05"),
            (VmOp::Add, "06"),
            (VmOp::Sub, "07"),
            (VmOp::Mul, "08"),
            (VmOp::Div, "09"),
            (VmOp::Rem, "0a"),
            (VmOp::Neg, "0b"),
            (VmOp::Shl, "0c"),
            (VmOp::Shr, "0d"),
            (VmOp::BitAnd, "0e"),
            (VmOp::BitOr, "0f"),
            (VmOp::BitXor, "10"),
            (VmOp::Eq, "11"),
            (VmOp::Ne, "12"),
            (VmOp::Lt, "13"),
            (VmOp::Le, "14"),
            (VmOp::Gt, "15"),
            (VmOp::Ge, "16"),
            (VmOp::Not, "17"),
            (VmOp::Jump(70_000), "1870110100"),
            (VmOp::JumpIf(5), "1905000000"),
            (VmOp::JumpIfNot(9), "1a09000000"),
            (VmOp::Ret, "1b"),
            (VmOp::RetVal, "1c"),
            (VmOp::New(s("Robot")), "1d05526f626f74"),
            (
                VmOp::GetField {
                    class: s("Robot"),
                    field: s("x"),
                },
                "1e05526f626f740178",
            ),
            (
                VmOp::PutField {
                    class: s("Robot"),
                    field: s("y"),
                },
                "1f05526f626f740179",
            ),
            (
                VmOp::CallV {
                    method: s("moveTo"),
                    argc: 2,
                },
                "20066d6f7665546f02",
            ),
            (
                VmOp::CallStatic {
                    class: s("Math"),
                    method: s("max"),
                    argc: 2,
                },
                "21044d617468036d617802",
            ),
            (VmOp::NewArray, "22"),
            (VmOp::ArrGet, "23"),
            (VmOp::ArrSet, "24"),
            (VmOp::ArrLen, "25"),
            (VmOp::NewBuffer, "26"),
            (VmOp::BufGet, "27"),
            (VmOp::BufSet, "28"),
            (VmOp::BufLen, "29"),
            (
                VmOp::Throw(s("SecurityException")),
                "2a115365637572697479457863657074696f6e",
            ),
            (VmOp::Concat, "2b"),
            (VmOp::ToStr, "2c"),
            (VmOp::ToInt, "2d"),
            (VmOp::ToFloat, "2e"),
            (
                VmOp::Sys {
                    name: s("print"),
                    argc: 1,
                },
                "2f057072696e7401",
            ),
            (VmOp::Nop, "30"),
            (
                VmOp::CallDirect {
                    class: s("Plotter"),
                    method: s("draw"),
                    argc: 3,
                },
                "3107506c6f74746572046472617703",
            ),
        ],
    );
}

#[test]
fn chaos_op_format_is_pinned() {
    pinned_enum(
        "Op",
        &[
            (ChaosOp::MoveToHall { node: 1, hall: 2 }, "000102"),
            (ChaosOp::MoveToCorridor { node: 3 }, "0103"),
            (
                ChaosOp::SetOnline {
                    node: 4,
                    online: false,
                },
                "020400",
            ),
            (ChaosOp::AddRobot { hall: 1 }, "0301"),
            (ChaosOp::CrashBase { base: 0 }, "0400"),
            (ChaosOp::RestartBase { base: 1 }, "0501"),
            (ChaosOp::CheckpointBase { base: 2 }, "0602"),
            (
                ChaosOp::Publish {
                    base: 1,
                    kind: ExtKind::Billing,
                    version: 70_000,
                },
                "07010370110100",
            ),
            (
                ChaosOp::Revoke {
                    base: 0,
                    kind: ExtKind::Geofence,
                },
                "080004",
            ),
            (
                ChaosOp::Rpc {
                    base: 1,
                    node: 2,
                    x: 30,
                    y: 40,
                },
                "0901021e28",
            ),
            (ChaosOp::InjectTornTail { base: 2, drop: 17 }, "0a0211"),
            (
                ChaosOp::InjectBitFlip {
                    base: 1,
                    offset: 4_097,
                },
                "0b010110",
            ),
            (ChaosOp::Partition { node: 2, base: 0 }, "0c0200"),
            (ChaosOp::Heal { node: 2, base: 0 }, "0d0200"),
            (ChaosOp::LinkBases { a: 0, b: 1 }, "0e0001"),
            (ChaosOp::PartitionBases { a: 1, b: 2 }, "0f0102"),
            (ChaosOp::HealBases { a: 1, b: 2 }, "100102"),
            (ChaosOp::Subscribe { base: 0, ns: 2 }, "110002"),
            (ChaosOp::DropSubscriber { sub: 5 }, "1205"),
            (
                ChaosOp::RpcSem {
                    base: 0,
                    node: 3,
                    sem: 1,
                    x: 10,
                    y: 20,
                },
                "130003010a14",
            ),
            (
                ChaosOp::AdversarialPublish {
                    base: 1,
                    attack: 3,
                    version: 9,
                },
                "14010309000000",
            ),
            (ChaosOp::SlowLinks { mult: 4 }, "1504"),
            (ChaosOp::DirParent { child: 2, parent: 1 }, "160201"),
        ],
    );
}

#[test]
fn chaos_ext_kind_format_is_pinned() {
    pinned_enum(
        "ExtKind",
        &[
            (ExtKind::Session, "00"),
            (ExtKind::AccessControl, "01"),
            (ExtKind::Monitoring, "02"),
            (ExtKind::Billing, "03"),
            (ExtKind::Geofence, "04"),
        ],
    );
}

#[test]
fn midas_msg_format_is_pinned() {
    let unassigned = pinned_enum(
        "MidasMsg",
        &[
            (
                MidasMsg::Deliver {
                    ext: signed(&[1, 2, 3]),
                    lease_ns: 5_000_000_000,
                    grant: 7,
                },
                "0006626173653a6103010203efcdab89674523012a0000000000000000f2052a010000000700000000000000",
            ),
            (
                MidasMsg::Ack {
                    ext_id: s("ext/monitoring"),
                    grant: 7,
                    ok: false,
                    reason: s("denied"),
                },
                "010e6578742f6d6f6e69746f72696e670700000000000000000664656e696564",
            ),
            (MidasMsg::LeaseRenew { grant: 300 }, "022c01000000000000"),
            (
                MidasMsg::Revoke {
                    ext_id: s("ext/billing"),
                    reason: s("policy"),
                },
                "030b6578742f62696c6c696e6706706f6c696379",
            ),
            (
                MidasMsg::Replace {
                    old_id: s("ext/billing"),
                    ext: signed(&[4, 5]),
                    lease_ns: 1_000,
                    grant: 8,
                },
                "040b6578742f62696c6c696e6706626173653a61020405efcdab89674523012a00000000000000e8030000000000000800000000000000",
            ),
            (
                MidasMsg::RequestDep {
                    ext_id: s("ext/session"),
                },
                "050b6578742f73657373696f6e",
            ),
            (
                MidasMsg::HandoffState {
                    node_name: s("robot:1"),
                    grants: map(&[("ext/a", 3), ("ext/b", 70_000)]),
                    exts: vec![signed(&[6])],
                },
                "0707726f626f743a3102056578742f610300000000000000056578742f6270110100000000000106626173653a610106efcdab89674523012a00000000000000",
            ),
            (
                MidasMsg::GrantTransfer {
                    node_name: s("robot:1"),
                    rebinds: vec![(s("ext/a"), 3, 9)],
                    lease_ns: 2_000,
                },
                "0807726f626f743a3101056578742f6103000000000000000900000000000000d007000000000000",
            ),
            (
                MidasMsg::MovementExport {
                    node_name: s("robot:2"),
                    records: vec![vec![1, 2], vec![]],
                },
                "0907726f626f743a320202010200",
            ),
            (MidasMsg::ReplicaDigest { digest: 0xfeed_beef }, "0aefbeedfe00000000"),
            (
                MidasMsg::CatalogPush {
                    exts: vec![signed(&[7, 8])],
                },
                "0c0106626173653a61020708efcdab89674523012a00000000000000",
            ),
            (
                MidasMsg::ReplicaPull {
                    catalog: inventory(&[("ext/a", 2), ("ext/b", 300)]),
                    leases: inventory(&[("robot:1", 0x0123_4567_89ab_cdef)]),
                },
                "0f02056578742f610200000000000000056578742f622c010000000000000107726f626f743a31efcdab8967452301",
            ),
            (
                MidasMsg::LeasePush {
                    put: vec![(s("robot:1"), 5, map(&[("ext/a", 3)]))],
                    drop: vec![s("robot:2")],
                },
                "100107726f626f743a310500000001056578742f6103000000000000000107726f626f743a32",
            ),
        ],
    );
    // The retired `RoamingHandoff`, `CatalogPull`, `LeaseSync` and
    // `StreamDelta` keep their tags.
    for tag in [6, 11, 13, 14] {
        assert!(unassigned.contains(&tag), "tag {tag} is reserved");
    }
}

#[test]
fn base_wal_op_format_is_pinned() {
    let unassigned = pinned_enum(
        "BaseWalOp",
        &[
            (BaseWalOp::CatalogPut { ext: signed(&[1]) }, "0006626173653a610101efcdab89674523012a00000000000000"),
            (
                BaseWalOp::Revoked {
                    ext_id: s("ext/billing"),
                },
                "010b6578742f62696c6c696e67",
            ),
            (
                BaseWalOp::NodeAdapted {
                    name: s("robot:1"),
                    node: 5,
                    grants: map(&[("ext/a", 3), ("ext/b", 4)]),
                },
                "0207726f626f743a310500000002056578742f610300000000000000056578742f620400000000000000",
            ),
            (
                BaseWalOp::GrantSet {
                    name: s("robot:1"),
                    ext_id: s("ext/a"),
                    grant: 70_000,
                },
                "0307726f626f743a31056578742f617011010000000000",
            ),
            (
                BaseWalOp::GrantDropped {
                    name: s("robot:1"),
                    grant: 3,
                },
                "0407726f626f743a310300000000000000",
            ),
            (
                BaseWalOp::Presence {
                    name: s("robot:2"),
                    present: true,
                },
                "0507726f626f743a3201",
            ),
            (
                BaseWalOp::RoamState {
                    name: s("robot:3"),
                    from: 2,
                    grants: map(&[("ext/a", 9)]),
                    exts: vec![signed(&[2, 3])],
                    seq: 300,
                },
                "0707726f626f743a330200000001056578742f6109000000000000000106626173653a61020203efcdab89674523012a000000000000002c01000000000000",
            ),
            (BaseWalOp::RoamDrop { name: s("robot:3") }, "0807726f626f743a33"),
            (BaseWalOp::ForeignPut { ext: signed(&[4]) }, "0906626173653a610104efcdab89674523012a00000000000000"),
        ],
    );
    // The retired grant-less `Roamed` op keeps its tag.
    assert!(unassigned.contains(&6));
}

#[test]
fn discovery_msg_format_is_pinned() {
    let service = ServiceId::compose(1, 2);
    let unassigned = pinned_enum(
        "DiscoveryMsg",
        &[
            (
                DiscoveryMsg::Announce {
                    name: s("lookup:hall-a"),
                },
                "000d6c6f6f6b75703a68616c6c2d61",
            ),
            (
                DiscoveryMsg::Register {
                    item: item(),
                    lease_ns: 5_000_000,
                    req: 9,
                },
                "012c010000010000000764726177696e6709726f626f743a313a3104000000010468616c6c0161404b4c00000000000900000000000000",
            ),
            (
                DiscoveryMsg::Registered {
                    service,
                    lease_ns: 5_000_000,
                    req: 9,
                },
                "020200000001000000404b4c00000000000900000000000000",
            ),
            (DiscoveryMsg::Renew { service, req: 10 }, "0302000000010000000a00000000000000"),
            (
                DiscoveryMsg::RenewAck {
                    service,
                    ok: true,
                    req: 10,
                },
                "040200000001000000010a00000000000000",
            ),
            (DiscoveryMsg::Cancel { service }, "050200000001000000"),
            (
                DiscoveryMsg::Lookup {
                    query: ServiceQuery {
                        service_type: Some(s("drawing")),
                        attrs: [(s("hall"), s("a"))].into(),
                    },
                    req: 11,
                },
                "06010764726177696e67010468616c6c01610b00000000000000",
            ),
            (
                DiscoveryMsg::LookupResult {
                    items: vec![item()],
                    req: 11,
                },
                "07012c010000010000000764726177696e6709726f626f743a313a3104000000010468616c6c01610b00000000000000",
            ),
            (
                DiscoveryMsg::FedLookup {
                    query: ServiceQuery {
                        service_type: None,
                        attrs: BTreeMap::new(),
                    },
                    origin: 7,
                    path: vec![1, 2],
                    req: 300,
                },
                "090000070000000201000000020000002c01000000000000",
            ),
            (
                DiscoveryMsg::FedLookupResult {
                    items: vec![item()],
                    hops: 2,
                    origin: 7,
                    path: vec![1],
                    req: 300,
                },
                "0a012c010000010000000764726177696e6709726f626f743a313a3104000000010468616c6c016102000700000001010000002c01000000000000",
            ),
            (DiscoveryMsg::DirDigest { digest: 0xfeed_beef }, "0befbeedfe00000000"),
            (
                DiscoveryMsg::DirPull {
                    have: inventory(&[("drawing", 0), ("midas.adaptation", 0)]),
                },
                "0c020764726177696e670000000000000000106d696461732e61646170746174696f6e0000000000000000",
            ),
            (
                DiscoveryMsg::DirPush {
                    diff: Diff {
                        put: vec![(s("drawing"), 0)],
                        drop: vec![s("midas.adaptation")],
                    },
                },
                "0d010764726177696e67000000000000000001106d696461732e61646170746174696f6e",
            ),
        ],
    );
    // The retired send-on-change `DirAdvertise` keeps its tag.
    assert!(unassigned.contains(&8));
}

#[test]
fn space_msg_format_is_pinned() {
    pinned_enum(
        "SpaceMsg",
        &[
            (
                SpaceMsg::Out { tuple: tuple() },
                "0003010365787400d7040203010203",
            ),
            (
                SpaceMsg::Rd {
                    pattern: pattern(),
                    req: 1,
                },
                "010301010365787403040100000000000000",
            ),
            (
                SpaceMsg::In {
                    pattern: pattern(),
                    req: 300,
                },
                "020301010365787403042c01000000000000",
            ),
            (
                SpaceMsg::Result {
                    req: 2,
                    tuple: Some(tuple()),
                },
                "0302000000000000000103010365787400d7040203010203",
            ),
            (
                SpaceMsg::Result {
                    req: 3,
                    tuple: None,
                },
                "03030000000000000000",
            ),
            (
                SpaceMsg::Subscribe {
                    pattern: pattern(),
                    sub: 7,
                },
                "040301010365787403040700000000000000",
            ),
            (SpaceMsg::Unsubscribe { sub: 7 }, "050700000000000000"),
            (
                SpaceMsg::Notify {
                    sub: 7,
                    tuple: tuple(),
                },
                "06070000000000000003010365787400d7040203010203",
            ),
        ],
    );
}

#[test]
fn tuple_field_format_is_pinned() {
    pinned_enum(
        "Field",
        &[
            (Field::Int(-1_000_000), "00ff887a"),
            (Field::Str(s("monitoring")), "010a6d6f6e69746f72696e67"),
            (Field::Bytes(vec![0xde, 0xad, 0xbe, 0xef]), "0204deadbeef"),
        ],
    );
}

#[test]
fn pattern_field_format_is_pinned() {
    pinned_enum(
        "PatternField",
        &[
            (PatternField::Any, "00"),
            (PatternField::Exact(Field::Int(-300)), "0100d704"),
            (PatternField::AnyStr, "02"),
            (PatternField::AnyInt, "03"),
            (PatternField::AnyBytes, "04"),
        ],
    );
}

#[test]
fn rpc_msg_format_is_pinned() {
    pinned_enum(
        "RpcMsg",
        &[
            (
                RpcMsg::Call {
                    caller: s("operator:1"),
                    class: s("DrawingService"),
                    method: s("moveTo"),
                    args: vec![-300, 70_000],
                    req: 300,
                },
                "000a6f70657261746f723a310e44726177696e6753657276696365066d6f7665546f02d704e0c5082c01000000000000",
            ),
            (
                RpcMsg::Reply {
                    req: 300,
                    ok: true,
                    value: s("null"),
                },
                "012c0100000000000001046e756c6c",
            ),
            (
                RpcMsg::CallSem {
                    caller: s("operator:1"),
                    class: s("DrawingService"),
                    method: s("moveTo"),
                    args: vec![-1, 2],
                    req: 301,
                    sem: InvocationSemantics::AtMostOnce,
                    attempt: 3,
                },
                "020a6f70657261746f723a310e44726177696e6753657276696365066d6f7665546f0201042d010000000000000103000000",
            ),
        ],
    );
}

#[test]
fn app_msg_format_is_pinned() {
    pinned_enum(
        "AppMsg",
        &[
            (AppMsg::Monitor { record: record() }, "0009726f626f743a313a31076d6f746f723a7806726f7461746502b301d80440420f00000000008813000000000000"),
            (AppMsg::Replicate { record: record() }, "0109726f626f743a313a31076d6f746f723a7806726f7461746502b301d80440420f00000000008813000000000000"),
            (
                AppMsg::Charge {
                    robot: s("robot:1:1"),
                    reason: s("shutdown"),
                    amount: -1_500,
                },
                "0209726f626f743a313a310873687574646f776eb717",
            ),
            (
                AppMsg::Persist {
                    robot: s("robot:1:1"),
                    key: s("Plotter.x"),
                    value: s("42"),
                },
                "0309726f626f743a313a3109506c6f747465722e78023432",
            ),
        ],
    );
}

#[test]
fn call_op_format_is_pinned() {
    pinned_enum(
        "CallOp",
        &[
            (
                CallOp::Issue {
                    req: 300,
                    call: pending(),
                },
                "002c0100000000000005000000020a6f70657261746f723a310e44726177696e6753657276696365066d6f7665546f02d704e0c5080200000060e3160000000000",
            ),
            (CallOp::Attempt { req: 300 }, "012c01000000000000"),
            (CallOp::Resolve { req: 301 }, "022d01000000000000"),
        ],
    );
}

#[test]
fn flight_entry_format_is_pinned() {
    let unassigned = pinned_enum(
        "FlightEntry",
        &[
            (
                FlightEntry::Span(SpanRecord {
                    trace_id: (2 << 32) | 1,
                    span_id: (5 << 32) | 3,
                    parent_id: (2 << 32) | 1,
                    node: 5,
                    start: 1_000,
                    end: 1_000,
                    name: s("midas.verify"),
                    detail: s("ext/monitoring"),
                }),
                "0001000000020000000300000005000000010000000200000005000000e803000000000000e8030000000000000c6d696461732e7665726966790e6578742f6d6f6e69746f72696e67",
            ),
        ],
    );
    // Tag 1 once held journal point events, which no node wrote. It
    // stays reserved: the bytes of the last such event pinned here are
    // rejected.
    assert!(unassigned.contains(&1));
    let event =
        "01c0cf6a00000000000a6d696461732e73686970146578742f6d6f6e69746f72696e67202d3e206e33";
    assert_eq!(
        from_bytes::<FlightEntry>(&unhex(event)).unwrap_err(),
        WireError::InvalidTag {
            type_name: "FlightEntry",
            tag: 1,
            offset: 0,
        }
    );
}

#[test]
fn invocation_semantics_format_is_pinned() {
    pinned_enum(
        "InvocationSemantics",
        &[
            (InvocationSemantics::Maybe, "00"),
            (InvocationSemantics::AtMostOnce, "01"),
            (InvocationSemantics::AtLeastOnce, "02"),
        ],
    );
}

#[test]
fn struct_formats_are_pinned() {
    pinned(&[
        (pending(), "05000000020a6f70657261746f723a310e44726177696e6753657276696365066d6f7665546f02d704e0c5080200000060e3160000000000"),
        (
            PendingCall {
                sem: InvocationSemantics::Maybe,
                args: vec![],
                ..pending()
            },
            "05000000000a6f70657261746f723a310e44726177696e6753657276696365066d6f7665546f000200000060e3160000000000",
        ),
    ]);
    pinned(&[(
        PortableClass {
            name: s("Mon"),
            fields: vec![(s("count"), s("int")), (s("last"), s("String"))],
            methods: vec![PortableMethod {
                name: s("before"),
                params: vec![s("int")],
                ret: s("void"),
                body: BytecodeBody {
                    extra_locals: 1,
                    ops: vec![
                        VmOp::Const(Const::Int(-300)),
                        VmOp::Sys {
                            name: s("print"),
                            argc: 1,
                        },
                        VmOp::Ret,
                    ],
                    handlers: vec![HandlerDef {
                        start: 0,
                        end: 2,
                        class: s("*"),
                        target: 2,
                    }],
                },
            }],
        },
        "034d6f6e0205636f756e7403696e74046c61737406537472696e6701066265666f72650103696e7404766f69640100030002d7042f057072696e74011b010000000002000000012a02000000",
    )]);
    pinned(&[
        (
            TraceCtx {
                trace_id: (3 << 32) | 1,
                span_id: (3 << 32) | 7,
            },
            "01000000030000000700000003000000",
        ),
        (TraceCtx::NIL, "00000000000000000000000000000000"),
    ]);
    pinned(&[(signature(), "efcdab89674523012a00000000000000")]);
    pinned(&[
        (tuple(), "03010365787400d7040203010203"),
        (Tuple::new(vec![]), "00"),
    ]);
    pinned(&[(pattern(), "030101036578740304")]);
}
