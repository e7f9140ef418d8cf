//! Deterministic decode-fuzz smoke test.
//!
//! The seeded properties in `src/traits.rs` throw random bytes at the
//! decoders and check only that they never panic. This suite pins the
//! error *positions*: a fixed probe message is truncated at every
//! interesting boundary and patched with bad tag bytes, and each case
//! asserts the exact `UnexpectedEof { offset, needed, have }` /
//! `InvalidTag { offset, .. }` the decoder must report. Offsets are what
//! pmp-durable's torn-tail reporting and the chaos `.repro` loader lean
//! on, so they are part of the wire contract, not a debugging nicety.

use pmp_wire::{from_bytes, to_bytes, wire_enum, wire_struct, WireError};

#[derive(Debug, PartialEq, Clone)]
struct Probe {
    name: String,
    armed: bool,
    count: u64,
    kind: Kind,
}

wire_struct!(Probe {
    name: String,
    armed: bool,
    count: u64,
    kind: Kind
});

#[derive(Debug, PartialEq, Clone)]
enum Kind {
    Idle,
    Busy(u32),
}

wire_enum!(Kind {
    0 => Idle,
    1 => Busy(u32),
});

fn probe() -> Probe {
    Probe {
        name: "hall-a".into(),
        armed: true,
        count: 7,
        kind: Kind::Busy(0xABCD),
    }
}

/// Byte layout the tables below index into:
///
/// ```text
/// offset  0       1..7      7      8..16    16    17..21
/// field   len=6   "hall-a"  bool   u64 LE   tag   u32 LE
/// ```
fn probe_bytes() -> Vec<u8> {
    let bytes = to_bytes(&probe());
    assert_eq!(bytes.len(), 21, "layout drifted; fix the tables");
    bytes
}

#[test]
fn truncations_report_exact_offset_needed_have() {
    let bytes = probe_bytes();
    // (cut input to this length, expected offset / needed / have)
    let cases: &[(usize, usize, usize, usize)] = &[
        (0, 0, 1, 0),   // string length varint byte missing
        (1, 1, 6, 0),   // string body entirely missing
        (3, 1, 6, 2),   // string body cut mid-way
        (7, 7, 1, 0),   // bool byte missing
        (8, 8, 8, 0),   // u64 entirely missing
        (12, 8, 8, 4),  // u64 cut mid-way
        (16, 16, 1, 0), // enum tag byte missing
        (17, 17, 4, 0), // enum payload entirely missing
        (19, 17, 4, 2), // enum payload cut mid-way
    ];
    for &(cut, offset, needed, have) in cases {
        assert_eq!(
            from_bytes::<Probe>(&bytes[..cut]),
            Err(WireError::UnexpectedEof {
                offset,
                needed,
                have,
            }),
            "cut at {cut}"
        );
    }
}

#[test]
fn every_strict_prefix_fails_cleanly_and_the_full_message_decodes() {
    let bytes = probe_bytes();
    for cut in 0..bytes.len() {
        assert!(
            from_bytes::<Probe>(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes decoded"
        );
    }
    assert_eq!(from_bytes::<Probe>(&bytes).unwrap(), probe());
}

#[test]
fn bad_tags_report_exact_offsets() {
    // (byte index to patch, patch value, type that rejects it)
    let cases: &[(usize, u8, &str)] = &[(7, 3, "bool"), (16, 9, "Kind")];
    for &(index, patch, type_name) in cases {
        let mut bytes = probe_bytes();
        bytes[index] = patch;
        assert_eq!(
            from_bytes::<Probe>(&bytes),
            Err(WireError::InvalidTag {
                type_name,
                tag: patch,
                offset: index,
            }),
            "patch at {index}"
        );
    }
}

#[test]
fn option_tag_and_nested_container_offsets() {
    // Option tags reject 2+ with the tag's own offset...
    assert_eq!(
        from_bytes::<Option<u32>>(&[2]),
        Err(WireError::InvalidTag {
            type_name: "Option",
            tag: 2,
            offset: 0,
        })
    );
    // ...and an element cut inside a container reports the position of
    // the failed inner read, not the container's start.
    let bytes = to_bytes(&vec!["ab".to_string(), "cdef".to_string()]);
    // layout: count=2 @0 | len=2 @1, "ab" @2..4 | len=4 @4, "cdef" @5..9
    assert_eq!(
        from_bytes::<Vec<String>>(&bytes[..6]),
        Err(WireError::UnexpectedEof {
            offset: 5,
            needed: 4,
            have: 1,
        })
    );
}

#[test]
fn eof_display_names_the_shortfall() {
    let err = from_bytes::<u64>(&[1, 2, 3]).unwrap_err();
    assert_eq!(
        err.to_string(),
        "unexpected end of input at byte 0: needed 8 bytes, have 3"
    );
}
