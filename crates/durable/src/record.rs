//! WAL record framing.
//!
//! Every durable file — log segment or snapshot — is a sequence of
//! *frames*:
//!
//! ```text
//! | len: u32 le | body: len bytes | crc: u32 le |
//! ```
//!
//! where `crc` is CRC-32 over the length prefix **and** the body.
//! Covering the prefix matters: a bit flip in `len` would otherwise
//! shift the checksum window and could masquerade as a torn tail at
//! the wrong offset. With this layout, *any* single corrupted byte in
//! a complete frame yields [`FrameError::Crc`] at the frame's start
//! offset, and only genuinely missing bytes yield [`FrameError::Torn`].
//!
//! A WAL frame's body is the [`pmp_wire`] encoding of a [`WalRecord`];
//! snapshot files use the same frame around a snapshot body.

use crate::crc::Crc32;
use pmp_wire::{wire_struct, Wire, WireError, Writer};

/// Upper bound on a single frame body. Far above any real record, low
/// enough that a corrupt length prefix cannot demand a huge allocation.
pub const MAX_FRAME_BODY: usize = 1 << 24;

/// One logical write-ahead-log entry: a monotonically increasing
/// sequence number, the namespace it belongs to, and an opaque payload
/// the owning [`crate::Durable`] state knows how to apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Global sequence number (1-based, assigned at append).
    pub seq: u64,
    /// Owning namespace, e.g. `"store.movements"`.
    pub ns: String,
    /// Namespace-defined operation bytes.
    pub payload: Vec<u8>,
}

wire_struct!(WalRecord {
    seq: u64,
    ns: String,
    payload: Vec<u8>,
});

/// Why a frame could not be read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The file ends before the frame does — a torn write. At the tail
    /// of the final segment this is expected after a crash and is
    /// repaired by truncation; anywhere else it is corruption.
    Torn {
        /// Byte offset of the frame's start.
        offset: usize,
        /// Bytes actually present from `offset`.
        have: usize,
        /// Bytes the frame header demands.
        need: usize,
    },
    /// The stored checksum does not match the recomputed one.
    Crc {
        /// Byte offset of the frame's start.
        offset: usize,
        /// Checksum stored in the frame.
        stored: u32,
        /// Checksum recomputed over the frame bytes.
        computed: u32,
    },
    /// The length prefix exceeds [`MAX_FRAME_BODY`] — either corruption
    /// in the prefix itself or a foreign file.
    BadLength {
        /// Byte offset of the frame's start.
        offset: usize,
        /// The declared body length.
        declared: u32,
    },
    /// The checksum passed but the body failed wire decoding; the
    /// inner error carries the offset *within the body*.
    Malformed {
        /// Byte offset of the frame's start.
        offset: usize,
        /// The decoder's complaint.
        err: WireError,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Torn { offset, have, need } => {
                write!(f, "torn frame at byte {offset}: have {have} of {need}")
            }
            FrameError::Crc {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "crc mismatch at byte {offset}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            FrameError::BadLength { offset, declared } => {
                write!(f, "implausible frame length {declared} at byte {offset}")
            }
            FrameError::Malformed { offset, err } => {
                write!(f, "undecodable frame at byte {offset}: {err}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// The byte offset of the offending frame's start.
    #[must_use]
    pub fn offset(&self) -> usize {
        match self {
            FrameError::Torn { offset, .. }
            | FrameError::Crc { offset, .. }
            | FrameError::BadLength { offset, .. }
            | FrameError::Malformed { offset, .. } => *offset,
        }
    }

    /// Whether this is a torn (incomplete) frame rather than a
    /// checksum/decode failure.
    #[must_use]
    pub fn is_torn(&self) -> bool {
        matches!(self, FrameError::Torn { .. })
    }
}

/// Reads the frame starting at `offset`, returning its body slice and
/// the offset of the next frame. `Ok(None)` at the exact end of input.
///
/// # Errors
///
/// Any [`FrameError`]; the offset inside always names the frame start.
pub fn decode_framed(bytes: &[u8], offset: usize) -> Result<Option<(&[u8], usize)>, FrameError> {
    let rest = &bytes[offset..];
    if rest.is_empty() {
        return Ok(None);
    }
    if rest.len() < 4 {
        return Err(FrameError::Torn {
            offset,
            have: rest.len(),
            need: 8,
        });
    }
    let declared = u32::from_le_bytes(rest[..4].try_into().unwrap());
    if declared as usize > MAX_FRAME_BODY {
        return Err(FrameError::BadLength { offset, declared });
    }
    let total = 8 + declared as usize;
    if rest.len() < total {
        return Err(FrameError::Torn {
            offset,
            have: rest.len(),
            need: total,
        });
    }
    let stored = u32::from_le_bytes(rest[total - 4..total].try_into().unwrap());
    let mut h = Crc32::new();
    h.update(&rest[..total - 4]);
    let computed = h.finish();
    if stored != computed {
        return Err(FrameError::Crc {
            offset,
            stored,
            computed,
        });
    }
    Ok(Some((&rest[4..total - 4], offset + total)))
}

/// Appends one frame whose body is the wire encoding of `value` to
/// `w`: the WAL's framing routine (a snapshot file writes the same
/// bytes for its body, but checksums its blobs by their known CRCs).
/// The length prefix is reserved and patched in place, so the body is
/// encoded once, straight into the frame, and checksummed in one pass.
///
/// Returns the body length. A frame whose body exceeds
/// [`MAX_FRAME_BODY`] is written but can never be read back
/// ([`FrameError::BadLength`]); a caller that must not lose data
/// checks the length before relying on the frame.
pub fn encode_framed_into<T: Wire + ?Sized>(value: &T, w: &mut Writer) -> usize {
    let frame_start = w.mark();
    let slot = w.reserve_u32();
    value.encode(w);
    let body_len = w.mark() - slot - 4;
    w.patch_u32(slot, body_len as u32);
    let mut h = Crc32::new();
    h.update(w.bytes_from(frame_start));
    w.put_u32(h.finish());
    body_len
}

/// Reads the framed [`WalRecord`] starting at `offset`; `Ok(None)` at
/// the exact end of input.
///
/// # Errors
///
/// Any [`FrameError`] (a checksum-valid but undecodable body maps to
/// [`FrameError::Malformed`]).
pub fn decode_record(bytes: &[u8], offset: usize) -> Result<Option<(WalRecord, usize)>, FrameError> {
    match decode_framed(bytes, offset)? {
        None => Ok(None),
        Some((body, next)) => {
            let rec = pmp_wire::from_bytes::<WalRecord>(body)
                .map_err(|err| FrameError::Malformed { offset, err })?;
            Ok(Some((rec, next)))
        }
    }
}

/// Two-pass framing: encode the body into a buffer of its own, then
/// copy it into the frame. The reference [`encode_framed_into`] must
/// match.
#[cfg(test)]
pub(crate) fn encode_framed(body: &[u8], out: &mut Vec<u8>) {
    let len = (body.len() as u32).to_le_bytes();
    let mut h = Crc32::new();
    h.update(&len);
    h.update(body);
    out.extend_from_slice(&len);
    out.extend_from_slice(body);
    out.extend_from_slice(&h.finish().to_le_bytes());
}

/// One framed [`WalRecord`], as the engine writes it.
#[cfg(test)]
pub(crate) fn framed_record(rec: &WalRecord) -> Vec<u8> {
    let mut w = Writer::new();
    encode_framed_into(rec, &mut w);
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64) -> WalRecord {
        WalRecord {
            seq,
            ns: "store.movements".into(),
            payload: vec![1, 2, 3, seq as u8],
        }
    }

    /// Frames `seqs` back to back, as one commit does.
    fn segment(seqs: std::ops::RangeInclusive<u64>) -> Vec<u8> {
        let mut w = Writer::new();
        for seq in seqs {
            encode_framed_into(&sample(seq), &mut w);
        }
        w.into_bytes()
    }

    #[test]
    fn record_roundtrip_across_a_segment() {
        let buf = segment(1..=5);
        let mut offset = 0;
        let mut seen = Vec::new();
        while let Some((rec, next)) = decode_record(&buf, offset).unwrap() {
            seen.push(rec.seq);
            offset = next;
        }
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
        assert_eq!(offset, buf.len());
    }

    #[test]
    fn truncation_reports_torn_at_the_frame_start() {
        let mut buf = segment(1..=2);
        let start = framed_record(&sample(1)).len();
        buf.truncate(buf.len() - 3);
        let (_, next) = decode_record(&buf, 0).unwrap().unwrap();
        let err = decode_record(&buf, next).unwrap_err();
        assert!(err.is_torn());
        assert_eq!(err.offset(), start);
    }

    #[test]
    fn every_single_byte_flip_is_caught_with_the_right_offset() {
        let buf = segment(1..=2);
        let start = framed_record(&sample(1)).len();
        for i in start..buf.len() {
            let mut copy = buf.clone();
            copy[i] ^= 0x10;
            let (_, next) = decode_record(&copy, 0).unwrap().unwrap();
            let err = decode_record(&copy, next).unwrap_err();
            // A flip in the length prefix may declare more bytes than
            // exist (torn) or an implausible size; any flip in a frame
            // whose length still fits must fail the checksum. All carry
            // the frame-start offset.
            assert_eq!(err.offset(), start, "flip at byte {i}");
            assert!(
                !matches!(err, FrameError::Malformed { .. }),
                "flip at byte {i} slipped past the checksum: {err}"
            );
        }
    }

    #[test]
    fn hostile_length_is_rejected_without_allocation() {
        let mut buf = (u32::MAX).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 16]);
        assert!(matches!(
            decode_record(&buf, 0),
            Err(FrameError::BadLength { offset: 0, .. })
        ));
    }

    #[test]
    fn empty_input_is_a_clean_end() {
        assert_eq!(decode_record(&[], 0).unwrap(), None);
    }

    #[test]
    fn one_pass_framing_is_byte_identical_to_the_two_pass_path() {
        let mut two_pass = Vec::new();
        for seq in 1..=4 {
            encode_framed(&pmp_wire::to_bytes(&sample(seq)), &mut two_pass);
        }
        assert_eq!(segment(1..=4), two_pass);
    }

    #[test]
    fn the_returned_length_is_the_body_length() {
        let rec = sample(9);
        let mut w = Writer::new();
        w.put_u8(0xaa); // frames append after whatever precedes them
        let body_len = encode_framed_into(&rec, &mut w);
        assert_eq!(body_len, pmp_wire::to_bytes(&rec).len());
        assert_eq!(w.len(), 1 + 4 + body_len + 4);
    }
}
