//! The `.repro` format: a committed, replayable failure.
//!
//! A repro file is a magic line followed by the pmp-wire encoding of
//! the (usually minimized) [`Scenario`] and of the per-node
//! flight-recorder dumps captured at the moment the oracle fired (empty
//! when none were captured), so a repro carries not just *how to
//! reproduce* the failure but *what each node saw* leading up to it.
//! The format is deliberately dumb: no compression, no metadata, no
//! versioned envelope beyond the magic — the encoding *is* the
//! contract, and the decode-fuzz suite pins its error behaviour.
//! `tests/chaos_repros.rs` replays every committed file under both
//! drivers on every CI run.

use crate::script::Scenario;
use pmp_trace::FlightEntry;
use pmp_wire::{Reader, Wire, Writer};

/// Per-node flight dumps as captured by the executor: `(sim node id,
/// ring contents oldest-first)`, bases first, then mobiles.
pub type FlightDump = Vec<(u32, Vec<FlightEntry>)>;

/// First bytes of a repro file (includes a trailing newline so the
/// file starts with a readable line).
pub const MAGIC: &[u8] = b"pmp-chaos-repro v2\n";

/// Serializes a scenario plus its flight-recorder dumps into repro
/// bytes.
#[must_use]
pub fn save(sc: &Scenario, flight: &FlightDump) -> Vec<u8> {
    let mut w = Writer::new();
    sc.encode(&mut w);
    flight.encode(&mut w);
    let mut out = Vec::from(MAGIC);
    out.extend_from_slice(&w.into_bytes());
    out
}

/// Parses repro bytes back into a scenario. Rejects a missing magic, a
/// decode failure, and trailing garbage — a repro that does not parse
/// exactly is a repro that cannot be trusted.
pub fn load(bytes: &[u8]) -> Result<Scenario, String> {
    load_full(bytes).map(|(sc, _)| sc)
}

/// Parses repro bytes back into a scenario plus its flight dumps. Same
/// strictness as [`load`].
pub fn load_full(bytes: &[u8]) -> Result<(Scenario, FlightDump), String> {
    let body = bytes
        .strip_prefix(MAGIC)
        .ok_or_else(|| "not a pmp-chaos repro (bad magic)".to_string())?;
    let mut r = Reader::new(body);
    let sc = Scenario::decode(&mut r).map_err(|e| format!("repro body did not decode: {e}"))?;
    let flight =
        FlightDump::decode(&mut r).map_err(|e| format!("repro flight did not decode: {e}"))?;
    r.finish()
        .map_err(|e| format!("repro has trailing bytes: {e}"))?;
    // Re-encode equality is the stronger self-check that the file is
    // canonical.
    if save(&sc, &flight) != bytes {
        return Err("repro body is not in canonical encoding".to_string());
    }
    Ok((sc, flight))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    #[test]
    fn save_load_roundtrips() {
        let sc = generate(9, &GenConfig::default());
        for flight in [FlightDump::new(), sample_flight()] {
            let bytes = save(&sc, &flight);
            assert!(bytes.starts_with(MAGIC));
            assert_eq!(load_full(&bytes).unwrap(), (sc.clone(), flight));
            // `load` hands back the scenario alone.
            assert_eq!(load(&bytes).unwrap(), sc);
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        // The retired scenario-only `v1` format included.
        let mut v1 = b"pmp-chaos-repro v1\n".to_vec();
        v1.extend_from_slice(&pmp_wire::to_bytes(&generate(5, &GenConfig::default())));
        for bytes in [b"something else".to_vec(), v1] {
            let err = load(&bytes).unwrap_err();
            assert!(err.contains("bad magic"), "{err}");
        }
    }

    #[test]
    fn truncated_body_is_rejected() {
        let sc = generate(5, &GenConfig::default());
        let bytes = save(&sc, &FlightDump::new());
        let err = load(&bytes[..bytes.len() - 3]).unwrap_err();
        assert!(err.contains("did not decode"), "{err}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let sc = generate(5, &GenConfig::default());
        for flight in [FlightDump::new(), sample_flight()] {
            let mut bytes = save(&sc, &flight);
            bytes.push(0);
            assert!(load(&bytes).is_err());
        }
    }

    fn sample_flight() -> FlightDump {
        vec![
            (
                0,
                vec![
                    FlightEntry::Span(pmp_trace::SpanRecord {
                        trace_id: (7 << 32) | 1,
                        span_id: (7 << 32) | 2,
                        parent_id: (7 << 32) | 1,
                        node: 7,
                        start: 1_000,
                        end: 1_000,
                        name: "midas.ship".to_string(),
                        detail: "logger:1".to_string(),
                    }),
                    FlightEntry::Span(pmp_trace::SpanRecord {
                        trace_id: (7 << 32) | 1,
                        span_id: (3 << 32) | 1,
                        parent_id: (7 << 32) | 2,
                        node: 3,
                        start: 2_000,
                        end: 2_000,
                        name: "midas.verify".to_string(),
                        detail: "logger:1 ok".to_string(),
                    }),
                ],
            ),
            (3, Vec::new()),
        ]
    }
}
