//! The trace context and the traced wire envelope.

use pmp_wire::{wire_struct, Reader, Wire, WireError, Writer};

/// A causal position inside one trace: the trace's root id plus the id
/// of the span that caused the current work. Both ids are deterministic
/// — `(origin node << 32) | per-node sequence` — and `0` is reserved as
/// the nil marker (per-node sequences start at 1, so no real span on
/// any node encodes to 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceCtx {
    /// Id of the trace (the root span's id).
    pub trace_id: u64,
    /// Id of the causing span.
    pub span_id: u64,
}

impl TraceCtx {
    /// The absent context: carried by untraced messages.
    pub const NIL: TraceCtx = TraceCtx {
        trace_id: 0,
        span_id: 0,
    };

    /// Whether this context is the nil marker.
    #[must_use]
    pub fn is_nil(&self) -> bool {
        *self == TraceCtx::NIL
    }

    /// Encodes `msg` with this context prepended — the borrow-friendly
    /// form of `pmp_wire::to_bytes(&Traced::new(*self, msg))`.
    #[must_use]
    pub fn wrap<T: Wire>(&self, msg: &T) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        msg.encode(&mut w);
        w.into_bytes()
    }
}

wire_struct!(TraceCtx {
    trace_id: u64,
    span_id: u64
});

/// A protocol message with its trace context: the on-wire form of every
/// MIDAS, discovery, tuple-space, and RPC payload. The context rides in
/// front of the message and is always present (16 fixed bytes), so
/// payload sizes do not depend on whether tracing is enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct Traced<T> {
    /// The causal context (`TraceCtx::NIL` when untraced).
    pub ctx: TraceCtx,
    /// The protocol message itself.
    pub msg: T,
}

impl<T> Traced<T> {
    /// Wraps `msg` with an explicit context.
    pub fn new(ctx: TraceCtx, msg: T) -> Traced<T> {
        Traced { ctx, msg }
    }

    /// Wraps `msg` with the nil context.
    pub fn nil(msg: T) -> Traced<T> {
        Traced {
            ctx: TraceCtx::NIL,
            msg,
        }
    }
}

impl<T: Wire> Wire for Traced<T> {
    fn encode(&self, w: &mut Writer) {
        self.ctx.encode(w);
        self.msg.encode(w);
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        Ok(Traced {
            ctx: TraceCtx::decode(r)?,
            msg: T::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nil_is_all_zeroes_and_sixteen_bytes() {
        let bytes = pmp_wire::to_bytes(&TraceCtx::NIL);
        assert_eq!(bytes, vec![0u8; 16]);
        assert!(TraceCtx::NIL.is_nil());
    }

    #[test]
    fn traced_roundtrips_and_length_ignores_ctx_value() {
        let live = Traced::new(
            TraceCtx {
                trace_id: (3u64 << 32) | 1,
                span_id: (3u64 << 32) | 7,
            },
            "payload".to_string(),
        );
        let nil = Traced::nil("payload".to_string());
        let lb = pmp_wire::to_bytes(&live);
        let nb = pmp_wire::to_bytes(&nil);
        assert_eq!(lb.len(), nb.len(), "ctx is fixed-width");
        assert_eq!(
            pmp_wire::from_bytes::<Traced<String>>(&lb).unwrap(),
            live
        );
        assert_eq!(pmp_wire::from_bytes::<Traced<String>>(&nb).unwrap(), nil);
        assert_eq!(live.ctx.wrap(&live.msg), lb, "wrap == to_bytes(Traced)");
    }
}
