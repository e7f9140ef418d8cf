use crate::{Reader, WireError, Writer};
use std::collections::BTreeMap;

/// A value with a canonical wire encoding.
///
/// Implementations must be *canonical*: decoding the bytes produced by
/// `encode` yields an equal value, and equal values produce identical
/// bytes. The platform relies on this for signing extension packages.
///
/// # Examples
///
/// ```
/// use pmp_wire::{Wire, Writer, Reader, WireError};
///
/// struct Point { x: i64, y: i64 }
///
/// impl Wire for Point {
///     fn encode(&self, w: &mut Writer) {
///         w.put_vari64(self.x);
///         w.put_vari64(self.y);
///     }
///     fn decode(r: &mut Reader) -> Result<Self, WireError> {
///         Ok(Point { x: r.get_vari64()?, y: r.get_vari64()? })
///     }
/// }
/// ```
pub trait Wire {
    /// Appends the canonical encoding of `self` to `w`.
    fn encode(&self, w: &mut Writer);

    /// Decodes a value of this type from `r`.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] describing malformed input.
    fn decode(r: &mut Reader) -> Result<Self, WireError>
    where
        Self: Sized;

    /// Appends the elements of a `Vec<Self>` after its count prefix.
    /// The default encodes one element at a time; a type whose run
    /// encoding is its memory image (`u8`) copies the run whole.
    fn encode_run(items: &[Self], w: &mut Writer)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(w);
        }
    }

    /// Decodes the `len` elements of a `Vec<Self>` after its count
    /// prefix. An override must return the same value, or the same
    /// [`WireError`], as the default per-element loop, and leave the
    /// reader where the loop would.
    ///
    /// # Errors
    ///
    /// The first element's [`WireError`].
    fn decode_run(r: &mut Reader, len: usize) -> Result<Vec<Self>, WireError>
    where
        Self: Sized,
    {
        // One byte is the minimum encoding per element; a hostile count
        // can never force allocation beyond the remaining input.
        let mut out = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            out.push(Self::decode(r)?);
        }
        Ok(out)
    }
}

macro_rules! wire_int {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Wire for $ty {
            fn encode(&self, w: &mut Writer) {
                w.$put(*self);
            }
            fn decode(r: &mut Reader) -> Result<Self, WireError> {
                r.$get()
            }
        }
    };
}

impl Wire for u8 {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self);
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        r.get_u8()
    }
    fn encode_run(items: &[u8], w: &mut Writer) {
        w.put_raw(items);
    }
    fn decode_run(r: &mut Reader, len: usize) -> Result<Vec<u8>, WireError> {
        let have = r.remaining();
        if have < len {
            // Fail where the per-byte loop fails: after consuming the
            // rest of the input, one byte short.
            r.get_raw(have)?;
            return Err(WireError::UnexpectedEof {
                offset: r.pos(),
                needed: 1,
                have: 0,
            });
        }
        Ok(r.get_raw(len)?.to_vec())
    }
}

wire_int!(u16, put_u16, get_u16);
wire_int!(u32, put_u32, get_u32);
wire_int!(u64, put_u64, get_u64);
wire_int!(bool, put_bool, get_bool);
wire_int!(f64, put_f64, get_f64);

impl Wire for i64 {
    fn encode(&self, w: &mut Writer) {
        w.put_vari64(*self);
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        r.get_vari64()
    }
}

impl Wire for i32 {
    fn encode(&self, w: &mut Writer) {
        w.put_vari64(i64::from(*self));
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        let v = r.get_vari64()?;
        i32::try_from(v).map_err(|_| WireError::Invalid {
            type_name: "i32",
            reason: "value out of range",
        })
    }
}

impl Wire for usize {
    fn encode(&self, w: &mut Writer) {
        w.put_varu64(*self as u64);
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        let v = r.get_varu64()?;
        usize::try_from(v).map_err(|_| WireError::Invalid {
            type_name: "usize",
            reason: "value out of range",
        })
    }
}

impl Wire for String {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        r.get_str()
    }
}

/// Generic sequence encoding: count prefix, then the elements through
/// [`Wire::encode_run`]/[`Wire::decode_run`]. For `Vec<u8>` this is
/// byte-identical to [`Writer::put_bytes`] because a `u8` element
/// encodes as one raw byte, and the run moves as one copy.
impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_varu64(self.len() as u64);
        T::encode_run(self, w);
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        let len = r.get_len()?;
        T::decode_run(r, len)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut Writer) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(r.bad_tag("Option", tag)),
        }
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode(&self, w: &mut Writer) {
        w.put_varu64(self.len() as u64);
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        let len = r.get_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            if out.insert(k, v).is_some() {
                return Err(WireError::Invalid {
                    type_name: "BTreeMap",
                    reason: "duplicate key",
                });
            }
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

/// Implements [`Wire`] for a struct by listing its fields in order.
///
/// ```
/// use pmp_wire::{wire_struct, Wire};
///
/// #[derive(Debug, PartialEq, Clone)]
/// pub struct Beacon { pub id: u64, pub name: String }
/// wire_struct!(Beacon { id: u64, name: String });
///
/// let b = Beacon { id: 4, name: "base".into() };
/// let bytes = pmp_wire::to_bytes(&b);
/// assert_eq!(pmp_wire::from_bytes::<Beacon>(&bytes).unwrap(), b);
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($name:ident { $($field:ident : $ty:ty),* $(,)? }) => {
        impl $crate::Wire for $name {
            fn encode(&self, w: &mut $crate::Writer) {
                $( <$ty as $crate::Wire>::encode(&self.$field, w); )*
            }
            fn decode(r: &mut $crate::Reader) -> Result<Self, $crate::WireError> {
                Ok($name {
                    $( $field: <$ty as $crate::Wire>::decode(r)?, )*
                })
            }
        }
    };
}

/// Implements [`Wire`] for a tagged union by listing its variants in
/// wire order: `tag => Variant`, `tag => Variant(T)` or
/// `tag => Variant { field: T, .. }`. A value encodes as its `u8` tag
/// followed by its fields, each through its type's own [`Wire`] impl.
/// Decoding a tag that is not listed fails with
/// [`WireError::InvalidTag`] naming the type, so a retired variant's
/// tag stays reserved simply by leaving it out.
///
/// ```
/// use pmp_wire::{wire_enum, WireError};
///
/// #[derive(Debug, PartialEq, Clone)]
/// pub enum Signal { Idle, Level(u32), Move { x: i64, y: i64 } }
/// wire_enum!(Signal {
///     0 => Idle,
///     1 => Level(u32),
///     // Tag 2 is reserved.
///     3 => Move { x: i64, y: i64 },
/// });
///
/// let m = Signal::Move { x: -4, y: 300 };
/// let bytes = pmp_wire::to_bytes(&m);
/// assert_eq!(bytes[0], 3);
/// assert_eq!(pmp_wire::from_bytes::<Signal>(&bytes).unwrap(), m);
/// assert_eq!(
///     pmp_wire::from_bytes::<Signal>(&[2]),
///     Err(WireError::InvalidTag { type_name: "Signal", tag: 2, offset: 0 })
/// );
/// ```
#[macro_export]
macro_rules! wire_enum {
    // The bindings the arms share (`w`, `r`, the tuple field `v`) are
    // created here and handed to the helper rules, so hygiene lets the
    // helpers' expansions see each other's bindings.
    ($name:ident {
        $( $tag:literal => $variant:ident
            $( ( $ty:ty ) )?
            $( { $( $field:ident : $fty:ty ),* $(,)? } )?
        ),* $(,)?
    }) => {
        impl $crate::Wire for $name {
            fn encode(&self, w: &mut $crate::Writer) {
                match self {
                    $(
                        $crate::wire_enum!(@pat $name $variant v
                            $( ($ty) )? $( { $( $field : $fty ),* } )?) => {
                            w.put_u8($tag);
                            $crate::wire_enum!(@encode w v
                                $( ($ty) )? $( { $( $field : $fty ),* } )?);
                        }
                    )*
                }
            }
            fn decode(r: &mut $crate::Reader) -> Result<Self, $crate::WireError> {
                Ok(match r.get_u8()? {
                    $(
                        $tag => $crate::wire_enum!(@decode r $name $variant
                            $( ($ty) )? $( { $( $field : $fty ),* } )?),
                    )*
                    tag => return Err(r.bad_tag(stringify!($name), tag)),
                })
            }
        }
    };
    (@pat $name:ident $variant:ident $v:ident) => { $name::$variant };
    (@pat $name:ident $variant:ident $v:ident ($ty:ty)) => { $name::$variant($v) };
    (@pat $name:ident $variant:ident $v:ident { $( $field:ident : $fty:ty ),* }) => {
        $name::$variant { $( $field ),* }
    };
    (@encode $w:ident $v:ident) => {};
    (@encode $w:ident $v:ident ($ty:ty)) => { <$ty as $crate::Wire>::encode($v, $w) };
    (@encode $w:ident $v:ident { $( $field:ident : $fty:ty ),* }) => {
        $( <$fty as $crate::Wire>::encode($field, $w); )*
    };
    (@decode $r:ident $name:ident $variant:ident) => { $name::$variant };
    (@decode $r:ident $name:ident $variant:ident ($ty:ty)) => {
        $name::$variant(<$ty as $crate::Wire>::decode($r)?)
    };
    (@decode $r:ident $name:ident $variant:ident { $( $field:ident : $fty:ty ),* }) => {
        $name::$variant { $( $field: <$fty as $crate::Wire>::decode($r)?, )* }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_telemetry::SimRng;

    #[derive(Debug, PartialEq, Clone)]
    struct Sample {
        a: u32,
        b: String,
        c: Vec<u64>,
        d: Option<i64>,
    }
    wire_struct!(Sample {
        a: u32,
        b: String,
        c: Vec<u64>,
        d: Option<i64>
    });

    #[test]
    fn struct_macro_roundtrip() {
        let s = Sample {
            a: 9,
            b: "x".into(),
            c: vec![1, 2, 3],
            d: Some(-5),
        };
        let bytes = crate::to_bytes(&s);
        assert_eq!(crate::from_bytes::<Sample>(&bytes).unwrap(), s);
    }

    /// The reference the bulk `u8` run must match: a byte with only
    /// `encode`/`decode`, so its runs take the default per-element
    /// loop.
    #[derive(Debug, PartialEq, Clone, Copy)]
    struct LoopByte(u8);

    impl Wire for LoopByte {
        fn encode(&self, w: &mut Writer) {
            w.put_u8(self.0);
        }
        fn decode(r: &mut Reader) -> Result<Self, WireError> {
            r.get_u8().map(LoopByte)
        }
    }

    #[derive(Debug, PartialEq, Clone)]
    struct Blob {
        id: u32,
        payload: Vec<u8>,
        tail: String,
    }
    wire_struct!(Blob {
        id: u32,
        payload: Vec<u8>,
        tail: String
    });

    #[derive(Debug, PartialEq, Clone)]
    struct LoopBlob {
        id: u32,
        payload: Vec<LoopByte>,
        tail: String,
    }
    wire_struct!(LoopBlob {
        id: u32,
        payload: Vec<LoopByte>,
        tail: String
    });

    /// Decodes `bytes` as `T`, returning the result and where the
    /// reader stopped.
    fn decode_at<T: Wire>(bytes: &[u8]) -> (Result<T, WireError>, usize) {
        let mut r = Reader::new(bytes);
        let v = T::decode(&mut r);
        (v, r.pos())
    }

    /// Both codecs agree on `bytes` and on every prefix of it: the
    /// same value, or the same error at the same reader position.
    fn same_decodes<T: Wire + std::fmt::Debug, L: Wire + std::fmt::Debug>(
        bytes: &[u8],
        same: impl Fn(&T, &L) -> bool,
    ) {
        for cut in 0..=bytes.len() {
            let (bulk, bulk_pos) = decode_at::<T>(&bytes[..cut]);
            let (looped, loop_pos) = decode_at::<L>(&bytes[..cut]);
            match (&bulk, &looped) {
                (Ok(b), Ok(l)) => assert!(same(b, l), "cut {cut}: {b:?} vs {l:?}"),
                (Err(b), Err(l)) => assert_eq!(b, l, "cut {cut}"),
                _ => panic!("cut {cut}: {bulk:?} vs {looped:?}"),
            }
            assert_eq!(bulk_pos, loop_pos, "cut {cut}");
        }
    }

    #[test]
    fn byte_runs_match_the_per_element_codec() {
        for len in [0usize, 1, 7, 127, 128, 300] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let looped: Vec<LoopByte> = bytes.iter().copied().map(LoopByte).collect();
            let encoded = crate::to_bytes(&bytes);
            assert_eq!(encoded, crate::to_bytes(&looped), "len {len}");
            same_decodes::<Vec<u8>, Vec<LoopByte>>(&encoded, |b, l| {
                b.iter().copied().map(LoopByte).eq(l.iter().copied())
            });

            let blob = Blob {
                id: len as u32,
                payload: bytes,
                tail: "end".into(),
            };
            let loop_blob = LoopBlob {
                id: blob.id,
                payload: looped,
                tail: blob.tail.clone(),
            };
            let encoded = crate::to_bytes(&blob);
            assert_eq!(encoded, crate::to_bytes(&loop_blob), "len {len}");
            same_decodes::<Blob, LoopBlob>(&encoded, |b, l| {
                b.id == l.id
                    && b.tail == l.tail
                    && b.payload
                        .iter()
                        .copied()
                        .map(LoopByte)
                        .eq(l.payload.iter().copied())
            });
        }
    }

    #[test]
    fn duplicate_map_keys_rejected() {
        let mut w = Writer::new();
        w.put_varu64(2);
        w.put_str("k");
        w.put_u32(1);
        w.put_str("k");
        w.put_u32(2);
        let bytes = w.into_bytes();
        assert!(crate::from_bytes::<BTreeMap<String, u32>>(&bytes).is_err());
    }

    /// Cases per seeded property below.
    const CASES: u64 = 256;

    fn roundtrips<T: Wire + PartialEq + std::fmt::Debug>(v: &T, seed: u64) {
        let back = crate::from_bytes::<T>(&crate::to_bytes(v));
        assert_eq!(back.as_ref(), Ok(v), "seed {seed}");
    }

    #[test]
    fn prop_u64_roundtrip() {
        for seed in 0..CASES {
            roundtrips(&(SimRng::new(seed).any_i64() as u64), seed);
        }
    }

    #[test]
    fn prop_i64_roundtrip() {
        for seed in 0..CASES {
            roundtrips(&SimRng::new(seed).any_i64(), seed);
        }
    }

    #[test]
    fn prop_string_roundtrip() {
        for seed in 0..CASES {
            roundtrips(&SimRng::new(seed).string(0..64), seed);
        }
    }

    #[test]
    fn prop_bytes_roundtrip() {
        for seed in 0..CASES {
            roundtrips(&SimRng::new(seed).bytes(0..512), seed);
        }
    }

    #[test]
    fn prop_vec_string_roundtrip() {
        for seed in 0..CASES {
            let mut rng = SimRng::new(seed);
            let v: Vec<String> = (0..rng.below(16)).map(|_| rng.string(0..64)).collect();
            roundtrips(&v, seed);
        }
    }

    #[test]
    fn prop_map_roundtrip() {
        for seed in 0..CASES {
            let mut rng = SimRng::new(seed);
            let m: BTreeMap<u64, String> = (0..rng.below(16))
                .map(|_| (rng.any_i64() as u64, rng.string(0..64)))
                .collect();
            roundtrips(&m, seed);
        }
    }

    #[test]
    fn prop_decoding_random_bytes_never_panics() {
        for seed in 0..CASES {
            let b = SimRng::new(seed).bytes(0..256);
            let decode = std::panic::catch_unwind(|| {
                let _ = crate::from_bytes::<Sample>(&b);
                let _ = crate::from_bytes::<Vec<String>>(&b);
                let _ = crate::from_bytes::<BTreeMap<String, u64>>(&b);
            });
            assert!(decode.is_ok(), "seed {seed}: the decoder panicked");
        }
    }

    #[test]
    fn prop_canonical_equal_values_equal_bytes() {
        for seed in 0..CASES {
            let mut rng = SimRng::new(seed);
            let v1: Vec<i64> = (0..rng.below(32)).map(|_| rng.any_i64()).collect();
            let v2 = v1.clone();
            assert_eq!(crate::to_bytes(&v1), crate::to_bytes(&v2), "seed {seed}");
        }
    }
}
