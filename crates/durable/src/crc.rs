//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`).
//!
//! Every WAL frame and snapshot file carries a CRC over its length
//! prefix *and* body, so any single corrupted byte — including one in
//! the length itself — is detectable before the wire decoder runs.
//!
//! The checksum runs slicing-by-8: eight lookup tables, built at
//! compile time, fold eight input bytes per step instead of one. Table
//! `k` advances a byte's contribution through `k` further zero bytes,
//! so the eight lookups of one step XOR to the same state the bytewise
//! loop reaches after those eight bytes.
//!
//! A checksum can also be *combined* instead of recomputed:
//! [`crc32_combine`] (zlib's algorithm) turns the CRCs of two byte runs
//! and the second run's length into the CRC of their concatenation in
//! O(log n) time, and [`Crc32::append_crc`] folds a run into a running
//! hasher by its CRC alone. A snapshot frame is checksummed this way:
//! each store hands over its blob's CRC, which the movement store keeps
//! up to date incrementally, so a checkpoint never reads the blobs
//! again just to checksum them.

const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// `a · b mod P` in GF(2)\[x\], both in the reflected bit order (the
/// top bit is x^0): one conditional XOR and one shift per bit of `a`.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0;
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
    p
}

/// `X2N[k]` is x^(2^k) mod P. The multiplicative order of x divides
/// 2^32 − 1, so x^(2^32) = x and the table repeats with period 32.
const fn build_x2n() -> [u32; 32] {
    let mut t = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        t[k] = p;
        p = multmodp(p, p);
        k += 1;
    }
    t
}

static X2N: [u32; 32] = build_x2n();

/// x^(8·len) mod P: the operator that advances a CRC over `len` zero
/// bytes, built from the squares in [`X2N`] by the bits of `len`.
fn x8nmodp(mut len: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut k = 3; // 8 = 2^3
    while len != 0 {
        if len & 1 != 0 {
            p = multmodp(X2N[k & 31], p);
        }
        len >>= 1;
        k += 1;
    }
    p
}

/// The CRC-32 of `a ++ b`, given `crc_a = crc32(a)`, `crc_b = crc32(b)`
/// and `len_b = b.len()`, without reading either run: O(log `len_b`)
/// GF(2) multiplies.
#[must_use]
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    multmodp(x8nmodp(len_b), crc_a) ^ crc_b
}

/// An incremental CRC-32 hasher.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh hasher.
    #[must_use]
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Feeds bytes into the checksum: eight bytes per step, then the
    /// last `len % 8` one at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut chunks = bytes.chunks_exact(8);
        let mut crc = self.state;
        for c in &mut chunks {
            let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][usize::from(c[4])]
                ^ t[2][usize::from(c[5])]
                ^ t[1][usize::from(c[6])]
                ^ t[0][usize::from(c[7])];
        }
        self.state = chunks.remainder().iter().fold(crc, |crc, &b| {
            (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize]
        });
    }

    /// Feeds in a run of `len` bytes whose CRC-32 is `crc`, without
    /// the bytes: the same state [`Crc32::update`] with them reaches.
    pub fn append_crc(&mut self, crc: u32, len: usize) {
        self.state = !crc32_combine(self.finish(), crc, len);
    }

    /// The final checksum.
    #[must_use]
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of a byte slice.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_telemetry::SimRng;

    #[test]
    fn known_vectors() {
        // Standard check value: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut h = Crc32::new();
        h.update(b"123");
        h.update(b"456789");
        assert_eq!(h.finish(), crc32(b"123456789"));
    }

    /// The bytewise table-driven CRC-32: the reference slicing-by-8
    /// must match.
    fn bytewise(state: u32, bytes: &[u8]) -> u32 {
        bytes.iter().fold(state, |crc, &b| {
            (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize]
        })
    }

    fn bytewise_crc32(bytes: &[u8]) -> u32 {
        !bytewise(!0, bytes)
    }

    /// Deterministic test bytes.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        SimRng::new(seed).bytes(len..len + 1)
    }

    #[test]
    fn the_first_table_is_the_bitwise_polynomial() {
        for i in 0..256u32 {
            let mut crc = i;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            assert_eq!(TABLES[0][i as usize], crc, "entry {i}");
        }
    }

    #[test]
    fn slicing_by_8_matches_bytewise_at_every_length_and_alignment() {
        let data = noise(64 + 8, 1);
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc32(slice),
                    bytewise_crc32(slice),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn split_updates_match_one_shot_and_bytewise() {
        let data = noise(257, 2);
        let whole = crc32(&data);
        assert_eq!(whole, bytewise_crc32(&data));
        for cut in [0, 1, 3, 7, 8, 9, 15, 16, 100, 255, 256, 257] {
            let mut h = Crc32::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finish(), whole, "cut {cut}");
        }
        let mut h = Crc32::new();
        for piece in data.chunks(5) {
            h.update(piece);
        }
        assert_eq!(h.finish(), whole, "5-byte pieces");
    }

    #[test]
    fn a_mebibyte_matches_bytewise() {
        let data = noise(1 << 20, 3);
        assert_eq!(crc32(&data), bytewise_crc32(&data));
    }

    #[test]
    fn combine_matches_one_shot_and_bytewise_at_every_split() {
        let data = noise(200, 4);
        let whole = crc32(&data);
        assert_eq!(whole, bytewise_crc32(&data));
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            let combined = crc32_combine(bytewise_crc32(a), bytewise_crc32(b), b.len());
            assert_eq!(combined, whole, "cut {cut}");
        }
    }

    #[test]
    fn combine_matches_one_shot_across_a_mebibyte() {
        let data = noise((1 << 20) + 13, 5);
        let (a, b) = data.split_at(13);
        assert_eq!(crc32_combine(crc32(a), crc32(b), b.len()), crc32(&data));
        let (a, b) = data.split_at(1 << 20);
        assert_eq!(crc32_combine(crc32(a), crc32(b), b.len()), crc32(&data));
    }

    #[test]
    fn appending_a_known_crc_matches_updating_with_the_bytes() {
        let data = noise(300, 6);
        for (head, mid) in [(0, 0), (0, 17), (5, 0), (5, 64), (100, 200)] {
            let (a, rest) = data.split_at(head);
            let (b, c) = rest.split_at(mid);
            let mut by_bytes = Crc32::new();
            by_bytes.update(a);
            let mut by_crc = by_bytes;
            by_bytes.update(b);
            by_crc.append_crc(crc32(b), b.len());
            assert_eq!(by_crc.finish(), by_bytes.finish(), "{head}+{mid}");
            by_bytes.update(c);
            by_crc.update(c);
            assert_eq!(by_crc.finish(), crc32(&data), "{head}+{mid}, then the rest");
        }
    }

    #[test]
    fn the_squares_table_is_repeated_multiplication_by_x() {
        // x^(2^k) by 2^k single-bit shifts (multiplications by x), for
        // the entries small enough to reach that way.
        let mut p = 1u32 << 31; // x^0
        for n in 1..=1u32 << 12 {
            p = if p & 1 != 0 { (p >> 1) ^ POLY } else { p >> 1 };
            if n.is_power_of_two() {
                assert_eq!(X2N[n.trailing_zeros() as usize], p, "x^{n}");
            }
        }
        assert_eq!(multmodp(X2N[31], X2N[31]), X2N[0], "x^(2^32) = x");
    }

    #[test]
    fn any_single_byte_flip_changes_the_checksum() {
        let data = b"the extension catalog of hall-a";
        let base = crc32(data);
        for i in 0..data.len() {
            let mut copy = data.to_vec();
            copy[i] ^= 0x40;
            assert_ne!(crc32(&copy), base, "flip at byte {i} went undetected");
        }
    }
}
