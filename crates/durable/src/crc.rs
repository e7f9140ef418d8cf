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

/// An incremental CRC-32 hasher.
#[derive(Debug, Clone)]
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

    /// Deterministic test bytes (splitmix64).
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
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
