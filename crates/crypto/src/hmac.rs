//! HMAC-SHA256 (RFC 2104), used for deterministic nonce derivation and
//! keyed integrity checks.

use crate::sha256::{sha256, Digest, Sha256};

const BLOCK: usize = 64;

/// Computes HMAC-SHA256 of `msg` under `key`.
///
/// ```
/// let tag = pmp_crypto::hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert!(tag.to_string().starts_with("f7bc83f4"));
/// ```
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> Digest {
    let mut k = [0u8; BLOCK];
    if key.len() > BLOCK {
        k[..32].copy_from_slice(sha256(key).as_bytes());
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; BLOCK];
    let mut opad = [0x5cu8; BLOCK];
    for i in 0..BLOCK {
        ipad[i] ^= k[i];
        opad[i] ^= k[i];
    }
    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(msg);
    let inner_digest = inner.finalize();
    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(inner_digest.as_bytes());
    outer.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_telemetry::SimRng;

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            tag.to_string(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_string(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaa; 131];
        let tag = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            tag.to_string(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn keys_equal_after_zero_padding_are_one_key() {
        // RFC 2104 zero-pads a key to the block, so trailing zero bytes
        // do not change it.
        let msg = b"what do ya want for nothing?";
        assert_eq!(hmac_sha256(&[1], msg), hmac_sha256(&[1, 0], msg));
        assert_ne!(hmac_sha256(&[1], msg), hmac_sha256(&[1, 1], msg));
    }

    /// Cases per seeded property below.
    const CASES: u64 = 256;

    /// A short key as HMAC uses it: zero-padded to the block.
    fn padded(key: &[u8]) -> [u8; BLOCK] {
        let mut k = [0u8; BLOCK];
        k[..key.len()].copy_from_slice(key);
        k
    }

    /// Keys that differ after zero-padding give different tags: another
    /// key, one bit flipped, or one non-zero byte appended.
    #[test]
    fn prop_key_sensitivity() {
        for seed in 0..CASES {
            let mut rng = SimRng::new(seed);
            let k1 = rng.bytes(1..64);
            let mut k2 = k1.clone();
            match rng.range_u64(3) {
                0 => k2 = rng.bytes(1..64),
                1 => {
                    let i = rng.below(k2.len());
                    k2[i] ^= 1 << rng.below(8);
                }
                _ => k2.push(1 + rng.range_u64(255) as u8),
            }
            if padded(&k1) == padded(&k2) {
                continue; // one key, see the test above
            }
            let msg = rng.bytes(0..128);
            assert_ne!(
                hmac_sha256(&k1, &msg),
                hmac_sha256(&k2, &msg),
                "seed {seed}: {k1:?} vs {k2:?}"
            );
        }
    }

    #[test]
    fn prop_deterministic() {
        for seed in 0..CASES {
            let mut rng = SimRng::new(seed);
            let (key, msg) = (rng.bytes(0..200), rng.bytes(0..200));
            assert_eq!(
                hmac_sha256(&key, &msg),
                hmac_sha256(&key, &msg),
                "seed {seed}"
            );
        }
    }
}
