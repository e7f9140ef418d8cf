//! Deterministic Schnorr signatures over the [`crate::group`] subgroup.
//!
//! Signing: with secret key `x`, nonce `k = HMAC(x, msg) mod Q`,
//! commitment `R = g^k`, challenge `e = H(R ‖ pk ‖ msg) mod Q`, response
//! `s = k + e·x mod Q`. The signature is `(e, s)`.
//!
//! Verification recomputes `R' = g^s · pk^(−e)` and accepts iff
//! `H(R' ‖ pk ‖ msg) mod Q == e`.

use crate::group::{self, add_mod_q, mul_mod, mul_mod_q, pow_mod, G, Q};
use crate::hmac::hmac_sha256;
use crate::keys::{PublicKey, SecretKey};
use crate::sha256::sha256_parts;
use pmp_wire::wire_struct;

/// A Schnorr signature `(e, s)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Challenge scalar.
    pub e: u64,
    /// Response scalar.
    pub s: u64,
}

wire_struct!(Signature { e: u64, s: u64 });

fn challenge(r_commit: u64, pk: &PublicKey, msg: &[u8]) -> u64 {
    let d = sha256_parts(&[
        b"pmp-schnorr-challenge",
        &r_commit.to_be_bytes(),
        &pk.element().to_be_bytes(),
        msg,
    ]);
    d.to_u64() % Q
}

/// Signs `msg` under `secret`, with a deterministic (RFC-6979-style)
/// nonce so no randomness source is required.
pub fn sign(secret: &SecretKey, msg: &[u8]) -> Signature {
    let pk = secret.public_key();
    // Deterministic nonce bound to both key and message; never zero.
    let k = hmac_sha256(&secret.0.to_be_bytes(), msg).to_u64() % (Q - 1) + 1;
    let r_commit = pow_mod(G, k);
    let e = challenge(r_commit, &pk, msg);
    let s = add_mod_q(k, mul_mod_q(e, secret.0));
    Signature { e, s }
}

/// Verifies `sig` over `msg` against `pk`.
///
/// Returns `false` (never panics) for malformed scalars, keys outside the
/// subgroup, or any mismatch.
pub fn verify(pk: &PublicKey, msg: &[u8], sig: &Signature) -> bool {
    if !pk.is_valid() || sig.e >= Q || sig.s >= Q {
        return false;
    }
    // R' = g^s * (pk^e)^-1
    let r_prime = mul_mod(pow_mod(G, sig.s), group::inv_mod(pow_mod(pk.element(), sig.e)));
    challenge(r_prime, pk, msg) == sig.e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;
    use pmp_telemetry::SimRng;

    #[test]
    fn sign_verify_roundtrip() {
        let pair = KeyPair::from_seed(b"base-station");
        let sig = pair.sign(b"extension payload");
        assert!(verify(&pair.public_key(), b"extension payload", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let pair = KeyPair::from_seed(b"base-station");
        let sig = pair.sign(b"payload");
        assert!(!verify(&pair.public_key(), b"other payload", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let signer = KeyPair::from_seed(b"alice");
        let other = KeyPair::from_seed(b"mallory");
        let sig = signer.sign(b"msg");
        assert!(!verify(&other.public_key(), b"msg", &sig));
    }

    #[test]
    fn out_of_range_scalars_rejected() {
        let pair = KeyPair::from_seed(b"k");
        let mut sig = pair.sign(b"m");
        sig.e = Q; // out of range
        assert!(!verify(&pair.public_key(), b"m", &sig));
    }

    #[test]
    fn signature_is_deterministic() {
        let pair = KeyPair::from_seed(b"k");
        assert_eq!(pair.sign(b"m"), pair.sign(b"m"));
    }

    #[test]
    fn signature_wire_roundtrip() {
        let pair = KeyPair::from_seed(b"k");
        let sig = pair.sign(b"m");
        let bytes = pmp_wire::to_bytes(&sig);
        assert_eq!(pmp_wire::from_bytes::<Signature>(&bytes).unwrap(), sig);
    }

    /// Cases per seeded property below.
    const CASES: u64 = 256;

    #[test]
    fn prop_roundtrip() {
        for seed in 0..CASES {
            let mut rng = SimRng::new(seed);
            let pair = KeyPair::from_seed(&rng.bytes(1..16));
            let msg = rng.bytes(0..256);
            let sig = pair.sign(&msg);
            assert!(verify(&pair.public_key(), &msg, &sig), "seed {seed}");
        }
    }

    #[test]
    fn prop_tampered_message_rejected() {
        for seed in 0..CASES {
            let mut rng = SimRng::new(seed);
            let pair = KeyPair::from_seed(&rng.bytes(1..16));
            let msg = rng.bytes(1..256);
            let sig = pair.sign(&msg);
            let mut tampered = msg.clone();
            let i = rng.below(tampered.len());
            tampered[i] ^= 1 << rng.below(8);
            assert!(
                !verify(&pair.public_key(), &tampered, &sig),
                "seed {seed}: byte {i}"
            );
        }
    }

    #[test]
    fn prop_tampered_signature_rejected() {
        for seed in 0..CASES {
            let mut rng = SimRng::new(seed);
            let pair = KeyPair::from_seed(&rng.bytes(1..16));
            let msg = rng.bytes(0..128);
            let mut sig = pair.sign(&msg);
            let delta = 1 + rng.range_u64(999);
            sig.s = (sig.s + delta) % Q;
            assert!(
                !verify(&pair.public_key(), &msg, &sig),
                "seed {seed}: delta {delta}"
            );
        }
    }
}
