//! Key pairs for the Schnorr signature scheme.

use crate::group::{self, G, Q};
use crate::sha256::sha256_parts;
use crate::sign::{self, Signature};
use pmp_wire::{Reader, Wire, WireError, Writer};
use std::fmt;

/// A secret signing key: a nonzero scalar modulo the group order.
///
/// The `Debug` impl redacts the scalar so keys cannot leak via logs.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey(pub(crate) u64);

impl SecretKey {
    /// Derives a secret key deterministically from seed bytes.
    ///
    /// Hash-derived and reduced into `[1, Q-1]`, so any seed is valid.
    pub fn from_seed(seed: &[u8]) -> Self {
        let d = sha256_parts(&[b"pmp-secret-key", seed]);
        SecretKey(d.to_u64() % (Q - 1) + 1)
    }

    /// Computes the corresponding public key.
    pub fn public_key(&self) -> PublicKey {
        PublicKey(group::pow_mod(G, self.0))
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SecretKey(<redacted>)")
    }
}

/// A public verification key: a group element `g^sk mod P`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey(pub(crate) u64);

impl PublicKey {
    /// Raw group element, e.g. for display or identity derivation.
    pub fn element(&self) -> u64 {
        self.0
    }

    /// Verifies `sig` over `msg` against this key.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        sign::verify(self, msg, sig)
    }

    /// Returns `true` if the element is a valid member of the signing
    /// subgroup. Decoded keys from the network must be checked.
    pub fn is_valid(&self) -> bool {
        group::in_group(self.0)
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pk:{:016x}", self.0)
    }
}

impl Wire for PublicKey {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        let pk = PublicKey(r.get_u64()?);
        if pk.is_valid() {
            Ok(pk)
        } else {
            Err(WireError::Invalid {
                type_name: "PublicKey",
                reason: "element outside the signing subgroup",
            })
        }
    }
}

/// A secret/public key pair.
///
/// # Examples
///
/// ```
/// use pmp_crypto::KeyPair;
///
/// let pair = KeyPair::from_seed(b"robot:1:1");
/// let sig = pair.sign(b"hello");
/// assert!(pair.public_key().verify(b"hello", &sig));
/// ```
#[derive(Debug, Clone)]
pub struct KeyPair {
    secret: SecretKey,
    public: PublicKey,
}

impl KeyPair {
    /// Builds the pair for an existing secret key.
    pub fn new(secret: SecretKey) -> Self {
        let public = secret.public_key();
        Self { secret, public }
    }

    /// Derives a pair deterministically from seed bytes.
    pub fn from_seed(seed: &[u8]) -> Self {
        Self::new(SecretKey::from_seed(seed))
    }

    /// The public half.
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// The secret half.
    pub fn secret_key(&self) -> &SecretKey {
        &self.secret
    }

    /// Signs `msg` with the secret key (deterministic nonce).
    pub fn sign(&self, msg: &[u8]) -> Signature {
        sign::sign(&self.secret, msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_telemetry::SimRng;

    #[test]
    fn seed_determinism() {
        let a = KeyPair::from_seed(b"seed");
        let b = KeyPair::from_seed(b"seed");
        assert_eq!(a.public_key(), b.public_key());
        let c = KeyPair::from_seed(b"other");
        assert_ne!(a.public_key(), c.public_key());
    }

    #[test]
    fn public_key_is_group_member() {
        let pair = KeyPair::from_seed(b"x");
        assert!(pair.public_key().is_valid());
    }

    #[test]
    fn invalid_public_key_rejected_on_decode() {
        // 2 is not a quadratic residue mod P, so not in the subgroup.
        let bytes = pmp_wire::to_bytes(&2u64);
        assert!(pmp_wire::from_bytes::<PublicKey>(&bytes).is_err());
    }

    #[test]
    fn debug_redacts_secret() {
        let pair = KeyPair::from_seed(b"top secret");
        assert_eq!(format!("{:?}", pair.secret_key()), "SecretKey(<redacted>)");
    }

    #[test]
    fn prop_public_key_roundtrip() {
        for seed in 0..256 {
            let key_seed = SimRng::new(seed).bytes(1..32);
            let pk = KeyPair::from_seed(&key_seed).public_key();
            let bytes = pmp_wire::to_bytes(&pk);
            assert_eq!(pmp_wire::from_bytes(&bytes), Ok(pk), "seed {seed}");
        }
    }
}
