//! Arithmetic in a Schnorr group: the order-`Q` subgroup of the
//! multiplicative group modulo the 62-bit safe prime `P = 2Q + 1`.

/// The group modulus, a safe prime: `P = 2 * Q + 1`.
pub const P: u64 = 4_611_686_018_427_377_339; // 0x3fffffffffffd6bb

/// The prime order of the subgroup generated by [`G`].
pub const Q: u64 = 2_305_843_009_213_688_669; // (P - 1) / 2

/// Generator of the order-`Q` subgroup (a quadratic residue mod `P`).
pub const G: u64 = 4;

/// Multiplies two residues modulo [`P`] without overflow.
pub fn mul_mod(a: u64, b: u64) -> u64 {
    ((a as u128 * b as u128) % P as u128) as u64
}

/// Multiplies two scalars modulo [`Q`] without overflow.
pub fn mul_mod_q(a: u64, b: u64) -> u64 {
    ((a as u128 * b as u128) % Q as u128) as u64
}

/// Adds two scalars modulo [`Q`].
pub fn add_mod_q(a: u64, b: u64) -> u64 {
    (((a as u128) + (b as u128)) % Q as u128) as u64
}

/// Computes `base ^ exp (mod P)` by square-and-multiply.
pub fn pow_mod(mut base: u64, mut exp: u64) -> u64 {
    base %= P;
    let mut acc: u64 = 1;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base);
        }
        base = mul_mod(base, base);
        exp >>= 1;
    }
    acc
}

/// Computes the multiplicative inverse of `a` modulo [`P`].
///
/// # Panics
///
/// Panics if `a ≡ 0 (mod P)`, which has no inverse.
pub fn inv_mod(a: u64) -> u64 {
    assert!(!a.is_multiple_of(P), "zero has no multiplicative inverse");
    // Fermat: a^(P-2) mod P.
    pow_mod(a, P - 2)
}

/// Returns `true` if `x` is a member of the order-`Q` subgroup.
pub fn in_group(x: u64) -> bool {
    x != 0 && x < P && pow_mod(x, Q) == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_telemetry::SimRng;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(P, 2 * Q + 1);
        assert!(in_group(G));
        assert_ne!(pow_mod(G, 1), 1);
    }

    #[test]
    fn generator_has_order_q() {
        assert_eq!(pow_mod(G, Q), 1);
        // G^1 != 1 and Q is prime, so the order is exactly Q.
    }

    #[test]
    fn inverse_is_correct() {
        for a in [1u64, 2, 3, G, 12345, P - 1] {
            assert_eq!(mul_mod(a, inv_mod(a)), 1, "a = {a}");
        }
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn inverse_of_zero_panics() {
        inv_mod(0);
    }

    /// Cases per seeded property below.
    const CASES: u64 = 256;

    /// A value in `[1, n)`; one draw in four is an end of that range.
    fn nonzero_below(rng: &mut SimRng, n: u64) -> u64 {
        match rng.range_u64(8) {
            0 => 1,
            1 => n - 1,
            _ => 1 + rng.range_u64(n - 1),
        }
    }

    #[test]
    fn prop_pow_laws() {
        for seed in 0..CASES {
            let mut rng = SimRng::new(seed);
            let (a, b) = (nonzero_below(&mut rng, Q), nonzero_below(&mut rng, Q));
            // g^a * g^b == g^(a+b mod Q)
            let lhs = mul_mod(pow_mod(G, a), pow_mod(G, b));
            assert_eq!(lhs, pow_mod(G, add_mod_q(a, b)), "seed {seed}: a={a} b={b}");
        }
    }

    #[test]
    fn prop_pow_of_pow() {
        for seed in 0..CASES {
            let mut rng = SimRng::new(seed);
            let (a, b) = (nonzero_below(&mut rng, Q), nonzero_below(&mut rng, Q));
            // (g^a)^b == g^(a*b mod Q)
            let lhs = pow_mod(pow_mod(G, a), b);
            assert_eq!(lhs, pow_mod(G, mul_mod_q(a, b)), "seed {seed}: a={a} b={b}");
        }
    }

    #[test]
    fn prop_group_membership() {
        for seed in 0..CASES {
            let a = nonzero_below(&mut SimRng::new(seed), Q);
            assert!(in_group(pow_mod(G, a)), "seed {seed}: a={a}");
        }
    }

    #[test]
    fn prop_mul_commutes() {
        for seed in 0..CASES {
            let mut rng = SimRng::new(seed);
            let (a, b) = (nonzero_below(&mut rng, P), nonzero_below(&mut rng, P));
            assert_eq!(mul_mod(a, b), mul_mod(b, a), "seed {seed}: a={a} b={b}");
        }
    }
}
