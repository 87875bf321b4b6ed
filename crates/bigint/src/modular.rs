//! Modular arithmetic on [`BigUint`] values.
//!
//! Provides the operations RSA needs: modular addition/subtraction/
//! multiplication, modular exponentiation and modular inverse via the
//! extended Euclidean algorithm.
//!
//! [`mod_pow`] reduces each product of an odd modulus — every RSA modulus and
//! CRT prime, and every Miller–Rabin candidate — by Montgomery multiplication
//! (CIOS on `u64` limbs), which needs no division inside the loop.  Even
//! moduli take [`mod_pow_division`], a long division after every product.
//! Both walk the exponent left to right over a fixed 4-bit window; the
//! Montgomery path uses plain square-and-multiply for exponents of up to 32
//! bits (the public exponent 65537) instead.  Neither is constant-time.

use crate::BigUint;

/// `(a + b) mod m`.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn mod_add(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    assert!(!m.is_zero(), "modulus must be non-zero");
    (a + b) % m
}

/// `(a - b) mod m`, wrapping around the modulus when `b > a`.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn mod_sub(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    assert!(!m.is_zero(), "modulus must be non-zero");
    let a = a % m;
    let b = &(b % m);
    if &a >= b {
        a - b
    } else {
        a + m - b
    }
}

/// `(a * b) mod m`.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn mod_mul(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
    assert!(!m.is_zero(), "modulus must be non-zero");
    (a * b) % m
}

/// `base^exponent mod modulus`.
///
/// Odd moduli — every RSA modulus and CRT prime, and every Miller–Rabin
/// candidate — take the Montgomery path: each product is reduced by
/// word-sized shifts instead of a long division (Montgomery 1985), so a call
/// pays for one division in total (`R² mod modulus`).  Even moduli, which
/// have no Montgomery form, and the zero exponent take [`mod_pow_division`].
/// Exponents of up to 32 bits (the RSA public exponent 65537) use plain
/// square-and-multiply; longer ones a fixed 4-bit window.
///
/// Neither path is constant-time: the sequence of operations depends on the
/// exponent bits.
///
/// # Panics
///
/// Panics if `modulus` is zero.
pub fn mod_pow(base: &BigUint, exponent: &BigUint, modulus: &BigUint) -> BigUint {
    if modulus.is_even() || exponent.is_zero() {
        return mod_pow_division(base, exponent, modulus);
    }
    Montgomery::new(modulus).pow(&(base % modulus), exponent)
}

/// `base^exponent mod modulus` with a long division after every product,
/// over a left-to-right fixed 4-bit window of the exponent.
///
/// [`mod_pow`] uses this for even moduli, where Montgomery reduction does not
/// apply.  It is public as the reference the Montgomery path is tested and
/// benchmarked against.
///
/// # Panics
///
/// Panics if `modulus` is zero.
pub fn mod_pow_division(base: &BigUint, exponent: &BigUint, modulus: &BigUint) -> BigUint {
    assert!(!modulus.is_zero(), "modulus must be non-zero");
    if modulus.is_one() {
        return BigUint::zero();
    }
    if exponent.is_zero() {
        return BigUint::one();
    }
    let base = base % modulus;
    if base.is_zero() {
        return BigUint::zero();
    }

    // Precompute base^0 .. base^15 (mod modulus).
    const WINDOW: usize = 4;
    let mut table = Vec::with_capacity(1 << WINDOW);
    table.push(BigUint::one());
    table.push(base.clone());
    for i in 2..(1 << WINDOW) {
        table.push(mod_mul(&table[i - 1], &base, modulus));
    }

    let bits = exponent.bits();
    // Process the exponent in 4-bit windows, most-significant first.
    let mut result = BigUint::one();
    let windows = bits.div_ceil(WINDOW);
    for w in (0..windows).rev() {
        for _ in 0..WINDOW {
            result = mod_mul(&result, &result, modulus);
        }
        let mut digit = 0usize;
        for b in 0..WINDOW {
            let bit_index = w * WINDOW + (WINDOW - 1 - b);
            digit <<= 1;
            if bit_index < bits && exponent.bit(bit_index) {
                digit |= 1;
            }
        }
        if digit != 0 {
            result = mod_mul(&result, &table[digit], modulus);
        }
    }
    result
}

/// Montgomery arithmetic modulo an odd `m` of `s` limbs, with `R = 2^(64·s)`.
/// A value `x < m` is held in Montgomery form `x·R mod m` as exactly `s`
/// little-endian limbs.
struct Montgomery<'a> {
    modulus: &'a BigUint,
    /// `−m⁻¹ mod 2⁶⁴`.
    m_inv: u64,
    /// Product accumulator of `s + 1` limbs, reused by every multiply.
    t: Vec<u64>,
}

impl<'a> Montgomery<'a> {
    fn new(modulus: &'a BigUint) -> Self {
        let m = modulus.limbs();
        // Newton's iteration x ← x·(2 − m₀·x) doubles the number of correct
        // low bits of m₀⁻¹ each step: 1 → 64 bits in six steps.
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m[0].wrapping_mul(inv)));
        }
        Montgomery {
            modulus,
            m_inv: inv.wrapping_neg(),
            t: vec![0; m.len() + 1],
        }
    }

    /// `a·b·R⁻¹ mod m` for `a, b < m` of `s` limbs each (CIOS: the
    /// reduction of each row is interleaved with its multiplication).
    fn mul(&mut self, a: &[u64], b: &[u64]) -> &[u64] {
        let (m, m_inv) = (self.modulus.limbs(), self.m_inv);
        let s = m.len();
        // Exact-length views let the compiler drop the inner bounds checks.
        let (a, b, t) = (&a[..s], &b[..s], &mut self.t[..=s]);
        t.fill(0);
        for &ai in a {
            // Row i: t ← (t + ai·b + q·m) / 2⁶⁴, with q chosen so the low
            // limb of the sum is zero.  t < 2m holds throughout.
            let x = t[0] as u128 + ai as u128 * b[0] as u128;
            let q = (x as u64).wrapping_mul(m_inv);
            let y = (x as u64) as u128 + q as u128 * m[0] as u128;
            let (mut c1, mut c2) = ((x >> 64) as u64, (y >> 64) as u64);
            for j in 1..s {
                let x = t[j] as u128 + ai as u128 * b[j] as u128 + c1 as u128;
                let y = (x as u64) as u128 + q as u128 * m[j] as u128 + c2 as u128;
                t[j - 1] = y as u64;
                c1 = (x >> 64) as u64;
                c2 = (y >> 64) as u64;
            }
            let x = t[s] as u128 + c1 as u128 + c2 as u128;
            t[s - 1] = x as u64;
            t[s] = (x >> 64) as u64;
        }
        // t < 2m: at most one subtraction of m reduces it.
        if t[s] != 0 || t[..s].iter().rev().ge(m.iter().rev()) {
            let mut borrow = false;
            for (tj, &mj) in t.iter_mut().zip(m) {
                let (d, b1) = tj.overflowing_sub(mj);
                let (d, b2) = d.overflowing_sub(borrow as u64);
                *tj = d;
                borrow = b1 || b2;
            }
        }
        &self.t[..s]
    }

    /// `base^exponent mod m` for `base < m` and a non-zero exponent.
    fn pow(mut self, base: &BigUint, exponent: &BigUint) -> BigUint {
        let s = self.modulus.limbs().len();
        let limbs = |x: &BigUint| {
            let mut v = x.limbs().to_vec();
            v.resize(s, 0);
            v
        };
        // R² mod m is the call's only division: base·R = mul(base, R²).
        let r2 = limbs(&((BigUint::one() << (128 * s)) % self.modulus));

        // A window of one bit is plain square-and-multiply: enough for
        // exponents of up to 32 bits (65537), where a 16-entry table of
        // base powers would cost more products than it saves.
        let bits = exponent.bits();
        let window = if bits <= 32 { 1 } else { 4 };
        // table[d] = base^d·R for d in 1..2^window (table[0] unused).
        let mut table = vec![0u64; s << window];
        let product = self.mul(&limbs(base), &r2);
        table[s..2 * s].copy_from_slice(product);
        for d in 2..1 << window {
            let product = self.mul(&table[(d - 1) * s..d * s], &table[s..2 * s]);
            table[d * s..(d + 1) * s].copy_from_slice(product);
        }
        let digit = |w: usize| {
            (0..window).fold(0, |d, b| {
                d << 1 | exponent.bit(w * window + window - 1 - b) as usize
            })
        };
        // Left to right; the top window holds the top bit, so its digit is
        // non-zero and seeds the accumulator.
        let windows = bits.div_ceil(window);
        let top = digit(windows - 1);
        let mut acc = table[top * s..(top + 1) * s].to_vec();
        for w in (0..windows - 1).rev() {
            for _ in 0..window {
                let product = self.mul(&acc, &acc);
                acc.copy_from_slice(product);
            }
            let d = digit(w);
            if d != 0 {
                let product = self.mul(&acc, &table[d * s..(d + 1) * s]);
                acc.copy_from_slice(product);
            }
        }
        // Out of Montgomery form: acc·1·R⁻¹.
        let mut one = vec![0u64; s];
        one[0] = 1;
        BigUint::from_limbs(self.mul(&acc, &one).to_vec())
    }
}

/// Modular inverse: returns `x` such that `a * x ≡ 1 (mod m)`, or `None` if
/// `gcd(a, m) != 1`.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn mod_inverse(a: &BigUint, m: &BigUint) -> Option<BigUint> {
    assert!(!m.is_zero(), "modulus must be non-zero");
    if m.is_one() {
        return Some(BigUint::zero());
    }
    // Extended Euclid on (a mod m, m), tracking coefficients as
    // (sign, magnitude) pairs to stay within unsigned arithmetic.
    let mut r0 = a % m;
    let mut r1 = m.clone();
    // t coefficients such that t * a ≡ r (mod m)
    let mut t0 = (false, BigUint::one()); // +1
    let mut t1 = (false, BigUint::zero()); // 0

    while !r0.is_zero() {
        let (q, r) = r1.div_rem(&r0);
        // (t1 - q*t0, t0)
        let q_t0 = (t0.0, &q * &t0.1);
        let new_t = signed_sub(&t1, &q_t0);
        r1 = r0;
        r0 = r;
        t1 = t0;
        t0 = new_t;
    }

    if !r1.is_one() {
        return None;
    }
    // t1 is the Bezout coefficient for the original `a`.
    let (neg, mag) = t1;
    let mag = mag % m;
    Some(if neg && !mag.is_zero() { m - mag } else { mag })
}

/// Subtracts two signed magnitudes `(sign, magnitude)` where `sign == true`
/// means negative: returns `a - b`.
fn signed_sub(a: &(bool, BigUint), b: &(bool, BigUint)) -> (bool, BigUint) {
    match (a.0, b.0) {
        // a - b with both non-negative
        (false, false) => {
            if a.1 >= b.1 {
                (false, &a.1 - &b.1)
            } else {
                (true, &b.1 - &a.1)
            }
        }
        // a - (-b) = a + b
        (false, true) => (false, &a.1 + &b.1),
        // -a - b = -(a + b)
        (true, false) => (true, &a.1 + &b.1),
        // -a - (-b) = b - a
        (true, true) => {
            if b.1 >= a.1 {
                (false, &b.1 - &a.1)
            } else {
                (true, &a.1 - &b.1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(s: &str) -> BigUint {
        s.parse().unwrap()
    }

    #[test]
    fn mod_add_wraps() {
        let m = BigUint::from(7u64);
        assert_eq!(mod_add(&BigUint::from(5u64), &BigUint::from(6u64), &m), BigUint::from(4u64));
    }

    #[test]
    fn mod_sub_wraps_below_zero() {
        let m = BigUint::from(7u64);
        assert_eq!(mod_sub(&BigUint::from(2u64), &BigUint::from(5u64), &m), BigUint::from(4u64));
        assert_eq!(mod_sub(&BigUint::from(5u64), &BigUint::from(2u64), &m), BigUint::from(3u64));
        // Operands larger than the modulus are reduced first.
        assert_eq!(mod_sub(&BigUint::from(16u64), &BigUint::from(30u64), &m), BigUint::from(0u64));
    }

    #[test]
    fn mod_mul_small() {
        let m = BigUint::from(97u64);
        assert_eq!(
            mod_mul(&BigUint::from(96u64), &BigUint::from(96u64), &m),
            BigUint::from(1u64)
        );
    }

    #[test]
    fn mod_pow_small_known_values() {
        let m = BigUint::from(1_000_000_007u64);
        assert_eq!(
            mod_pow(&BigUint::from(2u64), &BigUint::from(10u64), &m),
            BigUint::from(1024u64)
        );
        // Fermat's little theorem: a^(p-1) ≡ 1 mod p for prime p.
        assert_eq!(
            mod_pow(&BigUint::from(12345u64), &BigUint::from(1_000_000_006u64), &m),
            BigUint::one()
        );
    }

    #[test]
    fn mod_pow_edge_cases() {
        let m = BigUint::from(13u64);
        assert_eq!(mod_pow(&BigUint::from(5u64), &BigUint::zero(), &m), BigUint::one());
        assert_eq!(mod_pow(&BigUint::zero(), &BigUint::from(5u64), &m), BigUint::zero());
        assert_eq!(
            mod_pow(&BigUint::from(5u64), &BigUint::from(3u64), &BigUint::one()),
            BigUint::zero()
        );
    }

    #[test]
    fn mod_pow_large_values() {
        // 2^255 - 19 arithmetic sanity check (the modulus of Curve25519).
        let p = (BigUint::one() << 255) - BigUint::from(19u64);
        let g = BigUint::from(9u64);
        // Euler: g^(p-1) ≡ 1 (mod p) since p is prime and gcd(9, p) = 1.
        let res = mod_pow(&g, &(&p - BigUint::one()), &p);
        assert_eq!(res, BigUint::one());
    }

    #[test]
    fn mod_pow_matches_naive() {
        let m = BigUint::from(65_537u64);
        let base = BigUint::from(31_337u64);
        for e in 0u64..40 {
            let expected = {
                let mut acc = BigUint::one();
                for _ in 0..e {
                    acc = mod_mul(&acc, &base, &m);
                }
                acc
            };
            assert_eq!(mod_pow(&base, &BigUint::from(e), &m), expected, "e = {e}");
        }
    }

    #[test]
    fn mod_pow_of_a_zero_divisor_reaches_zero() {
        // n = x², base = x: base^e ≡ 0 (mod n) for every e ≥ 2, so the
        // Montgomery accumulator must come out fully reduced to 0, not n.
        for x in [
            BigUint::from(3u64),
            (BigUint::one() << 1000) + BigUint::from(77u64),
        ] {
            let n = &x * &x;
            for e in [2u64, 3, 65_537, u64::MAX] {
                let e = BigUint::from(e);
                assert_eq!(mod_pow(&x, &e, &n), BigUint::zero());
                assert_eq!(mod_pow_division(&x, &e, &n), BigUint::zero());
            }
        }
    }

    #[test]
    fn mod_inverse_small() {
        let m = BigUint::from(17u64);
        for a in 1u64..17 {
            let inv = mod_inverse(&BigUint::from(a), &m).unwrap();
            assert_eq!(mod_mul(&BigUint::from(a), &inv, &m), BigUint::one(), "a = {a}");
        }
    }

    #[test]
    fn mod_inverse_none_when_not_coprime() {
        assert!(mod_inverse(&BigUint::from(6u64), &BigUint::from(9u64)).is_none());
        assert!(mod_inverse(&BigUint::zero(), &BigUint::from(9u64)).is_none());
    }

    #[test]
    fn mod_inverse_rsa_style() {
        // Typical RSA textbook example: p=61, q=53, n=3233, phi=3120, e=17, d=2753.
        let e = BigUint::from(17u64);
        let phi = BigUint::from(3120u64);
        let d = mod_inverse(&e, &phi).unwrap();
        assert_eq!(d, BigUint::from(2753u64));
    }

    #[test]
    fn mod_inverse_large() {
        let m = big("170141183460469231731687303715884105727"); // 2^127 - 1, a Mersenne prime
        let a = big("123456789012345678901234567890");
        let inv = mod_inverse(&a, &m).unwrap();
        assert_eq!(mod_mul(&a, &inv, &m), BigUint::one());
    }

    #[test]
    fn mod_inverse_of_one_is_one() {
        let m = BigUint::from(101u64);
        assert_eq!(mod_inverse(&BigUint::one(), &m), Some(BigUint::one()));
    }

    #[test]
    fn mod_inverse_modulus_one() {
        assert_eq!(mod_inverse(&BigUint::from(5u64), &BigUint::one()), Some(BigUint::zero()));
    }
}
