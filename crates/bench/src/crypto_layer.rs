//! E11 — the crypto layer: Montgomery against division-based modular
//! exponentiation.
//!
//! `mod_pow` runs every odd modulus (RSA `n`, `p`, `q`) through Montgomery
//! multiplication; `mod_pow_division` is the long-division loop it replaced,
//! kept as the path for even moduli.  E11 times the same RSA work on both
//! paths at 512, 1024 and 2048 bits on one host, so the speedup ratio holds on
//! any host shape.
//!
//! `RsaPrivateKey` keeps its CRT parameters private, so the RSA rows run a
//! replica of its private operation ([`CrtKey`]) with the exponentiation
//! function as a parameter.  The replica's signatures and plaintexts are
//! checked byte for byte against the production API on both paths before
//! anything is timed.

use crate::ExperimentConfig;
use jxta_bigint::modular::{mod_inverse, mod_pow, mod_pow_division};
use jxta_bigint::BigUint;
use jxta_crypto::drbg::HmacDrbg;
use jxta_crypto::rsa::RsaKeyPair;
use serde::Serialize;
use std::time::Instant;

/// A modular exponentiation `base^exponent mod modulus`.
type PowFn = fn(&BigUint, &BigUint, &BigUint) -> BigUint;

/// The two paths E11 compares.
const PATHS: [(&str, PowFn); 2] = [("montgomery", mod_pow), ("division", mod_pow_division)];

/// One (key size, exponentiation path) row of E11, in microseconds per
/// operation (the fastest of five timed batches).
#[derive(Debug, Clone, Serialize)]
pub struct CryptoLayerRow {
    /// RSA modulus size.
    pub key_bits: usize,
    /// `"montgomery"` (what `mod_pow` runs for an odd modulus) or
    /// `"division"` (`mod_pow_division`).
    pub path: String,
    /// `m^65537 mod n`: the public operation.
    pub mod_pow_pub_us: f64,
    /// `m^d mod n` with the full-width private exponent (no CRT).
    pub mod_pow_priv_us: f64,
    /// RSASSA-PKCS1-v1_5 signature of an encoded message (CRT private
    /// operation; hashing and encoding cost the same on both paths and are
    /// left out).
    pub rsa_sign_us: f64,
    /// Signature verification (public operation + comparison with the
    /// encoded message).
    pub rsa_verify_us: f64,
    /// RSAES-PKCS1-v1_5 decryption of a wrapped 32-byte key (CRT private
    /// operation + unpadding).
    pub rsa_decrypt_us: f64,
}

/// Division-path time over Montgomery-path time for one key size (> 1 means
/// Montgomery is faster).
#[derive(Debug, Clone, Serialize)]
pub struct CryptoLayerSpeedup {
    /// RSA modulus size.
    pub key_bits: usize,
    /// Speedup of [`CryptoLayerRow::mod_pow_pub_us`].
    pub mod_pow_pub: f64,
    /// Speedup of [`CryptoLayerRow::mod_pow_priv_us`].
    pub mod_pow_priv: f64,
    /// Speedup of [`CryptoLayerRow::rsa_sign_us`].
    pub rsa_sign: f64,
    /// Speedup of [`CryptoLayerRow::rsa_verify_us`].
    pub rsa_verify: f64,
    /// Speedup of [`CryptoLayerRow::rsa_decrypt_us`].
    pub rsa_decrypt: f64,
}

/// Result of E11.
#[derive(Debug, Clone, Serialize)]
pub struct CryptoLayerResult {
    /// Always `"e11-crypto-layer"`.
    pub experiment: String,
    /// Whether the quick (fewer iterations) sweep ran.
    pub quick: bool,
    /// Cores of the measuring host (`available_parallelism`); every
    /// operation runs on one thread.
    pub host_cores: usize,
    /// Operations per timed batch at each key size (512, 1024, 2048 bits).
    pub iterations: Vec<usize>,
    /// One row per key size and path.
    pub rows: Vec<CryptoLayerRow>,
    /// One entry per key size.
    pub speedups: Vec<CryptoLayerSpeedup>,
}

/// The CRT form of an RSA private key, recovered from `(n, e, d)`.
struct CrtKey {
    n: BigUint,
    e: BigUint,
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
}

impl CrtKey {
    /// Factors `n` from the key pair's private exponent.  `e·d − 1 = 2^t·r`
    /// is a multiple of λ(n), so for a base g the sequence g^r, g^2r, …
    /// reaches 1; an element squaring to 1 that is neither 1 nor n − 1 is a
    /// non-trivial square root of 1, and its gcd with n is a prime factor.
    fn recover(pair: &RsaKeyPair) -> CrtKey {
        let (n, e, d) = (
            pair.public.modulus(),
            pair.public.exponent(),
            pair.private.private_exponent(),
        );
        let one = BigUint::one();
        let n_minus_1 = n - &one;
        let k = e * d - &one;
        let t = k
            .trailing_zeros()
            .expect("e·d − 1 is a non-zero even number");
        let r = &k >> t;
        for g in 2u64.. {
            let mut x = mod_pow(&BigUint::from(g), &r, n);
            for _ in 0..t {
                let y = (&x * &x) % n;
                if y.is_one() && !x.is_one() && x != n_minus_1 {
                    let p = (&x - &one).gcd(n);
                    let q = n / &p;
                    let qinv = mod_inverse(&q, &p).expect("distinct primes are coprime");
                    return CrtKey {
                        n: n.clone(),
                        e: e.clone(),
                        dp: d % &(&p - &one),
                        dq: d % &(&q - &one),
                        p,
                        q,
                        qinv,
                    };
                }
                x = y;
            }
        }
        unreachable!("half of all bases split n")
    }

    /// Modulus length in bytes.
    fn len(&self) -> usize {
        self.n.bits().div_ceil(8)
    }

    /// `c^d mod n` through the CRT, exactly as `RsaPrivateKey` computes it.
    fn private_op(&self, c: &BigUint, pow: PowFn) -> BigUint {
        let m1 = pow(&(c % &self.p), &self.dp, &self.p);
        let m2 = pow(&(c % &self.q), &self.dq, &self.q);
        let diff = if m1 >= m2 {
            &m1 - &m2
        } else {
            &self.p - ((&m2 - &m1) % &self.p)
        };
        let h = (&self.qinv * diff) % &self.p;
        &m2 + &h * &self.q
    }

    /// Signature over the encoded message `em`.
    fn sign(&self, em: &BigUint, pow: PowFn) -> Vec<u8> {
        self.private_op(em, pow).to_bytes_be_padded(self.len())
    }

    /// Whether `signature` opens to the encoded message `em`.
    fn verify(&self, em: &BigUint, signature: &[u8], pow: PowFn) -> bool {
        let s = BigUint::from_bytes_be(signature);
        s < self.n && pow(&s, &self.e, &self.n) == *em
    }

    /// RSAES-PKCS1-v1_5 decryption; `None` on bad padding.
    fn decrypt(&self, ciphertext: &[u8], pow: PowFn) -> Option<Vec<u8>> {
        let em = self
            .private_op(&BigUint::from_bytes_be(ciphertext), pow)
            .to_bytes_be_padded(self.len());
        if em[..2] != [0x00, 0x02] {
            return None;
        }
        let separator = em[2..].iter().position(|&b| b == 0)?;
        (separator >= 8).then(|| em[2 + separator + 1..].to_vec())
    }
}

/// Microseconds per call of `op` on each path of [`PATHS`]: the fastest of
/// five batches of `iterations` calls per path, after one warm-up call each.
/// The paths alternate batch by batch, so a slow spell on a shared host
/// lands on both of them rather than on one side of the ratio.
fn time_paths_us<T>(iterations: usize, mut op: impl FnMut(PowFn) -> T) -> [f64; 2] {
    let mut best = [f64::INFINITY; 2];
    for (_, pow) in PATHS {
        std::hint::black_box(op(pow));
    }
    for _ in 0..5 {
        for (slot, (_, pow)) in best.iter_mut().zip(PATHS) {
            let start = Instant::now();
            for _ in 0..iterations {
                std::hint::black_box(op(pow));
            }
            *slot = slot.min(start.elapsed().as_secs_f64() * 1e6 / iterations as f64);
        }
    }
    best
}

/// Measures both paths at one key size.  Panics if the replica disagrees
/// with the production RSA API on either path.
fn measure_crypto_layer(key_bits: usize, iterations: usize, seed: u64) -> [CryptoLayerRow; 2] {
    let mut rng = HmacDrbg::from_seed_u64(seed ^ key_bits as u64);
    let pair = RsaKeyPair::generate(&mut rng, key_bits).expect("E11 key generation");
    let key = CrtKey::recover(&pair);
    let public = &pair.public;
    let message = b"E11: one signature over a short message";
    let secret = [0x5au8; 32];
    let ciphertext = public
        .encrypt_pkcs1_v15(&mut rng, &secret)
        .expect("a 32-byte key fits every E11 modulus");
    let signature = pair
        .private
        .sign(message)
        .expect("signing with a valid key");
    public
        .verify(message, &signature)
        .expect("a fresh signature verifies");
    let base = BigUint::from_bytes_be(&signature);
    // The message's EMSA-PKCS1-v1_5 encoding, opened by the reference path.
    let em = mod_pow_division(&base, public.exponent(), public.modulus());
    for (path, pow) in PATHS {
        assert_eq!(key.sign(&em, pow), signature, "{path} signature differs");
        assert!(
            key.verify(&em, &signature, pow),
            "{path} rejects a valid signature"
        );
        assert_eq!(
            key.decrypt(&ciphertext, pow).as_deref(),
            Some(&secret[..]),
            "{path} decryption differs"
        );
    }

    let mod_pow_pub = time_paths_us(iterations * 8, |pow| {
        pow(&base, public.exponent(), public.modulus())
    });
    let mod_pow_priv = time_paths_us(iterations, |pow| {
        pow(&base, pair.private.private_exponent(), public.modulus())
    });
    let sign = time_paths_us(iterations, |pow| key.sign(&em, pow));
    let verify = time_paths_us(iterations * 8, |pow| key.verify(&em, &signature, pow));
    let decrypt = time_paths_us(iterations, |pow| key.decrypt(&ciphertext, pow));
    [0, 1].map(|i| CryptoLayerRow {
        key_bits,
        path: PATHS[i].0.to_string(),
        mod_pow_pub_us: mod_pow_pub[i],
        mod_pow_priv_us: mod_pow_priv[i],
        rsa_sign_us: sign[i],
        rsa_verify_us: verify[i],
        rsa_decrypt_us: decrypt[i],
    })
}

/// Runs E11 at 512, 1024 and 2048 bits, whatever `config.key_bits` says.
/// The quick sweep keeps every key size (CI gates on the 1024- and
/// 2048-bit ratios) and shortens the batches.
pub fn experiment_crypto_layer(config: &ExperimentConfig) -> CryptoLayerResult {
    let quick = config.iterations <= ExperimentConfig::quick().iterations;
    let sizes = [512usize, 1024, 2048];
    let iterations: Vec<usize> = if quick {
        vec![16, 4, 2]
    } else {
        vec![64, 16, 8]
    };
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for (&key_bits, &iters) in sizes.iter().zip(&iterations) {
        let [montgomery, division] = measure_crypto_layer(key_bits, iters, config.seed);
        speedups.push(CryptoLayerSpeedup {
            key_bits,
            mod_pow_pub: division.mod_pow_pub_us / montgomery.mod_pow_pub_us,
            mod_pow_priv: division.mod_pow_priv_us / montgomery.mod_pow_priv_us,
            rsa_sign: division.rsa_sign_us / montgomery.rsa_sign_us,
            rsa_verify: division.rsa_verify_us / montgomery.rsa_verify_us,
            rsa_decrypt: division.rsa_decrypt_us / montgomery.rsa_decrypt_us,
        });
        rows.push(montgomery);
        rows.push(division);
    }
    CryptoLayerResult {
        experiment: "e11-crypto-layer".to_string(),
        quick,
        host_cores: std::thread::available_parallelism().map_or(0, |cores| cores.get()),
        iterations,
        rows,
        speedups,
    }
}

/// Formats E11 as a text table.
pub fn format_crypto_layer_report(result: &CryptoLayerResult) -> String {
    let mut out = format!(
        "E11 — crypto layer: Montgomery vs division-based mod_pow (µs per op, {} host cores, one thread)\n\
         ----------------------------------------------------------------------------------------------\n\
         bits | path       | pow pub | pow priv |     sign |  verify |  decrypt\n",
        result.host_cores
    );
    for row in &result.rows {
        out.push_str(&format!(
            "{:>4} | {:<10} | {:>7.1} | {:>8.1} | {:>8.1} | {:>7.1} | {:>8.1}\n",
            row.key_bits,
            row.path,
            row.mod_pow_pub_us,
            row.mod_pow_priv_us,
            row.rsa_sign_us,
            row.rsa_verify_us,
            row.rsa_decrypt_us,
        ));
    }
    for s in &result.speedups {
        out.push_str(&format!(
            "{:>4} | speedup    | {:>6.2}x | {:>7.2}x | {:>7.2}x | {:>6.2}x | {:>7.2}x\n",
            s.key_bits, s.mod_pow_pub, s.mod_pow_priv, s.rsa_sign, s.rsa_verify, s.rsa_decrypt,
        ));
    }
    out
}

/// Writes the E11 result as machine-readable `BENCH_11.json` at the
/// workspace root.  Returns the path.
pub fn write_bench11_json(result: &CryptoLayerResult) -> std::io::Result<std::path::PathBuf> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()?
        .join("BENCH_11.json");
    let json = serde_json::to_string_pretty(result).expect("serialise E11 result");
    std::fs::write(&path, json)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crt_replica_matches_production_rsa_on_both_paths() {
        // `measure_crypto_layer` asserts byte equality with the production
        // API on both paths before it times anything.
        let rows = measure_crypto_layer(512, 1, 0xE11);
        assert_eq!(
            rows.each_ref().map(|row| row.path.as_str()),
            ["montgomery", "division"]
        );
        assert!(rows
            .iter()
            .all(|row| row.rsa_sign_us > 0.0 && row.mod_pow_priv_us > 0.0));
    }
}
