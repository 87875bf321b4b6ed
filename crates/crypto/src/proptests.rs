//! Property-based tests spanning the crypto primitives.

use crate::aes::{cbc_decrypt, cbc_encrypt, ctr_process, Aes};
use crate::base64;
use crate::drbg::HmacDrbg;
use crate::envelope::{open_envelope, seal_envelope};
use crate::hmac::hmac_sha256;
use crate::rsa::RsaKeyPair;
use crate::sha2::{sha256, sha512};
use jxta_bigint::modular::mod_pow_division;
use jxta_bigint::BigUint;
use proptest::prelude::*;
use std::sync::OnceLock;

/// RSA key generation is the most expensive part of these tests, so a single
/// 1024-bit pair is shared by every property case.
fn shared_keypair() -> &'static RsaKeyPair {
    static KP: OnceLock<RsaKeyPair> = OnceLock::new();
    KP.get_or_init(|| {
        let mut rng = HmacDrbg::from_seed_u64(0x9999_5eed);
        RsaKeyPair::generate(&mut rng, 1024).expect("keygen")
    })
}

/// One key pair per modulus size the Montgomery oracle covers, generated
/// once.
fn sized_keypairs() -> &'static [RsaKeyPair; 3] {
    static KPS: OnceLock<[RsaKeyPair; 3]> = OnceLock::new();
    KPS.get_or_init(|| {
        [512, 1024, 2048].map(|bits| {
            let mut rng = HmacDrbg::from_seed_u64(0x0dd_5eed ^ bits as u64);
            RsaKeyPair::generate(&mut rng, bits).expect("keygen")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn base64_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let encoded = base64::encode(&data);
        prop_assert_eq!(base64::decode(&encoded).unwrap(), data);
    }

    #[test]
    fn base64_output_alphabet(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let encoded = base64::encode(&data);
        prop_assert!(encoded.chars().all(|c| c.is_ascii_alphanumeric() || c == '+' || c == '/' || c == '='));
    }

    #[test]
    fn sha256_is_deterministic_and_sensitive(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(sha256(&data), sha256(&data));
        let mut flipped = data.clone();
        if !flipped.is_empty() {
            flipped[0] ^= 1;
            prop_assert_ne!(sha256(&flipped), sha256(&data));
            prop_assert_ne!(sha512(&flipped), sha512(&data));
        }
    }

    #[test]
    fn hmac_keys_partition_message_space(
        key1 in proptest::collection::vec(any::<u8>(), 1..64),
        key2 in proptest::collection::vec(any::<u8>(), 1..64),
        msg in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        if key1 != key2 {
            prop_assert_ne!(hmac_sha256(&key1, &msg), hmac_sha256(&key2, &msg));
        } else {
            prop_assert_eq!(hmac_sha256(&key1, &msg), hmac_sha256(&key2, &msg));
        }
    }

    #[test]
    fn aes_ctr_roundtrip(
        key in proptest::collection::vec(any::<u8>(), 32..=32),
        nonce in proptest::array::uniform16(any::<u8>()),
        data in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let aes = Aes::new(&key).unwrap();
        let mut buf = data.clone();
        ctr_process(&aes, &nonce, &mut buf);
        ctr_process(&aes, &nonce, &mut buf);
        prop_assert_eq!(buf, data);
    }

    #[test]
    fn aes_cbc_roundtrip(
        key in proptest::collection::vec(any::<u8>(), 16..=16),
        iv in proptest::array::uniform16(any::<u8>()),
        data in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let aes = Aes::new(&key).unwrap();
        let ct = cbc_encrypt(&aes, &iv, &data);
        prop_assert_eq!(cbc_decrypt(&aes, &iv, &ct).unwrap(), data);
    }

    #[test]
    fn rsa_sign_verify_roundtrip(msg in proptest::collection::vec(any::<u8>(), 0..512)) {
        let kp = shared_keypair();
        let sig = kp.private.sign(&msg).unwrap();
        prop_assert!(kp.public.verify(&msg, &sig).is_ok());
        // A different message never verifies.
        let mut other = msg.clone();
        other.push(0x42);
        prop_assert!(kp.public.verify(&other, &sig).is_err());
    }

    #[test]
    fn rsa_pkcs1_encrypt_decrypt_roundtrip(
        msg in proptest::collection::vec(any::<u8>(), 0..100),
        seed in any::<u64>(),
    ) {
        let kp = shared_keypair();
        let mut rng = HmacDrbg::from_seed_u64(seed);
        let ct = kp.public.encrypt_pkcs1_v15(&mut rng, &msg).unwrap();
        prop_assert_eq!(kp.private.decrypt_pkcs1_v15(&ct).unwrap(), msg);
    }

    #[test]
    fn rsa_oaep_encrypt_decrypt_roundtrip(
        msg in proptest::collection::vec(any::<u8>(), 0..60),
        seed in any::<u64>(),
    ) {
        let kp = shared_keypair();
        let mut rng = HmacDrbg::from_seed_u64(seed);
        let ct = kp.public.encrypt_oaep(&mut rng, &msg).unwrap();
        prop_assert_eq!(kp.private.decrypt_oaep(&ct).unwrap(), msg);
    }

    #[test]
    fn envelope_roundtrip_and_serialisation(
        msg in proptest::collection::vec(any::<u8>(), 0..2048),
        seed in any::<u64>(),
    ) {
        let kp = shared_keypair();
        let mut rng = HmacDrbg::from_seed_u64(seed);
        let env = seal_envelope(&mut rng, &kp.public, &msg).unwrap();
        prop_assert_eq!(open_envelope(&kp.private, &env).unwrap(), msg.clone());
        let parsed = crate::envelope::Envelope::from_bytes(&env.to_bytes()).unwrap();
        prop_assert_eq!(open_envelope(&kp.private, &parsed).unwrap(), msg);
    }

    #[test]
    fn envelope_tampering_always_detected(
        msg in proptest::collection::vec(any::<u8>(), 1..256),
        flip_byte in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let kp = shared_keypair();
        let mut rng = HmacDrbg::from_seed_u64(seed);
        let env = seal_envelope(&mut rng, &kp.public, &msg).unwrap();
        let mut bytes = env.to_bytes();
        // Flip one bit somewhere in the serialised envelope (skipping the
        // 4-byte magic so parsing still succeeds structurally or fails —
        // either way the plaintext must never silently change).
        let idx = 4 + (flip_byte as usize % (bytes.len() - 4));
        bytes[idx] ^= 0x01;
        if let Ok(tampered) = crate::envelope::Envelope::from_bytes(&bytes) {
            if let Ok(pt) = open_envelope(&kp.private, &tampered) {
                prop_assert_ne!(pt, msg);
            }
        }
    }

    #[test]
    fn drbg_streams_differ_across_seeds(seed1 in any::<u64>(), seed2 in any::<u64>()) {
        let mut a = HmacDrbg::from_seed_u64(seed1);
        let mut b = HmacDrbg::from_seed_u64(seed2);
        let va = a.generate_vec(32);
        let vb = b.generate_vec(32);
        if seed1 == seed2 {
            prop_assert_eq!(va, vb);
        } else {
            prop_assert_ne!(va, vb);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// RSA on the Montgomery path round-trips at 512, 1024 and 2048 bits
    /// (OAEP at the two sizes it fits), and every signature also checks out
    /// under the division-based reference exponentiation.
    #[test]
    fn rsa_roundtrips_at_every_key_size(
        msg in proptest::collection::vec(any::<u8>(), 0..60),
        seed in any::<u64>(),
    ) {
        let mut rng = HmacDrbg::from_seed_u64(seed);
        for kp in sized_keypairs() {
            let k = kp.public.modulus_len();
            let sig = kp.private.sign(&msg).unwrap();
            prop_assert!(kp.public.verify(&msg, &sig).is_ok());
            let em = mod_pow_division(
                &BigUint::from_bytes_be(&sig),
                kp.public.exponent(),
                kp.public.modulus(),
            )
            .to_bytes_be_padded(k);
            prop_assert_eq!(&em[..2], &[0x00, 0x01]);
            prop_assert_eq!(&em[k - 32..], &sha256(&msg)[..]);

            let ct = kp.public.encrypt_pkcs1_v15(&mut rng, &msg).unwrap();
            prop_assert_eq!(kp.private.decrypt_pkcs1_v15(&ct).unwrap(), msg.clone());
            // OAEP-SHA-256 needs 2·32 + 2 bytes of overhead: not at 512 bits.
            if k >= 66 + msg.len() {
                let ct = kp.public.encrypt_oaep(&mut rng, &msg).unwrap();
                prop_assert_eq!(kp.private.decrypt_oaep(&ct).unwrap(), msg.clone());
            }
        }
    }
}
