//! The AES block cipher (FIPS-197) with CTR and CBC modes of operation.
//!
//! AES supplies the data-encapsulation half of the wrapped-key encryption
//! scheme (`E_PK(x)` in the paper): the bulk of a secure message is encrypted
//! under a fresh AES-256 key in CTR mode, and only that key is wrapped with
//! RSA.  CBC with PKCS#7 padding is also provided because it is what JXTA's
//! own TLS transport uses, and it is exercised by the ablation benchmarks.
//!
//! Encryption — the only direction CTR mode uses — runs on four 1 KiB
//! round tables that fold SubBytes, ShiftRows and MixColumns into one
//! lookup per state byte, on 32-bit column words.  Decryption (CBC only)
//! keeps the byte-wise textbook rounds.  Neither is hardened against
//! cache-timing side channels (the simulator does not need that); both are
//! fully compatible with the standard test vectors.

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;

/// Errors produced by the block-cipher modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AesError {
    /// The provided key has an unsupported length (only 16 or 32 bytes).
    InvalidKeyLength(usize),
    /// Ciphertext length is not a multiple of the block size (CBC only).
    InvalidCiphertextLength(usize),
    /// PKCS#7 padding is malformed after decryption.
    InvalidPadding,
}

impl std::fmt::Display for AesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AesError::InvalidKeyLength(n) => {
                write!(f, "unsupported AES key length {n} (expected 16 or 32 bytes)")
            }
            AesError::InvalidCiphertextLength(n) => {
                write!(f, "ciphertext length {n} is not a multiple of the AES block size")
            }
            AesError::InvalidPadding => write!(f, "invalid PKCS#7 padding"),
        }
    }
}

impl std::error::Error for AesError {}

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

const RCON: [u8; 15] = [
    0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d, 0x9a,
];

#[inline]
const fn xtime(x: u8) -> u8 {
    (x << 1) ^ (((x >> 7) & 1) * 0x1b)
}

#[inline]
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// Encryption round tables.  `TE[0][x]` is the MixColumns image of the
/// column `(S(x), 0, 0, 0)` as a big-endian word `(2·S(x), S(x), S(x),
/// 3·S(x))`; `TE[r]` is the same for a byte in row `r`, i.e. `TE[0]`
/// rotated right by `8·r` bits.
const TE: [[u32; 256]; 4] = {
    let mut te = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let column = u32::from_be_bytes([xtime(s), s, s, xtime(s) ^ s]);
        te[0][i] = column;
        te[1][i] = column.rotate_right(8);
        te[2][i] = column.rotate_right(16);
        te[3][i] = column.rotate_right(24);
        i += 1;
    }
    te
};

/// Supported AES key sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeySize {
    /// AES-128 (10 rounds).
    Aes128,
    /// AES-256 (14 rounds).
    Aes256,
}

/// An expanded AES key usable for block encryption and decryption.
#[derive(Clone)]
pub struct Aes {
    round_keys: Vec<[u8; 16]>,
    /// `round_keys` as big-endian column words, for the table rounds.
    round_words: Vec<[u32; 4]>,
    rounds: usize,
}

impl Aes {
    /// Expands a 16-byte (AES-128) or 32-byte (AES-256) key.
    pub fn new(key: &[u8]) -> Result<Self, AesError> {
        let (nk, rounds) = match key.len() {
            16 => (4usize, 10usize),
            32 => (8usize, 14usize),
            other => return Err(AesError::InvalidKeyLength(other)),
        };

        // Key expansion into 4-byte words.
        let nwords = 4 * (rounds + 1);
        let mut words: Vec<[u8; 4]> = Vec::with_capacity(nwords);
        for chunk in key.chunks_exact(4) {
            words.push([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in nk..nwords {
            let mut temp = words[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / nk - 1];
            } else if nk > 6 && i % nk == 4 {
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
            }
            let prev = words[i - nk];
            words.push([
                prev[0] ^ temp[0],
                prev[1] ^ temp[1],
                prev[2] ^ temp[2],
                prev[3] ^ temp[3],
            ]);
        }

        let mut round_keys = Vec::with_capacity(rounds + 1);
        for r in 0..=rounds {
            let mut rk = [0u8; 16];
            for c in 0..4 {
                rk[c * 4..(c + 1) * 4].copy_from_slice(&words[r * 4 + c]);
            }
            round_keys.push(rk);
        }
        let round_words = round_keys.iter().map(columns).collect();
        Ok(Aes {
            round_keys,
            round_words,
            rounds,
        })
    }

    /// Returns the key size variant of this expanded key.
    pub fn key_size(&self) -> KeySize {
        if self.rounds == 10 {
            KeySize::Aes128
        } else {
            KeySize::Aes256
        }
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        let keys = &self.round_words;
        let mut state = columns(block);
        for (word, key) in state.iter_mut().zip(keys[0]) {
            *word ^= key;
        }
        // Column c of the next state takes row r from column c + r (ShiftRows).
        for key in &keys[1..self.rounds] {
            let s = state;
            for c in 0..4 {
                state[c] = TE[0][(s[c] >> 24) as usize]
                    ^ TE[1][(s[(c + 1) % 4] >> 16 & 0xff) as usize]
                    ^ TE[2][(s[(c + 2) % 4] >> 8 & 0xff) as usize]
                    ^ TE[3][(s[(c + 3) % 4] & 0xff) as usize]
                    ^ key[c];
            }
        }
        // The last round has no MixColumns: plain S-box bytes.
        let key = keys[self.rounds];
        for c in 0..4 {
            let column = [
                SBOX[(state[c] >> 24) as usize],
                SBOX[(state[(c + 1) % 4] >> 16 & 0xff) as usize],
                SBOX[(state[(c + 2) % 4] >> 8 & 0xff) as usize],
                SBOX[(state[(c + 3) % 4] & 0xff) as usize],
            ];
            let word = u32::from_be_bytes(column) ^ key[c];
            block[c * 4..c * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
    }

    /// Decrypts one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        add_round_key(block, &self.round_keys[self.rounds]);
        for round in (1..self.rounds).rev() {
            inv_shift_rows(block);
            inv_sub_bytes(block);
            add_round_key(block, &self.round_keys[round]);
            inv_mix_columns(block);
        }
        inv_shift_rows(block);
        inv_sub_bytes(block);
        add_round_key(block, &self.round_keys[0]);
    }
}

/// A 16-byte state or round key as four big-endian column words.
#[inline]
fn columns(bytes: &[u8; 16]) -> [u32; 4] {
    std::array::from_fn(|c| u32::from_be_bytes(bytes[c * 4..c * 4 + 4].try_into().expect("4 bytes")))
}

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

#[inline]
fn inv_sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

/// State layout: column-major, i.e. state[c*4 + r] is row r, column c.
#[inline]
fn inv_shift_rows(state: &mut [u8; 16]) {
    // Row 1: shift right by 1.
    let t = state[13];
    state[13] = state[9];
    state[9] = state[5];
    state[5] = state[1];
    state[1] = t;
    // Row 2: shift by 2 (self-inverse).
    state.swap(2, 10);
    state.swap(6, 14);
    // Row 3: shift right by 3 (= left by 1).
    let t = state[3];
    state[3] = state[7];
    state[7] = state[11];
    state[11] = state[15];
    state[15] = t;
}

#[inline]
fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [state[c * 4], state[c * 4 + 1], state[c * 4 + 2], state[c * 4 + 3]];
        state[c * 4] =
            gf_mul(col[0], 0x0e) ^ gf_mul(col[1], 0x0b) ^ gf_mul(col[2], 0x0d) ^ gf_mul(col[3], 0x09);
        state[c * 4 + 1] =
            gf_mul(col[0], 0x09) ^ gf_mul(col[1], 0x0e) ^ gf_mul(col[2], 0x0b) ^ gf_mul(col[3], 0x0d);
        state[c * 4 + 2] =
            gf_mul(col[0], 0x0d) ^ gf_mul(col[1], 0x09) ^ gf_mul(col[2], 0x0e) ^ gf_mul(col[3], 0x0b);
        state[c * 4 + 3] =
            gf_mul(col[0], 0x0b) ^ gf_mul(col[1], 0x0d) ^ gf_mul(col[2], 0x09) ^ gf_mul(col[3], 0x0e);
    }
}

// ----------------------------------------------------------------------
// Modes of operation
// ----------------------------------------------------------------------

/// Encrypts or decrypts `data` in place with AES-CTR (the operation is its
/// own inverse).  The 16-byte `nonce` forms the initial counter block; the
/// counter occupies the last 8 bytes (big-endian).
pub fn ctr_process(aes: &Aes, nonce: &[u8; BLOCK_LEN], data: &mut [u8]) {
    let mut counter_block = *nonce;
    let mut counter: u64 = u64::from_be_bytes(counter_block[8..].try_into().expect("8 bytes"));
    for chunk in data.chunks_mut(BLOCK_LEN) {
        counter_block[8..].copy_from_slice(&counter.to_be_bytes());
        let mut keystream = counter_block;
        aes.encrypt_block(&mut keystream);
        for (d, k) in chunk.iter_mut().zip(keystream.iter()) {
            *d ^= k;
        }
        counter = counter.wrapping_add(1);
    }
}

/// Encrypts `plaintext` with AES-CBC and PKCS#7 padding.
pub fn cbc_encrypt(aes: &Aes, iv: &[u8; BLOCK_LEN], plaintext: &[u8]) -> Vec<u8> {
    let pad_len = BLOCK_LEN - (plaintext.len() % BLOCK_LEN);
    let mut padded = Vec::with_capacity(plaintext.len() + pad_len);
    padded.extend_from_slice(plaintext);
    padded.extend(std::iter::repeat_n(pad_len as u8, pad_len));

    let mut prev = *iv;
    for block in padded.chunks_exact_mut(BLOCK_LEN) {
        let mut b = [0u8; BLOCK_LEN];
        b.copy_from_slice(block);
        for i in 0..BLOCK_LEN {
            b[i] ^= prev[i];
        }
        aes.encrypt_block(&mut b);
        block.copy_from_slice(&b);
        prev = b;
    }
    padded
}

/// Decrypts AES-CBC ciphertext and strips PKCS#7 padding.
pub fn cbc_decrypt(aes: &Aes, iv: &[u8; BLOCK_LEN], ciphertext: &[u8]) -> Result<Vec<u8>, AesError> {
    if ciphertext.is_empty() || !ciphertext.len().is_multiple_of(BLOCK_LEN) {
        return Err(AesError::InvalidCiphertextLength(ciphertext.len()));
    }
    let mut out = Vec::with_capacity(ciphertext.len());
    let mut prev = *iv;
    for block in ciphertext.chunks_exact(BLOCK_LEN) {
        let mut b = [0u8; BLOCK_LEN];
        b.copy_from_slice(block);
        let cipher_copy = b;
        aes.decrypt_block(&mut b);
        for i in 0..BLOCK_LEN {
            b[i] ^= prev[i];
        }
        out.extend_from_slice(&b);
        prev = cipher_copy;
    }
    // Strip PKCS#7 padding.
    let pad = *out.last().expect("non-empty") as usize;
    if pad == 0 || pad > BLOCK_LEN || pad > out.len() {
        return Err(AesError::InvalidPadding);
    }
    if !out[out.len() - pad..].iter().all(|&b| b as usize == pad) {
        return Err(AesError::InvalidPadding);
    }
    out.truncate(out.len() - pad);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn fips197_aes128_block() {
        // FIPS-197 Appendix B.
        let key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
        let aes = Aes::new(&key).unwrap();
        let mut block: [u8; 16] = from_hex("3243f6a8885a308d313198a2e0370734").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("3925841d02dc09fbdc118597196a0b32"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("3243f6a8885a308d313198a2e0370734"));
    }

    #[test]
    fn fips197_aes128_appendix_c1() {
        let key = from_hex("000102030405060708090a0b0c0d0e0f");
        let aes = Aes::new(&key).unwrap();
        let mut block: [u8; 16] = from_hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    #[test]
    fn fips197_aes256_appendix_c3() {
        let key = from_hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
        let aes = Aes::new(&key).unwrap();
        assert_eq!(aes.key_size(), KeySize::Aes256);
        let mut block: [u8; 16] = from_hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        aes.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("8ea2b7ca516745bfeafc49904b496089"));
        aes.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), from_hex("00112233445566778899aabbccddeeff"));
    }

    #[test]
    fn invalid_key_lengths_rejected() {
        assert!(matches!(Aes::new(&[0u8; 15]), Err(AesError::InvalidKeyLength(15))));
        assert!(matches!(Aes::new(&[0u8; 24]), Err(AesError::InvalidKeyLength(24))));
        assert!(matches!(Aes::new(&[0u8; 0]), Err(AesError::InvalidKeyLength(0))));
    }

    #[test]
    fn ctr_roundtrip_various_lengths() {
        let key = from_hex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
        let aes = Aes::new(&key).unwrap();
        let nonce = [7u8; 16];
        for len in [0usize, 1, 15, 16, 17, 64, 1000] {
            let original: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut data = original.clone();
            ctr_process(&aes, &nonce, &mut data);
            if len > 0 {
                assert_ne!(data, original, "len {len} should be scrambled");
            }
            ctr_process(&aes, &nonce, &mut data);
            assert_eq!(data, original, "len {len} roundtrip");
        }
    }

    #[test]
    fn ctr_different_nonces_give_different_ciphertexts() {
        let aes = Aes::new(&[1u8; 32]).unwrap();
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        ctr_process(&aes, &[0u8; 16], &mut a);
        ctr_process(&aes, &[1u8; 16], &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn cbc_roundtrip_various_lengths() {
        let aes = Aes::new(&[9u8; 16]).unwrap();
        let iv = [3u8; 16];
        for len in [0usize, 1, 15, 16, 17, 32, 100] {
            let plaintext: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let ct = cbc_encrypt(&aes, &iv, &plaintext);
            assert_eq!(ct.len() % BLOCK_LEN, 0);
            assert!(ct.len() > plaintext.len(), "always at least one padding byte");
            assert_eq!(cbc_decrypt(&aes, &iv, &ct).unwrap(), plaintext, "len {len}");
        }
    }

    #[test]
    fn cbc_detects_truncated_ciphertext() {
        let aes = Aes::new(&[9u8; 16]).unwrap();
        let iv = [3u8; 16];
        let ct = cbc_encrypt(&aes, &iv, b"hello world");
        assert!(matches!(
            cbc_decrypt(&aes, &iv, &ct[..ct.len() - 1]),
            Err(AesError::InvalidCiphertextLength(_))
        ));
        assert!(matches!(
            cbc_decrypt(&aes, &iv, &[]),
            Err(AesError::InvalidCiphertextLength(0))
        ));
    }

    #[test]
    fn cbc_detects_corrupted_padding() {
        let aes = Aes::new(&[9u8; 16]).unwrap();
        let iv = [3u8; 16];
        let mut ct = cbc_encrypt(&aes, &iv, b"hello world");
        let last = ct.len() - 1;
        ct[last] ^= 0xff;
        // Either the padding check fails or (very unlikely) it decodes to
        // garbage; for this fixed key/iv it fails.
        assert_eq!(cbc_decrypt(&aes, &iv, &ct), Err(AesError::InvalidPadding));
    }

    #[test]
    fn cbc_wrong_key_does_not_roundtrip() {
        let aes1 = Aes::new(&[1u8; 16]).unwrap();
        let aes2 = Aes::new(&[2u8; 16]).unwrap();
        let iv = [0u8; 16];
        let ct = cbc_encrypt(&aes1, &iv, b"some secret message!");
        // A padding failure is also an acceptable outcome here.
        if let Ok(pt) = cbc_decrypt(&aes2, &iv, &ct) {
            assert_ne!(pt, b"some secret message!");
        }
    }

    #[test]
    fn nist_sp800_38a_ctr_aes128() {
        // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt (first block).
        let key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
        let aes = Aes::new(&key).unwrap();
        let nonce: [u8; 16] = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").try_into().unwrap();
        let mut data = from_hex("6bc1bee22e409f96e93d7e117393172a");
        ctr_process(&aes, &nonce, &mut data);
        assert_eq!(data, from_hex("874d6191b620e3261bef6864990db6ce"));
    }
}
