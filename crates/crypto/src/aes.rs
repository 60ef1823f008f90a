//! AES-128 block cipher (FIPS-197).
//!
//! AES-128 is the core primitive of EPS security: Milenage (authentication
//! vector generation at the HSS) is a mode of AES, and the EEA2/EIA2
//! NAS ciphering/integrity algorithms are AES-CTR and AES-CMAC.
//!
//! The S-box is generated from its algebraic definition (multiplicative
//! inverse in GF(2^8) followed by the affine transform) instead of being
//! transcribed, eliminating table-typo risk; the FIPS-197 appendix C
//! known-answer test pins the result. Every table is a `const`, built
//! by `const fn` at compile time.
//!
//! Encryption is table-driven: the state is four big-endian `u32`
//! columns, and one round is SubBytes + ShiftRows + MixColumns folded
//! into sixteen lookups in one 256-entry table `TE` (the other three
//! classic T-tables are byte rotations of it). The key schedule is
//! word-wise, so an expanded key is 44 words (176 B) with no table
//! pointer. Decryption, used only by tests, stays byte-wise.
//!
//! Table lookups indexed by secret state are **not constant-time**: an
//! attacker sharing the cache can learn key bits from access timing.
//! That is acceptable for this emulator, whose keys protect nothing; a
//! deployment needs a constant-time (bitsliced or AES-NI) cipher.
//!
//! lint: hot-path

/// GF(2^8) multiplication modulo the AES polynomial x^8+x^4+x^3+x+1.
const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
    }
    acc
}

/// The forward and inverse S-boxes: the multiplicative inverse in
/// GF(2^8) (0 maps to 0) followed by the FIPS-197 §5.1.1 affine
/// transform. Inverses come from log/antilog tables over the generator
/// 3, so the whole construction is a few thousand const-eval steps.
const fn sboxes() -> ([u8; 256], [u8; 256]) {
    let mut exp = [0u8; 256];
    let mut log = [0u8; 256];
    let mut x = 1u8;
    let mut i = 0;
    while i < 255 {
        exp[i] = x;
        log[x as usize] = i as u8;
        x = gf_mul(x, 3);
        i += 1;
    }
    let mut sbox = [0u8; 256];
    let mut inv_sbox = [0u8; 256];
    let mut v = 0;
    while v < 256 {
        let b = if v == 0 {
            0
        } else {
            exp[(255 - log[v] as usize) % 255]
        };
        let s = b ^ b.rotate_left(1) ^ b.rotate_left(2) ^ b.rotate_left(3) ^ b.rotate_left(4)
            ^ 0x63;
        sbox[v] = s;
        inv_sbox[s as usize] = v as u8;
        v += 1;
    }
    (sbox, inv_sbox)
}

const SBOX: [u8; 256] = sboxes().0;
const INV_SBOX: [u8; 256] = sboxes().1;

/// `TE[x]` is the MixColumns image of the column `(S[x], 0, 0, 0)`:
/// the bytes `(2·S[x], S[x], S[x], 3·S[x])`, row 0 in the high byte.
/// A byte in row `r` contributes `TE[x].rotate_right(8 * r)`.
const TE: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        t[x] = u32::from_be_bytes([gf_mul(s, 2), s, s, gf_mul(s, 3)]);
        x += 1;
    }
    t
};

/// Key-schedule round constants x^(i-1) in GF(2^8), in the high byte.
const RCON: [u32; 10] = {
    let mut r = [0u32; 10];
    let mut c = 1u8;
    let mut i = 0;
    while i < 10 {
        r[i] = (c as u32) << 24;
        c = gf_mul(c, 2);
        i += 1;
    }
    r
};

/// Apply the S-box to each byte of a word.
fn sub_word(w: u32) -> u32 {
    let b = w.to_be_bytes();
    u32::from_be_bytes([
        SBOX[b[0] as usize],
        SBOX[b[1] as usize],
        SBOX[b[2] as usize],
        SBOX[b[3] as usize],
    ])
}

/// `TE` entry for the low byte of `x`.
#[inline(always)]
fn te(x: u32) -> u32 {
    TE[(x & 0xff) as usize]
}

/// S-box image of the low byte of `x`, as a word.
#[inline(always)]
fn sb(x: u32) -> u32 {
    SBOX[(x & 0xff) as usize] as u32
}

/// An expanded AES-128 key schedule: 44 big-endian words, four per
/// round key (176 B).
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [u32; 44],
}

impl Aes128 {
    /// Expand `key` into the round-key schedule (FIPS-197 §5.2).
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [0u32; 44];
        for (wi, chunk) in w.iter_mut().zip(key.chunks_exact(4)) {
            *wi = u32::from_be_bytes(crate::take(chunk));
        }
        // Each round key is the previous one, its first word mixed with
        // SubWord(RotWord(last word)) ^ Rcon, then chained left to right.
        let mut prev = [w[0], w[1], w[2], w[3]];
        for (next, rcon) in w[4..].chunks_exact_mut(4).zip(RCON) {
            let w0 = prev[0] ^ sub_word(prev[3].rotate_left(8)) ^ rcon;
            let w1 = prev[1] ^ w0;
            let w2 = prev[2] ^ w1;
            let w3 = prev[3] ^ w2;
            prev = [w0, w1, w2, w3];
            next.copy_from_slice(&prev);
        }
        Aes128 { round_keys: w }
    }

    /// Round key `r` as the 16 bytes FIPS-197 adds to the state.
    fn round_key_bytes(&self, r: usize) -> [u8; 16] {
        let mut out = [0u8; 16];
        for (o, w) in out.chunks_exact_mut(4).zip(&self.round_keys[r * 4..r * 4 + 4]) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Encrypt a single 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let rk = &self.round_keys;
        let mut s = [0u32; 4];
        for (c, chunk) in block.chunks_exact(4).enumerate() {
            s[c] = u32::from_be_bytes(crate::take(chunk)) ^ rk[c];
        }
        // Rounds 1–9: column c takes row r from column c + r (ShiftRows).
        for k in rk[4..40].chunks_exact(4) {
            s = [
                te(s[0] >> 24)
                    ^ te(s[1] >> 16).rotate_right(8)
                    ^ te(s[2] >> 8).rotate_right(16)
                    ^ te(s[3]).rotate_right(24)
                    ^ k[0],
                te(s[1] >> 24)
                    ^ te(s[2] >> 16).rotate_right(8)
                    ^ te(s[3] >> 8).rotate_right(16)
                    ^ te(s[0]).rotate_right(24)
                    ^ k[1],
                te(s[2] >> 24)
                    ^ te(s[3] >> 16).rotate_right(8)
                    ^ te(s[0] >> 8).rotate_right(16)
                    ^ te(s[1]).rotate_right(24)
                    ^ k[2],
                te(s[3] >> 24)
                    ^ te(s[0] >> 16).rotate_right(8)
                    ^ te(s[1] >> 8).rotate_right(16)
                    ^ te(s[2]).rotate_right(24)
                    ^ k[3],
            ];
        }
        // Final round: SubBytes + ShiftRows, no MixColumns.
        for c in 0..4 {
            let out = (sb(s[c] >> 24) << 24
                | sb(s[(c + 1) % 4] >> 16) << 16
                | sb(s[(c + 2) % 4] >> 8) << 8
                | sb(s[(c + 3) % 4]))
                ^ rk[40 + c];
            block[c * 4..c * 4 + 4].copy_from_slice(&out.to_be_bytes());
        }
    }

    /// Decrypt a single 16-byte block in place (byte-wise; tests only).
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        add_round_key(block, &self.round_key_bytes(10));
        inv_shift_rows(block);
        sub_bytes(block, &INV_SBOX);
        for round in (1..10).rev() {
            add_round_key(block, &self.round_key_bytes(round));
            inv_mix_columns(block);
            inv_shift_rows(block);
            sub_bytes(block, &INV_SBOX);
        }
        add_round_key(block, &self.round_key_bytes(0));
    }

    /// Encrypt a copy of `block` and return it.
    pub fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut b = *block;
        self.encrypt_block(&mut b);
        b
    }

    /// AES-CTR keystream XOR (used by the EEA2 NAS ciphering emulation):
    /// encrypts/decrypts `data` in place with a 16-byte initial counter
    /// block, incrementing the counter big-endian per block.
    pub fn ctr_xor(&self, counter0: &[u8; 16], data: &mut [u8]) {
        let mut counter = *counter0;
        for chunk in data.chunks_mut(16) {
            let ks = self.encrypt(&counter);
            for (d, k) in chunk.iter_mut().zip(ks.iter()) {
                *d ^= k;
            }
            // Increment the 128-bit counter (big-endian).
            for byte in counter.iter_mut().rev() {
                *byte = byte.wrapping_add(1);
                if *byte != 0 {
                    break;
                }
            }
        }
    }
}

/// State layout note: the byte-wise paths keep the block in column-major
/// order (byte i of the input is row i%4, column i/4), matching FIPS-197,
/// so ShiftRows works on strided indices.
fn add_round_key(block: &mut [u8; 16], rk: &[u8; 16]) {
    for (b, k) in block.iter_mut().zip(rk.iter()) {
        *b ^= k;
    }
}

fn sub_bytes(block: &mut [u8; 16], sbox: &[u8; 256]) {
    for b in block.iter_mut() {
        *b = sbox[*b as usize];
    }
}

fn inv_shift_rows(block: &mut [u8; 16]) {
    for r in 1..4 {
        let row = [block[r], block[r + 4], block[r + 8], block[r + 12]];
        for c in 0..4 {
            block[r + c * 4] = row[(c + 4 - r) % 4];
        }
    }
}

fn inv_mix_columns(block: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            block[c * 4],
            block[c * 4 + 1],
            block[c * 4 + 2],
            block[c * 4 + 3],
        ];
        block[c * 4] =
            gf_mul(col[0], 14) ^ gf_mul(col[1], 11) ^ gf_mul(col[2], 13) ^ gf_mul(col[3], 9);
        block[c * 4 + 1] =
            gf_mul(col[0], 9) ^ gf_mul(col[1], 14) ^ gf_mul(col[2], 11) ^ gf_mul(col[3], 13);
        block[c * 4 + 2] =
            gf_mul(col[0], 13) ^ gf_mul(col[1], 9) ^ gf_mul(col[2], 14) ^ gf_mul(col[3], 11);
        block[c * 4 + 3] =
            gf_mul(col[0], 11) ^ gf_mul(col[1], 13) ^ gf_mul(col[2], 9) ^ gf_mul(col[3], 14);
    }
}

/// The byte-wise textbook cipher the T-table path replaced: S-box by
/// exhaustive inverse search, byte-array key schedule, per-round
/// `gf_mul` MixColumns. Kept as the oracle for the differential tests.
#[cfg(test)]
pub(crate) mod reference {
    use super::{add_round_key, gf_mul, sub_bytes};

    pub(crate) fn sbox() -> [u8; 256] {
        let mut inv = [0u8; 256];
        for a in 1..=255u8 {
            for b in 1..=255u8 {
                if gf_mul(a, b) == 1 {
                    inv[a as usize] = b;
                    break;
                }
            }
        }
        let mut sbox = [0u8; 256];
        for x in 0..=255u8 {
            let b = inv[x as usize];
            sbox[x as usize] =
                b ^ b.rotate_left(1) ^ b.rotate_left(2) ^ b.rotate_left(3) ^ b.rotate_left(4)
                    ^ 0x63;
        }
        sbox
    }

    pub(crate) struct ReferenceAes128 {
        sbox: [u8; 256],
        pub(crate) round_keys: [[u8; 16]; 11],
    }

    impl ReferenceAes128 {
        pub(crate) fn new(key: &[u8; 16]) -> Self {
            let sbox = sbox();
            let mut w = [[0u8; 4]; 44];
            for i in 0..4 {
                w[i].copy_from_slice(&key[i * 4..i * 4 + 4]);
            }
            let mut rcon = 1u8;
            for i in 4..44 {
                let mut temp = w[i - 1];
                if i % 4 == 0 {
                    temp.rotate_left(1);
                    for b in temp.iter_mut() {
                        *b = sbox[*b as usize];
                    }
                    temp[0] ^= rcon;
                    rcon = gf_mul(rcon, 2);
                }
                for j in 0..4 {
                    w[i][j] = w[i - 4][j] ^ temp[j];
                }
            }
            let mut round_keys = [[0u8; 16]; 11];
            for (r, rk) in round_keys.iter_mut().enumerate() {
                for c in 0..4 {
                    rk[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
                }
            }
            ReferenceAes128 { sbox, round_keys }
        }

        pub(crate) fn encrypt_block(&self, block: &mut [u8; 16]) {
            add_round_key(block, &self.round_keys[0]);
            for round in 1..10 {
                sub_bytes(block, &self.sbox);
                shift_rows(block);
                mix_columns(block);
                add_round_key(block, &self.round_keys[round]);
            }
            sub_bytes(block, &self.sbox);
            shift_rows(block);
            add_round_key(block, &self.round_keys[10]);
        }
    }

    fn shift_rows(block: &mut [u8; 16]) {
        // Row r (bytes r, r+4, r+8, r+12) rotates left by r.
        for r in 1..4 {
            let row = [block[r], block[r + 4], block[r + 8], block[r + 12]];
            for c in 0..4 {
                block[r + c * 4] = row[(c + r) % 4];
            }
        }
    }

    fn mix_columns(block: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                block[c * 4],
                block[c * 4 + 1],
                block[c * 4 + 2],
                block[c * 4 + 3],
            ];
            block[c * 4] = gf_mul(col[0], 2) ^ gf_mul(col[1], 3) ^ col[2] ^ col[3];
            block[c * 4 + 1] = col[0] ^ gf_mul(col[1], 2) ^ gf_mul(col[2], 3) ^ col[3];
            block[c * 4 + 2] = col[0] ^ col[1] ^ gf_mul(col[2], 2) ^ gf_mul(col[3], 3);
            block[c * 4 + 3] = gf_mul(col[0], 3) ^ col[1] ^ col[2] ^ gf_mul(col[3], 2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceAes128;
    use super::*;
    use crate::{hex, unhex};
    use proptest::prelude::*;

    /// FIPS-197 appendix C.1 known-answer test.
    #[test]
    fn fips197_c1() {
        let key: [u8; 16] = unhex("000102030405060708090a0b0c0d0e0f")
            .unwrap()
            .try_into()
            .unwrap();
        let pt: [u8; 16] = unhex("00112233445566778899aabbccddeeff")
            .unwrap()
            .try_into()
            .unwrap();
        let aes = Aes128::new(&key);
        let ct = aes.encrypt(&pt);
        assert_eq!(hex(&ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
        let mut back = ct;
        aes.decrypt_block(&mut back);
        assert_eq!(back, pt);
    }

    /// FIPS-197 appendix B worked example.
    #[test]
    fn fips197_appendix_b() {
        let key: [u8; 16] = unhex("2b7e151628aed2a6abf7158809cf4f3c")
            .unwrap()
            .try_into()
            .unwrap();
        let pt: [u8; 16] = unhex("3243f6a8885a308d313198a2e0370734")
            .unwrap()
            .try_into()
            .unwrap();
        let ct = Aes128::new(&key).encrypt(&pt);
        assert_eq!(hex(&ct), "3925841d02dc09fbdc118597196a0b32");
    }

    /// FIPS-197 appendix A.1: the last round key of the worked key
    /// expansion.
    #[test]
    fn fips197_a1_last_round_key() {
        let key: [u8; 16] = unhex("2b7e151628aed2a6abf7158809cf4f3c")
            .unwrap()
            .try_into()
            .unwrap();
        let aes = Aes128::new(&key);
        assert_eq!(hex(&aes.round_key_bytes(10)), "d014f9a8c9ee2589e13f0cc8b6630ca6");
    }

    #[test]
    fn const_tables_match_the_reference_sbox() {
        let sbox = super::reference::sbox();
        assert_eq!(SBOX, sbox);
        for x in 0..256 {
            assert_eq!(INV_SBOX[SBOX[x] as usize] as usize, x);
            let s = sbox[x];
            assert_eq!(TE[x].to_be_bytes(), [gf_mul(s, 2), s, s, gf_mul(s, 3)]);
        }
        assert_eq!(RCON[8], 0x1b << 24);
        assert_eq!(RCON[9], 0x36 << 24);
    }

    #[test]
    fn schedule_is_176_bytes() {
        assert_eq!(std::mem::size_of::<Aes128>(), 176);
    }

    #[test]
    fn encrypt_decrypt_roundtrip_many() {
        let aes = Aes128::new(&[7u8; 16]);
        for i in 0..64u8 {
            let pt = [i; 16];
            let mut b = pt;
            aes.encrypt_block(&mut b);
            assert_ne!(b, pt);
            aes.decrypt_block(&mut b);
            assert_eq!(b, pt);
        }
    }

    #[test]
    fn ctr_is_an_involution() {
        let aes = Aes128::new(&[0x42; 16]);
        let ctr = [1u8; 16];
        let mut data: Vec<u8> = (0..100).map(|i| i as u8).collect();
        let orig = data.clone();
        aes.ctr_xor(&ctr, &mut data);
        assert_ne!(data, orig);
        aes.ctr_xor(&ctr, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn ctr_counter_carries_across_byte_boundary() {
        let aes = Aes128::new(&[1u8; 16]);
        // Counter ending in 0xff must carry into the next byte between blocks.
        let mut ctr = [0u8; 16];
        ctr[15] = 0xff;
        let mut two_blocks = vec![0u8; 32];
        aes.ctr_xor(&ctr, &mut two_blocks);
        // Second block keystream must equal encryption of counter 0x...0100.
        let mut ctr2 = [0u8; 16];
        ctr2[14] = 0x01;
        let ks2 = aes.encrypt(&ctr2);
        assert_eq!(&two_blocks[16..], &ks2[..]);
    }

    proptest! {
        /// The T-table cipher and word-wise schedule agree with the
        /// byte-wise reference on random keys and blocks.
        #[test]
        fn ttable_matches_reference(key in any::<[u8; 16]>(), pt in any::<[u8; 16]>()) {
            let fast = Aes128::new(&key);
            let slow = ReferenceAes128::new(&key);
            for r in 0..11 {
                prop_assert_eq!(fast.round_key_bytes(r), slow.round_keys[r]);
            }
            let mut a = pt;
            let mut b = pt;
            fast.encrypt_block(&mut a);
            slow.encrypt_block(&mut b);
            prop_assert_eq!(a, b);
        }
    }
}
