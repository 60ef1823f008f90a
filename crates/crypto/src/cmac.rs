//! AES-CMAC (RFC 4493 / NIST SP 800-38B).
//!
//! EIA2, the AES-based LTE integrity algorithm, is AES-CMAC over the NAS
//! message prefixed with count/bearer/direction; the NAS codec uses the
//! truncated 32-bit MAC exactly as the spec does.
//!
//! The MAC input is absorbed piece by piece, so EIA2's 8-byte header
//! and the NAS message's `SEQ || payload` (MACed in place in the wire
//! buffer) are never copied into one buffer.
//!
//! lint: hot-path

use crate::aes::Aes128;

/// Left-shift a 16-byte block by one bit.
fn shl1(block: &[u8; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    let mut carry = 0u8;
    for i in (0..16).rev() {
        out[i] = (block[i] << 1) | carry;
        carry = block[i] >> 7;
    }
    out
}

/// Generate the CMAC subkeys K1, K2 from the cipher.
fn subkeys(aes: &Aes128) -> ([u8; 16], [u8; 16]) {
    const RB: u8 = 0x87;
    let l = aes.encrypt(&[0u8; 16]);
    let mut k1 = shl1(&l);
    if l[0] & 0x80 != 0 {
        k1[15] ^= RB;
    }
    let mut k2 = shl1(&k1);
    if k1[0] & 0x80 != 0 {
        k2[15] ^= RB;
    }
    (k1, k2)
}

fn xor_into(dst: &mut [u8; 16], src: &[u8; 16]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// AES-CMAC absorbing its message in pieces, so no caller joins them
/// into one buffer. Up to 16 bytes carry over between pieces, because
/// the last block (complete or not) is only known once every piece is in.
struct Cmac {
    aes: Aes128,
    /// CBC chaining value over the blocks absorbed so far.
    x: [u8; 16],
    /// The pending block, `n` bytes of it filled.
    buf: [u8; 16],
    n: usize,
}

impl Cmac {
    fn new(key: &[u8; 16]) -> Self {
        Cmac {
            aes: Aes128::new(key),
            x: [0u8; 16],
            buf: [0u8; 16],
            n: 0,
        }
    }

    fn update(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            // A full pending block is not the last one: more data follows.
            if self.n == 16 {
                xor_into(&mut self.x, &self.buf);
                self.aes.encrypt_block(&mut self.x);
                self.n = 0;
            }
            let take = data.len().min(16 - self.n);
            self.buf[self.n..self.n + take].copy_from_slice(&data[..take]);
            self.n += take;
            data = &data[take..];
        }
    }

    /// The full 16-byte tag. Last block: XOR with K1 if complete, pad +
    /// K2 otherwise (an empty message is one padded block).
    fn finalize(mut self) -> [u8; 16] {
        let (k1, k2) = subkeys(&self.aes);
        let n = self.n;
        if n == 16 {
            xor_into(&mut self.buf, &k1);
        } else {
            self.buf[n] = 0x80;
            self.buf[n + 1..].fill(0);
            xor_into(&mut self.buf, &k2);
        }
        xor_into(&mut self.x, &self.buf);
        self.aes.encrypt_block(&mut self.x);
        self.x
    }
}

/// Compute the full 16-byte AES-CMAC tag of `msg` under `key`.
pub fn aes_cmac(key: &[u8; 16], msg: &[u8]) -> [u8; 16] {
    let mut mac = Cmac::new(key);
    mac.update(msg);
    mac.finalize()
}

/// EIA2-style 32-bit MAC: CMAC over `count || bearer/direction || msg`,
/// truncated to the first four bytes (TS 33.401 B.2.3). The header and
/// `msg` are absorbed as two pieces, never joined.
pub fn eia2_mac(key: &[u8; 16], count: u32, bearer: u8, downlink: bool, msg: &[u8]) -> [u8; 4] {
    let mut mac = Cmac::new(key);
    mac.update(&eia2_header(count, bearer, downlink));
    mac.update(msg);
    crate::take(&mac.finalize())
}

/// The EIA2 message prefix: COUNT (32 bits) || BEARER (5 bits) ||
/// DIRECTION (1 bit) || 26 zero bits.
fn eia2_header(count: u32, bearer: u8, downlink: bool) -> [u8; 8] {
    let mut h = [0u8; 8];
    h[..4].copy_from_slice(&count.to_be_bytes());
    h[4] = (bearer << 3) | (u8::from(downlink) << 2);
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hex, unhex};

    fn rfc_key() -> [u8; 16] {
        unhex("2b7e151628aed2a6abf7158809cf4f3c")
            .unwrap()
            .try_into()
            .unwrap()
    }

    // RFC 4493 §4 test vectors.
    #[test]
    fn rfc4493_empty() {
        assert_eq!(
            hex(&aes_cmac(&rfc_key(), b"")),
            "bb1d6929e95937287fa37d129b756746"
        );
    }

    #[test]
    fn rfc4493_16_bytes() {
        let msg = unhex("6bc1bee22e409f96e93d7e117393172a").unwrap();
        assert_eq!(
            hex(&aes_cmac(&rfc_key(), &msg)),
            "070a16b46b4d4144f79bdd9dd04a287c"
        );
    }

    #[test]
    fn rfc4493_40_bytes() {
        let msg = unhex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411"
        ))
        .unwrap();
        assert_eq!(
            hex(&aes_cmac(&rfc_key(), &msg)),
            "dfa66747de9ae63030ca32611497c827"
        );
    }

    #[test]
    fn rfc4493_64_bytes() {
        let msg = unhex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710"
        ))
        .unwrap();
        assert_eq!(
            hex(&aes_cmac(&rfc_key(), &msg)),
            "51f0bebf7e3b9d92fc49741779363cfe"
        );
    }

    /// The seed's contiguous block-indexed CMAC, kept as the oracle for
    /// the streamed implementation.
    fn reference_cmac(key: &[u8; 16], msg: &[u8]) -> [u8; 16] {
        let aes = Aes128::new(key);
        let (k1, k2) = subkeys(&aes);
        let n_blocks = msg.len().div_ceil(16).max(1);
        let last_complete = !msg.is_empty() && msg.len().is_multiple_of(16);
        let mut x = [0u8; 16];
        for i in 0..n_blocks - 1 {
            let mut block: [u8; 16] = crate::take(&msg[i * 16..]);
            xor_into(&mut block, &x);
            x = aes.encrypt(&block);
        }
        let mut last = [0u8; 16];
        let tail = &msg[(n_blocks - 1) * 16..];
        if last_complete {
            last.copy_from_slice(tail);
            xor_into(&mut last, &k1);
        } else {
            last[..tail.len()].copy_from_slice(tail);
            last[tail.len()] = 0x80;
            xor_into(&mut last, &k2);
        }
        xor_into(&mut last, &x);
        aes.encrypt(&last)
    }

    fn streamed(key: &[u8; 16], parts: &[&[u8]]) -> [u8; 16] {
        let mut mac = Cmac::new(key);
        for part in parts {
            mac.update(part);
        }
        mac.finalize()
    }

    /// Streamed CMAC equals the contiguous one at every split point of
    /// two and three pieces, empty pieces included, across the block
    /// boundary lengths.
    #[test]
    fn streamed_matches_contiguous_at_every_split() {
        let key = rfc_key();
        let data: Vec<u8> = (0..32u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for len in [0usize, 1, 15, 16, 17, 31, 32] {
            let msg = &data[..len];
            let want = reference_cmac(&key, msg);
            assert_eq!(aes_cmac(&key, msg), want, "len {len}");
            for i in 0..=len {
                let (a, rest) = msg.split_at(i);
                assert_eq!(streamed(&key, &[a, rest]), want, "len {len} split {i}");
                for j in 0..=rest.len() {
                    let (b, c) = rest.split_at(j);
                    assert_eq!(
                        streamed(&key, &[&[], a, &[], b, c, &[]]),
                        want,
                        "len {len} splits {i}/{j}"
                    );
                }
            }
        }
        assert_eq!(streamed(&key, &[]), reference_cmac(&key, b""));
    }

    #[test]
    fn eia2_equals_cmac_over_header_and_message() {
        let key = [9u8; 16];
        let msg = b"nas message body";
        let mut contiguous = eia2_header(0x0102_0304, 5, true).to_vec();
        contiguous.extend_from_slice(msg);
        assert_eq!(contiguous[4], (5 << 3) | (1 << 2));
        let tag = reference_cmac(&key, &contiguous);
        assert_eq!(eia2_mac(&key, 0x0102_0304, 5, true, msg), tag[..4]);
    }

    #[test]
    fn eia2_direction_and_count_matter() {
        let key = [9u8; 16];
        let m1 = eia2_mac(&key, 1, 0, false, b"nas message");
        let m2 = eia2_mac(&key, 2, 0, false, b"nas message");
        let m3 = eia2_mac(&key, 1, 0, true, b"nas message");
        assert_ne!(m1, m2);
        assert_ne!(m1, m3);
        // Deterministic.
        assert_eq!(m1, eia2_mac(&key, 1, 0, false, b"nas message"));
    }
}
