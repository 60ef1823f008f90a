//! SHA-256 (FIPS 180-4).
//!
//! Used as the PRF underneath HMAC for the 3GPP key-derivation function
//! (TS 33.401 annex A) that derives K_ASME and the NAS keys during the
//! EPS AKA run on the attach path.
//!
//! lint: hot-path

/// Round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 context.
///
/// ```
/// use scale_crypto::sha256::Sha256;
/// let d = Sha256::digest(b"abc");
/// assert_eq!(
///     scale_crypto::hex(&d),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh context.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// A context that has already absorbed exactly one 64-byte block
    /// whose compression left `state` (an HMAC pad midstate).
    pub(crate) fn from_midstate(state: [u32; 8]) -> Self {
        Sha256 {
            state,
            len: 64,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// The chaining state after compressing one 64-byte `block` from
    /// the initial hash value.
    pub(crate) fn midstate(block: &[u8; 64]) -> [u32; 8] {
        let mut state = H0;
        compress(&mut state, block);
        state
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            compress(&mut self.state, &crate::take(block));
        }
        rest = blocks.remainder();
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finish and return the 32-byte digest. The padding (0x80, zeros,
    /// 64-bit length) is written into the block buffer at once; it
    /// spills into a second block when fewer than 9 bytes are free.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, &self.buf);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (o, word) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut ctx = Sha256::new();
        ctx.update(data);
        ctx.finalize()
    }
}

/// The SHA-256 compression function: fold one 64-byte block into
/// `state` (FIPS 180-4 §6.2.2).
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(crate::take(chunk));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn fips_vectors() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut ctx = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            ctx.update(&chunk);
        }
        assert_eq!(
            hex(&ctx.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..777u32).map(|i| (i * 31 % 256) as u8).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 128, 776] {
            let mut ctx = Sha256::new();
            ctx.update(&data[..split]);
            ctx.update(&data[split..]);
            assert_eq!(ctx.finalize(), Sha256::digest(&data), "split {split}");
        }
    }

    /// The seed's padding: 0x80, then zero bytes one `update` at a time
    /// until 56 bytes of the block are used, then the bit length.
    fn bytewise_padding_digest(data: &[u8]) -> [u8; 32] {
        let mut ctx = Sha256::new();
        ctx.update(data);
        let bit_len = ctx.len.wrapping_mul(8);
        ctx.update(&[0x80]);
        while ctx.buf_len != 56 {
            ctx.update(&[0]);
        }
        ctx.update(&bit_len.to_be_bytes());
        assert_eq!(ctx.buf_len, 0);
        let mut out = [0u8; 32];
        for (o, word) in out.chunks_exact_mut(4).zip(ctx.state) {
            o.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-write padding equals byte-wise padding at the lengths where
    /// the length field just fits (55), just spills (56, 63), lands on
    /// a block boundary (64) and spills in the second block (119), for
    /// one-shot and split absorption alike.
    #[test]
    fn block_padding_matches_bytewise_padding() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 % 251) as u8).collect();
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let msg = &data[..len];
            let want = bytewise_padding_digest(msg);
            assert_eq!(Sha256::digest(msg), want, "len {len}");
            for split in [0, len / 2, len] {
                let mut ctx = Sha256::new();
                ctx.update(&msg[..split]);
                ctx.update(&msg[split..]);
                assert_eq!(ctx.finalize(), want, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn midstate_resumes_after_one_block() {
        let block = [0x36u8; 64];
        let mut a = Sha256::from_midstate(Sha256::midstate(&block));
        a.update(b"tail");
        let mut b = Sha256::new();
        b.update(&block);
        b.update(b"tail");
        assert_eq!(a.finalize(), b.finalize());
    }
}
