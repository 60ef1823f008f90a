//! HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//!
//! The 3GPP key-derivation function (TS 33.401 annex A) is defined as
//! HMAC-SHA-256 over an FC-tagged parameter string; see [`crate::kdf`].
//!
//! [`HmacSha256`] is the keyed PRF: it compresses the ipad and opad
//! blocks once and keeps the two midstates, so each MAC under the same
//! key costs only the message and digest compressions (two for a KDF
//! parameter string), not four.
//!
//! lint: hot-path

use crate::sha256::Sha256;

const BLOCK: usize = 64;

/// HMAC-SHA-256 keyed with one key: the SHA-256 chaining states after
/// the `K ⊕ ipad` and `K ⊕ opad` blocks.
pub struct HmacSha256 {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacSha256 {
    /// Key the PRF. A key longer than the 64-byte block is hashed first.
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK];
        let mut opad = [0u8; BLOCK];
        for ((i, o), b) in ipad.iter_mut().zip(opad.iter_mut()).zip(k) {
            *i = b ^ 0x36;
            *o = b ^ 0x5c;
        }
        HmacSha256 {
            inner: Sha256::midstate(&ipad),
            outer: Sha256::midstate(&opad),
        }
    }

    /// A hash context that has absorbed `K ⊕ ipad`; feed it the message
    /// and pass it to [`HmacSha256::finish`].
    pub(crate) fn start(&self) -> Sha256 {
        Sha256::from_midstate(self.inner)
    }

    /// Complete the MAC whose message `inner` has absorbed.
    pub(crate) fn finish(&self, inner: Sha256) -> [u8; 32] {
        let mut outer = Sha256::from_midstate(self.outer);
        outer.update(&inner.finalize());
        outer.finalize()
    }

    /// HMAC-SHA-256 of `msg` under this key.
    pub fn mac(&self, msg: &[u8]) -> [u8; 32] {
        let mut inner = self.start();
        inner.update(msg);
        self.finish(inner)
    }
}

/// Compute HMAC-SHA-256 of `msg` under `key`.
///
/// ```
/// use scale_crypto::hmac::hmac_sha256;
/// let mac = hmac_sha256(&[0x0b; 20], b"Hi There");
/// assert_eq!(
///     scale_crypto::hex(&mac),
///     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
/// );
/// ```
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; 32] {
    HmacSha256::new(key).mac(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hex, unhex};

    // RFC 4231 test cases 1, 2, 3, 6 (6 exercises key > block size).
    #[test]
    fn rfc4231_case1() {
        let mac = hmac_sha256(&[0x0b; 20], b"Hi There");
        assert_eq!(
            hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let mac = hmac_sha256(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(
            hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let mac = hmac_sha256(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    /// The seed's unkeyed construction: pads built per call, four
    /// compressions per MAC.
    fn reference_hmac(key: &[u8], msg: &[u8]) -> [u8; 32] {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&k.map(|b| b ^ 0x36));
        inner.update(msg);
        let mut outer = Sha256::new();
        outer.update(&k.map(|b| b ^ 0x5c));
        outer.update(&inner.finalize());
        outer.finalize()
    }

    /// The keyed state reproduces RFC 4231 cases 1, 2, 3 and 6 (a
    /// 131-byte key, hashed first), also when one key MACs twice.
    #[test]
    fn keyed_state_matches_rfc4231() {
        let cases: [(&[u8], &[u8], &str); 4] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
        ];
        for (key, msg, want) in cases {
            let prf = HmacSha256::new(key);
            assert_eq!(hex(&prf.mac(msg)), want);
            assert_eq!(hex(&prf.mac(msg)), want, "keyed state must be reusable");
            assert_eq!(hex(&reference_hmac(key, msg)), want);
        }
    }

    #[test]
    fn keyed_state_matches_reference_across_lengths() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 13 % 256) as u8).collect();
        for key_len in [0usize, 1, 32, 63, 64, 65, 130] {
            let prf = HmacSha256::new(&data[..key_len]);
            for msg_len in [0usize, 7, 14, 55, 56, 64, 119, 200] {
                let msg = &data[..msg_len];
                assert_eq!(
                    prf.mac(msg),
                    reference_hmac(&data[..key_len], msg),
                    "key {key_len} msg {msg_len}"
                );
            }
        }
    }

    #[test]
    fn unhex_roundtrip() {
        let bytes = unhex("00ff10a5").unwrap();
        assert_eq!(bytes, vec![0x00, 0xff, 0x10, 0xa5]);
        assert_eq!(hex(&bytes), "00ff10a5");
        assert!(unhex("0g").is_none());
        assert!(unhex("abc").is_none());
    }
}
