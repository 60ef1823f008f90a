//! Milenage authentication functions f1–f5* (3GPP TS 35.205/35.206).
//!
//! The HSS runs Milenage to produce EPS authentication vectors
//! (RAND, XRES, AUTN, CK/IK → K_ASME) during the attach procedure; the
//! USIM side runs the same functions to authenticate the network. Both
//! directions are exercised by `scale-epc`'s HSS and UE models.

use crate::aes::Aes128;

/// Milenage rotation constants, in bits (TS 35.206 §4.1 default values).
const R1: u32 = 64;
const R2: u32 = 0;
const R3: u32 = 32;
const R4: u32 = 64;
const R5: u32 = 96;

fn xor16(a: &[u8; 16], b: &[u8; 16]) -> [u8; 16] {
    (u128::from_be_bytes(*a) ^ u128::from_be_bytes(*b)).to_be_bytes()
}

/// Cyclic left rotation of a 128-bit big-endian value by `bits` (a
/// multiple of 8 for the default constants, but any amount works).
fn rot128(x: &[u8; 16], bits: u32) -> [u8; 16] {
    u128::from_be_bytes(*x).rotate_left(bits).to_be_bytes()
}

/// Milenage constants c1..c5: c1 = 0, c2 = ..01, c3 = ..02, c4 = ..04, c5 = ..08.
fn c(n: u8) -> [u8; 16] {
    let mut v = [0u8; 16];
    v[15] = match n {
        1 => 0,
        2 => 1,
        3 => 2,
        4 => 4,
        5 => 8,
        _ => unreachable!("milenage constant index"),
    };
    v
}

/// A Milenage instance bound to a subscriber key K and operator constant OPc.
#[derive(Clone)]
pub struct Milenage {
    aes: Aes128,
    opc: [u8; 16],
}

/// Output of f1 (network authentication code) and f1* (resync code).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacPair {
    /// MAC-A, used in AUTN.
    pub mac_a: [u8; 8],
    /// MAC-S, used in resynchronisation.
    pub mac_s: [u8; 8],
}

/// Output of f2–f5: the response and key material of one AKA run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct F2345 {
    /// RES / XRES (8 bytes with default Milenage).
    pub res: [u8; 8],
    /// Ciphering key.
    pub ck: [u8; 16],
    /// Integrity key.
    pub ik: [u8; 16],
    /// Anonymity key, XORed over SQN in AUTN.
    pub ak: [u8; 6],
}

impl Milenage {
    /// Construct from subscriber key and operator constant OP
    /// (computes OPc = E_K(OP) ⊕ OP).
    pub fn from_op(k: &[u8; 16], op: &[u8; 16]) -> Self {
        let aes = Aes128::new(k);
        let opc = xor16(&aes.encrypt(op), op);
        Milenage { aes, opc }
    }

    /// Construct from subscriber key and a precomputed OPc.
    pub fn from_opc(k: &[u8; 16], opc: [u8; 16]) -> Self {
        Milenage {
            aes: Aes128::new(k),
            opc,
        }
    }

    /// The OPc in use (useful for provisioning records).
    pub fn opc(&self) -> &[u8; 16] {
        &self.opc
    }

    fn temp(&self, rand: &[u8; 16]) -> [u8; 16] {
        self.aes.encrypt(&xor16(rand, &self.opc))
    }

    /// f1 / f1*: network authentication (MAC-A) and resync (MAC-S) codes.
    pub fn f1(&self, rand: &[u8; 16], sqn: &[u8; 6], amf: &[u8; 2]) -> MacPair {
        let temp = self.temp(rand);
        let mut in1 = [0u8; 16];
        in1[..6].copy_from_slice(sqn);
        in1[6..8].copy_from_slice(amf);
        in1[8..14].copy_from_slice(sqn);
        in1[14..16].copy_from_slice(amf);
        let rotated = rot128(&xor16(&in1, &self.opc), R1);
        let out1 = xor16(
            &self.aes.encrypt(&xor16(&xor16(&temp, &rotated), &c(1))),
            &self.opc,
        );
        MacPair {
            mac_a: crate::take(&out1),
            mac_s: crate::take(&out1[8..]),
        }
    }

    /// f2–f5 in one pass: RES, CK, IK, AK.
    pub fn f2345(&self, rand: &[u8; 16]) -> F2345 {
        let temp = self.temp(rand);
        let base = xor16(&temp, &self.opc);
        let out2 = xor16(
            &self.aes.encrypt(&xor16(&rot128(&base, R2), &c(2))),
            &self.opc,
        );
        let out3 = xor16(
            &self.aes.encrypt(&xor16(&rot128(&base, R3), &c(3))),
            &self.opc,
        );
        let out4 = xor16(
            &self.aes.encrypt(&xor16(&rot128(&base, R4), &c(4))),
            &self.opc,
        );
        F2345 {
            res: crate::take(&out2[8..]),
            ck: out3,
            ik: out4,
            ak: crate::take(&out2),
        }
    }

    /// f5*: anonymity key for resynchronisation.
    pub fn f5_star(&self, rand: &[u8; 16]) -> [u8; 6] {
        let temp = self.temp(rand);
        let base = xor16(&temp, &self.opc);
        let out5 = xor16(
            &self.aes.encrypt(&xor16(&rot128(&base, R5), &c(5))),
            &self.opc,
        );
        crate::take(&out5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hex, unhex};

    fn b16(s: &str) -> [u8; 16] {
        unhex(s).unwrap().try_into().unwrap()
    }

    /// 3GPP TS 35.207/35.208 Test Set 1.
    #[test]
    fn ts35208_test_set_1() {
        let k = b16("465b5ce8b199b49faa5f0a2ee238a6bc");
        let rand = b16("23553cbe9637a89d218ae64dae47bf35");
        let op = b16("cdc202d5123e20f62b6d676ac72cb318");
        let sqn: [u8; 6] = unhex("ff9bb4d0b607").unwrap().try_into().unwrap();
        let amf: [u8; 2] = unhex("b9b9").unwrap().try_into().unwrap();

        let m = Milenage::from_op(&k, &op);
        assert_eq!(hex(m.opc()), "cd63cb71954a9f4e48a5994e37a02baf");

        let macs = m.f1(&rand, &sqn, &amf);
        assert_eq!(hex(&macs.mac_a), "4a9ffac354dfafb3");
        assert_eq!(hex(&macs.mac_s), "01cfaf9ec4e871e9");

        let out = m.f2345(&rand);
        assert_eq!(hex(&out.res), "a54211d5e3ba50bf");
        assert_eq!(hex(&out.ck), "b40ba9a3c58b2a05bbf0d987b21bf8cb");
        assert_eq!(hex(&out.ik), "f769bcd751044604127672711c6d3441");
        assert_eq!(hex(&out.ak), "aa689c648370");
        assert_eq!(hex(&m.f5_star(&rand)), "451e8beca43b");
    }

    #[test]
    fn from_opc_matches_from_op() {
        let k = b16("465b5ce8b199b49faa5f0a2ee238a6bc");
        let op = b16("cdc202d5123e20f62b6d676ac72cb318");
        let rand = b16("23553cbe9637a89d218ae64dae47bf35");
        let a = Milenage::from_op(&k, &op);
        let b = Milenage::from_opc(&k, *a.opc());
        assert_eq!(a.f2345(&rand), b.f2345(&rand));
    }

    #[test]
    fn distinct_rand_distinct_vectors() {
        let m = Milenage::from_opc(&[3u8; 16], [7u8; 16]);
        let v1 = m.f2345(&[1u8; 16]);
        let v2 = m.f2345(&[2u8; 16]);
        assert_ne!(v1.res, v2.res);
        assert_ne!(v1.ck, v2.ck);
    }

    /// The seed's byte-wise rotation, the oracle for the u128 one.
    fn reference_rot128(x: &[u8; 16], bits: u32) -> [u8; 16] {
        let byte_shift = (bits / 8) as usize % 16;
        let bit_shift = bits % 8;
        core::array::from_fn(|i| {
            let hi = x[(i + byte_shift) % 16];
            let lo = x[(i + byte_shift + 1) % 16];
            if bit_shift == 0 {
                hi
            } else {
                (hi << bit_shift) | (lo >> (8 - bit_shift))
            }
        })
    }

    #[test]
    fn rot128_matches_bytewise_rotation() {
        let x: [u8; 16] = core::array::from_fn(|i| (i as u8).wrapping_mul(0x9d) ^ 0x5a);
        for bits in 0..=128 {
            assert_eq!(rot128(&x, bits), reference_rot128(&x, bits), "bits {bits}");
        }
    }

    #[test]
    fn rot128_identities() {
        let x: [u8; 16] = core::array::from_fn(|i| i as u8);
        assert_eq!(rot128(&x, 0), x);
        assert_eq!(rot128(&x, 128), x);
        // Rotation by 8 bits moves each byte up one position.
        let r = rot128(&x, 8);
        assert_eq!(r[0], 1);
        assert_eq!(r[15], 0);
        // Composition: rot(a) ∘ rot(b) == rot(a+b).
        assert_eq!(rot128(&rot128(&x, 24), 40), rot128(&x, 64));
    }
}
