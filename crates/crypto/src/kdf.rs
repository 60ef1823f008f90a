//! 3GPP key-derivation function and the EPS key hierarchy (TS 33.401 annex A).
//!
//! Shape of the hierarchy reproduced here:
//!
//! ```text
//!  K (USIM/HSS) --Milenage--> CK, IK --A.2--> K_ASME --A.7--> K_NASenc, K_NASint
//! ```
//!
//! The generic KDF (TS 33.220 annex B) is `HMAC-SHA-256(key, FC || P0 ||
//! L0 || P1 || L1 ...)`; each derivation is tagged by its FC byte.
//!
//! The parameter string is streamed into the keyed HMAC state, never
//! built in a buffer; [`nas_keys_from_kasme`] keys one HMAC state with
//! K_ASME and derives both NAS keys from it (6 SHA-256 compressions
//! instead of 8).
//!
//! lint: hot-path

use crate::hmac::HmacSha256;

/// FC tag for K_ASME derivation (TS 33.401 A.2).
pub const FC_KASME: u8 = 0x10;
/// FC tag for NAS/RRC/UP algorithm key derivation (TS 33.401 A.7).
pub const FC_ALG_KEY: u8 = 0x15;

/// Algorithm type distinguishers for [`derive_alg_key`] (TS 33.401 A.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgKeyType {
    /// NAS encryption key.
    NasEnc,
    /// NAS integrity key.
    NasInt,
    /// RRC encryption key (unused by the MME but kept for completeness).
    RrcEnc,
    /// RRC integrity key.
    RrcInt,
}

impl AlgKeyType {
    fn distinguisher(self) -> u8 {
        match self {
            AlgKeyType::NasEnc => 0x01,
            AlgKeyType::NasInt => 0x02,
            AlgKeyType::RrcEnc => 0x03,
            AlgKeyType::RrcInt => 0x04,
        }
    }
}

/// The generic 3GPP KDF: HMAC-SHA-256 over an FC-tagged parameter string.
/// Each `(param, len)` pair is appended as `P_i || L_i` with `L_i` a
/// 2-byte big-endian length.
pub fn kdf(key: &[u8], fc: u8, params: &[&[u8]]) -> [u8; 32] {
    kdf_keyed(&HmacSha256::new(key), fc, params)
}

/// [`kdf`] under an already keyed HMAC state.
fn kdf_keyed(prf: &HmacSha256, fc: u8, params: &[&[u8]]) -> [u8; 32] {
    let mut s = prf.start();
    s.update(&[fc]);
    for p in params {
        s.update(p);
        s.update(&(p.len() as u16).to_be_bytes());
    }
    prf.finish(s)
}

/// Derive K_ASME from CK/IK, the serving-network id (PLMN, 3 bytes) and
/// SQN ⊕ AK (6 bytes), per TS 33.401 A.2.
pub fn derive_kasme(ck: &[u8; 16], ik: &[u8; 16], plmn: &[u8; 3], sqn_xor_ak: &[u8; 6]) -> [u8; 32] {
    let mut key = [0u8; 32];
    key[..16].copy_from_slice(ck);
    key[16..].copy_from_slice(ik);
    kdf(&key, FC_KASME, &[plmn, sqn_xor_ak])
}

/// Derive a 128-bit algorithm key (e.g. K_NASint for EIA2) from K_ASME,
/// per TS 33.401 A.7: the low-order 128 bits of the 256-bit KDF output.
pub fn derive_alg_key(kasme: &[u8; 32], ty: AlgKeyType, alg_id: u8) -> [u8; 16] {
    alg_key_keyed(&HmacSha256::new(kasme), ty, alg_id)
}

/// [`derive_alg_key`] under an HMAC state keyed with K_ASME.
fn alg_key_keyed(kasme_prf: &HmacSha256, ty: AlgKeyType, alg_id: u8) -> [u8; 16] {
    let out = kdf_keyed(kasme_prf, FC_ALG_KEY, &[&[ty.distinguisher()], &[alg_id]]);
    crate::take(&out[16..])
}

/// Everything the MME stores for one NAS security context, derived in one
/// shot after a successful AKA run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NasSecurityKeys {
    /// K_ASME, the anchor key.
    pub kasme: [u8; 32],
    /// NAS encryption key (EEA2 id 2).
    pub k_nas_enc: [u8; 16],
    /// NAS integrity key (EIA2 id 2).
    pub k_nas_int: [u8; 16],
}

/// EIA2/EEA2 algorithm identity used in the derivations.
pub const ALG_ID_AES: u8 = 0x02;

/// Derive the full NAS security context from one AKA output.
pub fn derive_nas_keys(
    ck: &[u8; 16],
    ik: &[u8; 16],
    plmn: &[u8; 3],
    sqn_xor_ak: &[u8; 6],
) -> NasSecurityKeys {
    nas_keys_from_kasme(derive_kasme(ck, ik, plmn, sqn_xor_ak))
}

/// K_NASenc and K_NASint for EEA2/EIA2 from K_ASME (TS 33.401 A.7),
/// both derived under one HMAC state keyed with K_ASME.
pub fn nas_keys_from_kasme(kasme: [u8; 32]) -> NasSecurityKeys {
    let prf = HmacSha256::new(&kasme);
    NasSecurityKeys {
        kasme,
        k_nas_enc: alg_key_keyed(&prf, AlgKeyType::NasEnc, ALG_ID_AES),
        k_nas_int: alg_key_keyed(&prf, AlgKeyType::NasInt, ALG_ID_AES),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kasme_depends_on_every_input() {
        let ck = [1u8; 16];
        let ik = [2u8; 16];
        let plmn = [0x02, 0xf8, 0x10];
        let sqn_ak = [9u8; 6];
        let base = derive_kasme(&ck, &ik, &plmn, &sqn_ak);
        assert_ne!(base, derive_kasme(&[3u8; 16], &ik, &plmn, &sqn_ak));
        assert_ne!(base, derive_kasme(&ck, &[3u8; 16], &plmn, &sqn_ak));
        assert_ne!(base, derive_kasme(&ck, &ik, &[1, 2, 3], &sqn_ak));
        assert_ne!(base, derive_kasme(&ck, &ik, &plmn, &[0u8; 6]));
        // Deterministic.
        assert_eq!(base, derive_kasme(&ck, &ik, &plmn, &sqn_ak));
    }

    #[test]
    fn alg_keys_are_distinct_per_type_and_alg() {
        let kasme = [7u8; 32];
        let enc = derive_alg_key(&kasme, AlgKeyType::NasEnc, ALG_ID_AES);
        let int = derive_alg_key(&kasme, AlgKeyType::NasInt, ALG_ID_AES);
        let int_other_alg = derive_alg_key(&kasme, AlgKeyType::NasInt, 0x01);
        assert_ne!(enc, int);
        assert_ne!(int, int_other_alg);
    }

    #[test]
    fn full_hierarchy_is_stable() {
        let keys = derive_nas_keys(&[1; 16], &[2; 16], &[0x13, 0x00, 0x14], &[5; 6]);
        let again = derive_nas_keys(&[1; 16], &[2; 16], &[0x13, 0x00, 0x14], &[5; 6]);
        assert_eq!(keys, again);
        assert_ne!(keys.k_nas_enc, keys.k_nas_int);
    }

    #[test]
    fn one_keyed_state_equals_two_alg_key_derivations() {
        for seed in 0..16u8 {
            let kasme: [u8; 32] = core::array::from_fn(|i| seed.wrapping_mul(31) ^ i as u8);
            let keys = nas_keys_from_kasme(kasme);
            assert_eq!(keys.kasme, kasme);
            assert_eq!(
                keys.k_nas_enc,
                derive_alg_key(&kasme, AlgKeyType::NasEnc, ALG_ID_AES)
            );
            assert_eq!(
                keys.k_nas_int,
                derive_alg_key(&kasme, AlgKeyType::NasInt, ALG_ID_AES)
            );
        }
    }

    /// The streamed parameter string equals HMAC over the contiguous
    /// `FC || P0 || L0 || P1 || L1` string.
    #[test]
    fn kdf_equals_hmac_over_the_parameter_string() {
        let key = [0x42u8; 32];
        let s = [FC_KASME, 1, 2, 3, 0, 3, 9, 9, 9, 9, 9, 9, 0, 6];
        assert_eq!(
            kdf(&key, FC_KASME, &[&[1, 2, 3], &[9; 6]]),
            crate::hmac::hmac_sha256(&key, &s)
        );
    }

    #[test]
    fn kdf_length_framing_is_unambiguous() {
        // ("ab", "c") must differ from ("a", "bc") thanks to L_i framing.
        let k = [0u8; 16];
        assert_ne!(
            kdf(&k, 0x10, &[b"ab", b"c"]),
            kdf(&k, 0x10, &[b"a", b"bc"])
        );
    }
}
