//! Replayed rows: layers that run inside `Shard` and cannot be spanned
//! from outside. Each is timed in isolation on messages captured in the
//! traced run, or built with the public codec APIs, and later scaled by
//! the per-procedure operation counts the traced run observed.

use crate::stats::median;
use crate::traced::Samples;
use bytes::Bytes;
use scale_core::routeplane::{RoutePlane, RouteSnapshot};
use scale_crypto::kdf::NasSecurityKeys;
use scale_crypto::milenage::Milenage;
use scale_diameter::S6a;
use scale_gtpc::{self as gtpc, iface_type, BearerContext, Fteid};
use scale_mme::UeContext;
use scale_nas::{Direction, EmmMessage, Guti, NasSecurityContext, Plmn, SecurityHeader, Tai};
use scale_s1ap::S1apPdu;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches timed per row; the row is their median.
const BATCHES: usize = 7;
/// Target length of one batch.
const BATCH: Duration = Duration::from_millis(15);

/// ns per operation of each replayed row.
#[derive(Debug, Clone, Copy, Default)]
pub struct Costs {
    /// EIA2 MAC over a protected NAS message.
    pub eia2_ns: f64,
    /// Milenage f2345.
    pub f2345_ns: f64,
    /// NAS integrity protect (encode + MAC).
    pub protect_ns: f64,
    /// NAS unprotect (MAC check + decode).
    pub unprotect_ns: f64,
    /// Plain EMM decode.
    pub emm_decode_ns: f64,
    /// S1AP encode, over the captured PDU mix.
    pub s1ap_encode_ns: f64,
    /// S1AP decode, over the captured PDU mix.
    pub s1ap_decode_ns: f64,
    /// GTPv2-C encode + decode of a Create Session Request.
    pub gtpc_codec_ns: f64,
    /// S6a message build + parse (Authentication-Information).
    pub diameter_codec_ns: f64,
    /// UE-context serialize (replica export).
    pub export_ns: f64,
    /// UE-context deserialize (replica import).
    pub import_ns: f64,
    /// `RouteReader::route_idle`.
    pub route_idle_ns: f64,
    /// `RouteReader::route_new_attach`.
    pub route_new_attach_ns: f64,
}

/// Time `op` (which performs `per_call` operations) in batches; ns per
/// operation, median over batches.
fn time_ns(per_call: usize, mut op: impl FnMut()) -> f64 {
    // Calibrate the batch size to roughly BATCH.
    let mut calls = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..calls {
            op();
        }
        if t.elapsed() >= BATCH / 4 || calls >= 1 << 24 {
            break;
        }
        calls *= 2;
    }
    calls *= 4;
    let per = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                op();
            }
            t.elapsed().as_nanos() as f64 / (calls * per_call) as f64
        })
        .collect::<Vec<_>>();
    median(&per)
}

fn keys() -> NasSecurityKeys {
    NasSecurityKeys {
        kasme: [3u8; 32],
        k_nas_enc: [5u8; 16],
        k_nas_int: [9u8; 16],
    }
}

fn guti(m_tmsi: u32) -> Guti {
    Guti {
        plmn: Plmn::test(),
        mme_group_id: 0x8001,
        mme_code: 1,
        m_tmsi,
    }
}

/// Measure every replayed row.
pub fn measure(samples: &Samples) -> Result<Costs, String> {
    let mut c = Costs::default();

    // NAS security over an integrity-protected TAU request, the most
    // common protected uplink message of the idle-mode mix.
    let msg = EmmMessage::TauRequest {
        guti: guti(0x0200_0001),
        tai: Tai::new(Plmn::test(), 2),
    };
    let mut tx = NasSecurityContext::new(keys(), 1);
    let sample = tx.protect(&msg, Direction::Uplink, SecurityHeader::Integrity);
    c.eia2_ns = {
        let key = [9u8; 16];
        let mut count = 0u32;
        time_ns(1, || {
            count = count.wrapping_add(1);
            black_box(scale_crypto::cmac::eia2_mac(&key, count, 0, false, &sample));
        })
    };
    const N: usize = 256;
    c.protect_ns = {
        let mut tx = NasSecurityContext::new(keys(), 1);
        time_ns(N, || {
            tx.ul_count = 0;
            for _ in 0..N {
                black_box(tx.protect(&msg, Direction::Uplink, SecurityHeader::Integrity));
            }
        })
    };
    let wires: Vec<Bytes> = {
        let mut tx = NasSecurityContext::new(keys(), 1);
        (0..N)
            .map(|_| tx.protect(&msg, Direction::Uplink, SecurityHeader::Integrity))
            .collect()
    };
    let mut rx = NasSecurityContext::new(keys(), 1);
    for w in &wires {
        rx.unprotect(w.clone(), Direction::Uplink)
            .map_err(|e| format!("replay: NAS unprotect: {e}"))?;
    }
    c.unprotect_ns = time_ns(N, || {
        rx.ul_count = 0;
        for w in &wires {
            black_box(rx.unprotect(w.clone(), Direction::Uplink).ok());
        }
    });

    let plain: Vec<Bytes> = if samples.nas_plain.is_empty() {
        vec![EmmMessage::AttachComplete.encode()]
    } else {
        samples.nas_plain.clone()
    };
    c.emm_decode_ns = time_ns(plain.len(), || {
        for p in &plain {
            black_box(EmmMessage::decode(p.clone()).ok());
        }
    });

    let mil = Milenage::from_op(&[7u8; 16], b"scale-operator-0");
    let mut rand = [0u8; 16];
    c.f2345_ns = time_ns(1, || {
        rand[0] = rand[0].wrapping_add(1);
        black_box(mil.f2345(&rand));
    });

    let pdus: Vec<S1apPdu> = samples.s1ap.clone();
    if pdus.is_empty() {
        return Err("replay: the traced run captured no S1AP PDU".into());
    }
    c.s1ap_encode_ns = time_ns(pdus.len(), || {
        for p in &pdus {
            black_box(p.encode());
        }
    });
    let encoded: Vec<Bytes> = pdus.iter().map(S1apPdu::encode).collect();
    c.s1ap_decode_ns = time_ns(encoded.len(), || {
        for b in &encoded {
            black_box(S1apPdu::decode(b.clone()).ok());
        }
    });

    let csr = gtpc::Message {
        teid: 0,
        sequence: 5,
        body: gtpc::Body::CreateSessionRequest {
            imsi: "001010000000001".into(),
            apn: "internet".into(),
            sender_fteid: Fteid {
                iface: iface_type::S11_MME,
                teid: 0x0200_0001,
                ipv4: [10, 0, 0, 1],
            },
            ambr: gtpc::Ambr {
                uplink_kbps: 1,
                downlink_kbps: 1,
            },
            bearer: BearerContext::new(5),
        },
    };
    c.gtpc_codec_ns = time_ns(1, || {
        black_box(gtpc::Message::decode(csr.encode()).ok());
    });

    let air = S6a::AuthInfoRequest {
        imsi: "001010000000001".into(),
        visited_plmn: [0x00, 0xf1, 0x10],
        vectors: 1,
    };
    c.diameter_codec_ns = time_ns(1, || {
        let m = air.clone().into_msg(1, 1);
        black_box(S6a::from_msg(&m).ok());
    });

    let blob = samples
        .replica
        .clone()
        .ok_or("replay: the traced run captured no replica blob")?;
    let ctx = UeContext::from_bytes(blob.clone()).map_err(|e| format!("replay: import: {e}"))?;
    c.export_ns = time_ns(1, || {
        black_box(ctx.to_bytes());
    });
    c.import_ns = time_ns(1, || {
        black_box(UeContext::from_bytes(blob.clone()).ok());
    });

    let mut snap = RouteSnapshot::new(64, 2, Plmn::test(), 0x8001, 1);
    for vm in 1..=16 {
        snap.ring.add_node(vm);
    }
    let plane = Arc::new(RoutePlane::new(snap));
    let mut reader = plane.reader();
    // Walk a population far larger than the reader's position memo, as
    // the run does.
    let mut m = 0u32;
    c.route_idle_ns = time_ns(1, || {
        m = m.wrapping_add(7919) & 0x1_ffff;
        black_box(reader.route_idle(0x0200_0000 + m));
    });
    c.route_new_attach_ns = time_ns(1, || {
        m = m.wrapping_add(7919) & 0x1_ffff;
        black_box(reader.route_new_attach(0x0200_0000 + m));
    });
    Ok(c)
}
