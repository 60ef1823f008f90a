//! Criterion micro-benchmarks for the building blocks whose costs the
//! per-request compute model is grounded in: ring lookups (the MLB's
//! per-message work), codec encode/decode, the attach path's crypto
//! (AES-128, Milenage vector generation, EIA2, the HMAC-SHA-256 KDF),
//! context serialization (the replication unit) and raw simulator
//! throughput.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use scale_crypto::aes::Aes128;
use scale_crypto::hmac::hmac_sha256;
use scale_crypto::kdf::derive_nas_keys;
use scale_crypto::milenage::Milenage;
use scale_hashring::HashRing;
use scale_nas::{EmmMessage, Guti, MobileId, Plmn, Tai};
use scale_s1ap::S1apPdu;
use std::hint::black_box;

fn ring_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("hashring");
    for vms in [4usize, 30, 100] {
        let mut ring: HashRing<u32> = HashRing::new(5);
        for vm in 0..vms {
            ring.add_node(vm as u32);
        }
        group.bench_function(format!("lookup_{vms}vms"), |b| {
            let mut key = 0u64;
            b.iter(|| {
                key = key.wrapping_add(1);
                black_box(ring.primary(&key))
            })
        });
        group.bench_function(format!("replica_walk_{vms}vms"), |b| {
            let mut key = 0u64;
            b.iter(|| {
                key = key.wrapping_add(1);
                black_box(ring.replicas(&key, 2))
            })
        });
    }
    group.bench_function("add_node_30vms", |b| {
        b.iter_batched(
            || {
                let mut ring: HashRing<u32> = HashRing::new(5);
                for vm in 0..30u32 {
                    ring.add_node(vm);
                }
                ring
            },
            |mut ring| ring.add_node(999),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn codec_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    let attach = EmmMessage::AttachRequest {
        attach_type: 1,
        id: MobileId::Imsi("001010123456789".into()),
        tai: Tai::new(Plmn::test(), 7),
    };
    group.bench_function("nas_attach_encode", |b| b.iter(|| black_box(attach.encode())));
    let wire = attach.encode();
    group.bench_function("nas_attach_decode", |b| {
        b.iter(|| black_box(EmmMessage::decode(wire.clone()).unwrap()))
    });

    let pdu = S1apPdu::InitialUeMessage {
        enb_ue_id: 17,
        nas_pdu: wire.clone(),
        tai: Tai::new(Plmn::test(), 7),
        establishment_cause: 3,
        s_tmsi: Some((1, 0xc0ffee)),
    };
    group.bench_function("s1ap_initial_ue_encode", |b| b.iter(|| black_box(pdu.encode())));
    let s1_wire = pdu.encode();
    group.bench_function("s1ap_initial_ue_decode", |b| {
        b.iter(|| black_box(S1apPdu::decode(s1_wire.clone()).unwrap()))
    });
    group.finish();
}

fn crypto_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    group.bench_function("aes128_key_expand", |b| {
        let mut key = [0x2bu8; 16];
        b.iter(|| {
            key[0] = key[0].wrapping_add(1);
            black_box(Aes128::new(black_box(&key)))
        })
    });
    group.bench_function("aes128_encrypt_block", |b| {
        let aes = Aes128::new(&[0x2bu8; 16]);
        let mut block = [0u8; 16];
        b.iter(|| {
            aes.encrypt_block(&mut block);
            black_box(block)
        })
    });
    group.bench_function("hmac_sha256_32B_key", |b| {
        // K_ASME-sized key over a KDF-sized parameter string.
        let key = [0x33u8; 32];
        let mut msg = [0x10u8; 14];
        b.iter(|| {
            msg[1] = msg[1].wrapping_add(1);
            black_box(hmac_sha256(&key, &msg))
        })
    });
    group.bench_function("derive_nas_keys", |b| {
        let mut ck = [1u8; 16];
        b.iter(|| {
            ck[0] = ck[0].wrapping_add(1);
            black_box(derive_nas_keys(&ck, &[2; 16], &[0x00, 0xf1, 0x10], &[3; 6]))
        })
    });
    let mil = Milenage::from_op(&[7u8; 16], b"scale-operator-0");
    group.bench_function("milenage_f2345", |b| {
        let mut rand = [0u8; 16];
        b.iter(|| {
            rand[0] = rand[0].wrapping_add(1);
            black_box(mil.f2345(&rand))
        })
    });
    group.bench_function("eia2_mac_64B", |b| {
        let key = [9u8; 16];
        let msg = [0xa5u8; 64];
        let mut count = 0u32;
        b.iter(|| {
            count = count.wrapping_add(1);
            black_box(scale_crypto::cmac::eia2_mac(&key, count, 0, false, &msg))
        })
    });
    group.finish();
}

fn state_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("state");
    let guti = Guti {
        plmn: Plmn::test(),
        mme_group_id: 0x8001,
        mme_code: 1,
        m_tmsi: 42,
    };
    let mut ctx =
        scale_mme::UeContext::new("001010123456789".into(), guti, Tai::new(Plmn::test(), 7));
    ctx.access_freq = 0.7;
    group.bench_function("uecontext_serialize", |b| b.iter(|| black_box(ctx.to_bytes())));
    let blob = ctx.to_bytes();
    group.bench_function("uecontext_deserialize", |b| {
        b.iter(|| black_box(scale_mme::UeContext::from_bytes(blob.clone()).unwrap()))
    });
    group.finish();
}

fn sim_benches(c: &mut Criterion) {
    use scale_sim::{placement, Assignment, DcSim, Procedure, Request};
    let mut group = c.benchmark_group("simulator");
    group.bench_function("submit_least_loaded_30vms", |b| {
        let holders = placement::ring(10_000, 30, 5, 2);
        b.iter_batched(
            || DcSim::new(30, Assignment::LeastLoaded, 1.0).with_holders(holders.clone()),
            |mut dc| {
                for i in 0..1000u32 {
                    dc.submit(Request {
                        time: i as f64 * 0.001,
                        device: (i as usize * 37) % 10_000,
                        procedure: Procedure::ServiceRequest,
                    });
                }
                dc
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn fast() -> Criterion {
    // Keep full-workspace bench runs quick while staying statistically
    // meaningful for these sub-microsecond operations.
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(600))
}

criterion_group! {
    name = benches;
    config = fast();
    targets = ring_benches, codec_benches, crypto_benches, state_benches, sim_benches
}
criterion_main!(benches);
