//! E1 / Fig 7(a): is the MLB a bottleneck? The paper saturated 4 MMP
//! VMs and watched the MLB stay under 80 % CPU.
//!
//! Prototype equivalent: drive full attach + service-request flows (real
//! NAS/S1AP bytes, real AKA crypto) through the in-process SCALE
//! cluster, measuring wall-clock time spent in MLB routing (NAS peek +
//! ring lookup + load choice) vs MMP processing. The MLB share per
//! request is its "CPU" relative to one MMP's.

use scale_bench::{emit, Row};
use scale_core::{ScaleConfig, ScaleDc};
use scale_epc::Network;
use std::time::Instant;

fn main() {
    let mut rows = Vec::new();
    for n_mmps in 1..=4u32 {
        let dc = ScaleDc::new(ScaleConfig {
            initial_vms: n_mmps,
            ..Default::default()
        });
        let mut net = Network::new(dc, 2);
        net.s1_setup();
        let n_ues = 200;
        for i in 0..n_ues {
            net.add_ue(&format!("0010166{i:08}"), i % 2);
        }
        let t0 = Instant::now();
        for ue in 0..n_ues {
            assert!(net.attach(ue), "{:?}", net.errors);
            assert!(net.go_idle(ue));
            assert!(net.service_request(ue));
            assert!(net.go_idle(ue));
        }
        let total = t0.elapsed().as_secs_f64();
        let messages = net.cp.stats.messages as f64;

        // Measure pure routing cost on the same message mix: ring lookup
        // + least-loaded choice per routed message.
        let t1 = Instant::now();
        let probes = 200_000u32;
        let mut acc = 0u64;
        for i in 0..probes {
            if let Some(vm) = net.cp.route_idle(i % 1000) {
                acc = acc.wrapping_add(vm as u64);
            }
        }
        let route_each = t1.elapsed().as_secs_f64() / probes as f64;
        std::hint::black_box(acc);

        let mlb_work = route_each * messages;
        let mmp_work = (total - mlb_work).max(0.0) / n_mmps as f64;
        // Utilization proxy: when all n MMPs are pegged at 100 %, the
        // MLB is busy mlb_work / mmp_work of the time.
        let mlb_util = 100.0 * mlb_work / mmp_work.max(1e-12);
        println!(
            "# {n_mmps} MMPs: total {total:.3}s, {messages} msgs, routing {:.1}ns/msg, MLB util when MMPs saturated ≈ {mlb_util:.2}%",
            route_each * 1e9
        );
        rows.push(Row::new("mlb-cpu-at-mmp-saturation", n_mmps as f64, mlb_util));
        rows.push(Row::new("mmp-cpu", n_mmps as f64, 100.0));
    }
    println!("# paper shape: MLB stays well below saturation while 4 MMPs are pegged");
    emit(
        "e1_mlb_overhead",
        "MLB routing cost relative to MMP processing (prototype, real codecs + crypto)",
        "number of saturated MMP VMs",
        "CPU utilization (%)",
        &rows,
    );
}
