//! Invariant-audit storm (only built with `--features verify`): drive a
//! live DC through attach/idle traffic interleaved with crash, repair,
//! restart, scale and epoch churn. Every mutation already self-audits
//! under `verify`; this test adds explicit audit calls at the points
//! where the full replica contract must hold, so a regression in ring
//! bookkeeping, liveness publication, or replica syncing fails loudly
//! here rather than skewing an experiment.

#![cfg(feature = "verify")]

use scale_core::{ScaleConfig, ScaleDc};
use scale_epc::Network;

fn loaded_network(initial_vms: u32, n_ues: usize) -> Network<ScaleDc> {
    let dc = ScaleDc::new(ScaleConfig {
        initial_vms,
        ..Default::default()
    });
    let mut net = Network::new(dc, 2);
    net.s1_setup();
    for i in 0..n_ues {
        net.add_ue(&format!("0010155{i:08}"), i % 2);
    }
    for ue in 0..n_ues {
        assert!(net.attach(ue), "{:?}", net.errors);
        assert!(net.go_idle(ue), "{:?}", net.errors);
    }
    net
}

#[test]
fn crash_repair_cycles_preserve_replica_contract() {
    let mut net = loaded_network(5, 60);
    net.cp.check_invariants();
    for round in 0..3 {
        let victim = net.cp.vm_ids()[round % 2];
        assert!(net.cp.crash_mmp(victim));
        // Degraded window: structural coherence must still hold.
        net.cp.check_invariants();
        let report = net.cp.repair();
        assert!(report.vms_repaired >= 1);
        // repair() self-audits; assert explicitly anyway so the test
        // documents where the contract is strongest.
        net.cp.check_invariants();
        net.cp.check_replica_invariants();
        assert!(net.cp.restart_mmp(victim), "restart under old id");
        net.cp.check_replica_invariants();
    }
}

#[test]
fn double_crash_then_single_repair_pass() {
    let mut net = loaded_network(6, 60);
    let vms = net.cp.vm_ids();
    assert!(net.cp.crash_mmp(vms[0]));
    assert!(net.cp.crash_mmp(vms[1]));
    net.cp.check_invariants();
    net.cp.repair();
    net.cp.check_replica_invariants();
    // Traffic still flows to every surviving UE's state.
    for ue in 0..30 {
        net.service_request(ue);
    }
    net.cp.check_invariants();
}

#[test]
fn epoch_scaling_keeps_devices_fully_replicated() {
    let mut net = loaded_network(3, 80);
    for _ in 0..4 {
        // Generate some load so provisioning sees a signal, then run
        // the epoch: scale decisions + re-homing must land coherent.
        for ue in 0..40 {
            net.service_request(ue);
            net.go_idle(ue);
        }
        let report = net.cp.run_epoch();
        assert!(report.vms_after >= 1);
        net.cp.check_replica_invariants();
    }
}

#[test]
fn manual_scale_churn_stays_coherent() {
    let mut net = loaded_network(2, 40);
    for _ in 0..6 {
        net.cp.add_mmp().expect("id space");
    }
    net.cp.check_invariants();
    // run_epoch's sync pass restores the full replica contract after
    // raw membership churn shifted arc ownership.
    net.cp.run_epoch();
    net.cp.check_replica_invariants();
    // The epoch may have scaled the fleet down already; shrink by hand
    // toward (but never to below) a single VM.
    let ids = net.cp.vm_ids();
    let shrink = ids.len().saturating_sub(1).min(3);
    for vm in ids.iter().rev().take(shrink) {
        assert!(net.cp.remove_mmp(*vm));
        net.cp.check_invariants();
    }
    net.cp.run_epoch();
    net.cp.check_replica_invariants();
}
