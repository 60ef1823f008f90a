//! Fault injection and the chaos-failover simulator — the timing side
//! of §4.6's availability story.
//!
//! Two layers live here:
//!
//! * [`FaultPlan`] / [`ChaosRng`] — a schedule of VM crashes, restarts
//!   and transient stalls at virtual times. A plan drives either the
//!   queueing simulator below or the real in-process cluster
//!   ([`FaultPlan::apply_due_to_cluster`] maps events onto
//!   `ScaleDc::crash_mmp` / `restart_mmp`).
//! * [`ChaosSim`] — a failover-capable extension of the `queueing`
//!   model: per-VM liveness, the MLB's *belief* about liveness
//!   (heartbeat-miss and consecutive-error detection with the
//!   thresholds of `scale_core::failover`), bounded retry with
//!   exponential backoff + jitter and a per-request deadline (lost
//!   requests are counted, the Fig-style metric), re-replication
//!   repair traffic that competes with foreground load, and
//!   token-bucket shedding of low-priority requests under overload.
//!
//! Everything is deterministic: workloads come from seeded streams,
//! chaos schedules from a seeded RNG, and retry jitter from the
//! hash-based `BackoffPolicy` — two runs with the same seeds produce
//! identical reports.

use crate::queueing::{ProcCosts, Procedure, Request, VmServer};
use scale_core::failover::{BackoffPolicy, HealthConfig, Priority, ShedPolicy, TokenBucket};
use scale_core::ScaleDc;
use scale_hashring::HashRing;
use scale_obs::PhasedSeries;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

/// What happens to a VM at a fault event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The VM dies instantly; every state copy it held is gone.
    Crash,
    /// The VM rejoins under its old id (token placement unchanged) and
    /// is warmed by replica pull before becoming routable.
    Restart,
    /// The VM freezes for `secs` of virtual time: its queue stops
    /// draining but no state is lost.
    Stall { secs: f64 },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    pub time: f64,
    pub vm: u32,
    pub kind: FaultKind,
}

/// A time-ordered schedule of fault events.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    cursor: usize,
}

impl FaultPlan {
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Insert an event, keeping the schedule time-ordered.
    pub fn push(&mut self, ev: FaultEvent) {
        let at = self
            .events
            .partition_point(|e| e.time <= ev.time);
        self.events.insert(at, ev);
    }

    /// Builder: schedule a crash.
    pub fn with_crash(mut self, time: f64, vm: u32) -> Self {
        self.push(FaultEvent {
            time,
            vm,
            kind: FaultKind::Crash,
        });
        self
    }

    /// Builder: schedule a restart.
    pub fn with_restart(mut self, time: f64, vm: u32) -> Self {
        self.push(FaultEvent {
            time,
            vm,
            kind: FaultKind::Restart,
        });
        self
    }

    /// Builder: schedule a transient stall.
    pub fn with_stall(mut self, time: f64, vm: u32, secs: f64) -> Self {
        self.push(FaultEvent {
            time,
            vm,
            kind: FaultKind::Stall { secs },
        });
        self
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Earliest still-pending event time.
    pub fn peek_time(&self) -> Option<f64> {
        self.events.get(self.cursor).map(|e| e.time)
    }

    /// Pop the next event due at or before `now`, advancing the cursor.
    pub fn pop_due(&mut self, now: f64) -> Option<FaultEvent> {
        let ev = self.events.get(self.cursor)?;
        if ev.time <= now {
            self.cursor += 1;
            Some(*ev)
        } else {
            None
        }
    }

    /// Rewind so the plan can drive a second identical run.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }

    /// Drive the in-process cluster: apply every event due at `now`.
    /// Stalls are a timing phenomenon the untimed cluster cannot
    /// express; they are modelled only by [`ChaosSim`]. Returns the
    /// number of events applied.
    pub fn apply_due_to_cluster(&mut self, dc: &mut ScaleDc, now: f64) -> usize {
        let mut applied = 0;
        while let Some(ev) = self.pop_due(now) {
            match ev.kind {
                FaultKind::Crash => {
                    dc.crash_mmp(ev.vm);
                }
                FaultKind::Restart => {
                    dc.restart_mmp(ev.vm);
                }
                FaultKind::Stall { .. } => {}
            }
            applied += 1;
        }
        applied
    }
}

/// Seeded chaos-monkey schedule generator: kills a random live MMP
/// every `interval` seconds of virtual time.
#[derive(Debug)]
pub struct ChaosRng {
    rng: StdRng,
    pub interval: f64,
}

impl ChaosRng {
    pub fn new(seed: u64, interval: f64) -> Self {
        ChaosRng {
            rng: StdRng::seed_from_u64(seed),
            interval,
        }
    }

    /// Build a plan over `horizon` seconds against the VM ids in
    /// `vms`: one random victim per interval, never reducing the pool
    /// below one live VM. If `restart_after` is set, each victim
    /// rejoins that many seconds after its crash.
    pub fn plan(&mut self, vms: &[u32], horizon: f64, restart_after: Option<f64>) -> FaultPlan {
        let mut plan = FaultPlan::new();
        let mut live: Vec<u32> = vms.to_vec();
        let mut t = self.interval;
        while t < horizon {
            if live.len() <= 1 {
                break;
            }
            let idx = self.rng.gen_range(0..live.len());
            let victim = live.swap_remove(idx);
            plan.push(FaultEvent {
                time: t,
                vm: victim,
                kind: FaultKind::Crash,
            });
            if let Some(dt) = restart_after {
                if t + dt < horizon {
                    plan.push(FaultEvent {
                        time: t + dt,
                        vm: victim,
                        kind: FaultKind::Restart,
                    });
                    live.push(victim);
                }
            }
            t += self.interval;
        }
        plan
    }
}

/// Configuration of the chaos-failover simulator.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    pub n_vms: usize,
    /// Replication factor R.
    pub replication: usize,
    /// Ring tokens per VM.
    pub tokens: u32,
    pub costs: ProcCosts,
    /// Detection thresholds (shared with the in-process MLB).
    pub health: HealthConfig,
    /// Heartbeat period; a silent VM is marked down after
    /// `health.miss_threshold` missed beats.
    pub hb_interval: f64,
    /// Latency burned by one attempt against a dead-but-undetected VM
    /// before the MLB gives up on it (its request timeout).
    pub attempt_timeout: f64,
    /// Retry policy (shared with the in-process MLB).
    pub backoff: BackoffPolicy,
    /// Service seconds to push one state copy during repair — charged
    /// to both ends, so recovery competes with foreground load.
    pub repair_cost: f64,
    /// Shedding policy; `util_threshold` is interpreted as backlog
    /// seconds on every live holder.
    pub shed: ShedPolicy,
    /// Warm-up work per pulled copy when a VM restarts.
    pub warm_cost: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            n_vms: 8,
            replication: 2,
            tokens: 5,
            costs: ProcCosts::default(),
            health: HealthConfig::default(),
            hb_interval: 0.5,
            attempt_timeout: 0.25,
            backoff: BackoffPolicy::default(),
            repair_cost: 0.004,
            shed: ShedPolicy {
                util_threshold: 0.9,
                bucket_rate: 200.0,
                bucket_burst: 100.0,
            },
            warm_cost: 0.004,
        }
    }
}

/// Final report of one chaos run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosReport {
    pub served: u64,
    /// Requests that exhausted retries / the deadline, or had no
    /// reachable state copy — the headline loss metric.
    pub lost: u64,
    /// Low-priority requests shed by admission control.
    pub shed: u64,
    pub retries: u64,
    /// Requests that succeeded only after failing over away from a
    /// dead or down holder.
    pub failovers: u64,
    /// Devices whose every copy died and that re-attached afresh.
    pub re_registered: u64,
    /// Replica copies pushed by ring repair.
    pub copies_restored: u64,
    /// Virtual seconds from the first crash until the re-replication
    /// work completed (0 when nothing crashed).
    pub recovery_s: f64,
    /// Every surviving device holds min(R, live VMs) copies at the end.
    pub fully_replicated: bool,
    pub p99_before: f64,
    pub p99_during: f64,
    pub p99_after: f64,
}

/// The failover-capable DC simulator.
pub struct ChaosSim {
    cfg: ChaosConfig,
    vms: Vec<VmServer>,
    /// Ground truth: is the VM actually running?
    alive: Vec<bool>,
    /// MLB belief: may the VM be routed to?
    routable: Vec<bool>,
    /// Consecutive request errors observed per VM.
    errors_seen: Vec<u32>,
    /// Heartbeat-based detection deadline for crashed VMs.
    detect_at: Vec<f64>,
    ring: HashRing<u32>,
    /// Current desired holder set per device (MLB view of the ring).
    holders: Vec<Vec<usize>>,
    /// VMs actually holding a live copy of each device's state.
    copies: Vec<Vec<usize>>,
    plan: FaultPlan,
    bucket: TokenBucket,
    /// Timestamped per-request delays; phase boundaries are set at
    /// [`finish`](ChaosSim::finish). Swappable for a registry-resident
    /// series via [`use_delay_series`](ChaosSim::use_delay_series).
    delays: Arc<PhasedSeries>,
    first_crash: Option<f64>,
    repair_finish: f64,
    report: ChaosReport,
}

impl ChaosSim {
    pub fn new(cfg: ChaosConfig, n_devices: usize, plan: FaultPlan) -> Self {
        let mut ring = HashRing::new(cfg.tokens);
        for vm in 0..cfg.n_vms as u32 {
            ring.add_node(vm);
        }
        let mut holders = Vec::with_capacity(n_devices);
        for d in 0..n_devices {
            holders.push(Self::ring_holders(&ring, cfg.replication, d));
        }
        let copies = holders.clone();
        ChaosSim {
            vms: (0..cfg.n_vms).map(|_| VmServer::new(1.0, 1.0)).collect(),
            alive: vec![true; cfg.n_vms],
            routable: vec![true; cfg.n_vms],
            errors_seen: vec![0; cfg.n_vms],
            detect_at: vec![f64::INFINITY; cfg.n_vms],
            ring,
            holders,
            copies,
            plan,
            bucket: TokenBucket::new(cfg.shed.bucket_rate, cfg.shed.bucket_burst),
            delays: Arc::new(PhasedSeries::new()),
            first_crash: None,
            repair_finish: 0.0,
            report: ChaosReport::default(),
            cfg,
        }
    }

    /// Record per-request delays into a shared (typically
    /// registry-registered) series instead of the private default —
    /// this is how sweep binaries read chaos latency through the
    /// metrics registry. Call before [`run`](ChaosSim::run); samples
    /// already recorded stay in the series being replaced.
    pub fn use_delay_series(&mut self, series: Arc<PhasedSeries>) {
        self.delays = series;
    }

    /// The timestamped delay series (phase boundaries are set by
    /// [`finish`](ChaosSim::finish)).
    pub fn delays(&self) -> &Arc<PhasedSeries> {
        &self.delays
    }

    fn ring_holders(ring: &HashRing<u32>, r: usize, device: usize) -> Vec<usize> {
        let key = (device as u64).to_le_bytes();
        let mut out = Vec::with_capacity(r);
        ring.replicas_each(scale_hashring::position_of(&key), r, |vm| {
            out.push(*vm as usize)
        });
        out
    }

    /// Live VM count (ground truth).
    fn live_vms(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Process fault events and heartbeat detection up to `now`.
    fn advance(&mut self, now: f64) {
        while let Some(ev) = self.plan.pop_due(now) {
            let vm = ev.vm as usize;
            if vm >= self.vms.len() {
                continue;
            }
            match ev.kind {
                FaultKind::Crash => {
                    if !self.alive[vm] {
                        continue;
                    }
                    self.alive[vm] = false;
                    // The copies die with the VM; the MLB only learns
                    // at detection time.
                    for c in &mut self.copies {
                        c.retain(|v| *v != vm);
                    }
                    self.detect_at[vm] =
                        ev.time + self.hb_detect_delay();
                    self.first_crash.get_or_insert(ev.time);
                }
                FaultKind::Restart => {
                    if self.alive[vm] {
                        continue;
                    }
                    self.alive[vm] = true;
                    self.restart(vm, ev.time);
                }
                FaultKind::Stall { secs } => {
                    let from = self.vms[vm].free_at.max(ev.time);
                    self.vms[vm].free_at = from + secs;
                }
            }
        }
        // Heartbeat detection: silent VMs cross the miss threshold.
        for vm in 0..self.vms.len() {
            if !self.alive[vm] && self.routable[vm] && now >= self.detect_at[vm] {
                self.mark_down_and_repair(vm, self.detect_at[vm]);
            }
        }
    }

    fn hb_detect_delay(&self) -> f64 {
        self.cfg.hb_interval * self.cfg.health.miss_threshold as f64
    }

    /// MLB marks the VM down and immediately schedules ring repair:
    /// the ring is diffed, under-replicated devices get re-replication
    /// traffic on the surviving holders (costing their capacity).
    fn mark_down_and_repair(&mut self, vm: usize, now: f64) {
        if !self.routable[vm] {
            return;
        }
        self.routable[vm] = false;
        self.ring.remove_node(&(vm as u32));
        let r = self.cfg.replication;
        for d in 0..self.holders.len() {
            if !self.holders[d].contains(&vm) {
                continue;
            }
            self.holders[d] = Self::ring_holders(&self.ring, r, d);
            for &target in &self.holders[d].clone() {
                if self.copies[d].contains(&target) {
                    continue;
                }
                // Pull from any surviving copy; none → unrecoverable
                // here, the device re-registers on its next request.
                let Some(&source) = self.copies[d].first() else {
                    continue;
                };
                let cost = self.cfg.repair_cost;
                self.vms[source].serve(now, cost);
                let finish = self.vms[target].serve(now, cost);
                self.copies[d].push(target);
                self.report.copies_restored += 1;
                self.repair_finish = self.repair_finish.max(finish);
            }
        }
    }

    /// A crashed VM rejoins: same id → same token placement. It pulls
    /// the copies its arcs own (warm-up work) and only then becomes
    /// routable.
    fn restart(&mut self, vm: usize, now: f64) {
        self.errors_seen[vm] = 0;
        self.detect_at[vm] = f64::INFINITY;
        self.ring.add_node(vm as u32);
        let r = self.cfg.replication;
        let mut warm_finish = now;
        for d in 0..self.holders.len() {
            let new = Self::ring_holders(&self.ring, r, d);
            if new.contains(&vm) && !self.copies[d].is_empty() && !self.copies[d].contains(&vm) {
                let source = self.copies[d][0];
                let cost = self.cfg.warm_cost;
                self.vms[source].serve(now, cost);
                let finish = self.vms[vm].serve(now, cost);
                self.copies[d].push(vm);
                warm_finish = warm_finish.max(finish);
            }
            self.holders[d] = new;
        }
        // Routable once warmed — the sim applies this immediately
        // because requests are processed in time order and the warm
        // work already occupies the VM's queue until `warm_finish`.
        self.routable[vm] = true;
        self.repair_finish = self.repair_finish.max(warm_finish);
    }

    /// Submit one request (requests must arrive in time order).
    pub fn submit(&mut self, req: Request) {
        self.advance(req.time);
        let d = req.device;
        let now = req.time;

        // Admission control: when every routable holder is saturated,
        // low-priority traffic must win a token.
        let priority = match req.procedure {
            Procedure::Paging => Priority::Low,
            _ => Priority::High,
        };
        if priority == Priority::Low {
            let mut any = false;
            let mut all_hot = true;
            for &vm in &self.holders[d] {
                if !self.routable[vm] {
                    continue;
                }
                any = true;
                if self.vms[vm].backlog(now) <= self.cfg.shed.util_threshold {
                    all_hot = false;
                }
            }
            if any && all_hot && !self.bucket.try_take(now) {
                self.report.shed += 1;
                return;
            }
        }

        // Candidates in the MLB's view: routable holders, least
        // backlog first.
        let mut candidates: Vec<usize> = self.holders[d]
            .iter()
            .copied()
            .filter(|&vm| self.routable[vm])
            .collect();
        candidates.sort_by(|&a, &b| self.vms[a].backlog(now).total_cmp(&self.vms[b].backlog(now)));

        let service = self.cfg.costs.of(req.procedure);
        let mut elapsed = 0.0;
        let mut attempt = 0u32;
        let mut failed_over = false;
        for vm in candidates {
            attempt += 1;
            if self.alive[vm] && self.copies[d].contains(&vm) {
                let finish = self.vms[vm].serve(now + elapsed, service);
                self.report.served += 1;
                if failed_over {
                    self.report.failovers += 1;
                }
                self.errors_seen[vm] = 0;
                self.delays.push(now, finish - now);
                return;
            }
            if !self.alive[vm] {
                // Dead but undetected: the attempt times out, feeds the
                // error counter, and the MLB backs off before retrying.
                elapsed += self.cfg.attempt_timeout;
                self.errors_seen[vm] += 1;
                self.report.retries += 1;
                failed_over = true;
                if self.errors_seen[vm] >= self.cfg.health.error_threshold {
                    self.mark_down_and_repair(vm, now + elapsed);
                }
                if !self.cfg.backoff.may_retry(attempt, elapsed) {
                    self.report.lost += 1;
                    return;
                }
                elapsed += self.cfg.backoff.delay(attempt, d as u64);
                if elapsed >= self.cfg.backoff.deadline {
                    self.report.lost += 1;
                    return;
                }
            }
            // Alive but no copy: skip silently (MLB forwards on).
        }

        // No routable holder served the request.
        self.report.lost += 1;
        if self.copies[d].is_empty() {
            // Every copy died: the UE re-attaches, creating a fresh
            // single copy at the ring master (charged as an attach).
            self.report.re_registered += 1;
            let r = self.cfg.replication;
            self.holders[d] = Self::ring_holders(&self.ring, r, d);
            if let Some(&master) = self.holders[d].iter().find(|&&vm| self.alive[vm]) {
                self.vms[master].serve(now + elapsed, self.cfg.costs.of(Procedure::Attach));
                self.copies[d] = vec![master];
            }
        }
    }

    /// Run an entire pre-generated stream.
    pub fn run(&mut self, stream: &[Request]) {
        for req in stream {
            self.submit(*req);
        }
    }

    /// Close the run and produce the report.
    pub fn finish(mut self, horizon: f64) -> ChaosReport {
        self.advance(horizon);
        let mut report = self.report;
        report.recovery_s = match self.first_crash {
            Some(t) => (self.repair_finish - t).max(0.0),
            None => 0.0,
        };
        // Replication degree at end-of-run: every surviving device
        // must hold min(R, live) copies.
        let want = self.cfg.replication.min(self.live_vms());
        report.fully_replicated = self
            .copies
            .iter()
            .all(|c| c.is_empty() || c.len() >= want.min(self.cfg.replication));
        // Phase-partitioned p99 via the shared series: before the first
        // crash / between crash and repair completion / recovered.
        let crash = self.first_crash.unwrap_or(f64::INFINITY);
        let recovered = if self.repair_finish > 0.0 {
            self.repair_finish
        } else {
            f64::INFINITY
        };
        self.delays.set_boundaries(crash, recovered);
        let (before, during, after) = self.delays.p99_by_phase();
        report.p99_before = before;
        report.p99_during = during;
        report.p99_after = after;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{device_stream, uniform_rates, ProcedureMix};

    #[test]
    fn plan_pops_in_time_order() {
        let mut plan = FaultPlan::new()
            .with_restart(5.0, 1)
            .with_crash(1.0, 1)
            .with_stall(3.0, 2, 0.5);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.peek_time(), Some(1.0));
        assert!(plan.pop_due(0.5).is_none());
        assert_eq!(plan.pop_due(10.0).unwrap().kind, FaultKind::Crash);
        assert_eq!(
            plan.pop_due(10.0).unwrap().kind,
            FaultKind::Stall { secs: 0.5 }
        );
        assert_eq!(plan.pop_due(4.0), None, "restart not due yet");
        plan.reset();
        assert_eq!(plan.peek_time(), Some(1.0));
    }

    #[test]
    fn chaos_rng_is_seeded_and_spares_last_vm() {
        let vms: Vec<u32> = (0..4).collect();
        let a = ChaosRng::new(7, 10.0).plan(&vms, 100.0, None);
        let b = ChaosRng::new(7, 10.0).plan(&vms, 100.0, None);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.events.iter().zip(b.events.iter()) {
            assert_eq!(x, y, "same seed → same schedule");
        }
        // 4 VMs, no restarts: at most 3 kills.
        assert!(a.len() <= 3);
        // With restarts the pool refills and kills continue.
        let c = ChaosRng::new(7, 10.0).plan(&vms, 100.0, Some(5.0));
        assert!(c.len() > a.len());
    }

    #[test]
    fn fault_plan_drives_the_real_cluster() {
        use scale_core::{ScaleConfig, ScaleDc};
        let mut dc = ScaleDc::new(ScaleConfig {
            initial_vms: 3,
            ..Default::default()
        });
        let victim = dc.vm_ids()[0];
        let mut plan = FaultPlan::new()
            .with_crash(10.0, victim)
            .with_restart(20.0, victim);
        assert_eq!(plan.apply_due_to_cluster(&mut dc, 5.0), 0);
        assert_eq!(plan.apply_due_to_cluster(&mut dc, 10.0), 1);
        assert_eq!(dc.vm_count(), 2);
        assert_eq!(dc.stats.crashes, 1);
        assert_eq!(plan.apply_due_to_cluster(&mut dc, 25.0), 1);
        assert_eq!(dc.vm_count(), 3, "restart rejoined the pool");
        assert!(!dc.is_down(victim));
    }

    fn run_once(r: usize, seed: u64) -> ChaosReport {
        let cfg = ChaosConfig {
            n_vms: 4,
            replication: r,
            ..Default::default()
        };
        let n_devices = 400;
        let rates = uniform_rates(n_devices, 200.0);
        let stream = device_stream(seed, &rates, ProcedureMix::typical(), 30.0);
        let plan = FaultPlan::new().with_crash(15.0, 1);
        let mut sim = ChaosSim::new(cfg, n_devices, plan);
        sim.run(&stream);
        sim.finish(30.0)
    }

    #[test]
    fn replication_bounds_loss() {
        let r1 = run_once(1, 42);
        let r2 = run_once(2, 42);
        assert!(r1.lost > 0, "R=1 must lose the crashed VM's devices");
        assert!(
            (r2.lost as f64) < 0.01 * r1.lost as f64 + 1.0,
            "R=2 must bound loss: {} vs {}",
            r2.lost,
            r1.lost
        );
        assert!(r2.fully_replicated, "repair must restore degree R");
        assert!(r2.recovery_s > 0.0);
        assert!(r2.copies_restored > 0);
    }

    #[test]
    fn chaos_run_is_deterministic() {
        let a = run_once(2, 7);
        let b = run_once(2, 7);
        assert_eq!(a.served, b.served);
        assert_eq!(a.lost, b.lost);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.copies_restored, b.copies_restored);
        assert_eq!(a.recovery_s, b.recovery_s);
        assert_eq!(a.p99_during, b.p99_during);
    }

    #[test]
    fn registry_series_matches_report_p99s() {
        use scale_obs::Registry;
        let registry = Arc::new(Registry::new());
        let series = registry.phased_series(
            "sim_chaos_delay_seconds",
            "Per-request delay under the chaos plan",
        );
        let cfg = ChaosConfig {
            n_vms: 4,
            replication: 2,
            ..Default::default()
        };
        let n_devices = 400;
        let rates = uniform_rates(n_devices, 200.0);
        let stream = device_stream(42, &rates, ProcedureMix::typical(), 30.0);
        let plan = FaultPlan::new().with_crash(15.0, 1);
        let mut sim = ChaosSim::new(cfg, n_devices, plan);
        sim.use_delay_series(series.clone());
        sim.run(&stream);
        let report = sim.finish(30.0);
        // The registry-resident series carries the exact same phase
        // p99s as the report (and as a run with the private default).
        let (b, d, a) = series.p99_by_phase();
        assert_eq!(b, report.p99_before);
        assert_eq!(d, report.p99_during);
        assert_eq!(a, report.p99_after);
        let baseline = run_once(2, 42);
        assert_eq!(report.p99_before, baseline.p99_before);
        assert_eq!(report.p99_during, baseline.p99_during);
        assert_eq!(report.p99_after, baseline.p99_after);
        assert_eq!(report.served, baseline.served);
    }

    #[test]
    fn stall_delays_but_loses_nothing() {
        let cfg = ChaosConfig {
            n_vms: 3,
            replication: 2,
            ..Default::default()
        };
        let n_devices = 100;
        let rates = uniform_rates(n_devices, 100.0);
        let stream = device_stream(1, &rates, ProcedureMix::typical(), 20.0);
        let plan = FaultPlan::new().with_stall(10.0, 0, 2.0);
        let mut sim = ChaosSim::new(cfg, n_devices, plan);
        sim.run(&stream);
        let report = sim.finish(20.0);
        assert_eq!(report.lost, 0, "a stall must not lose requests");
        assert!(report.served > 0);
        // No crash → no repair traffic and no recovery window.
        assert_eq!(report.copies_restored, 0);
        assert_eq!(report.recovery_s, 0.0);
    }

    #[test]
    fn restart_rejoins_and_rewarms() {
        let cfg = ChaosConfig {
            n_vms: 4,
            replication: 2,
            ..Default::default()
        };
        let n_devices = 200;
        let rates = uniform_rates(n_devices, 100.0);
        let stream = device_stream(3, &rates, ProcedureMix::typical(), 40.0);
        let plan = FaultPlan::new().with_crash(10.0, 2).with_restart(25.0, 2);
        let mut sim = ChaosSim::new(cfg, n_devices, plan);
        sim.run(&stream);
        let report = sim.finish(40.0);
        assert!(report.fully_replicated);
        assert!(report.lost < report.served / 100, "failover bounds loss");
    }
}
