//! The in-process plane: `attach_storm` drives the sharded cluster
//! (`scale_sim::shard_driver::run_scale_out`) in this process, closed
//! loop, repeatedly until the measuring time is spent.

use crate::host::{self, ProcSample};
use crate::stats::median;
use scale_sim::shard_driver::{run_scale_out, ScaleOutConfig, ScaleOutCounts, ScaleOutReport};
use std::time::{Duration, Instant};

/// One repetition of a closed-loop run.
pub struct Rep {
    /// The scale-out run's report.
    pub report: ScaleOutReport,
    /// Wall time from the call to the first procedure (fleet, ring and
    /// population construction).
    pub setup_s: f64,
    /// Wall time of the drive itself.
    pub drive_s: f64,
    /// Share of host CPU time stolen by the hypervisor during the call.
    pub steal_share: f64,
    /// Process counters just before and after the call.
    pub before: ProcSample,
    /// See `before`.
    pub after: ProcSample,
}

impl Rep {
    /// Completed procedures: attach + service_request + tau + s1_release.
    pub fn procs(&self) -> u64 {
        self.report.latency.iter().map(|(_, l)| l.count).sum()
    }

    /// `wall_s` less the share the hypervisor stole. Set-up keeps one
    /// core and the drive both cores busy throughout, so the host's
    /// steal share over the repetition is the share of their wall time
    /// they could not run.
    pub fn unstolen(&self, wall_s: f64) -> f64 {
        wall_s * (1.0 - self.steal_share.min(0.9))
    }

    /// Completed procedures per second of unstolen drive time.
    pub fn procs_per_unstolen_s(&self) -> f64 {
        self.procs() as f64 / self.unstolen(self.drive_s)
    }

    /// Latency summary of procedure class `name` (µs).
    pub fn latency(&self, name: &str) -> Option<scale_sim::shard_driver::LatencySummary> {
        self.report
            .latency
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, l)| *l)
    }
}

/// Run `cfg` at least twice, and again while more than half of another
/// repetition fits in `budget`.
pub fn run(cfg: &ScaleOutConfig, budget: Duration) -> Vec<Rep> {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut last = Duration::ZERO;
    while reps.len() < 2 || start.elapsed() + last / 2 < budget {
        let t_rep = Instant::now();
        let before = host::sample("self");
        let noise = host::NoiseWindow::open();
        let t0 = Instant::now();
        let report = run_scale_out(cfg);
        let total_s = t0.elapsed().as_secs_f64();
        let steal_share = noise.finish().steal_share;
        let after = host::sample("self");
        let drive_s = report.elapsed_ms as f64 / 1e3;
        reps.push(Rep {
            setup_s: (total_s - drive_s).max(0.0),
            drive_s,
            report,
            steal_share,
            before,
            after,
        });
        last = t_rep.elapsed();
    }
    reps
}

/// The correctness gate of one in-process repetition; `Err` names the
/// first violated condition.
pub fn check(cfg: &ScaleOutConfig, c: &ScaleOutCounts) -> Result<(), String> {
    let pop = cfg.n_ues as u64;
    let r = cfg.replication as u64;
    let checks = [
        (c.errors == 0, format!("errors = {} (want 0)", c.errors)),
        (c.rejects == 0, format!("rejects = {} (want 0)", c.rejects)),
        (
            c.attaches == pop,
            format!("attaches = {} (want {pop})", c.attaches),
        ),
        (
            c.contexts_held == r * pop,
            format!("contexts_held = {} (want {})", c.contexts_held, r * pop),
        ),
        (
            c.replicas_imported == (r - 1) * c.idles,
            format!(
                "replicas_imported = {} (want {})",
                c.replicas_imported,
                (r - 1) * c.idles
            ),
        ),
        (
            c.service_requests + c.taus == pop * cfg.ops_per_ue as u64,
            format!(
                "service_requests + taus = {} (want {})",
                c.service_requests + c.taus,
                pop * cfg.ops_per_ue as u64
            ),
        ),
    ];
    match checks.into_iter().find(|(ok, _)| !ok) {
        Some((_, why)) => Err(why),
        None => Ok(()),
    }
}

/// Gate every repetition and require identical counts across them.
pub fn check_all(cfg: &ScaleOutConfig, reps: &[Rep]) -> Result<(), String> {
    for (i, rep) in reps.iter().enumerate() {
        check(cfg, &rep.report.counts).map_err(|e| format!("repetition {i}: {e}"))?;
        if rep.report.counts != reps[0].report.counts {
            return Err(format!("repetition {i}: counts differ from repetition 0"));
        }
    }
    Ok(())
}

/// Median over repetitions of `f`.
pub fn med(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// `attach_storm`: 2^17 fresh devices that attach and release once, on
/// `nproc` shards over a 16-VM fleet with R = 2 and 64 ring tokens,
/// closed loop with 256 devices in flight per cell.
pub fn attach_storm(seed: u64) -> ScaleOutConfig {
    ScaleOutConfig {
        n_shards: host::nproc(),
        total_vms: 16,
        replication: 2,
        n_ues: 1 << 17,
        ops_per_ue: 0,
        seed,
        window: 256,
        ring_tokens: 64,
    }
}
