//! The open-loop rate ladder of `wire_ladder`: fixed absolute offered
//! rates, per-step latency pools, and the SLO-step decision.

use crate::stats::{summarize, Summary};

/// Offered session rates (1/s), lowest first. Fixed absolute numbers,
/// never derived from a capacity measured in the same run. On a 2-core
/// host the 1-eNB, 2-worker deployment met the SLO at 1250/s in a quiet
/// hour and at 250/s only in a noisy one, so the ladder spans about
/// 20–150 % of that capacity.
pub const RATES_HZ: [f64; 5] = [250.0, 500.0, 1000.0, 1500.0, 2000.0];

/// Share of the measuring time given to each step. The lowest step
/// gets the most, so that its pooled attach and service-request
/// timings reach the 1000 samples a p99 needs at 20 s.
pub const TIME_SHARE: [f64; 5] = [0.24, 0.14, 0.14, 0.14, 0.14];

/// Attach p99 limit of the SLO (ms).
pub const ATTACH_P99_MS: f64 = 50.0;
/// Service-request p99 limit of the SLO (ms): the autoscaler's
/// `sla_p99_s`.
pub const SR_P99_MS: f64 = 15.0;

/// Sessions offered at step `i` when the ladder measures `seconds`.
pub fn sessions(i: usize, seconds: f64) -> usize {
    (RATES_HZ[i] * TIME_SHARE[i] * seconds).round().max(1.0) as usize
}

/// What one ladder step measured.
#[derive(Debug, Clone, Default)]
pub struct Step {
    /// Offered rate (1/s).
    pub rate_hz: f64,
    /// Sessions offered.
    pub offered: usize,
    /// Attach latencies from each arrival's due time (ms).
    pub attach_ms: Vec<f64>,
    /// Service-request latencies from issue (ms); the generator issues
    /// a service request the moment the previous procedure completes,
    /// so issue time is its due time.
    pub sr_ms: Vec<f64>,
    /// Arrivals shed at the generator's in-flight cap.
    pub shed: u64,
    /// Rejects, errors and re-driven procedures seen in the step.
    pub failures: u64,
    /// Sessions of the step still unfinished a grace period after its
    /// last arrival.
    pub backlog_left: usize,
    /// Sessions of the step never finished before the drain deadline.
    pub unfinished: usize,
    /// Generator lateness of each arrival (ms).
    pub lag_ms: Vec<f64>,
    /// Wall time of the step including its drain (s).
    pub wall_s: f64,
}

impl Step {
    /// Attach latency summary.
    pub fn attach(&self) -> Summary {
        summarize(&self.attach_ms)
    }

    /// Service-request latency summary.
    pub fn sr(&self) -> Summary {
        summarize(&self.sr_ms)
    }

    /// Whether the step meets the SLO: no failure, shed or unfinished
    /// session, no backlog at its end, and both p99 limits met. A p99
    /// is taken by nearest rank whatever the sample count.
    pub fn meets_slo(&self) -> bool {
        let a = self.attach();
        let s = self.sr();
        self.failures == 0
            && self.shed == 0
            && self.unfinished == 0
            && self.backlog_left == 0
            && a.n > 0
            && a.p99 <= ATTACH_P99_MS
            && (s.n == 0 || s.p99 <= SR_P99_MS)
    }
}

/// The highest offered rate whose step meets the SLO; 0 if none does.
pub fn slo_rate_hz(steps: &[Step]) -> f64 {
    steps
        .iter()
        .filter(|s| s.meets_slo())
        .map(|s| s.rate_hz)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_step(rate_hz: f64) -> Step {
        Step {
            rate_hz,
            offered: 100,
            attach_ms: vec![5.0; 100],
            sr_ms: vec![2.0; 200],
            ..Step::default()
        }
    }

    #[test]
    fn a_clean_fast_step_meets_the_slo() {
        assert!(ok_step(250.0).meets_slo());
    }

    #[test]
    fn each_condition_alone_fails_the_step() {
        let mut s = ok_step(250.0);
        s.backlog_left = 1;
        assert!(!s.meets_slo(), "backlog");
        let mut s = ok_step(250.0);
        s.shed = 1;
        assert!(!s.meets_slo(), "shed");
        let mut s = ok_step(250.0);
        s.failures = 1;
        assert!(!s.meets_slo(), "failure");
        let mut s = ok_step(250.0);
        s.unfinished = 1;
        assert!(!s.meets_slo(), "unfinished");
        let mut s = ok_step(250.0);
        s.attach_ms[99] = ATTACH_P99_MS + 1.0;
        s.attach_ms[98] = ATTACH_P99_MS + 1.0;
        assert!(!s.meets_slo(), "attach p99");
        let mut s = ok_step(250.0);
        for v in s.sr_ms.iter_mut().take(3) {
            *v = SR_P99_MS + 0.5;
        }
        assert!(!s.meets_slo(), "sr p99");
        assert!(!Step::default().meets_slo(), "no samples");
    }

    #[test]
    fn slo_rate_is_the_highest_passing_step() {
        let mut steps: Vec<Step> = RATES_HZ.iter().map(|&r| ok_step(r)).collect();
        assert_eq!(slo_rate_hz(&steps), 2000.0);
        steps[4].backlog_left = 40;
        steps[3].attach_ms = vec![80.0; 100];
        assert_eq!(slo_rate_hz(&steps), 1000.0);
        for s in &mut steps {
            s.shed = 1;
        }
        assert_eq!(slo_rate_hz(&steps), 0.0);
    }

    #[test]
    fn the_lowest_step_gets_a_thousand_attaches_at_twenty_seconds() {
        assert!(sessions(0, 20.0) >= 1000);
        let total: f64 = TIME_SHARE.iter().sum();
        assert!(total < 1.0, "leave time for set-up and drains");
    }
}
