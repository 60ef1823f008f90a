//! Failure detection, retry, and overload-shedding policy — §4.6 of the
//! paper ("Failure resilience").
//!
//! SCALE survives an MMP crash because the MLB (a) notices the VM is
//! gone, (b) stops routing to it, and (c) steers each affected device
//! to a surviving replica holder. This module holds the policy pieces
//! the MLB and the cluster share:
//!
//! * [`HealthTracker`] — per-VM missed-heartbeat / consecutive-error
//!   counters with configurable thresholds; crossing either marks the
//!   VM down.
//! * [`BackoffPolicy`] — bounded retry with exponential backoff and
//!   deterministic jitter, plus a per-request deadline after which the
//!   request is counted lost.
//! * [`TokenBucket`] — the admission limiter used to shed low-priority
//!   requests (paging responses before attaches) when every replica
//!   holder of a device is saturated.
//! * [`FailoverStats`] — the counters of the cluster's failover path.
//!
//! Everything here is deterministic: jitter comes from a splitmix64
//! hash of the (request, attempt) pair, never from a global RNG, so two
//! runs with the same seed produce byte-identical results.

/// Health-detection thresholds (§4.6: the MLB "monitors the liveness"
/// of MMPs via heartbeats and observed request failures).
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Consecutive missed heartbeats before a VM is marked down.
    pub miss_threshold: u32,
    /// Consecutive request errors before a VM is marked down.
    pub error_threshold: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            miss_threshold: 3,
            error_threshold: 2,
        }
    }
}

/// Per-VM health state tracked by the MLB.
#[derive(Debug, Clone, Copy, Default)]
pub struct VmHealth {
    /// Heartbeats missed in a row.
    pub missed_heartbeats: u32,
    /// Request errors seen in a row.
    pub consecutive_errors: u32,
    /// Marked down — excluded from routing until repaired.
    pub down: bool,
}

/// Dense per-VM health table (indexed by `VmId`, like the load table).
///
/// ```
/// use scale_core::failover::{HealthConfig, HealthTracker};
///
/// let mut health = HealthTracker::new(HealthConfig::default());
/// assert!(!health.record_error(7)); // streak 1 of 2
/// assert!(health.record_error(7)); // threshold crossed: newly down
/// assert!(health.is_down(7));
/// health.mark_up(7); // restarted + warmed
/// assert!(!health.is_down(7));
/// ```
#[derive(Debug, Default)]
pub struct HealthTracker {
    /// Detection thresholds in force.
    pub config: HealthConfig,
    slots: Vec<VmHealth>,
}

impl HealthTracker {
    /// Empty tracker with the given thresholds.
    pub fn new(config: HealthConfig) -> Self {
        HealthTracker {
            config,
            slots: Vec::new(),
        }
    }

    fn slot(&mut self, vm: u32) -> &mut VmHealth {
        let i = vm as usize;
        assert!(i < 1 << 16, "dense health table: VM ids must stay small");
        if self.slots.len() <= i {
            self.slots.resize(i + 1, VmHealth::default());
        }
        &mut self.slots[i]
    }

    /// Is the VM currently marked down?
    pub fn is_down(&self, vm: u32) -> bool {
        self.slots.get(vm as usize).map(|h| h.down).unwrap_or(false)
    }

    /// Unconditionally mark a VM down. Returns true if it was up.
    pub fn mark_down(&mut self, vm: u32) -> bool {
        let slot = self.slot(vm);
        let newly = !slot.down;
        slot.down = true;
        newly
    }

    /// Mark a VM healthy again (restart completed + warmed).
    pub fn mark_up(&mut self, vm: u32) {
        *self.slot(vm) = VmHealth::default();
    }

    /// Reset all health state for a VM leaving the pool.
    pub fn forget(&mut self, vm: u32) {
        if let Some(slot) = self.slots.get_mut(vm as usize) {
            *slot = VmHealth::default();
        }
    }

    /// Record a request error against a VM. Returns true if this
    /// crossed the threshold and the VM is newly down.
    pub fn record_error(&mut self, vm: u32) -> bool {
        let threshold = self.config.error_threshold;
        let slot = self.slot(vm);
        slot.consecutive_errors += 1;
        if !slot.down && slot.consecutive_errors >= threshold {
            slot.down = true;
            return true;
        }
        false
    }

    /// Record a successful request — resets the error streak.
    pub fn record_ok(&mut self, vm: u32) {
        let slot = self.slot(vm);
        slot.consecutive_errors = 0;
    }

    /// Record a missed heartbeat. Returns true if the VM is newly down.
    pub fn miss_heartbeat(&mut self, vm: u32) -> bool {
        let threshold = self.config.miss_threshold;
        let slot = self.slot(vm);
        slot.missed_heartbeats += 1;
        if !slot.down && slot.missed_heartbeats >= threshold {
            slot.down = true;
            return true;
        }
        false
    }

    /// Record a heartbeat ack — resets the miss streak.
    pub fn heartbeat_ok(&mut self, vm: u32) {
        let slot = self.slot(vm);
        slot.missed_heartbeats = 0;
    }

    /// Health snapshot of a VM (zeroed if never seen).
    pub fn health(&self, vm: u32) -> VmHealth {
        self.slots
            .get(vm as usize)
            .copied()
            .unwrap_or_default()
    }
}

/// Bounded retry with exponential backoff + jitter and a per-request
/// deadline. Delays are virtual seconds in the simulator and wall-clock
/// seconds in the tokio prototype.
#[derive(Debug, Clone, Copy)]
pub struct BackoffPolicy {
    /// First retry delay.
    pub base: f64,
    /// Multiplier per attempt.
    pub factor: f64,
    /// Cap on any single delay.
    pub max_delay: f64,
    /// Fraction of the delay randomized away (0.0 = none, 0.5 = ±50%).
    pub jitter: f64,
    /// Attempts after the first before giving up.
    pub max_retries: u32,
    /// Total time budget; exceeded → the request is counted lost.
    pub deadline: f64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: 0.05,
            factor: 2.0,
            max_delay: 1.0,
            jitter: 0.5,
            max_retries: 3,
            deadline: 2.0,
        }
    }
}

/// splitmix64 — cheap deterministic hash used for jitter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl BackoffPolicy {
    /// Delay before retry `attempt` (1-based) of request `salt`.
    /// Deterministic: the same (salt, attempt) always jitters the same.
    pub fn delay(&self, attempt: u32, salt: u64) -> f64 {
        let raw = (self.base * self.factor.powi(attempt.saturating_sub(1) as i32))
            .min(self.max_delay);
        if self.jitter <= 0.0 {
            return raw;
        }
        // Uniform in [1 - jitter, 1 + jitter), hash-derived.
        let h = splitmix64(salt.wrapping_mul(31).wrapping_add(attempt as u64));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        raw * (1.0 - self.jitter + 2.0 * self.jitter * unit)
    }

    /// May we retry again after `attempt` attempts have failed, with
    /// `elapsed` seconds spent so far?
    pub fn may_retry(&self, attempt: u32, elapsed: f64) -> bool {
        attempt <= self.max_retries && elapsed < self.deadline
    }
}

/// Token bucket for admission control (the chaos simulator's MLB):
/// low-priority requests pass only while tokens remain, so shedding
/// kicks in smoothly under overload instead of collapsing throughput.
#[derive(Debug, Clone, Copy)]
pub struct TokenBucket {
    /// Tokens added per second.
    pub rate: f64,
    /// Bucket capacity.
    pub burst: f64,
    tokens: f64,
    last: f64,
}

impl TokenBucket {
    /// Bucket refilling at `rate`/s, holding at most `burst`.
    pub fn new(rate: f64, burst: f64) -> Self {
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last: 0.0,
        }
    }

    /// Take one token at virtual time `now`; false = shed the request.
    pub fn try_take(&mut self, now: f64) -> bool {
        if now > self.last {
            self.tokens = (self.tokens + (now - self.last) * self.rate).min(self.burst);
            self.last = now;
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Request priority classes for shedding: under overload the MLB drops
/// paging responses before it ever drops attaches (§2's observation
/// that paging losses are recoverable by retransmission).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Attach / service request / TAU — never shed.
    High,
    /// Paging responses and other retryable traffic — shed first.
    Low,
}

/// Shedding policy: when every live replica holder of a device has
/// utilization (EWMA load) above `util_threshold`, low-priority
/// requests must pass the token bucket to be admitted.
#[derive(Debug, Clone, Copy)]
pub struct ShedPolicy {
    /// Fleet-wide EWMA utilization that arms shedding.
    pub util_threshold: f64,
    /// Token-bucket refill rate (admitted low-priority req/s).
    pub bucket_rate: f64,
    /// Token-bucket burst size.
    pub bucket_burst: f64,
}

impl Default for ShedPolicy {
    fn default() -> Self {
        ShedPolicy {
            util_threshold: 0.9,
            bucket_rate: 100.0,
            bucket_burst: 50.0,
        }
    }
}

/// Counters of the in-process cluster's failover path.
#[derive(Debug, Clone, Copy, Default)]
pub struct FailoverStats {
    /// Requests lost because no replica could be promoted.
    pub lost: u64,
    /// Requests re-routed from a down VM to a surviving replica.
    pub failovers: u64,
    /// Replica copies promoted to serving (explicit state-promotion
    /// events on Active-mode failover).
    pub promotions: u64,
    /// VMs marked down by detection.
    pub vms_marked_down: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_threshold_marks_down() {
        let mut h = HealthTracker::new(HealthConfig {
            miss_threshold: 3,
            error_threshold: 2,
        });
        assert!(!h.record_error(5));
        assert!(!h.is_down(5));
        assert!(h.record_error(5), "second error crosses the threshold");
        assert!(h.is_down(5));
        // Already down: further errors don't re-report.
        assert!(!h.record_error(5));
    }

    #[test]
    fn ok_resets_error_streak() {
        let mut h = HealthTracker::new(HealthConfig::default());
        h.record_error(1);
        h.record_ok(1);
        assert!(!h.record_error(1), "streak was reset");
        assert!(!h.is_down(1));
    }

    #[test]
    fn missed_heartbeats_mark_down() {
        let mut h = HealthTracker::new(HealthConfig {
            miss_threshold: 3,
            error_threshold: 2,
        });
        assert!(!h.miss_heartbeat(2));
        h.heartbeat_ok(2);
        assert!(!h.miss_heartbeat(2));
        assert!(!h.miss_heartbeat(2));
        assert!(h.miss_heartbeat(2), "third consecutive miss");
        assert!(h.is_down(2));
        h.mark_up(2);
        assert!(!h.is_down(2));
        assert_eq!(h.health(2).missed_heartbeats, 0);
    }

    #[test]
    fn backoff_grows_and_respects_deadline() {
        let p = BackoffPolicy {
            base: 0.1,
            factor: 2.0,
            max_delay: 10.0,
            jitter: 0.0,
            max_retries: 3,
            deadline: 1.0,
        };
        assert!((p.delay(1, 0) - 0.1).abs() < 1e-12);
        assert!((p.delay(2, 0) - 0.2).abs() < 1e-12);
        assert!((p.delay(3, 0) - 0.4).abs() < 1e-12);
        assert!(p.may_retry(1, 0.5));
        assert!(!p.may_retry(4, 0.5), "retry budget exhausted");
        assert!(!p.may_retry(1, 1.5), "deadline exceeded");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = BackoffPolicy {
            jitter: 0.5,
            ..Default::default()
        };
        for salt in 0..100u64 {
            let a = p.delay(1, salt);
            let b = p.delay(1, salt);
            assert_eq!(a, b, "same salt must jitter identically");
            assert!(a >= p.base * 0.5 && a < p.base * 1.5, "jitter bounds");
        }
        // Different salts actually spread.
        assert_ne!(p.delay(1, 1), p.delay(1, 2));
    }

    #[test]
    fn token_bucket_refills_over_time() {
        let mut b = TokenBucket::new(10.0, 2.0);
        assert!(b.try_take(0.0));
        assert!(b.try_take(0.0));
        assert!(!b.try_take(0.0), "burst exhausted");
        assert!(b.try_take(0.2), "0.2 s × 10/s = 2 tokens refilled");
    }
}
