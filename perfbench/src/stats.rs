//! Order statistics for reported timings: medians of repeated runs, and
//! per-sample percentiles with the benchmark's tail rule (report the
//! highest percentile that still has at least ten samples beyond it).

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Percentiles the tail rule picks from, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.5, 99.0, 95.0, 90.0, 50.0];

/// Median of `v` (mean of the middle pair for even lengths); NaN when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` (0..=100) among `n` samples.
/// The small guard keeps binary rounding of `p` (99.9 is inexact) from
/// pushing an exact rank up by one.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of ascending-sorted `sorted`; NaN when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(p: f64, n: usize) -> usize {
    n - nearest_rank(p, n)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_BEYOND`] of `n` samples beyond it, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n > 0 && beyond(p, n) >= TAIL_BEYOND)
}

/// A latency summary in the benchmark's reporting form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// p99, valid only when `p99_ok`.
    pub p99: f64,
    /// Whether at least [`TAIL_BEYOND`] samples lie beyond the p99.
    pub p99_ok: bool,
    /// The highest percentile the tail rule allows, and its value.
    pub tail: Option<(f64, f64)>,
}

/// Summarize samples (any order).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Summary {
        n,
        p50: percentile(&s, 50.0),
        p99: percentile(&s, 99.0),
        p99_ok: n > 0 && beyond(99.0, n) >= TAIL_BEYOND,
        tail: tail_percentile(n).map(|p| (p, percentile(&s, p))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(99.0, 1000), 10);
        assert_eq!(beyond(99.0, 999), 9);
        assert!(summarize(&vec![1.0; 1000]).p99_ok);
        assert!(!summarize(&vec![1.0; 999]).p99_ok);
    }

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(2_000), Some(99.5));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_reports_count_median_and_tail() {
        let v: Vec<f64> = (1..=2000).rev().map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 2000);
        assert_eq!(s.p50, 1000.0);
        assert_eq!(s.p99, 1980.0);
        assert_eq!(s.tail, Some((99.5, 1990.0)));
    }
}
