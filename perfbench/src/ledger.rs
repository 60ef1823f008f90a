//! Span bookkeeping for the traced run, and the ledger closure.
//!
//! A span has a layer, a start, an end and the span that caused it (its
//! parent on the stack). A layer's self time is its spans' durations
//! minus the part of each interval that child spans cover. Spans are
//! folded into per-layer totals as they close; the benchmark keeps no
//! per-span record beyond the open stack.

use std::time::Instant;

/// Per-layer self time, inclusive time and span count, in ns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Self time: duration minus time covered by child spans.
    pub self_ns: u64,
    /// Inclusive time.
    pub total_ns: u64,
    /// Spans closed.
    pub spans: u64,
}

struct Open {
    layer: usize,
    start_ns: u64,
    child_ns: u64,
}

/// A stack of open spans over a fixed set of layers.
pub struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    /// Totals per layer index.
    pub layers: Vec<LayerTotals>,
}

impl Tracer {
    /// A tracer over `n_layers` layers.
    pub fn new(n_layers: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            stack: Vec::new(),
            layers: vec![LayerTotals::default(); n_layers],
        }
    }

    /// Nanoseconds since the tracer was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span of `layer` at time `t_ns`.
    pub fn enter_at(&mut self, layer: usize, t_ns: u64) {
        self.stack.push(Open {
            layer,
            start_ns: t_ns,
            child_ns: 0,
        });
    }

    /// Close the innermost span at time `t_ns`.
    pub fn exit_at(&mut self, t_ns: u64) {
        let Some(open) = self.stack.pop() else {
            return;
        };
        let dur = t_ns.saturating_sub(open.start_ns);
        let l = &mut self.layers[open.layer];
        l.total_ns += dur;
        l.self_ns += dur.saturating_sub(open.child_ns);
        l.spans += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// The mean duration an empty span measures: the clock reads and
    /// stack work a leaf span adds to its own self time.
    pub fn empty_span_ns() -> f64 {
        const N: u64 = 20_000;
        let mut t = Tracer::new(1);
        for _ in 0..N {
            let s = t.now_ns();
            t.enter_at(0, s);
            let e = t.now_ns();
            t.exit_at(e);
        }
        t.layers[0].total_ns as f64 / N as f64
    }

    /// Remove `per_span_ns` of clock overhead from each span of the
    /// leaf layers `leaves`.
    pub fn correct(&mut self, leaves: impl IntoIterator<Item = usize>, per_span_ns: f64) {
        for l in leaves {
            let t = &mut self.layers[l];
            t.self_ns = t
                .self_ns
                .saturating_sub((t.spans as f64 * per_span_ns) as u64);
        }
    }
}

/// One ledger row: a layer's cost per completed procedure (µs).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Layer metric name.
    pub name: &'static str,
    /// µs per completed procedure.
    pub us_per_proc: f64,
}

/// The closure of a ledger against the measured end-to-end CPU cost:
/// `(sum of rows, residual share = 1 - sum / measured)`.
pub fn closure(rows: &[Row], measured_us_per_proc: f64) -> (f64, f64) {
    let sum: f64 = rows.iter().map(|r| r.us_per_proc).sum();
    let residual = if measured_us_per_proc > 0.0 {
        1.0 - sum / measured_us_per_proc
    } else {
        f64::NAN
    };
    (sum, residual)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_overlap() {
        // parent [0, 100) with children [10, 30) and [40, 90); the
        // second child has a grandchild [50, 60).
        let mut t = Tracer::new(3);
        t.enter_at(0, 0);
        t.enter_at(1, 10);
        t.exit_at(30);
        t.enter_at(1, 40);
        t.enter_at(2, 50);
        t.exit_at(60);
        t.exit_at(90);
        t.exit_at(100);
        assert_eq!(
            t.layers[0],
            LayerTotals {
                self_ns: 30,
                total_ns: 100,
                spans: 1
            }
        );
        assert_eq!(
            t.layers[1],
            LayerTotals {
                self_ns: 60,
                total_ns: 70,
                spans: 2
            }
        );
        assert_eq!(
            t.layers[2],
            LayerTotals {
                self_ns: 10,
                total_ns: 10,
                spans: 1
            }
        );
        let self_sum: u64 = t.layers.iter().map(|l| l.self_ns).sum();
        assert_eq!(self_sum, 100, "self times partition the root span");
    }

    #[test]
    fn correction_removes_per_span_overhead_from_leaves() {
        let mut t = Tracer::new(2);
        t.enter_at(0, 0);
        t.enter_at(1, 10);
        t.exit_at(20);
        t.enter_at(1, 30);
        t.exit_at(40);
        t.exit_at(50);
        t.correct([1], 3.0);
        assert_eq!(t.layers[1].self_ns, 14);
        assert_eq!(t.layers[0].self_ns, 30, "the parent is untouched");
        t.correct([1], 100.0);
        assert_eq!(t.layers[1].self_ns, 0, "never below zero");
        assert!(Tracer::empty_span_ns() > 0.0);
    }

    #[test]
    fn unbalanced_exit_is_ignored() {
        let mut t = Tracer::new(1);
        t.exit_at(5);
        assert_eq!(t.layers[0], LayerTotals::default());
    }

    #[test]
    fn closure_sums_rows_and_reports_the_residual() {
        let rows = [
            Row {
                name: "a",
                us_per_proc: 10.0,
            },
            Row {
                name: "b",
                us_per_proc: 5.0,
            },
        ];
        let (sum, residual) = closure(&rows, 20.0);
        assert_eq!(sum, 15.0);
        assert!((residual - 0.25).abs() < 1e-12);
        let (_, over) = closure(&rows, 12.0);
        assert!(
            over < 0.0,
            "rows above the measurement give a negative residual"
        );
        assert!(closure(&rows, 0.0).1.is_nan());
    }
}
