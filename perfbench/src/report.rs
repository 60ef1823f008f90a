//! Turning runs into metrics: the end-to-end metrics of an untraced
//! run, the per-layer ledger of a traced run, the correctness gates,
//! and the printed result.

use crate::host::HostNoise;
use crate::inproc::{self, Rep};
use crate::ladder::{self, Step};
use crate::ledger::{closure, Row};
use crate::replay::{self, Costs};
use crate::stats::{median, summarize, Summary};
use crate::traced::{self, layer, Ops, Pass, Shape};
use crate::wire::{self, LadderRun, N_MMPS};
use scale_sim::shard_driver::{LatencySummary, ScaleOutConfig};
use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics: `(name, unit)`. Every workload reports each.
pub const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("procs_per_s", "1/s"),
    ("cpu_us_per_proc", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. Every workload reports each; a
/// row whose layer does not run on the workload's plane reads 0 (see
/// `perfbench/README.md`).
pub const LAYERS: &[(&str, &str)] = &[
    ("fail_ratio", "ratio"),
    ("slo_rate_hz", "1/s"),
    ("attach_p50_ms", "ms"),
    ("attach_p99_ms", "ms"),
    ("attach_n", "count"),
    ("sr_p50_ms", "ms"),
    ("sr_p99_ms", "ms"),
    ("sr_n", "count"),
    ("sim.shard_driver.worker_cpu_imbalance", "ratio"),
    ("sim.shard_driver.vol_ctx_switches_per_kmsg", "count"),
    ("core.shard.cross_shard_replica_share", "ratio"),
    ("mme.engine.msgs_per_proc", "count"),
    ("wire.mlb.cpu_us_per_proc", "us"),
    ("wire.mmp.cpu_us_per_proc", "us"),
    ("wire.sys_share", "ratio"),
    ("wire.mlb.ctx_switches_per_proc", "count"),
    ("wire.mmp.ctx_switches_per_proc", "count"),
    ("wire.mlb.threads", "count"),
    ("wire.mlb.dropped", "count"),
    ("wire.mlb.proc_failures", "count"),
    ("wire.reconnects", "count"),
    ("bench.gen.lag_p99_ms", "ms"),
    ("bench.gen.send_us_per_msg", "us"),
    ("host.steal_share", "ratio"),
    ("epc.emulator.self_us_per_proc", "us"),
    ("core.wire.mlb_state.self_us_per_proc", "us"),
    ("core.wire.mmp_node.deliver_us_per_proc", "us"),
    ("core.wire.mmp_node.replicate_us_per_proc", "us"),
    ("core.wire.codec_ns_per_msg", "ns"),
    ("core.wire.msgs_per_proc", "count"),
    ("core.wire.bytes_per_msg", "B"),
    ("sctplite.assoc.ns_per_msg", "ns"),
    ("trace.overhead_share", "ratio"),
    ("crypto.cmac.eia2_ns", "ns"),
    ("crypto.milenage.f2345_ns", "ns"),
    ("nas.security.protect_ns", "ns"),
    ("nas.security.unprotect_ns", "ns"),
    ("nas.emm.decode_ns", "ns"),
    ("s1ap.pdu.encode_ns", "ns"),
    ("s1ap.pdu.decode_ns", "ns"),
    ("gtpc.msg.codec_ns", "ns"),
    ("diameter.msg.codec_ns", "ns"),
    ("mme.context.export_ns", "ns"),
    ("mme.context.import_ns", "ns"),
    ("core.routeplane.route_idle_ns", "ns"),
    ("core.routeplane.route_new_attach_ns", "ns"),
    ("ledger.traced_us_per_proc", "us"),
    ("ledger.replayed_us_per_proc", "us"),
    ("ledger.residual_share", "ratio"),
    ("wire.transport_residual_us_per_proc", "us"),
];

/// A finished, gated run.
#[derive(Default)]
pub struct Outcome {
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    /// Procedures attempted.
    pub attempted: u64,
    /// Procedures failed (rejected, errored, shed, failed over or
    /// unfinished).
    pub failed: u64,
    /// Host noise over the run.
    pub host: Option<HostNoise>,
}

fn unit_of(name: &str) -> &'static str {
    E2E.iter()
        .chain(LAYERS.iter())
        .find(|(n, _)| *n == name)
        .map_or("?", |(_, u)| u)
}

/// The metric names a run must report.
pub fn expected(trace: bool) -> Vec<&'static str> {
    if trace {
        LAYERS.iter().map(|(n, _)| *n).collect()
    } else {
        E2E.iter().map(|(n, _)| *n).collect()
    }
}

impl Outcome {
    fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.push((name, v));
    }

    /// The result JSON line.
    pub fn json(&self, correct: bool) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (n, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{n}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                unit_of(n)
            );
        }
        s.push_str("}}");
        s
    }

    /// Print notes, host record, every metric with its unit, and the
    /// result line last; also append the record to
    /// `perfbench/out/runs.jsonl` when that directory can be made.
    pub fn print(mut self, workload: &str, seed: u64, trace: bool) {
        let host = self.host.unwrap_or(HostNoise {
            steal_share: 0.0,
            loadavg_1m: 0.0,
            nproc: crate::host::nproc(),
        });
        if trace {
            self.set("host.steal_share", host.steal_share);
        }
        let want = expected(trace);
        let mut got: Vec<&str> = self.metrics.iter().map(|(n, _)| *n).collect();
        got.sort_unstable();
        let mut want_sorted = want.clone();
        want_sorted.sort_unstable();
        if got != want_sorted || self.metrics.iter().any(|(_, v)| !v.is_finite()) {
            eprintln!("perfbench: internal error: metric set {got:?} is not {want_sorted:?} or has a non-finite value");
            std::process::exit(1);
        }
        self.metrics
            .sort_by_key(|(n, _)| want.iter().position(|w| w == n));
        for n in &self.notes {
            println!("{n}");
        }
        println!(
            "host: steal_share={:.5} loadavg_1m={:.2} nproc={}",
            host.steal_share, host.loadavg_1m, host.nproc
        );
        for (n, v) in &self.metrics {
            println!("metric {n} = {v} {}", unit_of(n));
        }
        let line = self.json(true);
        let record = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"steal_share\": {}, \"loadavg_1m\": {}, \"nproc\": {}, \"result\": {line}}}\n",
            u8::from(trace),
            host.steal_share,
            host.loadavg_1m,
            host.nproc
        );
        if std::fs::create_dir_all("perfbench/out").is_ok() {
            use std::io::Write;
            if let Ok(mut f) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open("perfbench/out/runs.jsonl")
            {
                let _ = f.write_all(record.as_bytes());
            }
        }
        println!("{line}");
    }
}

fn ms(s: &Summary) -> String {
    let tail = s
        .tail
        .map_or("-".to_string(), |(p, v)| format!("p{p}={v:.3}ms"));
    format!(
        "n={} p50={:.3}ms p99={:.3}ms{} tail {tail}",
        s.n,
        s.p50,
        s.p99,
        if s.p99_ok {
            ""
        } else {
            " (fewer than 10 beyond)"
        }
    )
}

// ---------------------------------------------------------------------------
// In-process plane
// ---------------------------------------------------------------------------

fn inproc_cpu_us(r: &Rep) -> f64 {
    r.report.cpu_ms_per_shard.iter().sum::<u64>() as f64 * 1e3 / r.procs().max(1) as f64
}

fn inproc_common(cfg: &ScaleOutConfig, reps: &[Rep], out: &mut Outcome) {
    out.attempted = reps.iter().map(Rep::procs).sum();
    out.failed = reps
        .iter()
        .map(|r| r.report.counts.errors + r.report.counts.rejects)
        .sum();
    let c = &reps[0].report.counts;
    out.notes.push(format!(
        "in-process: {} shards, {} UEs x {} ops, R={}, window {}; {} repetitions, identical counts: \
         attaches={} sr={} tau={} idles={} msgs={} replicas_imported={} contexts_held={}",
        cfg.n_shards, cfg.n_ues, cfg.ops_per_ue, cfg.replication, cfg.window, reps.len(),
        c.attaches, c.service_requests, c.taus, c.idles, c.messages, c.replicas_imported, c.contexts_held
    ));
    for (i, r) in reps.iter().enumerate() {
        out.notes.push(format!(
            "  rep {i}: setup {:.4}s drive {:.3}s procs {} ({:.0}/s wall, steal {:.4}, {:.0}/s unstolen) worker cpu {:?} ms",
            r.setup_s,
            r.drive_s,
            r.procs(),
            r.procs() as f64 / r.drive_s,
            r.steal_share,
            r.procs_per_unstolen_s(),
            r.report.cpu_ms_per_shard
        ));
    }
}

/// End-to-end metrics of an in-process workload.
pub fn inproc_e2e(cfg: &ScaleOutConfig, budget: Duration) -> Result<Outcome, String> {
    let reps = inproc::run(cfg, budget);
    inproc::check_all(cfg, &reps)?;
    let mut out = Outcome::default();
    inproc_common(cfg, &reps, &mut out);
    out.notes.push(format!(
        "fail_ratio = {} ratio (closed loop: the gate admits no failure)",
        out.failed as f64 / out.attempted.max(1) as f64
    ));
    for (name, l) in &reps[0].report.latency {
        if l.count > 0 {
            out.notes.push(format!(
                "closed-loop {name} latency from admission (histogram, rep 0): n={} p50={:.3}ms p99={:.3}ms",
                l.count,
                l.p50_us / 1e3,
                l.p99_us / 1e3
            ));
        }
    }
    out.set("setup_s", inproc::med(&reps, |r| r.unstolen(r.setup_s)));
    out.set("procs_per_s", inproc::med(&reps, Rep::procs_per_unstolen_s));
    out.set("cpu_us_per_proc", inproc::med(&reps, inproc_cpu_us));
    out.set(
        "peak_rss_mb",
        reps.iter().map(|r| r.after.hwm_mb).fold(0.0, f64::max),
    );
    Ok(out)
}

/// Per-layer metrics of an in-process workload.
pub fn inproc_layers(cfg: &ScaleOutConfig, seed: u64) -> Result<Outcome, String> {
    let reps = inproc::run(cfg, Duration::ZERO);
    inproc::check_all(cfg, &reps)?;
    let mut out = Outcome::default();
    inproc_common(cfg, &reps, &mut out);

    out.set(
        "fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set("slo_rate_hz", 0.0);
    let lat = |name: &str, f: fn(LatencySummary) -> f64| {
        inproc::med(&reps, |r| {
            r.latency(name).filter(|l| l.count > 0).map_or(0.0, f)
        })
    };
    out.set("attach_p50_ms", lat("attach", |l| l.p50_us / 1e3));
    out.set("attach_p99_ms", lat("attach", |l| l.p99_us / 1e3));
    out.set("attach_n", lat("attach", |l| l.count as f64));
    out.set("sr_p50_ms", lat("service_request", |l| l.p50_us / 1e3));
    out.set("sr_p99_ms", lat("service_request", |l| l.p99_us / 1e3));
    out.set("sr_n", lat("service_request", |l| l.count as f64));
    out.set(
        "sim.shard_driver.worker_cpu_imbalance",
        inproc::med(&reps, |r| {
            imbalance(
                &r.report
                    .cpu_ms_per_shard
                    .iter()
                    .map(|&v| v as f64)
                    .collect::<Vec<_>>(),
            )
        }),
    );
    out.set(
        "sim.shard_driver.vol_ctx_switches_per_kmsg",
        inproc::med(&reps, |r| {
            (r.after.vol_cs.saturating_sub(r.before.vol_cs)) as f64 * 1e3
                / r.report.counts.messages.max(1) as f64
        }),
    );
    out.set(
        "core.shard.cross_shard_replica_share",
        inproc::med(&reps, |r| {
            r.report.replicas_sent as f64 / r.report.counts.replicas_imported.max(1) as f64
        }),
    );
    out.set(
        "mme.engine.msgs_per_proc",
        reps[0].report.counts.messages as f64 / reps[0].procs().max(1) as f64,
    );
    for n in [
        "wire.mlb.cpu_us_per_proc",
        "wire.mmp.cpu_us_per_proc",
        "wire.sys_share",
        "wire.mlb.ctx_switches_per_proc",
        "wire.mmp.ctx_switches_per_proc",
        "wire.mlb.threads",
        "wire.mlb.dropped",
        "wire.mlb.proc_failures",
        "wire.reconnects",
        "bench.gen.lag_p99_ms",
        "bench.gen.send_us_per_msg",
        "wire.transport_residual_us_per_proc",
    ] {
        out.set(n, 0.0);
    }
    let measured = inproc::med(&reps, inproc_cpu_us);
    traced_rows(Plane::InProcess, seed, cfg.ops_per_ue, measured, &mut out)?;
    Ok(out)
}

fn imbalance(v: &[f64]) -> f64 {
    let mean = v.iter().sum::<f64>() / v.len().max(1) as f64;
    if mean > 0.0 {
        v.iter().copied().fold(0.0, f64::max) / mean
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------------
// Wire plane
// ---------------------------------------------------------------------------

struct WireTotals {
    procs: u64,
    mlb_cpu: f64,
    mmp_cpu: Vec<f64>,
    sys: f64,
    unfinished: u64,
}

fn wire_totals(r: &LadderRun) -> WireTotals {
    let e = &r.emu;
    WireTotals {
        procs: e.attaches + e.service_requests + e.taus + e.s1_releases,
        mlb_cpu: r.mlb.1.cpu_s() - r.mlb.0.cpu_s(),
        mmp_cpu: r
            .mmps
            .1
            .iter()
            .zip(&r.mmps.0)
            .map(|(b, a)| b.cpu_s() - a.cpu_s())
            .collect(),
        sys: (r.mlb.1.sys_s - r.mlb.0.sys_s)
            + r.mmps
                .1
                .iter()
                .zip(&r.mmps.0)
                .map(|(b, a)| b.sys_s - a.sys_s)
                .sum::<f64>(),
        unfinished: r.steps.iter().map(|s| s.unfinished as u64).sum(),
    }
}

/// The wire gate: clean exits, every session done or shed, no wire
/// error.
fn wire_gate(r: &LadderRun) -> Result<(), String> {
    if !r.reports.clean_exit {
        return Err("an MLB or MMP process did not exit cleanly".into());
    }
    if r.reports.mmps.len() != N_MMPS || r.reports.mlb.is_empty() {
        return Err("missing MLB or MMP report".into());
    }
    let settled = r.emu.sessions_done + r.emu.sessions_shed;
    if settled != r.population as u64 {
        return Err(format!(
            "sessions_done + shed = {settled}, population {}",
            r.population
        ));
    }
    let we = r.reports.mmp("wire_errors");
    if we != 0 {
        return Err(format!("wire_errors = {we}"));
    }
    Ok(())
}

fn wire_common(r: &LadderRun, out: &mut Outcome) -> WireTotals {
    let t = wire_totals(r);
    let e = &r.emu;
    let failures =
        e.rejects + e.errors + e.sessions_shed + r.reports.mlb("proc_failures") + t.unfinished;
    out.attempted = t.procs + failures;
    out.failed = failures;
    out.notes.push(format!(
        "wire: 1 generator association, {N_MMPS} MMP processes; {} sessions x 3 ops over {:.2}s; \
         set-ups {:?}s (steal {:.4})",
        r.population, r.ladder_s, r.setup_s, r.setup_steal_share
    ));
    for s in &r.steps {
        out.notes.push(format!(
            "  step {:>6.0}/s: offered {} wall {:.2}s shed {} failures {} backlog {} unfinished {} lag_p99 {:.3}ms slo {}\n    attach {}\n    sr     {}",
            s.rate_hz,
            s.offered,
            s.wall_s,
            s.shed,
            s.failures,
            s.backlog_left,
            s.unfinished,
            summarize(&s.lag_ms).p99,
            if s.meets_slo() { "met" } else { "missed" },
            ms(&s.attach()),
            ms(&s.sr()),
        ));
    }
    t
}

fn wire_cpu_us(t: &WireTotals) -> f64 {
    (t.mlb_cpu + t.mmp_cpu.iter().sum::<f64>()) * 1e6 / t.procs.max(1) as f64
}

/// End-to-end metrics of `wire_ladder`.
pub fn wire_e2e(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let r = wire::run(seed, seconds)?;
    wire_gate(&r)?;
    let mut out = Outcome::default();
    let t = wire_common(&r, &mut out);
    let low = &r.steps[0];
    out.notes.push(format!(
        "slo_rate_hz = {} 1/s; fail_ratio = {} ratio; lowest step ({}/s): attach {} | sr {}",
        ladder::slo_rate_hz(&r.steps),
        out.failed as f64 / out.attempted.max(1) as f64,
        low.rate_hz,
        ms(&low.attach()),
        ms(&low.sr())
    ));
    out.set(
        "setup_s",
        median(&r.setup_s) * (1.0 - r.setup_steal_share.min(0.9)),
    );
    out.set("procs_per_s", t.procs as f64 / r.ladder_s);
    out.set("cpu_us_per_proc", wire_cpu_us(&t));
    out.set(
        "peak_rss_mb",
        r.mlb.1.hwm_mb + r.mmps.1.iter().map(|s| s.hwm_mb).sum::<f64>(),
    );
    Ok(out)
}

/// Per-layer metrics of `wire_ladder`.
pub fn wire_layers(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let r = wire::run(seed, seconds)?;
    wire_gate(&r)?;
    let mut out = Outcome::default();
    let t = wire_common(&r, &mut out);
    let procs = t.procs.max(1) as f64;
    let low: &Step = &r.steps[0];
    let (a, s) = (low.attach(), low.sr());
    out.set(
        "fail_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set("slo_rate_hz", ladder::slo_rate_hz(&r.steps));
    out.set("attach_p50_ms", a.p50);
    out.set("attach_p99_ms", a.p99);
    out.set("attach_n", a.n as f64);
    out.set("sr_p50_ms", s.p50);
    out.set("sr_p99_ms", s.p99);
    out.set("sr_n", s.n as f64);
    let engine_msgs = r.reports.mmp("messages").max(1) as f64;
    let d = |pair: (&crate::host::ProcSample, &crate::host::ProcSample)| {
        (pair.1.vol_cs + pair.1.invol_cs).saturating_sub(pair.0.vol_cs + pair.0.invol_cs) as f64
    };
    let vol = r.mlb.1.vol_cs.saturating_sub(r.mlb.0.vol_cs)
        + r.mmps
            .1
            .iter()
            .zip(&r.mmps.0)
            .map(|(b, a)| b.vol_cs.saturating_sub(a.vol_cs))
            .sum::<u64>();
    out.set(
        "sim.shard_driver.worker_cpu_imbalance",
        imbalance(&t.mmp_cpu),
    );
    out.set(
        "sim.shard_driver.vol_ctx_switches_per_kmsg",
        vol as f64 * 1e3 / engine_msgs,
    );
    out.set(
        "core.shard.cross_shard_replica_share",
        r.reports.mmp("replicas_sent") as f64 / r.reports.mmp("replicas_imported").max(1) as f64,
    );
    out.set("mme.engine.msgs_per_proc", engine_msgs / procs);
    out.set("wire.mlb.cpu_us_per_proc", t.mlb_cpu * 1e6 / procs);
    out.set(
        "wire.mmp.cpu_us_per_proc",
        t.mmp_cpu.iter().sum::<f64>() * 1e6 / procs,
    );
    let cpu = t.mlb_cpu + t.mmp_cpu.iter().sum::<f64>();
    out.set("wire.sys_share", if cpu > 0.0 { t.sys / cpu } else { 0.0 });
    out.set(
        "wire.mlb.ctx_switches_per_proc",
        d((&r.mlb.0, &r.mlb.1)) / procs,
    );
    out.set(
        "wire.mmp.ctx_switches_per_proc",
        r.mmps
            .1
            .iter()
            .zip(&r.mmps.0)
            .map(|(b, a)| d((a, b)))
            .sum::<f64>()
            / procs,
    );
    out.set("wire.mlb.threads", r.mlb.1.threads as f64);
    out.set("wire.mlb.dropped", r.reports.mlb("dropped") as f64);
    out.set(
        "wire.mlb.proc_failures",
        r.reports.mlb("proc_failures") as f64,
    );
    out.set("wire.reconnects", r.reports.mlb("reconnects") as f64);
    let lags: Vec<f64> = r
        .steps
        .iter()
        .flat_map(|s| s.lag_ms.iter().copied())
        .collect();
    out.set("bench.gen.lag_p99_ms", summarize(&lags).p99);
    out.set(
        "bench.gen.send_us_per_msg",
        r.gen_send.as_secs_f64() * 1e6 / r.gen_msgs.max(1) as f64,
    );
    let measured = wire_cpu_us(&t);
    traced_rows(Plane::Wire, seed, 3, measured, &mut out)?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Traced run, replayed rows and the ledger closure
// ---------------------------------------------------------------------------

/// Which processes the measured CPU covers.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// One process runs access side and core (`run_scale_out`).
    InProcess,
    /// The MLB and MMP processes only; the generator is excluded.
    Wire,
}

/// Devices in the traced loop.
const TRACED_UES: usize = 4096;
/// Traced and untraced passes each (alternating).
const PASSES: usize = 5;

/// Per-procedure operation multipliers of the replayed rows on `plane`:
/// `(row, ns/op, ops per procedure, summed into the replayed total)`.
/// Nested rows (the MAC inside protect/unprotect, the S1AP codec inside
/// the wire codec) are reported but not summed. GTPv2-C messages stay
/// values inside a shard on every plane, so their codec runs 0 times.
pub fn replay_rows(plane: Plane, c: &Costs, ops: &Ops) -> Vec<(&'static str, f64, f64, bool)> {
    let p = ops.procs.max(1) as f64;
    let f = |n: u64| n as f64 / p;
    let both = plane == Plane::InProcess;
    let (protect, unprotect, decode, f2345) = if both {
        (
            f(ops.nas_prot_ul + ops.nas_prot_dl),
            f(ops.nas_prot_ul + ops.nas_prot_dl),
            f(ops.nas_plain_ul + ops.nas_plain_dl),
            f(2 * ops.attaches),
        )
    } else {
        (
            f(ops.nas_prot_dl),
            f(ops.nas_prot_ul),
            f(ops.nas_plain_ul),
            f(ops.attaches),
        )
    };
    let s1ap = if both { 0.0 } else { f(ops.s1ap_msgs) };
    vec![
        ("crypto.cmac.eia2_ns", c.eia2_ns, protect + unprotect, false),
        ("crypto.milenage.f2345_ns", c.f2345_ns, f2345, true),
        ("nas.security.protect_ns", c.protect_ns, protect, true),
        ("nas.security.unprotect_ns", c.unprotect_ns, unprotect, true),
        ("nas.emm.decode_ns", c.emm_decode_ns, decode, true),
        ("s1ap.pdu.encode_ns", c.s1ap_encode_ns, s1ap, false),
        ("s1ap.pdu.decode_ns", c.s1ap_decode_ns, s1ap, false),
        ("gtpc.msg.codec_ns", c.gtpc_codec_ns, 0.0, true),
        // Authentication-Information and Update-Location, request and
        // answer, per attach.
        (
            "diameter.msg.codec_ns",
            c.diameter_codec_ns,
            f(4 * ops.attaches),
            true,
        ),
        ("mme.context.export_ns", c.export_ns, f(ops.exports), true),
        ("mme.context.import_ns", c.import_ns, f(ops.imports), true),
        (
            "core.routeplane.route_idle_ns",
            c.route_idle_ns,
            f(ops.route_idle),
            true,
        ),
        (
            "core.routeplane.route_new_attach_ns",
            c.route_new_attach_ns,
            f(ops.route_new_attach),
            true,
        ),
    ]
}

/// The traced ledger rows summed against the measured CPU on `plane`.
pub fn ledger_rows(plane: Plane, traced: &Pass, procs: u64) -> Vec<Row> {
    let us = |l: usize| traced.layers[l].self_ns as f64 / 1e3 / procs.max(1) as f64;
    let mut rows = vec![
        Row {
            name: "core.wire.mlb_state.self_us_per_proc",
            us_per_proc: us(layer::MLB_STATE),
        },
        Row {
            name: "core.wire.mmp_node.deliver_us_per_proc",
            us_per_proc: us(layer::MMP_DELIVER),
        },
        Row {
            name: "core.wire.mmp_node.replicate_us_per_proc",
            us_per_proc: us(layer::MMP_REPLICATE),
        },
    ];
    match plane {
        Plane::InProcess => rows.push(Row {
            name: "epc.emulator.self_us_per_proc",
            us_per_proc: us(layer::EMULATOR),
        }),
        Plane::Wire => {
            rows.push(Row {
                name: "core.wire.codec (MLB/MMP side)",
                us_per_proc: us(layer::CODEC_SUT),
            });
            rows.push(Row {
                name: "sctplite.assoc (MLB/MMP side)",
                us_per_proc: us(layer::SCTP_SUT),
            });
        }
    }
    rows
}

fn traced_rows(
    plane: Plane,
    seed: u64,
    ops_per_ue: usize,
    measured_us_per_proc: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let shape = Shape {
        n_mmps: N_MMPS,
        n_ues: TRACED_UES,
        ops_per_ue,
        seed,
    };
    let mut plain = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    for _ in 0..PASSES {
        let p = traced::pass(&shape, false)?;
        traced::check(&p, &shape)?;
        plain.push(p.wall_s);
        let t = traced::pass(&shape, true)?;
        traced::check(&t, &shape)?;
        traced.push(t);
    }
    let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let plain_wall = median(&plain);
    // Sum the traced passes' layer totals.
    let mut sum = traced.pop().ok_or("no traced pass")?;
    for p in &traced {
        for (a, b) in sum.layers.iter_mut().zip(&p.layers) {
            a.self_ns += b.self_ns;
            a.total_ns += b.total_ns;
            a.spans += b.spans;
        }
    }
    let ops = sum.ops;
    let procs = ops.procs * PASSES as u64;
    let per_proc_us = |l: usize| sum.layers[l].self_ns as f64 / 1e3 / procs.max(1) as f64;
    let msgs = (ops.msgs * PASSES as u64).max(1) as f64;
    let ns_per_msg =
        |a: usize, b: usize| (sum.layers[a].self_ns + sum.layers[b].self_ns) as f64 / msgs;

    out.set(
        "epc.emulator.self_us_per_proc",
        per_proc_us(layer::EMULATOR),
    );
    out.set(
        "core.wire.mlb_state.self_us_per_proc",
        per_proc_us(layer::MLB_STATE),
    );
    out.set(
        "core.wire.mmp_node.deliver_us_per_proc",
        per_proc_us(layer::MMP_DELIVER),
    );
    out.set(
        "core.wire.mmp_node.replicate_us_per_proc",
        per_proc_us(layer::MMP_REPLICATE),
    );
    out.set(
        "core.wire.codec_ns_per_msg",
        ns_per_msg(layer::CODEC_SUT, layer::CODEC_GEN),
    );
    out.set(
        "core.wire.msgs_per_proc",
        ops.msgs as f64 / ops.procs.max(1) as f64,
    );
    out.set(
        "core.wire.bytes_per_msg",
        ops.bytes as f64 / ops.msgs.max(1) as f64,
    );
    out.set(
        "sctplite.assoc.ns_per_msg",
        ns_per_msg(layer::SCTP_SUT, layer::SCTP_GEN),
    );
    out.set("trace.overhead_share", traced_wall / plain_wall - 1.0);

    let costs = replay::measure(&sum.samples)?;
    let replay = replay_rows(plane, &costs, &ops);
    let mut replayed = 0.0;
    out.notes.push(format!(
        "traced loop: {TRACED_UES} UEs x {ops_per_ue} ops, {PASSES}+{PASSES} passes; untraced {plain_wall:.4}s traced {traced_wall:.4}s"
    ));
    for (name, ns, per_proc, summed) in &replay {
        out.set(name, *ns);
        if *summed {
            replayed += ns * per_proc / 1e3;
        }
        out.notes.push(format!(
            "  replay {name:<38} {ns:>10.1} ns/op x {per_proc:>7.3}/proc{}",
            if *summed { "" } else { " (nested, not summed)" }
        ));
    }
    let rows = ledger_rows(plane, &sum, procs);
    let (traced_sum, residual) = closure(&rows, measured_us_per_proc);
    for r in &rows {
        out.notes.push(format!(
            "  ledger {:<44} {:>9.3} us/proc",
            r.name, r.us_per_proc
        ));
    }
    out.notes.push(format!(
        "  ledger sum {traced_sum:.3} us/proc vs measured {measured_us_per_proc:.3} us/proc: residual share {residual:.4}; replayed rows {replayed:.3} us/proc"
    ));
    out.set("ledger.traced_us_per_proc", traced_sum);
    out.set("ledger.replayed_us_per_proc", replayed);
    out.set("ledger.residual_share", residual);
    if plane == Plane::Wire {
        out.set(
            "wire.transport_residual_us_per_proc",
            measured_us_per_proc - traced_sum,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_defines_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json at the repository root")
            .split_whitespace()
            .collect();
        for (n, u) in E2E.iter().chain(LAYERS.iter()) {
            assert!(
                doc.contains(&format!("\"name\":\"{n}\",\"unit\":\"{u}\"")),
                "{n} [{u}] missing from BENCHMARK.json"
            );
        }
        let names = doc.matches("\"name\":").count();
        assert_eq!(names, E2E.len() + LAYERS.len() + crate::WORKLOADS.len());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut all = expected(false);
        all.extend(expected(true));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let out = Outcome {
            metrics: vec![("setup_s", 0.5), ("procs_per_s", 1234.5)],
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        assert_eq!(
            out.json(true),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"procs_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
    }
}
