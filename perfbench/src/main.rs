//! `perfbench` — one benchmark for the SCALE planes.
//!
//! ```text
//! perfbench --workload <attach_storm|wire_ladder> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` measures the
//! per-layer ledger. Either way the run first passes the correctness
//! gate, or exits non-zero without printing a number. The last stdout
//! line is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! Metric definitions, workloads and the layer → end-to-end map are in
//! `perfbench/README.md`.

mod host;
mod inproc;
mod ladder;
mod ledger;
mod replay;
mod report;
mod stats;
mod traced;
mod wire;

use report::Outcome;
use std::time::Duration;

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 2] = ["attach_storm", "wire_ladder"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let v = it.next().ok_or(format!("{a} needs a value"))?;
        match a.as_str() {
            "--workload" => workload = Some(v.clone()),
            "--seed" => seed = Some(v.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(v.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (want one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(45.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run(a: &Args) -> Result<Outcome, String> {
    match (a.workload.as_str(), a.trace) {
        ("attach_storm", false) => report::inproc_e2e(
            &inproc::attach_storm(a.seed),
            Duration::from_secs_f64(a.seconds),
        ),
        ("attach_storm", true) => report::inproc_layers(&inproc::attach_storm(a.seed), a.seed),
        (_, false) => report::wire_e2e(a.seed, a.seconds),
        (_, true) => report::wire_layers(a.seed, a.seconds),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--role") {
        std::process::exit(wire::role_main(&args));
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let noise = host::NoiseWindow::open();
    match run(&a) {
        Ok(mut out) => {
            out.host = Some(noise.finish());
            out.print(&a.workload, a.seed, a.trace);
        }
        Err(e) => {
            eprintln!("perfbench: {} seed {}: FAILED: {e}", a.workload, a.seed);
            std::process::exit(1);
        }
    }
}
