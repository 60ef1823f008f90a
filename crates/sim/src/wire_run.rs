//! The wire-level deployment runtime (DESIGN.md §14): real OS
//! processes for each role — eNodeB emulators, the MLB front, MMP
//! workers — joined by `sctplite` associations over localhost TCP.
//!
//! This module contains the three role main-loops (driven by the
//! `scale_wired` binary), the parent-side orchestration that spawns the
//! topology as child processes and harvests their `REPORT` lines, and
//! an in-process *shuttle* that runs the identical sans-IO logic
//! ([`MlbState`], [`MmpNode`], [`EnbEmulator`]) through a message
//! queue instead of sockets. The shuttle is the parity oracle: the
//! socket deployment, the shuttle and the in-process `scale_out`
//! driver must all produce identical per-outcome counts for the same
//! seeded workload — the wall-clock gap between them *is* the result
//! the `wire_load` bench measures.
//!
//! Child processes report through stdout (the vendored serde has no
//! `Deserialize`): the MLB prints `PORT <n>` once its listener is
//! bound, the eNodeB roles print `PROGRESS sessions_done=<n>` as
//! sessions complete, and every role prints one `REPORT k=v ...` line at
//! exit.

use crate::openloop::poisson_schedule;
use crate::shard_driver::ScaleOutConfig;
use scale_core::wire::{MlbOut, MlbState, MlbWireStats, MmpNode, WireMsg, WireRole, WireTopo};
use scale_core::{BackoffPolicy, HealthTracker, ShardStatsSnapshot};
use scale_epc::{
    DriveMode, EmuCounts, EmuEvent, EmulatorConfig, EnbEmulator, ProcKind, ENB_BASE,
};
use scale_sctplite::{
    ppid, BurstStats, SctpListener, SctpRecvHalf, SctpSendHalf, SctpStream, StreamEvent,
    TransportError,
};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Bounded egress queue depth per link, in frames buffered toward the
/// writer task before senders block.
const EGRESS_CAP: usize = 4096;
/// Router heartbeat tick toward MMP links.
const HB_TICK: Duration = Duration::from_millis(100);
/// Idle poll granularity of the eNB drive loop.
const POLL: Duration = Duration::from_millis(200);
/// Hard per-process run deadline (CI hang guard).
const RUN_DEADLINE: Duration = Duration::from_secs(180);

/// Session admission discipline of a wire run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireMode {
    /// Self-clocked: fixed in-flight window per cell, refilled on
    /// completion (comparable to `scale_out`).
    Closed {
        /// In-flight devices per cell.
        window: usize,
    },
    /// Offered load: seeded Poisson arrivals at `rate_hz` total across
    /// the deployment; arrivals beyond the per-cell in-flight cap are
    /// shed and counted.
    Open {
        /// Aggregate session arrival rate (1/s) across all cells.
        rate_hz: f64,
        /// Bounded in-flight backpressure cap per cell.
        max_in_flight: usize,
    },
}

/// Full configuration of one wire deployment run, shared verbatim by
/// every process via argv (`to_args`/`from_args`).
#[derive(Debug, Clone, PartialEq)]
pub struct WireRunConfig {
    /// eNodeB-emulator processes (= cells).
    pub n_enbs: usize,
    /// MMP worker processes.
    pub n_mmps: usize,
    /// Total MMP VM fleet striped over the workers.
    pub total_vms: usize,
    /// Replication degree R.
    pub replication: usize,
    /// Virtual tokens per ring node.
    pub ring_tokens: u32,
    /// Workload + HSS seed.
    pub seed: u64,
    /// Devices across the whole deployment.
    pub n_ues: usize,
    /// Idle-mode ops (SR/TAU mix) per device after attach.
    pub ops_per_ue: usize,
    /// Admission discipline.
    pub mode: WireMode,
}

impl WireRunConfig {
    /// The CI smoke shape: small population, everything exercised.
    pub fn smoke() -> Self {
        WireRunConfig {
            n_enbs: 2,
            n_mmps: 2,
            total_vms: 8,
            replication: 2,
            ring_tokens: 64,
            seed: 42,
            n_ues: 400,
            ops_per_ue: 2,
            mode: WireMode::Closed { window: 32 },
        }
    }

    /// The static topology view shared with `scale-core`.
    pub fn topo(&self) -> WireTopo {
        WireTopo {
            n_enbs: self.n_enbs,
            n_mmps: self.n_mmps,
            total_vms: self.total_vms,
            replication: self.replication,
            ring_tokens: self.ring_tokens,
            seed: self.seed,
        }
    }

    /// The `scale_out` configuration this run is compared against:
    /// identical fleet, ring, population and op mix. (`n_shards` is a
    /// thread count there; outcome counts are invariant to it.)
    pub fn scale_out_twin(&self) -> ScaleOutConfig {
        ScaleOutConfig {
            n_shards: self.n_mmps,
            total_vms: self.total_vms,
            replication: self.replication,
            n_ues: self.n_ues,
            ops_per_ue: self.ops_per_ue,
            seed: self.seed,
            window: match self.mode {
                WireMode::Closed { window } => window,
                WireMode::Open { max_in_flight, .. } => max_in_flight,
            },
            ring_tokens: self.ring_tokens,
        }
    }

    /// Serialize as `key=value` argv tokens.
    pub fn to_args(&self) -> Vec<String> {
        let mode = match self.mode {
            WireMode::Closed { window } => format!("mode=closed:{window}"),
            WireMode::Open {
                rate_hz,
                max_in_flight,
            } => format!("mode=open:{rate_hz}:{max_in_flight}"),
        };
        vec![
            format!("n_enbs={}", self.n_enbs),
            format!("n_mmps={}", self.n_mmps),
            format!("total_vms={}", self.total_vms),
            format!("replication={}", self.replication),
            format!("ring_tokens={}", self.ring_tokens),
            format!("seed={}", self.seed),
            format!("n_ues={}", self.n_ues),
            format!("ops_per_ue={}", self.ops_per_ue),
            mode,
        ]
    }

    /// Parse the tokens emitted by [`WireRunConfig::to_args`]. Panics
    /// on malformed input — argv is produced by this module, so a
    /// parse failure is a bug, not an operational condition.
    // lint: allow(unwrap)
    pub fn from_args(args: &[String]) -> WireRunConfig {
        let mut cfg = WireRunConfig::smoke();
        for tok in args {
            let (k, v) = tok
                .split_once('=')
                .unwrap_or_else(|| panic!("bad config token {tok:?}"));
            match k {
                "n_enbs" => cfg.n_enbs = v.parse().unwrap(),
                "n_mmps" => cfg.n_mmps = v.parse().unwrap(),
                "total_vms" => cfg.total_vms = v.parse().unwrap(),
                "replication" => cfg.replication = v.parse().unwrap(),
                "ring_tokens" => cfg.ring_tokens = v.parse().unwrap(),
                "seed" => cfg.seed = v.parse().unwrap(),
                "n_ues" => cfg.n_ues = v.parse().unwrap(),
                "ops_per_ue" => cfg.ops_per_ue = v.parse().unwrap(),
                "mode" => {
                    let parts: Vec<&str> = v.split(':').collect();
                    cfg.mode = match parts[0] {
                        "closed" => WireMode::Closed {
                            window: parts[1].parse().unwrap(),
                        },
                        "open" => WireMode::Open {
                            rate_hz: parts[1].parse().unwrap(),
                            max_in_flight: parts[2].parse().unwrap(),
                        },
                        other => panic!("bad mode {other:?}"),
                    };
                }
                other => panic!("unknown config key {other:?}"),
            }
        }
        cfg
    }
}

/// MMP-side totals of a run (engine counters + residency).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireMmpTotals {
    /// Merged engine counters across workers.
    pub stats: ShardStatsSnapshot,
    /// Contexts resident at quiesce.
    pub contexts_held: u64,
    /// Wire-protocol errors at the workers.
    pub wire_errors: u64,
}

/// Deterministic per-outcome counts of one wire run: identical between
/// the socket deployment, the in-process shuttle, and (for the engine-
/// side fields) the `scale_out` driver on the same seeded workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCounts {
    /// Access-side counts summed over cells.
    pub enb: EmuCounts,
    /// Engine-side totals summed over workers.
    pub mmp: WireMmpTotals,
    /// MLB router counters.
    pub mlb: MlbWireStats,
    /// MMP links re-established after a death.
    pub reconnects: u64,
}

/// Latency summary of one procedure class at one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireLatency {
    /// Cell index.
    pub cell: usize,
    /// Procedure name (`attach`, `service_request`, `tau`, `s1_release`).
    pub proc: String,
    /// Completions observed.
    pub count: u64,
    /// Median wire-level latency (µs).
    pub p50_us: u64,
    /// Tail wire-level latency (µs).
    pub p99_us: u64,
}

/// Everything the parent learns from a finished deployment.
#[derive(Debug, Clone)]
pub struct WireOutcome {
    /// Deterministic counts (the parity/determinism surface).
    pub counts: WireCounts,
    /// Per-cell, per-procedure wire latencies.
    pub latency: Vec<WireLatency>,
    /// Longest cell drive wall time (ms) — offered work / this is the
    /// deployment's throughput denominator.
    pub wall_ms: u64,
    /// Whether every process exited cleanly within the deadline.
    pub clean_exit: bool,
}

const PROC_KINDS: [ProcKind; 4] = [
    ProcKind::Attach,
    ProcKind::ServiceRequest,
    ProcKind::Tau,
    ProcKind::S1Release,
];

fn add_emu(a: &mut EmuCounts, b: &EmuCounts) {
    a.sessions_done += b.sessions_done;
    a.sessions_shed += b.sessions_shed;
    a.attaches += b.attaches;
    a.service_requests += b.service_requests;
    a.taus += b.taus;
    a.s1_releases += b.s1_releases;
    a.recoveries += b.recoveries;
    a.rejects += b.rejects;
    a.errors += b.errors;
}

fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

// ---------------------------------------------------------------------------
// Role main-loops (called by the `scale_wired` binary)
// ---------------------------------------------------------------------------

fn send_wire(link: &SctpSendHalf, msg: &WireMsg) -> Result<(), TransportError> {
    link.send(1, ppid::SCALE_STATE, msg.encode())
}

/// Send (and empty) `msgs` as one burst: one queue push, one write.
fn send_burst_wire(link: &SctpSendHalf, msgs: &mut Vec<WireMsg>) -> Result<(), TransportError> {
    if msgs.is_empty() {
        return Ok(());
    }
    link.send_burst(1, ppid::SCALE_STATE, msgs.drain(..).map(|m| m.encode()))
}

/// What [`read_burst`] saw besides the messages it decoded.
struct Burst {
    /// A heartbeat ack was among the events.
    acked: bool,
    /// Payloads that did not decode as a [`WireMsg`].
    undecodable: u64,
    /// The link error that ended the burst; the messages before it
    /// were still delivered.
    lost: Option<TransportError>,
}

/// Block for the next event on `rh`, then take every event already
/// buffered behind it — the messages of one read, in order, decoded
/// onto `msgs`.
fn read_burst(rh: &mut SctpRecvHalf, msgs: &mut Vec<WireMsg>) -> Burst {
    let mut burst = Burst {
        acked: false,
        undecodable: 0,
        lost: None,
    };
    let mut next = tokio::runtime::block_on(rh.next_event()).map(Some);
    loop {
        match next {
            Ok(Some(StreamEvent::Data { payload, .. })) => match WireMsg::decode(payload) {
                Ok(m) => msgs.push(m),
                Err(e) => {
                    burst.undecodable += 1;
                    eprintln!("link: undecodable wire message: {e}");
                }
            },
            Ok(Some(StreamEvent::HeartbeatAck { .. })) => burst.acked = true,
            Ok(None) => return burst,
            Err(e) => {
                burst.lost = Some(e);
                return burst;
            }
        }
        next = rh.try_next_event();
    }
}

/// Dial `addr` with bounded retry (a respawned worker races the
/// listener; a fresh topology races process startup).
fn connect_retry(addr: &str, tag: u32) -> Result<SctpStream, TransportError> {
    let policy = BackoffPolicy::default();
    let start = Instant::now();
    let mut attempt = 0u32;
    loop {
        match tokio::runtime::block_on(SctpStream::connect(addr, tag)) {
            Ok(s) => return Ok(s),
            Err(e) => {
                attempt += 1;
                if start.elapsed() > Duration::from_secs(10)
                    || !policy.may_retry(attempt, start.elapsed().as_secs_f64())
                {
                    return Err(e);
                }
                thread::sleep(Duration::from_secs_f64(
                    policy.delay(attempt, u64::from(tag)).min(0.25),
                ));
            }
        }
    }
}

enum LinkIn {
    Msgs(Vec<WireMsg>),
    Down,
}

/// Pump one recv half into a channel, one item per read burst.
/// Thread entry: owns its Sender clone so the channel lives exactly as
/// long as the pump.
#[allow(clippy::needless_pass_by_value)]
fn pump_link(mut rh: SctpRecvHalf, tx: Sender<LinkIn>) {
    loop {
        let mut msgs = Vec::new();
        let burst = read_burst(&mut rh, &mut msgs);
        if !msgs.is_empty() && tx.send(LinkIn::Msgs(msgs)).is_err() {
            return;
        }
        if burst.lost.is_some() {
            let _ = tx.send(LinkIn::Down);
            return;
        }
    }
}

struct LatStore {
    samples: [Vec<u64>; 4],
}

impl LatStore {
    fn new() -> Self {
        LatStore {
            samples: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
        }
    }

    // PROC_KINDS is exhaustive over ProcKind by construction.
    // lint: allow(unwrap)
    fn slot(kind: ProcKind) -> usize {
        PROC_KINDS.iter().position(|k| *k == kind).unwrap()
    }

    fn push(&mut self, kind: ProcKind, elapsed: Duration) {
        self.samples[Self::slot(kind)].push(elapsed.as_micros() as u64);
    }

    fn report_fields(&mut self) -> String {
        let mut s = String::new();
        for (i, kind) in PROC_KINDS.iter().enumerate() {
            self.samples[i].sort_unstable();
            let v = &self.samples[i];
            let name = kind.name();
            s.push_str(&format!(
                " {name}_n={} {name}_p50_us={} {name}_p99_us={}",
                v.len(),
                pct(v, 0.50),
                pct(v, 0.99),
            ));
        }
        s
    }
}

/// eNodeB-emulator process main: drive the cell's population through
/// the MLB link, measure wire-level per-procedure latency, print one
/// `REPORT` line, exit 0 on success.
pub fn run_enb(cfg: &WireRunConfig, cell: usize, addr: &str) -> i32 {
    let n_local = EmulatorConfig::local_share(cfg.n_ues, cfg.n_enbs, cell);
    let mode = match cfg.mode {
        WireMode::Closed { window } => DriveMode::Closed { window },
        WireMode::Open { max_in_flight, .. } => DriveMode::Open { max_in_flight },
    };
    let mut emu = EnbEmulator::new(&EmulatorConfig {
        cell,
        n_cells: cfg.n_enbs,
        n_local_ues: n_local,
        ops_per_ue: cfg.ops_per_ue,
        seed: cfg.seed,
        mode,
    });
    let enb_id = emu.enb_id();

    let stream = match connect_retry(addr, enb_id) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("enb {cell}: cannot reach MLB at {addr}: {e}");
            return 2;
        }
    };
    let (link, rh) = stream.into_split(EGRESS_CAP);
    let (tx, rx) = channel();
    thread::spawn(move || pump_link(rh, tx));

    let mut lat = LatStore::new();
    let hello = WireMsg::Hello {
        role: WireRole::Enb,
        id: cell as u32,
    };
    let setup = WireMsg::Uplink {
        enb_id,
        attach_hint: None,
        pdu: emu.s1_setup_request(),
    };
    if send_wire(&link, &hello).is_err() || send_wire(&link, &setup).is_err() {
        eprintln!("enb {cell}: link lost during setup");
        return 2;
    }

    let schedule = match cfg.mode {
        WireMode::Open { rate_hz, .. } => poisson_schedule(
            cfg.seed ^ (0x0E9B_0000 + cell as u64),
            rate_hz / cfg.n_enbs as f64,
            n_local,
        ),
        WireMode::Closed { .. } => Vec::new(),
    };

    emu.start();
    let t0 = Instant::now();
    let mut next_arrival = 0usize;
    let mut link_down = false;
    let mut uplinks = Vec::new();
    // About 32 `PROGRESS` lines per run plus a final one, so a harness
    // can time fault injection on observed progress, not the wall clock.
    let progress_step = (n_local as u64 / 32).max(1);
    let mut next_progress = progress_step;
    'drive: while !emu.done() {
        if emu.counts.sessions_done >= next_progress {
            println!("PROGRESS sessions_done={}", emu.counts.sessions_done);
            next_progress = emu.counts.sessions_done + progress_step;
        }
        if t0.elapsed() > RUN_DEADLINE {
            eprintln!(
                "enb {cell}: deadline exceeded ({} of {} sessions done)",
                emu.counts.sessions_done + emu.counts.sessions_shed,
                n_local
            );
            return 3;
        }
        while next_arrival < schedule.len() && t0.elapsed() >= schedule[next_arrival] {
            emu.arrival();
            next_arrival += 1;
        }
        // Flush drive output before blocking, as one burst:
        // admissions/arrivals above and the downlinks handled last
        // round may have produced uplinks.
        for ev in emu.drain() {
            match ev {
                EmuEvent::Uplink { attach_hint, pdu } => uplinks.push(WireMsg::Uplink {
                    enb_id,
                    attach_hint,
                    pdu,
                }),
                EmuEvent::Completed { kind, elapsed } => lat.push(kind, elapsed),
            }
        }
        if send_burst_wire(&link, &mut uplinks).is_err() {
            link_down = true;
            break 'drive;
        }
        let wait = if next_arrival < schedule.len() {
            schedule[next_arrival].saturating_sub(t0.elapsed()).min(POLL)
        } else {
            POLL
        };
        match rx.recv_timeout(wait) {
            Ok(LinkIn::Msgs(msgs)) => {
                for msg in msgs {
                    match msg {
                        WireMsg::ToEnb { pdu, .. } => emu.handle_downlink(pdu),
                        WireMsg::Settled { m_tmsi, active } => emu.settled(m_tmsi, active),
                        WireMsg::ProcFailed { m_tmsi } => emu.proc_failed(m_tmsi),
                        // MLB/fabric-internal traffic never reaches an
                        // eNodeB; named exhaustively so a new wire
                        // message fails to compile here instead of
                        // being silently dropped.
                        WireMsg::Hello { .. }
                        | WireMsg::Uplink { .. }
                        | WireMsg::Deliver { .. }
                        | WireMsg::Replicate { .. }
                        | WireMsg::DropCtx { .. }
                        | WireMsg::VmDown { .. }
                        | WireMsg::VmUp { .. } => {}
                    }
                }
            }
            Ok(LinkIn::Down) | Err(RecvTimeoutError::Disconnected) => {
                link_down = true;
                break 'drive;
            }
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
    let wall_ms = t0.elapsed().as_millis() as u64;
    println!("PROGRESS sessions_done={}", emu.counts.sessions_done);
    if link_down && !emu.done() {
        eprintln!("enb {cell}: MLB link lost mid-drive");
        return 2;
    }

    let c = emu.counts;
    println!(
        "REPORT role=enb cell={cell} sessions_done={} sessions_shed={} attaches={} \
         service_requests={} taus={} s1_releases={} recoveries={} rejects={} errors={} \
         wall_ms={wall_ms}{}",
        c.sessions_done,
        c.sessions_shed,
        c.attaches,
        c.service_requests,
        c.taus,
        c.s1_releases,
        c.recoveries,
        c.rejects,
        c.errors,
        lat.report_fields(),
    );
    for e in emu.error_samples() {
        eprintln!("enb {cell}: {e}");
    }
    // Drain the egress queue before exiting so the final uplinks (and
    // the shutdown) actually reach the wire.
    let flush_deadline = Instant::now() + Duration::from_secs(2);
    let _ = link.shutdown_send();
    while link.pending() > 0 && Instant::now() < flush_deadline {
        thread::sleep(Duration::from_millis(5));
    }
    0
}

/// MMP worker process main: engines behind the MLB link. Runs until
/// the MLB closes the association, then prints one `REPORT` line.
pub fn run_mmp(cfg: &WireRunConfig, index: usize, addr: &str) -> i32 {
    let topo = cfg.topo();
    let mut node = MmpNode::new(&topo, index);
    let stream = match connect_retry(addr, 0x4D4D_0000 + index as u32) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mmp {index}: cannot reach MLB at {addr}: {e}");
            return 2;
        }
    };
    let (link, mut rh) = stream.into_split(EGRESS_CAP);
    if send_wire(
        &link,
        &WireMsg::Hello {
            role: WireRole::Mmp,
            id: index as u32,
        },
    )
    .is_err()
    {
        eprintln!("mmp {index}: link lost during hello");
        return 2;
    }

    // One read burst in, every output of it out as one burst.
    let (mut inbox, mut out) = (Vec::new(), Vec::new());
    loop {
        let burst = read_burst(&mut rh, &mut inbox);
        node.errors += burst.undecodable;
        for msg in inbox.drain(..) {
            node.handle(msg, &mut out);
        }
        if send_burst_wire(&link, &mut out).is_err() || burst.lost.is_some() {
            break;
        }
    }

    let s = node.stats();
    println!(
        "REPORT role=mmp index={index} messages={} attaches={} service_requests={} taus={} \
         detaches={} idles={} rejects={} replicas_imported={} replicas_sent={} \
         strays_dropped={} errors={} wire_errors={} contexts_held={}",
        s.messages,
        s.attaches,
        s.service_requests,
        s.taus,
        s.detaches,
        s.idles,
        s.rejects,
        s.replicas_imported,
        s.replicas_sent,
        s.strays_dropped,
        s.errors,
        node.errors,
        node.contexts_held(),
    );
    for e in node.error_samples() {
        eprintln!("mmp {index}: {e}");
    }
    0
}

enum RouterEvent {
    Linked {
        role: WireRole,
        id: usize,
        link: SctpSendHalf,
    },
    /// The messages of one read burst on one link, in order.
    Msgs {
        role: WireRole,
        msgs: Vec<WireMsg>,
    },
    Pong {
        id: usize,
    },
    Down {
        role: WireRole,
        id: usize,
    },
}

/// A latch the MLB router opens once every configured MMP has linked.
/// eNB link threads wait on it before reading past their `Hello`, so no
/// uplink is routed while a worker has no link yet; their traffic
/// waits in the socket buffers meanwhile.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.opened.notify_all();
    }

    fn wait(&self) {
        let mut open = self.open.lock().unwrap_or_else(PoisonError::into_inner);
        while !*open {
            open = self
                .opened
                .wait(open)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Per-accepted-link thread on the MLB: handshake (first message must
/// be a `Hello`), then forward each read burst to the router as one
/// event. Thread entry: owns its Sender clone so the channel lives
/// exactly as long as the link.
#[allow(clippy::needless_pass_by_value)]
fn mlb_link_loop(sh: SctpSendHalf, mut rh: SctpRecvHalf, tx: Sender<RouterEvent>, gate: Arc<Gate>) {
    let (role, id) = match tokio::runtime::block_on(rh.next_event()) {
        Ok(StreamEvent::Data { payload, .. }) => match WireMsg::decode(payload) {
            Ok(WireMsg::Hello { role, id }) => (role, id as usize),
            Ok(_) | Err(_) => {
                eprintln!("mlb: link did not start with Hello; dropping");
                return;
            }
        },
        _ => return,
    };
    if tx.send(RouterEvent::Linked { role, id, link: sh }).is_err() {
        return;
    }
    if role == WireRole::Enb {
        gate.wait();
    }
    loop {
        let mut msgs = Vec::new();
        let burst = read_burst(&mut rh, &mut msgs);
        if !msgs.is_empty() && tx.send(RouterEvent::Msgs { role, msgs }).is_err() {
            return;
        }
        if burst.acked && role == WireRole::Mmp && tx.send(RouterEvent::Pong { id }).is_err() {
            return;
        }
        if burst.lost.is_some() {
            let _ = tx.send(RouterEvent::Down { role, id });
            return;
        }
    }
}

/// Send each link's queued messages as one burst, emptying the queues.
/// A link whose send fails is reported down to the router.
fn send_bursts<'a>(
    bursts: &mut [Vec<WireMsg>],
    link: impl Fn(usize) -> Option<&'a SctpSendHalf>,
    role: WireRole,
    tx: &Sender<RouterEvent>,
) {
    for (id, burst) in bursts.iter_mut().enumerate() {
        if let Some(l) = link(id) {
            if send_burst_wire(l, burst).is_err() {
                let _ = tx.send(RouterEvent::Down { role, id });
            }
        }
    }
}

struct MmpLink {
    link: SctpSendHalf,
    /// Nonce of an unanswered heartbeat, if one is outstanding.
    outstanding: Option<u64>,
}

/// MLB front process main: bind, announce `PORT`, route between eNB
/// and MMP links until every eNB link has closed, then print one
/// `REPORT` line. No eNB traffic is routed before every configured MMP
/// has linked once, whatever order the processes start in.
pub fn run_mlb(cfg: &WireRunConfig) -> i32 {
    let topo = cfg.topo();
    let mut mlb = MlbState::new(&topo);
    let mut listener = match tokio::runtime::block_on(SctpListener::bind("127.0.0.1:0")) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("mlb: bind failed: {e}");
            return 2;
        }
    };
    let port = listener.local_addr().map(|a| a.port()).unwrap_or(0);
    println!("PORT {port}");
    let _ = std::io::stdout().flush();

    let (tx, rx) = channel::<RouterEvent>();
    let accept_tx = tx.clone();
    let gate = Arc::new(Gate::default());
    let accept_gate = Arc::clone(&gate);
    let io = Arc::new(BurstStats::default());
    let accept_io = Arc::clone(&io);
    thread::spawn(move || loop {
        match tokio::runtime::block_on(listener.accept()) {
            Ok(mut stream) => {
                stream.count_bursts_into(Arc::clone(&accept_io));
                let (sh, rh) = stream.into_split(EGRESS_CAP);
                let link_tx = accept_tx.clone();
                let link_gate = Arc::clone(&accept_gate);
                thread::spawn(move || mlb_link_loop(sh, rh, link_tx, link_gate));
            }
            Err(e) => {
                eprintln!("mlb: accept failed: {e}");
                return;
            }
        }
    });

    let mut enb_links: Vec<Option<SctpSendHalf>> = (0..cfg.n_enbs).map(|_| None).collect();
    let mut mmp_links: Vec<Option<MmpLink>> = (0..cfg.n_mmps).map(|_| None).collect();
    let mut mmp_ever_down = vec![false; cfg.n_mmps];
    let mut mmp_linked = vec![false; cfg.n_mmps];
    let mut health = HealthTracker::new(scale_core::HealthConfig::default());
    let mut reconnects = 0u64;
    let mut enbs_closed = 0usize;
    let mut next_nonce = 1u64;
    let mut out: Vec<MlbOut> = Vec::new();
    // Router output grouped per link, so each link gets one burst per
    // router event; per-link order is the routing order.
    let mut enb_bursts: Vec<Vec<WireMsg>> = (0..cfg.n_enbs).map(|_| Vec::new()).collect();
    let mut mmp_bursts: Vec<Vec<WireMsg>> = (0..cfg.n_mmps).map(|_| Vec::new()).collect();
    let start = Instant::now();

    macro_rules! dispatch {
        () => {
            for o in out.drain(..) {
                match o {
                    MlbOut::Enb { enb, msg } => {
                        if enb_links.get(enb).is_some_and(Option::is_some) {
                            enb_bursts[enb].push(msg);
                        } else {
                            mlb.stats.dropped += 1;
                        }
                    }
                    MlbOut::Mmp { mmp, msg } => {
                        if mmp_links.get(mmp).is_some_and(Option::is_some) {
                            mmp_bursts[mmp].push(msg);
                        } else {
                            mlb.stats.dropped += 1;
                        }
                    }
                }
            }
            send_bursts(&mut enb_bursts, |i| enb_links[i].as_ref(), WireRole::Enb, &tx);
            send_bursts(
                &mut mmp_bursts,
                |i| mmp_links[i].as_ref().map(|l| &l.link),
                WireRole::Mmp,
                &tx,
            );
        };
    }

    while enbs_closed < cfg.n_enbs {
        if start.elapsed() > RUN_DEADLINE {
            eprintln!("mlb: deadline exceeded with {enbs_closed}/{} eNBs closed", cfg.n_enbs);
            return 3;
        }
        match rx.recv_timeout(HB_TICK) {
            Ok(RouterEvent::Linked { role, id, link }) => match role {
                WireRole::Enb => {
                    if id < cfg.n_enbs {
                        enb_links[id] = Some(link);
                    }
                }
                WireRole::Mmp => {
                    if id >= cfg.n_mmps {
                        continue;
                    }
                    if mmp_links[id].is_some() {
                        // Replaced without a observed death: fail the
                        // old link first.
                        mmp_links[id] = None;
                        mmp_ever_down[id] = true;
                        mlb.on_mmp_down(id, &mut out);
                        dispatch!();
                    }
                    mmp_links[id] = Some(MmpLink {
                        link,
                        outstanding: None,
                    });
                    health.mark_up(id as u32);
                    mmp_linked[id] = true;
                    if mmp_linked.iter().all(|&l| l) {
                        gate.open();
                    }
                    if mmp_ever_down[id] {
                        reconnects += 1;
                        mlb.on_mmp_reconnected(id, &mut out);
                        dispatch!();
                    }
                }
            },
            Ok(RouterEvent::Msgs { role, msgs }) => {
                for msg in msgs {
                    match role {
                        WireRole::Enb => {
                            if let WireMsg::Uplink {
                                enb_id,
                                attach_hint,
                                pdu,
                            } = msg
                            {
                                mlb.on_enb(enb_id, attach_hint, pdu, &mut out);
                            }
                        }
                        WireRole::Mmp => mlb.on_mmp(msg, &mut out),
                    }
                }
                dispatch!();
            }
            Ok(RouterEvent::Pong { id }) => {
                if let Some(Some(l)) = mmp_links.get_mut(id) {
                    l.outstanding = None;
                    health.heartbeat_ok(id as u32);
                }
            }
            Ok(RouterEvent::Down { role, id }) => match role {
                WireRole::Enb => {
                    if id < cfg.n_enbs && enb_links[id].take().is_some() {
                        enbs_closed += 1;
                    }
                }
                WireRole::Mmp => {
                    if id < cfg.n_mmps && mmp_links[id].take().is_some() {
                        mmp_ever_down[id] = true;
                        health.mark_down(id as u32);
                        mlb.on_mmp_down(id, &mut out);
                        dispatch!();
                    }
                }
            },
            Err(RecvTimeoutError::Timeout) => {
                // Heartbeat tick: ping every live MMP link; an
                // unanswered ping from the previous tick is a miss,
                // and enough misses take the link down even without a
                // TCP-level error.
                for (id, slot) in mmp_links.iter_mut().enumerate().take(cfg.n_mmps) {
                    let Some(l) = slot.as_mut() else {
                        continue;
                    };
                    if l.outstanding.is_some() && health.miss_heartbeat(id as u32) {
                        let _ = tx.send(RouterEvent::Down {
                            role: WireRole::Mmp,
                            id,
                        });
                        continue;
                    }
                    next_nonce += 1;
                    if l.link.ping(next_nonce).is_ok() {
                        l.outstanding = Some(next_nonce);
                    }
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }

    let s = mlb.stats;
    let b = io.snapshot();
    println!(
        "REPORT role=mlb routed_attaches={} routed_idle={} forwarded_uplinks={} \
         settled_relayed={} proc_failures={} dropped={} errors={} reconnects={reconnects} \
         reads={} frames_read={} writes={} frames_written={}",
        s.routed_attaches,
        s.routed_idle,
        s.forwarded_uplinks,
        s.settled_relayed,
        s.proc_failures,
        s.dropped,
        s.errors,
        b.reads,
        b.frames_read,
        b.writes,
        b.frames_written,
    );
    // Link-metrics export (DESIGN.md §14): publish the router counters
    // through the shared observability registry and emit them as one
    // `METRICS k=v ...` line — ignored by the parent's REPORT parser,
    // scrape-ready for anything tailing the MLB's stdout.
    let links_live = enb_links.iter().flatten().count() + mmp_links.iter().flatten().count();
    let observer = scale_core::WireLinkObserver::new(Arc::new(scale_obs::Registry::new()));
    observer.publish(&s, reconnects, links_live as u64);
    observer.publish_bursts(&b);
    println!("METRICS {}", scale_obs::report_kv(observer.registry()));
    // Let per-link egress queues drain before the process exit tears
    // the TCP streams down (enqueued != delivered).
    let flush_deadline = Instant::now() + Duration::from_secs(2);
    while mmp_links
        .iter()
        .flatten()
        .any(|l| l.link.pending() > 0)
        && Instant::now() < flush_deadline
    {
        thread::sleep(Duration::from_millis(5));
    }
    0
}

// ---------------------------------------------------------------------------
// Parent-side orchestration
// ---------------------------------------------------------------------------

struct ChildProc {
    child: Child,
    lines: Arc<Mutex<Vec<String>>>,
    drain: Option<JoinHandle<()>>,
}

impl ChildProc {
    // Harness plumbing: a poisoned line-buffer mutex or unpiped stdout
    // is a bug in this module, and the parent is a test/bench driver —
    // panicking is the designed failure mode.
    // lint: allow(unwrap)
    fn spawn(bin: &str, args: &[String]) -> std::io::Result<ChildProc> {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout piped");
        let lines = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&lines);
        let drain = thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                sink.lock().unwrap().push(line);
            }
        });
        Ok(ChildProc {
            child,
            lines,
            drain: Some(drain),
        })
    }

    /// Wait for exit within `deadline`; kill on timeout. Returns
    /// whether the child exited on its own with status 0.
    fn finish(&mut self, deadline: Instant) -> bool {
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    if let Some(d) = self.drain.take() {
                        let _ = d.join();
                    }
                    return status.success();
                }
                Ok(None) => {
                    if Instant::now() > deadline {
                        let _ = self.child.kill();
                        let _ = self.child.wait();
                        if let Some(d) = self.drain.take() {
                            let _ = d.join();
                        }
                        return false;
                    }
                    thread::sleep(Duration::from_millis(20));
                }
                Err(_) => return false,
            }
        }
    }

    // lint: allow(unwrap)
    fn report(&self) -> HashMap<String, u64> {
        let lines = self.lines.lock().unwrap();
        let mut map = HashMap::new();
        for line in lines.iter() {
            let Some(rest) = line.strip_prefix("REPORT ") else {
                continue;
            };
            for tok in rest.split_whitespace() {
                if let Some((k, v)) = tok.split_once('=') {
                    if let Ok(n) = v.parse::<u64>() {
                        map.insert(k.to_string(), n);
                    }
                }
            }
        }
        map
    }
}

/// A running wire deployment: the MLB, its workers and its cells as
/// real child processes.
pub struct WireDeployment {
    bin: String,
    cfg: WireRunConfig,
    addr: String,
    mlb: ChildProc,
    mmps: Vec<ChildProc>,
    enbs: Vec<ChildProc>,
}

/// Spawn the full topology from the `scale_wired` binary at `bin`:
/// one MLB (which picks its port), `n_mmps` workers, `n_enbs` cells.
/// Returns once every process is launched; the run proceeds in the
/// background until [`WireDeployment::finish`].
// lint: allow(unwrap)
pub fn spawn_topology(bin: &str, cfg: &WireRunConfig) -> std::io::Result<WireDeployment> {
    let cfg_args = cfg.to_args();
    let mut mlb_args = vec!["--role".to_string(), "mlb".to_string()];
    mlb_args.extend(cfg_args.iter().cloned());
    let mut mlb = ChildProc::spawn(bin, &mlb_args)?;

    // The MLB prints `PORT <n>` once its listener is bound.
    let port_deadline = Instant::now() + Duration::from_secs(20);
    let port = loop {
        if let Some(p) = mlb
            .lines
            .lock()
            .unwrap()
            .iter()
            .find_map(|l| l.strip_prefix("PORT ").and_then(|p| p.parse::<u16>().ok()))
        {
            break p;
        }
        if Instant::now() > port_deadline {
            let _ = mlb.child.kill();
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "MLB did not announce its port",
            ));
        }
        thread::sleep(Duration::from_millis(10));
    };
    let addr = format!("127.0.0.1:{port}");

    let child_args = |role: &str, key: &str, idx: usize| {
        let mut a = vec![
            "--role".to_string(),
            role.to_string(),
            key.to_string(),
            idx.to_string(),
            "--addr".to_string(),
            addr.clone(),
        ];
        a.extend(cfg_args.iter().cloned());
        a
    };
    let mut mmps = Vec::with_capacity(cfg.n_mmps);
    for i in 0..cfg.n_mmps {
        mmps.push(ChildProc::spawn(bin, &child_args("mmp", "--index", i))?);
    }
    let mut enbs = Vec::with_capacity(cfg.n_enbs);
    for c in 0..cfg.n_enbs {
        enbs.push(ChildProc::spawn(bin, &child_args("enb", "--cell", c))?);
    }
    Ok(WireDeployment {
        bin: bin.to_string(),
        cfg: cfg.clone(),
        addr,
        mlb,
        mmps,
        enbs,
    })
}

impl WireDeployment {
    /// The MLB's listening address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// SIGKILL worker `index` mid-run (chaos injection). The report of
    /// the killed process is lost by construction.
    pub fn kill_mmp(&mut self, index: usize) -> std::io::Result<()> {
        self.mmps[index].child.kill()?;
        self.mmps[index].child.wait()?;
        Ok(())
    }

    /// Sessions completed so far, summed over the eNodeBs' latest
    /// `PROGRESS` lines.
    pub fn sessions_done(&self) -> u64 {
        self.enbs
            .iter()
            .map(|e| {
                // The drain thread only appends, so a poisoned buffer
                // still holds whole lines.
                e.lines
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .iter()
                    .rev()
                    .find_map(|l| l.strip_prefix("PROGRESS sessions_done="))
                    .and_then(|n| n.parse::<u64>().ok())
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Block until the eNodeBs report at least `min` completed sessions
    /// or `timeout` passes; returns the count last observed.
    pub fn wait_sessions_done(&self, min: u64, timeout: Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        loop {
            let done = self.sessions_done();
            if done >= min || Instant::now() > deadline {
                return done;
            }
            thread::sleep(Duration::from_millis(2));
        }
    }

    /// Respawn worker `index` after [`WireDeployment::kill_mmp`]; the
    /// fresh process re-dials the MLB and re-announces itself.
    pub fn respawn_mmp(&mut self, index: usize) -> std::io::Result<()> {
        let mut args = vec![
            "--role".to_string(),
            "mmp".to_string(),
            "--index".to_string(),
            index.to_string(),
            "--addr".to_string(),
            self.addr.clone(),
        ];
        args.extend(self.cfg.to_args());
        self.mmps[index] = ChildProc::spawn(&self.bin, &args)?;
        Ok(())
    }

    /// Wait for the run to complete and aggregate every report.
    pub fn finish(mut self) -> WireOutcome {
        let deadline = Instant::now() + RUN_DEADLINE + Duration::from_secs(20);
        let mut clean = true;
        // eNBs finish first (their drive completing is what ends the
        // run), then the MLB, then the workers observe EOF.
        for e in &mut self.enbs {
            clean &= e.finish(deadline);
        }
        clean &= self.mlb.finish(deadline);
        for m in &mut self.mmps {
            clean &= m.finish(deadline);
        }

        let mut counts = WireCounts::default();
        let mut latency = Vec::new();
        let mut wall_ms = 0u64;
        let g = |m: &HashMap<String, u64>, k: &str| m.get(k).copied().unwrap_or(0);
        for (cell, e) in self.enbs.iter().enumerate() {
            let m = e.report();
            if m.is_empty() {
                clean = false;
                continue;
            }
            add_emu(
                &mut counts.enb,
                &EmuCounts {
                    sessions_done: g(&m, "sessions_done"),
                    sessions_shed: g(&m, "sessions_shed"),
                    attaches: g(&m, "attaches"),
                    service_requests: g(&m, "service_requests"),
                    taus: g(&m, "taus"),
                    s1_releases: g(&m, "s1_releases"),
                    recoveries: g(&m, "recoveries"),
                    rejects: g(&m, "rejects"),
                    errors: g(&m, "errors"),
                },
            );
            wall_ms = wall_ms.max(g(&m, "wall_ms"));
            for kind in PROC_KINDS {
                let name = kind.name();
                latency.push(WireLatency {
                    cell,
                    proc: name.to_string(),
                    count: g(&m, &format!("{name}_n")),
                    p50_us: g(&m, &format!("{name}_p50_us")),
                    p99_us: g(&m, &format!("{name}_p99_us")),
                });
            }
        }
        for w in &self.mmps {
            let m = w.report();
            if m.is_empty() {
                clean = false;
                continue;
            }
            counts.mmp.stats.merge(&ShardStatsSnapshot {
                messages: g(&m, "messages"),
                attaches: g(&m, "attaches"),
                service_requests: g(&m, "service_requests"),
                taus: g(&m, "taus"),
                detaches: g(&m, "detaches"),
                idles: g(&m, "idles"),
                rejects: g(&m, "rejects"),
                replicas_imported: g(&m, "replicas_imported"),
                replicas_sent: g(&m, "replicas_sent"),
                strays_dropped: g(&m, "strays_dropped"),
                errors: g(&m, "errors"),
            });
            counts.mmp.contexts_held += g(&m, "contexts_held");
            counts.mmp.wire_errors += g(&m, "wire_errors");
        }
        let m = self.mlb.report();
        if m.is_empty() {
            clean = false;
        }
        counts.mlb = MlbWireStats {
            routed_attaches: g(&m, "routed_attaches"),
            routed_idle: g(&m, "routed_idle"),
            forwarded_uplinks: g(&m, "forwarded_uplinks"),
            settled_relayed: g(&m, "settled_relayed"),
            proc_failures: g(&m, "proc_failures"),
            dropped: g(&m, "dropped"),
            errors: g(&m, "errors"),
        };
        counts.reconnects = g(&m, "reconnects");
        WireOutcome {
            counts,
            latency,
            wall_ms,
            clean_exit: clean,
        }
    }
}

// ---------------------------------------------------------------------------
// In-process shuttle (the parity oracle)
// ---------------------------------------------------------------------------

enum Hop {
    FromEnb(WireMsg),
    FromMmp(WireMsg),
    ToEnb(usize, WireMsg),
    ToMmp(usize, WireMsg),
}

/// Run the identical sans-IO deployment logic through an in-process
/// message queue instead of sockets: same emulators, same MLB routing
/// state, same worker nodes, zero transport. Closed-loop only (the
/// shuttle has no clock). This is both the parity oracle for the
/// socket deployment and the fastest way to debug the protocol.
pub fn run_shuttle(cfg: &WireRunConfig) -> WireCounts {
    assert!(
        matches!(cfg.mode, WireMode::Closed { .. }),
        "the shuttle is closed-loop only"
    );
    let topo = cfg.topo();
    let mut mlb = MlbState::new(&topo);
    let mut mmps: Vec<MmpNode> = (0..cfg.n_mmps).map(|i| MmpNode::new(&topo, i)).collect();
    let mut emus: Vec<EnbEmulator> = (0..cfg.n_enbs)
        .map(|cell| {
            EnbEmulator::new(&EmulatorConfig {
                cell,
                n_cells: cfg.n_enbs,
                n_local_ues: EmulatorConfig::local_share(cfg.n_ues, cfg.n_enbs, cell),
                ops_per_ue: cfg.ops_per_ue,
                seed: cfg.seed,
                mode: match cfg.mode {
                    WireMode::Closed { window } => DriveMode::Closed { window },
                    WireMode::Open { max_in_flight, .. } => DriveMode::Open { max_in_flight },
                },
            })
        })
        .collect();

    let mut queue: VecDeque<Hop> = VecDeque::new();
    let drain_emu = |emu: &mut EnbEmulator, cell: usize, queue: &mut VecDeque<Hop>| {
        for ev in emu.drain() {
            match ev {
                EmuEvent::Uplink { attach_hint, pdu } => {
                    queue.push_back(Hop::FromEnb(WireMsg::Uplink {
                        enb_id: ENB_BASE + cell as u32,
                        attach_hint,
                        pdu,
                    }));
                }
                EmuEvent::Completed { .. } => {}
            }
        }
    };
    for (cell, emu) in emus.iter_mut().enumerate() {
        queue.push_back(Hop::FromEnb(WireMsg::Uplink {
            enb_id: ENB_BASE + cell as u32,
            attach_hint: None,
            pdu: emu.s1_setup_request(),
        }));
        emu.start();
        drain_emu(emu, cell, &mut queue);
    }

    let mut out = Vec::new();
    let mut wout = Vec::new();
    while let Some(hop) = queue.pop_front() {
        match hop {
            Hop::FromEnb(WireMsg::Uplink {
                enb_id,
                attach_hint,
                pdu,
            }) => {
                mlb.on_enb(enb_id, attach_hint, pdu, &mut out);
            }
            Hop::FromEnb(..) => {}
            Hop::FromMmp(msg) => mlb.on_mmp(msg, &mut out),
            Hop::ToMmp(mmp, msg) => {
                mmps[mmp].handle(msg, &mut wout);
                for m in wout.drain(..) {
                    queue.push_back(Hop::FromMmp(m));
                }
            }
            Hop::ToEnb(enb, msg) => {
                let emu = &mut emus[enb];
                match msg {
                    WireMsg::ToEnb { pdu, .. } => emu.handle_downlink(pdu),
                    WireMsg::Settled { m_tmsi, active } => emu.settled(m_tmsi, active),
                    WireMsg::ProcFailed { m_tmsi } => emu.proc_failed(m_tmsi),
                    // MLB/fabric-internal traffic never reaches an
                    // eNodeB; named exhaustively so a new wire message
                    // fails to compile here instead of being dropped.
                    WireMsg::Hello { .. }
                    | WireMsg::Uplink { .. }
                    | WireMsg::Deliver { .. }
                    | WireMsg::Replicate { .. }
                    | WireMsg::DropCtx { .. }
                    | WireMsg::VmDown { .. }
                    | WireMsg::VmUp { .. } => {}
                }
                drain_emu(emu, enb, &mut queue);
            }
        }
        for o in out.drain(..) {
            match o {
                MlbOut::Enb { enb, msg } => queue.push_back(Hop::ToEnb(enb, msg)),
                MlbOut::Mmp { mmp, msg } => queue.push_back(Hop::ToMmp(mmp, msg)),
            }
        }
    }

    let mut counts = WireCounts {
        mlb: mlb.stats,
        ..WireCounts::default()
    };
    for emu in &emus {
        assert!(emu.done(), "shuttle quiesced with sessions outstanding");
        add_emu(&mut counts.enb, &emu.counts);
    }
    for (i, node) in mmps.iter().enumerate() {
        for e in node.error_samples() {
            eprintln!("shuttle mmp {i}: {e}");
        }
        counts.mmp.stats.merge(&node.stats());
        counts.mmp.contexts_held += node.contexts_held() as u64;
        counts.mmp.wire_errors += node.errors;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard_driver::run_scale_out;

    fn tiny() -> WireRunConfig {
        WireRunConfig {
            n_enbs: 2,
            n_mmps: 2,
            total_vms: 6,
            replication: 2,
            ring_tokens: 32,
            seed: 42,
            n_ues: 120,
            ops_per_ue: 2,
            mode: WireMode::Closed { window: 16 },
        }
    }

    #[test]
    fn config_args_roundtrip() {
        let cfg = tiny();
        assert_eq!(WireRunConfig::from_args(&cfg.to_args()), cfg);
        let open = WireRunConfig {
            mode: WireMode::Open {
                rate_hz: 312.5,
                max_in_flight: 48,
            },
            ..cfg
        };
        assert_eq!(WireRunConfig::from_args(&open.to_args()), open);
    }

    #[test]
    fn shuttle_runs_clean_and_deterministic() {
        let cfg = tiny();
        let a = run_shuttle(&cfg);
        let b = run_shuttle(&cfg);
        assert_eq!(a, b, "same seed, same counts");
        assert_eq!(a.enb.sessions_done, cfg.n_ues as u64);
        assert_eq!(a.enb.attaches, cfg.n_ues as u64);
        assert_eq!(a.enb.rejects, 0);
        assert_eq!(a.enb.errors, 0);
        assert_eq!(a.mmp.stats.errors, 0);
        assert_eq!(a.mmp.wire_errors, 0);
        assert_eq!(a.mlb.errors, 0);
        assert_eq!(a.mlb.dropped, 0);
        // Access side and engine side agree procedure for procedure.
        assert_eq!(a.enb.attaches, a.mmp.stats.attaches);
        assert_eq!(a.enb.service_requests, a.mmp.stats.service_requests);
        assert_eq!(a.enb.taus, a.mmp.stats.taus);
        assert_eq!(
            a.enb.service_requests + a.enb.taus,
            (cfg.n_ues * cfg.ops_per_ue) as u64
        );
        // Replication invariants carry over from the in-process driver.
        assert_eq!(
            a.mmp.contexts_held,
            (cfg.replication * cfg.n_ues) as u64
        );
        assert_eq!(
            a.mmp.stats.replicas_imported,
            (cfg.replication as u64 - 1) * a.mmp.stats.idles
        );
    }

    #[test]
    fn shuttle_matches_the_in_process_driver() {
        let cfg = tiny();
        let wire = run_shuttle(&cfg);
        let twin = run_scale_out(&cfg.scale_out_twin());
        assert_eq!(wire.mmp.stats.attaches, twin.counts.attaches);
        assert_eq!(wire.mmp.stats.service_requests, twin.counts.service_requests);
        assert_eq!(wire.mmp.stats.taus, twin.counts.taus);
        assert_eq!(wire.mmp.stats.idles, twin.counts.idles);
        assert_eq!(wire.mmp.stats.messages, twin.counts.messages);
        assert_eq!(wire.mmp.stats.replicas_imported, twin.counts.replicas_imported);
        assert_eq!(wire.mmp.contexts_held, twin.counts.contexts_held);
        assert_eq!(wire.mmp.stats.rejects, twin.counts.rejects);
        assert_eq!(wire.mmp.stats.errors, twin.counts.errors);
    }

    #[test]
    fn shuttle_counts_are_invariant_to_process_striping() {
        let cfg = tiny();
        let base = run_shuttle(&cfg);
        for (n_enbs, n_mmps) in [(1, 1), (3, 2), (2, 3)] {
            let alt = run_shuttle(&WireRunConfig {
                n_enbs,
                n_mmps,
                ..cfg.clone()
            });
            // Identity striping and VM placement move *where* work
            // runs, never *how much*.
            assert_eq!(alt.enb, base.enb, "({n_enbs},{n_mmps}) enb counts");
            assert_eq!(
                alt.mmp.stats.attaches, base.mmp.stats.attaches,
                "({n_enbs},{n_mmps}) attaches"
            );
            assert_eq!(alt.mmp.stats.idles, base.mmp.stats.idles);
            assert_eq!(alt.mmp.contexts_held, base.mmp.contexts_held);
        }
    }
}
