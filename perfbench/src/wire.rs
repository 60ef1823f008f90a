//! The wire plane: `wire_ladder` runs the multi-process deployment (an
//! MLB process and two MMP worker processes over sctplite/TCP on
//! loopback, each the `scale_sim::wire_run` role main-loop the
//! `scale_wired` binary runs) and drives it open loop from this
//! process through one association.
//!
//! The generator is the benchmark's own: the stock eNodeB role times
//! latency from admission, while an open loop must time it from each
//! arrival's due time. It is one process with two threads (this one,
//! and a socket reader) and one connection, and speaks the sans-IO
//! `Association` over a plain `TcpStream`, flushing its writes once
//! per burst.

use crate::host::{self, ProcSample};
use crate::ladder::{self, Step};
use bytes::Bytes;
use scale_core::wire::{WireMsg, WireRole};
use scale_epc::{DriveMode, EmuEvent, EmulatorConfig, EnbEmulator, ProcKind, MTMSI_BASE};
use scale_s1ap::S1apPdu;
use scale_sctplite::{ppid, Association, Event, Frame};
use scale_sim::openloop::poisson_schedule;
use scale_sim::wire_run::{run_mlb, run_mmp, WireMode, WireRunConfig};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// MMP worker processes.
pub const N_MMPS: usize = 2;
/// Deployments set up per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// How long after a step's last arrival its sessions may still be in
/// flight without counting as backlog.
const GRACE: Duration = Duration::from_millis(250);
/// How long a step may take to drain before its remaining sessions
/// count as unfinished.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);
/// In-flight cap of the generator: far above any backlog a step can
/// build, so overload shows as latency and backlog, not as sheds.
const MAX_IN_FLIGHT: usize = 1 << 14;
/// Longest wait for a child process to do its part.
const CHILD_DEADLINE: Duration = Duration::from_secs(30);

/// Configuration shared with the MLB and MMP processes (they use only
/// the topology fields).
pub fn config(seed: u64, n_ues: usize) -> WireRunConfig {
    WireRunConfig {
        n_enbs: 1,
        n_mmps: N_MMPS,
        total_vms: 16,
        replication: 2,
        ring_tokens: 64,
        seed,
        n_ues,
        ops_per_ue: 3,
        mode: WireMode::Open {
            rate_hz: ladder::RATES_HZ[0],
            max_in_flight: MAX_IN_FLIGHT,
        },
    }
}

/// Child-process entry: `--role mlb|mmp [--index i --addr a] <cfg>`,
/// the same dispatch `scale_wired` makes.
pub fn role_main(args: &[String]) -> i32 {
    let mut role = None;
    let mut index = None;
    let mut addr = None;
    let mut cfg_tokens = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--role" => role = it.next().cloned(),
            "--index" => index = it.next().and_then(|v| v.parse::<usize>().ok()),
            "--addr" => addr = it.next().cloned(),
            _ => cfg_tokens.push(a.clone()),
        }
    }
    let cfg = WireRunConfig::from_args(&cfg_tokens);
    match (role.as_deref(), index, addr) {
        (Some("mlb"), _, _) => run_mlb(&cfg),
        (Some("mmp"), Some(i), Some(a)) => run_mmp(&cfg, i, &a),
        _ => {
            eprintln!("perfbench: bad child role arguments {args:?}");
            2
        }
    }
}

/// A spawned MLB + MMP deployment. Dropping it kills whatever is still
/// running and reaps it.
pub struct Deployment {
    mlb: Child,
    mlb_out: BufReader<ChildStdout>,
    mmps: Vec<Child>,
    addr: String,
}

impl Drop for Deployment {
    fn drop(&mut self) {
        for c in std::iter::once(&mut self.mlb).chain(self.mmps.iter_mut()) {
            if matches!(c.try_wait(), Ok(None)) {
                let _ = c.kill();
            }
            let _ = c.wait();
        }
    }
}

fn spawn_child(exe: &str, args: &[String]) -> Result<Child, String> {
    Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {exe}: {e}"))
}

fn pid(c: &Child) -> String {
    c.id().to_string()
}

impl Deployment {
    /// Spawn the MLB, learn its port, spawn the workers and wait until
    /// they have connected.
    pub fn spawn(exe: &str, cfg: &WireRunConfig) -> Result<Deployment, String> {
        let mut args = vec!["--role".to_string(), "mlb".to_string()];
        args.extend(cfg.to_args());
        let mut mlb = spawn_child(exe, &args)?;
        let mut mlb_out = BufReader::new(mlb.stdout.take().ok_or("MLB stdout not piped")?);
        let mut line = String::new();
        let port = loop {
            line.clear();
            if mlb_out.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("MLB exited before announcing its port".into());
            }
            if let Some(p) = line.trim().strip_prefix("PORT ") {
                break p.parse::<u16>().map_err(|e| e.to_string())?;
            }
        };
        let addr = format!("127.0.0.1:{port}");
        let mut dep = Deployment {
            mlb,
            mlb_out,
            mmps: Vec::new(),
            addr,
        };
        for i in 0..cfg.n_mmps {
            let mut a = vec![
                "--role".to_string(),
                "mmp".to_string(),
                "--index".to_string(),
                i.to_string(),
                "--addr".to_string(),
                dep.addr.clone(),
            ];
            a.extend(cfg.to_args());
            dep.mmps.push(spawn_child(exe, &a)?);
        }
        // A worker has connected and queued its Hello once its
        // association writer thread exists; the MLB has taken both
        // links once it runs a reader and a writer thread per link
        // beside its router and acceptor.
        let deadline = Instant::now() + CHILD_DEADLINE;
        let want_mlb = 2 + 2 * cfg.n_mmps as u64;
        loop {
            let mlb_ok = host::sample(&pid(&dep.mlb)).threads >= want_mlb;
            let mmps_ok = dep.mmps.iter().all(|m| host::sample(&pid(m)).threads >= 2);
            if mlb_ok && mmps_ok {
                break;
            }
            if Instant::now() > deadline {
                return Err("MMP workers did not connect to the MLB".into());
            }
            thread::sleep(Duration::from_micros(200));
        }
        Ok(dep)
    }

    /// Process counters of the MLB and of each worker.
    pub fn sample(&self) -> (ProcSample, Vec<ProcSample>) {
        (
            host::sample(&pid(&self.mlb)),
            self.mmps.iter().map(|m| host::sample(&pid(m))).collect(),
        )
    }

    /// After the generator closed its association: wait for every
    /// process to exit, and collect the `REPORT` counters and exit
    /// statuses.
    pub fn finish(mut self) -> Result<Reports, String> {
        let deadline = Instant::now() + CHILD_DEADLINE;
        let mut rest = String::new();
        self.mlb_out
            .read_to_string(&mut rest)
            .map_err(|e| e.to_string())?;
        let mut reports = Reports {
            mlb: parse_report(&rest),
            ..Reports::default()
        };
        let mut clean = wait_until(&mut self.mlb, deadline);
        for m in &mut self.mmps {
            let mut out = String::new();
            if let Some(mut so) = m.stdout.take() {
                let _ = so.read_to_string(&mut out);
            }
            reports.mmps.push(parse_report(&out));
            clean &= wait_until(m, deadline);
        }
        reports.clean_exit = clean;
        Ok(reports)
    }
}

fn wait_until(c: &mut Child, deadline: Instant) -> bool {
    loop {
        match c.try_wait() {
            Ok(Some(st)) => return st.success(),
            Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(2)),
            _ => {
                let _ = c.kill();
                let _ = c.wait();
                return false;
            }
        }
    }
}

/// `REPORT k=v ...` counters of the MLB and the workers.
#[derive(Debug, Default)]
pub struct Reports {
    /// MLB counters.
    pub mlb: HashMap<String, u64>,
    /// Per-worker counters.
    pub mmps: Vec<HashMap<String, u64>>,
    /// Whether every process exited with status 0 in time.
    pub clean_exit: bool,
}

impl Reports {
    /// An MLB counter (0 when absent).
    pub fn mlb(&self, k: &str) -> u64 {
        self.mlb.get(k).copied().unwrap_or(0)
    }

    /// A worker counter summed over workers.
    pub fn mmp(&self, k: &str) -> u64 {
        self.mmps
            .iter()
            .map(|m| m.get(k).copied().unwrap_or(0))
            .sum()
    }
}

/// Parse the `REPORT` line of a child's stdout.
pub fn parse_report(out: &str) -> HashMap<String, u64> {
    out.lines()
        .filter_map(|l| l.strip_prefix("REPORT "))
        .flat_map(str::split_whitespace)
        .filter_map(|t| {
            let (k, v) = t.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The generator's association over a plain TCP stream
// ---------------------------------------------------------------------------

enum Inbound {
    Frame(Frame),
    Lost(String),
}

/// One sctplite association over TCP: length-prefixed frames, as the
/// deployment's transport writes them.
pub struct Link {
    assoc: Association,
    tcp: TcpStream,
    rx: Receiver<Inbound>,
    reader: Option<JoinHandle<()>>,
    wbuf: Vec<u8>,
    /// Application messages written.
    pub msgs_sent: u64,
    /// Time spent encoding, framing and writing them.
    pub send_time: Duration,
}

fn read_frames(mut tcp: TcpStream, tx: std::sync::mpsc::Sender<Inbound>) {
    let mut len = [0u8; 4];
    loop {
        let res = tcp.read_exact(&mut len).and_then(|()| {
            let n = u32::from_be_bytes(len) as usize;
            if n > 1 << 20 {
                return Err(std::io::Error::other("implausible frame length"));
            }
            let mut body = vec![0u8; n];
            tcp.read_exact(&mut body)?;
            Ok(body)
        });
        let msg = match res {
            Ok(body) => match Frame::decode(Bytes::from(body)) {
                Ok(f) => Inbound::Frame(f),
                Err(e) => Inbound::Lost(format!("bad frame: {e}")),
            },
            Err(e) => Inbound::Lost(e.to_string()),
        };
        let lost = matches!(msg, Inbound::Lost(_));
        if tx.send(msg).is_err() || lost {
            return;
        }
    }
}

impl Link {
    /// Connect and complete the association handshake.
    pub fn connect(addr: &str, tag: u32) -> Result<Link, String> {
        let tcp = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        tcp.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader_tcp = tcp.try_clone().map_err(|e| e.to_string())?;
        let (tx, rx) = channel();
        let reader = thread::spawn(move || read_frames(reader_tcp, tx));
        let mut link = Link {
            assoc: Association::connect(tag, 8),
            tcp,
            rx,
            reader: Some(reader),
            wbuf: Vec::new(),
            msgs_sent: 0,
            send_time: Duration::ZERO,
        };
        link.flush()?;
        let deadline = Instant::now() + CHILD_DEADLINE;
        while !link.assoc.is_established() {
            link.recv_frame(deadline.saturating_duration_since(Instant::now()))?
                .ok_or("association handshake timed out")?;
        }
        while link.assoc.poll_event().is_some() {}
        Ok(link)
    }

    /// Write every queued frame in one burst.
    pub fn flush(&mut self) -> Result<(), String> {
        let t = Instant::now();
        while let Some(f) = self.assoc.poll_egress() {
            let body = f.encode();
            self.wbuf
                .extend_from_slice(&(body.len() as u32).to_be_bytes());
            self.wbuf.extend_from_slice(&body);
        }
        if !self.wbuf.is_empty() {
            let res = self.tcp.write_all(&self.wbuf);
            self.wbuf.clear();
            res.map_err(|e| format!("link write: {e}"))?;
        }
        self.send_time += t.elapsed();
        Ok(())
    }

    /// Queue one wire message; [`Link::flush`] writes the burst.
    pub fn queue(&mut self, msg: &WireMsg) -> Result<(), String> {
        let t = Instant::now();
        self.assoc
            .send(1, ppid::SCALE_STATE, msg.encode())
            .map_err(|e| format!("assoc send: {e}"))?;
        self.msgs_sent += 1;
        self.send_time += t.elapsed();
        Ok(())
    }

    /// Wait up to `wait` for one frame and feed it to the association.
    /// `Ok(None)` on timeout.
    fn recv_frame(&mut self, wait: Duration) -> Result<Option<()>, String> {
        let inbound = match self.rx.recv_timeout(wait) {
            Ok(i) => i,
            Err(RecvTimeoutError::Timeout) => return Ok(None),
            Err(RecvTimeoutError::Disconnected) => return Err("link reader gone".into()),
        };
        match inbound {
            Inbound::Frame(f) => {
                self.assoc
                    .handle_frame(f)
                    .map_err(|e| format!("assoc: {e}"))?;
                Ok(Some(()))
            }
            Inbound::Lost(e) => Err(format!("link lost: {e}")),
        }
    }

    /// Wait up to `wait` for inbound traffic, then take everything that
    /// has arrived; returns the decoded wire messages.
    pub fn recv(&mut self, wait: Duration, out: &mut Vec<WireMsg>) -> Result<(), String> {
        if self.recv_frame(wait)?.is_some() {
            while self.recv_frame(Duration::ZERO)?.is_some() {}
        }
        while let Some(ev) = self.assoc.poll_event() {
            match ev {
                Event::Data { payload, .. } => {
                    out.push(WireMsg::decode(payload).map_err(|e| format!("wire decode: {e}"))?);
                }
                Event::Closed | Event::Aborted { .. } => return Err("MLB closed the link".into()),
                Event::Established | Event::HeartbeatAck { .. } => {}
            }
        }
        // Heartbeat acks and the like.
        self.flush()
    }

    /// Graceful close: SHUTDOWN, await the ack, join the reader.
    pub fn close(mut self) -> Result<(), String> {
        self.assoc.shutdown();
        self.flush()?;
        let deadline = Instant::now() + CHILD_DEADLINE;
        let res = loop {
            if Instant::now() > deadline {
                break Err("shutdown not acknowledged".to_string());
            }
            let res = self.recv_frame(Duration::from_millis(50));
            let mut closed = false;
            while let Some(e) = self.assoc.poll_event() {
                closed |= matches!(e, Event::Closed);
            }
            match res {
                // The MLB may exit as soon as its last eNodeB link is
                // down, before its SHUTDOWN-ACK leaves: end of stream
                // after our SHUTDOWN is a close too. Its exit status is
                // checked separately.
                _ if closed => break Ok(()),
                Ok(_) => {}
                Err(_) => break Ok(()),
            }
        };
        let _ = self.tcp.shutdown(std::net::Shutdown::Both);
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        res
    }
}

impl Drop for Link {
    fn drop(&mut self) {
        let _ = self.tcp.shutdown(std::net::Shutdown::Both);
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

// ---------------------------------------------------------------------------
// The ladder run
// ---------------------------------------------------------------------------

/// Everything one `wire_ladder` run measured.
pub struct LadderRun {
    /// Wall time of each deployment set-up (s).
    pub setup_s: Vec<f64>,
    /// Share of host CPU time stolen by the hypervisor during set-up.
    pub setup_steal_share: f64,
    /// Per-step results, lowest rate first.
    pub steps: Vec<Step>,
    /// Emulator counters over the ladder.
    pub emu: scale_epc::EmuCounts,
    /// Sessions offered over the ladder.
    pub population: usize,
    /// MLB counters at ladder start and end.
    pub mlb: (ProcSample, ProcSample),
    /// Worker counters at ladder start and end.
    pub mmps: (Vec<ProcSample>, Vec<ProcSample>),
    /// Child reports.
    pub reports: Reports,
    /// Wall time of the ladder (s).
    pub ladder_s: f64,
    /// Generator send cost: messages and time.
    pub gen_msgs: u64,
    /// See `gen_msgs`.
    pub gen_send: Duration,
}

/// Spawn, connect and finish S1 Setup; returns the deployment, the link
/// and the S1 Setup Response.
fn set_up(
    exe: &str,
    cfg: &WireRunConfig,
    emu: &EnbEmulator,
) -> Result<(Deployment, Link, S1apPdu), String> {
    let dep = Deployment::spawn(exe, cfg)?;
    let mut link = Link::connect(&dep.addr, emu.enb_id())?;
    link.queue(&WireMsg::Hello {
        role: WireRole::Enb,
        id: 0,
    })?;
    link.queue(&WireMsg::Uplink {
        enb_id: emu.enb_id(),
        attach_hint: None,
        pdu: emu.s1_setup_request(),
    })?;
    link.flush()?;
    let deadline = Instant::now() + CHILD_DEADLINE;
    let mut inbox = Vec::new();
    loop {
        link.recv(Duration::from_millis(50), &mut inbox)?;
        for m in inbox.drain(..) {
            if let WireMsg::ToEnb {
                pdu: pdu @ S1apPdu::S1SetupResponse { .. },
                ..
            } = m
            {
                return Ok((dep, link, pdu));
            }
        }
        if Instant::now() > deadline {
            return Err("no S1 Setup Response".into());
        }
    }
}

/// Run the ladder for `seconds` with `seed`.
pub fn run(seed: u64, seconds: f64) -> Result<LadderRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let exe = exe.to_str().ok_or("non-UTF-8 executable path")?;
    let counts: Vec<usize> = (0..ladder::RATES_HZ.len())
        .map(|i| ladder::sessions(i, seconds))
        .collect();
    let population: usize = counts.iter().sum();
    let cfg = config(seed, population);
    let emulator = || {
        EnbEmulator::new(&EmulatorConfig {
            cell: 0,
            n_cells: 1,
            n_local_ues: population,
            ops_per_ue: cfg.ops_per_ue,
            seed,
            mode: DriveMode::Open {
                max_in_flight: MAX_IN_FLIGHT,
            },
        })
    };

    // Each set-up builds the device population, as the in-process
    // workload's set-up does, then spawns and connects the processes.
    let mut setup_s = Vec::new();
    let mut live = None;
    let noise = host::NoiseWindow::open();
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let emu = emulator();
        let (dep, link, resp) = set_up(exe, &cfg, &emu)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            link.close()?;
            let r = dep.finish()?;
            if !r.clean_exit {
                return Err("a set-up-only deployment did not exit cleanly".into());
            }
        } else {
            live = Some((emu, dep, link, resp));
        }
    }
    let setup_steal_share = noise.finish().steal_share;
    let (mut emu, dep, mut link, resp) = live.ok_or("no deployment")?;
    emu.handle_downlink(resp);
    let _ = emu.drain();
    emu.start();

    let enb_id = emu.enb_id();
    let (mlb0, mmps0) = dep.sample();
    let ladder_t0 = Instant::now();
    let mut steps = Vec::new();
    let mut due: Vec<Instant> = Vec::with_capacity(population);
    let mut inbox = Vec::new();
    let mut stalled = false;
    for (i, &n) in counts.iter().enumerate() {
        let rate = ladder::RATES_HZ[i];
        let sched = poisson_schedule(seed ^ (0x1ADD_E400 + i as u64), rate, n);
        let mut step = Step {
            rate_hz: rate,
            offered: n,
            ..Step::default()
        };
        let before = emu.counts;
        let t_step = Instant::now();
        let mut next = 0usize;
        let mut grace_at: Option<Instant> = None;
        let mut backlog_taken = false;
        loop {
            let now = Instant::now();
            while next < n && now >= t_step + sched[next] {
                let d = t_step + sched[next];
                step.lag_ms.push(now.duration_since(d).as_secs_f64() * 1e3);
                due.push(d);
                emu.arrival();
                next += 1;
            }
            pump(&mut emu, &mut link, enb_id, None, &due, &mut step)?;
            link.flush()?;
            let c = emu.counts;
            let settled = (c.sessions_done + c.sessions_shed
                - before.sessions_done
                - before.sessions_shed) as usize;
            if next == n {
                let g = *grace_at.get_or_insert(now + GRACE);
                if now >= g && !backlog_taken {
                    step.backlog_left = n - settled;
                    backlog_taken = true;
                }
                if settled == n {
                    break;
                }
                if now > g + DRAIN_DEADLINE {
                    step.unfinished = n - settled;
                    stalled = true;
                    break;
                }
            }
            let wait = if next < n {
                (t_step + sched[next]).saturating_duration_since(Instant::now())
            } else {
                Duration::from_millis(5)
            };
            link.recv(wait.min(Duration::from_millis(5)), &mut inbox)?;
            for m in inbox.drain(..) {
                match m {
                    WireMsg::ToEnb { pdu, .. } => emu.handle_downlink(pdu),
                    WireMsg::Settled { m_tmsi, active } => {
                        emu.settled(m_tmsi, active);
                        pump(&mut emu, &mut link, enb_id, Some(m_tmsi), &due, &mut step)?;
                    }
                    WireMsg::ProcFailed { m_tmsi } => emu.proc_failed(m_tmsi),
                    // Fabric-internal traffic never reaches an eNodeB.
                    WireMsg::Hello { .. }
                    | WireMsg::Uplink { .. }
                    | WireMsg::Deliver { .. }
                    | WireMsg::Replicate { .. }
                    | WireMsg::DropCtx { .. }
                    | WireMsg::VmDown { .. }
                    | WireMsg::VmUp { .. } => {}
                }
            }
            pump(&mut emu, &mut link, enb_id, None, &due, &mut step)?;
            link.flush()?;
        }
        step.wall_s = t_step.elapsed().as_secs_f64();
        let c = emu.counts;
        step.shed = c.sessions_shed - before.sessions_shed;
        step.failures = (c.rejects - before.rejects)
            + (c.errors - before.errors)
            + (c.recoveries - before.recoveries);
        steps.push(step);
        if stalled {
            break;
        }
    }
    let ladder_s = ladder_t0.elapsed().as_secs_f64();
    let (mlb1, mmps1) = dep.sample();
    let gen_msgs = link.msgs_sent;
    let gen_send = link.send_time;
    link.close()?;
    let reports = dep.finish()?;
    Ok(LadderRun {
        setup_s,
        setup_steal_share,
        steps,
        emu: emu.counts,
        population,
        mlb: (mlb0, mlb1),
        mmps: (mmps0, mmps1),
        reports,
        ladder_s,
        gen_msgs,
        gen_send,
    })
}

/// Queue the emulator's pending uplinks and record its completions.
/// `settled` names the device whose edge produced them: attach
/// completions are timed from that session's due time.
fn pump(
    emu: &mut EnbEmulator,
    link: &mut Link,
    enb_id: u32,
    settled: Option<u32>,
    due: &[Instant],
    step: &mut Step,
) -> Result<(), String> {
    for ev in emu.drain() {
        match ev {
            EmuEvent::Uplink { attach_hint, pdu } => {
                link.queue(&WireMsg::Uplink {
                    enb_id,
                    attach_hint,
                    pdu,
                })?;
            }
            EmuEvent::Completed { kind, elapsed } => match kind {
                ProcKind::Attach => {
                    let u = settled.map(|m| m.wrapping_sub(MTMSI_BASE) as usize);
                    match u.and_then(|u| due.get(u)) {
                        Some(d) => step.attach_ms.push(d.elapsed().as_secs_f64() * 1e3),
                        None => step.attach_ms.push(elapsed.as_secs_f64() * 1e3),
                    }
                }
                ProcKind::ServiceRequest => step.sr_ms.push(elapsed.as_secs_f64() * 1e3),
                ProcKind::Tau | ProcKind::S1Release => {}
            },
        }
    }
    Ok(())
}
