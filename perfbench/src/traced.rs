//! The traced run: a single-threaded loop, owned by the benchmark, that
//! drives the public sans-IO types of the wire plane — `EnbEmulator`,
//! `MlbState`, `MmpNode`, the `WireMsg` codec and an sctplite
//! `Association` pair — hop by hop, the way the wire runtime's
//! in-process shuttle does, with a span around each call. Every hop is
//! encoded, framed, unframed and decoded, as it would be between
//! processes, so the codec and framing layers show in the ledger.
//!
//! The same loop run without spans gives the tracing overhead. It also
//! counts the per-procedure operations (protected NAS messages, S1AP
//! PDUs, routing calls, replica exports and imports) that scale the
//! replayed rows, and keeps sample messages to replay.

use crate::ledger::{LayerTotals, Tracer};
use bytes::Bytes;
use scale_core::wire::{MlbOut, MlbState, MmpNode, WireMsg, WireTopo};
use scale_epc::{DriveMode, EmuEvent, EmulatorConfig, EnbEmulator, ENB_BASE};
use scale_s1ap::S1apPdu;
use scale_sctplite::{ppid, Association, Event, Frame};
use std::collections::VecDeque;
use std::time::Instant;

/// Span layers of the traced loop.
pub mod layer {
    /// The whole loop; its self time is the loop's own glue.
    pub const LOOP: usize = 0;
    /// `EnbEmulator` calls (UE + eNodeB side).
    pub const EMULATOR: usize = 1;
    /// `MlbState::on_enb` / `on_mmp`.
    pub const MLB_STATE: usize = 2;
    /// `MmpNode::handle` of a `Deliver` (the MME engine).
    pub const MMP_DELIVER: usize = 3;
    /// `MmpNode::handle` of replication traffic.
    pub const MMP_REPLICATE: usize = 4;
    /// `WireMsg` encode/decode done by an MLB or MMP process.
    pub const CODEC_SUT: usize = 5;
    /// `WireMsg` encode/decode done by the eNodeB side.
    pub const CODEC_GEN: usize = 6;
    /// Association send/receive and frame codec on the MLB/MMP side.
    pub const SCTP_SUT: usize = 7;
    /// The same on the eNodeB side.
    pub const SCTP_GEN: usize = 8;
    /// Layer count.
    pub const N: usize = 9;
}

/// Operation counts observed in the loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    /// Completed procedures (attach + SR + TAU + S1 release).
    pub procs: u64,
    /// Attaches completed.
    pub attaches: u64,
    /// Wire messages (hops).
    pub msgs: u64,
    /// Encoded wire bytes.
    pub bytes: u64,
    /// Wire messages carrying an S1AP PDU.
    pub s1ap_msgs: u64,
    /// Integrity-protected NAS PDUs sent uplink (UE protects, MME
    /// unprotects).
    pub nas_prot_ul: u64,
    /// Integrity-protected NAS PDUs sent downlink (MME protects, UE
    /// unprotects).
    pub nas_prot_dl: u64,
    /// Plain NAS PDUs uplink (MME decodes).
    pub nas_plain_ul: u64,
    /// Plain NAS PDUs downlink (UE decodes).
    pub nas_plain_dl: u64,
    /// Replica exports (one per Idle edge).
    pub exports: u64,
    /// Replica imports.
    pub imports: u64,
    /// `route_new_attach` calls.
    pub route_new_attach: u64,
    /// `route_idle` calls.
    pub route_idle: u64,
    /// Rejects and errors anywhere in the loop (expected 0).
    pub errors: u64,
}

/// Messages kept from the loop for the replayed rows.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// A replica blob (serialized UE context).
    pub replica: Option<Bytes>,
    /// S1AP PDUs in the order seen (bounded).
    pub s1ap: Vec<S1apPdu>,
    /// Plain uplink NAS PDUs (bounded).
    pub nas_plain: Vec<Bytes>,
}

/// What one pass of the loop measured.
pub struct Pass {
    /// Wall time of the pass (s).
    pub wall_s: f64,
    /// Per-layer totals (all zero for an untraced pass).
    pub layers: Vec<LayerTotals>,
    /// Operation counts.
    pub ops: Ops,
    /// Sample messages.
    pub samples: Samples,
}

/// Shape of the loop: one cell, `n_mmps` workers, `n_ues` devices with
/// `ops_per_ue` idle-mode ops each, closed loop.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Workers.
    pub n_mmps: usize,
    /// Devices.
    pub n_ues: usize,
    /// Idle-mode ops per device.
    pub ops_per_ue: usize,
    /// Op-mix and HSS seed.
    pub seed: u64,
}

const KEEP: usize = 256;

fn span<T>(tr: &mut Option<Tracer>, layer: usize, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => {
            let s = t.now_ns();
            t.enter_at(layer, s);
            let out = f();
            let e = t.now_ns();
            t.exit_at(e);
            out
        }
        None => f(),
    }
}

/// An established in-memory association pair carrying every hop.
struct Pipe {
    tx: Association,
    rx: Association,
}

impl Pipe {
    fn new() -> Result<Pipe, String> {
        let mut tx = Association::connect(1, 8);
        let mut rx = Association::listen(2, 8);
        for _ in 0..8 {
            while let Some(f) = tx.poll_egress() {
                let _ = rx.handle_frame(f);
            }
            while let Some(f) = rx.poll_egress() {
                let _ = tx.handle_frame(f);
            }
        }
        while tx.poll_event().is_some() {}
        while rx.poll_event().is_some() {}
        if !(tx.is_established() && rx.is_established()) {
            return Err("in-memory association handshake failed".into());
        }
        Ok(Pipe { tx, rx })
    }

    fn send(&mut self, payload: Bytes) -> Vec<Bytes> {
        let _ = self.tx.send(1, ppid::SCALE_STATE, payload);
        let mut out = Vec::with_capacity(1);
        while let Some(f) = self.tx.poll_egress() {
            out.push(f.encode());
        }
        out
    }

    fn recv(&mut self, frames: Vec<Bytes>) -> Option<Bytes> {
        for b in frames {
            if let Ok(f) = Frame::decode(b) {
                let _ = self.rx.handle_frame(f);
            }
        }
        while self.rx.poll_egress().is_some() {}
        let mut payload = None;
        while let Some(ev) = self.rx.poll_event() {
            if let Event::Data { payload: p, .. } = ev {
                payload = Some(p);
            }
        }
        payload
    }
}

/// Carry `msg` across one link: encode, frame, unframe, decode. The
/// sender's and receiver's work land in their own layers.
fn hop(
    tr: &mut Option<Tracer>,
    pipe: &mut Pipe,
    ops: &mut Ops,
    msg: &WireMsg,
    from_gen: bool,
    to_gen: bool,
) -> Result<WireMsg, String> {
    let (codec_tx, sctp_tx) = if from_gen {
        (layer::CODEC_GEN, layer::SCTP_GEN)
    } else {
        (layer::CODEC_SUT, layer::SCTP_SUT)
    };
    let (codec_rx, sctp_rx) = if to_gen {
        (layer::CODEC_GEN, layer::SCTP_GEN)
    } else {
        (layer::CODEC_SUT, layer::SCTP_SUT)
    };
    let bytes = span(tr, codec_tx, || msg.encode());
    ops.msgs += 1;
    ops.bytes += bytes.len() as u64;
    let frames = span(tr, sctp_tx, || pipe.send(bytes));
    let payload = span(tr, sctp_rx, || pipe.recv(frames)).ok_or("a hop lost its payload")?;
    span(tr, codec_rx, || WireMsg::decode(payload)).map_err(|e| format!("hop decode: {e}"))
}

fn count_s1ap(ops: &mut Ops, samples: &mut Samples, pdu: &S1apPdu, uplink_edge: Option<bool>) {
    ops.s1ap_msgs += 1;
    if samples.s1ap.len() < KEEP {
        samples.s1ap.push(pdu.clone());
    }
    let Some(uplink) = uplink_edge else {
        return;
    };
    let nas = match pdu {
        S1apPdu::InitialUeMessage { nas_pdu, .. }
        | S1apPdu::UplinkNasTransport { nas_pdu, .. }
        | S1apPdu::DownlinkNasTransport { nas_pdu, .. } => nas_pdu,
        _ => return,
    };
    let protected = scale_nas::is_protected(nas);
    match (uplink, protected) {
        (true, true) => ops.nas_prot_ul += 1,
        (true, false) => {
            ops.nas_plain_ul += 1;
            if samples.nas_plain.len() < KEEP {
                samples.nas_plain.push(nas.clone());
            }
        }
        (false, true) => ops.nas_prot_dl += 1,
        (false, false) => ops.nas_plain_dl += 1,
    }
}

enum Hop {
    FromEnb(WireMsg),
    FromMmp(WireMsg),
    ToEnb(WireMsg),
    ToMmp(usize, WireMsg),
}

/// Run the loop once, traced or not.
pub fn pass(shape: &Shape, traced: bool) -> Result<Pass, String> {
    let topo = WireTopo {
        n_enbs: 1,
        n_mmps: shape.n_mmps,
        total_vms: 16,
        replication: 2,
        ring_tokens: 64,
        seed: shape.seed,
    };
    let mut mlb = MlbState::new(&topo);
    let mut mmps: Vec<MmpNode> = (0..shape.n_mmps).map(|i| MmpNode::new(&topo, i)).collect();
    let mut emu = EnbEmulator::new(&EmulatorConfig {
        cell: 0,
        n_cells: 1,
        n_local_ues: shape.n_ues,
        ops_per_ue: shape.ops_per_ue,
        seed: shape.seed,
        mode: DriveMode::Closed { window: 64 },
    });
    let mut pipe = Pipe::new()?;
    let mut ops = Ops::default();
    let mut samples = Samples::default();
    let mut tr = traced.then(|| Tracer::new(layer::N));
    let mut queue: VecDeque<Hop> = VecDeque::new();
    let mut out = Vec::new();
    let mut wout = Vec::new();

    let t0 = Instant::now();
    if let Some(t) = tr.as_mut() {
        let s = t.now_ns();
        t.enter_at(layer::LOOP, s);
    }
    queue.push_back(Hop::FromEnb(WireMsg::Uplink {
        enb_id: ENB_BASE,
        attach_hint: None,
        pdu: emu.s1_setup_request(),
    }));
    span(&mut tr, layer::EMULATOR, || emu.start());
    let drain = |emu: &mut EnbEmulator, tr: &mut Option<Tracer>, queue: &mut VecDeque<Hop>| {
        for ev in span(tr, layer::EMULATOR, || emu.drain()) {
            if let EmuEvent::Uplink { attach_hint, pdu } = ev {
                queue.push_back(Hop::FromEnb(WireMsg::Uplink {
                    enb_id: ENB_BASE,
                    attach_hint,
                    pdu,
                }));
            }
        }
    };
    drain(&mut emu, &mut tr, &mut queue);

    while let Some(h) = queue.pop_front() {
        match h {
            Hop::FromEnb(msg) => {
                if let WireMsg::Uplink { pdu, .. } = &msg {
                    count_s1ap(&mut ops, &mut samples, pdu, Some(true));
                }
                if let WireMsg::Uplink {
                    enb_id,
                    attach_hint,
                    pdu,
                } = hop(&mut tr, &mut pipe, &mut ops, &msg, true, false)?
                {
                    span(&mut tr, layer::MLB_STATE, || {
                        mlb.on_enb(enb_id, attach_hint, pdu, &mut out)
                    });
                }
            }
            Hop::FromMmp(msg) => {
                if let WireMsg::ToEnb { pdu, .. } = &msg {
                    count_s1ap(&mut ops, &mut samples, pdu, None);
                }
                let msg = hop(&mut tr, &mut pipe, &mut ops, &msg, false, false)?;
                span(&mut tr, layer::MLB_STATE, || mlb.on_mmp(msg, &mut out));
            }
            Hop::ToMmp(i, msg) => {
                let l = match &msg {
                    WireMsg::Deliver { pdu, .. } => {
                        count_s1ap(&mut ops, &mut samples, pdu, None);
                        layer::MMP_DELIVER
                    }
                    WireMsg::Replicate { blob, .. } => {
                        if samples.replica.is_none() {
                            samples.replica = Some(blob.clone());
                        }
                        layer::MMP_REPLICATE
                    }
                    WireMsg::DropCtx { .. }
                    | WireMsg::VmDown { .. }
                    | WireMsg::VmUp { .. }
                    | WireMsg::Hello { .. }
                    | WireMsg::Uplink { .. }
                    | WireMsg::ToEnb { .. }
                    | WireMsg::Settled { .. }
                    | WireMsg::ProcFailed { .. } => layer::MMP_REPLICATE,
                };
                let msg = hop(&mut tr, &mut pipe, &mut ops, &msg, false, false)?;
                let node = &mut mmps[i];
                span(&mut tr, l, || node.handle(msg, &mut wout));
                for m in wout.drain(..) {
                    queue.push_back(Hop::FromMmp(m));
                }
            }
            Hop::ToEnb(msg) => {
                if let WireMsg::ToEnb { pdu, .. } = &msg {
                    count_s1ap(&mut ops, &mut samples, pdu, Some(false));
                }
                let msg = hop(&mut tr, &mut pipe, &mut ops, &msg, false, true)?;
                span(&mut tr, layer::EMULATOR, || match msg {
                    WireMsg::ToEnb { pdu, .. } => emu.handle_downlink(pdu),
                    WireMsg::Settled { m_tmsi, active } => emu.settled(m_tmsi, active),
                    WireMsg::ProcFailed { m_tmsi } => emu.proc_failed(m_tmsi),
                    // Fabric-internal traffic never reaches an eNodeB.
                    WireMsg::Hello { .. }
                    | WireMsg::Uplink { .. }
                    | WireMsg::Deliver { .. }
                    | WireMsg::Replicate { .. }
                    | WireMsg::DropCtx { .. }
                    | WireMsg::VmDown { .. }
                    | WireMsg::VmUp { .. } => {}
                });
                drain(&mut emu, &mut tr, &mut queue);
            }
        }
        for o in out.drain(..) {
            match o {
                MlbOut::Enb { msg, .. } => queue.push_back(Hop::ToEnb(msg)),
                MlbOut::Mmp { mmp, msg } => queue.push_back(Hop::ToMmp(mmp, msg)),
            }
        }
    }
    if let Some(t) = tr.as_mut() {
        let e = t.now_ns();
        t.exit_at(e);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(t) = tr.as_mut() {
        t.correct(layer::LOOP + 1..layer::N, Tracer::empty_span_ns());
    }

    if !emu.done() {
        return Err("traced loop quiesced with sessions outstanding".into());
    }
    let c = emu.counts;
    ops.procs = c.attaches + c.service_requests + c.taus + c.s1_releases;
    ops.attaches = c.attaches;
    ops.route_new_attach = mlb.stats.routed_attaches;
    ops.route_idle = mlb.stats.routed_idle;
    ops.errors = c.rejects + c.errors + mlb.stats.errors + mlb.stats.dropped;
    for m in &mmps {
        let s = m.stats();
        ops.errors += s.errors + s.rejects + m.errors;
        ops.exports += s.idles;
        ops.imports += s.replicas_imported;
    }
    Ok(Pass {
        wall_s,
        layers: tr
            .map(|t| t.layers)
            .unwrap_or_else(|| vec![LayerTotals::default(); layer::N]),
        ops,
        samples,
    })
}

/// The gate of a pass: no error or reject, every device attached.
pub fn check(p: &Pass, shape: &Shape) -> Result<(), String> {
    if p.ops.errors != 0 {
        return Err(format!("traced loop: {} errors or rejects", p.ops.errors));
    }
    if p.ops.attaches != shape.n_ues as u64 {
        return Err(format!(
            "traced loop: attaches = {} (want {})",
            p.ops.attaches, shape.n_ues
        ));
    }
    Ok(())
}
