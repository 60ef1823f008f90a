//! The wire-level process roles (DESIGN.md §14): the message protocol,
//! MLB routing state and MMP node logic shared by the multi-process
//! deployment's three process kinds —
//!
//! ```text
//!   eNB process ──sctplite──▶ MLB front process ──sctplite──▶ MMP worker
//!   (EnbEmulator)             (MlbState, this module)         (MmpNode → Shard)
//! ```
//!
//! Everything here is sans-IO: [`MlbState`] and [`MmpNode`] consume
//! decoded [`WireMsg`] values and emit outputs into caller-provided
//! vectors, so the same logic is driven by real sockets in the
//! deployment binaries and by an in-process shuttle in tests. The
//! transport carries each encoded message as one `sctplite` DATA chunk
//! (ppid [`scale_sctplite::ppid::SCALE_STATE`] for control,
//! `S1AP` for PDU-bearing messages); ordering guarantees are exactly
//! the per-association FIFO the in-process mailboxes provide, which is
//! why the happens-before argument of `scale-sim`'s shard driver
//! (Replicate-before-next-procedure) carries over unchanged.
//!
//! ## Codec
//!
//! [`WireMsg`] uses a hand-rolled tag+fields codec over the `scale-nas`
//! `Reader`/`Writer` (the vendored serde has no `Deserialize`).
//! Decoding is strict: unknown tags and trailing bytes are errors, and
//! every successful decode re-encodes to the identical bytes.

use crate::routeplane::VmId;
use crate::routeplane::{RoutePlane, RouteReader, RouteSnapshot};
use crate::shard::{shard_of, Shard, ShardConfig, ShardEvent, ShardMsg, ShardStatsSnapshot};
use bytes::Bytes;
use scale_epc::{home_cell, ENB_BASE};
use scale_mme::Incoming;
use scale_nas::{NasError, Plmn, Reader, Writer};
use scale_s1ap::{Gummei, S1apPdu};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Which process kind a link's `Hello` announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireRole {
    /// An eNodeB-emulator process (id = cell index).
    Enb,
    /// An MMP worker process (id = MMP index).
    Mmp,
}

/// One message on a wire link. The direction column says who sends it
/// in the star topology (everything passes through the MLB).
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// First message on any link: announce role and index.
    Hello {
        /// Process kind.
        role: WireRole,
        /// Cell index (eNB) or MMP index.
        id: u32,
    },
    /// eNB → MLB: an S1AP PDU from the access side. `attach_hint`
    /// carries the MLB-assigned M-TMSI on fresh attaches (the wire
    /// twin of `ShardMsg::ToVm { guti_hint }`).
    Uplink {
        /// Originating eNodeB.
        enb_id: u32,
        /// M-TMSI to mint, on the Initial UE Message of an attach.
        attach_hint: Option<u32>,
        /// The PDU.
        pdu: S1apPdu,
    },
    /// MLB → MMP: deliver a PDU to engine `vm`.
    Deliver {
        /// Target MMP engine.
        vm: VmId,
        /// M-TMSI to mint for a fresh attach.
        guti_hint: Option<u32>,
        /// eNodeB the PDU came from (responses return there).
        enb_id: u32,
        /// The PDU.
        pdu: S1apPdu,
    },
    /// MMP → MLB → eNB: an S1AP PDU toward an eNodeB.
    ToEnb {
        /// Destination eNodeB.
        enb_id: u32,
        /// The PDU.
        pdu: S1apPdu,
    },
    /// MMP → MLB → eNB: a device reached a lifecycle edge (`active` =
    /// Attach/SR terminal edge; `!active` = S1 release/TAU edge).
    Settled {
        /// Device identity.
        m_tmsi: u32,
        /// Whether the edge entered Active (else Idle).
        active: bool,
    },
    /// MMP → MLB → MMP: Idle-edge replica blob for engine `vm`.
    Replicate {
        /// Holder VM receiving the copy.
        vm: VmId,
        /// Serialized `UeContext`.
        blob: Bytes,
    },
    /// MMP → MLB → MMP: drop the stray copy of `m_tmsi` held by `vm`.
    DropCtx {
        /// VM holding the stray copy.
        vm: VmId,
        /// Identity to remove.
        m_tmsi: u32,
    },
    /// MLB → eNB: the MMP serving this device's in-flight procedure
    /// died; the access side must re-drive it.
    ProcFailed {
        /// Device identity.
        m_tmsi: u32,
    },
    /// MLB → MMP broadcast: `vm` is down; exclude it from replica
    /// placement until further notice.
    VmDown {
        /// The dead VM.
        vm: VmId,
    },
    /// MLB → MMP broadcast: `vm` rejoined (a restarted process
    /// reconnected); replica placement may use it again.
    VmUp {
        /// The revived VM.
        vm: VmId,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_UPLINK: u8 = 2;
const TAG_DELIVER: u8 = 3;
const TAG_TO_ENB: u8 = 4;
const TAG_SETTLED: u8 = 5;
const TAG_REPLICATE: u8 = 6;
const TAG_DROP_CTX: u8 = 7;
const TAG_PROC_FAILED: u8 = 8;
const TAG_VM_DOWN: u8 = 9;
const TAG_VM_UP: u8 = 10;

fn put_opt_u32(w: &mut Writer, v: Option<u32>) {
    match v {
        Some(x) => {
            w.u8(1);
            w.u32(x);
        }
        None => w.u8(0),
    }
}

fn get_opt_u32(r: &mut Reader) -> Result<Option<u32>, NasError> {
    match r.u8("option tag")? {
        0 => Ok(None),
        _ => Ok(Some(r.u32("option value")?)),
    }
}

fn put_blob(w: &mut Writer, b: &[u8]) {
    w.u32(b.len() as u32);
    w.slice(b);
}

fn get_blob(r: &mut Reader) -> Result<Bytes, NasError> {
    let n = r.u32("blob length")? as usize;
    r.bytes("blob body", n)
}

impl WireMsg {
    /// Encode to the canonical byte form.
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        match self {
            WireMsg::Hello { role, id } => {
                w.u8(TAG_HELLO);
                w.u8(match role {
                    WireRole::Enb => 0,
                    WireRole::Mmp => 1,
                });
                w.u32(*id);
            }
            WireMsg::Uplink {
                enb_id,
                attach_hint,
                pdu,
            } => {
                w.u8(TAG_UPLINK);
                w.u32(*enb_id);
                put_opt_u32(&mut w, *attach_hint);
                put_blob(&mut w, &pdu.encode());
            }
            WireMsg::Deliver {
                vm,
                guti_hint,
                enb_id,
                pdu,
            } => {
                w.u8(TAG_DELIVER);
                w.u32(*vm);
                put_opt_u32(&mut w, *guti_hint);
                w.u32(*enb_id);
                put_blob(&mut w, &pdu.encode());
            }
            WireMsg::ToEnb { enb_id, pdu } => {
                w.u8(TAG_TO_ENB);
                w.u32(*enb_id);
                put_blob(&mut w, &pdu.encode());
            }
            WireMsg::Settled { m_tmsi, active } => {
                w.u8(TAG_SETTLED);
                w.u32(*m_tmsi);
                w.u8(u8::from(*active));
            }
            WireMsg::Replicate { vm, blob } => {
                w.u8(TAG_REPLICATE);
                w.u32(*vm);
                put_blob(&mut w, blob);
            }
            WireMsg::DropCtx { vm, m_tmsi } => {
                w.u8(TAG_DROP_CTX);
                w.u32(*vm);
                w.u32(*m_tmsi);
            }
            WireMsg::ProcFailed { m_tmsi } => {
                w.u8(TAG_PROC_FAILED);
                w.u32(*m_tmsi);
            }
            WireMsg::VmDown { vm } => {
                w.u8(TAG_VM_DOWN);
                w.u32(*vm);
            }
            WireMsg::VmUp { vm } => {
                w.u8(TAG_VM_UP);
                w.u32(*vm);
            }
        }
        w.finish()
    }

    /// Strict decode: unknown tags, short buffers and trailing bytes
    /// are all errors.
    pub fn decode(buf: Bytes) -> Result<WireMsg, NasError> {
        let mut r = Reader::new(buf);
        let msg = match r.u8("wire tag")? {
            TAG_HELLO => WireMsg::Hello {
                role: match r.u8("role")? {
                    0 => WireRole::Enb,
                    1 => WireRole::Mmp,
                    other => {
                        return Err(NasError::Invalid {
                            what: "wire role",
                            value: u64::from(other),
                        })
                    }
                },
                id: r.u32("hello id")?,
            },
            TAG_UPLINK => WireMsg::Uplink {
                enb_id: r.u32("enb id")?,
                attach_hint: get_opt_u32(&mut r)?,
                pdu: S1apPdu::decode(get_blob(&mut r)?)?,
            },
            TAG_DELIVER => WireMsg::Deliver {
                vm: r.u32("vm")?,
                guti_hint: get_opt_u32(&mut r)?,
                enb_id: r.u32("enb id")?,
                pdu: S1apPdu::decode(get_blob(&mut r)?)?,
            },
            TAG_TO_ENB => WireMsg::ToEnb {
                enb_id: r.u32("enb id")?,
                pdu: S1apPdu::decode(get_blob(&mut r)?)?,
            },
            TAG_SETTLED => WireMsg::Settled {
                m_tmsi: r.u32("m_tmsi")?,
                active: r.u8("active flag")? != 0,
            },
            TAG_REPLICATE => WireMsg::Replicate {
                vm: r.u32("vm")?,
                blob: get_blob(&mut r)?,
            },
            TAG_DROP_CTX => WireMsg::DropCtx {
                vm: r.u32("vm")?,
                m_tmsi: r.u32("m_tmsi")?,
            },
            TAG_PROC_FAILED => WireMsg::ProcFailed {
                m_tmsi: r.u32("m_tmsi")?,
            },
            TAG_VM_DOWN => WireMsg::VmDown { vm: r.u32("vm")? },
            TAG_VM_UP => WireMsg::VmUp { vm: r.u32("vm")? },
            other => {
                return Err(NasError::Invalid {
                    what: "wire tag",
                    value: u64::from(other),
                })
            }
        };
        if r.remaining() != 0 {
            return Err(NasError::Invalid {
                what: "trailing bytes after wire message",
                value: r.remaining() as u64,
            });
        }
        Ok(msg)
    }
}

/// Static shape of the wire deployment, known identically to every
/// process (ring construction is deterministic, so each process builds
/// the same [`RouteSnapshot`] locally instead of receiving it).
#[derive(Debug, Clone)]
pub struct WireTopo {
    /// eNodeB-emulator processes (= cells).
    pub n_enbs: usize,
    /// MMP worker processes; VM `v` lives on process
    /// [`shard_of`]`(v, n_mmps)`.
    pub n_mmps: usize,
    /// Total MMP VM fleet striped over the workers.
    pub total_vms: usize,
    /// Replication degree R.
    pub replication: usize,
    /// Virtual tokens per ring node.
    pub ring_tokens: u32,
    /// HSS seed (shared by every MMP's shard).
    pub seed: u64,
}

impl WireTopo {
    /// Build the deployment-wide routing plane: every process derives
    /// the identical ring from the topology parameters.
    #[must_use]
    pub fn route_plane(&self) -> Arc<RoutePlane> {
        let mut snap = RouteSnapshot::new(self.ring_tokens, self.replication, Plmn::test(), 0x8001, 1);
        for vm in 1..=self.total_vms as VmId {
            snap.ring.add_node(vm);
        }
        Arc::new(RoutePlane::new(snap))
    }

    /// VMs homed on MMP process `mmp`.
    #[must_use]
    pub fn vms_of(&self, mmp: usize) -> Vec<VmId> {
        (1..=self.total_vms as VmId)
            .filter(|&vm| shard_of(vm, self.n_mmps) == mmp)
            .collect()
    }
}

/// Counters the MLB router reports at end-of-run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MlbWireStats {
    /// Fresh attaches routed by hint.
    pub routed_attaches: u64,
    /// Idle-mode procedures routed by S-TMSI.
    pub routed_idle: u64,
    /// Uplinks forwarded along a pinned connection.
    pub forwarded_uplinks: u64,
    /// Lifecycle edges relayed to home cells.
    pub settled_relayed: u64,
    /// In-flight procedures failed over after an MMP death.
    pub proc_failures: u64,
    /// Messages dropped because their target link was dead or their
    /// connection pin was gone (stale post-crash traffic).
    pub dropped: u64,
    /// Routing errors (no live holder, unroutable PDU).
    pub errors: u64,
}

/// Where an [`MlbState`] output is headed.
#[derive(Debug, Clone, PartialEq)]
pub enum MlbOut {
    /// Send to MMP process `mmp`.
    Mmp {
        /// Worker index.
        mmp: usize,
        /// The message.
        msg: WireMsg,
    },
    /// Send to eNB process `enb`.
    Enb {
        /// Cell index.
        enb: usize,
        /// The message.
        msg: WireMsg,
    },
}

/// The MLB front process's routing brain: consistent-hash routing over
/// the shared plane, per-connection serving-VM pins (real S1AP returns
/// responses on the association that carried the request), and the
/// in-flight table that turns an MMP death into targeted `ProcFailed`
/// notifications instead of lost devices.
pub struct MlbState {
    topo: WireTopo,
    plane: Arc<RoutePlane>,
    reader: RouteReader,
    /// (enb_id, enb_ue_id) → serving VM: every uplink of a signalling
    /// connection goes where its Initial UE Message was routed.
    conns: HashMap<(u32, u32), VmId>,
    /// m_tmsi → serving VM for the device's current signalling
    /// connection; entries live from Initial UE Message to the Idle
    /// edge, so they cover the release window `conns` cannot (the
    /// connection pin is already gone when Release Complete has been
    /// forwarded but the Idle edge is still in flight).
    inflight: HashMap<u32, VmId>,
    /// Deterministic counters.
    pub stats: MlbWireStats,
}

impl MlbState {
    /// Build the router over a freshly derived plane.
    #[must_use]
    pub fn new(topo: &WireTopo) -> Self {
        let plane = topo.route_plane();
        let reader = plane.reader();
        MlbState {
            topo: topo.clone(),
            plane,
            reader,
            conns: HashMap::new(),
            inflight: HashMap::new(),
            stats: MlbWireStats::default(),
        }
    }

    /// The MMP process hosting engine `vm`.
    #[must_use]
    pub fn mmp_of(&self, vm: VmId) -> usize {
        shard_of(vm, self.topo.n_mmps)
    }

    /// In-flight procedures currently pinned (diagnostics).
    #[must_use]
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// An eNB link delivered `Uplink { enb_id, attach_hint, pdu }`.
    pub fn on_enb(
        &mut self,
        enb_id: u32,
        attach_hint: Option<u32>,
        pdu: S1apPdu,
        out: &mut Vec<MlbOut>,
    ) {
        let enb = (enb_id.wrapping_sub(ENB_BASE)) as usize;
        match &pdu {
            S1apPdu::S1SetupRequest { .. } => {
                // The MLB terminates S1 setup itself (§4.2): eNodeBs
                // see one MME whose GUMMEI covers the whole DC.
                let snap = self.reader.snapshot();
                let g = snap.guti(0);
                out.push(MlbOut::Enb {
                    enb,
                    msg: WireMsg::ToEnb {
                        enb_id,
                        pdu: S1apPdu::S1SetupResponse {
                            mme_name: "scale-mlb".to_string(),
                            served_gummeis: vec![Gummei {
                                plmn: g.plmn,
                                mme_group_id: g.mme_group_id,
                                mme_code: g.mme_code,
                            }],
                            relative_mme_capacity: 255,
                        },
                    },
                });
            }
            S1apPdu::InitialUeMessage {
                enb_ue_id, s_tmsi, ..
            } => {
                let (m_tmsi, vm, hint) = if let Some(h) = attach_hint {
                    self.stats.routed_attaches += 1;
                    (h, self.reader.route_new_attach(h), Some(h))
                } else if let Some((_, m)) = s_tmsi {
                    self.stats.routed_idle += 1;
                    (*m, self.reader.route_idle(*m), None)
                } else {
                    self.stats.errors += 1;
                    return;
                };
                let Some(vm) = vm else {
                    // No live holder: hand the device back to its cell
                    // rather than silently losing it.
                    self.stats.errors += 1;
                    out.push(MlbOut::Enb {
                        enb,
                        msg: WireMsg::ProcFailed { m_tmsi },
                    });
                    return;
                };
                self.reader.charge(vm);
                self.conns.insert((enb_id, *enb_ue_id), vm);
                self.inflight.insert(m_tmsi, vm);
                out.push(MlbOut::Mmp {
                    mmp: self.mmp_of(vm),
                    msg: WireMsg::Deliver {
                        vm,
                        guti_hint: hint,
                        enb_id,
                        pdu,
                    },
                });
            }
            _ => {
                let enb_ue_id = match &pdu {
                    S1apPdu::InitialContextSetupResponse { enb_ue_id, .. }
                    | S1apPdu::InitialContextSetupFailure { enb_ue_id, .. }
                    | S1apPdu::UeContextReleaseComplete { enb_ue_id, .. }
                    | S1apPdu::UplinkNasTransport { enb_ue_id, .. }
                    | S1apPdu::UeContextReleaseRequest { enb_ue_id, .. } => Some(*enb_ue_id),
                    S1apPdu::ErrorIndication { enb_ue_id, .. } => *enb_ue_id,
                    _ => None,
                };
                let Some(vm) = enb_ue_id.and_then(|id| self.conns.get(&(enb_id, id)).copied())
                else {
                    // Stale uplink on a connection retired by a crash
                    // (or an unroutable PDU kind): drop, count.
                    self.stats.dropped += 1;
                    return;
                };
                self.stats.forwarded_uplinks += 1;
                if let S1apPdu::UeContextReleaseComplete { enb_ue_id, .. } = &pdu {
                    self.conns.remove(&(enb_id, *enb_ue_id));
                }
                out.push(MlbOut::Mmp {
                    mmp: self.mmp_of(vm),
                    msg: WireMsg::Deliver {
                        vm,
                        guti_hint: None,
                        enb_id,
                        pdu,
                    },
                });
            }
        }
    }

    /// An MMP link delivered `msg`.
    pub fn on_mmp(&mut self, msg: WireMsg, out: &mut Vec<MlbOut>) {
        match msg {
            WireMsg::ToEnb { enb_id, pdu } => {
                let enb = (enb_id.wrapping_sub(ENB_BASE)) as usize;
                if enb >= self.topo.n_enbs {
                    self.stats.errors += 1;
                    return;
                }
                out.push(MlbOut::Enb {
                    enb,
                    msg: WireMsg::ToEnb { enb_id, pdu },
                });
            }
            WireMsg::Settled { m_tmsi, active } => {
                if !active {
                    if let Some(vm) = self.inflight.remove(&m_tmsi) {
                        self.reader.discharge(vm);
                    }
                }
                let Some(enb) = home_cell(m_tmsi, self.topo.n_enbs) else {
                    self.stats.errors += 1;
                    return;
                };
                self.stats.settled_relayed += 1;
                out.push(MlbOut::Enb {
                    enb,
                    msg: WireMsg::Settled { m_tmsi, active },
                });
            }
            WireMsg::Replicate { vm, .. } | WireMsg::DropCtx { vm, .. } => {
                out.push(MlbOut::Mmp {
                    mmp: self.mmp_of(vm),
                    msg,
                });
            }
            // Not things an MMP link ever carries toward the MLB; each
            // is named so a new `WireMsg` variant fails to compile here
            // instead of being silently counted away.
            WireMsg::Hello { .. }
            | WireMsg::Uplink { .. }
            | WireMsg::Deliver { .. }
            | WireMsg::ProcFailed { .. }
            | WireMsg::VmDown { .. }
            | WireMsg::VmUp { .. } => {
                self.stats.errors += 1;
            }
        }
    }

    /// MMP process `mmp` died (link error or heartbeat loss): mark its
    /// VMs down for routing, fail over every pinned in-flight
    /// procedure to its home cell (returning its load charge), and
    /// tell the surviving MMPs to exclude the dead VMs from replica
    /// placement.
    pub fn on_mmp_down(&mut self, mmp: usize, out: &mut Vec<MlbOut>) {
        let dead: Vec<VmId> = self.topo.vms_of(mmp);
        for &vm in &dead {
            self.plane.mark_down(vm);
        }
        self.conns
            .retain(|_, vm| shard_of(*vm, self.topo.n_mmps) != mmp);
        let mut failed: Vec<u32> = self
            .inflight
            .iter()
            .filter(|(_, vm)| shard_of(**vm, self.topo.n_mmps) == mmp)
            .map(|(m, _)| *m)
            .collect();
        // Sorted so the fail-over notification order is a function of
        // the state, not of HashMap iteration order — run-to-run
        // determinism is what lets the model checker assert identical
        // state counts across runs.
        failed.sort_unstable();
        for m_tmsi in failed {
            // The procedure will never reach its Idle edge, so its load
            // charge is returned here; a stale charge would steer
            // least-loaded routing away from the VM once it is back.
            if let Some(vm) = self.inflight.remove(&m_tmsi) {
                self.reader.discharge(vm);
            }
            self.stats.proc_failures += 1;
            if let Some(enb) = home_cell(m_tmsi, self.topo.n_enbs) {
                out.push(MlbOut::Enb {
                    enb,
                    msg: WireMsg::ProcFailed { m_tmsi },
                });
            }
        }
        for other in 0..self.topo.n_mmps {
            if other == mmp {
                continue;
            }
            for &vm in &dead {
                out.push(MlbOut::Mmp {
                    mmp: other,
                    msg: WireMsg::VmDown { vm },
                });
            }
        }
    }

    /// A restarted MMP process reconnected: mark its VMs routable again
    /// — here and at the surviving workers.
    ///
    /// The revived engines are *empty*. A fresh attach works anyway
    /// (full IMSI + AKA needs no prior state), and an idle-mode
    /// procedure routed there is answered with an identity-unknown NAS
    /// reject that the access side converts into a re-attach — the
    /// paper's §4.6 fallback for state that could not be promoted.
    /// Keeping the VMs down instead would deadlock devices whose entire
    /// holder set lived on the dead process (R replicas are *not*
    /// process-disjoint): every route would return "no live holder"
    /// forever. Re-replication then restores the degree passively on
    /// each Idle edge; the in-process cluster's proactive `RepairScan`
    /// has no wire twin yet (DESIGN.md §14 records the divergence).
    pub fn on_mmp_reconnected(&mut self, mmp: usize, out: &mut Vec<MlbOut>) {
        for vm in self.topo.vms_of(mmp) {
            self.plane.mark_up(vm);
            for other in 0..self.topo.n_mmps {
                if other != mmp {
                    out.push(MlbOut::Mmp {
                        mmp: other,
                        msg: WireMsg::VmUp { vm },
                    });
                }
            }
        }
    }

    /// The MLB's shared routing plane (model-checker / diagnostics
    /// access).
    #[must_use]
    pub fn plane(&self) -> &Arc<RoutePlane> {
        &self.plane
    }

    /// Hash the behavior-relevant routing state — connection pins, the
    /// in-flight table, snapshot membership/liveness and per-VM loads —
    /// into `h`. Monotone report counters and the (equally monotone)
    /// snapshot epoch are excluded: two states differing only in those
    /// have identical future behavior, and folding them in would defeat
    /// the model checker's visited-set dedup.
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        let mut conns: Vec<(u32, u32, VmId)> =
            self.conns.iter().map(|(&(e, u), &vm)| (e, u, vm)).collect();
        conns.sort_unstable();
        conns.hash(h);
        let mut inflight: Vec<(u32, VmId)> =
            self.inflight.iter().map(|(&m, &vm)| (m, vm)).collect();
        inflight.sort_unstable();
        inflight.hash(h);
        let snap = self.plane.snapshot();
        snap.ring.nodes().hash(h);
        for &vm in snap.ring.nodes() {
            (snap.is_down(vm), self.plane.loads.load(vm)).hash(h);
        }
    }
}

/// One MMP worker process's logic: a [`Shard`] of real MME engines
/// behind a local routing-plane replica, translating between
/// [`WireMsg`]s and shard messages. Local cross-engine follow-ups
/// (both engines on this process) short-circuit without touching the
/// wire, exactly like same-shard messages in the in-process driver.
pub struct MmpNode {
    index: usize,
    topo: WireTopo,
    plane: Arc<RoutePlane>,
    shard: Shard,
    worklist: VecDeque<ShardMsg>,
    outbox: Vec<(usize, ShardMsg)>,
    events: Vec<ShardEvent>,
    /// Wire-level errors (unexpected cross-shard targets, engine
    /// errors surfaced by the shard).
    pub errors: u64,
    error_samples: Vec<String>,
}

impl MmpNode {
    /// Build worker `index` of the topology.
    #[must_use]
    pub fn new(topo: &WireTopo, index: usize) -> Self {
        let plane = topo.route_plane();
        let shard = Shard::new(
            &ShardConfig {
                id: index,
                n_shards: topo.n_mmps,
                vms: topo.vms_of(index),
                hss_seed: topo.seed,
            },
            &plane,
        );
        MmpNode {
            index,
            topo: topo.clone(),
            plane,
            shard,
            worklist: VecDeque::new(),
            outbox: Vec::new(),
            events: Vec::new(),
            errors: 0,
            error_samples: Vec::new(),
        }
    }

    /// Merged engine counters.
    #[must_use]
    pub fn stats(&self) -> ShardStatsSnapshot {
        self.shard.stats.snapshot()
    }

    /// Contexts resident across this worker's engines.
    #[must_use]
    pub fn contexts_held(&self) -> usize {
        self.shard.contexts_held()
    }

    /// First few error descriptions (for reports).
    #[must_use]
    pub fn error_samples(&self) -> &[String] {
        &self.error_samples
    }

    /// This worker's routing-plane replica (model-checker /
    /// diagnostics access).
    #[must_use]
    pub fn plane(&self) -> &Arc<RoutePlane> {
        &self.plane
    }

    /// The shard of real MME engines behind this worker (read-only
    /// model-checker access to contexts and holder sets).
    #[must_use]
    pub fn shard(&self) -> &Shard {
        &self.shard
    }

    /// VMs on this worker currently holding a context for `m_tmsi`.
    #[must_use]
    pub fn holding_vms(&self, m_tmsi: u32) -> Vec<VmId> {
        let guti = self.plane.snapshot().guti(m_tmsi);
        self.shard.holding_vms(&guti)
    }

    /// Hash the worker's behavior-relevant state — engine contexts and
    /// the local liveness view — into `h`. Error counters and the
    /// monotone snapshot epoch are excluded (see
    /// [`MlbState::fingerprint`]).
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        self.index.hash(h);
        self.shard.fingerprint(h);
        let snap = self.plane.snapshot();
        for vm in 1..=self.topo.total_vms as VmId {
            snap.is_down(vm).hash(h);
        }
    }

    fn fail(&mut self, what: impl Into<String>) {
        self.errors += 1;
        if self.error_samples.len() < 8 {
            self.error_samples.push(what.into());
        }
    }

    /// Process one wire message; messages for the MLB go to `out` in
    /// an order that preserves the replicate-before-notify
    /// happens-before edge (outbox-derived messages are emitted before
    /// the lifecycle events of the same engine step).
    pub fn handle(&mut self, msg: WireMsg, out: &mut Vec<WireMsg>) {
        let first = match msg {
            WireMsg::Deliver {
                vm,
                guti_hint,
                enb_id,
                pdu,
            } => ShardMsg::ToVm {
                vm,
                guti_hint,
                ev: Incoming::S1ap { enb_id, pdu },
            },
            WireMsg::Replicate { vm, blob } => ShardMsg::Replicate { vm, blob },
            WireMsg::DropCtx { vm, m_tmsi } => {
                let guti = self.plane.snapshot().guti(m_tmsi);
                ShardMsg::Drop { vm, guti }
            }
            WireMsg::VmDown { vm } => {
                self.plane.mark_down(vm);
                return;
            }
            WireMsg::VmUp { vm } => {
                self.plane.mark_up(vm);
                return;
            }
            other @ (WireMsg::Hello { .. }
            | WireMsg::Uplink { .. }
            | WireMsg::ToEnb { .. }
            | WireMsg::Settled { .. }
            | WireMsg::ProcFailed { .. }) => {
                self.fail(format!("unexpected wire message at MMP: {other:?}"));
                return;
            }
        };
        self.worklist.push_back(first);
        while let Some(m) = self.worklist.pop_front() {
            self.shard.process(m, &mut self.outbox, &mut self.events);
            // Outbox first (Replicate/Drop), then notifications: FIFO
            // links turn this into the same happens-before edge the
            // in-process mailboxes provide.
            for (target, m) in self.outbox.drain(..) {
                if target == self.index {
                    self.worklist.push_back(m);
                    continue;
                }
                match m {
                    ShardMsg::Replicate { vm, blob } => out.push(WireMsg::Replicate { vm, blob }),
                    ShardMsg::Drop { vm, guti } => out.push(WireMsg::DropCtx {
                        vm,
                        m_tmsi: guti.m_tmsi,
                    }),
                    other @ (ShardMsg::ToVm { .. } | ShardMsg::RepairScan) => {
                        self.errors += 1;
                        if self.error_samples.len() < 8 {
                            self.error_samples
                                .push(format!("unexpected cross-shard msg: {other:?}"));
                        }
                    }
                }
            }
            for ev in self.events.drain(..) {
                match ev {
                    ShardEvent::S1ap { enb_id, pdu } => out.push(WireMsg::ToEnb { enb_id, pdu }),
                    ShardEvent::Active { guti, .. } => out.push(WireMsg::Settled {
                        m_tmsi: guti.m_tmsi,
                        active: true,
                    }),
                    ShardEvent::Idle { guti, .. } => {
                        // The in-process driver's access cells count
                        // idle edges into the shard stats; on the wire
                        // the worker is where that tally lives.
                        self.shard
                            .stats
                            .idles
                            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        out.push(WireMsg::Settled {
                            m_tmsi: guti.m_tmsi,
                            active: false,
                        });
                    }
                    ShardEvent::Attached { .. } | ShardEvent::Detached { .. } => {}
                    ShardEvent::Error { vm, error } => {
                        self.errors += 1;
                        if self.error_samples.len() < 8 {
                            self.error_samples.push(format!("engine vm {vm}: {error}"));
                        }
                    }
                }
            }
        }
        let _ = &self.topo; // topology kept for diagnostics/symmetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use scale_epc::MTMSI_BASE;
    use scale_nas::Tai;

    fn topo() -> WireTopo {
        WireTopo {
            n_enbs: 2,
            n_mmps: 2,
            total_vms: 4,
            replication: 2,
            ring_tokens: 64,
            seed: 42,
        }
    }

    fn sample_msgs() -> Vec<WireMsg> {
        let pdu = S1apPdu::InitialUeMessage {
            enb_ue_id: 7,
            nas_pdu: Bytes::from_static(b"nas"),
            tai: Tai::new(Plmn::test(), 1),
            establishment_cause: 3,
            s_tmsi: Some((1, 0x0200_0005)),
        };
        vec![
            WireMsg::Hello {
                role: WireRole::Enb,
                id: 3,
            },
            WireMsg::Hello {
                role: WireRole::Mmp,
                id: 0,
            },
            WireMsg::Uplink {
                enb_id: ENB_BASE,
                attach_hint: Some(0x0200_0001),
                pdu: pdu.clone(),
            },
            WireMsg::Uplink {
                enb_id: ENB_BASE + 1,
                attach_hint: None,
                pdu: pdu.clone(),
            },
            WireMsg::Deliver {
                vm: 2,
                guti_hint: None,
                enb_id: ENB_BASE,
                pdu: pdu.clone(),
            },
            WireMsg::ToEnb {
                enb_id: ENB_BASE,
                pdu,
            },
            WireMsg::Settled {
                m_tmsi: 0x0200_0001,
                active: true,
            },
            WireMsg::Settled {
                m_tmsi: 0x0200_0001,
                active: false,
            },
            WireMsg::Replicate {
                vm: 3,
                blob: Bytes::from_static(&[0xAB; 300]),
            },
            WireMsg::DropCtx { vm: 1, m_tmsi: 9 },
            WireMsg::ProcFailed { m_tmsi: 0x0200_0002 },
            WireMsg::VmDown { vm: 4 },
            WireMsg::VmUp { vm: 4 },
        ]
    }

    #[test]
    fn codec_roundtrips_every_variant() {
        for msg in sample_msgs() {
            let bytes = msg.encode();
            let back = WireMsg::decode(bytes.clone()).unwrap();
            assert_eq!(back, msg);
            assert_eq!(back.encode(), bytes, "canonical re-encode");
        }
    }

    #[test]
    fn codec_rejects_trailing_and_unknown() {
        let mut v = WireMsg::VmDown { vm: 1 }.encode().to_vec();
        v.push(0);
        assert!(WireMsg::decode(Bytes::from(v)).is_err(), "trailing byte");
        assert!(WireMsg::decode(Bytes::from_static(&[0xFF, 0, 0])).is_err(), "unknown tag");
        assert!(WireMsg::decode(Bytes::new()).is_err(), "empty buffer");
    }

    #[test]
    fn mlb_answers_s1_setup_itself() {
        let mut mlb = MlbState::new(&topo());
        let mut out = Vec::new();
        mlb.on_enb(
            ENB_BASE + 1,
            None,
            S1apPdu::S1SetupRequest {
                global_enb_id: ENB_BASE + 1,
                enb_name: "cell-1".into(),
                supported_tais: vec![Tai::new(Plmn::test(), 1)],
            },
            &mut out,
        );
        match &out[..] {
            [MlbOut::Enb {
                enb: 1,
                msg: WireMsg::ToEnb {
                    pdu: S1apPdu::S1SetupResponse { served_gummeis, .. },
                    ..
                },
            }] => assert_eq!(served_gummeis.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn attach_pins_connection_and_uplinks_follow_it() {
        let mut mlb = MlbState::new(&topo());
        let mut out = Vec::new();
        let m_tmsi = MTMSI_BASE + 4;
        let initial = S1apPdu::InitialUeMessage {
            enb_ue_id: 1,
            nas_pdu: Bytes::from_static(b"attach"),
            tai: Tai::new(Plmn::test(), 1),
            establishment_cause: 3,
            s_tmsi: None,
        };
        mlb.on_enb(ENB_BASE, Some(m_tmsi), initial, &mut out);
        let (mmp0, vm0) = match &out[..] {
            [MlbOut::Mmp {
                mmp,
                msg: WireMsg::Deliver { vm, guti_hint, .. },
            }] => {
                assert_eq!(*guti_hint, Some(m_tmsi));
                (*mmp, *vm)
            }
            other => panic!("{other:?}"),
        };
        assert_eq!(mlb.inflight_len(), 1);
        out.clear();
        // A later uplink on the same connection lands on the same VM.
        mlb.on_enb(
            ENB_BASE,
            None,
            S1apPdu::UplinkNasTransport {
                mme_ue_id: 9,
                enb_ue_id: 1,
                nas_pdu: Bytes::from_static(b"smc ok"),
                tai: Tai::new(Plmn::test(), 1),
            },
            &mut out,
        );
        match &out[..] {
            [MlbOut::Mmp {
                mmp,
                msg: WireMsg::Deliver { vm, .. },
            }] => {
                assert_eq!((*mmp, *vm), (mmp0, vm0));
            }
            other => panic!("{other:?}"),
        }
        // The Idle edge clears the in-flight pin.
        out.clear();
        mlb.on_mmp(
            WireMsg::Settled {
                m_tmsi,
                active: false,
            },
            &mut out,
        );
        assert_eq!(mlb.inflight_len(), 0);
        assert!(matches!(
            &out[..],
            [MlbOut::Enb {
                msg: WireMsg::Settled { .. },
                ..
            }]
        ));
    }

    /// Route the Initial UE Message of a fresh attach for device `u`.
    fn attach(mlb: &mut MlbState, u: u32, out: &mut Vec<MlbOut>) {
        mlb.on_enb(
            ENB_BASE + u % 2,
            Some(MTMSI_BASE + u),
            S1apPdu::InitialUeMessage {
                enb_ue_id: u,
                nas_pdu: Bytes::from_static(b"a"),
                tai: Tai::new(Plmn::test(), 1),
                establishment_cause: 3,
                s_tmsi: None,
            },
            out,
        );
    }

    #[test]
    fn mmp_death_fails_over_inflight_and_broadcasts_down() {
        let t = topo();
        let mut mlb = MlbState::new(&t);
        let mut out = Vec::new();
        // Pin one in-flight attach per MMP.
        let mut pinned = Vec::new();
        for u in 0..8u32 {
            out.clear();
            attach(&mut mlb, u, &mut out);
            if let [MlbOut::Mmp { mmp, .. }] = &out[..] {
                pinned.push((MTMSI_BASE + u, *mmp));
            }
        }
        let on_dead: Vec<u32> = pinned
            .iter()
            .filter(|(_, mmp)| *mmp == 1)
            .map(|(m, _)| *m)
            .collect();
        assert!(!on_dead.is_empty(), "some attach routed to MMP 1");
        out.clear();
        mlb.on_mmp_down(1, &mut out);
        let failed: Vec<u32> = out
            .iter()
            .filter_map(|o| match o {
                MlbOut::Enb {
                    enb,
                    msg: WireMsg::ProcFailed { m_tmsi },
                } => {
                    // Failure lands on the device's home cell.
                    assert_eq!(home_cell(*m_tmsi, t.n_enbs), Some(*enb));
                    Some(*m_tmsi)
                }
                _ => None,
            })
            .collect();
        let mut a = failed;
        let mut b = on_dead;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "every dead-MMP in-flight device fails over");
        // Surviving MMP 0 hears VmDown for each of MMP 1's VMs.
        let downs = out
            .iter()
            .filter(|o| matches!(o, MlbOut::Mmp { mmp: 0, msg: WireMsg::VmDown { .. } }))
            .count();
        assert_eq!(downs, t.vms_of(1).len());
        // Routing now avoids the dead VMs entirely.
        out.clear();
        mlb.on_enb(
            ENB_BASE,
            Some(MTMSI_BASE + 100),
            S1apPdu::InitialUeMessage {
                enb_ue_id: 100,
                nas_pdu: Bytes::from_static(b"a"),
                tai: Tai::new(Plmn::test(), 1),
                establishment_cause: 3,
                s_tmsi: None,
            },
            &mut out,
        );
        assert!(matches!(&out[..], [MlbOut::Mmp { mmp: 0, .. }]));
    }

    #[test]
    fn mmp_death_returns_the_load_charges_of_failed_procedures() {
        let t = topo();
        let mut mlb = MlbState::new(&t);
        let mut out = Vec::new();
        for u in 0..8u32 {
            attach(&mut mlb, u, &mut out);
        }
        let before = mlb.inflight_len();
        mlb.on_mmp_down(1, &mut out);
        assert!(mlb.inflight_len() < before, "some procedure failed over");
        // Every charge left belongs to a procedure still in flight.
        let check = |mlb: &MlbState| {
            for vm in 1..=t.total_vms as VmId {
                let pinned = mlb.inflight.values().filter(|&&v| v == vm).count();
                assert_eq!(mlb.plane().loads.load(vm), pinned as u64, "vm {vm}");
            }
        };
        check(&mlb);
        // The revived VMs come back unloaded.
        mlb.on_mmp_reconnected(1, &mut out);
        check(&mlb);
        for vm in t.vms_of(1) {
            assert_eq!(mlb.plane().loads.load(vm), 0, "vm {vm}");
        }
    }

    #[test]
    fn mmp_node_marks_plane_on_vm_down_up() {
        let t = topo();
        let mut node = MmpNode::new(&t, 0);
        let mut out = Vec::new();
        node.handle(WireMsg::VmDown { vm: 2 }, &mut out);
        assert!(node.plane.snapshot().is_down(2));
        node.handle(WireMsg::VmUp { vm: 2 }, &mut out);
        assert!(!node.plane.snapshot().is_down(2));
        assert!(out.is_empty());
        assert_eq!(node.errors, 0);
        // An unexpected message is an error, not a panic.
        node.handle(WireMsg::ProcFailed { m_tmsi: 1 }, &mut out);
        assert_eq!(node.errors, 1);
        assert_eq!(node.stats().messages, 0);
    }
}
