//! The MME procedure engine: a sans-IO state machine that consumes
//! S1AP / S11 / S6a messages and emits the responses and follow-up
//! requests of each 3GPP procedure (§2 of the paper: attach, service
//! request, TA update, paging, handover, detach).
//!
//! The same engine backs every deployment in this reproduction: the
//! legacy-pool baseline MME, SCALE's MMP VMs (which set `vm_id` so their
//! identity is embedded in every MME-UE-S1AP-ID and S11 TEID they mint —
//! the routing trick of §5 "Load Balancing"), the discrete-event
//! simulator and the tokio prototype.

use crate::context::{EcmState, EmmState, Procedure, UeContext};
use bytes::Bytes;
use scale_crypto::kdf::{nas_keys_from_kasme, ALG_ID_AES};
use scale_diameter::{result_code, DiameterMsg, EutranVector, S6a};
use scale_gtpc as gtpc;
use scale_gtpc::{iface_type, Ambr, BearerContext, Cause, Fteid};
use scale_nas::security::{Direction, SecurityHeader};
use scale_nas::{is_protected, EmmMessage, Guti, MobileId, NasError, NasSecurityContext, Plmn, Tai};
use scale_s1ap::{cause as s1_cause, ErabSetup, Gummei, S1apPdu};
use std::collections::HashMap;
use std::fmt;

/// Errors surfaced by the engine.
#[derive(Debug)]
pub enum MmeError {
    Nas(NasError),
    Gtp(gtpc::DecodeError),
    Diameter(scale_diameter::DiameterError),
    UnknownUe(&'static str),
    BadState(String),
}

impl fmt::Display for MmeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MmeError::Nas(e) => write!(f, "nas: {e}"),
            MmeError::Gtp(e) => write!(f, "gtp: {e}"),
            MmeError::Diameter(e) => write!(f, "diameter: {e}"),
            MmeError::UnknownUe(w) => write!(f, "unknown UE ({w})"),
            MmeError::BadState(s) => write!(f, "bad state: {s}"),
        }
    }
}

impl std::error::Error for MmeError {}

impl From<NasError> for MmeError {
    fn from(e: NasError) -> Self {
        MmeError::Nas(e)
    }
}

impl From<gtpc::DecodeError> for MmeError {
    fn from(e: gtpc::DecodeError) -> Self {
        MmeError::Gtp(e)
    }
}

impl From<scale_diameter::DiameterError> for MmeError {
    fn from(e: scale_diameter::DiameterError) -> Self {
        MmeError::Diameter(e)
    }
}

/// Compose a 32-bit id carrying the minting VM in the top byte — the
/// paper's mechanism for routing Active-mode requests back to the right
/// MMP ("each MMP embeds its unique ID in both the S1AP-id &
/// S11-tunnel-id", §5).
pub fn compose_id(vm_id: u8, local: u32) -> u32 {
    ((vm_id as u32) << 24) | (local & 0x00ff_ffff)
}

/// Extract the VM id from a composed id.
pub fn vm_of_id(id: u32) -> u8 {
    (id >> 24) as u8
}

/// Static configuration of one MME / MMP instance.
#[derive(Debug, Clone)]
pub struct MmeConfig {
    pub plmn: Plmn,
    pub mme_group_id: u16,
    /// MME code — embedded in allocated GUTIs; the eNodeB's routing key
    /// in the legacy pool.
    pub mme_code: u8,
    pub mme_name: String,
    /// VM id embedded in minted S1AP/S11 ids (0 for a standalone MME).
    pub vm_id: u8,
    pub apn: String,
    /// Periodic TAU timer handed to UEs, seconds.
    pub t3412_s: u32,
    /// S1 Setup Response weight (new legacy MMEs announce a low value).
    pub relative_capacity: u8,
    pub mme_addr: [u8; 4],
    pub ambr_ul_kbps: u32,
    pub ambr_dl_kbps: u32,
}

impl Default for MmeConfig {
    fn default() -> Self {
        MmeConfig {
            plmn: Plmn::test(),
            mme_group_id: 0x8001,
            mme_code: 1,
            mme_name: "mme-1".into(),
            vm_id: 0,
            apn: "internet".into(),
            t3412_s: 3240,
            relative_capacity: 255,
            mme_addr: [10, 0, 0, 1],
            ambr_ul_kbps: 50_000,
            ambr_dl_kbps: 150_000,
        }
    }
}

/// Inbound events.
#[derive(Debug, Clone)]
pub enum Incoming {
    S1ap { enb_id: u32, pdu: S1apPdu },
    S11(gtpc::Message),
    S6a(DiameterMsg),
}

/// Outbound actions plus lifecycle notifications (the hooks SCALE's
/// replication manager attaches to).
#[derive(Debug, Clone)]
pub enum Outgoing {
    S1ap { enb_id: u32, pdu: S1apPdu },
    S11(gtpc::Message),
    S6a(DiameterMsg),
    /// Device finished attach (now Registered + Connected).
    UeAttached { guti: Guti },
    /// Device returned to Idle — SCALE replicates its state here (§4.6).
    UeIdle { guti: Guti },
    /// Device became Active again.
    UeActive { guti: Guti },
    /// Device detached; state removed.
    UeDetached { guti: Guti },
}

/// Per-procedure counters (reported by the experiments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MmeStats {
    pub attaches_started: u64,
    pub attaches_completed: u64,
    pub service_requests: u64,
    pub taus: u64,
    pub handovers: u64,
    pub pagings: u64,
    pub detaches: u64,
    pub auth_failures: u64,
    pub rejects: u64,
    pub messages_processed: u64,
}

/// The engine. Keyed internally by M-TMSI (unique per MME code).
pub struct MmeCore {
    pub config: MmeConfig,
    contexts: HashMap<u32, UeContext>,
    by_imsi: HashMap<String, u32>,
    by_mme_ue_id: HashMap<u32, u32>,
    /// S11 MME-TEID → M-TMSI: the TEID is minted once at session
    /// creation and survives re-mints of the S1AP id, so DDNs always
    /// resolve (§4.6: the S-GW keeps addressing the master MMP).
    by_s11_teid: HashMap<u32, u32>,
    next_m_tmsi: u32,
    next_local_id: u32,
    s11_seq: u32,
    s6a_hbh: u32,
    pending_s11: HashMap<u32, u32>,
    pending_s6a: HashMap<u32, u32>,
    /// Handover bookkeeping: m_tmsi → (source eNB, source eNB-UE id).
    pending_ho: HashMap<u32, (u32, u32)>,
    /// Externally assigned M-TMSI for the next GUTI allocation — SCALE's
    /// MLB assigns GUTIs before routing (§4.3.1: "In case of a request
    /// from an unregistered device, the MLB first assigns it a GUTI").
    guti_hint: Option<u32>,
    /// Attach completion needs both MB-Resp and Attach Complete, which
    /// can arrive in either order.
    attach_done_flags: HashMap<u32, (bool, bool)>,
    pub stats: MmeStats,
}

impl MmeCore {
    pub fn new(config: MmeConfig) -> Self {
        // Per-VM id spaces so MMPs in one pool never collide: the S11
        // sequence is 24-bit on the wire (vm in the top 8 of those), the
        // Diameter hop-by-hop id is 32-bit (vm in the top 8).
        let s11_seq = ((config.vm_id as u32) << 16) | 1;
        let s6a_hbh = ((config.vm_id as u32) << 24) | 1;
        MmeCore {
            config,
            contexts: HashMap::new(),
            by_imsi: HashMap::new(),
            by_mme_ue_id: HashMap::new(),
            by_s11_teid: HashMap::new(),
            next_m_tmsi: 1,
            next_local_id: 1,
            s11_seq,
            s6a_hbh,
            pending_s11: HashMap::new(),
            pending_s6a: HashMap::new(),
            pending_ho: HashMap::new(),
            attach_done_flags: HashMap::new(),
            guti_hint: None,
            stats: MmeStats::default(),
        }
    }

    /// Number of UE contexts held (registered devices, the `K` of Eq 1).
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }

    /// Iterate contexts (read-only).
    pub fn contexts(&self) -> impl Iterator<Item = &UeContext> {
        self.contexts.values()
    }

    /// Iterate contexts mutably (epoch close, access-frequency updates).
    pub fn contexts_mut(&mut self) -> impl Iterator<Item = &mut UeContext> {
        self.contexts.values_mut()
    }

    /// Look up a context by GUTI.
    pub fn context(&self, guti: &Guti) -> Option<&UeContext> {
        self.contexts.get(&guti.m_tmsi)
    }

    /// Hash the engine's behavior-relevant state into `h` — every
    /// context (including the transient procedure fields that
    /// `UeContext::to_bytes` deliberately omits), the pending-response
    /// tables and the id allocators. `stats` and the per-epoch access
    /// counters are excluded: they never steer future message handling,
    /// and folding monotone counters in would defeat the protocol model
    /// checker's visited-set dedup.
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        let mut keys: Vec<u32> = self.contexts.keys().copied().collect();
        keys.sort_unstable();
        for m_tmsi in keys {
            let ctx = &self.contexts[&m_tmsi];
            m_tmsi.hash(h);
            ctx.to_bytes().as_ref().hash(h);
            // Transient fields absent from the replication
            // serialization still steer the live engine.
            (ctx.ecm as u8, ctx.procedure as u8).hash(h);
            (ctx.enb_ue_id, ctx.enb_id).hash(h);
            ctx.pending_xres.hash(h);
            ctx.pending_kasme.hash(h);
        }
        (self.next_m_tmsi, self.next_local_id, self.s11_seq, self.s6a_hbh).hash(h);
        let mut s11: Vec<(u32, u32)> = self.pending_s11.iter().map(|(&k, &v)| (k, v)).collect();
        s11.sort_unstable();
        s11.hash(h);
        let mut s6a: Vec<(u32, u32)> = self.pending_s6a.iter().map(|(&k, &v)| (k, v)).collect();
        s6a.sort_unstable();
        s6a.hash(h);
        let mut ho: Vec<(u32, (u32, u32))> =
            self.pending_ho.iter().map(|(&k, &v)| (k, v)).collect();
        ho.sort_unstable();
        ho.hash(h);
        let mut flags: Vec<(u32, (bool, bool))> =
            self.attach_done_flags.iter().map(|(&k, &v)| (k, v)).collect();
        flags.sort_unstable();
        flags.hash(h);
        self.guti_hint.hash(h);
    }

    /// M-TMSI of the device this engine indexes under a composed
    /// MME-UE-S1AP-ID, if it holds (a copy of) that context. Used by
    /// the MLB to find a replica to promote when the serving MMP
    /// embedded in an Active-mode id has crashed.
    pub fn m_tmsi_by_mme_ue_id(&self, id: u32) -> Option<u32> {
        self.by_mme_ue_id.get(&id).copied()
    }

    /// Same, by S11 TEID (Downlink Data Notification failover: the
    /// TEID is minted once at session creation, so replica copies keep
    /// it indexed across Idle/Active cycles).
    pub fn m_tmsi_by_s11_teid(&self, teid: u32) -> Option<u32> {
        self.by_s11_teid.get(&teid).copied()
    }

    /// Export a device's state for replication/transfer.
    pub fn export_state(&self, guti: &Guti) -> Option<Bytes> {
        self.contexts.get(&guti.m_tmsi).map(|c| c.to_bytes())
    }

    /// Import a replicated/transferred device state. Overwrites any
    /// existing context for the same M-TMSI (replica refresh).
    pub fn import_state(&mut self, bytes: Bytes) -> Result<Guti, MmeError> {
        let ctx = UeContext::from_bytes(bytes)?;
        let guti = ctx.guti;
        self.by_imsi.insert(ctx.imsi.clone(), guti.m_tmsi);
        if ctx.mme_ue_id != 0 {
            self.by_mme_ue_id.insert(ctx.mme_ue_id, guti.m_tmsi);
        }
        if ctx.bearer.s11_mme_teid != 0 {
            self.by_s11_teid.insert(ctx.bearer.s11_mme_teid, guti.m_tmsi);
        }
        self.contexts.insert(guti.m_tmsi, ctx);
        Ok(guti)
    }

    /// Remove a device entirely (legacy reassignment / rebalancing).
    pub fn remove_context(&mut self, guti: &Guti) -> Option<UeContext> {
        let ctx = self.contexts.remove(&guti.m_tmsi)?;
        self.by_imsi.remove(&ctx.imsi);
        self.by_mme_ue_id.remove(&ctx.mme_ue_id);
        self.by_s11_teid.remove(&ctx.bearer.s11_mme_teid);
        self.pending_ho.remove(&guti.m_tmsi);
        self.attach_done_flags.remove(&guti.m_tmsi);
        Some(ctx)
    }

    /// The S1 Setup Response this MME answers eNodeBs with.
    pub fn s1_setup_response(&self) -> S1apPdu {
        S1apPdu::S1SetupResponse {
            mme_name: self.config.mme_name.clone(),
            served_gummeis: vec![Gummei {
                plmn: self.config.plmn,
                mme_group_id: self.config.mme_group_id,
                mme_code: self.config.mme_code,
            }],
            relative_mme_capacity: self.config.relative_capacity,
        }
    }

    /// Pre-assign the M-TMSI the next fresh attach will receive (used by
    /// SCALE's MLB, which allocates GUTIs so devices hash where it
    /// routed them).
    pub fn set_guti_hint(&mut self, m_tmsi: u32) {
        self.guti_hint = Some(m_tmsi);
    }

    /// Allocate a fresh, unused M-TMSI from this MME's space (used when
    /// the legacy pool re-homes a device and must re-key it).
    pub fn allocate_m_tmsi(&mut self) -> u32 {
        loop {
            let m = self.next_m_tmsi;
            self.next_m_tmsi += 1;
            if !self.contexts.contains_key(&m) {
                return m;
            }
        }
    }

    fn alloc_guti(&mut self) -> Guti {
        let m_tmsi = match self.guti_hint.take() {
            Some(m) => m,
            None => {
                let m = self.next_m_tmsi;
                self.next_m_tmsi += 1;
                m
            }
        };
        Guti {
            plmn: self.config.plmn,
            mme_group_id: self.config.mme_group_id,
            mme_code: self.config.mme_code,
            m_tmsi,
        }
    }

    fn alloc_ue_id(&mut self) -> u32 {
        let local = self.next_local_id;
        self.next_local_id += 1;
        compose_id(self.config.vm_id, local)
    }

    fn next_s11_seq(&mut self, m_tmsi: u32) -> u32 {
        let seq = self.s11_seq;
        self.s11_seq = (self.s11_seq + 1) & 0x00ff_ffff;
        self.pending_s11.insert(seq, m_tmsi);
        seq
    }

    /// Main entry point: apply one inbound event, produce the actions.
    pub fn handle(&mut self, event: Incoming) -> Result<Vec<Outgoing>, MmeError> {
        self.stats.messages_processed += 1;
        match event {
            Incoming::S1ap { enb_id, pdu } => self.handle_s1ap(enb_id, pdu),
            Incoming::S11(msg) => self.handle_s11(msg),
            Incoming::S6a(msg) => self.handle_s6a(&msg),
        }
    }

    // ----- S1AP ---------------------------------------------------------

    fn handle_s1ap(&mut self, enb_id: u32, pdu: S1apPdu) -> Result<Vec<Outgoing>, MmeError> {
        match pdu {
            S1apPdu::S1SetupRequest { .. } => Ok(vec![Outgoing::S1ap {
                enb_id,
                pdu: self.s1_setup_response(),
            }]),
            S1apPdu::InitialUeMessage {
                enb_ue_id,
                nas_pdu,
                tai,
                s_tmsi,
                ..
            } => self.initial_ue_message(enb_id, enb_ue_id, nas_pdu, tai, s_tmsi),
            S1apPdu::UplinkNasTransport {
                mme_ue_id,
                nas_pdu,
                tai,
                ..
            } => self.uplink_nas(mme_ue_id, nas_pdu, tai),
            S1apPdu::InitialContextSetupResponse {
                mme_ue_id, erabs, ..
            } => self.context_setup_response(mme_ue_id, &erabs),
            S1apPdu::InitialContextSetupFailure { mme_ue_id, .. } => {
                let m_tmsi = self.tmsi_of(mme_ue_id)?;
                let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
                ctx.procedure = Procedure::None;
                ctx.ecm = EcmState::Idle;
                self.stats.rejects += 1;
                Ok(vec![])
            }
            S1apPdu::UeContextReleaseRequest { mme_ue_id, .. } => {
                self.release_request(mme_ue_id)
            }
            S1apPdu::UeContextReleaseComplete { mme_ue_id, .. } => {
                self.release_complete(mme_ue_id)
            }
            S1apPdu::HandoverRequired {
                mme_ue_id,
                enb_ue_id,
                target_enb_id,
                ..
            } => self.handover_required(mme_ue_id, enb_ue_id, enb_id, target_enb_id),
            S1apPdu::HandoverRequestAck {
                mme_ue_id,
                enb_ue_id,
                erabs,
            } => self.handover_ack(mme_ue_id, enb_ue_id, enb_id, erabs),
            S1apPdu::HandoverNotify {
                mme_ue_id,
                enb_ue_id,
                tai,
            } => self.handover_notify(mme_ue_id, enb_ue_id, enb_id, tai),
            S1apPdu::ErrorIndication { .. } => Ok(vec![]),
            other => Err(MmeError::BadState(format!(
                "unexpected S1AP PDU at MME: {other:?}"
            ))),
        }
    }

    fn tmsi_of(&self, mme_ue_id: u32) -> Result<u32, MmeError> {
        self.by_mme_ue_id
            .get(&mme_ue_id)
            .copied()
            .ok_or(MmeError::UnknownUe("mme_ue_id"))
    }

    /// UE context by M-TMSI. The id maps (`by_mme_ue_id`, `by_s11_teid`,
    /// `by_imsi`) are kept in sync with `contexts`, so a resolved id
    /// normally has a context — but a purge racing a resolved id must
    /// surface as a protocol error, not a panic.
    fn ctx(&self, m_tmsi: u32) -> Result<&UeContext, MmeError> {
        self.contexts
            .get(&m_tmsi)
            .ok_or(MmeError::UnknownUe("m_tmsi without context"))
    }

    /// As [`Self::ctx_mut`], borrowing only the context map — for call
    /// sites that update the sibling id maps while the context borrow
    /// is live.
    fn ctx_mut_in(
        contexts: &mut HashMap<u32, UeContext>,
        m_tmsi: u32,
    ) -> Result<&mut UeContext, MmeError> {
        contexts
            .get_mut(&m_tmsi)
            .ok_or(MmeError::UnknownUe("m_tmsi without context"))
    }

    fn initial_ue_message(
        &mut self,
        enb_id: u32,
        enb_ue_id: u32,
        nas_pdu: Bytes,
        _tai: Tai,
        s_tmsi: Option<(u8, u32)>,
    ) -> Result<Vec<Outgoing>, MmeError> {
        // A protected initial message (TAU / Detach from Idle) carries
        // the S-TMSI so the context — and its security keys — can be
        // found before decoding.
        let msg = if is_protected(&nas_pdu) {
            let (_, m_tmsi) =
                s_tmsi.ok_or(MmeError::UnknownUe("protected initial NAS without S-TMSI"))?;
            let ctx = self
                .contexts
                .get_mut(&m_tmsi)
                .ok_or(MmeError::UnknownUe("protected initial NAS"))?;
            let sec = ctx
                .security
                .as_mut()
                .ok_or(MmeError::Nas(NasError::NoSecurityContext))?;
            sec.unprotect(nas_pdu, Direction::Uplink)?
        } else {
            EmmMessage::decode(nas_pdu)?
        };
        match msg {
            EmmMessage::AttachRequest { id, tai, .. } => self.start_attach(enb_id, enb_ue_id, id, tai),
            EmmMessage::ServiceRequest { ksi, seq, short_mac } => {
                let (_, m_tmsi) = s_tmsi.ok_or(MmeError::UnknownUe("service request without S-TMSI"))?;
                self.service_request(enb_id, enb_ue_id, m_tmsi, ksi, seq, short_mac)
            }
            EmmMessage::TauRequest { guti, tai } => {
                self.tau(enb_id, enb_ue_id, guti.m_tmsi, tai)
            }
            EmmMessage::DetachRequest { switch_off, id } => {
                let m_tmsi = match &id {
                    MobileId::Guti(g) => g.m_tmsi,
                    MobileId::Imsi(imsi) => *self
                        .by_imsi
                        .get(imsi)
                        .ok_or(MmeError::UnknownUe("detach by unknown imsi"))?,
                };
                self.detach(enb_id, enb_ue_id, m_tmsi, switch_off)
            }
            // Downlink-only and mid-procedure messages can never open a
            // signalling connection; each is named so a new EMM message
            // fails to compile here instead of being silently rejected.
            other @ (EmmMessage::AttachAccept { .. }
            | EmmMessage::AttachComplete
            | EmmMessage::AttachReject { .. }
            | EmmMessage::ServiceReject { .. }
            | EmmMessage::AuthenticationRequest { .. }
            | EmmMessage::AuthenticationResponse { .. }
            | EmmMessage::AuthenticationReject
            | EmmMessage::AuthenticationFailure { .. }
            | EmmMessage::SecurityModeCommand { .. }
            | EmmMessage::SecurityModeComplete
            | EmmMessage::SecurityModeReject { .. }
            | EmmMessage::TauAccept { .. }
            | EmmMessage::TauComplete
            | EmmMessage::TauReject { .. }
            | EmmMessage::DetachAccept
            | EmmMessage::EmmStatus { .. }) => Err(MmeError::BadState(format!(
                "unexpected initial NAS: {other:?}"
            ))),
        }
    }

    fn start_attach(
        &mut self,
        enb_id: u32,
        enb_ue_id: u32,
        id: MobileId,
        tai: Tai,
    ) -> Result<Vec<Outgoing>, MmeError> {
        self.stats.attaches_started += 1;
        match id {
            MobileId::Imsi(imsi) => {
                // Fresh attach: allocate identity, fetch auth vectors.
                let guti = if let Some(&m_tmsi) = self.by_imsi.get(&imsi) {
                    self.ctx(m_tmsi)?.guti
                } else {
                    self.alloc_guti()
                };
                let mme_ue_id = self.alloc_ue_id();
                let mut ctx = self
                    .contexts
                    .remove(&guti.m_tmsi)
                    .unwrap_or_else(|| UeContext::new(imsi.clone(), guti, tai));
                // Stale routing entry for a previous mme_ue_id.
                self.by_mme_ue_id.remove(&ctx.mme_ue_id);
                ctx.emm = EmmState::Registering;
                ctx.ecm = EcmState::Connecting;
                ctx.procedure = Procedure::AwaitAuthVector;
                ctx.mme_ue_id = mme_ue_id;
                ctx.enb_id = enb_id;
                ctx.enb_ue_id = enb_ue_id;
                ctx.tai = tai;
                ctx.record_access();
                self.by_imsi.insert(imsi.clone(), guti.m_tmsi);
                self.by_mme_ue_id.insert(mme_ue_id, guti.m_tmsi);
                self.contexts.insert(guti.m_tmsi, ctx);

                let hbh = self.s6a_hbh;
                self.s6a_hbh += 1;
                self.pending_s6a.insert(hbh, guti.m_tmsi);
                let air = S6a::AuthInfoRequest {
                    imsi,
                    visited_plmn: self.config.plmn.0,
                    vectors: 1,
                }
                .into_msg(hbh, hbh);
                Ok(vec![Outgoing::S6a(air)])
            }
            MobileId::Guti(guti) => {
                // Re-attach with GUTI: if we know the device and have a
                // security context, skip AKA and go straight to session
                // setup; otherwise reject so the UE retries with IMSI.
                let known_with_security = self
                    .contexts
                    .get(&guti.m_tmsi)
                    .is_some_and(|c| c.security.is_some());
                if !known_with_security {
                    self.stats.rejects += 1;
                    let reject = EmmMessage::AttachReject {
                        cause: scale_nas::emm_cause::UE_IDENTITY_UNKNOWN,
                    };
                    return Ok(vec![Outgoing::S1ap {
                        enb_id,
                        pdu: S1apPdu::DownlinkNasTransport {
                            mme_ue_id: 0,
                            enb_ue_id,
                            nas_pdu: reject.encode(),
                        },
                    }]);
                }
                let mme_ue_id = self.alloc_ue_id();
                let ctx = Self::ctx_mut_in(&mut self.contexts, guti.m_tmsi)?;
                self.by_mme_ue_id.remove(&ctx.mme_ue_id);
                ctx.mme_ue_id = mme_ue_id;
                ctx.emm = EmmState::Registering;
                ctx.ecm = EcmState::Connecting;
                ctx.procedure = Procedure::AwaitCreateSession;
                ctx.enb_id = enb_id;
                ctx.enb_ue_id = enb_ue_id;
                ctx.tai = tai;
                ctx.record_access();
                self.by_mme_ue_id.insert(mme_ue_id, guti.m_tmsi);
                let imsi = ctx.imsi.clone();
                Ok(vec![self.create_session(guti.m_tmsi, imsi)?])
            }
        }
    }

    fn create_session(&mut self, m_tmsi: u32, imsi: String) -> Result<Outgoing, MmeError> {
        let seq = self.next_s11_seq(m_tmsi);
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        ctx.bearer.s11_mme_teid = ctx.mme_ue_id;
        ctx.bearer.ebi = 5;
        self.by_s11_teid.insert(ctx.bearer.s11_mme_teid, m_tmsi);
        let msg = gtpc::Message {
            teid: 0,
            sequence: seq,
            body: gtpc::Body::CreateSessionRequest {
                imsi,
                apn: self.config.apn.clone(),
                sender_fteid: Fteid {
                    iface: iface_type::S11_MME,
                    teid: ctx.bearer.s11_mme_teid,
                    ipv4: self.config.mme_addr,
                },
                ambr: Ambr {
                    uplink_kbps: self.config.ambr_ul_kbps,
                    downlink_kbps: self.config.ambr_dl_kbps,
                },
                bearer: BearerContext::new(5),
            },
        };
        Ok(Outgoing::S11(msg))
    }

    fn service_request(
        &mut self,
        enb_id: u32,
        enb_ue_id: u32,
        m_tmsi: u32,
        ksi: u8,
        seq: u8,
        short_mac: [u8; 2],
    ) -> Result<Vec<Outgoing>, MmeError> {
        let Some(ctx) = self.contexts.get_mut(&m_tmsi) else {
            // No context anywhere for this S-TMSI: the device's state
            // died with an engine before it was ever replicated (§4.6).
            // Answer with Service Reject #9 ("UE identity cannot be
            // derived by the network") so the device drops its GUTI and
            // falls back to a fresh IMSI attach, instead of erroring a
            // procedure the eNodeB would wait on forever.
            self.stats.rejects += 1;
            let reject = EmmMessage::ServiceReject {
                cause: scale_nas::emm_cause::UE_IDENTITY_UNKNOWN,
            };
            return Ok(vec![Outgoing::S1ap {
                enb_id,
                pdu: S1apPdu::DownlinkNasTransport {
                    mme_ue_id: 0,
                    enb_ue_id,
                    nas_pdu: reject.encode(),
                },
            }]);
        };
        let Some(sec) = &ctx.security else {
            return Err(MmeError::Nas(NasError::NoSecurityContext));
        };
        if sec.service_request_mac(ksi, seq) != short_mac {
            self.stats.auth_failures += 1;
            return Err(MmeError::Nas(NasError::BadMac));
        }
        if ctx.emm != EmmState::Registered {
            return Err(MmeError::BadState("service request while unregistered".into()));
        }
        self.stats.service_requests += 1;
        ctx.ecm = EcmState::Connecting;
        ctx.procedure = Procedure::AwaitContextSetup;
        ctx.enb_id = enb_id;
        ctx.enb_ue_id = enb_ue_id;
        ctx.record_access();
        let kasme = match ctx.security.as_ref() {
            Some(sec) => sec.keys.kasme,
            // Unreachable after the integrity check above accepted the
            // message, but a missing context is a protocol error, not a
            // crash.
            None => return Err(MmeError::BadState("service request without security context".into())),
        };
        let old_id = ctx.mme_ue_id;
        // Re-mint the S1AP id so Active-mode messages route to the VM
        // serving this Active period (§5 "Load Balancing").
        let new_id = self.alloc_ue_id();
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        ctx.mme_ue_id = new_id;
        self.by_mme_ue_id.remove(&old_id);
        self.by_mme_ue_id.insert(new_id, m_tmsi);
        let pdu = S1apPdu::InitialContextSetupRequest {
            mme_ue_id: ctx.mme_ue_id,
            enb_ue_id,
            erabs: vec![ErabSetup {
                erab_id: ctx.bearer.ebi,
                qci: 9,
                gtp_teid: ctx.bearer.s1u_sgw_teid,
                transport_addr: ctx.bearer.s1u_sgw_addr,
            }],
            ue_ambr_ul_kbps: self.config.ambr_ul_kbps,
            ue_ambr_dl_kbps: self.config.ambr_dl_kbps,
            security_key: kasme,
        };
        Ok(vec![Outgoing::S1ap { enb_id, pdu }])
    }

    fn tau(
        &mut self,
        enb_id: u32,
        enb_ue_id: u32,
        m_tmsi: u32,
        tai: Tai,
    ) -> Result<Vec<Outgoing>, MmeError> {
        let t3412 = self.config.t3412_s;
        let Some(ctx) = self.contexts.get_mut(&m_tmsi) else {
            // Same recovery contract as the Service Request path: an
            // unknown S-TMSI gets TAU Reject #9, sending the device
            // back to a fresh IMSI attach.
            self.stats.rejects += 1;
            let reject = EmmMessage::TauReject {
                cause: scale_nas::emm_cause::UE_IDENTITY_UNKNOWN,
            };
            return Ok(vec![Outgoing::S1ap {
                enb_id,
                pdu: S1apPdu::DownlinkNasTransport {
                    mme_ue_id: 0,
                    enb_ue_id,
                    nas_pdu: reject.encode(),
                },
            }]);
        };
        self.stats.taus += 1;
        ctx.tai = tai;
        if !ctx.tai_list.contains(&tai) {
            ctx.tai_list.push(tai);
        }
        ctx.record_access();
        // The TAU rides a temporary signalling connection; its release
        // returns the device to Idle (and re-syncs replicas in SCALE,
        // picking up the new TA list).
        ctx.procedure = Procedure::AwaitReleaseComplete;
        let mme_ue_id = ctx.mme_ue_id;
        let accept = EmmMessage::TauAccept {
            t3412_s: t3412,
            guti: None,
        };
        // Accept, then tear the signalling connection back down.
        Ok(vec![
            Outgoing::S1ap {
                enb_id,
                pdu: S1apPdu::DownlinkNasTransport {
                    mme_ue_id,
                    enb_ue_id,
                    nas_pdu: accept.encode(),
                },
            },
            Outgoing::S1ap {
                enb_id,
                pdu: S1apPdu::UeContextReleaseCommand {
                    mme_ue_id,
                    enb_ue_id,
                    cause: s1_cause::USER_INACTIVITY,
                },
            },
        ])
    }

    fn detach(
        &mut self,
        enb_id: u32,
        enb_ue_id: u32,
        m_tmsi: u32,
        switch_off: bool,
    ) -> Result<Vec<Outgoing>, MmeError> {
        let ctx = self
            .contexts
            .get_mut(&m_tmsi)
            .ok_or(MmeError::UnknownUe("detach"))?;
        ctx.procedure = Procedure::AwaitDeleteSession;
        ctx.enb_id = enb_id;
        ctx.enb_ue_id = enb_ue_id;
        // Remember whether to answer with Detach Accept.
        self.attach_done_flags.insert(m_tmsi, (switch_off, false));
        let ebi = ctx.bearer.ebi;
        let sgw_teid = ctx.bearer.s11_sgw_teid;
        let seq = self.next_s11_seq(m_tmsi);
        Ok(vec![Outgoing::S11(gtpc::Message {
            teid: sgw_teid,
            sequence: seq,
            body: gtpc::Body::DeleteSessionRequest { ebi },
        })])
    }

    fn uplink_nas(
        &mut self,
        mme_ue_id: u32,
        nas_pdu: Bytes,
        _tai: Tai,
    ) -> Result<Vec<Outgoing>, MmeError> {
        let m_tmsi = self.tmsi_of(mme_ue_id)?;
        let msg = {
            let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
            if is_protected(&nas_pdu) {
                let sec = ctx
                    .security
                    .as_mut()
                    .ok_or(MmeError::Nas(NasError::NoSecurityContext))?;
                sec.unprotect(nas_pdu, Direction::Uplink)?
            } else {
                EmmMessage::decode(nas_pdu)?
            }
        };
        match msg {
            EmmMessage::AuthenticationResponse { res } => self.auth_response(m_tmsi, res),
            EmmMessage::SecurityModeComplete => self.smc_complete(m_tmsi),
            EmmMessage::AttachComplete => self.attach_complete(m_tmsi),
            EmmMessage::TauRequest { guti, tai } => {
                let (enb_id, enb_ue_id) = {
                    let ctx = self.ctx(m_tmsi)?;
                    (ctx.enb_id, ctx.enb_ue_id)
                };
                self.tau(enb_id, enb_ue_id, guti.m_tmsi, tai)
            }
            EmmMessage::DetachRequest { switch_off, .. } => {
                let (enb_id, enb_ue_id) = {
                    let ctx = self.ctx(m_tmsi)?;
                    (ctx.enb_id, ctx.enb_ue_id)
                };
                self.detach(enb_id, enb_ue_id, m_tmsi, switch_off)
            }
            EmmMessage::AuthenticationFailure { .. } => {
                self.stats.auth_failures += 1;
                let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
                ctx.procedure = Procedure::None;
                ctx.emm = EmmState::Deregistered;
                Ok(vec![])
            }
            // Initial-only and downlink-only messages are protocol
            // errors on an established connection; named exhaustively
            // so a new EMM message fails to compile here.
            other @ (EmmMessage::AttachRequest { .. }
            | EmmMessage::AttachAccept { .. }
            | EmmMessage::AttachReject { .. }
            | EmmMessage::ServiceRequest { .. }
            | EmmMessage::ServiceReject { .. }
            | EmmMessage::AuthenticationRequest { .. }
            | EmmMessage::AuthenticationReject
            | EmmMessage::SecurityModeCommand { .. }
            | EmmMessage::SecurityModeReject { .. }
            | EmmMessage::TauAccept { .. }
            | EmmMessage::TauComplete
            | EmmMessage::TauReject { .. }
            | EmmMessage::DetachAccept
            | EmmMessage::EmmStatus { .. }) => Err(MmeError::BadState(format!(
                "unexpected uplink NAS: {other:?}"
            ))),
        }
    }

    fn auth_response(&mut self, m_tmsi: u32, res: [u8; 8]) -> Result<Vec<Outgoing>, MmeError> {
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        if ctx.procedure != Procedure::AwaitAuthResponse {
            return Err(MmeError::BadState("auth response out of sequence".into()));
        }
        let xres = ctx.pending_xres.take().ok_or(MmeError::BadState("no XRES".into()))?;
        if res != xres {
            self.stats.auth_failures += 1;
            ctx.emm = EmmState::Deregistered;
            ctx.procedure = Procedure::None;
            let out = S1apPdu::DownlinkNasTransport {
                mme_ue_id: ctx.mme_ue_id,
                enb_ue_id: ctx.enb_ue_id,
                nas_pdu: EmmMessage::AuthenticationReject.encode(),
            };
            let enb_id = ctx.enb_id;
            return Ok(vec![Outgoing::S1ap { enb_id, pdu: out }]);
        }
        // Derive the NAS security context from the vector's K_ASME.
        let kasme = ctx
            .pending_kasme
            .take()
            .ok_or(MmeError::BadState("no K_ASME".into()))?;
        let mut sec = NasSecurityContext::new(nas_keys_from_kasme(kasme), 1);
        let smc = EmmMessage::SecurityModeCommand {
            ksi: 1,
            eea: ALG_ID_AES,
            eia: ALG_ID_AES,
        };
        let wire = sec.protect(&smc, Direction::Downlink, SecurityHeader::IntegrityNewContext);
        ctx.security = Some(sec);
        ctx.procedure = Procedure::AwaitSmcComplete;
        let enb_id = ctx.enb_id;
        let pdu = S1apPdu::DownlinkNasTransport {
            mme_ue_id: ctx.mme_ue_id,
            enb_ue_id: ctx.enb_ue_id,
            nas_pdu: wire,
        };
        Ok(vec![Outgoing::S1ap { enb_id, pdu }])
    }

    fn smc_complete(&mut self, m_tmsi: u32) -> Result<Vec<Outgoing>, MmeError> {
        let imsi = {
            let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
            if ctx.procedure != Procedure::AwaitSmcComplete {
                return Err(MmeError::BadState("SMC complete out of sequence".into()));
            }
            ctx.procedure = Procedure::AwaitUpdateLocation;
            ctx.imsi.clone()
        };
        let hbh = self.s6a_hbh;
        self.s6a_hbh += 1;
        self.pending_s6a.insert(hbh, m_tmsi);
        let ulr = S6a::UpdateLocationRequest {
            imsi,
            visited_plmn: self.config.plmn.0,
        }
        .into_msg(hbh, hbh);
        Ok(vec![Outgoing::S6a(ulr)])
    }

    fn attach_complete(&mut self, m_tmsi: u32) -> Result<Vec<Outgoing>, MmeError> {
        let flags = self.attach_done_flags.entry(m_tmsi).or_insert((false, false));
        flags.0 = true;
        let both = flags.0 && flags.1;
        if both {
            self.attach_done_flags.remove(&m_tmsi);
            self.finish_attach(m_tmsi)
        } else {
            Ok(vec![])
        }
    }

    fn finish_attach(&mut self, m_tmsi: u32) -> Result<Vec<Outgoing>, MmeError> {
        self.stats.attaches_completed += 1;
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        ctx.emm = EmmState::Registered;
        ctx.ecm = EcmState::Connected;
        ctx.procedure = Procedure::None;
        Ok(vec![
            Outgoing::UeAttached { guti: ctx.guti },
            Outgoing::UeActive { guti: ctx.guti },
        ])
    }

    fn context_setup_response(
        &mut self,
        mme_ue_id: u32,
        erabs: &[ErabSetup],
    ) -> Result<Vec<Outgoing>, MmeError> {
        let m_tmsi = self.tmsi_of(mme_ue_id)?;
        let seq = self.next_s11_seq(m_tmsi);
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        if ctx.procedure != Procedure::AwaitContextSetup {
            return Err(MmeError::BadState("ICS response out of sequence".into()));
        }
        // Install the eNodeB's S1-U endpoint at the S-GW.
        let enb_fteid = erabs.first().map(|e| Fteid {
            iface: iface_type::S1U_ENODEB,
            teid: e.gtp_teid,
            ipv4: e.transport_addr,
        });
        ctx.procedure = Procedure::AwaitModifyBearer;
        let mut bearer = BearerContext::new(ctx.bearer.ebi);
        bearer.s1u_enodeb_fteid = enb_fteid;
        Ok(vec![Outgoing::S11(gtpc::Message {
            teid: ctx.bearer.s11_sgw_teid,
            sequence: seq,
            body: gtpc::Body::ModifyBearerRequest { bearer },
        })])
    }

    fn release_request(&mut self, mme_ue_id: u32) -> Result<Vec<Outgoing>, MmeError> {
        let m_tmsi = self.tmsi_of(mme_ue_id)?;
        let seq = self.next_s11_seq(m_tmsi);
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        ctx.procedure = Procedure::AwaitReleaseComplete;
        let sgw_teid = ctx.bearer.s11_sgw_teid;
        let enb_id = ctx.enb_id;
        let enb_ue_id = ctx.enb_ue_id;
        Ok(vec![
            Outgoing::S11(gtpc::Message {
                teid: sgw_teid,
                sequence: seq,
                body: gtpc::Body::ReleaseAccessBearersRequest,
            }),
            Outgoing::S1ap {
                enb_id,
                pdu: S1apPdu::UeContextReleaseCommand {
                    mme_ue_id,
                    enb_ue_id,
                    cause: s1_cause::USER_INACTIVITY,
                },
            },
        ])
    }

    fn release_complete(&mut self, mme_ue_id: u32) -> Result<Vec<Outgoing>, MmeError> {
        let Ok(m_tmsi) = self.tmsi_of(mme_ue_id) else {
            // Release for a context we already removed (e.g. detach).
            return Ok(vec![]);
        };
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        if ctx.procedure != Procedure::AwaitReleaseComplete {
            // Source-leg release after a handover (or a stray complete):
            // the device stays Active on the target side.
            return Ok(vec![]);
        }
        ctx.ecm = EcmState::Idle;
        ctx.procedure = Procedure::None;
        ctx.enb_ue_id = 0;
        Ok(vec![Outgoing::UeIdle { guti: ctx.guti }])
    }

    fn handover_required(
        &mut self,
        mme_ue_id: u32,
        enb_ue_id: u32,
        source_enb: u32,
        target_enb: u32,
    ) -> Result<Vec<Outgoing>, MmeError> {
        let m_tmsi = self.tmsi_of(mme_ue_id)?;
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        if ctx.ecm != EcmState::Connected {
            return Err(MmeError::BadState("handover while not connected".into()));
        }
        ctx.procedure = Procedure::AwaitHandoverAck;
        ctx.record_access();
        self.pending_ho.insert(m_tmsi, (source_enb, enb_ue_id));
        let kasme = ctx.security.as_ref().map(|s| s.keys.kasme).unwrap_or([0; 32]);
        let pdu = S1apPdu::HandoverRequest {
            mme_ue_id,
            erabs: vec![ErabSetup {
                erab_id: ctx.bearer.ebi,
                qci: 9,
                gtp_teid: ctx.bearer.s1u_sgw_teid,
                transport_addr: ctx.bearer.s1u_sgw_addr,
            }],
            security_key: kasme,
        };
        Ok(vec![Outgoing::S1ap {
            enb_id: target_enb,
            pdu,
        }])
    }

    fn handover_ack(
        &mut self,
        mme_ue_id: u32,
        new_enb_ue_id: u32,
        target_enb: u32,
        _erabs: Vec<ErabSetup>,
    ) -> Result<Vec<Outgoing>, MmeError> {
        let m_tmsi = self.tmsi_of(mme_ue_id)?;
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        if ctx.procedure != Procedure::AwaitHandoverAck {
            return Err(MmeError::BadState("handover ack out of sequence".into()));
        }
        ctx.procedure = Procedure::AwaitHandoverNotify;
        let (source_enb, old_enb_ue_id) = *self
            .pending_ho
            .get(&m_tmsi)
            .ok_or(MmeError::BadState("no pending handover".into()))?;
        // Pre-record the target's ids; Notify confirms them.
        ctx.enb_id = target_enb;
        ctx.enb_ue_id = new_enb_ue_id;
        Ok(vec![Outgoing::S1ap {
            enb_id: source_enb,
            pdu: S1apPdu::HandoverCommand {
                mme_ue_id,
                enb_ue_id: old_enb_ue_id,
            },
        }])
    }

    fn handover_notify(
        &mut self,
        mme_ue_id: u32,
        enb_ue_id: u32,
        target_enb: u32,
        tai: Tai,
    ) -> Result<Vec<Outgoing>, MmeError> {
        let m_tmsi = self.tmsi_of(mme_ue_id)?;
        let seq = self.next_s11_seq(m_tmsi);
        let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
        if ctx.procedure != Procedure::AwaitHandoverNotify {
            return Err(MmeError::BadState("handover notify out of sequence".into()));
        }
        self.stats.handovers += 1;
        ctx.enb_id = target_enb;
        ctx.enb_ue_id = enb_ue_id;
        ctx.tai = tai;
        if !ctx.tai_list.contains(&tai) {
            ctx.tai_list.push(tai);
        }
        ctx.procedure = Procedure::AwaitModifyBearer;
        let (source_enb, old_enb_ue_id) = self.pending_ho.remove(&m_tmsi).unwrap_or((0, 0));
        let mut bearer = BearerContext::new(ctx.bearer.ebi);
        // The target eNodeB's S1-U endpoint travelled in the HO Request
        // Ack E-RAB list in real S1AP; our eNodeB model re-announces it
        // in Notify-adjacent Modify. Keep the S-GW-facing update simple:
        bearer.s1u_enodeb_fteid = Some(Fteid {
            iface: iface_type::S1U_ENODEB,
            teid: enb_ue_id,
            ipv4: [0, 0, 0, 0],
        });
        Ok(vec![
            Outgoing::S11(gtpc::Message {
                teid: ctx.bearer.s11_sgw_teid,
                sequence: seq,
                body: gtpc::Body::ModifyBearerRequest { bearer },
            }),
            Outgoing::S1ap {
                enb_id: source_enb,
                pdu: S1apPdu::UeContextReleaseCommand {
                    mme_ue_id,
                    enb_ue_id: old_enb_ue_id,
                    cause: s1_cause::SUCCESSFUL_HANDOVER,
                },
            },
        ])
    }

    // ----- S11 ----------------------------------------------------------

    fn handle_s11(&mut self, msg: gtpc::Message) -> Result<Vec<Outgoing>, MmeError> {
        match msg.body {
            gtpc::Body::CreateSessionResponse {
                cause,
                sender_fteid,
                paa,
                bearer,
            } => {
                let m_tmsi = self
                    .pending_s11
                    .remove(&msg.sequence)
                    .ok_or(MmeError::UnknownUe("unmatched CS response"))?;
                if !cause.is_accepted() {
                    self.stats.rejects += 1;
                    let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
                    ctx.procedure = Procedure::None;
                    ctx.emm = EmmState::Deregistered;
                    let enb_id = ctx.enb_id;
                    let pdu = S1apPdu::DownlinkNasTransport {
                        mme_ue_id: ctx.mme_ue_id,
                        enb_ue_id: ctx.enb_ue_id,
                        nas_pdu: EmmMessage::AttachReject {
                            cause: scale_nas::emm_cause::NETWORK_FAILURE,
                        }
                        .encode(),
                    };
                    return Ok(vec![Outgoing::S1ap { enb_id, pdu }]);
                }
                let t3412 = self.config.t3412_s;
                let apn = self.config.apn.clone();
                let ambr = (self.config.ambr_ul_kbps, self.config.ambr_dl_kbps);
                let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
                if let Some(f) = sender_fteid {
                    ctx.bearer.s11_sgw_teid = f.teid;
                }
                if let Some(b) = &bearer {
                    if let Some(f) = b.s1u_sgw_fteid {
                        ctx.bearer.s1u_sgw_teid = f.teid;
                        ctx.bearer.s1u_sgw_addr = f.ipv4;
                    }
                }
                if let Some(p) = paa {
                    ctx.bearer.pdn_addr = p;
                }
                ctx.procedure = Procedure::AwaitContextSetup;
                self.attach_done_flags.insert(m_tmsi, (false, false));

                // Attach Accept (protected now that a context exists)
                // plus the Initial Context Setup carrying the bearers.
                let accept = EmmMessage::AttachAccept {
                    guti: ctx.guti,
                    tai_list: ctx.tai_list.clone(),
                    t3412_s: t3412,
                    ebi: ctx.bearer.ebi,
                    apn,
                    pdn_addr: ctx.bearer.pdn_addr,
                };
                let nas = match ctx.security.as_mut() {
                    Some(sec) => sec.protect(
                        &accept,
                        Direction::Downlink,
                        SecurityHeader::IntegrityCiphered,
                    ),
                    None => accept.encode(),
                };
                let kasme = ctx.security.as_ref().map(|s| s.keys.kasme).unwrap_or([0; 32]);
                let enb_id = ctx.enb_id;
                Ok(vec![
                    Outgoing::S1ap {
                        enb_id,
                        pdu: S1apPdu::DownlinkNasTransport {
                            mme_ue_id: ctx.mme_ue_id,
                            enb_ue_id: ctx.enb_ue_id,
                            nas_pdu: nas,
                        },
                    },
                    Outgoing::S1ap {
                        enb_id,
                        pdu: S1apPdu::InitialContextSetupRequest {
                            mme_ue_id: ctx.mme_ue_id,
                            enb_ue_id: ctx.enb_ue_id,
                            erabs: vec![ErabSetup {
                                erab_id: ctx.bearer.ebi,
                                qci: 9,
                                gtp_teid: ctx.bearer.s1u_sgw_teid,
                                transport_addr: ctx.bearer.s1u_sgw_addr,
                            }],
                            ue_ambr_ul_kbps: ambr.0,
                            ue_ambr_dl_kbps: ambr.1,
                            security_key: kasme,
                        },
                    },
                ])
            }
            gtpc::Body::ModifyBearerResponse { cause, .. } => {
                let m_tmsi = self
                    .pending_s11
                    .remove(&msg.sequence)
                    .ok_or(MmeError::UnknownUe("unmatched MB response"))?;
                if !cause.is_accepted() {
                    self.stats.rejects += 1;
                    return Ok(vec![]);
                }
                let is_registering = {
                    let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
                    if ctx.procedure != Procedure::AwaitModifyBearer {
                        return Err(MmeError::BadState("MB response out of sequence".into()));
                    }
                    ctx.emm == EmmState::Registering
                };
                if is_registering {
                    // Attach flow: needs Attach Complete too.
                    let flags = self.attach_done_flags.entry(m_tmsi).or_insert((false, false));
                    flags.1 = true;
                    let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
                    ctx.procedure = Procedure::AwaitAttachComplete;
                    if self.attach_done_flags[&m_tmsi].0 {
                        self.attach_done_flags.remove(&m_tmsi);
                        return self.finish_attach(m_tmsi);
                    }
                    Ok(vec![])
                } else {
                    // Service request / handover flow completes here.
                    let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
                    ctx.ecm = EcmState::Connected;
                    ctx.procedure = Procedure::None;
                    Ok(vec![Outgoing::UeActive { guti: ctx.guti }])
                }
            }
            gtpc::Body::DeleteSessionResponse { .. } => {
                let m_tmsi = self
                    .pending_s11
                    .remove(&msg.sequence)
                    .ok_or(MmeError::UnknownUe("unmatched DS response"))?;
                let (switch_off, _) = self
                    .attach_done_flags
                    .remove(&m_tmsi)
                    .unwrap_or((false, false));
                self.stats.detaches += 1;
                let ctx = self
                    .remove_context(&Guti {
                        plmn: self.config.plmn,
                        mme_group_id: self.config.mme_group_id,
                        mme_code: self.config.mme_code,
                        m_tmsi,
                    })
                    .ok_or(MmeError::UnknownUe("detach context vanished"))?;
                let mut out = Vec::new();
                if !switch_off {
                    out.push(Outgoing::S1ap {
                        enb_id: ctx.enb_id,
                        pdu: S1apPdu::DownlinkNasTransport {
                            mme_ue_id: ctx.mme_ue_id,
                            enb_ue_id: ctx.enb_ue_id,
                            nas_pdu: EmmMessage::DetachAccept.encode(),
                        },
                    });
                }
                out.push(Outgoing::S1ap {
                    enb_id: ctx.enb_id,
                    pdu: S1apPdu::UeContextReleaseCommand {
                        mme_ue_id: ctx.mme_ue_id,
                        enb_ue_id: ctx.enb_ue_id,
                        cause: s1_cause::NAS_DETACH,
                    },
                });
                out.push(Outgoing::UeDetached { guti: ctx.guti });
                Ok(out)
            }
            gtpc::Body::ReleaseAccessBearersResponse { .. } => Ok(vec![]),
            gtpc::Body::DownlinkDataNotification { .. } => {
                // TEID addresses the UE's MME-side S11 endpoint.
                let m_tmsi = *self
                    .by_s11_teid
                    .get(&msg.teid)
                    .ok_or(MmeError::UnknownUe("s11 teid"))?;
                let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
                let mut out = vec![Outgoing::S11(gtpc::Message {
                    teid: ctx.bearer.s11_sgw_teid,
                    sequence: msg.sequence,
                    body: gtpc::Body::DownlinkDataNotificationAck {
                        cause: Cause::RequestAccepted,
                    },
                })];
                if ctx.ecm == EcmState::Idle && ctx.procedure == Procedure::None {
                    self.stats.pagings += 1;
                    ctx.procedure = Procedure::Paging;
                    out.push(Outgoing::S1ap {
                        // eNB id 0 = broadcast to all eNodeBs serving the
                        // TA list (the routing layer fans out).
                        enb_id: 0,
                        pdu: S1apPdu::Paging {
                            ue_paging_id: (self.config.mme_code, m_tmsi),
                            tai_list: ctx.tai_list.clone(),
                        },
                    });
                }
                Ok(out)
            }
            gtpc::Body::EchoRequest { recovery } => Ok(vec![Outgoing::S11(gtpc::Message {
                teid: 0,
                sequence: msg.sequence,
                body: gtpc::Body::EchoResponse { recovery },
            })]),
            other => Err(MmeError::BadState(format!(
                "unexpected S11 message at MME: {other:?}"
            ))),
        }
    }

    // ----- S6a ----------------------------------------------------------

    fn handle_s6a(&mut self, msg: &DiameterMsg) -> Result<Vec<Outgoing>, MmeError> {
        let s6a = S6a::from_msg(msg)?;
        let m_tmsi = self
            .pending_s6a
            .remove(&msg.hop_by_hop)
            .ok_or(MmeError::UnknownUe("unmatched S6a answer"))?;
        match s6a {
            S6a::AuthInfoAnswer { result, vectors } => {
                let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
                if ctx.procedure != Procedure::AwaitAuthVector {
                    return Err(MmeError::BadState("AIA out of sequence".into()));
                }
                if result != result_code::SUCCESS || vectors.is_empty() {
                    self.stats.rejects += 1;
                    ctx.emm = EmmState::Deregistered;
                    ctx.procedure = Procedure::None;
                    let enb_id = ctx.enb_id;
                    let pdu = S1apPdu::DownlinkNasTransport {
                        mme_ue_id: ctx.mme_ue_id,
                        enb_ue_id: ctx.enb_ue_id,
                        nas_pdu: EmmMessage::AttachReject {
                            cause: scale_nas::emm_cause::IMSI_UNKNOWN_IN_HSS,
                        }
                        .encode(),
                    };
                    return Ok(vec![Outgoing::S1ap { enb_id, pdu }]);
                }
                let EutranVector {
                    rand,
                    xres,
                    autn,
                    kasme,
                } = vectors[0];
                ctx.pending_xres = Some(xres);
                ctx.pending_kasme = Some(kasme);
                ctx.procedure = Procedure::AwaitAuthResponse;
                let auth_req = EmmMessage::AuthenticationRequest {
                    ksi: 1,
                    rand,
                    autn,
                };
                let enb_id = ctx.enb_id;
                let pdu = S1apPdu::DownlinkNasTransport {
                    mme_ue_id: ctx.mme_ue_id,
                    enb_ue_id: ctx.enb_ue_id,
                    nas_pdu: auth_req.encode(),
                };
                Ok(vec![Outgoing::S1ap { enb_id, pdu }])
            }
            S6a::UpdateLocationAnswer { result, .. } => {
                let imsi = {
                    let ctx = Self::ctx_mut_in(&mut self.contexts, m_tmsi)?;
                    if ctx.procedure != Procedure::AwaitUpdateLocation {
                        return Err(MmeError::BadState("ULA out of sequence".into()));
                    }
                    if result != result_code::SUCCESS {
                        self.stats.rejects += 1;
                        ctx.emm = EmmState::Deregistered;
                        ctx.procedure = Procedure::None;
                        return Ok(vec![]);
                    }
                    ctx.procedure = Procedure::AwaitCreateSession;
                    ctx.imsi.clone()
                };
                Ok(vec![self.create_session(m_tmsi, imsi)?])
            }
            other => Err(MmeError::BadState(format!(
                "unexpected S6a at MME: {other:?}"
            ))),
        }
    }
}
