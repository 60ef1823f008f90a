//! The UE (device) model: USIM-side EPS AKA, the NAS state machine and
//! the connectivity behaviours whose signaling load the paper studies —
//! attach, Idle/Active cycling via service requests, periodic TAUs,
//! paging responses and detach.

use bytes::Bytes;
use scale_crypto::kdf::{derive_kasme, nas_keys_from_kasme, NasSecurityKeys};
use scale_crypto::milenage::Milenage;
use scale_nas::security::{Direction, SecurityHeader};
use scale_nas::{is_protected, EmmMessage, Guti, MobileId, NasError, NasSecurityContext, Plmn, Tai};

use crate::hss::{provision_k, AMF, OP};

/// Connectivity state of the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UeState {
    Detached,
    /// Attach signalling in progress.
    Attaching,
    /// Registered with an active signalling connection.
    Active,
    /// Registered, radio idle.
    Idle,
}

/// What the UE wants the eNodeB to do after processing a downlink NAS
/// message.
#[derive(Debug, Clone, PartialEq)]
pub enum UeEvent {
    /// Send this uplink NAS message.
    SendNas(Bytes),
    /// Attach finished (Accept processed, Complete queued separately).
    Attached { guti: Guti, pdn_addr: [u8; 4] },
    /// The network rejected us.
    Rejected { cause: u8 },
    /// Detach accepted.
    Detached,
    /// Network authentication failed on the USIM (bad AUTN).
    NetworkAuthFailed,
}

/// A simulated device with a USIM.
pub struct Ue {
    pub imsi: String,
    milenage: Milenage,
    plmn: Plmn,
    pub state: UeState,
    pub guti: Option<Guti>,
    pub tai: Tai,
    sec: Option<NasSecurityContext>,
    /// Keys derived during AKA, parked until the SMC activates them.
    pending_keys: Option<NasSecurityKeys>,
    /// Service-request sequence (5 bits on the wire in real LTE).
    sr_seq: u8,
    pub pdn_addr: Option<[u8; 4]>,
}

impl Ue {
    /// Create a device whose K matches the HSS provisioning for `imsi`.
    pub fn new(imsi: &str, plmn: Plmn, tai: Tai) -> Self {
        let k = provision_k(imsi);
        Ue {
            imsi: imsi.to_string(),
            milenage: Milenage::from_op(&k, &OP),
            plmn,
            state: UeState::Detached,
            guti: None,
            tai,
            sec: None,
            pending_keys: None,
            sr_seq: 0,
            pdn_addr: None,
        }
    }

    /// Whether a NAS security context is established.
    pub fn has_security(&self) -> bool {
        self.sec.is_some()
    }

    /// Build the initial Attach Request. Uses the stored GUTI when
    /// available (re-attach), the IMSI otherwise.
    pub fn attach_request(&mut self) -> Bytes {
        self.state = UeState::Attaching;
        let id = match self.guti {
            Some(g) if self.sec.is_some() => MobileId::Guti(g),
            _ => MobileId::Imsi(self.imsi.clone()),
        };
        EmmMessage::AttachRequest {
            attach_type: 1,
            id,
            tai: self.tai,
        }
        .encode()
    }

    /// Build a Service Request (Idle→Active). `None` if the UE has no
    /// security context or GUTI yet.
    pub fn service_request(&mut self) -> Option<(Bytes, u32)> {
        let sec = self.sec.as_ref()?;
        let m_tmsi = self.guti?.m_tmsi;
        self.sr_seq = self.sr_seq.wrapping_add(1);
        let mac = sec.service_request_mac(1, self.sr_seq);
        Some((
            EmmMessage::ServiceRequest {
                ksi: 1,
                seq: self.sr_seq,
                short_mac: mac,
            }
            .encode(),
            m_tmsi,
        ))
    }

    /// Build a Tracking Area Update request for `new_tai`.
    pub fn tau_request(&mut self, new_tai: Tai) -> Option<(Bytes, u32)> {
        let guti = self.guti?;
        self.tai = new_tai;
        Some((
            EmmMessage::TauRequest { guti, tai: new_tai }.encode(),
            guti.m_tmsi,
        ))
    }

    /// Build a Detach Request (protected when possible).
    pub fn detach_request(&mut self, switch_off: bool) -> Option<Bytes> {
        let guti = self.guti?;
        let msg = EmmMessage::DetachRequest {
            switch_off,
            id: MobileId::Guti(guti),
        };
        Some(match self.sec.as_mut() {
            Some(sec) => sec.protect(&msg, Direction::Uplink, SecurityHeader::Integrity),
            None => msg.encode(),
        })
    }

    /// Power-cycle amnesia: drop the GUTI and security context so the
    /// next [`Ue::attach_request`] is a fresh IMSI attach. This is the
    /// recovery path when the network lost an Active-mode context that
    /// was never replicated (§4.6): a GUTI attach would be rejected
    /// with `UE_IDENTITY_UNKNOWN`, so the device starts over.
    pub fn forget_network(&mut self) {
        self.state = UeState::Detached;
        self.guti = None;
        self.sec = None;
        self.pending_keys = None;
        self.pdn_addr = None;
    }

    /// Radio released: the device is now Idle.
    pub fn radio_released(&mut self) {
        if self.state == UeState::Active {
            self.state = UeState::Idle;
        }
    }

    /// Process one downlink NAS message; produce follow-up events.
    pub fn handle_nas(&mut self, wire: Bytes) -> Result<Vec<UeEvent>, NasError> {
        let msg = if is_protected(&wire) {
            match self.sec.as_mut() {
                // First protected message is the SMC establishing the
                // context; it needs the keys derived during AKA.
                None => return self.handle_initial_smc(wire),
                Some(sec) => sec.unprotect(wire, Direction::Downlink)?,
            }
        } else {
            EmmMessage::decode(wire)?
        };
        self.dispatch(msg)
    }

    fn handle_initial_smc(&mut self, wire: Bytes) -> Result<Vec<UeEvent>, NasError> {
        let keys = self
            .pending_keys
            .take()
            .ok_or(NasError::NoSecurityContext)?;
        let mut sec = NasSecurityContext::new(keys, 1);
        let msg = sec.unprotect(wire, Direction::Downlink)?;
        match msg {
            EmmMessage::SecurityModeCommand { .. } => {
                let reply = sec.protect(
                    &EmmMessage::SecurityModeComplete,
                    Direction::Uplink,
                    SecurityHeader::Integrity,
                );
                self.sec = Some(sec);
                Ok(vec![UeEvent::SendNas(reply)])
            }
            // Any other protected first message activates the context
            // anyway and dispatches normally; every variant is named so
            // a new EMM message fails to compile here instead of taking
            // this path unseen.
            other @ (EmmMessage::AttachRequest { .. }
            | EmmMessage::AttachAccept { .. }
            | EmmMessage::AttachComplete
            | EmmMessage::AttachReject { .. }
            | EmmMessage::ServiceRequest { .. }
            | EmmMessage::ServiceReject { .. }
            | EmmMessage::AuthenticationRequest { .. }
            | EmmMessage::AuthenticationResponse { .. }
            | EmmMessage::AuthenticationReject
            | EmmMessage::AuthenticationFailure { .. }
            | EmmMessage::SecurityModeComplete
            | EmmMessage::SecurityModeReject { .. }
            | EmmMessage::TauRequest { .. }
            | EmmMessage::TauAccept { .. }
            | EmmMessage::TauComplete
            | EmmMessage::TauReject { .. }
            | EmmMessage::DetachRequest { .. }
            | EmmMessage::DetachAccept
            | EmmMessage::EmmStatus { .. }) => {
                self.sec = Some(sec);
                self.dispatch(other)
            }
        }
    }

    fn dispatch(&mut self, msg: EmmMessage) -> Result<Vec<UeEvent>, NasError> {
        match msg {
            EmmMessage::AuthenticationRequest { rand, autn, .. } => {
                // USIM: recompute AK, extract SQN, verify MAC-A.
                let out = self.milenage.f2345(&rand);
                let mut sqn = [0u8; 6];
                for i in 0..6 {
                    sqn[i] = autn[i] ^ out.ak[i];
                }
                let macs = self.milenage.f1(&rand, &sqn, &AMF);
                if autn[8..16] != macs.mac_a {
                    return Ok(vec![
                        UeEvent::NetworkAuthFailed,
                        UeEvent::SendNas(
                            EmmMessage::AuthenticationFailure {
                                cause: scale_nas::emm_cause::MAC_FAILURE,
                            }
                            .encode(),
                        ),
                    ]);
                }
                // Derive K_ASME and park the NAS keys until the SMC.
                let sqn_xor_ak: [u8; 6] = scale_crypto::take(&autn[..6]);
                let kasme = derive_kasme(&out.ck, &out.ik, &self.plmn.0, &sqn_xor_ak);
                self.pending_keys = Some(nas_keys_from_kasme(kasme));
                Ok(vec![UeEvent::SendNas(
                    EmmMessage::AuthenticationResponse { res: out.res }.encode(),
                )])
            }
            EmmMessage::SecurityModeCommand { .. } => {
                // Re-keying on an existing context.
                let sec = self.sec.as_mut().ok_or(NasError::NoSecurityContext)?;
                let reply = sec.protect(
                    &EmmMessage::SecurityModeComplete,
                    Direction::Uplink,
                    SecurityHeader::Integrity,
                );
                Ok(vec![UeEvent::SendNas(reply)])
            }
            EmmMessage::AttachAccept {
                guti, pdn_addr, tai_list, ..
            } => {
                self.guti = Some(guti);
                self.pdn_addr = Some(pdn_addr);
                if let Some(t) = tai_list.first() {
                    // Camp on the first TA of the assigned list.
                    if !tai_list.contains(&self.tai) {
                        self.tai = *t;
                    }
                }
                self.state = UeState::Active;
                let complete = match self.sec.as_mut() {
                    Some(sec) => sec.protect(
                        &EmmMessage::AttachComplete,
                        Direction::Uplink,
                        SecurityHeader::Integrity,
                    ),
                    None => EmmMessage::AttachComplete.encode(),
                };
                Ok(vec![
                    UeEvent::SendNas(complete),
                    UeEvent::Attached { guti, pdn_addr },
                ])
            }
            EmmMessage::AttachReject { cause } => {
                self.state = UeState::Detached;
                // A GUTI-based attach rejected with "identity unknown"
                // falls back to an IMSI attach at the behaviour layer.
                if cause == scale_nas::emm_cause::UE_IDENTITY_UNKNOWN {
                    self.guti = None;
                    self.sec = None;
                }
                Ok(vec![UeEvent::Rejected { cause }])
            }
            EmmMessage::TauAccept { guti, .. } => {
                if let Some(g) = guti {
                    self.guti = Some(g);
                }
                Ok(vec![])
            }
            EmmMessage::ServiceReject { cause } | EmmMessage::TauReject { cause } => {
                self.state = UeState::Detached;
                // Cause #9: the network cannot derive who we are — the
                // context was lost server-side. Drop the stale GUTI and
                // keys so the behaviour layer re-attaches by IMSI.
                if cause == scale_nas::emm_cause::UE_IDENTITY_UNKNOWN {
                    self.guti = None;
                    self.sec = None;
                }
                Ok(vec![UeEvent::Rejected { cause }])
            }
            EmmMessage::DetachAccept => {
                self.state = UeState::Detached;
                self.sec = None;
                Ok(vec![UeEvent::Detached])
            }
            EmmMessage::AuthenticationReject => {
                self.state = UeState::Detached;
                self.sec = None;
                Ok(vec![UeEvent::Rejected {
                    cause: scale_nas::emm_cause::ILLEGAL_UE,
                }])
            }
            EmmMessage::EmmStatus { .. } => Ok(vec![]),
            // Uplink-only messages can never arrive on the downlink;
            // named exhaustively so a new EMM message fails to compile
            // here instead of being silently dropped.
            other @ (EmmMessage::AttachRequest { .. }
            | EmmMessage::AttachComplete
            | EmmMessage::ServiceRequest { .. }
            | EmmMessage::AuthenticationResponse { .. }
            | EmmMessage::AuthenticationFailure { .. }
            | EmmMessage::SecurityModeComplete
            | EmmMessage::SecurityModeReject { .. }
            | EmmMessage::TauRequest { .. }
            | EmmMessage::TauComplete
            | EmmMessage::DetachRequest { .. }) => Err(NasError::Invalid {
                what: "unexpected downlink NAS at UE",
                value: other.msg_type() as u64,
            }),
        }
    }
}

impl Ue {
    /// Mark the service path as active (ICS completed on the eNodeB).
    pub fn radio_active(&mut self) {
        if self.state == UeState::Idle || self.state == UeState::Attaching {
            self.state = UeState::Active;
        }
    }

    /// Fold all behavior-steering UE state into `h` for model-checker
    /// state dedup. Security keys are hashed by presence only: the key
    /// material is a pure function of (imsi, rand) and never branches
    /// the protocol, so folding it in would only shrink the dedup rate.
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        self.imsi.hash(h);
        (self.state as u8).hash(h);
        self.guti.hash(h);
        self.tai.hash(h);
        (self.sec.is_some(), self.pending_keys.is_some()).hash(h);
        self.sr_seq.hash(h);
        self.pdn_addr.hash(h);
    }
}
