//! The sans-IO association state machine.
//!
//! An [`Association`] consumes inbound [`Frame`]s and application send
//! requests, and produces outbound frames plus [`Event`]s — it performs
//! no IO itself, so the same machine backs the in-memory transport used
//! by tests/simulations and the tokio TCP adapter used by the prototype.

use crate::chunk::{Chunk, Frame, SctpError};
use bytes::Bytes;
use std::collections::{BTreeMap, VecDeque};

/// Association lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssocState {
    Closed,
    /// Sent INIT, waiting for INIT-ACK.
    InitSent,
    Established,
    /// Sent SHUTDOWN, waiting for SHUTDOWN-ACK.
    ShutdownSent,
    Done,
}

/// Events surfaced to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    Established,
    /// An ordered application message arrived.
    Data {
        stream_id: u16,
        ppid: u32,
        payload: Bytes,
    },
    HeartbeatAck {
        nonce: u64,
    },
    /// Peer initiated or acknowledged shutdown; association is done.
    Closed,
    /// Peer aborted.
    Aborted {
        reason: u8,
    },
}

/// How many out-of-order messages per stream we will buffer before
/// declaring a sequence gap error.
const REORDER_WINDOW: usize = 64;

/// One end of an sctplite association.
#[derive(Debug)]
pub struct Association {
    state: AssocState,
    /// Tag we expect on inbound frames (chosen by us).
    local_tag: u32,
    /// Tag we must stamp on outbound frames (chosen by the peer).
    peer_tag: u32,
    num_streams: u16,
    /// Next sequence to assign, per outbound stream.
    tx_seq: BTreeMap<u16, u32>,
    /// Next sequence expected, per inbound stream.
    rx_seq: BTreeMap<u16, u32>,
    /// Out-of-order holding buffer per stream.
    reorder: BTreeMap<u16, BTreeMap<u32, (u32, Bytes)>>,
    /// Outbound frames awaiting the transport.
    egress: VecDeque<Frame>,
    /// Events awaiting the application.
    events: VecDeque<Event>,
}

impl Association {
    /// Create the initiating side; queues the INIT frame immediately.
    pub fn connect(local_tag: u32, num_streams: u16) -> Self {
        let mut a = Association::new(local_tag, num_streams);
        a.egress.push_back(Frame {
            // INIT travels with tag 0 — the peer doesn't know our tag yet.
            tag: 0,
            chunk: Chunk::Init {
                init_tag: local_tag,
                num_streams,
            },
        });
        a.state = AssocState::InitSent;
        a
    }

    /// Create the listening side; it becomes established upon INIT.
    pub fn listen(local_tag: u32, num_streams: u16) -> Self {
        Association::new(local_tag, num_streams)
    }

    fn new(local_tag: u32, num_streams: u16) -> Self {
        Association {
            state: AssocState::Closed,
            local_tag,
            peer_tag: 0,
            num_streams,
            tx_seq: BTreeMap::new(),
            rx_seq: BTreeMap::new(),
            reorder: BTreeMap::new(),
            egress: VecDeque::new(),
            events: VecDeque::new(),
        }
    }

    pub fn state(&self) -> AssocState {
        self.state
    }

    pub fn is_established(&self) -> bool {
        self.state == AssocState::Established
    }

    /// Queue an application message on `stream_id`.
    pub fn send(&mut self, stream_id: u16, ppid: u32, payload: Bytes) -> Result<(), SctpError> {
        if self.state != AssocState::Established {
            return Err(SctpError::BadState("send requires Established"));
        }
        if payload.len() > crate::chunk::MAX_PAYLOAD {
            return Err(SctpError::Oversized(payload.len()));
        }
        let seq = self.tx_seq.entry(stream_id).or_insert(0);
        self.egress.push_back(Frame {
            tag: self.peer_tag,
            chunk: Chunk::Data {
                stream_id,
                seq: *seq,
                ppid,
                payload,
            },
        });
        *seq += 1;
        Ok(())
    }

    /// Queue a heartbeat probe.
    pub fn heartbeat(&mut self, nonce: u64) -> Result<(), SctpError> {
        if self.state != AssocState::Established {
            return Err(SctpError::BadState("heartbeat requires Established"));
        }
        self.egress.push_back(Frame {
            tag: self.peer_tag,
            chunk: Chunk::Heartbeat { nonce },
        });
        Ok(())
    }

    /// Begin a graceful shutdown.
    pub fn shutdown(&mut self) {
        if self.state == AssocState::Established {
            self.egress.push_back(Frame {
                tag: self.peer_tag,
                chunk: Chunk::Shutdown,
            });
            self.state = AssocState::ShutdownSent;
        }
    }

    /// Abort with a reason code.
    pub fn abort(&mut self, reason: u8) {
        self.egress.push_back(Frame {
            tag: self.peer_tag,
            chunk: Chunk::Abort { reason },
        });
        self.state = AssocState::Done;
    }

    /// Feed one inbound frame; may queue events and egress frames.
    pub fn handle_frame(&mut self, frame: Frame) -> Result<(), SctpError> {
        // INIT arrives with tag 0; everything else must carry our tag.
        let is_init = matches!(frame.chunk, Chunk::Init { .. });
        if !is_init && frame.tag != self.local_tag {
            return Err(SctpError::BadTag {
                got: frame.tag,
                want: self.local_tag,
            });
        }
        match frame.chunk {
            Chunk::Init {
                init_tag,
                num_streams,
            } => {
                if self.state != AssocState::Closed {
                    return Err(SctpError::BadState("INIT in non-Closed state"));
                }
                self.peer_tag = init_tag;
                self.num_streams = self.num_streams.min(num_streams).max(1);
                self.egress.push_back(Frame {
                    tag: self.peer_tag,
                    chunk: Chunk::InitAck {
                        init_tag: self.local_tag,
                        num_streams: self.num_streams,
                    },
                });
                self.state = AssocState::Established;
                self.events.push_back(Event::Established);
            }
            Chunk::InitAck {
                init_tag,
                num_streams,
            } => {
                if self.state != AssocState::InitSent {
                    return Err(SctpError::BadState("INIT-ACK without INIT"));
                }
                self.peer_tag = init_tag;
                self.num_streams = self.num_streams.min(num_streams).max(1);
                self.state = AssocState::Established;
                self.events.push_back(Event::Established);
            }
            Chunk::Data {
                stream_id,
                seq,
                ppid,
                payload,
            } => {
                if self.state != AssocState::Established
                    && self.state != AssocState::ShutdownSent
                {
                    return Err(SctpError::BadState("DATA outside Established"));
                }
                self.accept_data(stream_id, seq, ppid, payload)?;
            }
            Chunk::Heartbeat { nonce } => {
                self.egress.push_back(Frame {
                    tag: self.peer_tag,
                    chunk: Chunk::HeartbeatAck { nonce },
                });
            }
            Chunk::HeartbeatAck { nonce } => {
                self.events.push_back(Event::HeartbeatAck { nonce });
            }
            Chunk::Shutdown => {
                self.egress.push_back(Frame {
                    tag: self.peer_tag,
                    chunk: Chunk::ShutdownAck,
                });
                self.state = AssocState::Done;
                self.events.push_back(Event::Closed);
            }
            Chunk::ShutdownAck => {
                self.state = AssocState::Done;
                self.events.push_back(Event::Closed);
            }
            Chunk::Abort { reason } => {
                self.state = AssocState::Done;
                self.events.push_back(Event::Aborted { reason });
            }
        }
        Ok(())
    }

    /// In-order delivery with a bounded reorder buffer: out-of-order
    /// arrivals (possible under fault injection / retransmission) are
    /// held and released in sequence.
    fn accept_data(
        &mut self,
        stream_id: u16,
        seq: u32,
        ppid: u32,
        payload: Bytes,
    ) -> Result<(), SctpError> {
        // Work on a local copy of the expected sequence number and write
        // it back once — avoids re-fetching the map entry mid-delivery.
        let mut expected = *self.rx_seq.entry(stream_id).or_insert(0);
        if seq < expected {
            // Duplicate of an already-delivered message: drop silently.
            return Ok(());
        }
        if seq == expected {
            expected += 1;
            self.events.push_back(Event::Data {
                stream_id,
                ppid,
                payload,
            });
            // Drain any buffered successors.
            let buf = self.reorder.entry(stream_id).or_default();
            while let Some((p, data)) = buf.remove(&expected) {
                expected += 1;
                self.events.push_back(Event::Data {
                    stream_id,
                    ppid: p,
                    payload: data,
                });
            }
            self.rx_seq.insert(stream_id, expected);
            return Ok(());
        }
        // Out of order: buffer within the window.
        let buf = self.reorder.entry(stream_id).or_default();
        if buf.len() >= REORDER_WINDOW {
            return Err(SctpError::SequenceGap {
                stream: stream_id,
                got: seq,
                expected,
            });
        }
        buf.insert(seq, (ppid, payload));
        Ok(())
    }

    /// Take the next outbound frame, if any.
    pub fn poll_egress(&mut self) -> Option<Frame> {
        self.egress.pop_front()
    }

    /// Take the next application event, if any.
    pub fn poll_event(&mut self) -> Option<Event> {
        self.events.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pump frames between two associations until both are idle.
    fn pump(a: &mut Association, b: &mut Association) {
        loop {
            let mut progressed = false;
            while let Some(f) = a.poll_egress() {
                b.handle_frame(f).unwrap();
                progressed = true;
            }
            while let Some(f) = b.poll_egress() {
                a.handle_frame(f).unwrap();
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    fn established_pair() -> (Association, Association) {
        let mut client = Association::connect(0x1111, 8);
        let mut server = Association::listen(0x2222, 8);
        pump(&mut client, &mut server);
        assert!(client.is_established());
        assert!(server.is_established());
        // Drain Established events.
        assert_eq!(client.poll_event(), Some(Event::Established));
        assert_eq!(server.poll_event(), Some(Event::Established));
        (client, server)
    }

    #[test]
    fn handshake_establishes_both_sides() {
        established_pair();
    }

    #[test]
    fn data_flows_in_order_per_stream() {
        let (mut c, mut s) = established_pair();
        c.send(1, 18, Bytes::from_static(b"one")).unwrap();
        c.send(1, 18, Bytes::from_static(b"two")).unwrap();
        c.send(2, 18, Bytes::from_static(b"other-stream")).unwrap();
        pump(&mut c, &mut s);
        assert_eq!(
            s.poll_event(),
            Some(Event::Data { stream_id: 1, ppid: 18, payload: Bytes::from_static(b"one") })
        );
        assert_eq!(
            s.poll_event(),
            Some(Event::Data { stream_id: 1, ppid: 18, payload: Bytes::from_static(b"two") })
        );
        assert_eq!(
            s.poll_event(),
            Some(Event::Data {
                stream_id: 2,
                ppid: 18,
                payload: Bytes::from_static(b"other-stream")
            })
        );
    }

    #[test]
    fn send_before_established_fails() {
        let mut a = Association::connect(1, 4);
        assert!(matches!(
            a.send(0, 0, Bytes::new()).unwrap_err(),
            SctpError::BadState(_)
        ));
    }

    #[test]
    fn out_of_order_data_is_reordered() {
        let (mut c, mut s) = established_pair();
        c.send(0, 18, Bytes::from_static(b"a")).unwrap();
        c.send(0, 18, Bytes::from_static(b"b")).unwrap();
        c.send(0, 18, Bytes::from_static(b"c")).unwrap();
        // Deliver frames in reverse.
        let mut frames = Vec::new();
        while let Some(f) = c.poll_egress() {
            frames.push(f);
        }
        for f in frames.into_iter().rev() {
            s.handle_frame(f).unwrap();
        }
        let collect: Vec<_> = std::iter::from_fn(|| s.poll_event())
            .map(|e| match e {
                Event::Data { payload, .. } => payload,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(collect, vec![
            Bytes::from_static(b"a"),
            Bytes::from_static(b"b"),
            Bytes::from_static(b"c"),
        ]);
    }

    #[test]
    fn duplicate_data_dropped() {
        let (mut c, mut s) = established_pair();
        c.send(0, 18, Bytes::from_static(b"x")).unwrap();
        let frame = c.poll_egress().unwrap();
        s.handle_frame(frame.clone()).unwrap();
        s.handle_frame(frame).unwrap(); // duplicate
        assert!(matches!(s.poll_event(), Some(Event::Data { .. })));
        assert_eq!(s.poll_event(), None);
    }

    #[test]
    fn wrong_tag_rejected() {
        let (mut c, mut s) = established_pair();
        c.send(0, 18, Bytes::from_static(b"x")).unwrap();
        let mut frame = c.poll_egress().unwrap();
        frame.tag ^= 0xffff;
        assert!(matches!(
            s.handle_frame(frame).unwrap_err(),
            SctpError::BadTag { .. }
        ));
    }

    #[test]
    fn heartbeat_roundtrip() {
        let (mut c, mut s) = established_pair();
        c.heartbeat(42).unwrap();
        pump(&mut c, &mut s);
        assert_eq!(c.poll_event(), Some(Event::HeartbeatAck { nonce: 42 }));
    }

    #[test]
    fn graceful_shutdown() {
        let (mut c, mut s) = established_pair();
        c.shutdown();
        pump(&mut c, &mut s);
        assert_eq!(s.poll_event(), Some(Event::Closed));
        assert_eq!(c.poll_event(), Some(Event::Closed));
        assert_eq!(c.state(), AssocState::Done);
        assert_eq!(s.state(), AssocState::Done);
    }

    #[test]
    fn abort_surfaces_reason() {
        let (mut c, mut s) = established_pair();
        c.abort(7);
        pump(&mut c, &mut s);
        assert_eq!(s.poll_event(), Some(Event::Aborted { reason: 7 }));
    }

    #[test]
    fn oversized_payload_rejected_before_encode() {
        let (mut c, _s) = established_pair();
        let too_big = Bytes::from(vec![0u8; crate::chunk::MAX_PAYLOAD + 1]);
        assert_eq!(
            c.send(0, 18, too_big).unwrap_err(),
            SctpError::Oversized(crate::chunk::MAX_PAYLOAD + 1)
        );
        // At the limit exactly, the frame must round-trip.
        let max = Bytes::from(vec![0u8; crate::chunk::MAX_PAYLOAD]);
        c.send(0, 18, max).unwrap();
        let frame = c.poll_egress().unwrap();
        assert_eq!(Frame::decode(frame.encode()).unwrap(), frame);
    }

    #[test]
    fn reorder_window_overflow_is_an_error() {
        let (mut c, mut s) = established_pair();
        // Send seq 0 plus REORDER_WINDOW+1 future messages; drop seq 0 so
        // everything else is out of order.
        for _ in 0..=REORDER_WINDOW + 1 {
            c.send(0, 18, Bytes::from_static(b"m")).unwrap();
        }
        let _dropped = c.poll_egress().unwrap(); // seq 0 lost
        let mut err = None;
        while let Some(f) = c.poll_egress() {
            if let Err(e) = s.handle_frame(f) {
                err = Some(e);
                break;
            }
        }
        assert!(matches!(err, Some(SctpError::SequenceGap { .. })));
    }
}
