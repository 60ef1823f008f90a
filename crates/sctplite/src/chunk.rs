//! sctplite wire format: a message-oriented, multi-stream framing in the
//! spirit of SCTP (RFC 4960), which carries S1AP in real deployments.
//!
//! Every frame is `verification_tag(4) || chunk_type(1) || flags(1) ||
//! length(2) || chunk body`. DATA chunks carry a stream id, a per-stream
//! sequence number and a payload protocol id (PPID), exactly the SCTP
//! properties S1AP depends on: message boundaries, multiple ordered
//! streams, and liveness via heartbeats.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Chunk type codes (mirroring RFC 4960 numbering where it exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ChunkType {
    Data = 0,
    Init = 1,
    InitAck = 2,
    Heartbeat = 4,
    HeartbeatAck = 5,
    Abort = 6,
    Shutdown = 7,
    ShutdownAck = 8,
}

impl ChunkType {
    fn from_code(v: u8) -> Option<Self> {
        Some(match v {
            0 => ChunkType::Data,
            1 => ChunkType::Init,
            2 => ChunkType::InitAck,
            4 => ChunkType::Heartbeat,
            5 => ChunkType::HeartbeatAck,
            6 => ChunkType::Abort,
            7 => ChunkType::Shutdown,
            8 => ChunkType::ShutdownAck,
            _ => return None,
        })
    }
}

/// Errors from frame parsing or association handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SctpError {
    Truncated(&'static str),
    UnknownChunk(u8),
    /// Frame carried the wrong verification tag (mis-delivered/corrupt).
    BadTag { got: u32, want: u32 },
    /// Association is not in a state that allows this operation.
    BadState(&'static str),
    /// Per-stream sequence gap exceeded the reorder window.
    SequenceGap { stream: u16, got: u32, expected: u32 },
    /// The reserved flags byte was non-zero (corrupt or non-canonical).
    NonzeroFlags(u8),
    /// Bytes left over after the declared chunk body, or a fixed-size
    /// chunk body longer than its wire format: a canonical encoder
    /// never produces either, so the frame is corrupt.
    TrailingBytes(&'static str),
    /// Application payload too large for the 16-bit chunk length.
    Oversized(usize),
}

impl fmt::Display for SctpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SctpError::Truncated(w) => write!(f, "truncated sctplite {w}"),
            SctpError::UnknownChunk(t) => write!(f, "unknown chunk type {t}"),
            SctpError::BadTag { got, want } => {
                write!(f, "bad verification tag {got:#x} (want {want:#x})")
            }
            SctpError::BadState(s) => write!(f, "operation invalid in state {s}"),
            SctpError::SequenceGap { stream, got, expected } => write!(
                f,
                "stream {stream} sequence gap: got {got}, expected {expected}"
            ),
            SctpError::NonzeroFlags(b) => write!(f, "non-zero reserved flags {b:#04x}"),
            SctpError::TrailingBytes(w) => write!(f, "trailing bytes after {w}"),
            SctpError::Oversized(n) => {
                write!(f, "payload of {n} bytes exceeds the 16-bit chunk length")
            }
        }
    }
}

impl std::error::Error for SctpError {}

/// A parsed chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Chunk {
    /// Connection request: proposes the initiator's verification tag and
    /// outbound stream count.
    Init { init_tag: u32, num_streams: u16 },
    /// Connection accept: echoes the peer and proposes our tag.
    InitAck { init_tag: u32, num_streams: u16 },
    /// One application message on one stream.
    Data {
        stream_id: u16,
        seq: u32,
        ppid: u32,
        payload: Bytes,
    },
    Heartbeat { nonce: u64 },
    HeartbeatAck { nonce: u64 },
    Shutdown,
    ShutdownAck,
    Abort { reason: u8 },
}

impl Chunk {
    fn chunk_type(&self) -> ChunkType {
        match self {
            Chunk::Data { .. } => ChunkType::Data,
            Chunk::Init { .. } => ChunkType::Init,
            Chunk::InitAck { .. } => ChunkType::InitAck,
            Chunk::Heartbeat { .. } => ChunkType::Heartbeat,
            Chunk::HeartbeatAck { .. } => ChunkType::HeartbeatAck,
            Chunk::Abort { .. } => ChunkType::Abort,
            Chunk::Shutdown => ChunkType::Shutdown,
            Chunk::ShutdownAck => ChunkType::ShutdownAck,
        }
    }
}

/// A frame: verification tag + one chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub tag: u32,
    pub chunk: Chunk,
}

impl Frame {
    /// Serialize to bytes.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out.freeze()
    }

    /// Size of [`Frame::encode`]'s output: the 8-byte header plus the
    /// chunk body.
    pub fn encoded_len(&self) -> usize {
        8 + self.body_len()
    }

    fn body_len(&self) -> usize {
        match &self.chunk {
            Chunk::Init { .. } | Chunk::InitAck { .. } => 6,
            Chunk::Data { payload, .. } => 10 + payload.len(),
            Chunk::Heartbeat { .. } | Chunk::HeartbeatAck { .. } => 8,
            Chunk::Shutdown | Chunk::ShutdownAck => 0,
            Chunk::Abort { .. } => 1,
        }
    }

    /// Append exactly the bytes of [`Frame::encode`] to `out`, with no
    /// intermediate buffer — how a transport packs a burst of frames
    /// into one write.
    pub fn encode_into<B: BufMut>(&self, out: &mut B) {
        let body_len = self.body_len();
        debug_assert!(body_len <= u16::MAX as usize, "oversized chunk");
        out.put_u32(self.tag);
        out.put_u8(self.chunk.chunk_type() as u8);
        out.put_u8(0); // flags, reserved
        out.put_u16(body_len as u16);
        match &self.chunk {
            Chunk::Init { init_tag, num_streams }
            | Chunk::InitAck { init_tag, num_streams } => {
                out.put_u32(*init_tag);
                out.put_u16(*num_streams);
            }
            Chunk::Data {
                stream_id,
                seq,
                ppid,
                payload,
            } => {
                out.put_u16(*stream_id);
                out.put_u32(*seq);
                out.put_u32(*ppid);
                out.put_slice(payload);
            }
            Chunk::Heartbeat { nonce } | Chunk::HeartbeatAck { nonce } => out.put_u64(*nonce),
            Chunk::Shutdown | Chunk::ShutdownAck => {}
            Chunk::Abort { reason } => out.put_u8(*reason),
        }
    }

    /// Parse one frame. Strict and canonical: the reserved flags byte
    /// must be zero, the declared length must consume the buffer
    /// exactly, and fixed-size chunk bodies must be exactly their wire
    /// size — any successful decode re-encodes to the identical bytes.
    pub fn decode(mut buf: Bytes) -> Result<Frame, SctpError> {
        if buf.remaining() < 8 {
            return Err(SctpError::Truncated("frame header"));
        }
        let tag = buf.get_u32();
        let ty_code = buf.get_u8();
        let flags = buf.get_u8();
        if flags != 0 {
            return Err(SctpError::NonzeroFlags(flags));
        }
        let len = buf.get_u16() as usize;
        if buf.remaining() < len {
            return Err(SctpError::Truncated("chunk body"));
        }
        let mut body = buf.copy_to_bytes(len);
        if buf.remaining() != 0 {
            return Err(SctpError::TrailingBytes("chunk body"));
        }
        let ty = ChunkType::from_code(ty_code).ok_or(SctpError::UnknownChunk(ty_code))?;
        let chunk = match ty {
            ChunkType::Init | ChunkType::InitAck => {
                if body.remaining() < 6 {
                    return Err(SctpError::Truncated("init body"));
                }
                if body.remaining() > 6 {
                    return Err(SctpError::TrailingBytes("init body"));
                }
                let init_tag = body.get_u32();
                let num_streams = body.get_u16();
                if matches!(ty, ChunkType::Init) {
                    Chunk::Init { init_tag, num_streams }
                } else {
                    Chunk::InitAck { init_tag, num_streams }
                }
            }
            ChunkType::Data => {
                if body.remaining() < 10 {
                    return Err(SctpError::Truncated("data header"));
                }
                let stream_id = body.get_u16();
                let seq = body.get_u32();
                let ppid = body.get_u32();
                let n = body.remaining();
                Chunk::Data {
                    stream_id,
                    seq,
                    ppid,
                    payload: body.copy_to_bytes(n),
                }
            }
            ChunkType::Heartbeat | ChunkType::HeartbeatAck => {
                if body.remaining() < 8 {
                    return Err(SctpError::Truncated("heartbeat nonce"));
                }
                if body.remaining() > 8 {
                    return Err(SctpError::TrailingBytes("heartbeat nonce"));
                }
                let nonce = body.get_u64();
                if matches!(ty, ChunkType::Heartbeat) {
                    Chunk::Heartbeat { nonce }
                } else {
                    Chunk::HeartbeatAck { nonce }
                }
            }
            ChunkType::Shutdown | ChunkType::ShutdownAck => {
                if body.remaining() != 0 {
                    return Err(SctpError::TrailingBytes("shutdown body"));
                }
                if matches!(ty, ChunkType::Shutdown) {
                    Chunk::Shutdown
                } else {
                    Chunk::ShutdownAck
                }
            }
            ChunkType::Abort => {
                if body.remaining() < 1 {
                    return Err(SctpError::Truncated("abort reason"));
                }
                if body.remaining() > 1 {
                    return Err(SctpError::TrailingBytes("abort reason"));
                }
                Chunk::Abort {
                    reason: body.get_u8(),
                }
            }
        };
        Ok(Frame { tag, chunk })
    }
}

/// Largest application payload a DATA chunk can carry: the 16-bit
/// chunk length covers the 10-byte data header plus the payload.
pub const MAX_PAYLOAD: usize = u16::MAX as usize - 10;

/// Payload protocol identifiers carried in DATA chunks.
pub mod ppid {
    /// S1AP over sctplite (real S1AP uses SCTP PPID 18).
    pub const S1AP: u32 = 18;
    /// GTP-C tunnelled over the MLB↔MMP link.
    pub const GTPC: u32 = 100;
    /// Diameter/S6a.
    pub const DIAMETER: u32 = 46;
    /// SCALE-internal state replication and meta-data exchange.
    pub const SCALE_STATE: u32 = 200;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(chunk: Chunk) {
        let frame = Frame { tag: 0xfeed_f00d, chunk };
        let back = Frame::decode(frame.encode()).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn all_chunks_roundtrip() {
        roundtrip(Chunk::Init { init_tag: 7, num_streams: 4 });
        roundtrip(Chunk::InitAck { init_tag: 9, num_streams: 4 });
        roundtrip(Chunk::Data {
            stream_id: 1,
            seq: 42,
            ppid: ppid::S1AP,
            payload: Bytes::from_static(b"nas"),
        });
        roundtrip(Chunk::Data {
            stream_id: 0,
            seq: 0,
            ppid: 0,
            payload: Bytes::new(),
        });
        roundtrip(Chunk::Heartbeat { nonce: 0xdead });
        roundtrip(Chunk::HeartbeatAck { nonce: 0xdead });
        roundtrip(Chunk::Shutdown);
        roundtrip(Chunk::ShutdownAck);
        roundtrip(Chunk::Abort { reason: 3 });
    }

    #[test]
    fn unknown_chunk_type() {
        let mut bytes = Frame {
            tag: 1,
            chunk: Chunk::Shutdown,
        }
        .encode()
        .to_vec();
        bytes[4] = 99;
        assert_eq!(
            Frame::decode(Bytes::from(bytes)).unwrap_err(),
            SctpError::UnknownChunk(99)
        );
    }

    #[test]
    fn truncation_detected() {
        assert!(Frame::decode(Bytes::from_static(&[1, 2, 3])).is_err());
        // Header claims 10 body bytes but provides none.
        let raw = [0, 0, 0, 1, 0, 0, 0, 10];
        assert_eq!(
            Frame::decode(Bytes::copy_from_slice(&raw)).unwrap_err(),
            SctpError::Truncated("chunk body")
        );
    }

    #[test]
    fn nonzero_flags_rejected() {
        let mut bytes = Frame { tag: 1, chunk: Chunk::Shutdown }.encode().to_vec();
        bytes[5] = 0x80;
        assert_eq!(
            Frame::decode(Bytes::from(bytes)).unwrap_err(),
            SctpError::NonzeroFlags(0x80)
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        // Garbage appended after the declared chunk body: the decoder
        // must not silently over-read (or under-read) the buffer.
        let mut bytes = Frame {
            tag: 1,
            chunk: Chunk::Heartbeat { nonce: 7 },
        }
        .encode()
        .to_vec();
        bytes.push(0xaa);
        assert_eq!(
            Frame::decode(Bytes::from(bytes)).unwrap_err(),
            SctpError::TrailingBytes("chunk body")
        );
    }

    #[test]
    fn oversize_fixed_body_rejected() {
        // A HEARTBEAT whose declared length exceeds its wire format: a
        // canonical encoder never emits this, so it is corrupt.
        let mut bytes = Frame {
            tag: 1,
            chunk: Chunk::Heartbeat { nonce: 7 },
        }
        .encode()
        .to_vec();
        bytes[7] = 9; // declared body length 9 (> nonce's 8)
        bytes.push(0);
        assert_eq!(
            Frame::decode(Bytes::from(bytes)).unwrap_err(),
            SctpError::TrailingBytes("heartbeat nonce")
        );
        let mut shutdown = Frame { tag: 1, chunk: Chunk::Shutdown }.encode().to_vec();
        shutdown[7] = 1;
        shutdown.push(0);
        assert_eq!(
            Frame::decode(Bytes::from(shutdown)).unwrap_err(),
            SctpError::TrailingBytes("shutdown body")
        );
    }
}
