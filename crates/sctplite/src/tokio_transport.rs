//! Tokio adapter: runs an sctplite association over a TCP stream with
//! length-delimited frames.
//!
//! This is the transport of the runnable prototype: eNodeB↔MLB and
//! MLB↔MMP links are `SctpStream`s, giving S1AP its message-oriented,
//! multi-stream semantics on a laptop without kernel SCTP. An optional
//! per-link artificial delay emulates inter-DC propagation the way the
//! paper used netem (§5.1 E4-ii).
//!
//! I/O works per burst, not per message: one `read` takes in every
//! frame the peer has sent so far, and every frame a call produces is
//! encoded into one buffer and leaves in one `write`.

use crate::assoc::{Association, Event};
use crate::chunk::{Frame, SctpError};
use bytes::{BufMut, Bytes};
use parking_lot::Mutex;
use scale_obs::{Counter, Histogram, Registry};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::tcp::{OwnedReadHalf, OwnedWriteHalf};
use tokio::net::{TcpListener, TcpStream};

/// Error type for the async transport.
#[derive(Debug)]
pub enum TransportError {
    Io(io::Error),
    Protocol(SctpError),
    /// Peer vanished: the TCP stream ended without a SHUTDOWN
    /// handshake. This is what a crashed MMP looks like from the MLB.
    Eof,
    /// Association closed cleanly via the SHUTDOWN / SHUTDOWN-ACK
    /// handshake — the peer *chose* to end the session.
    Closed,
    /// Peer aborted the association with a reason code.
    Aborted(u8),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "io: {e}"),
            TransportError::Protocol(e) => write!(f, "protocol: {e}"),
            TransportError::Eof => write!(f, "peer vanished"),
            TransportError::Closed => write!(f, "association closed cleanly"),
            TransportError::Aborted(reason) => write!(f, "association aborted: {reason}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<io::Error> for TransportError {
    fn from(e: io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl From<SctpError> for TransportError {
    fn from(e: SctpError) -> Self {
        TransportError::Protocol(e)
    }
}

/// Longest frame a length word may announce; anything longer is a
/// corrupt or hostile stream.
const MAX_FRAME_LEN: usize = 1 << 20;
/// Free buffer space guaranteed before each `read`.
const READ_CHUNK: usize = 16 * 1024;

/// Syscall batching counters: `read`s and the frames taken out of them,
/// `write`s and the frames packed into them. Links that share one
/// instance ([`SctpStream::count_bursts_into`]) add up into it, so a
/// process can report all of its links, dead ones included.
#[derive(Debug, Default)]
pub struct BurstStats {
    reads: AtomicU64,
    frames_read: AtomicU64,
    writes: AtomicU64,
    frames_written: AtomicU64,
}

impl BurstStats {
    /// The counters at this instant.
    pub fn snapshot(&self) -> BurstCounts {
        BurstCounts {
            reads: self.reads.load(Ordering::Relaxed),
            frames_read: self.frames_read.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            frames_written: self.frames_written.load(Ordering::Relaxed),
        }
    }

    fn count_write(&self, frames: usize) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.frames_written
            .fetch_add(frames as u64, Ordering::Relaxed);
    }
}

/// A [`BurstStats`] snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BurstCounts {
    /// `read` calls that returned data.
    pub reads: u64,
    /// Frames taken out of them.
    pub frames_read: u64,
    /// `write` calls.
    pub writes: u64,
    /// Frames packed into them.
    pub frames_written: u64,
}

impl BurstCounts {
    /// Mean frames per `read` (0 before the first).
    pub fn frames_per_read(&self) -> f64 {
        ratio(self.frames_read, self.reads)
    }

    /// Mean frames per `write` (0 before the first).
    pub fn frames_per_write(&self) -> f64 {
        ratio(self.frames_written, self.writes)
    }
}

fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Reassembles length-prefixed frames (`u32` big-endian length, then
/// the [`Frame`] bytes) from a byte stream. [`Framer::fill`] is one
/// `read` into a reused buffer; [`Framer::next_frame`] then takes out
/// every complete frame that read brought without touching the socket.
struct Framer {
    buf: Vec<u8>,
    /// Unconsumed bytes are `buf[start..end]`.
    start: usize,
    end: usize,
    stats: Arc<BurstStats>,
}

/// The length word at the head of `avail`, once all four bytes are in.
fn frame_len(avail: &[u8]) -> Result<Option<usize>, TransportError> {
    let &[a, b, c, d, ..] = avail else {
        return Ok(None);
    };
    let len = u32::from_be_bytes([a, b, c, d]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(TransportError::Protocol(SctpError::Truncated(
            "frame length implausible",
        )));
    }
    Ok(Some(len))
}

impl Framer {
    fn new(stats: Arc<BurstStats>) -> Framer {
        // The buffer is allocated on the first read, not here.
        Framer {
            buf: Vec::new(),
            start: 0,
            end: 0,
            stats,
        }
    }

    /// The next complete buffered frame, if any. Never reads.
    fn next_frame(&mut self) -> Result<Option<Frame>, TransportError> {
        let avail = &self.buf[self.start..self.end];
        let Some(len) = frame_len(avail)? else {
            return Ok(None);
        };
        let Some(body) = avail.get(4..4 + len) else {
            return Ok(None);
        };
        let body = Bytes::copy_from_slice(body);
        self.start += 4 + len;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        self.stats.frames_read.fetch_add(1, Ordering::Relaxed);
        Ok(Some(Frame::decode(body)?))
    }

    /// One `read` from `rd`, appended to the buffer. End of stream is
    /// [`TransportError::Eof`] at a frame boundary and an
    /// `UnexpectedEof` I/O error inside a frame.
    async fn fill<R: AsyncReadExt>(&mut self, rd: &mut R) -> Result<(), TransportError> {
        if self.buf.len() - self.end < READ_CHUNK {
            // Move the partial frame to the front, then grow only if
            // that still leaves too little room.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.buf.len() - self.end < READ_CHUNK {
                self.buf.resize(self.end + READ_CHUNK, 0);
            }
        }
        let n = loop {
            match rd.read(&mut self.buf[self.end..]).await {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        };
        if n == 0 {
            return Err(if self.start == self.end {
                TransportError::Eof
            } else {
                io::Error::from(io::ErrorKind::UnexpectedEof).into()
            });
        }
        self.end += n;
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Encode every frame `a` wants to transmit onto `out`, each behind its
/// length word. Returns how many frames that was.
fn drain_into(a: &mut Association, out: &mut Vec<u8>) -> usize {
    let mut frames = 0;
    while let Some(f) = a.poll_egress() {
        out.put_u32(f.encoded_len() as u32);
        f.encode_into(out);
        frames += 1;
    }
    frames
}

/// What an association event means to the application: `None` for the
/// internal `Established`, the close/crash split as errors.
fn surface(ev: Event) -> Option<Result<StreamEvent, TransportError>> {
    match ev {
        Event::Data {
            stream_id,
            ppid,
            payload,
        } => Some(Ok(StreamEvent::Data {
            stream_id,
            ppid,
            payload,
        })),
        Event::HeartbeatAck { nonce } => Some(Ok(StreamEvent::HeartbeatAck { nonce })),
        Event::Closed => Some(Err(TransportError::Closed)),
        Event::Aborted { reason } => Some(Err(TransportError::Aborted(reason))),
        Event::Established => None,
    }
}

/// Link-level metric handles for one monitored association: heartbeat
/// round-trip time and reconnect count. Register once per logical link
/// (e.g. MLB↔MMP-3) and attach with [`SctpStream::attach_metrics`];
/// clones share the same underlying registry entries, so a link that is
/// re-established keeps accumulating into the same series.
#[derive(Clone)]
pub struct LinkMetrics {
    rtt: Arc<Histogram>,
    reconnects: Arc<Counter>,
}

impl LinkMetrics {
    /// Register (or look up) the metrics of the link named `link` in
    /// `registry`: `scale_link_<link>_heartbeat_rtt_us` and
    /// `scale_link_<link>_reconnects_total`.
    pub fn register(registry: &Registry, link: &str) -> LinkMetrics {
        LinkMetrics {
            rtt: registry.histogram(
                &format!("scale_link_{link}_heartbeat_rtt_us"),
                "HEARTBEAT to HEARTBEAT-ACK round-trip time of the association",
            ),
            reconnects: registry.counter(
                &format!("scale_link_{link}_reconnects_total"),
                "Times the association was re-established after a failure",
            ),
        }
    }

    /// The heartbeat RTT histogram (µs).
    pub fn rtt(&self) -> &Histogram {
        &self.rtt
    }

    /// Number of re-establishments so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.get()
    }

    /// Count one re-establishment. [`SctpStream::reconnect`] calls this
    /// itself; a supervisor that replaces a dead link with a *fresh*
    /// connect + [`SctpStream::into_split`] records the event here.
    pub fn mark_reconnect(&self) {
        self.reconnects.inc();
    }
}

/// An established sctplite association over TCP.
pub struct SctpStream {
    assoc: Association,
    rd: OwnedReadHalf,
    wr: OwnedWriteHalf,
    framer: Framer,
    /// Encode buffer of [`Self::flush`], reused across writes.
    wbuf: Vec<u8>,
    /// Artificial one-way delay applied before each send (propagation
    /// emulation, like the paper's netem setup).
    pub link_delay: Duration,
    /// Attached link metrics, if any.
    metrics: Option<LinkMetrics>,
    /// Send times of heartbeats whose acks are still outstanding, used
    /// to compute RTT. Only populated while metrics are attached.
    pending_pings: Vec<(u64, Instant)>,
}

impl SctpStream {
    /// Client side: TCP connect + sctplite handshake.
    pub async fn connect(addr: &str, local_tag: u32) -> Result<SctpStream, TransportError> {
        let tcp = TcpStream::connect(addr).await?;
        SctpStream::establish(tcp, Association::connect(local_tag, 8)).await
    }

    /// Server side: accept + handshake on an incoming TCP connection.
    pub async fn accept(tcp: TcpStream, local_tag: u32) -> Result<SctpStream, TransportError> {
        SctpStream::establish(tcp, Association::listen(local_tag, 8)).await
    }

    /// Run the handshake of `assoc` (INIT out for a client, INIT in for
    /// a server) until it is established.
    async fn establish(tcp: TcpStream, assoc: Association) -> Result<SctpStream, TransportError> {
        tcp.set_nodelay(true)?;
        let (rd, wr) = tcp.into_split();
        let mut s = SctpStream {
            assoc,
            rd,
            wr,
            framer: Framer::new(Arc::default()),
            wbuf: Vec::new(),
            link_delay: Duration::ZERO,
            metrics: None,
            pending_pings: Vec::new(),
        };
        s.flush().await?;
        // Frame by frame, so data the peer sends right after its side
        // of the handshake stays buffered for `next_event`.
        while !s.assoc.is_established() {
            match s.framer.next_frame()? {
                Some(frame) => {
                    s.assoc.handle_frame(frame)?;
                    s.flush().await?;
                }
                None => s.framer.fill(&mut s.rd).await?,
            }
        }
        // Drain the Established event.
        while s.assoc.poll_event().is_some() {}
        Ok(s)
    }

    /// Observe this association: heartbeat RTTs recorded per
    /// [`ping`](Self::ping)/ack pair, re-establishments counted by
    /// [`reconnect`](Self::reconnect).
    pub fn attach_metrics(&mut self, metrics: LinkMetrics) {
        self.metrics = Some(metrics);
    }

    /// Count this link's reads and writes into `stats` from now on
    /// (carried over by [`Self::into_split`] and [`Self::reconnect`]).
    pub fn count_bursts_into(&mut self, stats: Arc<BurstStats>) {
        self.framer.stats = stats;
    }

    /// Tear down the old TCP stream and re-establish the association
    /// against `addr` (same or failover address), keeping the link
    /// delay, metrics and burst counters. Outstanding pings are
    /// forgotten — their acks died with the old association. Bumps the
    /// reconnect counter.
    pub async fn reconnect(&mut self, addr: &str, local_tag: u32) -> Result<(), TransportError> {
        let mut fresh = SctpStream::connect(addr, local_tag).await?;
        fresh.framer.stats = Arc::clone(&self.framer.stats);
        self.assoc = fresh.assoc;
        self.rd = fresh.rd;
        self.wr = fresh.wr;
        self.framer = fresh.framer;
        self.pending_pings.clear();
        if let Some(m) = &self.metrics {
            m.reconnects.inc();
        }
        Ok(())
    }

    /// Write everything the association has queued in one `write`.
    async fn flush(&mut self) -> Result<(), TransportError> {
        let frames = drain_into(&mut self.assoc, &mut self.wbuf);
        if frames == 0 {
            return Ok(());
        }
        let res = self.wr.write_all(&self.wbuf).await;
        self.wbuf.clear();
        res?;
        self.framer.stats.count_write(frames);
        Ok(())
    }

    /// Send one application message on `stream_id`.
    pub async fn send(
        &mut self,
        stream_id: u16,
        ppid: u32,
        payload: Bytes,
    ) -> Result<(), TransportError> {
        if !self.link_delay.is_zero() {
            tokio::time::sleep(self.link_delay).await;
        }
        self.assoc.send(stream_id, ppid, payload)?;
        self.flush().await
    }

    /// Receive the next association event: application data or a
    /// heartbeat ack. Clean close, abort, and raw TCP loss surface as
    /// the corresponding [`TransportError`] variants so a monitor can
    /// tell a departed peer from a dead one.
    pub async fn next_event(&mut self) -> Result<StreamEvent, TransportError> {
        loop {
            // Surface any already-queued events first.
            while let Some(ev) = self.assoc.poll_event() {
                if let Event::HeartbeatAck { nonce } = ev {
                    if let Some(at) = self
                        .pending_pings
                        .iter()
                        .position(|(n, _)| *n == nonce)
                        .map(|i| self.pending_pings.swap_remove(i).1)
                    {
                        if let Some(m) = &self.metrics {
                            m.rtt.record_duration(at.elapsed());
                        }
                    }
                }
                if let Some(res) = surface(ev) {
                    return res;
                }
            }
            // Feed every buffered frame, answer them in one write, and
            // read only when nothing is buffered.
            let mut fed = false;
            while let Some(frame) = self.framer.next_frame()? {
                self.assoc.handle_frame(frame)?;
                fed = true;
            }
            if fed {
                self.flush().await?;
            } else {
                self.framer.fill(&mut self.rd).await?;
            }
        }
    }

    /// Receive the next application message `(stream_id, ppid, payload)`.
    /// Heartbeat acks are handled transparently; see [`Self::next_event`]
    /// for the close/crash distinction in the error.
    pub async fn recv(&mut self) -> Result<(u16, u32, Bytes), TransportError> {
        loop {
            if let StreamEvent::Data {
                stream_id,
                ppid,
                payload,
            } = self.next_event().await?
            {
                return Ok((stream_id, ppid, payload));
            }
        }
    }

    /// Send a HEARTBEAT probe carrying `nonce`. The peer's ack comes
    /// back as [`StreamEvent::HeartbeatAck`] from [`Self::next_event`].
    pub async fn ping(&mut self, nonce: u64) -> Result<(), TransportError> {
        if self.metrics.is_some() {
            self.pending_pings.push((nonce, Instant::now()));
        }
        self.assoc.heartbeat(nonce)?;
        self.flush().await
    }

    /// Graceful shutdown handshake: send SHUTDOWN and wait for the
    /// peer's SHUTDOWN-ACK. `Ok(())` means the association closed
    /// cleanly on both sides; any in-flight application data still
    /// unread when the handshake starts is discarded. An `Eof` here
    /// means the peer died mid-handshake.
    pub async fn shutdown(&mut self) -> Result<(), TransportError> {
        self.assoc.shutdown();
        self.flush().await?;
        loop {
            match self.next_event().await {
                Err(TransportError::Closed) => return Ok(()),
                Err(e) => return Err(e),
                Ok(_) => {} // drain leftover data/acks
            }
        }
    }

    /// Split into an independently-usable [`SctpSendHalf`] and
    /// [`SctpRecvHalf`] so one task can block in `next_event` while
    /// another sends — the shape every wire-deployment role needs
    /// (a reader pump per link plus a router thread that replies).
    ///
    /// Outbound frames — whether queued by the send half or generated
    /// by the receive half (heartbeat acks, shutdown handshake) — go
    /// through a *bounded* egress queue of `egress_capacity` frames
    /// drained by a dedicated writer task, which writes everything
    /// queued since its last write in one `write`. A full queue blocks
    /// the sender: that is the transport's backpressure. A shedding
    /// caller checks [`SctpSendHalf::pending`] against
    /// [`SctpSendHalf::capacity`] *before* sending.
    ///
    /// `link_delay`, attached metrics and outstanding pings do not
    /// carry over; a supervisor owns RTT bookkeeping for split links.
    /// Bytes already read stay buffered for the receive half.
    pub fn into_split(self, egress_capacity: usize) -> (SctpSendHalf, SctpRecvHalf) {
        let egress = Arc::new(Egress::new(
            egress_capacity.max(1),
            Arc::clone(&self.framer.stats),
        ));
        let shared = Arc::new(SplitShared {
            assoc: Mutex::new(self.assoc),
            egress: Arc::clone(&egress),
        });
        let mut wr = self.wr;
        // Writer task: one write per wake-up, covering every burst
        // queued meanwhile. Exits when both halves are gone and the
        // queue is written, or the peer stops accepting bytes; dropping
        // the write half then shuts down the TCP write direction.
        tokio::spawn(async move {
            let mut batch = Vec::new();
            while let Some(frames) = egress.take(&mut batch) {
                let res = wr.write_all(&batch).await;
                batch.clear();
                if res.is_err() {
                    egress.fail();
                    break;
                }
                egress.written(frames);
            }
        });
        (
            SctpSendHalf {
                shared: Arc::clone(&shared),
            },
            SctpRecvHalf {
                shared,
                rd: self.rd,
                framer: self.framer,
            },
        )
    }
}

/// The egress queue of a split stream: encoded bursts back to back,
/// bounded in frames (not bursts), drained by the writer task.
struct Egress {
    state: std::sync::Mutex<EgressState>,
    /// Signalled when a burst is queued or the halves hang up.
    queued: Condvar,
    /// Signalled when frames leave the queue or the writer fails.
    room: Condvar,
    capacity: usize,
    stats: Arc<BurstStats>,
}

#[derive(Default)]
struct EgressState {
    /// Queued bursts in FIFO order, ready to write as they stand.
    bytes: Vec<u8>,
    /// Frames in `bytes`.
    frames: usize,
    /// Frames queued or being written: what `pending()` reports.
    depth: usize,
    /// Both halves are gone; the writer exits once `bytes` is out.
    hung_up: bool,
    /// The writer hit a TCP error and exited; nothing more is written.
    failed: bool,
    /// The writer waits on `queued`, senders on `room`: a condvar is
    /// signalled only when someone waits on it, which saves a futex
    /// call on almost every push and write.
    writer_waiting: bool,
    senders_waiting: usize,
}

impl Egress {
    fn new(capacity: usize, stats: Arc<BurstStats>) -> Egress {
        Egress {
            state: std::sync::Mutex::new(EgressState::default()),
            queued: Condvar::new(),
            room: Condvar::new(),
            capacity,
            stats,
        }
    }

    fn lock(&self) -> MutexGuard<'_, EgressState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queue one encoded burst of `frames` frames. Blocks while the
    /// queue holds frames and this burst would take it past capacity;
    /// a burst larger than the whole capacity waits for an empty queue
    /// and then goes alone. A failed writer means the peer is gone.
    fn push(&self, burst: &[u8], frames: usize) -> Result<(), TransportError> {
        let mut st = self.lock();
        while !st.failed && st.depth > 0 && st.depth + frames > self.capacity {
            st.senders_waiting += 1;
            st = self.room.wait(st).unwrap_or_else(PoisonError::into_inner);
            st.senders_waiting -= 1;
        }
        if st.failed {
            return Err(TransportError::Eof);
        }
        st.bytes.extend_from_slice(burst);
        st.frames += frames;
        st.depth += frames;
        let wake = st.writer_waiting;
        drop(st);
        if wake {
            self.queued.notify_one();
        }
        Ok(())
    }

    /// Writer side: wait for queued bursts and swap all of them into
    /// the empty `batch`. Returns their frame count, or `None` once the
    /// halves have hung up and the queue is empty.
    fn take(&self, batch: &mut Vec<u8>) -> Option<usize> {
        let mut st = self.lock();
        while st.frames == 0 && !st.hung_up {
            st.writer_waiting = true;
            st = self.queued.wait(st).unwrap_or_else(PoisonError::into_inner);
            st.writer_waiting = false;
        }
        if st.frames == 0 {
            return None;
        }
        std::mem::swap(&mut st.bytes, batch);
        Some(std::mem::take(&mut st.frames))
    }

    /// Writer side: a batch of `frames` frames is on the wire.
    fn written(&self, frames: usize) {
        self.stats.count_write(frames);
        let wake = {
            let mut st = self.lock();
            st.depth -= frames;
            st.senders_waiting > 0
        };
        if wake {
            self.room.notify_all();
        }
    }

    /// Writer side: the TCP write failed; wake and fail every sender.
    fn fail(&self) {
        {
            let mut st = self.lock();
            st.failed = true;
            st.bytes.clear();
            st.frames = 0;
            st.depth = 0;
        }
        self.room.notify_all();
    }

    fn hang_up(&self) {
        self.lock().hung_up = true;
        self.queued.notify_one();
    }

    fn pending(&self) -> usize {
        self.lock().depth
    }
}

/// State shared by the two halves of a split [`SctpStream`].
struct SplitShared {
    /// The sans-IO state machine. Guard discipline: lock, mutate, encode
    /// the egress into a local buffer, unlock — a guard is never held
    /// across an `.await` (scale-lint's await-guard rule watches this
    /// file) nor while waiting for egress room.
    assoc: Mutex<Association>,
    egress: Arc<Egress>,
}

impl SplitShared {
    /// Run `op` on the state machine, then queue every frame it (or
    /// anything before it) produced as one burst. Frames queued before
    /// an error still go out.
    fn run(
        &self,
        op: impl FnOnce(&mut Association) -> Result<(), SctpError>,
    ) -> Result<(), TransportError> {
        // Sized for a typical burst, so encoding rarely reallocates.
        let mut wire = Vec::with_capacity(512);
        let (res, frames) = {
            let mut a = self.assoc.lock();
            let res = op(&mut a);
            (res, drain_into(&mut a, &mut wire))
        };
        if frames > 0 {
            self.egress.push(&wire, frames)?;
        }
        Ok(res?)
    }
}

impl Drop for SplitShared {
    /// Both halves are gone: let the writer finish and exit.
    fn drop(&mut self) {
        self.egress.hang_up();
    }
}

/// The sending side of a split [`SctpStream`]. Every method is
/// synchronous: it runs the state machine under a short lock, then
/// pushes the encoded frames onto the bounded egress queue as one burst
/// (blocking if the queue is full — see [`Self::pending`] to shed
/// instead).
#[derive(Clone)]
pub struct SctpSendHalf {
    shared: Arc<SplitShared>,
}

impl SctpSendHalf {
    /// Send one application message on `stream_id`: a burst of one.
    pub fn send(&self, stream_id: u16, ppid: u32, payload: Bytes) -> Result<(), TransportError> {
        self.send_burst(stream_id, ppid, std::iter::once(payload))
    }

    /// Send several application messages on `stream_id`, in order, as
    /// one burst: one queue push, and one `write` unless the writer is
    /// already behind. The burst counts against the egress bound frame
    /// by frame.
    pub fn send_burst<I>(
        &self,
        stream_id: u16,
        ppid: u32,
        payloads: I,
    ) -> Result<(), TransportError>
    where
        I: IntoIterator<Item = Bytes>,
    {
        self.shared.run(|a| {
            payloads
                .into_iter()
                .try_for_each(|p| a.send(stream_id, ppid, p))
        })
    }

    /// Send a HEARTBEAT probe; the ack surfaces on the receive half.
    pub fn ping(&self, nonce: u64) -> Result<(), TransportError> {
        self.shared.run(|a| a.heartbeat(nonce))
    }

    /// Begin the graceful SHUTDOWN handshake. The peer's ack completes
    /// it on the receive half (which then yields
    /// [`TransportError::Closed`]).
    pub fn shutdown_send(&self) -> Result<(), TransportError> {
        self.shared.run(|a| {
            a.shutdown();
            Ok(())
        })
    }

    /// Frames queued for the writer task but not yet written. At
    /// [`Self::capacity`], the next send blocks — a shedding caller
    /// treats that as "link congested" and drops low-priority work
    /// instead.
    pub fn pending(&self) -> usize {
        self.shared.egress.pending()
    }

    /// Bound of the egress queue chosen at split time, in frames.
    pub fn capacity(&self) -> usize {
        self.shared.egress.capacity
    }
}

/// The receiving side of a split [`SctpStream`]. Protocol frames that
/// demand a response (heartbeats, shutdown) are answered through the
/// same egress queue the send half uses.
pub struct SctpRecvHalf {
    shared: Arc<SplitShared>,
    rd: OwnedReadHalf,
    framer: Framer,
}

impl SctpRecvHalf {
    /// Receive the next association event; same contract as
    /// [`SctpStream::next_event`]. Reads only when nothing is buffered.
    pub async fn next_event(&mut self) -> Result<StreamEvent, TransportError> {
        loop {
            if let Some(ev) = self.try_next_event()? {
                return Ok(ev);
            }
            self.framer.fill(&mut self.rd).await?;
        }
    }

    /// The next event from what is already buffered, without reading:
    /// `Ok(None)` when only the socket could produce one. After a
    /// [`Self::next_event`], calling this until `None` takes the rest
    /// of the burst that read brought in.
    pub fn try_next_event(&mut self) -> Result<Option<StreamEvent>, TransportError> {
        loop {
            let mut wire = Vec::new();
            let (ev, frames) = {
                let mut a = self.shared.assoc.lock();
                let mut ev = a.poll_event();
                if ev.is_none() {
                    // Feed every buffered frame under one lock.
                    while let Some(frame) = self.framer.next_frame()? {
                        a.handle_frame(frame)?;
                    }
                    ev = a.poll_event();
                }
                (ev, drain_into(&mut a, &mut wire))
            };
            if frames > 0 {
                self.shared.egress.push(&wire, frames)?;
            }
            let Some(ev) = ev else {
                return Ok(None);
            };
            if let Some(res) = surface(ev) {
                return res.map(Some);
            }
        }
    }

    /// Receive the next application message `(stream_id, ppid, payload)`,
    /// handling heartbeat acks transparently.
    pub async fn recv(&mut self) -> Result<(u16, u32, Bytes), TransportError> {
        loop {
            if let StreamEvent::Data {
                stream_id,
                ppid,
                payload,
            } = self.next_event().await?
            {
                return Ok((stream_id, ppid, payload));
            }
        }
    }
}

/// What [`SctpStream::next_event`] yields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent {
    /// One application message.
    Data {
        stream_id: u16,
        ppid: u32,
        payload: Bytes,
    },
    /// The peer answered a [`SctpStream::ping`].
    HeartbeatAck { nonce: u64 },
}

/// Listener wrapper producing handshaken [`SctpStream`]s.
pub struct SctpListener {
    tcp: TcpListener,
    next_tag: u32,
}

impl SctpListener {
    pub async fn bind(addr: &str) -> Result<SctpListener, TransportError> {
        Ok(SctpListener {
            tcp: TcpListener::bind(addr).await?,
            next_tag: 0x5000_0000,
        })
    }

    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.tcp.local_addr()
    }

    pub async fn accept(&mut self) -> Result<SctpStream, TransportError> {
        let (stream, _peer) = self.tcp.accept().await?;
        self.next_tag += 1;
        SctpStream::accept(stream, self.next_tag).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{ppid, Chunk};
    use std::collections::VecDeque;
    use std::sync::atomic::AtomicBool;

    #[tokio::test]
    async fn connect_send_recv_over_tcp() {
        let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = tokio::spawn(async move {
            let mut s = listener.accept().await.unwrap();
            let (sid, p, payload) = s.recv().await.unwrap();
            assert_eq!((sid, p), (1, ppid::S1AP));
            s.send(1, ppid::S1AP, payload).await.unwrap(); // echo
        });
        let mut client = SctpStream::connect(&addr, 0x1234).await.unwrap();
        client
            .send(1, ppid::S1AP, Bytes::from_static(b"initial-ue-message"))
            .await
            .unwrap();
        let (sid, p, payload) = client.recv().await.unwrap();
        assert_eq!((sid, p), (1, ppid::S1AP));
        assert_eq!(&payload[..], b"initial-ue-message");
        server.await.unwrap();
    }

    #[tokio::test]
    async fn many_messages_keep_order() {
        let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = tokio::spawn(async move {
            let mut s = listener.accept().await.unwrap();
            for i in 0..200u32 {
                let (_, _, payload) = s.recv().await.unwrap();
                assert_eq!(u32::from_be_bytes(payload[..].try_into().unwrap()), i);
            }
        });
        let mut client = SctpStream::connect(&addr, 0x9).await.unwrap();
        for i in 0..200u32 {
            client
                .send(0, ppid::GTPC, Bytes::from(i.to_be_bytes().to_vec()))
                .await
                .unwrap();
        }
        server.await.unwrap();
    }

    #[tokio::test]
    async fn eof_on_peer_drop() {
        let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = tokio::spawn(async move {
            let _s = listener.accept().await.unwrap();
            // Dropped immediately: TCP closes.
        });
        let mut client = SctpStream::connect(&addr, 0x9).await.unwrap();
        server.await.unwrap();
        assert!(matches!(client.recv().await, Err(TransportError::Eof)));
    }

    #[tokio::test]
    async fn clean_shutdown_is_not_a_crash() {
        // The SHUTDOWN handshake must surface as `Closed` on the
        // passive side and complete with `Ok` on the initiator —
        // distinct from the `Eof` a dead peer produces.
        let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = tokio::spawn(async move {
            let mut s = listener.accept().await.unwrap();
            let err = s.recv().await.unwrap_err();
            assert!(matches!(err, TransportError::Closed), "got {err:?}");
        });
        let mut client = SctpStream::connect(&addr, 0x31).await.unwrap();
        client.shutdown().await.unwrap();
        server.await.unwrap();
    }

    #[tokio::test]
    async fn abort_is_neither_a_crash_nor_a_close() {
        let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = tokio::spawn(async move {
            let mut s = listener.accept().await.unwrap();
            s.assoc.abort(7);
            s.flush().await.unwrap();
            // Hold the socket open until the client has read the abort.
            let _ = s.recv().await;
        });
        let client = SctpStream::connect(&addr, 0x33).await.unwrap();
        let (tx, mut rx) = client.into_split(4);
        assert!(matches!(
            rx.next_event().await,
            Err(TransportError::Aborted(7))
        ));
        drop((tx, rx));
        server.await.unwrap();
    }

    #[tokio::test]
    async fn heartbeat_ack_roundtrip() {
        let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = tokio::spawn(async move {
            let mut s = listener.accept().await.unwrap();
            // The ack is generated inside the event pump; the server
            // just has to keep reading until the client closes.
            let err = s.recv().await.unwrap_err();
            assert!(matches!(err, TransportError::Closed));
        });
        let mut client = SctpStream::connect(&addr, 0x32).await.unwrap();
        client.ping(0xdead_beef).await.unwrap();
        match client.next_event().await.unwrap() {
            StreamEvent::HeartbeatAck { nonce } => assert_eq!(nonce, 0xdead_beef),
            other => panic!("expected heartbeat ack, got {other:?}"),
        }
        client.shutdown().await.unwrap();
        server.await.unwrap();
    }

    #[tokio::test]
    async fn split_halves_echo_ack_and_clean_close() {
        let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = tokio::spawn(async move {
            let s = listener.accept().await.unwrap();
            let (tx, mut rx) = s.into_split(16);
            loop {
                match rx.next_event().await {
                    Ok(StreamEvent::Data {
                        stream_id,
                        ppid,
                        payload,
                    }) => tx.send(stream_id, ppid, payload).unwrap(),
                    Ok(StreamEvent::HeartbeatAck { .. }) => {}
                    Err(TransportError::Closed) => break,
                    Err(e) => panic!("server: {e}"),
                }
            }
        });
        let client = SctpStream::connect(&addr, 0x77).await.unwrap();
        let (tx, mut rx) = client.into_split(16);
        assert_eq!(tx.capacity(), 16);
        tx.ping(0xabc).unwrap();
        for i in 0..50u32 {
            tx.send(2, ppid::S1AP, Bytes::from(i.to_be_bytes().to_vec()))
                .unwrap();
        }
        let (mut seen, mut acked) = (0u32, false);
        while seen < 50 {
            match rx.next_event().await.unwrap() {
                StreamEvent::Data { payload, .. } => {
                    assert_eq!(u32::from_be_bytes(payload[..].try_into().unwrap()), seen);
                    seen += 1;
                }
                StreamEvent::HeartbeatAck { nonce } => {
                    assert_eq!(nonce, 0xabc);
                    acked = true;
                }
            }
        }
        assert!(acked, "peer's event pump must answer the ping");
        tx.shutdown_send().unwrap();
        match rx.next_event().await {
            Err(TransportError::Closed) => {}
            other => panic!("expected clean close, got {other:?}"),
        }
        assert_eq!(tx.pending(), 0, "egress must be drained at close");
        server.await.unwrap();
    }

    #[tokio::test]
    async fn split_send_half_sees_peer_death_as_eof() {
        let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = tokio::spawn(async move {
            let _s = listener.accept().await.unwrap();
            // Dropped: TCP closes without a shutdown handshake.
        });
        let client = SctpStream::connect(&addr, 0x78).await.unwrap();
        let (tx, mut rx) = client.into_split(4);
        server.await.unwrap();
        assert!(matches!(rx.next_event().await, Err(TransportError::Eof)));
        // Once the reader saw EOF and both TCP halves are dead, pushes
        // eventually fail too (writer exits on its first failed write).
        let mut saw_err = false;
        for i in 0..500u32 {
            if tx.send(0, 0, Bytes::from(i.to_be_bytes().to_vec())).is_err() {
                saw_err = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(saw_err, "send half must eventually surface the dead link");
    }

    #[tokio::test]
    async fn link_delay_is_applied() {
        let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = tokio::spawn(async move {
            let mut s = listener.accept().await.unwrap();
            let _ = s.recv().await.unwrap();
        });
        let mut client = SctpStream::connect(&addr, 0x9).await.unwrap();
        client.link_delay = Duration::from_millis(30);
        let t0 = std::time::Instant::now();
        client.send(0, 0, Bytes::from_static(b"x")).await.unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(30));
        server.await.unwrap();
    }

    /// A byte source that hands out one scripted chunk per `read`, then
    /// end of stream.
    struct Script(VecDeque<Vec<u8>>);

    impl AsyncReadExt for Script {
        async fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(mut chunk) = self.0.pop_front() else {
                return Ok(0);
            };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                self.0.push_front(chunk.split_off(n));
            }
            Ok(n)
        }

        async fn read_exact(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            unreachable!("the framer only calls read")
        }
    }

    fn data_frame(i: u32) -> Frame {
        Frame {
            tag: 0x0bad_cafe,
            chunk: Chunk::Data {
                stream_id: 1,
                seq: i,
                ppid: ppid::S1AP,
                payload: Bytes::from(i.to_be_bytes().to_vec()),
            },
        }
    }

    fn wire(frames: &[Frame]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in frames {
            out.put_u32(f.encoded_len() as u32);
            f.encode_into(&mut out);
        }
        out
    }

    #[test]
    fn framer_reassembles_a_frame_written_one_byte_at_a_time() {
        let frame = data_frame(7);
        let bytes = wire(std::slice::from_ref(&frame));
        let mut rd = Script(bytes.iter().map(|b| vec![*b]).collect());
        let mut framer = Framer::new(Arc::default());
        tokio::runtime::block_on(async {
            for _ in 1..bytes.len() {
                framer.fill(&mut rd).await.unwrap();
                assert!(framer.next_frame().unwrap().is_none());
            }
            framer.fill(&mut rd).await.unwrap();
        });
        assert_eq!(framer.next_frame().unwrap(), Some(frame));
        assert!(framer.next_frame().unwrap().is_none());
        let c = framer.stats.snapshot();
        assert_eq!((c.reads, c.frames_read), (bytes.len() as u64, 1));
    }

    #[test]
    fn framer_takes_every_frame_out_of_one_read() {
        let frames: Vec<Frame> = (0..50).map(data_frame).collect();
        let mut rd = Script(VecDeque::from([wire(&frames)]));
        let mut framer = Framer::new(Arc::default());
        tokio::runtime::block_on(framer.fill(&mut rd)).unwrap();
        for f in &frames {
            assert_eq!(framer.next_frame().unwrap().as_ref(), Some(f));
        }
        assert!(framer.next_frame().unwrap().is_none());
        let c = framer.stats.snapshot();
        assert_eq!((c.reads, c.frames_read), (1, 50));
        assert_eq!(c.frames_per_read(), 50.0);
    }

    #[test]
    fn framer_keeps_a_frame_that_straddles_reads_and_the_buffer_end() {
        // Frames larger than a read chunk, split at awkward offsets.
        let big = |i: u32| Frame {
            tag: 1,
            chunk: Chunk::Data {
                stream_id: 0,
                seq: i,
                ppid: 0,
                payload: Bytes::from(vec![i as u8; 20_000]),
            },
        };
        let frames = [big(0), big(1), big(2)];
        let bytes = wire(&frames);
        let mut rd = Script(bytes.chunks(7_001).map(<[u8]>::to_vec).collect());
        let mut framer = Framer::new(Arc::default());
        let mut got = Vec::new();
        tokio::runtime::block_on(async {
            while got.len() < frames.len() {
                match framer.next_frame().unwrap() {
                    Some(f) => got.push(f),
                    None => framer.fill(&mut rd).await.unwrap(),
                }
            }
        });
        assert_eq!(got, frames);
    }

    #[test]
    fn framer_rejects_an_implausible_length_before_its_body() {
        let mut rd = Script(VecDeque::from([vec![0xff, 0xff, 0xff, 0xff]]));
        let mut framer = Framer::new(Arc::default());
        tokio::runtime::block_on(framer.fill(&mut rd)).unwrap();
        assert!(matches!(
            framer.next_frame(),
            Err(TransportError::Protocol(SctpError::Truncated(
                "frame length implausible"
            )))
        ));
    }

    #[test]
    fn framer_tells_eof_at_a_boundary_from_eof_inside_a_frame() {
        let bytes = wire(&[data_frame(1)]);
        let mut framer = Framer::new(Arc::default());
        let mut rd = Script(VecDeque::from([bytes.clone()]));
        tokio::runtime::block_on(async {
            framer.fill(&mut rd).await.unwrap();
            assert!(framer.next_frame().unwrap().is_some());
            assert!(matches!(
                framer.fill(&mut rd).await,
                Err(TransportError::Eof)
            ));
        });

        let mut framer = Framer::new(Arc::default());
        let mut rd = Script(VecDeque::from([bytes[..bytes.len() - 1].to_vec()]));
        tokio::runtime::block_on(async {
            framer.fill(&mut rd).await.unwrap();
            assert!(framer.next_frame().unwrap().is_none());
            match framer.fill(&mut rd).await {
                Err(TransportError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
                other => panic!("expected a mid-frame EOF error, got {other:?}"),
            }
        });
    }

    #[tokio::test]
    async fn mixed_sends_bursts_and_pings_leave_in_call_order() {
        let mut listener = SctpListener::bind("127.0.0.1:0").await.unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // The server reads raw frames, so it sees heartbeats in place.
        let server = tokio::spawn(async move {
            let mut s = listener.accept().await.unwrap();
            let mut log = Vec::new();
            loop {
                while let Some(f) = s.framer.next_frame().unwrap() {
                    match f.chunk {
                        Chunk::Data { payload, .. } => log.push(u64::from(payload[0])),
                        Chunk::Heartbeat { nonce } => log.push(1000 + nonce),
                        Chunk::Shutdown => return log,
                        other => panic!("unexpected {other:?}"),
                    }
                }
                s.framer.fill(&mut s.rd).await.unwrap();
            }
        });
        let client = SctpStream::connect(&addr, 0x79).await.unwrap();
        let (tx, _rx) = client.into_split(8);
        let one = |b: u8| Bytes::from(vec![b]);
        tx.send(0, 0, one(0)).unwrap();
        tx.ping(1).unwrap();
        tx.send_burst(0, 0, (1..5).map(one)).unwrap();
        tx.send(0, 0, one(5)).unwrap();
        tx.ping(2).unwrap();
        tx.send_burst(0, 0, (6..8).map(one)).unwrap();
        tx.shutdown_send().unwrap();
        let log = server.await.unwrap();
        assert_eq!(log, [0, 1001, 1, 2, 3, 4, 5, 1002, 6, 7]);
        let c = tx.shared.egress.stats.snapshot();
        // The handshake's INIT, 8 data frames, 2 pings and the SHUTDOWN;
        // at most one write per call.
        assert_eq!(c.frames_written, 12);
        assert!(c.writes <= 8, "{c:?}");
        while tx.pending() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn egress_bounds_frames_not_bursts() {
        let q = Arc::new(Egress::new(4, Arc::default()));
        q.push(b"abc", 3).unwrap();
        q.push(b"d", 1).unwrap();
        assert_eq!(q.pending(), 4);
        // A full queue blocks the next push, even of a single frame.
        let done = Arc::new(AtomicBool::new(false));
        let pusher = {
            let (q, done) = (Arc::clone(&q), Arc::clone(&done));
            std::thread::spawn(move || {
                q.push(b"e", 1).unwrap();
                done.store(true, Ordering::SeqCst);
            })
        };
        while q.lock().senders_waiting == 0 {
            std::thread::yield_now();
        }
        assert!(!done.load(Ordering::SeqCst), "push past capacity must block");
        // The writer takes both bursts in one batch.
        let mut batch = Vec::new();
        assert_eq!(q.take(&mut batch), Some(4));
        assert_eq!(batch, b"abcd");
        q.written(4);
        pusher.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
        assert_eq!(q.pending(), 1);
        batch.clear();
        assert_eq!(q.take(&mut batch), Some(1));
        q.written(1);
        assert_eq!(q.pending(), 0);
        // A burst larger than the bound goes alone into an empty queue.
        q.push(b"0123456789", 10).unwrap();
        assert_eq!(q.pending(), 10);
        batch.clear();
        assert_eq!(q.take(&mut batch), Some(10));
        q.written(10);
        assert_eq!(q.pending(), 0);
        let c = q.stats.snapshot();
        assert_eq!((c.writes, c.frames_written), (3, 15));
        // Hung up and empty: the writer is told to exit.
        q.hang_up();
        assert_eq!(q.take(&mut batch), None);
    }

    #[test]
    fn egress_failure_unblocks_and_fails_senders() {
        let q = Arc::new(Egress::new(1, Arc::default()));
        q.push(b"a", 1).unwrap();
        let pusher = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(b"b", 1))
        };
        while q.lock().senders_waiting == 0 {
            std::thread::yield_now();
        }
        q.fail();
        assert!(matches!(pusher.join().unwrap(), Err(TransportError::Eof)));
        assert_eq!(q.pending(), 0);
    }
}
