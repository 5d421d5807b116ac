//! The third [`Endpoint`] backend: length-prefixed TCP sockets between OS
//! processes.
//!
//! Each ring link `j → j+1` is one TCP connection on the loopback (or any)
//! interface: process `j` connects to its successor's listener and gossips
//! frames; process `j` also owns a listener its *predecessor* connects to.
//! The MB program's assumptions map onto real sockets as follows:
//!
//! * **`try_recv` stays non-blocking** — the incoming stream runs in
//!   non-blocking mode and complete frames are peeled out of a partial-frame
//!   buffer, so `proc::pump` keeps its exact channel-backend semantics.
//! * **A peer crash is the §4.1 detectable fault** — a broken pipe or
//!   connection reset on send drops the stream and schedules a
//!   reconnect-with-backoff; until the peer returns, its silence is
//!   indistinguishable from total message loss, which gossip +
//!   retransmission already masks, and the crash itself is *detected* by
//!   the failure-detector layer exactly as the paper's `sn = ⊥, cp = error`
//!   state is.
//! * **Causal tags ride in-frame** — the sender's latest [`EventId`] is
//!   serialized next to the state, so flight-recorder delivery edges
//!   survive the wire (and corruption withholds the tag with the payload,
//!   as on the channel backend).
//! * **Corruption stays detectable** — every frame carries an FNV-1a
//!   checksum; a mismatch (or an injected in-flight corruption flag)
//!   surfaces as [`Delivery::Corrupted`], never as a wrong payload.
//! * **Send-time faults are the link fault model** — each copy a
//!   `FaultyLink` hands back is encoded as it is written, so the loopback
//!   differential suite compares this backend with the channels under one
//!   fault plan.

use crate::channel::{ChannelFaults, Delivery, FaultyLink};
use crate::proc::StateMsg;
use crate::transport::Endpoint;
use ftbarrier_core::{Cp, Sn};
use ftbarrier_gcs::SimRng;
use ftbarrier_telemetry::EventId;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Upper bound on a frame body; anything larger is a protocol violation
/// (state frames are tens of bytes, server control frames are small).
pub const MAX_FRAME: usize = 64 * 1024;

/// Typed violation of the length-prefixed framing.
///
/// Raised by [`FrameReader`] *before* the declared length sizes any buffer:
/// a hostile prefix (say `0xFFFF_FFFF`) is rejected from its four header
/// bytes alone and can never balloon memory. On the server a frame error is
/// a detectable fault — the session is dropped like a crashed client — not
/// an OOM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix declared a body larger than [`MAX_FRAME`] —
    /// either a hostile peer or a stream that lost frame sync.
    Oversized { len: usize, max: usize },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Prefix `payload` with its big-endian `u32` length.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_FRAME, "frame too large");
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Incremental length-prefixed frame parser over a byte stream. Shared by
/// the ring transport here and the `ftbarrier-server` session protocol.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Feed raw stream bytes; every completed frame body is appended to
    /// `out`. Errors with [`FrameError::Oversized`] on a hostile or
    /// out-of-sync length prefix — checked from the four header bytes,
    /// before the declared length sizes any allocation.
    pub fn push(&mut self, bytes: &[u8], out: &mut Vec<Vec<u8>>) -> io::Result<()> {
        self.buf.extend_from_slice(bytes);
        loop {
            if self.buf.len() < 4 {
                return Ok(());
            }
            let len =
                u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
            if len > MAX_FRAME {
                return Err(FrameError::Oversized {
                    len,
                    max: MAX_FRAME,
                }
                .into());
            }
            if self.buf.len() < 4 + len {
                return Ok(());
            }
            out.push(self.buf[4..4 + len].to_vec());
            self.buf.drain(..4 + len);
        }
    }

    /// Drain everything currently readable from a non-blocking stream.
    /// `Ok(true)` means the stream is still open, `Ok(false)` means the
    /// peer closed it (EOF — over TCP, the observable face of a crash).
    pub fn read_from(
        &mut self,
        stream: &mut TcpStream,
        out: &mut Vec<Vec<u8>>,
    ) -> io::Result<bool> {
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => self.push(&chunk[..n], out)?,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

const MSG_STATE: u8 = 0x01;
const FLAG_CORRUPT: u8 = 0b01;
const FLAG_TAGGED: u8 = 0b10;

fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn sn_to_wire(sn: Sn) -> (u8, u32) {
    match sn {
        Sn::Bot => (0, 0),
        Sn::Top => (1, 0),
        Sn::Val(v) => (2, v),
    }
}

fn sn_from_wire(tag: u8, v: u32) -> Option<Sn> {
    match tag {
        0 => Some(Sn::Bot),
        1 => Some(Sn::Top),
        2 => Some(Sn::Val(v)),
        _ => None,
    }
}

fn cp_to_wire(cp: Cp) -> u8 {
    match cp {
        Cp::Ready => 0,
        Cp::Execute => 1,
        Cp::Success => 2,
        Cp::Error => 3,
        Cp::Repeat => 4,
    }
}

fn cp_from_wire(b: u8) -> Option<Cp> {
    match b {
        0 => Some(Cp::Ready),
        1 => Some(Cp::Execute),
        2 => Some(Cp::Success),
        3 => Some(Cp::Error),
        4 => Some(Cp::Repeat),
        _ => None,
    }
}

/// Serialize a state gossip (and its causal tag) into a frame body. The
/// `corrupt` flag models in-flight detectable corruption: the frame stays
/// parseable but the receiver must observe [`Delivery::Corrupted`].
pub fn encode_state(msg: StateMsg, tag: Option<EventId>, corrupt: bool) -> Vec<u8> {
    let mut body = Vec::with_capacity(24);
    body.push(MSG_STATE);
    let mut flags = 0u8;
    if corrupt {
        flags |= FLAG_CORRUPT;
    }
    if tag.is_some() {
        flags |= FLAG_TAGGED;
    }
    body.push(flags);
    let (sn_tag, sn_val) = sn_to_wire(msg.sn);
    body.push(sn_tag);
    body.extend_from_slice(&sn_val.to_be_bytes());
    body.push(cp_to_wire(msg.cp));
    body.extend_from_slice(&msg.ph.to_be_bytes());
    let id = tag.unwrap_or(EventId { pid: 0, seq: 0 });
    body.extend_from_slice(&id.pid.to_be_bytes());
    body.extend_from_slice(&id.seq.to_be_bytes());
    let sum = fnv1a(&body);
    body.extend_from_slice(&sum.to_be_bytes());
    body
}

/// Decode a frame body produced by [`encode_state`]. Any integrity failure
/// — wrong checksum, bad enum byte, wrong length, or the in-flight corrupt
/// flag — is a *detectable* fault and yields [`Delivery::Corrupted`].
pub fn decode_state(body: &[u8]) -> (Delivery<StateMsg>, Option<EventId>) {
    const LEN: usize = 1 + 1 + 1 + 4 + 1 + 4 + 4 + 4 + 4;
    if body.len() != LEN || body[0] != MSG_STATE {
        return (Delivery::Corrupted, None);
    }
    let (payload, sum_bytes) = body.split_at(LEN - 4);
    let sum = u32::from_be_bytes(sum_bytes.try_into().unwrap());
    if fnv1a(payload) != sum {
        return (Delivery::Corrupted, None);
    }
    let flags = body[1];
    if flags & FLAG_CORRUPT != 0 {
        return (Delivery::Corrupted, None);
    }
    let be32 = |at: usize| u32::from_be_bytes(body[at..at + 4].try_into().unwrap());
    let (sn, cp) = match (sn_from_wire(body[2], be32(3)), cp_from_wire(body[7])) {
        (Some(sn), Some(cp)) => (sn, cp),
        _ => return (Delivery::Corrupted, None),
    };
    let msg = StateMsg {
        sn,
        cp,
        ph: be32(8),
    };
    let tag = (flags & FLAG_TAGGED != 0).then(|| EventId {
        pid: be32(12),
        seq: be32(16),
    });
    (Delivery::Ok(msg), tag)
}

/// Outgoing half: a connection to the successor's listener, re-established
/// with capped, jittered exponential backoff after any write failure. While
/// disconnected, sends degrade to loss — which retransmission masks.
struct SendLink {
    peer: SocketAddr,
    stream: Option<TcpStream>,
    /// Consecutive failures since the last successful connect; indexes the
    /// backoff schedule.
    attempt: u32,
    /// Per-link jitter seed (hash of the peer address) so links that fail
    /// together do not retry in lockstep.
    jitter_seed: u32,
    retry_at: Option<Instant>,
}

const BACKOFF_MIN: Duration = Duration::from_millis(5);
const BACKOFF_MAX: Duration = Duration::from_millis(500);

/// Un-jittered backoff schedule: 5 ms doubling per consecutive failure,
/// capped at 500 ms. Attempt 0 is the first retry after a failure.
fn backoff_base(attempt: u32) -> Duration {
    // 5 ms << 7 = 640 ms is already past the cap; clamping the exponent
    // keeps the shift from overflowing for absurd attempt counts.
    let exp = attempt.min(7);
    (BACKOFF_MIN * 2u32.pow(exp)).min(BACKOFF_MAX)
}

/// Jittered delay before retry `attempt`: a deterministic draw in
/// [base/2, base] where `base` follows [`backoff_base`]. The seed varies
/// per link, decorrelating reconnect storms when a shared peer dies, while
/// any single link's schedule stays reproducible. The cap is a hard bound:
/// no jittered delay ever exceeds `BACKOFF_MAX`.
fn backoff_delay(attempt: u32, seed: u32) -> Duration {
    let base = backoff_base(attempt).as_millis() as u64;
    // splitmix64 finalizer over (seed, attempt).
    let mut h = u64::from(seed) ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    let lo = base / 2;
    Duration::from_millis(lo + h % (base - lo + 1))
}

impl SendLink {
    fn new(peer: SocketAddr) -> SendLink {
        SendLink {
            peer,
            stream: None,
            attempt: 0,
            jitter_seed: fnv1a(peer.to_string().as_bytes()),
            retry_at: None,
        }
    }

    /// Arm the reconnect timer for the current failure streak and advance it.
    fn arm_retry(&mut self) {
        self.retry_at = Some(Instant::now() + backoff_delay(self.attempt, self.jitter_seed));
        self.attempt = self.attempt.saturating_add(1);
    }

    fn ensure_connected(&mut self) {
        if self.stream.is_some() {
            return;
        }
        if let Some(at) = self.retry_at {
            if Instant::now() < at {
                return;
            }
        }
        match TcpStream::connect(self.peer) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                self.stream = Some(s);
                self.attempt = 0;
                self.retry_at = None;
            }
            Err(_) => self.arm_retry(),
        }
    }

    /// Write one frame. A peer that is gone (broken pipe, reset, refused)
    /// turns the send into a loss and arms the reconnect timer.
    fn write_frame(&mut self, body: &[u8]) {
        self.ensure_connected();
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        if stream.write_all(&frame(body)).is_err() {
            // The §4.1 observable: the successor crashed (or the network
            // partitioned). Drop the stream; subsequent sends retry.
            self.stream = None;
            self.arm_retry();
        }
    }

    /// Encode and write one copy from the link fault model; a corrupted
    /// copy goes out flagged, without its tag.
    fn write_copy(&mut self, ((msg, tag), corrupt): ((StateMsg, Option<EventId>), bool)) {
        self.write_frame(&encode_state(msg, tag.filter(|_| !corrupt), corrupt));
    }
}

/// Incoming half: this process's listener plus the currently accepted
/// predecessor connection. A reconnecting predecessor replaces the old
/// stream; EOF drops it (silence until the peer returns).
struct RecvLink {
    listener: TcpListener,
    stream: Option<TcpStream>,
    reader: FrameReader,
}

impl RecvLink {
    fn new(listener: TcpListener) -> io::Result<RecvLink> {
        listener.set_nonblocking(true)?;
        Ok(RecvLink {
            listener,
            stream: None,
            reader: FrameReader::new(),
        })
    }

    /// Accept any newly arrived connection, then drain complete frames.
    fn poll(&mut self, out: &mut Vec<Vec<u8>>) {
        match self.listener.accept() {
            Ok((s, _)) => {
                if s.set_nonblocking(true).is_ok() {
                    let _ = s.set_nodelay(true);
                    // A fresh connection supersedes the old one: the peer
                    // rebooted (its old stream is dead) — start a clean
                    // frame buffer so a torn partial frame from the old
                    // incarnation can't prefix the new stream.
                    self.stream = Some(s);
                    self.reader = FrameReader::new();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(_) => {}
        }
        if let Some(stream) = self.stream.as_mut() {
            match self.reader.read_from(stream, out) {
                Ok(true) => {}
                // EOF or stream error: the predecessor is gone. Fall
                // silent; gossip retransmission carries the ring until the
                // peer reconnects through the listener.
                Ok(false) | Err(_) => self.stream = None,
            }
        }
    }
}

/// A process's ring endpoint over real TCP sockets.
pub struct SocketEndpoint {
    out: SendLink,
    incoming: RecvLink,
    faults: FaultyLink<(StateMsg, Option<EventId>)>,
    queue: VecDeque<(Delivery<StateMsg>, Option<EventId>)>,
}

impl SocketEndpoint {
    /// Assemble an endpoint from an accepted predecessor listener and a
    /// successor address. `fault_seed` seeds the link fault model. Panics,
    /// naming the field, on a fault probability outside `[0, 1]` or NaN.
    pub fn new(
        listener: TcpListener,
        successor: SocketAddr,
        faults: ChannelFaults,
        fault_seed: u64,
    ) -> io::Result<SocketEndpoint> {
        Ok(SocketEndpoint {
            out: SendLink::new(successor),
            incoming: RecvLink::new(listener)?,
            faults: FaultyLink::new(faults, SimRng::seed_from_u64(fault_seed)),
            queue: VecDeque::new(),
        })
    }

    /// The local address the predecessor should connect to.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.incoming.listener.local_addr()
    }

    fn pump_incoming(&mut self) {
        let mut frames = Vec::new();
        self.incoming.poll(&mut frames);
        for body in frames {
            self.queue.push_back(decode_state(&body));
        }
    }
}

impl Endpoint for SocketEndpoint {
    fn flush(&mut self) -> bool {
        if let Some(copy) = self.faults.flush() {
            self.out.write_copy(copy);
        }
        true
    }

    fn send_tagged(&mut self, msg: StateMsg, tag: Option<EventId>) -> bool {
        let sent = self.faults.send((msg, tag));
        sent.for_each(|copy| self.out.write_copy(copy));
        true
    }

    fn try_recv_tagged(&mut self) -> Option<(Delivery<StateMsg>, Option<EventId>)> {
        self.pump_incoming();
        self.queue.pop_front()
    }
}

/// Build a fully connected loopback ring of `n` socket endpoints: endpoint
/// `j` sends to `j+1`'s listener and has accepted `j-1`'s connection. Fault
/// streams fork off `rng` with the same per-link draw order as
/// [`crate::transport::channel_ring`].
pub fn socket_ring(
    n: usize,
    faults: ChannelFaults,
    rng: &mut SimRng,
) -> io::Result<Vec<SocketEndpoint>> {
    assert!(n >= 2, "a ring needs at least two endpoints");
    let mut listeners = Vec::with_capacity(n);
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let l = TcpListener::bind("127.0.0.1:0")?;
        addrs.push(l.local_addr()?);
        listeners.push(l);
    }
    let mut endpoints = Vec::with_capacity(n);
    for (j, listener) in listeners.into_iter().enumerate() {
        let mut ep = SocketEndpoint::new(listener, addrs[(j + 1) % n], faults, rng.next_u64())?;
        // Eager connect: the successor's listener already exists, so the
        // connection lands in its backlog even before it accepts.
        ep.out.ensure_connected();
        if ep.out.stream.is_none() {
            return Err(io::Error::other(format!(
                "socket_ring: connect {j} -> {}",
                addrs[(j + 1) % n]
            )));
        }
        endpoints.push(ep);
    }
    // Adopt each predecessor connection now so the ring starts connected
    // (first gossip must not race the accept loop).
    let deadline = Instant::now() + Duration::from_secs(5);
    for ep in &mut endpoints {
        while ep.incoming.stream.is_none() {
            ep.pump_incoming();
            if Instant::now() > deadline {
                return Err(io::Error::other("socket_ring: accept timed out"));
            }
            std::thread::yield_now();
        }
    }
    Ok(endpoints)
}

/// Connect a lone endpoint into an existing ring position: used by true
/// multi-OS-process deployments where each process builds its own endpoint
/// from a pre-agreed address map.
pub fn connect_endpoint(
    listen: &str,
    successor: &str,
    faults: ChannelFaults,
    fault_seed: u64,
) -> io::Result<SocketEndpoint> {
    let listener = TcpListener::bind(listen)?;
    let successor: SocketAddr = successor
        .parse()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{successor}: {e}")))?;
    SocketEndpoint::new(listener, successor, faults, fault_seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_schedule_is_capped_jittered_and_deterministic() {
        // The un-jittered base schedule is pinned exactly: doubling from
        // 5 ms, saturating at the 500 ms cap and holding there.
        let pinned: [u64; 10] = [5, 10, 20, 40, 80, 160, 320, 500, 500, 500];
        for (attempt, &ms) in pinned.iter().enumerate() {
            assert_eq!(
                backoff_base(attempt as u32),
                Duration::from_millis(ms),
                "base schedule diverged at attempt {attempt}"
            );
        }
        assert_eq!(backoff_base(u32::MAX), BACKOFF_MAX, "cap holds forever");

        // Jitter stays inside the [base/2, base] envelope — the cap is a
        // hard bound — and the schedule is a pure function of (attempt, seed).
        for seed in [0u32, 1, 0xB127_CAFE, u32::MAX] {
            for attempt in 0..16u32 {
                let d = backoff_delay(attempt, seed);
                let base = backoff_base(attempt);
                // The delay works in whole milliseconds, so the envelope
                // floor is base_ms / 2 rounded down.
                let lo = Duration::from_millis(base.as_millis() as u64 / 2);
                assert!(
                    d >= lo && d <= base,
                    "attempt {attempt} seed {seed:#x}: {d:?} outside [{lo:?}, {base:?}]"
                );
                assert!(d <= BACKOFF_MAX, "jitter must never exceed the cap");
                assert_eq!(d, backoff_delay(attempt, seed), "schedule must be pure");
            }
        }

        // Different links (seeds) decorrelate: the schedules differ.
        let a: Vec<_> = (0..10).map(|i| backoff_delay(i, 1)).collect();
        let b: Vec<_> = (0..10).map(|i| backoff_delay(i, 2)).collect();
        assert_ne!(a, b, "jitter seeds failed to decorrelate the schedules");
    }

    #[test]
    fn send_link_advances_and_resets_the_backoff_attempt() {
        // Connecting to a port nobody listens on fails immediately and must
        // walk the schedule: each failed attempt arms a longer retry window.
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let mut link = SendLink::new(dead);
        assert_eq!(link.attempt, 0);
        link.ensure_connected();
        assert!(link.stream.is_none());
        assert_eq!(link.attempt, 1, "first failure advances the schedule");
        let first_retry = link.retry_at.expect("failure arms the retry timer");
        // Within the armed window a retry is a no-op (no connect, no advance).
        link.ensure_connected();
        assert_eq!(link.attempt, 1, "armed window suppresses reconnects");
        assert_eq!(link.retry_at, Some(first_retry));

        // A successful connect resets the streak to the start of the schedule.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut link = SendLink::new(listener.local_addr().unwrap());
        link.attempt = 6;
        link.ensure_connected();
        assert!(link.stream.is_some());
        assert_eq!(link.attempt, 0, "successful connect resets the backoff");
        assert_eq!(link.retry_at, None);
    }

    #[test]
    fn state_frames_round_trip_with_and_without_tags() {
        for msg in [
            StateMsg::initial(),
            StateMsg::poisoned(3),
            StateMsg {
                sn: Sn::Top,
                cp: Cp::Repeat,
                ph: 7,
            },
        ] {
            for tag in [None, Some(EventId { pid: 9, seq: 1234 })] {
                let body = encode_state(msg, tag, false);
                assert_eq!(decode_state(&body), (Delivery::Ok(msg), tag));
            }
        }
    }

    #[test]
    fn corrupt_flag_and_checksum_mismatch_are_detectable() {
        let msg = StateMsg::initial();
        let body = encode_state(msg, Some(EventId { pid: 1, seq: 2 }), true);
        assert_eq!(decode_state(&body), (Delivery::Corrupted, None));

        let mut flipped = encode_state(msg, None, false);
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        assert_eq!(decode_state(&flipped), (Delivery::Corrupted, None));

        assert_eq!(decode_state(&[]), (Delivery::Corrupted, None));
        assert_eq!(decode_state(&[MSG_STATE; 3]), (Delivery::Corrupted, None));
    }

    #[test]
    fn frame_reader_reassembles_across_arbitrary_splits() {
        let bodies: Vec<Vec<u8>> = (0..5u8)
            .map(|i| {
                encode_state(
                    StateMsg::initial(),
                    Some(EventId {
                        pid: i as u32,
                        seq: 0,
                    }),
                    false,
                )
            })
            .collect();
        let wire: Vec<u8> = bodies.iter().flat_map(|b| frame(b)).collect();
        // Feed the byte stream one byte at a time.
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        for b in &wire {
            reader.push(std::slice::from_ref(b), &mut out).unwrap();
        }
        assert_eq!(out, bodies);
    }

    #[test]
    fn frame_reader_rejects_oversized_length_prefix() {
        let mut reader = FrameReader::new();
        let mut out = Vec::new();
        let bad = ((MAX_FRAME + 1) as u32).to_be_bytes();
        assert!(reader.push(&bad, &mut out).is_err());
    }

    #[test]
    fn socket_ring_connects_successors() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut eps = socket_ring(3, ChannelFaults::NONE, &mut rng).unwrap();
        let msg = StateMsg::initial();
        assert!(eps[0].send(msg));
        assert_eq!(recv_blocking(&mut eps[1]), Some((Delivery::Ok(msg), None)));
        assert!(eps[1].try_recv().is_none());
        assert!(eps[2].try_recv().is_none());
        // The ring wraps: 2 sends; 0 receives.
        let id = EventId { pid: 2, seq: 7 };
        assert!(eps[2].send_tagged(msg, Some(id)));
        assert_eq!(
            recv_blocking(&mut eps[0]),
            Some((Delivery::Ok(msg), Some(id)))
        );
    }

    #[test]
    fn peer_crash_degrades_to_loss_and_reconnect_resumes_delivery() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut eps = socket_ring(2, ChannelFaults::NONE, &mut rng).unwrap();
        let msg = StateMsg::initial();
        let addr1 = eps[1].local_addr().unwrap();

        // Crash endpoint 1: its listener and accepted stream vanish.
        let survivor_faults = ChannelFaults::NONE;
        drop(eps.remove(1));
        // Sends from 0 keep "succeeding" (loss semantics) while the peer is
        // gone; the write error is absorbed and the backoff timer armed.
        for _ in 0..50 {
            assert!(eps[0].send(msg));
        }
        assert!(eps[0].out.stream.is_none(), "broken pipe drops the stream");

        // The peer reboots at the same address (its old listener port).
        let listener = TcpListener::bind(addr1).unwrap();
        let mut reborn =
            SocketEndpoint::new(listener, eps[0].local_addr().unwrap(), survivor_faults, 99)
                .unwrap();
        // Retransmission drives reconnection; wait out the backoff.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            assert!(eps[0].send(msg));
            if let Some(got) = reborn.try_recv() {
                assert_eq!(got, Delivery::Ok(msg));
                break;
            }
            assert!(Instant::now() < deadline, "reconnect never delivered");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn injected_faults_match_channel_semantics() {
        // corruption=1: every delivery surfaces as Corrupted.
        let mut rng = SimRng::seed_from_u64(3);
        let mut eps = socket_ring(
            2,
            ChannelFaults {
                corruption: 1.0,
                ..ChannelFaults::NONE
            },
            &mut rng,
        )
        .unwrap();
        let msg = StateMsg::initial();
        assert!(eps[0].send(msg));
        assert_eq!(
            recv_blocking(&mut eps[1]),
            Some((Delivery::Corrupted, None))
        );

        // reorder=1: first send parked, flush releases it.
        let mut rng = SimRng::seed_from_u64(4);
        let mut eps = socket_ring(
            2,
            ChannelFaults {
                reorder: 1.0,
                ..ChannelFaults::NONE
            },
            &mut rng,
        )
        .unwrap();
        assert!(eps[0].send(msg));
        std::thread::sleep(Duration::from_millis(10));
        assert!(eps[1].try_recv().is_none(), "message is parked");
        assert!(eps[0].flush());
        assert_eq!(recv_blocking(&mut eps[1]), Some((Delivery::Ok(msg), None)));
    }

    #[test]
    #[should_panic(expected = "ChannelFaults.corruption probability NaN out of range")]
    fn a_nan_link_corruption_is_refused_by_name() {
        let faults = ChannelFaults {
            corruption: f64::NAN,
            ..ChannelFaults::NONE
        };
        let _ = socket_ring(2, faults, &mut SimRng::seed_from_u64(5));
    }

    /// TCP delivery is asynchronous even on loopback: poll with a deadline.
    fn recv_blocking(ep: &mut SocketEndpoint) -> Option<(Delivery<StateMsg>, Option<EventId>)> {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Some(got) = ep.try_recv_tagged() {
                return Some(got);
            }
            std::thread::yield_now();
        }
        None
    }
}
