//! Client side of the barrier service: a small blocking library plus the
//! load generator used by the `repro serve` self-test and the
//! `ftbarrier-client` subcommand.

use crate::wire::{ClientFrame, ServerFrame};
use ftbarrier_mp::socket::FrameReader;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A blocking connection to one barrier group.
pub struct BarrierClient {
    stream: TcpStream,
    reader: FrameReader,
    queued: VecDeque<ServerFrame>,
    /// The read timeout the socket is armed with (`SO_RCVTIMEO` as last
    /// set), so a caller that keeps one timeout pays no `setsockopt` per
    /// frame.
    armed: Option<Duration>,
    /// Ring member id assigned by the server's `Welcome`.
    pub member: u32,
    /// Sealed group size.
    pub size: u32,
}

impl BarrierClient {
    /// Connect, join `group`, and block until the group seals (the server
    /// sends `Welcome` only once all `size` members joined).
    pub fn join(
        addr: SocketAddr,
        group: &str,
        size: u32,
        timeout: Duration,
    ) -> std::io::Result<BarrierClient> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(
            &ClientFrame::Join {
                group: group.to_owned(),
                size,
            }
            .to_frame(),
        )?;
        let mut client = BarrierClient {
            stream,
            reader: FrameReader::new(),
            queued: VecDeque::new(),
            armed: None,
            member: 0,
            size,
        };
        match client.next_frame(timeout)? {
            ServerFrame::Welcome { member, size } => {
                client.member = member;
                client.size = size;
                Ok(client)
            }
            ServerFrame::Bye { reason } => Err(std::io::Error::new(
                ErrorKind::ConnectionRefused,
                format!("server refused: {reason}"),
            )),
            other => Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("expected Welcome, got {other:?}"),
            )),
        }
    }

    /// Announce completion of `phase`'s body.
    pub fn arrive(&mut self, phase: u64) -> std::io::Result<()> {
        self.stream
            .write_all(&ClientFrame::Arrive { phase }.to_frame())
    }

    /// Liveness heartbeat between arrivals.
    pub fn ping(&mut self) -> std::io::Result<()> {
        self.stream.write_all(&ClientFrame::Ping.to_frame())
    }

    /// Orderly goodbye (the server treats it like a crash; the ring
    /// closes over the survivors).
    pub fn leave(mut self) -> std::io::Result<()> {
        self.stream.write_all(&ClientFrame::Leave.to_frame())
    }

    /// Drop the connection abruptly — the load generator's "kill" switch:
    /// from the server's side this is an EOF, a §4.1 detectable fault.
    pub fn kill(self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Block (up to `timeout`) for the next server frame.
    pub fn next_frame(&mut self, timeout: Duration) -> std::io::Result<ServerFrame> {
        if let Some(f) = self.queued.pop_front() {
            return Ok(f);
        }
        let started = Instant::now();
        let mut buf = [0u8; 4096];
        let mut bodies = Vec::new();
        // The first read may take the whole `timeout`; one that follows a
        // partial frame only what is left of it.
        let mut left = timeout;
        loop {
            if left.is_zero() {
                return Err(ErrorKind::TimedOut.into());
            }
            if self.armed != Some(left) {
                self.stream.set_read_timeout(Some(left))?;
                self.armed = Some(left);
            }
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.reader
                        .push(&buf[..n], &mut bodies)
                        .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?;
                    for body in bodies.drain(..) {
                        let f = ServerFrame::decode(&body).ok_or_else(|| {
                            std::io::Error::new(ErrorKind::InvalidData, "malformed server frame")
                        })?;
                        self.queued.push_back(f);
                    }
                    if let Some(f) = self.queued.pop_front() {
                        return Ok(f);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Err(ErrorKind::TimedOut.into());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            left = timeout.saturating_sub(started.elapsed());
        }
    }

    /// Block until the `Release` for `phase` (releases are strictly
    /// ordered, so any other phase number is a protocol error).
    pub fn await_release(&mut self, phase: u64, timeout: Duration) -> std::io::Result<()> {
        match self.next_frame(timeout)? {
            ServerFrame::Release { phase: got, .. } if got == phase => Ok(()),
            ServerFrame::Release { phase: got, .. } => Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("release out of order: wanted {phase}, got {got}"),
            )),
            ServerFrame::Bye { reason } => Err(std::io::Error::new(
                ErrorKind::ConnectionAborted,
                format!("server said bye: {reason}"),
            )),
            other => Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("expected Release, got {other:?}"),
            )),
        }
    }
}

/// What one load-generator client did.
#[derive(Debug, Clone)]
pub struct ClientOutcome {
    /// Ring member id the server assigned.
    pub member: u32,
    /// Phases this client completed (arrive + release observed).
    pub completed: u64,
    /// Whether the plan killed this client on purpose.
    pub killed: bool,
    /// Error text if the client failed *unexpectedly*.
    pub error: Option<String>,
}

/// Drive `phases` barrier phases through one session. `kills` is a list of
/// `(member, phase)` pairs: if the server assigns this client one of those
/// member ids, it drops its connection right before arriving at the paired
/// phase — a mid-run crash the survivors must mask.
pub fn run_client(
    addr: SocketAddr,
    group: &str,
    size: u32,
    phases: u64,
    kills: &[(u32, u64)],
    timeout: Duration,
) -> ClientOutcome {
    let mut client = match BarrierClient::join(addr, group, size, timeout) {
        Ok(c) => c,
        Err(e) => {
            return ClientOutcome {
                member: u32::MAX,
                completed: 0,
                killed: false,
                error: Some(format!("join failed: {e}")),
            }
        }
    };
    let member = client.member;
    let kill_at = kills.iter().find(|(m, _)| *m == member).map(|&(_, ph)| ph);
    let mut completed = 0;
    for phase in 0..phases {
        if kill_at == Some(phase) {
            client.kill();
            return ClientOutcome {
                member,
                completed,
                killed: true,
                error: None,
            };
        }
        if let Err(e) = client
            .arrive(phase)
            .and_then(|()| client.await_release(phase, timeout))
        {
            return ClientOutcome {
                member,
                completed,
                killed: false,
                error: Some(format!("phase {phase}: {e}")),
            };
        }
        completed += 1;
    }
    let _ = client.leave();
    ClientOutcome {
        member,
        completed,
        killed: false,
        error: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A server end that sends half a frame and then stalls must not stretch
    /// the caller's wait past `timeout` (the read after the partial frame is
    /// re-armed with what is left), and a call with another timeout re-arms.
    #[test]
    fn a_stalled_partial_frame_times_out_within_the_timeout() {
        const TIMEOUT: Duration = Duration::from_millis(600);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (mut server_end, _) = listener.accept().expect("accept");
        let mut client = BarrierClient {
            stream,
            reader: FrameReader::new(),
            queued: VecDeque::new(),
            armed: None,
            member: 0,
            size: 2,
        };
        let frame = ServerFrame::Welcome { member: 0, size: 2 }.to_frame();
        let half = frame[..frame.len() / 2].to_vec();
        let stall = std::thread::spawn(move || {
            std::thread::sleep(TIMEOUT * 2 / 3);
            server_end.write_all(&half).expect("write half a frame");
            server_end
        });

        let started = Instant::now();
        let err = client.next_frame(TIMEOUT).expect_err("no whole frame came");
        let waited = started.elapsed();
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        assert!(waited >= TIMEOUT, "gave up after {waited:?}");
        // Re-arming the full timeout after the partial frame would wait
        // 2/3 + 1 timeouts.
        assert!(waited < TIMEOUT * 3 / 2, "waited {waited:?}");
        let rearmed = client.stream.read_timeout().expect("SO_RCVTIMEO");
        assert!(rearmed.is_some_and(|left| left < TIMEOUT / 2));
        let mut server_end = stall.join().expect("server end");

        // Another timeout: the socket is armed with it before the read.
        let short = Duration::from_millis(40);
        let err = client.next_frame(short).expect_err("still half a frame");
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        assert_eq!(
            client.stream.read_timeout().expect("SO_RCVTIMEO"),
            Some(short)
        );
        assert_eq!(client.armed, Some(short));

        // The rest of the frame completes it; the same timeout is not set again.
        server_end
            .write_all(&frame[frame.len() / 2..])
            .expect("write the rest");
        assert_eq!(
            client.next_frame(short).expect("whole frame"),
            ServerFrame::Welcome { member: 0, size: 2 }
        );
        assert_eq!(client.armed, Some(short));
    }
}
