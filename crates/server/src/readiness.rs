//! Readiness notification for the server's threads: `epoll` to block on
//! many sockets at once and `eventfd` to wake a blocked thread from another.
//!
//! Written against `extern "C"` because the workspace vendors no `libc`
//! crate; this module holds the crate's only `unsafe`. Registrations are
//! level-triggered: a socket the caller did not drain is simply reported
//! again by the next [`Poller::wait`], so no caller has to read until
//! `WouldBlock` to stay correct.

#![deny(clippy::undocumented_unsafe_blocks)]

#[cfg(not(target_os = "linux"))]
compile_error!(
    "ftbarrier-server blocks on epoll and eventfd: Linux is the one supported platform \
     (there is no polling fallback to select instead)"
);

use std::fs::File;
use std::io::{self, ErrorKind, Read, Write};
use std::os::fd::{AsFd, AsRawFd, BorrowedFd, FromRawFd, OwnedFd};
use std::time::Duration;

// Values from the kernel's asm-generic headers, which x86, x86-64, arm,
// aarch64 and riscv all share.
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLLIN: u32 = 0x001;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// The kernel's `struct epoll_event`, which is packed on x86 only.
#[repr(C)]
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    token: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

/// Turn a syscall's "new fd, or -1 and errno" into an owned fd.
fn owned(fd: i32) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: the kernel just returned `fd` as a new descriptor, so it is
    // open and nothing else owns it.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// An epoll instance. Every registration asks for readability and carries
/// a caller-chosen token; errors and hang-ups are always reported and show
/// up as readability too (the `read` that follows returns the error or 0).
pub(crate) struct Poller {
    ep: OwnedFd,
}

impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        // SAFETY: `epoll_create1` takes no pointers.
        let ep = owned(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { ep })
    }

    fn ctl(&self, op: i32, fd: BorrowedFd<'_>, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events: EPOLLIN,
            token,
        };
        // SAFETY: both descriptors are open for the duration of the call
        // (one is owned by `self`, the other borrowed), and `event` is a
        // live `struct epoll_event` the kernel only reads.
        let rc = unsafe { epoll_ctl(self.ep.as_raw_fd(), op, fd.as_raw_fd(), &mut event) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Report `fd` readable, level-triggered, under `token`.
    pub(crate) fn add(&self, fd: &impl AsFd, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd.as_fd(), token)
    }

    /// Stop reporting `fd`. Call it before closing the descriptor: a close
    /// alone leaves the registration behind while a duplicate stays open.
    pub(crate) fn remove(&self, fd: &impl AsFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd.as_fd(), 0)
    }

    /// Block until a registered descriptor is readable or `timeout` lapses
    /// (`None` waits forever), and fill `events` with what was ready. A
    /// timeout or a signal leaves `events` empty. The timeout is rounded
    /// up to epoll's millisecond so a caller never spins short of a deadline.
    pub(crate) fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        events.len = 0;
        let timeout_ms = match timeout {
            None => -1,
            Some(t) => i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX),
        };
        let capacity = i32::try_from(events.buf.len()).unwrap_or(i32::MAX);
        // SAFETY: `events.buf` is a live, initialised buffer of at least
        // `capacity` `struct epoll_event`s, which is the most the kernel
        // writes; `self.ep` is open.
        let n = unsafe {
            epoll_wait(
                self.ep.as_raw_fd(),
                events.buf.as_mut_ptr(),
                capacity,
                timeout_ms,
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            return if e.kind() == ErrorKind::Interrupted {
                Ok(())
            } else {
                Err(e)
            };
        }
        events.len = n as usize;
        Ok(())
    }
}

/// The buffer one [`Poller::wait`] fills.
pub(crate) struct Events {
    buf: Vec<EpollEvent>,
    len: usize,
}

impl Events {
    /// Room for `capacity` events per wait; descriptors beyond that stay
    /// ready and are reported by the next wait.
    pub(crate) fn with_capacity(capacity: usize) -> Events {
        assert!(capacity > 0, "epoll_wait needs room for at least one event");
        Events {
            buf: vec![
                EpollEvent {
                    events: 0,
                    token: 0
                };
                capacity
            ],
            len: 0,
        }
    }

    /// The tokens of the descriptors the last wait found ready.
    pub(crate) fn tokens(&self) -> impl Iterator<Item = u64> + '_ {
        self.buf[..self.len].iter().map(|e| e.token)
    }
}

/// An `eventfd`: register it with a thread's [`Poller`] and any other
/// thread can end that thread's `wait`.
pub(crate) struct Waker {
    fd: File,
}

impl Waker {
    pub(crate) fn new() -> io::Result<Waker> {
        // SAFETY: `eventfd` takes no pointers.
        let fd = owned(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Waker { fd: File::from(fd) })
    }

    /// Make the descriptor readable until the next [`Waker::reset`].
    pub(crate) fn wake(&self) {
        // Adding 1 fails only if the counter would pass `u64::MAX - 1`,
        // and then the descriptor is readable already.
        let _ = (&self.fd).write(&1u64.to_ne_bytes());
    }

    /// Consume every wake so far. The woken thread calls this *before* it
    /// looks at the state the wake announced; a wake that lands after the
    /// reset then leaves the descriptor readable for the next wait.
    pub(crate) fn reset(&self) {
        // `WouldBlock` means nobody woke us since the last reset.
        let _ = (&self.fd).read(&mut [0u8; 8]);
    }
}

impl AsFd for Waker {
    fn as_fd(&self) -> BorrowedFd<'_> {
        self.fd.as_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn ready(poller: &Poller, events: &mut Events, timeout_ms: u64) -> Vec<u64> {
        poller
            .wait(events, Some(Duration::from_millis(timeout_ms)))
            .expect("epoll_wait");
        events.tokens().collect()
    }

    #[test]
    fn waker_ends_a_wait_and_reset_rearms_it() {
        let poller = Poller::new().expect("epoll");
        let waker = Waker::new().expect("eventfd");
        poller.add(&waker, 7).expect("add");
        let mut events = Events::with_capacity(4);

        let started = Instant::now();
        assert!(ready(&poller, &mut events, 20).is_empty());
        assert!(started.elapsed() >= Duration::from_millis(20));

        waker.wake();
        waker.wake();
        assert_eq!(ready(&poller, &mut events, 1000), vec![7]);
        // Level-triggered: still readable until reset, then quiet.
        assert_eq!(ready(&poller, &mut events, 1000), vec![7]);
        waker.reset();
        assert!(ready(&poller, &mut events, 0).is_empty());
        waker.reset(); // nothing pending: must not block
    }

    #[test]
    fn unread_bytes_are_reported_again_and_removal_silences_the_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (mut served, _) = listener.accept().expect("accept");
        let poller = Poller::new().expect("epoll");
        poller.add(&served, 42).expect("add");
        let mut events = Events::with_capacity(4);

        client.write_all(b"ab").unwrap();
        assert_eq!(ready(&poller, &mut events, 1000), vec![42]);
        let mut one = [0u8; 1];
        served.read_exact(&mut one).unwrap();
        assert_eq!(ready(&poller, &mut events, 1000), vec![42], "one byte left");
        served.read_exact(&mut one).unwrap();
        assert!(ready(&poller, &mut events, 0).is_empty());

        // A closed peer is readable (the read returns 0) ...
        drop(client);
        assert_eq!(ready(&poller, &mut events, 1000), vec![42]);
        // ... until the socket is deregistered.
        poller.remove(&served).expect("remove");
        assert!(ready(&poller, &mut events, 0).is_empty());
        assert!(poller.remove(&served).is_err(), "not registered any more");
    }
}
