//! The long-running barrier server.
//!
//! Three kinds of threads share one [`Telemetry`] handle:
//!
//! * the **acceptor** reads each new connection's `Join` frame and routes
//!   the session to a shard by group-name hash;
//! * **shard workers** own disjoint sets of groups: they seal pending
//!   groups into [`BarrierGroup`]s, read the sessions that became
//!   readable, tick the rings, and broadcast `Release` frames;
//! * the **metrics** thread serves a hand-rolled HTTP/1.1 `GET /metrics`
//!   with the Prometheus text exposition (no HTTP dependency — the
//!   protocol subset needed is a request line and two headers).
//!
//! No thread polls: each blocks in `epoll_wait` (`crate::readiness`) on its
//! sockets plus an `eventfd`, and a shard wakes for exactly four reasons —
//! a session became readable, the acceptor routed it a new session,
//! [`Server::shutdown`], or its timer pass (detector, stall and wedge
//! deadlines) is due.
//!
//! Session faults map onto the paper's fault classes: EOF and write errors
//! are detectable faults (immediate splice), silence falls to the
//! heartbeat detector, and an orderly `Leave` is treated exactly like a
//! crash — the ring closes over the survivors either way.

use crate::group::{BarrierGroup, GroupConfig, KillOutcome};
use crate::readiness::{Events, Poller, Waker};
use crate::wire::{ClientFrame, ServerFrame};
use crossbeam::channel::{unbounded, Receiver, Sender};
use ftbarrier_mp::socket::FrameReader;
use ftbarrier_runtime::detector::{Clock, WallClock};
use ftbarrier_telemetry::export::PROMETHEUS_CONTENT_TYPE;
use ftbarrier_telemetry::{to_prometheus, Telemetry, TimeDomain};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Client listener address (`port 0` for ephemeral).
    pub addr: String,
    /// Metrics listener address (`port 0` for ephemeral).
    pub metrics_addr: String,
    /// Worker shard count (groups hash onto shards).
    pub shards: usize,
    /// Read deadline for a new connection's `Join` frame.
    pub join_timeout: Duration,
    /// Per-group tuning (detector profile, wedge timeout, ...).
    pub group: GroupConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            metrics_addr: "127.0.0.1:0".into(),
            shards: 2,
            join_timeout: Duration::from_secs(5),
            group: GroupConfig::default(),
        }
    }
}

/// Lines the server log keeps; older ones are dropped and counted.
const LOG_CAPACITY: usize = 4096;

/// The newest log lines, bounded: a long-running server logs every join,
/// seal, splice and close, so an unbounded log is a leak any client can
/// drive by connecting and dropping.
#[derive(Default)]
struct LogRing {
    lines: VecDeque<String>,
    dropped: u64,
}

impl LogRing {
    fn push(&mut self, line: String) {
        if self.lines.len() == LOG_CAPACITY {
            self.lines.pop_front();
            self.dropped += 1;
        }
        self.lines.push_back(line);
    }

    /// Oldest kept line first; if any were dropped, a first line says how
    /// many.
    fn snapshot(&self) -> String {
        let head = (self.dropped > 0).then(|| format!("[{} earlier lines dropped]", self.dropped));
        head.iter()
            .chain(&self.lines)
            .map(String::as_str)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Shared mutable server state (log, flight dumps, gauges).
struct Shared {
    stop: AtomicBool,
    clock: Arc<WallClock>,
    telemetry: Telemetry,
    log: Mutex<LogRing>,
    last_flight: Mutex<Option<String>>,
    sessions_active: AtomicI64,
    groups_active: AtomicI64,
    /// Per shard, the returns from `epoll_wait` not yet folded into
    /// `server_shard_wakeups_total` (a shard bumps an atomic per wake-up;
    /// the registry's lock is taken at scrape time only).
    shard_wakeups: Vec<AtomicU64>,
}

impl Shared {
    fn new(shards: usize) -> Shared {
        Shared {
            stop: AtomicBool::new(false),
            clock: WallClock::start(),
            telemetry: Telemetry::recording(TimeDomain::Wall),
            log: Mutex::new(LogRing::default()),
            last_flight: Mutex::new(None),
            sessions_active: AtomicI64::new(0),
            groups_active: AtomicI64::new(0),
            shard_wakeups: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn log(&self, line: impl AsRef<str>) {
        let stamped = format!("[{:9.3}] {}", self.clock.now(), line.as_ref());
        self.log.lock().push(stamped);
    }

    /// Bring the registry up to date with the atomics (called at scrape
    /// time so the exposition is always current).
    fn sync_metrics(&self) {
        self.telemetry.gauge(
            "server_sessions_active",
            &[],
            self.sessions_active.load(Ordering::Acquire) as f64,
        );
        self.telemetry.gauge(
            "server_groups_active",
            &[],
            self.groups_active.load(Ordering::Acquire) as f64,
        );
        for (shard, pending) in self.shard_wakeups.iter().enumerate() {
            // `swap` hands each wake-up to exactly one of two racing scrapes.
            self.telemetry.counter(
                "server_shard_wakeups_total",
                &[("shard", &shard.to_string())],
                pending.swap(0, Ordering::Relaxed),
            );
        }
    }

    /// One session fewer, however it ended.
    fn count_closed(&self) {
        self.sessions_active.fetch_sub(1, Ordering::AcqRel);
        self.telemetry
            .counter("server_sessions_closed_total", &[], 1);
    }
}

/// A routed session: the acceptor read the `Join`, a shard owns the rest.
struct NewSession {
    stream: TcpStream,
    group: String,
    size: u32,
}

/// Handle to a running server. Dropping it does *not* stop the threads;
/// call [`Server::shutdown`].
pub struct Server {
    addr: SocketAddr,
    metrics_addr: SocketAddr,
    shared: Arc<Shared>,
    /// One per thread: what `shutdown` rings to end its `epoll_wait`.
    wakers: Vec<Arc<Waker>>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind both listeners and start every thread.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        assert!(cfg.shards >= 1, "need at least one shard");
        let listener = TcpListener::bind(&cfg.addr)?;
        let metrics_listener = TcpListener::bind(&cfg.metrics_addr)?;
        let addr = listener.local_addr()?;
        let metrics_addr = metrics_listener.local_addr()?;

        let shared = Arc::new(Shared::new(cfg.shards));
        shared.log(format!(
            "listening on {addr} (metrics {metrics_addr}, {} shards)",
            cfg.shards
        ));

        // Everything that can fail comes before the first spawn, so an
        // error leaves no thread behind.
        let mut routes: Vec<(Sender<NewSession>, Arc<Waker>)> = Vec::new();
        let mut shards = Vec::new();
        for id in 0..cfg.shards {
            let (tx, rx) = unbounded();
            let shard = Shard::new(id, shared.clone(), cfg.group.clone(), rx)?;
            routes.push((tx, shard.waker.clone()));
            shards.push(shard);
        }
        let accept_door = Door::new(listener)?;
        let metrics_door = Door::new(metrics_listener)?;

        let mut wakers: Vec<Arc<Waker>> = routes.iter().map(|(_, w)| w.clone()).collect();
        wakers.push(accept_door.waker.clone());
        wakers.push(metrics_door.waker.clone());

        let mut threads = Vec::new();
        for shard in shards {
            threads.push(
                thread::Builder::new()
                    .name(format!("ftb-shard-{}", shard.id))
                    .spawn(move || shard.run())
                    .expect("spawn shard"),
            );
        }
        {
            let shared = shared.clone();
            let join_timeout = cfg.join_timeout;
            threads.push(
                thread::Builder::new()
                    .name("ftb-accept".into())
                    .spawn(move || accept_loop(accept_door, routes, shared, join_timeout))
                    .expect("spawn acceptor"),
            );
        }
        {
            let shared = shared.clone();
            threads.push(
                thread::Builder::new()
                    .name("ftb-metrics".into())
                    .spawn(move || {
                        metrics_door.run(&shared, |stream, _| serve_scrape(stream, &shared))
                    })
                    .expect("spawn metrics"),
            );
        }
        Ok(Server {
            addr,
            metrics_addr,
            shared,
            wakers,
            threads,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn metrics_addr(&self) -> SocketAddr {
        self.metrics_addr
    }

    /// Render the current Prometheus exposition (same text `/metrics`
    /// serves).
    pub fn render_metrics(&self) -> String {
        self.shared.sync_metrics();
        to_prometheus(&self.shared.telemetry.snapshot())
    }

    /// The most recent group flight dump, if any group wedged.
    pub fn last_flight_dump(&self) -> Option<String> {
        self.shared.last_flight.lock().clone()
    }

    /// The timestamped server log: the newest lines, headed by a count of
    /// the older ones dropped, if any were.
    pub fn log_snapshot(&self) -> String {
        self.shared.log.lock().snapshot()
    }

    /// Stop every thread and wait for them.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Release);
        for waker in &self.wakers {
            waker.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.shared.log("shutdown complete");
    }
}

/// FNV-1a over the group name, for shard routing.
fn shard_of(group: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in group.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Blocking-read one frame within `timeout`. `None` on timeout, EOF, or a
/// malformed frame.
fn read_one_frame(stream: &mut TcpStream, timeout: Duration) -> Option<Vec<u8>> {
    stream.set_read_timeout(Some(timeout)).ok()?;
    let mut reader = FrameReader::new();
    let mut buf = [0u8; 4096];
    let mut out = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return None,
            Ok(n) => {
                reader.push(&buf[..n], &mut out).ok()?;
                if let Some(body) = out.into_iter().next() {
                    return Some(body);
                }
                out = Vec::new();
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return None,
        }
    }
}

/// Write a whole frame to a (possibly nonblocking) socket, spinning
/// briefly on `WouldBlock`. Frames are tiny; a full send buffer for more
/// than `timeout` counts as a dead peer.
fn write_frame(stream: &mut TcpStream, frame: &[u8], timeout: Duration) -> std::io::Result<()> {
    let mut written = 0;
    let mut waited = Duration::ZERO;
    while written < frame.len() {
        match stream.write(&frame[written..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if waited >= timeout {
                    return Err(ErrorKind::TimedOut.into());
                }
                let step = Duration::from_millis(1);
                thread::sleep(step);
                waited += step;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

fn bye(reason: &str) -> Vec<u8> {
    ServerFrame::Bye {
        reason: reason.into(),
    }
    .to_frame()
}

/// Where a listener thread blocks: its listener and the eventfd
/// [`Server::shutdown`] rings, behind one poller.
struct Door {
    listener: TcpListener,
    poller: Poller,
    waker: Arc<Waker>,
}

impl Door {
    fn new(listener: TcpListener) -> std::io::Result<Door> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new()?);
        // `run` never looks at the tokens: whichever descriptor woke it, it
        // checks for shutdown and then tries one accept.
        poller.add(&listener, 0)?;
        poller.add(&*waker, 1)?;
        Ok(Door {
            listener,
            poller,
            waker,
        })
    }

    /// Hand each accepted connection to `serve` until shutdown.
    fn run(self, shared: &Shared, mut serve: impl FnMut(TcpStream, SocketAddr)) {
        let mut events = Events::with_capacity(2);
        loop {
            self.poller
                .wait(&mut events, None)
                .expect("epoll_wait on this thread's own epoll descriptor");
            if shared.stop.load(Ordering::Acquire) {
                return;
            }
            // One accept per wake-up: a longer backlog reports the listener
            // readable again (level-triggered).
            match self.listener.accept() {
                Ok((stream, peer)) => serve(stream, peer),
                // The connection was reset before it was accepted.
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => {
                    shared.log(format!("accept error: {e}"));
                    thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }
}

fn accept_loop(
    door: Door,
    routes: Vec<(Sender<NewSession>, Arc<Waker>)>,
    shared: Arc<Shared>,
    join_timeout: Duration,
) {
    door.run(&shared, |mut stream, peer| {
        let _ = stream.set_nodelay(true);
        let Some(body) = read_one_frame(&mut stream, join_timeout) else {
            shared.log(format!("{peer}: dropped before a Join frame"));
            return;
        };
        match ClientFrame::decode(&body) {
            Some(ClientFrame::Join { group, size }) if size >= 2 => {
                let shard = shard_of(&group, routes.len());
                shared.log(format!(
                    "{peer}: join group={group:?} size={size} -> shard {shard}"
                ));
                shared
                    .telemetry
                    .counter("server_sessions_opened_total", &[], 1);
                shared.sessions_active.fetch_add(1, Ordering::AcqRel);
                let (tx, waker) = &routes[shard];
                let _ = tx.send(NewSession {
                    stream,
                    group,
                    size,
                });
                waker.wake();
            }
            other => {
                shared.log(format!("{peer}: bad first frame {other:?}"));
                let _ = write_frame(&mut stream, &bye("expected Join"), WRITE_TIMEOUT);
            }
        }
    });
}

/// One connected member of an active group.
struct Session {
    stream: TcpStream,
    reader: FrameReader,
}

/// A group waiting for its declared size to be reached.
struct PendingGroup {
    size: u32,
    sessions: Vec<TcpStream>,
}

/// A sealed, running group.
struct ActiveGroup {
    name: String,
    group: BarrierGroup,
    sessions: Vec<Option<Session>>,
    last_release_at: f64,
    /// Members whose sessions were found dead since the last pump.
    dead: Vec<usize>,
}

impl ActiveGroup {
    fn live_sessions(&self) -> usize {
        self.sessions.iter().filter(|s| s.is_some()).count()
    }
}

/// Most events one `epoll_wait` returns to a shard; sessions beyond that
/// stay readable and come with the next wait.
const EVENTS_PER_WAIT: usize = 256;

/// The shard's own eventfd (new sessions, shutdown). Group ids stop short
/// of `u32::MAX`, so no session token equals it.
const WAKER_TOKEN: u64 = u64::MAX;

/// A session's epoll token: the group's id, which stays put while other
/// groups come and go, and the member's seat.
fn session_token(group_id: u32, member: usize) -> u64 {
    u64::from(group_id) << 32 | member as u64
}

/// How often a shard runs its timer pass (detector verdicts, stall splice,
/// wedge watchdog) over every group: a quarter of the shortest deadline any
/// of the three can hold, so none is overshot by more than a quarter of
/// itself. Derived rather than configured — the deadlines are the setting.
fn timer_cadence(cfg: &GroupConfig) -> Duration {
    let shortest = cfg
        .detector
        .base_timeout
        .min(cfg.stall_splice_timeout)
        .min(cfg.wedge_timeout);
    // `epoll_wait` counts in milliseconds.
    Duration::from_secs_f64((shortest / 4.0).clamp(0.001, 3600.0))
}

/// One shard worker: the groups hashed onto it and the poller that watches
/// their sessions.
struct Shard {
    id: usize,
    shared: Arc<Shared>,
    group_cfg: GroupConfig,
    rx: Receiver<NewSession>,
    waker: Arc<Waker>,
    poller: Poller,
    pending: HashMap<String, PendingGroup>,
    groups: BTreeMap<u32, ActiveGroup>,
    next_group_id: u32,
    /// Groups to pump before this pass ends.
    due: BTreeSet<u32>,
    /// Lent to every `read_session`: one socket read's worth of bytes.
    read_buf: Box<[u8; 4096]>,
}

impl Shard {
    fn new(
        id: usize,
        shared: Arc<Shared>,
        group_cfg: GroupConfig,
        rx: Receiver<NewSession>,
    ) -> std::io::Result<Shard> {
        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new()?);
        poller.add(&*waker, WAKER_TOKEN)?;
        Ok(Shard {
            id,
            shared,
            group_cfg,
            rx,
            waker,
            poller,
            pending: HashMap::new(),
            groups: BTreeMap::new(),
            next_group_id: 0,
            due: BTreeSet::new(),
            read_buf: Box::new([0; 4096]),
        })
    }

    fn run(mut self) {
        let cadence = timer_cadence(&self.group_cfg);
        let mut next_timer = Instant::now() + cadence;
        let mut events = Events::with_capacity(EVENTS_PER_WAIT);
        while self.pass(&mut events, &mut next_timer, cadence) {}

        // Orderly shutdown: tell every surviving client.
        let bye = bye("server shutting down");
        for g in self.groups.values_mut() {
            for s in g.sessions.iter_mut().flatten() {
                let _ = write_frame(&mut s.stream, &bye, WRITE_TIMEOUT);
            }
        }
    }

    /// One wake-up: block until a session is readable, the eventfd rang or
    /// the timer pass is due; read exactly the sessions `epoll_wait` named;
    /// pump exactly the groups those reads (or a sealing) touched, or every
    /// group if the timer pass is due. `false` once shutdown was asked for.
    fn pass(&mut self, events: &mut Events, next_timer: &mut Instant, cadence: Duration) -> bool {
        let until_timer = next_timer.saturating_duration_since(Instant::now());
        self.poller
            .wait(events, Some(until_timer))
            .expect("epoll_wait on this shard's own epoll descriptor");
        self.shared.shard_wakeups[self.id].fetch_add(1, Ordering::Relaxed);
        if self.shared.stop.load(Ordering::Acquire) {
            return false;
        }
        for token in events.tokens() {
            if token == WAKER_TOKEN {
                // Reset first: a session routed after the drain below rings
                // again and is seated by the next pass.
                self.waker.reset();
                while let Ok(new) = self.rx.try_recv() {
                    self.seat(new);
                }
            } else {
                self.read_ready((token >> 32) as u32, token as u32 as usize);
            }
        }
        let now = Instant::now();
        if now >= *next_timer {
            *next_timer = now + cadence;
            self.due.extend(self.groups.keys());
        }
        self.pump_due();
        true
    }

    /// `epoll_wait` named this session: read it once and queue its group.
    fn read_ready(&mut self, group_id: u32, member: usize) {
        // A session is deregistered before it is dropped, so a token always
        // finds its session; the `else`s are for the type checker.
        let Some(g) = self.groups.get_mut(&group_id) else {
            return;
        };
        let Some(s) = g.sessions.get_mut(member).and_then(Option::as_mut) else {
            return;
        };
        if !read_session(member, s, &mut g.group, &mut self.read_buf[..]) {
            g.dead.push(member);
        }
        self.due.insert(group_id);
    }

    fn pump_due(&mut self) {
        for group_id in std::mem::take(&mut self.due) {
            let Some(g) = self.groups.get_mut(&group_id) else {
                continue;
            };
            if !pump_group(g, &self.shared, &self.poller) {
                self.shared.groups_active.fetch_sub(1, Ordering::AcqRel);
                self.shared.log(format!(
                    "shard {}: group {:?} closed after {} phases",
                    self.id,
                    g.name,
                    g.group.phases_released()
                ));
                self.groups.remove(&group_id);
            }
        }
    }

    /// An id no running group of this shard holds.
    fn fresh_group_id(&mut self) -> u32 {
        loop {
            let id = self.next_group_id;
            self.next_group_id = (id + 1) % u32::MAX;
            if !self.groups.contains_key(&id) {
                return id;
            }
        }
    }

    /// Seat a newly routed session; seal its group if that filled it.
    fn seat(&mut self, new: NewSession) {
        let NewSession {
            stream,
            group,
            size,
        } = new;
        let refuse = |mut stream: TcpStream, reason: &str| {
            let _ = write_frame(&mut stream, &bye(reason), WRITE_TIMEOUT);
            self.shared.count_closed();
        };
        if self.groups.values().any(|g| g.name == group) {
            refuse(stream, "group already running");
            return;
        }
        let entry = self.pending.entry(group.clone()).or_insert(PendingGroup {
            size,
            sessions: Vec::new(),
        });
        if entry.size != size {
            refuse(stream, "size disagrees with the group's declared size");
            return;
        }
        if entry.sessions.len() as u32 + 1 > entry.size {
            refuse(stream, "group is full");
            return;
        }
        let _ = stream.set_nonblocking(true);
        entry.sessions.push(stream);
        if (entry.sessions.len() as u32) < entry.size {
            return;
        }

        let PendingGroup { size, sessions } = self.pending.remove(&group).expect("just inserted");
        let barrier = BarrierGroup::new(
            size as usize,
            &self.group_cfg,
            self.shared.clock.clone() as Arc<dyn Clock>,
            self.shared.telemetry.clone(),
        );
        let group_id = self.fresh_group_id();
        let mut seats = Vec::new();
        let mut dead = Vec::new();
        for (member, mut stream) in sessions.into_iter().enumerate() {
            let welcome = ServerFrame::Welcome {
                member: member as u32,
                size,
            }
            .to_frame();
            // A seat that cannot be welcomed, or cannot be watched, is a
            // vanished session like any other: the group's first pump
            // splices it (or tears the group down, if it is the root)
            // instead of the ring waiting out the detector for it.
            if write_frame(&mut stream, &welcome, WRITE_TIMEOUT).is_err()
                || self
                    .poller
                    .add(&stream, session_token(group_id, member))
                    .is_err()
            {
                dead.push(member);
            }
            seats.push(Some(Session {
                stream,
                reader: FrameReader::new(),
            }));
        }
        self.shared.groups_active.fetch_add(1, Ordering::AcqRel);
        self.shared
            .log(format!("group {group:?} sealed with {size} members"));
        self.groups.insert(
            group_id,
            ActiveGroup {
                name: group,
                group: barrier,
                sessions: seats,
                last_release_at: self.shared.clock.now(),
                dead,
            },
        );
        self.due.insert(group_id);
    }
}

/// Retire a session: deregister its socket, then close it, then count it.
fn close_session(s: Session, poller: &Poller, shared: &Shared) {
    // Fails only for a seat that never got registered (see `Shard::seat`).
    let _ = poller.remove(&s.stream);
    drop(s);
    shared.count_closed();
}

/// Read a readable session's socket once and apply the frames to the
/// group. One `read` per readiness event is enough: the registration is
/// level-triggered, so whatever a full buffer left behind is reported by
/// the next `epoll_wait`, and a short read needs no second `read` to learn
/// the socket is drained. Returns `false` if the session died (EOF, error,
/// malformed frame, or `Leave`).
fn read_session(member: usize, s: &mut Session, group: &mut BarrierGroup, buf: &mut [u8]) -> bool {
    let n = loop {
        match s.stream.read(buf) {
            Ok(0) => return false,
            Ok(n) => break n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(_) => return false,
        }
    };
    let mut bodies = Vec::new();
    if s.reader.push(&buf[..n], &mut bodies).is_err() {
        return false;
    }
    for body in bodies {
        match ClientFrame::decode(&body) {
            Some(ClientFrame::Arrive { .. }) => group.arrive(member),
            Some(ClientFrame::Ping) => group.heartbeat(member),
            Some(ClientFrame::Leave) | Some(ClientFrame::Join { .. }) | None => return false,
        }
    }
    true
}

/// One scheduling pass over an active group: bury the sessions found dead,
/// tick the ring, broadcast what it released. Returns `false` when the
/// group should be torn down (root died or every session is gone).
fn pump_group(g: &mut ActiveGroup, shared: &Shared, poller: &Poller) -> bool {
    for member in std::mem::take(&mut g.dead) {
        if let Some(s) = g.sessions[member].take() {
            close_session(s, poller, shared);
        }
        match g.group.kill(member) {
            KillOutcome::Spliced => {
                shared.log(format!(
                    "group {:?}: member {member} vanished, spliced (epoch {})",
                    g.name,
                    g.group.epoch()
                ));
            }
            KillOutcome::RootDied => {
                shared.log(format!(
                    "group {:?}: root session died, tearing the group down",
                    g.name
                ));
                teardown(g, shared, poller, "root died");
                return false;
            }
            KillOutcome::AlreadyDead => {}
        }
    }

    // Tick the ring.
    let tick = g.group.tick();
    for member in tick.spliced {
        shared.log(format!(
            "group {:?}: member {member} silent, spliced by the detector (epoch {})",
            g.name,
            g.group.epoch()
        ));
        if let Some(mut s) = g.sessions[member].take() {
            let bye = bye("spliced: heartbeat timeout");
            let _ = write_frame(&mut s.stream, &bye, WRITE_TIMEOUT);
            close_session(s, poller, shared);
        }
    }
    if let Some(dump) = tick.flight_dump {
        shared.log(format!(
            "group {:?}: WEDGED after {} phases; flight dump captured ({} bytes)",
            g.name,
            g.group.phases_released(),
            dump.len()
        ));
        *shared.last_flight.lock() = Some(dump);
    }
    for release in &tick.releases {
        let now = shared.clock.now();
        shared.telemetry.observe(
            "runtime_phase_duration",
            &[("group", &g.name), ("outcome", "advance")],
            (now - g.last_release_at).max(0.0),
        );
        g.last_release_at = now;
        shared
            .telemetry
            .counter("server_releases_total", &[("group", &g.name)], 1);
        let frame = ServerFrame::Release {
            phase: release.phase,
            epoch: release.epoch,
            live: release.live,
        }
        .to_frame();
        for s in g.sessions.iter_mut().flatten() {
            if write_frame(&mut s.stream, &frame, WRITE_TIMEOUT).is_err() {
                // Broken pipe: certain death. Shutting the socket down makes
                // it readable, so the next `epoll_wait` names it and its
                // read returns 0 — handled next pass, no timer involved.
                let _ = s.stream.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    g.live_sessions() > 0
}

/// Send `Bye` to every surviving session and count them closed.
fn teardown(g: &mut ActiveGroup, shared: &Shared, poller: &Poller, reason: &str) {
    let bye = bye(reason);
    for slot in g.sessions.iter_mut() {
        if let Some(mut s) = slot.take() {
            let _ = write_frame(&mut s.stream, &bye, WRITE_TIMEOUT);
            close_session(s, poller, shared);
        }
    }
}

/// Minimal HTTP/1.1 server for `GET /metrics`: request line + headers in,
/// one response out, `Connection: close`. Hand-rolled on purpose — the
/// workspace vendors no HTTP stack and the Prometheus scrape protocol
/// needs none.
fn serve_scrape(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut raw = Vec::new();
    let mut buf = [0u8; 1024];
    // Read until the header terminator (requests have no body).
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&buf[..n]);
                if raw.windows(4).any(|w| w == b"\r\n\r\n") || raw.len() > 8192 {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let request_line = raw
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .map(|l| String::from_utf8_lossy(l).into_owned())
        .unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let response = if method == "GET" && path == "/metrics" {
        shared.sync_metrics();
        let body = to_prometheus(&shared.telemetry.snapshot());
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: {PROMETHEUS_CONTENT_TYPE}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    } else {
        let body = "not found\n";
        format!(
            "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    };
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbarrier_runtime::detector::DetectorConfig;

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for shards in 1..5 {
            for name in ["alpha", "beta", "γ", ""] {
                let s = shard_of(name, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(name, shards));
            }
        }
    }

    #[test]
    fn timer_cadence_follows_the_shortest_deadline() {
        let ms = |cfg: &GroupConfig| timer_cadence(cfg).as_millis();
        // Defaults: the detector's 100 ms is the shortest.
        assert_eq!(ms(&GroupConfig::default()), 25);
        // A quiet detector must not slow the stall splice or the watchdog.
        let mut cfg = GroupConfig::default();
        cfg.detector.base_timeout = 30.0;
        cfg.detector.max_timeout = 30.0;
        cfg.stall_splice_timeout = 0.6;
        assert_eq!(ms(&cfg), 150);
        cfg.wedge_timeout = 0.2;
        assert_eq!(ms(&cfg), 50);
        // epoll counts in milliseconds: never below one.
        cfg.wedge_timeout = 0.0;
        assert_eq!(ms(&cfg), 1);
    }

    #[test]
    fn log_keeps_the_newest_lines_and_counts_the_dropped() {
        let mut ring = LogRing::default();
        for i in 0..LOG_CAPACITY {
            ring.push(format!("line {i}"));
        }
        assert_eq!(ring.snapshot().lines().count(), LOG_CAPACITY);
        assert!(
            ring.snapshot().starts_with("line 0\n"),
            "nothing dropped yet"
        );
        for i in LOG_CAPACITY..LOG_CAPACITY + 12 {
            ring.push(format!("line {i}"));
        }
        let snapshot = ring.snapshot();
        let lines: Vec<&str> = snapshot.lines().collect();
        assert_eq!(lines[0], "[12 earlier lines dropped]");
        assert_eq!(lines[1], "line 12");
        assert_eq!(
            lines.last(),
            Some(&format!("line {}", LOG_CAPACITY + 11).as_str())
        );
        assert_eq!(lines.len(), 1 + LOG_CAPACITY);
    }

    /// A shard driven by hand, with every deadline far enough away that
    /// only readiness can make anything happen.
    struct Bench {
        shard: Shard,
        listener: TcpListener,
        events: Events,
        never: Instant,
    }

    impl Bench {
        fn new() -> Bench {
            let hour = DetectorConfig {
                base_timeout: 3600.0,
                backoff: 1.0,
                max_timeout: 3600.0,
                suspicion_threshold: 3,
            };
            let cfg = GroupConfig {
                detector: hour,
                wedge_timeout: 3600.0,
                stall_splice_timeout: 3600.0,
                ..GroupConfig::default()
            };
            let (_tx, rx) = unbounded();
            Bench {
                shard: Shard::new(0, Arc::new(Shared::new(1)), cfg, rx).expect("shard"),
                listener: TcpListener::bind("127.0.0.1:0").expect("bind"),
                events: Events::with_capacity(16),
                never: Instant::now() + Duration::from_secs(3600),
            }
        }

        /// A loopback connection: (client end, server end).
        fn connect(&self) -> (TcpStream, TcpStream) {
            let client = TcpStream::connect(self.listener.local_addr().unwrap()).expect("connect");
            let (served, _) = self.listener.accept().expect("accept");
            client
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            (client, served)
        }

        fn seat(&mut self, served: TcpStream, group: &str, size: u32) {
            self.shard.seat(NewSession {
                stream: served,
                group: group.into(),
                size,
            });
        }

        /// One shard pass. Only readiness can end it: the timer is an hour
        /// away.
        fn pass(&mut self) {
            assert!(self
                .shard
                .pass(&mut self.events, &mut self.never, Duration::from_secs(3600)));
        }

        fn log(&self) -> String {
            self.shard.shared.log.lock().snapshot()
        }
    }

    /// Drop `client` so that its server end is reset, and wait until the
    /// reset has landed: a peer that closes with unread bytes sends RST, not
    /// FIN, and every later write on `served` then fails.
    fn reset(client: TcpStream, served: &TcpStream) {
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(5);
        while served.take_error().expect("SO_ERROR").is_none() {
            assert!(Instant::now() < deadline, "no RST from the dropped peer");
            thread::yield_now();
        }
    }

    fn next_frame(client: &mut TcpStream) -> ServerFrame {
        let mut head = [0u8; 4];
        client.read_exact(&mut head).expect("frame header");
        let mut body = vec![0u8; u32::from_be_bytes(head) as usize];
        client.read_exact(&mut body).expect("frame body");
        ServerFrame::decode(&body).expect("server frame")
    }

    /// A seat whose `Welcome` cannot be written is dead on arrival. It used
    /// to be left in the ring for the heartbeat detector to find — and the
    /// detector never splices the root, so a dead root seat hung the group
    /// for good. Now the sealing pass itself buries it.
    #[test]
    fn seat_that_cannot_be_welcomed_is_buried_by_the_sealing_pass() {
        let mut b = Bench::new();

        // Root seat dead: the group is torn down and the survivor told.
        let (root, mut root_served) = b.connect();
        root_served.write_all(b"x").unwrap();
        reset(root, &root_served);
        let (mut other, other_served) = b.connect();
        b.seat(root_served, "headless", 2);
        b.seat(other_served, "headless", 2);
        b.shard.pump_due();
        assert!(b.shard.groups.is_empty(), "log:\n{}", b.log());
        assert_eq!(
            next_frame(&mut other),
            ServerFrame::Welcome { member: 1, size: 2 }
        );
        assert_eq!(
            next_frame(&mut other),
            ServerFrame::Bye {
                reason: "root died".into()
            }
        );

        // Non-root seat dead: spliced at once, the rest release without it.
        let (mut root, root_served) = b.connect();
        let (lost, mut lost_served) = b.connect();
        lost_served.write_all(b"x").unwrap();
        reset(lost, &lost_served);
        let (mut third, third_served) = b.connect();
        b.seat(root_served, "limping", 3);
        b.seat(lost_served, "limping", 3);
        b.seat(third_served, "limping", 3);
        b.shard.pump_due();
        assert!(
            b.log().contains("\"limping\": member 1 vanished, spliced"),
            "log:\n{}",
            b.log()
        );
        for c in [&mut root, &mut third] {
            assert!(matches!(
                next_frame(c),
                ServerFrame::Welcome { size: 3, .. }
            ));
            c.write_all(&ClientFrame::Arrive { phase: 0 }.to_frame())
                .unwrap();
        }
        // Two sockets become readable; both may or may not share a pass.
        while b
            .shard
            .groups
            .values()
            .next()
            .unwrap()
            .group
            .phases_released()
            == 0
        {
            b.pass();
        }
        for c in [&mut root, &mut third] {
            assert!(matches!(
                next_frame(c),
                ServerFrame::Release {
                    phase: 0,
                    live: 2,
                    ..
                }
            ));
        }
    }

    /// A session whose `Release` write fails is shut down, which makes its
    /// socket readable: the very next pass reads 0 and splices it, with
    /// every timer an hour away.
    #[test]
    fn failed_release_write_is_spliced_by_the_next_pass() {
        let mut b = Bench::new();
        let (mut root, root_served) = b.connect();
        let (mut doomed, doomed_served) = b.connect();
        b.seat(root_served, "pipe", 2);
        b.seat(doomed_served, "pipe", 2);
        b.shard.pump_due();
        assert!(matches!(next_frame(&mut root), ServerFrame::Welcome { .. }));

        // Member 1 arrives, then resets (its Welcome is still unread). The
        // Arrive stays readable on the server end; the write side is dead.
        for c in [&mut root, &mut doomed] {
            c.write_all(&ClientFrame::Arrive { phase: 0 }.to_frame())
                .unwrap();
        }
        let served = b.shard.groups.values().next().unwrap().sessions[1]
            .as_ref()
            .unwrap()
            .stream
            .try_clone()
            .unwrap();
        reset(doomed, &served);
        drop(served);

        while b
            .shard
            .groups
            .values()
            .next()
            .unwrap()
            .group
            .phases_released()
            == 0
        {
            b.pass();
        }
        assert!(matches!(
            next_frame(&mut root),
            ServerFrame::Release { phase: 0, .. }
        ));
        let g = b.shard.groups.values().next().unwrap();
        assert!(
            g.sessions[1].is_some() && !b.log().contains("vanished"),
            "both arrived, so the release pass had no death to see:\n{}",
            b.log()
        );

        b.pass();
        assert!(
            b.log().contains("member 1 vanished, spliced"),
            "log:\n{}",
            b.log()
        );
        assert!(b.shard.groups.values().next().unwrap().sessions[1].is_none());
    }
}
