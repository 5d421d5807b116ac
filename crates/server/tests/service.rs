//! End-to-end service tests: a real `Server` on loopback, real TCP
//! clients, injected kills, stalls, and live `/metrics` scrapes.

use ftbarrier_runtime::detector::DetectorConfig;
use ftbarrier_server::client::{run_client, BarrierClient};
use ftbarrier_server::group::GroupConfig;
use ftbarrier_server::selftest::{http_get, run_selftest};
use ftbarrier_server::server::{Server, ServerConfig};
use ftbarrier_server::wire::{frame, ClientFrame, ServerFrame, MAX_FRAME};
use ftbarrier_telemetry::export::PROMETHEUS_CONTENT_TYPE;
use ftbarrier_telemetry::{prom, FlightDump};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

const T: Duration = Duration::from_secs(15);

fn start(group: GroupConfig) -> Server {
    Server::start(ServerConfig {
        shards: 2,
        group,
        ..ServerConfig::default()
    })
    .expect("server start")
}

/// A full-size group completes every phase and the metrics endpoint
/// serves a parseable exposition with the right Content-Type.
#[test]
fn fault_free_group_completes_and_metrics_parse() {
    let server = start(GroupConfig::default());
    let addr = server.addr();
    let handles: Vec<_> = (0..3)
        .map(|_| thread::spawn(move || run_client(addr, "steady", 3, 12, &[], T)))
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for o in &outcomes {
        assert!(o.error.is_none(), "{o:?}");
        assert_eq!(o.completed, 12, "{o:?}");
    }
    let mut members: Vec<u32> = outcomes.iter().map(|o| o.member).collect();
    members.sort_unstable();
    assert_eq!(members, vec![0, 1, 2], "each session got a distinct seat");

    let (ct, body) = http_get(server.metrics_addr(), "/metrics").expect("scrape");
    assert_eq!(ct, PROMETHEUS_CONTENT_TYPE);
    let exp = prom::parse(&body).expect("exposition parses");
    assert_eq!(
        exp.value("server_releases_total", &[("group", "steady")]),
        Some(12.0)
    );
    assert!(!exp.samples_of("runtime_phase_duration").is_empty());
    server.shutdown();
}

/// Killing a non-root member mid-run is masked: the ring splices on EOF
/// and every surviving client completes every phase.
#[test]
fn killed_member_is_spliced_and_survivors_finish() {
    let server = start(GroupConfig::default());
    let addr = server.addr();
    let handles: Vec<_> = (0..4)
        .map(|_| thread::spawn(move || run_client(addr, "crashy", 4, 10, &[(2, 4)], T)))
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let killed: Vec<_> = outcomes.iter().filter(|o| o.killed).collect();
    assert_eq!(killed.len(), 1);
    assert_eq!(killed[0].member, 2);
    assert_eq!(killed[0].completed, 4, "died entering phase 4");
    for o in outcomes.iter().filter(|o| !o.killed) {
        assert!(o.error.is_none(), "{o:?}");
        assert_eq!(o.completed, 10, "survivor {:?}", o.member);
    }
    let (_, body) = http_get(server.metrics_addr(), "/metrics").expect("scrape");
    let exp = prom::parse(&body).expect("exposition parses");
    assert_eq!(
        exp.value("server_releases_total", &[("group", "crashy")]),
        Some(10.0)
    );
    let log = server.log_snapshot();
    assert!(
        log.contains("member 2 vanished, spliced"),
        "splice is logged:\n{log}"
    );
    server.shutdown();
}

/// Root death tears the whole group down: survivors get `Bye`, not a
/// wedge.
#[test]
fn root_death_tears_the_group_down() {
    let server = start(GroupConfig::default());
    let addr = server.addr();
    let handles: Vec<_> = (0..3)
        .map(|_| thread::spawn(move || run_client(addr, "regicide", 3, 10, &[(0, 3)], T)))
        .collect();
    let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(outcomes.iter().filter(|o| o.killed).count(), 1);
    for o in outcomes.iter().filter(|o| !o.killed) {
        let err = o.error.as_deref().expect("survivors are told to go home");
        assert!(
            err.contains("bye") || err.contains("eof") || err.contains("timed"),
            "{err}"
        );
    }
    server.shutdown();
}

/// A connected-but-stalled client (pings, never arrives) wedges its group;
/// the server's flight dump parses, replays, and blames that member.
#[test]
fn stalled_client_wedges_and_the_flight_dump_blames_it() {
    let server = start(GroupConfig {
        // Detector quiet (the staller pings); the wedge watchdog does the
        // diagnosis.
        detector: DetectorConfig {
            base_timeout: 30.0,
            backoff: 1.0,
            max_timeout: 30.0,
            suspicion_threshold: 10,
        },
        wedge_timeout: 0.8,
        ..GroupConfig::default()
    });
    let addr = server.addr();

    let handles: Vec<_> = (0..3)
        .map(|_| thread::spawn(move || BarrierClient::join(addr, "stuck", 3, T).expect("join")))
        .collect();
    let mut clients: Vec<BarrierClient> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    clients.sort_by_key(|c| c.member);

    // Phase 0 completes cleanly.
    for c in clients.iter_mut() {
        c.arrive(0).unwrap();
    }
    for c in clients.iter_mut() {
        c.await_release(0, T).unwrap();
    }
    // Phase 1: members 0 and 2 arrive; member 1 only pings.
    clients[0].arrive(1).unwrap();
    clients[2].arrive(1).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let dump = loop {
        assert!(Instant::now() < deadline, "no flight dump before deadline");
        clients[1].ping().unwrap();
        if let Some(d) = server.last_flight_dump() {
            break d;
        }
        thread::sleep(Duration::from_millis(50));
    };
    let parsed = FlightDump::parse(&dump).expect("dump parses");
    parsed.replay().expect("dump replays");
    assert_eq!(parsed.program, "server");
    assert_eq!(parsed.kind, "wedge");
    assert_eq!(parsed.reason, "stall");
    assert_eq!(parsed.blamed, Some(1), "the stalled member is the culprit");
    let log = server.log_snapshot();
    assert!(log.contains("WEDGED"), "wedge is logged:\n{log}");
    for c in clients {
        c.kill();
    }
    server.shutdown();
}

/// A client that stays chatty (valid `Ping` frames) but never sends
/// `Arrive` is spliced after the stall grace period: the correct members
/// complete the phase instead of waiting forever, and the staller's
/// session is closed by the server.
#[test]
fn silent_byzantine_client_is_spliced_not_waited_on() {
    let server = start(GroupConfig {
        // Detector quiet (the staller pings); the stall splice must act.
        detector: DetectorConfig {
            base_timeout: 30.0,
            backoff: 1.0,
            max_timeout: 30.0,
            suspicion_threshold: 10,
        },
        wedge_timeout: 30.0,
        stall_splice_timeout: 0.6,
        ..GroupConfig::default()
    });
    let addr = server.addr();

    let handles: Vec<_> = (0..3)
        .map(|_| thread::spawn(move || BarrierClient::join(addr, "mute", 3, T).expect("join")))
        .collect();
    let mut clients: Vec<BarrierClient> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    clients.sort_by_key(|c| c.member);

    // Phase 0 completes cleanly.
    for c in clients.iter_mut() {
        c.arrive(0).unwrap();
    }
    for c in clients.iter_mut() {
        c.await_release(0, T).unwrap();
    }
    // Phase 1: member 1 turns silent-Byzantine — valid frames, no Arrive.
    let mut staller = clients.remove(1);
    let staller = thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(10);
        // Ping until the server hangs up on us; report whether it did.
        while Instant::now() < deadline {
            if staller.ping().is_err() {
                return true;
            }
            thread::sleep(Duration::from_millis(50));
        }
        false
    });
    for c in clients.iter_mut() {
        c.arrive(1).unwrap();
    }
    for c in clients.iter_mut() {
        c.await_release(1, T)
            .expect("correct members must not wait forever on the staller");
    }
    assert!(
        staller.join().unwrap(),
        "the staller's session must be closed, not strung along"
    );
    let log = server.log_snapshot();
    assert!(
        log.contains("member 1 silent, spliced"),
        "stall splice is logged:\n{log}"
    );
    server.shutdown();
}

/// Fuzz-style robustness: random garbage sprayed at the acceptor and at a
/// sealed group is contained as detectable faults — oversized prefixes are
/// rejected by the typed frame check, garbled sessions are dropped or
/// spliced, the server stays up, and honest clients keep releasing.
#[test]
fn random_garbage_frames_are_contained_as_detectable_faults() {
    let server = Server::start(ServerConfig {
        shards: 2,
        // Keep half-frame garbage connections cheap for the acceptor.
        join_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    })
    .expect("server start");
    let addr = server.addr();

    // An honest group runs through its phases during the bombardment.
    let honest: Vec<_> = (0..3)
        .map(|_| thread::spawn(move || run_client(addr, "honest", 3, 10, &[], T)))
        .collect();

    // Deterministic xorshift noise generator.
    let mut s: u64 = 0x6A4B_1D2F_90E1_77C3;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for round in 0..24u64 {
        let mut sock = TcpStream::connect(addr).expect("connect");
        let mut wire = Vec::new();
        match round % 3 {
            0 => {
                // Hostile oversized length prefix (up to ~4 GiB declared);
                // the typed check must convict it from the header alone.
                let len = (MAX_FRAME as u32 + 1).saturating_add((next() as u32) / 2);
                wire.extend_from_slice(&len.to_be_bytes());
                wire.extend((0..16).map(|_| next() as u8));
            }
            1 => {
                // Well-framed random bodies: valid lengths, garbage kinds
                // and payloads.
                for _ in 0..4 {
                    let body: Vec<u8> = (0..(next() % 32 + 1)).map(|_| next() as u8).collect();
                    wire.extend_from_slice(&frame(&body));
                }
            }
            _ => {
                // Raw unframed byte noise.
                wire.extend((0..64).map(|_| next() as u8));
            }
        }
        let _ = sock.write_all(&wire);
        let _ = sock.shutdown(Shutdown::Write);
        // Drain whatever the server answers (possibly a Bye) until it
        // hangs up; a stuck read here would itself be a failure.
        sock.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let mut sink = Vec::new();
        let _ = sock.read_to_end(&mut sink);
    }

    // Garbage *inside* a sealed group: a member that joins cleanly and
    // then sprays framed noise is a vanished session — spliced, so the
    // honest member releases without it.
    let good = thread::spawn(move || -> std::io::Result<u32> {
        let mut c = BarrierClient::join(addr, "noise", 2, T)?;
        c.arrive(0)?;
        c.await_release(0, T)?;
        Ok(c.member)
    });
    // The good client connected first, so it takes seat 0 (the root);
    // give the serial acceptor a beat before the garbler joins.
    thread::sleep(Duration::from_millis(300));
    let mut garbler = TcpStream::connect(addr).expect("connect garbler");
    garbler
        .write_all(
            &ClientFrame::Join {
                group: "noise".into(),
                size: 2,
            }
            .to_frame(),
        )
        .expect("garbler joins");
    // Let the acceptor consume the Join before the junk follows, so the
    // noise lands on the seated session, not the acceptor's frame buffer.
    thread::sleep(Duration::from_millis(300));
    let mut junk = Vec::new();
    for _ in 0..8 {
        let body: Vec<u8> = (0..(next() % 24 + 1)).map(|_| next() as u8).collect();
        junk.extend_from_slice(&frame(&body));
    }
    let _ = garbler.write_all(&junk);
    match good.join().unwrap() {
        Ok(member) => assert_eq!(member, 0, "the honest member holds seat 0"),
        Err(e) => panic!(
            "good member failed: {e}\nserver log:\n{}",
            server.log_snapshot()
        ),
    }

    for h in honest {
        let o = h.join().unwrap();
        assert!(o.error.is_none(), "honest client failed: {o:?}");
        assert_eq!(o.completed, 10, "honest client missed phases: {o:?}");
    }
    let (_, body) = http_get(server.metrics_addr(), "/metrics").expect("still scraping");
    let exp = prom::parse(&body).expect("exposition parses");
    assert_eq!(
        exp.value("server_releases_total", &[("group", "honest")]),
        Some(10.0)
    );
    let log = server.log_snapshot();
    assert!(
        log.contains("dropped before a Join frame"),
        "acceptor convicts garbage pre-Join:\n{log}"
    );
    assert!(
        log.contains("member 1 vanished, spliced"),
        "in-group garbler is spliced:\n{log}"
    );
    server.shutdown();
}

/// Unknown paths 404; only `GET /metrics` is served.
#[test]
fn metrics_endpoint_rejects_other_paths() {
    let server = start(GroupConfig::default());
    let err = http_get(server.metrics_addr(), "/nope").expect_err("404");
    assert!(err.to_string().contains("404"), "{err}");
    server.shutdown();
}

/// The `repro serve --quick` acceptance run: ≥ 8 concurrent sessions,
/// ≥ 20 phases, mid-run kills, live scrape parsed by the workspace's own
/// Prometheus parser, every survivor completes every phase.
#[test]
fn selftest_quick_passes() {
    let report = run_selftest(true);
    assert!(
        report.passed(),
        "selftest failures: {:?}\nlog:\n{}",
        report.failures,
        report.server_log
    );
    assert!(report.sessions >= 8);
    assert!(report.phases >= 20);
    assert!(report.live_metrics.contains("runtime_phase_duration"));
    assert!(report.server_log.contains("sealed"));
}

/// Every deadline the shard's timer pass serves pushed out to 40 s, so the
/// pass runs every 10 s and cannot be what makes a sub-second test pass.
fn timers_out_of_the_way() -> GroupConfig {
    GroupConfig {
        detector: DetectorConfig {
            base_timeout: 40.0,
            backoff: 1.0,
            max_timeout: 40.0,
            suspicion_threshold: 10,
        },
        wedge_timeout: 40.0,
        stall_splice_timeout: 40.0,
        ..GroupConfig::default()
    }
}

/// Connect and send `Join` on a bare socket, for members that misbehave on
/// the wire. The acceptor serves connections in order, so bare members of
/// one group are seated in the order they were opened.
fn raw_join(addr: SocketAddr, group: &str, size: u32) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(T)).expect("read timeout");
    let join = ClientFrame::Join {
        group: group.into(),
        size,
    };
    stream.write_all(&join.to_frame()).expect("join");
    stream
}

fn raw_frame(stream: &mut TcpStream) -> ServerFrame {
    let mut head = [0u8; 4];
    stream.read_exact(&mut head).expect("frame header");
    let mut body = vec![0u8; u32::from_be_bytes(head) as usize];
    stream.read_exact(&mut body).expect("frame body");
    ServerFrame::decode(&body).expect("server frame")
}

/// `n` sessions of groups of 4, joined and idle.
fn idle_sessions(addr: SocketAddr, tag: &str, n: usize) -> Vec<BarrierClient> {
    let joiners: Vec<_> = (0..n)
        .map(|i| {
            let group = format!("{tag}-{}", i / 4);
            thread::spawn(move || BarrierClient::join(addr, &group, 4, T).expect("join"))
        })
        .collect();
    joiners.into_iter().map(|j| j.join().unwrap()).collect()
}

fn shard_wakeups(server: &Server) -> Vec<f64> {
    let exp = prom::parse(&server.render_metrics()).expect("exposition parses");
    ["0", "1"]
        .iter()
        .map(|shard| {
            exp.value("server_shard_wakeups_total", &[("shard", shard)])
                .expect("one series per shard")
        })
        .collect()
}

/// A frame split across readiness events: a member that writes its
/// `Arrive` one byte at a time wakes the shard with a partial frame up to
/// thirteen times per phase, and still completes every phase.
#[test]
fn arrive_written_one_byte_at_a_time_still_completes_every_phase() {
    let server = start(GroupConfig::default());
    let addr = server.addr();
    let mut slow = raw_join(addr, "drip", 3);
    let others: Vec<_> = (0..2)
        .map(|_| thread::spawn(move || run_client(addr, "drip", 3, 6, &[], T)))
        .collect();
    assert!(matches!(
        raw_frame(&mut slow),
        ServerFrame::Welcome { size: 3, .. }
    ));
    for phase in 0..6 {
        let arrive = ClientFrame::Arrive { phase }.to_frame();
        for byte in arrive {
            slow.write_all(&[byte]).unwrap();
            // Long enough for the shard to wake, read the byte and block again.
            thread::sleep(Duration::from_millis(1));
        }
        match raw_frame(&mut slow) {
            ServerFrame::Release { phase: got, .. } => assert_eq!(got, phase),
            other => panic!("phase {phase}: {other:?}\n{}", server.log_snapshot()),
        }
    }
    for h in others {
        let o = h.join().unwrap();
        assert!(o.error.is_none(), "{o:?}");
        assert_eq!(o.completed, 6, "{o:?}");
    }
    server.shutdown();
}

/// A shard with nothing to read wakes for its timer pass only, and under
/// traffic at least once per phase. `server_shard_wakeups_total{shard}`
/// counts returns from `epoll_wait`.
#[test]
fn idle_shards_wake_for_the_timer_only() {
    // Default deadlines, so the timer pass runs every 25 ms (a quarter of
    // the detector's 100 ms) — but a detector that never convicts, because
    // these sessions are silent on purpose.
    let server = start(GroupConfig {
        detector: DetectorConfig {
            suspicion_threshold: 10_000,
            ..DetectorConfig::default()
        },
        ..GroupConfig::default()
    });
    let mut sessions = idle_sessions(server.addr(), "idle", 16);
    thread::sleep(Duration::from_millis(50)); // let the sealing passes finish

    let before = shard_wakeups(&server);
    let started = Instant::now();
    thread::sleep(Duration::from_millis(300));
    let timer_passes = started.elapsed().as_secs_f64() / 0.025;
    let after = shard_wakeups(&server);
    for (shard, (b, a)) in before.iter().zip(&after).enumerate() {
        assert!(
            a - b <= timer_passes + 8.0,
            "shard {shard} woke {} times in {:?} with nothing to do",
            a - b,
            started.elapsed()
        );
    }

    // Traffic: each phase of a group takes at least one wake-up of the
    // shard that owns it.
    let group = &mut sessions[..4];
    let before: f64 = shard_wakeups(&server).iter().sum();
    for phase in 0..20 {
        for c in group.iter_mut() {
            c.arrive(phase).unwrap();
        }
        for c in group.iter_mut() {
            c.await_release(phase, T).unwrap();
        }
    }
    let after: f64 = shard_wakeups(&server).iter().sum();
    assert!(after - before >= 20.0, "{} wake-ups", after - before);
    server.shutdown();
}

/// `shutdown` rings every thread's eventfd: with sessions connected and
/// idle and the next timer pass seconds away, it still returns at once.
#[test]
fn shutdown_with_idle_sessions_does_not_wait_for_a_timer() {
    let server = start(timers_out_of_the_way());
    let mut sessions = idle_sessions(server.addr(), "parked", 16);
    thread::sleep(Duration::from_millis(50)); // every thread blocked again
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_millis(200), "shutdown took {took:?}");
    for c in &mut sessions {
        let told = c.await_release(0, T).expect_err("no release was due");
        assert!(told.to_string().contains("shutting down"), "{told}");
    }
}

/// A member that arrives and then resets its connection leaves the server
/// holding a socket it can still read the `Arrive` from but cannot write
/// the `Release` to. Whether the shard learns of the death from that failed
/// write (it shuts the socket down, which makes it readable) or from the
/// reset itself, the splice must come from readiness: the timer pass is
/// 10 s away.
#[test]
fn reset_session_is_spliced_by_readiness_not_by_a_timer() {
    let server = start(timers_out_of_the_way());
    let addr = server.addr();
    let mut a = raw_join(addr, "rst", 3);
    let mut b = raw_join(addr, "rst", 3);
    let mut victim = raw_join(addr, "rst", 3);
    assert_eq!(
        raw_frame(&mut a),
        ServerFrame::Welcome { member: 0, size: 3 }
    );
    assert_eq!(
        raw_frame(&mut b),
        ServerFrame::Welcome { member: 1, size: 3 }
    );

    let arrive = |phase| ClientFrame::Arrive { phase }.to_frame();
    a.write_all(&arrive(0)).unwrap();
    b.write_all(&arrive(0)).unwrap();
    // The victim never read its Welcome: closing with unread bytes sends
    // RST instead of FIN, right behind the Arrive.
    victim.write_all(&arrive(0)).unwrap();
    drop(victim);
    for s in [&mut a, &mut b] {
        assert!(
            matches!(raw_frame(s), ServerFrame::Release { phase: 0, .. }),
            "{}",
            server.log_snapshot()
        );
    }

    let deadline = Instant::now() + Duration::from_secs(2);
    while !server.log_snapshot().contains("member 2 vanished, spliced") {
        assert!(
            Instant::now() < deadline,
            "no splice without a timer pass:\n{}",
            server.log_snapshot()
        );
        thread::sleep(Duration::from_millis(5));
    }
    a.write_all(&arrive(1)).unwrap();
    b.write_all(&arrive(1)).unwrap();
    for s in [&mut a, &mut b] {
        assert!(matches!(
            raw_frame(s),
            ServerFrame::Release {
                phase: 1,
                live: 2,
                ..
            }
        ));
    }
    server.shutdown();
}
