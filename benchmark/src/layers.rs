//! Per-layer probes: each layer driven through its public functions, from
//! the outside in, plus the socket-free *layer replay* of a service round.
//!
//! None of these numbers is gated. They exist so that a change in an
//! end-to-end metric can be walked down to the layer responsible; the table
//! in README.md says which end-to-end metric each should move.

use crate::rt;
use crate::sims;
use crate::stats::{median, percentile, process_cpu_s};
use crate::svc::{join_groups, Drive, Fleet};
use crate::trace::{self_times, Tracer};
use crate::workload::{mix, Tally};
use ftbarrier_core::sim::{
    measure_phases_with_telemetry, PhaseExperiment, SweepOracleMonitor, TopologySpec,
};
use ftbarrier_core::spec::Anchor;
use ftbarrier_core::sweep::SweepBarrier;
use ftbarrier_gcs::fault::NoFaults;
use ftbarrier_gcs::{
    DenseEngine, DenseEngineConfig, Engine, EngineConfig, NullMonitor, SimRng, Time,
};
use ftbarrier_mp::{
    channel_ring, mb, socket_ring, sweep_mp, ChannelFaults, Endpoint, FrameReader, MbConfig,
    StateMsg, SweepMpConfig,
};
use ftbarrier_runtime::{Clock, WallClock};
use ftbarrier_server::{
    http_get, BarrierGroup, ClientFrame, GroupConfig, KillOutcome, ServerFrame,
};
use ftbarrier_telemetry::{prom, Telemetry, TimeDomain};
use ftbarrier_topology::SweepDag;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

pub type Metrics = Vec<(&'static str, f64)>;

/// Median over 7 batches of the mean time of one `op`, ns.
fn per_op_ns(iters: u32, mut op: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..7)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..iters {
                op();
            }
            started.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&batches)
}

fn new_group(size: usize) -> BarrierGroup {
    let clock: Arc<dyn Clock> = WallClock::start();
    // The server hands each group its recording telemetry handle.
    BarrierGroup::new(
        size,
        &GroupConfig::default(),
        clock,
        Telemetry::recording(TimeDomain::Wall),
    )
}

/// Tick until the group releases; returns the release and the ticks it took.
fn tick_to_release(group: &mut BarrierGroup) -> (ftbarrier_server::GroupRelease, u64) {
    for ticks in 1..=64 {
        if let Some(release) = group.tick().releases.first() {
            return (*release, ticks);
        }
    }
    panic!("group did not release within 64 ticks of its last arrival");
}

/// The layer replay: the work one lock-step round asks of every layer
/// between the sockets, in the order a real round does it, with no socket
/// and no second thread. The server's own threads cannot be instrumented
/// from outside; these spans' self times stand in for them.
pub fn replay_rounds(tracer: &mut Tracer, size: usize, n_groups: usize, rounds: u64) -> u64 {
    let sessions = size * n_groups;
    let mut groups: Vec<BarrierGroup> = (0..n_groups).map(|_| new_group(size)).collect();
    let mut server_readers: Vec<FrameReader> = (0..sessions).map(|_| FrameReader::new()).collect();
    let mut client_readers: Vec<FrameReader> = (0..sessions).map(|_| FrameReader::new()).collect();
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    let mut ticks = 0;
    for round in 0..rounds {
        tracer.enter("replay.round", round);

        tracer.enter("wire.client_encode", round);
        let frames: Vec<Vec<u8>> = (0..sessions)
            .map(|_| ClientFrame::Arrive { phase: round }.to_frame())
            .collect();
        tracer.exit();

        tracer.enter("framereader.push", round);
        bodies.clear();
        for (reader, frame) in server_readers.iter_mut().zip(&frames) {
            reader.push(frame, &mut bodies).expect("well-formed frame");
        }
        tracer.exit();

        tracer.enter("wire.server_decode", round);
        for body in &bodies {
            assert_eq!(
                ClientFrame::decode(body),
                Some(ClientFrame::Arrive { phase: round })
            );
        }
        tracer.exit();

        tracer.enter("group.arrive", round);
        for group in &mut groups {
            for member in 0..size {
                group.arrive(member);
            }
        }
        tracer.exit();

        tracer.enter("group.tick", round);
        let releases: Vec<_> = groups
            .iter_mut()
            .map(|g| {
                let (release, t) = tick_to_release(g);
                ticks += t;
                release
            })
            .collect();
        tracer.exit();

        tracer.enter("wire.server_encode", round);
        let release_frames: Vec<Vec<u8>> = releases
            .iter()
            .map(|r| {
                ServerFrame::Release {
                    phase: r.phase,
                    epoch: r.epoch,
                    live: r.live,
                }
                .to_frame()
            })
            .collect();
        tracer.exit();

        tracer.enter("wire.client_decode", round);
        for (i, reader) in client_readers.iter_mut().enumerate() {
            bodies.clear();
            reader
                .push(&release_frames[i / size], &mut bodies)
                .expect("well-formed frame");
            let decoded = ServerFrame::decode(&bodies[0]);
            assert!(
                matches!(decoded, Some(ServerFrame::Release { phase, live, .. })
                    if phase == round && live as usize == size),
                "replayed release {decoded:?}"
            );
        }
        tracer.exit();

        tracer.exit();
    }
    ticks
}

/// The replay of the kill workload's groups: survivors arrive, the highest
/// non-root member is killed, the ring splices and re-executes.
pub fn replay_kills(tracer: &mut Tracer, size: usize, n_groups: u64) -> Vec<f64> {
    let mut kill_to_release_us = Vec::new();
    for g in 0..n_groups {
        let mut group = new_group(size);
        for victim in (1..size).rev() {
            tracer.enter("replay.kill_round", g);
            tracer.enter("group.arrive", g);
            for member in 0..victim {
                group.arrive(member);
            }
            tracer.exit();
            assert!(
                group.tick().releases.is_empty(),
                "released without the victim"
            );
            let killed = Instant::now();
            tracer.enter("group.kill", g);
            assert_eq!(group.kill(victim), KillOutcome::Spliced);
            tracer.exit();
            tracer.enter("group.tick", g);
            let (release, _) = tick_to_release(&mut group);
            tracer.exit();
            kill_to_release_us.push(killed.elapsed().as_secs_f64() * 1e6);
            assert_eq!(release.live as usize, victim);
            tracer.exit();
        }
    }
    kill_to_release_us
}

fn wire(out: &mut Metrics) {
    let arrive = ClientFrame::Arrive { phase: 7 };
    let release = ServerFrame::Release {
        phase: 7,
        epoch: 0,
        live: 128,
    };
    let arrive_frame = arrive.to_frame();
    let release_frame = release.to_frame();
    out.push((
        "wire.client_encode_ns",
        per_op_ns(100_000, || drop(black_box(black_box(&arrive).to_frame()))),
    ));
    out.push((
        "wire.server_decode_ns",
        per_op_ns(100_000, || {
            black_box(ClientFrame::decode(black_box(&arrive_frame[4..])));
        }),
    ));
    out.push((
        "wire.server_encode_ns",
        per_op_ns(100_000, || drop(black_box(black_box(&release).to_frame()))),
    ));
    out.push((
        "wire.client_decode_ns",
        per_op_ns(100_000, || {
            black_box(ServerFrame::decode(black_box(&release_frame[4..])));
        }),
    ));

    // The shard reads whatever the socket holds: up to 128 frames at once.
    let batch: Vec<u8> = arrive_frame.repeat(128);
    let mut reader = FrameReader::new();
    let mut bodies = Vec::with_capacity(128);
    out.push((
        "socket.framereader_push_ns",
        per_op_ns(2_000, || {
            bodies.clear();
            reader
                .push(black_box(&batch), &mut bodies)
                .expect("well-formed");
        }) / 128.0,
    ));
}

fn recv_spin<E: Endpoint>(ep: &mut E) {
    while ep.try_recv().is_none() {
        std::hint::spin_loop();
    }
}

fn transports(seed: u64, out: &mut Metrics) -> std::io::Result<()> {
    let msg = StateMsg::initial();
    let mut rng = SimRng::seed_from_u64(seed);

    let mut eps = channel_ring(2, ChannelFaults::NONE, &mut rng);
    let (a, b) = eps.split_at_mut(1);
    out.push((
        "transport.channel_rtt_ns",
        per_op_ns(20_000, || {
            a[0].send(msg);
            recv_spin(&mut b[0]);
            b[0].send(msg);
            recv_spin(&mut a[0]);
        }),
    ));

    let mut eps = socket_ring(2, ChannelFaults::NONE, &mut rng)?;
    let (a, b) = eps.split_at_mut(1);
    out.push((
        "socket.endpoint_rtt_us",
        per_op_ns(1_000, || {
            a[0].send(msg);
            recv_spin(&mut b[0]);
            b[0].send(msg);
            recv_spin(&mut a[0]);
        }) / 1e3,
    ));
    Ok(())
}

/// Plain `TcpStream` ping-pong of an `Arrive`-sized and a `Release`-sized
/// message on one thread: what the kernel's loopback costs with no server.
fn raw_loopback_rtt_us() -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut a = TcpStream::connect(listener.local_addr()?)?;
    let (mut b, _) = listener.accept()?;
    a.set_nodelay(true)?;
    b.set_nodelay(true)?;
    let (ping, pong) = ([1u8; 13], [2u8; 25]);
    let (mut got_ping, mut got_pong) = ([0u8; 13], [0u8; 25]);
    let mut failed = None;
    let ns = per_op_ns(2_000, || {
        let step = a
            .write_all(&ping)
            .and_then(|()| b.read_exact(&mut got_ping))
            .and_then(|()| b.write_all(&pong))
            .and_then(|()| a.read_exact(&mut got_pong));
        if let Err(e) = step {
            failed = Some(e);
        }
    });
    failed.map_or(Ok(ns / 1e3), Err)
}

fn threaded_backends(seed: u64, tally: &mut Tally, out: &mut Metrics) {
    const PHASES: u64 = 2_000;
    let mut mb_rate = |name, loss| {
        let report = mb::spawn(MbConfig {
            n: 2,
            target_phases: PHASES,
            seed,
            faults: ChannelFaults {
                loss,
                ..ChannelFaults::NONE
            },
            ..Default::default()
        })
        .join();
        tally.check(
            report.reached_target && report.violations.is_empty(),
            || format!("{name}: {report:?}"),
        );
        out.push((
            name,
            report.phases_completed as f64 / report.elapsed.as_secs_f64(),
        ));
    };
    mb_rate("mb.threaded_phases_per_s", 0.0);
    mb_rate("mb.threaded_lossy_phases_per_s", 0.2);

    let report = sweep_mp::spawn(
        SweepDag::ring(2).expect("ring(2)"),
        SweepMpConfig {
            target_phases: PHASES,
            seed,
            ..Default::default()
        },
    )
    .join();
    tally.check(
        report.reached_target && report.violations.is_empty(),
        || format!("sweep_mp: {report:?}"),
    );
    out.push((
        "sweep_mp.threaded_phases_per_s",
        report.phases_completed as f64 / report.elapsed.as_secs_f64(),
    ));
}

fn simulated_backends(seed: u64, tally: &mut Tally, out: &mut Metrics) {
    const PHASES: u64 = 2_000;
    let ring = SweepDag::ring(sims::MP_N).expect("ring(16)");
    let tree = SweepDag::tree(sims::MP_N, 2).expect("tree(16,2)");
    let mb = sims::run_mb_sim(seed, PHASES, tally);
    let sr = sims::run_sweep_sim("sweep_sim ring", &ring, seed, PHASES, tally);
    let st = sims::run_sweep_sim("sweep_sim tree", &tree, seed, PHASES, tally);
    let per_phase = |count: u64, run: &sims::SimRun| count as f64 / run.phases.max(1) as f64;
    out.extend([
        ("mb_sim.phases_per_s", mb.phases as f64 / mb.wall_s),
        ("sweep_sim.ring_phases_per_s", sr.phases as f64 / sr.wall_s),
        ("sweep_sim.tree_phases_per_s", st.phases as f64 / st.wall_s),
        ("mb_sim.msgs_per_phase", per_phase(mb.messages, &mb)),
        ("mb_sim.events_per_phase", per_phase(mb.events, &mb)),
        ("sweep_sim.ring_msgs_per_phase", per_phase(sr.messages, &sr)),
        ("sweep_sim.tree_msgs_per_phase", per_phase(st.messages, &st)),
    ]);
}

/// Per-round self time of every replayed layer span, µs.
struct Replayed {
    arrive_us: f64,
    tick_us: f64,
    /// Everything the replay did between the last `Arrive` write and the
    /// last `Release` read of a real round.
    in_window_us: f64,
    ticks_per_release: f64,
}

fn replay_costs(size: usize) -> Replayed {
    const ROUNDS: u64 = 300;
    let mut tracer = Tracer::new(true);
    let ticks = replay_rounds(&mut tracer, size, 1, ROUNDS);
    let st = self_times(tracer.spans());
    let us = |name: &str| st[name].1 as f64 / 1e3 / ROUNDS as f64;
    Replayed {
        arrive_us: us("group.arrive"),
        tick_us: us("group.tick"),
        in_window_us: [
            "framereader.push",
            "wire.server_decode",
            "group.arrive",
            "group.tick",
            "wire.server_encode",
            "wire.client_decode",
        ]
        .into_iter()
        .map(us)
        .sum(),
        ticks_per_release: ticks as f64 / ROUNDS as f64,
    }
}

fn idle_tick_us(size: usize) -> f64 {
    let mut group = new_group(size);
    per_op_ns(2_000, || {
        black_box(group.tick());
    }) / 1e3
}

/// A short paced run of one group of `size` with the benchmark's spans on,
/// and what can be seen of the server from outside while it is up.
struct ServiceProbe {
    release_p50_us: f64,
    release_p99_us: f64,
    release_max_us: f64,
    arrive_write_us: f64,
    await_read_us: f64,
}

fn service_probe(
    seed: u64,
    size: u32,
    rounds: u64,
    tally: &mut Tally,
    while_up: impl FnOnce(&mut Fleet, &mut Tally),
) -> std::io::Result<ServiceProbe> {
    let mut fleet = Fleet::set_up("probe", seed, 1, size, Drive::Paced, tally)?;
    let mut tracer = Tracer::new(true);
    let rep = fleet.rep(rounds, &mut tracer, tally);
    let st = self_times(tracer.spans());
    let per_round_us = |name: &str| st[name].1 as f64 / 1e3 / rounds as f64;
    let probe = ServiceProbe {
        release_p50_us: median(&rep.samples_us),
        release_p99_us: percentile(&rep.samples_us, 99.0),
        release_max_us: percentile(&rep.samples_us, 100.0),
        arrive_write_us: per_round_us("client.arrive_all"),
        await_read_us: per_round_us("client.await_all"),
    };
    while_up(&mut fleet, tally);
    fleet.tear_down(tally);
    Ok(probe)
}

/// What an operator sees of a running server: join, scrape, idle cost.
fn server_from_outside(fleet: &mut Fleet, tally: &mut Tally, out: &mut Metrics) {
    let started = Instant::now();
    match join_groups(fleet.server.addr(), &["probe-join".to_owned()], 8) {
        Ok(groups) => {
            out.push(("server.join_seal_ms", started.elapsed().as_secs_f64() * 1e3));
            for client in groups.into_iter().flatten() {
                let _ = client.leave();
            }
        }
        Err(e) => tally.check(false, || format!("join probe: {e}")),
    }

    let started = Instant::now();
    let scraped = http_get(fleet.server.metrics_addr(), "/metrics")
        .map_err(|e| e.to_string())
        .and_then(|(_, body)| {
            prom::parse(&body)
                .map(|_| body.len())
                .map_err(|(line, e)| format!("line {line}: {e}"))
        });
    let scrape_ms = started.elapsed().as_secs_f64() * 1e3;
    match scraped {
        Ok(bytes) => {
            out.push(("server.scrape_ms", scrape_ms));
            out.push(("server.scrape_bytes", bytes as f64));
        }
        Err(e) => tally.check(false, || format!("scrape probe: {e}")),
    }

    let mut body = String::new();
    out.push((
        "telemetry.prom_render_us",
        per_op_ns(20, || body = fleet.server.render_metrics()) / 1e3,
    ));
    out.push((
        "telemetry.prom_parse_us",
        per_op_ns(20, || {
            black_box(prom::parse(&body).expect("own exposition parses"));
        }) / 1e3,
    ));

    // Sessions connected, nothing arriving: what the sleep-poll costs. The
    // sessions ping every 50 ms, or the heartbeat detector would splice them.
    let (started, cpu_before) = (Instant::now(), process_cpu_s());
    while started.elapsed() < Duration::from_secs(1) {
        for client in fleet.sessions() {
            let _ = client.ping();
        }
        thread::sleep(Duration::from_millis(50));
    }
    out.push((
        "server.idle_cpu_share",
        (process_cpu_s() - cpu_before) / started.elapsed().as_secs_f64(),
    ));
}

fn service(seed: u64, tally: &mut Tally, out: &mut Metrics) -> std::io::Result<()> {
    let raw_rtt_us = raw_loopback_rtt_us()?;
    out.push(("loopback.raw_rtt_us", raw_rtt_us));

    let g4 = service_probe(seed, 4, 500, tally, |_, _| {})?;
    let g128 = service_probe(seed, 128, 300, tally, |fleet, tally| {
        server_from_outside(fleet, tally, out)
    })?;
    let (r4, r128) = (replay_costs(4), replay_costs(128));

    // Throughput with the shard never idle. Not an end-to-end metric: how
    // many groups one pass of the shard completes depends on how the
    // scheduler interleaves it with the generator, and the rate moved 15 %
    // between identical runs on one CPU and on two.
    let mut sat = Fleet::set_up("sat", seed, 32, 4, Drive::Pipelined, tally)?;
    let rep = sat.rep(600, &mut Tracer::new(false), tally);
    sat.tear_down(tally);
    out.extend([
        (
            "server.sat_phases_per_s.32x4",
            rep.phases as f64 / rep.wall_s,
        ),
        (
            "server.sat_cpu_us_per_phase.32x4",
            rep.cpu_s * 1e6 / rep.phases.max(1) as f64,
        ),
    ]);

    out.extend([
        ("group.arrive_ns", r128.arrive_us * 1e3 / 128.0),
        ("group.tick_release_us.g4", r4.tick_us),
        ("group.tick_release_us.g128", r128.tick_us),
        ("group.tick_idle_us.g4", idle_tick_us(4)),
        ("group.tick_idle_us.g128", idle_tick_us(128)),
        ("group.ticks_per_release", r128.ticks_per_release),
        (
            "group.kill_to_release_us.g8",
            median(&replay_kills(&mut Tracer::new(false), 8, 50)),
        ),
        // What is left of a release once every replayed layer and the
        // kernel's loopback round trip are taken out: mostly the shard's
        // sleep-poll and the socket reads and writes themselves.
        (
            "server.unattributed_us.g4",
            g4.release_p50_us - r4.in_window_us - raw_rtt_us,
        ),
        (
            "server.unattributed_us.g128",
            g128.release_p50_us - r128.in_window_us - raw_rtt_us,
        ),
        ("client.arrive_write_us.g4", g4.arrive_write_us),
        ("client.arrive_write_us.g128", g128.arrive_write_us),
        ("client.await_read_us.g4", g4.await_read_us),
        ("client.await_read_us.g128", g128.await_read_us),
        ("client.release_p99_us.g4", g4.release_p99_us),
        ("client.release_p99_us.g128", g128.release_p99_us),
        ("client.release_max_us.g4", g4.release_max_us),
        ("client.release_max_us.g128", g128.release_max_us),
    ]);
    Ok(())
}

fn runtime(tally: &mut Tally, out: &mut Metrics) {
    const CROSSINGS: u64 = 40_000;
    let per_cross_ns = |run: &rt::CrossRun| median(&run.batch_ns);

    let started = Instant::now();
    drop(black_box(ftbarrier_runtime::FtBarrier::new(2)));
    out.push(("runtime.build_us", started.elapsed().as_secs_f64() * 1e6));

    let clean = rt::ft_cross(CROSSINGS, false, &mut Tracer::new(false));
    let faulty = rt::ft_cross(CROSSINGS, true, &mut Tracer::new(false));
    let injected = CROSSINGS / rt::FAULT_EVERY;
    tally.check(
        clean.wrong == 0 && clean.repeats == 0 && faulty.wrong == 0 && faulty.repeats == injected,
        || {
            format!(
                "runtime probe: clean {} wrong / {} repeats, faulty {} wrong / {} repeats of {injected}",
                clean.wrong, clean.repeats, faulty.wrong, faulty.repeats
            )
        },
    );
    let ft = per_cross_ns(&clean.run);
    let tree = per_cross_ns(&rt::tree_cross(CROSSINGS));
    out.extend([
        ("runtime.ft_cross_ns", ft),
        ("runtime.tree_cross_ns", tree),
        (
            "runtime.central_cross_ns",
            per_cross_ns(&rt::central_cross(CROSSINGS)),
        ),
        (
            "runtime.std_cross_ns",
            per_cross_ns(&rt::std_cross(CROSSINGS)),
        ),
        ("runtime.ft_over_tree_ratio", ft / tree),
        ("runtime.ft_repeat_cross_ns", per_cross_ns(&faulty.run)),
        ("runtime.repeats", faulty.repeats as f64),
    ]);
}

fn sweep_program(dag: SweepDag) -> SweepBarrier {
    SweepBarrier::new(dag, 8).with_costs(Time::new(0.01), Time::new(1.0))
}

const ENGINE_COMMITS: u64 = 200_000;

/// Classic engine on `program`, no monitor, no faults: `(events, wall s)`.
fn classic_engine(program: &SweepBarrier) -> (u64, f64) {
    let mut engine = Engine::new(program, 7);
    let config = EngineConfig {
        max_commits: Some(ENGINE_COMMITS),
        ..Default::default()
    };
    let started = Instant::now();
    let run = engine.run(&config, &mut NoFaults, &mut NullMonitor);
    (run.stats.actions_executed, started.elapsed().as_secs_f64())
}

fn dense_engine(program: &SweepBarrier) -> (u64, f64) {
    let mut engine = DenseEngine::new(program, 7);
    let config = DenseEngineConfig {
        max_commits: Some(ENGINE_COMMITS),
        workers: Some(1),
        ..Default::default()
    };
    let started = Instant::now();
    let run = engine.run(&config, &mut NoFaults, &mut NullMonitor);
    (run.stats.actions_executed, started.elapsed().as_secs_f64())
}

fn build_ms(spec: TopologySpec) -> (SweepDag, f64) {
    let mut times = Vec::new();
    let mut dag = None;
    for _ in 0..5 {
        let started = Instant::now();
        dag = Some(spec.build().expect("valid topology"));
        times.push(started.elapsed().as_secs_f64() * 1e3);
    }
    (dag.expect("built five times"), median(&times))
}

fn simulator(seed: u64, tally: &mut Tally, out: &mut Metrics) {
    let rate = |(events, wall_s): (u64, f64)| events as f64 / wall_s;

    let (tree32, tree32_ms) = build_ms(sims::PAPER_TREE);
    let (ring100k, ring100k_ms) = build_ms(TopologySpec::Ring { n: 100_000 });
    out.push(("topology.build_ms.tree32", tree32_ms));
    out.push(("topology.build_ms.ring100000", ring100k_ms));

    let tree1024 = sweep_program(SweepDag::tree(1024, 2).expect("tree(1024,2)"));
    let ring100k = sweep_program(ring100k);
    out.extend([
        (
            "gcs.engine_events_per_s.tree1024",
            rate(classic_engine(&tree1024)),
        ),
        (
            "gcs.engine_events_per_s.ring100000",
            rate(classic_engine(&ring100k)),
        ),
        (
            "gcs.dense_events_per_s.tree1024",
            rate(dense_engine(&tree1024)),
        ),
        (
            "gcs.dense_events_per_s.ring100000",
            rate(dense_engine(&ring100k)),
        ),
    ]);

    // The paper's tree: the bare engine, then the same program under
    // `measure_phases` with its oracle and latency monitors attached.
    const PHASES: u64 = 10_000;
    let tree32 = sweep_program(tree32);
    let bare_rate = rate(classic_engine(&tree32));
    let mut oracle = SweepOracleMonitor::new(&tree32, Anchor::StrictFromZero).stop_after(PHASES);
    let counted =
        Engine::new(&tree32, seed).run(&EngineConfig::default(), &mut NoFaults, &mut oracle);
    out.push((
        "gcs.events_per_phase.tree32",
        counted.stats.actions_executed as f64 / PHASES as f64,
    ));

    let exp = PhaseExperiment {
        seed,
        target_phases: PHASES,
        ..Default::default()
    };
    let (_, off_s) = sims::run_paper(&exp, tally);
    let telemetry = Telemetry::recording(TimeDomain::Virtual);
    let started = Instant::now();
    let recorded = measure_phases_with_telemetry(&exp, &telemetry);
    let on_s = started.elapsed().as_secs_f64();
    let events = telemetry
        .snapshot()
        .metrics
        .counter("engine_actions_executed_total", &[]);
    tally.check(recorded.phases == PHASES && events > 0, || {
        format!("telemetry run: {} phases, {events} events", recorded.phases)
    });
    let sim_rate = events as f64 / off_s;
    let faulty = ftbarrier_core::sim::measure_phases(&PhaseExperiment { f: 0.05, ..exp });
    out.extend([
        ("core.sim_events_per_s", sim_rate),
        ("core.monitor_overhead_ratio", bare_rate / sim_rate),
        ("core.instances_per_phase.f0_05", faulty.mean_instances),
        ("telemetry.tax_ratio.sim", on_s / off_s),
    ]);
}

/// Every per-layer metric except the `trace.*` pair, which `main` adds from
/// the traced and untraced runs of the workload itself.
pub fn probe_all(seed: u64, tally: &mut Tally) -> Metrics {
    let mut out = Metrics::new();
    wire(&mut out);
    if let Err(e) = transports(mix(seed, 1), &mut out)
        .and_then(|()| crate::affinity::on_one_cpu(|| service(seed, tally, &mut out)))
    {
        tally.check(false, || format!("socket probe: {e}"));
    }
    threaded_backends(mix(seed, 2), tally, &mut out);
    simulated_backends(mix(seed, 3), tally, &mut out);
    runtime(tally, &mut out);
    simulator(mix(seed, 4), tally, &mut out);
    out
}
