//! The service workloads: real `Server`, real loopback sockets, one
//! generator thread driving every session in member order.
//!
//! A barrier is a closed loop by definition — every caller waits for its
//! release — so each workload is closed-loop with a stated member count. The
//! server runs one shard; with the generator that is two busy threads, which
//! is what the sandbox has cores for. Joiner threads exist during set-up
//! only, because `BarrierClient::join` blocks until the group seals.

use crate::layers;
use crate::stats::Section;
use crate::trace::Tracer;
use crate::workload::{fill, mix, Ctx, Outcome, Rep, Tally};
use ftbarrier_server::{http_get, BarrierClient, Server, ServerConfig, ServerFrame};
use ftbarrier_telemetry::prom;
use std::io;
use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(5);
const WARMUP_ROUNDS: u64 = 50;

pub fn start_server() -> io::Result<Server> {
    Server::start(ServerConfig {
        shards: 1,
        ..Default::default()
    })
}

/// Join `names.len()` groups of `size` sessions each; every group comes back
/// sorted by the member id the server assigned.
pub fn join_groups(
    addr: SocketAddr,
    names: &[String],
    size: u32,
) -> io::Result<Vec<Vec<BarrierClient>>> {
    let joined: Vec<io::Result<BarrierClient>> = thread::scope(|s| {
        let joiners: Vec<_> = names
            .iter()
            .flat_map(|name| (0..size).map(move |_| name))
            .map(|name| s.spawn(move || BarrierClient::join(addr, name, size, IO_TIMEOUT)))
            .collect();
        joiners
            .into_iter()
            .map(|j| j.join().expect("joiner thread panicked"))
            .collect()
    });
    let mut groups: Vec<Vec<BarrierClient>> = Vec::new();
    for (i, client) in joined.into_iter().enumerate() {
        if i % size as usize == 0 {
            groups.push(Vec::new());
        }
        groups.last_mut().expect("pushed above").push(client?);
    }
    for group in &mut groups {
        group.sort_by_key(|c| c.member);
    }
    Ok(groups)
}

/// `Arrive` for `phase` on every session, in member order.
fn arrive_all(clients: &mut [BarrierClient], phase: u64, tally: &mut Tally) {
    for c in clients {
        if let Err(e) = c.arrive(phase) {
            tally.fatal = true;
            tally.fail(1, || format!("member {} arrive({phase}): {e}", c.member));
        }
    }
}

/// Await `phase`'s `Release` on every session, in member order. Releases
/// must come strictly in phase order and carry the surviving member count.
fn await_all(clients: &mut [BarrierClient], phase: u64, live: u32, tally: &mut Tally) {
    for c in clients {
        tally.attempted += 1;
        match c.next_frame(IO_TIMEOUT) {
            Ok(ServerFrame::Release {
                phase: got,
                live: got_live,
                ..
            }) if got == phase && got_live == live => {}
            other => {
                // A wrong or missing frame desynchronizes the session for
                // every later round.
                tally.fatal = true;
                tally.fail(1, || {
                    format!(
                        "member {}: wanted Release {{ phase: {phase}, live: {live} }}, got {other:?}",
                        c.member
                    )
                });
            }
        }
    }
}

/// The server counts one `server_releases_total` per group-phase; scraped
/// over HTTP like an operator would, it must equal what the clients saw.
fn check_scrape(server: &Server, group_phases: u64, tally: &mut Tally) {
    let scraped = http_get(server.metrics_addr(), "/metrics")
        .map_err(|e| e.to_string())
        .and_then(|(_, body)| prom::parse(&body).map_err(|(line, e)| format!("line {line}: {e}")))
        .map(|exp| {
            exp.samples_of("server_releases_total")
                .iter()
                .map(|s| s.value)
                .sum::<f64>()
        });
    tally.check(scraped == Ok(group_phases as f64), || {
        format!("scraped server_releases_total {scraped:?}, clients saw {group_phases}")
    });
}

/// 1.0–1.5 ms, drawn per round from the seed: the wait that leaves the server
/// idle before the event a paced workload measures. A fixed think time locks
/// the generator's timer to a multiple of the shard's 300 µs sleep-poll
/// period, and the measured latency then depends on the phase the two
/// happened to lock at (p50 moved 85–133 µs between identical runs); jitter
/// wider than one poll period makes the events land uniformly in it.
fn think_time(seed: u64, round: u64) -> Duration {
    Duration::from_micros(1000 + mix(seed, round) % 500)
}

/// How the generator drives a fleet of equal groups.
#[derive(Clone, Copy, PartialEq)]
pub enum Drive {
    /// Think, write `Arrive` on every socket, await `Release` on every
    /// socket: the server is idle when the last `Arrive` lands.
    Paced,
    /// Every group always has a phase in flight: the generator visits the
    /// groups round-robin, awaits the group's `Release` and at once arrives
    /// for its next phase, so the shard finds work on every pass and never
    /// sleeps. (Driving all groups in lock step does not saturate: the shard
    /// runs out of work while the generator reads 128 releases and writes
    /// 128 arrivals, and sleeps through a third of every round.)
    Pipelined,
}

pub struct Fleet {
    pub server: Server,
    groups: Vec<Vec<BarrierClient>>,
    size: u32,
    drive: Drive,
    seed: u64,
    /// Phases every group has completed.
    completed: u64,
    /// Pipelined only: when each group's in-flight `Arrive`s were written.
    arrived_at: Vec<Instant>,
}

impl Fleet {
    /// From nothing to ready to measure: server up, every `Welcome` read,
    /// warm-up rounds done.
    pub fn set_up(
        tag: &str,
        seed: u64,
        n_groups: usize,
        size: u32,
        drive: Drive,
        tally: &mut Tally,
    ) -> io::Result<Fleet> {
        let server = start_server()?;
        let names: Vec<String> = (0..n_groups)
            .map(|g| format!("{tag}-{seed:x}-{g}"))
            .collect();
        let groups = join_groups(server.addr(), &names, size)?;
        let mut fleet = Fleet {
            server,
            groups,
            size,
            drive,
            seed,
            completed: 0,
            arrived_at: Vec::new(),
        };
        if drive == Drive::Pipelined {
            for group in &mut fleet.groups {
                arrive_all(group, 0, tally);
                fleet.arrived_at.push(Instant::now());
            }
        }
        let mut discard = Vec::new();
        for _ in 0..WARMUP_ROUNDS {
            fleet.round(&mut discard, &mut Tracer::new(false), tally);
        }
        Ok(fleet)
    }

    /// One phase of every group. Pushes, per group, the time from its last
    /// `arrive()` returning to its last `Release` being read, µs.
    fn round(&mut self, samples_us: &mut Vec<f64>, tracer: &mut Tracer, tally: &mut Tally) {
        let phase = self.completed;
        self.completed += 1;
        match self.drive {
            Drive::Paced => {
                thread::sleep(think_time(self.seed, phase));
                tracer.enter("round", phase);
                tracer.enter("client.arrive_all", phase);
                for group in &mut self.groups {
                    arrive_all(group, phase, tally);
                }
                tracer.exit();
                let arrived = Instant::now();
                tracer.enter("client.await_all", phase);
                for group in &mut self.groups {
                    await_all(group, phase, self.size, tally);
                }
                tracer.exit();
                let latency = arrived.elapsed().as_secs_f64() * 1e6;
                tracer.exit();
                samples_us.extend(self.groups.iter().map(|_| latency));
            }
            Drive::Pipelined => {
                for (group, arrived) in self.groups.iter_mut().zip(&mut self.arrived_at) {
                    tracer.enter("round", phase);
                    tracer.enter("client.await_all", phase);
                    await_all(group, phase, self.size, tally);
                    tracer.exit();
                    samples_us.push(arrived.elapsed().as_secs_f64() * 1e6);
                    tracer.enter("client.arrive_all", phase);
                    arrive_all(group, phase + 1, tally);
                    tracer.exit();
                    *arrived = Instant::now();
                    tracer.exit();
                }
            }
        }
    }

    pub fn rep(&mut self, rounds: u64, tracer: &mut Tracer, tally: &mut Tally) -> Rep {
        let section = Section::start();
        let mut samples_us = Vec::with_capacity(rounds as usize * self.groups.len());
        for _ in 0..rounds {
            self.round(&mut samples_us, tracer, tally);
            if tally.fatal {
                break;
            }
        }
        let (wall_s, cpu_s) = section.stop();
        Rep {
            phases: samples_us.len() as u64,
            samples_us,
            wall_s,
            cpu_s,
            exact: Vec::new(),
        }
    }

    pub fn sessions(&mut self) -> impl Iterator<Item = &mut BarrierClient> {
        self.groups.iter_mut().flatten()
    }

    pub fn tear_down(mut self, tally: &mut Tally) {
        if self.drive == Drive::Pipelined && !tally.fatal {
            for group in &mut self.groups {
                await_all(group, self.completed, self.size, tally);
            }
            self.completed += 1;
        }
        let group_phases = self.completed * self.groups.len() as u64;
        check_scrape(&self.server, group_phases, tally);
        for client in self.groups.into_iter().flatten() {
            let _ = client.leave();
        }
        self.server.shutdown();
    }
}

/// How often a fleet workload sets up: the fleet it measures on, plus this
/// many it only times and tears down again.
const EXTRA_SETUPS: usize = 4;

fn fleet_workload(
    ctx: &mut Ctx,
    tag: &str,
    n_groups: usize,
    size: u32,
    drive: Drive,
    rounds_per_rep: u64,
) -> Outcome {
    let mut out = Outcome::default();
    let mut fleet = None;
    for i in 0..=EXTRA_SETUPS {
        if let Some(previous) = fleet.take() {
            Fleet::tear_down(previous, &mut out.tally);
        }
        let started = Instant::now();
        let tag_i = format!("{tag}-s{i}");
        match Fleet::set_up(&tag_i, ctx.seed, n_groups, size, drive, &mut out.tally) {
            Ok(f) => {
                out.setup_s.push(started.elapsed().as_secs_f64());
                fleet = Some(f);
            }
            Err(e) => {
                out.tally.fatal = true;
                out.tally.check(false, || format!("set-up {i}: {e}"));
                break;
            }
        }
    }
    let Some(mut fleet) = fleet else { return out };
    if !out.tally.fatal {
        out.reps = fill(ctx.seconds, &mut out.tally, |_, tally| {
            fleet.rep(rounds_per_rep, ctx.tracer, tally)
        });
    }
    if ctx.tracer.is_on() {
        layers::replay_rounds(ctx.tracer, size as usize, n_groups, 200);
    }
    fleet.tear_down(&mut out.tally);
    out
}

pub fn paced_g4(ctx: &mut Ctx) -> Outcome {
    fleet_workload(ctx, "paced4", 1, 4, Drive::Paced, 700)
}

pub fn paced_g128(ctx: &mut Ctx) -> Outcome {
    fleet_workload(ctx, "paced128", 1, 128, Drive::Paced, 200)
}

pub fn paced_32x4(ctx: &mut Ctx) -> Outcome {
    fleet_workload(ctx, "paced32x4", 32, 4, Drive::Paced, 200)
}

const KILL_GROUP: u32 = 8;
const CLEAN_ROUNDS: u64 = 3;
const KILL_GROUPS_PER_REP: usize = 80;

/// One short-lived group of 8: three clean rounds, then kill the highest
/// surviving non-root member after the survivors arrived, down to member 1.
/// Pushes one recovery sample (kill → last survivor's `Release`) per kill
/// and returns the group-phases run.
///
/// The victim dies a jittered think time after the survivors arrived, like
/// a member crashing while the others wait at the barrier with the server
/// idle. Killed at once, the EOF lands either in the pass that reads the
/// survivors' arrivals (≈ 50 µs) or after the shard went back to sleep
/// (≈ 400 µs), depending on whether the scheduler let the generator preempt
/// the shard mid-broadcast; p50 sat between the two modes and moved 16 %.
fn kill_group(
    addr: SocketAddr,
    name: String,
    think_seed: u64,
    samples_us: &mut Vec<f64>,
    seal_s: &mut Vec<f64>,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> u64 {
    let joining = Instant::now();
    let mut clients = match join_groups(addr, &[name], KILL_GROUP) {
        Ok(mut groups) => groups.pop().expect("one group asked for"),
        Err(e) => {
            tally.fatal = true;
            tally.attempted += 1;
            tally.fail(1, || format!("join: {e}"));
            return 0;
        }
    };
    seal_s.push(joining.elapsed().as_secs_f64());

    let mut phase = 0;
    for _ in 0..CLEAN_ROUNDS {
        arrive_all(&mut clients, phase, tally);
        await_all(&mut clients, phase, KILL_GROUP, tally);
        phase += 1;
    }
    while clients.len() > 1 && !tally.fatal {
        let victim = clients.pop().expect("len > 1");
        let survivors = clients.len() as u32;
        tracer.enter("round", phase);
        tracer.enter("client.arrive_survivors", phase);
        arrive_all(&mut clients, phase, tally);
        tracer.exit();
        thread::sleep(think_time(think_seed, phase));
        let killed = Instant::now();
        tracer.enter("client.kill", phase);
        victim.kill();
        tracer.exit();
        tracer.enter("client.await_all", phase);
        await_all(&mut clients, phase, survivors, tally);
        tracer.exit();
        samples_us.push(killed.elapsed().as_secs_f64() * 1e6);
        tracer.exit();
        phase += 1;
    }
    for client in clients {
        let _ = client.leave();
    }
    phase
}

/// The paper's subject: a detectable fault (EOF) is spliced out and the
/// phase re-executes, so every survivor still sees every phase in order.
pub fn kill_g8(ctx: &mut Ctx) -> Outcome {
    let mut out = Outcome::default();
    let seed = ctx.seed;
    let tracer = &mut *ctx.tracer;
    let mut seal_s = Vec::new();
    out.reps = fill(ctx.seconds, &mut out.tally, |rep, tally| {
        // A fresh server per repetition keeps its per-group metric series,
        // and so its work per release, the same in every repetition.
        let server = match start_server() {
            Ok(s) => s,
            Err(e) => {
                tally.fatal = true;
                tally.check(false, || format!("server start: {e}"));
                return Rep::default();
            }
        };
        let section = Section::start();
        let mut result = Rep::default();
        for g in 0..KILL_GROUPS_PER_REP {
            let name = format!("kill-{seed:x}-{rep}-{g}");
            result.phases += kill_group(
                server.addr(),
                name,
                mix(seed, (rep * KILL_GROUPS_PER_REP + g) as u64),
                &mut result.samples_us,
                &mut seal_s,
                tracer,
                tally,
            );
            if tally.fatal {
                break;
            }
        }
        (result.wall_s, result.cpu_s) = section.stop();
        check_scrape(&server, result.phases, tally);
        server.shutdown();
        result
    });
    if tracer.is_on() {
        layers::replay_kills(tracer, KILL_GROUP as usize, 50);
    }
    // Set-up here is what a fresh group costs: connect, Join, seal, Welcome.
    out.setup_s = seal_s;
    out
}
