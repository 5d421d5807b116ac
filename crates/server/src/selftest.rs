//! The `repro serve` self-test: an in-process server, a fleet of real TCP
//! clients hammering sharded groups through dozens of phases while the
//! plan kills some of them mid-run, and a live `/metrics` scrape parsed
//! with the workspace's own Prometheus parser.
//!
//! Everything runs on loopback with ephemeral ports; wall-clock budget is
//! a couple of seconds.

use crate::client::{run_client, ClientOutcome};
use crate::group::GroupConfig;
use crate::server::{Server, ServerConfig};
use ftbarrier_runtime::detector::DetectorConfig;
use ftbarrier_telemetry::export::PROMETHEUS_CONTENT_TYPE;
use ftbarrier_telemetry::prom;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// One group of the self-test plan.
struct GroupPlan {
    name: &'static str,
    size: u32,
    /// `(member, phase)` kill injections (never member 0 — the root's
    /// death tears the group down by design).
    kills: &'static [(u32, u64)],
}

/// Everything the self-test saw, for artifact dumping and asserting.
#[derive(Debug)]
pub struct SelfTestReport {
    /// Concurrent client sessions launched.
    pub sessions: usize,
    /// Barrier phases each surviving client must complete.
    pub phases: u64,
    /// Per-client results, tagged with the group name.
    pub outcomes: Vec<(String, ClientOutcome)>,
    /// The mid-run `/metrics` scrape (live, while phases were flowing).
    pub live_metrics: String,
    /// The final `/metrics` scrape after all clients finished.
    pub final_metrics: String,
    /// `Content-Type` the metrics endpoint served.
    pub metrics_content_type: String,
    /// The server's timestamped log.
    pub server_log: String,
    /// A wedge flight dump, if any group stalled (none expected).
    pub flight_dump: Option<String>,
    /// Human-readable acceptance failures; empty means pass.
    pub failures: Vec<String>,
}

impl SelfTestReport {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Plain-TCP HTTP GET, returning `(content_type, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: ftbarrier\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header end"))?;
    let content_type = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Type: "))
        .unwrap_or("")
        .to_owned();
    if !head.starts_with("HTTP/1.1 200") {
        return Err(std::io::Error::other(format!(
            "non-200: {}",
            head.lines().next().unwrap_or("")
        )));
    }
    Ok((content_type, body.to_owned()))
}

/// Run the self-test. `quick` is the CI profile (2 groups × 24 phases,
/// 3 kills, ~2 s); the full profile doubles the fleet and phase count.
pub fn run_selftest(quick: bool) -> SelfTestReport {
    let (phases, plans): (u64, Vec<GroupPlan>) = if quick {
        (
            24,
            vec![
                GroupPlan {
                    name: "alpha",
                    size: 6,
                    kills: &[(2, 8), (4, 15)],
                },
                GroupPlan {
                    name: "beta",
                    size: 4,
                    kills: &[(3, 12)],
                },
            ],
        )
    } else {
        (
            48,
            vec![
                GroupPlan {
                    name: "alpha",
                    size: 10,
                    kills: &[(2, 8), (4, 19), (7, 33)],
                },
                GroupPlan {
                    name: "beta",
                    size: 6,
                    kills: &[(3, 12), (5, 27)],
                },
                GroupPlan {
                    name: "gamma",
                    size: 4,
                    kills: &[],
                },
            ],
        )
    };
    let sessions: usize = plans.iter().map(|p| p.size as usize).sum();

    let server = Server::start(ServerConfig {
        shards: 2,
        group: GroupConfig {
            detector: DetectorConfig {
                base_timeout: 0.5,
                backoff: 1.5,
                max_timeout: 1.5,
                suspicion_threshold: 3,
            },
            wedge_timeout: 15.0,
            ..GroupConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("server start");
    let addr = server.addr();
    let metrics_addr = server.metrics_addr();

    // Launch the fleet: one thread per session.
    let timeout = Duration::from_secs(20);
    let mut handles = Vec::new();
    for plan in &plans {
        for _ in 0..plan.size {
            let (name, size, kills) = (plan.name, plan.size, plan.kills);
            handles.push((
                name,
                thread::spawn(move || run_client(addr, name, size, phases, kills, timeout)),
            ));
        }
    }

    // Live scrape: poll until phase durations show up in the exposition
    // (proving the scrape is concurrent with barrier traffic).
    let mut live_metrics = String::new();
    let mut metrics_content_type = String::new();
    let deadline = Instant::now() + Duration::from_secs(15);
    while Instant::now() < deadline {
        if let Ok((ct, body)) = http_get(metrics_addr, "/metrics") {
            metrics_content_type = ct;
            let has_traffic = body.contains("runtime_phase_duration");
            live_metrics = body;
            if has_traffic {
                break;
            }
        }
        thread::sleep(Duration::from_millis(25));
    }

    let outcomes: Vec<(String, ClientOutcome)> = handles
        .into_iter()
        .map(|(name, h)| {
            (
                name.to_owned(),
                h.join().unwrap_or_else(|_| ClientOutcome {
                    member: u32::MAX,
                    completed: 0,
                    killed: false,
                    error: Some("client thread panicked".into()),
                }),
            )
        })
        .collect();

    let (_, final_metrics) = http_get(metrics_addr, "/metrics").unwrap_or_default();
    let server_log = server.log_snapshot();
    let flight_dump = server.last_flight_dump();
    server.shutdown();

    // Acceptance checks.
    let mut failures = Vec::new();
    if sessions < 8 {
        failures.push(format!("plan too small: {sessions} sessions < 8"));
    }
    if phases < 20 {
        failures.push(format!("plan too small: {phases} phases < 20"));
    }
    for plan in &plans {
        let of_group: Vec<&ClientOutcome> = outcomes
            .iter()
            .filter(|(g, _)| g == plan.name)
            .map(|(_, o)| o)
            .collect();
        let killed: Vec<u32> = of_group
            .iter()
            .filter(|o| o.killed)
            .map(|o| o.member)
            .collect();
        let mut wanted: Vec<u32> = plan.kills.iter().map(|&(m, _)| m).collect();
        let mut got = killed.clone();
        wanted.sort_unstable();
        got.sort_unstable();
        if got != wanted {
            failures.push(format!(
                "group {}: planned kills {wanted:?}, actual {got:?}",
                plan.name
            ));
        }
        for o in of_group {
            if o.killed {
                continue;
            }
            if let Some(e) = &o.error {
                failures.push(format!(
                    "group {}: member {} failed: {e}",
                    plan.name, o.member
                ));
            } else if o.completed != phases {
                failures.push(format!(
                    "group {}: member {} completed {}/{phases} phases",
                    plan.name, o.member, o.completed
                ));
            }
        }
    }
    if metrics_content_type != PROMETHEUS_CONTENT_TYPE {
        failures.push(format!(
            "metrics Content-Type {metrics_content_type:?} != {PROMETHEUS_CONTENT_TYPE:?}"
        ));
    }
    match prom::parse(&live_metrics) {
        Ok(exp) => {
            if exp.samples_of("runtime_phase_duration_count").is_empty() {
                failures.push("live scrape has no runtime_phase_duration_count samples".into());
            }
            if exp.value("server_sessions_active", &[]).is_none() {
                failures.push("live scrape has no server_sessions_active gauge".into());
            }
        }
        Err((line, err)) => {
            failures.push(format!("live /metrics does not parse (line {line}): {err}"))
        }
    }
    match prom::parse(&final_metrics) {
        Ok(exp) => {
            for plan in &plans {
                let released = exp
                    .value("server_releases_total", &[("group", plan.name)])
                    .unwrap_or(0.0);
                if released < phases as f64 {
                    failures.push(format!(
                        "group {}: only {released} releases in final metrics (wanted {phases})",
                        plan.name
                    ));
                }
            }
        }
        Err((line, err)) => failures.push(format!(
            "final /metrics does not parse (line {line}): {err}"
        )),
    }

    SelfTestReport {
        sessions,
        phases,
        outcomes,
        live_metrics,
        final_metrics,
        metrics_content_type,
        server_log,
        flight_dump,
        failures,
    }
}
