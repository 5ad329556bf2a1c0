//! E18 — the connection engine at scale: the N-shard epoll reactor
//! (`net::reactor`) behind `NetServer`.
//!
//! Two questions, answered separately because they fail differently:
//!
//! * **Part A — the throughput sweep.** The same offered work
//!   ([`loadgen::sweep`] holds total fresh requests constant) driven
//!   at a growing connection count against one server. Wall-clock rows
//!   on a shared host are noisy, so the sweep asserts only
//!   conservation (every request answered, no broken connection); the
//!   *structural* claim lives in Part B.
//!
//! * **Part B — the idle-connection soak.** Thread count is read from
//!   `/proc/self/status` before bind and after N idle connections are
//!   established. The reactor holds 1000 connections at
//!   `shards + acceptor` threads, flat in N. This is the claim the
//!   engine exists for, and it is asserted exactly, not statistically.

use net::loadgen::{self, ClassLoad, LoadConfig, LoadReport, Mode, OpTemplate};
use net::server::{NetConfig, NetServer};
use serve::pool::JobClass;
use serve::server::{CourseServer, ExperimentFn, ServerConfig};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Shape of the E18 comparison.
#[derive(Debug, Clone)]
pub struct ReactorParams {
    /// Course-server worker threads.
    pub workers: usize,
    /// Admission capacity (queued + running).
    pub queue_capacity: usize,
    /// Reactor shard count.
    pub shards: usize,
    /// Connection counts swept in Part A (strictly increasing).
    pub sweep_conns: Vec<usize>,
    /// Total fresh requests per sweep point (split over connections).
    pub total_requests: usize,
    /// Closed-loop window per connection.
    pub pipeline: usize,
    /// Sleep-modeled service time of the (single-class) workload.
    pub service: Duration,
    /// Experiment-id variants (cache-busting).
    pub variants: u64,
    /// Idle connections soaked in Part B.
    pub soak_conns: usize,
    /// Loadgen seed.
    pub seed: u64,
}

/// The published E18 configuration: 4 workers behind a queue of 32,
/// a 2-shard reactor, 384 requests of 500µs work swept across
/// 2→128 connections, and a 1000-idle-connection soak.
pub fn reactor_params() -> ReactorParams {
    ReactorParams {
        workers: 4,
        queue_capacity: 32,
        shards: 2,
        sweep_conns: vec![2, 8, 32, 128],
        total_requests: 384,
        pipeline: 4,
        service: Duration::from_micros(500),
        variants: 512,
        soak_conns: 1000,
        seed: 0xE18,
    }
}

fn sleep_500us() -> String {
    std::thread::sleep(Duration::from_micros(500));
    "r".to_string()
}

/// One sweep point's outcome.
#[derive(Debug)]
pub struct SweepRow {
    /// Connection count for this point.
    pub conns: usize,
    /// The client-side report.
    pub report: LoadReport,
}

/// Runs the Part A sweep and returns one row per connection count, all
/// against a single server instance (the engine's cost structure, not
/// bind/teardown, is what is swept).
pub fn run_sweep(p: &ReactorParams) -> Vec<SweepRow> {
    let max_conns = p.sweep_conns.iter().copied().max().unwrap_or(1);
    let mut experiments: Vec<(String, ExperimentFn)> = Vec::new();
    for k in 0..p.variants {
        experiments.push((format!("r/{k}"), sleep_500us as ExperimentFn));
    }
    let course = CourseServer::with_experiments(
        ServerConfig {
            workers: p.workers,
            queue_capacity: p.queue_capacity,
            ..ServerConfig::default()
        },
        experiments,
    );
    let srv = NetServer::bind(
        "127.0.0.1:0",
        course,
        NetConfig {
            max_connections: max_conns + 8,
            shards: p.shards,
            ..NetConfig::default()
        },
    )
    .expect("bind loopback for E18");
    let base_conns = p.sweep_conns[0].max(1);
    let base = LoadConfig {
        connections: base_conns,
        requests_per_connection: (p.total_requests / base_conns).max(1),
        mode: Mode::Closed {
            pipeline: p.pipeline,
        },
        mix: vec![ClassLoad {
            class: JobClass::Interactive,
            weight: 1,
            priority: 160,
            deadline_budget_ms: None,
            op: OpTemplate::Reproduce {
                prefix: "r".to_string(),
                variants: p.variants,
            },
        }],
        max_retries: 8,
        seed: p.seed,
        drain_timeout: Duration::from_secs(20),
    };
    let rows = loadgen::sweep(srv.local_addr(), &base, &p.sweep_conns)
        .into_iter()
        .map(|(conns, report)| SweepRow { conns, report })
        .collect();
    srv.shutdown();
    rows
}

/// Part B outcome: thread growth under N established idle
/// connections.
#[derive(Debug, Clone, Copy)]
pub struct SoakOutcome {
    /// Idle connections held open.
    pub conns: usize,
    /// `/proc/self/status` thread count before the server was bound.
    pub threads_before: usize,
    /// Thread count with every connection accepted and idle.
    pub threads_at_peak: usize,
}

impl SoakOutcome {
    /// Threads the server added for bind + `conns` connections.
    pub fn delta(&self) -> usize {
        self.threads_at_peak.saturating_sub(self.threads_before)
    }
}

/// Current thread count of this process (`Threads:` in
/// `/proc/self/status` — Linux-only, like the reactor itself).
pub fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}

/// Opens `conns` idle connections against a fresh server, waits until
/// the server has accepted every one, and reports the thread-count
/// growth. The idle bound is set generously so idle connections are
/// not reaped mid-measurement.
pub fn idle_soak(conns: usize, p: &ReactorParams) -> SoakOutcome {
    let course = CourseServer::with_experiments(
        ServerConfig {
            workers: p.workers,
            queue_capacity: p.queue_capacity,
            ..ServerConfig::default()
        },
        Vec::new(),
    );
    let threads_before = thread_count();
    let srv = NetServer::bind(
        "127.0.0.1:0",
        course,
        NetConfig {
            max_connections: conns + 8,
            read_timeout: Duration::from_secs(120),
            shards: p.shards,
            ..NetConfig::default()
        },
    )
    .expect("bind loopback for E18 soak");
    let addr = srv.local_addr();
    let mut held: Vec<TcpStream> = Vec::with_capacity(conns);
    for _ in 0..conns {
        held.push(TcpStream::connect(addr).expect("idle connection"));
    }
    // Accepts race this thread; wait for the server's own ledger to
    // reach N.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let st = srv.net_stats();
        assert_eq!(st.refused_conns, 0, "soak sized under the connection cap");
        if st.accepted_conns >= conns as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server accepted only {}/{conns} connections in 30s",
            st.accepted_conns
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let threads_at_peak = thread_count();
    drop(held);
    srv.shutdown();
    SoakOutcome {
        conns,
        threads_before,
        threads_at_peak,
    }
}

/// Completed responses (OK + cached) across every class of a report.
pub fn completed(r: &LoadReport) -> u64 {
    r.per_class.iter().map(|c| c.ok + c.cached).sum()
}

/// Fresh requests sent across every class of a report.
pub fn sent(r: &LoadReport) -> u64 {
    r.per_class.iter().map(|c| c.sent).sum()
}

/// Runs both parts of E18 and renders the published tables.
pub fn render(p: &ReactorParams) -> String {
    let mut out = format!(
        "E18: the connection engine at scale — the {}-shard epoll reactor\n\
         ({} workers, queue {}; {} requests of {:?} sleep-modeled work per\n\
         sweep point, closed loop window {})\n\n\
         Part A — equal offered work across a growing connection count:\n\n",
        p.shards, p.workers, p.queue_capacity, p.total_requests, p.service, p.pipeline,
    );
    out.push_str(&format!(
        "{:>6} {:>9} {:>10} {:>9} {:>9} {:>9}\n",
        "conns", "wall", "reqs/s", "p50", "p99", "answered"
    ));
    for row in run_sweep(p) {
        let done = completed(&row.report);
        let cls = row.report.class(JobClass::Interactive);
        out.push_str(&format!(
            "{:>6} {:>7.2}s {:>10.0} {:>7}us {:>7}us {:>4}/{:<4}\n",
            row.conns,
            row.report.elapsed.as_secs_f64(),
            done as f64 / row.report.elapsed.as_secs_f64().max(1e-9),
            cls.p50_us,
            cls.p99_us,
            done,
            sent(&row.report),
        ));
    }
    out.push_str(
        "\n(equal work, conserved at every point: answered == sent.\n\
         Wall-clock rows are published as measured and not asserted — on\n\
         a shared host thread-scheduling jitter outweighs the engine's own\n\
         costs; the structural claim is Part B's)\n",
    );

    let soak = idle_soak(p.soak_conns, p);
    out.push_str(&format!(
        "\nPart B — idle-connection soak (threads from /proc/self/status):\n\n\
         {:>7} {:>15} {:>13} {:>13}\n\
         {:>7} {:>15} {:>13} {:>13}\n",
        "conns",
        "threads before",
        "at peak",
        "added",
        soak.conns,
        soak.threads_before,
        soak.threads_at_peak,
        soak.delta(),
    ));
    out.push_str(&format!(
        "\nthe reactor held {} idle connections on {} added threads —\n\
         per-connection thread cost {:.3}; its thread count is `shards` +\n\
         the acceptor, flat in connection count\n",
        soak.conns,
        soak.delta(),
        soak.delta() as f64 / soak.conns as f64,
    ));
    out
}
