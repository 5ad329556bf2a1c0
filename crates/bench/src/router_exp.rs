//! E16 — sharding the course server across backends through the
//! router.
//!
//! The single-process `NetServer` is the scaling ceiling: its worker
//! pool is one machine's worth of cores. E16 puts the `router` crate's
//! proxy in front of a fleet of backends and asks the two questions
//! that matter for a distributed tier:
//!
//! 1. **Does sharding buy throughput?** The same cache-busting
//!    closed-loop load is driven through the router at 1 backend and
//!    at 3; with sleep-modeled service times the fleet's aggregate
//!    worker count is the capacity, so 3 backends should sustain well
//!    over 2x the single-backend rate.
//! 2. **Does a mid-run backend death stay honest?** One backend is
//!    shut down while the run is in flight. The router must notice
//!    (health transition), re-route or shed the victim's in-flight and
//!    future keys, and the books must still balance: every client
//!    request resolves (zero unanswered), the router's ledger shows
//!    `forwarded == relayed + synthesized sheds`, and every backend's
//!    admission ledger — the victim's included — shows
//!    `admitted == completed + shed`.
//!
//! Backends here are in-process `NetServer` instances on loopback
//! ports (distinct registries, worker pools, and caches — separate
//! sockets are what the router sees either way); `serve_demo router`
//! runs the same topology with real child processes.

use net::loadgen::{self, ClassLoad, LoadConfig, LoadReport, Mode, OpTemplate};
use net::server::{NetConfig, NetServer};
use router::server::{Router, RouterConfig};
use serve::pool::JobClass;
use serve::server::{CourseServer, ExperimentFn, ServerConfig, ServerStats};
use std::net::SocketAddr;
use std::time::Duration;

/// Shape of the E16 scaling and kill runs.
#[derive(Debug, Clone)]
pub struct RouterParams {
    /// Backends in the scaled fleet.
    pub backends: u32,
    /// Worker threads per backend (aggregate capacity scales with the
    /// fleet).
    pub workers_per_backend: usize,
    /// Admission capacity per backend.
    pub queue_capacity: usize,
    /// Loadgen connections into the router.
    pub connections: usize,
    /// Closed-loop window per connection.
    pub pipeline: usize,
    /// Fresh requests per connection.
    pub requests_per_connection: usize,
    /// Distinct experiment ids (cache-busting key space).
    pub variants: u64,
    /// Loadgen seed.
    pub seed: u64,
}

/// The published E16 configuration: 5 ms sleep-modeled jobs, 2 workers
/// per backend, and a 6×4 closed loop — 24 outstanding against 2
/// workers (single backend) vs 6 (fleet of 3), so capacity, not the
/// client, is the bottleneck in both runs.
pub fn router_scaling_params() -> RouterParams {
    RouterParams {
        backends: 3,
        workers_per_backend: 2,
        queue_capacity: 64,
        connections: 6,
        pipeline: 4,
        requests_per_connection: 48,
        variants: 4096,
        seed: 0xE16,
    }
}

fn sleep_5ms() -> String {
    std::thread::sleep(Duration::from_millis(5));
    "sharded".to_string()
}

/// One backend: its own worker pool, cache, and registry, with its
/// wire identity stamped so the client-observed routing spread is
/// checkable.
fn spawn_backend(id: u32, p: &RouterParams) -> NetServer {
    let experiments: Vec<(String, ExperimentFn)> = (0..p.variants)
        .map(|k| (format!("exp/{k}"), sleep_5ms as ExperimentFn))
        .collect();
    let course = CourseServer::with_experiments(
        ServerConfig {
            workers: p.workers_per_backend,
            queue_capacity: p.queue_capacity,
            ..ServerConfig::default()
        },
        experiments,
    );
    NetServer::bind(
        "127.0.0.1:0",
        course,
        NetConfig {
            backend_id: id,
            ..NetConfig::default()
        },
    )
    .expect("bind loopback backend for E16")
}

fn spawn_fleet(n: u32, p: &RouterParams) -> (Vec<NetServer>, Vec<SocketAddr>) {
    let backends: Vec<NetServer> = (0..n).map(|id| spawn_backend(id, p)).collect();
    let addrs = backends.iter().map(|b| b.local_addr()).collect();
    (backends, addrs)
}

/// Every key distinct within a run: the cache cannot convert the load
/// into hits, so throughput measures worker capacity.
fn busting_mix(variants: u64) -> Vec<ClassLoad> {
    vec![ClassLoad {
        class: JobClass::Batch,
        weight: 1,
        priority: 128,
        deadline_budget_ms: None,
        op: OpTemplate::Reproduce {
            prefix: "exp".to_string(),
            variants,
        },
    }]
}

fn load_config(p: &RouterParams) -> LoadConfig {
    LoadConfig {
        connections: p.connections,
        requests_per_connection: p.requests_per_connection,
        mode: Mode::Closed {
            pipeline: p.pipeline,
        },
        mix: busting_mix(p.variants),
        max_retries: 3,
        seed: p.seed,
        drain_timeout: Duration::from_secs(20),
    }
}

/// One healthy fleet run's client- and router-side measurements.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Fleet size.
    pub backends: u32,
    /// Client-observed report (latency, spread, outcomes).
    pub report: LoadReport,
    /// Router ledger at shutdown.
    pub totals: router::server::RouterTotals,
    /// Per-backend server ledgers after drain.
    pub stats: Vec<ServerStats>,
}

/// Drives the E16 load through a router over `n` healthy backends.
pub fn run_fleet(n: u32, p: &RouterParams) -> FleetOutcome {
    let (backends, addrs) = spawn_fleet(n, p);
    let rt = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default())
        .expect("bind loopback router for E16");
    let report = loadgen::run(rt.local_addr(), &load_config(p));
    let totals = rt.totals();
    rt.shutdown();
    let stats = backends
        .iter()
        .map(|b| {
            b.shutdown();
            b.course().stats()
        })
        .collect();
    FleetOutcome {
        backends: n,
        report,
        totals,
        stats,
    }
}

/// Completed responses (`OK`/`OK_CACHED`) per second of wall clock.
pub fn throughput(o: &FleetOutcome) -> f64 {
    let done: u64 = o.report.per_class.iter().map(|r| r.ok + r.cached).sum();
    done as f64 / o.report.elapsed.as_secs_f64()
}

/// The kill-one-mid-run outcome: the scaled fleet, minus a backend at
/// the halfway mark.
#[derive(Debug)]
pub struct KillOutcome {
    /// Client-observed report.
    pub report: LoadReport,
    /// Router ledger at shutdown.
    pub totals: router::server::RouterTotals,
    /// Per-backend ledgers (the victim's included).
    pub stats: Vec<ServerStats>,
    /// Index of the backend that was shut down.
    pub victim: usize,
}

/// Runs the scaled fleet and shuts one backend down mid-flight. The
/// victim's `NetServer` drains (completing or shedding everything it
/// admitted) while the router re-routes or sheds the keys it owned.
pub fn run_kill_one(p: &RouterParams) -> KillOutcome {
    let (backends, addrs) = spawn_fleet(p.backends, p);
    let rt = Router::bind(
        "127.0.0.1:0",
        &addrs,
        RouterConfig {
            stall_timeout: Duration::from_millis(500),
            ..RouterConfig::default()
        },
    )
    .expect("bind loopback router for E16 kill run");
    let victim = 1usize;
    let router_addr = rt.local_addr();
    let config = load_config(p);
    let load = std::thread::spawn(move || loadgen::run(router_addr, &config));
    std::thread::sleep(Duration::from_millis(150));
    backends[victim].shutdown();
    let report = load.join().expect("loadgen thread");
    let totals = rt.totals();
    rt.shutdown();
    let stats = backends
        .iter()
        .map(|b| {
            b.shutdown();
            b.course().stats()
        })
        .collect();
    KillOutcome {
        report,
        totals,
        stats,
        victim,
    }
}

/// Sums a class-ledger field across a fleet's server stats.
pub fn fleet_sum(stats: &[ServerStats], field: fn(&serve::server::ClassServerStats) -> u64) -> u64 {
    stats
        .iter()
        .flat_map(|s| s.per_class.iter())
        .map(field)
        .sum()
}

/// Renders the E16 report: the scaling table, then the kill run.
pub fn render(p: &RouterParams) -> String {
    let mut out = format!(
        "E16: sharding the course server through the router\n\
         ({} workers/backend, queue {}; {} conns x window {}, {} reqs/conn\n\
         of 5ms cache-busting jobs; consistent hashing over {} variants)\n\n",
        p.workers_per_backend,
        p.queue_capacity,
        p.connections,
        p.pipeline,
        p.requests_per_connection,
        p.variants,
    );

    out.push_str("phase A — throughput vs fleet size (same offered load):\n");
    out.push_str(&format!(
        "{:>9} {:>12} {:>9} {:>9} {:>8}\n",
        "backends", "reqs/sec", "speedup", "p50 us", "spread"
    ));
    let single = run_fleet(1, p);
    let fleet = run_fleet(p.backends, p);
    let base = throughput(&single);
    for o in [&single, &fleet] {
        let row = &o.report.per_class[JobClass::Batch.band()];
        let spread = o.report.by_backend.iter().filter(|(_, n)| *n > 0).count();
        out.push_str(&format!(
            "{:>9} {:>12.0} {:>8.2}x {:>9} {:>8}\n",
            o.backends,
            throughput(o),
            throughput(o) / base,
            row.p50_us,
            spread,
        ));
    }
    let ratio = throughput(&fleet) / base;
    out.push_str(&format!(
        "\n{} backends sustain {ratio:.2}x the single-backend rate \
         (acceptance floor: 2x)\n\n",
        p.backends
    ));

    out.push_str(&format!(
        "phase B — kill backend mid-run ({} backends, victim shut down at 150ms):\n",
        p.backends
    ));
    let kill = run_kill_one(p);
    let unanswered: u64 = kill.report.per_class.iter().map(|r| r.unanswered).sum();
    let lost: u64 = kill
        .report
        .per_class
        .iter()
        .map(|r| r.lost_to_backpressure)
        .sum();
    out.push_str(&format!(
        "client: {} unanswered, {} lost to backpressure, {} backpressure frames\n",
        unanswered,
        lost,
        kill.report
            .per_class
            .iter()
            .map(|r| r.backpressure_frames)
            .sum::<u64>(),
    ));
    out.push_str(&format!(
        "router: forwarded {} = relayed {} + synthesized sheds {}; \
         rerouted {}, downs {}, readmits {}\n",
        kill.totals.forwarded,
        kill.totals.relayed,
        kill.totals.synthesized_shed,
        kill.totals.rerouted,
        kill.totals.backend_downs,
        kill.totals.backend_readmits,
    ));
    let admitted = fleet_sum(&kill.stats, |c| c.admitted);
    let completed = fleet_sum(&kill.stats, |c| c.completed);
    let shed = fleet_sum(&kill.stats, |c| c.shed);
    out.push_str(&format!(
        "fleet ledger (victim included): admitted {admitted} = completed {completed} + shed {shed}\n",
    ));
    let balanced = admitted == completed + shed
        && unanswered == 0
        && kill.totals.forwarded == kill.totals.relayed + kill.totals.synthesized_shed;
    out.push_str(&format!(
        "\nkill-run invariants (zero hangs, exactly-once resolution, balanced books): {}\n",
        if balanced { "HOLD" } else { "VIOLATED" }
    ));
    out
}
