//! Control-plane end-to-end tests: live membership churn over real
//! sockets. Joins add capacity under sustained load, drains empty a
//! backend without losing an answer, force-removes fail stranded work
//! over, and the epoch/ledger invariants hold throughout — with
//! FaultPlan stalls and process kills thrown in.

use ctl::{BackendState, MembershipEpoch};
use net::loadgen::{self, call_once, ClassLoad, LoadConfig, Mode, OpTemplate};
use net::server::{NetConfig, NetServer};
use net::wire::{
    encode_ctl_drain, encode_ctl_join, encode_ctl_remove, encode_ctl_view, encode_request,
    RequestFrame, RespStatus,
};
use router::server::{Router, RouterConfig};
use serve::fault::{FaultPlan, FaultPoint};
use serve::pool::JobClass;
use serve::server::{CourseServer, ExperimentFn, Request, ServerConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const TOKEN: &str = "sesame-open";

fn sleep_ms_5() -> String {
    std::thread::sleep(Duration::from_millis(5));
    "worked".to_string()
}

fn backend(id: u32, variants: u64, fault_plan: Option<FaultPlan>) -> NetServer {
    let experiments: Vec<(String, ExperimentFn)> = (0..variants)
        .map(|k| (format!("exp/{k}"), sleep_ms_5 as ExperimentFn))
        .collect();
    let course = CourseServer::with_experiments(
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            ..ServerConfig::default()
        },
        experiments,
    );
    NetServer::bind(
        "127.0.0.1:0",
        course,
        NetConfig {
            backend_id: id,
            fault_plan,
            ..NetConfig::default()
        },
    )
    .expect("bind backend")
}

fn fleet(n: u32, variants: u64) -> (Vec<NetServer>, Vec<SocketAddr>) {
    let backends: Vec<NetServer> = (0..n).map(|id| backend(id, variants, None)).collect();
    let addrs = backends.iter().map(|b| b.local_addr()).collect();
    (backends, addrs)
}

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

/// `CtlView` through the wire: the parsed membership plus the raw body
/// (the raw text carries the health/outstanding diagnostic columns the
/// parser deliberately ignores).
fn view(router_addr: SocketAddr, token: &str) -> (MembershipEpoch, String) {
    let resp = call_once(router_addr, &encode_ctl_view(1, token)).expect("ctl view");
    assert_eq!(resp.status, RespStatus::Ok, "{resp:?}");
    let parsed = MembershipEpoch::parse_text(&resp.body).expect("view parses");
    (parsed, resp.body)
}

/// The diagnostic health column of backend `id`'s row in a raw
/// `CtlView` body: "up", "down", or "gone".
fn health_col(raw: &str, id: u32) -> String {
    let prefix = format!("backend {id} ");
    raw.lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no row for backend {id}:\n{raw}"))
        .split_whitespace()
        .nth(4)
        .expect("row has a health column")
        .to_string()
}

fn assert_fleet_ledgers_balance(backends: &[&NetServer]) {
    for b in backends {
        for row in &b.course().stats().per_class {
            assert_eq!(
                row.admitted,
                row.completed + row.shed,
                "backend ledger must balance: {row:?}"
            );
        }
    }
}

#[test]
fn ctl_ops_are_refused_without_the_right_token() {
    let (backends, addrs) = fleet(1, 8);
    // No token configured: the control surface is off entirely.
    let locked = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default()).unwrap();
    let resp = call_once(locked.local_addr(), &encode_ctl_view(1, TOKEN)).unwrap();
    assert_eq!(resp.status, RespStatus::Error);
    assert!(
        resp.body.contains("no admin token"),
        "an unconfigured router says why: {resp:?}"
    );
    locked.shutdown();

    let router = Router::bind(
        "127.0.0.1:0",
        &addrs,
        RouterConfig {
            ctl_token: Some(TOKEN.to_string()),
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let resp = call_once(router.local_addr(), &encode_ctl_view(1, "wrong")).unwrap();
    assert_eq!(resp.status, RespStatus::Error);
    assert!(resp.body.contains("bad token"), "{resp:?}");
    // The reject changed nothing: epoch still 1, counter still 0.
    let (parsed, _) = view(router.local_addr(), TOKEN);
    assert_eq!(parsed.epoch, 1);
    assert_eq!(router.registry().snapshot().counter("ctl.epoch"), Some(0));
    // Bad operands are typed errors, not panics or silence.
    let resp = call_once(
        router.local_addr(),
        &encode_ctl_join(2, TOKEN, "not-an-addr"),
    )
    .unwrap();
    assert_eq!(resp.status, RespStatus::Error);
    assert!(resp.body.contains("invalid backend address"), "{resp:?}");
    let resp = call_once(router.local_addr(), &encode_ctl_drain(3, TOKEN, 99)).unwrap();
    assert_eq!(resp.status, RespStatus::Error);
    assert!(resp.body.contains("unknown backend"), "{resp:?}");
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}

/// A ctl op addressed to a bare backend (not the router) is refused
/// with a typed error — the admin surface lives on the router only.
#[test]
fn ctl_ops_sent_to_a_backend_are_misdirected_errors() {
    let srv = backend(0, 4, None);
    let resp = call_once(srv.local_addr(), &encode_ctl_view(1, TOKEN)).unwrap();
    assert_eq!(resp.status, RespStatus::Error);
    assert!(
        resp.body.contains("router"),
        "the refusal points at the router: {resp:?}"
    );
    srv.shutdown();
}

/// The tentpole invariant: join a backend mid-run (admitted via probe,
/// then taking traffic), drain another mid-run (in-flight resolves,
/// links retire), and across all of it — zero unanswered clients,
/// balanced fleet ledgers, epochs monotonic and advanced exactly
/// twice. One backend also carries a FaultPlan read-stall so the churn
/// overlaps real fault handling.
#[test]
fn join_then_drain_under_load_keeps_every_answer() {
    let b0 = backend(0, 2048, None);
    // Backend 1 stalls two reads 80 ms each mid-run — inside the stall
    // bound, so it slows down without being severed; churn and fault
    // machinery run concurrently.
    let plan =
        FaultPlan::new(0xC7A0).stall_at(FaultPoint::NetReadFrame, Duration::from_millis(80), 2, 2);
    let b1 = backend(1, 2048, Some(plan));
    let addrs = vec![b0.local_addr(), b1.local_addr()];
    let router = Router::bind(
        "127.0.0.1:0",
        &addrs,
        RouterConfig {
            probe_interval: Duration::from_millis(20),
            stall_timeout: Duration::from_millis(500),
            ctl_token: Some(TOKEN.to_string()),
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let router_addr = router.local_addr();

    let load = std::thread::spawn(move || {
        loadgen::run(
            router_addr,
            &LoadConfig {
                connections: 4,
                requests_per_connection: 96,
                mode: Mode::Closed { pipeline: 4 },
                mix: busting_mix(2048),
                max_retries: 3,
                seed: 41,
                drain_timeout: Duration::from_secs(15),
            },
        )
    });
    std::thread::sleep(Duration::from_millis(60));

    // Join a third backend mid-run.
    let b2 = backend(2, 2048, None);
    let mut epochs = vec![view(router_addr, TOKEN).0.epoch];
    let resp = call_once(
        router_addr,
        &encode_ctl_join(10, TOKEN, &b2.local_addr().to_string()),
    )
    .unwrap();
    assert_eq!(resp.status, RespStatus::Ok, "{resp:?}");
    assert!(resp.body.contains("joined backend 2"), "{resp:?}");
    assert!(resp.body.contains("epoch 2"), "{resp:?}");

    // Wait for the probe admission: Joining → Live, health up.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (parsed, raw) = view(router_addr, TOKEN);
        epochs.push(parsed.epoch);
        if parsed.get(2).map(|b| b.state) == Some(BackendState::Live) && health_col(&raw, 2) == "up"
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "backend 2 never admitted:\n{raw}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(router.backend_is_up(2));

    // Drain backend 0 while the run is still in flight.
    let resp = call_once(router_addr, &encode_ctl_drain(11, TOKEN, 0)).unwrap();
    assert_eq!(resp.status, RespStatus::Ok, "{resp:?}");
    assert!(resp.body.contains("epoch 3"), "{resp:?}");

    // The drained backend empties: outstanding hits zero, the prober
    // retires the links, and the diagnostic column flips to "down".
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (parsed, raw) = view(router_addr, TOKEN);
        epochs.push(parsed.epoch);
        assert_eq!(
            parsed.get(0).map(|b| b.state),
            Some(BackendState::Draining),
            "{raw}"
        );
        if health_col(&raw, 0) == "down" {
            break;
        }
        assert!(Instant::now() < deadline, "backend 0 never retired:\n{raw}");
        std::thread::sleep(Duration::from_millis(20));
    }

    let report = load.join().expect("loadgen thread");
    let unanswered: u64 = report.per_class.iter().map(|r| r.unanswered).sum();
    assert_eq!(
        unanswered,
        0,
        "churn must never cost a client an answer:\n{}",
        report.render()
    );

    // A second burst against the resized fleet: the joined backend is
    // a full member now and takes its share of the keyspace.
    let after = loadgen::run(
        router_addr,
        &LoadConfig {
            connections: 4,
            requests_per_connection: 48,
            mode: Mode::Closed { pipeline: 4 },
            mix: busting_mix(2048),
            max_retries: 3,
            seed: 43,
            drain_timeout: Duration::from_secs(15),
        },
    );
    let unanswered: u64 = after.per_class.iter().map(|r| r.unanswered).sum();
    assert_eq!(unanswered, 0, "{}", after.render());
    let joined_admitted: u64 = b2
        .course()
        .stats()
        .per_class
        .iter()
        .map(|r| r.admitted)
        .sum();
    assert!(
        joined_admitted > 0,
        "the joined backend serves real traffic after admission"
    );

    // Epoch bookkeeping: monotonic at every observation, advanced by
    // exactly the two admin ops (admission was not a revision).
    assert!(
        epochs.windows(2).all(|w| w[0] <= w[1]),
        "epochs regressed: {epochs:?}"
    );
    assert_eq!(router.membership().epoch, 3);
    assert_eq!(router.view_epoch(), 3, "data path reads the final epoch");
    assert_eq!(
        router.registry().snapshot().counter("ctl.epoch"),
        Some(2),
        "one join + one drain = exactly two revisions"
    );

    router.shutdown();
    let totals = router.totals();
    assert_eq!(
        totals.forwarded,
        totals.relayed + totals.synthesized_shed,
        "router ledger: every forward resolved exactly once: {totals:?}"
    );
    assert_fleet_ledgers_balance(&[&b0, &b1, &b2]);
    for b in [b0, b1, b2] {
        b.shutdown();
    }
}

#[test]
fn force_removing_a_killed_backend_fails_stranded_work_over() {
    let (mut backends, addrs) = fleet(3, 2048);
    let router = Router::bind(
        "127.0.0.1:0",
        &addrs,
        RouterConfig {
            stall_timeout: Duration::from_millis(300),
            probe_interval: Duration::from_secs(30), // no re-admission mid-test
            ctl_token: Some(TOKEN.to_string()),
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let router_addr = router.local_addr();
    let load = std::thread::spawn(move || {
        loadgen::run(
            router_addr,
            &LoadConfig {
                connections: 4,
                requests_per_connection: 96,
                mode: Mode::Closed { pipeline: 4 },
                mix: busting_mix(2048),
                max_retries: 3,
                seed: 47,
                drain_timeout: Duration::from_secs(15),
            },
        )
    });
    std::thread::sleep(Duration::from_millis(100));
    // Kill the process, then force-remove the corpse from the fleet —
    // no drain, straight from Live; its keys move to the survivors.
    let victim = backends.remove(1);
    victim.shutdown();
    let resp = call_once(router_addr, &encode_ctl_remove(20, TOKEN, 1)).unwrap();
    assert_eq!(resp.status, RespStatus::Ok, "{resp:?}");
    assert!(resp.body.contains("removed backend 1"), "{resp:?}");

    let report = load.join().expect("loadgen thread");
    let unanswered: u64 = report.per_class.iter().map(|r| r.unanswered).sum();
    assert_eq!(
        unanswered,
        0,
        "a killed-then-removed backend costs re-routes or sheds, never silence:\n{}",
        report.render()
    );
    // The tombstone is out of the view: no row, no slot, epoch bumped.
    let (parsed, raw) = view(router_addr, TOKEN);
    assert_eq!(parsed.epoch, 2);
    assert_eq!(parsed.get(1), None, "{raw}");
    assert!(!router.backend_is_up(1));
    assert_eq!(router.registry().snapshot().counter("ctl.epoch"), Some(1));

    router.shutdown();
    let totals = router.totals();
    assert_eq!(totals.forwarded, totals.relayed + totals.synthesized_shed);
    assert_fleet_ledgers_balance(&[&backends[0], &backends[1], &victim]);
    for b in backends {
        b.shutdown();
    }
}

/// `Request::MemTrace` rides the whole stack: loadgen mints it, the
/// ring hashes its `(pattern, accesses, seed)` identity, a backend
/// runs the memsim simulation, and the repeat is a result-cache hit on
/// the same shard.
#[test]
fn memtrace_routes_with_cache_affinity_and_real_simulation_output() {
    let (backends, addrs) = fleet(2, 8);
    let router = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default()).unwrap();
    let frame = |id: u64| {
        encode_request(&RequestFrame {
            id,
            class: JobClass::Batch,
            priority: 120,
            deadline_budget_ms: Some(5_000),
            req: Request::MemTrace {
                pattern: "stride".to_string(),
                accesses: 4096,
                seed: 7,
            },
        })
    };
    let first = call_once(router.local_addr(), &frame(1)).unwrap();
    assert_eq!(first.status, RespStatus::Ok, "{first:?}");
    assert!(
        first.body.contains("memtrace stride seed 7") && first.body.contains("hit rate"),
        "the body is real simulator output: {first:?}"
    );
    let second = call_once(router.local_addr(), &frame(2)).unwrap();
    assert_eq!(
        second.status,
        RespStatus::OkCached,
        "identical trace parameters are one cache key: {second:?}"
    );
    assert_eq!(first.backend, second.backend, "consistent ring placement");
    assert_eq!(first.body, second.body, "cached answer is byte-identical");

    // A MemTrace-bearing mix drives clean through the router.
    let report = loadgen::run(
        router.local_addr(),
        &LoadConfig {
            connections: 2,
            requests_per_connection: 16,
            mode: Mode::Closed { pipeline: 2 },
            mix: vec![ClassLoad {
                class: JobClass::Batch,
                weight: 1,
                priority: 120,
                deadline_budget_ms: Some(5_000),
                op: OpTemplate::MemTrace {
                    accesses: 1024,
                    variants: 4,
                },
            }],
            max_retries: 2,
            seed: 59,
            drain_timeout: Duration::from_secs(10),
        },
    );
    let unanswered: u64 = report.per_class.iter().map(|r| r.unanswered).sum();
    assert_eq!(unanswered, 0, "{}", report.render());
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}
