//! End-to-end router tests over real sockets and in-process backends:
//! routing spread with cache affinity, fleet-wide stats merging,
//! backend death mid-run (zero lost answers, honest sheds, balanced
//! ledgers), probe-driven re-admission after a stall, a cached relay
//! that never crosses threads, and the protocol error a stray response
//! frame earns at a backend and at the router.

use net::loadgen::{self, call_once, ClassLoad, LoadConfig, Mode, OpTemplate};
use net::server::{NetConfig, NetServer};
use net::wire::{
    decode_payload, encode_request, encode_response, read_frame, write_frame, Frame, RequestFrame,
    RespStatus, ResponseFrame, ROUTER_BACKEND_ID,
};
use router::server::{Router, RouterConfig};
use serve::fault::{FaultPlan, FaultPoint};
use serve::pool::{ClassStats, JobClass};
use serve::server::{CourseServer, ExperimentFn, Request, ServerConfig, ServerStats};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

fn sleep_ms_5() -> String {
    std::thread::sleep(Duration::from_millis(5));
    "worked".to_string()
}

/// One in-process backend: a `NetServer` with `exp/0..variants`
/// registered to a 5 ms handler and its wire identity stamped.
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

/// A cache-busting reproduce-heavy mix over `exp/0..variants`.
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

fn reproduce(id: u64, exp: &str) -> Vec<u8> {
    encode_request(&RequestFrame {
        id,
        class: JobClass::Batch,
        priority: 128,
        deadline_budget_ms: None,
        req: Request::Reproduce {
            id: exp.to_string(),
        },
    })
}

fn next_response(reader: &mut BufReader<&TcpStream>) -> ResponseFrame {
    let payload = read_frame(reader).expect("read").expect("frame before EOF");
    match decode_payload(&payload).expect("decode") {
        Frame::Response(f) => f,
        other => panic!("router sent a non-response frame: {other:?}"),
    }
}

/// Pulls `counter NAME V` out of an encoded or rendered snapshot.
fn counter_value(snapshot: &str, name: &str) -> u64 {
    let prefix = format!("counter {name} ");
    snapshot
        .lines()
        .find_map(|line| line.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("snapshot has no counter {name}:\n{snapshot}"))
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("counter {name} unparsable: {e}"))
}

#[test]
fn requests_spread_across_backends_and_equal_keys_stay_cached() {
    let (backends, addrs) = fleet(3, 512);
    let router = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default()).unwrap();
    let report = loadgen::run(
        router.local_addr(),
        &LoadConfig {
            connections: 4,
            requests_per_connection: 24,
            mode: Mode::Closed { pipeline: 4 },
            mix: busting_mix(512),
            max_retries: 2,
            seed: 11,
            drain_timeout: Duration::from_secs(10),
        },
    );
    let unanswered: u64 = report.per_class.iter().map(|r| r.unanswered).sum();
    assert_eq!(unanswered, 0, "healthy fleet answers everything");
    let real: Vec<&(u32, u64)> = report
        .by_backend
        .iter()
        .filter(|(b, _)| *b != ROUTER_BACKEND_ID)
        .collect();
    assert!(
        real.len() >= 2,
        "96 distinct keys must spread past one backend: {:?}",
        report.by_backend
    );

    // Cache affinity: the same key keeps hitting the same shard, so the
    // second submission of an identical request is a cache hit.
    let stream = TcpStream::connect(router.local_addr()).unwrap();
    let mut writer = BufWriter::new(&stream);
    let mut reader = BufReader::new(&stream);
    write_frame(&mut writer, &reproduce(1, "exp/7")).unwrap();
    let first = next_response(&mut reader);
    write_frame(&mut writer, &reproduce(2, "exp/7")).unwrap();
    let second = next_response(&mut reader);
    assert!(
        matches!(first.status, RespStatus::Ok | RespStatus::OkCached),
        "{first:?}"
    );
    assert_eq!(
        second.status,
        RespStatus::OkCached,
        "consistent hashing must route the repeat to the warm shard"
    );
    assert_eq!(
        first.backend, second.backend,
        "both hits name the same backend"
    );
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn stats_through_the_router_are_the_sum_of_the_fleet() {
    let (backends, addrs) = fleet(3, 256);
    let router = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default()).unwrap();
    let report = loadgen::run(
        router.local_addr(),
        &LoadConfig {
            connections: 3,
            requests_per_connection: 16,
            mode: Mode::Closed { pipeline: 4 },
            mix: busting_mix(256),
            max_retries: 2,
            seed: 5,
            drain_timeout: Duration::from_secs(10),
        },
    );
    let unanswered: u64 = report.per_class.iter().map(|r| r.unanswered).sum();
    assert_eq!(unanswered, 0);
    // A worker counts its job's completion just after the response
    // publishes; wait for the last ones, so the counters are still.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !backends.iter().all(|b| {
        let pool = b.course().stats().pool;
        pool.finished == pool.submitted
    }) {
        assert!(Instant::now() < deadline, "the fleet's pools never settled");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Quiesced: job counters are stable, so the merged snapshot must
    // equal the per-backend sum exactly.
    let direct_sum: u64 = addrs
        .iter()
        .map(|&a| counter_value(&loadgen::fetch_stats_full(a).unwrap(), "net.requests"))
        .sum();
    let merged_text = loadgen::fetch_stats_full(router.local_addr()).unwrap();
    let merged = obs::Snapshot::parse_text(&merged_text).expect("router emits parsable stats");
    assert_eq!(
        merged.counter("net.requests"),
        Some(direct_sum),
        "merged net.requests is the fleet sum"
    );
    assert_eq!(
        merged.counter("router.forwarded"),
        Some(router.totals().forwarded),
        "the router's own ledger rides along in the merge"
    );
    let admitted: u64 = backends
        .iter()
        .map(|b| {
            b.course()
                .stats()
                .per_class
                .iter()
                .map(|r| r.admitted)
                .sum::<u64>()
        })
        .sum();
    let merged_admitted: u64 = ["interactive", "batch", "bulk"]
        .iter()
        .filter_map(|c| merged.counter(&format!("serve.admitted.{c}")))
        .sum();
    assert_eq!(merged_admitted, admitted, "admission ledgers merge exactly");

    // The counters behind `stats()` are the ones `Op::Stats` carries:
    // the cache's and the pool's per-class ledger merge to the sum of
    // what each backend reports.
    let fleet: Vec<ServerStats> = backends.iter().map(|b| b.course().stats()).collect();
    let sum = |field: &dyn Fn(&ServerStats) -> u64| fleet.iter().map(field).sum::<u64>();
    let misses = sum(&|s| s.cache.misses);
    assert!(misses > 0, "the busting mix computes");
    assert_eq!(merged.counter("cache.hits"), Some(sum(&|s| s.cache.hits)));
    assert_eq!(merged.counter("cache.misses"), Some(misses));
    for (band, class) in JobClass::ALL.iter().enumerate() {
        let merged_class = |name: &str| merged.counter(&format!("pool.{name}.{class}"));
        let fleet_class =
            |field: fn(&ClassStats) -> u64| Some(sum(&|s| field(&s.pool.per_class[band])));
        assert_eq!(
            merged_class("completed"),
            fleet_class(|c| c.completed),
            "pool.completed.{class}"
        );
        assert_eq!(
            merged_class("busy_us"),
            fleet_class(|c| c.busy_micros),
            "pool.busy_us.{class}"
        );
        assert_eq!(
            merged_class("deadline_missed"),
            fleet_class(|c| c.deadline_missed),
            "pool.deadline_missed.{class}"
        );
    }

    // The rendered (op 3) flavor through the router carries the
    // worst-spans forensics section fed by the backends' trace rings.
    let rendered = loadgen::fetch_stats(router.local_addr()).unwrap();
    assert!(
        rendered.contains("worst-spans"),
        "merged render exposes the span ring:\n{rendered}"
    );
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn a_response_frame_sent_to_a_backend_or_the_router_is_a_protocol_error() {
    let backend = backend(0, 1, None);
    let router = Router::bind(
        "127.0.0.1:0",
        &[backend.local_addr()],
        RouterConfig::default(),
    )
    .unwrap();
    let stray = encode_response(&ResponseFrame {
        id: 9,
        status: RespStatus::Ok,
        retry_after_ms: 0,
        backend: 0,
        body: "a response, sent the wrong way".to_string(),
    });
    for addr in [backend.local_addr(), router.local_addr()] {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = BufWriter::new(&stream);
        let mut reader = BufReader::new(&stream);
        write_frame(&mut writer, &stray).unwrap();
        let answer = next_response(&mut reader);
        assert_eq!(answer.status, RespStatus::Error, "{addr}: {answer:?}");
        assert!(
            answer
                .body
                .starts_with("protocol error: response frame sent to"),
            "{addr}: {}",
            answer.body
        );
        assert!(
            read_frame(&mut reader).unwrap().is_none(),
            "{addr}: the connection closes after the error"
        );
    }
    assert_eq!(backend.net_stats().malformed, 1, "counted once");
    router.shutdown();
    backend.shutdown();
}

#[test]
fn killing_a_backend_mid_run_loses_no_answers_and_balances_the_ledgers() {
    let (mut backends, addrs) = fleet(3, 2048);
    let router = Router::bind(
        "127.0.0.1:0",
        &addrs,
        RouterConfig {
            stall_timeout: Duration::from_millis(500),
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let router_addr = router.local_addr();
    let load = std::thread::spawn(move || {
        loadgen::run(
            router_addr,
            &LoadConfig {
                // Long enough (~380 of the ~5ms jobs against 6 fleet
                // workers ≈ 320ms) that the 120ms kill below lands
                // unambiguously mid-run.
                connections: 4,
                requests_per_connection: 96,
                mode: Mode::Closed { pipeline: 4 },
                mix: busting_mix(2048),
                max_retries: 3,
                seed: 23,
                drain_timeout: Duration::from_secs(15),
            },
        )
    });
    // Let the run get going, then take a backend down mid-flight.
    std::thread::sleep(Duration::from_millis(120));
    let victim = backends.remove(1);
    victim.shutdown();
    let report = load.join().expect("loadgen thread");

    let unanswered: u64 = report.per_class.iter().map(|r| r.unanswered).sum();
    assert_eq!(
        unanswered,
        0,
        "a killed backend must cost re-routes or sheds, never silence:\n{}",
        report.render()
    );
    let totals = router.totals();
    assert!(
        totals.backend_downs >= 1,
        "the death was noticed: {totals:?}"
    );
    assert!(
        totals.rerouted + totals.synthesized_shed > 0,
        "in-flight work on the victim was re-routed or shed: {totals:?}"
    );
    assert!(
        !router.backend_is_up(1),
        "the victim stays out of rotation (nothing listens there)"
    );

    router.shutdown();
    assert_eq!(
        totals.forwarded,
        router.totals().relayed + router.totals().synthesized_shed,
        "router ledger: every forward resolved exactly once"
    );
    // Fleet-wide balance: each backend's ledger, victim included.
    for b in backends.iter().chain(std::iter::once(&victim)) {
        for row in &b.course().stats().per_class {
            assert_eq!(
                row.admitted,
                row.completed + row.shed,
                "backend ledger must balance: {row:?}"
            );
        }
    }
    // Client-side accounting: everything minted is somewhere.
    let minted: u64 = report.per_class.iter().map(|r| r.sent).sum();
    let resolved: u64 = report
        .per_class
        .iter()
        .map(|r| r.ok + r.cached + r.errors + r.lost_to_backpressure)
        .sum();
    assert_eq!(minted, resolved, "{}", report.render());
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn a_stalled_backend_is_shed_from_then_probed_back_in() {
    // The single backend stalls every read 400 ms — longer than the
    // router's 100 ms stall bound — so the first forwarded request
    // trips the watermark check and gets an honest router shed.
    let plan = FaultPlan::new(0x57A11).stall_at(
        FaultPoint::NetReadFrame,
        Duration::from_millis(400),
        1,
        1,
    );
    let srv = backend(0, 8, Some(plan));
    let router = Router::bind(
        "127.0.0.1:0",
        &[srv.local_addr()],
        RouterConfig {
            stall_timeout: Duration::from_millis(100),
            probe_interval: Duration::from_millis(25),
            fail_threshold: 1,
            ..RouterConfig::default()
        },
    )
    .unwrap();

    let stream = TcpStream::connect(router.local_addr()).unwrap();
    let mut writer = BufWriter::new(&stream);
    let mut reader = BufReader::new(&stream);
    write_frame(&mut writer, &reproduce(1, "exp/0")).unwrap();
    let resp = next_response(&mut reader);
    assert_eq!(
        resp.status,
        RespStatus::Shed,
        "a stalled shard earns a shed, not a hang: {resp:?}"
    );
    assert_eq!(resp.backend, ROUTER_BACKEND_ID, "the router answered");
    assert!(resp.retry_after_ms > 0, "the hint is honest");
    assert!(router.totals().backend_downs >= 1);

    // The process is alive, just slow: the prober's stats ping rides
    // out the stall and re-admits the backend.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !router.backend_is_up(0) {
        assert!(
            Instant::now() < deadline,
            "probe never re-admitted the backend: {:?}",
            router.totals()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(router.totals().backend_readmits >= 1);
    router.shutdown();
    srv.shutdown();
}

#[test]
fn no_live_backend_sheds_immediately_with_an_honest_hint() {
    let (backends, addrs) = fleet(1, 8);
    let router = Router::bind(
        "127.0.0.1:0",
        &addrs,
        RouterConfig {
            probe_interval: Duration::from_secs(30), // don't re-admit mid-test
            ..RouterConfig::default()
        },
    )
    .unwrap();
    for b in backends {
        b.shutdown();
    }
    // The dead backend is discovered lazily: the first request rides
    // the corpse (EOF on the backend link → re-route → no live backend
    // → shed); later ones shed straight away. Either path must answer.
    let stream = TcpStream::connect(router.local_addr()).unwrap();
    let mut writer = BufWriter::new(&stream);
    let mut reader = BufReader::new(&stream);
    for id in 1..=3u64 {
        write_frame(&mut writer, &reproduce(id, "exp/1")).unwrap();
        let resp = next_response(&mut reader);
        assert_eq!(resp.status, RespStatus::Shed, "request {id}: {resp:?}");
        assert_eq!(resp.backend, ROUTER_BACKEND_ID);
        assert!(resp.retry_after_ms > 0);
    }
    assert!(router.totals().synthesized_shed >= 3);
    router.shutdown();
}

/// A generous `stall_timeout`: the backend pauses 400 ms per read —
/// many reactor ticks, well inside the 2 s stall bound — and the
/// router must wait for the answer instead of severing.
#[test]
fn a_generous_stall_timeout_rides_out_a_pause() {
    let plan = FaultPlan::new(0x57A22).stall_at(
        FaultPoint::NetReadFrame,
        Duration::from_millis(400),
        1,
        1,
    );
    let srv = backend(0, 8, Some(plan));
    let router = Router::bind(
        "127.0.0.1:0",
        &[srv.local_addr()],
        RouterConfig {
            stall_timeout: Duration::from_secs(2),
            fail_threshold: 1,
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let stream = TcpStream::connect(router.local_addr()).unwrap();
    let mut writer = BufWriter::new(&stream);
    let mut reader = BufReader::new(&stream);
    write_frame(&mut writer, &reproduce(1, "exp/0")).unwrap();
    let resp = next_response(&mut reader);
    assert!(
        matches!(resp.status, RespStatus::Ok | RespStatus::OkCached),
        "a slow-but-alive backend inside the stall bound answers: {resp:?}"
    );
    assert_eq!(
        router.totals().backend_downs,
        0,
        "the pause never counted as an outage: {:?}",
        router.totals()
    );
    router.shutdown();
    srv.shutdown();
}

/// A tight `stall_timeout`: a 150 ms bound against a backend that
/// stalls 2 s must produce the shed in stall-bound time — proof the
/// sever is driven by the watermark, not by the backend finally
/// answering.
#[test]
fn a_tight_stall_timeout_severs_within_its_bound() {
    let plan =
        FaultPlan::new(0x57A33).stall_at(FaultPoint::NetReadFrame, Duration::from_secs(2), 1, 1);
    let srv = backend(0, 8, Some(plan));
    let router = Router::bind(
        "127.0.0.1:0",
        &[srv.local_addr()],
        RouterConfig {
            stall_timeout: Duration::from_millis(150),
            fail_threshold: 1,
            probe_interval: Duration::from_secs(30), // don't re-admit mid-test
            ..RouterConfig::default()
        },
    )
    .unwrap();
    let stream = TcpStream::connect(router.local_addr()).unwrap();
    let mut writer = BufWriter::new(&stream);
    let mut reader = BufReader::new(&stream);
    let start = Instant::now();
    write_frame(&mut writer, &reproduce(1, "exp/0")).unwrap();
    let resp = next_response(&mut reader);
    let waited = start.elapsed();
    assert_eq!(resp.status, RespStatus::Shed, "{resp:?}");
    assert!(
        waited < Duration::from_millis(1500),
        "the shed arrived in stall-bound time, not after the stall: {waited:?}"
    );
    assert!(router.totals().backend_downs >= 1);
    router.shutdown();
    srv.shutdown();
}

/// The router carries its client connections and backend links on one
/// reactor shard, so a cached request is forwarded and relayed without
/// a cross-thread wakeup anywhere in the stack: the router's shard
/// never has its eventfd signalled, and each backend answers a ready
/// cache hit on its own shard.
#[test]
fn cached_requests_are_relayed_without_a_cross_thread_wakeup() {
    let backends: Vec<NetServer> = (0..2)
        .map(|id| {
            NetServer::bind(
                "127.0.0.1:0",
                CourseServer::new(ServerConfig::default()),
                NetConfig {
                    backend_id: id,
                    ..NetConfig::default()
                },
            )
            .expect("bind backend")
        })
        .collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(NetServer::local_addr).collect();
    let router = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default()).unwrap();
    let stream = TcpStream::connect(router.local_addr()).unwrap();
    let mut writer = BufWriter::new(&stream);
    let mut reader = BufReader::new(&stream);
    let life = |id: u64| {
        encode_request(&RequestFrame {
            id,
            class: JobClass::Interactive,
            priority: 160,
            deadline_budget_ms: None,
            req: Request::Life {
                w: 8,
                h: 8,
                steps: 4,
                seed: id % 8,
            },
        })
    };
    // Warm 8 keys on both backends directly, so a key the latency hedge
    // spills to its ring successor (`Ring::route_balanced`) is a hit
    // there too. Each miss computes on a pool worker, whose completion
    // does cross threads; then one pass through the router.
    for addr in &addrs {
        for id in 0..8u64 {
            let resp = call_once(*addr, &life(id)).expect("warm a key");
            assert_eq!(resp.status, RespStatus::Ok, "{resp:?}");
        }
    }
    for id in 0..8u64 {
        write_frame(&mut writer, &life(id)).unwrap();
        let resp = next_response(&mut reader);
        assert_eq!(
            (resp.id, resp.status),
            (id, RespStatus::OkCached),
            "{resp:?}"
        );
    }
    let wakeups = |registry: &obs::Registry| registry.snapshot().counter("reactor.wakeups");
    let router_before = wakeups(router.registry()).expect("the router runs on a reactor");
    let backends_before: Vec<u64> = backends
        .iter()
        .map(|b| wakeups(b.course().registry()).expect("the backend runs on a reactor"))
        .collect();
    for id in 8..2008u64 {
        write_frame(&mut writer, &life(id)).unwrap();
        let resp = next_response(&mut reader);
        assert_eq!(
            (resp.id, resp.status),
            (id, RespStatus::OkCached),
            "{resp:?}"
        );
    }
    assert_eq!(
        wakeups(router.registry()),
        Some(router_before),
        "a cached forward and relay stay on the router's shard"
    );
    for (b, before) in backends.iter().zip(backends_before) {
        assert_eq!(
            wakeups(b.course().registry()),
            Some(before),
            "a ready hit is answered on the backend's shard"
        );
    }
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}
