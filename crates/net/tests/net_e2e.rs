//! End-to-end tests over real sockets: out-of-order pipelining,
//! wire-level backpressure, connection-cap shedding, and the
//! no-lost-requests shutdown invariant under injected wire faults.

use net::loadgen::{self, ClassLoad, LoadConfig, Mode, OpTemplate};
use net::server::{NetConfig, NetServer};
use net::wire::{
    decode_payload, encode_request, read_frame, write_frame, Frame, RequestFrame, RespStatus,
    ResponseFrame,
};
use serve::fault::{FaultPlan, FaultPoint};
use serve::pool::JobClass;
use serve::server::{CourseServer, ExperimentFn, Request, ServerConfig};
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::time::Duration;

fn sleep_ms_20() -> String {
    std::thread::sleep(Duration::from_millis(20));
    "slow done".to_string()
}

fn sleep_ms_1() -> String {
    std::thread::sleep(Duration::from_millis(1));
    "fast done".to_string()
}

/// A server whose experiment registry maps `slow/0..n` and `fast/0..n`
/// to sleeping handlers — distinct cache keys, identical cost.
fn sleepy_server(config: ServerConfig, variants: u64) -> CourseServer {
    let mut experiments: Vec<(String, ExperimentFn)> = Vec::new();
    for k in 0..variants {
        experiments.push((format!("slow/{k}"), sleep_ms_20 as ExperimentFn));
        experiments.push((format!("fast/{k}"), sleep_ms_1 as ExperimentFn));
    }
    CourseServer::with_experiments(config, experiments)
}

fn request(id: u64, class: JobClass, priority: u8, exp: &str) -> Vec<u8> {
    encode_request(&RequestFrame {
        id,
        class,
        priority,
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
        other => panic!("server sent a non-response frame: {other:?}"),
    }
}

#[test]
fn pipelined_requests_complete_out_of_order_by_id() {
    let course = sleepy_server(
        ServerConfig {
            workers: 2,
            queue_capacity: 8,
            ..ServerConfig::default()
        },
        1,
    );
    let srv = NetServer::bind(
        "127.0.0.1:0",
        course,
        NetConfig {
            shards: 2,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let stream = TcpStream::connect(srv.local_addr()).unwrap();
    let mut writer = BufWriter::new(&stream);
    let mut reader = BufReader::new(&stream);

    // Slow bulk first, fast interactive second, down the same pipe.
    write_frame(&mut writer, &request(1, JobClass::Bulk, 64, "slow/0")).unwrap();
    write_frame(
        &mut writer,
        &request(2, JobClass::Interactive, 160, "fast/0"),
    )
    .unwrap();

    let first = next_response(&mut reader);
    let second = next_response(&mut reader);
    assert_eq!(
        first.id, 2,
        "the fast request's response must not wait behind the slow one"
    );
    assert_eq!(first.status, RespStatus::Ok);
    assert_eq!(second.id, 1);
    assert_eq!(second.status, RespStatus::Ok);
    assert!(second.body.contains("slow done"));
    srv.shutdown();
}

#[test]
fn repeat_requests_come_back_marked_cached() {
    let course = sleepy_server(ServerConfig::default(), 1);
    let srv = NetServer::bind("127.0.0.1:0", course, NetConfig::default()).unwrap();
    let stream = TcpStream::connect(srv.local_addr()).unwrap();
    let mut writer = BufWriter::new(&stream);
    let mut reader = BufReader::new(&stream);

    write_frame(&mut writer, &request(1, JobClass::Bulk, 64, "fast/0")).unwrap();
    assert_eq!(next_response(&mut reader).status, RespStatus::Ok);
    write_frame(&mut writer, &request(2, JobClass::Bulk, 64, "fast/0")).unwrap();
    assert_eq!(next_response(&mut reader).status, RespStatus::OkCached);
    srv.shutdown();
}

#[test]
fn overload_earns_retry_frames_with_usable_hints() {
    // One worker, a queue of 2, and a stack of slow requests: most of
    // the pipeline must bounce with RETRY at admission.
    let course = sleepy_server(
        ServerConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServerConfig::default()
        },
        16,
    );
    let srv = NetServer::bind("127.0.0.1:0", course, NetConfig::default()).unwrap();
    let stream = TcpStream::connect(srv.local_addr()).unwrap();
    let mut writer = BufWriter::new(&stream);
    let mut reader = BufReader::new(&stream);

    for id in 0..8u64 {
        write_frame(
            &mut writer,
            &request(id + 1, JobClass::Bulk, 64, &format!("slow/{id}")),
        )
        .unwrap();
    }
    let mut ok = 0u32;
    let mut retries = 0u32;
    for _ in 0..8 {
        let resp = next_response(&mut reader);
        match resp.status {
            RespStatus::Ok => ok += 1,
            RespStatus::Retry => {
                retries += 1;
                assert!(
                    resp.retry_after_ms > 0,
                    "no deadline on these requests, so the hint must be a real backoff"
                );
            }
            other => panic!("unexpected status {other:?}"),
        }
    }
    assert!(ok >= 1, "the admitted head of the pipeline completes");
    assert!(
        retries >= 5,
        "a queue of 2 cannot admit 8 slow requests (got {retries} retries)"
    );
    srv.shutdown();
}

#[test]
fn connections_past_the_cap_are_shed_with_goaway() {
    let course = sleepy_server(ServerConfig::default(), 1);
    let srv = NetServer::bind(
        "127.0.0.1:0",
        course,
        NetConfig {
            max_connections: 1,
            goaway_retry_ms: 7,
            ..NetConfig::default()
        },
    )
    .unwrap();

    let keeper = TcpStream::connect(srv.local_addr()).unwrap();
    // Make sure the first connection is fully registered before the
    // second one races the accept loop.
    let mut kw = BufWriter::new(&keeper);
    let mut kr = BufReader::new(&keeper);
    write_frame(&mut kw, &request(1, JobClass::Bulk, 64, "fast/0")).unwrap();
    assert_eq!(next_response(&mut kr).status, RespStatus::Ok);

    let refused = TcpStream::connect(srv.local_addr()).unwrap();
    let mut rr = BufReader::new(&refused);
    let frame = next_response(&mut rr);
    assert_eq!(frame.status, RespStatus::GoAway);
    assert_eq!(
        frame.id, 0,
        "accept-time shedding is connection-level, not per-request"
    );
    assert_eq!(frame.retry_after_ms, 7);
    assert!(
        read_frame(&mut rr).unwrap().is_none(),
        "GoAway is followed by close"
    );
    assert_eq!(srv.net_stats().refused_conns, 1);
    srv.shutdown();
}

#[test]
fn malformed_frames_get_a_typed_error_then_close() {
    let course = sleepy_server(ServerConfig::default(), 1);
    let srv = NetServer::bind("127.0.0.1:0", course, NetConfig::default()).unwrap();
    let stream = TcpStream::connect(srv.local_addr()).unwrap();
    let mut writer = BufWriter::new(&stream);
    let mut reader = BufReader::new(&stream);

    // A frame whose payload is garbage (bad tag).
    write_frame(&mut writer, &[0, 0, 0, 3, 0xDE, 0xAD, 0xBF]).unwrap();
    let frame = next_response(&mut reader);
    assert_eq!(frame.status, RespStatus::Error);
    assert!(
        frame.body.contains("malformed"),
        "body explains: {}",
        frame.body
    );
    assert!(
        read_frame(&mut reader).unwrap().is_none(),
        "desync closes the connection"
    );
    assert_eq!(srv.net_stats().malformed, 1);
    srv.shutdown();
}

#[test]
fn graceful_shutdown_under_wire_faults_loses_no_admitted_request() {
    // Drop a quarter of read-side frames' connections mid-request,
    // stall some writer frames: admitted work must still drain and the
    // per-class ledgers must still balance after shutdown.
    let plan = FaultPlan::new(0xF4417)
        .drop_at(FaultPoint::NetReadFrame, 1, 4)
        .stall_at(FaultPoint::NetWriteFrame, Duration::from_millis(2), 1, 8);
    let course = sleepy_server(
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
            ..ServerConfig::default()
        },
        1024,
    );
    let srv = NetServer::bind(
        "127.0.0.1:0",
        course,
        NetConfig {
            fault_plan: Some(plan.clone()),
            shards: 2,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let report = loadgen::run(
        srv.local_addr(),
        &LoadConfig {
            connections: 4,
            requests_per_connection: 24,
            mode: Mode::Closed { pipeline: 4 },
            mix: vec![
                ClassLoad {
                    class: JobClass::Interactive,
                    weight: 1,
                    priority: 160,
                    deadline_budget_ms: Some(2_000),
                    op: OpTemplate::Reproduce {
                        prefix: "fast".to_string(),
                        variants: 1024,
                    },
                },
                ClassLoad {
                    class: JobClass::Bulk,
                    weight: 1,
                    priority: 64,
                    deadline_budget_ms: None,
                    op: OpTemplate::Reproduce {
                        prefix: "slow".to_string(),
                        variants: 1024,
                    },
                },
            ],
            max_retries: 2,
            seed: 7,
            drain_timeout: Duration::from_secs(5),
        },
    );
    srv.shutdown();

    let stats = srv.course().stats();
    assert!(
        plan.stats().drops > 0,
        "the plan must actually sever connections"
    );
    assert!(srv.net_stats().dropped_conns > 0);
    for row in &stats.per_class {
        assert_eq!(
            row.admitted,
            row.completed + row.shed,
            "{} ledger must balance after shutdown: {row:?}",
            row.class
        );
        assert_eq!(
            row.in_flight, 0,
            "{}: nothing may remain in flight",
            row.class
        );
    }
    // The loadgen survived severed connections without panicking and
    // accounted every minted request somewhere.
    let minted: u64 = report.per_class.iter().map(|r| r.sent).sum();
    assert!(minted > 0);
}

#[test]
fn loadgen_default_mix_round_trips_end_to_end() {
    let course = CourseServer::new(ServerConfig {
        workers: 4,
        queue_capacity: 32,
        ..ServerConfig::default()
    });
    let srv = NetServer::bind(
        "127.0.0.1:0",
        course,
        NetConfig {
            shards: 2,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let report = loadgen::run(
        srv.local_addr(),
        &LoadConfig {
            connections: 3,
            requests_per_connection: 20,
            mode: Mode::Closed { pipeline: 3 },
            ..LoadConfig::default()
        },
    );
    srv.shutdown();
    let completed: u64 = report
        .per_class
        .iter()
        .map(|r| r.ok + r.cached + r.errors)
        .sum();
    let minted: u64 = report.per_class.iter().map(|r| r.sent).sum();
    assert_eq!(minted, 60);
    let lost: u64 = report
        .per_class
        .iter()
        .map(|r| r.lost_to_backpressure + r.unanswered)
        .sum();
    assert_eq!(
        completed + lost,
        minted,
        "every minted request is accounted for"
    );
    assert!(
        completed > 0,
        "an unloaded server completes most of a small burst"
    );
    // Every default-mix op must be servable: unknown generators or
    // experiment ids would surface here as ERROR frames.
    for row in &report.per_class {
        assert_eq!(row.errors, 0, "{} requests must not error", row.class);
    }
    let net = srv.net_stats();
    assert_eq!(net.accepted_conns, 3);
    assert_eq!(net.malformed, 0);
}

/// Pulls `counter NAME V` out of a rendered snapshot.
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
fn stats_op_returns_a_snapshot_whose_counters_balance_the_ledgers() {
    let course = CourseServer::new(ServerConfig {
        workers: 4,
        queue_capacity: 32,
        ..ServerConfig::default()
    });
    let srv = NetServer::bind("127.0.0.1:0", course, NetConfig::default()).unwrap();
    let addr = srv.local_addr();
    let report = loadgen::run(
        addr,
        &LoadConfig {
            connections: 3,
            requests_per_connection: 16,
            mode: Mode::Closed { pipeline: 3 },
            ..LoadConfig::default()
        },
    );
    let unanswered: u64 = report.per_class.iter().map(|r| r.unanswered).sum();
    assert_eq!(unanswered, 0, "friendly load must fully drain");

    // Snapshot over the wire, against the *live* server: stats bypass
    // admission, so this works regardless of queue state.
    let snapshot = loadgen::fetch_stats(addr).expect("stats over TCP");
    let stats = srv.course().stats();
    for row in &stats.per_class {
        let admitted = counter_value(&snapshot, &format!("serve.admitted.{}", row.class));
        let completed = counter_value(&snapshot, &format!("serve.completed.{}", row.class));
        let shed = counter_value(&snapshot, &format!("serve.shed.{}", row.class));
        assert_eq!(
            admitted, row.admitted,
            "{}: registry mirror must match the ledger",
            row.class
        );
        assert_eq!(completed, row.completed, "{}", row.class);
        assert_eq!(shed, row.shed, "{}", row.class);
        assert_eq!(
            admitted,
            completed + shed,
            "{}: drained snapshot must balance",
            row.class
        );
    }
    // A repeat that arrives after its first copy finished is answered at
    // admission; one still computing is a pool job that waits on it. The
    // sum is exact whatever the timing.
    let inline_hits: u64 = stats
        .per_class
        .iter()
        .map(|row| counter_value(&snapshot, &format!("serve.inline_hits.{}", row.class)))
        .sum();
    let claims = counter_value(&snapshot, "pool.claims");
    assert_eq!(
        claims + inline_hits,
        stats.accepted,
        "every accepted request was one pool job or one inline hit"
    );
    let requests = counter_value(&snapshot, "net.requests");
    assert_eq!(requests, srv.net_stats().requests);
    assert_eq!(counter_value(&snapshot, "net.stats_requests"), 1);
    assert!(
        snapshot.contains("hist serve.stage.queue_us.interactive "),
        "stage histograms render: \n{snapshot}"
    );
    srv.shutdown();
}

#[test]
fn requests_racing_shutdown_get_goaway_not_silence() {
    let course = sleepy_server(
        ServerConfig {
            workers: 1,
            queue_capacity: 4,
            ..ServerConfig::default()
        },
        8,
    );
    let srv = NetServer::bind("127.0.0.1:0", course, NetConfig::default()).unwrap();
    let addr = srv.local_addr();
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = BufWriter::new(&stream);
    let mut reader = BufReader::new(&stream);
    write_frame(&mut writer, &request(1, JobClass::Bulk, 64, "slow/0")).unwrap();
    // Shut down only once request 1 is admitted, so the race under test
    // is shutdown against an admitted request (`net_stats().requests`
    // counts the frame before it is submitted, which is too early).
    while srv.course().stats().accepted < 1 {
        std::thread::yield_now();
    }

    let shutter = std::thread::spawn(move || srv.shutdown());
    // Whatever the interleaving, the connection ends with our admitted
    // request answered, then EOF; frames sent after shutdown either
    // never arrive (read half closed) or earn GoAway — never silence
    // with an open socket.
    let mut got_first = false;
    loop {
        match read_frame(&mut reader) {
            Ok(Some(payload)) => match decode_payload(&payload).expect("decode") {
                Frame::Response(f) if f.id == 1 => {
                    assert_eq!(f.status, RespStatus::Ok);
                    got_first = true;
                }
                Frame::Response(f) => assert_eq!(f.status, RespStatus::GoAway),
                other => panic!("server sent a non-response frame: {other:?}"),
            },
            Ok(None) => break,
            Err(e) => panic!("socket error instead of clean FIN: {e}"),
        }
    }
    assert!(
        got_first,
        "the admitted request's response must be written before the FIN"
    );
    shutter.join().unwrap();
}
