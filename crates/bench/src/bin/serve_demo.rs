//! `serve_demo` — N client threads hammering the course job server.
//!
//! ```text
//! cargo run -p bench --bin serve_demo                    # 8 clients x 32 requests
//! cargo run -p bench --bin serve_demo -- 4 100           # 4 clients x 100 requests
//! cargo run -p bench --bin serve_demo -- 4 100 fifo      # shared-FIFO baseline pool
//! cargo run -p bench --bin serve_demo -- 4 100 priority  # class-aware priority lanes
//! cargo run -p bench --bin serve_demo -- 4 100 net       # over TCP: server + loadgen
//! cargo run -p bench --bin serve_demo -- 4 100 net-epoll # same, epoll reactor front end
//! cargo run -p bench --bin serve_demo -- 4 100 net-epoll --conns 2,8,32  # sweep mode
//! cargo run -p bench --bin serve_demo -- 4 100 stats     # net mode + Op::Stats snapshot
//! cargo run -p bench --bin serve_demo -- 4 100 router 3  # 3 backend *processes* + router
//! cargo run -p bench --bin serve_demo -- 4 100 router 7401,7402  # explicit backend ports
//! cargo run -p bench --bin serve_demo -- 4 100 router-epoll 3    # pooled reactor links
//! cargo run -p bench --bin serve_demo -- 4 100 router 2 --ctl secret  # + live-resize loop
//! cargo run -p bench --bin serve_demo -- ctl 127.0.0.1:7400 secret view  # one-shot admin op
//! ```
//!
//! With `--ctl <token>` the router binds its admin surface and, after
//! the burst, reads resize commands from stdin (`join <port>`,
//! `drain <id>`, `remove <id>`, `view`, `load`, `quit`) — joins spawn
//! fresh backend processes and drains retire them live, which is the
//! E20 churn sequence driveable by hand (or a pipe). The `ctl` mode is
//! the matching one-shot client for a router that is already running.
//!
//! Each client submits a deterministic mix of grade / homework /
//! reproduce requests, honouring the server's backpressure (on a
//! `Busy` rejection it sleeps the hinted backoff and retries) and
//! tolerating load shedding (a queued request displaced by
//! higher-class work resolves `ok=false` with a "shed under load"
//! body; the client counts it and moves on). At the end the server is
//! drained and the request/class/cache/pool counters are printed —
//! the live-system counterpart of experiments E11 and E13.

use serve::pool::Scheduler;
use serve::server::{CourseServer, ExperimentFn, Request, SubmitError};
use serve::ServerConfig;
use std::thread;
use std::time::{Duration, Instant};

const SUBMISSION: &str = "
main:
    movl $0, %eax
    movl $0, %edi
    cmpl $0, %ecx
    je done
loop:
    addl (%esi,%edi,4), %eax
    addl $1, %edi
    cmpl %ecx, %edi
    jne loop
done:
    hlt
";

const USAGE: &str = "usage: serve_demo [clients] [requests] \
                     [steal|fifo|priority|net|net-epoll|stats\
                     |router|router-epoll [N|port,port,...] [--ctl <token>]]\n\
                     net and net-epoll accept a connection-count sweep: \
                     --conns a,b,c,... (strictly increasing)\n\
                     router modes with --ctl read resize commands from stdin: \
                     join <port> | drain <id> | remove <id> | view | load | quit\n\
                     or: serve_demo ctl <router-addr> <token> \
                     view|join <addr>|drain <id>|remove <id>";

fn bail(reason: &str) -> ! {
    eprintln!("serve_demo: {reason}\n{USAGE}");
    std::process::exit(2);
}

/// The i-th request a client sends: a rotating workload mix with a
/// deliberately small key space, so the cache earns its keep.
fn request_for(client: u64, i: u64) -> Request {
    match i % 4 {
        0 => Request::Grade {
            submission: SUBMISSION.to_string(),
        },
        1 => Request::Homework {
            generator: "binary_arithmetic".to_string(),
            seed: (client + i) % 8,
        },
        2 => Request::Homework {
            generator: "fork_puzzle".to_string(),
            seed: i % 4,
        },
        _ => Request::Reproduce {
            id: "e5".to_string(),
        },
    }
}

/// Pulls `counter NAME V` out of a rendered [`obs`] snapshot; absent
/// names read as zero, matching a counter nobody has incremented.
fn snapshot_counter(snapshot: &str, name: &str) -> u64 {
    let prefix = format!("counter {name} ");
    snapshot
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .map_or(0, |v| v.trim().parse().expect("counter value"))
}

/// The `net` mode: the same demo, but clients and server meet on a
/// real loopback socket — a [`net::NetServer`] on an ephemeral port
/// and a short closed-loop [`net::loadgen`] burst with the default
/// heavy-tail class mix. With `stats`, the demo additionally asks the
/// live server for its metrics snapshot over the wire (`Op::Stats`)
/// and cross-checks the registry mirrors against the bespoke ledgers.
/// `net-epoll` runs the identical demo with the socket front end on
/// the 2-shard readiness reactor instead of blocking thread pairs —
/// same ledgers, same assertions, different engine. With
/// `--conns a,b,c,...` the single burst becomes a connection-count
/// sweep ([`net::loadgen::sweep`]): total work is held constant while
/// the connection count walks the list, one wall-clock row per point.
fn net_mode(
    connections: u64,
    per_connection: u64,
    stats: bool,
    io: net::server::Io,
    sweep: Option<Vec<usize>>,
) {
    use net::loadgen::{self, LoadConfig, Mode};
    use net::server::{Io, NetConfig, NetServer};

    let course = CourseServer::with_experiments(
        ServerConfig {
            workers: 4,
            queue_capacity: 8,
            scheduler: Scheduler::PriorityLanes,
            ..ServerConfig::default()
        },
        vec![("e5".to_string(), bench::e5_tlb_eat as ExperimentFn)],
    );
    let mut config = NetConfig {
        io,
        ..NetConfig::default()
    };
    if let Some(conns) = &sweep {
        // Size the admission cap to the widest sweep point, so the
        // sweep measures the engine, not connection refusals.
        config.max_connections = conns.iter().copied().max().unwrap_or(1) + 8;
    }
    let srv = NetServer::bind("127.0.0.1:0", course, config)
        .unwrap_or_else(|e| bail(&format!("cannot bind a loopback socket: {e}")));
    let mode_name = match (stats, io) {
        (true, _) => "stats",
        (false, Io::Blocking) => "net",
        (false, Io::Readiness { .. }) => "net-epoll",
    };

    if let Some(conns) = sweep {
        println!(
            "serve_demo {mode_name}: sweeping connections {conns:?} at constant total work \
             ({} requests) against {} ({io:?} sockets)\n",
            connections * per_connection,
            srv.local_addr()
        );
        let base = LoadConfig {
            connections: connections as usize,
            requests_per_connection: per_connection as usize,
            mode: Mode::Closed { pipeline: 4 },
            ..LoadConfig::default()
        };
        println!(
            "{:>6} {:>9} {:>13} {:>6} {:>8}",
            "conns", "wall", "answered", "lost", "goaway"
        );
        for (n, report) in loadgen::sweep(srv.local_addr(), &base, &conns) {
            let answered: u64 = report
                .per_class
                .iter()
                .map(|c| c.ok + c.cached + c.errors)
                .sum();
            let sent: u64 = report.per_class.iter().map(|c| c.sent).sum();
            let lost: u64 = report
                .per_class
                .iter()
                .map(|c| c.lost_to_backpressure)
                .sum();
            let unanswered: u64 = report.per_class.iter().map(|c| c.unanswered).sum();
            assert_eq!(unanswered, 0, "sweep point {n}: every request must resolve");
            assert_eq!(
                answered + lost,
                sent,
                "sweep point {n}: sent splits into answered + lost-to-backpressure"
            );
            println!(
                "{n:>6} {:>8.2}s {:>7}/{:<5} {:>6} {:>8}",
                report.elapsed.as_secs_f64(),
                answered,
                sent,
                lost,
                report.goaway
            );
        }
        srv.shutdown();
        let st = srv.course().stats();
        for c in &st.per_class {
            assert_eq!(
                c.admitted,
                c.completed + c.shed,
                "{} ledger must balance after the sweep",
                c.class
            );
        }
        println!("\nper-class ledgers balanced across every sweep point.");
        return;
    }

    println!(
        "serve_demo {mode_name}: {connections} connections x {per_connection} requests against \
         {} (4 workers, priority lanes, queue 8, {io:?} sockets)\n",
        srv.local_addr()
    );
    let report = loadgen::run(
        srv.local_addr(),
        &LoadConfig {
            connections: connections as usize,
            requests_per_connection: per_connection as usize,
            mode: Mode::Closed { pipeline: 4 },
            ..LoadConfig::default()
        },
    );
    let snapshot = stats.then(|| {
        loadgen::fetch_stats(srv.local_addr())
            .unwrap_or_else(|e| bail(&format!("Op::Stats fetch failed: {e}")))
    });
    srv.shutdown();
    print!("{}", report.render());

    let st = srv.course().stats();
    let nst = srv.net_stats();
    println!(
        "\nserver accepted {} rejected {} completed {} shed {}",
        st.accepted, st.rejected, st.completed, st.shed
    );
    println!(
        "net: {} conns (+{} refused), {} request frames, {} response frames, {} malformed",
        nst.accepted_conns, nst.refused_conns, nst.requests, nst.responses, nst.malformed
    );
    for c in &st.per_class {
        assert_eq!(
            c.admitted,
            c.completed + c.shed,
            "{} ledger must balance after drain",
            c.class
        );
        assert_eq!(
            c.in_flight, 0,
            "{} in-flight must be zero after drain",
            c.class
        );
    }
    println!("\nper-class ledgers balanced: every admitted request completed or shed.");

    if let Some(snapshot) = snapshot {
        println!("\nOp::Stats snapshot (fetched over the wire before shutdown):\n");
        print!("{snapshot}");
        for c in &st.per_class {
            let admitted = snapshot_counter(&snapshot, &format!("serve.admitted.{}", c.class));
            let completed = snapshot_counter(&snapshot, &format!("serve.completed.{}", c.class));
            let shed = snapshot_counter(&snapshot, &format!("serve.shed.{}", c.class));
            assert_eq!(
                (admitted, completed, shed),
                (c.admitted, c.completed, c.shed),
                "{} registry mirrors must match the bespoke ledger",
                c.class
            );
            assert_eq!(
                admitted,
                completed + shed,
                "{} admitted must balance completed + shed in the snapshot",
                c.class
            );
        }
        let inline_hits: u64 = st
            .per_class
            .iter()
            .map(|c| snapshot_counter(&snapshot, &format!("serve.inline_hits.{}", c.class)))
            .sum();
        assert_eq!(
            snapshot_counter(&snapshot, "pool.claims") + inline_hits,
            st.accepted,
            "every accepted request is one pool job or one inline cache hit"
        );
        println!("\nsnapshot counters balance: registry mirrors agree with the ledgers.");
    }
}

/// Hidden child mode (`serve_demo __backend <id> <port>`): one backend
/// process of the `router` topology. Binds a `NetServer` on the given
/// loopback port (0 = ephemeral), announces `READY <addr>` on stdout,
/// and serves until stdin closes — the parent's pipe is the lifeline,
/// so an orphaned child exits with its parent.
fn backend_child(id: u32, port: u16) -> ! {
    use net::server::{NetConfig, NetServer};
    use std::io::Read;

    let course = CourseServer::with_experiments(
        ServerConfig {
            workers: 2,
            queue_capacity: 32,
            scheduler: Scheduler::PriorityLanes,
            ..ServerConfig::default()
        },
        Vec::new(),
    );
    let srv = NetServer::bind(
        ("127.0.0.1", port),
        course,
        NetConfig {
            backend_id: id,
            ..NetConfig::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("serve_demo backend {id}: cannot bind 127.0.0.1:{port}: {e}");
        std::process::exit(1);
    });
    println!("READY {}", srv.local_addr());
    // println! flushes on newline only when stdout is a terminal; the
    // parent reads a pipe, so flush explicitly.
    use std::io::Write;
    std::io::stdout().flush().expect("announce backend address");
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    srv.shutdown();
    std::process::exit(0);
}

/// Spawns one `__backend` child process and waits for its `READY`
/// announcement. Used for the boot fleet and for live `join`s.
fn spawn_backend_child(
    exe: &std::path::Path,
    id: u32,
    port: u16,
) -> Result<(std::process::Child, std::net::SocketAddr), String> {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    let mut child = Command::new(exe)
        .arg("__backend")
        .arg(id.to_string())
        .arg(port.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn backend {id}: {e}"))?;
    let stdout = child.stdout.take().expect("piped child stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("backend {id} died before READY: {e}"))?;
    match line
        .strip_prefix("READY ")
        .and_then(|a| a.trim().parse().ok())
    {
        Some(addr) => Ok((child, addr)),
        None => Err(format!("backend {id} announced {line:?}, not READY")),
    }
}

/// The `ctl` mode: a one-shot admin client for a router that is
/// already running with `--ctl`. Prints the router's response body and
/// exits 0 on success, 1 on a refused op — so shell scripts can branch
/// on it. Argument mistakes (missing token, unknown subcommand, bad
/// operands) are usage errors: exit 2.
fn ctl_mode(args: &[String]) -> ! {
    use net::loadgen::call_once;
    use net::wire::{
        encode_ctl_drain, encode_ctl_join, encode_ctl_remove, encode_ctl_view, RespStatus,
    };

    let addr_arg = args
        .first()
        .unwrap_or_else(|| bail("ctl needs a router address"));
    let addr: std::net::SocketAddr = addr_arg
        .parse()
        .unwrap_or_else(|_| bail(&format!("invalid router address {addr_arg:?}")));
    let token = args
        .get(1)
        .unwrap_or_else(|| bail("ctl needs the router's admin token"));
    let cmd = args
        .get(2)
        .map(String::as_str)
        .unwrap_or_else(|| bail("ctl needs a subcommand: view | join | drain | remove"));
    let operand = |what: &str| {
        args.get(3)
            .unwrap_or_else(|| bail(&format!("ctl {cmd} needs {what}")))
    };
    let frame = match cmd {
        "view" => encode_ctl_view(1, token),
        "join" => {
            let backend = operand("a backend address");
            let _: std::net::SocketAddr = backend
                .parse()
                .unwrap_or_else(|_| bail(&format!("invalid backend address {backend:?}")));
            encode_ctl_join(1, token, backend)
        }
        "drain" | "remove" => {
            let raw = operand("a backend id");
            let id: u32 = raw
                .parse()
                .unwrap_or_else(|_| bail(&format!("backend id must be an integer, got {raw:?}")));
            if cmd == "drain" {
                encode_ctl_drain(1, token, id)
            } else {
                encode_ctl_remove(1, token, id)
            }
        }
        other => bail(&format!("unknown ctl subcommand {other:?}")),
    };
    if args.len() > if cmd == "view" { 3 } else { 4 } {
        bail("too many arguments");
    }
    match call_once(addr, &frame) {
        Ok(resp) => {
            print!("{}", resp.body);
            if !resp.body.ends_with('\n') {
                println!();
            }
            std::process::exit(u8::from(resp.status == RespStatus::Error).into());
        }
        Err(e) => {
            eprintln!("serve_demo ctl: {e}");
            std::process::exit(1);
        }
    }
}

/// Backend topology named on the router-mode command line: a fleet
/// size (ephemeral ports) or an explicit port list.
enum BackendSpec {
    Count(u32),
    Ports(Vec<u16>),
}

/// Parses and validates the router-mode backend argument. A bare
/// integer is a fleet size (must be >= 1); a comma-separated list is
/// explicit loopback ports (each valid, no duplicates — two backends
/// can't share a socket).
fn parse_backend_spec(arg: Option<&String>) -> BackendSpec {
    let arg = match arg {
        None => return BackendSpec::Count(3),
        Some(a) => a,
    };
    if arg.contains(',') {
        let mut ports = Vec::new();
        for piece in arg.split(',') {
            let port: u16 = match piece.parse() {
                Ok(p) if p > 0 => p,
                _ => bail(&format!("invalid backend port {piece:?} in {arg:?}")),
            };
            if ports.contains(&port) {
                bail(&format!("duplicate backend port {port} in {arg:?}"));
            }
            ports.push(port);
        }
        BackendSpec::Ports(ports)
    } else {
        match arg.parse() {
            Ok(n) if n >= 1 => BackendSpec::Count(n),
            _ => bail(&format!(
                "backend count must be a positive integer (or a port list), got {arg:?}"
            )),
        }
    }
}

/// Parses everything after `router`/`router-epoll`: an optional
/// backend spec, then an optional `--ctl <token>` enabling the admin
/// surface and the stdin resize loop. Anything else is a usage error.
fn parse_router_tail(tail: &[String]) -> (BackendSpec, Option<String>) {
    let mut rest = tail;
    let spec = match rest.first().map(String::as_str) {
        Some("--ctl") | None => parse_backend_spec(None),
        Some(_) => {
            let s = parse_backend_spec(rest.first());
            rest = &rest[1..];
            s
        }
    };
    let token = match rest.first().map(String::as_str) {
        None => None,
        Some("--ctl") => {
            let t = rest
                .get(1)
                .unwrap_or_else(|| bail("--ctl needs an admin token"));
            rest = &rest[2..];
            Some(t.clone())
        }
        Some(other) => bail(&format!("unexpected router argument {other:?}")),
    };
    if !rest.is_empty() {
        bail("too many arguments");
    }
    (spec, token)
}

/// The `router` mode: N backend *processes* (re-exec'd copies of this
/// binary in the hidden `__backend` mode), a [`router::Router`]
/// consistent-hashing the default class mix across them, and a loadgen
/// burst through the front door. Afterwards the merged `Op::Stats`
/// snapshot is fetched through the router and the fleet-wide admission
/// ledgers are checked for balance. `router-epoll` runs the same
/// topology with the router's backend links on the readiness reactor,
/// two pooled connections per backend — same ledger assertions. With
/// `ctl_token`, the burst is followed by a stdin resize loop driving
/// the control plane live.
fn router_mode(
    connections: u64,
    per_connection: u64,
    spec: BackendSpec,
    io: net::server::Io,
    ctl_token: Option<String>,
) {
    use net::loadgen::{self, call_once, LoadConfig, Mode};
    use net::server::Io;
    use net::wire::{
        encode_ctl_drain, encode_ctl_join, encode_ctl_remove, encode_ctl_view, RespStatus,
        ROUTER_BACKEND_ID,
    };
    use router::{Router, RouterConfig};
    use std::io::BufRead;
    use std::process::Child;

    let ports: Vec<u16> = match spec {
        BackendSpec::Count(n) => vec![0; n as usize],
        BackendSpec::Ports(p) => p,
    };
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| bail(&format!("cannot find my own binary to re-exec: {e}")));
    let mut children: Vec<Child> = Vec::new();
    let mut addrs = Vec::new();
    for (id, port) in ports.iter().enumerate() {
        let (child, addr) = spawn_backend_child(&exe, id as u32, *port)
            .unwrap_or_else(|e| bail(&format!("boot fleet: {e}")));
        addrs.push(addr);
        children.push(child);
    }

    let pool_size = match io {
        Io::Blocking => 1,
        Io::Readiness { .. } => 2,
    };
    let rt = Router::bind(
        "127.0.0.1:0",
        &addrs,
        RouterConfig {
            io,
            pool_size,
            ctl_token: ctl_token.clone(),
            ..RouterConfig::default()
        },
    )
    .unwrap_or_else(|e| bail(&format!("cannot bind the router: {e}")));
    println!(
        "serve_demo {}: {connections} connections x {per_connection} requests through \
         {} over {} backend processes {addrs:?} ({io:?} links x{pool_size})\n",
        match io {
            Io::Blocking => "router",
            Io::Readiness { .. } => "router-epoll",
        },
        rt.local_addr(),
        addrs.len(),
    );
    let report = loadgen::run(
        rt.local_addr(),
        &LoadConfig {
            connections: connections as usize,
            requests_per_connection: per_connection as usize,
            mode: Mode::Closed { pipeline: 4 },
            ..LoadConfig::default()
        },
    );
    print!("{}", report.render());
    let totals = rt.totals();
    println!(
        "\nrouter: forwarded {} relayed {} rerouted {} shed {} (downs {}, readmits {})",
        totals.forwarded,
        totals.relayed,
        totals.rerouted,
        totals.synthesized_shed + totals.no_backend_shed,
        totals.backend_downs,
        totals.backend_readmits,
    );
    assert_eq!(
        totals.forwarded,
        totals.relayed + totals.synthesized_shed,
        "router ledger must balance: every forward resolves exactly once"
    );
    let unanswered: u64 = report.per_class.iter().map(|r| r.unanswered).sum();
    assert_eq!(unanswered, 0, "every request must resolve");
    for (backend, n) in &report.by_backend {
        if *backend == ROUTER_BACKEND_ID {
            println!("  router-synthesized answers: {n}");
        } else {
            println!("  backend {backend}: {n} responses");
        }
    }

    let snapshot = loadgen::fetch_stats(rt.local_addr())
        .unwrap_or_else(|e| bail(&format!("merged Op::Stats fetch failed: {e}")));
    println!("\nmerged Op::Stats snapshot (router + every live backend):\n");
    print!("{snapshot}");
    for class in ["interactive", "batch", "bulk"] {
        let admitted = snapshot_counter(&snapshot, &format!("serve.admitted.{class}"));
        let completed = snapshot_counter(&snapshot, &format!("serve.completed.{class}"));
        let shed = snapshot_counter(&snapshot, &format!("serve.shed.{class}"));
        assert_eq!(
            admitted,
            completed + shed,
            "{class}: fleet-wide admitted must balance completed + shed"
        );
    }
    println!("\nfleet ledgers balanced: admitted == completed + shed across every backend.");

    if let Some(token) = &ctl_token {
        // The live-resize loop: each line is one control-plane op
        // against the running fleet. `join` spawns a fresh backend
        // process and hands its address to the router; `load` re-runs
        // the burst so a resize's effect on throughput is visible.
        // Input mistakes print and continue — only command-line
        // arguments are usage errors.
        println!(
            "\nctl loop (epoch {}): join <port> | drain <id> | remove <id> | view | load | quit",
            rt.membership().epoch
        );
        let send = |frame: &[u8]| match call_once(rt.local_addr(), frame) {
            Ok(resp) => {
                print!("{}", resp.body);
                if !resp.body.ends_with('\n') {
                    println!();
                }
                resp.status != RespStatus::Error
            }
            Err(e) => {
                println!("ctl: {e}");
                false
            }
        };
        // Stamp joined backends with the ctl id the router will assign
        // (next fresh id), so the routing spread stays labelled right.
        let mut next_id = addrs.len() as u32;
        let mut burst = 0u64;
        for line in std::io::stdin().lock().lines() {
            let line = line.unwrap_or_default();
            let mut words = line.split_whitespace();
            let Some(cmd) = words.next() else { continue };
            match (cmd, words.next()) {
                ("quit", _) => break,
                ("view", _) => {
                    send(&encode_ctl_view(1, token));
                }
                ("load", _) => {
                    burst += 1;
                    let report = loadgen::run(
                        rt.local_addr(),
                        &LoadConfig {
                            connections: connections as usize,
                            requests_per_connection: per_connection as usize,
                            mode: Mode::Closed { pipeline: 4 },
                            // Fresh keys per burst: resized capacity,
                            // not a warm cache, is what load shows.
                            seed: burst,
                            ..LoadConfig::default()
                        },
                    );
                    let done: u64 = report.per_class.iter().map(|c| c.ok + c.cached).sum();
                    let unanswered: u64 = report.per_class.iter().map(|c| c.unanswered).sum();
                    assert_eq!(unanswered, 0, "resize under load stranded a client");
                    println!(
                        "load: {done} answered in {:.2}s ({:.0} reqs/sec), 0 unanswered",
                        report.elapsed.as_secs_f64(),
                        done as f64 / report.elapsed.as_secs_f64(),
                    );
                }
                ("join", Some(port)) => {
                    let Ok(port) = port.parse::<u16>() else {
                        println!("ctl: invalid port {port:?}");
                        continue;
                    };
                    match spawn_backend_child(&exe, next_id, port) {
                        Ok((mut child, addr)) => {
                            if send(&encode_ctl_join(1, token, &addr.to_string())) {
                                next_id += 1;
                                children.push(child);
                            } else {
                                // The router refused the join; the
                                // orphan exits when its pipe closes.
                                drop(child.stdin.take());
                                let _ = child.wait();
                            }
                        }
                        Err(e) => println!("ctl: {e}"),
                    }
                }
                (op @ ("drain" | "remove"), Some(id)) => {
                    let Ok(id) = id.parse::<u32>() else {
                        println!("ctl: invalid backend id {id:?}");
                        continue;
                    };
                    send(&if op == "drain" {
                        encode_ctl_drain(1, token, id)
                    } else {
                        encode_ctl_remove(1, token, id)
                    });
                }
                (cmd, _) => println!(
                    "ctl: unknown command {cmd:?} \
                     (join <port> | drain <id> | remove <id> | view | load | quit)"
                ),
            }
        }
        let totals = rt.totals();
        assert_eq!(
            totals.forwarded,
            totals.relayed + totals.synthesized_shed,
            "router ledger must still balance after live resizes"
        );
        println!(
            "\nfinal epoch {}: forwarded {} = relayed {} + synthesized sheds {}",
            rt.membership().epoch,
            totals.forwarded,
            totals.relayed,
            totals.synthesized_shed,
        );
    }

    rt.shutdown();
    for mut child in children {
        drop(child.stdin.take()); // closing the pipe tells it to exit
        let _ = child.wait();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("__backend") {
        let id = args
            .get(1)
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| bail("__backend needs a numeric id"));
        let port = args
            .get(2)
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| bail("__backend needs a numeric port"));
        backend_child(id, port);
    }
    if args.first().map(String::as_str) == Some("ctl") {
        ctl_mode(&args[1..]);
    }
    let sweep_conns: Option<Vec<usize>> = if args.get(3).map(String::as_str) == Some("--conns") {
        match args.get(2).map(String::as_str) {
            Some("net") | Some("net-epoll") => {}
            _ => bail("--conns applies only to the net and net-epoll modes"),
        }
        let list = args
            .get(4)
            .unwrap_or_else(|| bail("--conns needs a comma-separated count list: a,b,c,..."));
        Some(net::loadgen::parse_conns_arg(list).unwrap_or_else(|e| bail(&e)))
    } else {
        None
    };
    let is_router = matches!(
        args.get(2).map(String::as_str),
        Some("router") | Some("router-epoll")
    );
    // Router modes validate their own tail (spec + --ctl) in
    // parse_router_tail; everything else is positional.
    let max_args = if sweep_conns.is_some() {
        5
    } else if is_router {
        6
    } else {
        3
    };
    if args.len() > max_args {
        bail("too many arguments");
    }
    let parse_count = |arg: Option<&String>, default: u64, what: &str| -> u64 {
        match arg {
            None => default,
            Some(a) => match a.parse() {
                Ok(n) if n > 0 => n,
                _ => bail(&format!("{what} must be a positive integer, got {a:?}")),
            },
        }
    };
    let clients = parse_count(args.first(), 8, "clients");
    let per_client = parse_count(args.get(1), 32, "requests");
    let scheduler = match args.get(2).map(String::as_str) {
        None | Some("steal") => Scheduler::WorkStealing,
        Some("fifo") => Scheduler::SharedFifo,
        Some("priority") => Scheduler::PriorityLanes,
        Some("net") => {
            return net_mode(
                clients,
                per_client,
                false,
                net::server::Io::Blocking,
                sweep_conns,
            )
        }
        Some("net-epoll") => {
            return net_mode(
                clients,
                per_client,
                false,
                net::server::Io::Readiness { shards: 2 },
                sweep_conns,
            )
        }
        Some("stats") => {
            return net_mode(clients, per_client, true, net::server::Io::Blocking, None)
        }
        Some("router") => {
            let (spec, token) = parse_router_tail(&args[3..]);
            return router_mode(clients, per_client, spec, net::server::Io::Blocking, token);
        }
        Some("router-epoll") => {
            let (spec, token) = parse_router_tail(&args[3..]);
            return router_mode(
                clients,
                per_client,
                spec,
                net::server::Io::Readiness { shards: 1 },
                token,
            );
        }
        Some(other) => bail(&format!("unknown mode {other:?}")),
    };

    // A small queue relative to the offered load, so backpressure and
    // class-aware shedding are actually exercised and the retry loop
    // matters.
    let server = CourseServer::with_experiments(
        ServerConfig {
            workers: 4,
            queue_capacity: 8,
            scheduler,
            ..ServerConfig::default()
        },
        vec![("e5".to_string(), bench::e5_tlb_eat as ExperimentFn)],
    );

    println!(
        "serve_demo: {clients} clients x {per_client} requests, 4 workers ({scheduler}), queue 8\n"
    );
    let start = Instant::now();
    let mut total_retries = 0u64;
    let mut total_cached = 0u64;
    let mut total_shed = 0u64;
    thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let server = &server;
                s.spawn(move || {
                    let mut retries = 0u64;
                    let mut cached = 0u64;
                    let mut shed = 0u64;
                    for i in 0..per_client {
                        let req = request_for(client, i);
                        let ticket = loop {
                            match server.submit(req.clone()) {
                                Ok(t) => break t,
                                Err(SubmitError::Busy(r)) => {
                                    retries += 1;
                                    thread::sleep(Duration::from_millis(r.retry_after_ms.max(1)));
                                }
                                Err(SubmitError::ShuttingDown(_)) => {
                                    unreachable!("demo shuts down only after clients finish")
                                }
                            }
                        };
                        let resp = ticket.wait();
                        if resp.ok {
                            cached += resp.cached as u64;
                        } else if resp.body.contains("shed under load") {
                            // Displaced by higher-class work; the demo
                            // accepts the loss rather than re-queueing.
                            shed += 1;
                        } else {
                            panic!("request failed: {}", resp.body);
                        }
                    }
                    (retries, cached, shed)
                })
            })
            .collect();
        for h in handles {
            let (retries, cached, shed) = h.join().expect("client thread");
            total_retries += retries;
            total_cached += cached;
            total_shed += shed;
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    server.shutdown();

    let st = server.stats();
    let total = clients * per_client;
    println!("{:<28} {:>10}", "requests served", total - total_shed);
    println!("{:<28} {:>10}", "answered from cache", total_cached);
    println!("{:<28} {:>10}", "shed under load", total_shed);
    println!("{:<28} {:>10}", "busy rejections (retried)", total_retries);
    println!("{:<28} {:>10.0}", "requests/sec", total as f64 / elapsed);
    println!();
    println!("{:<28} {:>10}", "server accepted", st.accepted);
    println!("{:<28} {:>10}", "server completed", st.completed);
    println!("{:<28} {:>10}", "server shed", st.shed);
    println!(
        "{:<28} {:>10}",
        "cache hits / misses",
        format!("{}/{}", st.cache.hits, st.cache.misses)
    );
    println!("{:<28} {:>10}", "cache evictions", st.cache.evictions);
    println!("{:<28} {:>10}", "pool jobs finished", st.pool.finished);
    println!(
        "{:<28} {:>10}",
        "pool queue high-water", st.pool.queue_high_water
    );
    println!(
        "{:<28} {:>10}",
        "pool local pops / steals",
        format!(
            "{}/{} ({} batched)",
            st.pool.local_hits, st.pool.steals, st.pool.batch_steals
        )
    );
    assert_eq!(
        st.accepted,
        st.completed + st.shed,
        "drain must complete or shed every accepted request"
    );

    println!("\nper-class ledger (admission → scheduling → shedding):");
    println!(
        "  {:>12} {:>9} {:>10} {:>6} {:>9} {:>7} {:>6}",
        "class", "admitted", "completed", "shed", "rejected", "missed", "aged"
    );
    for (band, c) in st.per_class.iter().enumerate() {
        println!(
            "  {:>12} {:>9} {:>10} {:>6} {:>9} {:>7} {:>6}",
            c.class.to_string(),
            c.admitted,
            c.completed,
            c.shed,
            c.rejected,
            c.deadline_missed,
            st.pool.per_class[band].aged,
        );
        assert_eq!(
            c.admitted,
            c.completed + c.shed,
            "{} ledger must balance after drain",
            c.class
        );
        assert_eq!(
            c.in_flight, 0,
            "{} in-flight must be zero after drain",
            c.class
        );
    }

    println!("\nper-worker load balance:");
    println!(
        "  {:>6} {:>8} {:>9} {:>7} {:>7} {:>11} {:>6}",
        "worker", "finished", "panicked", "local", "steals", "stolen-from", "q-max"
    );
    for (i, w) in st.pool.per_worker.iter().enumerate() {
        println!(
            "  {i:>6} {:>8} {:>9} {:>7} {:>7} {:>11} {:>6}",
            w.finished, w.panicked, w.local_hits, w.steals, w.stolen_from, w.queue_high_water
        );
    }
}
