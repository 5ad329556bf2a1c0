//! The TCP front end around a [`CourseServer`].
//!
//! Two kinds of thread:
//!
//! * **one acceptor** — accepts sockets, enforces the connection cap
//!   at accept time (over cap → a single `GoAway` frame with a retry
//!   hint, then close: shedding at the socket layer, mirroring what
//!   admission does at the queue layer), and registers every other
//!   socket on the reactor;
//! * **[`NetConfig::shards`] reactor shards** ([`crate::reactor`]) —
//!   each connection's protocol logic runs as callbacks on its shard:
//!   parse request frames, pin each frame's deadline budget to the
//!   local clock, and submit to the course server. Admission
//!   rejections become `RETRY` frames *immediately* — backpressure
//!   travels the wire instead of blocking the socket. Completions flow
//!   back through `serve::server::Ticket::on_ready` callbacks into the
//!   connection's send queue, so pipelined requests complete **out of
//!   order by request id**: the shard never waits on a ticket, and a
//!   slow bulk job cannot convoy a fast grade lookup's response. A
//!   ready cache hit is answered at admission, on the shard itself.
//!
//! The drain contract is the connection's `in_flight` count: the
//! shard opens it *before* registering the callback, the callback
//! closes it when it enqueues (or, on a dead connection, discards) the
//! response, and the connection only FINs once its reads are done
//! **and** `in_flight` is zero **and** its queue is flushed. That
//! ordering is why graceful shutdown cannot lose an admitted request:
//! responses are either written before the FIN or the connection was
//! severed by a fault — and in both cases the course server's
//! per-class ledgers still balance (`admitted == completed + shed`),
//! which the integration tests assert under [`FaultPlan`] wire faults.
//!
//! Shutdown ordering (see `DESIGN.md` §9 for the full argument):
//! stop accepting → wake and join the acceptor → stop reading every
//! connection ([`Reactor::sever_reads`]) → drain the course server
//! (every admitted ticket resolves, every callback fires) → wait for
//! the last connection to flush and FIN → stop the shards.

use crate::reactor::{ConnHandle, ConnHandler, Reactor, ReactorConfig};
use crate::wire::{
    decode_payload, encode_response, write_frame, Frame, RequestFrame, RespStatus, ResponseFrame,
    WireError,
};
use serve::fault::{FaultPlan, FaultPoint};
use serve::server::{CourseServer, SubmitError, SHED_BODY_PREFIX};
use std::io::{self, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing and policy knobs for [`NetServer::bind`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Connection cap. Accepts past the cap are shed at the socket:
    /// one `GoAway` frame with a retry hint, then close.
    pub max_connections: usize,
    /// Per-connection idle bound. A connection with no frame arriving
    /// for longer than this stops being read and closes once its
    /// in-flight responses are written.
    pub read_timeout: Duration,
    /// Suggested client backoff on accept-time `GoAway` frames, in ms.
    pub goaway_retry_ms: u64,
    /// Identity stamped on every response frame's `backend` field so a
    /// router (and its tests) can see which process answered. A
    /// single-process deployment keeps the default 0.
    pub backend_id: u32,
    /// Optional seeded wire faults ([`FaultPoint::NetReadFrame`],
    /// [`FaultPoint::NetWriteFrame`]): stalls slow a connection's
    /// reads/writes, drops sever the socket mid-traffic.
    pub fault_plan: Option<FaultPlan>,
    /// Reactor shard count: each shard is one event-loop thread,
    /// whatever the number of connections.
    pub shards: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_connections: 64,
            read_timeout: Duration::from_secs(5),
            goaway_retry_ms: 100,
            backend_id: 0,
            fault_plan: None,
            shards: 1,
        }
    }
}

/// Per-connection flush bound. A connection asked to close whose queued
/// responses are still unwritten after this long (a client that stopped
/// draining) is severed rather than kept forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Socket-layer counters, complementing the course server's request
/// ledgers: a view over the `net.*` counters of the course server's
/// registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Connections accepted (`net.conns.accepted`), including any the
    /// reactor then failed to register, which also count as dropped.
    pub accepted_conns: u64,
    /// Connections shed at accept time with a `GoAway` frame
    /// (`net.conns.refused`).
    pub refused_conns: u64,
    /// Request frames decoded and handed to admission
    /// (`net.requests`).
    pub requests: u64,
    /// Response frames written to sockets (`net.responses`).
    pub responses: u64,
    /// Payloads that failed to decode, or were not frames a server
    /// accepts (`net.malformed`); the connection closes after an
    /// `Error` frame, since the stream cannot be trusted.
    pub malformed: u64,
    /// Connections severed mid-traffic: injected drops, I/O errors,
    /// write timeouts (`net.conns.dropped`).
    pub dropped_conns: u64,
}

/// The socket layer's ledger plus the wire-time histograms, resolved
/// once from the course server's [`obs::Registry`] at bind time.
struct NetObs {
    conns_accepted: obs::Counter,
    conns_refused: obs::Counter,
    conns_dropped: obs::Counter,
    requests: obs::Counter,
    responses: obs::Counter,
    malformed: obs::Counter,
    /// Stats (op 3) frames answered synchronously
    /// (`net.stats_requests`); they bypass admission, so they are *not*
    /// counted in `net.requests`.
    stats_requests: obs::Counter,
    /// Per-frame payload decode time (`net.frame.decode_us`) — the
    /// read-side share of wire time.
    decode_us: obs::HistogramHandle,
    /// Per-frame response encode time (`net.frame.encode_us`) — the
    /// write-side share of wire time.
    encode_us: obs::HistogramHandle,
}

impl NetObs {
    fn new(registry: &obs::Registry) -> NetObs {
        NetObs {
            conns_accepted: registry.counter("net.conns.accepted"),
            conns_refused: registry.counter("net.conns.refused"),
            conns_dropped: registry.counter("net.conns.dropped"),
            requests: registry.counter("net.requests"),
            responses: registry.counter("net.responses"),
            malformed: registry.counter("net.malformed"),
            stats_requests: registry.counter("net.stats_requests"),
            decode_us: registry.histogram("net.frame.decode_us"),
            encode_us: registry.histogram("net.frame.encode_us"),
        }
    }
}

struct Shared {
    course: CourseServer,
    config: NetConfig,
    accepting: AtomicBool,
    obs: NetObs,
}

/// A course server listening on a TCP socket. See the module docs for
/// the thread anatomy and the shutdown ordering.
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Mutex<Option<JoinHandle<()>>>,
    /// Owns the shard threads; shared with the acceptor.
    reactor: Arc<Reactor>,
    shut: AtomicBool,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor. The server owns `course` from here on; reach it via
    /// [`NetServer::course`] for stats or local submissions.
    pub fn bind(
        addr: impl ToSocketAddrs,
        course: CourseServer,
        config: NetConfig,
    ) -> io::Result<NetServer> {
        assert!(
            config.max_connections > 0,
            "net server needs at least one connection slot"
        );
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let obs = NetObs::new(course.registry());
        let reactor = Arc::new(Reactor::new(
            ReactorConfig {
                shards: config.shards.max(1),
                ..ReactorConfig::default()
            },
            course.registry(),
        )?);
        let shared = Arc::new(Shared {
            course,
            config,
            accepting: AtomicBool::new(true),
            obs,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_reactor = Arc::clone(&reactor);
        let acceptor = std::thread::Builder::new()
            .name("net-acceptor".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared, &accept_reactor))
            .expect("spawn acceptor");
        Ok(NetServer {
            shared,
            local_addr,
            acceptor: Mutex::new(Some(acceptor)),
            reactor,
            shut: AtomicBool::new(false),
        })
    }

    /// The bound address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The wrapped course server (for stats, or local submissions that
    /// bypass the socket).
    pub fn course(&self) -> &CourseServer {
        &self.shared.course
    }

    /// Socket-layer counters, read from the registry.
    pub fn net_stats(&self) -> NetStats {
        let obs = &self.shared.obs;
        NetStats {
            accepted_conns: obs.conns_accepted.value(),
            refused_conns: obs.conns_refused.value(),
            requests: obs.requests.value(),
            responses: obs.responses.value(),
            malformed: obs.malformed.value(),
            dropped_conns: obs.conns_dropped.value(),
        }
    }

    /// Graceful shutdown: stop accept → drain → FIN.
    ///
    /// 1. stop accepting and join the acceptor (woken by a loopback
    ///    connect, since blocking `accept` has no timeout);
    /// 2. stop reading every live connection — no further frame is
    ///    dispatched, so nothing new is submitted;
    /// 3. drain the course server: every admitted ticket resolves,
    ///    every `on_ready` callback delivers its response frame;
    /// 4. wait for every connection to flush its queue and send FIN,
    ///    then stop the shard threads.
    ///
    /// Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        if self.shut.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.accepting.store(false, Ordering::SeqCst);
        // Wake the blocking accept. The acceptor re-checks `accepting`
        // before serving, so this connection is never spoken to.
        drop(TcpStream::connect(self.local_addr));
        if let Some(handle) = self
            .acceptor
            .lock()
            .expect("acceptor handle poisoned")
            .take()
        {
            let _ = handle.join();
        }
        self.reactor.sever_reads();
        self.shared.course.shutdown();
        self.reactor.wait_drained();
        // Every connection is gone, so this only stops and joins the
        // shard threads.
        self.reactor.shutdown();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, reactor: &Reactor) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if !shared.accepting.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if !shared.accepting.load(Ordering::SeqCst) {
            return;
        }
        let _ = stream.set_nodelay(true);

        // Connection cap: shed at the socket with an honest GoAway
        // instead of letting the backlog grow unbounded. Only this
        // thread registers connections, so the count cannot race past
        // the cap.
        if reactor.conns_live() >= shared.config.max_connections {
            shared.obs.conns_refused.inc();
            let mut w = BufWriter::new(&stream);
            let frame = ResponseFrame {
                id: 0,
                status: RespStatus::GoAway,
                retry_after_ms: shared.config.goaway_retry_ms,
                backend: shared.config.backend_id,
                body: format!(
                    "connection cap ({}) reached; reconnect later",
                    shared.config.max_connections
                ),
            };
            let _ = write_frame(&mut w, &encode_response(&frame));
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        shared.obs.conns_accepted.inc();
        let handler = ServerConnHandler {
            shared: Arc::clone(shared),
            last_activity: Instant::now(),
            closing_since: None,
        };
        if reactor.register(stream, Box::new(handler)).is_err() {
            // Could not switch the socket nonblocking: the accepted
            // connection counts as dropped. (An epoll registration
            // failure on the shard side reports through on_close(false)
            // instead.)
            shared.obs.conns_dropped.inc();
        }
    }
}

/// Answers an op-3 (`Stats`) or op-4 (`StatsFull`) frame synchronously
/// from the registry: no admission, no cache, no ticket — readable even
/// while the job server is saturated. The snapshot carries the trace
/// ring's worst spans, so op 3 renders the forensics section and op 4
/// ships them (with full histogram buckets) to a merging router.
fn answer_stats(id: u64, full: bool, shared: &Arc<Shared>, conn: &ConnHandle) {
    shared.obs.stats_requests.inc();
    let snap = shared
        .course
        .registry()
        .snapshot()
        .with_spans(shared.course.tracer().worst(obs::WORST_SPANS));
    let body = if full {
        snap.encode_text()
    } else {
        snap.render()
    };
    conn.send(
        encode_response(&ResponseFrame {
            id,
            status: RespStatus::Ok,
            retry_after_ms: 0,
            backend: shared.config.backend_id,
            body,
        }),
        false,
    );
}

/// Answers a control-plane op (7–10) sent to a plain backend: an
/// `Error` frame pointing at the router. Membership lives in the proxy
/// tier; acting on a misdirected drain here would desynchronize the
/// fleets. The connection stays open — this is a usage error, not a
/// framing error.
fn answer_ctl_misdirected(id: u64, shared: &Arc<Shared>, conn: &ConnHandle) {
    conn.send(
        encode_response(&ResponseFrame {
            id,
            status: RespStatus::Error,
            retry_after_ms: 0,
            backend: shared.config.backend_id,
            body: "ctl ops are handled by the router, not a backend".to_string(),
        }),
        false,
    );
}

/// Hands one decoded request to admission and wires its completion to
/// the connection's send queue. Returns `false` when the connection
/// should close (server shutting down).
fn submit_frame(frame: RequestFrame, shared: &Arc<Shared>, conn: &ConnHandle) -> bool {
    let meta = frame.meta();
    let id = frame.id;
    match shared.course.submit_with_meta(meta, frame.req) {
        Ok(ticket) => {
            // Open before registering: the shard must not observe
            // "reads done, nothing in flight" between callback
            // registration and resolution.
            conn.open_in_flight();
            let cb_conn = conn.clone();
            let cb_shared = Arc::clone(shared);
            ticket.on_ready(move |resp| {
                let status = if resp.cached {
                    RespStatus::OkCached
                } else if resp.ok {
                    RespStatus::Ok
                } else if resp.body.starts_with(SHED_BODY_PREFIX) {
                    RespStatus::Shed
                } else {
                    RespStatus::Error
                };
                let retry_after_ms = if status == RespStatus::Shed {
                    // Shed happened while queued; the hint is computed
                    // now, against the server's current backlog and
                    // the request's (local-clock) deadline.
                    cb_shared.course.retry_hint(&meta)
                } else {
                    0
                };
                let encode_start = Instant::now();
                let bytes = encode_response(&ResponseFrame {
                    id,
                    status,
                    retry_after_ms,
                    backend: cb_shared.config.backend_id,
                    body: resp.body.clone(),
                });
                cb_shared
                    .obs
                    .encode_us
                    .record_micros(encode_start.elapsed());
                cb_conn.send(bytes, true);
            });
            true
        }
        Err(SubmitError::Busy(rej)) => {
            conn.send(
                encode_response(&ResponseFrame {
                    id,
                    status: RespStatus::Retry,
                    retry_after_ms: rej.retry_after_ms,
                    backend: shared.config.backend_id,
                    body: format!(
                        "admission rejected {} request ({} in flight); retry later",
                        rej.class, rej.in_flight
                    ),
                }),
                false,
            );
            true
        }
        Err(SubmitError::ShuttingDown(_)) => {
            conn.send(
                encode_response(&ResponseFrame {
                    id,
                    status: RespStatus::GoAway,
                    retry_after_ms: shared.config.goaway_retry_ms,
                    backend: shared.config.backend_id,
                    body: "server shutting down".to_string(),
                }),
                false,
            );
            false
        }
    }
}

/// The protocol logic for one client connection: decode → submit →
/// backpressure frame, run as reactor callbacks on the connection's
/// shard thread, with responses flowing back through its
/// [`ConnHandle`].
struct ServerConnHandler {
    shared: Arc<Shared>,
    /// Last time a frame arrived; drives the idle close
    /// ([`NetConfig::read_timeout`]).
    last_activity: Instant,
    /// When a graceful close was requested (idle, GoAway, malformed):
    /// if the flush has not completed within [`WRITE_TIMEOUT`], the
    /// client is not draining and the connection is severed.
    closing_since: Option<Instant>,
}

impl ServerConnHandler {
    fn begin_close(&mut self, conn: &ConnHandle) {
        if self.closing_since.is_none() {
            self.closing_since = Some(Instant::now());
        }
        conn.close_after_flush();
    }

    /// Counts a payload the server cannot act on, answers it with an
    /// `Error` frame carrying `reason`, and closes: after a bad frame
    /// the stream cannot be trusted.
    fn reject(&mut self, reason: String, conn: &ConnHandle) {
        self.shared.obs.malformed.inc();
        conn.send(
            encode_response(&ResponseFrame {
                id: 0,
                status: RespStatus::Error,
                retry_after_ms: 0,
                backend: self.shared.config.backend_id,
                body: reason,
            }),
            false,
        );
        self.begin_close(conn);
    }
}

impl ConnHandler for ServerConnHandler {
    fn on_frame(&mut self, payload: Result<Vec<u8>, WireError>, conn: &ConnHandle) {
        self.last_activity = Instant::now();
        let payload = match payload {
            Ok(payload) => payload,
            Err(e) => {
                // Stream desynchronized before a payload formed (an
                // oversized length prefix): typed error, then close.
                self.reject(format!("malformed frame: {e}"), conn);
                return;
            }
        };
        if let Some(plan) = &self.shared.config.fault_plan {
            plan.fire(FaultPoint::NetReadFrame);
            if plan.should_drop(FaultPoint::NetReadFrame) {
                // Injected drop: sever mid-traffic. on_close(false)
                // does the dropped-connection accounting.
                conn.kill();
                return;
            }
        }
        let decode_start = Instant::now();
        let decoded = decode_payload(&payload);
        self.shared
            .obs
            .decode_us
            .record_micros(decode_start.elapsed());
        let frame = match decoded {
            Ok(Frame::Request(frame)) => frame,
            Ok(Frame::Stats { id }) => {
                answer_stats(id, false, &self.shared, conn);
                return;
            }
            Ok(Frame::StatsFull { id }) => {
                answer_stats(id, true, &self.shared, conn);
                return;
            }
            Ok(
                Frame::CtlJoin { id, .. }
                | Frame::CtlDrain { id, .. }
                | Frame::CtlRemove { id, .. }
                | Frame::CtlView { id, .. },
            ) => {
                answer_ctl_misdirected(id, &self.shared, conn);
                return;
            }
            Ok(Frame::Response(_)) => {
                self.reject(
                    "protocol error: response frame sent to server".to_string(),
                    conn,
                );
                return;
            }
            Err(e) => {
                self.reject(format!("malformed frame: {e}"), conn);
                return;
            }
        };
        self.shared.obs.requests.inc();
        if !submit_frame(frame, &self.shared, conn) {
            // Server shutting down: GoAway already queued; FIN after
            // the flush.
            self.begin_close(conn);
        }
    }

    fn before_write(&mut self, _conn: &ConnHandle) -> bool {
        if let Some(plan) = &self.shared.config.fault_plan {
            plan.fire(FaultPoint::NetWriteFrame);
            if plan.should_drop(FaultPoint::NetWriteFrame) {
                return false; // reactor severs; on_close(false) counts
            }
        }
        true
    }

    fn on_written(&mut self, _conn: &ConnHandle) {
        self.shared.obs.responses.inc();
    }

    fn on_tick(&mut self, conn: &ConnHandle) {
        if let Some(since) = self.closing_since {
            // Closing but not yet closed: the flush is pending. A
            // client that stopped draining past the write bound gets
            // severed rather than parked forever.
            if since.elapsed() > WRITE_TIMEOUT {
                conn.kill();
            }
        } else if self.last_activity.elapsed() > self.shared.config.read_timeout {
            // Idle past the read bound: stop reading; in-flight
            // responses still flush before the FIN.
            self.begin_close(conn);
        }
    }

    fn on_close(&mut self, graceful: bool) {
        if !graceful {
            self.shared.obs.conns_dropped.inc();
        }
    }
}
