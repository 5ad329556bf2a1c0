//! The connection engine: N shard threads, each running an epoll loop
//! over nonblocking sockets, so thread count is `shards` however many
//! connections are open.
//!
//! One shard owns each connection for its whole life, so all handler
//! callbacks for a connection run on one thread and need no locking of
//! their own. The pieces:
//!
//! * **`Conn` state machine** (shard-local, private): a nonblocking
//!   `TcpStream`, a streaming [`FrameAssembler`] for incremental frame
//!   reassembly (a 1-byte trickle is fine), a partially-written
//!   outbound frame with resume offset, and the epoll interest mask
//!   currently armed. Reads land in one buffer per shard, reused for
//!   every readable event.
//! * **Outbound queue with backpressure**: completions enqueue
//!   pre-encoded frames from any thread via [`ConnHandle::send`]; the
//!   shard drains them to the socket, re-arming `EPOLLOUT` only on a
//!   partial write. When a client stops draining and the queue grows
//!   past the high-water mark, the shard *pauses reads* (drops
//!   `EPOLLIN`) until the queue falls below half the mark — per-client
//!   backpressure instead of unbounded buffering.
//! * **Waker protocol**: each shard has an `eventfd`; cross-thread
//!   sends (a `Ticket::on_ready` completion on a pool worker) push a
//!   mailbox entry and signal it. A per-connection `notified` flag
//!   coalesces storms; sends *from the shard thread itself* skip the
//!   signal entirely, because the loop re-checks its mailbox before
//!   sleeping. Connections that talk to each other (a router's client
//!   and its backend links) therefore hand frames over for free when
//!   they share a shard.
//! * **Drain ordering** (the GoAway/drain/FIN contract): `in_flight`
//!   opens before a completion callback registers, so "reads done ∧
//!   in_flight == 0 ∧ queue and write buffer empty" is only observable
//!   when every admitted request's response has hit the socket — then
//!   the shard half-closes with FIN. [`ConnHandle::close_after_flush`]
//!   stops one connection's reads; [`Reactor::sever_reads`] does it
//!   for every connection at once; [`Reactor::wait_drained`] blocks
//!   until the last FIN.
//!
//! The epoll/eventfd syscalls live in [`crate::sys`]; this module is
//! safe code. DESIGN.md §13 carries the full state-machine argument.

use crate::sys::{Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::wire::{FrameAssembler, WireError};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token reserved for each shard's eventfd waker in its epoll set.
const WAKER_TOKEN: u64 = u64::MAX;

/// Size of each shard's read buffer. 64 KiB covers many coalesced
/// frames per syscall; one buffer per shard, not per connection.
const READ_CHUNK: usize = 64 * 1024;

/// Sizing knobs for [`Reactor::new`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Shard (event-loop thread) count. Connections are assigned
    /// round-robin at registration and never migrate.
    pub shards: usize,
    /// Outbound high-water mark in bytes. A connection whose unsent
    /// responses exceed this stops being read (its `EPOLLIN` is
    /// dropped) until the backlog drains below half the mark.
    pub high_water: usize,
    /// Period of the `on_tick` sweep (idle/stall detection lives in
    /// handlers, not the reactor) and the upper bound on how long a
    /// shard sleeps in `epoll_pwait`.
    pub tick: Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            shards: 1,
            high_water: 1 << 20,
            tick: Duration::from_millis(200),
        }
    }
}

/// What a connection's owner does with its traffic. All methods run on
/// the connection's shard thread; `&mut self` needs no further locking.
pub trait ConnHandler: Send + 'static {
    /// A complete frame payload arrived (`Ok`), or the inbound stream
    /// desynchronized with a framing error (`Err`, reported once; no
    /// further frames follow). Respond via [`ConnHandle::send`].
    fn on_frame(&mut self, payload: Result<Vec<u8>, WireError>, conn: &ConnHandle);

    /// Called just before a frame's first byte hits the socket. Return
    /// `false` to sever the connection instead (fault injection); the
    /// frame is discarded and teardown is non-graceful.
    fn before_write(&mut self, conn: &ConnHandle) -> bool {
        let _ = conn;
        true
    }

    /// A complete frame finished writing to the socket.
    fn on_written(&mut self, conn: &ConnHandle) {
        let _ = conn;
    }

    /// Periodic callback, roughly every [`ReactorConfig::tick`]: the
    /// place for idle timeouts and stall detection.
    fn on_tick(&mut self, conn: &ConnHandle) {
        let _ = conn;
    }

    /// The connection is gone: `graceful` when every queued response
    /// was flushed and the socket got a clean FIN, `false` when it was
    /// severed (peer reset, write error, injected drop, [`ConnHandle::kill`]).
    fn on_close(&mut self, graceful: bool);
}

/// Cross-thread state of one reactor connection, shared between its
/// [`ConnHandle`]s and its shard.
struct ConnShared {
    token: u64,
    shard: Arc<ShardHandle>,
    state: Mutex<ConnQueue>,
    /// Bytes sitting in `state.queue` (backpressure bookkeeping,
    /// readable without the lock).
    queued_bytes: AtomicUsize,
    /// Coalesces notify mails: set by the first sender, cleared by the
    /// shard right before it processes the connection.
    notified: AtomicBool,
}

struct ConnQueue {
    /// Pre-encoded response frames awaiting the socket.
    queue: VecDeque<Vec<u8>>,
    /// Completions registered but not yet enqueued/discarded — the
    /// drain guard.
    in_flight: usize,
    /// No further frames will be dispatched from this connection
    /// (EOF, framing error, handler-requested close, or sever_reads).
    read_done: bool,
    /// Severed; sends discard.
    dead: bool,
}

/// What the shard should do next for a connection, decided under the
/// queue lock.
enum NextOut {
    Frame(Vec<u8>),
    Drained,
    Idle,
    Dead,
}

impl ConnShared {
    fn poll_step(&self) -> NextOut {
        let mut st = self.state.lock().expect("conn queue poisoned");
        if st.dead {
            return NextOut::Dead;
        }
        if let Some(bytes) = st.queue.pop_front() {
            self.queued_bytes.fetch_sub(bytes.len(), Ordering::Relaxed);
            return NextOut::Frame(bytes);
        }
        if st.read_done && st.in_flight == 0 {
            return NextOut::Drained;
        }
        NextOut::Idle
    }

    fn mark_read_done(&self) {
        self.state.lock().expect("conn queue poisoned").read_done = true;
    }

    fn is_read_done(&self) -> bool {
        self.state.lock().expect("conn queue poisoned").read_done
    }

    fn mark_dead(&self) {
        let mut st = self.state.lock().expect("conn queue poisoned");
        st.dead = true;
        st.queue.clear();
        self.queued_bytes.store(0, Ordering::Relaxed);
    }
}

/// A clonable, thread-safe handle to one reactor connection: the only
/// way code off the shard thread (completion callbacks, shutdown paths)
/// touches it.
#[derive(Clone)]
pub struct ConnHandle {
    shared: Arc<ConnShared>,
}

impl ConnHandle {
    /// Enqueues a pre-encoded frame for the socket and wakes the shard.
    /// With `completes_in_flight`, also closes an
    /// [`open_in_flight`](ConnHandle::open_in_flight) slot — pass
    /// `true` from completion callbacks so the drain condition stays
    /// honest. Returns `false` if the connection is already dead (the
    /// frame is discarded).
    pub fn send(&self, bytes: Vec<u8>, completes_in_flight: bool) -> bool {
        let alive = {
            let mut st = self.shared.state.lock().expect("conn queue poisoned");
            if completes_in_flight {
                st.in_flight -= 1;
            }
            if st.dead {
                false
            } else {
                self.shared
                    .queued_bytes
                    .fetch_add(bytes.len(), Ordering::Relaxed);
                st.queue.push_back(bytes);
                true
            }
        };
        // Wake even on a discard: in_flight hitting zero can complete
        // a drain the shard is waiting on.
        self.notify();
        alive
    }

    /// Declares a completion that will later [`send`](ConnHandle::send)
    /// (or discard) a response. Call *before* registering the callback,
    /// so the shard can never observe "reads done, nothing in flight"
    /// in the registration gap.
    pub fn open_in_flight(&self) {
        self.shared
            .state
            .lock()
            .expect("conn queue poisoned")
            .in_flight += 1;
    }

    /// Stops reading and closes the connection once every in-flight
    /// completion has resolved and every queued frame is flushed —
    /// the graceful "GoAway then FIN" path.
    pub fn close_after_flush(&self) {
        self.shared.mark_read_done();
        self.notify();
    }

    /// Severs the connection now: queued frames are discarded and
    /// teardown is non-graceful.
    pub fn kill(&self) {
        self.shared.mark_dead();
        self.notify();
    }

    /// Whether the connection has been severed.
    pub fn is_dead(&self) -> bool {
        self.shared.state.lock().expect("conn queue poisoned").dead
    }

    /// Bytes currently queued behind this connection's socket.
    pub fn queued_bytes(&self) -> usize {
        self.shared.queued_bytes.load(Ordering::Relaxed)
    }

    /// The connection's reactor-wide token (stable, never reused).
    pub fn token(&self) -> u64 {
        self.shared.token
    }

    fn notify(&self) {
        if self.shared.notified.swap(true, Ordering::AcqRel) {
            return; // a mail is already pending
        }
        let shard = &self.shared.shard;
        shard
            .mailbox
            .lock()
            .expect("shard mailbox poisoned")
            .push(Mail::Notify(self.shared.token));
        // The shard re-checks its mailbox before sleeping, so a send
        // from the shard thread itself needs no eventfd round-trip.
        if shard.thread_id.get().copied() != Some(std::thread::current().id()) {
            shard.waker.signal();
        }
    }
}

enum Mail {
    Register {
        stream: TcpStream,
        shared: Arc<ConnShared>,
        handler: Box<dyn ConnHandler>,
    },
    Notify(u64),
    SeverReads,
    Stop,
}

/// The cross-thread face of one shard: its mailbox and waker.
struct ShardHandle {
    mailbox: Mutex<Vec<Mail>>,
    waker: EventFd,
    /// The shard thread's id, set once at spawn — lets same-thread
    /// sends skip the eventfd signal.
    thread_id: OnceLock<std::thread::ThreadId>,
    /// Copy of [`ReactorConfig::high_water`], read on the hot path.
    high_water: usize,
    /// `reactor.conns_live.shard<k>` gauge.
    conns_gauge: obs::Gauge,
}

struct ReactorShared {
    config: ReactorConfig,
    shards: Vec<Arc<ShardHandle>>,
    next_shard: AtomicUsize,
    next_token: AtomicU64,
    /// Registered connections not yet torn down (either direction).
    live: Mutex<usize>,
    drained: Condvar,
}

/// The reactor's own health counters, in the registry: how often shards
/// wake, how often they wake for nothing, and how often the kernel split
/// a frame write.
#[derive(Clone)]
struct ReactorObs {
    /// Eventfd wakeups observed (`reactor.wakeups`).
    wakeups: obs::Counter,
    /// Notify wakeups that found no work — the frame was already
    /// flushed by the time the shard looked (`reactor.spurious_polls`).
    spurious_polls: obs::Counter,
    /// Frame writes the kernel cut short, resumed on the next
    /// `EPOLLOUT` (`reactor.partial_writes`).
    partial_writes: obs::Counter,
}

impl ReactorObs {
    fn new(registry: &obs::Registry) -> ReactorObs {
        ReactorObs {
            wakeups: registry.counter("reactor.wakeups"),
            spurious_polls: registry.counter("reactor.spurious_polls"),
            partial_writes: registry.counter("reactor.partial_writes"),
        }
    }
}

/// An N-shard epoll event loop multiplexing framed connections. See
/// the module docs for the state machine and the waker protocol.
pub struct Reactor {
    shared: Arc<ReactorShared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    stopped: AtomicBool,
}

impl Reactor {
    /// Spawns the shard threads. Gauges and counters land in
    /// `registry` under `reactor.*`.
    pub fn new(config: ReactorConfig, registry: &obs::Registry) -> io::Result<Reactor> {
        assert!(config.shards > 0, "reactor needs at least one shard");
        let obs = ReactorObs::new(registry);
        let mut handles = Vec::with_capacity(config.shards);
        for k in 0..config.shards {
            handles.push(Arc::new(ShardHandle {
                mailbox: Mutex::new(Vec::new()),
                waker: EventFd::new()?,
                thread_id: OnceLock::new(),
                high_water: config.high_water,
                conns_gauge: registry.gauge(&format!("reactor.conns_live.shard{k}")),
            }));
        }
        let shared = Arc::new(ReactorShared {
            config: config.clone(),
            shards: handles,
            next_shard: AtomicUsize::new(0),
            next_token: AtomicU64::new(0),
            live: Mutex::new(0),
            drained: Condvar::new(),
        });
        let mut threads = Vec::with_capacity(config.shards);
        for k in 0..config.shards {
            let epoll = Epoll::new()?;
            epoll.add(shared.shards[k].waker.raw_fd(), EPOLLIN, WAKER_TOKEN)?;
            let shard_shared = Arc::clone(&shared);
            let shard_obs = obs.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("reactor-shard-{k}"))
                    .spawn(move || {
                        let mut shard = Shard {
                            epoll,
                            handle: Arc::clone(&shard_shared.shards[k]),
                            reactor: shard_shared,
                            obs: shard_obs,
                            conns: HashMap::new(),
                            rbuf: vec![0; READ_CHUNK],
                        };
                        shard
                            .handle
                            .thread_id
                            .set(std::thread::current().id())
                            .expect("shard thread id set once");
                        shard.run();
                    })
                    .expect("spawn reactor shard"),
            );
        }
        Ok(Reactor {
            shared,
            threads: Mutex::new(threads),
            stopped: AtomicBool::new(false),
        })
    }

    /// Hands a connection to the least-recently-used shard. The stream
    /// is switched to nonblocking here; `handler` owns its traffic from
    /// the first readable byte.
    pub fn register(
        &self,
        stream: TcpStream,
        handler: Box<dyn ConnHandler>,
    ) -> io::Result<ConnHandle> {
        stream.set_nonblocking(true)?;
        let token = self.shared.next_token.fetch_add(1, Ordering::Relaxed);
        let idx = self.shared.next_shard.fetch_add(1, Ordering::Relaxed) % self.shared.shards.len();
        let shard = Arc::clone(&self.shared.shards[idx]);
        let shared = Arc::new(ConnShared {
            token,
            shard: Arc::clone(&shard),
            state: Mutex::new(ConnQueue {
                queue: VecDeque::new(),
                in_flight: 0,
                read_done: false,
                dead: false,
            }),
            queued_bytes: AtomicUsize::new(0),
            notified: AtomicBool::new(false),
        });
        *self.shared.live.lock().expect("reactor live poisoned") += 1;
        shard
            .mailbox
            .lock()
            .expect("shard mailbox poisoned")
            .push(Mail::Register {
                stream,
                shared: Arc::clone(&shared),
                handler,
            });
        shard.waker.signal();
        Ok(ConnHandle { shared })
    }

    /// Connections currently registered and not yet torn down.
    pub fn conns_live(&self) -> usize {
        *self.shared.live.lock().expect("reactor live poisoned")
    }

    /// Readiness analogue of `shutdown(Read)` on every connection:
    /// every shard marks all its connections read-done, so no further
    /// requests are dispatched and each connection FINs as soon as its
    /// in-flight responses flush.
    pub fn sever_reads(&self) {
        for shard in &self.shared.shards {
            shard
                .mailbox
                .lock()
                .expect("shard mailbox poisoned")
                .push(Mail::SeverReads);
            shard.waker.signal();
        }
    }

    /// Blocks until every registered connection has been torn down —
    /// the "wait for the last writer to flush and FIN" step.
    pub fn wait_drained(&self) {
        let mut live = self.shared.live.lock().expect("reactor live poisoned");
        while *live > 0 {
            live = self
                .shared
                .drained
                .wait(live)
                .expect("reactor live poisoned");
        }
    }

    /// Stops and joins the shard threads. Connections still registered
    /// are severed (non-graceful) — call [`Reactor::wait_drained`]
    /// first for a clean drain. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        for shard in &self.shared.shards {
            shard
                .mailbox
                .lock()
                .expect("shard mailbox poisoned")
                .push(Mail::Stop);
            shard.waker.signal();
        }
        let mut threads = self.threads.lock().expect("reactor threads poisoned");
        for handle in threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One connection's shard-local state machine.
struct Conn {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    handler: Box<dyn ConnHandler>,
    assembler: FrameAssembler,
    /// The frame currently being written, with resume offset `woff` —
    /// a partial write parks here until the next `EPOLLOUT`.
    wbuf: Vec<u8>,
    woff: usize,
    /// Still dispatching inbound frames (no EOF/error/close yet).
    read_open: bool,
    /// Reads paused by the outbound high-water mark.
    paused: bool,
    /// `EPOLLOUT` armed: the last flush ended in a partial write.
    want_write: bool,
    /// Interest mask currently armed in the epoll set.
    interest: u32,
}

impl Conn {
    fn handle(&self) -> ConnHandle {
        ConnHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

struct Shard {
    epoll: Epoll,
    handle: Arc<ShardHandle>,
    reactor: Arc<ReactorShared>,
    obs: ReactorObs,
    conns: HashMap<u64, Conn>,
    /// Every readable event on this shard reads into this buffer; the
    /// assembler copies out what it keeps.
    rbuf: Vec<u8>,
}

/// Outcome of one `process_conn` pass.
enum Verdict {
    /// Keep the connection.
    Keep,
    /// Tear it down; `true` = drained cleanly, FIN.
    Close(bool),
}

impl Shard {
    fn run(&mut self) {
        let tick = self.reactor.config.tick;
        let mut last_tick = Instant::now();
        let mut events = [EpollEvent::default(); 256];
        let mut stopping = false;
        loop {
            // A shard-local send leaves mail without signalling the
            // eventfd; never sleep on a non-empty mailbox.
            let mailbox_empty = self
                .handle
                .mailbox
                .lock()
                .expect("shard mailbox poisoned")
                .is_empty();
            let timeout_ms = if !mailbox_empty {
                0
            } else {
                tick.saturating_sub(last_tick.elapsed()).as_millis() as i32
            };
            let n = self
                .epoll
                .wait(&mut events, timeout_ms.max(0))
                .unwrap_or_default();

            // Token → (readable-ish, notified) work list for this pass.
            let mut work: HashMap<u64, (bool, bool)> = HashMap::new();
            for ev in &events[..n] {
                let token = ev.data;
                let flags = ev.events;
                if token == WAKER_TOKEN {
                    self.handle.waker.drain();
                    self.obs.wakeups.inc();
                    continue;
                }
                let entry = work.entry(token).or_insert((false, false));
                if flags & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 {
                    entry.0 = true;
                }
                // EPOLLOUT needs no flag of its own: every processed
                // connection attempts a flush.
            }

            // Drain the mailbox (registrations, notifies, control).
            let mail =
                std::mem::take(&mut *self.handle.mailbox.lock().expect("shard mailbox poisoned"));
            for m in mail {
                match m {
                    Mail::Register {
                        stream,
                        shared,
                        handler,
                    } => self.add_conn(stream, shared, handler),
                    Mail::Notify(token) => {
                        work.entry(token).or_insert((false, false)).1 = true;
                    }
                    Mail::SeverReads => {
                        for (token, conn) in self.conns.iter_mut() {
                            conn.shared.mark_read_done();
                            conn.read_open = false;
                            work.entry(*token).or_insert((false, false));
                        }
                    }
                    Mail::Stop => stopping = true,
                }
            }

            // Tick pass: idle/stall detection lives in the handlers.
            if last_tick.elapsed() >= tick {
                last_tick = Instant::now();
                let tokens: Vec<u64> = self.conns.keys().copied().collect();
                for token in tokens {
                    if let Some(conn) = self.conns.get_mut(&token) {
                        let handle = conn.handle();
                        conn.handler.on_tick(&handle);
                        work.entry(token).or_insert((false, false));
                    }
                }
            }

            for (token, (readable, notified)) in work {
                self.process_conn(token, readable, notified);
            }

            if stopping {
                let tokens: Vec<u64> = self.conns.keys().copied().collect();
                for token in tokens {
                    self.teardown(token, false);
                }
                return;
            }
        }
    }

    fn add_conn(
        &mut self,
        stream: TcpStream,
        shared: Arc<ConnShared>,
        mut handler: Box<dyn ConnHandler>,
    ) {
        let token = shared.token;
        let interest = EPOLLIN | EPOLLRDHUP;
        if self.epoll.add(stream.as_raw_fd(), interest, token).is_err() {
            shared.mark_dead();
            handler.on_close(false);
            self.drop_live();
            return;
        }
        self.handle.conns_gauge.add(1);
        self.conns.insert(
            token,
            Conn {
                stream,
                shared,
                handler,
                assembler: FrameAssembler::new(),
                wbuf: Vec::new(),
                woff: 0,
                read_open: true,
                paused: false,
                want_write: false,
                interest,
            },
        );
        // Bytes may already be waiting (level-triggered epoll would
        // tell us, but not until the next wait) — process eagerly.
        self.process_conn(token, true, false);
    }

    fn process_conn(&mut self, token: u64, readable: bool, notified: bool) {
        let verdict = match self.conns.get_mut(&token) {
            Some(conn) => {
                // Clear before looking so a send racing this pass
                // re-notifies rather than being swallowed.
                conn.shared.notified.store(false, Ordering::Release);
                drive_conn(
                    conn,
                    &self.epoll,
                    &self.obs,
                    &mut self.rbuf,
                    readable,
                    notified,
                )
            }
            None => return, // torn down earlier in this pass
        };
        if let Verdict::Close(graceful) = verdict {
            self.teardown(token, graceful);
        }
    }

    fn teardown(&mut self, token: u64, graceful: bool) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        conn.shared.mark_dead();
        let _ = self.epoll.del(conn.stream.as_raw_fd());
        if graceful {
            // Everything flushed: half-close so the client reads a
            // clean EOF after the last frame.
            let _ = conn.stream.shutdown(Shutdown::Write);
        } else {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        conn.handler.on_close(graceful);
        self.handle.conns_gauge.add(-1);
        self.drop_live();
    }

    fn drop_live(&self) {
        let mut live = self.reactor.live.lock().expect("reactor live poisoned");
        *live -= 1;
        drop(live);
        self.reactor.drained.notify_all();
    }
}

/// Runs one connection through read → dispatch → flush → interest
/// update. Free function so the shard's map borrow stays out of the way.
fn drive_conn(
    conn: &mut Conn,
    epoll: &Epoll,
    obs: &ReactorObs,
    rbuf: &mut [u8],
    readable: bool,
    notified: bool,
) -> Verdict {
    let high_water = conn.shared.shard.high_water;
    let mut progress = false;

    if readable && conn.read_open {
        match read_and_dispatch(conn, rbuf, high_water) {
            ReadOutcome::Ok(any) => progress |= any,
            ReadOutcome::Sever => return Verdict::Close(false),
        }
    }

    // A handler-requested close (GoAway sent, idle timeout) reaches the
    // shard as read_done; stop dispatching further inbound frames.
    if conn.read_open && conn.shared.is_read_done() {
        conn.read_open = false;
        progress = true;
    }

    // Flush: drain queued frames through the resume buffer.
    loop {
        if conn.woff == conn.wbuf.len() {
            if !conn.wbuf.is_empty() {
                let handle = conn.handle();
                conn.handler.on_written(&handle);
                conn.wbuf.clear();
                conn.woff = 0;
            }
            match conn.shared.poll_step() {
                NextOut::Dead => return Verdict::Close(false),
                NextOut::Drained => return Verdict::Close(true),
                NextOut::Idle => {
                    conn.want_write = false;
                    break;
                }
                NextOut::Frame(bytes) => {
                    let handle = conn.handle();
                    if !conn.handler.before_write(&handle) {
                        return Verdict::Close(false);
                    }
                    conn.wbuf = bytes;
                    conn.woff = 0;
                }
            }
        }
        match (&conn.stream).write(&conn.wbuf[conn.woff..]) {
            Ok(0) => return Verdict::Close(false),
            Ok(written) => {
                conn.woff += written;
                progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                obs.partial_writes.inc();
                conn.want_write = true;
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Verdict::Close(false),
        }
    }

    if notified && !readable && !progress {
        obs.spurious_polls.inc();
    }

    // Backpressure: pause reads past the high-water mark, resume below
    // half of it.
    let backlog = conn.shared.queued_bytes.load(Ordering::Relaxed) + (conn.wbuf.len() - conn.woff);
    if !conn.paused && backlog > high_water {
        conn.paused = true;
    } else if conn.paused && backlog <= high_water / 2 {
        conn.paused = false;
    }

    let mut interest = 0;
    if conn.read_open && !conn.paused {
        interest |= EPOLLIN | EPOLLRDHUP;
    }
    if conn.want_write {
        interest |= EPOLLOUT;
    }
    if interest != conn.interest {
        let _ = epoll.modify(conn.stream.as_raw_fd(), interest, conn.shared.token);
        conn.interest = interest;
    }
    Verdict::Keep
}

enum ReadOutcome {
    /// Read side survived; `bool` = any bytes or frames moved.
    Ok(bool),
    /// I/O error: sever now.
    Sever,
}

fn read_and_dispatch(conn: &mut Conn, buf: &mut [u8], high_water: usize) -> ReadOutcome {
    let mut progress = false;
    loop {
        match (&conn.stream).read(buf) {
            Ok(0) => {
                // EOF. At a frame boundary this is the client's clean
                // "no more requests"; mid-frame it is a truncation —
                // either way reads are done and the drain condition
                // takes over, without an error frame in either case.
                conn.read_open = false;
                conn.shared.mark_read_done();
                return ReadOutcome::Ok(true);
            }
            Ok(n) => {
                progress = true;
                conn.assembler.feed(&buf[..n]);
                loop {
                    // Handlers may kill or close mid-burst (injected
                    // drop, GoAway); stop dispatching the moment the
                    // read side is logically closed.
                    if conn.shared.state.lock().expect("conn queue poisoned").dead {
                        return ReadOutcome::Ok(progress);
                    }
                    if conn.shared.is_read_done() {
                        conn.read_open = false;
                        return ReadOutcome::Ok(progress);
                    }
                    match conn.assembler.next_frame() {
                        Ok(Some(payload)) => {
                            let handle = conn.handle();
                            conn.handler.on_frame(Ok(payload), &handle);
                        }
                        Ok(None) => break,
                        Err(e) => {
                            // Framing error: the stream offset is
                            // unknowable. Report once; reads are done.
                            let handle = conn.handle();
                            conn.handler.on_frame(Err(e), &handle);
                            conn.read_open = false;
                            conn.shared.mark_read_done();
                            return ReadOutcome::Ok(true);
                        }
                    }
                }
                // Don't keep inhaling requests for a client that is
                // not draining its responses.
                if conn.shared.queued_bytes.load(Ordering::Relaxed) > high_water {
                    return ReadOutcome::Ok(progress);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadOutcome::Ok(progress),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Sever,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{
        decode_payload, encode_response, encode_stats_request, read_frame, Frame, RespStatus,
        ResponseFrame,
    };
    use std::net::TcpListener;

    /// Echoes every inbound frame back as a response frame carrying the
    /// payload length, and records lifecycle events.
    struct Echo {
        closed: Arc<Mutex<Option<bool>>>,
        frames: Arc<AtomicUsize>,
        written: Arc<AtomicUsize>,
    }

    impl ConnHandler for Echo {
        fn on_frame(&mut self, payload: Result<Vec<u8>, WireError>, conn: &ConnHandle) {
            match payload {
                Ok(p) => {
                    self.frames.fetch_add(1, Ordering::SeqCst);
                    let id = match decode_payload(&p) {
                        Ok(Frame::Stats { id }) => id,
                        other => panic!("unexpected frame: {other:?}"),
                    };
                    conn.send(
                        encode_response(&ResponseFrame {
                            id,
                            status: RespStatus::Ok,
                            retry_after_ms: 0,
                            backend: 0,
                            body: format!("len={}", p.len()),
                        }),
                        false,
                    );
                }
                Err(_) => conn.close_after_flush(),
            }
        }

        fn on_written(&mut self, _conn: &ConnHandle) {
            self.written.fetch_add(1, Ordering::SeqCst);
        }

        fn on_close(&mut self, graceful: bool) {
            *self.closed.lock().unwrap() = Some(graceful);
        }
    }

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn trickled_frames_echo_and_eof_drains_to_fin() {
        let registry = obs::Registry::new();
        let reactor = Reactor::new(ReactorConfig::default(), &registry).unwrap();
        let (mut client, server) = pair();
        let closed = Arc::new(Mutex::new(None));
        let frames = Arc::new(AtomicUsize::new(0));
        let written = Arc::new(AtomicUsize::new(0));
        reactor
            .register(
                server,
                Box::new(Echo {
                    closed: Arc::clone(&closed),
                    frames: Arc::clone(&frames),
                    written: Arc::clone(&written),
                }),
            )
            .unwrap();
        assert_eq!(reactor.conns_live(), 1);

        // Two frames, dripped one byte at a time.
        let mut bytes = encode_stats_request(1);
        bytes.extend_from_slice(&encode_stats_request(2));
        for b in &bytes {
            client.write_all(std::slice::from_ref(b)).unwrap();
        }
        client.shutdown(Shutdown::Write).unwrap();

        let mut ids = Vec::new();
        while let Some(payload) = read_frame(&mut client).unwrap() {
            match decode_payload(&payload).unwrap() {
                Frame::Response(r) => {
                    assert_eq!(r.status, RespStatus::Ok);
                    ids.push(r.id);
                }
                other => panic!("unexpected frame: {other:?}"),
            }
        }
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(frames.load(Ordering::SeqCst), 2);
        assert_eq!(written.load(Ordering::SeqCst), 2);

        reactor.wait_drained();
        assert_eq!(*closed.lock().unwrap(), Some(true), "clean drain FINs");
        assert_eq!(reactor.conns_live(), 0);
        reactor.shutdown();
    }

    #[test]
    fn in_flight_holds_the_fin_until_the_async_completion_lands() {
        let registry = obs::Registry::new();
        let reactor = Reactor::new(ReactorConfig::default(), &registry).unwrap();
        let (mut client, server) = pair();
        let closed = Arc::new(Mutex::new(None));
        let handle = reactor
            .register(
                server,
                Box::new(Echo {
                    closed: Arc::clone(&closed),
                    frames: Arc::new(AtomicUsize::new(0)),
                    written: Arc::new(AtomicUsize::new(0)),
                }),
            )
            .unwrap();

        // Simulate a submitted ticket: open before the callback exists.
        handle.open_in_flight();
        client.shutdown(Shutdown::Write).unwrap(); // reads finish now

        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(
            reactor.conns_live(),
            1,
            "in-flight completion must hold the drain"
        );

        // The "pool worker" completes from another thread.
        let worker_handle = handle.clone();
        std::thread::spawn(move || {
            worker_handle.send(
                encode_response(&ResponseFrame {
                    id: 9,
                    status: RespStatus::Ok,
                    retry_after_ms: 0,
                    backend: 0,
                    body: "late".to_string(),
                }),
                true,
            );
        });

        let payload = read_frame(&mut client).unwrap().expect("late response");
        match decode_payload(&payload).unwrap() {
            Frame::Response(r) => assert_eq!(r.id, 9),
            other => panic!("unexpected frame: {other:?}"),
        }
        assert!(read_frame(&mut client).unwrap().is_none(), "then FIN");
        reactor.wait_drained();
        assert_eq!(*closed.lock().unwrap(), Some(true));
    }

    #[test]
    fn kill_severs_and_reports_non_graceful() {
        let registry = obs::Registry::new();
        let reactor = Reactor::new(ReactorConfig::default(), &registry).unwrap();
        let (client, server) = pair();
        let closed = Arc::new(Mutex::new(None));
        let handle = reactor
            .register(
                server,
                Box::new(Echo {
                    closed: Arc::clone(&closed),
                    frames: Arc::new(AtomicUsize::new(0)),
                    written: Arc::new(AtomicUsize::new(0)),
                }),
            )
            .unwrap();
        handle.kill();
        reactor.wait_drained();
        assert_eq!(
            *closed.lock().unwrap(),
            Some(false),
            "sever is not graceful"
        );
        assert!(handle.is_dead());
        assert!(
            !handle.send(vec![1, 2, 3], false),
            "sends to a dead conn are discarded"
        );
        drop(client);
    }

    #[test]
    fn sever_reads_stops_dispatch_and_flushes_like_shutdown_read() {
        let registry = obs::Registry::new();
        let reactor = Reactor::new(ReactorConfig::default(), &registry).unwrap();
        let (mut client, server) = pair();
        let closed = Arc::new(Mutex::new(None));
        let frames = Arc::new(AtomicUsize::new(0));
        reactor
            .register(
                server,
                Box::new(Echo {
                    closed: Arc::clone(&closed),
                    frames: Arc::clone(&frames),
                    written: Arc::new(AtomicUsize::new(0)),
                }),
            )
            .unwrap();
        // One request in, echoed out.
        client.write_all(&encode_stats_request(5)).unwrap();
        let payload = read_frame(&mut client).unwrap().expect("echo");
        assert!(matches!(
            decode_payload(&payload).unwrap(),
            Frame::Response(_)
        ));
        // Sever reads: the connection drains (nothing pending) and FINs
        // even though the client never closed its write half.
        reactor.sever_reads();
        assert!(read_frame(&mut client).unwrap().is_none(), "clean FIN");
        reactor.wait_drained();
        assert_eq!(*closed.lock().unwrap(), Some(true));
        assert_eq!(frames.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn framing_error_reaches_the_handler_once() {
        let registry = obs::Registry::new();
        let reactor = Reactor::new(ReactorConfig::default(), &registry).unwrap();
        let (mut client, server) = pair();
        let closed = Arc::new(Mutex::new(None));
        let frames = Arc::new(AtomicUsize::new(0));
        reactor
            .register(
                server,
                Box::new(Echo {
                    closed: Arc::clone(&closed),
                    frames: Arc::clone(&frames),
                    written: Arc::new(AtomicUsize::new(0)),
                }),
            )
            .unwrap();
        // 4 GiB length prefix: assembler rejects before allocating;
        // Echo answers by closing after flush.
        client.write_all(&[0xFF, 0xFF, 0xFF, 0xFF, 0x00]).unwrap();
        assert!(read_frame(&mut client).unwrap().is_none(), "closed");
        reactor.wait_drained();
        assert_eq!(*closed.lock().unwrap(), Some(true));
        assert_eq!(frames.load(Ordering::SeqCst), 0, "no valid frame seen");
    }

    #[test]
    fn many_conns_on_few_shards_all_echo() {
        let registry = obs::Registry::new();
        let reactor = Reactor::new(
            ReactorConfig {
                shards: 2,
                ..ReactorConfig::default()
            },
            &registry,
        )
        .unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut clients = Vec::new();
        for i in 0..40u64 {
            let client = TcpStream::connect(addr).unwrap();
            let (server, _) = listener.accept().unwrap();
            reactor
                .register(
                    server,
                    Box::new(Echo {
                        closed: Arc::new(Mutex::new(None)),
                        frames: Arc::new(AtomicUsize::new(0)),
                        written: Arc::new(AtomicUsize::new(0)),
                    }),
                )
                .unwrap();
            clients.push((i, client));
        }
        assert_eq!(reactor.conns_live(), 40);
        for (i, client) in &mut clients {
            client.write_all(&encode_stats_request(*i)).unwrap();
        }
        for (i, client) in &mut clients {
            let payload = read_frame(client).unwrap().expect("echo");
            match decode_payload(&payload).unwrap() {
                Frame::Response(r) => assert_eq!(r.id, *i),
                other => panic!("unexpected frame: {other:?}"),
            }
        }
        let snap = registry.snapshot();
        let per_shard: Vec<i64> = (0..2)
            .map(|k| {
                snap.gauge(&format!("reactor.conns_live.shard{k}"))
                    .unwrap_or(0)
            })
            .collect();
        assert_eq!(per_shard.iter().sum::<i64>(), 40);
        assert!(
            per_shard.iter().all(|&g| g == 20),
            "round-robin spreads conns evenly: {per_shard:?}"
        );
        drop(clients);
        reactor.wait_drained();
        reactor.shutdown();
    }
}
