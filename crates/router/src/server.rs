//! The router proper: a TCP proxy speaking [`net::wire`] on both sides.
//!
//! ## Thread anatomy
//!
//! * **one acceptor** — accepts client sockets and registers each on
//!   the router's [`net::reactor::Reactor`];
//! * **one reactor shard** — carries every client connection *and*
//!   every backend link (one per backend). A client frame is decoded,
//!   its cache key consistent-hashed ([`crate::ring::request_key`]),
//!   and the frame forwarded to the owning live backend over that
//!   backend's link. The backend's
//!   response is matched to the pending table by router-assigned id,
//!   the client's id is patched back into the frame, and the frame is
//!   queued on the client connection, so responses complete **out of
//!   order by id**. Both ends live on the same shard, so a forward and
//!   a relay are same-thread pushes: no eventfd signal and no
//!   cross-thread wakeup. Stats ops fan op-4 `StatsFull` out to every
//!   live backend and merge, on a short-lived thread because the
//!   fan-out does blocking socket I/O; admin (`ctl`) ops are answered
//!   in place from the membership state;
//! * **one prober** — periodically pings `Down` backends (TCP connect +
//!   op-3 stats) and re-admits them. The prober is also the control
//!   plane's actuator: it admits `Joining` backends into the live set
//!   after their first successful probe, and retires `Draining`
//!   backends (severs their idle link) once their last in-flight
//!   response has resolved.
//!
//! Graceful shutdown closes the client connections one at a time
//! ([`ConnHandle::close_after_flush`] on each): a client's reads stop,
//! its in-flight forwards still resolve over the backend links on the
//! same shard, and it FINs once its last response is written. Only then
//! are the backend links severed and the shard stopped.
//!
//! ## Live membership (the control plane)
//!
//! The backend fleet is no longer fixed at bind time. A
//! [`ctl::Membership`] state machine owns the authoritative epoch
//! ([`ctl::MembershipEpoch`]), and every routing decision reads an
//! immutable `RouterView` — the ring over in-ring members plus the
//! per-backend connection slots — published through an
//! `RwLock<Arc<RouterView>>`: a routing decision clones the current
//! view's `Arc` under the read lock, and admin ops publish a fresh view
//! under `ctl_lock`. Wire ops 7–10
//! (`CtlJoin`/`CtlDrain`/`CtlRemove`/`CtlView`), authenticated by the
//! shared [`RouterConfig::ctl_token`], drive the transitions:
//!
//! * **join** — the backend enters `Joining`: it holds its ring points
//!   from the moment of the join (so its eventual keyspace is decided
//!   immediately) but starts health-`Down`, so `route_live` skips it
//!   and its keys spill to ring successors until the prober's
//!   stats-ping proves the process is up. Admission then flips health
//!   `Up` and marks the member `Live` **without** advancing the epoch
//!   — a health event, not an administrative revision — and moves no
//!   other backend's keys.
//! * **drain** — the backend leaves the ring immediately (new keys
//!   reassign to successors) but keeps its slot and link; in-flight
//!   forwards resolve through the pending table as usual. The prober
//!   severs the link once `outstanding` hits zero.
//! * **remove** — the slot leaves the view entirely; whatever it still
//!   owed is failed over (one re-route or an honest shed), exactly the
//!   backend-death path.
//!
//! The epoch advances by exactly one per successful admin op
//! (join/drain/remove) and never otherwise, mirrored in the
//! `ctl.epoch` registry counter — so "one join plus one drain"
//! advances it exactly twice, regardless of when the probe admission
//! lands.
//!
//! ## Id translation
//!
//! Client ids are only unique per client connection, so the router
//! assigns every forwarded request a globally unique id from one
//! counter and patches it into the frame bytes in place (the id sits at
//! a fixed offset right after the tag). The pending table maps router
//! id → `{client connection, client id, frame bytes, …}`; the response gets
//! the client id patched back before forwarding. Keeping the encoded
//! bytes in the table is what makes **re-routing** one patch cheap:
//! on a backend death the same bytes are resent to the ring successor.
//!
//! ## Stall detection
//!
//! A backend that holds the connection open but stops answering is
//! dead for routing purposes. The detector is one watermark per
//! backend — the last time a response arrived (reset when the backend
//! goes from idle to owing work) — and one bound,
//! [`RouterConfig::stall_timeout`]: requests outstanding with no
//! response for longer than the bound severs the link and fails the
//! pending work over. Each link checks the watermark in the reactor's
//! `on_tick` sweep, which runs at a quarter of the bound (clamped to
//! 5–200 ms). The prober deliberately has no such bound — its
//! stats ping rides out a stall, which is exactly how a slow-but-alive
//! backend gets re-admitted.
//!
//! ## Failure semantics
//!
//! Course requests are idempotent computations, so one re-route per
//! request is safe and honest. A request fails over at most once; a
//! second failure (or no live backend) synthesizes a `SHED` response
//! with a retry hint and [`net::wire::ROUTER_BACKEND_ID`] as the
//! answering backend, so clients can tell the router answered for a
//! dead shard. Re-routing is **epoch-aware** by construction: the
//! fail-over consults the ring of the view current at fail-over time,
//! so a request stranded by a drain or remove lands on the new
//! epoch's owner, never back on the departing backend. The backend's
//! link dying downs the backend. The invariant the end-to-end tests
//! assert:
//! **every forwarded request produces exactly one client response** —
//! relayed, re-routed-then-relayed, or shed — and the fleet's merged
//! ledgers still balance.

use crate::health::Health;
use crate::ring::{request_key, Ring};
use ctl::{BackendState, Membership, MembershipEpoch};
use net::loadgen::{fetch_stats, fetch_stats_full};
use net::reactor::{ConnHandle, ConnHandler, Reactor, ReactorConfig};
use net::wire::{
    decode_payload, encode_response, Frame, RespStatus, ResponseFrame, WireError, ROUTER_BACKEND_ID,
};
use serve::server::SHED_BODY_PREFIX;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Byte offset of the `id:u64` field inside a request/response
/// *payload* (right after the 1-byte tag). Patching ids in place —
/// rather than decode→re-encode — is what makes forwarding and
/// re-routing cheap.
const ID_OFFSET: usize = 1;

/// Ring points per backend; more = smoother keyspace split.
const VNODES: usize = 64;

/// Retry hint stamped on router-synthesized `SHED` responses, ms.
const SHED_RETRY_MS: u64 = 50;

/// Knobs for [`Router::bind`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Consecutive soft failures before a backend is marked down.
    pub fail_threshold: u32,
    /// How often the prober re-checks `Down` backends.
    pub probe_interval: Duration,
    /// How long a backend may owe responses without delivering any
    /// before its link is severed and the pending work re-routed. A
    /// slow-but-alive backend rides out any pause shorter than this.
    pub stall_timeout: Duration,
    /// Shared secret authenticating admin wire ops 7–10. `None`
    /// (default) disables the control surface entirely: every ctl op
    /// is answered with an error and the fleet stays fixed.
    pub ctl_token: Option<String>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            fail_threshold: 2,
            probe_interval: Duration::from_millis(50),
            stall_timeout: Duration::from_secs(2),
            ctl_token: None,
        }
    }
}

/// Router-level ledger, the proxy's half of the end-to-end balance:
/// `forwarded == relayed + synthesized_shed` once the router is idle
/// (every forward resolves exactly once; a re-route changes *where* a
/// request resolves, not whether). Each field reads one `router.*`
/// counter of [`Router::registry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouterTotals {
    /// Requests forwarded to a backend (fresh, not counting re-sends).
    pub forwarded: u64,
    /// Backend responses relayed to clients.
    pub relayed: u64,
    /// Requests re-sent to a ring successor after a backend failure.
    pub rerouted: u64,
    /// `SHED` responses the router synthesized itself.
    pub synthesized_shed: u64,
    /// Requests shed immediately because no backend was live.
    pub no_backend_shed: u64,
    /// `Up` → `Down` transitions observed.
    pub backend_downs: u64,
    /// Probe-driven `Down` → `Up` (re-)admissions, joins included.
    pub backend_readmits: u64,
}

/// The router ledger, kept in the router's registry, plus the
/// per-forward RTT histogram, so `Op::Stats` through the router also
/// tells the router's own story and [`Router::totals`] reads the same
/// counters.
struct RouterObs {
    forwarded: obs::Counter,
    relayed: obs::Counter,
    rerouted: obs::Counter,
    synthesized_shed: obs::Counter,
    no_backend_shed: obs::Counter,
    backend_downs: obs::Counter,
    backend_readmits: obs::Counter,
    backends_live: obs::Gauge,
    /// Administrative membership revisions applied (`ctl.epoch`):
    /// equals `MembershipEpoch::epoch - 1` (the boot view is epoch 1).
    ctl_epoch: obs::Counter,
    rtt_us: obs::HistogramHandle,
}

impl RouterObs {
    fn new(registry: &obs::Registry) -> RouterObs {
        RouterObs {
            forwarded: registry.counter("router.forwarded"),
            relayed: registry.counter("router.relayed"),
            rerouted: registry.counter("router.rerouted"),
            synthesized_shed: registry.counter("router.shed.synthesized"),
            no_backend_shed: registry.counter("router.shed.no_backend"),
            backend_downs: registry.counter("router.backend.downs"),
            backend_readmits: registry.counter("router.backend.readmits"),
            backends_live: registry.gauge("router.backends.live"),
            ctl_epoch: registry.counter("ctl.epoch"),
            rtt_us: registry.histogram("router.backend.rtt_us"),
        }
    }
}

/// A forwarded request awaiting its backend response.
struct Pending {
    /// The client connection the response goes to.
    client_out: ConnHandle,
    /// The id the client knows this request by.
    client_id: u64,
    /// Which backend currently holds the request.
    backend: u32,
    /// Ring position, kept for the re-route lookup.
    key_hash: u64,
    /// Complete frame bytes (length prefix included) with the router id
    /// patched in — resendable as-is to another backend.
    bytes: Vec<u8>,
    /// A request fails over at most once.
    rerouted: bool,
    /// Forward time, for the RTT EWMA and histogram.
    sent_at: Instant,
}

/// The connection to a backend: sends enqueue on the reactor
/// connection; inbound frames arrive via [`BackendLink::on_frame`].
struct Link {
    handle: ConnHandle,
    /// Monotonic per-slot counter so a stale link's close callback
    /// can't sever the connection the prober just re-established.
    generation: u64,
}

/// One backend's link, health, and stall watermark. Slots are shared
/// via `Arc` between the published [`RouterView`]s and the link
/// handlers, so a view swap never invalidates a handler's slot
/// reference.
struct BackendSlot {
    id: u32,
    addr: SocketAddr,
    health: Health,
    /// The one connection to the backend; `None` while it is severed.
    link: Mutex<Option<Link>>,
    next_generation: AtomicU64,
    /// Outstanding forwards on this backend (approximate, for the
    /// stall check and the drain-retirement decision).
    outstanding: AtomicU64,
    /// Last response-progress time, reset when the backend goes from
    /// idle to owing work: the stall detector's watermark.
    last_progress: Mutex<Instant>,
}

impl BackendSlot {
    fn new(id: u32, addr: SocketAddr, fail_threshold: u32) -> BackendSlot {
        BackendSlot {
            id,
            addr,
            health: Health::new(fail_threshold),
            link: Mutex::new(None),
            next_generation: AtomicU64::new(0),
            outstanding: AtomicU64::new(0),
            last_progress: Mutex::new(Instant::now()),
        }
    }
}

/// One immutable epoch of the router's data path: the consistent-hash
/// ring over in-ring members and the backend slots still owning
/// connections. Published through `Shared::view`; every routing
/// decision loads the view once and works against that snapshot.
struct RouterView {
    /// The membership epoch this view was built from.
    epoch: u64,
    /// Ring over `Joining ∪ Live` member ids; `None` when the fleet
    /// has no in-ring member (everything draining/removed).
    ring: Option<Ring>,
    /// Slots for every non-removed member, sorted by id.
    slots: Vec<Arc<BackendSlot>>,
}

impl RouterView {
    /// The slot for backend `id`, if it is still in the fleet.
    fn slot(&self, id: u32) -> Option<&Arc<BackendSlot>> {
        self.slots
            .binary_search_by_key(&id, |s| s.id)
            .ok()
            .map(|i| &self.slots[i])
    }
}

struct Shared {
    config: RouterConfig,
    registry: obs::Registry,
    robs: RouterObs,
    /// Authoritative membership state machine (epochs, states).
    membership: Membership,
    /// The current data-path view, see [`RouterView`]. Read through
    /// [`Shared::current_view`]; replaced by [`publish_view`].
    view: RwLock<Arc<RouterView>>,
    /// Serializes admin ops: membership transition → view rebuild →
    /// publish happen atomically with respect to other admin ops
    /// (data-path readers never take this).
    ctl_lock: Mutex<()>,
    /// The one-shard engine carrying client connections and backend
    /// links alike.
    reactor: Reactor,
    pending: Mutex<HashMap<u64, Pending>>,
    next_router_id: AtomicU64,
    accepting: AtomicBool,
    shutting_down: AtomicBool,
    /// Open client connections by connection id; each removes itself
    /// in [`RouterClient::on_close`] and signals `all_closed`.
    conns: Mutex<HashMap<u64, ConnHandle>>,
    all_closed: Condvar,
    next_conn_id: AtomicU64,
    /// Monotonic forward counter feeding [`Ring::route_balanced`]'s
    /// alternating spill hedge.
    spill_tick: AtomicU64,
    /// The prober sleeps on `probe_wake` between sweeps; shutdown
    /// notifies it so the join does not wait out a whole interval.
    probe_lock: Mutex<()>,
    probe_wake: Condvar,
}

impl Shared {
    /// The current data-path view: one read-lock round trip to clone
    /// the `Arc`, after which the snapshot is lock-free to use.
    fn current_view(&self) -> Arc<RouterView> {
        Arc::clone(&self.view.read().expect("router view poisoned"))
    }
}

/// A running router. See the module docs for the thread anatomy,
/// membership semantics, and failure semantics.
pub struct Router {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Mutex<Option<JoinHandle<()>>>,
    prober: Mutex<Option<JoinHandle<()>>>,
    shut: AtomicBool,
}

impl Router {
    /// Binds `addr` (port 0 for ephemeral) in front of `backend_addrs`
    /// and starts the acceptor and prober. The initial backends are
    /// identified by their index in `backend_addrs` — the same id each
    /// backend should stamp via `NetConfig::backend_id`; backends
    /// joined later via `CtlJoin` get fresh, never-reused ids.
    /// Backends unreachable at bind time start `Down` and enter
    /// rotation when a probe succeeds.
    ///
    /// # Panics
    /// If `backend_addrs` is empty.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backend_addrs: &[SocketAddr],
        config: RouterConfig,
    ) -> io::Result<Router> {
        assert!(
            !backend_addrs.is_empty(),
            "router needs at least one backend"
        );
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let registry = obs::Registry::new();
        let robs = RouterObs::new(&registry);
        // One shard, so a forward and its relay never cross threads.
        // Tick fast enough that the on_tick stall check adds at most
        // ~25% latency to the configured bound.
        let reactor = Reactor::new(
            ReactorConfig {
                shards: 1,
                tick: (config.stall_timeout / 4)
                    .clamp(Duration::from_millis(5), Duration::from_millis(200)),
                ..ReactorConfig::default()
            },
            &registry,
        )?;
        let initial: Vec<(u32, SocketAddr)> = backend_addrs
            .iter()
            .enumerate()
            .map(|(i, &addr)| (i as u32, addr))
            .collect();
        let membership = Membership::new(&initial);
        let slots: Vec<Arc<BackendSlot>> = initial
            .iter()
            .map(|&(id, addr)| Arc::new(BackendSlot::new(id, addr, config.fail_threshold)))
            .collect();
        let boot = membership.view();
        let view = RwLock::new(Arc::new(RouterView {
            epoch: boot.epoch,
            ring: Some(Ring::new(&boot.ring_members(), VNODES)),
            slots,
        }));
        let shared = Arc::new(Shared {
            config,
            registry,
            robs,
            membership,
            view,
            ctl_lock: Mutex::new(()),
            reactor,
            pending: Mutex::new(HashMap::new()),
            next_router_id: AtomicU64::new(1),
            accepting: AtomicBool::new(true),
            shutting_down: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            all_closed: Condvar::new(),
            next_conn_id: AtomicU64::new(0),
            spill_tick: AtomicU64::new(0),
            probe_lock: Mutex::new(()),
            probe_wake: Condvar::new(),
        });
        {
            let boot_view = shared.current_view();
            for slot in &boot_view.slots {
                if connect_backend(&shared, slot).is_ok() {
                    shared.robs.backends_live.add(1);
                } else {
                    // Not reachable yet: start down, let the prober admit.
                    slot.health.force_down();
                }
            }
        }
        let accept_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("router-acceptor".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn router acceptor");
        let probe_shared = Arc::clone(&shared);
        let prober = std::thread::Builder::new()
            .name("router-prober".to_string())
            .spawn(move || probe_loop(&probe_shared))
            .expect("spawn router prober");
        Ok(Router {
            shared,
            local_addr,
            acceptor: Mutex::new(Some(acceptor)),
            prober: Mutex::new(Some(prober)),
            shut: AtomicBool::new(false),
        })
    }

    /// The bound address clients should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The router's own metrics registry (merged into stats answers).
    pub fn registry(&self) -> &obs::Registry {
        &self.shared.registry
    }

    /// The router-level ledger, read from the `router.*` counters of
    /// [`Router::registry`].
    pub fn totals(&self) -> RouterTotals {
        let robs = &self.shared.robs;
        RouterTotals {
            forwarded: robs.forwarded.value(),
            relayed: robs.relayed.value(),
            rerouted: robs.rerouted.value(),
            synthesized_shed: robs.synthesized_shed.value(),
            no_backend_shed: robs.no_backend_shed.value(),
            backend_downs: robs.backend_downs.value(),
            backend_readmits: robs.backend_readmits.value(),
        }
    }

    /// The current membership epoch — state per backend, epoch number.
    /// This is the same view `CtlView` encodes over the wire.
    pub fn membership(&self) -> Arc<MembershipEpoch> {
        self.shared.membership.view()
    }

    /// The epoch of the data-path view routing decisions currently
    /// read — equal to [`Router::membership`]'s epoch once the publish
    /// in an admin op completes.
    pub fn view_epoch(&self) -> u64 {
        self.shared.current_view().epoch
    }

    /// Whether backend `id` is currently in rotation.
    pub fn backend_is_up(&self, id: usize) -> bool {
        self.shared
            .current_view()
            .slot(id as u32)
            .is_some_and(|s| s.health.is_up())
    }

    /// Latency EWMA for backend `id` in µs (0 until a sample lands, or
    /// if the backend has left the fleet).
    pub fn backend_ewma_us(&self, id: usize) -> u64 {
        self.shared
            .current_view()
            .slot(id as u32)
            .map_or(0, |s| s.health.ewma_us())
    }

    /// The fleet-wide merged snapshot: every live backend's op-4
    /// `StatsFull` answer parsed and merged, plus the router's own
    /// registry. This is exactly what `Op::Stats` through the router
    /// renders.
    pub fn merged_snapshot(&self) -> obs::Snapshot {
        merged_snapshot(&self.shared)
    }

    /// Graceful shutdown: stop accepting, close each client connection
    /// once its in-flight forwards resolve (backend answers, re-routes,
    /// or synthesized sheds) and its responses are written, then tear
    /// down the backend links, the prober, and the reactor. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&self) {
        if self.shut.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Taking the lock orders the store before the prober's next
        // check, so the notify cannot fall between its check and wait.
        drop(self.shared.probe_lock.lock().expect("probe lock poisoned"));
        self.shared.probe_wake.notify_all();
        self.shared.accepting.store(false, Ordering::SeqCst);
        drop(TcpStream::connect(self.local_addr));
        if let Some(handle) = self.acceptor.lock().expect("acceptor poisoned").take() {
            let _ = handle.join();
        }
        // Per-connection close, not a reactor-wide read sever: the
        // backend links share the shard and must keep draining.
        let mut conns = self.shared.conns.lock().expect("conn table poisoned");
        for conn in conns.values() {
            conn.close_after_flush();
        }
        while !conns.is_empty() {
            conns = self
                .shared
                .all_closed
                .wait(conns)
                .expect("conn table poisoned");
        }
        drop(conns);
        {
            let view = self.shared.current_view();
            for slot in &view.slots {
                sever(slot);
            }
        }
        if let Some(handle) = self.prober.lock().expect("prober poisoned").take() {
            let _ = handle.join();
        }
        self.shared.reactor.shutdown();
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Connects `slot`'s link and registers it on the reactor. Does not
/// change health state.
fn connect_backend(shared: &Arc<Shared>, slot: &Arc<BackendSlot>) -> io::Result<()> {
    let stream = TcpStream::connect(slot.addr)?;
    let _ = stream.set_nodelay(true);
    let generation = slot.next_generation.fetch_add(1, Ordering::Relaxed);
    let handler = Box::new(BackendLink {
        shared: Arc::clone(shared),
        slot: Arc::clone(slot),
        generation,
    });
    let handle = shared.reactor.register(stream, handler)?;
    *slot.link.lock().expect("backend link poisoned") = Some(Link { handle, generation });
    Ok(())
}

/// Tears down `slot`'s link iff it is still generation `generation`;
/// returns whether *this call* severed it. The single point that
/// decides which thread owns a link's cleanup.
fn sever_link(slot: &BackendSlot, generation: u64) -> bool {
    let link = slot
        .link
        .lock()
        .expect("backend link poisoned")
        .take_if(|link| link.generation == generation);
    let Some(link) = link else {
        return false;
    };
    link.handle.kill();
    true
}

/// Severs whatever link `slot` holds (backend down, drain retirement,
/// and the shutdown path); returns whether it held one.
fn sever(slot: &BackendSlot) -> bool {
    let link = slot.link.lock().expect("backend link poisoned").take();
    let Some(link) = link else {
        return false;
    };
    link.handle.kill();
    true
}

/// Marks `slot` down, severs its link if it still has one, and fails
/// over everything it still owed: each pending entry re-routes once to
/// a live ring successor or sheds honestly. Called only by the thread
/// that actually severed the link, so each outage is cleaned up exactly
/// once (the severed link's close callback finds its slot already
/// empty and does nothing).
fn backend_down(shared: &Arc<Shared>, slot: &Arc<BackendSlot>) {
    sever(slot);
    if slot.health.force_down() {
        shared.robs.backend_downs.inc();
        shared.robs.backends_live.add(-1);
    }
    let orphaned: Vec<Pending> = {
        let mut pending = shared.pending.lock().expect("pending table poisoned");
        let ids: Vec<u64> = pending
            .iter()
            .filter(|(_, p)| p.backend == slot.id)
            .map(|(&rid, _)| rid)
            .collect();
        ids.iter().filter_map(|rid| pending.remove(rid)).collect()
    };
    slot.outstanding
        .fetch_sub(orphaned.len() as u64, Ordering::Relaxed);
    for p in orphaned {
        fail_over(shared, p, slot.id);
    }
}

/// Second chance or honest shed for a request whose backend died (or
/// left the fleet). The re-route consults the *current* view's ring,
/// so it is epoch-aware: keys stranded by a drain or remove land on
/// the new epoch's owner.
fn fail_over(shared: &Arc<Shared>, mut p: Pending, dead: u32) {
    if !p.rerouted {
        let view = shared.current_view();
        let next = view.ring.as_ref().and_then(|ring| {
            ring.route_live(p.key_hash, |b| {
                b != dead && view.slot(b).is_some_and(|s| s.health.is_up())
            })
        });
        if let Some(next) = next {
            p.backend = next;
            p.rerouted = true;
            p.sent_at = Instant::now();
            shared.robs.rerouted.inc();
            resend(shared, p);
            return;
        }
    }
    synthesize_shed(shared, p, dead);
}

/// Inserts `p` (already targeted at `p.backend`) into the pending
/// table and sends its bytes — the shared path under fresh forwards
/// and re-routes alike. A send failure cascades into that backend's
/// own down-handling, which claims the entry back and resolves it.
fn resend(shared: &Arc<Shared>, p: Pending) {
    let backend = p.backend;
    let rid = router_id_of(&p.bytes);
    let view = shared.current_view();
    let Some(slot) = view.slot(backend).map(Arc::clone) else {
        // The target left the fleet between routing and sending.
        fail_over(shared, p, backend);
        return;
    };
    // The pending entry keeps its bytes for a re-route; the link gets
    // this copy.
    let bytes = p.bytes.clone();
    shared
        .pending
        .lock()
        .expect("pending table poisoned")
        .insert(rid, p);
    if slot.outstanding.fetch_add(1, Ordering::Relaxed) == 0 {
        // Idle → owing work: the stall clock starts now, not at the
        // last response before the idle stretch.
        *slot.last_progress.lock().expect("progress poisoned") = Instant::now();
    }
    if !send_to_backend(shared, &slot, bytes) {
        // The send severed the target (or it was already gone). Claim
        // the entry back if the cascade hasn't, and resolve it here.
        let claimed = shared
            .pending
            .lock()
            .expect("pending table poisoned")
            .remove(&rid);
        if let Some(p) = claimed {
            slot.outstanding.fetch_sub(1, Ordering::Relaxed);
            fail_over(shared, p, backend);
        }
    }
}

/// The router answers for a dead shard: an honest `SHED` with a retry
/// hint, stamped [`ROUTER_BACKEND_ID`].
fn synthesize_shed(shared: &Arc<Shared>, p: Pending, dead: u32) {
    shared.robs.synthesized_shed.inc();
    let frame = ResponseFrame {
        id: p.client_id,
        status: RespStatus::Shed,
        retry_after_ms: SHED_RETRY_MS,
        backend: ROUTER_BACKEND_ID,
        body: format!("{SHED_BODY_PREFIX}: backend {dead} down, rerouting exhausted"),
    };
    p.client_out.send(encode_response(&frame), true);
}

/// Reads the router-assigned id back out of patched frame bytes.
fn router_id_of(bytes: &[u8]) -> u64 {
    u64::from_be_bytes(
        bytes[4 + ID_OFFSET..4 + ID_OFFSET + 8]
            .try_into()
            .expect("frame bytes carry an id"),
    )
}

/// Queues `bytes` on `slot`'s link. On failure (the link is dead or
/// already severed) the backend's down-handling runs; returns whether
/// the send succeeded — "succeeded" means enqueued on a live
/// connection, and a later write failure resolves through the pending
/// table like any other sever.
fn send_to_backend(shared: &Arc<Shared>, slot: &Arc<BackendSlot>, bytes: Vec<u8>) -> bool {
    let sent = slot
        .link
        .lock()
        .expect("backend link poisoned")
        .as_ref()
        .is_some_and(|link| link.handle.send(bytes, false));
    if !sent {
        backend_down(shared, slot);
    }
    sent
}

/// One backend response: match it to the pending table, patch the
/// client id back in, and queue it on the owning client connection.
/// Returns `false` when the link must be severed (protocol violation
/// or a connection-level GoAway).
fn handle_backend_payload(shared: &Arc<Shared>, slot: &Arc<BackendSlot>, payload: Vec<u8>) -> bool {
    let resp = match decode_payload(&payload) {
        Ok(Frame::Response(resp)) => resp,
        _ => return false, // protocol violation: sever
    };
    if resp.id == 0 {
        // Connection-level frame (accept-time GoAway): the backend
        // is refusing us; sever and fail over.
        return false;
    }
    *slot.last_progress.lock().expect("progress poisoned") = Instant::now();
    let entry = shared
        .pending
        .lock()
        .expect("pending table poisoned")
        .remove(&resp.id);
    let Some(p) = entry else {
        // Response for an entry another thread already failed over
        // (e.g. after a stall-sever race). Drop it: the client got
        // (or will get) its answer from the re-route path.
        return true;
    };
    slot.outstanding.fetch_sub(1, Ordering::Relaxed);
    if resp.status == RespStatus::GoAway {
        // The backend is shutting down and refused this request;
        // it counts toward the failure threshold and the request
        // deserves a second chance elsewhere.
        if slot.health.record_failure() {
            shared.robs.backend_downs.inc();
            shared.robs.backends_live.add(-1);
        }
        fail_over(shared, p, slot.id);
        return true;
    }
    let rtt = p.sent_at.elapsed();
    slot.health.record_success(rtt.as_micros() as u64);
    shared.robs.rtt_us.record_micros(rtt);
    let mut out_payload = payload;
    out_payload[ID_OFFSET..ID_OFFSET + 8].copy_from_slice(&p.client_id.to_be_bytes());
    let mut bytes = Vec::with_capacity(4 + out_payload.len());
    bytes.extend_from_slice(&(out_payload.len() as u32).to_be_bytes());
    bytes.extend_from_slice(&out_payload);
    shared.robs.relayed.inc();
    p.client_out.send(bytes, true);
    true
}

/// [`ConnHandler`] for one backend link: frames resolve through the
/// shared pending-table path, `on_tick` runs the stall watermark
/// check, and the close callback owns the backend-down cascade (once
/// per outage — a link severed by another thread finds its slot
/// empty, and a stale one finds a newer generation there).
struct BackendLink {
    shared: Arc<Shared>,
    slot: Arc<BackendSlot>,
    generation: u64,
}

impl ConnHandler for BackendLink {
    fn on_frame(&mut self, payload: Result<Vec<u8>, WireError>, conn: &ConnHandle) {
        let keep = match payload {
            Ok(bytes) => handle_backend_payload(&self.shared, &self.slot, bytes),
            // Framing desync on the backend link: sever, fail over.
            Err(_) => false,
        };
        if !keep {
            conn.kill();
        }
    }

    fn on_tick(&mut self, conn: &ConnHandle) {
        let stalled = self.slot.outstanding.load(Ordering::Relaxed) > 0
            && self
                .slot
                .last_progress
                .lock()
                .expect("progress poisoned")
                .elapsed()
                >= self.shared.config.stall_timeout;
        if stalled {
            conn.kill();
        }
    }

    fn on_close(&mut self, _graceful: bool) {
        if sever_link(&self.slot, self.generation) {
            backend_down(&self.shared, &self.slot);
        }
    }
}

/// Every `probe_interval`, until shutdown wakes it, walks the
/// membership: `Down` in-ring backends get a TCP connect plus an op-3
/// stats ping, and only on success is the link re-established and the
/// backend (re-)admitted — for a `Joining` member this is the admission
/// that marks it `Live` (same epoch: a health event, not a revision).
/// `Draining` members whose outstanding count has hit zero are
/// retired: link severed, health forced down, never probed again.
fn probe_loop(shared: &Arc<Shared>) {
    loop {
        let guard = shared.probe_lock.lock().expect("probe lock poisoned");
        let (guard, _) = shared
            .probe_wake
            .wait_timeout_while(guard, shared.config.probe_interval, |_| {
                !shared.shutting_down.load(Ordering::SeqCst)
            })
            .expect("probe lock poisoned");
        // The sweep below does blocking socket I/O: never under the
        // wake lock, or shutdown's notify would wait for it.
        drop(guard);
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let membership = shared.membership.view();
        let view = shared.current_view();
        for spec in &membership.backends {
            if shared.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let Some(slot) = view.slot(spec.id) else {
                continue;
            };
            match spec.state {
                BackendState::Joining | BackendState::Live => {
                    if slot.health.is_up() {
                        continue;
                    }
                    if fetch_stats(slot.addr).is_ok() && connect_backend(shared, slot).is_ok() {
                        slot.health.mark_up();
                        shared.robs.backend_readmits.inc();
                        shared.robs.backends_live.add(1);
                        if spec.state == BackendState::Joining {
                            let _guard = shared.ctl_lock.lock().expect("ctl lock poisoned");
                            // The member may have been drained/removed
                            // since this sweep loaded its view; a
                            // rejected admission is then correct.
                            let _ = shared.membership.mark_live(spec.id);
                        }
                    }
                }
                BackendState::Draining => {
                    // Last in-flight response resolved: retire the idle
                    // link. New work can't arrive — the ring stopped
                    // assigning at drain time.
                    if slot.outstanding.load(Ordering::Relaxed) == 0
                        && sever(slot)
                        && slot.health.force_down()
                    {
                        shared.robs.backends_live.add(-1);
                    }
                }
                BackendState::Removed => {}
            }
        }
    }
}

/// Fans op-4 `StatsFull` out to every live backend, parses and merges
/// the snapshots, and folds in the router's own registry. Backends that
/// fail mid-fan-out are skipped — stats stay available through partial
/// outages, they just cover the live fleet.
fn merged_snapshot(shared: &Arc<Shared>) -> obs::Snapshot {
    let mut merged = shared.registry.snapshot();
    let view = shared.current_view();
    for slot in &view.slots {
        if !slot.health.is_up() {
            continue;
        }
        if let Ok(text) = fetch_stats_full(slot.addr) {
            if let Ok(snap) = obs::Snapshot::parse_text(&text) {
                merged.merge(&snap);
            }
        }
    }
    merged
}

/// One decoded admin operation, dispatched by [`ctl_dispatch`].
enum CtlOp {
    Join(String),
    Drain(u32),
    Remove(u32),
    View,
}

/// Rebuilds the data-path view from the current membership and the
/// given slot set, publishes it, and returns the epoch it carries.
/// Callers must hold `ctl_lock`.
fn publish_view(shared: &Shared, slots: Vec<Arc<BackendSlot>>) -> u64 {
    let membership = shared.membership.view();
    let members = membership.ring_members();
    let ring = if members.is_empty() {
        None
    } else {
        Some(Ring::new(&members, VNODES))
    };
    *shared.view.write().expect("router view poisoned") = Arc::new(RouterView {
        epoch: membership.epoch,
        ring,
        slots,
    });
    membership.epoch
}

/// Authenticates and executes one admin op, answering on `conn`.
/// Always answers — an unauthenticated or failed op gets an `Error`
/// response, never silence — and never severs the connection: admin
/// clients are allowed to issue several ops on one socket.
fn ctl_dispatch(shared: &Arc<Shared>, id: u64, token: &str, op: CtlOp, conn: &ConnHandle) {
    let error = |body: String| ResponseFrame {
        id,
        status: RespStatus::Error,
        retry_after_ms: 0,
        backend: ROUTER_BACKEND_ID,
        body,
    };
    let ok = |body: String| ResponseFrame {
        id,
        status: RespStatus::Ok,
        retry_after_ms: 0,
        backend: ROUTER_BACKEND_ID,
        body,
    };
    let resp = match &shared.config.ctl_token {
        None => error("ctl: no admin token configured on this router".to_string()),
        Some(expected) if expected != token => error("ctl: bad token".to_string()),
        Some(_) => match op {
            CtlOp::Join(addr) => match ctl_join(shared, &addr) {
                Ok((backend, epoch)) => ok(format!(
                    "joined backend {backend} addr {addr} epoch {epoch}"
                )),
                Err(e) => error(e),
            },
            CtlOp::Drain(backend) => match ctl_drain(shared, backend) {
                Ok(epoch) => ok(format!("draining backend {backend} epoch {epoch}")),
                Err(e) => error(e),
            },
            CtlOp::Remove(backend) => match ctl_remove(shared, backend) {
                Ok(epoch) => ok(format!("removed backend {backend} epoch {epoch}")),
                Err(e) => error(e),
            },
            CtlOp::View => ok(ctl_view_body(shared)),
        },
    };
    conn.send(encode_response(&resp), false);
}

/// Admits a new backend address into the fleet as `Joining`: ring
/// points now, traffic only after the prober's stats-ping succeeds.
fn ctl_join(shared: &Arc<Shared>, addr: &str) -> Result<(u32, u64), String> {
    let addr: SocketAddr = addr
        .parse()
        .map_err(|_| format!("ctl: invalid backend address {addr:?}"))?;
    let _guard = shared.ctl_lock.lock().expect("ctl lock poisoned");
    let (id, _) = shared
        .membership
        .join(addr)
        .map_err(|e| format!("ctl: {e}"))?;
    let slot = Arc::new(BackendSlot::new(id, addr, shared.config.fail_threshold));
    // Joining starts out of rotation; the prober admits it.
    slot.health.force_down();
    let old = shared.current_view();
    let mut slots = old.slots.clone();
    slots.push(slot);
    let epoch = publish_view(shared, slots);
    shared.robs.ctl_epoch.inc();
    Ok((id, epoch))
}

/// Takes a backend out of the ring; its in-flight work drains and the
/// prober retires the idle link afterwards.
fn ctl_drain(shared: &Arc<Shared>, backend: u32) -> Result<u64, String> {
    let _guard = shared.ctl_lock.lock().expect("ctl lock poisoned");
    shared
        .membership
        .drain(backend)
        .map_err(|e| format!("ctl: {e}"))?;
    let old = shared.current_view();
    let epoch = publish_view(shared, old.slots.clone());
    shared.robs.ctl_epoch.inc();
    Ok(epoch)
}

/// Removes a backend from the fleet entirely: slot dropped from the
/// view, link severed, and whatever it still owed failed over.
fn ctl_remove(shared: &Arc<Shared>, backend: u32) -> Result<u64, String> {
    let removed;
    let epoch;
    {
        let _guard = shared.ctl_lock.lock().expect("ctl lock poisoned");
        shared
            .membership
            .remove(backend)
            .map_err(|e| format!("ctl: {e}"))?;
        let old = shared.current_view();
        removed = old.slot(backend).map(Arc::clone);
        let slots: Vec<Arc<BackendSlot>> = old
            .slots
            .iter()
            .filter(|s| s.id != backend)
            .map(Arc::clone)
            .collect();
        epoch = publish_view(shared, slots);
        shared.robs.ctl_epoch.inc();
    }
    if let Some(slot) = removed {
        // The removed slot is gone from the published view; resolve
        // its leftovers exactly like a backend death (re-route against
        // the new epoch's ring, or shed honestly).
        backend_down(shared, &slot);
    }
    Ok(epoch)
}

/// The `CtlView` response body: the membership encoding
/// ([`MembershipEpoch::encode_text`]-compatible — `parse_text`
/// tolerates the extra columns) with per-backend health and
/// outstanding-forward diagnostics appended.
fn ctl_view_body(shared: &Arc<Shared>) -> String {
    let membership = shared.membership.view();
    let view = shared.current_view();
    let mut out = format!("epoch {}\n", membership.epoch);
    for spec in &membership.backends {
        if spec.state == BackendState::Removed {
            continue;
        }
        let (health, outstanding) = view
            .slot(spec.id)
            .map(|s| {
                (
                    if s.health.is_up() { "up" } else { "down" },
                    s.outstanding.load(Ordering::Relaxed),
                )
            })
            .unwrap_or(("gone", 0));
        out.push_str(&format!(
            "backend {} {} {} {} {}\n",
            spec.id, spec.addr, spec.state, health, outstanding
        ));
    }
    out
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
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
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let handler = Box::new(RouterClient {
            shared: Arc::clone(shared),
            conn_id,
        });
        // Hold the table across registration, so the connection's
        // on_close cannot run on the shard before its entry exists.
        let mut conns = shared.conns.lock().expect("conn table poisoned");
        if let Ok(conn) = shared.reactor.register(stream, handler) {
            conns.insert(conn_id, conn);
        }
    }
}

/// One decoded client payload: route requests, answer stats and admin
/// ops in place. Returns `false` when the connection should stop
/// reading (protocol violation).
fn dispatch_client(shared: &Arc<Shared>, payload: Vec<u8>, conn: &ConnHandle) -> bool {
    match decode_payload(&payload) {
        Ok(Frame::Request(frame)) => {
            forward(shared, frame.id, &frame.req, payload, conn);
            true
        }
        Ok(Frame::Stats { id }) => {
            answer_stats(shared, id, false, conn);
            true
        }
        Ok(Frame::StatsFull { id }) => {
            answer_stats(shared, id, true, conn);
            true
        }
        Ok(Frame::CtlJoin { id, token, addr }) => {
            ctl_dispatch(shared, id, &token, CtlOp::Join(addr), conn);
            true
        }
        Ok(Frame::CtlDrain { id, token, backend }) => {
            ctl_dispatch(shared, id, &token, CtlOp::Drain(backend), conn);
            true
        }
        Ok(Frame::CtlRemove { id, token, backend }) => {
            ctl_dispatch(shared, id, &token, CtlOp::Remove(backend), conn);
            true
        }
        Ok(Frame::CtlView { id, token }) => {
            ctl_dispatch(shared, id, &token, CtlOp::View, conn);
            true
        }
        Ok(Frame::Response(_)) => {
            reject_client(
                "protocol error: response frame sent to router".to_string(),
                conn,
            );
            false
        }
        Err(e) => {
            reject_client(format!("malformed frame: {e}"), conn);
            false
        }
    }
}

/// Answers a client payload the router cannot act on with an `Error`
/// frame carrying `reason`; the caller then stops reading.
fn reject_client(reason: String, conn: &ConnHandle) {
    conn.send(
        encode_response(&ResponseFrame {
            id: 0,
            status: RespStatus::Error,
            retry_after_ms: 0,
            backend: ROUTER_BACKEND_ID,
            body: reason,
        }),
        false,
    );
}

/// Answers a stats op from the merged fleet snapshot. The snapshot
/// fan-out does blocking socket I/O to every live backend, so it runs
/// on a short-lived thread — a shard callback must never block on the
/// network.
fn answer_stats(shared: &Arc<Shared>, id: u64, full: bool, conn: &ConnHandle) {
    // The response lands after this dispatch returns, from another
    // thread, so it must hold the connection open as an in-flight
    // completion — otherwise a client that writes one stats op and
    // half-closes would see the FIN before the answer.
    conn.open_in_flight();
    let shared = Arc::clone(shared);
    let conn = conn.clone();
    let _ = std::thread::Builder::new()
        .name("router-stats".to_string())
        .spawn(move || {
            let snap = merged_snapshot(&shared);
            let body = if full {
                snap.encode_text()
            } else {
                snap.render()
            };
            conn.send(stats_response(id, body), true);
        });
}

fn stats_response(id: u64, body: String) -> Vec<u8> {
    encode_response(&ResponseFrame {
        id,
        status: RespStatus::Ok,
        retry_after_ms: 0,
        backend: ROUTER_BACKEND_ID,
        body,
    })
}

/// [`ConnHandler`] for one client connection: decode → route, run as
/// shard callbacks, with responses flowing back through the
/// connection's own send queue.
struct RouterClient {
    shared: Arc<Shared>,
    /// This connection's key in the router's `conns` table.
    conn_id: u64,
}

impl ConnHandler for RouterClient {
    fn on_frame(&mut self, payload: Result<Vec<u8>, WireError>, conn: &ConnHandle) {
        let keep = match payload {
            Ok(bytes) => dispatch_client(&self.shared, bytes, conn),
            Err(e) => {
                reject_client(format!("malformed frame: {e}"), conn);
                false
            }
        };
        if !keep {
            conn.close_after_flush();
        }
    }

    fn on_close(&mut self, _graceful: bool) {
        // Responses for this connection's in-flight forwards resolve
        // through the pending table and are discarded by the dead
        // handle; only the table entry needs tearing down.
        self.shared
            .conns
            .lock()
            .expect("conn table poisoned")
            .remove(&self.conn_id);
        self.shared.all_closed.notify_all();
    }
}

/// Routes one client request: hash the cache key, pick the owning live
/// backend from the **current view** — unless its forward-RTT EWMA
/// says it is drowning (more than twice the EWMA of its ring
/// successor), in which case every other request spills to that
/// successor, the same backend failover would pick (see
/// [`Ring::route_balanced`] for the hedge rationale). No live backend
/// sheds immediately and honestly.
fn forward(
    shared: &Arc<Shared>,
    client_id: u64,
    req: &serve::server::Request,
    payload: Vec<u8>,
    out: &ConnHandle,
) {
    let key = request_key(req);
    let view = shared.current_view();
    let target = view.ring.as_ref().and_then(|ring| {
        ring.route_balanced(
            key,
            |b| view.slot(b).is_some_and(|s| s.health.is_up()),
            |b| view.slot(b).map_or(0, |s| s.health.ewma_us()),
            shared.spill_tick.fetch_add(1, Ordering::Relaxed),
        )
    });
    let Some(backend) = target else {
        shared.robs.no_backend_shed.inc();
        shared.robs.synthesized_shed.inc();
        out.send(
            encode_response(&ResponseFrame {
                id: client_id,
                status: RespStatus::Shed,
                retry_after_ms: SHED_RETRY_MS,
                backend: ROUTER_BACKEND_ID,
                body: format!("{SHED_BODY_PREFIX}: no live backend"),
            }),
            false,
        );
        return;
    };
    let rid = shared.next_router_id.fetch_add(1, Ordering::Relaxed);
    let mut bytes = Vec::with_capacity(4 + payload.len());
    bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    bytes.extend_from_slice(&payload);
    bytes[4 + ID_OFFSET..4 + ID_OFFSET + 8].copy_from_slice(&rid.to_be_bytes());
    out.open_in_flight();
    shared.robs.forwarded.inc();
    let p = Pending {
        client_out: out.clone(),
        client_id,
        backend,
        key_hash: key,
        bytes,
        rerouted: false,
        sent_at: Instant::now(),
    };
    // `resend` is also the fresh-send path: insert pending, write,
    // cascade on failure.
    resend(shared, p);
}
