//! The course server: the pool and the cache composed into a
//! request/response front end for the course's real workloads — grading
//! an assembly submission (`cs31::autograde`), generating a homework
//! variant (`cs31::homework`), and running a registered `reproduce`
//! experiment — with **class-aware admission** (explicit backpressure,
//! per-class queue budgets, lowest-class-first load shedding,
//! deadline-aware retry hints), result caching by request key, and
//! graceful shutdown that drains every accepted request.
//!
//! ## Admission pipeline
//!
//! Every request is classified by the configured [`AdmissionPolicy`]
//! into a [`JobMeta`] (`class`, `priority`, `deadline`) before anything
//! else happens, and that metadata follows the job through the whole
//! pipeline:
//!
//! 1. **per-class budget** — each class may occupy at most
//!    `admit_limit(class)` of the admission queue, so bulk work can
//!    never fill the queue wall-to-wall and lock interactive work out;
//! 2. **ready cache hit** — a request whose result the cache already
//!    holds `Ready` is admitted and completed right here, on the
//!    submitting thread: no queue slot, no shed-registry entry, no pool
//!    job (`serve.inline_hits.<class>`). Absent and still-`Computing`
//!    keys go on to the pool, whose compute-once lookup computes or
//!    waits for them;
//! 3. **global bound** — the admission semaphore caps total in-flight
//!    work; when it is exhausted an incoming request may **displace**
//!    (shed) the newest queued request of a *lower* class: the victim's
//!    ticket resolves immediately with an honest `ok: false` "shed
//!    under load" response and its queue slot transfers to the
//!    newcomer;
//! 4. **scheduling** — the job is submitted to the pool with its meta,
//!    so under [`Scheduler::PriorityLanes`] grade-class work overtakes
//!    the bulk backlog (with the pool's aging rule keeping bulk work
//!    from starving);
//! 5. **rejection** — when neither a slot nor a victim exists the
//!    caller gets a [`Rejected`] whose `retry_after_ms` respects the
//!    request's deadline: never a hint that lands after the deadline
//!    has already passed.
//!
//! Per-class counters (admitted / completed / shed / rejected /
//! deadline-missed) are kept on both the server and the pool, so the
//! scheduling win is *measured*, not asserted — see experiment E13.

use crate::cache::{Cache, CacheStats};
use crate::fault::{FaultPlan, FaultPoint};
use crate::pool::{JobClass, JobMeta, PoolStats, Scheduler, ThreadPool};
use cs31::autograde;
use cs31::homework;
use parallel::Semaphore;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A course workload. The enum *is* the cache key: two requests are
/// the same work iff they compare equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Request {
    /// Grade an assembly submission against the Lab 4 sum-array rubric.
    Grade {
        /// AT&T-syntax submission source.
        submission: String,
    },
    /// Generate one homework problem variant.
    Homework {
        /// Generator name from `cs31::homework::generators()`.
        generator: String,
        /// Variant seed.
        seed: u64,
    },
    /// Run a registered experiment (the `reproduce` ids, when wired via
    /// [`CourseServer::with_experiments`]).
    Reproduce {
        /// Experiment id, e.g. `"e6"`.
        id: String,
    },
    /// Run Game of Life generations (`crates/life`, the Lab 6/10
    /// workload) — a real course compute with genuinely heavy-tailed,
    /// cache-friendly service times: cost scales with `w * h * steps`
    /// and the parameter tuple is the cache key, so repeated variants
    /// hit. Dimensions and steps are bounded (≤ [`LIFE_MAX_DIM`],
    /// ≤ [`LIFE_MAX_STEPS`]); out-of-range requests get `ok: false`.
    Life {
        /// Grid width (columns), `1..=LIFE_MAX_DIM`.
        w: u32,
        /// Grid height (rows), `1..=LIFE_MAX_DIM`.
        h: u32,
        /// Generations to run, `1..=LIFE_MAX_STEPS`.
        steps: u32,
        /// Seed for the random initial grid (35% density, toroidal).
        seed: u64,
    },
    /// Run a memory-hierarchy cache simulation (`crates/memsim`, the
    /// Lab 5 workload): replay a named access pattern against an
    /// 8 KiB 2-way cache and report hits, misses, AMAT, and cycles.
    /// Like [`Request::Life`], the parameter tuple is the cache key,
    /// so repeated variants hit. Access counts are bounded
    /// (≤ [`MEMTRACE_MAX_ACCESSES`]); unknown patterns and
    /// out-of-range counts get `ok: false`.
    MemTrace {
        /// Access pattern: one of [`MEMTRACE_PATTERNS`]
        /// (`seq`, `stride`, `random`, `ws`, `rmw`).
        pattern: String,
        /// Memory accesses to replay, `1..=MEMTRACE_MAX_ACCESSES`.
        accesses: u32,
        /// Varies the base address (and, for `random`, the address
        /// sequence) without changing the work size.
        seed: u64,
    },
}

/// Largest grid dimension [`Request::Life`] accepts.
pub const LIFE_MAX_DIM: u32 = 256;
/// Largest generation count [`Request::Life`] accepts.
pub const LIFE_MAX_STEPS: u32 = 512;
/// Largest access count [`Request::MemTrace`] accepts.
pub const MEMTRACE_MAX_ACCESSES: u32 = 1 << 16;
/// Patterns [`Request::MemTrace`] understands.
pub const MEMTRACE_PATTERNS: [&str; 5] = ["seq", "stride", "random", "ws", "rmw"];

/// What the server hands back for a completed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// `false` when the handler failed (unknown id, handler panic) or
    /// the request was shed under load; the body carries the reason.
    pub ok: bool,
    /// Rendered result (grade report, problem text, experiment table).
    pub body: String,
    /// `true` when the result came from the cache without re-running
    /// the workload.
    pub cached: bool,
}

/// Admission rejection. Carries an honest backpressure signal instead
/// of blocking the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejected {
    /// Requests currently admitted (queued + running).
    pub in_flight: usize,
    /// Suggested client backoff before retrying. Deadline-aware: never
    /// longer than half the request's remaining deadline budget, and
    /// `0` ("retrying is already pointless") once the deadline has
    /// passed.
    pub retry_after_ms: u64,
    /// The class the rejected request was classified into.
    pub class: JobClass,
}

/// Error for [`CourseServer::submit`] after shutdown began.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShuttingDown;

/// Every shed response's body starts with this prefix. Front ends that
/// only see the [`Response`] (the TCP layer, which must translate a
/// shed completion into a wire-level SHED frame) match on it instead of
/// guessing at prose.
pub const SHED_BODY_PREFIX: &str = "shed under load";

/// How the server classifies and budgets incoming requests.
///
/// The policy is consulted on every submit: [`classify`] turns the
/// request into the [`JobMeta`] that follows it through scheduling and
/// shedding, [`admit_limit`] bounds how much of the admission queue one
/// class may occupy, and [`displaces`] decides which queued classes an
/// incoming request may shed when the queue is full.
///
/// [`classify`]: AdmissionPolicy::classify
/// [`admit_limit`]: AdmissionPolicy::admit_limit
/// [`displaces`]: AdmissionPolicy::displaces
pub trait AdmissionPolicy: Send + Sync + std::fmt::Debug {
    /// The scheduling metadata for `req` (class, priority, deadline —
    /// deadlines are measured from the moment of classification).
    fn classify(&self, req: &Request) -> JobMeta;

    /// Maximum in-flight requests of `class` given the total admission
    /// capacity. Must return at least 1, or the class is unservable.
    fn admit_limit(&self, class: JobClass, queue_capacity: usize) -> usize;

    /// Whether an incoming request of class `incoming` may displace a
    /// *queued* (not yet started) request of class `queued` when the
    /// admission queue is full.
    fn displaces(&self, incoming: JobClass, queued: JobClass) -> bool;

    /// Feedback: the measured service time of a request of `class`
    /// whose handler actually ran (cache hits are not observations).
    /// Called by the server from the worker thread after every computed
    /// response. The default ignores it; [`AdaptiveAdmission`] uses it
    /// to keep a per-class EWMA that drives its budgets and deadlines.
    fn observe(&self, _class: JobClass, _service: Duration) {}
}

/// The default policy: grade lookups are interactive with a tight
/// deadline, homework generation is batch, reproduce runs are bulk.
///
/// * **classify** — `Grade` → `Interactive`, priority 160, deadline
///   +500ms; `Homework` → `Batch`, priority 128, deadline +5s;
///   `Reproduce` → `Bulk`, priority 64, no deadline.
/// * **admit_limit** — `Interactive` may fill the whole queue, `Batch`
///   three quarters, `Bulk` half (each at least 1), so bulk load can
///   never crowd out a grade request entirely.
/// * **displaces** — strictly higher classes displace lower ones
///   (`Interactive` sheds `Batch`/`Bulk`, `Batch` sheds `Bulk`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassAwareAdmission;

impl AdmissionPolicy for ClassAwareAdmission {
    fn classify(&self, req: &Request) -> JobMeta {
        match req {
            Request::Grade { .. } => JobMeta::for_class(JobClass::Interactive)
                .with_priority(160)
                .with_deadline(Instant::now() + Duration::from_millis(500)),
            Request::Homework { .. } => JobMeta::for_class(JobClass::Batch)
                .with_deadline(Instant::now() + Duration::from_secs(5)),
            // Life shares Homework's class/budget: real batch compute,
            // slightly below Homework so generated problem sets win
            // ties.
            Request::Life { .. } => JobMeta::for_class(JobClass::Batch)
                .with_priority(112)
                .with_deadline(Instant::now() + Duration::from_secs(5)),
            // MemTrace is batch compute like Life: real simulation
            // work, priority between Homework and Life.
            Request::MemTrace { .. } => JobMeta::for_class(JobClass::Batch)
                .with_priority(120)
                .with_deadline(Instant::now() + Duration::from_secs(5)),
            Request::Reproduce { .. } => JobMeta::for_class(JobClass::Bulk).with_priority(64),
        }
    }

    fn admit_limit(&self, class: JobClass, queue_capacity: usize) -> usize {
        match class {
            JobClass::Interactive => queue_capacity,
            JobClass::Batch => (queue_capacity * 3 / 4).max(1),
            JobClass::Bulk => (queue_capacity / 2).max(1),
        }
    }

    fn displaces(&self, incoming: JobClass, queued: JobClass) -> bool {
        incoming > queued
    }
}

/// Class-aware admission whose budgets and deadlines *adapt to the
/// observed workload* instead of being policy constants.
///
/// [`ClassAwareAdmission`] hard-codes two kinds of numbers: each
/// class's deadline (+500ms, +5s, none) and each class's share of the
/// admission queue (full, 3/4, 1/2). Those constants are right for the
/// course's nominal workload and wrong the moment reproduce runs get
/// 10x slower or grading gets trivially cheap. This policy derives both
/// from an EWMA of observed per-class service times, fed by the
/// server's [`AdmissionPolicy::observe`] hook (weight 1/8 to the newest
/// sample):
///
/// * **deadline** — `DEADLINE_SERVICE_MULTIPLE` (4x) the class EWMA,
///   clamped to the class's `[floor, ceiling]` band, so a deadline is
///   always a few service times away: tight when the class is fast,
///   realistic when it is slow, never tighter than the floor (a grade
///   cannot be deadlined below 25ms however fast grading gets). Bulk
///   work stays deadline-free. Before the first observation the
///   ceiling (the [`ClassAwareAdmission`] constant) is used.
/// * **queue budget** — the number of this class's jobs one worker
///   could drain within the class's *patience window*
///   (`patience / ewma`), capped by the same static share
///   [`ClassAwareAdmission`] grants and floored at 1. A class observed
///   to be slow gets a small budget (admitting a deep queue of 200ms
///   jobs just converts backpressure into timeouts); a fast class gets
///   its full static share.
///
/// Classification (which request is which class, who displaces whom)
/// is inherited unchanged from the static policy.
#[derive(Debug, Default)]
pub struct AdaptiveAdmission {
    /// Observed mean service time per class, EWMA, in microseconds.
    /// 0 = no observation yet.
    ewma_micros: [AtomicU64; JobClass::COUNT],
}

/// A deadline is this many observed service times after admission.
pub const DEADLINE_SERVICE_MULTIPLE: u64 = 4;

impl AdaptiveAdmission {
    /// `[floor, ceiling]` for each class's adaptive deadline, by band.
    /// Ceilings are the [`ClassAwareAdmission`] constants; `None` means
    /// the class never carries a deadline.
    const DEADLINE_BANDS: [Option<(Duration, Duration)>; JobClass::COUNT] = [
        Some((Duration::from_millis(25), Duration::from_millis(500))),
        Some((Duration::from_millis(250), Duration::from_secs(5))),
        None,
    ];

    /// How long a queued job of each class may reasonably wait, by
    /// band — the patience window its queue budget is derived from.
    const PATIENCE: [Duration; JobClass::COUNT] = [
        Duration::from_millis(500),
        Duration::from_secs(2),
        Duration::from_secs(4),
    ];

    /// The observed mean service time of `class`, if any request of
    /// that class has completed yet.
    pub fn observed_service(&self, class: JobClass) -> Option<Duration> {
        match self.ewma_micros[class.band()].load(Ordering::Relaxed) {
            0 => None,
            us => Some(Duration::from_micros(us)),
        }
    }

    fn adaptive_deadline(&self, class: JobClass) -> Option<Duration> {
        let (floor, ceiling) = Self::DEADLINE_BANDS[class.band()]?;
        Some(match self.observed_service(class) {
            None => ceiling,
            Some(ewma) => (ewma * DEADLINE_SERVICE_MULTIPLE as u32).clamp(floor, ceiling),
        })
    }
}

impl AdmissionPolicy for AdaptiveAdmission {
    fn classify(&self, req: &Request) -> JobMeta {
        let (class, priority) = match req {
            Request::Grade { .. } => (JobClass::Interactive, 160),
            Request::Homework { .. } => (JobClass::Batch, 128),
            Request::Life { .. } => (JobClass::Batch, 112),
            Request::MemTrace { .. } => (JobClass::Batch, 120),
            Request::Reproduce { .. } => (JobClass::Bulk, 64),
        };
        let mut meta = JobMeta::for_class(class).with_priority(priority);
        if let Some(budget) = self.adaptive_deadline(class) {
            meta = meta.with_deadline(Instant::now() + budget);
        }
        meta
    }

    fn admit_limit(&self, class: JobClass, queue_capacity: usize) -> usize {
        let share = ClassAwareAdmission.admit_limit(class, queue_capacity);
        match self.observed_service(class) {
            None => share,
            Some(ewma) => {
                let drainable =
                    (Self::PATIENCE[class.band()].as_micros() / ewma.as_micros().max(1)) as usize;
                drainable.clamp(1, share)
            }
        }
    }

    fn displaces(&self, incoming: JobClass, queued: JobClass) -> bool {
        incoming > queued
    }

    fn observe(&self, class: JobClass, service: Duration) {
        let sample = (service.as_micros() as u64).max(1);
        let slot = &self.ewma_micros[class.band()];
        // Racy read-modify-write is fine: the EWMA is a smoothing
        // heuristic, and a lost update just weights a neighbor sample.
        let old = slot.load(Ordering::Relaxed);
        let new = if old == 0 {
            sample
        } else {
            (old * 7 + sample) / 8
        };
        slot.store(new, Ordering::Relaxed);
    }
}

/// The pre-refactor policy, kept as a measurable baseline: everything
/// is one class (`Batch`, default meta), every class may fill the whole
/// queue, nothing is ever displaced — admission is pure
/// first-come-first-served.
#[derive(Debug, Clone, Copy, Default)]
pub struct FcfsAdmission;

impl AdmissionPolicy for FcfsAdmission {
    fn classify(&self, _req: &Request) -> JobMeta {
        JobMeta::default()
    }

    fn admit_limit(&self, _class: JobClass, queue_capacity: usize) -> usize {
        queue_capacity
    }

    fn displaces(&self, _incoming: JobClass, _queued: JobClass) -> bool {
        false
    }
}

/// Sizing knobs for [`CourseServer::new`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Admission bound: maximum requests queued or running at once.
    pub queue_capacity: usize,
    /// Result-cache shards.
    pub cache_shards: usize,
    /// LRU capacity per cache shard.
    pub cache_capacity_per_shard: usize,
    /// Queue topology for the worker pool. Defaults to
    /// [`Scheduler::WorkStealing`]; use [`Scheduler::PriorityLanes`] to
    /// let the admission classes drive scheduling order, or
    /// [`Scheduler::SharedFifo`] for the single-queue baseline.
    pub scheduler: Scheduler,
    /// Request classification and budgeting. Defaults to
    /// [`ClassAwareAdmission`]; [`FcfsAdmission`] restores the old
    /// first-come-first-served behavior as a measurable baseline.
    pub admission: Arc<dyn AdmissionPolicy>,
    /// Optional seeded fault injection for tests: panic/stall handlers
    /// at chosen points. `None` (the default) injects nothing.
    pub fault_plan: Option<FaultPlan>,
    /// Metrics registry the server (and its pool) mirror their counters
    /// into. Defaults to a fresh live [`obs::Registry`] per server; pass
    /// [`obs::Registry::disabled`] to compile every recording site down
    /// to a never-taken branch (the "obs off" arm of experiment E15), or
    /// a shared registry to aggregate several servers.
    pub registry: obs::Registry,
    /// Capacity (in spans) of the request-lifecycle trace ring. Rounded
    /// up to a power of two; old spans are overwritten, so memory is
    /// bounded by construction.
    pub trace_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            cache_shards: 8,
            cache_capacity_per_shard: 32,
            scheduler: Scheduler::default(),
            admission: Arc::new(ClassAwareAdmission),
            fault_plan: None,
            registry: obs::Registry::new(),
            trace_capacity: 256,
        }
    }
}

/// An experiment runner, as exported by `bench::all_experiments`.
pub type ExperimentFn = fn() -> String;

/// A one-shot handle to a submitted request's eventual [`Response`].
pub struct Ticket {
    promise: Arc<Promise>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("resolved", &self.try_get().is_some())
            .finish()
    }
}

/// The resolution slot plus the callbacks waiting on it. Callbacks
/// registered before resolution run on the resolving thread (worker or
/// shedder) the moment the response publishes — the mechanism the TCP
/// front end uses to complete pipelined requests out of order without
/// parking a thread per request.
type ReadyCallback = Box<dyn FnOnce(&Response) + Send>;

#[derive(Default)]
struct PromiseState {
    response: Option<Response>,
    callbacks: Vec<ReadyCallback>,
}

struct Promise {
    state: Mutex<PromiseState>,
    done: Condvar,
}

impl Promise {
    fn new() -> Arc<Promise> {
        Arc::new(Promise {
            state: Mutex::new(PromiseState::default()),
            done: Condvar::new(),
        })
    }

    /// Publishes `resp` exactly once: runs `count` under the state lock
    /// (the counter-then-publish discipline — whoever sees the resolved
    /// ticket also sees the counters), then wakes blocking waiters and
    /// runs every registered callback outside the lock.
    fn resolve(&self, resp: Response, count: impl FnOnce()) {
        let callbacks = {
            let mut st = self.state.lock().expect("ticket mutex poisoned");
            count();
            st.response = Some(resp.clone());
            std::mem::take(&mut st.callbacks)
        };
        self.done.notify_all();
        for cb in callbacks {
            cb(&resp);
        }
    }
}

impl Ticket {
    /// Blocks until the request completes and returns its response.
    /// Every accepted request is eventually completed — run, shed
    /// under load, or drained through pool drop — so this cannot hang
    /// on a live server.
    pub fn wait(&self) -> Response {
        let mut st = self.promise.state.lock().expect("ticket mutex poisoned");
        loop {
            if let Some(resp) = st.response.as_ref() {
                return resp.clone();
            }
            st = self.promise.done.wait(st).expect("ticket mutex poisoned");
        }
    }

    /// Non-blocking poll.
    pub fn try_get(&self) -> Option<Response> {
        self.promise
            .state
            .lock()
            .expect("ticket mutex poisoned")
            .response
            .clone()
    }

    /// Registers `f` to run with the response when the ticket resolves
    /// (immediately, on this thread, if it already has). Resolution
    /// runs callbacks on the resolving thread — keep them short; the
    /// intended use is handing the response to another queue, the way
    /// the TCP front end forwards it to a connection's writer.
    pub fn on_ready(&self, f: impl FnOnce(&Response) + Send + 'static) {
        let mut st = self.promise.state.lock().expect("ticket mutex poisoned");
        if let Some(resp) = st.response.clone() {
            drop(st);
            f(&resp);
        } else {
            st.callbacks.push(Box::new(f));
        }
    }
}

/// Per-class request counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassServerStats {
    /// The class these counters describe.
    pub class: JobClass,
    /// Requests of this class admitted past backpressure.
    pub admitted: u64,
    /// Requests of this class completed by running their workload.
    pub completed: u64,
    /// Requests of this class displaced (shed) by higher-class
    /// admission while still queued; their tickets resolved with
    /// `ok: false`.
    pub shed: u64,
    /// Requests of this class rejected at admission (class budget or
    /// full queue with nothing shedable).
    pub rejected: u64,
    /// Requests of this class answered at admission from a `Ready`
    /// cache entry, on the submitting thread and without a pool job
    /// (also counted in `admitted` and `completed`). Every other
    /// admitted request became exactly one pool job:
    /// pool `submitted + inline_hits == admitted`.
    pub inline_hits: u64,
    /// Jobs of this class that started past their deadline (pool
    /// counter; includes shed no-ops claimed after the deadline).
    pub deadline_missed: u64,
    /// Requests of this class currently admitted but neither completed
    /// nor shed (`admitted - completed - shed` at snapshot time).
    pub in_flight: u64,
}

/// Aggregate request counters plus the pool and cache snapshots.
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Requests admitted past backpressure.
    pub accepted: u64,
    /// Requests rejected by the admission bound or a class budget.
    pub rejected: u64,
    /// Requests whose workload ran to completion.
    pub completed: u64,
    /// Requests displaced while queued (tickets resolved `ok: false`).
    pub shed: u64,
    /// Per-class breakdown, in [`JobClass::ALL`] order (highest class
    /// first).
    pub per_class: Vec<ClassServerStats>,
    /// Result-cache counters.
    pub cache: CacheStats,
    /// Worker-pool counters.
    pub pool: PoolStats,
}

/// Per-class atomic counters (internal).
#[derive(Debug, Default)]
struct ClassLedger {
    admitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    inline_hits: AtomicU64,
}

/// A queued-but-not-started request, registered so higher-class
/// admission can displace it. `taken` is the single-owner latch: the
/// worker closure and any shedder race to CAS it `false → true`;
/// exactly one side wins and resolves the ticket.
struct QueuedEntry {
    taken: Arc<AtomicBool>,
    promise: Arc<Promise>,
    /// When admission granted the slot — the start of the queue-wait
    /// stage, measured by whichever side (worker or shedder) wins the
    /// `taken` race.
    admitted_at: Instant,
    /// Trace span id (admission order) for the lifecycle record.
    span_id: u64,
}

/// Registry mirrors of the admission ledgers plus the lifecycle tracer
/// (PR 5). The completed/shed mirrors increment inside the same
/// count-then-publish closure as the ledgers, and the admitted mirror
/// increments only once the request is irrevocably admitted — so after
/// a drain, `serve.admitted.<class>` equals
/// `serve.completed.<class> + serve.shed.<class>` exactly like the
/// `ServerStats` ledgers.
struct ServeObs {
    admitted: [obs::Counter; JobClass::COUNT],
    completed: [obs::Counter; JobClass::COUNT],
    shed: [obs::Counter; JobClass::COUNT],
    rejected: [obs::Counter; JobClass::COUNT],
    inline_hits: [obs::Counter; JobClass::COUNT],
    tracer: obs::Tracer,
}

impl ServeObs {
    fn new(registry: &obs::Registry, trace_capacity: usize) -> ServeObs {
        let class_counters = |what: &str| {
            std::array::from_fn(|band| {
                registry.counter(&format!("serve.{what}.{}", JobClass::from_band(band)))
            })
        };
        let labels: Vec<String> = (0..JobClass::COUNT)
            .map(|band| JobClass::from_band(band).to_string())
            .collect();
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        ServeObs {
            admitted: class_counters("admitted"),
            completed: class_counters("completed"),
            shed: class_counters("shed"),
            rejected: class_counters("rejected"),
            inline_hits: class_counters("inline_hits"),
            tracer: obs::Tracer::new(trace_capacity, registry, &label_refs),
        }
    }
}

struct ServerInner {
    cache: Cache<Request, Response>,
    experiments: Vec<(String, ExperimentFn)>,
    fault_plan: Option<FaultPlan>,
    policy: Arc<dyn AdmissionPolicy>,
    slots: Semaphore,
    queue_capacity: usize,
    workers: usize,
    accepting: AtomicBool,
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    per_class: [ClassLedger; JobClass::COUNT],
    /// Shed registry: queued-but-not-started requests, one deque per
    /// class band. Entries whose `taken` flag is set are dead weight,
    /// pruned opportunistically from both ends on insert.
    shed_queues: [Mutex<VecDeque<QueuedEntry>>; JobClass::COUNT],
    /// Submissions currently inside `submit` past the accepting check.
    /// Shutdown waits for this to reach zero before draining the pool,
    /// closing the admitted-but-not-yet-enqueued window.
    open: Mutex<usize>,
    open_zero: Condvar,
    /// The metrics registry this server reports into (shared with its
    /// pool, the tracer, and — through [`CourseServer::registry`] — the
    /// TCP front end).
    registry: obs::Registry,
    /// Registry mirrors of the ledgers plus the lifecycle tracer.
    obs: ServeObs,
}

impl ServerInner {
    /// Runs the workload for `req` (no caching at this layer). Both
    /// fault points fire inside the caller's panic isolation, so an
    /// injected panic resolves the ticket with an error and poisons
    /// only this request's cache slot.
    fn handle(&self, req: &Request) -> Response {
        if let Some(plan) = &self.fault_plan {
            plan.fire(FaultPoint::BeforeHandle);
        }
        let response = self.handle_inner(req);
        if let Some(plan) = &self.fault_plan {
            plan.fire(FaultPoint::AfterHandle);
        }
        response
    }

    fn handle_inner(&self, req: &Request) -> Response {
        match req {
            Request::Grade { submission } => {
                let report = autograde::grade(submission, &autograde::sum_array_rubric(), 200_000);
                Response {
                    ok: true,
                    body: report.render(),
                    cached: false,
                }
            }
            Request::Homework { generator, seed } => {
                match homework::generators()
                    .into_iter()
                    .find(|(name, _)| name == generator)
                {
                    Some((_, gen)) => {
                        let p = gen(*seed);
                        Response {
                            ok: true,
                            body: format!(
                                "[{}]\n{}\n--- solution ---\n{}",
                                p.set, p.prompt, p.solution
                            ),
                            cached: false,
                        }
                    }
                    None => Response {
                        ok: false,
                        body: format!("unknown homework generator {generator:?}"),
                        cached: false,
                    },
                }
            }
            Request::Life { w, h, steps, seed } => {
                if *w == 0
                    || *h == 0
                    || *steps == 0
                    || *w > LIFE_MAX_DIM
                    || *h > LIFE_MAX_DIM
                    || *steps > LIFE_MAX_STEPS
                {
                    return Response {
                        ok: false,
                        body: format!(
                            "life parameters out of range: {w}x{h} steps {steps} \
                             (limits {LIFE_MAX_DIM}x{LIFE_MAX_DIM}, {LIFE_MAX_STEPS} steps)"
                        ),
                        cached: false,
                    };
                }
                match life::grid::Grid::random(
                    *h as usize,
                    *w as usize,
                    0.35,
                    *seed,
                    life::grid::Boundary::Toroidal,
                ) {
                    Ok(grid) => {
                        let (last, rounds) = life::serial::run(grid, *steps as usize);
                        let (births, deaths) = rounds
                            .iter()
                            .fold((0u64, 0u64), |(b, d), r| (b + r.births, d + r.deaths));
                        // A cheap order-sensitive digest of the final
                        // board so clients (and parity tests) can
                        // compare full outcomes, not just populations.
                        let checksum = last.cells().iter().enumerate().fold(
                            0xcbf2_9ce4_8422_2325u64,
                            |acc, (i, &alive)| {
                                (acc ^ ((i as u64) << 1 | u64::from(alive)))
                                    .wrapping_mul(0x100_0000_01b3)
                            },
                        );
                        Response {
                            ok: true,
                            body: format!(
                                "life {w}x{h} seed {seed}: {steps} steps, \
                                 population {}, births {births}, deaths {deaths}, \
                                 checksum {checksum:016x}",
                                last.population()
                            ),
                            cached: false,
                        }
                    }
                    Err(e) => Response {
                        ok: false,
                        body: format!("life grid rejected: {e:?}"),
                        cached: false,
                    },
                }
            }
            Request::MemTrace {
                pattern,
                accesses,
                seed,
            } => {
                if *accesses == 0 || *accesses > MEMTRACE_MAX_ACCESSES {
                    return Response {
                        ok: false,
                        body: format!(
                            "memtrace accesses out of range: {accesses} \
                             (limit {MEMTRACE_MAX_ACCESSES})"
                        ),
                        cached: false,
                    };
                }
                // The seed shifts the base address (cache-line aligned)
                // so distinct seeds are distinct cache keys without
                // changing the work size.
                let base = (seed & 0xFFFF) * 64;
                let n = *accesses as usize;
                let trace = match pattern.as_str() {
                    "seq" => memsim::patterns::strided_trace(base, n, 4),
                    "stride" => memsim::patterns::strided_trace(base, n, 64),
                    "random" => memsim::patterns::random_trace(base, 1 << 20, n, *seed),
                    // 8 KiB working set = exactly the simulated cache's
                    // capacity; reps sized so the event count ≈ n.
                    "ws" => memsim::patterns::working_set_trace(base, 8192, 64, (n / 128).max(1)),
                    "rmw" => memsim::patterns::rmw_trace(base, n.div_ceil(2), 64),
                    other => {
                        return Response {
                            ok: false,
                            body: format!(
                                "unknown memtrace pattern {other:?} \
                                 (expected one of {MEMTRACE_PATTERNS:?})"
                            ),
                            cached: false,
                        }
                    }
                };
                let config = memsim::cache::CacheConfig::set_associative(64, 2, 64);
                let mut cache = memsim::cache::Cache::new(config).expect("valid static config");
                cache.run_trace(&trace);
                let stats = cache.stats();
                Response {
                    ok: true,
                    body: format!(
                        "memtrace {pattern} seed {seed}: {} accesses, \
                         {} hits, {} misses, hit rate {:.3}, amat {:.2}, cycles {}",
                        trace.len(),
                        stats.hits,
                        stats.misses,
                        stats.hit_rate(),
                        cache.amat(),
                        cache.total_cycles()
                    ),
                    cached: false,
                }
            }
            Request::Reproduce { id } => match self.experiments.iter().find(|(eid, _)| eid == id) {
                Some((_, run)) => Response {
                    ok: true,
                    body: run(),
                    cached: false,
                },
                None => Response {
                    ok: false,
                    body: format!("unknown experiment id {id:?} (is it registered?)"),
                    cached: false,
                },
            },
        }
    }

    /// In-flight requests of the class at `band`:
    /// admitted − completed − shed.
    fn class_in_flight(&self, band: usize) -> u64 {
        let ledger = &self.per_class[band];
        ledger
            .admitted
            .load(Ordering::SeqCst)
            .saturating_sub(ledger.completed.load(Ordering::SeqCst))
            .saturating_sub(ledger.shed.load(Ordering::SeqCst))
    }

    /// Builds the deadline-aware rejection for a request with `meta`.
    fn busy(&self, meta: &JobMeta) -> Rejected {
        let in_flight = self.queue_capacity - self.slots.available();
        // Rough honest base hint: one worker-sweep of the backlog.
        let base = ((in_flight as u64).saturating_mul(2) / self.workers as u64).max(1);
        let retry_after_ms = match meta.deadline {
            None => base,
            Some(deadline) => {
                let remaining = deadline
                    .saturating_duration_since(Instant::now())
                    .as_millis() as u64;
                if remaining == 0 {
                    // The deadline already passed: retrying cannot
                    // possibly be useful; say so honestly.
                    0
                } else {
                    // Never hint a backoff that lands the retry past
                    // the deadline: cap at half the remaining budget.
                    base.min((remaining / 2).max(1))
                }
            }
        };
        Rejected {
            in_flight,
            retry_after_ms,
            class: meta.class,
        }
    }

    /// Tries to displace the newest queued (not yet started) request of
    /// a class below `incoming`, lowest class first. On success the
    /// victim's ticket is resolved with an `ok: false` shed response
    /// and its admission slot is considered transferred to the caller
    /// (the victim's worker closure becomes a no-op that does *not*
    /// release the semaphore).
    fn shed_one_below(&self, incoming: JobClass) -> bool {
        for band in (0..JobClass::COUNT).rev() {
            let queued_class = JobClass::from_band(band);
            if !self.policy.displaces(incoming, queued_class) {
                continue;
            }
            let victim = {
                let mut q = self.shed_queues[band].lock().expect("shed queue poisoned");
                let mut found = None;
                // Newest victim first: the request that has invested
                // the least waiting is the cheapest to turn away.
                for i in (0..q.len()).rev() {
                    let taken = &q[i].taken;
                    if taken
                        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        found = q.remove(i);
                        break;
                    }
                }
                found
            };
            if let Some(entry) = victim {
                // Count before publishing under the promise lock, same
                // discipline as completion: whoever sees the resolved
                // ticket also sees the counter.
                entry.promise.resolve(
                    Response {
                        ok: false,
                        body: format!(
                            "{SHED_BODY_PREFIX}: queued {queued_class} request displaced by \
                             {incoming} admission; retry later"
                        ),
                        cached: false,
                    },
                    || {
                        self.shed.fetch_add(1, Ordering::SeqCst);
                        self.per_class[band].shed.fetch_add(1, Ordering::SeqCst);
                        self.obs.shed[band].inc();
                    },
                );
                let queue_us = entry.admitted_at.elapsed().as_micros() as u64;
                self.obs.tracer.record(&obs::SpanRecord {
                    id: entry.span_id,
                    class: band as u8,
                    outcome: obs::SpanOutcome::Shed,
                    queue_us,
                    service_us: 0,
                    total_us: queue_us,
                });
                return true;
            }
        }
        false
    }

    /// Registers a queued request as a displacement candidate, pruning
    /// already-taken entries from both ends while the lock is held.
    fn register_queued(&self, band: usize, entry: QueuedEntry) {
        let mut q = self.shed_queues[band].lock().expect("shed queue poisoned");
        while q.front().is_some_and(|e| e.taken.load(Ordering::SeqCst)) {
            q.pop_front();
        }
        while q.back().is_some_and(|e| e.taken.load(Ordering::SeqCst)) {
            q.pop_back();
        }
        q.push_back(entry);
    }

    /// Admits and completes, on the submitting thread, a request whose
    /// response the cache already holds `Ready` (probed at `started`):
    /// the ledgers count it admitted and completed under the promise
    /// lock, as a worker would, and the returned ticket is resolved.
    /// Its span has `queue_us = 0`: it never waited for a worker.
    fn answer_inline(&self, band: usize, mut resp: Response, started: Instant) -> Ticket {
        resp.cached = true;
        let promise = Promise::new();
        let mut span_id = 0;
        promise.resolve(resp, || {
            span_id = self.accepted.fetch_add(1, Ordering::SeqCst);
            self.completed.fetch_add(1, Ordering::SeqCst);
            let ledger = &self.per_class[band];
            ledger.admitted.fetch_add(1, Ordering::SeqCst);
            ledger.completed.fetch_add(1, Ordering::SeqCst);
            ledger.inline_hits.fetch_add(1, Ordering::SeqCst);
            self.obs.admitted[band].inc();
            self.obs.completed[band].inc();
            self.obs.inline_hits[band].inc();
        });
        let total_us = started.elapsed().as_micros() as u64;
        self.obs.tracer.record(&obs::SpanRecord {
            id: span_id,
            class: band as u8,
            outcome: obs::SpanOutcome::Completed,
            queue_us: 0,
            service_us: total_us,
            total_us,
        });
        Ticket { promise }
    }
}

/// Decrements the open-submission count on drop, so even a panic
/// inside `submit` (e.g. an injected `BeforeEnqueue` fault) cannot
/// leave shutdown waiting forever.
struct OpenGuard<'a> {
    inner: &'a ServerInner,
}

impl<'a> OpenGuard<'a> {
    fn enter(inner: &'a ServerInner) -> OpenGuard<'a> {
        *inner.open.lock().expect("open counter poisoned") += 1;
        OpenGuard { inner }
    }
}

impl Drop for OpenGuard<'_> {
    fn drop(&mut self) {
        let mut open = self.inner.open.lock().expect("open counter poisoned");
        *open -= 1;
        if *open == 0 {
            self.inner.open_zero.notify_all();
        }
    }
}

/// The thread-pool job server for course workloads.
///
/// Lifecycle: [`CourseServer::submit`] classifies the request via the
/// configured [`AdmissionPolicy`] and either admits it (you get a
/// [`Ticket`]) or rejects it with a deadline-aware retry hint — it
/// never blocks the caller. A request whose result the cache already
/// holds is answered at admission, on the caller's thread. Other
/// admitted requests run on the worker pool
/// with their class metadata (under [`Scheduler::PriorityLanes`] that
/// metadata decides execution order), consult the result cache
/// (compute-once per distinct request), and complete their ticket even
/// if the handler panics. Under pressure a higher-class submit may
/// displace a queued lower-class request; the victim's ticket resolves
/// with an `ok: false` shed response rather than hanging.
/// [`CourseServer::shutdown`] stops admission and drains in-flight
/// work; dropping the server without calling it drains too (pool drop
/// joins after draining).
pub struct CourseServer {
    inner: Arc<ServerInner>,
    pool: ThreadPool,
}

impl std::fmt::Debug for CourseServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CourseServer")
            .field("workers", &self.inner.workers)
            .field("queue_capacity", &self.inner.queue_capacity)
            .field("policy", &self.inner.policy)
            .finish()
    }
}

impl CourseServer {
    /// Builds a server with no experiments registered (Grade and
    /// Homework requests work; Reproduce requests answer `ok: false`).
    pub fn new(config: ServerConfig) -> CourseServer {
        CourseServer::with_experiments(config, Vec::new())
    }

    /// Builds a server that can also run the given experiment registry
    /// (pass `bench::all_experiments()`-shaped pairs).
    pub fn with_experiments(
        config: ServerConfig,
        experiments: Vec<(String, ExperimentFn)>,
    ) -> CourseServer {
        assert!(config.workers > 0, "server needs at least one worker");
        assert!(
            config.queue_capacity > 0,
            "server needs queue capacity >= 1"
        );
        let inner = Arc::new(ServerInner {
            cache: Cache::with_fault_plan(
                config.cache_shards,
                config.cache_capacity_per_shard,
                config.fault_plan.clone(),
            ),
            experiments,
            fault_plan: config.fault_plan,
            policy: config.admission,
            slots: Semaphore::new(config.queue_capacity),
            queue_capacity: config.queue_capacity,
            workers: config.workers,
            accepting: AtomicBool::new(true),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            per_class: std::array::from_fn(|_| ClassLedger::default()),
            shed_queues: std::array::from_fn(|_| Mutex::new(VecDeque::new())),
            open: Mutex::new(0),
            open_zero: Condvar::new(),
            obs: ServeObs::new(&config.registry, config.trace_capacity),
            registry: config.registry.clone(),
        });
        CourseServer {
            inner,
            pool: ThreadPool::with_observability(
                config.workers,
                config.scheduler,
                &config.registry,
            ),
        }
    }

    /// The metrics registry this server mirrors its counters into. The
    /// TCP front end registers its wire-level metrics here too, so one
    /// snapshot covers admission, pool, stage, and network telemetry.
    pub fn registry(&self) -> &obs::Registry {
        &self.inner.registry
    }

    /// The request-lifecycle tracer: recent spans plus the per-stage
    /// duration histograms (`serve.stage.*`) they feed.
    pub fn tracer(&self) -> &obs::Tracer {
        &self.inner.obs.tracer
    }

    /// Submits a request without blocking, classified by the server's
    /// [`AdmissionPolicy`].
    ///
    /// * `Ok(ticket)` — admitted; the ticket resolves exactly once
    ///   (with the computed response, or an `ok: false` shed response
    ///   if a higher-class request displaced it while queued). A
    ///   request the cache already holds `Ready` comes back resolved
    ///   (`cached: true`), answered on this thread without a pool job.
    /// * `Err(SubmitError::Busy(_))` — class budget or queue full with
    ///   nothing shedable; retry after the hinted backoff.
    /// * `Err(SubmitError::ShuttingDown(_))` — shutdown has begun.
    pub fn submit(&self, req: Request) -> Result<Ticket, SubmitError> {
        let meta = self.inner.policy.classify(&req);
        self.submit_with_meta(meta, req)
    }

    /// Like [`CourseServer::submit`], but with explicit scheduling
    /// metadata instead of the policy's classification (the class still
    /// counts against its per-class budget).
    pub fn submit_with_meta(&self, meta: JobMeta, req: Request) -> Result<Ticket, SubmitError> {
        let inner = &self.inner;
        // Count this submission as "open" for the whole admission
        // window, so shutdown cannot slip between our accepting check
        // and the job reaching the pool.
        let _open = OpenGuard::enter(inner);
        if !inner.accepting.load(Ordering::SeqCst) {
            return Err(SubmitError::ShuttingDown(ShuttingDown));
        }
        let band = meta.class.band();

        // Per-class budget: one class may not occupy the whole queue.
        let limit = inner.policy.admit_limit(meta.class, inner.queue_capacity) as u64;
        if inner.class_in_flight(band) >= limit {
            inner.rejected.fetch_add(1, Ordering::Relaxed);
            inner.per_class[band]
                .rejected
                .fetch_add(1, Ordering::Relaxed);
            inner.obs.rejected[band].inc();
            return Err(SubmitError::Busy(inner.busy(&meta)));
        }

        // A `Ready` hit is answered here: no slot, no shed-registry
        // entry, no pool job. Absent and still-`Computing` keys go on
        // to the pool, whose `get_or_insert_with` computes or waits
        // for them (compute-once) and counts them.
        let probed_at = Instant::now();
        if let Some(resp) = inner.cache.get(&req) {
            return Ok(inner.answer_inline(band, resp, probed_at));
        }

        // Global bound: take a free slot, or displace a queued
        // lower-class request and inherit its slot.
        if !inner.slots.try_acquire() && !inner.shed_one_below(meta.class) {
            inner.rejected.fetch_add(1, Ordering::Relaxed);
            inner.per_class[band]
                .rejected
                .fetch_add(1, Ordering::Relaxed);
            inner.obs.rejected[band].inc();
            return Err(SubmitError::Busy(inner.busy(&meta)));
        }

        // The pre-increment value doubles as the trace span id:
        // admission order, unique per server.
        let span_id = inner.accepted.fetch_add(1, Ordering::SeqCst);
        inner.per_class[band]
            .admitted
            .fetch_add(1, Ordering::SeqCst);
        let admitted_at = Instant::now();

        let promise = Promise::new();
        let ticket = Ticket {
            promise: Arc::clone(&promise),
        };
        let taken = Arc::new(AtomicBool::new(false));
        inner.register_queued(
            band,
            QueuedEntry {
                taken: Arc::clone(&taken),
                promise: Arc::clone(&promise),
                admitted_at,
                span_id,
            },
        );
        if let Some(plan) = &inner.fault_plan {
            plan.fire(FaultPoint::BeforeEnqueue);
        }

        let job_inner = Arc::clone(&self.inner);
        let job_taken = Arc::clone(&taken);
        let submit_result = self.pool.execute_with_meta(meta, move || {
            // Lose the race against a shedder and there is nothing to
            // do: the ticket is already resolved and our admission slot
            // was transferred to the displacing request.
            if job_taken
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                return;
            }
            // Winning the `taken` race ends the queue-wait stage and
            // starts the executing stage of the lifecycle span.
            let claimed_at = Instant::now();
            let ran_here = Arc::new(AtomicBool::new(false));
            let ran_flag = Arc::clone(&ran_here);
            let inner_for_job = Arc::clone(&job_inner);
            let req_for_job = req.clone();
            let run_start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                inner_for_job.cache.get_or_insert_with(req_for_job, |r| {
                    ran_flag.store(true, Ordering::SeqCst);
                    inner_for_job.handle(&r)
                })
            }));
            let service = run_start.elapsed();
            // Feed the observed service time back to the policy — only
            // when the handler actually ran (a cache hit says nothing
            // about this class's cost).
            if ran_here.load(Ordering::SeqCst) {
                job_inner.policy.observe(meta.class, service);
            }
            let panicked = outcome.is_err();
            let response = match outcome {
                Ok(mut resp) => {
                    resp.cached = !ran_here.load(Ordering::SeqCst);
                    resp
                }
                Err(_) => Response {
                    ok: false,
                    body: "request handler panicked; see server logs".to_string(),
                    cached: false,
                },
            };
            // Count before publishing under the promise lock: whoever
            // sees the resolved ticket also sees the counter.
            promise.resolve(response, || {
                job_inner.completed.fetch_add(1, Ordering::SeqCst);
                job_inner.per_class[band]
                    .completed
                    .fetch_add(1, Ordering::SeqCst);
                job_inner.obs.completed[band].inc();
            });
            job_inner.slots.release();
            job_inner.obs.tracer.record(&obs::SpanRecord {
                id: span_id,
                class: band as u8,
                outcome: if panicked {
                    obs::SpanOutcome::Panicked
                } else {
                    obs::SpanOutcome::Completed
                },
                queue_us: claimed_at.duration_since(admitted_at).as_micros() as u64,
                service_us: service.as_micros() as u64,
                total_us: admitted_at.elapsed().as_micros() as u64,
            });
        });
        match submit_result {
            Ok(()) => {
                // Mirror `admitted` only once the request is irrevocably
                // admitted (counters cannot decrement the way the un-admit
                // path below rolls the ledger back), so the registry
                // balances after a drain: admitted = completed + shed.
                inner.obs.admitted[band].inc();
                Ok(ticket)
            }
            Err(_) => {
                // The pool refused (it is being dropped). If we still
                // own the entry, undo the admission honestly; if a
                // shedder beat us to it, the ticket already resolved
                // with a shed response — hand it out as accepted.
                if taken
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    inner.accepted.fetch_sub(1, Ordering::SeqCst);
                    inner.per_class[band]
                        .admitted
                        .fetch_sub(1, Ordering::SeqCst);
                    inner.slots.release();
                    Err(SubmitError::ShuttingDown(ShuttingDown))
                } else {
                    // A shedder already resolved (and counted) this
                    // request; it stays admitted in the ledger, so
                    // mirror that here too.
                    inner.obs.admitted[band].inc();
                    Ok(ticket)
                }
            }
        }
    }

    /// Stops admission, waits out submissions already in flight through
    /// `submit` (the admitted-but-not-yet-enqueued window), then blocks
    /// until every accepted request has completed its ticket. The
    /// server can still report [`stats`] and resolve outstanding
    /// tickets afterwards; new submissions fail with
    /// [`SubmitError::ShuttingDown`].
    ///
    /// [`stats`]: CourseServer::stats
    pub fn shutdown(&self) {
        self.inner.accepting.store(false, Ordering::SeqCst);
        let mut open = self.inner.open.lock().expect("open counter poisoned");
        while *open > 0 {
            open = self
                .inner
                .open_zero
                .wait(open)
                .expect("open counter poisoned");
        }
        drop(open);
        self.pool.wait_empty();
    }

    /// The backoff hint (in ms) the server would attach to a rejection
    /// of a request with `meta` right now: backlog-proportional,
    /// deadline-capped, 0 once the deadline has passed. The TCP front
    /// end uses this to put an honest retry hint on wire-level shed
    /// responses, which carry no [`Rejected`] of their own.
    pub fn retry_hint(&self, meta: &JobMeta) -> u64 {
        self.inner.busy(meta).retry_after_ms
    }

    /// A snapshot of request, cache, and pool counters.
    pub fn stats(&self) -> ServerStats {
        let pool = self.pool.stats();
        let per_class: Vec<ClassServerStats> = JobClass::ALL
            .iter()
            .map(|&class| {
                let band = class.band();
                let ledger = &self.inner.per_class[band];
                let admitted = ledger.admitted.load(Ordering::SeqCst);
                let completed = ledger.completed.load(Ordering::SeqCst);
                let shed = ledger.shed.load(Ordering::SeqCst);
                ClassServerStats {
                    class,
                    admitted,
                    completed,
                    shed,
                    rejected: ledger.rejected.load(Ordering::SeqCst),
                    inline_hits: ledger.inline_hits.load(Ordering::SeqCst),
                    deadline_missed: pool.per_class[band].deadline_missed,
                    in_flight: admitted.saturating_sub(completed).saturating_sub(shed),
                }
            })
            .collect();
        ServerStats {
            accepted: self.inner.accepted.load(Ordering::SeqCst),
            rejected: self.inner.rejected.load(Ordering::SeqCst),
            completed: self.inner.completed.load(Ordering::SeqCst),
            shed: self.inner.shed.load(Ordering::SeqCst),
            per_class,
            cache: self.inner.cache.stats(),
            pool,
        }
    }
}

/// Why [`CourseServer::submit`] declined a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission queue or class budget full — backpressure, retry
    /// later (or give up, if `retry_after_ms` is 0).
    Busy(Rejected),
    /// The server is shutting down; do not retry.
    ShuttingDown(ShuttingDown),
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD_SUBMISSION: &str = r"
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

    #[test]
    fn grades_a_real_submission_and_caches_the_result() {
        let server = CourseServer::new(ServerConfig::default());
        let req = Request::Grade {
            submission: GOOD_SUBMISSION.to_string(),
        };
        let first = server.submit(req.clone()).expect("accepted").wait();
        assert!(first.ok);
        assert!(
            first.body.contains("100%"),
            "unexpected grade: {}",
            first.body
        );
        assert!(!first.cached);
        let second = server.submit(req).expect("accepted").wait();
        assert!(second.cached, "warm request should hit the cache");
        assert_eq!(second.body, first.body);
    }

    #[test]
    fn homework_requests_use_real_generators() {
        let server = CourseServer::new(ServerConfig::default());
        let ok = server
            .submit(Request::Homework {
                generator: "binary_arithmetic".into(),
                seed: 7,
            })
            .expect("accepted")
            .wait();
        assert!(ok.ok);
        assert!(
            ok.body.contains("solution"),
            "missing solution: {}",
            ok.body
        );
        let bad = server
            .submit(Request::Homework {
                generator: "no_such_generator".into(),
                seed: 7,
            })
            .expect("accepted")
            .wait();
        assert!(!bad.ok);
    }

    #[test]
    fn reproduce_requests_need_a_registry() {
        let bare = CourseServer::new(ServerConfig::default());
        let miss = bare
            .submit(Request::Reproduce { id: "e6".into() })
            .unwrap()
            .wait();
        assert!(!miss.ok);

        fn fake_experiment() -> String {
            "E-fake: table".to_string()
        }
        let wired = CourseServer::with_experiments(
            ServerConfig::default(),
            vec![("e-fake".to_string(), fake_experiment as ExperimentFn)],
        );
        let hit = wired
            .submit(Request::Reproduce {
                id: "e-fake".into(),
            })
            .unwrap()
            .wait();
        assert!(hit.ok);
        assert_eq!(hit.body, "E-fake: table");
    }

    fn slow_experiment() -> String {
        std::thread::sleep(std::time::Duration::from_millis(100));
        "slow table".to_string()
    }

    #[test]
    fn registry_mirrors_balance_the_ledgers_and_spans_separate_stages() {
        let server = CourseServer::new(ServerConfig::default());
        let tickets: Vec<Ticket> = (0..12)
            .map(|seed| {
                server
                    .submit(Request::Homework {
                        generator: "binary_arithmetic".into(),
                        seed,
                    })
                    .expect("accepted")
            })
            .collect();
        for t in tickets {
            t.wait();
        }
        // Four repeats of computed keys: answered at admission.
        for seed in 0..4 {
            let hit = server
                .submit(Request::Homework {
                    generator: "binary_arithmetic".into(),
                    seed,
                })
                .expect("accepted");
            assert!(hit.try_get().expect("resolved at admission").cached);
        }
        server.shutdown();

        let st = server.stats();
        let snap = server.registry().snapshot();
        for class in JobClass::ALL {
            let row = st.per_class[JobClass::ALL.iter().position(|&c| c == class).unwrap()];
            let admitted = snap.counter(&format!("serve.admitted.{class}")).unwrap();
            let completed = snap.counter(&format!("serve.completed.{class}")).unwrap();
            let shed = snap.counter(&format!("serve.shed.{class}")).unwrap();
            let rejected = snap.counter(&format!("serve.rejected.{class}")).unwrap();
            let inline = snap.counter(&format!("serve.inline_hits.{class}")).unwrap();
            assert_eq!(admitted, row.admitted, "{class} admitted mirror");
            assert_eq!(completed, row.completed, "{class} completed mirror");
            assert_eq!(shed, row.shed, "{class} shed mirror");
            assert_eq!(rejected, row.rejected, "{class} rejected mirror");
            assert_eq!(inline, row.inline_hits, "{class} inline-hit mirror");
            assert_eq!(admitted, completed + shed, "{class} drained balance");
        }
        // Every admitted request became one pool job or one inline hit.
        let inline: u64 = st.per_class.iter().map(|c| c.inline_hits).sum();
        assert_eq!(inline, 4);
        assert_eq!(snap.counter("pool.claims").unwrap() + inline, st.accepted);
        assert_eq!(snap.gauge("pool.queue_depth"), Some(0));

        // Homework defaults to the Batch class: its stage histograms hold
        // one span per request, and total >= queue + service per sample.
        let queue = snap.hist("serve.stage.queue_us.batch").unwrap();
        let service = snap.hist("serve.stage.service_us.batch").unwrap();
        let total = snap.hist("serve.stage.total_us.batch").unwrap();
        assert_eq!(queue.count(), 16);
        assert_eq!(service.count(), 16);
        assert_eq!(total.count(), 16);
        assert!(total.max() >= service.min());

        // The trace ring retains the most recent spans with real data.
        let spans = server.tracer().recent(12);
        assert_eq!(spans.len(), 12);
        for span in spans {
            assert_eq!(span.outcome, obs::SpanOutcome::Completed);
            assert!(span.total_us >= span.queue_us);
            assert!(span.total_us >= span.service_us);
        }
    }

    #[test]
    fn disabled_registry_records_nothing_but_serves_normally() {
        let server = CourseServer::new(ServerConfig {
            registry: obs::Registry::disabled(),
            ..ServerConfig::default()
        });
        let resp = server
            .submit(Request::Homework {
                generator: "binary_arithmetic".into(),
                seed: 1,
            })
            .expect("accepted")
            .wait();
        assert!(resp.ok);
        assert!(server.registry().snapshot().entries.is_empty());
        assert!(server.tracer().recent(10).is_empty());
        // The bespoke ledgers still work regardless of the registry.
        assert_eq!(server.stats().accepted, 1);
    }

    #[test]
    fn backpressure_rejects_with_retry_hint_instead_of_blocking() {
        // Two distinct slow requests fill the 1 worker + 1 queue slot;
        // admission is only released on completion, so the third submit
        // lands inside the 100ms compute window and must be rejected.
        // FCFS admission isolates the global bound from class budgets
        // (under the class-aware default, Bulk would cap at queue/2).
        let server = CourseServer::with_experiments(
            ServerConfig {
                workers: 1,
                queue_capacity: 2,
                admission: Arc::new(FcfsAdmission),
                ..ServerConfig::default()
            },
            vec![
                ("slow-a".to_string(), slow_experiment as ExperimentFn),
                ("slow-b".to_string(), slow_experiment as ExperimentFn),
            ],
        );
        let tickets: Vec<Ticket> = ["slow-a", "slow-b"]
            .iter()
            .map(|id| {
                server
                    .submit(Request::Reproduce { id: (*id).into() })
                    .expect("first requests fit the queue")
            })
            .collect();
        let rejected = match server.submit(Request::Reproduce {
            id: "slow-a".into(),
        }) {
            Err(SubmitError::Busy(r)) => r,
            other => panic!("expected Busy rejection, got {other:?}"),
        };
        assert!(rejected.retry_after_ms >= 1);
        assert!(rejected.in_flight >= 1);
        assert_eq!(server.stats().rejected, 1);
        for t in tickets {
            assert!(t.wait().ok);
        }
    }

    #[test]
    fn class_budget_rejects_bulk_before_the_queue_is_full() {
        // Class-aware admission: Bulk may hold at most half of an
        // 8-slot queue. The 5th bulk submit must bounce even though the
        // queue itself has room — and its rejection must say Bulk.
        let server = CourseServer::with_experiments(
            ServerConfig {
                workers: 1,
                queue_capacity: 8,
                ..ServerConfig::default()
            },
            vec![("slow-a".to_string(), slow_experiment as ExperimentFn)],
        );
        let _tickets: Vec<Ticket> = (0..4)
            .map(|_| {
                server
                    .submit(Request::Reproduce {
                        id: "slow-a".into(),
                    })
                    .expect("within the bulk budget")
            })
            .collect();
        let rejected = match server.submit(Request::Reproduce {
            id: "slow-a".into(),
        }) {
            Err(SubmitError::Busy(r)) => r,
            other => panic!("expected Busy from the class budget, got {other:?}"),
        };
        assert_eq!(rejected.class, JobClass::Bulk);
        // An interactive request still gets in: the queue has slots.
        let grade = server
            .submit(Request::Grade {
                submission: GOOD_SUBMISSION.to_string(),
            })
            .expect("interactive admission unaffected by the bulk budget");
        assert!(grade.wait().ok);
        let st = server.stats();
        assert_eq!(st.per_class[JobClass::Bulk.band()].rejected, 1);
        assert_eq!(st.per_class[JobClass::Interactive.band()].rejected, 0);
    }

    #[test]
    fn full_queue_sheds_the_newest_bulk_request_for_interactive_work() {
        // 1 worker, 4 slots: a running bulk job, a queued bulk job
        // (bulk budget = 4/2 = 2), and two queued batch jobs fill the
        // queue. An interactive submit must displace the *queued* bulk
        // request: its ticket resolves ok=false "shed", the grade is
        // admitted without any slot becoming free, and the counters
        // record the displacement per class.
        let server = CourseServer::with_experiments(
            ServerConfig {
                workers: 1,
                queue_capacity: 4,
                scheduler: Scheduler::PriorityLanes,
                ..ServerConfig::default()
            },
            vec![
                ("slow-a".to_string(), slow_experiment as ExperimentFn),
                ("slow-b".to_string(), slow_experiment as ExperimentFn),
            ],
        );
        let running = server
            .submit(Request::Reproduce {
                id: "slow-a".into(),
            })
            .unwrap();
        // Give the worker time to claim slow-a so slow-b stays queued.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let queued = server
            .submit(Request::Reproduce {
                id: "slow-b".into(),
            })
            .unwrap();
        let batches: Vec<Ticket> = (0..2)
            .map(|seed| {
                server
                    .submit(Request::Homework {
                        generator: "fork_puzzle".into(),
                        seed,
                    })
                    .expect("batch work fits its budget")
            })
            .collect();
        let grade = server
            .submit(Request::Grade {
                submission: GOOD_SUBMISSION.to_string(),
            })
            .expect("interactive work displaces queued bulk work");
        let shed_resp = queued.wait();
        assert!(!shed_resp.ok, "displaced ticket must resolve ok=false");
        assert!(
            shed_resp.body.contains("shed under load"),
            "{}",
            shed_resp.body
        );
        assert!(grade.wait().ok);
        assert!(running.wait().ok, "the running bulk request is never shed");
        for t in batches {
            assert!(t.wait().ok, "batch work is not collateral damage");
        }
        server.shutdown();
        let st = server.stats();
        assert_eq!(st.shed, 1);
        let bulk = st.per_class[JobClass::Bulk.band()];
        assert_eq!(bulk.shed, 1);
        assert_eq!(bulk.admitted, 2);
        assert_eq!(bulk.completed, 1);
        assert_eq!(bulk.in_flight, 0);
        let interactive = st.per_class[JobClass::Interactive.band()];
        assert_eq!(interactive.admitted, 1);
        assert_eq!(interactive.completed, 1);
        // Global ledger balances: accepted = completed + shed.
        assert_eq!(st.accepted, st.completed + st.shed);
    }

    #[test]
    fn rejection_hints_respect_the_request_deadline() {
        // Fill the queue with interactive work (nothing interactive can
        // shed), then submit more: the hint for a deadline-carrying
        // class must never exceed half its remaining deadline budget.
        let server = CourseServer::with_experiments(
            ServerConfig {
                workers: 1,
                queue_capacity: 2,
                ..ServerConfig::default()
            },
            Vec::new(),
        );
        // Two distinct slow grades: invalid source still grades (0%),
        // so use the fault-free slow path via homework instead. Grade
        // requests are fast; hold the queue with *interactive-class*
        // metadata on slow reproduce handlers.
        let slow_meta = JobMeta::for_class(JobClass::Interactive);
        let _a = server
            .submit_with_meta(
                slow_meta,
                Request::Homework {
                    generator: "binary_arithmetic".into(),
                    seed: 1,
                },
            )
            .unwrap();
        let _b = server
            .submit_with_meta(
                slow_meta,
                Request::Homework {
                    generator: "binary_arithmetic".into(),
                    seed: 2,
                },
            )
            .unwrap();
        // Deadline 40ms out: the hint must be <= 20ms even though the
        // base backlog hint could be larger, and a passed deadline
        // hints 0.
        let tight = JobMeta::for_class(JobClass::Interactive)
            .with_deadline(Instant::now() + Duration::from_millis(40));
        match server.submit_with_meta(
            tight,
            Request::Grade {
                submission: GOOD_SUBMISSION.to_string(),
            },
        ) {
            Err(SubmitError::Busy(r)) => {
                assert!(
                    r.retry_after_ms <= 20,
                    "hint {} ignores deadline",
                    r.retry_after_ms
                );
            }
            Ok(_) => {} // queue drained first on a fast machine: fine
            other => panic!("unexpected: {other:?}"),
        }
        let expired = JobMeta::for_class(JobClass::Interactive)
            .with_deadline(Instant::now() - Duration::from_millis(1));
        match server.submit_with_meta(
            expired,
            Request::Grade {
                submission: GOOD_SUBMISSION.to_string(),
            },
        ) {
            Err(SubmitError::Busy(r)) => {
                assert_eq!(r.retry_after_ms, 0, "passed deadline must hint 0");
            }
            Ok(_) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn shutdown_drains_every_accepted_request() {
        let server = CourseServer::new(ServerConfig {
            workers: 2,
            queue_capacity: 32,
            ..ServerConfig::default()
        });
        let tickets: Vec<Ticket> = (0..20)
            .map(|seed| {
                server
                    .submit(Request::Homework {
                        generator: "fork_puzzle".into(),
                        seed,
                    })
                    .expect("accepted")
            })
            .collect();
        server.shutdown();
        // After shutdown: no new work...
        assert!(matches!(
            server.submit(Request::Homework {
                generator: "fork_puzzle".into(),
                seed: 999
            }),
            Err(SubmitError::ShuttingDown(_))
        ));
        // ...and every accepted ticket is already resolved.
        for t in &tickets {
            let resp = t
                .try_get()
                .expect("shutdown returned before a ticket resolved");
            assert!(resp.ok);
        }
        let stats = server.stats();
        assert_eq!(stats.completed, 20);
        assert_eq!(stats.accepted, 20);
    }

    #[test]
    fn handler_panic_resolves_the_ticket_with_an_error() {
        fn bomb() -> String {
            panic!("experiment exploded")
        }
        let server = CourseServer::with_experiments(
            ServerConfig::default(),
            vec![("boom".to_string(), bomb as ExperimentFn)],
        );
        let resp = server
            .submit(Request::Reproduce { id: "boom".into() })
            .unwrap()
            .wait();
        assert!(!resp.ok);
        assert!(resp.body.contains("panicked"));
        // Server still serves other requests afterwards.
        let ok = server
            .submit(Request::Homework {
                generator: "binary_arithmetic".into(),
                seed: 1,
            })
            .unwrap()
            .wait();
        assert!(ok.ok);
        assert_eq!(
            server.stats().pool.panicked,
            0,
            "panic was contained before the pool"
        );
    }

    #[test]
    fn on_ready_fires_for_computed_shed_and_already_resolved_tickets() {
        use std::sync::mpsc;
        // Computed: callback registered before completion.
        let server = CourseServer::with_experiments(
            ServerConfig {
                workers: 1,
                queue_capacity: 4,
                scheduler: Scheduler::PriorityLanes,
                ..ServerConfig::default()
            },
            vec![
                ("slow-a".to_string(), slow_experiment as ExperimentFn),
                ("slow-b".to_string(), slow_experiment as ExperimentFn),
            ],
        );
        let (tx, rx) = mpsc::channel();
        let running = server
            .submit(Request::Reproduce {
                id: "slow-a".into(),
            })
            .unwrap();
        let tx1 = tx.clone();
        running.on_ready(move |resp| tx1.send(("computed", resp.ok)).unwrap());
        // Shed: a queued bulk request displaced by interactive work
        // must fire its callback from the shedding thread.
        std::thread::sleep(Duration::from_millis(20));
        let queued = server
            .submit(Request::Reproduce {
                id: "slow-b".into(),
            })
            .unwrap();
        let tx2 = tx.clone();
        queued.on_ready(move |resp| tx2.send(("shed", resp.ok)).unwrap());
        for _ in 0..3 {
            let _ = server.submit(Request::Homework {
                generator: "fork_puzzle".into(),
                seed: 1,
            });
        }
        server
            .submit(Request::Grade {
                submission: GOOD_SUBMISSION.to_string(),
            })
            .expect("interactive displaces queued bulk");
        let mut got: Vec<(&str, bool)> = vec![rx.recv().unwrap(), rx.recv().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![("computed", true), ("shed", false)]);
        // Already resolved: callback runs immediately on this thread.
        let done = server
            .submit(Request::Grade {
                submission: GOOD_SUBMISSION.to_string(),
            })
            .unwrap();
        done.wait();
        let hit = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&hit);
        done.on_ready(move |resp| flag.store(resp.ok, Ordering::SeqCst));
        assert!(
            hit.load(Ordering::SeqCst),
            "late on_ready must fire synchronously"
        );
        server.shutdown();
    }

    #[test]
    fn adaptive_admission_derives_budgets_and_deadlines_from_observations() {
        let policy = AdaptiveAdmission::default();
        // Before any observation: static shares and ceiling deadlines.
        assert_eq!(policy.admit_limit(JobClass::Bulk, 64), 32);
        assert_eq!(policy.admit_limit(JobClass::Interactive, 64), 64);
        let cold = policy.classify(&Request::Grade {
            submission: String::new(),
        });
        assert_eq!(cold.class, JobClass::Interactive);
        let cold_budget = cold
            .deadline
            .unwrap()
            .saturating_duration_since(Instant::now());
        assert!(
            cold_budget > Duration::from_millis(400),
            "cold deadline should be the ceiling"
        );
        // Slow bulk observations shrink the bulk budget: 500ms EWMA
        // against 4s patience leaves room for ~8 queued jobs, not 32.
        for _ in 0..32 {
            policy.observe(JobClass::Bulk, Duration::from_millis(500));
        }
        let bulk_limit = policy.admit_limit(JobClass::Bulk, 64);
        assert!(
            (1..=10).contains(&bulk_limit),
            "bulk budget should shrink, got {bulk_limit}"
        );
        // Fast interactive observations tighten the grade deadline to
        // 4x the EWMA, but never below the 25ms floor.
        for _ in 0..32 {
            policy.observe(JobClass::Interactive, Duration::from_millis(2));
        }
        let warm = policy.classify(&Request::Grade {
            submission: String::new(),
        });
        let warm_budget = warm
            .deadline
            .unwrap()
            .saturating_duration_since(Instant::now());
        assert!(
            warm_budget <= Duration::from_millis(30),
            "warm deadline should track 4x EWMA, got {warm_budget:?}"
        );
        assert!(
            warm_budget >= Duration::from_millis(20),
            "deadline floor violated"
        );
        // Bulk never carries a deadline, observed or not.
        assert_eq!(
            policy
                .classify(&Request::Reproduce { id: "e1".into() })
                .deadline,
            None
        );
    }

    #[test]
    fn adaptive_admission_learns_through_a_live_server() {
        let policy = Arc::new(AdaptiveAdmission::default());
        let server = CourseServer::new(ServerConfig {
            workers: 2,
            admission: Arc::clone(&policy) as Arc<dyn AdmissionPolicy>,
            ..ServerConfig::default()
        });
        assert!(policy.observed_service(JobClass::Batch).is_none());
        for seed in 0..4 {
            let resp = server
                .submit(Request::Homework {
                    generator: "binary_arithmetic".into(),
                    seed,
                })
                .expect("admitted")
                .wait();
            assert!(resp.ok);
        }
        let ewma = policy
            .observed_service(JobClass::Batch)
            .expect("server must feed observations back to the policy");
        assert!(ewma > Duration::ZERO);
        // A cache hit is not an observation: re-submitting an identical
        // request must leave the EWMA untouched.
        let cached = server
            .submit(Request::Homework {
                generator: "binary_arithmetic".into(),
                seed: 0,
            })
            .expect("admitted")
            .wait();
        assert!(cached.cached);
        assert_eq!(policy.observed_service(JobClass::Batch), Some(ewma));
        server.shutdown();
    }

    #[test]
    fn requests_reach_the_pool_with_their_admission_class() {
        // The meta assigned at admission must be the meta the pool
        // schedules and counts with — the whole point of the refactor.
        let server = CourseServer::new(ServerConfig {
            scheduler: Scheduler::PriorityLanes,
            ..ServerConfig::default()
        });
        server
            .submit(Request::Grade {
                submission: GOOD_SUBMISSION.to_string(),
            })
            .unwrap()
            .wait();
        server
            .submit(Request::Homework {
                generator: "fork_puzzle".into(),
                seed: 3,
            })
            .unwrap()
            .wait();
        server.shutdown();
        let pool = server.stats().pool;
        assert_eq!(pool.per_class[JobClass::Interactive.band()].submitted, 1);
        assert_eq!(pool.per_class[JobClass::Batch.band()].submitted, 1);
        assert_eq!(pool.per_class[JobClass::Bulk.band()].submitted, 0);
    }

    fn pool_claims(server: &CourseServer) -> u64 {
        server
            .registry()
            .snapshot()
            .counter("pool.claims")
            .expect("pool.claims is registered")
    }

    #[test]
    fn ready_hits_are_answered_at_admission_without_a_pool_job() {
        const REPEATS: u64 = 8;
        let band = JobClass::Interactive.band();
        let server = CourseServer::new(ServerConfig::default());
        let req = Request::Grade {
            submission: GOOD_SUBMISSION.to_string(),
        };
        let computed = server.submit(req.clone()).expect("accepted").wait();
        assert!(!computed.cached);
        for _ in 0..REPEATS {
            let hit = server
                .submit(req.clone())
                .expect("accepted")
                .try_get()
                .expect("a Ready hit resolves at admission");
            assert!(hit.cached);
            assert_eq!(hit.body, computed.body);
        }
        let st = server.stats();
        let row = st.per_class[band];
        assert_eq!(row.inline_hits, REPEATS);
        assert_eq!(
            (st.cache.hits, st.cache.misses),
            (REPEATS, 1),
            "one count per lookup"
        );
        assert_eq!(pool_claims(&server), 1, "hits took jobs");
        assert_eq!(
            st.pool.per_class[band].submitted + row.inline_hits,
            row.admitted
        );
        assert_eq!(row.admitted, REPEATS + 1);
        assert_eq!(row.admitted, row.completed + row.shed);
        // Span 0 is the computed request; the hits never queued.
        let hits: Vec<obs::SpanRecord> = server
            .tracer()
            .recent(2 * REPEATS as usize)
            .into_iter()
            .filter(|s| s.id > 0)
            .collect();
        assert_eq!(hits.len() as u64, REPEATS);
        assert!(hits.iter().all(|s| s.queue_us == 0), "{hits:?}");
    }

    /// Holds `gated_experiment` inside its compute until opened.
    static GATE: (Mutex<bool>, Condvar) = (Mutex::new(false), Condvar::new());

    fn set_gate(open: bool) {
        *GATE.0.lock().expect("gate poisoned") = open;
        GATE.1.notify_all();
    }

    fn gated_experiment() -> String {
        let mut open = GATE.0.lock().expect("gate poisoned");
        while !*open {
            open = GATE.1.wait(open).expect("gate poisoned");
        }
        "gated table".to_string()
    }

    #[test]
    fn computing_keys_are_not_answered_at_admission() {
        set_gate(false);
        let server = CourseServer::with_experiments(
            ServerConfig::default(),
            vec![("gated".to_string(), gated_experiment as ExperimentFn)],
        );
        let req = Request::Reproduce { id: "gated".into() };
        let first = server.submit(req.clone()).expect("accepted");
        // The cache counts the miss when it inserts the `Computing`
        // slot, before the owner enters the (gated) compute.
        while server.stats().cache.misses == 0 {
            std::thread::yield_now();
        }
        let second = server.submit(req).expect("accepted");
        let second_early = second.try_get();
        set_gate(true);
        let (a, b) = (first.wait(), second.wait());
        server.shutdown();
        assert!(
            second_early.is_none(),
            "a Computing key was answered at admission"
        );
        assert!(!a.cached && b.cached && a.body == b.body);
        let st = server.stats();
        assert_eq!((st.cache.hits, st.cache.misses), (1, 1));
        assert_eq!(st.per_class[JobClass::Bulk.band()].inline_hits, 0);
        assert_eq!(pool_claims(&server), 2);
    }
}
