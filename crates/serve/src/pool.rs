//! The long-lived worker pool: the cs431 "hello server" `ThreadPool`
//! grown up — panic-isolating workers, `wait_empty`, join-on-drop with
//! drain semantics, per-worker plus aggregate counters, and a choice of
//! three queue topologies: the original shared FIFO, **per-worker
//! deques with work stealing**, and (since the policy rework)
//! **priority lanes** — one FIFO band per [`JobClass`] with an
//! anti-starvation aging rule, so interactive work jumps a bulk backlog
//! without bulk work starving forever.
//!
//! Every job now carries a [`JobMeta`] (`class`, `priority`,
//! `deadline`) instead of being an opaque closure. The metadata is
//! what the priority scheduler keys on, what the per-class counters
//! are bucketed by, and what nested submissions inherit: while a job
//! runs, its meta is visible through [`current_job_meta`], and
//! [`ThreadPool::execute`] submits with the running job's meta — so a
//! high-class `serve::par` call fans out high-class chunks instead of
//! being demoted to the default class behind background bulk jobs.
//!
//! ## The deque/steal protocol (`Scheduler::WorkStealing`)
//!
//! Every worker owns a deque (`Mutex<VecDeque>` — safe Rust, no
//! lock-free tricks):
//!
//! * **push**: a submission from a worker thread of this pool lands on
//!   that worker's own deque; an external submission is placed
//!   round-robin. Both push at the **back**.
//! * **local pop** is **LIFO** (back): a worker runs the newest job it
//!   owns first — the freshest, cache-warmest work, and the discipline
//!   that keeps short interactive jobs from waiting behind a backlog.
//! * **steal** is **FIFO** (front): when a worker's own deque is empty
//!   it sweeps victims by rotation (`id+1, id+2, …`) and takes the
//!   **oldest** job from the first non-empty deque — the job that has
//!   waited longest, which also prevents starvation under LIFO.
//! * **batched steal**: when the victim's deque is deep (at least
//!   [`BATCH_STEAL_DEPTH`] jobs), the thief takes half of it in one
//!   sweep — the oldest job to run immediately, the rest relocated to
//!   the thief's own deque — so a deep backlog rebalances in O(1)
//!   steals instead of one lock round-trip per job. The relocated
//!   jobs count as the thief's `local_hits` when eventually claimed;
//!   the event is counted in [`WorkerStats::batch_steals`].
//! * **parking**: only after a full failed sweep does a worker park on
//!   the shared condvar. There is no busy-spin; the sleeper-counted
//!   wake protocol below makes lost wakeups impossible.
//!
//! ## Priority lanes (`Scheduler::PriorityLanes`)
//!
//! One shared FIFO band per job class, highest class first. A claim
//! scans bands from [`JobClass::Interactive`] down and pops the oldest
//! job of the highest non-empty band, so grade-style work overtakes
//! any accumulated bulk backlog. Two refinements:
//!
//! * **urgent jobs** (`meta.priority >= URGENT_PRIORITY`) push to the
//!   *front* of their band, jumping same-class work;
//! * **aging**: every [`AGING_PERIOD`]-th claim scans the bands in
//!   *reverse* (lowest class first) and serves the oldest job of the
//!   lowest non-empty band. Under sustained high-class load this
//!   bounds starvation: a queued bulk job waits at most
//!   `AGING_PERIOD - 1` higher-class claims between bulk grants. Such
//!   promoted claims are counted per class in [`ClassStats::aged`].
//!
//! The old single shared FIFO survives as [`Scheduler::SharedFifo`] —
//! the measured baseline the `serve_stealing`/E12 and E13 experiments
//! compare against.
//!
//! The deques are mutex-guarded on purpose, not lock-free Chase–Lev
//! deques: every server job is submitted from a thread outside the
//! pool, which a Chase–Lev deque can only accept through a mutex inbox
//! anyway, and the claim path is not where a request's time goes
//! (DESIGN.md §12).
//!
//! ## Why the parking protocol is lost-wakeup-free
//!
//! The pool keeps two `SeqCst` atomics: `queued` (jobs pushed but not
//! yet claimed) and `sleepers` (workers inside the parking critical
//! section). A worker parks only by: lock park mutex → increment
//! `sleepers` → re-check `queued == 0` → wait. A submitter publishes
//! by: push job → increment `queued` → if `sleepers > 0`, lock the
//! park mutex and notify. In the SeqCst total order either the
//! submitter sees the sleeper (and notifies under the mutex, so the
//! wakeup cannot slip between the worker's check and its wait), or the
//! worker's `queued` re-check happens after the increment and it never
//! sleeps. Either way the job is claimed. (A batched steal briefly
//! holds relocated jobs outside any deque; `queued` still counts them,
//! so a concurrently-sweeping worker re-checks and retries instead of
//! parking — no job is ever hidden from a sleeping pool.)

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

/// A queued unit of work plus the scheduling metadata it carries.
struct Job {
    run: Box<dyn FnOnce() + Send + 'static>,
    meta: JobMeta,
}

/// Error returned when a job is submitted to a pool that has begun
/// shutting down: the job is handed back so nothing is silently lost.
pub struct PoolClosed<F>(pub F);

impl<F> std::fmt::Debug for PoolClosed<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PoolClosed(..)")
    }
}

/// The request class a job belongs to — the coarse scheduling signal
/// threaded through the whole serve pipeline (admission → scheduling →
/// shedding).
///
/// Variants are declared lowest-class first so `Ord` means "less
/// important": `Bulk < Batch < Interactive`. Under pressure the server
/// sheds the smallest class first; the priority-lane scheduler serves
/// the largest class first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobClass {
    /// Background work: reproduce runs, full-corpus regeneration.
    /// First to be shed, last to be scheduled (modulo aging).
    Bulk,
    /// Deferred-but-expected work: homework generation, autograde
    /// batches.
    Batch,
    /// A human is waiting: grade lookups, clicker rounds.
    Interactive,
}

impl JobClass {
    /// Every class, highest first — the order bands are scanned and
    /// per-class tables are printed in.
    pub const ALL: [JobClass; 3] = [JobClass::Interactive, JobClass::Batch, JobClass::Bulk];

    /// Number of classes (= number of priority bands).
    pub const COUNT: usize = 3;

    /// The priority band this class maps to: 0 is served first.
    pub fn band(self) -> usize {
        match self {
            JobClass::Interactive => 0,
            JobClass::Batch => 1,
            JobClass::Bulk => 2,
        }
    }

    /// Inverse of [`JobClass::band`].
    ///
    /// # Panics
    /// If `band >= JobClass::COUNT`.
    pub fn from_band(band: usize) -> JobClass {
        Self::ALL[band]
    }
}

impl std::fmt::Display for JobClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobClass::Interactive => f.write_str("interactive"),
            JobClass::Batch => f.write_str("batch"),
            JobClass::Bulk => f.write_str("bulk"),
        }
    }
}

/// Jobs with `priority >= URGENT_PRIORITY` are pushed to the *front*
/// of their class band under [`Scheduler::PriorityLanes`], jumping
/// same-class work. Everything below queues FIFO within its band.
pub const URGENT_PRIORITY: u8 = 192;

/// Every `AGING_PERIOD`-th claim under [`Scheduler::PriorityLanes`]
/// scans the bands lowest-class-first, so an admitted bulk job waits
/// at most `AGING_PERIOD - 1` higher-class claims between bulk grants
/// — the anti-starvation bound the no-starvation property test checks.
pub const AGING_PERIOD: u64 = 8;

/// When a thief finds a victim deque at least this deep, it steals
/// half the deque in one sweep (a *batched steal*) instead of one job.
pub const BATCH_STEAL_DEPTH: usize = 4;

/// Scheduling metadata carried by every job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobMeta {
    /// Request class — selects the priority band and the shed order.
    pub class: JobClass,
    /// Fine-grained urgency within the class (higher runs sooner).
    /// Values at or above [`URGENT_PRIORITY`] jump their band's queue.
    pub priority: u8,
    /// Latest useful completion time. The pool does not drop late
    /// jobs; it counts starts past the deadline per class
    /// ([`ClassStats::deadline_missed`]) and the server uses the
    /// deadline for admission retry hints.
    pub deadline: Option<Instant>,
}

impl Default for JobMeta {
    /// Batch class, middle priority, no deadline — the profile of
    /// legacy `execute` callers that never heard of metadata.
    fn default() -> JobMeta {
        JobMeta {
            class: JobClass::Batch,
            priority: 128,
            deadline: None,
        }
    }
}

impl JobMeta {
    /// A meta with the given class and default priority/deadline.
    pub fn for_class(class: JobClass) -> JobMeta {
        JobMeta {
            class,
            ..JobMeta::default()
        }
    }

    /// Builder: sets the deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> JobMeta {
        self.deadline = Some(deadline);
        self
    }

    /// Builder: sets the priority.
    pub fn with_priority(mut self, priority: u8) -> JobMeta {
        self.priority = priority;
        self
    }
}

/// Which queue topology the pool schedules jobs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// One shared FIFO queue all workers pop from — the original pool
    /// design, kept as the measured baseline for the other schedulers
    /// (benches `serve_stealing`, experiments E12/E13).
    SharedFifo,
    /// Per-worker deques: LIFO local pop, FIFO rotation steal with
    /// batched steals on deep victims, park after a failed sweep.
    /// The default.
    #[default]
    WorkStealing,
    /// One shared FIFO band per [`JobClass`], highest class served
    /// first, with front-of-band urgent pushes and the
    /// [`AGING_PERIOD`] anti-starvation rule. The scheduler the
    /// class-aware server admission is designed for.
    PriorityLanes,
}

impl std::fmt::Display for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scheduler::SharedFifo => f.write_str("shared-fifo"),
            Scheduler::WorkStealing => f.write_str("work-stealing"),
            Scheduler::PriorityLanes => f.write_str("priority-lanes"),
        }
    }
}

/// Counters for one worker thread.
#[derive(Debug, Default)]
struct WorkerCounters {
    started: AtomicU64,
    finished: AtomicU64,
    panicked: AtomicU64,
    local_hits: AtomicU64,
    steals: AtomicU64,
    stolen_from: AtomicU64,
    batch_steals: AtomicU64,
    deque_high_water: AtomicUsize,
}

/// A point-in-time snapshot of one worker's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs this worker has begun executing.
    pub started: u64,
    /// Jobs this worker has completed (including panicked ones).
    pub finished: u64,
    /// Jobs that panicked on this worker.
    pub panicked: u64,
    /// Jobs this worker claimed from its own deque (LIFO pops; for the
    /// shared-FIFO and priority-lane schedulers, every claim counts
    /// here).
    pub local_hits: u64,
    /// Jobs this worker stole from another worker's deque (the job it
    /// ran immediately; batch-relocated jobs count as `local_hits`
    /// when later claimed).
    pub steals: u64,
    /// Jobs other workers stole from this worker's deque.
    pub stolen_from: u64,
    /// Steals that took half of a deep victim's deque in one sweep.
    pub batch_steals: u64,
    /// Deepest this worker's own deque has ever been (always 0 under
    /// the shared-FIFO and priority-lane schedulers, which have no
    /// per-worker deques).
    pub queue_high_water: usize,
}

/// Per-class counters (internal, atomic).
#[derive(Debug, Default)]
struct ClassCounters {
    submitted: AtomicU64,
    completed: AtomicU64,
    aged: AtomicU64,
    deadline_missed: AtomicU64,
    busy_micros: AtomicU64,
}

/// A point-in-time snapshot of one class's pool counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassStats {
    /// The class these counters describe.
    pub class: JobClass,
    /// Jobs of this class accepted by `execute`/`execute_with_meta`.
    pub submitted: u64,
    /// Jobs of this class fully executed (including panicked ones).
    pub completed: u64,
    /// Claims of this class granted by the aging pass while
    /// higher-class work was still queued (priority lanes only).
    pub aged: u64,
    /// Jobs of this class that *started* after their deadline.
    pub deadline_missed: u64,
    /// Total worker time spent executing jobs of this class, in
    /// microseconds. `busy_micros / completed` is the observed mean
    /// service time of the class.
    pub busy_micros: u64,
}

/// A point-in-time snapshot of the pool's aggregate counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker thread count.
    pub workers: usize,
    /// Queue topology the pool runs.
    pub scheduler: Scheduler,
    /// Jobs accepted by [`ThreadPool::execute`] so far.
    pub submitted: u64,
    /// Jobs begun across all workers.
    pub started: u64,
    /// Jobs completed across all workers (including panicked ones).
    pub finished: u64,
    /// Jobs that panicked across all workers.
    pub panicked: u64,
    /// Jobs claimed from the claimer's own deque across all workers.
    pub local_hits: u64,
    /// Jobs stolen across all workers (0 under shared-FIFO and
    /// priority lanes).
    pub steals: u64,
    /// Batched-steal events across all workers.
    pub batch_steals: u64,
    /// Deepest the total queued backlog has ever been
    /// (admission-pressure signal, summed across deques).
    pub queue_high_water: usize,
    /// Jobs currently queued but not yet claimed.
    pub queue_depth: usize,
    /// Per-worker breakdown, indexed by worker id.
    pub per_worker: Vec<WorkerStats>,
    /// Per-class breakdown, in [`JobClass::ALL`] order (highest class
    /// first).
    pub per_class: Vec<ClassStats>,
}

thread_local! {
    /// `(pool token, worker id)` for pool worker threads, so a job that
    /// submits into its own pool pushes onto its own deque.
    static WORKER_IDENTITY: Cell<Option<(usize, usize)>> = const { Cell::new(None) };

    /// The meta of the job currently executing on this thread (set by
    /// the worker loop around each job, and by [`with_meta`]). This is
    /// how nested submissions inherit their parent's class.
    static CURRENT_META: Cell<Option<JobMeta>> = const { Cell::new(None) };
}

/// The [`JobMeta`] this thread's submissions inherit: the meta of the
/// pool job currently running on this thread, or the meta installed by
/// an enclosing [`with_meta`] call. `None` on a plain external thread.
pub fn current_job_meta() -> Option<JobMeta> {
    CURRENT_META.with(|m| m.get())
}

/// Runs `f` with `meta` installed as this thread's inherited
/// submission meta, so every [`ThreadPool::execute`] (and therefore
/// every `serve::par` entry point) inside `f` carries it. The previous
/// meta is restored afterwards, panic or not.
pub fn with_meta<R>(meta: JobMeta, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<JobMeta>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_META.with(|m| m.set(self.0));
        }
    }
    let _restore = Restore(CURRENT_META.with(|m| m.replace(Some(meta))));
    f()
}

/// Registry-backed mirrors of the pool's hot-path scheduling events
/// (PR 5). Handles are resolved once at construction; with a disabled
/// [`obs::Registry`] every call is a single never-taken branch, which is
/// the "obs off" arm experiment E15 measures against.
struct PoolObs {
    /// Jobs claimed, by any path (`pool.claims`).
    claims: obs::Counter,
    /// Claims satisfied from the worker's own deque / band
    /// (`pool.local_hits`).
    local_hits: obs::Counter,
    /// Claims satisfied by stealing from a victim (`pool.steals`).
    steals: obs::Counter,
    /// Steals that relocated half a deep victim deque
    /// (`pool.batch_steals`).
    batch_steals: obs::Counter,
    /// Instantaneous queued-but-unclaimed jobs (`pool.queue_depth`).
    queue_depth: obs::Gauge,
}

impl PoolObs {
    fn new(registry: &obs::Registry) -> PoolObs {
        PoolObs {
            claims: registry.counter("pool.claims"),
            local_hits: registry.counter("pool.local_hits"),
            steals: registry.counter("pool.steals"),
            batch_steals: registry.counter("pool.batch_steals"),
            queue_depth: registry.gauge("pool.queue_depth"),
        }
    }
}

/// Shared state between the pool handle and its workers.
struct PoolInner {
    scheduler: Scheduler,
    /// `WorkStealing`: one deque per worker. `SharedFifo`: a single
    /// shared queue in slot 0. `PriorityLanes`: one band per class,
    /// indexed by [`JobClass::band`].
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Jobs pushed but not yet claimed, across all deques.
    queued: AtomicUsize,
    /// Set (under the park mutex) when the pool begins shutting down.
    closed: AtomicBool,
    /// Workers inside the parking critical section.
    sleepers: AtomicUsize,
    /// Guards parking; never held while running a job.
    park: Mutex<()>,
    /// Signals parked workers that a job (or closure) is available.
    available: Condvar,
    /// Signals `wait_empty` that `pending` may have reached zero.
    empty: Condvar,
    /// Jobs submitted but not yet finished (queued + running). This is
    /// what `wait_empty` waits on: with stealing, "every deque empty"
    /// is *not* "idle" — a stolen job may still be running.
    pending: Mutex<usize>,
    /// Round-robin placement cursor for external submissions.
    next_deque: AtomicUsize,
    /// Monotonic claim counter driving the priority-lane aging rule.
    claim_tick: AtomicU64,
    submitted: AtomicU64,
    queue_high_water: AtomicUsize,
    per_worker: Vec<WorkerCounters>,
    per_class: [ClassCounters; JobClass::COUNT],
    /// Registry mirrors of the scheduling counters (no-ops when the
    /// pool was built without a live registry).
    obs: PoolObs,
}

impl PoolInner {
    /// A token identifying this pool instance for worker-local pushes.
    fn token(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    /// Marks one submitted job as fully finished and wakes `wait_empty`
    /// if that was the last one.
    fn finish_one(&self) {
        let mut pending = self.pending.lock().expect("pool mutex poisoned");
        *pending -= 1;
        if *pending == 0 {
            self.empty.notify_all();
        }
    }

    /// The calling thread's worker id, if it is a worker of this pool.
    fn own_worker_id(self: &Arc<Self>) -> Option<usize> {
        WORKER_IDENTITY.with(|w| match w.get() {
            Some((token, id)) if token == self.token() => Some(id),
            _ => None,
        })
    }

    /// Wakes one parked worker if any worker is parked.
    fn wake_one(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.park.lock().expect("pool mutex poisoned");
            self.available.notify_one();
        }
    }

    /// Places `job` on a deque and wakes a parked worker if any exists.
    fn push(self: &Arc<Self>, job: Job) {
        let target = match self.scheduler {
            Scheduler::SharedFifo => 0,
            Scheduler::PriorityLanes => job.meta.class.band(),
            Scheduler::WorkStealing => {
                // A worker of *this* pool pushes to its own deque
                // (LIFO locality); external submitters round-robin.
                self.own_worker_id().unwrap_or_else(|| {
                    self.next_deque.fetch_add(1, Ordering::Relaxed) % self.deques.len()
                })
            }
        };
        let urgent =
            self.scheduler == Scheduler::PriorityLanes && job.meta.priority >= URGENT_PRIORITY;
        // `queued` normally moves inside a deque critical section, so a
        // worker that observes `queued > 0` and then locks the deques
        // finds the job (no underflow when a thief races a submitter);
        // the one exception — jobs in transit during a batched steal —
        // is covered by the parking re-check, which retries instead of
        // sleeping while `queued > 0`.
        let (depth, total) = {
            let mut q = self.deques[target].lock().expect("pool mutex poisoned");
            if urgent {
                q.push_front(job);
            } else {
                q.push_back(job);
            }
            (q.len(), self.queued.fetch_add(1, Ordering::SeqCst) + 1)
        };
        if self.scheduler == Scheduler::WorkStealing {
            self.per_worker[target]
                .deque_high_water
                .fetch_max(depth, Ordering::Relaxed);
        }
        self.queue_high_water.fetch_max(total, Ordering::Relaxed);
        self.obs.queue_depth.add(1);
        self.wake_one();
    }

    /// Pops the front of band `band`, maintaining `queued`.
    fn pop_band_front(&self, band: usize) -> Option<Job> {
        let mut q = self.deques[band].lock().expect("pool mutex poisoned");
        let job = q.pop_front();
        if job.is_some() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            self.obs.queue_depth.add(-1);
        }
        job
    }

    /// One claim attempt for worker `id`: local pop, then (stealing
    /// only) a full rotation sweep; for priority lanes, a band scan
    /// with the aging rule. Returns `None` after a failed sweep — the
    /// caller then parks.
    fn claim(&self, id: usize) -> Option<Job> {
        match self.scheduler {
            Scheduler::SharedFifo => {
                let job = self.pop_band_front(0);
                if job.is_some() {
                    self.per_worker[id]
                        .local_hits
                        .fetch_add(1, Ordering::Relaxed);
                    self.obs.claims.inc();
                    self.obs.local_hits.inc();
                }
                job
            }
            Scheduler::PriorityLanes => self.claim_lanes(id),
            Scheduler::WorkStealing => self.claim_stealing(id),
        }
    }

    /// Priority-lane claim: highest band first, except that every
    /// [`AGING_PERIOD`]-th claim scans lowest-first and counts the
    /// grant as aged when higher-class work was still queued.
    fn claim_lanes(&self, id: usize) -> Option<Job> {
        // Only ticks that can claim something should consume an aging
        // slot, or idle sweeps before parking would burn the aging
        // cadence while the pool is empty.
        if self.queued.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let tick = self.claim_tick.fetch_add(1, Ordering::Relaxed);
        let aging_pass = tick % AGING_PERIOD == AGING_PERIOD - 1;
        let bands: &[usize] = if aging_pass { &[2, 1, 0] } else { &[0, 1, 2] };
        for &band in bands {
            if let Some(job) = self.pop_band_front(band) {
                self.per_worker[id]
                    .local_hits
                    .fetch_add(1, Ordering::Relaxed);
                self.obs.claims.inc();
                self.obs.local_hits.inc();
                if aging_pass && band > 0 {
                    let higher_waiting = (0..band).any(|b| {
                        !self.deques[b]
                            .lock()
                            .expect("pool mutex poisoned")
                            .is_empty()
                    });
                    if higher_waiting {
                        self.per_class[band].aged.fetch_add(1, Ordering::Relaxed);
                    }
                }
                return Some(job);
            }
        }
        None
    }

    /// Work-stealing claim: LIFO local pop, then a FIFO rotation sweep
    /// with batched steals on deep victims.
    fn claim_stealing(&self, id: usize) -> Option<Job> {
        // Newest-first from our own deque.
        let local = {
            let mut q = self.deques[id].lock().expect("pool mutex poisoned");
            let job = q.pop_back();
            if job.is_some() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                self.obs.queue_depth.add(-1);
            }
            job
        };
        if let Some(job) = local {
            self.per_worker[id]
                .local_hits
                .fetch_add(1, Ordering::Relaxed);
            self.obs.claims.inc();
            self.obs.local_hits.inc();
            return Some(job);
        }
        // Oldest-first from victims, by rotation. Never hold two deque
        // locks at once (a ring of simultaneous thieves would deadlock)
        // — a batch is moved out under the victim's lock, then pushed
        // under our own.
        let n = self.deques.len();
        for k in 1..n {
            let victim = (id + k) % n;
            let (job, batch) = {
                let mut q = self.deques[victim].lock().expect("pool mutex poisoned");
                match q.pop_front() {
                    None => (None, Vec::new()),
                    Some(job) => {
                        self.queued.fetch_sub(1, Ordering::SeqCst);
                        self.obs.queue_depth.add(-1);
                        let depth_before = q.len() + 1;
                        let mut batch = Vec::new();
                        if depth_before >= BATCH_STEAL_DEPTH {
                            // Take half the victim's backlog (the job
                            // being returned counts toward the half).
                            let extra = depth_before / 2 - 1;
                            batch.reserve(extra);
                            for _ in 0..extra {
                                match q.pop_front() {
                                    Some(j) => batch.push(j),
                                    None => break,
                                }
                            }
                        }
                        (Some(job), batch)
                    }
                }
            };
            if let Some(job) = job {
                if !batch.is_empty() {
                    let depth = {
                        let mut own = self.deques[id].lock().expect("pool mutex poisoned");
                        for j in batch {
                            own.push_back(j);
                        }
                        own.len()
                    };
                    self.per_worker[id]
                        .deque_high_water
                        .fetch_max(depth, Ordering::Relaxed);
                    self.per_worker[id]
                        .batch_steals
                        .fetch_add(1, Ordering::Relaxed);
                    self.obs.batch_steals.inc();
                }
                self.per_worker[id].steals.fetch_add(1, Ordering::Relaxed);
                self.per_worker[victim]
                    .stolen_from
                    .fetch_add(1, Ordering::Relaxed);
                self.obs.claims.inc();
                self.obs.steals.inc();
                return Some(job);
            }
        }
        None
    }
}

/// A fixed-size pool of long-lived worker threads executing submitted
/// jobs.
///
/// * the default [`Scheduler::WorkStealing`] topology gives every
///   worker its own deque (LIFO local pop, FIFO rotation steal,
///   batched steals on deep victims) so one slow job cannot
///   head-of-line-block short jobs behind it;
///   [`Scheduler::PriorityLanes`] instead schedules by [`JobClass`]
///   with an aging rule — the topology the class-aware course server
///   runs;
/// * every job carries a [`JobMeta`]; [`ThreadPool::execute`] inherits
///   the submitting job's meta (see [`current_job_meta`]) and
///   [`ThreadPool::execute_with_meta`] sets it explicitly;
/// * a job that **panics** is contained: the worker survives, the panic
///   is counted, and every other job runs normally;
/// * **`Drop` drains**: jobs still queued when the pool is dropped are
///   executed before the workers join — an accepted job is never
///   silently discarded;
/// * [`ThreadPool::wait_empty`] blocks until no job is queued *or*
///   running (stolen-but-unfinished jobs included) — the quiesce point
///   graceful shutdown builds on.
pub struct ThreadPool {
    inner: Arc<PoolInner>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("workers", &self.workers.len())
            .field("scheduler", &self.inner.scheduler)
            .finish()
    }
}

impl ThreadPool {
    /// Spawns a pool with `workers` threads and the default
    /// work-stealing scheduler.
    ///
    /// # Panics
    /// If `workers == 0`.
    pub fn new(workers: usize) -> ThreadPool {
        ThreadPool::with_scheduler(workers, Scheduler::default())
    }

    /// Spawns a pool with `workers` threads and an explicit queue
    /// topology (the shared-FIFO baseline is kept for measurement).
    ///
    /// # Panics
    /// If `workers == 0`.
    pub fn with_scheduler(workers: usize, scheduler: Scheduler) -> ThreadPool {
        ThreadPool::with_observability(workers, scheduler, &obs::Registry::disabled())
    }

    /// Spawns a pool whose scheduling events (`pool.claims`,
    /// `pool.local_hits`, `pool.steals`, `pool.batch_steals`, and the
    /// `pool.queue_depth` gauge) are mirrored into `registry`. Passing a
    /// disabled registry makes every mirror a no-op — that is exactly
    /// what [`ThreadPool::with_scheduler`] does.
    ///
    /// # Panics
    /// If `workers == 0`.
    pub fn with_observability(
        workers: usize,
        scheduler: Scheduler,
        registry: &obs::Registry,
    ) -> ThreadPool {
        assert!(workers > 0, "thread pool needs at least one worker");
        let deque_count = match scheduler {
            Scheduler::SharedFifo => 1,
            Scheduler::WorkStealing => workers,
            Scheduler::PriorityLanes => JobClass::COUNT,
        };
        let inner = Arc::new(PoolInner {
            scheduler,
            deques: (0..deque_count)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            queued: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            park: Mutex::new(()),
            available: Condvar::new(),
            empty: Condvar::new(),
            pending: Mutex::new(0),
            next_deque: AtomicUsize::new(0),
            claim_tick: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            queue_high_water: AtomicUsize::new(0),
            per_worker: (0..workers).map(|_| WorkerCounters::default()).collect(),
            per_class: std::array::from_fn(|_| ClassCounters::default()),
            obs: PoolObs::new(registry),
        });
        let handles = (0..workers)
            .map(|id| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("serve-worker-{id}"))
                    .spawn(move || worker_loop(id, &inner))
                    .expect("spawning pool worker")
            })
            .collect();
        ThreadPool {
            inner,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.per_worker.len()
    }

    /// The queue topology this pool runs.
    pub fn scheduler(&self) -> Scheduler {
        self.inner.scheduler
    }

    /// Submits a job with the meta inherited from the current thread
    /// (the running pool job's meta, or an enclosing [`with_meta`]),
    /// falling back to [`JobMeta::default`]. Returns the job back as
    /// `Err(PoolClosed)` if the pool has begun shutting down
    /// (deterministic rejection — the caller decides what losing the
    /// job means).
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) -> Result<(), PoolClosed<F>> {
        self.execute_with_meta(current_job_meta().unwrap_or_default(), job)
    }

    /// Submits a job with explicit scheduling metadata.
    pub fn execute_with_meta<F: FnOnce() + Send + 'static>(
        &self,
        meta: JobMeta,
        job: F,
    ) -> Result<(), PoolClosed<F>> {
        // Count the job as pending *before* it becomes visible to
        // workers so `wait_empty` can never observe a running job that
        // it did not wait for.
        {
            let mut pending = self.inner.pending.lock().expect("pool mutex poisoned");
            *pending += 1;
        }
        if self.inner.closed.load(Ordering::SeqCst) {
            self.inner.finish_one();
            return Err(PoolClosed(job));
        }
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        self.inner.per_class[meta.class.band()]
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        self.inner.push(Job {
            run: Box::new(job),
            meta,
        });
        Ok(())
    }

    /// Blocks until every submitted job has finished and every queue is
    /// empty. Returns immediately if nothing is pending.
    ///
    /// "Empty" means *no job queued and no job running*: the pending
    /// count a job joins at submit time and leaves only after its
    /// closure returns (or panics). With work stealing this is the only
    /// correct definition — a stolen job leaves every deque empty while
    /// it is still running on the thief.
    pub fn wait_empty(&self) {
        let mut pending = self.inner.pending.lock().expect("pool mutex poisoned");
        while *pending > 0 {
            pending = self.inner.empty.wait(pending).expect("pool mutex poisoned");
        }
    }

    /// A snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        let per_worker: Vec<WorkerStats> = self
            .inner
            .per_worker
            .iter()
            .map(|w| WorkerStats {
                started: w.started.load(Ordering::Relaxed),
                finished: w.finished.load(Ordering::Relaxed),
                panicked: w.panicked.load(Ordering::Relaxed),
                local_hits: w.local_hits.load(Ordering::Relaxed),
                steals: w.steals.load(Ordering::Relaxed),
                stolen_from: w.stolen_from.load(Ordering::Relaxed),
                batch_steals: w.batch_steals.load(Ordering::Relaxed),
                queue_high_water: w.deque_high_water.load(Ordering::Relaxed),
            })
            .collect();
        let per_class: Vec<ClassStats> = JobClass::ALL
            .iter()
            .map(|&class| {
                let c = &self.inner.per_class[class.band()];
                ClassStats {
                    class,
                    submitted: c.submitted.load(Ordering::Relaxed),
                    completed: c.completed.load(Ordering::Relaxed),
                    aged: c.aged.load(Ordering::Relaxed),
                    deadline_missed: c.deadline_missed.load(Ordering::Relaxed),
                    busy_micros: c.busy_micros.load(Ordering::Relaxed),
                }
            })
            .collect();
        PoolStats {
            workers: per_worker.len(),
            scheduler: self.inner.scheduler,
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            started: per_worker.iter().map(|w| w.started).sum(),
            finished: per_worker.iter().map(|w| w.finished).sum(),
            panicked: per_worker.iter().map(|w| w.panicked).sum(),
            local_hits: per_worker.iter().map(|w| w.local_hits).sum(),
            steals: per_worker.iter().map(|w| w.steals).sum(),
            batch_steals: per_worker.iter().map(|w| w.batch_steals).sum(),
            queue_high_water: self.inner.queue_high_water.load(Ordering::Relaxed),
            queue_depth: self.inner.queued.load(Ordering::SeqCst),
            per_worker,
            per_class,
        }
    }
}

impl Drop for ThreadPool {
    /// Closes the queues and joins every worker. Queued jobs are
    /// **drained** (executed), not discarded; new submissions are
    /// rejected from this point on.
    fn drop(&mut self) {
        {
            let _guard = self.inner.park.lock().expect("pool mutex poisoned");
            self.inner.closed.store(true, Ordering::SeqCst);
        }
        self.inner.available.notify_all();
        for handle in self.workers.drain(..) {
            // A panicking *job* is caught inside the worker; a worker
            // thread itself dying is a bug worth propagating.
            handle.join().expect("pool worker crashed outside a job");
        }
    }
}

/// The worker body: claim (local pop, then steal sweep / band scan),
/// run (panic-contained, meta installed for nested submissions),
/// count, repeat; park after a failed sweep; exit once the pool is
/// closed *and* every deque is drained.
fn worker_loop(id: usize, inner: &Arc<PoolInner>) {
    WORKER_IDENTITY.with(|w| w.set(Some((inner.token(), id))));
    let counters = &inner.per_worker[id];
    loop {
        match inner.claim(id) {
            Some(job) => {
                let band = job.meta.class.band();
                if let Some(deadline) = job.meta.deadline {
                    if Instant::now() > deadline {
                        inner.per_class[band]
                            .deadline_missed
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
                counters.started.fetch_add(1, Ordering::Relaxed);
                CURRENT_META.with(|m| m.set(Some(job.meta)));
                let run_start = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(job.run));
                let busy = run_start.elapsed();
                CURRENT_META.with(|m| m.set(None));
                if outcome.is_err() {
                    counters.panicked.fetch_add(1, Ordering::Relaxed);
                }
                counters.finished.fetch_add(1, Ordering::Relaxed);
                inner.per_class[band]
                    .busy_micros
                    .fetch_add(busy.as_micros() as u64, Ordering::Relaxed);
                inner.per_class[band]
                    .completed
                    .fetch_add(1, Ordering::Relaxed);
                inner.finish_one();
            }
            None => {
                // Full sweep failed: park. The sleepers/queued protocol
                // (see module docs) makes this lost-wakeup-free.
                let guard = inner.park.lock().expect("pool mutex poisoned");
                inner.sleepers.fetch_add(1, Ordering::SeqCst);
                if inner.queued.load(Ordering::SeqCst) > 0 {
                    inner.sleepers.fetch_sub(1, Ordering::SeqCst);
                    drop(guard);
                    // A job is in transit (counted but not yet visible
                    // to the sweep — a batched steal's relocated jobs
                    // sit outside every deque until the thief pushes
                    // them). Donate the timeslice instead of re-running
                    // the full sweep against a thief that may be
                    // preempted mid-relocation.
                    std::thread::yield_now();
                    continue;
                }
                if inner.closed.load(Ordering::SeqCst) {
                    inner.sleepers.fetch_sub(1, Ordering::SeqCst);
                    return;
                }
                let _guard = inner.available.wait(guard).expect("pool mutex poisoned");
                inner.sleepers.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    const ALL_SCHEDULERS: [Scheduler; 3] = [
        Scheduler::SharedFifo,
        Scheduler::WorkStealing,
        Scheduler::PriorityLanes,
    ];

    #[test]
    fn runs_jobs_and_counts_them_under_every_scheduler() {
        for scheduler in ALL_SCHEDULERS {
            let pool = ThreadPool::with_scheduler(4, scheduler);
            let hits = Arc::new(AtomicU64::new(0));
            for _ in 0..100 {
                let hits = Arc::clone(&hits);
                pool.execute(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                })
                .expect("pool accepts while alive");
            }
            pool.wait_empty();
            assert_eq!(hits.load(Ordering::Relaxed), 100, "{scheduler}");
            let stats = pool.stats();
            assert_eq!(stats.scheduler, scheduler);
            assert_eq!(stats.submitted, 100);
            assert_eq!(stats.finished, 100);
            assert_eq!(stats.panicked, 0);
            assert_eq!(stats.queue_depth, 0);
            assert!(stats.queue_high_water >= 1);
            assert_eq!(stats.per_worker.len(), 4);
            assert_eq!(
                stats.per_worker.iter().map(|w| w.finished).sum::<u64>(),
                100
            );
            // Every claim is either a local hit or a steal.
            assert_eq!(stats.local_hits + stats.steals, 100);
            // Default meta is Batch: the per-class ledger must agree.
            let batch = stats.per_class[JobClass::Batch.band()];
            assert_eq!(batch.class, JobClass::Batch);
            assert_eq!(batch.submitted, 100, "{scheduler}");
            assert_eq!(batch.completed, 100, "{scheduler}");
        }
    }

    #[test]
    fn registry_mirrors_agree_with_pool_stats() {
        for scheduler in ALL_SCHEDULERS {
            let registry = obs::Registry::new();
            let pool = ThreadPool::with_observability(4, scheduler, &registry);
            for _ in 0..200 {
                pool.execute(|| {}).unwrap();
            }
            pool.wait_empty();
            let stats = pool.stats();
            let snap = registry.snapshot();
            assert_eq!(snap.counter("pool.claims"), Some(200), "{scheduler}");
            assert_eq!(
                snap.counter("pool.local_hits"),
                Some(stats.local_hits),
                "{scheduler}"
            );
            assert_eq!(
                snap.counter("pool.steals"),
                Some(stats.steals),
                "{scheduler}"
            );
            assert_eq!(
                snap.counter("pool.batch_steals"),
                Some(stats.batch_steals),
                "{scheduler}"
            );
            assert_eq!(snap.gauge("pool.queue_depth"), Some(0), "{scheduler}");
        }
    }

    #[test]
    fn drop_drains_queued_jobs_under_every_scheduler() {
        for scheduler in ALL_SCHEDULERS {
            let hits = Arc::new(AtomicU64::new(0));
            {
                // One worker and a slow first job force the rest to queue.
                let pool = ThreadPool::with_scheduler(1, scheduler);
                for _ in 0..50 {
                    let hits = Arc::clone(&hits);
                    pool.execute(move || {
                        std::thread::sleep(Duration::from_micros(100));
                        hits.fetch_add(1, Ordering::Relaxed);
                    })
                    .unwrap();
                }
                // Drop immediately: everything queued must still run.
            }
            assert_eq!(
                hits.load(Ordering::Relaxed),
                50,
                "{scheduler} drop lost jobs"
            );
        }
    }

    #[test]
    fn panicking_job_never_wedges_a_worker() {
        let pool = ThreadPool::new(2);
        let hits = Arc::new(AtomicU64::new(0));
        for i in 0..40 {
            let hits = Arc::clone(&hits);
            pool.execute(move || {
                if i % 4 == 0 {
                    panic!("job {i} exploded");
                }
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        pool.wait_empty();
        let stats = pool.stats();
        assert_eq!(stats.panicked, 10);
        assert_eq!(stats.finished, 40, "panicked jobs still count as finished");
        assert_eq!(hits.load(Ordering::Relaxed), 30);
        // The pool is still fully operational afterwards.
        let hits2 = Arc::clone(&hits);
        pool.execute(move || {
            hits2.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        pool.wait_empty();
        assert_eq!(hits.load(Ordering::Relaxed), 31);
    }

    #[test]
    fn idle_workers_steal_a_blocked_workers_backlog() {
        // 4 workers; worker deques are fed round-robin, and one job
        // blocks its worker for a long time. The shorts placed behind
        // the blocker (and behind everyone else) must be finished by
        // thieves long before the blocker completes.
        let pool = ThreadPool::with_scheduler(4, Scheduler::WorkStealing);
        let release = Arc::new(AtomicBool::new(false));
        let shorts_done = Arc::new(AtomicU64::new(0));
        {
            let release = Arc::clone(&release);
            pool.execute(move || {
                while !release.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_micros(200));
                }
            })
            .unwrap();
        }
        for _ in 0..40 {
            let shorts_done = Arc::clone(&shorts_done);
            pool.execute(move || {
                shorts_done.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        // All 40 shorts must complete while the blocker still runs:
        // 10 of them sit behind the blocker and can only move if stolen.
        let deadline = Instant::now() + Duration::from_secs(5);
        while shorts_done.load(Ordering::SeqCst) < 40 {
            assert!(
                Instant::now() < deadline,
                "shorts stuck behind a blocked worker"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = pool.stats();
        assert!(stats.steals > 0, "balancing required steals: {stats:?}");
        release.store(true, Ordering::SeqCst);
        pool.wait_empty();
        let stats = pool.stats();
        assert_eq!(stats.finished, 41);
        assert_eq!(
            stats.per_worker.iter().map(|w| w.stolen_from).sum::<u64>(),
            stats.steals,
            "every steal has a victim"
        );
    }

    #[test]
    fn deep_victims_are_relieved_by_batched_steals() {
        // A parent job pushes 12 slow shorts onto its *own* deque and
        // then blocks. The only way the other worker makes progress is
        // stealing — and with a 12-deep victim, at least one sweep must
        // take a batch, not a single job.
        let pool = Arc::new(ThreadPool::with_scheduler(2, Scheduler::WorkStealing));
        let release = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicU64::new(0));
        {
            let release = Arc::clone(&release);
            let done = Arc::clone(&done);
            let handle = Arc::clone(&pool);
            pool.execute(move || {
                for _ in 0..12 {
                    let done = Arc::clone(&done);
                    handle
                        .execute(move || {
                            std::thread::sleep(Duration::from_millis(1));
                            done.fetch_add(1, Ordering::SeqCst);
                        })
                        .expect("pool is open");
                }
                while !release.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_micros(100));
                }
            })
            .unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while done.load(Ordering::SeqCst) < 12 {
            assert!(
                Instant::now() < deadline,
                "shorts stuck behind the blocked parent"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = pool.stats();
        assert!(stats.steals > 0, "thief never stole: {stats:?}");
        assert!(
            stats.batch_steals >= 1,
            "12-deep victim never batch-stolen: {stats:?}"
        );
        assert_eq!(
            stats.per_worker.iter().map(|w| w.stolen_from).sum::<u64>(),
            stats.steals,
            "every steal has a victim"
        );
        release.store(true, Ordering::SeqCst);
        pool.wait_empty();
        assert_eq!(pool.stats().finished, 13);
    }

    #[test]
    fn wait_empty_waits_for_stolen_but_running_jobs() {
        // Every deque goes empty the moment the job is claimed; only
        // the pending count knows the job is still running. wait_empty
        // must block on it.
        let pool = ThreadPool::with_scheduler(2, Scheduler::WorkStealing);
        let finished = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&finished);
        pool.execute(move || {
            std::thread::sleep(Duration::from_millis(30));
            flag.store(true, Ordering::SeqCst);
        })
        .unwrap();
        pool.wait_empty();
        assert!(
            finished.load(Ordering::SeqCst),
            "wait_empty returned while a claimed job was still running"
        );
        assert_eq!(pool.stats().queue_depth, 0);
    }

    #[test]
    fn wait_empty_returns_only_at_depth_zero() {
        let pool = ThreadPool::new(2);
        let running = Arc::new(AtomicU64::new(0));
        for _ in 0..20 {
            let running = Arc::clone(&running);
            pool.execute(move || {
                running.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
                running.fetch_sub(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.wait_empty();
        assert_eq!(
            running.load(Ordering::SeqCst),
            0,
            "wait_empty returned with jobs running"
        );
        assert_eq!(pool.stats().queue_depth, 0);
        assert_eq!(pool.stats().finished, 20);
    }

    #[test]
    fn wait_empty_on_idle_pool_is_instant() {
        let pool = ThreadPool::new(3);
        pool.wait_empty(); // must not block
        assert_eq!(pool.stats().submitted, 0);
    }

    #[test]
    fn worker_submissions_land_on_the_workers_own_deque() {
        // A job that submits into its own pool must push to its own
        // deque (and the pool must drain it before wait_empty returns,
        // because the child joins `pending` before the parent exits).
        let pool = Arc::new(ThreadPool::with_scheduler(2, Scheduler::WorkStealing));
        let order = Arc::new(Mutex::new(Vec::new()));
        {
            let pool2 = Arc::clone(&pool);
            let order = Arc::clone(&order);
            pool.execute(move || {
                order.lock().unwrap().push("parent");
                let order = Arc::clone(&order);
                pool2
                    .execute(move || {
                        order.lock().unwrap().push("child");
                    })
                    .expect("pool is open");
            })
            .unwrap();
        }
        pool.wait_empty();
        assert_eq!(*order.lock().unwrap(), vec!["parent", "child"]);
        assert_eq!(pool.stats().finished, 2);
    }

    #[test]
    fn parked_workers_wake_across_quiet_gaps() {
        // Exercise the park/wake protocol: rounds of work separated by
        // idle gaps long enough for every worker to park. A lost
        // wakeup would hang a round (and the test) forever.
        let pool = ThreadPool::with_scheduler(3, Scheduler::WorkStealing);
        let hits = Arc::new(AtomicU64::new(0));
        for round in 0..20 {
            for _ in 0..7 {
                let hits = Arc::clone(&hits);
                pool.execute(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                })
                .unwrap();
            }
            pool.wait_empty();
            assert_eq!(hits.load(Ordering::Relaxed), 7 * (round + 1));
            // Let the workers actually park before the next round.
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn concurrent_submitters_and_wait_empty_agree() {
        // The drop-while-submitting race surface, minus the drop (safe
        // Rust forbids executing into a pool being dropped): many
        // threads submit while another repeatedly calls wait_empty;
        // every wait_empty return must observe a consistent world.
        let pool = Arc::new(ThreadPool::with_scheduler(4, Scheduler::WorkStealing));
        let done = Arc::new(AtomicU64::new(0));
        thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let done = Arc::clone(&done);
                s.spawn(move || {
                    for _ in 0..200 {
                        let done = Arc::clone(&done);
                        pool.execute(move || {
                            done.fetch_add(1, Ordering::SeqCst);
                        })
                        .unwrap();
                    }
                });
            }
            for _ in 0..10 {
                pool.wait_empty();
                let st = pool.stats();
                assert!(st.finished <= st.submitted);
            }
        });
        pool.wait_empty();
        assert_eq!(done.load(Ordering::SeqCst), 800);
        assert_eq!(pool.stats().finished, 800);
    }

    #[test]
    fn priority_lanes_serve_interactive_ahead_of_bulk() {
        // One worker, blocked while a mixed backlog accumulates. Strict
        // priority would run all 5 interactive jobs before any bulk;
        // the aging rule may legitimately promote a bounded number of
        // bulk jobs early, so assert "mostly first", not "all first".
        let pool = ThreadPool::with_scheduler(1, Scheduler::PriorityLanes);
        let release = Arc::new(AtomicBool::new(false));
        let order: Arc<Mutex<Vec<JobClass>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let release = Arc::clone(&release);
            pool.execute(move || {
                while !release.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_micros(100));
                }
            })
            .unwrap();
        }
        for _ in 0..5 {
            let order = Arc::clone(&order);
            pool.execute_with_meta(JobMeta::for_class(JobClass::Bulk), move || {
                order.lock().unwrap().push(JobClass::Bulk);
            })
            .unwrap();
        }
        for _ in 0..5 {
            let order = Arc::clone(&order);
            pool.execute_with_meta(JobMeta::for_class(JobClass::Interactive), move || {
                order.lock().unwrap().push(JobClass::Interactive);
            })
            .unwrap();
        }
        release.store(true, Ordering::SeqCst);
        pool.wait_empty();
        let order = order.lock().unwrap();
        let interactive_in_first_half = order[..5]
            .iter()
            .filter(|&&c| c == JobClass::Interactive)
            .count();
        assert!(
            interactive_in_first_half >= 3,
            "bulk backlog starved interactive work: {order:?}"
        );
        let stats = pool.stats();
        assert_eq!(stats.per_class[JobClass::Interactive.band()].completed, 5);
        assert_eq!(stats.per_class[JobClass::Bulk.band()].completed, 5);
    }

    #[test]
    fn urgent_jobs_jump_their_own_band() {
        let pool = ThreadPool::with_scheduler(1, Scheduler::PriorityLanes);
        let release = Arc::new(AtomicBool::new(false));
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let release = Arc::clone(&release);
            pool.execute(move || {
                while !release.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_micros(100));
                }
            })
            .unwrap();
        }
        for name in ["first", "second", "third"] {
            let order = Arc::clone(&order);
            pool.execute_with_meta(JobMeta::for_class(JobClass::Interactive), move || {
                order.lock().unwrap().push(name);
            })
            .unwrap();
        }
        {
            let order = Arc::clone(&order);
            pool.execute_with_meta(
                JobMeta::for_class(JobClass::Interactive).with_priority(URGENT_PRIORITY),
                move || {
                    order.lock().unwrap().push("urgent");
                },
            )
            .unwrap();
        }
        release.store(true, Ordering::SeqCst);
        pool.wait_empty();
        assert_eq!(
            *order.lock().unwrap(),
            vec!["urgent", "first", "second", "third"]
        );
    }

    #[test]
    fn aging_runs_bulk_under_sustained_interactive_load() {
        // One worker; a bulk job queued behind a gate while interactive
        // jobs are fed continuously. Without aging the bulk job would
        // starve for as long as the feed lasts; with AGING_PERIOD the
        // bulk job must complete while the feed is still running.
        let pool = ThreadPool::with_scheduler(1, Scheduler::PriorityLanes);
        let release = Arc::new(AtomicBool::new(false));
        let bulk_done = Arc::new(AtomicBool::new(false));
        {
            let release = Arc::clone(&release);
            pool.execute(move || {
                while !release.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_micros(100));
                }
            })
            .unwrap();
        }
        {
            let bulk_done = Arc::clone(&bulk_done);
            pool.execute_with_meta(JobMeta::for_class(JobClass::Bulk), move || {
                bulk_done.store(true, Ordering::SeqCst);
            })
            .unwrap();
        }
        // Prime the interactive lane deeply, then open the gate and
        // keep feeding so the lane never runs dry.
        for _ in 0..64 {
            pool.execute_with_meta(JobMeta::for_class(JobClass::Interactive), || {
                std::thread::sleep(Duration::from_micros(50));
            })
            .unwrap();
        }
        release.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !bulk_done.load(Ordering::SeqCst) {
            assert!(
                Instant::now() < deadline,
                "bulk job starved under interactive load"
            );
            // Keep the interactive lane non-empty, throttled to
            // roughly the worker's pace so the backlog stays bounded.
            pool.execute_with_meta(JobMeta::for_class(JobClass::Interactive), || {
                std::thread::sleep(Duration::from_micros(50));
            })
            .unwrap();
            std::thread::sleep(Duration::from_micros(30));
        }
        pool.wait_empty();
        let stats = pool.stats();
        assert!(
            stats.per_class[JobClass::Bulk.band()].aged >= 1,
            "bulk ran but not via the aging rule: {stats:?}"
        );
    }

    #[test]
    fn deadline_misses_are_counted_per_class() {
        let pool = ThreadPool::with_scheduler(1, Scheduler::PriorityLanes);
        let already_passed = Instant::now() - Duration::from_millis(5);
        pool.execute_with_meta(
            JobMeta::for_class(JobClass::Interactive).with_deadline(already_passed),
            || {},
        )
        .unwrap();
        let future = Instant::now() + Duration::from_secs(60);
        pool.execute_with_meta(
            JobMeta::for_class(JobClass::Interactive).with_deadline(future),
            || {},
        )
        .unwrap();
        pool.wait_empty();
        let stats = pool.stats();
        assert_eq!(
            stats.per_class[JobClass::Interactive.band()].deadline_missed,
            1
        );
    }

    #[test]
    fn busy_time_is_accounted_to_the_jobs_class() {
        let pool = ThreadPool::with_scheduler(2, Scheduler::PriorityLanes);
        for _ in 0..4 {
            pool.execute_with_meta(JobMeta::for_class(JobClass::Bulk), || {
                std::thread::sleep(Duration::from_millis(5));
            })
            .unwrap();
        }
        pool.execute_with_meta(JobMeta::for_class(JobClass::Interactive), || {})
            .unwrap();
        pool.wait_empty();
        let stats = pool.stats();
        let bulk = stats.per_class[JobClass::Bulk.band()];
        // 4 x 5ms of real work: the bulk meter must show at least most
        // of it, and the mean service time must dwarf the no-op class.
        assert!(
            bulk.busy_micros >= 15_000,
            "bulk busy under-counted: {stats:?}"
        );
        let interactive = stats.per_class[JobClass::Interactive.band()];
        assert!(
            bulk.busy_micros / bulk.completed > interactive.busy_micros.max(1),
            "class service times indistinguishable: {stats:?}"
        );
    }

    #[test]
    fn nested_submissions_inherit_the_parents_meta() {
        let pool = Arc::new(ThreadPool::with_scheduler(2, Scheduler::PriorityLanes));
        let observed: Arc<Mutex<Vec<JobClass>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let pool2 = Arc::clone(&pool);
            let observed = Arc::clone(&observed);
            pool.execute_with_meta(JobMeta::for_class(JobClass::Interactive), move || {
                // The child uses plain execute: it must inherit
                // Interactive, not fall back to the Batch default.
                let observed = Arc::clone(&observed);
                pool2
                    .execute(move || {
                        observed
                            .lock()
                            .unwrap()
                            .push(current_job_meta().expect("meta visible inside job").class);
                    })
                    .expect("pool is open");
            })
            .unwrap();
        }
        pool.wait_empty();
        assert_eq!(*observed.lock().unwrap(), vec![JobClass::Interactive]);
        let stats = pool.stats();
        assert_eq!(stats.per_class[JobClass::Interactive.band()].submitted, 2);
        assert_eq!(stats.per_class[JobClass::Batch.band()].submitted, 0);
    }

    #[test]
    fn with_meta_scopes_the_inherited_meta() {
        assert_eq!(current_job_meta(), None);
        let inner = with_meta(JobMeta::for_class(JobClass::Bulk), || {
            current_job_meta().map(|m| m.class)
        });
        assert_eq!(inner, Some(JobClass::Bulk));
        assert_eq!(
            current_job_meta(),
            None,
            "meta must not leak out of with_meta"
        );
    }
}
