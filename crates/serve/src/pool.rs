//! The long-lived worker pool: the cs431 "hello server" `ThreadPool`
//! grown up — panic-isolating workers, `wait_empty`, join-on-drop with
//! drain semantics, a ledger of scheduling events kept in the pool's
//! [`obs::Registry`] (`pool.*`; [`ThreadPool::stats`] reads it back),
//! and one scheduler: **per-worker deques with work stealing**, each deque
//! split into one band per [`JobClass`], so interactive work jumps a
//! bulk backlog without bulk work starving forever.
//!
//! Every job carries a [`JobMeta`] (`class`, `priority`, `deadline`)
//! instead of being an opaque closure. The class is what the claim
//! order keys on, what the per-class counters are bucketed by, and
//! what nested submissions inherit: while a job runs, its meta is
//! visible through [`current_job_meta`], and [`ThreadPool::execute`]
//! submits with the running job's meta — so a high-class `serve::par`
//! call fans out high-class chunks instead of being demoted to the
//! default class behind background bulk jobs.
//!
//! ## The deque/steal protocol
//!
//! Every worker owns a deque (`Mutex<[VecDeque; JobClass::COUNT]>` —
//! safe Rust, no lock-free tricks), one band per class:
//!
//! * **push**: a submission from a worker thread of this pool lands on
//!   that worker's own deque; an external submission is placed
//!   round-robin. Either way it goes to the **back** of its class's
//!   band.
//! * **claim order**: a claim walks the bands highest class first
//!   ([`JobClass::Interactive`] down), and within a band tries the
//!   claimer's own deque, then the victims'. So a freed worker takes an
//!   interactive job from a neighbour before a bulk job of its own.
//! * **local pop** is **LIFO** (back): within a band a worker runs the
//!   newest job it owns first — the freshest, cache-warmest work, and
//!   the discipline that keeps short jobs from waiting behind a
//!   same-class backlog.
//! * **steal** is **FIFO** (front): when a worker's own band is empty
//!   it sweeps the victims' same band by rotation (`id+1, id+2, …`) and
//!   takes the **oldest** job from the first non-empty one — the job
//!   that has waited longest, which also prevents starvation under
//!   LIFO.
//! * **batched steal**: when the victim's band is deep (at least
//!   [`BATCH_STEAL_DEPTH`] jobs), the thief takes half of it in one
//!   sweep — the oldest job to run immediately, the rest relocated to
//!   the same band of the thief's own deque — so a deep backlog
//!   rebalances in O(1) steals instead of one lock round-trip per job.
//!   The relocated jobs count as the thief's `local_hits` when
//!   eventually claimed; the event is counted in
//!   [`PoolStats::batch_steals`].
//! * **aging**: every [`AGING_PERIOD`]-th claim walks the bands in
//!   *reverse* (lowest class first). Under sustained high-class load
//!   this bounds starvation: a queued bulk job waits at most
//!   `AGING_PERIOD - 1` higher-class claims between bulk grants. Such
//!   promoted claims are counted per class in [`ClassStats::aged`].
//! * **parking**: only after a full failed sweep does a worker park on
//!   the shared condvar. There is no busy-spin; the sleeper-counted
//!   wake protocol below makes lost wakeups impossible.
//!
//! A stream of one class uses one band, so it runs in exactly the
//! plain work-stealing order: LIFO local pops, FIFO steals.
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
/// sheds the smallest class first; the pool claims the largest class
/// first.
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

    /// Number of classes (= number of bands in each worker's deque).
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

/// Every `AGING_PERIOD`-th claim walks the bands lowest class first,
/// so an admitted bulk job waits
/// at most `AGING_PERIOD - 1` higher-class claims between bulk grants
/// — the anti-starvation bound the no-starvation property test checks.
pub const AGING_PERIOD: u64 = 8;

/// When a thief finds a victim's band at least this deep, it steals
/// half the band in one sweep (a *batched steal*) instead of one job.
pub const BATCH_STEAL_DEPTH: usize = 4;

/// Scheduling metadata carried by every job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobMeta {
    /// Request class — selects the deque band and the shed order.
    pub class: JobClass,
    /// Fine-grained urgency within the class, as the wire and the
    /// server's class rule carry it. The pool's claim order does not
    /// read it: only the class and arrival order decide who runs next.
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

/// A point-in-time snapshot of one class's pool counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassStats {
    /// The class these counters describe.
    pub class: JobClass,
    /// Jobs of this class accepted by `execute`/`execute_with_meta`
    /// (`pool.submitted.<class>`).
    pub submitted: u64,
    /// Jobs of this class fully executed, including panicked ones
    /// (`pool.completed.<class>`).
    pub completed: u64,
    /// Claims of this class granted by the aging pass while
    /// higher-class work was still queued (`pool.aged.<class>`).
    pub aged: u64,
    /// Jobs of this class that *started* after their deadline
    /// (`pool.deadline_missed.<class>`).
    pub deadline_missed: u64,
    /// Total worker time spent executing jobs of this class, in
    /// microseconds (`pool.busy_us.<class>`). `busy_micros /
    /// completed` is the observed mean service time of the class.
    pub busy_micros: u64,
}

/// A point-in-time snapshot of the pool's counters: a view over the
/// `pool.*` counters of [`ThreadPool::registry`], plus the two values a
/// counter cannot hold (the backlog's high-water mark and its current
/// depth).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker thread count.
    pub workers: usize,
    /// Jobs accepted by [`ThreadPool::execute`] so far, all classes.
    pub submitted: u64,
    /// Jobs claimed by a worker (`pool.claims`).
    pub started: u64,
    /// Jobs completed, including panicked ones, all classes.
    pub finished: u64,
    /// Jobs that panicked (`pool.panicked`).
    pub panicked: u64,
    /// Claims from the claimer's own deque (`pool.local_hits`).
    pub local_hits: u64,
    /// Claims stolen from another worker's deque (`pool.steals`); a
    /// batch-relocated job counts as a local hit when later claimed.
    pub steals: u64,
    /// Steals that took half a deep victim's band in one sweep
    /// (`pool.batch_steals`).
    pub batch_steals: u64,
    /// Deepest the total queued backlog has ever been
    /// (admission-pressure signal, summed across deques).
    pub queue_high_water: usize,
    /// Jobs currently queued but not yet claimed.
    pub queue_depth: usize,
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

/// One counter per class, named `<prefix>.<class>` and indexed by
/// [`JobClass::band`].
pub(crate) fn class_counters(
    registry: &obs::Registry,
    prefix: &str,
) -> [obs::Counter; JobClass::COUNT] {
    std::array::from_fn(|band| registry.counter(&format!("{prefix}.{}", JobClass::from_band(band))))
}

/// The pool's ledger: each scheduling event is one increment of one
/// counter in the pool's registry, resolved once at construction.
struct PoolLedger {
    submitted: [obs::Counter; JobClass::COUNT],
    completed: [obs::Counter; JobClass::COUNT],
    aged: [obs::Counter; JobClass::COUNT],
    deadline_missed: [obs::Counter; JobClass::COUNT],
    busy_us: [obs::Counter; JobClass::COUNT],
    /// Jobs claimed, by any path.
    claims: obs::Counter,
    /// Claims satisfied from the worker's own deque.
    local_hits: obs::Counter,
    /// Claims satisfied by stealing from a victim.
    steals: obs::Counter,
    /// Steals that relocated half a deep victim band.
    batch_steals: obs::Counter,
    panicked: obs::Counter,
    /// Instantaneous queued-but-unclaimed jobs (`pool.queue_depth`).
    queue_depth: obs::Gauge,
}

impl PoolLedger {
    fn new(registry: &obs::Registry) -> PoolLedger {
        PoolLedger {
            submitted: class_counters(registry, "pool.submitted"),
            completed: class_counters(registry, "pool.completed"),
            aged: class_counters(registry, "pool.aged"),
            deadline_missed: class_counters(registry, "pool.deadline_missed"),
            busy_us: class_counters(registry, "pool.busy_us"),
            claims: registry.counter("pool.claims"),
            local_hits: registry.counter("pool.local_hits"),
            steals: registry.counter("pool.steals"),
            batch_steals: registry.counter("pool.batch_steals"),
            panicked: registry.counter("pool.panicked"),
            queue_depth: registry.gauge("pool.queue_depth"),
        }
    }
}

/// One worker's deque: one band per class, indexed by
/// [`JobClass::band`].
type Bands = [VecDeque<Job>; JobClass::COUNT];

/// Shared state between the pool handle and its workers.
struct PoolInner {
    /// One deque per worker, indexed by worker id.
    deques: Vec<Mutex<Bands>>,
    /// Jobs pushed but not yet claimed, across all deques.
    queued: AtomicUsize,
    /// `queued` split by band, so the aging rule can tell whether
    /// higher-class work is waiting without locking every deque, and
    /// a claim can skip bands with nothing in them.
    band_queued: [AtomicUsize; JobClass::COUNT],
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
    /// Monotonic claim counter driving the aging rule.
    claim_tick: AtomicU64,
    /// Deepest `queued` has been: a running maximum, which a sharded
    /// counter cannot keep.
    queue_high_water: AtomicUsize,
    registry: obs::Registry,
    ledger: PoolLedger,
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

    /// Places `job` at the back of its class's band on a deque and
    /// wakes a parked worker if any exists.
    fn push(self: &Arc<Self>, job: Job) {
        // A worker of *this* pool pushes to its own deque (LIFO
        // locality); external submitters round-robin.
        let target = self
            .own_worker_id()
            .unwrap_or_else(|| self.next_deque.fetch_add(1, Ordering::Relaxed) % self.deques.len());
        let band = job.meta.class.band();
        // The counters normally move inside a deque critical section,
        // so a worker that observes `queued > 0` and then locks the
        // deques finds the job (no underflow when a thief races a
        // submitter); the one exception — jobs in transit during a
        // batched steal — is covered by the parking re-check, which
        // retries instead of sleeping while `queued > 0`.
        let total = {
            let mut q = self.deques[target].lock().expect("pool mutex poisoned");
            q[band].push_back(job);
            self.band_queued[band].fetch_add(1, Ordering::SeqCst);
            self.queued.fetch_add(1, Ordering::SeqCst) + 1
        };
        self.queue_high_water.fetch_max(total, Ordering::Relaxed);
        self.ledger.queue_depth.add(1);
        self.wake_one();
    }

    /// Takes one job out of the counters after it left band `band`.
    fn unqueue(&self, band: usize) {
        self.band_queued[band].fetch_sub(1, Ordering::SeqCst);
        self.queued.fetch_sub(1, Ordering::SeqCst);
        self.ledger.queue_depth.add(-1);
    }

    /// One claim attempt for worker `id`: the bands highest class
    /// first (lowest first on every [`AGING_PERIOD`]-th claim), each
    /// band by local pop, then a rotation steal. Returns `None` after
    /// a failed sweep — the caller then parks.
    fn claim(&self, id: usize) -> Option<Job> {
        // Only ticks that can claim something should consume an aging
        // slot, or idle sweeps before parking would burn the aging
        // cadence while the pool is empty.
        if self.queued.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let tick = self.claim_tick.fetch_add(1, Ordering::Relaxed);
        let aging_pass = tick % AGING_PERIOD == AGING_PERIOD - 1;
        let bands: [usize; JobClass::COUNT] = if aging_pass { [2, 1, 0] } else { [0, 1, 2] };
        for band in bands {
            if self.band_queued[band].load(Ordering::SeqCst) == 0 {
                continue;
            }
            if let Some(job) = self.claim_band(id, band) {
                if aging_pass && (0..band).any(|b| self.band_queued[b].load(Ordering::SeqCst) > 0) {
                    self.ledger.aged[band].inc();
                }
                return Some(job);
            }
        }
        None
    }

    /// Claims from band `band`: LIFO local pop, then a FIFO rotation
    /// sweep of the victims' same band with batched steals on deep
    /// victims.
    fn claim_band(&self, id: usize, band: usize) -> Option<Job> {
        // Newest-first from our own deque.
        let local = {
            let mut q = self.deques[id].lock().expect("pool mutex poisoned");
            let job = q[band].pop_back();
            if job.is_some() {
                self.unqueue(band);
            }
            job
        };
        if let Some(job) = local {
            self.ledger.claims.inc();
            self.ledger.local_hits.inc();
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
                let q = &mut q[band];
                match q.pop_front() {
                    None => (None, Vec::new()),
                    Some(job) => {
                        self.unqueue(band);
                        let depth_before = q.len() + 1;
                        let mut batch = Vec::new();
                        if depth_before >= BATCH_STEAL_DEPTH {
                            // Take half the victim's band (the job
                            // being returned counts toward the half).
                            let extra = depth_before / 2 - 1;
                            batch.extend(q.drain(..extra));
                        }
                        (Some(job), batch)
                    }
                }
            };
            if let Some(job) = job {
                if !batch.is_empty() {
                    self.deques[id].lock().expect("pool mutex poisoned")[band].extend(batch);
                    self.ledger.batch_steals.inc();
                }
                self.ledger.claims.inc();
                self.ledger.steals.inc();
                return Some(job);
            }
        }
        None
    }
}

/// A fixed-size pool of long-lived worker threads executing submitted
/// jobs.
///
/// * every worker owns a deque with one band per [`JobClass`]: claims
///   take the highest class first (with an aging rule so low classes
///   never starve), and within a band pop LIFO locally and steal FIFO
///   from the other workers, batched on deep victims, so one slow job
///   cannot head-of-line-block short jobs behind it;
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
            .finish()
    }
}

impl ThreadPool {
    /// Spawns a pool with `workers` threads and a fresh registry that
    /// holds its ledger (see [`ThreadPool::registry`]).
    ///
    /// # Panics
    /// If `workers == 0`.
    pub fn new(workers: usize) -> ThreadPool {
        assert!(workers > 0, "thread pool needs at least one worker");
        let registry = obs::Registry::new();
        let inner = Arc::new(PoolInner {
            deques: (0..workers)
                .map(|_| Mutex::new(std::array::from_fn(|_| VecDeque::new())))
                .collect(),
            queued: AtomicUsize::new(0),
            band_queued: std::array::from_fn(|_| AtomicUsize::new(0)),
            closed: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            park: Mutex::new(()),
            available: Condvar::new(),
            empty: Condvar::new(),
            pending: Mutex::new(0),
            next_deque: AtomicUsize::new(0),
            claim_tick: AtomicU64::new(0),
            queue_high_water: AtomicUsize::new(0),
            ledger: PoolLedger::new(&registry),
            registry,
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
        self.inner.deques.len()
    }

    /// The registry holding the pool's ledger: `pool.claims`,
    /// `pool.local_hits`, `pool.steals`, `pool.batch_steals`,
    /// `pool.panicked`, `pool.{submitted,completed,aged,deadline_missed,
    /// busy_us}.<class>` and the `pool.queue_depth` gauge. A server
    /// counts its own events here too, so one snapshot covers every
    /// layer.
    pub fn registry(&self) -> &obs::Registry {
        &self.inner.registry
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
        self.inner.ledger.submitted[meta.class.band()].inc();
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

    /// A snapshot of the pool's counters, read from its ledger.
    pub fn stats(&self) -> PoolStats {
        let ledger = &self.inner.ledger;
        let per_class: Vec<ClassStats> = JobClass::ALL
            .iter()
            .map(|&class| {
                let band = class.band();
                // Completions before submissions: a job is counted
                // submitted before it can complete, so a snapshot taken
                // under load never shows more completed than submitted.
                let completed = ledger.completed[band].value();
                ClassStats {
                    class,
                    submitted: ledger.submitted[band].value(),
                    completed,
                    aged: ledger.aged[band].value(),
                    deadline_missed: ledger.deadline_missed[band].value(),
                    busy_micros: ledger.busy_us[band].value(),
                }
            })
            .collect();
        PoolStats {
            workers: self.workers(),
            submitted: per_class.iter().map(|c| c.submitted).sum(),
            started: ledger.claims.value(),
            finished: per_class.iter().map(|c| c.completed).sum(),
            panicked: ledger.panicked.value(),
            local_hits: ledger.local_hits.value(),
            steals: ledger.steals.value(),
            batch_steals: ledger.batch_steals.value(),
            queue_high_water: self.inner.queue_high_water.load(Ordering::Relaxed),
            queue_depth: self.inner.queued.load(Ordering::SeqCst),
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

/// The worker body: claim (band by band: local pop, then steal sweep),
/// run (panic-contained, meta installed for nested submissions),
/// count, repeat; park after a failed sweep; exit once the pool is
/// closed *and* every deque is drained.
fn worker_loop(id: usize, inner: &Arc<PoolInner>) {
    WORKER_IDENTITY.with(|w| w.set(Some((inner.token(), id))));
    let ledger = &inner.ledger;
    loop {
        match inner.claim(id) {
            Some(job) => {
                let band = job.meta.class.band();
                if job.meta.deadline.is_some_and(|d| Instant::now() > d) {
                    ledger.deadline_missed[band].inc();
                }
                CURRENT_META.with(|m| m.set(Some(job.meta)));
                let run_start = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(job.run));
                let busy = run_start.elapsed();
                CURRENT_META.with(|m| m.set(None));
                if outcome.is_err() {
                    ledger.panicked.inc();
                }
                ledger.busy_us[band].add(busy.as_micros() as u64);
                ledger.completed[band].inc();
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

    #[test]
    fn runs_jobs_and_counts_them() {
        let pool = ThreadPool::new(4);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let hits = Arc::clone(&hits);
            pool.execute(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .expect("pool accepts while alive");
        }
        pool.wait_empty();
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        let stats = pool.stats();
        assert_eq!(stats.submitted, 100);
        assert_eq!(stats.finished, 100);
        assert_eq!(stats.panicked, 0);
        assert_eq!(stats.queue_depth, 0);
        assert!(stats.queue_high_water >= 1);
        assert_eq!(stats.workers, 4);
        // Every claim is either a local hit or a steal.
        assert_eq!(stats.local_hits + stats.steals, 100);
        // Default meta is Batch: the per-class ledger must agree.
        let batch = stats.per_class[JobClass::Batch.band()];
        assert_eq!(batch.class, JobClass::Batch);
        assert_eq!(batch.submitted, 100);
        assert_eq!(batch.completed, 100);
    }

    #[test]
    fn the_registry_ledger_balances_after_wait_empty() {
        let pool = ThreadPool::new(4);
        for i in 0..200 {
            let meta = JobMeta::for_class(JobClass::from_band(i % JobClass::COUNT));
            pool.execute_with_meta(meta, || {}).unwrap();
        }
        pool.wait_empty();
        let snap = pool.registry().snapshot();
        let count = |name: &str| {
            snap.counter(name)
                .unwrap_or_else(|| panic!("{name} is registered"))
        };
        assert_eq!(count("pool.claims"), 200);
        assert_eq!(
            count("pool.claims"),
            count("pool.local_hits") + count("pool.steals"),
            "every claim is a local hit or a steal"
        );
        for class in JobClass::ALL {
            let submitted = count(&format!("pool.submitted.{class}"));
            assert!(submitted >= 66, "{class}: {submitted}");
            assert_eq!(
                submitted,
                count(&format!("pool.completed.{class}")),
                "{class}"
            );
        }
        assert_eq!(snap.gauge("pool.queue_depth"), Some(0));
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let hits = Arc::new(AtomicU64::new(0));
        {
            // One worker and a slow first job force the rest to queue.
            let pool = ThreadPool::new(1);
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
        assert_eq!(hits.load(Ordering::Relaxed), 50, "drop lost jobs");
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
        let pool = ThreadPool::new(4);
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
            stats.local_hits + stats.steals,
            stats.started,
            "every claim is a local hit or a steal"
        );
    }

    #[test]
    fn deep_victims_are_relieved_by_batched_steals() {
        // A parent job pushes 12 slow shorts onto its *own* deque and
        // then blocks. The only way the other worker makes progress is
        // stealing — and with a 12-deep victim, at least one sweep must
        // take a batch, not a single job.
        let pool = Arc::new(ThreadPool::new(2));
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
            stats.local_hits + stats.steals,
            stats.started,
            "every claim is a local hit or a steal"
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
        let pool = ThreadPool::new(2);
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
        let pool = Arc::new(ThreadPool::new(2));
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
        let pool = ThreadPool::new(3);
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
        let pool = Arc::new(ThreadPool::new(4));
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
        let pool = ThreadPool::new(1);
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
    fn interactive_queued_before_a_bulk_backlog_runs_ahead_of_it() {
        // One worker, gated. The interactive jobs arrive *before* the
        // bulk backlog, so a plain LIFO deque would run the newest bulk
        // job first. The claim order walks the interactive band first,
        // and the five claims after the gate come before the first
        // aging pass (claim AGING_PERIOD - 1), so all five run first.
        let pool = ThreadPool::new(1);
        let release = Arc::new(AtomicBool::new(false));
        let gate_running = Arc::new(AtomicBool::new(false));
        let order: Arc<Mutex<Vec<JobClass>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let release = Arc::clone(&release);
            let gate_running = Arc::clone(&gate_running);
            pool.execute(move || {
                gate_running.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_micros(100));
                }
            })
            .unwrap();
        }
        while !gate_running.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        for class in [JobClass::Interactive; 5]
            .into_iter()
            .chain([JobClass::Bulk; 8])
        {
            let order = Arc::clone(&order);
            pool.execute_with_meta(JobMeta::for_class(class), move || {
                order.lock().unwrap().push(class);
            })
            .unwrap();
        }
        release.store(true, Ordering::SeqCst);
        pool.wait_empty();
        let order = order.lock().unwrap();
        assert_eq!(
            order[..5],
            [JobClass::Interactive; 5],
            "the bulk backlog ran ahead of earlier interactive work: {order:?}"
        );
        assert_eq!(order.len(), 13);
    }

    #[test]
    fn a_freed_worker_steals_interactive_before_its_own_bulk() {
        // Two workers, each running a parent job. One parent queues a
        // bulk child on its own deque, the other an interactive child
        // on *its* own deque and then stays blocked. When the first
        // parent returns, its worker must take the neighbour's
        // interactive child before its own bulk child.
        let pool = Arc::new(ThreadPool::new(2));
        let started = Arc::new(AtomicU64::new(0));
        let pushed = Arc::new(AtomicU64::new(0));
        let release = Arc::new(AtomicBool::new(false));
        let order: Arc<Mutex<Vec<JobClass>>> = Arc::new(Mutex::new(Vec::new()));
        for (child, block) in [(JobClass::Bulk, false), (JobClass::Interactive, true)] {
            let pool2 = Arc::clone(&pool);
            let started = Arc::clone(&started);
            let pushed = Arc::clone(&pushed);
            let release = Arc::clone(&release);
            let order = Arc::clone(&order);
            pool.execute(move || {
                // Both parents run at once, so they sit on different
                // workers and each child lands on its parent's deque.
                started.fetch_add(1, Ordering::SeqCst);
                while started.load(Ordering::SeqCst) < 2 {
                    std::thread::yield_now();
                }
                pool2
                    .execute_with_meta(JobMeta::for_class(child), move || {
                        order.lock().unwrap().push(child);
                    })
                    .expect("pool is open");
                pushed.fetch_add(1, Ordering::SeqCst);
                while pushed.load(Ordering::SeqCst) < 2
                    || (block && !release.load(Ordering::SeqCst))
                {
                    std::thread::sleep(Duration::from_micros(100));
                }
            })
            .unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while order.lock().unwrap().len() < 2 {
            assert!(Instant::now() < deadline, "children never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        release.store(true, Ordering::SeqCst);
        pool.wait_empty();
        assert_eq!(
            *order.lock().unwrap(),
            vec![JobClass::Interactive, JobClass::Bulk],
            "the freed worker popped its own bulk job first"
        );
        let stats = pool.stats();
        assert_eq!(
            stats.steals, 1,
            "the interactive child was stolen: {stats:?}"
        );
    }

    #[test]
    fn aging_runs_bulk_under_sustained_interactive_load() {
        // One worker; a bulk job queued behind a gate while interactive
        // jobs are fed continuously. Without aging the bulk job would
        // starve for as long as the feed lasts; with AGING_PERIOD the
        // bulk job must complete while the feed is still running.
        let pool = ThreadPool::new(1);
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
        let pool = ThreadPool::new(1);
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
        let pool = ThreadPool::new(2);
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
        let pool = Arc::new(ThreadPool::new(2));
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
