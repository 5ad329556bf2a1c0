//! The E12 heavy-tail scheduling workload, shared by the `e12`
//! experiment runner and the `serve_stealing` criterion bench.
//!
//! Job durations are *sleep-modeled* (like E1's machine model): this
//! host has a single CPU, so a compute-bound scheduling comparison
//! would measure the OS scheduler, not ours. Sleeping jobs park the
//! worker thread for the job's nominal service time, which makes the
//! queueing behavior — who waits behind whom — the entire signal.
//!
//! The stream sustains overload with a deliberate phase structure.
//! Each cycle submits a wave of short jobs, waits a lead gap, then
//! submits a batch of heavy jobs whose total service demand exceeds
//! the cycle's capacity — so a heavy backlog accumulates for the whole
//! stream. One extra heavy arrives at the very end of the stream.
//! That shape separates the two queue topologies:
//!
//! * the shared FIFO ([`FifoPool`], a baseline kept here for the
//!   lesson, not in `serve`) serves strictly in arrival order, so each new
//!   wave of shorts queues behind *every* accumulated heavy — short
//!   job latency grows linearly with cycle number (the p99 blowup) —
//!   and the final heavy, last in the queue, starts only once the
//!   entire backlog has drained, idling the other workers for its
//!   whole service time (the makespan tail);
//! * `serve::pool`'s per-worker LIFO deques pop the freshest work
//!   first (every job here is one class, so one band), so each wave
//!   of shorts jumps the heavy backlog and finishes within its own
//!   cycle (flat p99), and the final heavy — the newest job on its
//!   deque — starts immediately, overlapping the backlog drain. The
//!   lead gap between a wave of shorts and the next heavy batch is
//!   what keeps old shorts from being buried under newer heavies;
//!   work stealing supplies the rest, letting idle workers drain a
//!   neighbor's ragged backlog oldest-first during the final drain —
//!   the steal counters in the result prove it happened.

use serve::pool::ThreadPool;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Which queue topology a run used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// [`FifoPool`]: one shared queue, strict arrival order.
    Fifo,
    /// `serve::pool::ThreadPool`: per-worker deques with stealing.
    Stealing,
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Topology::Fifo => "shared-fifo",
            Topology::Stealing => "work-stealing",
        })
    }
}

type FifoJob = Box<dyn FnOnce() + Send + 'static>;

#[derive(Default)]
struct FifoState {
    queue: VecDeque<FifoJob>,
    /// Jobs submitted but not yet finished (queued + running).
    pending: usize,
    high_water: usize,
    closed: bool,
}

#[derive(Default)]
struct FifoShared {
    state: Mutex<FifoState>,
    /// A job was queued, or the pool closed.
    available: Condvar,
    /// `pending` reached zero.
    idle: Condvar,
}

/// The shared-FIFO baseline E12 measures the stealing pool against:
/// one `Mutex<VecDeque>` every worker pops from in arrival order, plus
/// a `Condvar`. No classes, no panic isolation, drains on drop.
pub struct FifoPool {
    shared: Arc<FifoShared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl FifoPool {
    /// Spawns `workers` threads popping one shared queue.
    pub fn new(workers: usize) -> FifoPool {
        let shared = Arc::new(FifoShared::default());
        let workers = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || loop {
                    let job = {
                        let mut st = shared.state.lock().expect("fifo mutex poisoned");
                        loop {
                            if let Some(job) = st.queue.pop_front() {
                                break job;
                            }
                            if st.closed {
                                return;
                            }
                            st = shared.available.wait(st).expect("fifo mutex poisoned");
                        }
                    };
                    job();
                    let mut st = shared.state.lock().expect("fifo mutex poisoned");
                    st.pending -= 1;
                    if st.pending == 0 {
                        shared.idle.notify_all();
                    }
                })
            })
            .collect();
        FifoPool { shared, workers }
    }

    /// Queues `job` at the back of the shared queue.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let mut st = self.shared.state.lock().expect("fifo mutex poisoned");
        st.queue.push_back(Box::new(job));
        st.pending += 1;
        st.high_water = st.high_water.max(st.queue.len());
        self.shared.available.notify_one();
    }

    /// Blocks until every submitted job has finished.
    pub fn wait_empty(&self) {
        let mut st = self.shared.state.lock().expect("fifo mutex poisoned");
        while st.pending > 0 {
            st = self.shared.idle.wait(st).expect("fifo mutex poisoned");
        }
    }

    /// Deepest the shared queue has been.
    pub fn queue_high_water(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("fifo mutex poisoned")
            .high_water
    }
}

impl Drop for FifoPool {
    fn drop(&mut self) {
        self.shared
            .state
            .lock()
            .expect("fifo mutex poisoned")
            .closed = true;
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            // A panicking job kills its worker; report it rather than
            // panic inside drop.
            if w.join().is_err() {
                eprintln!("FifoPool: a worker died on a panicking job");
            }
        }
    }
}

/// Shape of the heavy-tail overload stream.
#[derive(Debug, Clone, Copy)]
pub struct MixParams {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Number of arrival cycles.
    pub cycles: usize,
    /// Short jobs opening each cycle.
    pub shorts_per_cycle: usize,
    /// Heavy jobs in each cycle's batch (sized to exceed the cycle's
    /// service capacity, so the backlog grows while the stream lasts).
    pub heavies_per_cycle: usize,
    /// Nominal service time of a short job.
    pub short: Duration,
    /// Nominal service time of a heavy job.
    pub heavy: Duration,
    /// Gap between a cycle's shorts and its heavy batch — the window
    /// in which the shorts must drain so they are never buried under
    /// newer heavies in a LIFO deque.
    pub short_lead: Duration,
    /// Gap between a cycle's heavy batch and the next cycle.
    pub heavy_soak: Duration,
    /// Service time of the single stream-final heavy (the "100x" tail
    /// job relative to the shorts).
    pub final_heavy: Duration,
}

/// The E12 defaults: 4 workers; 6 cycles of [64x0.5ms shorts, 22ms
/// lead, 26x8ms heavies, 10ms soak] — ~240ms of demand per 32ms
/// cycle, a sustained ~1.9x overload — then one final 100ms heavy
/// (200x a short) at stream end. One run is ~0.5s of wall clock.
///
/// The lead is sized against the worst case that buries shorts: a
/// worker can be stuck in a heavy for up to 8ms when a wave lands,
/// then needs 16 x 0.5ms to drain its own deque's share serially —
/// 22ms of lead covers 8 + 8 with margin, so every wave is gone
/// before the next heavy batch stacks on top of it.
pub fn heavy_tail_params() -> MixParams {
    MixParams {
        workers: 4,
        cycles: 6,
        shorts_per_cycle: 64,
        heavies_per_cycle: 26,
        short: Duration::from_micros(500),
        heavy: Duration::from_millis(8),
        short_lead: Duration::from_millis(22),
        heavy_soak: Duration::from_millis(10),
        final_heavy: Duration::from_millis(100),
    }
}

/// One topology's run over the mix.
#[derive(Debug, Clone)]
pub struct MixOutcome {
    /// Which queue topology ran.
    pub topology: Topology,
    /// First submission to last job finished.
    pub makespan: Duration,
    /// Median short-job latency (submit → finish).
    pub p50_short: Duration,
    /// 99th-percentile short-job latency.
    pub p99_short: Duration,
    /// Worst short-job latency.
    pub max_short: Duration,
    /// Jobs a worker popped from its own deque (every claim, for the
    /// one shared FIFO queue).
    pub local_hits: u64,
    /// Jobs taken from another worker's deque (0 for the FIFO).
    pub steals: u64,
    /// Deepest any single queue got.
    pub queue_high_water: usize,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs the overload stream on a fresh pool of the given topology
/// and measures makespan plus the short-job latency distribution.
pub fn run_mix(topology: Topology, p: MixParams) -> MixOutcome {
    let jobs = (p.cycles * (p.shorts_per_cycle + p.heavies_per_cycle) + 1) as u64;
    let (makespan, lat, local_hits, steals, queue_high_water) = match topology {
        Topology::Fifo => {
            let pool = FifoPool::new(p.workers);
            let (makespan, lat) = drive(p, |job| pool.execute(job), || pool.wait_empty());
            (makespan, lat, jobs, 0, pool.queue_high_water())
        }
        Topology::Stealing => {
            let pool = ThreadPool::new(p.workers);
            let (makespan, lat) = drive(
                p,
                |job| pool.execute(job).expect("pool accepts while alive"),
                || pool.wait_empty(),
            );
            let st = pool.stats();
            (makespan, lat, st.local_hits, st.steals, st.queue_high_water)
        }
    };
    MixOutcome {
        topology,
        makespan,
        p50_short: percentile(&lat, 0.50),
        p99_short: percentile(&lat, 0.99),
        max_short: percentile(&lat, 1.0),
        local_hits,
        steals,
        queue_high_water,
    }
}

/// Submits the stream through `submit`, waits with `wait_empty`, and
/// returns the makespan and the sorted short-job latencies.
fn drive(
    p: MixParams,
    submit: impl Fn(Box<dyn FnOnce() + Send + 'static>),
    wait_empty: impl FnOnce(),
) -> (Duration, Vec<Duration>) {
    let short_lat: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::with_capacity(
        p.cycles * p.shorts_per_cycle,
    )));

    let submit_sleep = |dur: Duration, record: Option<Arc<Mutex<Vec<Duration>>>>| {
        let born = Instant::now();
        submit(Box::new(move || {
            std::thread::sleep(dur);
            if let Some(lat) = record {
                lat.lock().expect("latency vec").push(born.elapsed());
            }
        }));
    };

    let t0 = Instant::now();
    for _ in 0..p.cycles {
        for _ in 0..p.shorts_per_cycle {
            submit_sleep(p.short, Some(Arc::clone(&short_lat)));
        }
        std::thread::sleep(p.short_lead);
        for _ in 0..p.heavies_per_cycle {
            submit_sleep(p.heavy, None);
        }
        std::thread::sleep(p.heavy_soak);
    }
    // The stream's very last arrival: the 100x tail job.
    submit_sleep(p.final_heavy, None);
    wait_empty();
    let makespan = t0.elapsed();
    let mut lat = short_lat.lock().expect("latency vec").clone();
    lat.sort_unstable();
    (makespan, lat)
}

/// Runs both topologies over the same mix; FIFO first, stealing second.
pub fn compare(p: MixParams) -> (MixOutcome, MixOutcome) {
    (run_mix(Topology::Fifo, p), run_mix(Topology::Stealing, p))
}

/// A ragged `serve::par` workload: triangular per-element cost
/// (element `i` of `n` sleeps `i`-proportional time), the pool-hosted
/// version of the uneven Game of Life rows that motivate
/// `parallel::par_for_dynamic`. Returns wall-clock for a map over `n`
/// elements with the given grain.
pub fn ragged_par_map(pool: &ThreadPool, n: usize, grain: usize, unit: Duration) -> Duration {
    let data: Vec<usize> = (0..n).collect();
    let t0 = Instant::now();
    let out = serve::par::par_map_grain(pool, &data, grain, move |&i| {
        std::thread::sleep(unit * (i as u32));
        i
    });
    assert_eq!(out, data, "ragged map must still be the identity");
    t0.elapsed()
}
