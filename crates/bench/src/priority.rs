//! The E13 mixed-class overload workload, shared by the `e13`
//! experiment runner and the bench tests.
//!
//! Job durations are *sleep-modeled* like E12's (see the `stealing`
//! module docs for why): on a single-CPU host the queueing behavior —
//! who waits behind whom — is the entire signal.
//!
//! The stream models a course server's bad afternoon: every cycle a
//! wave of grade requests (interactive, sub-millisecond, deadline'd)
//! lands on top of a steady drip of homework generation (batch) and a
//! backlog-building batch of reproduce experiments (bulk, 8ms each).
//! Total demand runs ~1.7x the pool's service capacity for the whole
//! stream, so a bulk backlog accumulates and *something* must wait.
//! The experiment runs the stream twice on the one `serve::pool`, and
//! only the job tags differ:
//!
//! * **class-blind** — every job carries `JobMeta::default()`, so all
//!   of them share one band and the pool runs plain work stealing:
//!   LIFO local pops put each cycle's newer homework and reproduce
//!   jobs ahead of the grade wave that arrived first, and grades that
//!   wait long enough sit under the growing backlog;
//! * **classes** — grades are interactive, homework batch, reproduce
//!   bulk, so every claim takes the interactive band first and each
//!   grade wave drains within its own cycle regardless of the bulk
//!   backlog, while the aging rule (1 claim in
//!   [`serve::pool::AGING_PERIOD`] walks the bands lowest first) keeps
//!   the reproduce backlog moving — bulk still finishes at nearly the
//!   same time, because once the stream ends only bulk is left and the
//!   pool drains it at full width. The per-class `aged` counter proves
//!   the no-starvation rule actually fired.
//!
//! Samples are bucketed by each job's intended class in both runs, and
//! a grade's deadline miss (it started after its deadline) is counted
//! here rather than by the pool, so the class-blind run, whose jobs
//! carry no deadline, reports it too.

use serve::pool::{JobClass, JobMeta, ThreadPool};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shape of the mixed-class overload stream.
#[derive(Debug, Clone, Copy)]
pub struct MixedParams {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Number of arrival cycles.
    pub cycles: usize,
    /// Grade requests (interactive) opening each cycle.
    pub grades_per_cycle: usize,
    /// Homework generations (batch) per cycle.
    pub homework_per_cycle: usize,
    /// Reproduce experiments (bulk) per cycle — sized so total demand
    /// exceeds the cycle's service capacity and a bulk backlog grows.
    pub reproduce_per_cycle: usize,
    /// Nominal service time of a grade request.
    pub grade: Duration,
    /// Nominal service time of a homework generation.
    pub homework: Duration,
    /// Nominal service time of a reproduce experiment.
    pub reproduce: Duration,
    /// Each grade's deadline, relative to its submission.
    pub grade_deadline: Duration,
    /// Gap between a cycle's grade wave and its batch/bulk arrivals.
    pub grade_lead: Duration,
    /// Gap between a cycle's bulk batch and the next cycle.
    pub cycle_soak: Duration,
}

/// The E13 defaults: 4 workers; 8 cycles of [40x0.5ms grades, 5ms
/// lead, 10x2ms homework + 8x8ms reproduce, 10ms soak] — 104ms of
/// demand per 15ms cycle against 60ms of capacity, a sustained ~1.7x
/// overload carried almost entirely by the growing reproduce backlog.
/// Grades carry a 30ms deadline: generous against a quiet server,
/// hopeless from the back of an 8-cycle FIFO backlog.
pub fn mixed_overload_params() -> MixedParams {
    MixedParams {
        workers: 4,
        cycles: 8,
        grades_per_cycle: 40,
        homework_per_cycle: 10,
        reproduce_per_cycle: 8,
        grade: Duration::from_micros(500),
        homework: Duration::from_millis(2),
        reproduce: Duration::from_millis(8),
        grade_deadline: Duration::from_millis(30),
        grade_lead: Duration::from_millis(5),
        cycle_soak: Duration::from_millis(10),
    }
}

/// One class's latency distribution over a run.
#[derive(Debug, Clone, Copy)]
pub struct ClassLatency {
    /// Which class this row describes.
    pub class: JobClass,
    /// Jobs of this class that ran.
    pub count: usize,
    /// Median latency (submit → finish).
    pub p50: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// Worst latency.
    pub max: Duration,
    /// Stream start → this class's last job finished (the class
    /// makespan; for bulk, the starvation metric).
    pub finish: Duration,
    /// Jobs of this class that started after their deadline.
    pub deadline_missed: u64,
}

/// One run over the mixed stream.
#[derive(Debug, Clone)]
pub struct MixedOutcome {
    /// Whether jobs carried their real classes (`false`: every job
    /// carried `JobMeta::default()`).
    pub classes: bool,
    /// First submission to last job finished.
    pub makespan: Duration,
    /// Per-class latency rows, indexed by [`JobClass::band`].
    pub per_class: Vec<ClassLatency>,
    /// Aging grants: claims handed to a lower band while a higher one
    /// had work (always 0 class-blind, where every job shares a band).
    pub aged: u64,
}

impl MixedOutcome {
    /// The run's label in tables: `classes` or `class-blind`.
    pub fn label(&self) -> &'static str {
        if self.classes {
            "classes"
        } else {
            "class-blind"
        }
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs the mixed overload stream on a fresh pool, with each job's
/// real class when `classes` is set and `JobMeta::default()` otherwise,
/// and measures per-class latency distributions, per-class finish
/// times, deadline misses and the pool's aging counter.
pub fn run_mixed(classes: bool, p: MixedParams) -> MixedOutcome {
    // (latency, finish offset from t0, missed its deadline) samples,
    // one bucket per intended class's band.
    type Samples = Vec<Mutex<Vec<(Duration, Duration, bool)>>>;
    let pool = ThreadPool::new(p.workers);
    let samples: Arc<Samples> = Arc::new(
        (0..JobClass::COUNT)
            .map(|_| Mutex::new(Vec::new()))
            .collect(),
    );
    let t0 = Instant::now();

    let submit = |meta: JobMeta, dur: Duration| {
        let born = Instant::now();
        let samples = Arc::clone(&samples);
        let band = meta.class.band();
        let deadline = meta.deadline;
        let meta = if classes { meta } else { JobMeta::default() };
        pool.execute_with_meta(meta, move || {
            let missed = deadline.is_some_and(|d| Instant::now() > d);
            std::thread::sleep(dur);
            let now = Instant::now();
            samples[band].lock().expect("sample vec").push((
                now.duration_since(born),
                now.duration_since(t0),
                missed,
            ));
        })
        .expect("pool accepts while alive");
    };

    for _ in 0..p.cycles {
        for _ in 0..p.grades_per_cycle {
            let meta = JobMeta::for_class(JobClass::Interactive)
                .with_priority(160)
                .with_deadline(Instant::now() + p.grade_deadline);
            submit(meta, p.grade);
        }
        std::thread::sleep(p.grade_lead);
        for _ in 0..p.homework_per_cycle {
            submit(JobMeta::for_class(JobClass::Batch), p.homework);
        }
        for _ in 0..p.reproduce_per_cycle {
            submit(
                JobMeta::for_class(JobClass::Bulk).with_priority(64),
                p.reproduce,
            );
        }
        std::thread::sleep(p.cycle_soak);
    }
    pool.wait_empty();
    let makespan = t0.elapsed();

    let stats = pool.stats();
    let per_class = (0..JobClass::COUNT)
        .map(|band| {
            let bucket = samples[band].lock().expect("sample vec").clone();
            let finish = bucket
                .iter()
                .map(|&(_, f, _)| f)
                .max()
                .unwrap_or(Duration::ZERO);
            let mut lat: Vec<Duration> = bucket.iter().map(|&(l, _, _)| l).collect();
            lat.sort_unstable();
            ClassLatency {
                class: JobClass::from_band(band),
                count: lat.len(),
                p50: percentile(&lat, 0.50),
                p99: percentile(&lat, 0.99),
                max: percentile(&lat, 1.0),
                finish,
                deadline_missed: bucket.iter().filter(|&&(_, _, m)| m).count() as u64,
            }
        })
        .collect();
    MixedOutcome {
        classes,
        makespan,
        per_class,
        aged: stats.per_class.iter().map(|c| c.aged).sum(),
    }
}

/// Runs the stream class-blind, then with classes, and returns
/// `(class_blind, classes)`.
pub fn compare(p: MixedParams) -> (MixedOutcome, MixedOutcome) {
    (run_mixed(false, p), run_mixed(true, p))
}
