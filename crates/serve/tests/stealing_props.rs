//! Property tests: the pool-backed `serve::par` entry points agree
//! with serial evaluation and with the course's scoped `parallel::par`
//! functions, for random sizes, worker counts, grains, and all three
//! queue topologies (shared FIFO, work stealing, priority lanes).
//! Scheduling must only reorder work, never
//! change answers — and under priority lanes the aging rule must keep
//! low-class work from starving no matter the mix.

use proptest::prelude::*;
use serve::pool::{JobClass, JobMeta, Scheduler, ThreadPool};
use serve::{par, Cache};

fn pools(workers: usize) -> [ThreadPool; 3] {
    [
        ThreadPool::with_scheduler(workers, Scheduler::SharedFifo),
        ThreadPool::with_scheduler(workers, Scheduler::WorkStealing),
        ThreadPool::with_scheduler(workers, Scheduler::PriorityLanes),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_par_map_agrees_with_serial_and_parallel_par(
        data in proptest::collection::vec(any::<i32>(), 0..300),
        workers in 1usize..6,
        grain in 1usize..40,
    ) {
        let serial: Vec<i64> = data.iter().map(|&x| i64::from(x) * 7 - 3).collect();
        let scoped = parallel::par::par_map(&data, workers, |&x| i64::from(x) * 7 - 3);
        prop_assert_eq!(&scoped, &serial);
        for pool in pools(workers) {
            let defaulted = par::par_map(&pool, &data, |&x| i64::from(x) * 7 - 3);
            prop_assert_eq!(&defaulted, &serial);
            let grained = par::par_map_grain(&pool, &data, grain, |&x| i64::from(x) * 7 - 3);
            prop_assert_eq!(&grained, &serial);
        }
    }

    #[test]
    fn prop_par_reduce_agrees_with_serial_and_parallel_par(
        data in proptest::collection::vec(0u64..1_000, 0..300),
        workers in 1usize..6,
        grain in 1usize..40,
    ) {
        let serial: u64 = data.iter().sum();
        let scoped =
            parallel::par::par_reduce(&data, workers, 0u64, |a, &x| a + x, |a, b| a + b);
        prop_assert_eq!(scoped, serial);
        for pool in pools(workers) {
            let defaulted = par::par_reduce(&pool, &data, 0u64, |a, &x| a + x, |a, b| a + b);
            prop_assert_eq!(defaulted, serial);
            let grained =
                par::par_reduce_grain(&pool, &data, grain, 0u64, |a, &x| a + x, |a, b| a + b);
            prop_assert_eq!(grained, serial);
        }
    }

    #[test]
    fn prop_par_for_chunks_writes_match_serial(
        len in 0usize..300,
        workers in 1usize..6,
        grain in 1usize..40,
    ) {
        let want: Vec<u64> = (0..len as u64).map(|x| x * x + 1).collect();
        for pool in pools(workers) {
            let data: Vec<u64> = (0..len as u64).collect();
            let got = par::par_for_chunks_grain(&pool, data, grain, |_idx, chunk| {
                for x in chunk {
                    *x = *x * *x + 1;
                }
            });
            prop_assert_eq!(&got, &want);
        }
    }

    #[test]
    fn prop_cache_backed_results_are_stable_under_stealing(
        keys in proptest::collection::vec(0u32..40, 1..120),
        workers in 1usize..6,
    ) {
        // Same-keyed jobs racing through the stealing pool must all
        // observe the compute-once cache answer.
        let pool = ThreadPool::with_scheduler(workers, Scheduler::WorkStealing);
        let cache = std::sync::Arc::new(Cache::<u32, u64>::new(4, 64));
        let compute_cache = std::sync::Arc::clone(&cache);
        let results: Vec<u64> = par::par_map(&pool, &keys, move |&k| {
            compute_cache.get_or_insert_with(k, |k| u64::from(k) * 1_000 + 7)
        });
        for (&k, &v) in keys.iter().zip(&results) {
            prop_assert_eq!(v, u64::from(k) * 1_000 + 7);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.misses as usize,
                        keys.iter().collect::<std::collections::HashSet<_>>().len());
    }

    #[test]
    fn prop_par_under_with_meta_keeps_parity_and_inherits_the_class(
        data in proptest::collection::vec(any::<i32>(), 1..200),
        workers in 1usize..5,
        band in 0usize..3,
    ) {
        // A par_map wrapped in with_meta must (a) still agree with
        // serial and (b) submit every chunk job in the caller's class,
        // not the Batch default — the serve::par class-propagation
        // contract.
        let class = JobClass::from_band(band);
        let serial: Vec<i64> = data.iter().map(|&x| i64::from(x) * 11 + 5).collect();
        let pool = ThreadPool::with_scheduler(workers, Scheduler::PriorityLanes);
        let mapped = serve::pool::with_meta(JobMeta::for_class(class), || {
            par::par_map(&pool, &data, |&x| i64::from(x) * 11 + 5)
        });
        prop_assert_eq!(&mapped, &serial);
        pool.wait_empty();
        let stats = pool.stats();
        prop_assert!(stats.per_class[band].submitted > 0,
                     "no chunk landed in the caller's class {}", class);
        for other in 0..JobClass::COUNT {
            if other != band {
                prop_assert_eq!(stats.per_class[other].submitted, 0,
                                "a chunk was demoted out of class {}", class);
            }
        }
    }

    #[test]
    fn prop_stealing_deques_claim_every_job_exactly_once(
        values in proptest::collection::vec(1u64..1_000_000, 1..200),
        workers in 1usize..6,
        nested_mask in any::<u64>(),
        spin_mask in any::<u64>(),
    ) {
        // For a random mix of external submissions, nested
        // (worker-side, own-deque) submissions, and job durations —
        // i.e. random push/pop/steal interleavings, batched steals
        // included — the work-stealing deques claim every job exactly
        // once. A double-claim would double-count its value; a lost
        // job would hang wait_empty or drop its value. The checksum
        // catches both.
        use std::sync::Arc;
        use std::sync::atomic::{AtomicU64, Ordering};

        let want: u64 = values.iter().sum();
        let pool = Arc::new(ThreadPool::with_scheduler(workers, Scheduler::WorkStealing));
        let sum = Arc::new(AtomicU64::new(0));
        let claims = Arc::new(AtomicU64::new(0));
        for (i, &v) in values.iter().enumerate() {
            let sum = Arc::clone(&sum);
            let claims = Arc::clone(&claims);
            let spin = spin_mask & (1 << (i % 64)) != 0;
            let body = move || {
                if spin {
                    std::thread::sleep(std::time::Duration::from_micros(20));
                }
                sum.fetch_add(v, Ordering::Relaxed);
                claims.fetch_add(1, Ordering::Relaxed);
            };
            if nested_mask & (1 << (i % 64)) != 0 {
                // Submit from inside a job: exercises the
                // owner-side push path and LIFO pop.
                let pool2 = Arc::clone(&pool);
                pool.execute(move || {
                    pool2.execute(body).expect("pool is open");
                }).unwrap();
            } else {
                pool.execute(body).unwrap();
            }
        }
        pool.wait_empty();
        prop_assert_eq!(sum.load(Ordering::Relaxed), want,
                        "lost or double-claimed a job");
        prop_assert_eq!(claims.load(Ordering::Relaxed), values.len() as u64,
                        "claim count off");
        let stats = pool.stats();
        prop_assert_eq!(stats.local_hits + stats.steals,
                        stats.submitted,
                        "claims must partition into hits and steals");
        prop_assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn prop_aging_never_starves_bulk_under_sustained_interactive_load(
        n_bulk in 1usize..6,
        bulk_priority in 0u8..255,
    ) {
        // The no-starvation property: every admitted low-class job
        // completes while high-class work keeps arriving, within a
        // bounded number of interactive feeds (the AGING_PERIOD bound,
        // with generous slack for scheduling noise). Without aging this
        // test would spin to its feed cap and fail.
        use std::sync::Arc;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;

        let pool = ThreadPool::with_scheduler(1, Scheduler::PriorityLanes);
        let gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        {
            let gate = Arc::clone(&gate);
            pool.execute(move || {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_micros(100));
                }
            }).unwrap();
        }
        let bulk_done = Arc::new(AtomicUsize::new(0));
        for _ in 0..n_bulk {
            let bulk_done = Arc::clone(&bulk_done);
            pool.execute_with_meta(
                JobMeta::for_class(JobClass::Bulk).with_priority(bulk_priority),
                move || { bulk_done.fetch_add(1, Ordering::SeqCst); },
            ).unwrap();
        }
        // Prime the interactive lane so it is never empty early on.
        for _ in 0..32 {
            pool.execute_with_meta(JobMeta::for_class(JobClass::Interactive), || {
                std::thread::sleep(Duration::from_micros(30));
            }).unwrap();
        }
        gate.store(true, Ordering::SeqCst);
        // Feed at roughly the worker's consumption rate (the throttle
        // keeps the backlog bounded; an unthrottled feeder outruns a
        // 30us-per-job worker a thousandfold and only measures its own
        // speed). n_bulk aging grants need ~n_bulk * AGING_PERIOD
        // claims ~ a few ms; the deadline is pure slack.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut fed = 0usize;
        while bulk_done.load(Ordering::SeqCst) < n_bulk {
            pool.execute_with_meta(JobMeta::for_class(JobClass::Interactive), || {
                std::thread::sleep(Duration::from_micros(30));
            }).unwrap();
            fed += 1;
            std::thread::sleep(Duration::from_micros(20));
            prop_assert!(std::time::Instant::now() < deadline,
                         "bulk starved: {}/{} done after {} interactive feeds",
                         bulk_done.load(Ordering::SeqCst), n_bulk, fed);
        }
        pool.wait_empty();
        prop_assert_eq!(bulk_done.load(Ordering::SeqCst), n_bulk);
    }
}
