//! Integration: the `serve` subsystem end to end — concurrent clients
//! against the full server stack (pool + cache + admission), the
//! compute-once guarantee observed from outside the crate, answers
//! and cache counts that do not depend on the scheduler, and the
//! graceful-shutdown contract that no accepted request is ever dropped.

use proptest::prelude::*;
use serve::pool::Scheduler;
use serve::server::SubmitError;
use serve::{CourseServer, Request, ServerConfig, ThreadPool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

#[test]
fn concurrent_clients_share_one_compute_per_key() {
    // 8 clients all ask for the same 4 homework variants; the cache
    // stats must show exactly 4 computes no matter the interleaving.
    let server = Arc::new(CourseServer::new(ServerConfig {
        workers: 4,
        queue_capacity: 64,
        ..ServerConfig::default()
    }));
    thread::scope(|s| {
        for _ in 0..8 {
            let server = Arc::clone(&server);
            s.spawn(move || {
                for seed in 0..4u64 {
                    let resp = server
                        .submit(Request::Homework {
                            generator: "fork_puzzle".into(),
                            seed,
                        })
                        .expect("queue sized for the full load")
                        .wait();
                    assert!(resp.ok, "{}", resp.body);
                }
            });
        }
    });
    let st = server.stats();
    assert_eq!(
        st.cache.misses, 4,
        "each distinct request computes exactly once"
    );
    assert_eq!(st.cache.hits, 8 * 4 - 4);
    assert_eq!(st.accepted, 32);
    assert_eq!(st.completed, 32);
    assert_eq!(st.pool.panicked, 0);
}

#[test]
fn shutdown_never_drops_an_accepted_request() {
    // Clients race shutdown: whatever was accepted before admission
    // closed must resolve; whatever was refused must say ShuttingDown
    // or Busy — never hang, never vanish.
    let server = Arc::new(CourseServer::new(ServerConfig {
        workers: 2,
        queue_capacity: 16,
        ..ServerConfig::default()
    }));
    let accepted = Arc::new(AtomicU64::new(0));
    let resolved = Arc::new(AtomicU64::new(0));
    thread::scope(|s| {
        for client in 0..4u64 {
            let server = Arc::clone(&server);
            let accepted = Arc::clone(&accepted);
            let resolved = Arc::clone(&resolved);
            s.spawn(move || {
                for i in 0..50u64 {
                    match server.submit(Request::Homework {
                        generator: "binary_arithmetic".into(),
                        seed: client * 1000 + i,
                    }) {
                        Ok(ticket) => {
                            accepted.fetch_add(1, Ordering::SeqCst);
                            assert!(ticket.wait().ok);
                            resolved.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(SubmitError::Busy(r)) => {
                            assert!(r.retry_after_ms >= 1);
                        }
                        Err(SubmitError::ShuttingDown(_)) => return,
                    }
                }
            });
        }
        // Let some requests land, then pull the plug mid-stream.
        thread::sleep(std::time::Duration::from_millis(5));
        server.shutdown();
    });
    assert_eq!(
        accepted.load(Ordering::SeqCst),
        resolved.load(Ordering::SeqCst),
        "an accepted ticket did not resolve"
    );
    let st = server.stats();
    assert_eq!(
        st.accepted, st.completed,
        "server drained everything it admitted"
    );
}

#[test]
fn pool_backed_par_matches_scoped_par_across_crates() {
    // The serve::par variants must agree with parallel::par on real
    // data, and keep agreeing across many reuses of the same pool.
    let pool = ThreadPool::new(4);
    let data: Vec<u64> = (0..10_000).collect();
    for round in 0..5u64 {
        let scoped = parallel::par::par_map(&data, 4, |&x| x.wrapping_mul(round + 1));
        let pooled = serve::par::par_map(&pool, &data, move |&x| x.wrapping_mul(round + 1));
        assert_eq!(scoped, pooled);

        let scoped_sum = parallel::par::par_reduce(
            &data,
            4,
            0u64,
            |a, &x| a ^ x.rotate_left(round as u32),
            |a, b| a ^ b,
        );
        let pooled_sum = serve::par::par_reduce(
            &pool,
            &data,
            0u64,
            move |a, &x| a ^ x.rotate_left(round as u32),
            |a, b| a ^ b,
        );
        assert_eq!(scoped_sum, pooled_sum);
    }
    // One pool served all ten calls: spawn-per-call would have needed
    // 40 threads; the pool's workers just kept taking jobs.
    let st = pool.stats();
    assert_eq!(st.workers, 4);
    assert!(st.finished >= 10);
    assert_eq!(st.panicked, 0);
}

#[test]
fn server_grades_like_the_autograder_itself() {
    // The server is a front end, not a fork: its grade for a submission
    // must byte-for-byte match calling cs31::autograde directly.
    let submission = "
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
    let direct =
        cs31::autograde::grade(submission, &cs31::autograde::sum_array_rubric(), 200_000).render();
    let server = CourseServer::new(ServerConfig::default());
    let via_server = server
        .submit(Request::Grade {
            submission: submission.into(),
        })
        .unwrap()
        .wait();
    assert!(via_server.ok);
    assert_eq!(via_server.body, direct);
}

/// The request pool the scheduler-parity stream draws from: small
/// deterministic key spaces across three request kinds, so streams
/// repeat keys often enough that compute-once is what gets compared.
fn request_from(code: u8) -> Request {
    match code % 9 {
        s @ 0..=3 => Request::Homework {
            generator: "binary_arithmetic".into(),
            seed: u64::from(s),
        },
        s @ 4..=6 => Request::Homework {
            generator: "fork_puzzle".into(),
            seed: u64::from(s - 4),
        },
        s => Request::Life {
            w: 8,
            h: 8,
            steps: 4,
            seed: u64::from(s - 7),
        },
    }
}

/// Runs one request stream against a fresh server and returns the
/// response bodies (in stream order) plus the cache's (hits, misses).
fn run_stream(stream: &[u8], scheduler: Scheduler) -> (Vec<String>, u64, u64) {
    let server = CourseServer::new(ServerConfig {
        workers: 2,
        queue_capacity: 256,
        scheduler,
        ..ServerConfig::default()
    });
    let tickets: Vec<_> = stream
        .iter()
        .map(|&c| {
            server
                .submit(request_from(c))
                .expect("queue sized for stream")
        })
        .collect();
    let bodies: Vec<String> = tickets
        .into_iter()
        .map(|t| {
            let resp = t.wait();
            assert!(resp.ok, "{}", resp.body);
            resp.body
        })
        .collect();
    server.shutdown();
    let st = server.stats();
    (bodies, st.cache.hits, st.cache.misses)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any request stream, the work-stealing and priority-lane
    /// servers produce identical response bodies, one compute per
    /// distinct key (misses == distinct keys), and one hit per repeat.
    #[test]
    fn bodies_and_cache_counts_agree_under_every_server_scheduler(
        stream in prop::collection::vec(any::<u8>(), 1..24)
    ) {
        let distinct = {
            let mut keys: Vec<Request> = stream.iter().map(|&c| request_from(c)).collect();
            keys.sort_by_key(|r| format!("{r:?}"));
            keys.dedup();
            keys.len() as u64
        };
        let mut reference: Option<Vec<String>> = None;
        for scheduler in [Scheduler::WorkStealing, Scheduler::PriorityLanes] {
            let (bodies, hits, misses) = run_stream(&stream, scheduler);
            prop_assert_eq!(
                misses, distinct,
                "{}: each distinct request computes exactly once",
                scheduler
            );
            prop_assert_eq!(hits, stream.len() as u64 - distinct);
            match &reference {
                None => reference = Some(bodies),
                Some(expect) => prop_assert_eq!(
                    &bodies, expect,
                    "{} diverged from the reference bodies",
                    scheduler
                ),
            }
        }
    }
}
