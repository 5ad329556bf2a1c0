//! Server invariants under adversarial schedules (seeded fault
//! injection via `serve::fault::FaultPlan`).
//!
//! The invariants under test, per DESIGN.md:
//! 1. every accepted request resolves its ticket exactly once, even
//!    when the handler panics or stalls at injected points;
//! 2. `shutdown` returns only after every accepted request completed
//!    (drain never drops work), under every queue topology — including
//!    a submit stalled between admission and the pool (the
//!    `BeforeEnqueue` race point);
//! 3. panic isolation: a fault poisons only the faulty request — other
//!    requests keep succeeding, and the pool's workers survive;
//! 4. cache-layer faults cannot break compute-once: a stall holding a
//!    shard lock only delays callers, and a forced eviction sweep
//!    during a compute never evicts the in-flight (`Computing`) entry;
//! 5. the per-class ledger balances after a drain:
//!    admitted = completed + shed (in_flight = 0), per class and
//!    globally, even with displacement shedding and faults in play.

use serve::cache::Cache;
use serve::fault::{FaultPlan, FaultPoint};
use serve::pool::{JobClass, Scheduler};
use serve::server::{CourseServer, Request, ServerConfig, SubmitError, Ticket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn config(scheduler: Scheduler, plan: &FaultPlan) -> ServerConfig {
    ServerConfig {
        workers: 4,
        queue_capacity: 256,
        scheduler,
        fault_plan: Some(plan.clone()),
        ..ServerConfig::default()
    }
}

/// Distinct homework requests (distinct seeds) so the cache cannot
/// collapse the workload into one compute.
fn homework(seed: u64) -> Request {
    Request::Homework {
        generator: "binary_arithmetic".into(),
        seed,
    }
}

#[test]
fn every_ticket_resolves_when_handlers_panic_before_handle() {
    for scheduler in [Scheduler::SharedFifo, Scheduler::WorkStealing] {
        let plan = FaultPlan::new(0xDEAD_BEEF).panic_at(FaultPoint::BeforeHandle, 1, 3);
        let server = CourseServer::new(config(scheduler, &plan));
        let tickets: Vec<Ticket> = (0..120)
            .map(|seed| server.submit(homework(seed)).expect("admitted"))
            .collect();
        let mut failed = 0usize;
        for t in &tickets {
            // wait() returning at all is invariant 1; a hang here times
            // the whole test out.
            let resp = t.wait();
            if !resp.ok {
                assert!(
                    resp.body.contains("panicked"),
                    "unexpected failure body: {}",
                    resp.body
                );
                failed += 1;
            }
        }
        let stats = plan.stats();
        assert!(stats.panics > 0, "plan never fired under {scheduler}");
        assert!(
            failed > 0,
            "injected panics must surface as failed responses"
        );
        assert!(
            failed < tickets.len(),
            "a 1/3 fault rate must leave some requests healthy ({scheduler})"
        );
        assert_eq!(
            server.stats().completed,
            120,
            "every accepted request completed"
        );
    }
}

#[test]
fn panics_after_handle_discard_work_but_still_resolve_tickets() {
    let plan = FaultPlan::new(31).panic_at(FaultPoint::AfterHandle, 1, 2);
    let server = CourseServer::new(config(Scheduler::WorkStealing, &plan));
    let responses: Vec<_> = (0..60)
        .map(|seed| server.submit(homework(seed)).expect("admitted").wait())
        .collect();
    assert!(plan.stats().panics > 0);
    assert!(responses.iter().any(|r| r.ok), "some requests must survive");
    assert!(responses.iter().any(|r| !r.ok), "some requests must fail");
    // Healthy responses are real ones, not torn by neighbors' faults.
    for r in responses.iter().filter(|r| r.ok) {
        assert!(
            r.body.contains("solution"),
            "torn response body: {}",
            r.body
        );
    }
}

#[test]
fn shutdown_drains_everything_even_with_stalls_and_panics_in_flight() {
    for scheduler in [
        Scheduler::SharedFifo,
        Scheduler::WorkStealing,
        Scheduler::PriorityLanes,
    ] {
        let plan = FaultPlan::new(7)
            .stall_at(FaultPoint::BeforeHandle, Duration::from_millis(3), 1, 2)
            .panic_at(FaultPoint::AfterHandle, 1, 4);
        let server = CourseServer::new(config(scheduler, &plan));
        let tickets: Vec<Ticket> = (0..80)
            .map(|seed| server.submit(homework(seed)).expect("admitted"))
            .collect();
        server.shutdown();
        // Drain invariant: by the time shutdown returns, every accepted
        // ticket is already resolved — try_get, not wait.
        for (i, t) in tickets.iter().enumerate() {
            assert!(
                t.try_get().is_some(),
                "ticket {i} unresolved after shutdown ({scheduler})"
            );
        }
        assert!(matches!(
            server.submit(homework(999)),
            Err(SubmitError::ShuttingDown(_))
        ));
        let stats = server.stats();
        assert_eq!(stats.completed, 80, "drain dropped work under {scheduler}");
        assert!(
            plan.stats().stalls > 0,
            "stall rule never fired under {scheduler}"
        );
    }
}

#[test]
fn faulty_request_leaves_the_cache_retryable_and_neighbors_untouched() {
    // Fire on every firing: the first attempt at any request panics.
    let plan = FaultPlan::new(1).panic_at(FaultPoint::BeforeHandle, 1, 1);
    let observer = plan.clone();
    let server = CourseServer::new(ServerConfig {
        workers: 2,
        scheduler: Scheduler::WorkStealing,
        fault_plan: Some(plan),
        ..ServerConfig::default()
    });
    let poisoned = server.submit(homework(5)).expect("admitted").wait();
    assert!(!poisoned.ok);
    assert!(observer.stats().panics >= 1);
    // The panic poisoned only that compute: the same key is retryable
    // (the cache slot was removed, not wedged) and still faults, while
    // the pool keeps serving.
    let retry = server.submit(homework(5)).expect("admitted").wait();
    assert!(!retry.ok, "1/1 fault rate must fault the retry too");
    assert!(
        observer.stats().panics >= 2,
        "retry must recompute, not hit a wedged slot"
    );
    assert_eq!(
        server.stats().pool.panicked,
        0,
        "faults are contained before the pool"
    );
}

#[test]
fn shard_lock_hold_stalls_delay_but_never_deadlock_the_pipeline() {
    // A stall at CacheLockHold executes while the victim shard's map
    // lock is held, so every other request hashing there piles up
    // behind it. The pipeline must come out the other side with every
    // ticket resolved and every request completed.
    let plan =
        FaultPlan::new(0x10c4).stall_at(FaultPoint::CacheLockHold, Duration::from_millis(3), 1, 4);
    let server = CourseServer::new(ServerConfig {
        workers: 4,
        queue_capacity: 256,
        cache_shards: 2, // few shards: lock-holds collide with real traffic
        scheduler: Scheduler::WorkStealing,
        fault_plan: Some(plan.clone()),
        ..ServerConfig::default()
    });
    let tickets: Vec<Ticket> = (0..60)
        .map(|seed| server.submit(homework(seed)).expect("admitted"))
        .collect();
    for t in &tickets {
        assert!(t.wait().ok, "a lock-hold stall corrupted a response");
    }
    assert!(plan.stats().stalls > 0, "lock-hold rule never fired");
    assert_eq!(server.stats().completed, 60);
}

#[test]
fn forced_eviction_during_compute_never_evicts_the_computing_entry() {
    // 1 shard x capacity 1, forced-sweep mode on (any fault plan turns
    // it on). Key A computes slowly; key B computes, publishes, and
    // triggers sweeps while A is still Computing. The only legal
    // victim is B itself — A's waiter must get A's value from A's one
    // and only compute.
    let plan = FaultPlan::new(0xE71C).stall_at(
        FaultPoint::CacheEvictDuringCompute,
        Duration::from_millis(1),
        1,
        1,
    );
    let cache: Arc<Cache<u32, u64>> = Arc::new(Cache::with_fault_plan(1, 1, Some(plan.clone())));
    let computes_a = Arc::new(AtomicU64::new(0));

    let owner = {
        let cache = Arc::clone(&cache);
        let computes_a = Arc::clone(&computes_a);
        thread::spawn(move || {
            cache.get_or_insert_with(1u32, |k| {
                computes_a.fetch_add(1, Ordering::SeqCst);
                thread::sleep(Duration::from_millis(60));
                u64::from(k) * 100
            })
        })
    };
    // Let A's owner claim its slot, then attach a waiter to A.
    thread::sleep(Duration::from_millis(15));
    let waiter = {
        let cache = Arc::clone(&cache);
        let computes_a = Arc::clone(&computes_a);
        thread::spawn(move || {
            cache.get_or_insert_with(1u32, |k| {
                computes_a.fetch_add(1, Ordering::SeqCst);
                u64::from(k) * 100
            })
        })
    };
    // While A computes, churn other keys through the over-capacity
    // shard: each publication runs a forced sweep with A Computing.
    for key in 2u32..8 {
        let v = cache.get_or_insert_with(key, |k| u64::from(k) * 100);
        assert_eq!(v, u64::from(key) * 100);
    }
    assert_eq!(owner.join().expect("owner thread"), 100);
    assert_eq!(waiter.join().expect("waiter thread"), 100);
    assert_eq!(
        computes_a.load(Ordering::SeqCst),
        1,
        "the Computing entry was evicted out from under its waiter"
    );
    assert!(
        plan.stats().stalls > 0,
        "evict-during-compute point never fired"
    );
    assert!(
        cache.stats().evictions > 0,
        "forced sweeps never evicted the Ready churn"
    );
}

#[test]
fn shutdown_covers_a_submit_stalled_before_enqueue() {
    // The submission-side race: a submit that passed the accepting
    // check stalls before its job reaches the pool. A concurrent
    // shutdown must wait out that window — when shutdown returns, the
    // stalled submit's ticket is resolved, not lost.
    let plan =
        FaultPlan::new(0xACE).stall_at(FaultPoint::BeforeEnqueue, Duration::from_millis(40), 1, 1);
    let server = Arc::new(CourseServer::new(ServerConfig {
        workers: 2,
        queue_capacity: 16,
        fault_plan: Some(plan.clone()),
        ..ServerConfig::default()
    }));
    let submitter = {
        let server = Arc::clone(&server);
        thread::spawn(move || server.submit(homework(1)))
    };
    // Land shutdown inside the 40ms BeforeEnqueue stall.
    thread::sleep(Duration::from_millis(10));
    server.shutdown();
    match submitter.join().expect("submitter thread") {
        Ok(ticket) => {
            assert!(
                ticket.try_get().is_some(),
                "shutdown returned while a stalled submit's ticket was unresolved"
            );
        }
        // The submitter lost the accepting-check race entirely: also a
        // correct outcome (nothing was admitted, nothing can be lost).
        Err(SubmitError::ShuttingDown(_)) => {}
        Err(other) => panic!("unexpected submit error: {other:?}"),
    }
    assert!(plan.stats().stalls >= 1, "BeforeEnqueue rule never fired");
    let st = server.stats();
    assert_eq!(
        st.accepted,
        st.completed + st.shed,
        "drain left the ledger unbalanced"
    );
}

#[test]
fn per_class_ledger_balances_after_an_adversarial_drain() {
    // Mixed-class overload with displacement shedding, faults, and
    // backpressure, then a drain: for every class
    // admitted = completed + shed (in_flight = 0), and globally
    // accepted = completed + shed. This is the counter-balance
    // acceptance criterion for the class-aware pipeline.
    fn slow_bulk() -> String {
        thread::sleep(Duration::from_millis(4));
        "bulk table".to_string()
    }
    let plan = FaultPlan::new(0xBA1A)
        .panic_at(FaultPoint::BeforeHandle, 1, 6)
        .stall_at(FaultPoint::AfterHandle, Duration::from_millis(1), 1, 5);
    let server = Arc::new(CourseServer::with_experiments(
        ServerConfig {
            workers: 2,
            queue_capacity: 6, // tight: forces sheds and rejections
            scheduler: Scheduler::PriorityLanes,
            fault_plan: Some(plan),
            ..ServerConfig::default()
        },
        vec![
            (
                "bulk-a".to_string(),
                slow_bulk as serve::server::ExperimentFn,
            ),
            (
                "bulk-b".to_string(),
                slow_bulk as serve::server::ExperimentFn,
            ),
            (
                "bulk-c".to_string(),
                slow_bulk as serve::server::ExperimentFn,
            ),
        ],
    ));
    thread::scope(|s| {
        for client in 0..3u64 {
            let server = Arc::clone(&server);
            s.spawn(move || {
                for i in 0..40u64 {
                    let req = match (client + i) % 3 {
                        0 => Request::Grade {
                            // Distinct submissions: no cache collapse.
                            submission: format!("# v{client}-{i}\nmain:\n    hlt\n"),
                        },
                        1 => Request::Homework {
                            generator: "binary_arithmetic".into(),
                            seed: client * 1000 + i,
                        },
                        _ => Request::Reproduce {
                            id: format!("bulk-{}", ["a", "b", "c"][(i % 3) as usize]),
                        },
                    };
                    match server.submit(req) {
                        // Shed tickets resolve ok=false; both outcomes
                        // count toward the ledger, so just wait.
                        Ok(ticket) => {
                            ticket.wait();
                        }
                        Err(SubmitError::Busy(r)) => {
                            thread::sleep(Duration::from_millis(r.retry_after_ms.min(2)));
                        }
                        Err(SubmitError::ShuttingDown(_)) => break,
                    }
                }
            });
        }
    });
    server.shutdown();
    let st = server.stats();
    assert!(
        st.accepted > 0,
        "nothing was admitted — the test exercised nothing"
    );
    assert_eq!(
        st.accepted,
        st.completed + st.shed,
        "global ledger unbalanced after drain: {st:?}"
    );
    for class in JobClass::ALL {
        let c = st.per_class[class.band()];
        assert_eq!(c.class, class);
        assert_eq!(
            c.admitted,
            c.completed + c.shed,
            "{class} ledger unbalanced after drain: {st:?}"
        );
        assert_eq!(c.in_flight, 0, "{class} still in flight after drain");
    }
    // The pool's per-class ledger agrees with the server's: every
    // admitted request became exactly one pool job of the same class,
    // or was answered at admission from a `Ready` cache entry (the
    // repeated `bulk-*` runs).
    for class in JobClass::ALL {
        let c = st.per_class[class.band()];
        assert_eq!(
            st.pool.per_class[class.band()].submitted + c.inline_hits,
            c.admitted,
            "{class}: pool and server disagree on admitted work"
        );
    }
}
