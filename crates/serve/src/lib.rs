//! # serve — the thread-pool job server for course workloads
//!
//! The course ends where servers begin: Lab 10's pthreads lesson
//! ("divide the work, synchronize, join") is exactly the skeleton of a
//! request-serving system. This crate grows that lesson into the
//! repo's first serving subsystem, shaped after the cs431/cs492
//! "hello server" homework (`thread_pool.rs` + `cache.rs`) and built
//! only from this workspace's own primitives and `std`:
//!
//! * [`pool`] — a long-lived [`pool::ThreadPool`] with panic-isolating
//!   workers, [`pool::ThreadPool::wait_empty`], drain-on-drop, and
//!   per-worker + aggregate counters;
//! * [`cache`] — a sharded compute-once [`cache::Cache`]
//!   (`get_or_insert_with` runs the closure exactly once per key;
//!   distinct keys never block each other) with per-shard LRU
//!   eviction and hit/miss/eviction stats;
//! * [`server`] — the [`server::CourseServer`] front end: bounded
//!   admission with reject-and-retry-hint backpressure, result caching
//!   by request key, and graceful drain-everything shutdown over the
//!   course's real workloads (grade / homework / reproduce);
//! * [`par`] — pool-backed `par_map` / `par_for_chunks` / `par_reduce`
//!   so repeated data-parallel calls reuse workers instead of spawning
//!   threads per call, with grained variants that oversubscribe the
//!   pool so stealing balances ragged chunk costs;
//! * [`fault`] — seeded [`fault::FaultPlan`] injection (panic/stall at
//!   chosen handler points) for testing server invariants under
//!   adversarial schedules.
//!
//! Since PR 2 the pool schedules with per-worker deques plus work
//! stealing ([`pool::Scheduler::WorkStealing`], the default); the old
//! single shared queue survives as [`pool::Scheduler::SharedFifo`] for
//! baseline comparisons. See `DESIGN.md` for the deque/steal protocol
//! and the parking discipline's no-lost-wakeup argument.
//!
//! Since PR 4 the server is reachable over TCP: the `net` crate wraps
//! a [`server::CourseServer`] in a length-prefixed wire protocol and a
//! blocking socket front end, completing pipelined requests out of
//! order via [`server::Ticket::on_ready`] callbacks. Admission can now
//! also *adapt*: [`server::AdaptiveAdmission`] derives per-class queue
//! budgets and deadline defaults from an EWMA of observed service
//! times (fed through [`server::AdmissionPolicy::observe`]), and the
//! [`fault::FaultPlan`] reaches the wire (reader/writer stalls,
//! connection drops) so the drain-everything shutdown invariant is
//! tested against socket-level failure too.
//!
//! Since PR 3 every job carries a [`pool::JobMeta`] (`class`,
//! `priority`, `deadline`) threaded through the whole pipeline:
//! requests are classified by a pluggable
//! [`server::AdmissionPolicy`] (per-class queue budgets,
//! lowest-class-first load shedding, deadline-aware retry hints), the
//! pool's [`pool::Scheduler::PriorityLanes`] topology schedules by
//! class with an anti-starvation aging rule, and nested submissions —
//! including every [`par`] entry point called from inside a job —
//! inherit the caller's class instead of demoting to the default. Both
//! the server and the pool keep per-class counters so the scheduling
//! win is measured (experiment E13), not asserted.
//!
//! Since PR 5 the whole pipeline reports into the zero-dependency
//! `obs` crate: the server mirrors its admission/completion/shed
//! ledgers into named [`obs::Registry`] counters (same
//! count-then-publish discipline, so a drained snapshot balances), the
//! pool mirrors claims/local-hits/steals plus a live queue-depth
//! gauge, and every request records a lifecycle span (admitted →
//! queued → claimed → executing → completed/shed) into a bounded
//! [`obs::Tracer`] ring feeding per-stage duration histograms — so
//! queue-wait and service-time are separable per class. Pass
//! [`obs::Registry::disabled`] in [`server::ServerConfig`] and every
//! recording site collapses to a never-taken branch; experiment E15
//! measures that overhead.
//!
//! The crate is safe Rust throughout (`forbid(unsafe_code)`): every
//! queue, cache slot and parking protocol is built from `Mutex`,
//! `Condvar` and atomics — the primitives of the course's own pthreads
//! module. Lock-free deques and a lock-free cache showed no end-to-end
//! win on the real request path (DESIGN.md §12, §14).
//!
//! ```
//! use serve::server::{CourseServer, Request, ServerConfig};
//!
//! let server = CourseServer::new(ServerConfig::default());
//! let ticket = server
//!     .submit(Request::Homework { generator: "binary_arithmetic".into(), seed: 31 })
//!     .expect("admitted");
//! let response = ticket.wait();
//! assert!(response.ok);
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod fault;
pub mod par;
pub mod pool;
pub mod server;

pub use cache::Cache;
pub use fault::{FaultPlan, FaultPoint};
pub use pool::{JobClass, JobMeta, Scheduler, ThreadPool};
pub use server::{
    AdaptiveAdmission, AdmissionPolicy, ClassAwareAdmission, CourseServer, FcfsAdmission, Request,
    Response, ServerConfig, SHED_BODY_PREFIX,
};
