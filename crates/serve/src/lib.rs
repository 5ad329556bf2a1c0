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
//! The pool has one scheduler: per-worker deques plus work stealing,
//! each deque split into one band per [`pool::JobClass`] so claims
//! take the highest class first, with an aging rule that keeps low
//! classes moving. See `DESIGN.md` for the deque/steal protocol and
//! the parking discipline's no-lost-wakeup argument.
//!
//! Since PR 4 the server is reachable over TCP: the `net` crate wraps
//! a [`server::CourseServer`] in a length-prefixed wire protocol and
//! an epoll reactor front end, completing pipelined requests out of
//! order via [`server::Ticket::on_ready`] callbacks, and the
//! [`fault::FaultPlan`] reaches the wire (read/write stalls,
//! connection drops) so the drain-everything shutdown invariant is
//! tested against socket-level failure too.
//!
//! Since PR 3 every job carries a [`pool::JobMeta`] (`class`,
//! `priority`, `deadline`) threaded through the whole pipeline:
//! requests are classified by one fixed class rule (grade interactive,
//! homework/Life/MemTrace batch, reproduce bulk) that drives per-class
//! queue budgets, lowest-class-first load shedding and deadline-aware
//! retry hints; the pool claims by class with an anti-starvation
//! aging rule, and nested submissions —
//! including every [`par`] entry point called from inside a job —
//! inherit the caller's class instead of demoting to the default. Both
//! the server and the pool keep per-class counters so the scheduling
//! win is measured (experiment E13), not asserted.
//!
//! Every count lives in one ledger, the zero-dependency `obs` crate's
//! [`obs::Registry`], which the pool creates and the server shares: the
//! server's admission/completion/shed counters (`serve.*`, moved under
//! the ticket's promise lock before it resolves, so a drained snapshot
//! balances), the pool's claims, steals and per-class completions and
//! busy time (`pool.*`) plus a live queue-depth gauge, and the cache's
//! hits, misses and evictions (`cache.*`). The layers' `stats()` methods
//! are views over those counters, so `Op::Stats` carries every number a
//! test or experiment checks. Every request also records a lifecycle
//! span (admitted → queued → claimed → executing → completed/shed) into
//! a bounded [`obs::Tracer`] ring feeding per-stage duration histograms
//! — so queue-wait and service-time are separable per class.
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
pub use pool::{JobClass, JobMeta, ThreadPool};
pub use server::{CourseServer, Request, Response, ServerConfig, SHED_BODY_PREFIX};
