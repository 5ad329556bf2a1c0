//! # router — sharding the course server across processes
//!
//! `net` put one `CourseServer` on a socket; this crate puts **N** of
//! them behind one address. The router is a front-end proxy speaking
//! the same [`net::wire`] protocol on both faces:
//!
//! * [`ring`] — a consistent-hash ring over backend indices. The
//!   request's cache key (the [`serve::server::Request`] identity the
//!   backend result cache already uses) picks the owning backend, so
//!   repeated requests keep hitting the shard whose cache is warm, and
//!   fleet changes move only the keys they must (proptested in
//!   `tests/router_props.rs`).
//! * [`health`] — per-backend EWMA latency plus consecutive-failure
//!   tracking. Hard evidence (severed backend link, read stall with
//!   requests outstanding) downs a backend immediately; soft failures
//!   accumulate to a threshold; only a successful probe re-admits.
//! * [`server`] — the proxy: client connections and one link per
//!   backend on one [`net::reactor`] shard, so a forward and its relay
//!   never cross threads; out-of-order
//!   response matching via router-assigned request ids patched into
//!   the frame bytes, one-shot re-routing of a dead backend's pending
//!   work to its ring successor (course jobs are idempotent
//!   computations), honest synthesized `SHED` frames when re-routing
//!   is exhausted, and `Op::Stats` aggregation that merges every live
//!   backend's op-4 `StatsFull` snapshot bucket-for-bucket with the
//!   router's own registry.
//!
//! The invariant the end-to-end tests hold the router to: every client
//! request gets exactly one response — computed, re-routed-then-
//! computed, or an honest backpressure frame — and the fleet's merged
//! ledgers balance (`admitted == completed + shed` summed across
//! backends, with router sheds accounted on top). Killing a backend
//! mid-run must cost latency, never answers.
//!
//! ```no_run
//! use net::server::{NetConfig, NetServer};
//! use router::server::{Router, RouterConfig};
//! use serve::server::{CourseServer, ServerConfig};
//!
//! // Two backends (in one process here; separate processes in prod).
//! let backends: Vec<NetServer> = (0..2)
//!     .map(|id| {
//!         let course = CourseServer::new(ServerConfig::default());
//!         let config = NetConfig {
//!             backend_id: id,
//!             ..NetConfig::default()
//!         };
//!         NetServer::bind("127.0.0.1:0", course, config).unwrap()
//!     })
//!     .collect();
//! let addrs: Vec<_> = backends.iter().map(|b| b.local_addr()).collect();
//! let router = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default()).unwrap();
//! let report = net::loadgen::run(router.local_addr(), &net::loadgen::LoadConfig::default());
//! println!("{}", report.render());
//! router.shutdown();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod health;
pub mod ring;
pub mod server;

pub use health::Health;
pub use ring::{request_key, Ring};
pub use server::{Router, RouterConfig, RouterTotals};
