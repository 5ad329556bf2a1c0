//! # net — the TCP front end and load generator for the course server
//!
//! `serve` ends at a function call: `submit` hands back a ticket and
//! the caller is a thread in the same process. This crate puts the
//! course server on a socket, which is where every one of its design
//! choices gets an end-to-end test it cannot dodge:
//!
//! * [`wire`] — a length-prefixed binary protocol carrying the whole
//!   scheduling story (class, priority, deadline *budget*) per
//!   request, with explicit `RETRY`/`SHED`/`GOAWAY` response frames
//!   so admission backpressure and its retry hints travel the wire
//!   instead of dying at the process boundary. Decoding is total:
//!   corrupt or truncated frames return typed [`wire::WireError`]s,
//!   never panic (property-tested in `tests/wire_props.rs`).
//! * [`server`] — the front end: one acceptor and the [`reactor`]'s
//!   epoll shards, so thread count is fixed however many connections
//!   are open. A shard decodes and submits and never waits;
//!   completions flow through `serve::server::Ticket::on_ready`
//!   callbacks into the connection's send queue, so pipelined
//!   requests complete **out of order by id** and a slow bulk job
//!   cannot convoy an interactive response. Connection-cap shedding
//!   at accept time, idle and flush bounds, and a stop-accept → drain
//!   → FIN shutdown that loses no admitted request — even under
//!   injected wire faults (`serve::fault::FaultPoint::NetReadFrame` /
//!   `NetWriteFrame` stalls and drops).
//! * [`reactor`] — the connection engine under both the front end and
//!   the router: N shard threads over nonblocking sockets, with
//!   per-connection send queues, backpressure, and the GoAway/drain/
//!   FIN contract.
//! * [`loadgen`] — a multi-connection client driving open- or
//!   closed-loop load with a heavy-tail class mix, honoring retry
//!   hints, and reporting per-class p50/p99/max latency: the tool
//!   experiment E14 uses to measure where the pool's class order
//!   counts — grade-request tail latency over real sockets under
//!   overload.
//!
//! ```no_run
//! use net::loadgen::{self, LoadConfig};
//! use net::server::{NetConfig, NetServer};
//! use serve::server::{CourseServer, ServerConfig};
//!
//! let course = CourseServer::new(ServerConfig::default());
//! let srv = NetServer::bind("127.0.0.1:0", course, NetConfig::default()).unwrap();
//! let report = loadgen::run(srv.local_addr(), &LoadConfig::default());
//! println!("{}", report.render());
//! srv.shutdown();
//! ```

// `deny` (not `forbid`) so exactly one module — [`sys`], the raw
// epoll/eventfd syscall shims behind the reactor — can
// `allow(unsafe_code)`. Everything else in the crate still refuses
// `unsafe`.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod loadgen;
pub mod reactor;
pub mod server;
pub mod sys;
pub mod wire;

pub use loadgen::{ClassLoad, LoadConfig, LoadReport, Mode, OpTemplate};
pub use server::{NetConfig, NetServer, NetStats};
pub use wire::{Frame, RequestFrame, RespStatus, ResponseFrame, WireError};
