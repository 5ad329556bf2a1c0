//! `obs` — zero-dependency observability for the course job server.
//!
//! Three pieces, layered bottom-up:
//!
//! - [`hist`]: a fixed-memory log-bucketed (HDR-style) [`Histogram`] with
//!   lock-free atomic recording, mergeable [`HistSnapshot`]s, and quantile
//!   queries with a documented relative-error bound (≤ 1/32 ≈ 3.125%
//!   over-reporting, never under-reporting).
//! - [`registry`]: a [`Registry`] of named [`Counter`]s, [`Gauge`]s, and
//!   histograms. Handles are resolved once (cold path, mutex) and then
//!   touched with single atomic instructions (hot path, sharded counters).
//!   A backend's registry is its one ledger: every server, pool, cache
//!   and socket event is counted there once, and the layers' `stats()`
//!   views read those counters back, so `Op::Stats` carries every number
//!   a test or experiment checks.
//! - [`trace`]: a [`Tracer`] recording per-request lifecycle spans
//!   (admitted → queued → claimed → executing → completed/shed) into a
//!   bounded seqlock ring of atomics, feeding per-stage duration
//!   histograms so queue-wait, service-time, and wire-time separate.
//!
//! The crate has no dependencies and no `unsafe`; everything is built from
//! `std::sync::atomic` plus one cold-path mutex in the registry.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod hist;
pub mod registry;
pub mod trace;

pub use hist::{HistSnapshot, Histogram, BUCKETS, RELATIVE_ERROR, SUB_BITS};
pub use registry::{
    Counter, Gauge, HistogramHandle, Registry, Snapshot, SnapshotEntry, SnapshotValue, WORST_SPANS,
};
pub use trace::{SpanOutcome, SpanRecord, Tracer};
