//! `ctl` — the control plane for live fleet membership.
//!
//! The router's backend set used to be a constructor argument: scaling
//! out, rolling a backend, or retiring a bad host meant restarting the
//! proxy tier. This crate makes membership a first-class runtime
//! object, versioned by a monotonically increasing **epoch**:
//!
//! - [`membership`]: the [`Membership`] state machine. Each backend is
//!   a [`BackendSpec`] in one of three live states —
//!   [`BackendState::Joining`] (announced, not yet admitted by the
//!   health prober), [`BackendState::Live`] (taking traffic),
//!   [`BackendState::Draining`] (excluded from new assignment, still
//!   finishing in-flight work) — or the terminal
//!   [`BackendState::Removed`] tombstone. Admin ops (`join`, `drain`,
//!   `remove`) each advance the epoch; the probe-driven
//!   `Joining → Live` admission republishes under the *same* epoch,
//!   because the epoch numbers administered membership revisions, not
//!   health flaps.
//!
//! Views are published through an `RwLock<Arc<_>>`: readers clone the
//! current `Arc` under the read lock and work on that immutable
//! snapshot; writers replace it under the write lock.
//!
//! The crate has no dependencies; the router layers rings, health, and
//! obs mirrors on top (DESIGN.md §15 carries the ordering argument).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod membership;

pub use membership::{BackendSpec, BackendState, CtlError, Membership, MembershipEpoch};
