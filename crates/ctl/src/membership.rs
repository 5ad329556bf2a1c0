//! The fleet-membership state machine and its epoch-versioned views.
//!
//! A [`Membership`] publishes immutable [`MembershipEpoch`] views
//! through an `RwLock<Arc<_>>`: a reader takes the read lock just long
//! enough to clone the current `Arc`, then works on that snapshot.
//! Writers — the admin ops [`Membership::join`], [`Membership::drain`],
//! [`Membership::remove`] — hold the write lock across the whole
//! read-modify-write, build the successor view, and publish it with the
//! epoch advanced by one.
//!
//! The **epoch numbers administered membership revisions**: exactly the
//! changes an operator asked for. The probe-driven admission
//! ([`Membership::mark_live`], `Joining → Live`) republishes under the
//! *same* epoch — it is a health event, not a reconfiguration, and the
//! router's ring (built over `Joining ∪ Live` members, gated by
//! per-backend health) does not change shape when it fires. That is
//! what lets an experiment assert "one join + one drain advanced the
//! epoch exactly twice" regardless of when the prober got around to
//! admitting the newcomer.
//!
//! State machine (per backend):
//!
//! ```text
//!            join                    probe ok
//!   (absent) ────▶ Joining ────────────────────▶ Live
//!                     │                            │
//!                     │ drain                      │ drain
//!                     ▼                            ▼
//!                  Draining ◀──────────────────────┘
//!                     │ remove
//!                     ▼
//!                  Removed   (tombstone; id never reused)
//! ```
//!
//! `remove` is also legal straight from `Joining`/`Live` — the
//! force-remove of a host that is already gone — the router fails its
//! in-flight entries over instead of waiting for a drain.

use std::net::SocketAddr;
use std::sync::{Arc, RwLock};

/// Where a backend is in its membership lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendState {
    /// Announced via `join`, not yet admitted: in the ring, but the
    /// router's health gate keeps traffic off it until the probe
    /// loop's stats-ping succeeds.
    Joining,
    /// Admitted and taking traffic.
    Live,
    /// Excluded from new assignment; in-flight/pending work drains.
    Draining,
    /// Tombstone: gone from the ring and the router's slot table. The
    /// id is never reused.
    Removed,
}

impl BackendState {
    /// Stable lowercase name, used by the wire encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendState::Joining => "joining",
            BackendState::Live => "live",
            BackendState::Draining => "draining",
            BackendState::Removed => "removed",
        }
    }

    /// Inverse of [`BackendState::as_str`].
    pub fn parse(s: &str) -> Option<BackendState> {
        Some(match s {
            "joining" => BackendState::Joining,
            "live" => BackendState::Live,
            "draining" => BackendState::Draining,
            "removed" => BackendState::Removed,
            _ => return None,
        })
    }

    /// Whether this backend contributes ring points: `Joining ∪ Live`.
    /// Joining members are placed on the ring *before* admission so
    /// the later health flip moves no other backend's keys.
    pub fn in_ring(self) -> bool {
        matches!(self, BackendState::Joining | BackendState::Live)
    }

    /// Whether the router should keep a connected slot (links, pending
    /// entries) for this backend: everything but a tombstone.
    pub fn has_slot(self) -> bool {
        !matches!(self, BackendState::Removed)
    }
}

impl std::fmt::Display for BackendState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One backend's membership record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendSpec {
    /// Stable id: assigned at join, never reused, survives state
    /// changes. Ring points and ledgers key on it.
    pub id: u32,
    /// Where the backend listens.
    pub addr: SocketAddr,
    /// Lifecycle state.
    pub state: BackendState,
}

/// An immutable snapshot of the fleet at one membership revision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipEpoch {
    /// Revision counter: starts at 1 for the boot membership and
    /// advances by exactly one per admin op (join/drain/remove).
    pub epoch: u64,
    /// Every backend ever joined, tombstones included, in id order.
    pub backends: Vec<BackendSpec>,
}

impl MembershipEpoch {
    /// The record for backend `id`, tombstones included.
    pub fn get(&self, id: u32) -> Option<&BackendSpec> {
        self.backends.iter().find(|b| b.id == id)
    }

    /// Ids contributing ring points (`Joining ∪ Live`), in id order.
    pub fn ring_members(&self) -> Vec<u32> {
        self.backends
            .iter()
            .filter(|b| b.state.in_ring())
            .map(|b| b.id)
            .collect()
    }

    /// The wire encoding `CtlView` returns: line-oriented text, one
    /// `backend` row per non-tombstone record.
    ///
    /// ```text
    /// epoch 3
    /// backend 0 127.0.0.1:7401 live
    /// backend 2 127.0.0.1:7411 draining
    /// ```
    pub fn encode_text(&self) -> String {
        let mut out = format!("epoch {}\n", self.epoch);
        for b in &self.backends {
            if b.state != BackendState::Removed {
                out.push_str(&format!("backend {} {} {}\n", b.id, b.addr, b.state));
            }
        }
        out
    }

    /// Inverse of [`MembershipEpoch::encode_text`] for polling clients.
    /// Tolerates trailing columns on `backend` rows (the router
    /// appends health/outstanding diagnostics).
    pub fn parse_text(s: &str) -> Result<MembershipEpoch, String> {
        let mut epoch = None;
        let mut backends = Vec::new();
        for line in s.lines() {
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("epoch") => {
                    let v = parts.next().ok_or("epoch line missing value")?;
                    epoch = Some(v.parse::<u64>().map_err(|e| format!("bad epoch: {e}"))?);
                }
                Some("backend") => {
                    let id = parts
                        .next()
                        .ok_or("backend line missing id")?
                        .parse::<u32>()
                        .map_err(|e| format!("bad backend id: {e}"))?;
                    let addr = parts
                        .next()
                        .ok_or("backend line missing addr")?
                        .parse::<SocketAddr>()
                        .map_err(|e| format!("bad backend addr: {e}"))?;
                    let state = parts
                        .next()
                        .and_then(BackendState::parse)
                        .ok_or("backend line missing/bad state")?;
                    backends.push(BackendSpec { id, addr, state });
                }
                Some(_) | None => {} // ignore blank/diagnostic lines
            }
        }
        Ok(MembershipEpoch {
            epoch: epoch.ok_or("no epoch line")?,
            backends,
        })
    }
}

/// Why an admin op was rejected. Every rejection is typed; the wire
/// layer renders these into `Error` response bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtlError {
    /// No backend (live or tombstoned) has this id.
    UnknownBackend(u32),
    /// A non-tombstone backend already listens on this address.
    DuplicateAddr(SocketAddr),
    /// The backend exists but the op is not legal from its state
    /// (drain a tombstone, admit a non-Joining backend, …).
    BadTransition {
        /// The backend the op named.
        id: u32,
        /// Its current state.
        from: BackendState,
        /// The op that was attempted.
        op: &'static str,
    },
}

impl std::fmt::Display for CtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtlError::UnknownBackend(id) => write!(f, "unknown backend {id}"),
            CtlError::DuplicateAddr(addr) => write!(f, "backend already present at {addr}"),
            CtlError::BadTransition { id, from, op } => {
                write!(f, "cannot {op} backend {id} in state {from}")
            }
        }
    }
}

impl std::error::Error for CtlError {}

/// The membership state machine: writers serialize on the write lock,
/// readers clone the current view's `Arc` under the read lock.
pub struct Membership {
    current: RwLock<Arc<MembershipEpoch>>,
}

impl Membership {
    /// Boot membership: every listed backend `Live`, epoch 1.
    ///
    /// # Panics
    /// If two backends share an id or an address.
    pub fn new(initial: &[(u32, SocketAddr)]) -> Membership {
        let mut backends: Vec<BackendSpec> = Vec::with_capacity(initial.len());
        for &(id, addr) in initial {
            assert!(
                backends.iter().all(|b| b.id != id),
                "duplicate backend id {id}"
            );
            assert!(
                backends.iter().all(|b| b.addr != addr),
                "duplicate backend addr {addr}"
            );
            backends.push(BackendSpec {
                id,
                addr,
                state: BackendState::Live,
            });
        }
        backends.sort_by_key(|b| b.id);
        Membership {
            current: RwLock::new(Arc::new(MembershipEpoch { epoch: 1, backends })),
        }
    }

    /// The current view: a snapshot that later admin ops never change.
    pub fn view(&self) -> Arc<MembershipEpoch> {
        Arc::clone(&self.current.read().expect("membership lock poisoned"))
    }

    /// Admin op: announce a new backend at `addr`. It enters `Joining`
    /// with a fresh id (max ever + 1) and joins the ring immediately,
    /// but the router's health gate holds traffic until the probe
    /// loop admits it. Advances the epoch.
    pub fn join(&self, addr: SocketAddr) -> Result<(u32, Arc<MembershipEpoch>), CtlError> {
        let mut cur = self.current.write().expect("membership lock poisoned");
        if let Some(b) = cur
            .backends
            .iter()
            .find(|b| b.addr == addr && b.state != BackendState::Removed)
        {
            return Err(CtlError::DuplicateAddr(b.addr));
        }
        let id = cur.backends.iter().map(|b| b.id + 1).max().unwrap_or(0);
        let mut backends = cur.backends.clone();
        backends.push(BackendSpec {
            id,
            addr,
            state: BackendState::Joining,
        });
        let next = Arc::new(MembershipEpoch {
            epoch: cur.epoch + 1,
            backends,
        });
        *cur = Arc::clone(&next);
        Ok((id, next))
    }

    /// Health event: the probe loop admitted backend `id`
    /// (`Joining → Live`). Republishes under the **same** epoch — the
    /// ring does not change shape, so this is not a revision.
    pub fn mark_live(&self, id: u32) -> Result<Arc<MembershipEpoch>, CtlError> {
        self.transition(id, "admit", false, |state| match state {
            BackendState::Joining => Some(BackendState::Live),
            _ => None,
        })
    }

    /// Admin op: stop assigning new keys to backend `id`; in-flight
    /// work keeps draining. Legal from `Joining` or `Live`. Advances
    /// the epoch.
    pub fn drain(&self, id: u32) -> Result<Arc<MembershipEpoch>, CtlError> {
        self.transition(id, "drain", true, |state| match state {
            BackendState::Joining | BackendState::Live => Some(BackendState::Draining),
            _ => None,
        })
    }

    /// Admin op: tombstone backend `id`. Normally follows a drain, but
    /// is legal from any live state (force-remove of a dead host).
    /// Advances the epoch.
    pub fn remove(&self, id: u32) -> Result<Arc<MembershipEpoch>, CtlError> {
        self.transition(id, "remove", true, |state| match state {
            BackendState::Removed => None,
            _ => Some(BackendState::Removed),
        })
    }

    fn transition(
        &self,
        id: u32,
        op: &'static str,
        advance: bool,
        next_state: impl Fn(BackendState) -> Option<BackendState>,
    ) -> Result<Arc<MembershipEpoch>, CtlError> {
        let mut cur = self.current.write().expect("membership lock poisoned");
        let Some(pos) = cur.backends.iter().position(|b| b.id == id) else {
            return Err(CtlError::UnknownBackend(id));
        };
        let from = cur.backends[pos].state;
        let Some(to) = next_state(from) else {
            return Err(CtlError::BadTransition { id, from, op });
        };
        let mut backends = cur.backends.clone();
        backends[pos].state = to;
        let next = Arc::new(MembershipEpoch {
            epoch: cur.epoch + u64::from(advance),
            backends,
        });
        *cur = Arc::clone(&next);
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    fn boot(n: u16) -> Membership {
        let initial: Vec<(u32, SocketAddr)> =
            (0..n).map(|i| (u32::from(i), addr(7400 + i))).collect();
        Membership::new(&initial)
    }

    #[test]
    fn boot_membership_is_all_live_at_epoch_one() {
        let m = boot(3);
        let v = m.view();
        assert_eq!(v.epoch, 1);
        assert_eq!(v.backends.len(), 3);
        assert!(v.backends.iter().all(|b| b.state == BackendState::Live));
        assert_eq!(v.ring_members(), vec![0, 1, 2]);
    }

    #[test]
    fn join_assigns_a_fresh_id_and_advances_the_epoch() {
        let m = boot(2);
        let (id, v) = m.join(addr(7500)).unwrap();
        assert_eq!(id, 2);
        assert_eq!(v.epoch, 2);
        assert_eq!(v.get(2).unwrap().state, BackendState::Joining);
        assert_eq!(
            v.ring_members(),
            vec![0, 1, 2],
            "joining members hold ring points before admission"
        );
        // Same address again: rejected while the first is not removed.
        assert_eq!(m.join(addr(7500)), Err(CtlError::DuplicateAddr(addr(7500))));
    }

    #[test]
    fn admission_flips_state_without_advancing_the_epoch() {
        let m = boot(1);
        let (id, joined) = m.join(addr(7501)).unwrap();
        let admitted = m.mark_live(id).unwrap();
        assert_eq!(
            admitted.epoch, joined.epoch,
            "health events are not revisions"
        );
        assert_eq!(admitted.get(id).unwrap().state, BackendState::Live);
        assert_eq!(
            m.mark_live(id).unwrap_err(),
            CtlError::BadTransition {
                id,
                from: BackendState::Live,
                op: "admit"
            }
        );
    }

    #[test]
    fn drain_then_remove_walks_the_lifecycle() {
        let m = boot(3);
        let v = m.drain(1).unwrap();
        assert_eq!(v.epoch, 2);
        assert_eq!(v.get(1).unwrap().state, BackendState::Draining);
        assert_eq!(v.ring_members(), vec![0, 2], "draining leaves the ring");
        // Draining again is a bad transition, not a silent no-op.
        assert!(matches!(m.drain(1), Err(CtlError::BadTransition { .. })));
        let v = m.remove(1).unwrap();
        assert_eq!(v.epoch, 3);
        assert_eq!(v.get(1).unwrap().state, BackendState::Removed);
        assert!(matches!(m.remove(1), Err(CtlError::BadTransition { .. })));
        assert_eq!(m.drain(9), Err(CtlError::UnknownBackend(9)));
    }

    #[test]
    fn removed_ids_are_never_reused() {
        let m = boot(2);
        m.drain(1).unwrap();
        m.remove(1).unwrap();
        let (id, v) = m.join(addr(7600)).unwrap();
        assert_eq!(id, 2, "tombstoned id 1 is not handed out again");
        assert_eq!(v.epoch, 4);
        // The tombstone's address is free for a newcomer.
        let (id2, _) = m.join(addr(7401)).unwrap();
        assert_eq!(id2, 3);
    }

    #[test]
    fn epochs_are_monotonic_across_any_op_sequence() {
        let m = boot(2);
        let mut last = m.view().epoch;
        let (id, _) = m.join(addr(7700)).unwrap();
        for view in [
            m.mark_live(id).unwrap(),
            m.drain(id).unwrap(),
            m.remove(id).unwrap(),
        ] {
            assert!(view.epoch >= last);
            last = view.epoch;
        }
        assert_eq!(last, 4, "join + drain + remove = three revisions past boot");
    }

    #[test]
    fn encode_parse_round_trips_and_tolerates_diagnostics() {
        let m = boot(2);
        let (id, _) = m.join(addr(7800)).unwrap();
        m.drain(0).unwrap();
        let v = m.view();
        let parsed = MembershipEpoch::parse_text(&v.encode_text()).unwrap();
        assert_eq!(parsed, *v);
        // Router-appended diagnostic columns and blank lines parse too.
        let decorated = format!(
            "epoch {}\nbackend {} {} joining health=down outstanding=0\n\n",
            v.epoch,
            id,
            addr(7800)
        );
        let parsed = MembershipEpoch::parse_text(&decorated).unwrap();
        assert_eq!(parsed.epoch, v.epoch);
        assert_eq!(parsed.get(id).unwrap().state, BackendState::Joining);
        assert!(MembershipEpoch::parse_text("backend 0 nope live\n").is_err());
        assert!(MembershipEpoch::parse_text("").is_err(), "no epoch line");
    }

    #[test]
    fn concurrent_readers_see_monotonic_epochs_during_churn() {
        let m = Arc::new(boot(1));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let m = Arc::clone(&m);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let v = m.view();
                        assert!(v.epoch >= last);
                        // A view is internally consistent: ring members
                        // are always a subset of its backends.
                        for id in v.ring_members() {
                            assert!(v.get(id).is_some());
                        }
                        last = v.epoch;
                    }
                })
            })
            .collect();
        for port in 0..100u16 {
            let (id, _) = m.join(addr(8000 + port)).unwrap();
            m.mark_live(id).unwrap();
            m.drain(id).unwrap();
            m.remove(id).unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(m.view().epoch, 1 + 3 * 100);
    }
}
