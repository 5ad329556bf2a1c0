//! Seeded fault injection for the course server (test tooling).
//!
//! A [`FaultPlan`] makes registered handlers misbehave on purpose —
//! panicking or stalling at chosen points — so the server's invariants
//! (tickets always resolve, shutdown drains every accepted request,
//! a panic poisons only the panicking job) can be tested under
//! adversarial schedules instead of only on the happy path.
//!
//! Determinism: every decision is a pure function of the plan's seed
//! and a global firing sequence number, hashed with a SplitMix64-style
//! mixer. The same seed and the same number of [`FaultPlan::fire`]
//! calls therefore produce the same faults, which keeps failures
//! reproducible. (The *interleaving* of worker threads still varies
//! run to run — that is the point: deterministic faults, adversarial
//! schedules.)
//!
//! The plan is wired in via [`ServerConfig::fault_plan`] and consulted
//! by the server at [`FaultPoint::BeforeHandle`] (before the workload
//! runs, inside the cache's compute closure) and
//! [`FaultPoint::AfterHandle`] (after the workload produced a
//! response, still inside the compute closure). Both points sit under
//! the server's `catch_unwind`, so injected panics must surface as
//! `ok: false` responses, never as hung tickets.
//!
//! [`ServerConfig::fault_plan`]: crate::server::ServerConfig::fault_plan

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where in the request path a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// Before the handler runs the workload (inside the cache compute
    /// closure): a panic here means the request produced no response.
    BeforeHandle,
    /// After the handler produced a response but before it is returned
    /// (still inside the compute closure): a panic here throws away
    /// completed work.
    AfterHandle,
    /// Inside `submit`, after admission succeeded but before the job
    /// reaches the pool: a stall here widens the admitted-but-not-yet-
    /// enqueued window that graceful shutdown must cover (the
    /// submission-side race point). A panic here unwinds into the
    /// *submitting* client; the server's open-submission accounting is
    /// guard-protected, so shutdown still drains correctly.
    BeforeEnqueue,
    /// Inside the cache's bookkeeping phase, while a shard's map lock
    /// is held: a stall here holds the shard lock, forcing every other
    /// request hashing to the shard to pile up behind it (the
    /// shard-lock-hold point). Panics here would poison the shard
    /// mutex, so plans should only attach stalls to this point.
    CacheLockHold,
    /// In a cache compute owner just before it publishes its value:
    /// the cache responds by running a forced eviction sweep at that
    /// moment, proving in-progress (`Computing`) entries are never
    /// evicted out from under their waiters.
    CacheEvictDuringCompute,
    /// In the TCP front end's per-connection reader, after a request
    /// frame is parsed but before it is submitted: a stall here models
    /// a slow/stuck reader; a [`FaultKind::Drop`] here severs the
    /// connection mid-request — the admitted work must still drain and
    /// the server ledger must still balance even though the response
    /// has nowhere to go.
    NetReadFrame,
    /// In the TCP front end's per-connection writer, before a response
    /// frame is written: a stall here models a slow client that the
    /// write timeout must bound; a [`FaultKind::Drop`] severs the
    /// connection with responses still queued.
    NetWriteFrame,
}

/// What an injected fault does.
#[derive(Debug, Clone, Copy)]
pub enum FaultKind {
    /// Panic with a recognizable message.
    Panic,
    /// Sleep for the given duration, simulating a stuck handler.
    Stall(Duration),
    /// Sever a connection (wire-level points only). `Drop` rules never
    /// fire from [`FaultPlan::fire`]; the net layer polls them with
    /// [`FaultPlan::should_drop`] and closes the socket itself.
    Drop,
}

#[derive(Debug, Clone, Copy)]
struct FaultRule {
    point: FaultPoint,
    kind: FaultKind,
    /// Fire on `numerator` out of every `denominator` hash buckets.
    numerator: u32,
    denominator: u32,
}

struct PlanInner {
    seed: u64,
    rules: Vec<FaultRule>,
    /// One tick per `fire`/`should_drop` call, across all points and
    /// threads.
    sequence: AtomicU64,
    panics: AtomicU64,
    stalls: AtomicU64,
    drops: AtomicU64,
}

/// Counters for faults actually injected so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Panics injected.
    pub panics: u64,
    /// Stalls injected.
    pub stalls: u64,
    /// Connection drops granted to [`FaultPlan::should_drop`] callers.
    pub drops: u64,
}

/// A seeded, shareable schedule of handler faults.
///
/// Build one with [`FaultPlan::new`] and the `panic_at` / `stall_at`
/// builders, hand it to [`ServerConfig::fault_plan`], and read back
/// [`FaultPlan::stats`] to assert the test actually exercised the
/// faulty paths. Clones share state (the plan is internally an `Arc`),
/// so keep a clone in the test to observe counters after the server
/// consumed the original.
///
/// [`ServerConfig::fault_plan`]: crate::server::ServerConfig::fault_plan
#[derive(Clone)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.inner.seed)
            .field("rules", &self.inner.rules.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// SplitMix64 finalizer: a cheap, well-mixed hash of the counter.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// An empty plan: no rules, nothing fires until some are added.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            inner: Arc::new(PlanInner {
                seed,
                rules: Vec::new(),
                sequence: AtomicU64::new(0),
                panics: AtomicU64::new(0),
                stalls: AtomicU64::new(0),
                drops: AtomicU64::new(0),
            }),
        }
    }

    fn with_rule(self, rule: FaultRule) -> FaultPlan {
        assert!(
            rule.denominator > 0,
            "fault rate denominator must be positive"
        );
        assert!(
            rule.numerator <= rule.denominator,
            "fault rate cannot exceed 1 ({}/{})",
            rule.numerator,
            rule.denominator
        );
        // Builders run before the plan is shared; the unwrap documents
        // that contract rather than silently cloning state.
        let PlanInner {
            seed,
            mut rules,
            sequence,
            panics,
            stalls,
            drops,
        } = Arc::try_unwrap(self.inner)
            .unwrap_or_else(|_| panic!("configure the FaultPlan before cloning/sharing it"));
        rules.push(rule);
        FaultPlan {
            inner: Arc::new(PlanInner {
                seed,
                rules,
                sequence,
                panics,
                stalls,
                drops,
            }),
        }
    }

    /// Adds a rule: panic at `point` on roughly `numerator` out of
    /// every `denominator` firings (seed-deterministic, not periodic).
    pub fn panic_at(self, point: FaultPoint, numerator: u32, denominator: u32) -> FaultPlan {
        self.with_rule(FaultRule {
            point,
            kind: FaultKind::Panic,
            numerator,
            denominator,
        })
    }

    /// Adds a rule: stall for `stall` at `point` on roughly
    /// `numerator` out of every `denominator` firings.
    pub fn stall_at(
        self,
        point: FaultPoint,
        stall: Duration,
        numerator: u32,
        denominator: u32,
    ) -> FaultPlan {
        self.with_rule(FaultRule {
            point,
            kind: FaultKind::Stall(stall),
            numerator,
            denominator,
        })
    }

    /// Adds a rule: grant a connection drop at `point` on roughly
    /// `numerator` out of every `denominator` [`should_drop`] polls.
    /// Only the wire-level points consult drop rules.
    ///
    /// [`should_drop`]: FaultPlan::should_drop
    pub fn drop_at(self, point: FaultPoint, numerator: u32, denominator: u32) -> FaultPlan {
        self.with_rule(FaultRule {
            point,
            kind: FaultKind::Drop,
            numerator,
            denominator,
        })
    }

    /// Consults the plan at `point`; sleeps or panics per the rules.
    ///
    /// Called by the server inside its panic isolation; tests may also
    /// call it directly to script a fault at an exact moment.
    pub fn fire(&self, point: FaultPoint) {
        let seq = self.inner.sequence.fetch_add(1, Ordering::Relaxed);
        for (ridx, rule) in self.inner.rules.iter().enumerate() {
            if rule.point != point {
                continue;
            }
            let h = mix(self.inner.seed ^ mix(seq ^ ((ridx as u64) << 32)));
            if (h % u64::from(rule.denominator)) as u32 >= rule.numerator {
                continue;
            }
            match rule.kind {
                FaultKind::Stall(dur) => {
                    self.inner.stalls.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(dur);
                }
                FaultKind::Panic => {
                    self.inner.panics.fetch_add(1, Ordering::Relaxed);
                    panic!("fault injection: seeded panic at {point:?} (firing #{seq})");
                }
                // Drop is an action only the net layer can take (it
                // owns the socket); `fire` never acts on it.
                FaultKind::Drop => {}
            }
        }
    }

    /// Consults the drop rules at `point`: `true` means the caller
    /// should sever its connection now. Seed-deterministic like
    /// [`FaultPlan::fire`] (each poll consumes one sequence tick), and
    /// counted in [`FaultStats::drops`] when granted.
    pub fn should_drop(&self, point: FaultPoint) -> bool {
        let seq = self.inner.sequence.fetch_add(1, Ordering::Relaxed);
        for (ridx, rule) in self.inner.rules.iter().enumerate() {
            if rule.point != point || !matches!(rule.kind, FaultKind::Drop) {
                continue;
            }
            let h = mix(self.inner.seed ^ mix(seq ^ ((ridx as u64) << 32)));
            if (h % u64::from(rule.denominator)) as u32 >= rule.numerator {
                continue;
            }
            self.inner.drops.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Counters of faults injected so far (shared across clones).
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            panics: self.inner.panics.load(Ordering::Relaxed),
            stalls: self.inner.stalls.load(Ordering::Relaxed),
            drops: self.inner.drops.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::new(42);
        for _ in 0..1000 {
            plan.fire(FaultPoint::BeforeHandle);
            plan.fire(FaultPoint::AfterHandle);
        }
        assert_eq!(
            plan.stats(),
            FaultStats {
                panics: 0,
                stalls: 0,
                drops: 0
            }
        );
    }

    #[test]
    fn drop_rules_only_answer_should_drop() {
        let plan = FaultPlan::new(9).drop_at(FaultPoint::NetReadFrame, 1, 2);
        // `fire` never acts on (or counts) a Drop rule.
        for _ in 0..50 {
            plan.fire(FaultPoint::NetReadFrame);
        }
        assert_eq!(plan.stats().drops, 0);
        let granted = (0..200)
            .filter(|_| plan.should_drop(FaultPoint::NetReadFrame))
            .count() as u64;
        assert!(
            (40..=160).contains(&granted),
            "got {granted}/200 drops at rate 1/2"
        );
        assert_eq!(plan.stats().drops, granted);
        // Wrong point: no grants.
        assert!(!(0..50).any(|_| plan.should_drop(FaultPoint::NetWriteFrame)));
    }

    #[test]
    fn panic_rule_fires_at_roughly_its_rate_and_is_seed_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed).panic_at(FaultPoint::BeforeHandle, 1, 4);
            (0..400)
                .map(|_| {
                    catch_unwind(AssertUnwindSafe(|| plan.fire(FaultPoint::BeforeHandle))).is_err()
                })
                .collect()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must fault the same firings");
        let hits = a.iter().filter(|&&x| x).count();
        // 1/4 rate over 400 firings: allow generous slack, but it must
        // fire sometimes and not always.
        assert!(
            (40..=160).contains(&hits),
            "got {hits}/400 faults at rate 1/4"
        );
        let c = run(8);
        assert_ne!(a, c, "different seeds should differ somewhere");
    }

    #[test]
    fn always_rules_fire_every_time_and_stalls_really_sleep() {
        let plan =
            FaultPlan::new(0).stall_at(FaultPoint::AfterHandle, Duration::from_millis(5), 1, 1);
        let t0 = std::time::Instant::now();
        plan.fire(FaultPoint::AfterHandle);
        plan.fire(FaultPoint::BeforeHandle); // wrong point: no stall
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert_eq!(
            plan.stats(),
            FaultStats {
                panics: 0,
                stalls: 1,
                drops: 0
            }
        );
    }

    #[test]
    fn clones_share_counters() {
        let plan =
            FaultPlan::new(1).stall_at(FaultPoint::BeforeHandle, Duration::from_micros(1), 1, 1);
        let observer = plan.clone();
        plan.fire(FaultPoint::BeforeHandle);
        assert_eq!(observer.stats().stalls, 1);
    }

    #[test]
    #[should_panic(expected = "configure the FaultPlan before cloning")]
    fn configuring_a_shared_plan_is_an_error() {
        let plan = FaultPlan::new(3);
        let _held = plan.clone();
        let _ = plan.panic_at(FaultPoint::BeforeHandle, 1, 2);
    }
}
