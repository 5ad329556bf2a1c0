//! # rcache — read-mostly lock-free compute-once cache
//!
//! A concurrent map from keys to **promise slots** with the cs431
//! `hello_server` cache contract — for any resident key, the compute
//! closure runs **exactly once** no matter how many threads race the
//! miss — and a hit path that takes **no exclusive lock**:
//!
//! 1. **Split-ordered-style bucket table** (incremental recursive-split
//!    growth, no stop-the-world rehash) of per-key promise slots
//!    (`Computing → Ready(Arc<V>) | Poisoned`), so concurrent readers
//!    of *distinct* keys never contend.
//! 2. **Seqlock-validated lock-free reads**: a hit loads the bucket's
//!    even sequence, walks the chain, clones the `Arc` out of the
//!    slot, and only a *miss* needs the sequence re-check (value
//!    publication is monotone per node). Torn windows retry (counted
//!    in [`Stats::retries`], yielding every few failures) — the read
//!    itself **never** takes a lock (the read-only probe
//!    [`Cache::get`] cannot lock at all). The only way a lookup
//!    resolves under a bucket lock is losing an absent→insert race,
//!    counted in [`Stats::locked_hits`] — the structural counter
//!    experiment E19 pins to **zero** under eviction churn.
//! 3. **CLOCK second-chance eviction** instead of strict LRU: a hit
//!    records recency with one relaxed bit store; capacity enforcement
//!    is a hand-sweep run by *inserting* threads that gives referenced
//!    entries a second chance and **never evicts `Computing` slots**
//!    (the PR 3 invariant).
//!
//! The unsafe parts — raw chain traversal, epoch/pin-slot reclamation,
//! the seqlock — are confined to the [`table`] module (this crate root
//! is `deny(unsafe_code)`, mirroring `serve::deque`). The full
//! ordering/reclamation argument is DESIGN.md §14.
//!
//! ```
//! use rcache::Cache;
//!
//! let cache: Cache<String, usize> = Cache::new(64);
//! let v = cache.get_or_insert_with("hw3".to_string(), |k| k.len());
//! assert_eq!(*v, 3);
//! let again = cache.get_or_insert_with("hw3".to_string(), |_| unreachable!());
//! assert_eq!(*again, 3);
//! assert_eq!(cache.stats().hits, 1);
//! ```

// `deny`, not `forbid`: the `table` module opts back in (scoped
// `allow`) for the lock-free core.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod table;

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use table::{FindOrInsert, Peeked, Read, Table, Waited};

/// What to do with the notification that wakes waiters parked on a
/// freshly published slot. Produced by [`Hooks::before_wake`]; the
/// default everywhere is [`WakeFate::Deliver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeFate {
    /// Notify waiters normally.
    Deliver,
    /// Swallow the notification (fault injection: waiters must still
    /// complete off their timed waits — `serve::fault`'s
    /// `CachePromiseWake` drop schedule rides this).
    Drop,
}

/// Test/fault-injection seams invoked on the owner's publish path.
/// Production configs leave both `None`; `serve` wires its
/// [`FaultPlan`](../serve/fault) schedules through them.
#[derive(Clone, Default)]
pub struct Hooks {
    /// Runs after the compute closure succeeds, *before* the value is
    /// published — while the owner's slot is still `Computing`. The
    /// cache follows it with a forced eviction sweep, so a hook that
    /// fires `CacheEvictDuringCompute` reproduces the adversarial
    /// evict-during-compute schedule on this implementation.
    pub before_publish: Option<Arc<dyn Fn() + Send + Sync>>,
    /// Runs after publication, deciding the waiters' wakeup fate.
    pub before_wake: Option<Arc<dyn Fn() -> WakeFate + Send + Sync>>,
}

impl std::fmt::Debug for Hooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hooks")
            .field("before_publish", &self.before_publish.is_some())
            .field("before_wake", &self.before_wake.is_some())
            .finish()
    }
}

/// Construction parameters for [`Cache::with_config`].
#[derive(Debug, Clone)]
pub struct Config {
    /// Resident-entry bound enforced by the CLOCK sweep. `Computing`
    /// slots never count as victims, so transiently the table may hold
    /// `capacity` ready entries plus every in-flight compute.
    pub capacity: usize,
    /// Starting bucket count (rounded up to a power of two). The table
    /// doubles incrementally as occupancy grows; this only tunes how
    /// soon the first splits happen.
    pub initial_buckets: usize,
    /// Metrics sink; counters/gauges are mirrored under `rcache.*`.
    /// Defaults to the disabled registry (recording collapses to
    /// no-ops).
    pub registry: obs::Registry,
    /// Fault-injection seams; see [`Hooks`].
    pub hooks: Hooks,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            capacity: 1024,
            initial_buckets: 8,
            registry: obs::Registry::disabled(),
            hooks: Hooks::default(),
        }
    }
}

/// Point-in-time counter snapshot; see [`Cache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Lookups that found the key resident (ready or in flight).
    pub hits: u64,
    /// Lookups that inserted a fresh slot and ran the closure — by the
    /// compute-once contract, also the number of closure invocations.
    pub misses: u64,
    /// Lookups that parked on another thread's `Computing` slot.
    pub waits: u64,
    /// Torn seqlock windows retried on the lock-free read path.
    pub retries: u64,
    /// Entries removed by the CLOCK sweep.
    pub evictions: u64,
    /// Lookups that resolved under a bucket lock — possible only by
    /// losing an absent→insert race — the hit path's exclusive-lock
    /// counter. E19's structural assertion is that churn alone keeps
    /// this at 0 (the lock-free read never falls back to a lock).
    pub locked_hits: u64,
    /// Resident entries right now (ready + computing).
    pub occupancy: usize,
    /// Current bucket count (grows by incremental splitting).
    pub buckets: usize,
}

/// Handles for the `rcache.*` obs mirrors.
struct Mirrors {
    hits: obs::Counter,
    misses: obs::Counter,
    waits: obs::Counter,
    retries: obs::Counter,
    evictions: obs::Counter,
    locked_hits: obs::Counter,
    occupancy: obs::Gauge,
}

/// A concurrent compute-once cache whose hit path is lock-free. See
/// the crate docs for the design and DESIGN.md §14 for the proofs.
///
/// Values are returned as `Arc<V>`: hits hand back a clone of the
/// published pointer, so readers share one allocation and eviction
/// never invalidates a value a caller already holds.
pub struct Cache<K, V> {
    table: Table<K, V>,
    hasher: RandomState,
    capacity: usize,
    hooks: Hooks,
    hits: AtomicU64,
    misses: AtomicU64,
    waits: AtomicU64,
    retries: AtomicU64,
    evictions: AtomicU64,
    locked_hits: AtomicU64,
    mirrors: Mirrors,
}

impl<K, V> std::fmt::Debug for Cache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache")
            .field("capacity", &self.capacity)
            .field("occupancy", &self.table.len())
            .field("hits", &self.hits.load(Relaxed))
            .field("misses", &self.misses.load(Relaxed))
            .finish()
    }
}

impl<K, V> Cache<K, V>
where
    K: Hash + Eq + Clone + Send + Sync,
    V: Send + Sync,
{
    /// A cache bounded to `capacity` resident entries, with default
    /// bucket sizing, no metrics, and no fault hooks.
    pub fn new(capacity: usize) -> Self {
        Cache::with_config(Config {
            capacity,
            ..Config::default()
        })
    }

    /// A cache with explicit [`Config`].
    pub fn with_config(config: Config) -> Self {
        let reg = &config.registry;
        Cache {
            table: Table::new(config.initial_buckets, config.capacity.max(1)),
            hasher: RandomState::new(),
            capacity: config.capacity.max(1),
            hooks: config.hooks,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            locked_hits: AtomicU64::new(0),
            mirrors: Mirrors {
                hits: reg.counter("rcache.hits"),
                misses: reg.counter("rcache.misses"),
                waits: reg.counter("rcache.waits"),
                retries: reg.counter("rcache.retries"),
                evictions: reg.counter("rcache.evictions"),
                locked_hits: reg.counter("rcache.locked_hits"),
                occupancy: reg.gauge("rcache.occupancy"),
            },
        }
    }

    /// Returns the cached value for `key`, running `compute` to fill it
    /// on a miss. For a resident key the closure runs **exactly once**
    /// across all racing threads: losers either return the published
    /// `Arc` lock-free or park on the owner's promise slot.
    ///
    /// # Panics
    ///
    /// If `compute` panics, the panic propagates to the owner, waiters
    /// panic with a "panicked in another thread" message, and the slot
    /// is removed so a later independent call retries — the same
    /// contract as `serve::cache`.
    pub fn get_or_insert_with<F>(&self, key: K, compute: F) -> Arc<V>
    where
        F: FnOnce(&K) -> V,
    {
        let hash = self.hasher.hash_one(&key);
        match self.table.read(hash, &key) {
            Read::Ready(v, retries) => {
                self.note_retries(retries);
                self.record_hit();
                return v;
            }
            Read::InFlight(node, retries) => {
                self.note_retries(retries);
                self.record_hit();
                return self.wait_on(node);
            }
            Read::Absent { retries } => self.note_retries(retries),
        }
        match self.table.find_or_insert(hash, &key) {
            FindOrInsert::Found(node) => {
                // The key was validated-absent a moment ago but a
                // racing insert beat us to the slot under the bucket
                // lock — the one resolution that counts as a
                // `locked_hit`.
                self.record_hit();
                self.locked_hits.fetch_add(1, Relaxed);
                self.mirrors.locked_hits.inc();
                node.touch();
                match node.peek() {
                    Peeked::Ready(v) => v,
                    Peeked::Computing => self.wait_on(node),
                    Peeked::Poisoned => poisoned_panic(),
                }
            }
            FindOrInsert::Inserted(node) => {
                self.misses.fetch_add(1, Relaxed);
                self.mirrors.misses.inc();
                self.mirrors.occupancy.set(self.table.len() as i64);
                match catch_unwind(AssertUnwindSafe(|| compute(&key))) {
                    Ok(value) => {
                        let value = Arc::new(value);
                        if let Some(hook) = &self.hooks.before_publish {
                            // Adversarial schedule: our slot is still
                            // `Computing`; a forced sweep now must
                            // leave it resident or waiters would hang
                            // or recompute.
                            hook();
                            self.force_sweep();
                        }
                        node.publish(Arc::clone(&value));
                        let fate = match &self.hooks.before_wake {
                            Some(hook) => hook(),
                            None => WakeFate::Deliver,
                        };
                        node.wake(fate == WakeFate::Deliver);
                        self.force_sweep();
                        value
                    }
                    Err(panic) => {
                        node.poison();
                        node.wake(true);
                        // Remove the slot so the key can be retried by
                        // a later, independent call.
                        self.table.unlink(hash, &node);
                        self.mirrors.occupancy.set(self.table.len() as i64);
                        resume_unwind(panic);
                    }
                }
            }
        }
    }

    /// Ready-only probe: returns the published value for `key`, counting
    /// one hit, or `None` — counting nothing and never waiting — when
    /// the key is absent, still `Computing`, or poisoned. The found path
    /// is the *same* optimistic read as [`Cache::get_or_insert_with`]'s
    /// hit path (same seqlock walk, same recency touch); it lacks both
    /// the promise wait and the insert fallback, so a probe cannot block
    /// or take a bucket lock under any schedule, and a caller that falls
    /// back to [`Cache::get_or_insert_with`] after `None` is counted
    /// once, by that call. E19 times hot-key hits through this entry
    /// point (see `bench::rcache_exp`), and the course server answers
    /// `Ready` hits at admission with it.
    pub fn get(&self, key: &K) -> Option<Arc<V>> {
        let hash = self.hasher.hash_one(key);
        match self.table.read(hash, key) {
            Read::Ready(v, retries) => {
                self.note_retries(retries);
                self.record_hit();
                Some(v)
            }
            Read::InFlight(_, retries) | Read::Absent { retries } => {
                self.note_retries(retries);
                None
            }
        }
    }

    /// Runs the CLOCK sweep until occupancy is back within capacity
    /// (public so fault schedules can force an eviction pass at a
    /// chosen instant). Never evicts `Computing` slots.
    pub fn force_sweep(&self) {
        let evicted = self.table.sweep(self.capacity);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Relaxed);
            self.mirrors.evictions.add(evicted);
            self.mirrors.occupancy.set(self.table.len() as i64);
        }
    }

    /// Resident-entry count (ready + computing).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> Stats {
        Stats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            waits: self.waits.load(Relaxed),
            retries: self.retries.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
            locked_hits: self.locked_hits.load(Relaxed),
            occupancy: self.table.len(),
            buckets: self.table.buckets(),
        }
    }

    fn record_hit(&self) {
        self.hits.fetch_add(1, Relaxed);
        self.mirrors.hits.inc();
    }

    fn note_retries(&self, retries: u32) {
        if retries > 0 {
            self.retries.fetch_add(u64::from(retries), Relaxed);
            self.mirrors.retries.add(u64::from(retries));
        }
    }

    fn wait_on(&self, node: table::NodeRef<K, V>) -> Arc<V> {
        self.waits.fetch_add(1, Relaxed);
        self.mirrors.waits.inc();
        match node.wait() {
            Waited::Ready(v) => v,
            Waited::Poisoned => poisoned_panic(),
        }
    }
}

fn poisoned_panic() -> ! {
    // Same message as `serve::cache` so callers (and tests) treat both
    // implementations identically.
    panic!("cache compute for this key panicked in another thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn caches_and_counts() {
        let cache: Cache<u64, u64> = Cache::new(16);
        let computes = AtomicUsize::new(0);
        let v = cache.get_or_insert_with(7, |k| {
            computes.fetch_add(1, Relaxed);
            k * 3
        });
        assert_eq!(*v, 21);
        let v2 = cache.get_or_insert_with(7, |_| unreachable!("must be cached"));
        assert_eq!(*v2, 21);
        assert_eq!(computes.load(Relaxed), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.locked_hits), (1, 1, 0));
        assert_eq!(s.occupancy, 1);
    }

    #[test]
    fn probe_reads_without_inserting() {
        let cache: Cache<u64, u64> = Cache::new(16);
        let counts = |c: &Cache<u64, u64>| {
            let s = c.stats();
            (s.hits, s.misses, s.waits, s.locked_hits)
        };
        assert!(cache.get(&9).is_none());
        assert!(cache.is_empty(), "a probe miss must not insert");
        assert_eq!(
            counts(&cache),
            (0, 0, 0, 0),
            "an absent probe counts nothing"
        );
        // A Computing key: the owner is parked inside its compute until
        // released, and the probe must neither wait nor count.
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let while_computing = std::thread::scope(|s| {
            let cache = &cache;
            let owner = s.spawn(move || {
                cache.get_or_insert_with(9, |k| {
                    gate.recv().expect("test releases the owner");
                    k * 2
                })
            });
            while cache.is_empty() {
                std::thread::yield_now();
            }
            let probed = (cache.get(&9), counts(cache));
            release.send(()).expect("owner is waiting");
            assert_eq!(*owner.join().expect("owner thread"), 18);
            probed
        });
        assert_eq!(while_computing, (None, (0, 1, 0, 0)));
        assert_eq!(cache.get(&9).as_deref(), Some(&18));
        assert_eq!(counts(&cache), (1, 1, 0, 0), "a Ready probe counts one hit");
        assert_eq!(cache.stats().occupancy, 1);
    }

    #[test]
    fn exactly_once_under_contention() {
        let cache: Arc<Cache<u64, u64>> = Arc::new(Cache::new(64));
        let computes = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let computes = Arc::clone(&computes);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                let v = cache.get_or_insert_with(42, |k| {
                    computes.fetch_add(1, Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    k + 1
                });
                assert_eq!(*v, 43);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(computes.load(Relaxed), 1, "compute-once violated");
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn distinct_keys_do_not_serialize() {
        let cache: Arc<Cache<u64, u64>> = Arc::new(Cache::new(1024));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                for k in 0..64u64 {
                    let key = t * 1000 + k;
                    let v = cache.get_or_insert_with(key, |k| k * 2);
                    assert_eq!(*v, key * 2);
                    let v = cache.get_or_insert_with(key, |k| k * 2);
                    assert_eq!(*v, key * 2);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.stats().misses, 8 * 64);
    }

    #[test]
    fn clock_gives_referenced_entries_a_second_chance() {
        let cache: Cache<u64, u64> = Cache::new(2);
        cache.get_or_insert_with(1, |_| 10);
        cache.get_or_insert_with(2, |_| 20);
        // Touch key 1 so its referenced bit is set; key 2 stays cold.
        assert_eq!(*cache.get_or_insert_with(1, |_| unreachable!()), 10);
        // Inserting key 3 pushes occupancy to 3 > 2: the sweep must
        // evict the unreferenced key 2 and spare key 1.
        cache.get_or_insert_with(3, |_| 30);
        assert!(cache.len() <= 2);
        assert_eq!(cache.stats().evictions, 1);
        let before = cache.stats().misses;
        assert_eq!(*cache.get_or_insert_with(1, |_| 99), 10, "hot key evicted");
        assert_eq!(cache.stats().misses, before, "hot key should still hit");
    }

    #[test]
    fn grows_incrementally_and_keeps_all_entries() {
        let cache: Cache<u64, u64> = Cache::with_config(Config {
            capacity: 4096,
            initial_buckets: 1,
            ..Config::default()
        });
        for k in 0..512u64 {
            cache.get_or_insert_with(k, |k| k ^ 0xABCD);
        }
        let s = cache.stats();
        assert!(s.buckets > 1, "table never grew: {s:?}");
        for k in 0..512u64 {
            let v = cache.get_or_insert_with(k, |_| unreachable!("lost key {k}"));
            assert_eq!(*v, k ^ 0xABCD);
        }
        assert_eq!(cache.stats().misses, 512);
    }

    #[test]
    fn panic_poisons_only_its_key_and_allows_retry() {
        let cache: Arc<Cache<u64, u64>> = Arc::new(Cache::new(16));
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            cache.get_or_insert_with(5, |_| panic!("boom"));
        }));
        assert!(result.is_err());
        // Other keys unaffected.
        assert_eq!(*cache.get_or_insert_with(6, |_| 60), 60);
        // The poisoned key was removed: a later call retries.
        assert_eq!(*cache.get_or_insert_with(5, |_| 50), 50);
    }

    #[test]
    fn dropped_wakeup_still_completes_waiters() {
        let hooks = Hooks {
            before_publish: None,
            before_wake: Some(Arc::new(|| WakeFate::Drop)),
        };
        let cache: Arc<Cache<u64, u64>> = Arc::new(Cache::with_config(Config {
            capacity: 16,
            hooks,
            ..Config::default()
        }));
        let barrier = Arc::new(Barrier::new(4));
        let computes = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            let computes = Arc::clone(&computes);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                let v = cache.get_or_insert_with(9, |_| {
                    computes.fetch_add(1, Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    90
                });
                assert_eq!(*v, 90);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(computes.load(Relaxed), 1);
    }

    #[test]
    fn eviction_never_removes_computing_entries() {
        // The before_publish hook forces a sweep while the owner's slot
        // is still Computing, with capacity 1 so the sweep is hungry.
        let hooks = Hooks {
            before_publish: Some(Arc::new(|| {})),
            before_wake: None,
        };
        let cache: Arc<Cache<u64, u64>> = Arc::new(Cache::with_config(Config {
            capacity: 1,
            hooks,
            ..Config::default()
        }));
        for k in 0..8u64 {
            let v = cache.get_or_insert_with(k, |k| k + 100);
            assert_eq!(*v, k + 100);
        }
        // Every compute survived its own adversarial sweep (the value
        // came back correct), and capacity is enforced after publish.
        assert!(cache.len() <= 1 + 1, "sweep failed to bound occupancy");
        assert_eq!(cache.stats().misses, 8);
    }
}
