//! The concurrent result cache: `get_or_insert_with` with the cs431
//! "hello server" specification — the compute closure runs **exactly
//! once per key** even under concurrent callers, and callers with
//! *distinct* keys never serialize behind one global lock — plus the
//! production extras the spec leaves out: sharding, capacity-bounded
//! LRU eviction per shard, and hit/miss/eviction counters kept in an
//! [`obs::Registry`] (`cache.hits`, `cache.misses`, `cache.evictions`).
//!
//! Layout: keys hash to one of N shards; each shard is a
//! `Mutex<HashMap<K, slot>>` held only for map bookkeeping, never
//! during a compute. A slot is an `Arc<Mutex<state> + Condvar>`
//! promise: the first caller inserts it in the `Computing` state and
//! runs the closure *outside* every lock; latecomers for the same key
//! block on the slot's condvar; callers for other keys touch other
//! slots (and usually other shards) and proceed in parallel.

use crate::fault::{FaultPlan, FaultPoint};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// A filled-exactly-once promise for a computed value.
struct Slot<V> {
    state: Mutex<SlotState<V>>,
    ready: Condvar,
}

enum SlotState<V> {
    /// The inserting caller is still running the closure.
    Computing,
    /// The value is available.
    Ready(V),
    /// The closure panicked; waiters must not hang forever.
    Poisoned,
}

struct ShardEntry<V> {
    slot: Arc<Slot<V>>,
    /// Logical timestamp of the last hit — the LRU eviction key.
    last_used: u64,
}

struct Shard<K, V> {
    map: Mutex<ShardMap<K, V>>,
}

struct ShardMap<K, V> {
    entries: HashMap<K, ShardEntry<V>>,
    /// Monotonic per-shard access clock driving `last_used`.
    clock: u64,
}

/// A point-in-time snapshot of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry, ready or still computing
    /// (`cache.hits`).
    pub hits: u64,
    /// Lookups that had to start a compute (`cache.misses`).
    pub misses: u64,
    /// Entries removed by the per-shard LRU capacity bound
    /// (`cache.evictions`).
    pub evictions: u64,
    /// Entries currently resident across all shards.
    pub entries: usize,
}

/// Sharded compute-once cache with per-shard LRU capacity bounds.
///
/// Guarantees (the cs431 `hello_server::cache` spec, plus eviction):
///
/// * **exactly-once while resident**: concurrent
///   [`Cache::get_or_insert_with`] calls for the same key run the
///   closure once; everyone gets a clone of that one result. (After an
///   eviction the key is no longer resident, so a later lookup
///   recomputes — "exactly once per *cached* key", which is the only
///   guarantee a bounded cache can make.)
/// * **no cross-key blocking**: a slow compute for key A never delays
///   a compute for key B; shard mutexes guard map bookkeeping only.
/// * **panic containment**: a panicking closure poisons only its own
///   slot — waiters for that key panic with a clear message instead of
///   hanging, the entry is removed so the key can be retried, and every
///   other key is untouched.
pub struct Cache<K, V> {
    shards: Vec<Shard<K, V>>,
    capacity_per_shard: usize,
    hits: obs::Counter,
    misses: obs::Counter,
    evictions: obs::Counter,
    /// Optional seeded fault injection (test tooling): a stall at
    /// [`FaultPoint::CacheLockHold`] is executed while a shard's map
    /// lock is held, and [`FaultPoint::CacheEvictDuringCompute`]
    /// triggers a forced eviction sweep while the firing owner's entry
    /// is still `Computing`.
    fault_plan: Option<FaultPlan>,
}

impl<K, V> std::fmt::Debug for Cache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.capacity_per_shard)
            .finish()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Cache<K, V> {
    /// A cache with `shards` independent shards, each holding at most
    /// `capacity_per_shard` entries before LRU eviction kicks in,
    /// counting into a registry of its own.
    ///
    /// # Panics
    /// If `shards == 0` or `capacity_per_shard == 0`.
    pub fn new(shards: usize, capacity_per_shard: usize) -> Cache<K, V> {
        Cache::with_fault_plan(shards, capacity_per_shard, None, &obs::Registry::new())
    }

    /// Like [`Cache::new`], counting into `registry`, plus a seeded
    /// [`FaultPlan`] consulted at the cache-layer fault points:
    ///
    /// * [`FaultPoint::CacheLockHold`] fires during phase-1 bookkeeping
    ///   **while the shard's map lock is held** — a stall there makes
    ///   every other caller hashing to the shard pile up behind the
    ///   lock (attach only stalls; a panic would poison the shard).
    /// * [`FaultPoint::CacheEvictDuringCompute`] fires in a compute
    ///   owner just before it publishes its value; when the plan is
    ///   present the cache then runs a **forced eviction sweep** at
    ///   that exact moment, while the owner's own entry is still
    ///   `Computing` — the adversarial schedule that proves in-flight
    ///   entries are never evicted out from under their waiters.
    ///
    /// # Panics
    /// If `shards == 0` or `capacity_per_shard == 0`.
    pub fn with_fault_plan(
        shards: usize,
        capacity_per_shard: usize,
        fault_plan: Option<FaultPlan>,
        registry: &obs::Registry,
    ) -> Cache<K, V> {
        assert!(shards > 0, "cache needs at least one shard");
        assert!(capacity_per_shard > 0, "cache shards need capacity >= 1");
        Cache {
            shards: (0..shards)
                .map(|_| Shard {
                    map: Mutex::new(ShardMap {
                        entries: HashMap::new(),
                        clock: 0,
                    }),
                })
                .collect(),
            capacity_per_shard,
            hits: registry.counter("cache.hits"),
            misses: registry.counter("cache.misses"),
            evictions: registry.counter("cache.evictions"),
            fault_plan,
        }
    }

    fn shard_for(&self, key: &K) -> &Shard<K, V> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Returns the cached value for `key`, or runs `compute` to fill
    /// it. See the type docs for the concurrency guarantees.
    ///
    /// # Panics
    /// If `compute` panics (the panic is re-propagated to the computing
    /// caller; concurrent waiters for the same key panic with a
    /// poisoned-slot message).
    pub fn get_or_insert_with<F: FnOnce(K) -> V>(&self, key: K, compute: F) -> V {
        let shard = self.shard_for(&key);
        // Phase 1 — bookkeeping under the shard lock: find or insert
        // the slot. No compute happens while this lock is held.
        let (slot, owner) = {
            let mut map = shard.map.lock().expect("cache shard poisoned");
            if let Some(plan) = &self.fault_plan {
                // Deliberately inside the critical section: a stall
                // here holds this shard's lock (the shard-lock-hold
                // injection point).
                plan.fire(FaultPoint::CacheLockHold);
            }
            map.clock += 1;
            let now = map.clock;
            match map.entries.get_mut(&key) {
                Some(entry) => {
                    entry.last_used = now;
                    self.hits.inc();
                    (Arc::clone(&entry.slot), false)
                }
                None => {
                    let slot = Arc::new(Slot {
                        state: Mutex::new(SlotState::Computing),
                        ready: Condvar::new(),
                    });
                    map.entries.insert(
                        key.clone(),
                        ShardEntry {
                            slot: Arc::clone(&slot),
                            last_used: now,
                        },
                    );
                    self.misses.inc();
                    (slot, true)
                }
            }
        };

        if owner {
            // Phase 2 (owner) — run the closure outside every lock so
            // other keys (and other shards) proceed concurrently.
            let key_for_cleanup = key.clone();
            match catch_unwind(AssertUnwindSafe(move || compute(key))) {
                Ok(value) => {
                    if let Some(plan) = &self.fault_plan {
                        // The evict-during-compute schedule: our own
                        // entry is still `Computing` here; a forced
                        // sweep now must leave it resident (eviction
                        // only removes `Ready` entries) or waiters on
                        // our slot would recompute or hang.
                        plan.fire(FaultPoint::CacheEvictDuringCompute);
                        self.evict_if_over_capacity(shard);
                    }
                    {
                        let mut st = slot.state.lock().expect("cache slot poisoned");
                        *st = SlotState::Ready(value.clone());
                    }
                    slot.ready.notify_all();
                    self.evict_if_over_capacity(shard);
                    value
                }
                Err(panic) => {
                    {
                        let mut st = slot.state.lock().expect("cache slot poisoned");
                        *st = SlotState::Poisoned;
                    }
                    slot.ready.notify_all();
                    // Remove the entry so the key can be retried by a
                    // later, independent call.
                    let mut map = shard.map.lock().expect("cache shard poisoned");
                    map.entries.remove(&key_for_cleanup);
                    drop(map);
                    std::panic::resume_unwind(panic);
                }
            }
        } else {
            // Phase 2 (waiter) — block on this key's slot only.
            let mut st = slot.state.lock().expect("cache slot poisoned");
            loop {
                match &*st {
                    SlotState::Ready(v) => return v.clone(),
                    SlotState::Poisoned => {
                        panic!("cache compute for this key panicked in another thread")
                    }
                    SlotState::Computing => {
                        st = slot.ready.wait(st).expect("cache slot poisoned");
                    }
                }
            }
        }
    }

    /// Ready-only probe: returns the value for `key` if it is resident
    /// and `Ready`, counting one hit and bumping its recency. An absent,
    /// still-`Computing` or poisoned key returns `None`, counts nothing
    /// and never waits, so a caller that falls back to
    /// [`Cache::get_or_insert_with`] is counted exactly once. Either
    /// way the probe takes the shard's map lock.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut map = self
            .shard_for(key)
            .map
            .lock()
            .expect("cache shard poisoned");
        map.clock += 1;
        let now = map.clock;
        let entry = map.entries.get_mut(key)?;
        let value = match &*entry.slot.state.lock().expect("cache slot poisoned") {
            SlotState::Ready(v) => v.clone(),
            SlotState::Computing | SlotState::Poisoned => return None,
        };
        entry.last_used = now;
        self.hits.inc();
        Some(value)
    }

    /// Evicts least-recently-used *ready* entries until the shard is
    /// back within capacity. In-flight (`Computing`) entries are never
    /// evicted: their waiters hold the slot, not the map entry.
    fn evict_if_over_capacity(&self, shard: &Shard<K, V>) {
        let mut map = shard.map.lock().expect("cache shard poisoned");
        while map.entries.len() > self.capacity_per_shard {
            let victim = map
                .entries
                .iter()
                .filter(|(_, e)| {
                    matches!(
                        &*e.slot.state.lock().expect("cache slot poisoned"),
                        SlotState::Ready(_)
                    )
                })
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    map.entries.remove(&k);
                    self.evictions.inc();
                }
                // Everything over capacity is still computing; nothing
                // legal to evict right now. The next completion will
                // re-check.
                None => break,
            }
        }
    }

    /// Current number of resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.map.lock().expect("cache shard poisoned").entries.len())
            .sum()
    }

    /// True when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.value(),
            misses: self.misses.value(),
            evictions: self.evictions.value(),
            entries: self.len(),
        }
    }
}

/// The one cache implementation, [`Cache`]. This enum, [`ServerCache`]
/// and [`Cache::build`] exist only for perfbench: its ladder
/// (`perfbench/src/ladder.rs`) builds a standalone cache through them.
/// perfbench changes only together with the benchmark's definition;
/// that change should call [`Cache::with_fault_plan`] and delete this
/// shim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheImpl {
    /// The sharded-mutex compute-once [`Cache`].
    #[default]
    ShardedMutex,
}

/// The server's cache type, kept as a name for perfbench (see
/// [`CacheImpl`]).
pub type ServerCache<K, V> = Cache<K, V>;

impl<K: Eq + Hash + Clone, V: Clone> Cache<K, V> {
    /// [`Cache::with_fault_plan`] under the signature perfbench calls
    /// (see [`CacheImpl`]); the implementation choice is ignored.
    pub fn build(
        _which: CacheImpl,
        shards: usize,
        capacity_per_shard: usize,
        fault_plan: Option<FaultPlan>,
        registry: &obs::Registry,
    ) -> Cache<K, V> {
        Cache::with_fault_plan(shards, capacity_per_shard, fault_plan, registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn caches_and_counts() {
        let cache: Cache<u32, String> = Cache::new(4, 8);
        let computes = AtomicU64::new(0);
        for _ in 0..3 {
            let v = cache.get_or_insert_with(7, |k| {
                computes.fetch_add(1, Ordering::SeqCst);
                format!("value-{k}")
            });
            assert_eq!(v, "value-7");
        }
        assert_eq!(computes.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn probe_reads_without_inserting() {
        let cache: Cache<u32, u64> = Cache::new(2, 4);
        let counts = |c: &Cache<u32, u64>| (c.stats().hits, c.stats().misses);
        assert!(cache.get(&5).is_none());
        assert_eq!(cache.len(), 0, "a probe miss must not insert");
        assert_eq!(counts(&cache), (0, 0), "an absent probe counts nothing");
        // A Computing key: the owner is parked inside its compute until
        // released, and the probe must neither wait nor count.
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let while_computing = thread::scope(|s| {
            let cache = &cache;
            let owner = s.spawn(move || {
                cache.get_or_insert_with(5, |k| {
                    gate.recv().expect("test releases the owner");
                    u64::from(k) * 7
                })
            });
            while cache.is_empty() {
                thread::yield_now();
            }
            let probed = (cache.get(&5), counts(cache));
            release.send(()).expect("owner is waiting");
            assert_eq!(owner.join().expect("owner thread"), 35);
            probed
        });
        assert_eq!(while_computing, (None, (0, 1)));
        assert_eq!(cache.get(&5), Some(35));
        assert_eq!(counts(&cache), (1, 1), "a Ready probe counts one hit");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn closure_runs_exactly_once_per_key_under_contention() {
        let cache: Arc<Cache<u32, u64>> = Arc::new(Cache::new(8, 64));
        let computes = Arc::new(AtomicU64::new(0));
        thread::scope(|s| {
            for t in 0..12 {
                let cache = Arc::clone(&cache);
                let computes = Arc::clone(&computes);
                s.spawn(move || {
                    for round in 0..50 {
                        let key = (round + t) % 10;
                        let v = cache.get_or_insert_with(key, |k| {
                            computes.fetch_add(1, Ordering::SeqCst);
                            // Widen the race window.
                            thread::sleep(Duration::from_micros(200));
                            u64::from(k) * 3
                        });
                        assert_eq!(v, u64::from(key) * 3);
                    }
                });
            }
        });
        assert_eq!(
            computes.load(Ordering::SeqCst),
            10,
            "closure reran for a cached key"
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, 10, "one miss per distinct key");
        assert_eq!(stats.hits, 12 * 50 - 10, "every other lookup is a hit");
    }

    #[test]
    fn distinct_keys_compute_concurrently() {
        // Two uncached keys, two threads: if the cache held a global
        // lock during compute, the pair would need >= 2 * T; overlap
        // keeps it well under. We assert logical overlap (both closures
        // in flight at once), not wall-clock, to stay robust on slow CI.
        let cache: Cache<u8, u8> = Cache::new(4, 8);
        let in_flight = AtomicU64::new(0);
        let overlapped = AtomicU64::new(0);
        thread::scope(|s| {
            for key in [1u8, 2u8] {
                let cache = &cache;
                let in_flight = &in_flight;
                let overlapped = &overlapped;
                s.spawn(move || {
                    cache.get_or_insert_with(key, |k| {
                        in_flight.fetch_add(1, Ordering::SeqCst);
                        // Give the other closure time to enter.
                        for _ in 0..200 {
                            if in_flight.load(Ordering::SeqCst) == 2 {
                                overlapped.store(1, Ordering::SeqCst);
                                break;
                            }
                            thread::sleep(Duration::from_micros(100));
                        }
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                        k
                    });
                });
            }
        });
        assert_eq!(
            overlapped.load(Ordering::SeqCst),
            1,
            "computes for distinct keys serialized"
        );
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        let cache: Cache<u32, u32> = Cache::new(1, 3);
        for k in 0..3 {
            cache.get_or_insert_with(k, |k| k);
        }
        // Touch key 0 so key 1 is now the least recently used.
        cache.get_or_insert_with(0, |_| unreachable!("0 is cached"));
        cache.get_or_insert_with(3, |k| k);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 1);
        let computes = AtomicU64::new(0);
        cache.get_or_insert_with(1, |k| {
            computes.fetch_add(1, Ordering::SeqCst);
            k
        });
        assert_eq!(
            computes.load(Ordering::SeqCst),
            1,
            "evicted key should recompute"
        );
    }

    #[test]
    fn panicking_compute_poisons_only_its_key() {
        let cache: Arc<Cache<u32, u32>> = Arc::new(Cache::new(2, 8));
        let c2 = Arc::clone(&cache);
        let boom = thread::spawn(move || c2.get_or_insert_with(9, |_| panic!("bad compute")));
        assert!(
            boom.join().is_err(),
            "panic must propagate to the computing caller"
        );
        // The key is retryable and other keys are unaffected.
        assert_eq!(cache.get_or_insert_with(9, |_| 42), 42);
        assert_eq!(cache.get_or_insert_with(10, |k| k), 10);
    }
}
