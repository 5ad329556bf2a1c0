//! Experiment E19 machinery: hit-path latency under eviction churn for
//! the two compute-once cache implementations.
//!
//! The question E19 answers is the ROADMAP's cache item verbatim: does
//! the cache-hit p99 stay flat while write traffic churns eviction?
//! The `ShardedMutex` cache takes a shard mutex on every hit, so churn
//! (inserts and LRU sweeps holding those same mutexes) collides with
//! the read path; the `Promise` cache's hit path is lock-free
//! (seqlock-validated reads, CLOCK recency via one relaxed store), so
//! structural churn — nodes unlinked, inserted, and split in the very
//! buckets the readers are walking — should cost it nothing.
//!
//! ## Measurement design
//!
//! Readers time short batches of hot-key hits and record each batch in
//! the existing obs histograms (nanoseconds; the log-bucket layout
//! carries ≤3.125% error, far inside the 1.2× acceptance band). Churn
//! is produced by the *same* reader threads inserting a handful of
//! never-seen keys **between** timed batches. That shape is deliberate,
//! for two reasons:
//!
//! 1. It works on any core count, including 1. Dedicated writer
//!    threads on an oversubscribed host put scheduler preemption — not
//!    cache behavior — into the reader percentiles, and a writer's
//!    whole timeslice of back-to-back sweeps can wrap the CLOCK hand
//!    past hot keys no reader had a chance to re-touch. Interleaved
//!    churn keeps hot keys continuously referenced and keeps the timed
//!    windows so short (a few µs) that a preemption almost never lands
//!    inside one — and on multi-core hosts every reader's untimed
//!    churn still overlaps every other reader's timed batches, so the
//!    cross-thread collision the experiment is about is still there.
//! 2. It isolates the *hit* path: the insert cost itself (which both
//!    implementations pay under a lock, by design) stays outside the
//!    timed window; what is measured is only how much the resulting
//!    bucket mutation disturbs concurrent hits.
//!
//! Alongside the timing, the harness reads each implementation's
//! **structural** lock counter: for `Promise` the number of lookups
//! that resolved under a bucket lock (`rcache::Stats::locked_hits`),
//! which the acceptance criterion pins to **zero**; for `ShardedMutex`
//! every hit takes a lock by construction, reported as such.
//!
//! ## Why the zero holds under *any* scheduling
//!
//! `locked_hits` increments in exactly one place: a
//! `get_or_insert_with` call that validated the key absent, took the
//! bucket lock to insert, and found the key present — which requires a
//! *concurrent insert of the same key* by another thread. The workload
//! is built so that cannot exist: timed hot-key lookups go through the
//! read-only probe ([`rcache::Cache::get`] — the identical optimistic
//! read as the hit path of `get_or_insert_with`, minus the promise wait
//! and the insert fallback), cold churn keys come off a shared counter
//! so each is inserted by exactly one thread, and re-warming evicted
//! hot keys is owned by a single warden thread. Every key has at most
//! one inserter,
//! ever, so the absent→insert race — the only path to a `locked_hit` —
//! is impossible by construction, not merely unlikely. This matters
//! because CLOCK second-chance eviction is *approximate*: under
//! adversarial preemption a sweep can clear every referenced bit in one
//! revolution and the next insert can then evict a hot key no reader
//! had a chance to re-touch. That is legal cache behavior (the
//! follow-up lookup is a genuine miss), so the experiment's job is to
//! keep such a miss from masquerading as a hit-path lock — which the
//! single-inserter discipline does, independent of eviction luck.

use obs::Registry;
use serve::Cache as MutexCache;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Barrier;
use std::time::Instant;

/// Workload knobs for [`hit_churn`].
#[derive(Debug, Clone, Copy)]
pub struct ChurnParams {
    /// Hot keys the readers hammer (all resident after warmup).
    pub hot_keys: u64,
    /// Total cache capacity (must exceed `hot_keys` so the hot set
    /// survives churn via CLOCK second chances / LRU recency).
    pub capacity: usize,
    /// Reader threads.
    pub readers: usize,
    /// Timed batches per reader per phase (each batch is one histogram
    /// sample).
    pub batches: usize,
    /// Hot-key lookups per timed batch. Kept small so the timed window
    /// is microseconds wide and scheduler preemptions land between
    /// batches, not inside them.
    pub batch_len: usize,
    /// Cold-miss inserts each reader performs between timed batches
    /// during the churn phase (0 during baseline). Every insert past
    /// capacity forces an eviction sweep.
    pub churn_inserts: usize,
    /// Alternating baseline/churn sub-phases the batches are spread
    /// over. Interleaving the two phases chunk-wise means slow host
    /// periods (other tenants, frequency shifts) land on both
    /// histograms roughly equally instead of skewing the ratio.
    pub chunks: usize,
}

/// Sizing used by `reproduce e19`: ~2.4k p99 samples per phase, ~10k
/// forced evictions across the churn phase.
pub fn default_params() -> ChurnParams {
    ChurnParams {
        hot_keys: 256,
        capacity: 512,
        readers: 4,
        batches: 600,
        batch_len: 64,
        churn_inserts: 4,
        chunks: 10,
    }
}

/// The uniform face the duel needs from a cache implementation.
pub trait HitCache: Send + Sync {
    /// Lookup, computing on miss — warmup, churn inserts, and the
    /// warden's re-warm patrol.
    fn get(&self, key: u64) -> u64;
    /// Read-only lookup — the timed operation. Shares the full hit
    /// machinery with [`HitCache::get`] but never inserts or waits, so a
    /// reader that races an eviction gets an uncounted `None` instead of
    /// becoming a second inserter.
    fn probe(&self, key: u64) -> Option<u64>;
    /// Exclusive-lock acquisitions attributable to the *hit* path so
    /// far (structural counter, not a timing).
    fn hit_lock_events(&self) -> u64;
    /// Entries evicted so far.
    fn evictions(&self) -> u64;
    /// Hits so far.
    fn hits(&self) -> u64;
    /// Misses so far.
    fn misses(&self) -> u64;
}

/// The value every key maps to (kept trivial so the experiment times
/// the cache, not the compute).
fn value_of(k: u64) -> u64 {
    k.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// `crates/rcache` behind [`HitCache`].
pub struct PromiseHitCache(pub rcache::Cache<u64, u64>);

impl HitCache for PromiseHitCache {
    fn get(&self, key: u64) -> u64 {
        *self.0.get_or_insert_with(key, |k| value_of(*k))
    }
    fn probe(&self, key: u64) -> Option<u64> {
        self.0.get(&key).map(|v| *v)
    }
    fn hit_lock_events(&self) -> u64 {
        self.0.stats().locked_hits
    }
    fn evictions(&self) -> u64 {
        self.0.stats().evictions
    }
    fn hits(&self) -> u64 {
        self.0.stats().hits
    }
    fn misses(&self) -> u64 {
        self.0.stats().misses
    }
}

/// The PR 3 sharded-mutex cache behind [`HitCache`]. Every hit takes
/// its shard's mutex, so the structural lock counter *is* the hit
/// counter.
pub struct MutexHitCache(pub MutexCache<u64, u64>);

impl HitCache for MutexHitCache {
    fn get(&self, key: u64) -> u64 {
        self.0.get_or_insert_with(key, value_of)
    }
    fn probe(&self, key: u64) -> Option<u64> {
        self.0.get(&key)
    }
    fn hit_lock_events(&self) -> u64 {
        self.0.stats().hits
    }
    fn evictions(&self) -> u64 {
        self.0.stats().evictions
    }
    fn hits(&self) -> u64 {
        self.0.stats().hits
    }
    fn misses(&self) -> u64 {
        self.0.stats().misses
    }
}

/// One implementation's measured outcome.
#[derive(Debug, Clone)]
pub struct HitChurnOutcome {
    /// Implementation label (`promise` / `sharded-mutex`).
    pub label: &'static str,
    /// Unchurned hit-batch p50, nanoseconds.
    pub baseline_p50_ns: u64,
    /// Unchurned hit-batch p99, nanoseconds.
    pub baseline_p99_ns: u64,
    /// Hit-batch p50 while eviction churn runs, nanoseconds.
    pub churn_p50_ns: u64,
    /// Hit-batch p99 while eviction churn runs, nanoseconds.
    pub churn_p99_ns: u64,
    /// `churn_p99 / baseline_p99` — the acceptance ratio.
    pub p99_ratio: f64,
    /// Evictions the churn phase caused.
    pub evictions: u64,
    /// Total hits across both phases.
    pub hits: u64,
    /// Total misses (warmup and churn inserts).
    pub misses: u64,
    /// Structural hit-path exclusive-lock counter at the end.
    pub hit_lock_events: u64,
}

/// Runs one implementation through warmup → baseline phase → churn
/// phase, recording batch durations into `registry` histograms
/// (`e19.<label>.baseline_ns` / `e19.<label>.churn_ns`) and reading
/// the percentiles back off the snapshots.
pub fn hit_churn<C: HitCache>(
    params: ChurnParams,
    label: &'static str,
    cache: &C,
    registry: &Registry,
) -> HitChurnOutcome {
    // Warmup: make the whole hot set resident.
    for k in 0..params.hot_keys {
        assert_eq!(cache.get(k), value_of(k));
    }
    let baseline = registry.histogram(&format!("e19.{label}.baseline_ns"));
    let churn = registry.histogram(&format!("e19.{label}.churn_ns"));

    // One untimed churn chunk up front so every measured chunk
    // (including the first baseline one) sees a full, already-grown
    // table — the two phases then differ only in *concurrent*
    // mutation, not table shape. Its samples go to a scratch
    // histogram because incremental growth (bucket splits) happens
    // only here.
    let chunk = ChurnParams {
        batches: (params.batches / params.chunks).max(1),
        ..params
    };
    let scratch = registry.histogram(&format!("e19.{label}.prime_ns"));
    run_phase(chunk, cache, &scratch, params.churn_inserts);
    let evictions_before = cache.evictions();
    for _ in 0..params.chunks {
        run_phase(chunk, cache, &baseline, 0);
        run_phase(chunk, cache, &churn, params.churn_inserts);
    }

    let base_snap = baseline.snapshot();
    let churn_snap = churn.snapshot();
    let baseline_p99_ns = base_snap.percentile(99).max(1);
    let churn_p99_ns = churn_snap.percentile(99).max(1);
    HitChurnOutcome {
        label,
        baseline_p50_ns: base_snap.percentile(50),
        baseline_p99_ns,
        churn_p50_ns: churn_snap.percentile(50),
        churn_p99_ns,
        p99_ratio: churn_p99_ns as f64 / baseline_p99_ns as f64,
        evictions: cache.evictions() - evictions_before,
        hits: cache.hits(),
        misses: cache.misses(),
        hit_lock_events: cache.hit_lock_events(),
    }
}

/// Fresh-key source shared by every churn phase of one cache's run so
/// no cold key is ever inserted twice (a repeat would be a hit, not
/// churn).
static COLD: AtomicU64 = AtomicU64::new(1 << 32);

/// Every this-many batches, the warden (thread 0) walks the *entire*
/// hot set once, untimed, via the inserting `get`. This keeps every
/// hot key's recency bit freshly set (so evictions overwhelmingly land
/// on dead cold keys and the timed probes keep hitting) and re-inserts
/// any hot key an unlucky sweep did evict — and because the warden is
/// the *only* thread that ever inserts hot keys, that re-insert can
/// never race another inserter (the module docs' single-inserter
/// argument).
const PATROL_INTERVAL: usize = 8;

/// Spawns `params.readers` threads; each records `params.batches`
/// timed batches of read-only hot-key probes into `hist`, inserting
/// `churn_inserts` fresh cold keys between batches (outside the timed
/// window). Thread 0 doubles as the hot-set warden (see
/// [`PATROL_INTERVAL`]).
fn run_phase<C: HitCache>(
    params: ChurnParams,
    cache: &C,
    hist: &obs::HistogramHandle,
    churn_inserts: usize,
) {
    let start = Barrier::new(params.readers);
    let start = &start;
    std::thread::scope(|s| {
        for t in 0..params.readers {
            let hist = hist.clone();
            s.spawn(move || {
                start.wait();
                let mut rng = 0x1234_5678_9abc_def0u64 ^ ((t as u64) << 32);
                for batch in 0..params.batches {
                    let t0 = Instant::now();
                    for _ in 0..params.batch_len {
                        // LCG advance, cheap enough to vanish against
                        // even a lock-free lookup.
                        rng = rng
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let key = (rng >> 33) % params.hot_keys;
                        // A `None` here means a sweep evicted this hot
                        // key moments ago (or the warden is re-inserting
                        // it). The warden will re-insert it; probing
                        // must not, or this thread would become a
                        // second inserter.
                        if let Some(v) = cache.probe(key) {
                            debug_assert_eq!(v, value_of(key));
                        }
                    }
                    hist.record(t0.elapsed().as_nanos() as u64);
                    for _ in 0..churn_inserts {
                        let k = COLD.fetch_add(1, Relaxed);
                        assert_eq!(cache.get(k), value_of(k));
                    }
                    if t == 0 && (batch + 1).is_multiple_of(PATROL_INTERVAL) {
                        for k in 0..params.hot_keys {
                            assert_eq!(cache.get(k), value_of(k));
                        }
                    }
                }
            });
        }
    });
}

/// Builds the `Promise` cache for the duel (capacity-equivalent to the
/// sharded-mutex configuration).
pub fn promise_cache(params: ChurnParams, registry: &Registry) -> PromiseHitCache {
    PromiseHitCache(rcache::Cache::with_config(rcache::Config {
        capacity: params.capacity,
        initial_buckets: 64,
        registry: registry.clone(),
        hooks: rcache::Hooks::default(),
    }))
}

/// Builds the `ShardedMutex` cache for the duel: 8 shards at
/// `capacity / 8` each — the `ServerConfig` default topology scaled to
/// the same total budget.
pub fn mutex_cache(params: ChurnParams) -> MutexHitCache {
    MutexHitCache(MutexCache::new(8, (params.capacity / 8).max(1)))
}
