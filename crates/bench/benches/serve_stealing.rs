//! E12 — the work-stealing pool vs the bench-local shared-FIFO
//! baseline (`bench::stealing::FifoPool`).
//!
//! Prints the E12 table (heavy-tail overload stream, sleep-modeled
//! service times — see `bench::stealing`), then benches:
//!
//! * `heavy_tail_makespan/{shared-fifo,work-stealing}` — makespan of
//!   the full E12 stream per queue topology;
//! * `ragged_par_map/{static,grained}` — triangular-cost `par_map` on
//!   the stealing pool: one coarse chunk per worker vs oversubscribed
//!   grained chunks the scheduler can balance;
//! * `uniform_overhead/{shared-fifo,work-stealing}` — a no-sleep
//!   uniform job flood, checking the deques + steal protocol do not
//!   tax the plain case the FIFO handled fine.

use bench::stealing::{FifoPool, Topology};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use serve::pool::ThreadPool;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    println!("{}", bench::e12_stealing());

    let mut g = c.benchmark_group("heavy_tail_makespan");
    g.sample_size(10);
    let p = bench::stealing::heavy_tail_params();
    for topology in [Topology::Fifo, Topology::Stealing] {
        g.bench_with_input(
            BenchmarkId::new("topology", topology),
            &topology,
            |b, &t| {
                b.iter(|| {
                    let out = bench::stealing::run_mix(t, p);
                    assert!(out.local_hits + out.steals > 0);
                    out.makespan
                })
            },
        );
    }
    g.finish();

    let mut g = c.benchmark_group("ragged_par_map");
    g.sample_size(10);
    let pool = ThreadPool::new(4);
    let unit = Duration::from_micros(120);
    let n = 48usize;
    g.bench_function("static_1_chunk_per_worker", |b| {
        b.iter(|| bench::stealing::ragged_par_map(&pool, n, n.div_ceil(4), unit))
    });
    g.bench_function("grained_stealing_balances", |b| {
        b.iter(|| bench::stealing::ragged_par_map(&pool, n, 2, unit))
    });
    g.finish();

    // Uniform no-sleep flood: scheduling overhead per job, nothing to
    // balance — the stealing pool must not regress the easy case.
    let mut g = c.benchmark_group("uniform_overhead");
    g.sample_size(10);
    let fifo = FifoPool::new(4);
    g.bench_function(BenchmarkId::new("topology", Topology::Fifo), |b| {
        b.iter(|| {
            let hits = Arc::new(AtomicU64::new(0));
            for _ in 0..512 {
                let hits = Arc::clone(&hits);
                fifo.execute(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            fifo.wait_empty();
            assert_eq!(hits.load(Ordering::Relaxed), 512);
        })
    });
    g.bench_function(BenchmarkId::new("topology", Topology::Stealing), |b| {
        b.iter(|| {
            let hits = Arc::new(AtomicU64::new(0));
            for _ in 0..512 {
                let hits = Arc::clone(&hits);
                pool.execute(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                })
                .expect("pool alive");
            }
            pool.wait_empty();
            assert_eq!(hits.load(Ordering::Relaxed), 512);
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
