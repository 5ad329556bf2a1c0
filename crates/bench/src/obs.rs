//! E15 — what observability costs, and what it refuses to cost.
//!
//! Instrumentation earns its keep only if it is cheap enough to leave
//! on. The `obs` subsystem makes two promises this experiment checks:
//!
//! * **Part A — overhead.** The whole serve pipeline records into the
//!   registry (admission mirrors, pool claim/steal counters, a
//!   queue-depth gauge, per-stage histograms, a lifecycle span per
//!   request). A disabled [`::obs::Registry`] collapses every one of
//!   those sites to a never-taken `Option` branch. Running the same
//!   E11-shaped closed-loop workload against both configurations in
//!   many short back-to-back pairs and taking the median per-pair
//!   delta bounds the price of leaving metrics on, robustly against
//!   bursty host noise. Budget: < 5% throughput delta.
//!
//! * **Part B — bounded memory.** A log-bucketed
//!   [`::obs::Histogram`] holds [`::obs::BUCKETS`] fixed buckets no
//!   matter how many samples it absorbs; the `Vec<u64>`-per-sample
//!   approach the load generator used before PR 5 grows 8 bytes per
//!   request forever. A ≥1M-sample run shows the footprint staying
//!   constant while quantiles stay within the documented
//!   [`::obs::RELATIVE_ERROR`] of the exact nearest-rank values
//!   (computed against the sorted samples via
//!   [`net::loadgen::percentile`], the exact reference that survives
//!   in the loadgen for this purpose).

use serve::server::{CourseServer, Request, ServerConfig};
use std::time::Instant;

/// Shape of the E15 run.
#[derive(Debug, Clone)]
pub struct ObsParams {
    /// Server worker threads.
    pub workers: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Fresh requests per client per run.
    pub requests_per_client: usize,
    /// Paired rounds; the median per-round delta is the overhead.
    pub rounds: usize,
    /// Part B sample count (the "≥1M-request run").
    pub samples: usize,
}

/// The published E15 configuration: the E11 shape (unique homework
/// requests so the result cache cannot absorb the work) sized for the
/// build host — 2 workers and 2 clients rather than E11's 4×4,
/// because on a single-CPU host every extra thread adds timeslicing
/// noise to exactly the per-request cost this experiment measures —
/// with many short
/// paired rounds (a host-noise burst then contaminates one round,
/// and the median discards it), and 2^20 samples for the memory
/// demonstration.
pub fn obs_overhead_params() -> ObsParams {
    ObsParams {
        workers: 2,
        clients: 2,
        requests_per_client: 6_000,
        rounds: 12,
        samples: 1 << 20,
    }
}

/// One configuration's best observed throughput.
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    /// Requests completed per second, best round.
    pub best_rps: f64,
}

/// Runs the closed-loop workload once against a server built with
/// `registry` and returns requests/second. Every request is a unique
/// homework generation (distinct seeds), so the cache answers nothing
/// and every request crosses admission, the pool, and a worker.
pub fn run_throughput(registry: &::obs::Registry, p: &ObsParams, seed: u64) -> f64 {
    let server = CourseServer::new(ServerConfig {
        workers: p.workers,
        queue_capacity: (p.clients * 2).max(8),
        registry: registry.clone(),
        ..ServerConfig::default()
    });
    let total = p.clients * p.requests_per_client;
    let start = Instant::now();
    std::thread::scope(|s| {
        for client in 0..p.clients {
            let server = &server;
            s.spawn(move || {
                for i in 0..p.requests_per_client {
                    let resp = server
                        .submit(Request::Homework {
                            generator: "binary_arithmetic".into(),
                            seed: seed ^ ((client * p.requests_per_client + i) as u64),
                        })
                        .expect("closed loop never exceeds the queue")
                        .wait();
                    assert!(resp.ok, "homework generation failed: {}", resp.body);
                }
            });
        }
    });
    let elapsed = start.elapsed();
    server.shutdown();
    total as f64 / elapsed.as_secs_f64()
}

/// Part A outcome: paired per-round measurements.
#[derive(Debug)]
pub struct OverheadOutcome {
    /// Best observed obs-on throughput across rounds.
    pub on: Throughput,
    /// Best observed obs-off throughput across rounds.
    pub off: Throughput,
    /// Per-round `(off − on) / off` in percent, in round order.
    pub round_deltas_pct: Vec<f64>,
    /// Median of the per-round deltas — the headline overhead number.
    ///
    /// Each round runs both configurations back-to-back, so host
    /// noise that drifts over the whole experiment (another build on
    /// the machine, a shared-CPU neighbour) hits both sides of a pair
    /// roughly equally; the median then discards the rounds where a
    /// spike landed inside one half of a pair. On a single-CPU host
    /// this estimator is far more stable than best-of-N throughput.
    pub median_delta_pct: f64,
}

/// Paired interleaved comparison: obs-on vs obs-off. Each round runs
/// both configurations back-to-back (swapping which goes first each
/// round, so warm-up never systematically taxes one side) and records
/// the round's relative delta; the median delta is the overhead
/// estimate.
pub fn compare_overhead(p: &ObsParams) -> OverheadOutcome {
    let enabled = ::obs::Registry::new();
    let disabled = ::obs::Registry::disabled();
    let mut best_on = 0f64;
    let mut best_off = 0f64;
    let mut deltas = Vec::with_capacity(p.rounds);
    for round in 0..p.rounds {
        let seed = 0xE15_0000u64 ^ ((round as u64) << 8);
        let (on, off) = if round % 2 == 0 {
            let on = run_throughput(&enabled, p, seed);
            (on, run_throughput(&disabled, p, seed ^ 0xFF))
        } else {
            let off = run_throughput(&disabled, p, seed ^ 0xFF);
            (run_throughput(&enabled, p, seed), off)
        };
        best_on = best_on.max(on);
        best_off = best_off.max(off);
        deltas.push((off - on) / off * 100.0);
    }
    let mut sorted = deltas.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("deltas are finite"));
    let median_delta_pct = if sorted.len() % 2 == 1 {
        sorted[sorted.len() / 2]
    } else {
        (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
    };
    OverheadOutcome {
        on: Throughput { best_rps: best_on },
        off: Throughput { best_rps: best_off },
        round_deltas_pct: deltas,
        median_delta_pct,
    }
}

/// xorshift64* — deterministic sample stream for Part B.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A latency-shaped sample: mostly small values with a heavy tail
/// spanning several orders of magnitude, the regime log bucketing is
/// built for.
fn latency_sample(state: &mut u64) -> u64 {
    let r = xorshift(state);
    match r % 100 {
        0..=79 => 50 + r % 2_000,       // fast path: 50µs–2ms
        80..=98 => 2_000 + r % 100_000, // queueing: 2ms–100ms
        _ => 100_000 + r % 10_000_000,  // tail: up to 10s
    }
}

/// Part B outcome.
#[derive(Debug)]
pub struct MemoryOutcome {
    /// Samples recorded.
    pub samples: usize,
    /// Fixed histogram footprint in bytes.
    pub hist_bytes: usize,
    /// What a `Vec<u64>` of every sample costs at minimum.
    pub vec_bytes: usize,
    /// (pct, exact, histogram) for the checked quantiles.
    pub quantiles: Vec<(u64, u64, u64)>,
    /// Worst observed relative error across the checked quantiles.
    pub worst_rel_error: f64,
}

/// Records `p.samples` latency-shaped values into one histogram and
/// into a sorted `Vec`, then compares footprints and quantiles.
pub fn bounded_memory_run(p: &ObsParams) -> MemoryOutcome {
    let hist = ::obs::Histogram::new();
    let mut exact: Vec<u64> = Vec::with_capacity(p.samples);
    let mut state = 0xE15u64;
    for _ in 0..p.samples {
        let v = latency_sample(&mut state);
        hist.record(v);
        exact.push(v);
    }
    exact.sort_unstable();
    let snap = hist.snapshot();
    let mut quantiles = Vec::new();
    let mut worst = 0f64;
    for pct in [0u64, 50, 90, 99, 100] {
        let e = net::loadgen::percentile(&exact, pct as usize);
        let h = snap.percentile(pct);
        if e > 0 {
            worst = worst.max((h as f64 - e as f64) / e as f64);
        }
        quantiles.push((pct, e, h));
    }
    MemoryOutcome {
        samples: p.samples,
        hist_bytes: ::obs::Histogram::memory_bytes(),
        vec_bytes: p.samples * std::mem::size_of::<u64>(),
        quantiles,
        worst_rel_error: worst,
    }
}

/// Renders the full E15 report.
pub fn render(p: &ObsParams) -> String {
    let mut out = format!(
        "E15: instrumentation overhead and bounded histogram memory\n\
         ({} workers, {} closed-loop clients x {} unique homework requests,\n\
         median of {} paired rounds; Part B records {} samples)\n\n",
        p.workers, p.clients, p.requests_per_client, p.rounds, p.samples
    );

    let oc = compare_overhead(p);
    out.push_str("Part A — throughput with the registry on vs disabled:\n");
    out.push_str(&format!("{:<28} {:>12}\n", "configuration", "reqs/sec"));
    out.push_str(&format!(
        "{:<28} {:>12.0}\n",
        "obs on (registry + tracer)", oc.on.best_rps
    ));
    out.push_str(&format!(
        "{:<28} {:>12.0}\n",
        "obs off (disabled registry)", oc.off.best_rps
    ));
    let rounds: Vec<String> = oc
        .round_deltas_pct
        .iter()
        .map(|d| format!("{d:+.2}%"))
        .collect();
    out.push_str(&format!("per-round deltas: {}\n", rounds.join(" ")));
    out.push_str(&format!(
        "overhead: {:+.2}% median of {} paired rounds (budget < 5%;\n\
         negative means on won that pairing — the true cost is below\n\
         host noise)\n\n",
        oc.median_delta_pct,
        oc.round_deltas_pct.len()
    ));

    let mem = bounded_memory_run(p);
    out.push_str(&format!(
        "Part B — {} samples through one fixed-memory histogram:\n",
        mem.samples
    ));
    out.push_str(&format!(
        "histogram footprint: {} bytes ({} buckets), constant in n\n\
         Vec<u64> footprint:  {} bytes and growing 8 bytes/sample\n\
         ratio at n={}: {:.0}x\n\n",
        mem.hist_bytes,
        ::obs::BUCKETS,
        mem.vec_bytes,
        mem.samples,
        mem.vec_bytes as f64 / mem.hist_bytes as f64
    ));
    out.push_str(&format!(
        "{:>5} {:>12} {:>12} {:>10}\n",
        "pct", "exact (µs)", "hist (µs)", "rel err"
    ));
    for (pct, e, h) in &mem.quantiles {
        let err = if *e > 0 {
            (*h as f64 - *e as f64) / *e as f64 * 100.0
        } else {
            0.0
        };
        out.push_str(&format!("{pct:>5} {e:>12} {h:>12} {err:>9.2}%\n"));
    }
    out.push_str(&format!(
        "worst relative error {:.2}% (documented bound {:.3}%; p0/p100 exact)\n",
        mem.worst_rel_error * 100.0,
        ::obs::RELATIVE_ERROR * 100.0
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_memory_quantiles_stay_within_the_bound() {
        let p = ObsParams {
            samples: 50_000,
            ..obs_overhead_params()
        };
        let mem = bounded_memory_run(&p);
        assert!(
            mem.worst_rel_error <= ::obs::RELATIVE_ERROR,
            "worst rel error {} exceeds bound",
            mem.worst_rel_error
        );
        let (p0, e0, h0) = mem.quantiles[0];
        assert_eq!(p0, 0);
        assert_eq!(e0, h0, "p0 is the exact minimum");
        let (p100, e100, h100) = *mem.quantiles.last().unwrap();
        assert_eq!(p100, 100);
        assert_eq!(e100, h100, "p100 is the exact maximum");
        assert!(mem.hist_bytes < mem.vec_bytes);
    }

    #[test]
    fn throughput_runs_complete_with_both_registries() {
        let p = ObsParams {
            clients: 2,
            requests_per_client: 20,
            rounds: 1,
            ..obs_overhead_params()
        };
        assert!(run_throughput(&::obs::Registry::new(), &p, 1) > 0.0);
        assert!(run_throughput(&::obs::Registry::disabled(), &p, 2) > 0.0);
    }
}
