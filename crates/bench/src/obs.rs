//! E15 — what observability refuses to cost: memory.
//!
//! A log-bucketed [`::obs::Histogram`] holds [`::obs::BUCKETS`] fixed
//! buckets no matter how many samples it absorbs; the
//! `Vec<u64>`-per-sample approach the load generator used before PR 5
//! grows 8 bytes per request forever. A ≥1M-sample run shows the
//! footprint staying constant while quantiles stay within the
//! documented [`::obs::RELATIVE_ERROR`] of the exact nearest-rank
//! values (computed against the sorted samples via
//! [`net::loadgen::percentile`], the exact reference that survives in
//! the loadgen for this purpose).
//!
//! The experiment's first half, throughput with the registry on versus
//! a disabled null-object registry, is retired: the registry is now
//! the server's one ledger, so a server without it has no `stats()`
//! and is not a configuration anyone can run.

/// Shape of the E15 run.
#[derive(Debug, Clone)]
pub struct ObsParams {
    /// Samples recorded (the "≥1M-request run").
    pub samples: usize,
}

/// The published E15 configuration: 2^20 samples.
pub fn obs_params() -> ObsParams {
    ObsParams { samples: 1 << 20 }
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

/// E15's outcome.
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
        "E15: bounded histogram memory\n\
         ({} samples; Part A, obs-on vs obs-off throughput, is retired:\n\
         the registry is the server's one ledger and cannot be switched off)\n\n",
        p.samples
    );

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
        let p = ObsParams { samples: 50_000 };
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
}
