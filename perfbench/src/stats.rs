//! Percentiles and the closed loops' per-window statistics.

/// Samples that must lie beyond a reported percentile: with fewer, the
/// percentile is one sample's noise, not the tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of the `per_mille` percentile among `n` sorted
/// samples (p50 = 500, p99 = 990): the smallest rank with at least
/// that share of samples at or below it. `n` must be positive.
pub fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).max(1) - 1
}

/// The `per_mille` percentile of `sorted`, or an error when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], per_mille: usize) -> Result<u64, String> {
    if sorted.is_empty() {
        return Err(format!("p{} of no samples", per_mille as f64 / 10.0));
    }
    let r = rank(sorted.len(), per_mille);
    let beyond = sorted.len() - 1 - r;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {} samples has only {beyond} beyond it (need {MIN_BEYOND})",
            per_mille as f64 / 10.0,
            sorted.len()
        ));
    }
    Ok(sorted[r])
}

/// Median of unsorted values (the lower middle for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 2]
}

/// Median of unsorted integer samples.
pub fn median_u64(values: &[u64]) -> u64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_unstable();
    v[(v.len() - 1) / 2]
}

/// Latency statistics of one closed-loop window.
#[derive(Clone, Debug)]
pub struct WindowStats {
    pub ok: u64,
    pub p50_ns: Result<u64, String>,
    pub p99_ns: Result<u64, String>,
    pub interactive_p99_ns: Result<u64, String>,
}

/// Splits a closed-loop phase into fixed windows by answer time and
/// keeps each window's latencies only until it closes, so memory does
/// not grow with the run. Answers after the last full window (the
/// drain once sending stops) are not counted.
pub struct Windows {
    width_ns: u64,
    full: u64,
    current: u64,
    all: Vec<u64>,
    interactive: Vec<u64>,
    pub closed: Vec<WindowStats>,
}

impl Windows {
    pub fn new(width_ns: u64, full: u64) -> Windows {
        Windows {
            width_ns,
            full,
            current: 0,
            all: Vec::new(),
            interactive: Vec::new(),
            closed: Vec::new(),
        }
    }

    /// Adds one OK answer completed `end_ns` into the phase.
    pub fn add(&mut self, end_ns: u64, latency_ns: u64, interactive: bool) {
        let index = end_ns / self.width_ns;
        while self.current < index.min(self.full) {
            self.close();
        }
        if index < self.full {
            self.all.push(latency_ns);
            if interactive {
                self.interactive.push(latency_ns);
            }
        }
    }

    fn close(&mut self) {
        self.all.sort_unstable();
        self.interactive.sort_unstable();
        self.closed.push(WindowStats {
            ok: self.all.len() as u64,
            p50_ns: percentile(&self.all, 500),
            p99_ns: percentile(&self.all, 990),
            interactive_p99_ns: percentile(&self.interactive, 990),
        });
        self.all.clear();
        self.interactive.clear();
        self.current += 1;
    }

    /// Closes every window not yet closed.
    pub fn finish(&mut self) {
        while self.current < self.full {
            self.close();
        }
    }

    pub fn width_s(&self) -> f64 {
        self.width_ns as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_is_nearest_rank() {
        assert_eq!(rank(1, 500), 0);
        assert_eq!(rank(2, 500), 0);
        assert_eq!(rank(3, 500), 1);
        assert_eq!(rank(100, 990), 98);
        assert_eq!(rank(1000, 990), 989);
        assert_eq!(rank(1000, 1000), 999);
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 500), Ok(500));
        assert_eq!(percentile(&sorted, 990), Ok(990));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let sorted: Vec<u64> = (0..1000).collect();
        assert_eq!(percentile(&sorted, 990), Ok(989), "exactly 10 beyond");
        assert!(percentile(&sorted[..999], 990).is_err(), "9 beyond");
        assert!(percentile(&sorted[..20], 500).is_ok());
        assert!(percentile(&sorted[..19], 500).is_err());
        assert!(percentile(&[], 500).is_err());
        assert!(
            percentile(&sorted, 1000).is_err(),
            "the max has none beyond"
        );
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median_u64(&[9, 1, 5]), 5);
    }

    #[test]
    fn windows_split_answers_by_time_and_drop_the_drain() {
        let ms = 1_000_000;
        let mut w = Windows::new(100 * ms, 3);
        for i in 0..4000u64 {
            // 1000 answers per window, latency i % 1000 + 1 µs; the
            // fourth window is the drain and must not count.
            w.add(i * ms / 10, (i % 1000 + 1) * 1000, i % 2 == 0);
        }
        w.finish();
        assert_eq!(w.closed.len(), 3);
        for stats in &w.closed {
            assert_eq!(stats.ok, 1000);
            assert_eq!(stats.p50_ns, Ok(500_000));
            assert_eq!(stats.p99_ns, Ok(990_000));
            assert!(
                stats.interactive_p99_ns.is_err(),
                "500 samples: 5 beyond p99"
            );
        }
        let mut sparse = Windows::new(100 * ms, 3);
        sparse.add(250 * ms, 1, false);
        sparse.finish();
        assert_eq!(
            sparse.closed.iter().map(|s| s.ok).collect::<Vec<_>>(),
            [0, 0, 1]
        );
        assert!(
            sparse.closed[0].p50_ns.is_err(),
            "an empty window has no p50"
        );
    }
}
