//! The Lab 10 parallel engine.
//!
//! Authentic structure, safe Rust: **persistent worker threads** (not
//! per-round spawns) partition the grid by rows or columns, run one
//! generation per round against double buffers, update a **mutex-guarded
//! shared statistics block**, and cross a **barrier** between rounds —
//! exactly the pthreads skeleton the lab hands out. The double buffers
//! are `AtomicBool` cells: within a round every thread writes only its own
//! band, and the barrier publishes those writes for the next round's reads
//! (release/acquire via the barrier's internal lock).
//!
//! The engine is bit-identical to [`crate::serial`] for every thread
//! count and both partitions — property-tested, which is the assignment's
//! own correctness methodology ("compare correctness to their prior
//! sequential solution").

use crate::grid::{Boundary, Grid, Partition};
use crate::serial::RoundStats;
use parallel::Barrier;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// A double-buffered atomic mirror of a [`Grid`].
struct AtomicGrid {
    rows: usize,
    cols: usize,
    boundary: Boundary,
    cells: Vec<AtomicBool>,
}

impl AtomicGrid {
    fn from_grid(g: &Grid) -> AtomicGrid {
        AtomicGrid {
            rows: g.rows(),
            cols: g.cols(),
            boundary: g.boundary,
            cells: g.cells().iter().map(|&b| AtomicBool::new(b)).collect(),
        }
    }

    fn blank(rows: usize, cols: usize, boundary: Boundary) -> AtomicGrid {
        AtomicGrid {
            rows,
            cols,
            boundary,
            cells: (0..rows * cols).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    fn get(&self, r: usize, c: usize) -> bool {
        self.cells[r * self.cols + c].load(Ordering::Relaxed)
    }

    fn set(&self, r: usize, c: usize, v: bool) {
        self.cells[r * self.cols + c].store(v, Ordering::Relaxed);
    }

    fn live_neighbors(&self, r: usize, c: usize) -> u8 {
        self.boundary
            .live_neighbors((self.rows, self.cols), (r, c), |r, c| self.get(r, c))
    }

    fn to_grid(&self) -> Grid {
        let mut g = Grid::new(self.rows, self.cols, self.boundary).expect("nonempty");
        for r in 0..self.rows {
            for c in 0..self.cols {
                g.set(r, c, self.get(r, c));
            }
        }
        g
    }
}

/// The band of cells a thread owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Band {
    /// Owning thread index.
    pub thread: usize,
    /// Row range start (inclusive).
    pub r0: usize,
    /// Row range end (exclusive).
    pub r1: usize,
    /// Column range start (inclusive).
    pub c0: usize,
    /// Column range end (exclusive).
    pub c1: usize,
}

/// Computes the per-thread bands for a partitioning — also used by the
/// visualizer to colour thread regions.
pub fn bands(rows: usize, cols: usize, threads: usize, partition: Partition) -> Vec<Band> {
    assert!(threads > 0);
    let split = |n: usize| -> Vec<(usize, usize)> {
        // Distribute n items over `threads` bands, remainder to the front.
        let base = n / threads;
        let extra = n % threads;
        let mut out = Vec::with_capacity(threads);
        let mut at = 0;
        for t in 0..threads {
            let size = base + usize::from(t < extra);
            out.push((at, at + size));
            at += size;
        }
        out
    };
    match partition {
        Partition::Rows => split(rows)
            .into_iter()
            .enumerate()
            .map(|(t, (r0, r1))| Band {
                thread: t,
                r0,
                r1,
                c0: 0,
                c1: cols,
            })
            .collect(),
        Partition::Columns => split(cols)
            .into_iter()
            .enumerate()
            .map(|(t, (c0, c1))| Band {
                thread: t,
                r0: 0,
                r1: rows,
                c0,
                c1,
            })
            .collect(),
    }
}

/// Result of a parallel run.
#[derive(Debug, Clone)]
pub struct ParallelRun {
    /// Final grid state.
    pub grid: Grid,
    /// Per-round statistics (births/deaths/population).
    pub history: Vec<RoundStats>,
    /// Threads used.
    pub threads: usize,
    /// Partitioning used.
    pub partition: Partition,
    /// Wall-clock seconds (meaningful on multicore hosts; on this 1-CPU
    /// container use [`crate::machsim`] for speedup studies).
    pub seconds: f64,
}

/// Runs `rounds` generations on `threads` threads.
pub fn run(grid: Grid, rounds: usize, threads: usize, partition: Partition) -> ParallelRun {
    assert!(threads > 0, "need at least one thread");
    let rows = grid.rows();
    let cols = grid.cols();
    let buf_a = AtomicGrid::from_grid(&grid);
    let buf_b = AtomicGrid::blank(rows, cols, grid.boundary);
    let barrier = Barrier::new(threads);
    let stats: Mutex<Vec<RoundStats>> = Mutex::new(vec![RoundStats::default(); rounds]);
    let my_bands = bands(rows, cols, threads, partition);
    let start = std::time::Instant::now();

    std::thread::scope(|s| {
        for band in &my_bands {
            let buf_a = &buf_a;
            let buf_b = &buf_b;
            let barrier = &barrier;
            let stats = &stats;
            s.spawn(move || {
                for round in 0..rounds {
                    let (read, write) = if round % 2 == 0 {
                        (buf_a, buf_b)
                    } else {
                        (buf_b, buf_a)
                    };
                    let mut local = RoundStats::default();
                    for r in band.r0..band.r1 {
                        for c in band.c0..band.c1 {
                            let alive = read.get(r, c);
                            let will = Grid::rule(alive, read.live_neighbors(r, c));
                            write.set(r, c, will);
                            match (alive, will) {
                                (false, true) => local.births += 1,
                                (true, false) => local.deaths += 1,
                                _ => {}
                            }
                            if will {
                                local.population += 1;
                            }
                        }
                    }
                    // The Lab 10 mutex: merge this thread's round stats.
                    {
                        let mut all = stats.lock().expect("stats mutex poisoned");
                        all[round].births += local.births;
                        all[round].deaths += local.deaths;
                        all[round].population += local.population;
                    }
                    // The Lab 10 barrier: round boundary.
                    barrier.wait();
                }
            });
        }
    });

    let final_buf = if rounds.is_multiple_of(2) {
        &buf_a
    } else {
        &buf_b
    };
    ParallelRun {
        grid: final_buf.to_grid(),
        history: stats.into_inner().expect("stats mutex poisoned"),
        threads,
        partition,
        seconds: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GLIDER;
    use crate::serial;
    use proptest::prelude::*;

    #[test]
    fn bands_cover_exactly() {
        for (n, t) in [(16usize, 4usize), (17, 4), (5, 8), (100, 16)] {
            let bs = bands(n, 10, t, Partition::Rows);
            assert_eq!(bs.len(), t);
            let covered: usize = bs.iter().map(|b| b.r1 - b.r0).sum();
            assert_eq!(covered, n.min(n), "rows covered once");
            for w in bs.windows(2) {
                assert_eq!(w[0].r1, w[1].r0, "contiguous");
            }
            assert_eq!(bs[0].r0, 0);
            assert_eq!(bs.last().unwrap().r1, n);
        }
    }

    #[test]
    fn matches_serial_on_glider() {
        let mut g = Grid::new(12, 12, crate::Boundary::Toroidal).unwrap();
        g.stamp(2, 2, GLIDER);
        let (expect, expect_stats) = serial::run(g.clone(), 9);
        for threads in [1, 2, 3, 4, 7] {
            for partition in [Partition::Rows, Partition::Columns] {
                let got = run(g.clone(), 9, threads, partition);
                assert_eq!(got.grid, expect, "t={threads} {partition:?}");
                assert_eq!(got.history, expect_stats, "stats t={threads}");
            }
        }
    }

    #[test]
    fn zero_rounds_is_identity() {
        let g = Grid::random(8, 8, 0.5, 3, crate::Boundary::Toroidal).unwrap();
        let got = run(g.clone(), 0, 4, Partition::Rows);
        assert_eq!(got.grid, g);
        assert!(got.history.is_empty());
    }

    #[test]
    fn more_threads_than_rows_still_correct() {
        let g = Grid::random(3, 9, 0.5, 5, crate::Boundary::Toroidal).unwrap();
        let (expect, _) = serial::run(g.clone(), 5);
        // 8 threads, 3 rows: several threads own empty bands.
        let got = run(g.clone(), 5, 8, Partition::Rows);
        assert_eq!(got.grid, expect);
    }

    #[test]
    fn stats_population_matches_grid() {
        let g = Grid::random(16, 16, 0.35, 11, crate::Boundary::Toroidal).unwrap();
        let got = run(g, 7, 4, Partition::Columns);
        assert_eq!(
            got.history.last().unwrap().population as usize,
            got.grid.population()
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_parallel_equals_serial(
            seed in any::<u64>(),
            rows in 4usize..20,
            cols in 4usize..20,
            rounds in 0usize..8,
            threads in 1usize..6,
            col_part in any::<bool>(),
            dead in any::<bool>(),
        ) {
            let boundary = if dead { crate::Boundary::Dead } else { crate::Boundary::Toroidal };
            let g = Grid::random(rows, cols, 0.4, seed, boundary).unwrap();
            let (expect, expect_stats) = serial::run(g.clone(), rounds);
            let partition = if col_part { Partition::Columns } else { Partition::Rows };
            let got = run(g, rounds, threads, partition);
            prop_assert_eq!(got.grid, expect);
            prop_assert_eq!(got.history, expect_stats);
        }
    }
}
