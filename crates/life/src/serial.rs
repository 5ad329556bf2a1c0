//! The Lab 6 sequential engine — the correctness reference the parallel
//! version must match ("the assignment allows students to compare
//! correctness to their prior sequential solution").

use crate::grid::{Boundary, Grid};

/// Per-round statistics (the shared state Lab 10 guards with a mutex).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Cells that went dead → alive this round.
    pub births: u64,
    /// Cells that went alive → dead this round.
    pub deaths: u64,
    /// Live cells after the round.
    pub population: u64,
}

/// The board with a one-cell ghost ring around it, as `0`/`1` bytes in
/// row-major order: the ring holds what the boundary rule says lies past
/// each edge (the wrapped cells on a torus, dead cells at a dead edge),
/// so no neighbour count needs an edge test.
struct Halo {
    /// Padded row width: the board's columns plus the two ghost columns.
    width: usize,
    cells: Vec<u8>,
    /// One padded row of column sums: each column's cell in the row above,
    /// the row itself and the row below, so a cell's neighbours are three
    /// adjacent sums less the cell.
    sums: Vec<u8>,
}

impl Halo {
    fn new(grid: &Grid) -> Halo {
        let width = grid.cols() + 2;
        Halo {
            width,
            cells: vec![0; width * (grid.rows() + 2)],
            sums: vec![0; width],
        }
    }

    /// Copies `grid` into the ring's interior and fills the ring. On a
    /// torus each ghost copies the cell its wrapped index names, so on a
    /// board one or two cells across a cell is counted as many times as
    /// [`Grid::live_neighbors`] counts it.
    fn fill(&mut self, grid: &Grid) {
        let (rows, cols, w) = (grid.rows(), grid.cols(), self.width);
        let wrap = grid.boundary == Boundary::Toroidal;
        for (r, src) in grid.cells().chunks_exact(cols).enumerate() {
            let row = &mut self.cells[(r + 1) * w..(r + 2) * w];
            for (cell, &alive) in row[1..=cols].iter_mut().zip(src) {
                *cell = u8::from(alive);
            }
            if wrap {
                row[0] = u8::from(src[cols - 1]);
                row[cols + 1] = u8::from(src[0]);
            }
        }
        if wrap {
            // Whole padded rows, so the corner ghosts wrap both ways.
            self.cells.copy_within(rows * w..(rows + 1) * w, 0);
            self.cells.copy_within(w..2 * w, (rows + 1) * w);
        }
    }

    /// Advances `grid` one generation in place, counting over the ring
    /// filled from it, and returns the round's statistics. Each row takes
    /// two passes over bytes: one sums the three padded rows column by
    /// column, the next adds three adjacent sums, takes the cell away and
    /// applies the rule. The row's counts add into the round's once.
    fn advance(&mut self, grid: &mut Grid) -> RoundStats {
        self.fill(grid);
        let (cols, w) = (grid.cols(), self.width);
        let mut stats = RoundStats::default();
        for (r, out) in grid.cells_mut().chunks_exact_mut(cols).enumerate() {
            let (up, rest) = self.cells[r * w..(r + 3) * w].split_at(w);
            let (mid, down) = rest.split_at(w);
            for (((sum, &u), &m), &d) in self.sums.iter_mut().zip(up).zip(mid).zip(down) {
                *sum = u + m + d;
            }
            let (left, centre, right) = (&self.sums[..cols], &self.sums[1..], &self.sums[2..]);
            let (mut births, mut deaths, mut population) = (0u32, 0u32, 0u32);
            for ((((&a, &b), &c), &m), cell) in
                left.iter().zip(centre).zip(right).zip(&mid[1..]).zip(out)
            {
                let alive = m == 1;
                let will = Grid::rule(alive, a + b + c - m);
                *cell = will;
                births += u32::from(will & !alive);
                deaths += u32::from(alive & !will);
                population += u32::from(will);
            }
            stats.births += u64::from(births);
            stats.deaths += u64::from(deaths);
            stats.population += u64::from(population);
        }
        stats
    }
}

/// Advances the grid one generation, returning the new grid and stats.
pub fn step(grid: &Grid) -> (Grid, RoundStats) {
    let mut next = grid.clone();
    let stats = Halo::new(grid).advance(&mut next);
    (next, stats)
}

/// Runs `rounds` generations; returns the final grid and per-round stats.
/// One ghost-ring buffer serves every generation.
pub fn run(mut grid: Grid, rounds: usize) -> (Grid, Vec<RoundStats>) {
    let mut halo = Halo::new(&grid);
    let history = (0..rounds).map(|_| halo.advance(&mut grid)).collect();
    (grid, history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Boundary, BLINKER, BLOCK, GLIDER, TOAD};

    /// The per-cell reference the ghost-cell step must equal: every
    /// count from `Grid::live_neighbors`, every state from `Grid::rule`.
    fn reference_step(grid: &Grid) -> (Grid, RoundStats) {
        let mut next = grid.clone();
        let mut stats = RoundStats::default();
        for r in 0..grid.rows() {
            for c in 0..grid.cols() {
                let alive = grid.get(r, c);
                let will = Grid::rule(alive, grid.live_neighbors(r, c));
                next.set(r, c, will);
                stats.births += u64::from(will && !alive);
                stats.deaths += u64::from(alive && !will);
            }
        }
        stats.population = next.population() as u64;
        (next, stats)
    }

    #[test]
    fn ghost_cells_match_the_per_cell_reference() {
        // On a degenerate torus the reference counts one cell several
        // times (a lone cell is all eight of its own neighbours), and the
        // ghost ring must hold the same copies.
        let mut lone = Grid::new(1, 1, Boundary::Toroidal).unwrap();
        lone.set(0, 0, true);
        assert_eq!(lone.live_neighbors(0, 0), 8);
        for boundary in [Boundary::Toroidal, Boundary::Dead] {
            for (rows, cols) in [(1, 1), (1, 7), (7, 1), (2, 2), (3, 5), (64, 64)] {
                for seed in 0..4 {
                    let start = Grid::random(rows, cols, 0.5, seed, boundary).unwrap();
                    let mut grid = start.clone();
                    let mut history = Vec::new();
                    for generation in 0..20 {
                        let (want, want_stats) = reference_step(&grid);
                        assert_eq!(
                            step(&grid),
                            (want.clone(), want_stats),
                            "{boundary:?} {rows}x{cols} seed {seed} generation {generation}"
                        );
                        history.push(want_stats);
                        grid = want;
                    }
                    assert_eq!(
                        run(start, 20),
                        (grid, history),
                        "{boundary:?} {rows}x{cols}"
                    );
                }
            }
        }
    }

    #[test]
    fn block_is_still_life() {
        let mut g = Grid::new(6, 6, Boundary::Toroidal).unwrap();
        g.stamp(2, 2, BLOCK);
        let (next, stats) = step(&g);
        assert_eq!(next, g);
        assert_eq!(stats.births, 0);
        assert_eq!(stats.deaths, 0);
        assert_eq!(stats.population, 4);
    }

    #[test]
    fn blinker_oscillates_period_2() {
        let mut g = Grid::new(5, 5, Boundary::Toroidal).unwrap();
        g.stamp(2, 1, BLINKER); // horizontal at row 2
        let (g1, s1) = step(&g);
        assert_ne!(g1, g, "rotated to vertical");
        assert_eq!(s1.population, 3);
        assert_eq!(s1.births, 2);
        assert_eq!(s1.deaths, 2);
        let (g2, _) = step(&g1);
        assert_eq!(g2, g, "period 2");
    }

    #[test]
    fn toad_oscillates_period_2() {
        let mut g = Grid::new(8, 8, Boundary::Toroidal).unwrap();
        g.stamp(3, 2, TOAD);
        let (g1, _) = step(&g);
        let (g2, _) = step(&g1);
        assert_eq!(g2, g);
        assert_ne!(g1, g);
    }

    #[test]
    fn glider_translates_by_1_1_every_4_rounds() {
        let mut g = Grid::new(16, 16, Boundary::Toroidal).unwrap();
        g.stamp(2, 2, GLIDER);
        let (g4, _) = run(g.clone(), 4);
        let mut expected = Grid::new(16, 16, Boundary::Toroidal).unwrap();
        expected.stamp(3, 3, GLIDER);
        assert_eq!(g4, expected);
        assert_eq!(g4.population(), 5);
    }

    #[test]
    fn empty_grid_stays_empty() {
        let g = Grid::new(10, 10, Boundary::Dead).unwrap();
        let (final_grid, history) = run(g, 5);
        assert_eq!(final_grid.population(), 0);
        assert!(history.iter().all(|s| s.population == 0 && s.births == 0));
    }

    #[test]
    fn lone_cell_dies() {
        let mut g = Grid::new(4, 4, Boundary::Dead).unwrap();
        g.set(1, 1, true);
        let (next, stats) = step(&g);
        assert_eq!(next.population(), 0);
        assert_eq!(stats.deaths, 1);
    }

    #[test]
    fn glider_wraps_on_torus_but_dies_at_dead_edge_corner() {
        // On a tiny toroidal grid the glider survives forever (wraps); with
        // dead boundaries gliders perish or degrade at the wall.
        let mut torus = Grid::new(8, 8, Boundary::Toroidal).unwrap();
        torus.stamp(5, 5, GLIDER);
        let (after, _) = run(torus, 40);
        assert_eq!(after.population(), 5, "glider intact on torus");

        let mut walled = Grid::new(8, 8, Boundary::Dead).unwrap();
        walled.stamp(5, 5, GLIDER);
        let (after, _) = run(walled, 40);
        assert_ne!(after.population(), 5, "wall collision deformed it");
    }
}
