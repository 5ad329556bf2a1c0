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

/// The board as rows of 64-cell words, the form [`step`] and [`run`]
/// count in: bit `c % 64` of word `c / 64` of a row is column `c`, and
/// the bits past the last column are 0. Two boards of words take turns
/// as a generation's source and its result.
struct Words {
    shape: Shape,
    cells: Vec<u64>,
    next: Vec<u64>,
    /// One row of dead cells: what lies past a dead edge.
    dead: Vec<u64>,
}

impl Words {
    fn new(grid: &Grid) -> Words {
        let width = grid.cols().div_ceil(64);
        let top = ((grid.cols() - 1) % 64) as u32;
        let mut cells = vec![0; width * grid.rows()];
        for (words, row) in cells
            .chunks_exact_mut(width)
            .zip(grid.cells().chunks_exact(grid.cols()))
        {
            for (word, chunk) in words.iter_mut().zip(row.chunks(64)) {
                *word = chunk
                    .iter()
                    .rev()
                    .fold(0, |word, &alive| word << 1 | u64::from(alive));
            }
        }
        Words {
            shape: Shape {
                width,
                top,
                torus: grid.boundary == Boundary::Toroidal,
            },
            next: vec![0; cells.len()],
            cells,
            dead: vec![0; width],
        }
    }

    /// Writes the board back into `grid`'s cells.
    fn write(&self, grid: &mut Grid) {
        let cols = grid.cols();
        for (row, words) in grid
            .cells_mut()
            .chunks_exact_mut(cols)
            .zip(self.cells.chunks_exact(self.shape.width))
        {
            for (chunk, &word) in row.chunks_mut(64).zip(words) {
                for (bit, cell) in chunk.iter_mut().enumerate() {
                    *cell = word >> bit & 1 == 1;
                }
            }
        }
    }

    /// Advances the board one generation and returns the round's
    /// statistics. Each word's eight neighbour words (the rows above and
    /// below with their shifts, and the row's own shifts) are added bit
    /// by bit: a full adder makes each outer row of three a ones and a
    /// twos bit, the row's own two neighbours make a ones and a twos bit,
    /// and the three ones bits make a ones bit and a fourth twos bit. A
    /// cell has two or three neighbours exactly when one of its four
    /// twos bits is set.
    fn advance(&mut self) -> RoundStats {
        let Words {
            shape,
            cells,
            next,
            dead,
        } = self;
        let w = shape.width;
        let rows = cells.len() / w;
        let row = |r: usize| &cells[r * w..(r + 1) * w];
        // The bits of a row's last word that are columns.
        let mask = u64::MAX >> (63 - shape.top);
        let mut stats = RoundStats::default();
        for (r, out) in next.chunks_exact_mut(w).enumerate() {
            let up = match r {
                0 if shape.torus => row(rows - 1),
                0 => &dead[..],
                _ => row(r - 1),
            };
            let down = match r + 1 {
                below if below < rows => row(below),
                _ if shape.torus => row(0),
                _ => &dead[..],
            };
            let mid = row(r);
            for (i, out) in out.iter_mut().enumerate() {
                let (uw, ue) = shape.sides(up, i);
                let (mw, me) = shape.sides(mid, i);
                let (dw, de) = shape.sides(down, i);
                let (s1, c1) = full_add(uw, up[i], ue);
                let (s2, c2) = full_add(dw, down[i], de);
                let (ones, c3) = full_add(s1, s2, mw ^ me);
                let c4 = mw & me;
                let one_two = (c1 ^ c2 ^ c3 ^ c4) & !((c1 & c2) | (c3 & c4));
                let alive = mid[i];
                let mut will = one_two & (ones | alive);
                if i == w - 1 {
                    will &= mask;
                }
                *out = will;
                stats.births += u64::from((will & !alive).count_ones());
                stats.deaths += u64::from((alive & !will).count_ones());
                stats.population += u64::from(will.count_ones());
            }
        }
        std::mem::swap(cells, next);
        stats
    }
}

/// The geometry of a board of words.
#[derive(Clone, Copy)]
struct Shape {
    /// Words per row.
    width: usize,
    /// The last column's bit in the last word of a row.
    top: u32,
    torus: bool,
}

impl Shape {
    /// Word `i` of `row` moved one column east and one column west: bit
    /// `b` of the first is the cell west of column `64 i + b`, and of the
    /// second the cell east of it. Each shift carries a bit in from the
    /// adjacent word; at the row's ends a torus wraps to its other end and a
    /// dead edge shifts in 0, so on a board one or two cells wide a cell
    /// is counted as often as [`Grid::live_neighbors`] counts it.
    #[inline(always)]
    fn sides(&self, row: &[u64], i: usize) -> (u64, u64) {
        let last = self.width - 1;
        let word = row[i];
        let west = if i > 0 {
            row[i - 1] >> 63
        } else if self.torus {
            row[last] >> self.top
        } else {
            0
        };
        let east = if i < last {
            row[i + 1] << 63
        } else if self.torus {
            (row[0] & 1) << self.top
        } else {
            0
        };
        (word << 1 | west, word >> 1 | east)
    }
}

/// The sum and carry bits of `a + b + c`, 64 lanes at a time.
#[inline(always)]
fn full_add(a: u64, b: u64, c: u64) -> (u64, u64) {
    let ab = a ^ b;
    (ab ^ c, (a & b) | (ab & c))
}

/// Advances the grid one generation, returning the new grid and stats.
pub fn step(grid: &Grid) -> (Grid, RoundStats) {
    let mut words = Words::new(grid);
    let stats = words.advance();
    let mut next = grid.clone();
    words.write(&mut next);
    (next, stats)
}

/// Runs `rounds` generations; returns the final grid and per-round stats.
/// The board stays in words for the whole run and is written back once.
pub fn run(mut grid: Grid, rounds: usize) -> (Grid, Vec<RoundStats>) {
    let mut words = Words::new(&grid);
    let history = (0..rounds).map(|_| words.advance()).collect();
    words.write(&mut grid);
    (grid, history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Boundary, BLINKER, BLOCK, GLIDER, TOAD};

    /// The per-cell reference the word step must equal: every
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
        // word step's wrapped shifts must count the same copies. Rows of
        // 65 to 256 cells span two to four words, so the shifts carry
        // across words and wrap from a partly filled last word.
        let mut lone = Grid::new(1, 1, Boundary::Toroidal).unwrap();
        lone.set(0, 0, true);
        assert_eq!(lone.live_neighbors(0, 0), 8);
        for boundary in [Boundary::Toroidal, Boundary::Dead] {
            for (rows, cols) in [
                (1, 1),
                (1, 7),
                (7, 1),
                (2, 2),
                (3, 5),
                (64, 64),
                (1, 65),
                (3, 64),
                (5, 127),
                (4, 128),
                (6, 129),
                (9, 256),
            ] {
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
