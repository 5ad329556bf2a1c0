//! The game grid: storage, boundary semantics, file I/O, and patterns.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Edge behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// The grid wraps (torus) — the Lab 6/10 default.
    Toroidal,
    /// Cells beyond the edge are permanently dead.
    Dead,
}

impl Boundary {
    /// How many of the eight cells around `(r, c)` on a `rows × cols`
    /// board `alive` reports live. A torus wraps, so on a board one cell
    /// wide a sideways step lands back on the same cell and counts it
    /// again; past a dead edge there is no cell.
    pub(crate) fn live_neighbors(
        self,
        (rows, cols): (usize, usize),
        (r, c): (usize, usize),
        alive: impl Fn(usize, usize) -> bool,
    ) -> u8 {
        // The indices one before, at and one after `i` on an axis `len`
        // long: wrapped on a torus, `None` past a dead edge.
        let around = |i: usize, len: usize| {
            let (before, after) = match self {
                Boundary::Toroidal => (
                    Some(i.checked_sub(1).unwrap_or(len - 1)),
                    Some(if i + 1 == len { 0 } else { i + 1 }),
                ),
                Boundary::Dead => (i.checked_sub(1), (i + 1 < len).then_some(i + 1)),
            };
            [before, Some(i), after]
        };
        let (near_rows, near_cols) = (around(r, rows), around(c, cols));
        let mut n = 0;
        for (i, nr) in near_rows.into_iter().enumerate() {
            for (j, nc) in near_cols.into_iter().enumerate() {
                let centre = (i, j) == (1, 1);
                if !centre && nr.zip(nc).is_some_and(|(nr, nc)| alive(nr, nc)) {
                    n += 1;
                }
            }
        }
        n
    }
}

/// How the parallel engine splits the grid among threads (Lab 10 offers
/// both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// Contiguous bands of rows per thread.
    Rows,
    /// Contiguous bands of columns per thread.
    Columns,
}

/// Errors from grid construction and parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// Zero rows or columns.
    EmptyGrid,
    /// File parse problem.
    Parse(String),
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::EmptyGrid => write!(f, "grid must be at least 1x1"),
            GridError::Parse(s) => write!(f, "grid parse error: {s}"),
        }
    }
}

impl std::error::Error for GridError {}

/// A Life board.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    rows: usize,
    cols: usize,
    /// Row-major cell storage.
    cells: Vec<bool>,
    /// Edge semantics.
    pub boundary: Boundary,
}

impl Grid {
    /// An all-dead grid.
    pub fn new(rows: usize, cols: usize, boundary: Boundary) -> Result<Grid, GridError> {
        if rows == 0 || cols == 0 {
            return Err(GridError::EmptyGrid);
        }
        Ok(Grid {
            rows,
            cols,
            cells: vec![false; rows * cols],
            boundary,
        })
    }

    /// Rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cell accessor (in-bounds only).
    pub fn get(&self, r: usize, c: usize) -> bool {
        self.cells[r * self.cols + c]
    }

    /// Cell mutator.
    pub fn set(&mut self, r: usize, c: usize, alive: bool) {
        self.cells[r * self.cols + c] = alive;
    }

    /// Raw cells (row-major), for the parallel engine's atomic mirror.
    pub fn cells(&self) -> &[bool] {
        &self.cells
    }

    /// Raw cells (row-major), for the serial engine to write a generation.
    pub(crate) fn cells_mut(&mut self) -> &mut [bool] {
        &mut self.cells
    }

    /// Count of live cells.
    pub fn population(&self) -> usize {
        self.cells.iter().filter(|&&c| c).count()
    }

    /// Live-neighbor count under the grid's boundary semantics, one cell
    /// at a time: the reference [`crate::serial::step`] is tested against.
    pub fn live_neighbors(&self, r: usize, c: usize) -> u8 {
        self.boundary
            .live_neighbors((self.rows, self.cols), (r, c), |r, c| self.get(r, c))
    }

    /// The B3/S23 rule for one cell given its current state and neighbors.
    pub fn rule(alive: bool, neighbors: u8) -> bool {
        matches!((alive, neighbors), (true, 2) | (true, 3) | (false, 3))
    }

    /// Parses the Lab 6 file format:
    ///
    /// ```text
    /// rows cols rounds
    /// row of . and # (or 0 and 1) characters, one line per row
    /// ```
    ///
    /// Returns the grid and the round count from the header.
    pub fn from_file_format(text: &str, boundary: Boundary) -> Result<(Grid, usize), GridError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines
            .next()
            .ok_or_else(|| GridError::Parse("empty file".into()))?;
        let parts: Vec<&str> = header.split_whitespace().collect();
        if parts.len() != 3 {
            return Err(GridError::Parse(format!(
                "header must be 'rows cols rounds', got {header:?}"
            )));
        }
        let parse = |s: &str, what: &str| -> Result<usize, GridError> {
            s.parse()
                .map_err(|_| GridError::Parse(format!("bad {what}: {s:?}")))
        };
        let rows = parse(parts[0], "rows")?;
        let cols = parse(parts[1], "cols")?;
        let rounds = parse(parts[2], "rounds")?;
        let mut grid = Grid::new(rows, cols, boundary)?;
        for r in 0..rows {
            let line = lines
                .next()
                .ok_or_else(|| GridError::Parse(format!("missing row {r}")))?;
            let chars: Vec<char> = line.trim().chars().collect();
            if chars.len() != cols {
                return Err(GridError::Parse(format!(
                    "row {r} has {} cells, expected {cols}",
                    chars.len()
                )));
            }
            for (c, ch) in chars.iter().enumerate() {
                match ch {
                    '#' | '1' | '*' => grid.set(r, c, true),
                    '.' | '0' => {}
                    other => {
                        return Err(GridError::Parse(format!("bad cell {other:?} at ({r},{c})")))
                    }
                }
            }
        }
        Ok((grid, rounds))
    }

    /// Writes the file format back out (with `#`/`.`).
    pub fn to_file_format(&self, rounds: usize) -> String {
        let mut out = format!("{} {} {rounds}\n", self.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.push(if self.get(r, c) { '#' } else { '.' });
            }
            out.push('\n');
        }
        out
    }

    /// Seeded random fill with the given live density.
    pub fn random(
        rows: usize,
        cols: usize,
        density: f64,
        seed: u64,
        boundary: Boundary,
    ) -> Result<Grid, GridError> {
        let mut g = Grid::new(rows, cols, boundary)?;
        let mut rng = StdRng::seed_from_u64(seed);
        for cell in g.cells.iter_mut() {
            *cell = rng.gen_bool(density.clamp(0.0, 1.0));
        }
        Ok(g)
    }

    /// Stamps a pattern (offsets of live cells) at `(r0, c0)`.
    pub fn stamp(&mut self, r0: usize, c0: usize, pattern: &[(usize, usize)]) {
        for &(dr, dc) in pattern {
            let r = (r0 + dr) % self.rows;
            let c = (c0 + dc) % self.cols;
            self.set(r, c, true);
        }
    }
}

/// A period-2 oscillator: three cells in a row.
pub const BLINKER: &[(usize, usize)] = &[(0, 0), (0, 1), (0, 2)];

/// A 2×2 still life.
pub const BLOCK: &[(usize, usize)] = &[(0, 0), (0, 1), (1, 0), (1, 1)];

/// The classic diagonal traveller (period 4, moves (1,1)).
pub const GLIDER: &[(usize, usize)] = &[(0, 1), (1, 2), (2, 0), (2, 1), (2, 2)];

/// A period-2 oscillator (toad).
pub const TOAD: &[(usize, usize)] = &[(0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2)];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_population() {
        let mut g = Grid::new(4, 5, Boundary::Toroidal).unwrap();
        assert_eq!(g.rows(), 4);
        assert_eq!(g.cols(), 5);
        assert_eq!(g.population(), 0);
        g.set(2, 3, true);
        assert!(g.get(2, 3));
        assert_eq!(g.population(), 1);
        assert!(Grid::new(0, 5, Boundary::Dead).is_err());
    }

    #[test]
    fn toroidal_neighbors_wrap() {
        let mut g = Grid::new(3, 3, Boundary::Toroidal).unwrap();
        g.set(0, 0, true);
        // Opposite corner sees it through the wrap.
        assert_eq!(g.live_neighbors(2, 2), 1);
        let mut d = Grid::new(3, 3, Boundary::Dead).unwrap();
        d.set(0, 0, true);
        assert_eq!(d.live_neighbors(2, 2), 0, "dead boundary does not wrap");
        assert_eq!(d.live_neighbors(1, 1), 1);
    }

    #[test]
    fn neighbor_counts_match_modular_indexing() {
        // The count as the Lab 6 handout writes it: each of the eight
        // offsets wrapped with `%` on a torus, dropped past a dead edge.
        // On boards one or two cells across a torus reaches one cell by
        // several offsets and counts it each time.
        let steps = [
            (-1, -1),
            (-1, 0),
            (-1, 1),
            (0, -1),
            (0, 1),
            (1, -1),
            (1, 0),
            (1, 1),
        ];
        for boundary in [Boundary::Toroidal, Boundary::Dead] {
            for (rows, cols) in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 5), (3, 4)] {
                for seed in 0..8 {
                    let g = Grid::random(rows, cols, 0.5, seed, boundary).unwrap();
                    for (r, c) in (0..rows).flat_map(|r| (0..cols).map(move |c| (r, c))) {
                        let mut want = 0;
                        for (dr, dc) in steps {
                            let (nr, nc) = (r as i64 + dr, c as i64 + dc);
                            let inside =
                                (0..rows as i64).contains(&nr) && (0..cols as i64).contains(&nc);
                            if boundary == Boundary::Toroidal || inside {
                                let (nr, nc) =
                                    (nr.rem_euclid(rows as i64), nc.rem_euclid(cols as i64));
                                want += u8::from(g.get(nr as usize, nc as usize));
                            }
                        }
                        let at = format!("{boundary:?} {rows}x{cols} seed {seed} ({r}, {c})");
                        assert_eq!(g.live_neighbors(r, c), want, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn rule_b3s23() {
        assert!(Grid::rule(true, 2));
        assert!(Grid::rule(true, 3));
        assert!(!Grid::rule(true, 1), "underpopulation");
        assert!(!Grid::rule(true, 4), "overcrowding");
        assert!(Grid::rule(false, 3), "birth");
        assert!(!Grid::rule(false, 2));
    }

    #[test]
    fn file_roundtrip() {
        let text = "3 4 10\n.#..\n..#.\n####\n";
        let (g, rounds) = Grid::from_file_format(text, Boundary::Toroidal).unwrap();
        assert_eq!(rounds, 10);
        assert_eq!(g.population(), 6);
        assert!(g.get(0, 1) && g.get(1, 2) && g.get(2, 0));
        assert_eq!(g.to_file_format(10), text);
    }

    #[test]
    fn file_format_errors() {
        for (text, frag) in [
            ("", "empty"),
            ("2 2\n..\n..\n", "header"),
            ("2 2 1\n..\n", "missing row"),
            ("1 3 1\n..\n", "expected 3"),
            ("1 1 1\nX\n", "bad cell"),
            ("a 2 3\n..\n..\n", "bad rows"),
        ] {
            let e = Grid::from_file_format(text, Boundary::Dead).unwrap_err();
            assert!(e.to_string().contains(frag), "{text:?} → {e}");
        }
    }

    #[test]
    fn random_is_seeded() {
        let a = Grid::random(10, 10, 0.4, 9, Boundary::Toroidal).unwrap();
        let b = Grid::random(10, 10, 0.4, 9, Boundary::Toroidal).unwrap();
        assert_eq!(a, b);
        let c = Grid::random(10, 10, 0.4, 10, Boundary::Toroidal).unwrap();
        assert_ne!(a, c);
        // density sanity
        assert!(a.population() > 10 && a.population() < 70);
    }

    #[test]
    fn stamp_patterns() {
        let mut g = Grid::new(8, 8, Boundary::Toroidal).unwrap();
        g.stamp(1, 1, GLIDER);
        assert_eq!(g.population(), 5);
        g.stamp(5, 5, BLOCK);
        assert_eq!(g.population(), 9);
    }
}
