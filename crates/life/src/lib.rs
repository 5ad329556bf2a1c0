//! # life — Conway's Game of Life, serial and parallel
//!
//! The course's two-part flagship lab: Lab 6 builds the sequential
//! simulation ("two-dimensional arrays for the game's grid … read game
//! parameters and an initial grid state from a file"); Lab 10
//! parallelizes it with pthreads ("partition the game grid vertically or
//! horizontally … barriers to synchronize threads between rounds and a
//! mutex to protect shared state"), measuring "near linear speedup up to
//! 16 threads". Visualization is ParaVis-style (ref. \[6\]): per-thread regions in
//! different colours, "help\[ing\] students to debug thread partitioning
//! problems".
//!
//! * [`grid`] — the board: toroidal or dead-edge boundaries, file I/O,
//!   classic patterns, seeded random fill;
//! * [`serial`] — the Lab 6 engine (the correctness reference), counting
//!   neighbours 64 cells at a time over rows of 64-bit words;
//! * [`parallel`] — the Lab 10 engine: persistent worker threads,
//!   row/column partitioning, a [`::parallel::Barrier`] per round, and a
//!   mutex-guarded shared statistics block; bit-identical to serial for
//!   every thread count (property-tested);
//! * [`machsim`] — maps a run onto the multicore machine model for the
//!   E1 speedup reproduction;
//! * [`vis`] — ASCII and PPM renderers with thread-region colouring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
pub mod machsim;
pub mod parallel;
pub mod patterns;
pub mod serial;
pub mod vis;

pub use grid::{Boundary, Grid, GridError, Partition};
