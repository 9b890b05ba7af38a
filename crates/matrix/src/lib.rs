//! Dense matrices, fixed-size tiles, tiling machinery, graphs and seeded
//! workload generators for the SIMD² reproduction.
//!
//! The SIMD² programming model operates on *tiles*: fixed-shape sub-matrices
//! that map one-to-one onto a hardware matrix-unit operation
//! (16×16 at the ISA level, decomposed into 4×4 inside the unit). This crate
//! provides the host-side data structures those tiles are carved out of:
//!
//! * [`Matrix`] — a dense row-major matrix with leading-dimension support,
//! * [`Tile`] — a const-generic square tile,
//! * [`tiling`] — padding and tile-grid iteration,
//! * [`mod@reference`] — straightforward `D = C ⊕ (A ⊗ B)` loops used as the
//!   golden model for every other backend,
//! * [`csr`] and [`structured`] — the two compressed operand formats
//!   (compressed sparse rows with a semiring spGEMM, the image a row
//!   walk reads; 2:4 structured sparsity with its pruning),
//! * [`graph`] — graph ↔ adjacency-matrix lifting for the path algebras,
//! * [`gen`] — seeded random workloads (graphs, point clouds, matrices)
//!   standing in for the paper's datasets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
mod dense;
pub mod gen;
pub mod graph;
pub mod reference;
pub mod structured;
mod tile;
pub mod tiling;

pub use csr::{Csr, CsrError};
pub use dense::{Matrix, ShapeError};
pub use graph::Graph;
pub use tile::Tile;

/// Side length of the ISA-visible SIMD² tile (`simd2.load`/`simd2.store`
/// move 16×16 matrices, matching the wmma fragment shape).
pub const ISA_TILE: usize = 16;

/// Side length of the matrix tile one hardware SIMD² unit consumes per
/// operation step (the 4×4 design point synthesised in Table 5).
pub const UNIT_TILE: usize = 4;
