//! Sparse substrate: CSR storage, semiring spGEMM, 2:4 structured
//! sparsity, and the sparse-vs-dense cost models behind Figures 13–14.
//!
//! The paper examines sparsity twice. §6.5 first applies SIMD² to the
//! RTX 3080's *structured-sparse* tensor pipe (2:4 sparsity, 2×
//! throughput — Fig 13), then asks at what *unstructured* sparsity a
//! cuSPARSE-style spGEMM overtakes a dense Tensor-Core GEMM (Fig 14),
//! finding the crossover near 99% for 4096² inputs, no win at 1024², and
//! out-of-memory failures below ~90% sparsity at 16384² because
//! compressed formats backfire on relatively dense data.
//!
//! The two operand formats themselves live beside the dense matrix
//! ([`simd2_matrix::Csr`], with its Gustavson spGEMM generalised over
//! any SIMD² algebra, and [`simd2_matrix::structured`], 2:4 pruning and
//! validation), and executing a declared-sparse operand is the core
//! engine's business ([`simd2::TiledBackend`]). This crate keeps the
//! paper's models:
//!
//! * [`model`] — calibrated cuSPARSE-vs-cuBLAS timing and peak-memory
//!   models for the Fig 14 sweep,
//! * [`gamma`] — the §6.5 GAMMA-PE extension estimate,
//! * [`backend`] — the Fig 13 pruned-operand quality experiment, on
//!   [`SparseTiledBackend`], a preset newtype over the engine kept for
//!   the repo benchmark's `sparse-mmo` workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod gamma;
pub mod model;

pub use backend::SparseTiledBackend;
