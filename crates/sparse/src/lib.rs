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
//! * [`csr`] — compressed sparse rows with Gustavson spGEMM generalised
//!   over any SIMD² algebra (the substrate a GAMMA-style SIMD² sparse
//!   accelerator would run, cf. §6.5),
//! * [`structured`] — 2:4 structured-sparsity pruning/validation,
//! * [`backend`] — [`SparseTiledBackend`], a representation-aware
//!   implementation of the core [`simd2::Backend`] trait: dense, CSR
//!   and 2:4 declarations behind [`simd2::Backend::mmo_ref`] are walks
//!   fed to the same two row kernels (a vectorised sweep over dense `B`
//!   rows, a Gustavson scatter over CSR `B` rows), bit-identical to the
//!   reference oracle, with row-panel sharding across a scoped worker
//!   pool,
//! * [`model`] — calibrated cuSPARSE-vs-cuBLAS timing and peak-memory
//!   models for the Fig 14 sweep,
//! * [`gamma`] — the §6.5 GAMMA-PE extension estimate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod csr;
pub mod gamma;
pub mod model;
pub mod structured;

pub use backend::{SparseOpCount, SparseTiledBackend};
pub use csr::{Csr, CsrError};
