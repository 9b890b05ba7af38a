//! SIMD²: the programming model and paradigm (the paper's contribution).
//!
//! This crate is the user-facing layer of the reproduction. It provides:
//!
//! * [`api`] — the *low-level* programming interface of paper Table 3
//!   (`simd2::matrix` / `fillmatrix` / `loadmatrix` / `mmo` /
//!   `storematrix`), each call mapping one-to-one onto an ISA instruction
//!   executed by the warp-level executor;
//! * [`backend`] — interchangeable whole-matrix `D = C ⊕ (A ⊗ B)`
//!   engines: a plain-loop reference (the cuASR/CUTLASS-on-CUDA-cores
//!   analogue used for correctness validation), a tiled functional SIMD²
//!   backend with fp16-in/fp32-out semantics, and an ISA-level backend
//!   that drives real instruction streams;
//! * [`highlevel`] — the *high-level* interface of paper Figure 6
//!   (`simd2_minplus(A, B, C, D, m, n, k)` and friends): arbitrary shapes,
//!   implicit tiling/partitioning;
//! * [`plan`] — the recorded plan IR: capture an algorithm's MMO
//!   sequence once through a recording backend, then lower that one
//!   artifact everywhere — step-by-step functional replay, per-warp
//!   ISA kernels, and shape-level traces for the GPU timing model;
//! * [`solve`] — the closure solvers of §4/§6.4: all-pairs Bellman-Ford
//!   relaxation and Leyzorek repeated squaring, with and without
//!   convergence checks, generic over any closure algebra;
//! * [`micro`] — the §6.2 microbenchmark definitions (Figs 9–10);
//! * [`validate`] — the §5.1 emulation-framework analogue: run a
//!   SIMD²-ized implementation against a baseline, compare outputs under
//!   reduced precision, and collect the operation statistics the
//!   performance model consumes.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
pub mod api;
pub mod backend;
pub mod error;
pub mod highlevel;
pub mod micro;
pub mod plan;
pub mod program;
pub mod repr;
pub mod resilient;
pub mod solve;
pub mod validate;

pub use backend::{
    Backend, Degrade, Health, IsaBackend, MmoArgs, OpCount, Parallelism, ReferenceBackend,
    RowCount, Schedule, TiledBackend,
};
pub use error::BackendError;
pub use highlevel::Simd2Context;
pub use plan::passes::{
    CsePass, DsePass, OptimizedPlan, PassPipeline, PassReport, PassStats, PlanPass, RootPolicy,
};
pub use plan::{
    Executor as PlanExecutor, HaltedReplay, Plan, PlanBuilder, PlanCheckpoint, PlanKey, Replay,
    ReplayControl, ReplayError, ReplayHalt, ReplayProgress, SlotId, SlotOrigin,
};
pub use repr::{MatrixRef, OperandRepr};
pub use resilient::{RecoveryPolicy, RecoveryStats, ResilientBackend, RetryBackoff};
pub use solve::{ClosureAlgorithm, ClosureResult, ClosureStats};
