//! Semiring-like algebraic structures for the SIMD² instruction set.
//!
//! The SIMD² paper (ISCA 2022) observes that a large family of matrix
//! algorithms share the computation pattern
//!
//! ```text
//! D = C ⊕ (A ⊗ B)
//! ```
//!
//! where `⊕` behaves like addition (the *reduce* operator) and `⊗` behaves
//! like multiplication (the *combine* operator). General matrix
//! multiplication instantiates the pattern with `(+, ×)`; all-pairs shortest
//! path uses `(min, +)`; minimum spanning tree uses `(min, max)`; and so on.
//!
//! This crate provides:
//!
//! * [`OpKind`] — the nine operator pairs supported by SIMD² arithmetic
//!   instructions (Table 1 / Table 2 of the paper), with dynamic `f32`
//!   evaluation used by the functional matrix-unit model,
//! * the [`Semiring`] trait and one zero-sized marker type per operator pair
//!   ([`PlusMul`], [`MinPlus`], …) for statically-typed kernels,
//! * [`kernel`] — the [`SemiringKernel`] execution-kernel trait (`const`
//!   `⊕` identity, inlined steps) and the once-per-operation
//!   [`dispatch_kernel`] bridge from dynamic [`OpKind`]s to
//!   monomorphized code,
//! * [`precision`] — fp16-in / fp32-out numerics matching the SIMD² data
//!   path,
//! * [`simd`] — vectorized tile kernels (AVX-512 / AVX2) with runtime
//!   CPU-feature dispatch and a portable scalar oracle, behind safe
//!   entries that take the [`KernelIsa`] to run on, and
//! * [`properties`] — reusable algebraic property checks backing the
//!   property-based test-suite.
//!
//! # Example
//!
//! ```
//! use simd2_semiring::{OpKind, Semiring, MinPlus};
//!
//! // Dynamic dispatch, as the hardware decoder would do:
//! let d = OpKind::MinPlus.reduce_f32(7.0, OpKind::MinPlus.combine_f32(3.0, 2.0));
//! assert_eq!(d, 5.0);
//!
//! // Static dispatch, as a monomorphised kernel would do:
//! let d = MinPlus::reduce(7.0, MinPlus::combine(3.0, 2.0));
//! assert_eq!(d, 5.0);
//! ```

#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod kernel;
mod op;
pub mod precision;
pub mod properties;
// `unsafe` is confined to the `simd` module's `#[target_feature]` leaf
// functions behind a detection-guarded safe entry; see its module docs
// for the safety contract.
#[allow(unsafe_code)]
pub mod simd;
mod typed;

pub use kernel::{dispatch_kernel, KernelVisitor, SemiringKernel};
pub use op::{OpKind, ParseOpKindError};
pub use simd::{CpuFeatures, KernelIsa};
pub use typed::{
    BoolOrAnd, IntMinPlus, MaxMin, MaxMul, MaxPlus, MinMax, MinMul, MinPlus, OrAnd, PlusMul,
    PlusNorm, Semiring,
};

/// All nine operator pairs, in the order the paper lists them (Table 2).
pub const ALL_OPS: [OpKind; 9] = [
    OpKind::PlusMul,
    OpKind::MinPlus,
    OpKind::MaxPlus,
    OpKind::MinMul,
    OpKind::MaxMul,
    OpKind::MinMax,
    OpKind::MaxMin,
    OpKind::OrAnd,
    OpKind::PlusNorm,
];

/// The eight operator pairs *beyond* classic matrix-multiply-accumulate.
pub const EXTENDED_OPS: [OpKind; 8] = [
    OpKind::MinPlus,
    OpKind::MaxPlus,
    OpKind::MinMul,
    OpKind::MaxMul,
    OpKind::MinMax,
    OpKind::MaxMin,
    OpKind::OrAnd,
    OpKind::PlusNorm,
];
