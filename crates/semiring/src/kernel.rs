//! Monomorphized execution kernels — one zero-cost instance per operation.
//!
//! The dynamic [`OpKind`] methods (`combine_f32`, `reduce_f32`) match on
//! the operation *per scalar*, which is what a decoder does but not what
//! the datapath does: the paper's unit configures its `⊗`/`⊕` ALUs *once*
//! per instruction and then streams elements through fixed silicon
//! (§3.1–§3.2). [`SemiringKernel`] is the software analogue: a marker
//! type whose `#[inline]` combine/reduce and `const IDENTITY` compile
//! into straight-line code, and [`dispatch_kernel`] performs the
//! `OpKind → kernel` selection exactly once per matrix/tile operation.
//!
//! # Example
//!
//! ```
//! use simd2_semiring::kernel::{dispatch_kernel, KernelVisitor, SemiringKernel};
//! use simd2_semiring::OpKind;
//!
//! struct Dot<'a>(&'a [f32], &'a [f32]);
//! impl KernelVisitor for Dot<'_> {
//!     type Output = f32;
//!     fn visit<K: SemiringKernel>(self) -> f32 {
//!         let mut acc = K::IDENTITY;
//!         for (a, b) in self.0.iter().zip(self.1) {
//!             acc = K::reduce(acc, K::combine(*a, *b));
//!         }
//!         acc
//!     }
//! }
//! let d = dispatch_kernel(OpKind::MinPlus, Dot(&[1.0, 5.0], &[2.0, 1.0]));
//! assert_eq!(d, 3.0); // min(1+2, 5+1)
//! ```

use crate::typed::{
    MaxMin, MaxMul, MaxPlus, MinMax, MinMul, MinPlus, OrAnd, PlusMul, PlusNorm, Semiring,
};
use crate::OpKind;

/// A fully-monomorphizable `f32` execution kernel: the [`Semiring`]
/// contract plus a `const` `⊕` identity, so accumulator initialisation
/// compiles to a constant splat instead of a function call.
pub trait SemiringKernel: Semiring<Elem = f32> {
    /// Identity of `⊕` as a compile-time constant
    /// (`reduce(IDENTITY, x) == x`).
    const IDENTITY: f32;

    /// Where every reduction starts: `c ⊕ id`, one `⊕` of the accumulator
    /// element with the identity. It returns `c` itself for every value a
    /// fold can produce and canonicalises what a fold cannot — `-0.0`
    /// becomes `+0.0` under `+`, any truthy value `1.0` under `∨`, NaN
    /// the identity under min/max — so it is idempotent, and after it a
    /// min/max/or accumulator is never NaN and a `+` accumulator never
    /// `-0.0` (see [`crate::simd`]).
    #[inline]
    fn seed(c: f32) -> f32 {
        Self::reduce(c, Self::IDENTITY)
    }
}

macro_rules! kernel_impl {
    ($($name:ident = $id:expr),+ $(,)?) => {
        $(impl SemiringKernel for $name {
            const IDENTITY: f32 = $id;
        })+
    };
}

kernel_impl!(
    PlusMul = 0.0,
    MinPlus = f32::INFINITY,
    MaxPlus = f32::NEG_INFINITY,
    MinMul = f32::INFINITY,
    MaxMul = f32::NEG_INFINITY,
    MinMax = f32::INFINITY,
    MaxMin = f32::NEG_INFINITY,
    OrAnd = 0.0,
    PlusNorm = 0.0,
);

/// Visitor consumed by [`dispatch_kernel`].
pub trait KernelVisitor {
    /// Result type produced by the visit.
    type Output;

    /// Invoked with the kernel type selected by the dynamic [`OpKind`].
    fn visit<K: SemiringKernel>(self) -> Self::Output;
}

/// Selects the monomorphized kernel for `kind` and runs `visitor` with it.
///
/// This is the once-per-operation dispatch point: the single `match`
/// here replaces a per-scalar `match` in the inner loops of everything
/// downstream.
#[inline]
pub fn dispatch_kernel<V: KernelVisitor>(kind: OpKind, visitor: V) -> V::Output {
    match kind {
        OpKind::PlusMul => visitor.visit::<PlusMul>(),
        OpKind::MinPlus => visitor.visit::<MinPlus>(),
        OpKind::MaxPlus => visitor.visit::<MaxPlus>(),
        OpKind::MinMul => visitor.visit::<MinMul>(),
        OpKind::MaxMul => visitor.visit::<MaxMul>(),
        OpKind::MinMax => visitor.visit::<MinMax>(),
        OpKind::MaxMin => visitor.visit::<MaxMin>(),
        OpKind::OrAnd => visitor.visit::<OrAnd>(),
        OpKind::PlusNorm => visitor.visit::<PlusNorm>(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ALL_OPS;

    struct Identity;
    impl KernelVisitor for Identity {
        type Output = f32;
        fn visit<K: SemiringKernel>(self) -> f32 {
            K::IDENTITY
        }
    }

    #[test]
    fn const_identity_matches_dynamic_identity() {
        for op in ALL_OPS {
            assert_eq!(
                dispatch_kernel(op, Identity).to_bits(),
                op.reduce_identity_f32().to_bits(),
                "{op}"
            );
        }
    }

    struct Fma(f32, f32, f32);
    impl KernelVisitor for Fma {
        type Output = f32;
        fn visit<K: SemiringKernel>(self) -> f32 {
            K::reduce(self.0, K::combine(self.1, self.2))
        }
    }

    #[test]
    fn kernels_match_dynamic_evaluation() {
        let cases = [
            (0.0f32, 0.0f32, 0.0f32),
            (1.0, 2.0, 3.0),
            (-1.5, 0.25, 8.0),
            (7.0, 1.0, 0.0),
            (f32::INFINITY, 3.0, 2.0),
        ];
        for op in ALL_OPS {
            for (acc, a, b) in cases {
                let typed = dispatch_kernel(op, Fma(acc, a, b));
                let dynamic = op.fma_f32(acc, a, b);
                assert_eq!(
                    typed.to_bits(),
                    dynamic.to_bits(),
                    "{op} fma({acc}, {a}, {b})"
                );
            }
        }
    }

    struct Seed(f32);
    impl KernelVisitor for Seed {
        type Output = f32;
        fn visit<K: SemiringKernel>(self) -> f32 {
            K::seed(self.0)
        }
    }

    #[test]
    fn seed_canonicalises_and_is_idempotent() {
        let nan = f32::NAN;
        for op in ALL_OPS {
            for c in [-0.0, 0.0, 1.0, -2.5, 1.0e-40, f32::INFINITY, nan] {
                let once = dispatch_kernel(op, Seed(c));
                let twice = dispatch_kernel(op, Seed(once));
                assert_eq!(once.to_bits(), twice.to_bits(), "{op} on {c}");
                // Never `-0.0` under `+`, never NaN under min/max/or.
                if matches!(op, OpKind::PlusMul | OpKind::PlusNorm) {
                    assert_ne!(once.to_bits(), (-0.0f32).to_bits(), "{op} on {c}");
                } else {
                    assert!(!once.is_nan(), "{op} on {c}");
                }
            }
        }
        assert_eq!(dispatch_kernel(OpKind::OrAnd, Seed(2.5)), 1.0);
        assert_eq!(
            dispatch_kernel(OpKind::MaxPlus, Seed(nan)),
            f32::NEG_INFINITY
        );
    }

    struct Kind;
    impl KernelVisitor for Kind {
        type Output = OpKind;
        fn visit<K: SemiringKernel>(self) -> OpKind {
            K::KIND
        }
    }

    #[test]
    fn dispatch_selects_matching_kernel() {
        for op in ALL_OPS {
            assert_eq!(dispatch_kernel(op, Kind), op);
        }
    }
}
