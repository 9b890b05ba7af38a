//! Statically-typed semiring-like structures.
//!
//! Each zero-sized marker type implements [`Semiring`] for the element type
//! its algebra is defined over. Kernels generic over `S: Semiring` are
//! monomorphised per operation — the software analogue of configuring the
//! `⊗`/`⊕` ALUs once per instruction.

use crate::OpKind;

/// A semiring-like structure `(⊕, ⊗)` over element type [`Self::Elem`].
///
/// The trait captures the *computational* contract the SIMD² unit relies on
/// (identity of `⊕`, the `acc ⊕ (a ⊗ b)` step); full mathematical semiring
/// laws (associativity, distributivity) hold for all provided instances
/// except where floating-point rounding intervenes, and are checked by the
/// property-based tests in [`crate::properties`].
///
/// # Example
///
/// ```
/// use simd2_semiring::{Semiring, MinMax};
///
/// // Bottleneck of a two-edge path, then best-of with an existing path:
/// let path = MinMax::combine(4.0, 9.0); // max: the wider constraint
/// assert_eq!(path, 9.0);
/// assert_eq!(MinMax::reduce(7.0, path), 7.0); // min: keep the better route
/// ```
pub trait Semiring: Copy + core::fmt::Debug + 'static {
    /// Element type the algebra operates on.
    type Elem: Copy + PartialEq + core::fmt::Debug;

    /// The dynamic [`OpKind`] this typed algebra corresponds to.
    const KIND: OpKind;

    /// The `⊗` (combine / multiply-like) operator.
    fn combine(a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// The `⊕` (reduce / add-like) operator.
    fn reduce(a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// Identity of `⊕`: `reduce(identity(), x) == x`.
    fn reduce_identity() -> Self::Elem;

    /// One inner-product step: `acc ⊕ (a ⊗ b)`.
    #[inline]
    fn fma(acc: Self::Elem, a: Self::Elem, b: Self::Elem) -> Self::Elem {
        Self::reduce(acc, Self::combine(a, b))
    }
}

/// `min` with every case pinned: the smaller operand; `a` on a tie, `±0`
/// included; the other operand when one is NaN, `b` when both are.
///
/// `f32::min` leaves the `±0` tie to the optimiser, so two inlined copies
/// of one fold could disagree in a release build. This is what its
/// unoptimised lowering returns, and what the vector kernels' `min`
/// wrappers are built to return, spelled as a comparison the optimiser
/// has no latitude in.
#[inline]
pub(crate) fn select_min(a: f32, b: f32) -> f32 {
    if b < a || a.is_nan() {
        b
    } else {
        a
    }
}

/// `max` with every case pinned; see [`select_min`].
#[inline]
pub(crate) fn select_max(a: f32, b: f32) -> f32 {
    if b > a || a.is_nan() {
        b
    } else {
        a
    }
}

macro_rules! f32_semiring {
    ($(#[$doc:meta])* $name:ident, $kind:expr,
     combine($ca:ident, $cb:ident) = $combine:expr,
     reduce($ra:ident, $rb:ident) = $reduce:expr,
     identity = $id:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
        pub struct $name;

        impl Semiring for $name {
            type Elem = f32;
            const KIND: OpKind = $kind;

            #[inline]
            fn combine($ca: f32, $cb: f32) -> f32 {
                $combine
            }

            #[inline]
            fn reduce($ra: f32, $rb: f32) -> f32 {
                $reduce
            }

            #[inline]
            fn reduce_identity() -> f32 {
                $id
            }
        }
    };
}

f32_semiring!(
    /// `(+, ×)` over `f32` — classic matrix-multiply-accumulate (GEMM).
    PlusMul,
    OpKind::PlusMul,
    combine(a, b) = a * b,
    reduce(a, b) = a + b,
    identity = 0.0
);

f32_semiring!(
    /// `(min, +)` over `f32` — the tropical semiring of shortest paths.
    MinPlus,
    OpKind::MinPlus,
    combine(a, b) = a + b,
    reduce(a, b) = select_min(a, b),
    identity = f32::INFINITY
);

f32_semiring!(
    /// `(max, +)` over `f32` — longest/critical paths.
    MaxPlus,
    OpKind::MaxPlus,
    combine(a, b) = a + b,
    reduce(a, b) = select_max(a, b),
    identity = f32::NEG_INFINITY
);

f32_semiring!(
    /// `(min, ×)` over `f32` — minimum reliability paths.
    MinMul,
    OpKind::MinMul,
    combine(a, b) = a * b,
    reduce(a, b) = select_min(a, b),
    identity = f32::INFINITY
);

f32_semiring!(
    /// `(max, ×)` over `f32` — maximum reliability paths.
    MaxMul,
    OpKind::MaxMul,
    combine(a, b) = a * b,
    reduce(a, b) = select_max(a, b),
    identity = f32::NEG_INFINITY
);

f32_semiring!(
    /// `(min, max)` over `f32` — minimax / minimum spanning tree.
    MinMax,
    OpKind::MinMax,
    combine(a, b) = select_max(a, b),
    reduce(a, b) = select_min(a, b),
    identity = f32::INFINITY
);

f32_semiring!(
    /// `(max, min)` over `f32` — maximum capacity (widest) paths.
    MaxMin,
    OpKind::MaxMin,
    combine(a, b) = select_min(a, b),
    reduce(a, b) = select_max(a, b),
    identity = f32::NEG_INFINITY
);

f32_semiring!(
    /// `(∨, ∧)` over `f32`-encoded booleans (`0.0` / `1.0`) — transitive
    /// closure on the shared floating-point data path.
    OrAnd,
    OpKind::OrAnd,
    combine(a, b) = if a != 0.0 && b != 0.0 { 1.0 } else { 0.0 },
    reduce(a, b) = if a != 0.0 || b != 0.0 { 1.0 } else { 0.0 },
    identity = 0.0
);

f32_semiring!(
    /// `(+, (a−b)²)` over `f32` — pairwise squared L2 distance
    /// accumulation (`simd2.addnorm`). Not a semiring (no `⊗`
    /// associativity), but shares the `D = C ⊕ (A ⊗ B)` data flow.
    PlusNorm,
    OpKind::PlusNorm,
    combine(a, b) = {
        let d = a - b;
        d * d
    },
    reduce(a, b) = a + b,
    identity = 0.0
);

/// `(min, +)` over `i64` with saturating addition — the exact integer
/// oracle for validating the floating-point tropical algebra on
/// integer-weighted workloads (`i64::MAX` encodes +∞ / no path).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct IntMinPlus;

impl Semiring for IntMinPlus {
    type Elem = i64;
    const KIND: OpKind = OpKind::MinPlus;

    #[inline]
    fn combine(a: i64, b: i64) -> i64 {
        a.saturating_add(b)
    }

    #[inline]
    fn reduce(a: i64, b: i64) -> i64 {
        a.min(b)
    }

    #[inline]
    fn reduce_identity() -> i64 {
        i64::MAX
    }
}

/// `(∨, ∧)` over native `bool` — the reference boolean algebra used to
/// validate [`OrAnd`]'s `f32` encoding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct BoolOrAnd;

impl Semiring for BoolOrAnd {
    type Elem = bool;
    const KIND: OpKind = OpKind::OrAnd;

    #[inline]
    fn combine(a: bool, b: bool) -> bool {
        a && b
    }

    #[inline]
    fn reduce(a: bool, b: bool) -> bool {
        a || b
    }

    #[inline]
    fn reduce_identity() -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{dispatch_kernel, KernelVisitor, SemiringKernel};
    use crate::ALL_OPS;

    /// One `Semiring::fma` step on the marker type `dispatch_kernel`
    /// selects, to cross-check the typed instances' provided method
    /// against the dynamic `OpKind` evaluation.
    struct Fma(f32, f32, f32);

    impl KernelVisitor for Fma {
        type Output = f32;
        fn visit<K: SemiringKernel>(self) -> f32 {
            K::fma(self.0, self.1, self.2)
        }
    }

    #[test]
    fn typed_and_dynamic_agree() {
        let cases = [
            (0.0f32, 0.0f32, 0.0f32),
            (1.0, 2.0, 3.0),
            (-1.5, 0.25, 8.0),
            (7.0, 1.0, 0.0),
            (0.5, 0.5, 0.5),
        ];
        for op in ALL_OPS {
            for (acc, a, b) in cases {
                let typed = dispatch_kernel(op, Fma(acc, a, b));
                let dynamic = op.fma_f32(acc, a, b);
                assert_eq!(typed, dynamic, "{op} fma({acc}, {a}, {b})");
            }
        }
    }

    #[test]
    fn bool_or_and_matches_f32_encoding() {
        for a in [false, true] {
            for b in [false, true] {
                let fa = if a { 1.0 } else { 0.0 };
                let fb = if b { 1.0 } else { 0.0 };
                assert_eq!(
                    BoolOrAnd::combine(a, b),
                    OrAnd::combine(fa, fb) != 0.0,
                    "and({a},{b})"
                );
                assert_eq!(
                    BoolOrAnd::reduce(a, b),
                    OrAnd::reduce(fa, fb) != 0.0,
                    "or({a},{b})"
                );
            }
        }
    }

    #[test]
    fn min_plus_shortest_path_step() {
        // Existing best 7, candidate path 3 + 2 = 5 → 5.
        assert_eq!(MinPlus::fma(7.0, 3.0, 2.0), 5.0);
        // Candidate worse than best → keep best.
        assert_eq!(MinPlus::fma(4.0, 3.0, 2.0), 4.0);
        // No path yet: identity loses to any finite candidate.
        assert_eq!(MinPlus::fma(MinPlus::reduce_identity(), 3.0, 2.0), 5.0);
    }

    #[test]
    fn max_min_capacity_step() {
        // Capacity of a path is its narrowest link; keep the widest path.
        assert_eq!(MaxMin::combine(10.0, 4.0), 4.0);
        assert_eq!(MaxMin::fma(3.0, 10.0, 4.0), 4.0);
        assert_eq!(MaxMin::fma(6.0, 10.0, 4.0), 6.0);
    }

    #[test]
    fn min_max_bottleneck_step() {
        // minimax: path cost is its largest edge; keep the smallest.
        assert_eq!(MinMax::combine(2.0, 9.0), 9.0);
        assert_eq!(MinMax::fma(5.0, 2.0, 9.0), 5.0);
        assert_eq!(MinMax::fma(11.0, 2.0, 9.0), 9.0);
    }

    #[test]
    fn reliability_steps() {
        // Reliability of a path is the product of link reliabilities.
        assert_eq!(MaxMul::fma(0.4, 0.9, 0.8), 0.9f32 * 0.8);
        assert_eq!(MinMul::fma(0.4, 0.9, 0.8), 0.4);
    }

    #[test]
    fn int_min_plus_is_an_exact_tropical_oracle() {
        // Saturating addition keeps "no path" absorbing.
        assert_eq!(IntMinPlus::fma(i64::MAX, 3, 2), 5);
        assert_eq!(IntMinPlus::fma(4, 3, 2), 4);
        assert_eq!(IntMinPlus::combine(i64::MAX, 7), i64::MAX);
        assert_eq!(IntMinPlus::reduce(i64::MAX, 9), 9);
        // Agreement with the f32 algebra on integer weights.
        for (acc, a, b) in [(7i64, 3i64, 2i64), (100, 50, 49), (1, 2, 3)] {
            let f = MinPlus::fma(acc as f32, a as f32, b as f32);
            assert_eq!(f as i64, IntMinPlus::fma(acc, a, b));
        }
    }

    #[test]
    fn markers_are_zero_sized() {
        assert_eq!(core::mem::size_of::<MinPlus>(), 0);
        assert_eq!(core::mem::size_of::<PlusNorm>(), 0);
    }
}
