//! AVX2 / AVX-512F `#[target_feature]` leaf kernels for x86-64.
//!
//! # Safety contract (every leaf)
//!
//! * The caller has verified at runtime that the CPU supports every
//!   target feature the leaf enables (the dispatchers in `super` only
//!   enter a leaf behind a `cpu_features()` guard).
//! * Tile leaves: `a`, `b`, `c` and `d` are flat row-major `n × n`
//!   slices and `n ≤ MAX_TILE` (asserted by `super::mmo_tile`); all
//!   pointer arithmetic stays inside `n * n` elements. Chain leaves:
//!   `a` and `b` are the same whole number of flat 16×16 tiles and the
//!   accumulator exactly one (asserted by `super::mmo_chain`); they
//!   index through fixed-size chunks, so every vector access is a whole
//!   16-element row. Row-sweep leaves: no shape precondition — every
//!   vector access goes through a bounds-checked fixed-size chunk.
//!
//! # Bit identity
//!
//! Each lane holds one output column and replays the scalar kernel's
//! exact operation order, so bit identity reduces to each vector `⊗`/`⊕`
//! matching its scalar counterpart lane-wise:
//!
//! * `+`, `×`, `(a-b)²` — IEEE operations, identical by definition.
//!   Plus-mul deliberately does **not** fuse into FMA: the scalar oracle
//!   rounds after the multiply and again after the add, and a fused
//!   kernel would not.
//! * `min`/`max` — `vminps`/`vmaxps` alone return the *second* operand
//!   on any NaN and have their own ±0 preference, which does not match
//!   Rust's `f32::min`/`f32::max`. [`min_ps`]/[`max_ps`] wrap them in a
//!   NaN-aware blend (a write mask on AVX-512, where the ordered-compare
//!   mask folds the blend into the `min`/`max` itself) that reproduces
//!   the scalar semantics exactly
//!   (validated lane-wise against `f32::min`/`f32::max` over NaN
//!   payloads, sNaN, ±0, infinities and denormals). The wrapper only
//!   differs from the bare instruction, operands swapped, in lanes whose
//!   first operand is NaN. min-max and max-min never compute a new
//!   value — `⊗` and `⊕` both return one of their operands — so on a
//!   tile pair that holds no NaN no term or partial is NaN either, and
//!   the chain leaves run that pair's trees on the bare instruction
//!   (`*_ord`): the same bits, ±0 ties included, in one op instead of
//!   two (three on AVX2). The test is per tile pair, and a pair with a
//!   NaN anywhere keeps the wrappers.
//! * or-and — truthiness is `x != 0.0` with NaN truthy, which is the
//!   unordered-or-unequal predicate `_CMP_NEQ_UQ`; the boolean result is
//!   materialised as `1.0`/`0.0` by masking a splat of `1.0`. The chain
//!   leaves do that once per chain: operands are compared to bit masks
//!   as they are read and the `k` loop is AND/OR on those bits
//!   ([`or_and_chain_avx512`]). Every `⊕` of the term-by-term lowering
//!   already canonicalises to `1.0`/`0.0`, so the stored tile is the
//!   same; an empty chain stores nothing.
//! * fp16 quantisation — the hardware round trip, with the software
//!   NaN payload rule on NaN lanes; see [`quantize_f16_ps`].

use core::arch::x86_64::*;

use crate::kernel::SemiringKernel;
use crate::typed::{MaxMin, MaxMul, MaxPlus, MinMax, MinMul, MinPlus, OrAnd, PlusMul, PlusNorm};
use crate::OpKind;

use super::{scalar, CHAIN_ELEMS, CHAIN_TILE, MAX_TILE, SWEEP_STRIP};

/// `f32` lanes in a 256-bit vector.
const LANES256: usize = 8;
/// `f32` lanes in a 512-bit vector.
const LANES512: usize = 16;

// ---------------------------------------------------------------------------
// Lane-wise helpers shared by the per-semiring lowerings.
//
// All helpers are `unsafe fn` with the single precondition that the
// enclosing call stack has the matching target feature enabled; they are
// `#[inline(always)]` so they dissolve into the `#[target_feature]`
// leaves that call them.
// ---------------------------------------------------------------------------

/// Lane-wise `a.min(b)` with Rust `f32::min` semantics (NaN in one
/// operand yields the other; both-NaN and ±0 preferences match the
/// scalar lowering).
///
/// # Safety
///
/// Requires AVX (guaranteed by the AVX2 leaves).
#[inline(always)]
unsafe fn min_ps(a: __m256, b: __m256) -> __m256 {
    // SAFETY: caller provides AVX per this function's contract.
    unsafe {
        let a_nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(a, a);
        _mm256_blendv_ps(_mm256_min_ps(b, a), b, a_nan)
    }
}

/// Lane-wise `a.max(b)` with Rust `f32::max` semantics.
///
/// # Safety
///
/// Requires AVX (guaranteed by the AVX2 leaves).
#[inline(always)]
unsafe fn max_ps(a: __m256, b: __m256) -> __m256 {
    // SAFETY: caller provides AVX per this function's contract.
    unsafe {
        let a_nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(a, a);
        _mm256_blendv_ps(_mm256_max_ps(b, a), b, a_nan)
    }
}

/// All-ones lane mask where `v` is truthy (`v != 0.0`, NaN truthy).
///
/// # Safety
///
/// Requires AVX (guaranteed by the AVX2 leaves).
#[inline(always)]
unsafe fn truthy_ps(v: __m256) -> __m256 {
    // SAFETY: caller provides AVX per this function's contract.
    unsafe { _mm256_cmp_ps::<_CMP_NEQ_UQ>(v, _mm256_setzero_ps()) }
}

/// Lane-wise `a.min(b)` with Rust `f32::min` semantics, 512-bit form.
///
/// # Safety
///
/// Requires AVX-512F (guaranteed by the AVX-512 leaves).
#[inline(always)]
unsafe fn min_ps512(a: __m512, b: __m512) -> __m512 {
    // SAFETY: caller provides AVX-512F per this function's contract.
    // `min_ps(b, a)` where `a` is ordered, `b` where it is NaN — the
    // mask folds the blend into the min itself (two ops, not three).
    unsafe {
        let a_ord = _mm512_cmp_ps_mask::<_CMP_ORD_Q>(a, a);
        _mm512_mask_min_ps(b, a_ord, b, a)
    }
}

/// Lane-wise `a.max(b)` with Rust `f32::max` semantics, 512-bit form.
///
/// # Safety
///
/// Requires AVX-512F (guaranteed by the AVX-512 leaves).
#[inline(always)]
unsafe fn max_ps512(a: __m512, b: __m512) -> __m512 {
    // SAFETY: caller provides AVX-512F per this function's contract.
    unsafe {
        let a_ord = _mm512_cmp_ps_mask::<_CMP_ORD_Q>(a, a);
        _mm512_mask_max_ps(b, a_ord, b, a)
    }
}

/// Lane mask where `v` is truthy (`v != 0.0`, NaN truthy), 512-bit form.
///
/// # Safety
///
/// Requires AVX-512F (guaranteed by the AVX-512 leaves).
#[inline(always)]
unsafe fn truthy_ps512(v: __m512) -> __mmask16 {
    // SAFETY: caller provides AVX-512F per this function's contract.
    unsafe { _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(v, _mm512_setzero_ps()) }
}

/// Lane-wise fp16 quantisation (`f32 → binary16 → f32` round trip with
/// round-to-nearest-even), bit-identical to
/// [`crate::precision::quantize_f16`] on all 2³² `f32` bit patterns
/// (`quantiser_matches_the_scalar_round_trip_on_every_bit_pattern` in
/// `tests/proptest_simd.rs`, run by `scripts/verify.sh --full`).
///
/// The round trip is the hardware's (`vcvtps2ph` with RNE, then
/// `vcvtph2ps`): rounding, subnormal targets, overflow to infinity and
/// signed zeros are IEEE on both sides. Only NaN differs: the hardware
/// keeps the sign, quietens and truncates the payload to its top ten
/// bits, and the software round trip additionally sets the lowest
/// payload bit in each direction — bits 13 and 0 of the result — which
/// NaN lanes get OR-ed in.
///
/// # Safety
///
/// Requires AVX and F16C enabled on the calling stack.
#[inline(always)]
unsafe fn quantize_f16_ps(v: __m256) -> __m256 {
    // SAFETY: caller provides AVX and F16C per this function's contract.
    unsafe {
        let q = _mm256_cvtph_ps(_mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v));
        let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v);
        let sticky = _mm256_castsi256_ps(_mm256_set1_epi32(0x2001));
        _mm256_or_ps(q, _mm256_and_ps(nan, sticky))
    }
}

/// Quantises a slice through fp16 in place, 8 lanes at a time, with the
/// scalar quantiser on the tail. Bit-identical to
/// [`crate::precision::quantize_f16_slice`].
///
/// # Safety
///
/// The CPU must support AVX2 and F16C.
#[target_feature(enable = "avx2,f16c")]
pub(super) unsafe fn quantize_f16_avx2(xs: &mut [f32]) {
    let full = xs.len() - xs.len() % LANES256;
    let mut i = 0;
    while i < full {
        // SAFETY: i + LANES256 <= xs.len(); `xs` is exclusively borrowed.
        let v = unsafe { _mm256_loadu_ps(xs.as_ptr().add(i)) };
        // SAFETY: this leaf enables AVX2 and F16C.
        let q = unsafe { quantize_f16_ps(v) };
        // SAFETY: same in-bounds argument as the load.
        unsafe { _mm256_storeu_ps(xs.as_mut_ptr().add(i), q) };
        i += LANES256;
    }
    for x in &mut xs[full..] {
        *x = crate::precision::quantize_f16(*x);
    }
}

// ---------------------------------------------------------------------------
// Per-semiring vector lowerings.
// ---------------------------------------------------------------------------

/// A semiring lowered to 256-bit (AVX2) vector `⊗`/`⊕`.
///
/// Both methods must match the scalar `combine`/`reduce` lane-wise, bit
/// for bit.
pub(super) trait Kernel256: SemiringKernel {
    /// Whether `⊗` and `⊕` both only *select* one of their operands, so
    /// NaN-free operands give a NaN-free result and the chain leaf may
    /// use [`combine_ord`](Self::combine_ord) /
    /// [`reduce_ord`](Self::reduce_ord) on tile pairs that carry no NaN.
    const SELECTS: bool = false;

    /// Vector `⊗`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 enabled on the calling stack.
    unsafe fn combine_v(a: __m256, b: __m256) -> __m256;

    /// Vector `⊕`.
    ///
    /// # Safety
    ///
    /// Requires AVX2 enabled on the calling stack.
    unsafe fn reduce_v(a: __m256, b: __m256) -> __m256;

    /// Vector `⊗` for operands known to hold no NaN: the same bits as
    /// [`combine_v`](Self::combine_v) there, in fewer instructions where
    /// the lowering can drop its NaN handling.
    ///
    /// # Safety
    ///
    /// Requires AVX2 enabled on the calling stack.
    #[inline(always)]
    unsafe fn combine_ord(a: __m256, b: __m256) -> __m256 {
        // SAFETY: the same contract as `combine_v`.
        unsafe { Self::combine_v(a, b) }
    }

    /// Vector `⊕` for operands known to hold no NaN (see
    /// [`combine_ord`](Self::combine_ord)).
    ///
    /// # Safety
    ///
    /// Requires AVX2 enabled on the calling stack.
    #[inline(always)]
    unsafe fn reduce_ord(a: __m256, b: __m256) -> __m256 {
        // SAFETY: the same contract as `reduce_v`.
        unsafe { Self::reduce_v(a, b) }
    }
}

/// A semiring lowered to 512-bit (AVX-512F) vector `⊗`/`⊕`.
///
/// Both methods must match the scalar `combine`/`reduce` lane-wise, bit
/// for bit.
pub(super) trait Kernel512: SemiringKernel {
    /// Whether `⊗` and `⊕` both only *select* one of their operands, so
    /// NaN-free operands give a NaN-free result and the chain leaf may
    /// use [`combine_ord`](Self::combine_ord) /
    /// [`reduce_ord`](Self::reduce_ord) on tile pairs that carry no NaN.
    const SELECTS: bool = false;

    /// Vector `⊗`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F enabled on the calling stack.
    unsafe fn combine_v(a: __m512, b: __m512) -> __m512;

    /// Vector `⊕`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F enabled on the calling stack.
    unsafe fn reduce_v(a: __m512, b: __m512) -> __m512;

    /// Vector `⊗` for operands known to hold no NaN: the same bits as
    /// [`combine_v`](Self::combine_v) there, in fewer instructions where
    /// the lowering can drop its NaN handling.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F enabled on the calling stack.
    #[inline(always)]
    unsafe fn combine_ord(a: __m512, b: __m512) -> __m512 {
        // SAFETY: the same contract as `combine_v`.
        unsafe { Self::combine_v(a, b) }
    }

    /// Vector `⊕` for operands known to hold no NaN (see
    /// [`combine_ord`](Self::combine_ord)).
    ///
    /// # Safety
    ///
    /// Requires AVX-512F enabled on the calling stack.
    #[inline(always)]
    unsafe fn reduce_ord(a: __m512, b: __m512) -> __m512 {
        // SAFETY: the same contract as `reduce_v`.
        unsafe { Self::reduce_v(a, b) }
    }
}

/// Implements both vector lowerings for one semiring from lane-wise
/// expressions shared across widths. The optional `ordered` tail gives
/// the NaN-free forms of a semiring whose `⊗` and `⊕` both only select.
macro_rules! lower {
    ($kernel:ty,
     combine($ca:ident, $cb:ident) = $c256:expr, $c512:expr,
     reduce($ra:ident, $rb:ident) = $r256:expr, $r512:expr
     $(, ordered combine = $oc256:expr, $oc512:expr,
        reduce = $or256:expr, $or512:expr)? $(,)?) => {
        impl Kernel256 for $kernel {
            #[inline(always)]
            unsafe fn combine_v($ca: __m256, $cb: __m256) -> __m256 {
                // SAFETY: AVX2 on the calling stack per the trait contract.
                unsafe { $c256 }
            }
            #[inline(always)]
            unsafe fn reduce_v($ra: __m256, $rb: __m256) -> __m256 {
                // SAFETY: AVX2 on the calling stack per the trait contract.
                unsafe { $r256 }
            }
            $(
                const SELECTS: bool = true;
                #[inline(always)]
                unsafe fn combine_ord($ca: __m256, $cb: __m256) -> __m256 {
                    // SAFETY: AVX2 on the calling stack per the trait contract.
                    unsafe { $oc256 }
                }
                #[inline(always)]
                unsafe fn reduce_ord($ra: __m256, $rb: __m256) -> __m256 {
                    // SAFETY: AVX2 on the calling stack per the trait contract.
                    unsafe { $or256 }
                }
            )?
        }
        impl Kernel512 for $kernel {
            #[inline(always)]
            unsafe fn combine_v($ca: __m512, $cb: __m512) -> __m512 {
                // SAFETY: AVX-512F on the calling stack per the trait contract.
                unsafe { $c512 }
            }
            #[inline(always)]
            unsafe fn reduce_v($ra: __m512, $rb: __m512) -> __m512 {
                // SAFETY: AVX-512F on the calling stack per the trait contract.
                unsafe { $r512 }
            }
            $(
                const SELECTS: bool = true;
                #[inline(always)]
                unsafe fn combine_ord($ca: __m512, $cb: __m512) -> __m512 {
                    // SAFETY: AVX-512F on the calling stack per the trait contract.
                    unsafe { $oc512 }
                }
                #[inline(always)]
                unsafe fn reduce_ord($ra: __m512, $rb: __m512) -> __m512 {
                    // SAFETY: AVX-512F on the calling stack per the trait contract.
                    unsafe { $or512 }
                }
            )?
        }
    };
}

// plus-mul: separate mul and add — NOT fused (see module docs).
lower!(
    PlusMul,
    combine(a, b) = _mm256_mul_ps(a, b),
    _mm512_mul_ps(a, b),
    reduce(a, b) = _mm256_add_ps(a, b),
    _mm512_add_ps(a, b),
);
lower!(
    MinPlus,
    combine(a, b) = _mm256_add_ps(a, b),
    _mm512_add_ps(a, b),
    reduce(a, b) = min_ps(a, b),
    min_ps512(a, b),
);
lower!(
    MaxPlus,
    combine(a, b) = _mm256_add_ps(a, b),
    _mm512_add_ps(a, b),
    reduce(a, b) = max_ps(a, b),
    max_ps512(a, b),
);
lower!(
    MinMul,
    combine(a, b) = _mm256_mul_ps(a, b),
    _mm512_mul_ps(a, b),
    reduce(a, b) = min_ps(a, b),
    min_ps512(a, b),
);
lower!(
    MaxMul,
    combine(a, b) = _mm256_mul_ps(a, b),
    _mm512_mul_ps(a, b),
    reduce(a, b) = max_ps(a, b),
    max_ps512(a, b),
);
// min-max / max-min only select: where neither operand is NaN the
// NaN-aware wrappers above reduce to the bare instruction with the same
// (swapped) operand order — the blend takes the `min`/`max` side in
// every lane, the AVX-512 write mask is all ones.
lower!(
    MinMax,
    combine(a, b) = max_ps(a, b),
    max_ps512(a, b),
    reduce(a, b) = min_ps(a, b),
    min_ps512(a, b),
    ordered combine = _mm256_max_ps(b, a),
    _mm512_max_ps(b, a),
    reduce = _mm256_min_ps(b, a),
    _mm512_min_ps(b, a),
);
lower!(
    MaxMin,
    combine(a, b) = min_ps(a, b),
    min_ps512(a, b),
    reduce(a, b) = max_ps(a, b),
    max_ps512(a, b),
    ordered combine = _mm256_min_ps(b, a),
    _mm512_min_ps(b, a),
    reduce = _mm256_max_ps(b, a),
    _mm512_max_ps(b, a),
);
// or-and: packed-mask bitwise ops. `reduce` inputs are arbitrary f32
// (any non-zero is truthy), so both sides re-derive truthiness masks.
lower!(
    OrAnd,
    combine(a, b) = _mm256_and_ps(
        _mm256_and_ps(truthy_ps(a), truthy_ps(b)),
        _mm256_set1_ps(1.0),
    ),
    _mm512_maskz_mov_ps(truthy_ps512(a) & truthy_ps512(b), _mm512_set1_ps(1.0)),
    reduce(a, b) = _mm256_and_ps(
        _mm256_or_ps(truthy_ps(a), truthy_ps(b)),
        _mm256_set1_ps(1.0),
    ),
    _mm512_maskz_mov_ps(truthy_ps512(a) | truthy_ps512(b), _mm512_set1_ps(1.0)),
);
// plus-norm: (a - b)² then sum.
lower!(
    PlusNorm,
    combine(a, b) = {
        let diff = _mm256_sub_ps(a, b);
        _mm256_mul_ps(diff, diff)
    },
    {
        let diff = _mm512_sub_ps(a, b);
        _mm512_mul_ps(diff, diff)
    },
    reduce(a, b) = _mm256_add_ps(a, b),
    _mm512_add_ps(a, b),
);

// ---------------------------------------------------------------------------
// Tile leaves.
// ---------------------------------------------------------------------------

/// AVX2 tile kernel: 8 output columns per vector, scalar tail columns.
///
/// # Safety
///
/// * The CPU must support AVX2.
/// * `a`, `b`, `c`, `d` must be flat row-major `n × n` slices with
///   `n ≤ MAX_TILE`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn mmo_tile_avx2<K: Kernel256>(
    a: &[f32],
    b: &[f32],
    c: &[f32],
    d: &mut [f32],
    n: usize,
) {
    let full = n - n % LANES256;
    let mut partials = [_mm256_setzero_ps(); MAX_TILE];
    for i in 0..n {
        let row = i * n;
        let mut j = 0;
        while j < full {
            for k in 0..n {
                let av = _mm256_set1_ps(a[row + k]);
                // SAFETY: k < n and j + LANES256 <= n, so the 8-lane load
                // at k*n + j ends within the n*n slice.
                let bv = unsafe { _mm256_loadu_ps(b.as_ptr().add(k * n + j)) };
                // SAFETY: this leaf enables AVX2.
                partials[k] = unsafe { K::combine_v(av, bv) };
            }
            // In-place tree halving: the exact pairing order of
            // `tree_reduce_in_place`, one whole level per pass.
            let mut len = n;
            while len > 1 {
                let pairs = len / 2;
                for p in 0..pairs {
                    // SAFETY: this leaf enables AVX2.
                    partials[p] = unsafe { K::reduce_v(partials[2 * p], partials[2 * p + 1]) };
                }
                if len % 2 == 1 {
                    partials[pairs] = partials[len - 1];
                }
                len = len.div_ceil(2);
            }
            // SAFETY: row + j + LANES256 <= n*n (i < n, j + LANES256 <= n).
            let cv = unsafe { _mm256_loadu_ps(c.as_ptr().add(row + j)) };
            // SAFETY: this leaf enables AVX2. Accumulator is the first
            // `⊕` operand, as in the scalar kernel.
            let dv = unsafe { K::reduce_v(cv, partials[0]) };
            // SAFETY: same in-bounds argument as the `c` load; `d` is
            // exclusively borrowed.
            unsafe { _mm256_storeu_ps(d.as_mut_ptr().add(row + j), dv) };
            j += LANES256;
        }
    }
    scalar::mmo_columns::<K>(a, b, c, d, n, full);
}

/// AVX-512F tile kernel: 16 output columns per vector — exactly one
/// vector per row of the 16×16 ISA tile — with scalar tail columns.
///
/// # Safety
///
/// * The CPU must support AVX-512F.
/// * `a`, `b`, `c`, `d` must be flat row-major `n × n` slices with
///   `n ≤ MAX_TILE`.
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn mmo_tile_avx512<K: Kernel512>(
    a: &[f32],
    b: &[f32],
    c: &[f32],
    d: &mut [f32],
    n: usize,
) {
    let full = n - n % LANES512;
    let mut partials = [_mm512_setzero_ps(); MAX_TILE];
    for i in 0..n {
        let row = i * n;
        let mut j = 0;
        while j < full {
            for k in 0..n {
                let av = _mm512_set1_ps(a[row + k]);
                // SAFETY: k < n and j + LANES512 <= n, so the 16-lane load
                // at k*n + j ends within the n*n slice.
                let bv = unsafe { _mm512_loadu_ps(b.as_ptr().add(k * n + j)) };
                // SAFETY: this leaf enables AVX-512F.
                partials[k] = unsafe { K::combine_v(av, bv) };
            }
            let mut len = n;
            while len > 1 {
                let pairs = len / 2;
                for p in 0..pairs {
                    // SAFETY: this leaf enables AVX-512F.
                    partials[p] = unsafe { K::reduce_v(partials[2 * p], partials[2 * p + 1]) };
                }
                if len % 2 == 1 {
                    partials[pairs] = partials[len - 1];
                }
                len = len.div_ceil(2);
            }
            // SAFETY: row + j + LANES512 <= n*n (i < n, j + LANES512 <= n).
            let cv = unsafe { _mm512_loadu_ps(c.as_ptr().add(row + j)) };
            // SAFETY: this leaf enables AVX-512F. Accumulator first, as
            // in the scalar kernel.
            let dv = unsafe { K::reduce_v(cv, partials[0]) };
            // SAFETY: same in-bounds argument as the `c` load; `d` is
            // exclusively borrowed.
            unsafe { _mm512_storeu_ps(d.as_mut_ptr().add(row + j), dv) };
            j += LANES512;
        }
    }
    scalar::mmo_columns::<K>(a, b, c, d, n, full);
}

// ---------------------------------------------------------------------------
// Chain leaves: the 16×16 tile specialisation that owns the `tk` loop.
// ---------------------------------------------------------------------------

/// The balanced `⊕` tree over one output row's 16 `⊗` terms: exactly
/// the pairing [`crate::kernel::tree_reduce_in_place`] performs on a
/// length of 16 (neighbours pair at every level, left operand first),
/// written as one nested expression. Rust evaluates call arguments left
/// to right, so the tree is walked depth-first and at most five
/// partials (plus the term being formed) are live at once — the whole
/// reduction stays in registers instead of the `[_; MAX_TILE]` stack
/// scratch the runtime-`n` leaves spill to.
///
/// `$p!(k)` yields the `k`-th `⊗` term, `$r!(x, y)` is `x ⊕ y`.
macro_rules! tree16 {
    ($r:ident, $p:ident) => {
        $r!(
            $r!(
                $r!($r!($p!(0), $p!(1)), $r!($p!(2), $p!(3))),
                $r!($r!($p!(4), $p!(5)), $r!($p!(6), $p!(7)))
            ),
            $r!(
                $r!($r!($p!(8), $p!(9)), $r!($p!(10), $p!(11))),
                $r!($r!($p!(12), $p!(13)), $r!($p!(14), $p!(15)))
            )
        )
    };
}

/// AVX-512F chain kernel: folds `acc ← acc ⊕ (Aₜ ⊗ Bₜ)` over every
/// tile pair of the chain, one 16-lane vector per tile row.
///
/// Per tile the 16 rows of `Bₜ` are loaded into 16 `zmm` registers once
/// and reused by all 16 output rows; each output row broadcasts its 16
/// `A` elements against them, reduces through [`tree16`] and folds the
/// accumulator row in last, as the `⊕`'s first operand — the scalar
/// kernel's order, so chaining `t` tiles equals `t` scalar tile MMOs bit
/// for bit. Register budget: 16 `B` rows + ≤ 6 partials + the broadcast
/// of 32 `zmm`.
///
/// Two lowerings depend on what is being chained. Or-and leaves for
/// [`or_and_chain_avx512`], which never forms an `f32` term. A
/// selecting semiring ([`Kernel512::SELECTS`]) tests each tile pair for
/// NaN — one unordered compare per row pair — and runs the pair's trees
/// on the `_ord` forms when there is none: every term and partial is
/// then one of the pair's elements, so the trees see no NaN either. The
/// accumulator comes from unquantised `C`, so the last fold of each row
/// keeps [`Kernel512::reduce_v`].
///
/// # Safety
///
/// * The CPU must support AVX-512F.
/// * `a` and `b` must hold the same whole number of flat row-major
///   16×16 tiles, and `acc` exactly one (asserted by
///   `super::mmo_chain`).
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn mmo_chain_avx512<K: Kernel512>(a: &[f32], b: &[f32], acc: &mut [f32]) {
    if matches!(K::KIND, OpKind::OrAnd) {
        return or_and_chain_avx512(a, b, acc);
    }
    let (a_tiles, _) = a.as_chunks::<CHAIN_ELEMS>();
    let (b_tiles, _) = b.as_chunks::<CHAIN_ELEMS>();
    let (acc_rows, _) = acc.as_chunks_mut::<CHAIN_TILE>();
    for (at, bt) in a_tiles.iter().zip(b_tiles) {
        let (a_rows, _) = at.as_chunks::<CHAIN_TILE>();
        let (b_rows, _) = bt.as_chunks::<CHAIN_TILE>();
        let mut bv = [_mm512_setzero_ps(); CHAIN_TILE];
        for (v, row) in bv.iter_mut().zip(b_rows) {
            // SAFETY: `row` is exactly 16 contiguous `f32`s.
            *v = unsafe { _mm512_loadu_ps(row.as_ptr()) };
        }
        let ordered = K::SELECTS && {
            let mut nan = 0;
            for (row, v) in a_rows.iter().zip(&bv) {
                // SAFETY: `row` is exactly 16 contiguous `f32`s.
                let av = unsafe { _mm512_loadu_ps(row.as_ptr()) };
                nan |= _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(av, *v);
            }
            nan == 0
        };
        if ordered {
            chain_rows_avx512::<K, true>(a_rows, &bv, acc_rows);
        } else {
            chain_rows_avx512::<K, false>(a_rows, &bv, acc_rows);
        }
    }
}

/// One tile pair of [`mmo_chain_avx512`]: `acc ← acc ⊕ (A ⊗ B)` with the
/// `B` tile in `bv`. `ORD` puts the trees on the `_ord` forms, which is
/// the same bits only for a selecting semiring on a tile pair without
/// NaN. Safe to call wherever AVX-512F is enabled.
#[target_feature(enable = "avx512f")]
#[inline]
fn chain_rows_avx512<K: Kernel512, const ORD: bool>(
    a_rows: &[[f32; CHAIN_TILE]],
    bv: &[__m512; CHAIN_TILE],
    acc_rows: &mut [[f32; CHAIN_TILE]],
) {
    for (ar, dr) in a_rows.iter().zip(acc_rows.iter_mut()) {
        macro_rules! term {
            ($k:literal) => {{
                let av = _mm512_set1_ps(ar[$k]);
                // SAFETY: this function enables AVX-512F.
                unsafe {
                    if ORD {
                        K::combine_ord(av, bv[$k])
                    } else {
                        K::combine_v(av, bv[$k])
                    }
                }
            }};
        }
        macro_rules! fold {
            ($x:expr, $y:expr) => {{
                let (x, y) = ($x, $y);
                // SAFETY: this function enables AVX-512F.
                unsafe {
                    if ORD {
                        K::reduce_ord(x, y)
                    } else {
                        K::reduce_v(x, y)
                    }
                }
            }};
        }
        let reduced = tree16!(fold, term);
        // SAFETY: `dr` is exactly 16 contiguous `f32`s.
        let cv = unsafe { _mm512_loadu_ps(dr.as_ptr()) };
        // SAFETY: this function enables AVX-512F.
        let dv = unsafe { K::reduce_v(cv, reduced) };
        // SAFETY: as the load; `dr` is exclusively borrowed.
        unsafe { _mm512_storeu_ps(dr.as_mut_ptr(), dv) };
    }
}

/// The truthiness (`x != 0.0`, NaN truthy) of a 16×16 tile as one
/// 16-bit mask per *column*: bit `i` of lane `j` for element `(i, j)`.
/// One compare and one masked broadcast-OR per row; the masks never
/// leave the vector unit.
#[target_feature(enable = "avx512f")]
#[inline]
fn truthy_columns_avx512(tile: &[f32; CHAIN_ELEMS]) -> __m512i {
    let (rows, _) = tile.as_chunks::<CHAIN_TILE>();
    let mut cols = _mm512_setzero_si512();
    for (i, row) in rows.iter().enumerate() {
        // SAFETY: `row` is exactly 16 contiguous `f32`s, and this
        // function enables AVX-512F.
        let truthy = unsafe { truthy_ps512(_mm512_loadu_ps(row.as_ptr())) };
        cols = _mm512_mask_or_epi32(cols, truthy, cols, _mm512_set1_epi32(1 << i));
    }
    cols
}

/// The or-and chain on lane masks. Or-and reads its operands only for
/// truthiness and, past the first tile pair, writes only `1.0`/`0.0`, so
/// the whole chain is boolean: output `(i, j)` is truthy where the
/// accumulator was, or where some `A[i][k]` and `B[k][j]` both are.
/// Lanes stay output columns, as in every other leaf, but a lane holds
/// its column's 16 rows as bits: step `k` of a tile pair ORs column `k`
/// of `A` — the rows that read `B` row `k` — into the lanes where `B`
/// row `k` is truthy (one compare for the write mask, one lane
/// broadcast, one masked OR). `1.0`/`0.0` is materialised once, after
/// the last pair — what the term-by-term lowering leaves after the
/// first.
///
/// Safe to call wherever AVX-512F is enabled; shapes as for
/// [`mmo_chain_avx512`] (every vector access is a bounds-checked whole
/// row, so a shape error cannot reach memory).
#[target_feature(enable = "avx512f")]
fn or_and_chain_avx512(a: &[f32], b: &[f32], acc: &mut [f32]) {
    let (a_tiles, _) = a.as_chunks::<CHAIN_ELEMS>();
    let (b_tiles, _) = b.as_chunks::<CHAIN_ELEMS>();
    // `acc` is exactly one tile (asserted by `super::mmo_chain`).
    let Some(acc) = acc.first_chunk_mut::<CHAIN_ELEMS>() else {
        return;
    };
    if a_tiles.is_empty() {
        // An empty chain leaves `acc` untouched, non-canonical truthy
        // values included.
        return;
    }
    let mut out = truthy_columns_avx512(acc);
    for (at, bt) in a_tiles.iter().zip(b_tiles) {
        let a_cols = truthy_columns_avx512(at);
        let (b_rows, _) = bt.as_chunks::<CHAIN_TILE>();
        for (k, row) in b_rows.iter().enumerate() {
            // SAFETY: `row` is exactly 16 contiguous `f32`s, and this
            // function enables AVX-512F.
            let b_row = unsafe { truthy_ps512(_mm512_loadu_ps(row.as_ptr())) };
            let a_col = _mm512_permutexvar_epi32(_mm512_set1_epi32(k as i32), a_cols);
            out = _mm512_mask_or_epi32(out, b_row, out, a_col);
        }
    }
    let (acc_rows, _) = acc.as_chunks_mut::<CHAIN_TILE>();
    for (i, dr) in acc_rows.iter_mut().enumerate() {
        let on = _mm512_test_epi32_mask(out, _mm512_set1_epi32(1 << i));
        let dv = _mm512_maskz_mov_ps(on, _mm512_set1_ps(1.0));
        // SAFETY: `dr` is exactly 16 contiguous `f32`s, exclusively
        // borrowed.
        unsafe { _mm512_storeu_ps(dr.as_mut_ptr(), dv) };
    }
}

/// AVX2 chain kernel: the same chain as [`mmo_chain_avx512`] — the
/// or-and and NaN-free selecting lowerings included — with each tile row
/// split into two 8-lane halves. Sixteen `ymm` registers cannot hold a
/// `B` tile, so the `B` half-rows are L1 memory operands of the `⊗`; the
/// tree partials and the accumulator half-row still never leave
/// registers.
///
/// # Safety
///
/// * The CPU must support AVX2.
/// * Shapes as for [`mmo_chain_avx512`].
#[target_feature(enable = "avx2")]
pub(super) unsafe fn mmo_chain_avx2<K: Kernel256>(a: &[f32], b: &[f32], acc: &mut [f32]) {
    if matches!(K::KIND, OpKind::OrAnd) {
        return or_and_chain_avx2(a, b, acc);
    }
    let (a_tiles, _) = a.as_chunks::<CHAIN_ELEMS>();
    let (b_tiles, _) = b.as_chunks::<CHAIN_ELEMS>();
    let (acc_rows, _) = acc.as_chunks_mut::<CHAIN_TILE>();
    for (at, bt) in a_tiles.iter().zip(b_tiles) {
        let (a_rows, _) = at.as_chunks::<CHAIN_TILE>();
        let (b_rows, _) = bt.as_chunks::<CHAIN_TILE>();
        let ordered = K::SELECTS && {
            let mut nan = _mm256_setzero_ps();
            let (a_halves, _) = at.as_chunks::<LANES256>();
            let (b_halves, _) = bt.as_chunks::<LANES256>();
            for (ah, bh) in a_halves.iter().zip(b_halves) {
                // SAFETY: `ah` and `bh` are exactly 8 contiguous `f32`s.
                let (av, bv) =
                    unsafe { (_mm256_loadu_ps(ah.as_ptr()), _mm256_loadu_ps(bh.as_ptr())) };
                nan = _mm256_or_ps(nan, _mm256_cmp_ps::<_CMP_UNORD_Q>(av, bv));
            }
            _mm256_movemask_ps(nan) == 0
        };
        if ordered {
            chain_rows_avx2::<K, true>(a_rows, b_rows, acc_rows);
        } else {
            chain_rows_avx2::<K, false>(a_rows, b_rows, acc_rows);
        }
    }
}

/// One tile pair of [`mmo_chain_avx2`]; `ORD` as for
/// [`chain_rows_avx512`]. Safe to call wherever AVX2 is enabled.
#[target_feature(enable = "avx2")]
#[inline]
fn chain_rows_avx2<K: Kernel256, const ORD: bool>(
    a_rows: &[[f32; CHAIN_TILE]],
    b_rows: &[[f32; CHAIN_TILE]],
    acc_rows: &mut [[f32; CHAIN_TILE]],
) {
    for (ar, dr) in a_rows.iter().zip(acc_rows.iter_mut()) {
        for half in [0, LANES256] {
            macro_rules! term {
                ($k:literal) => {{
                    let av = _mm256_set1_ps(ar[$k]);
                    // SAFETY: this function enables AVX2, and the
                    // 8-lane load at `half ∈ {0, 8}` ends within the
                    // 16-element row.
                    unsafe {
                        let bv = _mm256_loadu_ps(b_rows[$k].as_ptr().add(half));
                        if ORD {
                            K::combine_ord(av, bv)
                        } else {
                            K::combine_v(av, bv)
                        }
                    }
                }};
            }
            macro_rules! fold {
                ($x:expr, $y:expr) => {{
                    let (x, y) = ($x, $y);
                    // SAFETY: this function enables AVX2.
                    unsafe {
                        if ORD {
                            K::reduce_ord(x, y)
                        } else {
                            K::reduce_v(x, y)
                        }
                    }
                }};
            }
            let reduced = tree16!(fold, term);
            // SAFETY: `half + 8 <= 16`, the length of `dr`.
            let cv = unsafe { _mm256_loadu_ps(dr.as_ptr().add(half)) };
            // SAFETY: this function enables AVX2.
            let dv = unsafe { K::reduce_v(cv, reduced) };
            // SAFETY: as the load; `dr` is exclusively borrowed.
            unsafe { _mm256_storeu_ps(dr.as_mut_ptr().add(half), dv) };
        }
    }
}

/// [`truthy_columns_avx512`] as two 8-lane halves (columns 0–7 and
/// 8–15).
#[target_feature(enable = "avx2")]
#[inline]
fn truthy_columns_avx2(tile: &[f32; CHAIN_ELEMS]) -> [__m256i; 2] {
    let (rows, _) = tile.as_chunks::<CHAIN_TILE>();
    let mut cols = [_mm256_setzero_si256(); 2];
    for (i, row) in rows.iter().enumerate() {
        let bit = _mm256_castsi256_ps(_mm256_set1_epi32(1 << i));
        let (halves, _) = row.as_chunks::<LANES256>();
        for (c, half) in cols.iter_mut().zip(halves) {
            // SAFETY: `half` is exactly 8 contiguous `f32`s, and this
            // function enables AVX2.
            let truthy = unsafe { truthy_ps(_mm256_loadu_ps(half.as_ptr())) };
            *c = _mm256_or_si256(*c, _mm256_castps_si256(_mm256_and_ps(truthy, bit)));
        }
    }
    cols
}

/// [`or_and_chain_avx512`] with each row of lanes split into two
/// halves, the write mask of step `k` an AND with `B` row `k`'s
/// all-ones truthy lanes. Safe to call wherever AVX2 is enabled.
#[target_feature(enable = "avx2")]
fn or_and_chain_avx2(a: &[f32], b: &[f32], acc: &mut [f32]) {
    let (a_tiles, _) = a.as_chunks::<CHAIN_ELEMS>();
    let (b_tiles, _) = b.as_chunks::<CHAIN_ELEMS>();
    let Some(acc) = acc.first_chunk_mut::<CHAIN_ELEMS>() else {
        return;
    };
    if a_tiles.is_empty() {
        return;
    }
    let mut out = truthy_columns_avx2(acc);
    for (at, bt) in a_tiles.iter().zip(b_tiles) {
        let a_cols = truthy_columns_avx2(at);
        let (b_rows, _) = bt.as_chunks::<CHAIN_TILE>();
        for (k, row) in b_rows.iter().enumerate() {
            let lane = _mm256_set1_epi32((k % LANES256) as i32);
            let a_col =
                _mm256_castsi256_ps(_mm256_permutevar8x32_epi32(a_cols[k / LANES256], lane));
            let (halves, _) = row.as_chunks::<LANES256>();
            for (o, half) in out.iter_mut().zip(halves) {
                // SAFETY: `half` is exactly 8 contiguous `f32`s, and
                // this function enables AVX2.
                let b_row = unsafe { truthy_ps(_mm256_loadu_ps(half.as_ptr())) };
                *o = _mm256_or_si256(*o, _mm256_castps_si256(_mm256_and_ps(b_row, a_col)));
            }
        }
    }
    let (acc_rows, _) = acc.as_chunks_mut::<CHAIN_TILE>();
    for (i, dr) in acc_rows.iter_mut().enumerate() {
        let bit = _mm256_set1_epi32(1 << i);
        let (halves, _) = dr.as_chunks_mut::<LANES256>();
        for (o, half) in out.iter().zip(halves) {
            let on = _mm256_cmpeq_epi32(_mm256_and_si256(*o, bit), bit);
            let dv = _mm256_and_ps(_mm256_castsi256_ps(on), _mm256_set1_ps(1.0));
            // SAFETY: `half` is exactly 8 contiguous `f32`s, exclusively
            // borrowed.
            unsafe { _mm256_storeu_ps(half.as_mut_ptr(), dv) };
        }
    }
}

// ---------------------------------------------------------------------------
// Row-sweep leaves: one output row against contiguous rows of a dense `B`.
// ---------------------------------------------------------------------------

/// Defines one tier's row-sweep leaf `$leaf` and its strip helper
/// `$strip` from the tier's vector type parameters.
///
/// The strip helper folds the walk into `Q` accumulator vectors —
/// columns `j0..j0 + lanes·Q` of the row — loaded once, held in
/// registers across the whole walk and stored once. Each term
/// broadcasts its `A` value against `Q` contiguous vectors of `B` row
/// `k`; `⊗` then `⊕`, the accumulator as the `⊕`'s first operand, as in
/// the scalar leaf. The leaf covers the row with [`SWEEP_STRIP`]-column
/// strips, leftover whole vectors one at a time, and scalar tail
/// columns.
macro_rules! sweep_leaf {
    ($leaf:ident, $strip:ident, $feature:literal, $kernel:ident, $lanes:ident,
     $zero:ident, $load:ident, $splat:ident, $store:ident) => {
        /// Safe to call wherever the target feature is enabled: `acc`
        /// is bounds-checked to hold `Q` whole vectors and every `B`
        /// row slice is bounds-checked before it is loaded.
        #[target_feature(enable = $feature)]
        #[inline]
        fn $strip<K: $kernel, const Q: usize>(
            ks: &[u32],
            vals: &[f32],
            b: &[f32],
            ldb: usize,
            j0: usize,
            acc: &mut [f32],
        ) {
            let (lanes, _) = acc[..Q * $lanes].as_chunks_mut::<$lanes>();
            let mut r = [$zero(); Q];
            for (v, lane) in r.iter_mut().zip(lanes.iter()) {
                // SAFETY: `lane` is exactly one vector of contiguous `f32`s.
                *v = unsafe { $load(lane.as_ptr()) };
            }
            for (&k, &a) in ks.iter().zip(vals) {
                let (row, _) = b[k as usize * ldb + j0..][..Q * $lanes].as_chunks::<$lanes>();
                let av = $splat(a);
                for (v, bv) in r.iter_mut().zip(row) {
                    // SAFETY: `bv` is exactly one vector of contiguous
                    // `f32`s, and this function enables the feature.
                    *v = unsafe { K::reduce_v(*v, K::combine_v(av, $load(bv.as_ptr()))) };
                }
            }
            for (v, lane) in r.iter().zip(lanes.iter_mut()) {
                // SAFETY: as the load; `lane` is exclusively borrowed.
                unsafe { $store(lane.as_mut_ptr(), *v) };
            }
        }

        /// # Safety
        ///
        /// The CPU must support the leaf's target feature. (Shapes are
        /// bounds-checked, not preconditions.)
        #[target_feature(enable = $feature)]
        pub(super) unsafe fn $leaf<K: $kernel>(
            ks: &[u32],
            vals: &[f32],
            b: &[f32],
            ldb: usize,
            acc: &mut [f32],
        ) {
            const Q: usize = SWEEP_STRIP / $lanes;
            let n = acc.len();
            let mut j0 = 0;
            while n - j0 >= SWEEP_STRIP {
                $strip::<K, Q>(ks, vals, b, ldb, j0, &mut acc[j0..]);
                j0 += SWEEP_STRIP;
            }
            while n - j0 >= $lanes {
                $strip::<K, 1>(ks, vals, b, ldb, j0, &mut acc[j0..]);
                j0 += $lanes;
            }
            scalar::sweep_columns::<K>(ks, vals, b, ldb, j0, &mut acc[j0..]);
        }
    };
}

sweep_leaf!(
    sweep_row_avx512,
    sweep_strip_avx512,
    "avx512f",
    Kernel512,
    LANES512,
    _mm512_setzero_ps,
    _mm512_loadu_ps,
    _mm512_set1_ps,
    _mm512_storeu_ps
);
sweep_leaf!(
    sweep_row_avx2,
    sweep_strip_avx2,
    "avx2",
    Kernel256,
    LANES256,
    _mm256_setzero_ps,
    _mm256_loadu_ps,
    _mm256_set1_ps,
    _mm256_storeu_ps
);
