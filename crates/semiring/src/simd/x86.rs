//! AVX2 / AVX-512F (and AVX512-FP16) `#[target_feature]` leaf kernels
//! for x86-64.
//!
//! # Safety contract (every leaf)
//!
//! * The caller has verified at runtime that the CPU supports every
//!   target feature the leaf enables (the dispatchers in `super` only
//!   enter a leaf behind a `cpu_features()` guard).
//! * Chain leaves: `a` and `b` are the same whole number of flat 16×16
//!   tiles and the accumulator exactly one (asserted by
//!   `super::mmo_chain` and `super::FmaLanes::mmo_chain`); they index
//!   through fixed-size chunks, so every vector access is a whole vector
//!   of a 16-element row. Row-sweep, scan, compaction, fit and half-lane
//!   leaves: no shape precondition — every vector access goes through a
//!   bounds-checked fixed-size chunk.
//!
//! # Bit identity
//!
//! Each lane holds one output column and folds that column's terms in
//! the scalar kernel's order — ascending `k`, the accumulator as the
//! `⊕`'s first operand — so bit identity reduces to each vector `⊗`/`⊕`
//! matching its scalar counterpart lane-wise:
//!
//! * `+`, `×`, `(a-b)²` — IEEE operations, identical by definition.
//!   The scalar oracle rounds plus-mul's product and again its sum, so
//!   the term-by-term lowering does not fuse them. The chain leaves'
//!   `FUSED` fold (entered through `super::FmaLanes` only) does, on tile
//!   pairs whose every element is finite and on the fp16 lattice: the
//!   product of two such values has at most 22 significant bits and a
//!   magnitude inside `f32`'s normal range, so it is exact, and one
//!   rounding of `a·b + acc` is the oracle's second one.
//! * `min`/`max` — `vminps`/`vmaxps` alone return the *second* operand
//!   on any NaN and on a tie, which does not match the scalar
//!   `select_min`/`select_max` (`crate::typed`: the other operand when
//!   one is NaN, the first on a tie). [`min_ps`]/[`max_ps`] wrap them in
//!   a NaN-aware blend (a write mask on AVX-512, where the
//!   ordered-compare mask folds the blend into the `min`/`max` itself)
//!   that reproduces the scalar semantics exactly (validated lane-wise
//!   over NaN payloads, sNaN, ±0, infinities and denormals). The wrapper
//!   only differs from the bare instruction, operands swapped, in lanes
//!   whose first operand is NaN. A chain's accumulator is the first
//!   operand of every `⊕` and, from its seed `acc ⊕ id` on, never NaN,
//!   so the chain leaves fold all six min/max semirings on the bare
//!   instruction (`fold_v`): the same bits, ±0 ties and NaN terms
//!   included, in one op instead of two (three on AVX2). The `⊗` of
//!   min-max and max-min is a `min`/`max` of two operand elements,
//!   either of which can be NaN, so its bare form (`combine_ord`) needs
//!   a tile pair that holds no NaN: the test is per tile pair, and a
//!   pair with a NaN anywhere keeps the wrapper.
//! * min-max / max-min on fp16 lanes ([`half_chain_avx512`]) — the same
//!   bare instructions on 32 half lanes: `vminph`/`vmaxph` return the
//!   second operand on a tie and on a NaN, exactly as
//!   `vminps`/`vmaxps` do. They run only on tile pairs whose images are
//!   exact (no NaN, every element on the fp16 lattice, checked as the
//!   image is built), and every term of these two ops is an operand
//!   element, so each term and the fold from the identity are the `f32`
//!   fold's values in fp16. The chain's result converts back exactly and
//!   folds once into the `f32`-seeded accumulator with `fold_v`: "the
//!   first element to reach the extreme" is associative under
//!   concatenation, so a seed that reaches it wins, and otherwise the
//!   first term that does — `±0` included, with no canonicalisation.
//! * or-and — truthiness is `x != 0.0` with NaN truthy, which is the
//!   unordered-or-unequal predicate `_CMP_NEQ_UQ`; the boolean result is
//!   materialised as `1.0`/`0.0` by masking a splat of `1.0`. The chain
//!   leaves do that once per chain: operands are compared to bit masks
//!   as they are read and the `k` loop is AND/OR on those bits
//!   ([`or_and_chain_avx512`]). Every `⊕` of the term-by-term lowering,
//!   the seed `acc ⊕ 0.0` first of all, canonicalises to `1.0`/`0.0`, so
//!   the stored tile is the same. The engine's bit walk takes that one
//!   step further, on whole rows: [`truthy_bits_avx512`] compares rows
//!   to bit rows (64 elements a word), [`or_rows_avx512`] ORs the table
//!   rows an `A` row's nonzero nibbles select into an accumulator held
//!   in registers, and [`bits_to_f32_avx512`] writes `1.0`/`0.0` once per
//!   row — OR being exact and order-free, every tier and grouping gives
//!   the same bits.
//! * fp16 quantisation — the hardware round trip, with the software
//!   NaN payload rule on NaN lanes; see [`quantize_f16_ps`].

use core::arch::x86_64::*;

use crate::kernel::SemiringKernel;
use crate::typed::{MaxMin, MaxMul, MaxPlus, MinMax, MinMul, MinPlus, OrAnd, PlusMul, PlusNorm};
use crate::OpKind;

use super::{
    scalar, HalfFit, Scan, BIT_WORD, CHAIN_ELEMS, CHAIN_TILE, HALF_A_WORDS, HALF_B_WORDS,
    SWEEP_STRIP, TABLE_ENTRIES, TABLE_GROUP,
};

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

/// Lane-wise `select_min(a, b)` (NaN in one operand yields the other;
/// both-NaN and ±0 preferences match the scalar lowering).
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

/// Lane-wise `select_max(a, b)`.
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

/// Lane-wise `select_min(a, b)`, 512-bit form.
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

/// Lane-wise `select_max(a, b)`, 512-bit form.
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

/// [`quantize_f16_avx2`] sixteen lanes at a time: the same hardware round
/// trip on `zmm` (`vcvtps2ph` / `vcvtph2ps` are AVX-512F), the NaN lanes'
/// two payload bits OR-ed in under a compare mask; the AVX2 leaf takes
/// the tail.
///
/// # Safety
///
/// The CPU must support AVX-512F (which implies AVX2 and F16C).
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn quantize_f16_avx512(xs: &mut [f32]) {
    let (chunks, tail) = xs.as_chunks_mut::<LANES512>();
    let sticky = _mm512_set1_epi32(0x2001);
    for chunk in chunks {
        // SAFETY: `chunk` is exactly 16 contiguous `f32`s, exclusively
        // borrowed.
        let v = unsafe { _mm512_loadu_ps(chunk.as_ptr()) };
        let half = _mm512_cvtps_ph::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(v);
        let q = _mm512_castps_si512(_mm512_cvtph_ps(half));
        let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(v, v);
        let q = _mm512_castsi512_ps(_mm512_mask_or_epi32(q, nan, q, sticky));
        // SAFETY: as for the load.
        unsafe { _mm512_storeu_ps(chunk.as_mut_ptr(), q) };
    }
    // SAFETY: AVX-512F implies the AVX2 and F16C the tail leaf enables.
    unsafe { quantize_f16_avx2(tail) };
}

// ---------------------------------------------------------------------------
// Per-semiring vector lowerings.
// ---------------------------------------------------------------------------

/// Defines one width's lowering trait: a semiring as vector `⊗`/`⊕` on
/// `$vec`. Every method requires `$feature` enabled on the calling stack.
macro_rules! kernel_trait {
    ($(#[$doc:meta])* $name:ident, $vec:ty, $feature:literal) => {
        $(#[$doc])*
        ///
        /// `combine_v` and `reduce_v` must match the scalar
        /// `combine`/`reduce` lane-wise, bit for bit, on every operand;
        /// the other two are the same bits on the operands they are
        /// documented for, in fewer instructions where the lowering can
        /// drop its NaN handling.
        pub(super) trait $name: SemiringKernel {
            /// Whether `⊗` only *selects* one of its operands, so that
            /// a tile pair without NaN makes no NaN term and the chain
            /// leaf may use [`combine_ord`](Self::combine_ord) on it.
            const SELECTS: bool = false;

            /// Vector `⊗`.
            ///
            /// # Safety
            ///
            #[doc = concat!("Requires ", $feature, " enabled on the calling stack.")]
            unsafe fn combine_v(a: $vec, b: $vec) -> $vec;

            /// Vector `⊕`.
            ///
            /// # Safety
            ///
            #[doc = concat!("Requires ", $feature, " enabled on the calling stack.")]
            unsafe fn reduce_v(a: $vec, b: $vec) -> $vec;

            /// Vector `⊗` for operands known to hold no NaN.
            ///
            /// # Safety
            ///
            #[doc = concat!("Requires ", $feature, " enabled on the calling stack.")]
            #[inline(always)]
            unsafe fn combine_ord(a: $vec, b: $vec) -> $vec {
                // SAFETY: the same contract as `combine_v`.
                unsafe { Self::combine_v(a, b) }
            }

            /// Vector `⊕` for a first operand known not to be NaN — what
            /// a chain's accumulator is from its seed `acc ⊕ id` on for
            /// a min/max `⊕` (the term may be anything).
            ///
            /// # Safety
            ///
            #[doc = concat!("Requires ", $feature, " enabled on the calling stack.")]
            #[inline(always)]
            unsafe fn fold_v(acc: $vec, term: $vec) -> $vec {
                // SAFETY: the same contract as `reduce_v`.
                unsafe { Self::reduce_v(acc, term) }
            }
        }
    };
}

kernel_trait!(
    /// A semiring lowered to 256-bit (AVX2) vector `⊗`/`⊕`.
    Kernel256,
    __m256,
    "AVX2"
);
kernel_trait!(
    /// A semiring lowered to 512-bit (AVX-512F) vector `⊗`/`⊕`.
    Kernel512,
    __m512,
    "AVX-512F"
);

/// Implements both vector lowerings for one semiring from lane-wise
/// expressions shared across widths. The optional `fold` tail gives the
/// `⊕` of a min/max semiring for a first operand that is not NaN; the
/// optional `ordered combine` tail the NaN-free `⊗` of a semiring whose
/// `⊗` only selects.
macro_rules! lower {
    ($kernel:ty,
     combine($ca:ident, $cb:ident) = $c256:expr, $c512:expr,
     reduce($ra:ident, $rb:ident) = $r256:expr, $r512:expr
     $(, fold = $f256:expr, $f512:expr)?
     $(, ordered combine = $oc256:expr, $oc512:expr)? $(,)?) => {
        lower!(@width $kernel, Kernel256, __m256,
               combine($ca, $cb) = $c256, reduce($ra, $rb) = $r256
               $(, fold = $f256)? $(, ordered combine = $oc256)?);
        lower!(@width $kernel, Kernel512, __m512,
               combine($ca, $cb) = $c512, reduce($ra, $rb) = $r512
               $(, fold = $f512)? $(, ordered combine = $oc512)?);
    };
    (@width $kernel:ty, $trait:ident, $vec:ty,
     combine($ca:ident, $cb:ident) = $c:expr, reduce($ra:ident, $rb:ident) = $r:expr
     $(, fold = $f:expr)? $(, ordered combine = $oc:expr)?) => {
        impl $trait for $kernel {
            #[inline(always)]
            unsafe fn combine_v($ca: $vec, $cb: $vec) -> $vec {
                // SAFETY: the feature is on the calling stack per the trait contract.
                unsafe { $c }
            }
            #[inline(always)]
            unsafe fn reduce_v($ra: $vec, $rb: $vec) -> $vec {
                // SAFETY: the feature is on the calling stack per the trait contract.
                unsafe { $r }
            }
            $(
                #[inline(always)]
                unsafe fn fold_v($ra: $vec, $rb: $vec) -> $vec {
                    // SAFETY: the feature is on the calling stack per the trait contract.
                    unsafe { $f }
                }
            )?
            $(
                const SELECTS: bool = true;
                #[inline(always)]
                unsafe fn combine_ord($ca: $vec, $cb: $vec) -> $vec {
                    // SAFETY: the feature is on the calling stack per the trait contract.
                    unsafe { $oc }
                }
            )?
        }
    };
}

// plus-mul: separate mul and add, term by term; only the chain leaves'
// `FUSED` fold fuses them, on the pairs `FmaLanes` admit (module docs).
lower!(
    PlusMul,
    combine(a, b) = _mm256_mul_ps(a, b),
    _mm512_mul_ps(a, b),
    reduce(a, b) = _mm256_add_ps(a, b),
    _mm512_add_ps(a, b),
);
// The NaN-aware `min`/`max` wrappers only differ from the bare
// instruction, operands swapped, in lanes whose first operand is NaN:
// elsewhere the blend takes the `min`/`max` side, the AVX-512 write mask
// is all ones. `fold` is therefore the bare instruction for all six
// min/max semirings, and so is the `ordered combine` of the two whose
// `⊗` is a `min`/`max` too.
lower!(
    MinPlus,
    combine(a, b) = _mm256_add_ps(a, b),
    _mm512_add_ps(a, b),
    reduce(a, b) = min_ps(a, b),
    min_ps512(a, b),
    fold = _mm256_min_ps(b, a),
    _mm512_min_ps(b, a),
);
lower!(
    MaxPlus,
    combine(a, b) = _mm256_add_ps(a, b),
    _mm512_add_ps(a, b),
    reduce(a, b) = max_ps(a, b),
    max_ps512(a, b),
    fold = _mm256_max_ps(b, a),
    _mm512_max_ps(b, a),
);
lower!(
    MinMul,
    combine(a, b) = _mm256_mul_ps(a, b),
    _mm512_mul_ps(a, b),
    reduce(a, b) = min_ps(a, b),
    min_ps512(a, b),
    fold = _mm256_min_ps(b, a),
    _mm512_min_ps(b, a),
);
lower!(
    MaxMul,
    combine(a, b) = _mm256_mul_ps(a, b),
    _mm512_mul_ps(a, b),
    reduce(a, b) = max_ps(a, b),
    max_ps512(a, b),
    fold = _mm256_max_ps(b, a),
    _mm512_max_ps(b, a),
);
lower!(
    MinMax,
    combine(a, b) = max_ps(a, b),
    max_ps512(a, b),
    reduce(a, b) = min_ps(a, b),
    min_ps512(a, b),
    fold = _mm256_min_ps(b, a),
    _mm512_min_ps(b, a),
    ordered combine = _mm256_max_ps(b, a),
    _mm512_max_ps(b, a),
);
lower!(
    MaxMin,
    combine(a, b) = min_ps(a, b),
    min_ps512(a, b),
    reduce(a, b) = max_ps(a, b),
    max_ps512(a, b),
    fold = _mm256_max_ps(b, a),
    _mm512_max_ps(b, a),
    ordered combine = _mm256_min_ps(b, a),
    _mm512_min_ps(b, a),
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
// Chain leaves: the 16×16 tile kernel that owns the `tk` loop.
// ---------------------------------------------------------------------------

/// Whether a tile pair holds a NaN anywhere: one unordered compare per
/// row pair (`A` row `i` against `B` row `i` — either NaN sets the lane).
#[target_feature(enable = "avx512f")]
#[inline]
fn pair_has_nan_avx512(at: &[f32; CHAIN_ELEMS], bt: &[f32; CHAIN_ELEMS]) -> bool {
    let (a_rows, _) = at.as_chunks::<LANES512>();
    let (b_rows, _) = bt.as_chunks::<LANES512>();
    let mut nan = 0;
    for (ar, br) in a_rows.iter().zip(b_rows) {
        // SAFETY: `ar` and `br` are exactly 16 contiguous `f32`s.
        let (av, bv) = unsafe { (_mm512_loadu_ps(ar.as_ptr()), _mm512_loadu_ps(br.as_ptr())) };
        nan |= _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(av, bv);
    }
    nan != 0
}

/// [`pair_has_nan_avx512`] on 8-lane half rows.
#[target_feature(enable = "avx2")]
#[inline]
fn pair_has_nan_avx2(at: &[f32; CHAIN_ELEMS], bt: &[f32; CHAIN_ELEMS]) -> bool {
    let (a_halves, _) = at.as_chunks::<LANES256>();
    let (b_halves, _) = bt.as_chunks::<LANES256>();
    let mut nan = _mm256_setzero_ps();
    for (ah, bh) in a_halves.iter().zip(b_halves) {
        // SAFETY: `ah` and `bh` are exactly 8 contiguous `f32`s.
        let (av, bv) = unsafe { (_mm256_loadu_ps(ah.as_ptr()), _mm256_loadu_ps(bh.as_ptr())) };
        nan = _mm256_or_ps(nan, _mm256_cmp_ps::<_CMP_UNORD_Q>(av, bv));
    }
    _mm256_movemask_ps(nan) != 0
}

/// Defines one tier's chain leaf `$leaf` and its block helper `$fold`
/// from the tier's vector type parameters.
///
/// The leaf seeds the accumulator tile with `acc ⊕ id` — after which a
/// min/max/or accumulator is never NaN and a `+` accumulator never
/// `-0.0` — and then folds every tile pair of the chain into it in
/// ascending `k`: `acc[i][j] ← acc[i][j] ⊕ (A[i][k] ⊗ B[k][j])`, `⊗` and
/// `⊕` as two roundings, the accumulator as the `⊕`'s first operand —
/// the scalar leaf's order, so a chain of `t` pairs is one `16·t`-term
/// fold and equals the scalar leaf bit for bit.
///
/// A fold is one dependent `⊕` per term, so the helper interleaves
/// `$rows` output rows: it holds a `$rows`-row by one-vector block of
/// accumulators in registers across a tile pair's 16 `k` steps, each
/// step loading one vector of `B` row `k` and broadcasting the block's
/// `A` elements against it. The AVX-512 block is the whole tile (16 of
/// 32 `zmm`), the AVX2 block a quarter of it (8 of 16 `ymm`).
///
/// Every `⊕` of the fold is `fold_v`: its first operand is the seeded
/// accumulator. Three lowerings depend on what is being chained. Or-and
/// leaves for the tier's lane-mask chain, which never forms an `f32`
/// term. A semiring whose `⊗` selects (`SELECTS`) tests each tile pair
/// for NaN and forms the pair's terms with `combine_ord` when there is
/// none. `FUSED` (plus-mul only, through `super::FmaLanes`) folds each
/// term with one `$fma`, which is the same bits only on tile pairs whose
/// elements are finite and on the fp16 lattice.
macro_rules! chain_leaf {
    ($leaf:ident, $fold:ident, $feature:literal, $kernel:ident, $lanes:ident, $rows:literal,
     $load:ident, $splat:ident, $store:ident, $fma:ident, $has_nan:ident, $or_and:ident) => {
        /// One tile pair into one accumulator block: rows `a_rows` of
        /// the `A` tile against vector `h` of every `B` row. `ORD`
        /// forms the terms with `combine_ord`, which is the same bits
        /// only on a tile pair without NaN; `FUSED` folds each term with
        /// one fused multiply-add. Safe to call wherever the target
        /// feature is enabled.
        #[target_feature(enable = $feature)]
        #[inline]
        fn $fold<K: $kernel, const ORD: bool, const FUSED: bool>(
            a_rows: &[[f32; CHAIN_TILE]; $rows],
            b_rows: &[[f32; CHAIN_TILE]],
            h: usize,
            acc_rows: &mut [[f32; CHAIN_TILE]; $rows],
        ) {
            let mut r = [$splat(0.0); $rows];
            for (v, row) in r.iter_mut().zip(acc_rows.iter()) {
                // SAFETY: a chunk is exactly one vector of contiguous `f32`s.
                *v = unsafe { $load(row.as_chunks::<$lanes>().0[h].as_ptr()) };
            }
            for (k, b_row) in b_rows.iter().enumerate() {
                // SAFETY: as above.
                let bv = unsafe { $load(b_row.as_chunks::<$lanes>().0[h].as_ptr()) };
                for (v, a_row) in r.iter_mut().zip(a_rows) {
                    let av = $splat(a_row[k]);
                    // SAFETY: this function enables the feature.
                    *v = unsafe {
                        if FUSED {
                            $fma(av, bv, *v)
                        } else {
                            let term = if ORD {
                                K::combine_ord(av, bv)
                            } else {
                                K::combine_v(av, bv)
                            };
                            K::fold_v(*v, term)
                        }
                    };
                }
            }
            for (v, row) in r.iter().zip(acc_rows.iter_mut()) {
                // SAFETY: as the load; `row` is exclusively borrowed.
                unsafe { $store(row.as_chunks_mut::<$lanes>().0[h].as_mut_ptr(), *v) };
            }
        }

        /// # Safety
        ///
        /// * The CPU must support the leaf's target features.
        /// * `a` and `b` must hold the same whole number of flat
        ///   row-major 16×16 tiles, and `acc` exactly one (asserted by
        ///   `super::mmo_chain` and `super::FmaLanes::mmo_chain`).
        #[target_feature(enable = $feature)]
        pub(super) unsafe fn $leaf<K: $kernel, const FUSED: bool>(
            a: &[f32],
            b: &[f32],
            acc: &mut [f32],
        ) {
            if matches!(K::KIND, OpKind::OrAnd) {
                return $or_and(a, b, acc);
            }
            let (a_tiles, _) = a.as_chunks::<CHAIN_ELEMS>();
            let (b_tiles, _) = b.as_chunks::<CHAIN_ELEMS>();
            // `acc` is exactly one tile (asserted by the callers).
            let Some(acc) = acc.first_chunk_mut::<CHAIN_ELEMS>() else {
                return;
            };
            let id = $splat(K::IDENTITY);
            for lane in acc.as_chunks_mut::<$lanes>().0 {
                // SAFETY: `lane` is exactly one vector of contiguous
                // `f32`s, exclusively borrowed, and this leaf enables
                // the feature.
                unsafe { $store(lane.as_mut_ptr(), K::reduce_v($load(lane.as_ptr()), id)) };
            }
            let (acc_rows, _) = acc.as_chunks_mut::<CHAIN_TILE>();
            let (acc_blocks, _) = acc_rows.as_chunks_mut::<$rows>();
            for (at, bt) in a_tiles.iter().zip(b_tiles) {
                let (a_rows, _) = at.as_chunks::<CHAIN_TILE>();
                let (a_blocks, _) = a_rows.as_chunks::<$rows>();
                let (b_rows, _) = bt.as_chunks::<CHAIN_TILE>();
                let ordered = K::SELECTS && !$has_nan(at, bt);
                for (a_block, acc_block) in a_blocks.iter().zip(acc_blocks.iter_mut()) {
                    for h in 0..CHAIN_TILE / $lanes {
                        if ordered {
                            $fold::<K, true, FUSED>(a_block, b_rows, h, acc_block);
                        } else {
                            $fold::<K, false, FUSED>(a_block, b_rows, h, acc_block);
                        }
                    }
                }
            }
        }
    };
}

chain_leaf!(
    mmo_chain_avx512,
    fold_block_avx512,
    "avx512f",
    Kernel512,
    LANES512,
    16,
    _mm512_loadu_ps,
    _mm512_set1_ps,
    _mm512_storeu_ps,
    _mm512_fmadd_ps,
    pair_has_nan_avx512,
    or_and_chain_avx512
);
chain_leaf!(
    mmo_chain_avx2,
    fold_block_avx2,
    "avx2,fma",
    Kernel256,
    LANES256,
    8,
    _mm256_loadu_ps,
    _mm256_set1_ps,
    _mm256_storeu_ps,
    _mm256_fmadd_ps,
    pair_has_nan_avx2,
    or_and_chain_avx2
);

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
/// truthiness and writes only `1.0`/`0.0`, so the whole chain is
/// boolean: output `(i, j)` is truthy where the
/// accumulator was, or where some `A[i][k]` and `B[k][j]` both are.
/// Lanes stay output columns, as in every other leaf, but a lane holds
/// its column's 16 rows as bits: step `k` of a tile pair ORs column `k`
/// of `A` — the rows that read `B` row `k` — into the lanes where `B`
/// row `k` is truthy (one compare for the write mask, one lane
/// broadcast, one masked OR). `1.0`/`0.0` is materialised once, after
/// the last pair — what the term-by-term lowering leaves from the seed
/// `acc ⊕ 0.0` on, so an empty chain canonicalises `acc` too.
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
// Half-lane leaves: min-max and max-min chains on 32 fp16 lanes.
// ---------------------------------------------------------------------------

/// Row pairs `i`, `i + 8` of a tile: one accumulator of the half-lane
/// chain each.
const ROW_PAIRS: usize = CHAIN_TILE / 2;

/// What the fp16 images of a tile's rows said so far: the lanes where
/// the round trip was not exact (NaN included), where it met a NaN, and
/// where it met `±∞`.
#[derive(Clone, Copy, Default)]
struct HalfCheck {
    inexact: __mmask16,
    nan: __mmask16,
    infinite: __mmask16,
}

impl HalfCheck {
    /// The fp16 image of a 16-element row, recording what it says: one
    /// `vcvtps2ph`, one `vcvtph2ps` and three compares. An ordered equal
    /// compare is bit equality here, since the round trip keeps the sign
    /// of a zero.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn row(&mut self, row: &[f32; CHAIN_TILE]) -> __m256i {
        // SAFETY: `row` is exactly 16 contiguous `f32`s.
        let v = unsafe { _mm512_loadu_ps(row.as_ptr()) };
        let h = _mm512_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v);
        self.inexact |= !_mm512_cmp_ps_mask::<_CMP_EQ_OQ>(_mm512_cvtph_ps(h), v);
        self.nan |= _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(v, v);
        let inf = _mm512_set1_ps(f32::INFINITY);
        self.infinite |= _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(_mm512_abs_ps(v), inf);
        h
    }

    /// The tile's fit once every row is imaged.
    fn fit(self) -> HalfFit {
        HalfFit::of(self.nan != 0, self.inexact != 0, self.infinite != 0)
    }
}

/// The fits of whole tiles for the FMA lanes: [`HalfCheck`] over every
/// row, the images dropped.
///
/// # Safety
///
/// The CPU must support AVX-512F. (Shapes are bounds-checked, not
/// preconditions.)
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn fits_avx512(tiles: &[f32], fits: &mut [HalfFit]) {
    let (tiles, _) = tiles.as_chunks::<CHAIN_ELEMS>();
    for (tile, fit) in tiles.iter().zip(fits) {
        let mut check = HalfCheck::default();
        for row in tile.as_chunks::<CHAIN_TILE>().0 {
            check.row(row);
        }
        *fit = check.fit();
    }
}

/// [`fits_avx512`] on 8-lane half rows, converting with F16C.
///
/// # Safety
///
/// The CPU must support AVX2 and F16C. (Shapes are bounds-checked, not
/// preconditions.)
#[target_feature(enable = "avx2,f16c")]
pub(super) unsafe fn fits_avx2(tiles: &[f32], fits: &mut [HalfFit]) {
    let (tiles, _) = tiles.as_chunks::<CHAIN_ELEMS>();
    let inf = _mm256_set1_ps(f32::INFINITY);
    let magnitude = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
    for (tile, fit) in tiles.iter().zip(fits) {
        let [mut inexact, mut nan, mut infinite] = [_mm256_setzero_ps(); 3];
        for half in tile.as_chunks::<LANES256>().0 {
            // SAFETY: `half` is exactly 8 contiguous `f32`s.
            let v = unsafe { _mm256_loadu_ps(half.as_ptr()) };
            let q = _mm256_cvtph_ps(_mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v));
            inexact = _mm256_or_ps(inexact, _mm256_cmp_ps::<_CMP_NEQ_UQ>(q, v));
            nan = _mm256_or_ps(nan, _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v));
            let abs = _mm256_and_ps(v, magnitude);
            infinite = _mm256_or_ps(infinite, _mm256_cmp_ps::<_CMP_EQ_OQ>(abs, inf));
        }
        let any = |m: __m256| _mm256_movemask_ps(m) != 0;
        *fit = HalfFit::of(any(nan), any(inexact), any(infinite));
    }
}

/// The chain-`A` images of whole tiles: rows `i` and `i + 8` zero-extended
/// to 32-bit lanes, the second shifted into the high halves, so word `k`
/// of row pair `i` is what the chain leaf broadcasts against `B` row `k`.
///
/// # Safety
///
/// The CPU must support AVX-512F. (Shapes are bounds-checked, not
/// preconditions.)
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn half_image_a(tiles: &[f32], image: &mut [u32], fits: &mut [HalfFit]) {
    let (tiles, _) = tiles.as_chunks::<CHAIN_ELEMS>();
    let (words, _) = image.as_chunks_mut::<HALF_A_WORDS>();
    for ((tile, words), fit) in tiles.iter().zip(words).zip(fits) {
        let (rows, _) = tile.as_chunks::<CHAIN_TILE>();
        let (pairs, _) = words.as_chunks_mut::<CHAIN_TILE>();
        let mut check = HalfCheck::default();
        for (i, pair) in pairs.iter_mut().enumerate() {
            let low = _mm512_cvtepu16_epi32(check.row(&rows[i]));
            let high = _mm512_cvtepu16_epi32(check.row(&rows[i + ROW_PAIRS]));
            let w = _mm512_or_si512(low, _mm512_slli_epi32::<16>(high));
            // SAFETY: `pair` is exactly 16 writable `u32`s.
            unsafe { _mm512_storeu_si512(pair.as_mut_ptr().cast(), w) };
        }
        *fit = check.fit();
    }
}

/// The chain-`B` images of whole tiles: every fp16 value in both halves
/// of a 32-bit lane, so one load of row `k` meets both rows of a row
/// pair.
///
/// # Safety
///
/// The CPU must support AVX-512F. (Shapes are bounds-checked, not
/// preconditions.)
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn half_image_b(tiles: &[f32], image: &mut [u32], fits: &mut [HalfFit]) {
    let (tiles, _) = tiles.as_chunks::<CHAIN_ELEMS>();
    let (words, _) = image.as_chunks_mut::<HALF_B_WORDS>();
    for ((tile, words), fit) in tiles.iter().zip(words).zip(fits) {
        let (rows, _) = tile.as_chunks::<CHAIN_TILE>();
        let (out, _) = words.as_chunks_mut::<CHAIN_TILE>();
        let mut check = HalfCheck::default();
        for (row, out) in rows.iter().zip(out) {
            let w = _mm512_cvtepu16_epi32(check.row(row));
            let w = _mm512_or_si512(w, _mm512_slli_epi32::<16>(w));
            // SAFETY: `out` is exactly 16 writable `u32`s.
            unsafe { _mm512_storeu_si512(out.as_mut_ptr().cast(), w) };
        }
        *fit = check.fit();
    }
}

/// The half-lane chain of min-max (`K = MinMax`) or max-min (`K =
/// MaxMin`) over the images of whole tile pairs.
///
/// Eight accumulators hold the tile's row pairs, rows `i` and `i + 8`
/// interleaved: per `k`, one load of `B` row `k` (each value doubled)
/// meets eight broadcast words of `A` column `k`, and each lane forms
/// its term with the bare `⊗` instruction, the `A` element second
/// (`combine_ord`'s operand order), and folds it with the bare `⊕`, the
/// accumulator second (`fold_v`'s) — 16 ops for 512 lanes. The chain
/// starts from the identity in fp16; then each row converts back to
/// `f32` and folds once into `acc ⊕ id`, the seed the `f32` leaf takes.
///
/// # Safety
///
/// The CPU must support AVX-512F, AVX-512BW, AVX-512VL and AVX512-FP16.
/// (Shapes are bounds-checked, not preconditions.)
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512fp16")]
pub(super) unsafe fn half_chain_avx512<K: Kernel512>(a: &[u32], b: &[u32], acc: &mut [f32]) {
    let min_max = matches!(K::KIND, OpKind::MinMax);
    let combine = |a: __m512i, b: __m512i| {
        let (a, b) = (_mm512_castsi512_ph(a), _mm512_castsi512_ph(b));
        _mm512_castph_si512(if min_max {
            _mm512_max_ph(b, a)
        } else {
            _mm512_min_ph(b, a)
        })
    };
    let fold = |acc: __m512i, term: __m512i| {
        let (acc, term) = (_mm512_castsi512_ph(acc), _mm512_castsi512_ph(term));
        _mm512_castph_si512(if min_max {
            _mm512_min_ph(term, acc)
        } else {
            _mm512_max_ph(term, acc)
        })
    };
    let (a_tiles, _) = a.as_chunks::<HALF_A_WORDS>();
    let (b_tiles, _) = b.as_chunks::<HALF_B_WORDS>();
    let Some(acc) = acc.first_chunk_mut::<CHAIN_ELEMS>() else {
        return;
    };
    // ±∞ in binary16.
    let id = _mm512_set1_epi16(if min_max { 0x7c00 } else { 0xfc00_u16 as i16 });
    let mut r = [id; ROW_PAIRS];
    for (at, bt) in a_tiles.iter().zip(b_tiles) {
        let (b_rows, _) = bt.as_chunks::<CHAIN_TILE>();
        for (k, b_row) in b_rows.iter().enumerate() {
            // SAFETY: `b_row` is exactly 16 contiguous `u32`s.
            let bv = unsafe { _mm512_loadu_si512(b_row.as_ptr().cast()) };
            for (i, v) in r.iter_mut().enumerate() {
                let av = _mm512_set1_epi32(at[i * CHAIN_TILE + k] as i32);
                *v = fold(*v, combine(av, bv));
            }
        }
    }
    let (acc_rows, _) = acc.as_chunks_mut::<CHAIN_TILE>();
    let seed = _mm512_set1_ps(K::IDENTITY);
    for (i, v) in r.into_iter().enumerate() {
        let halves = [v, _mm512_srli_epi32::<16>(v)];
        for (row, half) in [i, i + ROW_PAIRS].into_iter().zip(halves) {
            let row = &mut acc_rows[row];
            let term = _mm512_cvtph_ps(_mm512_cvtepi32_epi16(half));
            // SAFETY: `row` is exactly 16 contiguous `f32`s, exclusively
            // borrowed, and this leaf enables AVX-512F.
            unsafe {
                let c = K::reduce_v(_mm512_loadu_ps(row.as_ptr()), seed);
                _mm512_storeu_ps(row.as_mut_ptr(), K::fold_v(c, term));
            }
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
            scalar::sweep_columns::<K>(scalar::walk(ks, vals), b, ldb, j0, &mut acc[j0..]);
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

// ---------------------------------------------------------------------------
// Scan leaves: what a skip decision reads off packed operands.
// ---------------------------------------------------------------------------

/// [`scalar::scan`] sixteen lanes at a time, the scalar leaf on the
/// tail. `x != zero` is the unordered-or-unequal predicate
/// (`_CMP_NEQ_UQ`: a NaN is stored, `-0.0` equals `0.0`), and each lane
/// counts its stored elements in `u32`, which the dispatcher's block
/// bound keeps from wrapping.
///
/// # Safety
///
/// The CPU must support AVX-512F. (Shapes are bounds-checked, not
/// preconditions.)
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn scan_avx512(zero: f32, xs: &[f32]) -> Scan {
    let (chunks, tail) = xs.as_chunks::<LANES512>();
    let (z, magnitude, one) = (
        _mm512_set1_ps(zero),
        _mm512_set1_epi32(0x7fff_ffff),
        _mm512_set1_epi32(1),
    );
    let (mut any, mut max_abs, mut stored) = (
        _mm512_setzero_si512(),
        _mm512_setzero_si512(),
        _mm512_setzero_si512(),
    );
    for chunk in chunks {
        // SAFETY: `chunk` is exactly 16 contiguous `f32`s.
        let v = unsafe { _mm512_loadu_ps(chunk.as_ptr()) };
        let bits = _mm512_castps_si512(v);
        any = _mm512_or_si512(any, bits);
        max_abs = _mm512_max_epu32(max_abs, _mm512_and_si512(bits, magnitude));
        let kept = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(v, z);
        stored = _mm512_mask_add_epi32(stored, kept, stored, one);
    }
    let head = Scan {
        any: _mm512_reduce_or_epi32(any) as u32,
        max_abs: _mm512_reduce_max_epu32(max_abs),
        stored: _mm512_reduce_add_epi32(stored) as u32 as usize,
    };
    head.merge(scalar::scan(zero, tail))
}

/// [`scan_avx512`] on eight lanes: the compare's all-ones lanes are
/// subtracted from the count.
///
/// # Safety
///
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn scan_avx2(zero: f32, xs: &[f32]) -> Scan {
    let (chunks, tail) = xs.as_chunks::<LANES256>();
    let (z, magnitude) = (_mm256_set1_ps(zero), _mm256_set1_epi32(0x7fff_ffff));
    let (mut any, mut max_abs, mut stored) = (
        _mm256_setzero_si256(),
        _mm256_setzero_si256(),
        _mm256_setzero_si256(),
    );
    for chunk in chunks {
        // SAFETY: `chunk` is exactly 8 contiguous `f32`s.
        let v = unsafe { _mm256_loadu_ps(chunk.as_ptr()) };
        let bits = _mm256_castps_si256(v);
        any = _mm256_or_si256(any, bits);
        max_abs = _mm256_max_epu32(max_abs, _mm256_and_si256(bits, magnitude));
        let kept = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_NEQ_UQ>(v, z));
        stored = _mm256_sub_epi32(stored, kept);
    }
    let lanes = |v: __m256i| {
        let mut out = [0u32; LANES256];
        // SAFETY: `out` is exactly one 256-bit vector of writable bytes.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), v) };
        out
    };
    let head = Scan {
        any: lanes(any).into_iter().fold(0, |x, y| x | y),
        max_abs: lanes(max_abs).into_iter().fold(0, u32::max),
        stored: lanes(stored).into_iter().map(|n| n as usize).sum(),
    };
    head.merge(scalar::scan(zero, tail))
}

// ---------------------------------------------------------------------------
// Compaction leaves: the stored elements of a row and their indices.
// ---------------------------------------------------------------------------

/// Set bits of each 8-bit keep mask: a table load, where the baseline
/// target (no `popcnt`) would count them in a dozen instructions.
static KEPT8: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut mask = 0;
    while mask < 256 {
        table[mask] = (mask as u32).count_ones() as u8;
        mask += 1;
    }
    table
};

/// [`scalar::compact`] sixteen lanes at a time, the scalar leaf on the
/// tail: the `_CMP_NEQ_UQ` mask of `x != zero` (a NaN is kept, `±0.0`
/// against `0.0` dropped) drives `vcompressps` on the values and
/// `vpcompressd` on a running index vector, and each packed run is
/// written with a store masked to its length, into a span the slice
/// bounds checked first. `SPARSE`
/// skips a vector that keeps nothing: a branch that pays while most
/// vectors keep nothing, and mispredicts once many keep something.
///
/// # Safety
///
/// The CPU must support AVX-512F. (Shapes are bounds-checked, not
/// preconditions; `xs` is at most `u32::MAX` elements, asserted by the
/// dispatcher.)
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn compact_avx512<const SPARSE: bool>(
    zero: f32,
    xs: &[f32],
    cols: &mut [u32],
    vals: &mut [f32],
) -> usize {
    let (chunks, tail) = xs.as_chunks::<LANES512>();
    let z = _mm512_set1_ps(zero);
    let step = _mm512_set1_epi32(LANES512 as i32);
    let mut index = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let mut kept = 0;
    for chunk in chunks {
        // SAFETY: `chunk` is exactly 16 contiguous `f32`s.
        let v = unsafe { _mm512_loadu_ps(chunk.as_ptr()) };
        let keep = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(v, z);
        if !SPARSE || keep != 0 {
            let n = usize::from(KEPT8[usize::from(keep as u8)] + KEPT8[usize::from(keep >> 8)]);
            let (packed, at) = (
                _mm512_maskz_compress_ps(keep, v),
                _mm512_maskz_compress_epi32(keep, index),
            );
            let (span_v, span_c) = (&mut vals[kept..kept + n], &mut cols[kept..kept + n]);
            let lanes = ((1u32 << n) - 1) as u16;
            // SAFETY (both stores): the mask enables the first `n` lanes
            // only, and the spans are `n` writable elements.
            unsafe { _mm512_mask_storeu_ps(span_v.as_mut_ptr(), lanes, packed) };
            unsafe { _mm512_mask_storeu_epi32(span_c.as_mut_ptr().cast(), lanes, at) };
            kept += n;
        }
        index = _mm512_add_epi32(index, step);
    }
    let first = xs.len() - tail.len();
    kept + scalar::compact(zero, tail, first, &mut cols[kept..], &mut vals[kept..])
}

/// For each 8-bit keep mask, the lanes it keeps in order, one per
/// nibble: the permutation that packs them to the front of a 256-bit
/// vector (AVX2 has no compress instruction).
static COMPRESS8: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut mask = 0;
    while mask < 256 {
        let (mut lane, mut slot) = (0, 0);
        while lane < LANES256 {
            if mask >> lane & 1 == 1 {
                table[mask] |= (lane as u32) << (4 * slot);
                slot += 1;
            }
            lane += 1;
        }
        mask += 1;
    }
    table
};

/// [`compact_avx512`] on eight lanes: the compare's sign-bit mask picks
/// a lane permutation from [`COMPRESS8`], which packs the values and a
/// running index vector alike, and the stores are masked by a lane
/// vector compared against the count.
///
/// # Safety
///
/// The CPU must support AVX2. (Shapes are bounds-checked, not
/// preconditions; `xs` is at most `u32::MAX` elements, asserted by the
/// dispatcher.)
#[target_feature(enable = "avx2")]
pub(super) unsafe fn compact_avx2<const SPARSE: bool>(
    zero: f32,
    xs: &[f32],
    cols: &mut [u32],
    vals: &mut [f32],
) -> usize {
    let (chunks, tail) = xs.as_chunks::<LANES256>();
    let z = _mm256_set1_ps(zero);
    let (nibble, shifts) = (
        _mm256_set1_epi32(0xf),
        _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28),
    );
    let step = _mm256_set1_epi32(LANES256 as i32);
    let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let mut index = lane;
    let mut kept = 0;
    for chunk in chunks {
        // SAFETY: `chunk` is exactly 8 contiguous `f32`s.
        let v = unsafe { _mm256_loadu_ps(chunk.as_ptr()) };
        let keep = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_NEQ_UQ>(v, z)) as usize;
        if !SPARSE || keep != 0 {
            let n = usize::from(KEPT8[keep]);
            let lanes = _mm256_set1_epi32(COMPRESS8[keep] as i32);
            let order = _mm256_and_si256(_mm256_srlv_epi32(lanes, shifts), nibble);
            let (packed, at) = (
                _mm256_permutevar8x32_ps(v, order),
                _mm256_permutevar8x32_epi32(index, order),
            );
            let (span_v, span_c) = (&mut vals[kept..kept + n], &mut cols[kept..kept + n]);
            let first_n = _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), lane);
            // SAFETY (both stores): the mask enables the first `n` lanes
            // only, and the spans are `n` writable elements.
            unsafe { _mm256_maskstore_ps(span_v.as_mut_ptr(), first_n, packed) };
            unsafe { _mm256_maskstore_epi32(span_c.as_mut_ptr().cast(), first_n, at) };
            kept += n;
        }
        index = _mm256_add_epi32(index, step);
    }
    let first = xs.len() - tail.len();
    kept + scalar::compact(zero, tail, first, &mut cols[kept..], &mut vals[kept..])
}

// ---------------------------------------------------------------------------
// Bit-row leaves: or-and folds on rows of truthiness bits.
// ---------------------------------------------------------------------------

/// `u64` words of a bit row in a 512-bit vector.
const WORDS512: usize = 8;
/// `u64` words of a bit row in a 256-bit vector.
const WORDS256: usize = 4;
/// `u64` words of a bit row in a 128-bit vector.
const WORDS128: usize = 2;
/// Vectors of accumulator one pass of [`or_rows_avx512`] /
/// [`or_rows_avx2`] keeps in registers: wider rows walk `pick` once per
/// block of this many.
const OR_BLOCK: usize = 4;

/// [`scalar::truthy_bits`] sixty-four elements a word: four
/// `_CMP_NEQ_UQ` masks against `0.0` (a NaN is truthy, `-0.0` is not)
/// make one word; the scalar leaf writes the tail and clears the rest.
///
/// # Safety
///
/// The CPU must support AVX-512F. (Shapes are bounds-checked, not
/// preconditions.)
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn truthy_bits_avx512(xs: &[f32], bits: &mut [u64]) -> bool {
    let (chunks, tail) = xs.as_chunks::<BIT_WORD>();
    let (head, rest) = bits.split_at_mut(chunks.len());
    let zero = _mm512_setzero_ps();
    let mut any = 0;
    for (word, chunk) in head.iter_mut().zip(chunks) {
        let (quarters, _) = chunk.as_chunks::<LANES512>();
        *word = 0;
        for (q, quarter) in quarters.iter().enumerate() {
            // SAFETY: `quarter` is exactly 16 contiguous `f32`s.
            let v = unsafe { _mm512_loadu_ps(quarter.as_ptr()) };
            *word |= u64::from(_mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(v, zero)) << (LANES512 * q);
        }
        any |= *word;
    }
    scalar::truthy_bits(tail, rest) | (any != 0)
}

/// [`truthy_bits_avx512`] on eight lanes: the compare's sign bits
/// (`movmskps`) make a byte of the word.
///
/// # Safety
///
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn truthy_bits_avx2(xs: &[f32], bits: &mut [u64]) -> bool {
    let (chunks, tail) = xs.as_chunks::<BIT_WORD>();
    let (head, rest) = bits.split_at_mut(chunks.len());
    let zero = _mm256_setzero_ps();
    let mut any = 0;
    for (word, chunk) in head.iter_mut().zip(chunks) {
        let (eighths, _) = chunk.as_chunks::<LANES256>();
        *word = 0;
        for (e, eighth) in eighths.iter().enumerate() {
            // SAFETY: `eighth` is exactly 8 contiguous `f32`s.
            let v = unsafe { _mm256_loadu_ps(eighth.as_ptr()) };
            let truthy = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_NEQ_UQ>(v, zero)) as u8;
            *word |= u64::from(truthy) << (LANES256 * e);
        }
        any |= *word;
    }
    scalar::truthy_bits(tail, rest) | (any != 0)
}

/// Bit `4g` set where nibble `g` of `word` is not zero.
#[inline(always)]
fn nonzero_nibbles(word: u64) -> u64 {
    let x = word | word >> 1;
    (x | x >> 2) & 0x1111_1111_1111_1111
}

/// The OR leaves' block: words `j0..j0 + Z·W` of `acc`'s row, held in
/// `Z` vectors across the whole walk of `pick` — per nonzero nibble,
/// one load and one OR per vector of the table row it selects (rows
/// `words` words long), found with a `tzcnt` over the nonzero nibbles.
macro_rules! or_block {
    ($name:ident, $feature:literal, $words:ident, $vec:ty, $load:ident, $or:ident, $store:ident) => {
        /// # Safety
        ///
        /// The CPU must support the leaf's feature; `table` holds
        /// [`super::table_words`]`(pick.len(), words)` words, and
        /// `j0 + W·Z ≤ words`.
        #[target_feature(enable = $feature)]
        #[inline]
        unsafe fn $name<const Z: usize>(
            pick: &[u64],
            table: &[u64],
            words: usize,
            j0: usize,
            acc: &mut [[u64; $words]; Z],
        ) {
            // SAFETY (loads and stores of `acc`): every pointer is to
            // exactly one vector's `u64`s, of a borrowed fixed-size array.
            let mut v: [$vec; Z] = acc.map(|a| unsafe { $load(a.as_ptr().cast()) });
            for (w, &word) in pick.iter().enumerate() {
                let mut nz = nonzero_nibbles(word);
                let first = w * BIT_WORD / TABLE_GROUP * TABLE_ENTRIES;
                while nz != 0 {
                    let t = nz.trailing_zeros() as usize;
                    nz &= nz - 1;
                    let row = first
                        + t / TABLE_GROUP * TABLE_ENTRIES
                        + (word >> t) as usize % TABLE_ENTRIES;
                    // SAFETY: `row` is below `pick.len()` groups of
                    // entries, and the caller guarantees the table holds
                    // all of them, `words` words each, of which this
                    // block reads `j0..j0 + W·Z`.
                    let at = unsafe { table.as_ptr().add(row * words + j0) };
                    for (z, v) in v.iter_mut().enumerate() {
                        *v = $or(*v, unsafe { $load(at.add(z * $words).cast()) });
                    }
                }
            }
            for (v, a) in v.iter().zip(acc.iter_mut()) {
                unsafe { $store(a.as_mut_ptr().cast(), *v) };
            }
        }
    };
}

or_block!(
    or_block_avx512,
    "avx512f",
    WORDS512,
    __m512i,
    _mm512_loadu_si512,
    _mm512_or_si512,
    _mm512_storeu_si512
);
or_block!(
    or_block_avx2,
    "avx2",
    WORDS256,
    __m256i,
    _mm256_loadu_si256,
    _mm256_or_si256,
    _mm256_storeu_si256
);
or_block!(
    or_block_sse2,
    "avx2",
    WORDS128,
    __m128i,
    _mm_loadu_si128,
    _mm_or_si128,
    _mm_storeu_si128
);

/// [`scalar::or_rows`] on 512-bit accumulators, [`OR_BLOCK`] at a time
/// in registers across the walk of `pick`; words that fill no 512-bit
/// vector go to [`or_rows_avx2`]'s blocks and the scalar leaf.
///
/// # Safety
///
/// The CPU must support AVX-512F, and `table` must hold
/// [`super::table_words`]`(pick.len(), acc.len())` words (asserted by
/// the dispatcher).
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn or_rows_avx512(pick: &[u64], table: &[u64], acc: &mut [u64]) {
    let words = acc.len();
    let (vectors, tail) = acc.as_chunks_mut::<WORDS512>();
    let done = WORDS512 * vectors.len();
    let (blocks, rest) = vectors.as_chunks_mut::<OR_BLOCK>();
    let mut at = 0;
    // SAFETY (every block): the caller's table bound, and each block's
    // words lie inside the row.
    for block in blocks {
        unsafe { or_block_avx512(pick, table, words, at, block) };
        at += WORDS512 * OR_BLOCK;
    }
    for a in rest {
        unsafe { or_block_avx512::<1>(pick, table, words, at, std::array::from_mut(a)) };
        at += WORDS512;
    }
    unsafe { or_words_avx2(pick, table, words, done, tail) };
}

/// [`or_rows_avx512`] on 256-bit accumulators.
///
/// # Safety
///
/// The CPU must support AVX2, and `table` must hold
/// [`super::table_words`]`(pick.len(), acc.len())` words (asserted by
/// the dispatcher).
#[target_feature(enable = "avx2")]
pub(super) unsafe fn or_rows_avx2(pick: &[u64], table: &[u64], acc: &mut [u64]) {
    // SAFETY: the caller's contract is this one's.
    unsafe { or_words_avx2(pick, table, acc.len(), 0, acc) };
}

/// Words `j0..j0 + acc.len()` of a `words`-word accumulator row, in
/// blocks of [`OR_BLOCK`] 256-bit vectors and then one vector at a
/// time, a 128-bit vector on two words left over (a 128-column row is
/// nothing else), the scalar leaf on a last odd word.
///
/// # Safety
///
/// The CPU must support AVX2; `table` holds
/// [`super::table_words`]`(pick.len(), words)` words, and
/// `j0 + acc.len() ≤ words`.
#[target_feature(enable = "avx2")]
unsafe fn or_words_avx2(pick: &[u64], table: &[u64], words: usize, j0: usize, acc: &mut [u64]) {
    let (vectors, tail) = acc.as_chunks_mut::<WORDS256>();
    let done = j0 + WORDS256 * vectors.len();
    let (blocks, rest) = vectors.as_chunks_mut::<OR_BLOCK>();
    let mut at = j0;
    // SAFETY (every block): the caller's table bound, and each block's
    // words lie inside the row.
    for block in blocks {
        unsafe { or_block_avx2(pick, table, words, at, block) };
        at += WORDS256 * OR_BLOCK;
    }
    for a in rest {
        unsafe { or_block_avx2::<1>(pick, table, words, at, std::array::from_mut(a)) };
        at += WORDS256;
    }
    let (pair, odd) = tail.as_chunks_mut::<WORDS128>();
    if let Some(pair) = pair.first_mut() {
        // SAFETY: as for the blocks.
        unsafe { or_block_sse2::<1>(pick, table, words, at, std::array::from_mut(pair)) };
    }
    scalar::or_rows(pick, table, words, done + WORDS128 * pair.len(), odd);
}

/// [`scalar::bits_to_f32`] sixteen lanes at a time: each 16-bit slice of
/// a word is the write mask of a zero-masked move of `1.0`.
///
/// # Safety
///
/// The CPU must support AVX-512F. (Shapes are bounds-checked, not
/// preconditions.)
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn bits_to_f32_avx512(bits: &[u64], out: &mut [f32]) {
    let (chunks, tail) = out.as_chunks_mut::<BIT_WORD>();
    let one = _mm512_set1_ps(1.0);
    for (chunk, &word) in chunks.iter_mut().zip(bits) {
        let (quarters, _) = chunk.as_chunks_mut::<LANES512>();
        for (q, quarter) in quarters.iter_mut().enumerate() {
            let v = _mm512_maskz_mov_ps((word >> (LANES512 * q)) as u16, one);
            // SAFETY: `quarter` is exactly 16 contiguous `f32`s,
            // exclusively borrowed.
            unsafe { _mm512_storeu_ps(quarter.as_mut_ptr(), v) };
        }
    }
    scalar::bits_to_f32(&bits[chunks.len()..], tail);
}

/// [`bits_to_f32_avx512`] on eight lanes: a byte of the word, broadcast
/// and tested against one bit per lane, masks `1.0`.
///
/// # Safety
///
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn bits_to_f32_avx2(bits: &[u64], out: &mut [f32]) {
    let (chunks, tail) = out.as_chunks_mut::<BIT_WORD>();
    let one = _mm256_set1_ps(1.0);
    let lane_bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    for (chunk, &word) in chunks.iter_mut().zip(bits) {
        let (eighths, _) = chunk.as_chunks_mut::<LANES256>();
        for (e, eighth) in eighths.iter_mut().enumerate() {
            let byte = _mm256_set1_epi32((word >> (LANES256 * e)) as i32 & 0xff);
            let on = _mm256_cmpeq_epi32(_mm256_and_si256(byte, lane_bits), lane_bits);
            let v = _mm256_and_ps(_mm256_castsi256_ps(on), one);
            // SAFETY: `eighth` is exactly 8 contiguous `f32`s,
            // exclusively borrowed.
            unsafe { _mm256_storeu_ps(eighth.as_mut_ptr(), v) };
        }
    }
    scalar::bits_to_f32(&bits[chunks.len()..], tail);
}
