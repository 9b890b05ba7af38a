//! The x86-64 vector leaves, each written once over [`Width`] — the
//! `f32` vector of a tier: `__m512` (AVX-512F) or `__m256` (AVX2 + FMA +
//! F16C).
//!
//! # Safety contract
//!
//! * [`Width::enter`] is each tier's one `#[target_feature]` entry: it
//!   runs a closure with the tier's features enabled, and its caller
//!   must have verified that the CPU supports them (`super` enters it
//!   only behind [`KernelIsa::is_supported`](super::KernelIsa::is_supported)).
//!   Every other [`Width`] op and every generic leaf here (`#[inline(always)]`,
//!   so it dissolves into the `enter` that runs it) has the one
//!   precondition that the tier's features (which imply its
//!   [`Width::Tail`]'s) are enabled on the calling stack — what running
//!   inside `enter` provides.
//! * One leaf stays per tier, as a [`Width`] op, because its algorithm
//!   differs by width: compaction (`vcompressps` on AVX-512 against the
//!   [`COMPRESS8`] permutation table on AVX2; probe rows `compact.*` of
//!   `crates/semiring/tests/leaf_rates.rs`). The fp16 image and
//!   half-chain leaves exist on AVX-512 only and are `#[target_feature]`
//!   functions of their own, entered behind a
//!   [`HalfLanes`](super::HalfLanes) value.
//! * Chain leaves: `a` and `b` are the same whole number of flat 16×16
//!   tiles and the accumulator exactly one (asserted by
//!   `super::mmo_chain` and `super::FmaLanes::mmo_chain`); they index
//!   through fixed-size chunks, so every vector access is a whole vector
//!   of a 16-element row. [`or_rows`] reads its bit table unchecked: the
//!   table must hold every row a pick can select (asserted by
//!   `super::or_rows`). Every other leaf has no shape precondition —
//!   every vector access goes through a bounds-checked slice.
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
//!   one is NaN, the first on a tie). [`Width::select_min`] /
//!   [`Width::select_max`] wrap them in a NaN-aware blend (a write mask
//!   on AVX-512, where the ordered-compare mask folds the blend into the
//!   `min`/`max` itself) that reproduces the scalar semantics exactly
//!   (validated lane-wise over NaN payloads, sNaN, ±0, infinities and
//!   denormals). The wrapper only differs from the bare instruction,
//!   operands swapped, in lanes whose first operand is NaN. A chain's
//!   accumulator is the first operand of every `⊕` and, from its seed
//!   `acc ⊕ id` on, never NaN, so the chain leaves fold all six min/max
//!   semirings on the bare instruction ([`reduce`] with `ACC`): the same bits, ±0
//!   ties and NaN terms included, in one op instead of two (three on
//!   AVX2). The `⊗` of min-max and max-min is a `min`/`max` of two
//!   operand elements, either of which can be NaN, so its bare form
//!   ([`combine`] with `ORD`) needs a tile pair that holds no NaN: the test is
//!   per tile pair, and a pair with a NaN anywhere keeps the wrapper.
//! * min-max / max-min on fp16 lanes ([`half_chain`]) — the same bare
//!   instructions on 32 half lanes: `vminph`/`vmaxph` return the second
//!   operand on a tie and on a NaN, exactly as `vminps`/`vmaxps` do. They
//!   run only on tile pairs whose images are exact (no NaN, every element
//!   on the fp16 lattice, checked as the image is built), and every term
//!   of these two ops is an operand element, so each term and the fold
//!   from the identity are the `f32` fold's values in fp16. The chain's
//!   result converts back exactly and folds once into the `f32`-seeded
//!   accumulator with [`reduce`]: "the first element to reach the extreme"
//!   is associative under concatenation, so a seed that reaches it wins,
//!   and otherwise the first term that does — `±0` included, with no
//!   canonicalisation.
//! * or-and — truthiness is `x != 0.0` with NaN truthy, which is the
//!   unordered-or-unequal predicate `_CMP_NEQ_UQ`; the boolean result is
//!   materialised as `1.0`/`0.0` by masking a splat of `1.0`. The chain
//!   leaves do that once per chain: operands are compared to bit masks
//!   as they are read and the `k` loop is AND/OR on those bits
//!   ([`or_and_chain`]). Every `⊕` of the term-by-term lowering,
//!   the seed `acc ⊕ 0.0` first of all, canonicalises to `1.0`/`0.0`, so
//!   the stored tile is the same. The engine's bit walk takes that one
//!   step further, on whole rows: [`truthy_bits`] compares rows to bit
//!   rows (64 elements a word), [`or_rows`] ORs the table rows an `A`
//!   row's nonzero nibbles select into an accumulator held in registers,
//!   and [`bits_to_f32`] writes `1.0`/`0.0` once per row — OR being exact
//!   and order-free, every tier and grouping gives the same bits.
//! * fp16 quantisation — the hardware round trip, with the software
//!   NaN payload rule on NaN lanes; see [`Width::quantize`].

use core::arch::x86_64::*;

use crate::kernel::SemiringKernel;
use crate::OpKind;

use super::{
    scalar, HalfFit, Scan, BIT_WORD, CHAIN_ELEMS, CHAIN_TILE, HALF_A_WORDS, HALF_B_WORDS,
    SWEEP_STRIP, TABLE_ENTRIES, TABLE_GROUP,
};

/// One x86 vector tier, implemented by its `f32` vector type: the ops
/// the generic leaves are written in, the tier's one feature-enabled
/// entry ([`enter`](Width::enter)) and the leaf that stays per tier.
///
/// Every op but `enter` is `unsafe` because it requires the tier's
/// target features enabled on the calling stack (and the word ops, a
/// valid pointer).
pub(super) trait Width: Copy {
    /// `f32` lanes per vector.
    const LANES: usize;
    /// A compare's lane mask: one bit per lane on AVX-512, all-ones
    /// lanes on AVX2.
    type Mask: Copy;
    /// The integer vector of the same width.
    type Int: Copy;
    /// The 256-bit tier, whose features this one's imply: [`or_rows`] ends rows in it.
    type Tail: Width;

    /// Runs `f(a, b, c, d, e)` with the tier's target features enabled:
    /// the tier's one `#[target_feature]` entry, inside which every
    /// generic leaf inlines. The leaf's operands are `enter`'s own
    /// arguments (`()` where a leaf takes fewer), not captures of `f`,
    /// so a call passes them in registers, as a direct call of the leaf
    /// would, and can be a tail call.
    ///
    /// # Safety
    ///
    /// The CPU must support the tier's target features.
    unsafe fn enter<A, B, C, D, E, R, F>(a: A, b: B, c: C, d: D, e: E, f: F) -> R
    where
        F: FnOnce(A, B, C, D, E) -> R;

    /// The first [`LANES`](Width::LANES) elements of `x` (panics if `x`
    /// is shorter).
    unsafe fn load(x: &[f32]) -> Self;
    /// Writes the vector to the first [`LANES`](Width::LANES) elements
    /// of `x` (panics if `x` is shorter).
    unsafe fn store(self, x: &mut [f32]);
    /// `x` in every lane.
    unsafe fn splat(x: f32) -> Self;
    /// `self + b`.
    unsafe fn add(self, b: Self) -> Self;
    /// `self · b`.
    unsafe fn mul(self, b: Self) -> Self;
    /// `self − b`.
    unsafe fn sub(self, b: Self) -> Self;
    /// `self · b + c`, rounded once.
    unsafe fn fmadd(self, b: Self, c: Self) -> Self;
    /// The bare `vminps self, b`: `b` on a tie or a NaN.
    unsafe fn min(self, b: Self) -> Self;
    /// The bare `vmaxps self, b`: `b` on a tie or a NaN.
    unsafe fn max(self, b: Self) -> Self;
    /// Lane-wise `select_min(self, b)` (`crate::typed`): the other
    /// operand where one is NaN, `self` on a tie.
    unsafe fn select_min(self, b: Self) -> Self;
    /// Lane-wise `select_max(self, b)`.
    unsafe fn select_max(self, b: Self) -> Self;
    /// The lanes where the `_CMP_*` predicate `P` holds of `self` and `b`.
    unsafe fn cmp<const P: i32>(self, b: Self) -> Self::Mask;
    /// Lanes set in both masks.
    unsafe fn and(a: Self::Mask, b: Self::Mask) -> Self::Mask;
    /// Lanes set in either mask.
    unsafe fn or(a: Self::Mask, b: Self::Mask) -> Self::Mask;
    /// The mask as lane bits: bit `i` for lane `i`.
    unsafe fn bits(m: Self::Mask) -> u32;
    /// The mask of lane bits `bits` (those past the lanes ignored).
    unsafe fn from_bits(bits: u32) -> Self::Mask;
    /// `1.0` in the lanes of `m`, `+0.0` elsewhere.
    unsafe fn ones(m: Self::Mask) -> Self;
    /// The sign bit cleared.
    unsafe fn abs(self) -> Self;
    /// The fp16 round trip, bit-identical to
    /// [`crate::precision::quantize_f16`] on all 2³² `f32` bit patterns
    /// (`quantiser_matches_the_scalar_round_trip_on_every_bit_pattern` in
    /// `tests/proptest_simd.rs`, run by `scripts/verify.sh --full`).
    ///
    /// The round trip is the hardware's (`vcvtps2ph` with RNE, then
    /// `vcvtph2ps`): rounding, subnormal targets, overflow to infinity
    /// and signed zeros are IEEE on both sides. Only NaN differs: the
    /// hardware keeps the sign, quietens and truncates the payload to its
    /// top ten bits, and the software round trip additionally sets the
    /// lowest payload bit in each direction — bits 13 and 0 of the result
    /// — which NaN lanes get OR-ed in.
    unsafe fn quantize(self) -> Self;
    /// The bare hardware fp16 round trip: [`quantize`](Width::quantize)
    /// but for NaN payloads.
    unsafe fn round_trip(self) -> Self;
    /// The lanes' bits as integers.
    unsafe fn cast(self) -> Self::Int;
    /// Integer OR.
    unsafe fn or_int(a: Self::Int, b: Self::Int) -> Self::Int;
    /// Lane-wise unsigned `u32` maximum.
    unsafe fn max_u32(a: Self::Int, b: Self::Int) -> Self::Int;
    /// `acc + 1` in the lanes of `m`.
    unsafe fn count(acc: Self::Int, m: Self::Mask) -> Self::Int;
    /// The OR of `any`'s `u32` lanes, the largest of `max`'s and the
    /// wrapping sum of `sum`'s.
    unsafe fn reduce(any: Self::Int, max: Self::Int, sum: Self::Int) -> [u32; 3];
    /// The first `n ≤ LANES / 2` `u64` words at `p`, zeros past them;
    /// `p` must also be valid for reads of `n` words.
    unsafe fn load_words(p: *const u64, n: usize) -> Self::Int;
    /// Writes the first `n ≤ LANES / 2` `u64` words of `x` to `p`, which
    /// must also be valid for writes of `n` words.
    unsafe fn store_words(x: Self::Int, p: *mut u64, n: usize);
    /// `acc | x` in the lanes of `m`, `acc` elsewhere.
    unsafe fn or_where(acc: Self::Int, m: Self::Mask, x: Self::Int) -> Self::Int;
    /// Lane `k < LANES` of `x` in every lane.
    unsafe fn lane(x: Self::Int, k: usize) -> Self::Int;
    /// The lanes of `x` where `bit` is set.
    unsafe fn test(x: Self::Int, bit: u32) -> Self::Mask;

    /// [`scalar::compact`] on this tier: the stored elements of `xs`
    /// (`x != zero` by `_CMP_NEQ_UQ`: a NaN is kept, `±0.0` against
    /// `0.0` dropped) and their indices packed to the fronts of `vals`
    /// and `cols`, each packed run written with a store masked to its
    /// length into a span the slice bounds checked first, the scalar
    /// leaf on the tail. `SPARSE` skips a vector that keeps nothing: a
    /// branch that pays while most vectors keep nothing, and mispredicts
    /// once many keep something. Per tier: AVX-512 packs with
    /// `vcompressps`, which AVX2 lacks.
    ///
    /// # Safety
    ///
    /// Also: `xs` is at most `u32::MAX` elements (asserted by the
    /// dispatcher).
    unsafe fn compact<const SPARSE: bool>(
        zero: f32,
        xs: &[f32],
        cols: &mut [u32],
        vals: &mut [f32],
    ) -> usize;
}

impl Width for __m512 {
    const LANES: usize = 16;
    type Mask = __mmask16;
    type Int = __m512i;
    type Tail = __m256;

    #[target_feature(enable = "avx512f")]
    unsafe fn enter<A, B, C, D, E, R, F>(a: A, b: B, c: C, d: D, e: E, f: F) -> R
    where
        F: FnOnce(A, B, C, D, E) -> R,
    {
        f(a, b, c, d, e)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load(x: &[f32]) -> Self {
        let x = &x[..Self::LANES];
        // SAFETY: `x` is exactly one vector of contiguous `f32`s.
        unsafe { _mm512_loadu_ps(x.as_ptr()) }
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store(self, x: &mut [f32]) {
        let x = &mut x[..Self::LANES];
        // SAFETY: `x` is exactly one vector of `f32`s, exclusively borrowed.
        unsafe { _mm512_storeu_ps(x.as_mut_ptr(), self) }
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn splat(x: f32) -> Self {
        _mm512_set1_ps(x)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn add(self, b: Self) -> Self {
        _mm512_add_ps(self, b)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn mul(self, b: Self) -> Self {
        _mm512_mul_ps(self, b)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn sub(self, b: Self) -> Self {
        _mm512_sub_ps(self, b)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn fmadd(self, b: Self, c: Self) -> Self {
        _mm512_fmadd_ps(self, b, c)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn min(self, b: Self) -> Self {
        _mm512_min_ps(self, b)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn max(self, b: Self) -> Self {
        _mm512_max_ps(self, b)
    }
    // `vminps b, self` where `self` is ordered, `b` where it is NaN —
    // the mask folds the blend into the min itself (two ops, not three).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn select_min(self, b: Self) -> Self {
        _mm512_mask_min_ps(b, _mm512_cmp_ps_mask::<_CMP_ORD_Q>(self, self), b, self)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn select_max(self, b: Self) -> Self {
        _mm512_mask_max_ps(b, _mm512_cmp_ps_mask::<_CMP_ORD_Q>(self, self), b, self)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn cmp<const P: i32>(self, b: Self) -> __mmask16 {
        _mm512_cmp_ps_mask::<P>(self, b)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn and(a: __mmask16, b: __mmask16) -> __mmask16 {
        a & b
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn or(a: __mmask16, b: __mmask16) -> __mmask16 {
        a | b
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn bits(m: __mmask16) -> u32 {
        u32::from(m)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn from_bits(bits: u32) -> __mmask16 {
        bits as __mmask16
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn ones(m: __mmask16) -> Self {
        _mm512_maskz_mov_ps(m, _mm512_set1_ps(1.0))
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn abs(self) -> Self {
        _mm512_abs_ps(self)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn quantize(self) -> Self {
        let half = _mm512_cvtps_ph::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(self);
        let q = _mm512_castps_si512(_mm512_cvtph_ps(half));
        let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(self, self);
        _mm512_castsi512_ps(_mm512_mask_or_epi32(q, nan, q, _mm512_set1_epi32(0x2001)))
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn round_trip(self) -> Self {
        _mm512_cvtph_ps(_mm512_cvtps_ph::<
            { _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC },
        >(self))
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn cast(self) -> __m512i {
        _mm512_castps_si512(self)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn or_int(a: __m512i, b: __m512i) -> __m512i {
        _mm512_or_si512(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn max_u32(a: __m512i, b: __m512i) -> __m512i {
        _mm512_max_epu32(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn count(acc: __m512i, m: __mmask16) -> __m512i {
        _mm512_mask_add_epi32(acc, m, acc, _mm512_set1_epi32(1))
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn reduce(any: __m512i, max: __m512i, sum: __m512i) -> [u32; 3] {
        [
            _mm512_reduce_or_epi32(any) as u32,
            _mm512_reduce_max_epu32(max),
            _mm512_reduce_add_epi32(sum) as u32,
        ]
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load_words(p: *const u64, n: usize) -> __m512i {
        // SAFETY: the mask enables the first `n` words only, which the
        // caller guarantees are readable.
        unsafe { _mm512_maskz_loadu_epi64(((1u32 << n) - 1) as u8, p.cast()) }
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store_words(x: __m512i, p: *mut u64, n: usize) {
        // SAFETY: the mask enables the first `n` words only, which the
        // caller guarantees are writable.
        unsafe { _mm512_mask_storeu_epi64(p.cast(), ((1u32 << n) - 1) as u8, x) }
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn or_where(acc: __m512i, m: __mmask16, x: __m512i) -> __m512i {
        _mm512_mask_or_epi32(acc, m, acc, x)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn lane(x: __m512i, k: usize) -> __m512i {
        _mm512_permutexvar_epi32(_mm512_set1_epi32(k as i32), x)
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn test(x: __m512i, bit: u32) -> __mmask16 {
        _mm512_test_epi32_mask(x, _mm512_set1_epi32(bit as i32))
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn compact<const SPARSE: bool>(
        zero: f32,
        xs: &[f32],
        cols: &mut [u32],
        vals: &mut [f32],
    ) -> usize {
        let (chunks, tail) = xs.as_chunks::<16>();
        let z = _mm512_set1_ps(zero);
        let step = _mm512_set1_epi32(16);
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
}

impl Width for __m256 {
    const LANES: usize = 8;
    type Mask = __m256;
    type Int = __m256i;
    type Tail = __m256;

    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn enter<A, B, C, D, E, R, F>(a: A, b: B, c: C, d: D, e: E, f: F) -> R
    where
        F: FnOnce(A, B, C, D, E) -> R,
    {
        f(a, b, c, d, e)
    }

    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn load(x: &[f32]) -> Self {
        let x = &x[..Self::LANES];
        // SAFETY: `x` is exactly one vector of contiguous `f32`s.
        unsafe { _mm256_loadu_ps(x.as_ptr()) }
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn store(self, x: &mut [f32]) {
        let x = &mut x[..Self::LANES];
        // SAFETY: `x` is exactly one vector of `f32`s, exclusively borrowed.
        unsafe { _mm256_storeu_ps(x.as_mut_ptr(), self) }
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn splat(x: f32) -> Self {
        _mm256_set1_ps(x)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn add(self, b: Self) -> Self {
        _mm256_add_ps(self, b)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn mul(self, b: Self) -> Self {
        _mm256_mul_ps(self, b)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn sub(self, b: Self) -> Self {
        _mm256_sub_ps(self, b)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn fmadd(self, b: Self, c: Self) -> Self {
        _mm256_fmadd_ps(self, b, c)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn min(self, b: Self) -> Self {
        _mm256_min_ps(self, b)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn max(self, b: Self) -> Self {
        _mm256_max_ps(self, b)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn select_min(self, b: Self) -> Self {
        let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(self, self);
        _mm256_blendv_ps(_mm256_min_ps(b, self), b, nan)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn select_max(self, b: Self) -> Self {
        let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(self, self);
        _mm256_blendv_ps(_mm256_max_ps(b, self), b, nan)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn cmp<const P: i32>(self, b: Self) -> __m256 {
        _mm256_cmp_ps::<P>(self, b)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn and(a: __m256, b: __m256) -> __m256 {
        _mm256_and_ps(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn or(a: __m256, b: __m256) -> __m256 {
        _mm256_or_ps(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn bits(m: __m256) -> u32 {
        _mm256_movemask_ps(m) as u32
    }
    // The low byte, broadcast and tested against one bit per lane.
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn from_bits(bits: u32) -> __m256 {
        let lane = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
        let byte = _mm256_set1_epi32(bits as i32 & 0xff);
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(_mm256_and_si256(byte, lane), lane))
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn ones(m: __m256) -> Self {
        _mm256_and_ps(m, _mm256_set1_ps(1.0))
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn abs(self) -> Self {
        _mm256_and_ps(self, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff)))
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn quantize(self) -> Self {
        let q = _mm256_cvtph_ps(_mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(self));
        let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(self, self);
        let sticky = _mm256_castsi256_ps(_mm256_set1_epi32(0x2001));
        _mm256_or_ps(q, _mm256_and_ps(nan, sticky))
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn round_trip(self) -> Self {
        _mm256_cvtph_ps(_mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(self))
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn cast(self) -> __m256i {
        _mm256_castps_si256(self)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn or_int(a: __m256i, b: __m256i) -> __m256i {
        _mm256_or_si256(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn max_u32(a: __m256i, b: __m256i) -> __m256i {
        _mm256_max_epu32(a, b)
    }
    // A compare's lanes are all ones: subtracting one counts it.
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn count(acc: __m256i, m: __m256) -> __m256i {
        _mm256_sub_epi32(acc, _mm256_castps_si256(m))
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn reduce(any: __m256i, max: __m256i, sum: __m256i) -> [u32; 3] {
        let mut lanes = [[0u32; 8]; 3];
        for (out, v) in lanes.iter_mut().zip([any, max, sum]) {
            // SAFETY: `out` is exactly one 256-bit vector of writable bytes.
            unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), v) };
        }
        let [any, max, sum] = lanes.map(|l| l.into_iter());
        [
            any.fold(0, |a, b| a | b),
            max.fold(0, u32::max),
            sum.fold(0, u32::wrapping_add),
        ]
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn load_words(p: *const u64, n: usize) -> __m256i {
        let first_n =
            _mm256_cmpgt_epi64(_mm256_set1_epi64x(n as i64), _mm256_setr_epi64x(0, 1, 2, 3));
        // SAFETY: the mask enables the first `n` words only, which the
        // caller guarantees are readable.
        unsafe { _mm256_maskload_epi64(p.cast(), first_n) }
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn store_words(x: __m256i, p: *mut u64, n: usize) {
        let first_n =
            _mm256_cmpgt_epi64(_mm256_set1_epi64x(n as i64), _mm256_setr_epi64x(0, 1, 2, 3));
        // SAFETY: the mask enables the first `n` words only, which the
        // caller guarantees are writable.
        unsafe { _mm256_maskstore_epi64(p.cast(), first_n, x) }
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn or_where(acc: __m256i, m: __m256, x: __m256i) -> __m256i {
        _mm256_or_si256(acc, _mm256_and_si256(_mm256_castps_si256(m), x))
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn lane(x: __m256i, k: usize) -> __m256i {
        _mm256_permutevar8x32_epi32(x, _mm256_set1_epi32(k as i32))
    }
    #[inline]
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn test(x: __m256i, bit: u32) -> __m256 {
        let bit = _mm256_set1_epi32(bit as i32);
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(_mm256_and_si256(x, bit), bit))
    }

    // The compare's sign-bit mask picks a lane permutation from
    // `COMPRESS8`, which packs the values and a running index vector
    // alike, and the stores are masked by a lane vector compared against
    // the count.
    #[target_feature(enable = "avx2,fma,f16c")]
    unsafe fn compact<const SPARSE: bool>(
        zero: f32,
        xs: &[f32],
        cols: &mut [u32],
        vals: &mut [f32],
    ) -> usize {
        let (chunks, tail) = xs.as_chunks::<8>();
        let z = _mm256_set1_ps(zero);
        let (nibble, shifts) = (
            _mm256_set1_epi32(0xf),
            _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28),
        );
        let step = _mm256_set1_epi32(8);
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
}

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

/// For each 8-bit keep mask, the lanes it keeps in order, one per
/// nibble: the permutation that packs them to the front of a 256-bit
/// vector (AVX2 has no compress instruction).
static COMPRESS8: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut mask = 0;
    while mask < 256 {
        let (mut lane, mut slot) = (0, 0);
        while lane < 8 {
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

// ---------------------------------------------------------------------------
// The lowering table: each semiring's vector `⊗`/`⊕`, read off its kind.
// ---------------------------------------------------------------------------

/// Lanes where `v` is truthy (`v != 0.0`, NaN truthy).
///
/// # Safety
///
/// `W`'s features enabled on the calling stack.
#[inline(always)]
unsafe fn truthy<W: Width>(v: W) -> W::Mask {
    // SAFETY: the caller's contract is the ops'.
    unsafe { v.cmp::<_CMP_NEQ_UQ>(W::splat(0.0)) }
}

/// Vector `⊗` of `K`: lane-wise `K::combine`, bit for bit, on every
/// operand — or, `ORD`, on operands known to hold no NaN, where the two
/// semirings whose `⊗` only selects take the bare instruction. Plus-mul
/// is a separate multiply, term by term; only the chain leaves' `FUSED`
/// fold fuses it, on the pairs `FmaLanes` admit. Or-and re-derives both
/// operands' truthiness.
///
/// # Safety
///
/// `W`'s features enabled on the calling stack.
#[inline(always)]
unsafe fn combine<K: SemiringKernel, W: Width, const ORD: bool>(a: W, b: W) -> W {
    // SAFETY: the caller's contract is the ops'.
    unsafe {
        match K::KIND {
            OpKind::PlusMul | OpKind::MinMul | OpKind::MaxMul => a.mul(b),
            OpKind::MinPlus | OpKind::MaxPlus => a.add(b),
            OpKind::MinMax if ORD => b.max(a),
            OpKind::MaxMin if ORD => b.min(a),
            OpKind::MinMax => a.select_max(b),
            OpKind::MaxMin => a.select_min(b),
            OpKind::OrAnd => W::ones(W::and(truthy(a), truthy(b))),
            OpKind::PlusNorm => {
                let diff = a.sub(b);
                diff.mul(diff)
            }
        }
    }
}

/// Vector `⊕` of `K`: lane-wise `K::reduce`, bit for bit, on every
/// operand — or, `ACC`, where `a` is an accumulator that is not NaN,
/// what a chain's is from its seed `acc ⊕ id` on (the term `b` may be
/// anything). The NaN-aware wrappers only differ from the bare
/// instruction, operands swapped, in lanes whose first operand is NaN,
/// so every min/max `⊕` is then the bare instruction.
///
/// # Safety
///
/// `W`'s features enabled on the calling stack.
#[inline(always)]
unsafe fn reduce<K: SemiringKernel, W: Width, const ACC: bool>(a: W, b: W) -> W {
    // SAFETY: the caller's contract is the ops'.
    unsafe {
        match K::KIND {
            OpKind::PlusMul | OpKind::PlusNorm => a.add(b),
            OpKind::MinPlus | OpKind::MinMul | OpKind::MinMax if ACC => b.min(a),
            OpKind::MaxPlus | OpKind::MaxMul | OpKind::MaxMin if ACC => b.max(a),
            OpKind::MinPlus | OpKind::MinMul | OpKind::MinMax => a.select_min(b),
            OpKind::MaxPlus | OpKind::MaxMul | OpKind::MaxMin => a.select_max(b),
            OpKind::OrAnd => W::ones(W::or(truthy(a), truthy(b))),
        }
    }
}

// ---------------------------------------------------------------------------
// Chain leaves: the 16×16 tile kernel that owns the `tk` loop.
// ---------------------------------------------------------------------------

/// Whether a tile pair holds a NaN anywhere: one unordered compare per
/// vector pair (either NaN sets the lane).
///
/// # Safety
///
/// `W`'s features enabled on the calling stack.
#[inline(always)]
unsafe fn pair_has_nan<W: Width>(at: &[f32; CHAIN_ELEMS], bt: &[f32; CHAIN_ELEMS]) -> bool {
    // SAFETY: the caller's contract is the ops'.
    unsafe {
        let mut nan = W::from_bits(0);
        for (a, b) in at.chunks_exact(W::LANES).zip(bt.chunks_exact(W::LANES)) {
            nan = W::or(nan, W::load(a).cmp::<_CMP_UNORD_Q>(W::load(b)));
        }
        W::bits(nan) != 0
    }
}

/// Seeds the accumulator tile with `acc ⊕ id` — after which a
/// min/max/or accumulator is never NaN and a `+` accumulator never
/// `-0.0` — and then folds every tile pair of the chain into it in
/// ascending `k`: `acc[i][j] ← acc[i][j] ⊕ (A[i][k] ⊗ B[k][j])`, `⊗` and
/// `⊕` as two roundings, the accumulator as the `⊕`'s first operand —
/// the scalar leaf's order, so a chain of `t` pairs is one `16·t`-term
/// fold and equals the scalar leaf bit for bit.
///
/// Every `⊕` of the fold is [`reduce`] with `ACC`: its first operand is
/// the seeded accumulator. Three lowerings depend on what is being chained. Or-and
/// leaves for the lane-mask chain ([`or_and_chain`]),
/// which never forms an `f32` term. A semiring whose `⊗` selects tests
/// each tile pair for NaN and forms the pair's terms with
/// [`combine`] with `ORD` when there is none. `FUSED` (plus-mul only, through
/// `super::FmaLanes`) folds each term with one fused multiply-add, which
/// is the same bits only on tile pairs whose elements are finite and on
/// the fp16 lattice.
///
/// # Safety
///
/// * `W`'s features enabled on the calling stack.
/// * `a` and `b` hold the same whole number of flat row-major 16×16
///   tiles, and `acc` exactly one (asserted by `super::mmo_chain` and
///   `super::FmaLanes::mmo_chain`).
#[inline(always)]
pub(super) unsafe fn chain<K: SemiringKernel, W: Width, const FUSED: bool>(
    a: &[f32],
    b: &[f32],
    acc: &mut [f32],
) {
    // SAFETY: the caller's contract is the ops' and the leaves'.
    unsafe {
        if K::KIND == OpKind::OrAnd {
            return or_and_chain::<W>(a, b, acc);
        }
        let (a_tiles, _) = a.as_chunks::<CHAIN_ELEMS>();
        let (b_tiles, _) = b.as_chunks::<CHAIN_ELEMS>();
        let Some(acc) = acc.first_chunk_mut::<CHAIN_ELEMS>() else {
            return;
        };
        // Seeded in place; each block of it is read into registers for a
        // pair and written back.
        let id = W::splat(K::IDENTITY);
        for lane in acc.chunks_exact_mut(W::LANES) {
            reduce::<K, W, false>(W::load(lane), id).store(lane);
        }
        let (acc_rows, _) = acc.as_chunks_mut::<CHAIN_TILE>();
        let acc_rows: &mut [_; CHAIN_TILE] = acc_rows.try_into().expect("a tile is 16 rows");
        for (at, bt) in a_tiles.iter().zip(b_tiles) {
            let ordered = K::KIND.selects() && !pair_has_nan::<W>(at, bt);
            let (a_rows, _) = at.as_chunks::<CHAIN_TILE>();
            let (b_rows, _) = bt.as_chunks::<CHAIN_TILE>();
            let a_rows = a_rows.try_into().expect("a tile is 16 rows");
            let b_rows = b_rows.try_into().expect("a tile is 16 rows");
            for block in 0..CHAIN_TILE / W::LANES {
                for h in 0..CHAIN_TILE / W::LANES {
                    if ordered {
                        fold_block::<K, W, true, FUSED>(a_rows, b_rows, block, h, acc_rows);
                    } else {
                        fold_block::<K, W, false, FUSED>(a_rows, b_rows, block, h, acc_rows);
                    }
                }
            }
        }
    }
}

/// The or-and chain on lane masks. Or-and reads its operands only for
/// truthiness and writes only `1.0`/`0.0`, so the whole chain is
/// boolean: output `(i, j)` is truthy where the accumulator was, or
/// where some `A[i][k]` and `B[k][j]` both are. Lanes stay output
/// columns, as in every other leaf, but a lane holds its column's 16
/// rows as bits: step `k` of a tile pair ORs column `k` of `A` — the
/// rows that read `B` row `k` — into the lanes where `B` row `k` is
/// truthy (one compare, one lane broadcast, one OR under the compare's
/// mask). `1.0`/`0.0` is materialised once, after the last pair — what
/// the term-by-term lowering leaves from the seed `acc ⊕ 0.0` on, so an
/// empty chain canonicalises `acc` too.
///
/// # Safety
///
/// As [`chain`] (every vector access is a bounds-checked whole row, so
/// a shape error cannot reach memory).
#[inline(always)]
unsafe fn or_and_chain<W: Width>(a: &[f32], b: &[f32], acc: &mut [f32]) {
    let (a_tiles, _) = a.as_chunks::<CHAIN_ELEMS>();
    let (b_tiles, _) = b.as_chunks::<CHAIN_ELEMS>();
    let Some(acc) = acc.first_chunk_mut::<CHAIN_ELEMS>() else {
        return;
    };
    // SAFETY: the caller's contract is the ops'.
    unsafe {
        let mut out = columns::<W>(acc);
        for (at, bt) in a_tiles.iter().zip(b_tiles) {
            let a_cols = columns::<W>(at);
            for (k, row) in bt.as_chunks::<CHAIN_TILE>().0.iter().enumerate() {
                let a_col = W::lane(a_cols[k / W::LANES], k % W::LANES);
                for (z, o) in out[..CHAIN_TILE / W::LANES].iter_mut().enumerate() {
                    *o = W::or_where(*o, truthy(W::load(&row[z * W::LANES..])), a_col);
                }
            }
        }
        for (i, row) in acc.as_chunks_mut::<CHAIN_TILE>().0.iter_mut().enumerate() {
            for (z, o) in out[..CHAIN_TILE / W::LANES].iter().enumerate() {
                W::ones(W::test(*o, 1 << i)).store(&mut row[z * W::LANES..]);
            }
        }
    }
}

/// A tile's truthiness as one 16-bit mask per *column*: bit `i` of lane
/// `j` for element `(i, j)`, the columns in `16 / LANES` vectors — per
/// row one compare and one OR of `1 << i` under its mask.
///
/// # Safety
///
/// `W`'s features enabled on the calling stack.
#[inline(always)]
unsafe fn columns<W: Width>(tile: &[f32; CHAIN_ELEMS]) -> [W::Int; CHAIN_TILE / 8] {
    // SAFETY: the caller's contract is the ops'.
    unsafe {
        let mut cols = [W::splat(0.0).cast(); CHAIN_TILE / 8];
        for (i, row) in tile.as_chunks::<CHAIN_TILE>().0.iter().enumerate() {
            let bit = W::splat(f32::from_bits(1 << i)).cast();
            for (z, c) in cols[..CHAIN_TILE / W::LANES].iter_mut().enumerate() {
                *c = W::or_where(*c, truthy(W::load(&row[z * W::LANES..])), bit);
            }
        }
        cols
    }
}

/// One tile pair into one accumulator block. A fold is one dependent
/// `⊕` per term, so the block interleaves output rows: rows
/// `block·LANES..` by vector `h` of the tile's columns — a square block
/// of [`LANES`](Width::LANES) accumulators of `acc`, held in registers
/// across the pair's 16 `k` steps (the whole tile in 16 of 32 `zmm`, a
/// quarter of it in 8 of 16 `ymm`); each step loads one vector of `B` row `k` and
/// broadcasts the block's `A` elements against it. `ORD` forms the terms
/// with [`combine`]'s `ORD`, which is the same bits only on a tile pair
/// without NaN; `FUSED` folds each term with one fused multiply-add.
///
/// # Safety
///
/// `W`'s features enabled on the calling stack.
#[inline(always)]
unsafe fn fold_block<K: SemiringKernel, W: Width, const ORD: bool, const FUSED: bool>(
    a_rows: &[[f32; CHAIN_TILE]; CHAIN_TILE],
    b_rows: &[[f32; CHAIN_TILE]; CHAIN_TILE],
    block: usize,
    h: usize,
    acc: &mut [[f32; CHAIN_TILE]; CHAIN_TILE],
) {
    let (i0, j0) = (block * W::LANES, h * W::LANES);
    // SAFETY: the caller's contract is the ops'.
    unsafe {
        let mut r = [W::splat(0.0); CHAIN_TILE];
        for i in 0..W::LANES {
            r[i] = W::load(&acc[i0 + i][j0..]);
        }
        for (k, b_row) in b_rows.iter().enumerate() {
            let bv = W::load(&b_row[j0..]);
            for i in 0..W::LANES {
                let av = W::splat(a_rows[i0 + i][k]);
                r[i] = if FUSED {
                    av.fmadd(bv, r[i])
                } else {
                    reduce::<K, W, true>(r[i], combine::<K, W, ORD>(av, bv))
                };
            }
        }
        for i in 0..W::LANES {
            r[i].store(&mut acc[i0 + i][j0..]);
        }
    }
}

// ---------------------------------------------------------------------------
// fp16 fits and the half-lane leaves (min-max and max-min chains on 32
// fp16 lanes, AVX-512 only).
// ---------------------------------------------------------------------------

/// What the fp16 round trips of a tile's vectors said so far: the lanes
/// where the round trip was not exact (NaN included), where it met a
/// NaN, and where it met `±∞`. Every method's one safety precondition
/// is `W`'s features enabled on the calling stack.
struct HalfCheck<W: Width>([W::Mask; 3]);

impl<W: Width> HalfCheck<W> {
    /// Nothing seen.
    #[inline(always)]
    unsafe fn new() -> Self {
        // SAFETY: the caller's contract is the op's.
        HalfCheck([unsafe { W::from_bits(0) }; 3])
    }

    /// Records `v` against its round trip `q`: an unordered not-equal
    /// compare is bit inequality here, since the round trip keeps the
    /// sign of a zero and a NaN is inexact anyway.
    #[inline(always)]
    unsafe fn record(&mut self, v: W, q: W) {
        let [inexact, nan, infinite] = &mut self.0;
        // SAFETY: the caller's contract is the ops'.
        unsafe {
            *inexact = W::or(*inexact, q.cmp::<_CMP_NEQ_UQ>(v));
            *nan = W::or(*nan, v.cmp::<_CMP_UNORD_Q>(v));
            *infinite = W::or(
                *infinite,
                v.abs().cmp::<_CMP_EQ_OQ>(W::splat(f32::INFINITY)),
            );
        }
    }

    /// The tile's fit once every vector is recorded.
    #[inline(always)]
    unsafe fn fit(self) -> HalfFit {
        // SAFETY: the caller's contract is the op's.
        let [inexact, nan, infinite] = self.0.map(|m| unsafe { W::bits(m) } != 0);
        HalfFit::of(nan, inexact, infinite)
    }
}

/// The fits of whole tiles for the FMA lanes: [`HalfCheck`] over every
/// vector of the tile against its [`Width::round_trip`], nothing kept.
///
/// # Safety
///
/// `W`'s features enabled on the calling stack. (Shapes are
/// bounds-checked, not preconditions.)
#[inline(always)]
pub(super) unsafe fn fits<W: Width>(tiles: &[f32], fits: &mut [HalfFit]) {
    let (tiles, _) = tiles.as_chunks::<CHAIN_ELEMS>();
    // SAFETY: the caller's contract is the ops'.
    unsafe {
        for (tile, fit) in tiles.iter().zip(fits) {
            let mut check = HalfCheck::<W>::new();
            for part in tile.chunks_exact(W::LANES) {
                let v = W::load(part);
                check.record(v, v.round_trip());
            }
            *fit = check.fit();
        }
    }
}

/// Row pairs `i`, `i + 8` of a tile: one accumulator of the half-lane
/// chain each.
const ROW_PAIRS: usize = CHAIN_TILE / 2;

/// The fp16 image of a 16-element row, recorded in `check`: one
/// `vcvtps2ph` and one `vcvtph2ps`.
#[inline]
#[target_feature(enable = "avx512f")]
fn half_row(check: &mut HalfCheck<__m512>, row: &[f32; CHAIN_TILE]) -> __m256i {
    // SAFETY: this function enables the ops' features.
    unsafe {
        let v = __m512::load(row);
        let h = _mm512_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(v);
        check.record(v, _mm512_cvtph_ps(h));
        h
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
        // SAFETY: this function enables the ops' features.
        let mut check = unsafe { HalfCheck::new() };
        for (i, pair) in pairs.iter_mut().enumerate() {
            let low = _mm512_cvtepu16_epi32(half_row(&mut check, &rows[i]));
            let high = _mm512_cvtepu16_epi32(half_row(&mut check, &rows[i + ROW_PAIRS]));
            let w = _mm512_or_si512(low, _mm512_slli_epi32::<16>(high));
            // SAFETY: `pair` is exactly 16 writable `u32`s.
            unsafe { _mm512_storeu_si512(pair.as_mut_ptr().cast(), w) };
        }
        // SAFETY: as for `new`.
        *fit = unsafe { check.fit() };
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
        // SAFETY: this function enables the ops' features.
        let mut check = unsafe { HalfCheck::new() };
        for (row, out) in rows.iter().zip(out) {
            let w = _mm512_cvtepu16_epi32(half_row(&mut check, row));
            let w = _mm512_or_si512(w, _mm512_slli_epi32::<16>(w));
            // SAFETY: `out` is exactly 16 writable `u32`s.
            unsafe { _mm512_storeu_si512(out.as_mut_ptr().cast(), w) };
        }
        // SAFETY: as for `new`.
        *fit = unsafe { check.fit() };
    }
}

/// The half-lane chain of min-max (`K = MinMax`) or max-min (`K =
/// MaxMin`) over the images of whole tile pairs.
///
/// Eight accumulators hold the tile's row pairs, rows `i` and `i + 8`
/// interleaved: per `k`, one load of `B` row `k` (each value doubled)
/// meets eight broadcast words of `A` column `k`, and each lane forms
/// its term with the bare `⊗` instruction, the `A` element second
/// ([`combine`]'s with `ORD`), and folds it with the bare `⊕`, the
/// accumulator second ([`reduce`]'s with `ACC`) — 16 ops for 512 lanes. The chain
/// starts from the identity in fp16; then each row converts back to
/// `f32` and folds once into `acc ⊕ id`, the seed the `f32` leaf takes.
///
/// # Safety
///
/// The CPU must support AVX-512F, AVX-512BW, AVX-512VL and AVX512-FP16.
/// (Shapes are bounds-checked, not preconditions.)
#[target_feature(enable = "avx512f,avx512bw,avx512vl,avx512fp16")]
pub(super) unsafe fn half_chain<K: SemiringKernel>(a: &[u32], b: &[u32], acc: &mut [f32]) {
    let min_max = K::KIND == OpKind::MinMax;
    let combine = |a: __m512i, b: __m512i| {
        let (a, b) = (_mm512_castsi512_ph(a), _mm512_castsi512_ph(b));
        _mm512_castph_si512(if min_max {
            _mm512_max_ph(b, a)
        } else {
            _mm512_min_ph(b, a)
        })
    };
    let fold_half = |acc: __m512i, term: __m512i| {
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
                *v = fold_half(*v, combine(av, bv));
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
            // SAFETY: this leaf enables the ops' features.
            unsafe {
                let c = reduce::<K, __m512, false>(__m512::load(row), seed);
                reduce::<K, __m512, true>(c, term).store(row);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Row sweep: one output row against contiguous rows of a dense `B`.
// ---------------------------------------------------------------------------

/// Folds one output row's walk: the row in [`SWEEP_STRIP`]-column
/// strips, leftover whole vectors one at a time, and scalar tail
/// columns.
///
/// # Safety
///
/// `W`'s features enabled on the calling stack. (Shapes are
/// bounds-checked, not preconditions.)
#[inline(always)]
pub(super) unsafe fn sweep_row<K: SemiringKernel, W: Width>(
    ks: &[u32],
    vals: &[f32],
    b: &[f32],
    ldb: usize,
    acc: &mut [f32],
) {
    let n = acc.len();
    let mut j0 = 0;
    // SAFETY: the caller's contract is the strips'.
    unsafe {
        while n - j0 >= SWEEP_STRIP {
            // A strip's vector count is a const parameter, so its
            // accumulators are an array of exactly that many registers.
            if W::LANES == 16 {
                strip::<K, W, { SWEEP_STRIP / 16 }>(ks, vals, b, ldb, j0, &mut acc[j0..]);
            } else {
                strip::<K, W, { SWEEP_STRIP / 8 }>(ks, vals, b, ldb, j0, &mut acc[j0..]);
            }
            j0 += SWEEP_STRIP;
        }
        while n - j0 >= W::LANES {
            strip::<K, W, 1>(ks, vals, b, ldb, j0, &mut acc[j0..]);
            j0 += W::LANES;
        }
    }
    scalar::sweep_columns::<K>(scalar::walk(ks, vals), b, ldb, j0, &mut acc[j0..]);
}

/// Folds the walk into `Q` accumulator vectors — columns
/// `j0..j0 + Q·LANES` of the row — loaded once, held in registers across
/// the whole walk and stored once. Each term broadcasts its `A` value
/// against `Q` contiguous vectors of `B` row `k`; `⊗` then `⊕`, the
/// accumulator as the `⊕`'s first operand, as in the scalar leaf.
///
/// # Safety
///
/// `W`'s features enabled on the calling stack.
#[inline(always)]
unsafe fn strip<K: SemiringKernel, W: Width, const Q: usize>(
    ks: &[u32],
    vals: &[f32],
    b: &[f32],
    ldb: usize,
    j0: usize,
    acc: &mut [f32],
) {
    let width = Q * W::LANES;
    let acc = &mut acc[..width];
    // SAFETY: the caller's contract is the ops'.
    unsafe {
        let mut r: [W; Q] = std::array::from_fn(|z| W::load(&acc[z * W::LANES..]));
        for (&k, &a) in ks.iter().zip(vals) {
            let row = &b[k as usize * ldb + j0..][..width];
            let av = W::splat(a);
            for (z, v) in r.iter_mut().enumerate() {
                *v = reduce::<K, W, false>(
                    *v,
                    combine::<K, W, false>(av, W::load(&row[z * W::LANES..])),
                );
            }
        }
        for (z, v) in r.iter().enumerate() {
            v.store(&mut acc[z * W::LANES..]);
        }
    }
}

// ---------------------------------------------------------------------------
// Scan and quantiser leaves.
// ---------------------------------------------------------------------------

/// [`scalar::scan`] a vector at a time, the scalar leaf on the tail.
/// `x != zero` is the unordered-or-unequal predicate (`_CMP_NEQ_UQ`: a
/// NaN is stored, `-0.0` equals `0.0`), and each lane counts its stored
/// elements in `u32`, which the dispatcher's block bound keeps from
/// wrapping.
///
/// # Safety
///
/// `W`'s features enabled on the calling stack. (Shapes are
/// bounds-checked, not preconditions.)
#[inline(always)]
pub(super) unsafe fn scan<W: Width>(zero: f32, xs: &[f32]) -> Scan {
    let chunks = xs.chunks_exact(W::LANES);
    let tail = chunks.remainder();
    // SAFETY: the caller's contract is the ops'.
    let head = unsafe {
        let z = W::splat(zero);
        let none = W::splat(0.0).cast();
        let (mut any, mut max_abs, mut stored) = (none, none, none);
        for chunk in chunks {
            let v = W::load(chunk);
            any = W::or_int(any, v.cast());
            max_abs = W::max_u32(max_abs, v.abs().cast());
            stored = W::count(stored, v.cmp::<_CMP_NEQ_UQ>(z));
        }
        let [any, max_abs, stored] = W::reduce(any, max_abs, stored);
        Scan {
            any,
            max_abs,
            stored: stored as usize,
        }
    };
    head.merge(scalar::scan(zero, tail))
}

/// Quantises a slice through fp16 in place ([`Width::quantize`]), the
/// scalar quantiser on the tail. Bit-identical to
/// [`crate::precision::quantize_f16_slice`].
///
/// # Safety
///
/// `W`'s features enabled on the calling stack.
#[inline(always)]
pub(super) unsafe fn quantize<W: Width>(xs: &mut [f32]) {
    let mut chunks = xs.chunks_exact_mut(W::LANES);
    // SAFETY: the caller's contract is the ops'.
    unsafe {
        for chunk in &mut chunks {
            W::load(chunk).quantize().store(chunk);
        }
    }
    for x in chunks.into_remainder() {
        *x = crate::precision::quantize_f16(*x);
    }
}

// ---------------------------------------------------------------------------
// Bit-row leaves: or-and folds on rows of truthiness bits.
// ---------------------------------------------------------------------------

/// Vectors of accumulator one pass of [`or_rows`] keeps in registers:
/// wider rows walk `pick` once per block of this many.
const OR_BLOCK: usize = 4;

/// [`scalar::truthy_bits`] sixty-four elements a word: a `_CMP_NEQ_UQ`
/// compare against `0.0` (a NaN is truthy, `-0.0` is not) per vector
/// makes its lanes' bits of the word; the scalar leaf writes the tail
/// and clears the rest.
///
/// # Safety
///
/// `W`'s features enabled on the calling stack. (Shapes are
/// bounds-checked, not preconditions.)
#[inline(always)]
pub(super) unsafe fn truthy_bits<W: Width>(xs: &[f32], bits: &mut [u64]) -> bool {
    let (chunks, tail) = xs.as_chunks::<BIT_WORD>();
    let (head, rest) = bits.split_at_mut(chunks.len());
    let mut any = 0;
    for (word, chunk) in head.iter_mut().zip(chunks) {
        let mut w = 0;
        for (q, part) in chunk.chunks_exact(W::LANES).enumerate() {
            // SAFETY: the caller's contract is the ops'.
            let lanes = unsafe { W::bits(truthy(W::load(part))) };
            w |= u64::from(lanes) << (W::LANES * q);
        }
        *word = w;
        any |= w;
    }
    scalar::truthy_bits(tail, rest) | (any != 0)
}

/// [`scalar::bits_to_f32`] a vector at a time: each vector's slice of a
/// word is the mask of a zero-masked `1.0`.
///
/// # Safety
///
/// `W`'s features enabled on the calling stack. (Shapes are
/// bounds-checked, not preconditions.)
#[inline(always)]
pub(super) unsafe fn bits_to_f32<W: Width>(bits: &[u64], out: &mut [f32]) {
    let (chunks, tail) = out.as_chunks_mut::<BIT_WORD>();
    for (chunk, &word) in chunks.iter_mut().zip(bits) {
        for (q, part) in chunk.chunks_exact_mut(W::LANES).enumerate() {
            // SAFETY: the caller's contract is the ops'.
            unsafe { W::ones(W::from_bits((word >> (W::LANES * q)) as u32)).store(part) };
        }
    }
    scalar::bits_to_f32(&bits[chunks.len()..], tail);
}

/// [`scalar::or_rows`] on vector accumulators: [`OR_BLOCK`] whole
/// vectors at a time in registers across the walk of `pick`, then the
/// whole vectors left one at a time, then the words that fill no vector
/// in [`Width::Tail`] vectors, a whole one and one masked to the rest.
///
/// # Safety
///
/// `W`'s features enabled on the calling stack, and `table` holds
/// [`super::table_words`]`(pick.len(), acc.len())` words (asserted by
/// the dispatcher).
#[inline(always)]
pub(super) unsafe fn or_rows<W: Width>(pick: &[u64], table: &[u64], acc: &mut [u64]) {
    let (words, step) = (acc.len(), W::LANES / 2);
    let mut j0 = 0;
    // SAFETY (every block): the caller's contract (`W`'s features imply
    // `W::Tail`'s), and each block's words lie inside the row.
    unsafe {
        while words - j0 >= OR_BLOCK * step {
            or_block::<W, OR_BLOCK>(pick, table, words, j0, step, &mut acc[j0..]);
            j0 += OR_BLOCK * step;
        }
        while words - j0 >= step {
            or_block::<W, 1>(pick, table, words, j0, step, &mut acc[j0..]);
            j0 += step;
        }
        let tail = W::Tail::LANES / 2;
        if words - j0 >= tail {
            or_block::<W::Tail, 1>(pick, table, words, j0, tail, &mut acc[j0..]);
            j0 += tail;
        }
        if j0 < words {
            or_block::<W::Tail, 1>(pick, table, words, j0, words - j0, &mut acc[j0..]);
        }
    }
}

/// Words `j0..` of `acc`'s row, `Z` vectors of which the last holds
/// `last` words, held across the whole walk of `pick` — per nonzero
/// nibble, one load and one OR per vector of the table row it selects
/// (rows `words` words long), found with a `tzcnt` over the nonzero
/// nibbles.
///
/// # Safety
///
/// `W`'s features enabled on the calling stack; `table` holds
/// [`super::table_words`]`(pick.len(), words)` words, `1 ≤ last ≤
/// LANES / 2`, and `j0 + (Z − 1)·LANES / 2 + last ≤ words`.
#[inline(always)]
unsafe fn or_block<W: Width, const Z: usize>(
    pick: &[u64],
    table: &[u64],
    words: usize,
    j0: usize,
    last: usize,
    acc: &mut [u64],
) {
    let step = W::LANES / 2;
    let len = |z: usize| if z + 1 == Z { last } else { step };
    let acc = &mut acc[..(Z - 1) * step + last];
    // SAFETY (loads and stores of `acc`): vector `z` covers words
    // `z·step..z·step + len(z)`, inside the slice bounds-checked above;
    // the caller's contract is the ops'.
    let mut v: [W::Int; Z] =
        std::array::from_fn(|z| unsafe { W::load_words(acc.as_ptr().add(z * step), len(z)) });
    for (w, &word) in pick.iter().enumerate() {
        let mut nz = nonzero_nibbles(word);
        let first = w * BIT_WORD / TABLE_GROUP * TABLE_ENTRIES;
        while nz != 0 {
            let t = nz.trailing_zeros() as usize;
            nz &= nz - 1;
            let row =
                first + t / TABLE_GROUP * TABLE_ENTRIES + (word >> t) as usize % TABLE_ENTRIES;
            // SAFETY: `row` is below `pick.len()` groups of entries, and the
            // caller guarantees the table holds all of them, `words` words
            // each, of which this block reads `j0..j0 + (Z − 1)·step + last`.
            unsafe {
                let at = table.as_ptr().add(row * words + j0);
                for (z, v) in v.iter_mut().enumerate() {
                    *v = W::or_int(*v, W::load_words(at.add(z * step), len(z)));
                }
            }
        }
    }
    for (z, v) in v.iter().enumerate() {
        // SAFETY: as for the loads of `acc`; the slice is exclusively borrowed.
        unsafe { W::store_words(*v, acc.as_mut_ptr().add(z * step), len(z)) };
    }
}

/// Bit `4g` set where nibble `g` of `word` is not zero.
#[inline(always)]
fn nonzero_nibbles(word: u64) -> u64 {
    let x = word | word >> 1;
    (x | x >> 2) & 0x1111_1111_1111_1111
}
