//! AVX2 / AVX-512F `#[target_feature]` leaf kernels for x86-64.
//!
//! # Safety contract (every leaf)
//!
//! * The caller has verified at runtime that the CPU supports the leaf's
//!   target feature (`super::run` only enters a leaf behind a
//!   `cpu_features()` guard).
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
//!   payloads, sNaN, ±0, infinities and denormals).
//! * or-and — truthiness is `x != 0.0` with NaN truthy, which is the
//!   unordered-or-unequal predicate `_CMP_NEQ_UQ`; the boolean result is
//!   materialised as `1.0`/`0.0` by masking a splat of `1.0`.

use core::arch::x86_64::*;

use crate::kernel::SemiringKernel;
use crate::typed::{MaxMin, MaxMul, MaxPlus, MinMax, MinMul, MinPlus, OrAnd, PlusMul, PlusNorm};

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
/// [`crate::precision::quantize_f16`] — **exhaustively verified against
/// it over all 2³² `f32` bit patterns**, including NaN payload rewriting,
/// subnormal targets and overflow-to-infinity.
///
/// Entirely integer arithmetic except one exact power-of-two float
/// multiply: `h << 13` reinterpreted as `f32` carries the f16 exponent
/// field in place, and scaling by `2¹¹²` rebiases normals exactly while
/// renormalising subnormal f16 values (both products are powers of two
/// times representable values, so no rounding occurs).
///
/// # Safety
///
/// Requires AVX2 enabled on the calling stack.
#[inline(always)]
unsafe fn quantize_f16_ps(v: __m256) -> __m256 {
    // SAFETY: caller provides AVX2 per this function's contract.
    unsafe {
        let bits = _mm256_castps_si256(v);
        let sign = _mm256_and_si256(bits, _mm256_set1_epi32(i32::MIN));
        let abs = _mm256_and_si256(bits, _mm256_set1_epi32(0x7FFF_FFFF));

        // Normal/overflow target (|x| >= 2^-14): RNE-fold 13 mantissa
        // bits with the carry propagating naturally into the exponent,
        // rebias 127→15, clamp to the infinity encoding.
        let tie = _mm256_and_si256(_mm256_srli_epi32::<13>(abs), _mm256_set1_epi32(1));
        let rounded = _mm256_add_epi32(_mm256_add_epi32(abs, _mm256_set1_epi32(0xFFF)), tie);
        let h_norm = _mm256_sub_epi32(_mm256_srli_epi32::<13>(rounded), _mm256_set1_epi32(0x1C000));
        let h_norm = _mm256_min_epi32(h_norm, _mm256_set1_epi32(0x7C00));

        // Subnormal target (2^-25 <= |x| < 2^-14): variable right shift
        // of the 24-bit significand with RNE on the shifted-out bits.
        let exp = _mm256_srli_epi32::<23>(abs);
        let shift = _mm256_sub_epi32(_mm256_set1_epi32(126), exp);
        let sig = _mm256_or_si256(
            _mm256_and_si256(abs, _mm256_set1_epi32(0x7F_FFFF)),
            _mm256_set1_epi32(0x80_0000),
        );
        let shifted = _mm256_srlv_epi32(sig, shift);
        let low_mask = _mm256_sub_epi32(
            _mm256_sllv_epi32(_mm256_set1_epi32(1), shift),
            _mm256_set1_epi32(1),
        );
        let rem = _mm256_and_si256(sig, low_mask);
        let halfway_m1 = _mm256_sub_epi32(
            _mm256_srli_epi32::<1>(_mm256_add_epi32(low_mask, _mm256_set1_epi32(1))),
            _mm256_set1_epi32(1),
        );
        let stie = _mm256_and_si256(shifted, _mm256_set1_epi32(1));
        let srnd = _mm256_srlv_epi32(
            _mm256_add_epi32(_mm256_add_epi32(rem, halfway_m1), stie),
            shift,
        );
        let h_sub = _mm256_add_epi32(shifted, srnd);

        // Select the f16 magnitude: normal, subnormal, or zero
        // (|x| < 2^-25 rounds to signed zero even at the halfway point).
        let m_norm = _mm256_cmpgt_epi32(abs, _mm256_set1_epi32(0x387F_FFFF));
        let m_nonzero = _mm256_cmpgt_epi32(abs, _mm256_set1_epi32(0x32FF_FFFF));
        let h = _mm256_blendv_epi8(_mm256_and_si256(h_sub, m_nonzero), h_norm, m_norm);

        // Decode back to f32: one exact scaling multiply, then pin the
        // infinity encoding (2^16 from the multiply) to a real infinity.
        let f = _mm256_mul_ps(
            _mm256_castsi256_ps(_mm256_slli_epi32::<13>(h)),
            _mm256_castsi256_ps(_mm256_set1_epi32(0x7780_0000)),
        );
        let fbits = _mm256_castps_si256(f);
        let m_inf = _mm256_cmpeq_epi32(h, _mm256_set1_epi32(0x7C00));
        let fbits = _mm256_blendv_epi8(fbits, _mm256_set1_epi32(0x7F80_0000), m_inf);
        let out = _mm256_or_si256(sign, fbits);

        // NaN lanes: the composed payload rewrite of the scalar round
        // trip (quiet bit + top-10 payload bits + the sticky low bits
        // both conversion directions set).
        let m_nan = _mm256_cmpgt_epi32(abs, _mm256_set1_epi32(0x7F80_0000));
        let nan_man = _mm256_or_si256(
            _mm256_and_si256(_mm256_srli_epi32::<13>(abs), _mm256_set1_epi32(0x3FF)),
            _mm256_set1_epi32(0x201),
        );
        let nan_out = _mm256_or_si256(
            _mm256_or_si256(sign, _mm256_set1_epi32(0x7F80_0000)),
            _mm256_or_si256(_mm256_slli_epi32::<13>(nan_man), _mm256_set1_epi32(1)),
        );
        _mm256_castsi256_ps(_mm256_blendv_epi8(out, nan_out, m_nan))
    }
}

/// Quantises a slice through fp16 in place, 8 lanes at a time, with the
/// scalar quantiser on the tail. Bit-identical to
/// [`crate::precision::quantize_f16_slice`].
///
/// # Safety
///
/// The CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn quantize_f16_avx2(xs: &mut [f32]) {
    let full = xs.len() - xs.len() % LANES256;
    let mut i = 0;
    while i < full {
        // SAFETY: i + LANES256 <= xs.len(); `xs` is exclusively borrowed.
        let v = unsafe { _mm256_loadu_ps(xs.as_ptr().add(i)) };
        // SAFETY: this leaf enables AVX2.
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
}

/// A semiring lowered to 512-bit (AVX-512F) vector `⊗`/`⊕`.
///
/// Both methods must match the scalar `combine`/`reduce` lane-wise, bit
/// for bit.
pub(super) trait Kernel512: SemiringKernel {
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
}

/// Implements both vector lowerings for one semiring from lane-wise
/// expressions shared across widths.
macro_rules! lower {
    ($kernel:ty,
     combine($ca:ident, $cb:ident) = $c256:expr, $c512:expr,
     reduce($ra:ident, $rb:ident) = $r256:expr, $r512:expr $(,)?) => {
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
lower!(
    MinMax,
    combine(a, b) = max_ps(a, b),
    max_ps512(a, b),
    reduce(a, b) = min_ps(a, b),
    min_ps512(a, b),
);
lower!(
    MaxMin,
    combine(a, b) = min_ps(a, b),
    min_ps512(a, b),
    reduce(a, b) = max_ps(a, b),
    max_ps512(a, b),
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
/// # Safety
///
/// * The CPU must support AVX-512F.
/// * `a` and `b` must hold the same whole number of flat row-major
///   16×16 tiles, and `acc` exactly one (asserted by
///   `super::mmo_chain`).
#[target_feature(enable = "avx512f")]
pub(super) unsafe fn mmo_chain_avx512<K: Kernel512>(a: &[f32], b: &[f32], acc: &mut [f32]) {
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
        for (ar, dr) in a_rows.iter().zip(acc_rows.iter_mut()) {
            macro_rules! term {
                ($k:literal) => {
                    // SAFETY: this leaf enables AVX-512F.
                    unsafe { K::combine_v(_mm512_set1_ps(ar[$k]), bv[$k]) }
                };
            }
            macro_rules! fold {
                ($x:expr, $y:expr) => {{
                    let (x, y) = ($x, $y);
                    // SAFETY: this leaf enables AVX-512F.
                    unsafe { K::reduce_v(x, y) }
                }};
            }
            let reduced = tree16!(fold, term);
            // SAFETY: `dr` is exactly 16 contiguous `f32`s.
            let cv = unsafe { _mm512_loadu_ps(dr.as_ptr()) };
            let dv = fold!(cv, reduced);
            // SAFETY: as the load; `dr` is exclusively borrowed.
            unsafe { _mm512_storeu_ps(dr.as_mut_ptr(), dv) };
        }
    }
}

/// AVX2 chain kernel: the same chain as [`mmo_chain_avx512`] with each
/// tile row split into two 8-lane halves. Sixteen `ymm` registers
/// cannot hold a `B` tile, so the `B` half-rows are L1 memory operands
/// of the `⊗`; the tree partials and the accumulator half-row still
/// never leave registers.
///
/// # Safety
///
/// * The CPU must support AVX2.
/// * Shapes as for [`mmo_chain_avx512`].
#[target_feature(enable = "avx2")]
pub(super) unsafe fn mmo_chain_avx2<K: Kernel256>(a: &[f32], b: &[f32], acc: &mut [f32]) {
    let (a_tiles, _) = a.as_chunks::<CHAIN_ELEMS>();
    let (b_tiles, _) = b.as_chunks::<CHAIN_ELEMS>();
    let (acc_rows, _) = acc.as_chunks_mut::<CHAIN_TILE>();
    for (at, bt) in a_tiles.iter().zip(b_tiles) {
        let (a_rows, _) = at.as_chunks::<CHAIN_TILE>();
        let (b_rows, _) = bt.as_chunks::<CHAIN_TILE>();
        for (ar, dr) in a_rows.iter().zip(acc_rows.iter_mut()) {
            for half in [0, LANES256] {
                macro_rules! term {
                    ($k:literal) => {
                        // SAFETY: this leaf enables AVX2, and the 8-lane
                        // load at `half ∈ {0, 8}` ends within the
                        // 16-element row.
                        unsafe {
                            K::combine_v(
                                _mm256_set1_ps(ar[$k]),
                                _mm256_loadu_ps(b_rows[$k].as_ptr().add(half)),
                            )
                        }
                    };
                }
                macro_rules! fold {
                    ($x:expr, $y:expr) => {{
                        let (x, y) = ($x, $y);
                        // SAFETY: this leaf enables AVX2.
                        unsafe { K::reduce_v(x, y) }
                    }};
                }
                let reduced = tree16!(fold, term);
                // SAFETY: `half + 8 <= 16`, the length of `dr`.
                let cv = unsafe { _mm256_loadu_ps(dr.as_ptr().add(half)) };
                let dv = fold!(cv, reduced);
                // SAFETY: as the load; `dr` is exclusively borrowed.
                unsafe { _mm256_storeu_ps(dr.as_mut_ptr().add(half), dv) };
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
