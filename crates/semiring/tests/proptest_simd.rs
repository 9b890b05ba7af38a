//! Property-based bit-identity checks for the vectorized tile kernels.
//!
//! The dispatch layer promises that every vector tier produces the
//! **same bits** as the scalar kernel for *arbitrary* `f32` inputs —
//! including NaN payloads, signed zeros, infinities and subnormals —
//! at every tile side, not just multiples of the vector width, and the
//! row-sweep leaf ([`simd::sweep_row`]) makes the same promise at every
//! row width. These properties sample raw bit patterns (so specials appear with their
//! natural density) plus a deterministic overlay of adversarial values,
//! and compare each supported ISA against [`KernelIsa::Scalar`] through
//! [`simd::same_bits`] (exact bits; for two NaNs, exact payloads in
//! unoptimised builds only).

use proptest::prelude::*;
use simd2_semiring::precision::quantize_f16;
use simd2_semiring::simd::{self, KernelIsa, CHAIN_ELEMS, CHAIN_TILE, MAX_TILE};
use simd2_semiring::{OpKind, ALL_OPS};

fn op_strategy() -> impl Strategy<Value = OpKind> {
    (0..ALL_OPS.len()).prop_map(|i| ALL_OPS[i])
}

/// Adversarial values every tile is seeded with (beyond the random bit
/// patterns): NaN payload quirks, signed zeros, infinities, subnormals
/// and f16 rounding boundaries.
const SPECIALS: [f32; 10] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    1.0e-40,
    f32::MIN_POSITIVE,
    65504.0,  // f16::MAX
    65520.0,  // rounds to f16 infinity
    6.104e-5, // near the f16 normal/subnormal boundary
];

/// `len` arbitrary bit patterns with a sprinkle of [`SPECIALS`] at
/// seed-derived positions.
fn values(len: usize, bits: &[u32], salt: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            if (i as u32)
                .wrapping_mul(2654435761)
                .wrapping_add(salt)
                .is_multiple_of(7)
            {
                SPECIALS[(i + salt as usize) % SPECIALS.len()]
            } else {
                f32::from_bits(bits[i % bits.len()].wrapping_add(i as u32))
            }
        })
        .collect()
}

/// The vector tiers available on this host (never empty — scalar is
/// always supported, and is skipped here as it is the reference).
fn vector_tiers() -> Vec<KernelIsa> {
    KernelIsa::ALL
        .into_iter()
        .filter(|isa| *isa != KernelIsa::Scalar && isa.is_supported())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every supported vector tier == scalar, bit for bit, over all nine
    /// ops × arbitrary bit-pattern operands × every tile side 1..=40
    /// (covering tails where `n` is not a multiple of 8 or 16 lanes).
    #[test]
    fn vector_tiers_match_scalar_bit_for_bit(
        op in op_strategy(),
        n in 1usize..=40,
        bits in proptest::collection::vec(any::<u32>(), 64),
        salt in any::<u32>(),
    ) {
        prop_assume!(n <= MAX_TILE);
        let a = values(n * n, &bits, salt);
        let b = values(n * n, &bits, salt.wrapping_add(1));
        let c = values(n * n, &bits, salt.wrapping_add(2));

        let mut want = vec![0.0f32; n * n];
        simd::mmo_tile(KernelIsa::Scalar, op, &a, &b, &c, &mut want, n);

        for isa in vector_tiers() {
            let mut got = vec![0.0f32; n * n];
            simd::mmo_tile(isa, op, &a, &b, &c, &mut got, n);
            for (i, (x, y)) in want.iter().zip(&got).enumerate() {
                prop_assert!(
                    simd::same_bits(*y, *x),
                    "{} n={} isa={} element {} ({:e} vs {:e})",
                    op, n, isa, i, x, y
                );
            }
        }
    }

    /// `mmo_chain` over 1..=5 tile pairs == that many scalar-leaf tile
    /// MMOs with the accumulator carried by hand, on every supported
    /// tier (scalar included: its chain walks the per-tile leaf) — what
    /// lets the packed engine hand a whole `k` loop to one kernel call.
    #[test]
    fn chain_matches_the_scalar_leaf_tile_by_tile(
        op in op_strategy(),
        tiles in 1usize..=5,
        bits in proptest::collection::vec(any::<u32>(), 64),
        salt in any::<u32>(),
    ) {
        let a = values(tiles * CHAIN_ELEMS, &bits, salt);
        let b = values(tiles * CHAIN_ELEMS, &bits, salt.wrapping_add(1));
        let c = values(CHAIN_ELEMS, &bits, salt.wrapping_add(2));

        let mut want = c.clone();
        for (at, bt) in a.chunks_exact(CHAIN_ELEMS).zip(b.chunks_exact(CHAIN_ELEMS)) {
            let acc = want.clone();
            simd::mmo_tile(KernelIsa::Scalar, op, at, bt, &acc, &mut want, CHAIN_TILE);
        }

        for isa in KernelIsa::ALL.into_iter().filter(|isa| isa.is_supported()) {
            let mut got = c.clone();
            simd::mmo_chain(isa, op, &a, &b, &mut got);
            for (i, (x, y)) in want.iter().zip(&got).enumerate() {
                prop_assert!(
                    simd::same_bits(*y, *x),
                    "{} chain of {} isa={} element {} ({:e} vs {:e})",
                    op, tiles, isa, i, x, y
                );
            }
        }
    }

    /// The row-sweep leaf of every supported tier == the scalar leaf, bit
    /// for bit, over all nine ops, every row width 1..=130 (whole strips,
    /// leftover vectors and scalar tail columns), walks that skip, repeat
    /// and exhaust `B`'s rows, a `B` stride wider than the row, and a
    /// pre-loaded accumulator — what lets the sparse engine hand any
    /// representation's `(k, value)` walk to one kernel.
    #[test]
    fn row_sweep_matches_the_scalar_leaf(
        op in op_strategy(),
        n in 1usize..=130,
        pad in 0usize..3,
        walk in proptest::collection::vec(0u32..12, 9),
        len in 0usize..=9,
        bits in proptest::collection::vec(any::<u32>(), 64),
        salt in any::<u32>(),
    ) {
        let ldb = n + pad;
        let b = values(12 * ldb, &bits, salt);
        let vals = values(len, &bits, salt.wrapping_add(1));
        let acc = values(n, &bits, salt.wrapping_add(2));
        let ks = &walk[..len];

        let mut want = acc.clone();
        simd::sweep_row(KernelIsa::Scalar, op, ks, &vals, &b, ldb, &mut want);

        for isa in vector_tiers() {
            let mut got = acc.clone();
            simd::sweep_row(isa, op, ks, &vals, &b, ldb, &mut got);
            for (j, (x, y)) in want.iter().zip(&got).enumerate() {
                prop_assert!(
                    simd::same_bits(*y, *x),
                    "{} n={} ldb={} walk={:?} isa={} column {} ({:e} vs {:e})",
                    op, n, ldb, ks, isa, j, x, y
                );
            }
        }
    }

    /// The vectorized fp16 quantize roundtrip == the scalar `half`-based
    /// one, bit for bit, for arbitrary bit patterns at every slice
    /// length — including odd lengths that exercise the scalar tail.
    #[test]
    fn vector_quantize_matches_scalar_bit_for_bit(
        len in 0usize..=67,
        bits in proptest::collection::vec(any::<u32>(), 67),
        salt in any::<u32>(),
    ) {
        let src: Vec<f32> = (0..len)
            .map(|i| {
                if (i as u32).wrapping_add(salt).is_multiple_of(5) {
                    SPECIALS[i % SPECIALS.len()]
                } else {
                    f32::from_bits(bits[i])
                }
            })
            .collect();
        let want: Vec<u32> = src.iter().map(|&x| quantize_f16(x).to_bits()).collect();
        for isa in KernelIsa::ALL.into_iter().filter(|isa| isa.is_supported()) {
            let mut got = src.clone();
            simd::quantize_f16_slice(isa, &mut got);
            let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(&want, &got, "isa={} len={}", isa, len);
        }
    }
}

/// Exhaustive over the shape axis the property above only samples: all
/// nine ops × every row width 1..=130 × every supported tier, on a walk
/// that repeats and skips rows, with the adversarial values in every
/// operand.
#[test]
fn row_sweep_matches_the_scalar_leaf_at_every_width() {
    let bits: Vec<u32> = (0..64u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
    let ks = [0u32, 2, 2, 5, 7, 11];
    for op in ALL_OPS {
        for n in 1usize..=130 {
            let b = values(12 * n, &bits, n as u32);
            let vals = values(ks.len(), &bits, n as u32 + 1);
            let acc = values(n, &bits, n as u32 + 2);
            let mut want = acc.clone();
            simd::sweep_row(KernelIsa::Scalar, op, &ks, &vals, &b, n, &mut want);
            for isa in vector_tiers() {
                let mut got = acc.clone();
                simd::sweep_row(isa, op, &ks, &vals, &b, n, &mut got);
                let same = want.iter().zip(&got).all(|(x, y)| simd::same_bits(*y, *x));
                assert!(same, "{op} n={n} isa={isa}");
            }
        }
    }
}
