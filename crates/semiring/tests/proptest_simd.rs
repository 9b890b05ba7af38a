//! Property-based bit-identity checks for the vectorized tile kernels.
//!
//! The dispatch layer promises that every tier computes the **same
//! bits** as the one reduction written out ([`fold_chain`]: seed
//! `c ⊕ id`, then every term in ascending `k`) for *arbitrary* `f32`
//! inputs — including NaN payloads, signed zeros, infinities and
//! subnormals — at every tile side and chain length, and the row-sweep
//! leaf ([`simd::sweep_row`]) makes the same promise against the scalar
//! leaf at every row width, as do the scan and compaction leaves
//! ([`simd::scan`], [`simd::compact`]) and the CSR images built on them,
//! and or-and's three bit-row leaves ([`simd::truthy_bits`],
//! [`simd::or_rows`], [`simd::bits_to_f32`]).
//! These properties sample raw bit patterns (so specials appear with
//! their natural density) plus a deterministic
//! overlay of adversarial values, and compare through
//! [`simd::same_bits`] (exact bits; for two NaNs, exact payloads in
//! unoptimised builds only). That overlay puts a NaN into practically
//! every 256-element tile, so the chain leaves' NaN-free lowering has a
//! generator of its own ([`ordered_values`]) and chains that mix both.

use proptest::prelude::*;
use simd2_matrix::{Csr, Matrix};
use simd2_semiring::precision::quantize_f16;
use simd2_semiring::simd::{
    self, FmaLanes, HalfFit, HalfLanes, KernelIsa, CHAIN_ELEMS, CHAIN_TILE, HALF_A_WORDS,
    HALF_B_WORDS,
};
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

/// Values on the fp16 lattice at its edges: signed zeros, the smallest
/// and largest subnormals, the smallest normal, the largest finite
/// value and the infinities.
const HALF_SPECIALS: [f32; 10] = [
    0.0,
    -0.0,
    1.0 / 16_777_216.0, // 2^-24, the smallest fp16 subnormal
    -1.0 / 16_777_216.0,
    1023.0 / 16_777_216.0, // the largest fp16 subnormal
    1.0 / 16_384.0,        // 2^-14, the smallest fp16 normal
    65504.0,
    -65504.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
];

/// Accumulator values of every kind a chain's seed meets: NaN, signed
/// zeros, a value off the fp16 lattice, the infinities.
const SEEDS: [f32; 6] = [f32::NAN, -0.0, 0.0, 0.1, f32::INFINITY, f32::NEG_INFINITY];

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

/// `len` NaN-free values. With `ties`, three in four are a signed zero
/// and the rest `±1.0`, so most `min`/`max` in a fold meet `+0.0`
/// against `-0.0` and the sign of the output records the operand order
/// of every one of them. Otherwise every third is a non-NaN
/// [`SPECIALS`] entry (infinities, subnormals, f16 boundaries) and the
/// rest arbitrary bit patterns, with one exponent bit cleared where the
/// pattern was a NaN.
fn ordered_values(len: usize, bits: &[u32], salt: u32, ties: bool) -> Vec<f32> {
    const TIES: [f32; 8] = [0.0, -0.0, -0.0, 1.0, 0.0, -0.0, 0.0, -1.0];
    (0..len)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
            if ties {
                TIES[(bits[i % bits.len()].wrapping_add(h) >> 13) as usize % TIES.len()]
            } else if h.is_multiple_of(3) {
                SPECIALS[1 + (h / 3) as usize % (SPECIALS.len() - 1)]
            } else {
                let x = f32::from_bits(bits[i % bits.len()].wrapping_add(i as u32));
                if x.is_nan() {
                    f32::from_bits(x.to_bits() & !0x4000_0000)
                } else {
                    x
                }
            }
        })
        .collect()
}

/// `len` mostly-falsy or-and operands: one element in eight is truthy
/// and not the canonical `1.0` (NaN, a subnormal, `2.5`, `-1.0`), one in
/// eight is `-0.0`, the rest `0.0` — so a tile MMO sets about a fifth
/// of an all-false accumulator instead of all of it.
fn sparse_truthy(len: usize, salt: u32) -> Vec<f32> {
    const TRUTHY: [f32; 4] = [f32::NAN, 1.0e-40, 2.5, -1.0];
    (0..len)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt) >> 7;
            match h % 8 {
                0 => TRUTHY[(h / 8) as usize % TRUTHY.len()],
                1 => -0.0,
                _ => 0.0,
            }
        })
        .collect()
}

/// The reduction itself, as the oracle of every tile and chain
/// property: each element of the `n × n` accumulator starts from
/// `c ⊕ id` and folds the terms of every tile pair of the chain in
/// ascending `k`, one dynamic `⊗` then `⊕` at a time.
fn fold_chain(op: OpKind, a: &[f32], b: &[f32], c: &[f32], n: usize) -> Vec<f32> {
    let mut acc: Vec<f32> = c
        .iter()
        .map(|&x| op.reduce_f32(x, op.reduce_identity_f32()))
        .collect();
    for (at, bt) in a.chunks_exact(n * n).zip(b.chunks_exact(n * n)) {
        for (ij, x) in acc.iter_mut().enumerate() {
            let (i, j) = (ij / n, ij % n);
            for k in 0..n {
                *x = op.fma_f32(*x, at[i * n + k], bt[k * n + j]);
            }
        }
    }
    acc
}

/// The fp16 fit of a tile, read off its values: what the image and fit
/// leaves must name.
fn fit_of(tile: &[f32]) -> HalfFit {
    if tile.iter().any(|x| x.is_nan()) {
        HalfFit::Nan
    } else if tile
        .iter()
        .any(|&x| quantize_f16(x).to_bits() != x.to_bits())
    {
        HalfFit::OffLattice
    } else if tile.iter().any(|x| x.is_infinite()) {
        HalfFit::Infinite
    } else {
        HalfFit::Exact
    }
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

    /// Every supported tier == the fold written out, bit for bit, over
    /// all nine ops × arbitrary bit-pattern operands × every tile side
    /// 1..=40. Only side 16 has vector leaves; every other side must
    /// come out the same from whichever tier is asked.
    #[test]
    fn vector_tiers_match_scalar_bit_for_bit(
        op in op_strategy(),
        n in 1usize..=40,
        bits in proptest::collection::vec(any::<u32>(), 64),
        salt in any::<u32>(),
    ) {
        let a = values(n * n, &bits, salt);
        let b = values(n * n, &bits, salt.wrapping_add(1));
        let c = values(n * n, &bits, salt.wrapping_add(2));

        let want = fold_chain(op, &a, &b, &c, n);

        for isa in KernelIsa::ALL.into_iter().filter(|isa| isa.is_supported()) {
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

    /// `mmo_chain` over 0..=5 tile pairs == one fold over all `16·t`
    /// terms == that many per-tile MMOs with the accumulator carried by
    /// hand (the seed is idempotent), on every supported tier — what
    /// lets the packed engine hand a whole `k` loop to one kernel call
    /// and makes the tile side invisible in the result.
    #[test]
    fn chain_matches_the_scalar_leaf_tile_by_tile(
        op in op_strategy(),
        tiles in 0usize..=5,
        bits in proptest::collection::vec(any::<u32>(), 64),
        salt in any::<u32>(),
    ) {
        let a = values(tiles * CHAIN_ELEMS, &bits, salt);
        let b = values(tiles * CHAIN_ELEMS, &bits, salt.wrapping_add(1));
        let c = values(CHAIN_ELEMS, &bits, salt.wrapping_add(2));

        let want = fold_chain(op, &a, &b, &c, CHAIN_TILE);

        for isa in KernelIsa::ALL.into_iter().filter(|isa| isa.is_supported()) {
            let mut got = c.clone();
            simd::mmo_chain(isa, op, &a, &b, &mut got);
            let mut by_tile = c.clone();
            for (at, bt) in a.chunks_exact(CHAIN_ELEMS).zip(b.chunks_exact(CHAIN_ELEMS)) {
                let acc = by_tile.clone();
                simd::mmo_tile(isa, op, at, bt, &acc, &mut by_tile, CHAIN_TILE);
            }
            for (i, (x, y)) in want.iter().zip(&got).enumerate() {
                prop_assert!(
                    simd::same_bits(*y, *x),
                    "{} chain of {} isa={} element {} ({:e} vs {:e})",
                    op, tiles, isa, i, x, y
                );
                prop_assert!(
                    tiles == 0 || simd::same_bits(by_tile[i], *x),
                    "{} {} tile MMOs isa={} element {} ({:e} vs {:e})",
                    op, tiles, isa, i, x, by_tile[i]
                );
            }
        }
    }

    /// A chain folded in runs — cut at any subset of its `tk`, each run
    /// one `mmo_chain` call carrying the accumulator, with an empty call
    /// in front — equals the one-call fold bit for bit, for all nine ops
    /// on every supported tier: every call seeds `acc ⊕ id`, which is
    /// idempotent, so a run boundary folds nothing. This is what lets an
    /// engine drop the tile pairs between two runs.
    #[test]
    fn chains_folded_in_runs_equal_the_one_call_fold(
        op in op_strategy(),
        tiles in 0usize..=5,
        bits in proptest::collection::vec(any::<u32>(), 64),
        salt in any::<u32>(),
    ) {
        let a = values(tiles * CHAIN_ELEMS, &bits, salt);
        let b = values(tiles * CHAIN_ELEMS, &bits, salt.wrapping_add(1));
        let c = values(CHAIN_ELEMS, &bits, salt.wrapping_add(2));
        for isa in KernelIsa::ALL.into_iter().filter(|isa| isa.is_supported()) {
            let mut want = c.clone();
            simd::mmo_chain(isa, op, &a, &b, &mut want);
            // Bit `t - 1` of `cuts` set: a run ends before tile `t`.
            for cuts in 0u32..1 << tiles.saturating_sub(1) {
                let mut got = c.clone();
                simd::mmo_chain(isa, op, &[], &[], &mut got);
                let mut start = 0;
                for end in 1..=tiles {
                    if end == tiles || cuts >> (end - 1) & 1 == 1 {
                        let run = start * CHAIN_ELEMS..end * CHAIN_ELEMS;
                        simd::mmo_chain(isa, op, &a[run.clone()], &b[run], &mut got);
                        start = end;
                    }
                }
                for (i, (x, y)) in want.iter().zip(&got).enumerate() {
                    prop_assert!(
                        simd::same_bits(*y, *x),
                        "{} chain of {} cut {:b} isa={} element {} ({:e} vs {:e})",
                        op, tiles, cuts, isa, i, x, y
                    );
                }
            }
        }
    }

    /// The scan leaf of every supported tier == the scalar leaf == the
    /// facts written out, over slices of every length up to two tiles
    /// and a half (whole vectors and scalar tails), annihilators that
    /// fill most, some or none of the slice — `±0.0` against a `0.0`
    /// annihilator, the two infinities, the pool's NaNs and signed
    /// values around them — and tile by tile, the way the tile chain
    /// reads its packed operands.
    #[test]
    fn scan_leaves_match_the_scalar_leaf(
        len in 0usize..=640,
        zero_idx in 0usize..4,
        fill in 0u32..=4,
        bits in proptest::collection::vec(any::<u32>(), 64),
        salt in any::<u32>(),
    ) {
        let zero = [0.0, f32::INFINITY, f32::NEG_INFINITY, 1.5][zero_idx];
        let noise = values(len, &bits, salt);
        // `fill` in four: how many elements are the annihilator (four:
        // all of them).
        let xs: Vec<f32> = noise
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt) >> 28;
                match (h % 4 < fill, h % 7) {
                    (true, 0) if zero == 0.0 => -0.0,
                    (true, _) => zero,
                    (false, _) => x,
                }
            })
            .collect();
        let want = simd::Scan {
            any: xs.iter().fold(0, |m, x| m | x.to_bits()),
            max_abs: xs.iter().map(|x| x.to_bits() & 0x7fff_ffff).max().unwrap_or(0),
            stored: xs.iter().filter(|&&x| x != zero).count(),
        };
        for isa in KernelIsa::ALL.into_iter().filter(|isa| isa.is_supported()) {
            prop_assert_eq!(simd::scan(isa, zero, &xs), want, "isa={} len={}", isa, len);
            for (t, tile) in xs.chunks_exact(CHAIN_ELEMS).enumerate() {
                let fact = simd::scan(isa, zero, tile);
                prop_assert_eq!(fact, simd::scan(KernelIsa::Scalar, zero, tile), "isa={} tile {}", isa, t);
            }
        }
    }

    /// The compaction leaf of every supported tier == the scalar leaf
    /// == the stored elements written out: for each annihilator the CSR
    /// images use (`0.0`, `±∞`), on rows of every length 0..=48 (whole
    /// vectors of either width and every tail) and on long rows storing
    /// about one element in a hundred, read at every offset into a
    /// vector, over NaNs of arbitrary payload, `±0.0`, `±∞`, subnormals
    /// and the annihilator itself at every fill — into room sized to the
    /// count (as a CSR image gives it, which has the vector leaves skip
    /// what keeps nothing on sparse rows) and room for every element.
    /// Values are compared as bits: a compaction moves elements and
    /// never rounds them.
    #[test]
    fn compaction_leaves_match_the_scalar_leaf(
        fill in 0u32..=4,
        bits in proptest::collection::vec(any::<u32>(), 64),
        salt in any::<u32>(),
    ) {
        const SPAN: usize = 48;
        const LONG: usize = 700;
        const OFFSETS: usize = 16;
        let noise = values(LONG + OFFSETS, &bits, salt);
        let hash = |i: usize| (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
        for zero in [0.0, f32::INFINITY, f32::NEG_INFINITY] {
            let row: Vec<f32> = noise
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    let h = hash(i) >> 28;
                    match (h % 4 < fill, h % 5) {
                        (true, 0) => -zero,
                        (true, 1) => f32::from_bits(0x7fc0_0000 | h),
                        (true, _) => zero,
                        (false, _) => x,
                    }
                })
                .collect();
            let sparse: Vec<f32> = noise
                .iter()
                .enumerate()
                .map(|(i, &x)| match hash(i) % 97 {
                    0 => x,
                    1..=9 => -zero,
                    _ => zero,
                })
                .collect();
            for offset in 0..OFFSETS {
                let short = (0..=SPAN).map(|len| &row[offset..offset + len]);
                let long = [LONG / 2, LONG].map(|len| &sparse[offset..offset + len]);
                for xs in short.chain(long) {
                    let want: Vec<(u32, u32)> = xs
                        .iter()
                        .enumerate()
                        .filter(|(_, &x)| x != zero)
                        .map(|(i, x)| (i as u32, x.to_bits()))
                        .collect();
                    let ctx = format!("zero={zero} len={} offset={offset}", xs.len());
                    for isa in KernelIsa::ALL.into_iter().filter(|isa| isa.is_supported()) {
                        for room in [want.len(), xs.len()] {
                            let (mut cols, mut vals) = (vec![0u32; room], vec![0.0f32; room]);
                            let kept = simd::compact(isa, zero, xs, &mut cols, &mut vals);
                            prop_assert_eq!(kept, want.len(), "isa={} room={} {}", isa, room, ctx);
                            let got: Vec<(u32, u32)> =
                                cols[..kept].iter().zip(&vals[..kept]).map(|(&c, v)| (c, v.to_bits())).collect();
                            prop_assert_eq!(&got, &want, "isa={} room={} {}", isa, room, ctx);
                        }
                    }
                }
            }
        }
    }

    /// A CSR image built through each tier's compaction leaf ==
    /// the one built through the scalar leaf, bit for bit — row
    /// pointers, column indices and value bits — over any run of rows of
    /// a matrix whose width straddles both vector widths.
    #[test]
    fn csr_images_are_the_same_on_every_tier(
        rows in 1usize..=9,
        cols in 1usize..=70,
        zero_idx in 0usize..3,
        fill in 0u32..=4,
        bits in proptest::collection::vec(any::<u32>(), 64),
        salt in any::<u32>(),
    ) {
        let zero = [0.0, f32::INFINITY, f32::NEG_INFINITY][zero_idx];
        let noise = values(rows * cols, &bits, salt);
        let m = Matrix::from_fn(rows, cols, |r, c| {
            let i = r * cols + c;
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt) >> 28;
            if h % 4 < fill { zero } else { noise[i] }
        });
        let first = salt as usize % rows;
        let run = first..rows;
        let mut row_ptr = vec![0];
        for r in run.clone() {
            let stored = m.row(r).iter().filter(|&&x| x != zero).count();
            row_ptr.push(row_ptr[row_ptr.len() - 1] + stored);
        }
        let raw = |isa| {
            let (row_ptr, col_idx, values) = Csr::from_dense_rows(&m, run.clone(), zero, isa, row_ptr.clone())
                .unwrap()
                .into_raw();
            (row_ptr, col_idx, values.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        let want = raw(KernelIsa::Scalar);
        for isa in vector_tiers() {
            prop_assert_eq!(&raw(isa), &want, "isa={} {}x{} rows {:?}", isa, rows, cols, run);
        }
    }

    /// Chains of 3..=5 tile pairs in which each pair independently is
    /// NaN-free or carries a NaN in `A` only, in `B` only or in both,
    /// over a NaN-free or NaN-bearing accumulator (which the seed makes
    /// NaN-free for them): the selecting semirings take their unmasked
    /// `min`/`max` lowering on exactly the NaN-free pairs, switching
    /// route from pair to pair with the accumulator carried across, and
    /// must equal the fold on every tier whichever way each pair went.
    #[test]
    fn chains_mixing_nan_free_and_nan_bearing_pairs_match_the_scalar_leaf(
        op in op_strategy(),
        tiles in 3usize..=5,
        nan_in in proptest::collection::vec(0u8..4, 5),
        acc_nan in any::<bool>(),
        ties in any::<bool>(),
        bits in proptest::collection::vec(any::<u32>(), 64),
        salt in any::<u32>(),
    ) {
        let nan_in = &nan_in[..tiles];
        let mut a = ordered_values(tiles * CHAIN_ELEMS, &bits, salt, ties);
        let mut b = ordered_values(tiles * CHAIN_ELEMS, &bits, salt.wrapping_add(1), ties);
        let mut c = ordered_values(CHAIN_ELEMS, &bits, salt.wrapping_add(2), ties);
        let spot = |t: usize, step: usize| {
            t * CHAIN_ELEMS + (salt as usize).wrapping_mul(step + 2 * t) % CHAIN_ELEMS
        };
        for (t, &n) in nan_in.iter().enumerate() {
            if n & 1 != 0 {
                a[spot(t, 3)] = f32::NAN;
            }
            if n & 2 != 0 {
                b[spot(t, 5)] = -f32::NAN;
            }
        }
        if acc_nan {
            c[spot(0, 7)] = f32::NAN;
            c[spot(0, 11)] = f32::from_bits(0xFFC0_1234);
        }
        let want = fold_chain(op, &a, &b, &c, CHAIN_TILE);

        for isa in KernelIsa::ALL.into_iter().filter(|isa| isa.is_supported()) {
            let mut got = c.clone();
            simd::mmo_chain(isa, op, &a, &b, &mut got);
            for (i, (x, y)) in want.iter().zip(&got).enumerate() {
                prop_assert!(
                    simd::same_bits(*y, *x),
                    "{} pairs {:?} acc_nan={} ties={} isa={} element {} ({:e} vs {:e})",
                    op, nan_in, acc_nan, ties, isa, i, x, y
                );
            }
        }
    }

    /// Or-and chains of 0..=4 pairs of mostly-falsy operands over an
    /// accumulator of non-canonical values: truthiness is all the chain
    /// may read (NaN and subnormals truthy, `-0.0` falsy) and `1.0`/`0.0`
    /// all it may write, the empty chain included (its result is the
    /// seed `acc ⊕ 0.0`) — on every tier, so on the lane-mask lowering
    /// of both x86 tiers.
    #[test]
    fn or_and_chains_read_truthiness_only_and_write_canonical_booleans(
        tiles in 0usize..=4,
        salt in any::<u32>(),
    ) {
        const ACC: [f32; 8] = [0.0, f32::NAN, 0.0, -0.0, 2.5, 0.0, 1.0e-40, 1.0];
        let a = sparse_truthy(tiles * CHAIN_ELEMS, salt);
        let b = sparse_truthy(tiles * CHAIN_ELEMS, salt.wrapping_add(1));
        let c: Vec<f32> = (0..CHAIN_ELEMS)
            .map(|i| ACC[(i + i / CHAIN_TILE + salt as usize) % ACC.len()])
            .collect();
        let want = fold_chain(OpKind::OrAnd, &a, &b, &c, CHAIN_TILE);
        prop_assert!(want.iter().all(|&x| x.to_bits() == 0 || x == 1.0));

        for isa in KernelIsa::ALL.into_iter().filter(|isa| isa.is_supported()) {
            let mut got = c.clone();
            simd::mmo_chain(isa, OpKind::OrAnd, &a, &b, &mut got);
            let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
            let want: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(&got, &want, "chain of {} isa={}", tiles, isa);
        }
    }

    /// The three bit-row leaves or-and's bit walk folds with, on every
    /// supported tier, == the rule written out (and so the scalar leaf):
    /// [`simd::truthy_bits`] over rows of every length 0..=300 (whole
    /// words, whole vectors and scalar tails) of arbitrary bit patterns,
    /// NaNs, `±0.0` and subnormals at every fill of falsy elements, into
    /// a row longer than it needs whose spare words it must clear;
    /// [`simd::or_rows`] through the bit table of up to 70 rows of that
    /// width (words filling several blocks of 512-bit vectors, a leftover
    /// 512- or 256-bit vector, a scalar tail), picking any subset of them
    /// into an accumulator that already holds bits — the OR of the picked
    /// rows themselves; and [`simd::bits_to_f32`] writing the result
    /// out as `1.0` / `+0.0`, compared as bits.
    #[test]
    fn bit_row_leaves_match_the_rule_written_out(
        len in 0usize..=300,
        rows in 0usize..=70,
        fill in 0u32..=4,
        pick_fill in 0u32..=4,
        bits in proptest::collection::vec(any::<u32>(), 64),
        salt in any::<u32>(),
    ) {
        let hash = |i: usize, salt: u32| {
            let h = (i as u64 ^ u64::from(salt) << 32).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^ h >> 29
        };
        // `fill` in four of the elements are `±0.0`.
        let xs: Vec<f32> = values(len, &bits, salt)
            .into_iter()
            .enumerate()
            .map(|(i, x)| match hash(i, salt) % 8 {
                h if h < u64::from(2 * fill) => [0.0, -0.0][(h % 2) as usize],
                _ => x,
            })
            .collect();
        let words = simd::bit_words(len);
        let mut want_bits = vec![0u64; words + 2];
        for (j, &x) in xs.iter().enumerate() {
            want_bits[j / 64] |= u64::from(x != 0.0) << (j % 64);
        }
        let any = want_bits.iter().any(|&w| w != 0);
        let image: Vec<u64> = (0..rows * words).map(|i| hash(i, salt ^ 0xB)).collect();
        let pick: Vec<u64> = (0..simd::bit_words(rows))
            .map(|w| {
                (0..64)
                    .filter(|&b| w * 64 + b < rows && hash(w * 64 + b, salt ^ 0x9) % 4 < u64::from(pick_fill))
                    .fold(0, |word, b| word | 1 << b)
            })
            .collect();
        // The table of `image`'s rows, written out: entry `s` of group
        // `g` is the OR of rows `4g + i` for the bits `i` of `s`.
        let mut table = vec![0u64; simd::table_words(pick.len(), words)];
        for (e, entry) in table.chunks_exact_mut(words.max(1)).enumerate().filter(|_| words > 0) {
            let (g, s) = (e / simd::TABLE_ENTRIES, e % simd::TABLE_ENTRIES);
            for l in (0..simd::TABLE_GROUP).filter(|i| s >> i & 1 == 1).map(|i| g * simd::TABLE_GROUP + i) {
                for (x, r) in entry.iter_mut().zip(image.get(l * words..(l + 1) * words).unwrap_or(&[])) {
                    *x |= r;
                }
            }
        }
        let mut want_acc = want_bits[..words].to_vec();
        for l in (0..rows).filter(|&l| pick[l / 64] >> (l % 64) & 1 == 1) {
            for (a, r) in want_acc.iter_mut().zip(&image[l * words..]) {
                *a |= r;
            }
        }
        let want_out: Vec<u32> = (0..len)
            .map(|j| if want_acc[j / 64] >> (j % 64) & 1 == 1 { 1.0f32 } else { 0.0 }.to_bits())
            .collect();

        for isa in KernelIsa::ALL.into_iter().filter(|isa| isa.is_supported()) {
            let mut got = vec![u64::MAX; words + 2];
            prop_assert_eq!(simd::truthy_bits(isa, &xs, &mut got), any, "isa={} len={}", isa, len);
            prop_assert_eq!(&got, &want_bits, "isa={} len={}", isa, len);
            let mut acc = got[..words].to_vec();
            simd::or_rows(isa, &pick, &table, &mut acc);
            prop_assert_eq!(&acc, &want_acc, "isa={} len={} rows={}", isa, len, rows);
            let mut out = vec![f32::NAN; len];
            simd::bits_to_f32(isa, &acc, &mut out);
            let out: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(&out, &want_out, "isa={} len={}", isa, len);
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

    /// Min-max and max-min chains of 0..=5 pairs on the fp16 lanes, over
    /// the NaN-free generators moved onto the fp16 lattice (the `±0`-ties
    /// arm; infinities, fp16 subnormals and boundaries), with pairs that
    /// carry a NaN in `A`, `B` or both or an `f32` value off the lattice,
    /// over accumulators holding NaN, `±0`, `±∞` and values off the
    /// lattice. The image builders must name each tile's fit as the test
    /// reads it off the values (`±∞` is on the lattice: a tile holding
    /// one fits as [`HalfFit::Infinite`]); a chain folded pair by pair the
    /// way the engine folds it — fp16 lanes on exactly the pairs both of
    /// whose tiles fit, the `f32` leaf on the rest, the accumulator carried —
    /// and, when every pair fits, the one half-lane call over the whole
    /// chain, must equal the fold written out bit for bit. A host
    /// without AVX512-FP16 must get no half lanes.
    #[test]
    fn half_lane_chains_match_the_scalar_fold(
        min_max in any::<bool>(),
        tiles in 0usize..=5,
        ties in any::<bool>(),
        dirt in proptest::collection::vec(0u8..16, 5),
        bits in proptest::collection::vec(any::<u32>(), 64),
        salt in any::<u32>(),
    ) {
        let op = if min_max { OpKind::MinMax } else { OpKind::MaxMin };
        let Some(half) = HalfLanes::new(KernelIsa::Avx512, op) else {
            let f = simd::cpu_features();
            prop_assert!(!(f.avx512f && f.avx512fp16));
            return;
        };
        let lattice = |len, salt| -> Vec<f32> {
            let xs = ordered_values(len, &bits, salt, ties);
            xs.iter()
                .enumerate()
                .map(|(i, &x)| match (i as u32).wrapping_mul(40503).wrapping_add(salt) % 11 {
                    0 => HALF_SPECIALS[i % HALF_SPECIALS.len()],
                    _ => quantize_f16(x),
                })
                .collect()
        };
        let mut a = lattice(tiles * CHAIN_ELEMS, salt);
        let mut b = lattice(tiles * CHAIN_ELEMS, salt.wrapping_add(1));
        let c: Vec<f32> = lattice(CHAIN_ELEMS, salt.wrapping_add(2))
            .into_iter()
            .enumerate()
            .map(|(i, x)| if i % 3 == 0 { SEEDS[i / 3 % SEEDS.len()] } else { x })
            .collect();
        // Below 8, bits 0 and 1: a NaN in `A` / `B`; bit 2: a value off
        // the lattice, in `A` or `B` by the parity of the pair. From 8 on
        // the pair is clean, so that whole chains often are.
        let spot = |t: usize, step: usize| {
            t * CHAIN_ELEMS + (salt as usize).wrapping_mul(step + 2 * t) % CHAIN_ELEMS
        };
        for (t, d) in dirt[..tiles].iter().map(|&d| if d < 8 { d } else { 0 }).enumerate() {
            if d & 1 != 0 {
                a[spot(t, 3)] = f32::NAN;
            }
            if d & 2 != 0 {
                b[spot(t, 5)] = -f32::NAN;
            }
            if d & 4 != 0 {
                let side = if t % 2 == 0 { &mut a } else { &mut b };
                side[spot(t, 7)] = 1.0 + f32::EPSILON;
            }
        }
        let want = fold_chain(op, &a, &b, &c, CHAIN_TILE);

        let (mut a_img, mut b_img) = (vec![0; tiles * HALF_A_WORDS], vec![0; tiles * HALF_B_WORDS]);
        let (mut a_fits, mut b_fits) = (vec![HalfFit::Nan; tiles], vec![HalfFit::Nan; tiles]);
        half.image_a(&a, &mut a_img, &mut a_fits);
        half.image_b(&b, &mut b_img, &mut b_fits);
        for t in 0..tiles {
            let tile = t * CHAIN_ELEMS..(t + 1) * CHAIN_ELEMS;
            prop_assert_eq!(a_fits[t], fit_of(&a[tile.clone()]), "A tile {}", t);
            prop_assert_eq!(b_fits[t], fit_of(&b[tile]), "B tile {}", t);
        }
        let clean: Vec<bool> = (0..tiles)
            .map(|t| a_fits[t].max(b_fits[t]) <= HalfFit::Infinite)
            .collect();
        let mut by_pair = c.clone();
        simd::mmo_chain(KernelIsa::Avx512, op, &[], &[], &mut by_pair);
        for (t, &clean) in clean.iter().enumerate() {
            if clean {
                let (ai, bi) = (t * HALF_A_WORDS, t * HALF_B_WORDS);
                half.mmo_chain(&a_img[ai..ai + HALF_A_WORDS], &b_img[bi..bi + HALF_B_WORDS], &mut by_pair);
            } else {
                let tile = t * CHAIN_ELEMS..(t + 1) * CHAIN_ELEMS;
                simd::mmo_chain(KernelIsa::Avx512, op, &a[tile.clone()], &b[tile], &mut by_pair);
            }
        }
        let mut whole = c.clone();
        let all_clean = clean.iter().all(|&x| x);
        if all_clean {
            half.mmo_chain(&a_img, &b_img, &mut whole);
        }
        for (i, x) in want.iter().enumerate() {
            prop_assert!(
                by_pair[i].to_bits() == x.to_bits(),
                "{} pairs {:?} clean {:?} ties={} element {} ({:e} vs {:e})",
                op, &dirt[..tiles], clean, ties, i, x, by_pair[i]
            );
            prop_assert!(
                !all_clean || whole[i].to_bits() == x.to_bits(),
                "{} whole chain of {} ties={} element {} ({:e} vs {:e})",
                op, tiles, ties, i, x, whole[i]
            );
        }
    }

    /// Plus-mul chains of 0..=5 pairs on the FMA lanes of every vector
    /// tier, over values on the fp16 lattice — fp16 subnormals and
    /// `±65504`, so products from `2⁻⁴⁸` to `65504²` — with pairs that
    /// carry a NaN in `A`, a `±∞` in `A` or `B`, values off the lattice,
    /// or values whose products overflow the accumulator that later pairs
    /// fold into, over accumulators holding NaN, `±0`, `±∞`, `±f32::MAX`
    /// and values off the lattice. The fit leaf must name each tile's fit
    /// as the test reads it off the values; a chain folded pair by pair
    /// the way the engine folds it — fused on exactly the pairs both of
    /// whose tiles are exact, the unfused leaf on the rest, the
    /// accumulator carried — and, when every pair is exact, the one fused
    /// call over the whole chain, must equal the fold written out. The
    /// scalar tier and every other op get no FMA lanes.
    #[test]
    fn fma_lanes_match_the_scalar_fold(
        tiles in 0usize..=5,
        dirt in proptest::collection::vec(0u8..32, 5),
        bits in proptest::collection::vec(any::<u32>(), 64),
        salt in any::<u32>(),
    ) {
        const FINITE: [f32; 8] = [
            0.0,
            -0.0,
            1.0 / 16_777_216.0, // 2^-24, the smallest fp16 subnormal
            -1023.0 / 16_777_216.0, // the largest fp16 subnormal
            1.0 / 16_384.0, // 2^-14, the smallest fp16 normal
            65504.0,
            -65504.0,
            -1.0,
        ];
        const SEEDS: [f32; 8] = [
            f32::NAN,
            -0.0,
            0.0,
            0.1,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            -f32::MAX,
        ];
        for isa in KernelIsa::ALL {
            for op in ALL_OPS {
                let lanes = op == OpKind::PlusMul && isa != KernelIsa::Scalar && isa.is_supported();
                prop_assert_eq!(FmaLanes::new(isa, op).is_some(), lanes, "{} on {}", op, isa);
            }
        }
        let op = OpKind::PlusMul;
        let lattice = |len, salt| -> Vec<f32> {
            ordered_values(len, &bits, salt, false)
                .iter()
                .enumerate()
                .map(|(i, &x)| match (i as u32).wrapping_mul(40503).wrapping_add(salt) % 7 {
                    0 => FINITE[i % FINITE.len()],
                    _ => {
                        let q = quantize_f16(x);
                        if q.is_finite() { q } else { 65504.0f32.copysign(q) }
                    }
                })
                .collect()
        };
        let mut a = lattice(tiles * CHAIN_ELEMS, salt);
        let mut b = lattice(tiles * CHAIN_ELEMS, salt.wrapping_add(1));
        let c: Vec<f32> = lattice(CHAIN_ELEMS, salt.wrapping_add(2))
            .into_iter()
            .enumerate()
            .map(|(i, x)| if i % 3 == 0 { SEEDS[i / 3 % SEEDS.len()] } else { x })
            .collect();
        // Below 16, bit 0: a NaN in `A`; bit 1: `±∞` in `A` or `B` by the
        // parity of the pair; bit 2: every fifth value of `A` or `B` off
        // the lattice; bit 3: both tiles `1e19`, whose products overflow
        // the accumulator within four terms. From 16 on the pair is
        // clean, so that whole chains often are.
        let spot = |t: usize, step: usize| {
            t * CHAIN_ELEMS + (salt as usize).wrapping_mul(step + 2 * t) % CHAIN_ELEMS
        };
        for (t, d) in dirt[..tiles].iter().map(|&d| if d < 16 { d } else { 0 }).enumerate() {
            let tile = t * CHAIN_ELEMS..(t + 1) * CHAIN_ELEMS;
            if d & 1 != 0 {
                a[spot(t, 3)] = f32::NAN;
            }
            if d & 2 != 0 {
                let side = if t % 2 == 0 { &mut a } else { &mut b };
                side[spot(t, 5)] = if salt.is_multiple_of(2) { f32::INFINITY } else { f32::NEG_INFINITY };
            }
            if d & 4 != 0 {
                let side = if t % 2 == 0 { &mut b } else { &mut a };
                for x in side[tile.clone()].iter_mut().step_by(5) {
                    *x = *x * 1.1 + 0.3;
                }
            }
            if d & 8 != 0 {
                a[tile.clone()].fill(1.0e19);
                b[tile].fill(1.0e19);
            }
        }
        let want = fold_chain(op, &a, &b, &c, CHAIN_TILE);
        for isa in vector_tiers() {
            let fma = FmaLanes::new(isa, op).expect("a vector tier has FMA lanes");
            let (mut a_fits, mut b_fits) = (vec![HalfFit::Nan; tiles], vec![HalfFit::Nan; tiles]);
            fma.fits(&a, &mut a_fits);
            fma.fits(&b, &mut b_fits);
            for t in 0..tiles {
                let tile = t * CHAIN_ELEMS..(t + 1) * CHAIN_ELEMS;
                prop_assert_eq!(a_fits[t], fit_of(&a[tile.clone()]), "{} A tile {}", isa, t);
                prop_assert_eq!(b_fits[t], fit_of(&b[tile]), "{} B tile {}", isa, t);
            }
            let clean: Vec<bool> = (0..tiles)
                .map(|t| a_fits[t].max(b_fits[t]) == HalfFit::Exact)
                .collect();
            let mut by_pair = c.clone();
            simd::mmo_chain(isa, op, &[], &[], &mut by_pair);
            for (t, &clean) in clean.iter().enumerate() {
                let tile = t * CHAIN_ELEMS..(t + 1) * CHAIN_ELEMS;
                if clean {
                    fma.mmo_chain(&a[tile.clone()], &b[tile], &mut by_pair);
                } else {
                    simd::mmo_chain(isa, op, &a[tile.clone()], &b[tile], &mut by_pair);
                }
            }
            let mut whole = c.clone();
            let all_clean = clean.iter().all(|&x| x);
            if all_clean {
                fma.mmo_chain(&a, &b, &mut whole);
            }
            for (i, x) in want.iter().enumerate() {
                prop_assert!(
                    simd::same_bits(by_pair[i], *x),
                    "{} pairs {:?} clean {:?} element {} ({:e} vs {:e})",
                    isa, &dirt[..tiles], clean, i, x, by_pair[i]
                );
                prop_assert!(
                    !all_clean || simd::same_bits(whole[i], *x),
                    "{} whole chain of {} element {} ({:e} vs {:e})",
                    isa, tiles, i, x, whole[i]
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

/// Exhaustive over the shape axis the properties above only sample, on
/// every supported tier against the scalar one, with the adversarial
/// values in every operand: the row sweep over all nine ops × every row
/// width 1..=130, on a walk that repeats and skips rows; and every slice
/// leaf — scan, compaction into room for the stored count of a dense
/// and of a sparse row (both of its branches) and into room for every
/// element, the three bit-row leaves, the quantiser — at every length
/// 0..=300, so at every tail each vector width leaves.
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
    let to_bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    // 128 rows of bit table, about half of them picked.
    let pick: Vec<u64> = (0..2)
        .map(|w| u64::from(bits[w]) << 32 | u64::from(bits[w + 2]))
        .collect();
    for len in 0usize..=300 {
        let dense = values(len, &bits, len as u32);
        let sparse: Vec<f32> = dense
            .iter()
            .enumerate()
            .map(|(i, &x)| if i % 97 == 5 { x } else { 0.0 })
            .collect();
        let words = simd::bit_words(len);
        let table: Vec<u64> = (0..simd::table_words(pick.len(), words))
            .map(|i| u64::from(bits[i % bits.len()]).rotate_left(i as u32))
            .collect();
        let run = |isa: KernelIsa| {
            let compact = |xs: &[f32], room: usize| {
                let (mut cols, mut vals) = (vec![0u32; room], vec![0.0f32; room]);
                let kept = simd::compact(isa, 0.0, xs, &mut cols, &mut vals);
                (cols[..kept].to_vec(), to_bits(&vals[..kept]))
            };
            let stored = |xs: &[f32]| xs.iter().filter(|&&x| x != 0.0).count();
            let mut row = vec![u64::MAX; words + 1];
            let any = simd::truthy_bits(isa, &dense, &mut row);
            let mut acc = row[..words].to_vec();
            simd::or_rows(isa, &pick, &table, &mut acc);
            let mut out = vec![f32::NAN; len];
            simd::bits_to_f32(isa, &acc, &mut out);
            let mut quantized = dense.clone();
            simd::quantize_f16_slice(isa, &mut quantized);
            (
                [simd::scan(isa, 0.0, &dense), simd::scan(isa, 0.0, &sparse)],
                [
                    compact(&dense, stored(&dense)),
                    compact(&sparse, stored(&sparse)),
                    compact(&dense, len),
                ],
                (any, row, acc, to_bits(&out), to_bits(&quantized)),
            )
        };
        let want = run(KernelIsa::Scalar);
        for isa in vector_tiers() {
            assert_eq!(run(isa), want, "len={len} isa={isa}");
        }
    }
}

/// The vector quantiser == `precision::quantize_f16` on every one of
/// the 2³² `f32` bit patterns, on every supported tier. Ignored in the
/// default run for its length (≈ 20 s optimised, minutes unoptimised);
/// `scripts/verify.sh --full` runs it with `--release`.
#[test]
#[ignore = "2^32 patterns: run with --release (scripts/verify.sh --full does)"]
fn quantiser_matches_the_scalar_round_trip_on_every_bit_pattern() {
    const BLOCK: u32 = 1 << 16;
    let tiers = vector_tiers();
    let mut want = vec![0u32; BLOCK as usize];
    let mut got = vec![0.0f32; BLOCK as usize];
    for base in (0..=u32::MAX).step_by(BLOCK as usize) {
        // The scalar round trip is the slow side: once per block.
        for (w, bits) in want.iter_mut().zip(base..) {
            *w = quantize_f16(f32::from_bits(bits)).to_bits();
        }
        for &isa in &tiers {
            for (x, bits) in got.iter_mut().zip(base..) {
                *x = f32::from_bits(bits);
            }
            simd::quantize_f16_slice(isa, &mut got);
            for ((g, w), bits) in got.iter().zip(&want).zip(base..) {
                assert_eq!(g.to_bits(), *w, "{isa} on {bits:#010x}");
            }
        }
    }
}

/// A compaction into a buffer shorter than the row's stored count
/// panics on every tier rather than writing past it.
#[test]
fn compaction_into_too_small_a_buffer_panics_on_every_tier() {
    let xs: Vec<f32> = (1..=40).map(|i| i as f32).collect();
    for isa in KernelIsa::ALL.into_iter().filter(|isa| isa.is_supported()) {
        let caught = std::panic::catch_unwind(|| {
            let (mut cols, mut vals) = (vec![0u32; 39], vec![0.0f32; 39]);
            simd::compact(isa, 0.0, &xs, &mut cols, &mut vals)
        });
        assert!(caught.is_err(), "isa={isa}");
    }
}
