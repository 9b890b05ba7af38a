//! The engine's walks against the reference.
//!
//! Every MMO [`TiledBackend`] runs — whichever walk it measures the
//! operands for: the tile chain, or a row walk over a sparse, 2:4 or
//! dense `A` and a swept or scattered `B` — at fp32 / fp16 / int8
//! operands and 1 / 2 / 4 / 8 workers, must produce the bits of
//! [`reference::mmo`]: on the operands themselves at full precision, on
//! their scalar-quantised (`quantize_f16`, `quantize_int8`) images at
//! reduced precision, which is by definition what the scalar leaf
//! computes — and the `OpCount` of the same step on the forced tile
//! chain (`pools/chain.rs`), whichever walk the engine picked. Which it
//! picked is pinned through [`RowCount`] where the operands are clear
//! of every walk-or-chain bound. Output widths straddle the vector and
//! strip boundaries (1, 15, 17, 63, 64, 65, 130) and `k` straddles the
//! sweep's `B` block.
//!
//! The engine declines a walk that would not pay, so this suite cannot
//! force a row kernel at an arbitrary density: the kernel-level
//! differential (every kernel under every walk, forced) lives beside the
//! kernels, in `src/backend/rows.rs`.
//!
//! Operands carry the hostile values each op's annihilator contract
//! admits (see `pools/hostile.rs`): stored `±0.0`, `±∞`, NaN payloads,
//! values that underflow to zero in fp16. The values it does *not*
//! admit — the ones that make the engine walk an operand whole, or hand
//! the whole step back to the tile chain — are the second property's
//! (see [`specials`]): there the engine's pick must not move a bit
//! whatever the operands — and the accumulator the fold is seeded with —
//! hold. `scripts/verify.sh --full` runs this suite on the detected ISA
//! and again under `SIMD2_FORCE_SCALAR`.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simd2::{Backend, Parallelism, ReferenceBackend, RowCount, TiledBackend};
use simd2_matrix::{reference, Matrix};
use simd2_mxu::PrecisionMode::{self, Fp16Input, Fp32Input, Int8Input};
use simd2_mxu::Simd2Unit;
use simd2_semiring::precision::quantize_f16;
use simd2_semiring::simd::same_bits;
use simd2_semiring::{OpKind, ALL_OPS};

#[path = "pools/chain.rs"]
mod chain;
#[path = "pools/hostile.rs"]
mod hostile;
mod pools;
use chain::ChainOnly;
use hostile::{bits, hostile, quantized, structure_2_4};
use pools::{operand, specials};

const WIDTHS: [usize; 7] = [1, 15, 17, 63, 64, 65, 130];
/// Inner dimensions: inside one sweep block, and across two and three.
const DEPTHS: [usize; 5] = [1, 7, 127, 129, 260];
/// `A` densities under every walk bound, between or-and's and the other
/// ops', above both, and full.
const A_DENSITIES: [f64; 4] = [0.01, 0.15, 0.6, 1.0];
/// `B` densities sparse enough to scatter under a dense walk, well
/// below, just either side of, and well above the sweep threshold.
const B_DENSITIES: [f64; 5] = [0.005, 0.03, 0.05, 0.09, 0.6];

/// One MMO on a fresh backend; returns the output and the backend, for
/// its counters.
fn run(
    op: OpKind,
    a: &Matrix,
    b: &Matrix,
    c: &Matrix,
    precision: PrecisionMode,
    workers: usize,
) -> (Matrix, TiledBackend) {
    let mut be = TiledBackend::with_unit(Simd2Unit::with_precision(precision));
    be.set_parallelism(Parallelism::Threads(workers));
    let d = be.mmo(op, a, b, c).unwrap_or_else(|e| panic!("{op}: {e}"));
    (d, be)
}

/// The same MMO on the forced tile chain, on one thread.
fn chain(
    op: OpKind,
    a: &Matrix,
    b: &Matrix,
    c: &Matrix,
    precision: PrecisionMode,
) -> (Matrix, TiledBackend<ChainOnly>) {
    let mut be = TiledBackend::with_unit(ChainOnly(Simd2Unit::with_precision(precision)));
    let d = be.mmo(op, a, b, c).unwrap_or_else(|e| panic!("{op}: {e}"));
    (d, be)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The whole operand × precision × worker matrix against the
    /// reference and the forced chain, with the engine's pick pinned
    /// where it is clear and exact, worker-invariant term accounting.
    #[test]
    fn every_walk_and_kernel_matches_the_reference(
        op_idx in 0usize..ALL_OPS.len(),
        m in 1usize..=50,
        k_idx in 0usize..DEPTHS.len(),
        n_idx in 0usize..WIDTHS.len(),
        a_density_idx in 0usize..A_DENSITIES.len(),
        b_density_idx in 0usize..B_DENSITIES.len(),
        seed in any::<u64>(),
    ) {
        let op = ALL_OPS[op_idx];
        let (k, n) = (DEPTHS[k_idx], WIDTHS[n_idx]);
        let a_density = A_DENSITIES[a_density_idx];
        let b_density = B_DENSITIES[b_density_idx];
        let fill = op.no_edge_f32().unwrap_or(0.0);
        let pool = hostile(op);
        let a = operand(&pool, m, k, fill, a_density, seed);
        let a24 = structure_2_4(&a, fill, seed ^ 0x24);
        let b = operand(&pool, k, n, fill, b_density, seed ^ 0xB);
        let c = operand(&pool, m, n, op.reduce_identity_f32(), 0.7, seed ^ 0xC);

        for precision in [Fp32Input, Fp16Input, Int8Input] {
            let oracle = |a: &Matrix| {
                let (a, b) = (quantized(a, precision), quantized(&b, precision));
                reference::mmo(op, &a, &b, &c).unwrap()
            };
            for am in [&a, &a24] {
                let want = bits(&oracle(am));
                let (_, chained) = chain(op, am, &b, &c, precision);
                let (_, seq) = run(op, am, &b, &c, precision, 1);
                let seq_count = seq.row_count();
                for workers in [1usize, 2, 4, 8] {
                    let (got, be) = run(op, am, &b, &c, precision, workers);
                    prop_assert_eq!(
                        &bits(&got), &want,
                        "{} {}x{}x{} {:?} workers={} a_d={} b_d={}",
                        op, m, n, k, precision, workers, a_density, b_density
                    );
                    // The walk is the engine's business: the chain's
                    // `OpCount`. Panel-order merge: term counters are
                    // exact, whatever the worker count.
                    prop_assert_eq!(be.op_count(), chained.op_count(), "{} workers={}", op, workers);
                    prop_assert_eq!(be.row_count(), seq_count, "{} workers={}", op, workers);
                }
                // A row-walked step's folded + skipped terms tile m·n·k;
                // the tile chain counts no terms.
                let walked = seq_count.sparse_mmos == 1;
                if walked {
                    prop_assert_eq!(
                        seq_count.fma_terms + seq_count.skipped_terms, (m * n * k) as u64,
                        "{}: folded + skipped terms tile m·n·k", op
                    );
                } else {
                    prop_assert_eq!(seq_count, RowCount::default(), "{} tile chain", op);
                }
                // Quantising after compression: which terms are stored —
                // hence the pick — does not depend on the precision.
                if precision != Fp32Input {
                    let (_, full) = run(op, am, &b, &c, Fp32Input, 1);
                    prop_assert_eq!(seq_count, full.row_count(), "{}", op);
                }
                // The pick where the operands are clear of every bound
                // (these pools stay inside every op's value domain): two
                // operands too dense for any walk to skip go to the
                // chain; a hundredth-full `A` over whole tile rows and a
                // deep `k` leaves the chain few pairs to leave out, and
                // walks.
                let stored = |m: &Matrix| simd2::repr::density(m, fill);
                let ctx = format!("{op} stored {} x {}", stored(am), stored(&b));
                if stored(am) > 0.5 && stored(&b) > 0.08 {
                    prop_assert!(!walked, "{}", ctx);
                }
                let clearly_sparse = stored(am) <= 0.02 && stored(&b) >= 0.5 && m.is_multiple_of(16) && k >= 127;
                if op != OpKind::PlusNorm && clearly_sparse {
                    prop_assert!(walked, "{}", ctx);
                }
                if walked && seq_count.swept_b_mmos == 1 {
                    let walk_terms = am.as_slice().iter().filter(|&&x| x != fill).count() as u64;
                    let a_terms = if seq_count.skipped_terms > 0 { walk_terms } else { (m * k) as u64 };
                    prop_assert_eq!(seq_count.fma_terms, a_terms * n as u64, "{}", op);
                }
            }
        }
    }
}

/// Max-mul rows whose stored products are all negative: the `0·b = +0.0`
/// products of the dense fold must still lift them to `0.0`, and only
/// where `A` holds a zero. Negative entries are outside max-mul's value
/// domain, so the engine gets there on the tile chain.
#[test]
fn negative_max_mul_entries_get_the_zero_correction() {
    let op = OpKind::MaxMul;
    for (n, k) in [(1, 8), (17, 12), (65, 130), (130, 260)] {
        let mut rng = SmallRng::seed_from_u64(n as u64);
        // Row 0 is full for the CSR walk (nothing skipped: it stays
        // negative) and half full for the 2:4 walk; the rest are sparse
        // or empty.
        let a_csr = Matrix::from_fn(9, k, |r, l| {
            if r == 0 || (r < 6 && (l + r) % 4 == 0) {
                -rng.gen_range(0.5f32..9.5)
            } else {
                0.0
            }
        });
        let a_24 = Matrix::from_fn(9, k, |r, l| {
            if r == 0 && l % 4 > 1 {
                0.0
            } else {
                a_csr[(r, l)]
            }
        });
        let b = Matrix::from_fn(k, n, |_, _| rng.gen_range(0.5f32..9.5));
        let c = Matrix::filled(9, n, f32::NEG_INFINITY);
        for a in [&a_csr, &a_24] {
            let want = reference::mmo(op, a, &b, &c).unwrap();
            assert_eq!(
                want.row(0).iter().all(|&x| x < 0.0),
                std::ptr::eq(a, &a_csr)
            );
            assert!(want.row(1).iter().all(|&x| x == 0.0));
            for precision in [Fp32Input, Fp16Input] {
                let (qa, qb) = (quantized(a, precision), quantized(&b, precision));
                let want = reference::mmo(op, &qa, &qb, &c).unwrap();
                for workers in [1, 2] {
                    let (got, _) = run(op, a, &b, &c, precision, workers);
                    let pattern = if std::ptr::eq(a, &a_csr) {
                        "sparse"
                    } else {
                        "2:4"
                    };
                    assert_eq!(bits(&got), bits(&want), "{pattern} n={n} k={k}");
                }
            }
        }
    }
}

/// A stored entry that underflows to zero in fp16 stays a stored, folded
/// term at reduced precision: same counters as at full precision, and a
/// max-mul column it feeds is *not* treated as having skipped a product
/// (the negative entries hand max-mul to the tile chain; plus-mul takes
/// its CSR walk).
#[test]
fn fp16_underflow_keeps_a_stored_term_stored() {
    let tiny = 1.0e-9f32;
    assert_eq!(quantize_f16(tiny), 0.0);
    // One full row of tiny negatives — nothing of it is skipped, so its
    // dense fold never sees a `+0.0`: at reduced precision every product
    // is `-0.0` — under three empty ones that keep `A` sparse enough to
    // walk (a first row that full would have told the sample `A` is
    // dense).
    let a = Matrix::from_fn(4, 8, |r, _| if r == 3 { -tiny } else { 0.0 });
    let b = Matrix::filled(8, 20, 2.0);
    let c = Matrix::filled(4, 20, f32::NEG_INFINITY);
    for op in [OpKind::MaxMul, OpKind::PlusMul] {
        let (qa, qb) = (quantized(&a, Fp16Input), quantized(&b, Fp16Input));
        let want = reference::mmo(op, &qa, &qb, &c).unwrap();
        let (got, reduced) = run(op, &a, &b, &c, Fp16Input, 1);
        assert_eq!(bits(&got), bits(&want), "{op}");
        let (_, full) = run(op, &a, &b, &c, Fp32Input, 1);
        assert_eq!(reduced.row_count(), full.row_count(), "{op}");
        // Row 3's eight entries are folded against all twenty columns.
        let walked = u64::from(op == OpKind::PlusMul);
        assert_eq!(reduced.row_count().sparse_mmos, walked, "{op}");
        assert_eq!(reduced.row_count().fma_terms, walked * 8 * 20, "{op}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The engine's pick is a schedule, never a semantic change, on
    /// *every* operand value, not only on the op's value domain: each
    /// step returns the bits of the forced tile chain, and at full
    /// precision those of `ReferenceBackend`.
    #[test]
    fn declarations_never_change_bits(
        op_idx in 0usize..ALL_OPS.len() - 1,
        pool in 0usize..4,
        m in 1usize..=20,
        k_idx in 0usize..4,
        n_idx in 0usize..4,
        sparse_a in any::<bool>(),
        sparse_b in any::<bool>(),
        seed in any::<u64>(),
    ) {
        // Plus-norm has no annihilator, hence nothing to skip.
        let annihilating = ALL_OPS.into_iter().filter(|op| op.no_edge_f32().is_some());
        let op = annihilating.clone().nth(op_idx).unwrap();
        prop_assert_eq!(annihilating.count(), ALL_OPS.len() - 1);
        let zero = op.no_edge_f32().unwrap();
        let (k, n) = ([1, 3, 9, 40][k_idx], [1, 5, 17, 70][n_idx]);
        // Below the sweep threshold `B` is scattered, above it swept.
        let b_density = if sparse_b { 0.06 } else { 0.5 };
        // Under or-and's walk bound, or under the other ops' only.
        let a_density = if sparse_a { 0.02 } else { 0.2 };
        let a = operand(specials(pool), m, k, zero, a_density, seed);
        let a24 = structure_2_4(&a, zero, seed ^ 0x24);
        let b = operand(specials(pool), k, n, zero, b_density, seed ^ 0xB);
        let c = operand(specials(pool), m, n, op.reduce_identity_f32(), 0.7, seed ^ 0xC);
        for precision in [Fp32Input, Fp16Input, Int8Input] {
            for am in [&a, &a24] {
                let (want, _) = chain(op, am, &b, &c, precision);
                for workers in [1usize, 3] {
                    let (got, _) = run(op, am, &b, &c, precision, workers);
                    // Two kernels: exact bits, and in optimised builds
                    // NaN-ness for two NaNs (`same_bits`; the pools put
                    // NaNs of both signs into one `+` reduction).
                    let mut pairs = got.as_slice().iter().zip(want.as_slice());
                    prop_assert!(
                        pairs.all(|(&x, &y)| same_bits(x, y)),
                        "{} pool {} {}x{}x{} {:?} workers={}",
                        op, pool, m, n, k, precision, workers
                    );
                }
                if precision == Fp32Input {
                    let oracle = ReferenceBackend::new().mmo(op, am, &b, &c).unwrap();
                    let agree = want.as_slice().iter().zip(oracle.as_slice());
                    prop_assert!(
                        agree.clone().all(|(&x, &y)| same_bits(x, y)),
                        "{} pool {} {}x{}x{}: chain vs reference", op, pool, m, n, k
                    );
                }
            }
        }
    }
}

/// One 1×1×1 MMO whose `A` is `op`'s annihilator, as the engine picks
/// its walk: the result, which must equal the forced chain's and the
/// reference's.
fn annihilator_1x1(op: OpKind, a: f32, b: f32, c: f32) -> f32 {
    let (a, b, c) = (
        Matrix::filled(1, 1, a),
        Matrix::filled(1, 1, b),
        Matrix::filled(1, 1, c),
    );
    let (got, _) = run(op, &a, &b, &c, Fp32Input, 1);
    let (want, _) = chain(op, &a, &b, &c, Fp32Input);
    let oracle = ReferenceBackend::new().mmo(op, &a, &b, &c).unwrap();
    assert!(
        same_bits(got[(0, 0)], want[(0, 0)]) && same_bits(got[(0, 0)], oracle[(0, 0)]),
        "{op}: engine {:e}, chain {:e}, reference {:e}",
        got[(0, 0)],
        want[(0, 0)],
        oracle[(0, 0)]
    );
    got[(0, 0)]
}

#[test]
fn min_mul_folds_its_annihilator_against_a_negative_factor() {
    // `+∞ × −1 = −∞` wins the min: the term is not skippable.
    let d = annihilator_1x1(OpKind::MinMul, f32::INFINITY, -1.0, 0.5);
    assert_eq!(d, f32::NEG_INFINITY);
}

#[test]
fn plus_mul_folds_its_annihilator_against_an_infinite_factor() {
    // `0 × ∞` is NaN and `+` propagates it.
    assert!(annihilator_1x1(OpKind::PlusMul, 0.0, f32::INFINITY, 1.0).is_nan());
}

#[test]
fn max_mul_folds_its_annihilator_against_a_negative_factor() {
    // `0 × −1 = −0.0`, not the `+0.0` of the end correction.
    let d = annihilator_1x1(OpKind::MaxMul, 0.0, -1.0, -2.0);
    assert_eq!(d.to_bits(), (-0.0f32).to_bits());
}

#[test]
fn max_mul_folds_its_annihilator_against_an_infinite_factor() {
    // `0 × ∞` is NaN, which max drops: nothing lifts `C` to `0.0`.
    assert_eq!(
        annihilator_1x1(OpKind::MaxMul, 0.0, f32::INFINITY, -2.0),
        -2.0
    );
}

/// A negative stored max-mul entry against a zero makes a `−0.0` product,
/// which ties with the `+0.0` of a skipped one: the dense fold keeps
/// whichever came first, so one `⊕ 0.0` at the end cannot stand for it.
#[test]
fn max_mul_keeps_the_order_of_a_signed_zero_tie() {
    let op = OpKind::MaxMul;
    let a = Matrix::from_rows(&[&[0.0, -1.5]]);
    let b = Matrix::from_rows(&[&[1.5], &[0.0]]);
    let c = Matrix::filled(1, 1, -1.5);
    let (want, _) = chain(op, &a, &b, &c, Fp32Input);
    let (got, _) = run(op, &a, &b, &c, Fp32Input, 1);
    assert_eq!(bits(&got), bits(&want));
    assert_eq!(bits(&want), bits(&reference::mmo(op, &a, &b, &c).unwrap()));
}
