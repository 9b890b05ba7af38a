//! One numeric contract: every backend computes the same reduction.
//!
//! Each output element starts from `C ⊕ id` and folds its `⊗` terms in
//! ascending `k` (`simd2_semiring::simd`), so a chain of per-tile
//! instructions (`IsaBackend`), the packed chain kernel of
//! `TiledBackend`, its row walks that skip annihilator terms (a CSR or
//! 2:4 declaration on the same backend) and the naive triple loop
//! (`ReferenceBackend`) are one function of the operand bits — for all
//! nine ops, the two whose `⊕` rounds included, at fp16, fp32 and int8
//! operand precision — and so is the tile chain that leaves out the tile
//! pairs an all-annihilator tile decides, on block-sparse operands. This
//! is the one suite that sees every backend; operands come from the pool
//! generators of `crates/core/tests/pools`, `C` too. `scripts/verify.sh --full` runs it on both dispatch legs,
//! and once more optimised (the `±0` hazards of `f32::max` only ever
//! showed in release builds).

use std::sync::Arc;

use simd2_repro::core::backend::{Backend, IsaBackend, ReferenceBackend, TiledBackend};
use simd2_repro::core::{MatrixRef, OperandRepr, Parallelism, RecoveryPolicy, ResilientBackend};
use simd2_repro::fault::{FaultPlan, FaultPlanConfig, FaultySimd2Unit, PlannedInjector};
use simd2_repro::matrix::Matrix;
use simd2_repro::mxu::{PrecisionMode, Simd2Unit};
use simd2_repro::semiring::simd::same_bits;
use simd2_repro::semiring::{OpKind, ALL_OPS};
use simd2_repro::trace::{NullSink, Tracer};

#[path = "../crates/core/tests/pools/mod.rs"]
mod pools;
use pools::{block_sparse, operand, specials, Blocks};
#[allow(dead_code)]
#[path = "../crates/core/tests/pools/hostile.rs"]
mod hostile;
use hostile::quantized;

/// `(m, n, k)`: inside one tile, ragged on every side, whole tiles,
/// wider than a sweep strip with `k` across two sweep blocks, and nothing
/// to fold at all.
const SHAPES: [(usize, usize, usize); 5] = [
    (5, 7, 3),
    (33, 31, 29),
    (64, 64, 64),
    (48, 80, 130),
    (19, 21, 0),
];

/// Largest output the ISA executor is asked for (it is the slowest path).
const ISA_MAX_ELEMS: usize = 33 * 31;

/// Negates every ordinary (finite, non-zero) element a seeded third of
/// the time, leaving annihilators and the pool's specials in place.
fn signed(mut m: Matrix, seed: u64) -> Matrix {
    for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
        let h = (i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61;
        if h < 3 && v.is_finite() && *v != 0.0 {
            *v = -*v;
        }
    }
    m
}

/// `m` with the last two entries of every aligned group of four along a
/// row at `zero`: 2:4-compliant whatever `m` held.
fn structured_24(mut m: Matrix, zero: f32) -> Matrix {
    for r in 0..m.rows() {
        for group in m.row_mut(r).chunks_mut(4) {
            for v in group.iter_mut().skip(2) {
                *v = zero;
            }
        }
    }
    m
}

fn engine(precision: PrecisionMode) -> TiledBackend {
    TiledBackend::with_unit(Simd2Unit::with_precision(precision))
}

fn assert_same(got: &Matrix, want: &Matrix, ctx: &str) {
    assert_eq!(got.shape(), want.shape(), "{ctx}");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(same_bits(*g, *w), "{ctx}: element {i}: {g:e} vs {w:e}");
    }
}

/// Nine ops × five shapes × four value pools × positive / signed, at all
/// three operand precisions: the engines — and every walk of the one
/// engine — agree bit for bit wherever they see the same operand bits.
#[test]
fn every_backend_computes_one_reduction() {
    for (oi, op) in ALL_OPS.into_iter().enumerate() {
        let zero = op.no_edge_f32();
        let fill = zero.unwrap_or(0.0);
        for (si, (m, n, k)) in SHAPES.into_iter().enumerate() {
            for pool in 0..4 {
                for sign in [false, true] {
                    let seed = ((oi * SHAPES.len() + si) * 4 + pool) as u64 * 2 + u64::from(sign);
                    let gen = |rows, cols, zero, density, salt: u64| {
                        let x = operand(specials(pool), rows, cols, zero, density, seed ^ salt);
                        if sign {
                            signed(x, seed ^ salt)
                        } else {
                            x
                        }
                    };
                    // Densities the engine row-walks a declared operand
                    // at: `a` and `sparse_b` for every op but or-and,
                    // `sparse_a` for or-and too.
                    let a = gen(m, k, fill, 0.2, 0xA);
                    let sparse_a = gen(m, k, fill, 0.02, 0xE);
                    let a24 = structured_24(a.clone(), fill);
                    let b = gen(k, n, fill, 0.4, 0xB);
                    let sparse_b = gen(k, n, fill, 0.015, 0xD);
                    let c = gen(m, n, op.reduce_identity_f32(), 0.7, 0xC);
                    let ctx = format!("{op} {m}x{n}x{k} pool {pool} signed={sign}");

                    for precision in [
                        PrecisionMode::Fp16Input,
                        PrecisionMode::Fp32Input,
                        PrecisionMode::Int8Input,
                    ] {
                        // The tile chain (every operand dense) is what
                        // each declared walk of the engine must equal.
                        let chain = engine(precision).mmo(op, &a, &b, &c).unwrap();
                        if let Some(z) = zero {
                            let (csr, s24) = (OperandRepr::csr(z), OperandRepr::structured(z));
                            let dense = OperandRepr::Dense;
                            for (am, ra, bm, rb) in [
                                (&a, csr, &b, dense),
                                (&a, csr, &b, csr),
                                (&a, csr, &sparse_b, csr),
                                (&a, dense, &sparse_b, csr),
                                (&a24, s24, &b, dense),
                                (&sparse_a, csr, &b, dense),
                                (&sparse_a, csr, &sparse_b, csr),
                            ] {
                                let want = if std::ptr::eq(am, &a) && std::ptr::eq(bm, &b) {
                                    chain.clone()
                                } else {
                                    engine(precision).mmo(op, am, bm, &c).unwrap()
                                };
                                let got = engine(precision)
                                    .mmo_ref(
                                        op,
                                        MatrixRef::new(am, ra),
                                        MatrixRef::new(bm, rb),
                                        MatrixRef::dense(&c),
                                    )
                                    .unwrap();
                                let walk = format!("{}x{} walk", ra.name(), rb.name());
                                assert_same(&got, &want, &format!("{ctx}: {precision:?}, {walk}"));
                            }
                        }
                        match precision {
                            // fp16 operands: the ISA executor's datapath.
                            PrecisionMode::Fp16Input if m * n <= ISA_MAX_ELEMS => {
                                let isa = IsaBackend::new().mmo(op, &a, &b, &c).unwrap();
                                assert_same(&isa, &chain, &format!("{ctx}: ISA executor"));
                            }
                            // fp32 operands: the naive triple loop's.
                            PrecisionMode::Fp32Input => {
                                let oracle = ReferenceBackend::new().mmo(op, &a, &b, &c).unwrap();
                                assert_same(
                                    &chain,
                                    &oracle,
                                    &format!("{ctx}: tiled, fp32 operands"),
                                );
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
    }
}

/// Operand padding must be inert. Max-mul's no-edge value is `0.0`, and
/// a padded `0 × 0 = +0.0` would win the max over an all-negative
/// reduction: with `k = 16` nothing is padded, with `k = 1` fifteen `k`
/// steps are.
#[test]
fn max_mul_on_a_ragged_k_keeps_an_all_negative_reduction() {
    let op = OpKind::MaxMul;
    for k in [1, 3, 16, 17] {
        let a = Matrix::filled(1, k, -1.0);
        let b = Matrix::filled(k, 1, 2.0);
        let c = Matrix::filled(1, 1, -5.0);
        let run = |be: &mut dyn Backend| be.mmo(op, &a, &b, &c).unwrap()[(0, 0)];
        assert_eq!(run(&mut ReferenceBackend::new()), -2.0, "reference, k={k}");
        assert_eq!(
            run(&mut engine(PrecisionMode::Fp32Input)),
            -2.0,
            "fp32, k={k}"
        );
        assert_eq!(run(&mut TiledBackend::new()), -2.0, "tiled, k={k}");
        let declared = TiledBackend::new()
            .mmo_ref(
                op,
                MatrixRef::new(&a, OperandRepr::csr(0.0)),
                MatrixRef::dense(&b),
                MatrixRef::dense(&c),
            )
            .unwrap();
        assert_eq!(declared[(0, 0)], -2.0, "tiled, CSR-declared A, k={k}");
        assert_eq!(run(&mut IsaBackend::new()), -2.0, "ISA executor, k={k}");
    }
}

/// With `k = 0` there is nothing to fold and the result is the seed,
/// `C ⊕ id`, on every path — a chain kernel handed an empty chain, a
/// fault-injected unit walking no tile pair, a compiled program with no
/// operand tile to load — and, whatever `C` holds, behind the ABFT
/// verifier too: its witnesses start from the same seed.
#[test]
fn an_empty_reduction_is_the_seeded_accumulator() {
    fn check<B: Backend>(make: impl Fn() -> B, op: OpKind, c: &Matrix, ctx: &str) {
        let (a, b) = (Matrix::zeros(c.rows(), 0), Matrix::zeros(0, c.cols()));
        let id = op.reduce_identity_f32();
        let want = Matrix::from_fn(c.rows(), c.cols(), |i, j| op.reduce_f32(c[(i, j)], id));
        let name = make().name();
        let bare = make().mmo(op, &a, &b, c).unwrap();
        assert_same(&bare, &want, &format!("{ctx}: {name}"));
        let verified = ResilientBackend::new(make(), RecoveryPolicy::FailFast)
            .mmo(op, &a, &b, c)
            .unwrap_or_else(|e| panic!("{ctx}: {name}, verified: {e}"));
        assert_same(&verified, &want, &format!("{ctx}: {name}, verified"));
    }
    for op in ALL_OPS {
        for pool in 0..4 {
            let id = op.reduce_identity_f32();
            let c = operand(specials(pool), 19, 21, id, 0.7, pool as u64 ^ 0xC0);
            let ctx = format!("{op} pool {pool}");
            check(ReferenceBackend::new, op, &c, &ctx);
            check(TiledBackend::new, op, &c, &ctx);
            check(IsaBackend::new, op, &c, &ctx);
            check(|| engine(PrecisionMode::Fp32Input), op, &c, &ctx);
            // No fault ever drawn: the unit's provided chain walk, on
            // the engine's schedule.
            let unstruck = || {
                let injector = PlannedInjector::new(FaultPlan::new(FaultPlanConfig::new(1)));
                TiledBackend::with_unit(FaultySimd2Unit::new(Simd2Unit::new(), injector))
            };
            check(unstruck, op, &c, &ctx);
        }
    }
}

/// The process-global count of tile pairs the chain has skipped.
fn skipped_pairs() -> u64 {
    simd2_repro::trace::snapshot()
        .counters
        .iter()
        .find(|c| c.name == "core.chain.skipped_pairs")
        .map_or(0, |c| c.value)
}

/// Whole 16×16 tiles of `A` and `B` blanked to the annihilator — at
/// random, or below the tile diagonal as a DAG's closure iterates are —
/// on ragged and whole-tile grids, the other tiles keeping each pool's
/// specials and signs: all nine ops × fp16 / fp32 / int8 × one and
/// three workers. The tile chain leaves out every pair whose terms all
/// fold through the annihilator (it does, see the counter) and must
/// still equal the naive triple loop on the operands as the unit's
/// quantiser rounds them and, at fp16 on the smallest grid, the ISA
/// executor, bit for bit. The pools put the rule's domain edges beside
/// empty tiles: min-mul's negative and NaN factors beside all-`+∞`
/// tiles, plus-mul's `±∞` and NaNs beside all-zero ones, max-mul's
/// negative accumulators beside zero tiles.
#[test]
fn block_sparse_operands_skip_pairs_and_move_no_bit() {
    const SHAPES: [(usize, usize, usize); 3] = [(70, 45, 53), (64, 64, 64), (40, 37, 50)];
    let before = skipped_pairs();
    let tracer = Tracer::to(Arc::new(NullSink));
    for (oi, op) in ALL_OPS.into_iter().enumerate() {
        let fill = op.no_edge_f32().unwrap_or(0.0);
        for (si, (m, n, k)) in SHAPES.into_iter().enumerate() {
            for (bi, blocks) in [Blocks::Random, Blocks::UpperTriangular]
                .into_iter()
                .enumerate()
            {
                for pool in 0..4 {
                    for sign in [false, true] {
                        let seed = (((oi * SHAPES.len() + si) * 2 + bi) * 4 + pool) as u64 * 2
                            + u64::from(sign);
                        let gen = |rows, cols, zero, density, salt: u64| {
                            let x = operand(specials(pool), rows, cols, zero, density, seed ^ salt);
                            if sign {
                                signed(x, seed ^ salt)
                            } else {
                                x
                            }
                        };
                        let a = block_sparse(gen(m, k, fill, 0.6, 0xA), fill, blocks, seed ^ 0x1A);
                        let b = block_sparse(gen(k, n, fill, 0.6, 0xB), fill, blocks, seed ^ 0x1B);
                        let c = gen(m, n, op.reduce_identity_f32(), 0.7, 0xC);
                        let ctx = format!("{op} {m}x{n}x{k} {blocks:?} pool {pool} signed={sign}");
                        for precision in [
                            PrecisionMode::Fp16Input,
                            PrecisionMode::Fp32Input,
                            PrecisionMode::Int8Input,
                        ] {
                            let (qa, qb) = (quantized(&a, precision), quantized(&b, precision));
                            let want = ReferenceBackend::new().mmo(op, &qa, &qb, &c).unwrap();
                            for workers in [1, 3] {
                                let mut be = engine(precision).with_tracer(tracer.clone());
                                be.set_parallelism(Parallelism::Threads(workers));
                                let got = be.mmo(op, &a, &b, &c).unwrap();
                                let ctx = format!("{ctx}: {precision:?}, {workers} workers");
                                assert_same(&got, &want, &ctx);
                            }
                            if precision == PrecisionMode::Fp16Input && si == 2 {
                                let isa = IsaBackend::new().mmo(op, &a, &b, &c).unwrap();
                                assert_same(&isa, &want, &format!("{ctx}: ISA executor"));
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(skipped_pairs() > before, "the tile chain skipped no pair");
}
