//! The streaming verifier against its definition.
//!
//! [`abft::verify_matrix`] runs its checks as passes over contiguous rows
//! (block-quantised operand copies, column accumulators, flag folds,
//! witnesses folded several at a time). What it must return is defined
//! element by element — [`defined`] below writes that definition out:
//! one scalar quantiser call per operand element, `A` walked by column,
//! one `OpKind` match per witness term. The two must agree on every
//! verdict down to the payload bits: the same violation, at the same
//! coordinates, carrying the same `f32` / `f64` values, the first one in
//! the definition's order.
//!
//! Inputs: nine ops × ragged, degenerate and `k = 0` shapes × the value
//! pools of `simd2-sparse`'s differentials (`±0`, `±∞`, fp16 overflow,
//! NaN payloads; `C` too) × the three input precisions × a clean `D` and
//! one corrupted element per violation class × the default 64 witness
//! samples and full coverage. The shapes put the witness stage on each
//! of its operand paths: every site of a small output, a scattered
//! sample over whole-quantised operands (`m + n ≤ 64`), and a scattered
//! sample over per-batch row / column copies. `scripts/verify.sh --full`
//! runs the suite optimised on both dispatch legs.

use simd2_fault::abft::{self, AbftConfig, AbftViolation};
use simd2_matrix::{Matrix, Tile};
use simd2_mxu::{PrecisionMode, Simd2Unit};
use simd2_semiring::precision::{quantize_f16, quantize_int8};
use simd2_semiring::{OpKind, ALL_OPS};

#[path = "../../core/tests/pools/mod.rs"]
mod pools;
use pools::{operand, specials};

/// `(m, n, k)`.
const SHAPES: [(usize, usize, usize); 8] = [
    (5, 7, 3),
    (33, 31, 29),
    (40, 37, 21),
    (1, 70, 9),
    (4, 6, 0),
    (9, 8, 1),
    (0, 5, 3),
    (3, 0, 2),
];

const MODES: [PrecisionMode; 3] = [
    PrecisionMode::Fp16Input,
    PrecisionMode::Fp32Input,
    PrecisionMode::Int8Input,
];

fn quantize(mode: PrecisionMode, x: f32) -> f32 {
    match mode {
        PrecisionMode::Fp16Input => quantize_f16(x),
        PrecisionMode::Fp32Input => x,
        PrecisionMode::Int8Input => quantize_int8(x, 1.0),
    }
}

/// The `s`-th witness site of an `m × n` output sampled `samples` times.
fn site(s: usize, samples: usize, n: usize, total: usize) -> usize {
    if samples == total {
        s
    } else {
        (s.wrapping_mul(2_654_435_761).wrapping_add(s / n + s)) % total
    }
}

/// One output element as every engine computes it: from `c ⊕ id`, the
/// `⊗` terms of the scalar-quantised operands folded in ascending `k`.
fn element(
    op: OpKind,
    (a, b, c): (&Matrix, &Matrix, &Matrix),
    (i, j): (usize, usize),
    mode: PrecisionMode,
) -> f32 {
    let mut acc = op.reduce_f32(c.row(i)[j], op.reduce_identity_f32());
    for kk in 0..a.cols() {
        let x = quantize(mode, a.row(i)[kk]);
        let y = quantize(mode, b.row(kk)[j]);
        acc = op.reduce_f32(acc, op.combine_f32(x, y));
    }
    acc
}

/// The definition of `verify_matrix`, element at a time.
fn defined(
    op: OpKind,
    a: &Matrix,
    b: &Matrix,
    c: &Matrix,
    d: &Matrix,
    mode: PrecisionMode,
    cfg: &AbftConfig,
) -> Result<(), AbftViolation> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());

    // NaN tripwire.
    let inputs_nan = [a, b, c]
        .iter()
        .any(|x| x.as_slice().iter().any(|v| v.is_nan()));
    if !inputs_nan {
        for (idx, &value) in d.as_slice().iter().enumerate() {
            if value.is_nan() {
                return Err(AbftViolation::NonFinite {
                    op,
                    row: idx / n,
                    col: idx % n,
                    value,
                });
            }
        }
    }

    let qa = |i: usize, kk: usize| f64::from(quantize(mode, a.row(i)[kk]));
    let qb = |kk: usize, j: usize| f64::from(quantize(mode, b.row(kk)[j]));

    if !op.reduce_is_idempotent() {
        // Additive checksum.
        let mut expected = 0.0f64;
        let mut magnitude = 0.0f64;
        for &v in c.as_slice() {
            expected += f64::from(v);
            magnitude += f64::from(v).abs();
        }
        for kk in 0..k {
            let (mut col_a, mut abs_a, mut sq_a) = (0.0f64, 0.0f64, 0.0f64);
            let (mut row_b, mut abs_b, mut sq_b) = (0.0f64, 0.0f64, 0.0f64);
            for i in 0..m {
                let x = qa(i, kk);
                col_a += x;
                abs_a += x.abs();
                sq_a += x * x;
            }
            for j in 0..n {
                let y = qb(kk, j);
                row_b += y;
                abs_b += y.abs();
                sq_b += y * y;
            }
            if op == OpKind::PlusMul {
                expected += col_a * row_b;
                magnitude += abs_a * abs_b;
            } else {
                expected += n as f64 * sq_a - 2.0 * col_a * row_b + m as f64 * sq_b;
                magnitude += n as f64 * sq_a + 2.0 * (col_a * row_b).abs() + m as f64 * sq_b;
            }
        }
        let got: f64 = d.as_slice().iter().map(|&v| f64::from(v)).sum();
        let tolerance = cfg.rel_tol * magnitude + cfg.abs_tol;
        let mismatch = if got.is_finite() && expected.is_finite() {
            (got - expected).abs() > tolerance
        } else {
            got.is_finite() != expected.is_finite()
        };
        if mismatch {
            return Err(AbftViolation::ChecksumMismatch {
                op,
                expected,
                got,
                tolerance,
            });
        }
        return Ok(());
    }

    // Idempotent family: full dominance scan …
    let min = matches!(op, OpKind::MinPlus | OpKind::MinMul | OpKind::MinMax);
    for i in 0..m {
        for j in 0..n {
            let (cv, dv) = (c.row(i)[j], d.row(i)[j]);
            if op == OpKind::OrAnd && dv != 0.0 && dv != 1.0 {
                return Err(AbftViolation::RangeViolation {
                    op,
                    row: i,
                    col: j,
                    value: dv,
                });
            }
            let dominated = if op == OpKind::OrAnd {
                cv != 0.0 && dv != 1.0
            } else if min {
                dv > cv
            } else {
                dv < cv
            };
            if dominated {
                return Err(AbftViolation::DominanceViolation {
                    op,
                    row: i,
                    col: j,
                    c: cv,
                    d: dv,
                });
            }
        }
    }

    // … plus a deterministic sample of exact witnesses.
    let total = m * n;
    let samples = cfg.witness_samples.min(total);
    for s in 0..samples {
        let idx = site(s, samples, n, total);
        let (i, j) = (idx / n, idx % n);
        let acc = element(op, (a, b, c), (i, j), mode);
        let got = d.row(i)[j];
        if !(acc == got || (acc.is_nan() && got.is_nan())) {
            return Err(AbftViolation::WitnessMismatch {
                op,
                row: i,
                col: j,
                expected: acc,
                got,
            });
        }
    }
    Ok(())
}

/// A clean `D`.
fn clean_output(op: OpKind, a: &Matrix, b: &Matrix, c: &Matrix, mode: PrecisionMode) -> Matrix {
    Matrix::from_fn(c.rows(), c.cols(), |i, j| {
        element(op, (a, b, c), (i, j), mode)
    })
}

/// What one element of `D` is replaced with, by the check it aims at.
#[derive(Clone, Copy, Debug)]
enum Corruption {
    Clean,
    Nan,
    Checksum,
    Range,
    Dominance,
    Witness,
}

const CORRUPTIONS: [Corruption; 6] = [
    Corruption::Clean,
    Corruption::Nan,
    Corruption::Checksum,
    Corruption::Range,
    Corruption::Dominance,
    Corruption::Witness,
];

/// `d` as `corruption` leaves an element whose clean value it is and
/// whose accumulator input was `c`. `Dominance` moves against the
/// direction `⊕` can move an element, `Witness` along it.
fn corrupted(op: OpKind, corruption: Corruption, c: f32, d: f32) -> f32 {
    let far = |x: f32| {
        if x.is_finite() {
            x.abs() * 2.0 + 100.0
        } else {
            100.0
        }
    };
    let min = matches!(op, OpKind::MinPlus | OpKind::MinMul | OpKind::MinMax);
    match corruption {
        Corruption::Clean => d,
        Corruption::Nan => f32::from_bits(0x7FC0_0BAD),
        Corruption::Checksum => far(d) * 100.0,
        Corruption::Range => 0.5,
        Corruption::Dominance if op == OpKind::OrAnd => 0.0,
        Corruption::Dominance if min => far(c),
        Corruption::Dominance => -far(c),
        Corruption::Witness if op == OpKind::OrAnd => 1.0 - d,
        Corruption::Witness if min => -far(d),
        Corruption::Witness if op.reduce_is_idempotent() => far(d),
        Corruption::Witness => d + d.abs() * 1.0e-6,
    }
}

/// A violation as its class, site and payload, each payload value as
/// its bit pattern and whether it is a NaN.
fn parts(v: AbftViolation) -> (usize, OpKind, usize, usize, Vec<(u64, bool)>) {
    let f = |x: f32| (u64::from(x.to_bits()), x.is_nan());
    let g = |x: f64| (x.to_bits(), x.is_nan());
    match v {
        AbftViolation::NonFinite {
            op,
            row,
            col,
            value,
        } => (0, op, row, col, vec![f(value)]),
        AbftViolation::ChecksumMismatch {
            op,
            expected,
            got,
            tolerance,
        } => (1, op, 0, 0, vec![g(expected), g(got), g(tolerance)]),
        AbftViolation::RangeViolation {
            op,
            row,
            col,
            value,
        } => (2, op, row, col, vec![f(value)]),
        AbftViolation::DominanceViolation { op, row, col, c, d } => {
            (3, op, row, col, vec![f(c), f(d)])
        }
        AbftViolation::WitnessMismatch {
            op,
            row,
            col,
            expected,
            got,
        } => (4, op, row, col, vec![f(expected), f(got)]),
    }
}

/// Whether two verdicts are the same down to the payload bits — except
/// that where both hold a NaN, sign and payload must agree only in
/// builds with debug assertions (`simd2_semiring::simd::same_bits` has
/// the reason: an optimised build may commute a `+` between two NaNs).
fn same_verdict(got: &Result<(), AbftViolation>, want: &Result<(), AbftViolation>) -> bool {
    match (got, want) {
        (Ok(()), Ok(())) => true,
        (Err(got), Err(want)) => {
            let (got, want) = (parts(*got), parts(*want));
            (got.0, got.1, got.2, got.3) == (want.0, want.1, want.2, want.3)
                && got
                    .4
                    .iter()
                    .zip(&want.4)
                    .all(|(g, w)| g.0 == w.0 || (!cfg!(debug_assertions) && g.1 && w.1))
        }
        _ => false,
    }
}

fn operands(
    op: OpKind,
    (m, n, k): (usize, usize, usize),
    pool: usize,
    seed: u64,
) -> (Matrix, Matrix, Matrix) {
    let fill = op.no_edge_f32().unwrap_or(0.0);
    let a = operand(specials(pool), m, k, fill, 0.6, seed ^ 0xA);
    let b = operand(specials(pool), k, n, fill, 0.6, seed ^ 0xB);
    let c = operand(
        specials(pool),
        m,
        n,
        op.reduce_identity_f32(),
        0.7,
        seed ^ 0xC,
    );
    (a, b, c)
}

#[test]
fn the_streaming_verifier_returns_the_definitions_verdicts() {
    let sampled = AbftConfig::default();
    let full = AbftConfig {
        witness_samples: usize::MAX,
        ..sampled
    };
    // Violations seen, by class: every class must have been exercised.
    let mut seen = [0usize; 5];
    for (oi, op) in ALL_OPS.into_iter().enumerate() {
        for (si, shape) in SHAPES.into_iter().enumerate() {
            let (m, n, _) = shape;
            for pool in 0..4 {
                let seed = ((oi * SHAPES.len() + si) * 4 + pool) as u64;
                let (a, b, c) = operands(op, shape, pool, seed);
                for mode in MODES {
                    let clean = clean_output(op, &a, &b, &c, mode);
                    for corruption in CORRUPTIONS {
                        for cfg in [&sampled, &full] {
                            let mut d = clean.clone();
                            if m * n > 0 {
                                // The third witness site: sampled under
                                // either configuration.
                                let samples = cfg.witness_samples.min(m * n);
                                let idx = site(2 % samples, samples, n, m * n);
                                let slot = &mut d.as_mut_slice()[idx];
                                *slot = corrupted(op, corruption, c.as_slice()[idx], *slot);
                            }
                            let got = abft::verify_matrix(op, &a, &b, &c, &d, mode, cfg);
                            let want = defined(op, &a, &b, &c, &d, mode, cfg);
                            assert!(
                                same_verdict(&got, &want),
                                "{op} {shape:?} pool {pool} {mode:?} {corruption:?} \
                                 samples {}: {got:?} vs defined {want:?}",
                                cfg.witness_samples
                            );
                            if let Err(violation) = got {
                                seen[parts(violation).0] += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        seen.iter().all(|&count| count > 0),
        "classes seen: {seen:?}"
    );
}

/// `verify_tile`'s additive branch is `verify_matrix`'s routine on a
/// 16 × 16 view: the same verdict, bit for bit. Its idempotent branch
/// recomputes the whole tile on the unit, which full-coverage witnesses
/// do element by element — the two accept and reject the same tiles, and
/// name the same first witness when both stop at one.
#[test]
fn verify_tile_agrees_with_verify_matrix_on_one_tile() {
    let full = AbftConfig {
        witness_samples: usize::MAX,
        ..AbftConfig::default()
    };
    for (oi, op) in ALL_OPS.into_iter().enumerate() {
        for pool in 0..4 {
            let (a, b, c) = operands(op, (16, 16, 16), pool, (oi * 4 + pool) as u64 ^ 0x71);
            let tile = |x: &Matrix| Tile::<16>::try_from_matrix(x).unwrap();
            for mode in MODES {
                let unit = Simd2Unit::with_precision(mode);
                let clean = clean_output(op, &a, &b, &c, mode);
                for corruption in CORRUPTIONS {
                    let mut d = clean.clone();
                    let idx = 5 * 16 + 11;
                    let slot = &mut d.as_mut_slice()[idx];
                    *slot = corrupted(op, corruption, c.as_slice()[idx], *slot);
                    let by_matrix = abft::verify_matrix(op, &a, &b, &c, &d, mode, &full);
                    let by_tile = abft::verify_tile(
                        op,
                        &unit,
                        &tile(&a),
                        &tile(&b),
                        &tile(&c),
                        &tile(&d),
                        &full,
                    );
                    let ctx = format!("{op} pool {pool} {mode:?} {corruption:?}");
                    let both_witness = matches!(
                        (&by_tile, &by_matrix),
                        (
                            Err(AbftViolation::WitnessMismatch { .. }),
                            Err(AbftViolation::WitnessMismatch { .. })
                        )
                    );
                    if !op.reduce_is_idempotent() || both_witness {
                        assert!(
                            same_verdict(&by_tile, &by_matrix),
                            "{ctx}: {by_tile:?} vs {by_matrix:?}"
                        );
                    }
                    assert_eq!(
                        by_tile.is_ok(),
                        by_matrix.is_ok(),
                        "{ctx}: {by_tile:?} vs {by_matrix:?}"
                    );
                }
            }
        }
    }
}
