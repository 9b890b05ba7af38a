//! Algorithm-based fault tolerance (ABFT) checks for semiring mmos.
//!
//! Two detection families, chosen by the algebra's reduction:
//!
//! * **Additive reductions** (`plus-mul`, `plus-norm`): the classic
//!   Huang–Abraham checksum invariant. For `D = C + A·B`,
//!   `Σ D = Σ C + Σₖ colsum(A)ₖ · rowsum(B)ₖ`, verified in f64 with a
//!   magnitude-scaled tolerance for fp32 reduction drift. `plus-norm`
//!   (`⊗ = (a−b)²`) expands to
//!   `Σₖ [ n·Σᵢa²ᵢₖ − 2·colsum(A)ₖ·rowsum(B)ₖ + m·Σⱼb²ₖⱼ ]`.
//! * **Idempotent reductions** (the min/max/or family): no checksum
//!   exists, but selection algebras are *exact* in fp32 — so a witness
//!   recomputation must match bit-for-bit at tile granularity, and at
//!   matrix granularity a cheap full dominance scan (`d ≤ c` for the
//!   min family, `d ≥ c` for the max family, `d ∈ {0,1}` for `or-and`)
//!   plus a deterministic sample of exact witnesses catches corruption.
//!
//! A NaN tripwire runs first for every algebra: a NaN in `D` when
//! `A`/`B`/`C` are NaN-free is always corruption.

use std::fmt;

use simd2_matrix::{Matrix, Tile};
use simd2_mxu::{PrecisionMode, Simd2Unit};
use simd2_semiring::precision::{quantize_f16, quantize_int8};
use simd2_semiring::OpKind;

/// A detected ABFT invariant violation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AbftViolation {
    /// `D` contains a NaN although every input was NaN-free.
    NonFinite {
        /// The op whose result was checked.
        op: OpKind,
        /// Row of the offending element.
        row: usize,
        /// Column of the offending element.
        col: usize,
        /// The offending value.
        value: f32,
    },
    /// The additive checksum invariant failed.
    ChecksumMismatch {
        /// The op whose result was checked.
        op: OpKind,
        /// Checksum predicted from the inputs.
        expected: f64,
        /// Checksum actually observed over `D`.
        got: f64,
        /// The tolerance the difference exceeded.
        tolerance: f64,
    },
    /// An exact witness recomputation disagreed with `D`.
    WitnessMismatch {
        /// The op whose result was checked.
        op: OpKind,
        /// Row of the offending element.
        row: usize,
        /// Column of the offending element.
        col: usize,
        /// The recomputed value.
        expected: f32,
        /// The value found in `D`.
        got: f32,
    },
    /// An idempotent-reduction dominance invariant failed
    /// (`d ≤ c` / `d ≥ c` / or-and truth forcing).
    DominanceViolation {
        /// The op whose result was checked.
        op: OpKind,
        /// Row of the offending element.
        row: usize,
        /// Column of the offending element.
        col: usize,
        /// The accumulator input at the site.
        c: f32,
        /// The output at the site.
        d: f32,
    },
    /// An `or-and` output was outside the canonical `{0, 1}` range.
    RangeViolation {
        /// The op whose result was checked.
        op: OpKind,
        /// Row of the offending element.
        row: usize,
        /// Column of the offending element.
        col: usize,
        /// The out-of-range value.
        value: f32,
    },
}

impl fmt::Display for AbftViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbftViolation::NonFinite {
                op,
                row,
                col,
                value,
            } => {
                write!(
                    f,
                    "{op}: non-finite {value} at d[{row}][{col}] with finite inputs"
                )
            }
            AbftViolation::ChecksumMismatch {
                op,
                expected,
                got,
                tolerance,
            } => {
                write!(
                    f,
                    "{op}: checksum {got} differs from predicted {expected} by more than {tolerance}"
                )
            }
            AbftViolation::WitnessMismatch {
                op,
                row,
                col,
                expected,
                got,
            } => {
                write!(
                    f,
                    "{op}: d[{row}][{col}] = {got}, witness recomputation gives {expected}"
                )
            }
            AbftViolation::DominanceViolation { op, row, col, c, d } => {
                write!(
                    f,
                    "{op}: d[{row}][{col}] = {d} violates dominance against c = {c}"
                )
            }
            AbftViolation::RangeViolation {
                op,
                row,
                col,
                value,
            } => {
                write!(
                    f,
                    "{op}: d[{row}][{col}] = {value} outside the canonical {{0,1}} range"
                )
            }
        }
    }
}

impl std::error::Error for AbftViolation {}

/// Tolerances and sampling effort for ABFT verification.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AbftConfig {
    /// Relative checksum tolerance, scaled by the f64 magnitude of all
    /// summed terms. An fp32 fold of `k` terms drifts by about
    /// `√k · ε · magnitude` (≈ 2e-6 · magnitude at `k = 1024`) and by
    /// at most `k · ε · magnitude` (≈ 6e-5 there); the default sits
    /// above both.
    pub rel_tol: f64,
    /// Absolute checksum tolerance floor for near-zero sums.
    pub abs_tol: f64,
    /// Number of exact witness samples per matrix-level idempotent
    /// check (clamped to the output size).
    pub witness_samples: usize,
}

impl Default for AbftConfig {
    fn default() -> Self {
        Self {
            rel_tol: 1e-4,
            abs_tol: 1e-6,
            witness_samples: 64,
        }
    }
}

impl AbftConfig {
    /// The default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    fn tolerance(&self, magnitude: f64) -> f64 {
        self.rel_tol * magnitude + self.abs_tol
    }
}

/// Replicates the datapath's input quantiser.
fn quantize(mode: PrecisionMode, x: f32) -> f32 {
    match mode {
        PrecisionMode::Fp16Input => quantize_f16(x),
        PrecisionMode::Fp32Input => x,
        PrecisionMode::Int8Input => quantize_int8(x, 1.0),
    }
}

/// NaN-aware equality: exact selection algebras must reproduce values
/// (`-0.0 == 0.0` is accepted — reduction order may legally differ).
fn same_value(a: f32, b: f32) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

fn min_family(op: OpKind) -> bool {
    matches!(op, OpKind::MinPlus | OpKind::MinMul | OpKind::MinMax)
}

fn max_family(op: OpKind) -> bool {
    matches!(op, OpKind::MaxPlus | OpKind::MaxMul | OpKind::MaxMin)
}

/// Verifies one tile-granularity mmo `d = c ⊕ (a ⊗ b)` executed by
/// `unit`. `a`/`b` are the operand tiles exactly as fed to the unit
/// (the verifier re-applies the unit's input quantiser itself).
pub fn verify_tile<const N: usize>(
    op: OpKind,
    unit: &Simd2Unit,
    a: &Tile<N>,
    b: &Tile<N>,
    c: &Tile<N>,
    d: &Tile<N>,
    cfg: &AbftConfig,
) -> Result<(), AbftViolation> {
    // NaN tripwire.
    let inputs_nan = a.iter().any(|(_, _, v)| v.is_nan())
        || b.iter().any(|(_, _, v)| v.is_nan())
        || c.iter().any(|(_, _, v)| v.is_nan());
    if !inputs_nan {
        for (row, col, value) in d.iter() {
            if value.is_nan() {
                return Err(AbftViolation::NonFinite {
                    op,
                    row,
                    col,
                    value,
                });
            }
        }
    }

    if op.reduce_is_idempotent() {
        // Selection algebras are exact: a witness recomputation through
        // the same datapath must agree bit-for-bit.
        let witness = unit.execute(op, a, b, c);
        for (row, col, expected) in witness.iter() {
            let got = d.get(row, col);
            if !same_value(expected, got) {
                return Err(AbftViolation::WitnessMismatch {
                    op,
                    row,
                    col,
                    expected,
                    got,
                });
            }
        }
        return Ok(());
    }

    // Additive checksum in f64 over quantised operands.
    let mode = unit.precision();
    let qa = |i: usize, k: usize| f64::from(quantize(mode, a.get(i, k)));
    let qb = |k: usize, j: usize| f64::from(quantize(mode, b.get(k, j)));
    let mut expected = 0.0f64;
    let mut magnitude = 0.0f64;
    for (_, _, v) in c.iter() {
        expected += f64::from(v);
        magnitude += f64::from(v).abs();
    }
    match op {
        OpKind::PlusMul => {
            for k in 0..N {
                let (mut col_a, mut row_b) = (0.0f64, 0.0f64);
                let (mut abs_a, mut abs_b) = (0.0f64, 0.0f64);
                for i in 0..N {
                    let x = qa(i, k);
                    col_a += x;
                    abs_a += x.abs();
                }
                for j in 0..N {
                    let y = qb(k, j);
                    row_b += y;
                    abs_b += y.abs();
                }
                expected += col_a * row_b;
                magnitude += abs_a * abs_b;
            }
        }
        OpKind::PlusNorm => {
            let (m, n) = (N as f64, N as f64);
            for k in 0..N {
                let (mut col_a, mut sq_a) = (0.0f64, 0.0f64);
                let (mut row_b, mut sq_b) = (0.0f64, 0.0f64);
                for i in 0..N {
                    let x = qa(i, k);
                    col_a += x;
                    sq_a += x * x;
                }
                for j in 0..N {
                    let y = qb(k, j);
                    row_b += y;
                    sq_b += y * y;
                }
                expected += n * sq_a - 2.0 * col_a * row_b + m * sq_b;
                magnitude += n * sq_a + 2.0 * (col_a * row_b).abs() + m * sq_b;
            }
        }
        _ => unreachable!("additive path only handles plus-mul / plus-norm"),
    }
    let got: f64 = d.iter().map(|(_, _, v)| f64::from(v)).sum();
    if !got.is_finite() || !expected.is_finite() {
        // Overflow in either direction: fall back to agreement of
        // non-finiteness (quantisation can saturate legitimately).
        if got.is_finite() != expected.is_finite() {
            return Err(AbftViolation::ChecksumMismatch {
                op,
                expected,
                got,
                tolerance: cfg.tolerance(magnitude),
            });
        }
        return Ok(());
    }
    let tolerance = cfg.tolerance(magnitude);
    if (got - expected).abs() > tolerance {
        return Err(AbftViolation::ChecksumMismatch {
            op,
            expected,
            got,
            tolerance,
        });
    }
    Ok(())
}

/// Verifies a matrix-granularity mmo `d = c ⊕ (a ⊗ b)` produced by any
/// backend. `reduced` and `mode` describe the backend's datapath so the
/// verifier can mirror its input quantisation.
pub fn verify_matrix(
    op: OpKind,
    a: &Matrix,
    b: &Matrix,
    c: &Matrix,
    d: &Matrix,
    mode: PrecisionMode,
    cfg: &AbftConfig,
) -> Result<(), AbftViolation> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    debug_assert_eq!(b.rows(), k);
    debug_assert_eq!((d.rows(), d.cols()), (m, n));
    debug_assert_eq!((c.rows(), c.cols()), (m, n));

    // NaN tripwire.
    let inputs_nan = a.as_slice().iter().any(|v| v.is_nan())
        || b.as_slice().iter().any(|v| v.is_nan())
        || c.as_slice().iter().any(|v| v.is_nan());
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
            match op {
                OpKind::PlusMul => {
                    expected += col_a * row_b;
                    magnitude += abs_a * abs_b;
                }
                OpKind::PlusNorm => {
                    expected += n as f64 * sq_a - 2.0 * col_a * row_b + m as f64 * sq_b;
                    magnitude += n as f64 * sq_a + 2.0 * (col_a * row_b).abs() + m as f64 * sq_b;
                }
                _ => unreachable!("additive path only handles plus-mul / plus-norm"),
            }
        }
        let got: f64 = d.as_slice().iter().map(|&v| f64::from(v)).sum();
        if !got.is_finite() || !expected.is_finite() {
            if got.is_finite() != expected.is_finite() {
                return Err(AbftViolation::ChecksumMismatch {
                    op,
                    expected,
                    got,
                    tolerance: cfg.tolerance(magnitude),
                });
            }
            return Ok(());
        }
        let tolerance = cfg.tolerance(magnitude);
        if (got - expected).abs() > tolerance {
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
    for i in 0..m {
        for j in 0..n {
            let cv = c.row(i)[j];
            let dv = d.row(i)[j];
            if op == OpKind::OrAnd {
                if dv != 0.0 && dv != 1.0 {
                    return Err(AbftViolation::RangeViolation {
                        op,
                        row: i,
                        col: j,
                        value: dv,
                    });
                }
                if cv != 0.0 && dv != 1.0 {
                    return Err(AbftViolation::DominanceViolation {
                        op,
                        row: i,
                        col: j,
                        c: cv,
                        d: dv,
                    });
                }
            } else if min_family(op) {
                if dv > cv {
                    return Err(AbftViolation::DominanceViolation {
                        op,
                        row: i,
                        col: j,
                        c: cv,
                        d: dv,
                    });
                }
            } else if max_family(op) && dv < cv {
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
    if total == 0 {
        return Ok(());
    }
    let samples = cfg.witness_samples.min(total);
    for s in 0..samples {
        // Low-discrepancy walk over the output; pure function of (s, dims).
        let idx = if samples == total {
            s
        } else {
            (s.wrapping_mul(2_654_435_761).wrapping_add(s / n + s)) % total
        };
        let (i, j) = (idx / n, idx % n);
        let mut acc = c.row(i)[j];
        for kk in 0..k {
            let x = quantize(mode, a.row(i)[kk]);
            let y = quantize(mode, b.row(kk)[j]);
            acc = op.reduce_f32(acc, op.combine_f32(x, y));
        }
        let got = d.row(i)[j];
        if !same_value(acc, got) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use simd2_semiring::OpKind;

    const ALL: [OpKind; 9] = [
        OpKind::PlusMul,
        OpKind::MinPlus,
        OpKind::MaxPlus,
        OpKind::MinMul,
        OpKind::MaxMul,
        OpKind::MinMax,
        OpKind::MaxMin,
        OpKind::OrAnd,
        OpKind::PlusNorm,
    ];

    fn operands() -> (Tile<16>, Tile<16>, Tile<16>) {
        let a = Tile::<16>::from_fn(|r, c| ((r * 7 + c * 3) % 11) as f32 * 0.25 - 1.0);
        let b = Tile::<16>::from_fn(|r, c| ((r * 5 + c) % 13) as f32 * 0.5 - 2.0);
        let c = Tile::<16>::from_fn(|r, c| ((r + c) % 5) as f32 - 1.0);
        (a, b, c)
    }

    fn bool_operands() -> (Tile<16>, Tile<16>, Tile<16>) {
        let a = Tile::<16>::from_fn(|r, c| ((r * 7 + c) % 3 == 0) as u8 as f32);
        let b = Tile::<16>::from_fn(|r, c| ((r + c * 5) % 4 == 0) as u8 as f32);
        let c = Tile::<16>::from_fn(|r, c| ((r * c) % 7 == 0) as u8 as f32);
        (a, b, c)
    }

    fn pick(op: OpKind) -> (Tile<16>, Tile<16>, Tile<16>) {
        if op == OpKind::OrAnd {
            bool_operands()
        } else {
            operands()
        }
    }

    #[test]
    fn clean_tiles_verify_for_all_ops() {
        let unit = Simd2Unit::new();
        let cfg = AbftConfig::default();
        for op in ALL {
            let (a, b, c) = pick(op);
            let d = unit.execute(op, &a, &b, &c);
            assert_eq!(verify_tile(op, &unit, &a, &b, &c, &d, &cfg), Ok(()), "{op}");
        }
    }

    #[test]
    fn large_offset_is_detected_for_all_ops() {
        let unit = Simd2Unit::new();
        let cfg = AbftConfig::default();
        for op in ALL {
            let (a, b, c) = pick(op);
            let mut d = unit.execute(op, &a, &b, &c);
            // Large corruption: offset one element well past every
            // tolerance (guaranteed to change the value).
            let v = d.get(3, 7);
            d.set(3, 7, v + 50.0);
            assert!(
                verify_tile(op, &unit, &a, &b, &c, &d, &cfg).is_err(),
                "{op} missed the corruption"
            );
        }
    }

    #[test]
    fn injected_nan_is_detected_for_all_ops() {
        let unit = Simd2Unit::new();
        let cfg = AbftConfig::default();
        for op in ALL {
            let (a, b, c) = pick(op);
            let mut d = unit.execute(op, &a, &b, &c);
            d.set(0, 0, f32::NAN);
            assert!(
                matches!(
                    verify_tile(op, &unit, &a, &b, &c, &d, &cfg),
                    Err(AbftViolation::NonFinite { .. })
                ),
                "{op}"
            );
        }
    }

    #[test]
    fn nan_inputs_disable_the_tripwire() {
        let unit = Simd2Unit::new();
        let cfg = AbftConfig::default();
        let (a, b, mut c) = operands();
        c.set(0, 0, f32::NAN);
        let d = unit.execute(OpKind::MinPlus, &a, &b, &c);
        // Legitimate NaN propagation must not be flagged.
        assert_eq!(
            verify_tile(OpKind::MinPlus, &unit, &a, &b, &c, &d, &cfg),
            Ok(())
        );
    }

    #[test]
    fn tiny_mantissa_noise_is_benign_for_checksums() {
        let unit = Simd2Unit::new();
        let cfg = AbftConfig::default();
        let (a, b, c) = operands();
        let mut d = unit.execute(OpKind::PlusMul, &a, &b, &c);
        let v = d.get(2, 2);
        d.set(2, 2, v + v.abs() * 1e-7);
        assert_eq!(
            verify_tile(OpKind::PlusMul, &unit, &a, &b, &c, &d, &cfg),
            Ok(())
        );
    }

    fn matrices(m: usize, k: usize, n: usize) -> (Matrix, Matrix, Matrix) {
        let a = Matrix::from_fn(m, k, |r, c| ((r * 3 + c * 7) % 9) as f32 * 0.5 - 1.5);
        let b = Matrix::from_fn(k, n, |r, c| ((r + c * 11) % 7) as f32 * 0.25 - 0.5);
        let c = Matrix::from_fn(m, n, |r, c| ((r * c) % 4) as f32);
        (a, b, c)
    }

    fn reference_mmo(
        op: OpKind,
        a: &Matrix,
        b: &Matrix,
        c: &Matrix,
        mode: PrecisionMode,
    ) -> Matrix {
        Matrix::from_fn(c.rows(), c.cols(), |i, j| {
            let mut acc = c.row(i)[j];
            for kk in 0..a.cols() {
                let x = quantize(mode, a.row(i)[kk]);
                let y = quantize(mode, b.row(kk)[j]);
                acc = op.reduce_f32(acc, op.combine_f32(x, y));
            }
            acc
        })
    }

    #[test]
    fn clean_matrices_verify_for_all_ops() {
        let cfg = AbftConfig::default();
        let mode = PrecisionMode::Fp16Input;
        for op in ALL {
            let (a, b, c) = matrices(20, 17, 23);
            let d = reference_mmo(op, &a, &b, &c, mode);
            assert_eq!(
                verify_matrix(op, &a, &b, &c, &d, mode, &cfg),
                Ok(()),
                "{op}"
            );
        }
    }

    #[test]
    fn matrix_corruption_is_detected_for_all_ops() {
        // Full witness: every element checked.
        let cfg = AbftConfig {
            witness_samples: usize::MAX,
            ..AbftConfig::default()
        };
        let mode = PrecisionMode::Fp16Input;
        for op in ALL {
            let (a, b, c) = matrices(20, 17, 23);
            let mut d = reference_mmo(op, &a, &b, &c, mode);
            let v = d.row(4)[9];
            d.as_mut_slice()[4 * 23 + 9] = v + 25.0;
            assert!(
                verify_matrix(op, &a, &b, &c, &d, mode, &cfg).is_err(),
                "{op} missed the corruption"
            );
        }
    }

    #[test]
    fn dominance_catches_directional_corruption_without_witness() {
        // Dominance scan only.
        let cfg = AbftConfig {
            witness_samples: 0,
            ..AbftConfig::default()
        };
        let mode = PrecisionMode::Fp32Input;
        let (a, b, c) = matrices(12, 8, 12);
        let mut d = reference_mmo(OpKind::MinPlus, &a, &b, &c, mode);
        d.as_mut_slice()[0] = c.row(0)[0] + 100.0; // min-plus result above c
        assert!(matches!(
            verify_matrix(OpKind::MinPlus, &a, &b, &c, &d, mode, &cfg),
            Err(AbftViolation::DominanceViolation { .. })
        ));
    }

    #[test]
    fn or_and_range_is_enforced() {
        let cfg = AbftConfig::default();
        let mode = PrecisionMode::Fp32Input;
        let a = Matrix::from_fn(8, 8, |r, c| ((r + c) % 2) as f32);
        let b = Matrix::from_fn(8, 8, |r, c| ((r * c) % 3 == 0) as u8 as f32);
        let c = Matrix::zeros(8, 8);
        let mut d = reference_mmo(OpKind::OrAnd, &a, &b, &c, mode);
        d.as_mut_slice()[5] = 0.5;
        assert!(matches!(
            verify_matrix(OpKind::OrAnd, &a, &b, &c, &d, mode, &cfg),
            Err(AbftViolation::RangeViolation { .. })
        ));
    }
}
