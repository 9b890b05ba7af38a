//! Golden-model implementations of `D = C ⊕ (A ⊗ B)`.
//!
//! These are deliberately naive triple loops (the code of paper Figure 1),
//! used as the correctness oracle for the tiled CPU backend, the functional
//! matrix unit, the ISA executor and the applications. Nothing here is
//! performance-tuned on purpose.

use simd2_semiring::OpKind;

use crate::{Matrix, ShapeError};

/// Checks operand shapes for an `m×k · k×n` matrix-matrix operation with an
/// `m×n` accumulator.
pub fn check_mmo_shapes(a: &Matrix, b: &Matrix, c: &Matrix) -> Result<(), ShapeError> {
    if a.cols() != b.rows() {
        return Err(ShapeError::new(
            "B (inner dimension)",
            (a.cols(), b.cols()),
            b.shape(),
        ));
    }
    if c.shape() != (a.rows(), b.cols()) {
        return Err(ShapeError::new(
            "C (accumulator)",
            (a.rows(), b.cols()),
            c.shape(),
        ));
    }
    Ok(())
}

/// Reference `D = C ⊕ (A ⊗ B)` with dynamic operator dispatch.
///
/// The one reduction of the repo (`simd2_semiring::simd`), written out:
/// every element is seeded with `C ⊕ id` and folds its terms in ascending
/// `k` order, `⊗` and `⊕` as two roundings — the semantics of a SIMD²
/// instruction whose accumulator register was pre-loaded with `C`.
///
/// # Errors
///
/// Returns a [`ShapeError`] when the operand shapes are incompatible.
pub fn mmo(op: OpKind, a: &Matrix, b: &Matrix, c: &Matrix) -> Result<Matrix, ShapeError> {
    check_mmo_shapes(a, b, c)?;
    let (m, n, k) = (a.rows(), b.cols(), a.cols());
    let mut d = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = op.reduce_f32(c[(i, j)], op.reduce_identity_f32());
            for l in 0..k {
                acc = op.fma_f32(acc, a[(i, l)], b[(l, j)]);
            }
            d[(i, j)] = acc;
        }
    }
    Ok(d)
}

/// Element-wise `⊕` of two equal-shape matrices.
///
/// # Errors
///
/// Returns a [`ShapeError`] when the shapes differ.
pub fn ewise_reduce(op: OpKind, a: &Matrix, b: &Matrix) -> Result<Matrix, ShapeError> {
    if a.shape() != b.shape() {
        return Err(ShapeError::new("ewise operand", a.shape(), b.shape()));
    }
    Ok(Matrix::from_fn(a.rows(), a.cols(), |r, c| {
        op.reduce_f32(a[(r, c)], b[(r, c)])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simd2_semiring::ALL_OPS;

    fn small() -> (Matrix, Matrix, Matrix) {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = Matrix::zeros(2, 2);
        (a, b, c)
    }

    #[test]
    fn gemm_matches_hand_computation() {
        let (a, b, c) = small();
        let d = mmo(OpKind::PlusMul, &a, &b, &c).unwrap();
        assert_eq!(d, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn min_plus_matches_hand_computation() {
        let (a, b, _) = small();
        let c = Matrix::filled(2, 2, f32::INFINITY);
        let d = mmo(OpKind::MinPlus, &a, &b, &c).unwrap();
        // d[0][0] = min(1+5, 2+7) = 6, d[0][1] = min(1+6, 2+8) = 7, ...
        assert_eq!(d, Matrix::from_rows(&[&[6.0, 7.0], &[8.0, 9.0]]));
    }

    #[test]
    fn accumulator_participates() {
        let (a, b, _) = small();
        let c = Matrix::filled(2, 2, 5.0);
        let d = mmo(OpKind::MinPlus, &a, &b, &c).unwrap();
        assert_eq!(d, Matrix::from_rows(&[&[5.0, 5.0], &[5.0, 5.0]]));
        let d = mmo(OpKind::PlusMul, &a, &b, &c).unwrap();
        assert_eq!(d, Matrix::from_rows(&[&[24.0, 27.0], &[48.0, 55.0]]));
    }

    #[test]
    fn typed_and_dynamic_agree_on_all_ops() {
        let a = Matrix::from_fn(3, 4, |r, c| 0.25 + (r * 4 + c) as f32 * 0.125);
        let b = Matrix::from_fn(4, 2, |r, c| 0.1 + (r * 2 + c) as f32 * 0.05);
        let c = Matrix::from_fn(3, 2, |r, c| 0.2 * (r + c) as f32 + 0.3);
        for op in ALL_OPS {
            let dynamic = mmo(op, &a, &b, &c).unwrap();
            struct V<'m>(&'m Matrix, &'m Matrix, &'m Matrix);
            impl simd2_semiring::KernelVisitor for V<'_> {
                type Output = Matrix;
                fn visit<K: simd2_semiring::SemiringKernel>(self) -> Matrix {
                    let Self(a, b, c) = self;
                    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
                        (0..a.cols()).fold(K::seed(c[(i, j)]), |acc, l| {
                            K::fma(acc, a[(i, l)], b[(l, j)])
                        })
                    })
                }
            }
            let typed = simd2_semiring::dispatch_kernel(op, V(&a, &b, &c));
            assert_eq!(dynamic, typed, "{op}");
        }
    }

    #[test]
    fn rectangular_shapes() {
        let a = Matrix::from_fn(2, 5, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(5, 3, |r, c| (r * c) as f32);
        let c = Matrix::zeros(2, 3);
        let d = mmo(OpKind::PlusMul, &a, &b, &c).unwrap();
        assert_eq!(d.shape(), (2, 3));
        // Spot check d[1][2]: sum_l (1+l) * (2l) = 2*(0+2+6+12+20) ... compute:
        // l=0: 1*0=0, l=1: 2*2=4, l=2: 3*4=12, l=3: 4*6=24, l=4: 5*8=40 → 80
        assert_eq!(d[(1, 2)], 80.0);
    }

    #[test]
    fn shape_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2); // inner mismatch
        let c = Matrix::zeros(2, 2);
        assert!(mmo(OpKind::PlusMul, &a, &b, &c).is_err());
        let b = Matrix::zeros(3, 2);
        let c_bad = Matrix::zeros(3, 2); // accumulator mismatch
        assert!(mmo(OpKind::PlusMul, &a, &b, &c_bad).is_err());
        assert!(mmo(OpKind::MinPlus, &a, &b, &c_bad).is_err());
    }

    #[test]
    fn ewise_reduce_works() {
        let a = Matrix::from_rows(&[&[1.0, 8.0]]);
        let b = Matrix::from_rows(&[&[4.0, 2.0]]);
        assert_eq!(
            ewise_reduce(OpKind::MinPlus, &a, &b).unwrap(),
            Matrix::from_rows(&[&[1.0, 2.0]])
        );
        assert_eq!(
            ewise_reduce(OpKind::PlusMul, &a, &b).unwrap(),
            Matrix::from_rows(&[&[5.0, 10.0]])
        );
        assert!(ewise_reduce(OpKind::MinPlus, &a, &Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn empty_inner_dimension_yields_identity_reduced_c() {
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 2);
        let c = Matrix::filled(2, 2, 3.0);
        let d = mmo(OpKind::MinPlus, &a, &b, &c).unwrap();
        assert_eq!(d, c, "k = 0 leaves the seed C ⊕ id");
        // The seed is not the identity function: it canonicalises.
        let c = Matrix::filled(2, 2, -0.0);
        let d = mmo(OpKind::PlusMul, &a, &b, &c).unwrap();
        assert!(d.as_slice().iter().all(|x| x.to_bits() == 0));
        let c = Matrix::filled(2, 2, f32::NAN);
        let d = mmo(OpKind::MinPlus, &a, &b, &c).unwrap();
        assert_eq!(d, Matrix::filled(2, 2, f32::INFINITY));
    }
}
