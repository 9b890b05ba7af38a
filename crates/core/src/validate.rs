//! Correctness-validation framework (paper §5.1, Figure 8).
//!
//! The paper's evaluation pipeline runs each SIMD²-ized application twice:
//! once through a CUDA-core backend to *validate* that the (often
//! different) matrix algorithm still produces the baseline's output under
//! the unit's reduced-precision data types, and once through the
//! Tensor-Core path for timing. This module is the validation half:
//! compare a candidate output against a baseline oracle, record the worst
//! deviation, and carry the op statistics over to the performance model.

use serde::{Deserialize, Serialize};
use simd2_matrix::{reference, Matrix};
use simd2_semiring::OpKind;

use crate::backend::OpCount;
use crate::error::BackendError;

/// Validates the operands of one `D = C ⊕ (A ⊗ B)` operation — the single
/// shape/op gate every backend ([`ReferenceBackend`](crate::ReferenceBackend),
/// [`TiledBackend`](crate::TiledBackend), [`IsaBackend`](crate::IsaBackend))
/// and the plan recorder run before touching the datapath, so malformed
/// inputs are rejected with the *same* [`BackendError`] everywhere.
///
/// # Errors
///
/// Returns [`BackendError::Shape`] when `A: m×k`, `B: k×n`, `C: m×n` do
/// not fit together.
pub fn check_mmo_operands(
    op: OpKind,
    a: &Matrix,
    b: &Matrix,
    c: &Matrix,
) -> Result<(), BackendError> {
    let _ = op; // every op shares the mmo geometry; kept for future
                // op-specific domain checks (and a uniform signature).
    reference::check_mmo_shapes(a, b, c)?;
    Ok(())
}

/// Outcome of validating one application run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Validation {
    /// Application / experiment label.
    pub name: String,
    /// Worst absolute element deviation from the baseline output
    /// (matching infinities count as zero).
    pub max_abs_diff: f32,
    /// Acceptance tolerance used.
    pub tolerance: f32,
    /// Tile-operation statistics of the candidate run (input to the
    /// performance model), if collected.
    #[serde(skip)]
    pub op_count: Option<OpCount>,
}

impl Validation {
    /// Whether the candidate run is accepted.
    pub fn passed(&self) -> bool {
        self.max_abs_diff <= self.tolerance
    }
}

/// Compares a candidate matrix output against the baseline oracle.
///
/// # Panics
///
/// Panics if the two outputs have different shapes — shape disagreement is
/// an implementation bug, not a precision issue.
pub fn compare_outputs(
    name: impl Into<String>,
    baseline: &Matrix,
    candidate: &Matrix,
    tolerance: f32,
) -> Validation {
    let max_abs_diff = baseline
        .max_abs_diff(candidate)
        .expect("baseline and candidate outputs must have identical shapes");
    Validation {
        name: name.into(),
        max_abs_diff,
        tolerance,
        op_count: None,
    }
}

/// Compares scalar outputs (e.g. an MST total weight) under a relative
/// tolerance.
pub fn compare_scalars(
    name: impl Into<String>,
    baseline: f32,
    candidate: f32,
    rel_tolerance: f32,
) -> Validation {
    let scale = baseline.abs().max(1.0);
    Validation {
        name: name.into(),
        max_abs_diff: (baseline - candidate).abs() / scale,
        tolerance: rel_tolerance,
        op_count: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_passes_at_zero_tolerance() {
        let m = Matrix::filled(3, 3, 1.5);
        let v = compare_outputs("exact", &m, &m.clone(), 0.0);
        assert!(v.passed());
        assert_eq!(v.max_abs_diff, 0.0);
    }

    #[test]
    fn deviation_is_measured_and_thresholded() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0, 2.25]]);
        let v = compare_outputs("off-by-quarter", &a, &b, 0.2);
        assert!(!v.passed());
        assert_eq!(v.max_abs_diff, 0.25);
        assert!(compare_outputs("looser", &a, &b, 0.25).passed());
    }

    #[test]
    fn matching_infinities_are_fine() {
        let a = Matrix::from_rows(&[&[f32::INFINITY, 1.0]]);
        let v = compare_outputs("inf", &a, &a.clone(), 0.0);
        assert!(v.passed());
    }

    #[test]
    #[should_panic(expected = "identical shapes")]
    fn shape_mismatch_panics() {
        let _ = compare_outputs("bad", &Matrix::zeros(2, 2), &Matrix::zeros(2, 3), 1.0);
    }

    #[test]
    fn all_backends_reject_malformed_inputs_with_the_same_error() {
        use crate::backend::{Backend, IsaBackend, ReferenceBackend, TiledBackend};
        // (A, B, C) triples that cannot form D = C ⊕ (A ⊗ B).
        let malformed = [
            (
                Matrix::zeros(4, 4),
                Matrix::zeros(5, 4),
                Matrix::zeros(4, 4),
            ),
            (
                Matrix::zeros(4, 7),
                Matrix::zeros(7, 3),
                Matrix::zeros(4, 4),
            ),
            (
                Matrix::zeros(2, 3),
                Matrix::zeros(3, 5),
                Matrix::zeros(3, 5),
            ),
        ];
        for (a, b, c) in &malformed {
            let want = check_mmo_operands(OpKind::MinPlus, a, b, c)
                .expect_err("malformed inputs must be rejected");
            let r = ReferenceBackend::new()
                .mmo(OpKind::MinPlus, a, b, c)
                .expect_err("reference");
            let t = TiledBackend::new()
                .mmo(OpKind::MinPlus, a, b, c)
                .expect_err("tiled");
            let i = IsaBackend::new()
                .mmo(OpKind::MinPlus, a, b, c)
                .expect_err("isa");
            assert_eq!(r, want, "reference backend error diverged");
            assert_eq!(t, want, "tiled backend error diverged");
            assert_eq!(i, want, "isa backend error diverged");
        }
        // Well-formed operands pass for every op.
        let a = Matrix::zeros(4, 6);
        let b = Matrix::zeros(6, 5);
        let c = Matrix::zeros(4, 5);
        for op in simd2_semiring::ALL_OPS {
            assert!(check_mmo_operands(op, &a, &b, &c).is_ok(), "{op}");
        }
    }

    #[test]
    fn scalar_comparison_is_relative() {
        let v = compare_scalars("weights", 1000.0, 1001.0, 0.01);
        assert!(v.passed());
        let v = compare_scalars("weights", 1000.0, 1200.0, 0.01);
        assert!(!v.passed());
        // Small baselines are compared on an absolute scale of 1.
        let v = compare_scalars("tiny", 0.0, 0.005, 0.01);
        assert!(v.passed());
    }
}
