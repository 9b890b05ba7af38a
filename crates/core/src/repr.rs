//! Operand representations (paper §6.5, Figures 13–14).
//!
//! The paper argues SIMD²'s semiring formulation pays off on *sparse*
//! inputs — 2:4 structured sparsity and CSR spGEMM past a density
//! crossover — without forking the programming model: an algorithm
//! states `D = C ⊕ (A ⊗ B)`, and how each operand is walked is a
//! lowering choice, like the dense tile schedule. That choice is the
//! engine's: [`TiledBackend`](crate::TiledBackend) measures each step's
//! operands and walks the sparse ones itself (DESIGN.md §12), so no
//! caller, plan or pass declares a representation.
//!
//! [`OperandRepr`] and [`MatrixRef`] are inert spellings for the repo
//! benchmark's `sparse-mmo` workload, which is written against them:
//! [`Backend::mmo_ref`](crate::Backend::mmo_ref) ignores what they
//! declare. [`density`] and [`is_2_4_compliant`] are the two
//! measurements it reads.

use simd2_matrix::Matrix;
use simd2_semiring::OpKind;

/// Whether a matrix holds at most two values other than `zero` per
/// aligned group of four along each row.
pub use simd2_matrix::structured::is_2_4_compliant;

/// A name for how an operand is stored. The engine ignores it: it
/// measures the operands of every step itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum OperandRepr {
    /// Plain row-major dense storage.
    #[default]
    Dense,
    /// Compressed sparse rows over the given zero sentinel.
    Csr {
        /// Bit pattern of the "zero" (no-edge) sentinel.
        zero_bits: u32,
    },
    /// 2:4 structured sparsity over the given zero sentinel.
    Structured24 {
        /// Bit pattern of the "zero" (no-edge) sentinel.
        zero_bits: u32,
    },
}

impl OperandRepr {
    /// The CSR spelling over `op`'s no-edge sentinel, if it has one.
    pub fn csr_for(op: OpKind) -> Option<Self> {
        op.no_edge_f32().map(|zero| OperandRepr::Csr {
            zero_bits: zero.to_bits(),
        })
    }

    /// The 2:4-structured spelling over `op`'s no-edge sentinel, if it
    /// has one.
    pub fn structured_for(op: OpKind) -> Option<Self> {
        op.no_edge_f32().map(|zero| OperandRepr::Structured24 {
            zero_bits: zero.to_bits(),
        })
    }

    /// Whether this is the dense spelling.
    pub fn is_dense(self) -> bool {
        matches!(self, OperandRepr::Dense)
    }
}

/// A borrowed MMO operand, as [`Backend::mmo_ref`](crate::Backend::mmo_ref)
/// accepts it.
#[derive(Clone, Copy, Debug)]
pub struct MatrixRef<'a> {
    /// The operand's values.
    pub matrix: &'a Matrix,
}

impl<'a> MatrixRef<'a> {
    /// A reference to `matrix`.
    pub fn dense(matrix: &'a Matrix) -> Self {
        Self { matrix }
    }

    /// A reference to `matrix`; `repr` is ignored.
    pub fn new(matrix: &'a Matrix, repr: OperandRepr) -> Self {
        let _ = repr;
        Self { matrix }
    }
}

/// Fraction of elements that differ from `zero` (by value), in `[0, 1]`.
/// An empty matrix reports density 0.
pub fn density(m: &Matrix, zero: f32) -> f64 {
    let total = m.rows() * m.cols();
    if total == 0 {
        return 0.0;
    }
    let nnz = m.as_slice().iter().filter(|&&v| v != zero).count();
    nnz as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reprs_roundtrip_sentinels_and_tags() {
        assert!(OperandRepr::default().is_dense());
        let csr = OperandRepr::csr_for(OpKind::MinPlus).unwrap();
        let st = OperandRepr::structured_for(OpKind::PlusMul).unwrap();
        assert!(!csr.is_dense() && !st.is_dense());
        // Distinct across variants and sentinels, as keys.
        let reprs = [
            OperandRepr::Dense,
            csr,
            st,
            OperandRepr::csr_for(OpKind::PlusMul).unwrap(),
            OperandRepr::structured_for(OpKind::MinPlus).unwrap(),
        ];
        let distinct: std::collections::HashSet<_> = reprs.iter().collect();
        assert_eq!(distinct.len(), reprs.len());
    }

    /// A plan's input fingerprint is bit-exact on sparse operands too:
    /// flipping a stored bit, or a `+0.0` annihilator entry to `-0.0`,
    /// moves the cache key.
    #[test]
    fn sparse_fingerprint_is_bit_exact() {
        use crate::{Backend, PlanBuilder, ReferenceBackend};
        let key = |a: &Matrix| {
            let mut be = ReferenceBackend::new();
            let mut rec = PlanBuilder::over(&mut be);
            let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
            rec.mmo(OpKind::PlusMul, a, &b, &Matrix::zeros(2, 2))
                .unwrap();
            rec.finish().cache_key()
        };
        let a = Matrix::from_rows(&[&[0.0, 1.5], &[2.5, 0.0]]);
        assert_eq!(key(&a), key(&a.clone()));
        let mut flipped = a.clone();
        flipped.as_mut_slice()[1] = f32::from_bits(1.5f32.to_bits() ^ 1);
        assert_ne!(key(&a), key(&flipped));
        let mut signed_zero = a.clone();
        signed_zero.as_mut_slice()[0] = -0.0;
        assert_ne!(key(&a), key(&signed_zero));
    }

    #[test]
    fn op_derived_reprs_follow_no_edge() {
        let minplus = OperandRepr::csr_for(OpKind::MinPlus).unwrap();
        assert_eq!(
            minplus,
            OperandRepr::Csr {
                zero_bits: f32::INFINITY.to_bits()
            }
        );
        let plusmul = OperandRepr::structured_for(OpKind::PlusMul).unwrap();
        assert_eq!(plusmul, OperandRepr::Structured24 { zero_bits: 0 });
        // PlusNorm has no annihilator.
        assert_eq!(OperandRepr::csr_for(OpKind::PlusNorm), None);
        assert_eq!(OperandRepr::structured_for(OpKind::PlusNorm), None);
    }

    #[test]
    fn density_counts_by_value() {
        let m = Matrix::from_rows(&[&[0.0, 1.0, 0.0, 2.0], &[0.0, 0.0, 0.0, 0.0]]);
        assert_eq!(density(&m, 0.0), 0.25);
        assert_eq!(density(&Matrix::zeros(0, 4), 0.0), 0.0);
        let inf = Matrix::from_rows(&[&[f32::INFINITY, 3.0]]);
        assert_eq!(density(&inf, f32::INFINITY), 0.5);
    }

    #[test]
    fn compliance_checks_aligned_groups_of_four() {
        // Two per group of four: compliant.
        let ok = Matrix::from_rows(&[&[1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 4.0]]);
        assert!(is_2_4_compliant(&ok, 0.0));
        // Three in the first group: not compliant.
        let bad = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0]]);
        assert!(!is_2_4_compliant(&bad, 0.0));
        // Ragged tail group (2 cols) may hold both values.
        let tail = Matrix::from_rows(&[&[0.0, 0.0, 1.0, 0.0, 5.0, 6.0]]);
        assert!(is_2_4_compliant(&tail, 0.0));
    }
}
