//! Operand representation seam (paper §6.5, Figures 13–14).
//!
//! The paper argues SIMD²'s semiring formulation pays off on *sparse*
//! inputs — 2:4 structured sparsity and CSR spGEMM past a density
//! crossover — yet sparsity must not fork the programming model: an
//! algorithm states `D = C ⊕ (A ⊗ B)` and the *representation* of each
//! operand (dense, CSR, 2:4-structured) is a lowering choice, exactly
//! like the dense tile schedule. [`OperandRepr`] is that choice, and
//! [`MatrixRef`] pairs it with a borrowed operand for
//! [`Backend::mmo_ref`](crate::Backend::mmo_ref).
//!
//! Two invariants make the seam sound:
//!
//! 1. **Representation never changes the answer.** Every backend must
//!    produce bit-identical outputs whether it honours a sparse
//!    declaration or falls back to the dense datapath — a sparse
//!    declaration is a *schedule* hint, so skipping a stored-zero term
//!    must be a bit-exact no-op under the operation's reduction. That
//!    is why a sparse declaration's `zero` sentinel is validated to be
//!    the operation's [`no_edge_f32`](simd2_semiring::OpKind::no_edge_f32)
//!    annihilator (see [`crate::validate::check_mmo_operands_ref`]).
//! 2. **Cache identity sees representation.** Plans record slot reprs
//!    into [`structural_hash`](crate::Plan::structural_hash), and input
//!    fingerprints of sparse slots hash the CSR raw parts (row
//!    pointers, column indices, stored bits) — injective on element
//!    bits, so a cache key can never alias two different inputs.

use simd2_matrix::Matrix;
use simd2_semiring::OpKind;

/// The 2:4 constraint a [`OperandRepr::Structured24`] declaration is
/// validated against — the one definition, beside the format it guards.
pub use simd2_matrix::structured::is_2_4_compliant;

/// How one MMO operand is represented at execution time.
///
/// `Dense` is the default everywhere; the sparse variants carry the
/// "zero" sentinel (as exact bits, so the type stays `Eq`/`Hash`) that
/// defines which elements the compressed form stores. For a declaration
/// to validate, the sentinel must equal the operation's
/// [`no_edge_f32`](simd2_semiring::OpKind::no_edge_f32) value — the
/// annihilator whose terms a sparse kernel may skip bit-exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum OperandRepr {
    /// Plain row-major dense storage.
    #[default]
    Dense,
    /// Compressed sparse rows ([`simd2_matrix::Csr`]) over the given
    /// zero sentinel.
    Csr {
        /// Bit pattern of the "zero" (no-edge) sentinel.
        zero_bits: u32,
    },
    /// 2:4 structured sparsity (at most two stored values per aligned
    /// group of four along each row —
    /// [`simd2_matrix::structured::Compressed24`]) over the given zero
    /// sentinel.
    Structured24 {
        /// Bit pattern of the "zero" (no-edge) sentinel.
        zero_bits: u32,
    },
}

impl OperandRepr {
    /// A CSR declaration over `zero`.
    pub fn csr(zero: f32) -> Self {
        OperandRepr::Csr {
            zero_bits: zero.to_bits(),
        }
    }

    /// A 2:4-structured declaration over `zero`.
    pub fn structured(zero: f32) -> Self {
        OperandRepr::Structured24 {
            zero_bits: zero.to_bits(),
        }
    }

    /// The CSR declaration matching `op`'s no-edge sentinel, if the
    /// operation has one (`PlusNorm` does not — every element is
    /// semantically meaningful, so it has no sparse lowering).
    pub fn csr_for(op: OpKind) -> Option<Self> {
        op.no_edge_f32().map(Self::csr)
    }

    /// The 2:4-structured declaration matching `op`'s no-edge sentinel.
    pub fn structured_for(op: OpKind) -> Option<Self> {
        op.no_edge_f32().map(Self::structured)
    }

    /// The zero sentinel of a sparse declaration (`None` for dense).
    pub fn zero(self) -> Option<f32> {
        match self {
            OperandRepr::Dense => None,
            OperandRepr::Csr { zero_bits } | OperandRepr::Structured24 { zero_bits } => {
                Some(f32::from_bits(zero_bits))
            }
        }
    }

    /// Whether this is the dense representation.
    pub fn is_dense(self) -> bool {
        matches!(self, OperandRepr::Dense)
    }

    /// Short human-readable name (`dense` / `csr` / `structured24`).
    pub fn name(self) -> &'static str {
        match self {
            OperandRepr::Dense => "dense",
            OperandRepr::Csr { .. } => "csr",
            OperandRepr::Structured24 { .. } => "structured24",
        }
    }

    /// An injective `u64` encoding, mixed into plan hashes. Dense maps
    /// to 0 so all-dense plans hash exactly as they did before the
    /// representation seam existed.
    pub fn hash_tag(self) -> u64 {
        match self {
            OperandRepr::Dense => 0,
            OperandRepr::Csr { zero_bits } => (1 << 32) | u64::from(zero_bits),
            OperandRepr::Structured24 { zero_bits } => (2 << 32) | u64::from(zero_bits),
        }
    }
}

/// A borrowed MMO operand together with its declared representation —
/// what [`Backend::mmo_ref`](crate::Backend::mmo_ref) accepts.
///
/// The matrix itself stays dense in memory (the functional model's
/// ground truth); the representation tells the backend which compressed
/// view it may execute through.
#[derive(Clone, Copy, Debug)]
pub struct MatrixRef<'a> {
    /// The operand's dense ground-truth values.
    pub matrix: &'a Matrix,
    /// The declared execution representation.
    pub repr: OperandRepr,
}

impl<'a> MatrixRef<'a> {
    /// A dense operand reference (the common case).
    pub fn dense(matrix: &'a Matrix) -> Self {
        Self {
            matrix,
            repr: OperandRepr::Dense,
        }
    }

    /// An operand reference with an explicit representation.
    pub fn new(matrix: &'a Matrix, repr: OperandRepr) -> Self {
        Self { matrix, repr }
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

/// Fraction of rows holding an element that differs from `zero` (by
/// value), in `[0, 1]` — the rows a scatter over `m` looks up. A matrix
/// without rows reports 0.
pub fn occupied_rows(m: &Matrix, zero: f32) -> f64 {
    let occupied = (0..m.rows())
        .filter(|&r| m.row(r).iter().any(|&v| v != zero))
        .count();
    occupied as f64 / m.rows().max(1) as f64
}

/// FNV-1a fingerprint of a matrix's CSR raw parts over `zero`: shape,
/// the sentinel's bits, and per row the (column, bits) pairs of every
/// element whose *bit pattern* differs from the sentinel's.
///
/// Filtering on bits (not value) makes the parts a bijection with the
/// element bit patterns — e.g. a `-0.0` under a `+0.0` sentinel is
/// stored, not dropped — so equal fingerprints imply bit-equal
/// matrices (up to hash collision), and a replay cache keyed on this
/// fingerprint stays sound even for backends that fall back to the
/// dense datapath.
pub fn fingerprint_sparse(m: &Matrix, zero: f32) -> u64 {
    let zero_bits = zero.to_bits();
    let mut h = crate::plan::FNV_OFFSET;
    for word in [m.rows() as u64, m.cols() as u64, u64::from(zero_bits)] {
        h = crate::plan::fnv_mix(h, word);
    }
    for r in 0..m.rows() {
        let mut row_nnz = 0u64;
        let mut row_h = crate::plan::FNV_OFFSET;
        for c in 0..m.cols() {
            let bits = m[(r, c)].to_bits();
            if bits != zero_bits {
                row_nnz += 1;
                row_h = crate::plan::fnv_mix(row_h, c as u64);
                row_h = crate::plan::fnv_mix(row_h, u64::from(bits));
            }
        }
        h = crate::plan::fnv_mix(h, row_nnz);
        h = crate::plan::fnv_mix(h, row_h);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reprs_roundtrip_sentinels_and_tags() {
        assert!(OperandRepr::default().is_dense());
        assert_eq!(OperandRepr::Dense.zero(), None);
        assert_eq!(OperandRepr::Dense.hash_tag(), 0);
        let csr = OperandRepr::csr(f32::INFINITY);
        assert_eq!(csr.zero(), Some(f32::INFINITY));
        assert!(!csr.is_dense());
        let st = OperandRepr::structured(0.0);
        assert_eq!(st.zero(), Some(0.0));
        // Tags are injective across variants and sentinels.
        let tags = [
            OperandRepr::Dense.hash_tag(),
            csr.hash_tag(),
            st.hash_tag(),
            OperandRepr::csr(0.0).hash_tag(),
            OperandRepr::structured(f32::INFINITY).hash_tag(),
        ];
        let distinct: std::collections::HashSet<_> = tags.iter().collect();
        assert_eq!(distinct.len(), tags.len());
        assert_eq!(csr.name(), "csr");
        assert_eq!(st.name(), "structured24");
        assert_eq!(OperandRepr::Dense.name(), "dense");
    }

    #[test]
    fn op_derived_reprs_follow_no_edge() {
        let minplus = OperandRepr::csr_for(OpKind::MinPlus).unwrap();
        assert_eq!(minplus.zero(), Some(f32::INFINITY));
        let plusmul = OperandRepr::structured_for(OpKind::PlusMul).unwrap();
        assert_eq!(plusmul.zero(), Some(0.0));
        // PlusNorm has no annihilator: no sparse lowering exists.
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

    #[test]
    fn sparse_fingerprint_is_bit_exact() {
        let a = Matrix::from_rows(&[&[0.0, 1.5], &[2.5, 0.0]]);
        let b = a.clone();
        assert_eq!(fingerprint_sparse(&a, 0.0), fingerprint_sparse(&b, 0.0));
        // Flipping a stored bit moves the fingerprint.
        let mut c = a.clone();
        c.as_mut_slice()[1] = f32::from_bits(1.5f32.to_bits() ^ 1);
        assert_ne!(fingerprint_sparse(&a, 0.0), fingerprint_sparse(&c, 0.0));
        // A -0.0 under a +0.0 sentinel is value-zero but bit-distinct:
        // it must still be captured.
        let mut d = a.clone();
        d.as_mut_slice()[0] = -0.0;
        assert_ne!(fingerprint_sparse(&a, 0.0), fingerprint_sparse(&d, 0.0));
        // Different sentinels fingerprint differently even on equal bits.
        assert_ne!(
            fingerprint_sparse(&a, 0.0),
            fingerprint_sparse(&a, f32::INFINITY)
        );
    }
}
