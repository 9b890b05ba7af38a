//! 2:4 structured sparsity (the sparse Tensor-Core format of Fig 13).
//!
//! Ampere's sparse tensor pipe requires at most 2 non-zero values in every
//! group of 4 consecutive elements along the reduction dimension; the
//! hardware then skips the zero lanes for 2× throughput. The paper's
//! sparse-SIMD² experiment "assume\[s\] the inputs are pre-processed and
//! stored in the format required by the sparse Tensor Core" — this module
//! is that pre-processing.

use std::ops::Range;

use simd2_semiring::simd;
use simd2_semiring::OpKind;

use crate::{Csr, Matrix};

/// Checks the 2:4 constraint along rows: at most 2 entries per aligned
/// group of 4 differ from `zero` (the algebra's no-edge value).
pub fn is_2_4_compliant(m: &Matrix, zero: f32) -> bool {
    for r in 0..m.rows() {
        for group in m.row(r).chunks(4) {
            if group.iter().filter(|&&x| x != zero).count() > 2 {
                return false;
            }
        }
    }
    true
}

/// Prunes a matrix to 2:4 structure: in each aligned group of 4 along the
/// row, the 2 entries whose magnitude ranks lowest (distance from `zero`,
/// where `zero` may be `±∞` for path algebras) are replaced by `zero`.
///
/// For plus-mul this is the usual magnitude pruning; for a min-plus
/// adjacency it keeps the two *shortest* edges per group (the entries most
/// likely to matter), mirroring how one would sparsify a graph for the
/// sparse pipe.
pub fn prune_2_4(m: &Matrix, op: OpKind) -> Matrix {
    let zero = op.no_edge_f32().unwrap_or(0.0);
    let mut out = m.clone();
    for r in 0..m.rows() {
        let row = out.row_mut(r);
        for group in row.chunks_mut(4) {
            // Rank by "importance": how strongly the entry can influence a
            // reduction, i.e. distance from the annihilating value.
            let mut order: Vec<usize> = (0..group.len()).collect();
            let importance = |x: f32| -> f32 {
                if x == zero {
                    return f32::NEG_INFINITY;
                }
                if zero.is_infinite() {
                    // Path algebras: closer to 0 beats closer to ±∞.
                    -x.abs()
                } else {
                    x.abs()
                }
            };
            order.sort_by(|&a, &b| {
                importance(group[b])
                    .partial_cmp(&importance(group[a]))
                    .unwrap()
            });
            for &i in order.iter().skip(2) {
                group[i] = zero;
            }
        }
    }
    out
}

/// Fraction of entries pruned away by [`prune_2_4`] relative to the
/// original non-`zero` population.
pub fn pruning_loss(original: &Matrix, pruned: &Matrix, zero: f32) -> f64 {
    let nnz_before = original.as_slice().iter().filter(|&&x| x != zero).count();
    let nnz_after = pruned.as_slice().iter().filter(|&&x| x != zero).count();
    if nnz_before == 0 {
        0.0
    } else {
        1.0 - nnz_after as f64 / nnz_before as f64
    }
}

/// Compressed device size of a 2:4 operand: half the values (fp16) plus
/// 2-bit metadata per kept value — the memory-side benefit of the format.
pub fn compressed_bytes(rows: usize, cols: usize) -> u64 {
    let kept = (rows * cols) as u64 / 2;
    kept * 2 + kept / 4 // fp16 payload + 2-bit indices
}

/// A matrix in the 2:4 compressed operand format: per aligned group of 4
/// elements along each row, at most 2 values are kept — the operand the
/// sparse tensor pipe consumes, which is how it skips the zero lanes for
/// 2× throughput.
///
/// The kept slots are held as a [`Csr`] whose rows obey the 2:4 bound,
/// so a row is one contiguous ascending-`k` walk ([`Compressed24::row`]).
/// The device image's 2-bit in-group index of a slot is `k % 4`;
/// [`Compressed24::device_bytes`] reports the size of that fixed
/// two-slots-per-group image.
#[derive(Clone, Debug, PartialEq)]
pub struct Compressed24 {
    zero: f32,
    slots: Csr,
}

impl Compressed24 {
    /// Compresses a 2:4-compliant matrix.
    ///
    /// # Errors
    ///
    /// Returns the offending `(row, group)` coordinate if any group of 4
    /// holds more than two non-`zero` values (a NaN `zero`, which every
    /// element differs from, is reported at the first group).
    pub fn compress(m: &Matrix, zero: f32) -> Result<Self, (usize, usize)> {
        Self::compress_rows(m, 0..m.rows(), zero)
    }

    /// [`Compressed24::compress`] over the row range `rows` of `m` only:
    /// row `r` of the result images row `rows.start + r` of `m` (error
    /// coordinates name rows of `m`). This is how a panel worker
    /// compresses just the operand rows it owns.
    ///
    /// # Errors
    ///
    /// As for [`Compressed24::compress`].
    ///
    /// # Panics
    ///
    /// Panics if `rows` reaches past the last row of `m`.
    pub fn compress_rows(
        m: &Matrix,
        rows: Range<usize>,
        zero: f32,
    ) -> Result<Self, (usize, usize)> {
        let isa = simd::selected_isa();
        let row_ptr = Csr::row_ptr_of(m, rows.clone(), zero, isa);
        let slots = Csr::from_dense_rows(m, rows.clone(), zero, isa, row_ptr)
            .map_err(|_| (rows.start, 0))?;
        for r in 0..slots.rows() {
            // Sorted columns: three share a group iff the outer two do.
            let ks = slots.row(r).0;
            if let Some(w) = ks.windows(3).find(|w| w[0] / 4 == w[2] / 4) {
                return Err((rows.start + r, w[0] as usize / 4));
            }
        }
        Ok(Self { zero, slots })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.slots.rows()
    }

    /// Number of columns of the decompressed matrix.
    pub fn cols(&self) -> usize {
        self.slots.cols()
    }

    /// Stored (kept) non-`zero` values.
    pub fn nnz(&self) -> usize {
        self.slots.nnz()
    }

    /// Expands back to the dense form.
    pub fn decompress(&self) -> Matrix {
        self.slots.to_dense(self.zero)
    }

    /// Row `r`'s kept slots as parallel `k` (strictly increasing) and
    /// value slices — the exact traversal the sparse tile pipe performs
    /// when it skips the pruned lanes, in the form the row kernels walk.
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        self.slots.row(r)
    }

    /// Stored `(k, value)` pairs of row `r`, in ascending-`k` order.
    pub fn row_slots(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        self.slots.row_entries(r)
    }

    /// The kept values, row by row, for rewriting in place (which slots
    /// are kept cannot change through this). The sparse backend rounds
    /// them through fp16 here *after* compression, so a value that
    /// underflows to `±0.0` stays a kept slot.
    pub fn values_mut(&mut self) -> &mut [f32] {
        self.slots.values_mut()
    }

    /// Device bytes of the compressed image: two slots per group of 4,
    /// each an fp16 value plus a 2-bit index (indices rounded up to
    /// whole bytes).
    pub fn device_bytes(&self) -> u64 {
        let slots = (self.rows() * self.cols().div_ceil(4) * 2) as u64;
        slots * 2 + slots.div_ceil(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn pruned_matrices_are_compliant() {
        for op in [OpKind::PlusMul, OpKind::MinPlus, OpKind::MaxMin] {
            let zero = op.no_edge_f32().unwrap();
            let m = gen::random_matrix(16, 32, 0.5, 9.5, 3);
            assert!(
                !is_2_4_compliant(&m, zero),
                "{op}: dense input starts non-compliant"
            );
            let p = prune_2_4(&m, op);
            assert!(is_2_4_compliant(&p, zero), "{op}");
        }
    }

    #[test]
    fn already_sparse_groups_are_untouched() {
        let mut m = Matrix::zeros(1, 8);
        m[(0, 1)] = 5.0;
        m[(0, 6)] = -2.0;
        let p = prune_2_4(&m, OpKind::PlusMul);
        assert_eq!(p, m);
        assert_eq!(pruning_loss(&m, &p, 0.0), 0.0);
    }

    #[test]
    fn plus_mul_keeps_largest_magnitudes() {
        let m = Matrix::from_rows(&[&[1.0, -8.0, 3.0, 0.5]]);
        let p = prune_2_4(&m, OpKind::PlusMul);
        assert_eq!(p, Matrix::from_rows(&[&[0.0, -8.0, 3.0, 0.0]]));
    }

    #[test]
    fn min_plus_keeps_shortest_edges() {
        let inf = f32::INFINITY;
        let m = Matrix::from_rows(&[&[4.0, 1.0, 9.0, 2.0]]);
        let p = prune_2_4(&m, OpKind::MinPlus);
        assert_eq!(p, Matrix::from_rows(&[&[inf, 1.0, inf, 2.0]]));
    }

    #[test]
    fn loss_measures_half_of_dense() {
        let m = gen::random_matrix(32, 32, 0.5, 1.5, 7);
        let p = prune_2_4(&m, OpKind::PlusMul);
        let loss = pruning_loss(&m, &p, 0.0);
        assert!((loss - 0.5).abs() < 1e-6, "{loss}");
    }

    #[test]
    fn ragged_tail_groups_handled() {
        // 6 columns: one full group of 4 plus a tail of 2 (tail keeps ≤2).
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]);
        let p = prune_2_4(&m, OpKind::PlusMul);
        assert!(is_2_4_compliant(&p, 0.0));
        assert_eq!(p[(0, 4)], 5.0);
        assert_eq!(p[(0, 5)], 6.0);
    }

    #[test]
    fn compress_roundtrips_pruned_matrices() {
        for op in [OpKind::PlusMul, OpKind::MinPlus] {
            let zero = op.no_edge_f32().unwrap();
            let m = prune_2_4(&gen::random_matrix(12, 20, 0.5, 9.5, 11), op);
            let c = Compressed24::compress(&m, zero).unwrap();
            assert_eq!(c.decompress(), m, "{op}");
            assert_eq!(c.rows(), 12);
            assert_eq!(c.cols(), 20);
            // At most half the entries survive pruning.
            assert!(c.nnz() <= 12 * 20 / 2);
        }
    }

    #[test]
    fn row_slots_walk_in_ascending_k_order() {
        let m = Matrix::from_rows(&[&[1.0, 0.0, 0.0, 4.0, 0.0, 6.0], &[0.0; 6]]);
        let c = Compressed24::compress(&m, 0.0).unwrap();
        assert_eq!(
            c.row_slots(0).collect::<Vec<_>>(),
            vec![(0, 1.0), (3, 4.0), (5, 6.0)]
        );
        assert_eq!(c.row_slots(1).count(), 0);
    }

    #[test]
    fn compress_rejects_dense_groups() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
        assert_eq!(Compressed24::compress(&m, 0.0), Err((0, 0)));
        // Second row, second group.
        let mut m = Matrix::zeros(2, 8);
        for c in 4..8 {
            m[(1, c)] = 1.0;
        }
        assert_eq!(Compressed24::compress(&m, 0.0), Err((1, 1)));
    }

    #[test]
    fn compressed_operand_computes_identically_to_pruned_dense() {
        // The sparse pipe's contract: compute on the compressed operand
        // equals compute on the pruned dense operand.
        use crate::reference;
        let op = OpKind::MinPlus;
        let zero = op.no_edge_f32().unwrap();
        let a = prune_2_4(&gen::random_matrix(16, 16, 1.0, 9.0, 3), op);
        let b = gen::random_matrix(16, 16, 1.0, 9.0, 4);
        let cacc = Matrix::filled(16, 16, f32::INFINITY);
        let compressed = Compressed24::compress(&a, zero).unwrap();
        let via_compressed = reference::mmo(op, &compressed.decompress(), &b, &cacc).unwrap();
        let via_dense = reference::mmo(op, &a, &b, &cacc).unwrap();
        assert_eq!(via_compressed, via_dense);
    }

    #[test]
    fn compressed_image_is_smaller_than_dense_fp16() {
        let m = prune_2_4(&gen::random_matrix(64, 64, 0.5, 9.5, 7), OpKind::PlusMul);
        let c = Compressed24::compress(&m, 0.0).unwrap();
        let dense_fp16 = (64 * 64 * 2) as u64;
        assert!(
            c.device_bytes() < dense_fp16,
            "{} vs {dense_fp16}",
            c.device_bytes()
        );
        assert_eq!(c.device_bytes(), compressed_bytes(64, 64));
    }

    #[test]
    fn ragged_columns_compress_too() {
        let m = Matrix::from_rows(&[&[1.0, 0.0, 0.0, 0.0, 5.0, 6.0]]);
        let c = Compressed24::compress(&m, 0.0).unwrap();
        assert_eq!(c.decompress(), m);
        assert_eq!(c.nnz(), 3);
    }

    #[test]
    fn compressed_size_is_quarter_of_fp32_dense() {
        let dense_fp32 = 1024u64 * 1024 * 4;
        let c = compressed_bytes(1024, 1024);
        assert!(c * 4 < dense_fp32 * 2, "{c}");
        assert_eq!(c, 1024 * 1024 / 2 * 2 + 1024 * 1024 / 8);
    }
}
