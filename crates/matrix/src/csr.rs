//! Compressed-sparse-row matrices and semiring spGEMM.

use std::fmt;
use std::ops::Range;

use simd2_semiring::simd::{self, KernelIsa};
use simd2_semiring::OpKind;

use crate::Matrix;

/// A structurally invalid CSR image.
///
/// Returned by the validating constructors ([`Csr::from_raw`],
/// [`Csr::try_from_triplets`]); every variant pinpoints the first
/// offending coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CsrError {
    /// `row_ptr` must have exactly `rows + 1` entries.
    RowPointerLength {
        /// Expected entry count (`rows + 1`).
        expected: usize,
        /// Actual entry count.
        got: usize,
    },
    /// `row_ptr` must start at zero and never decrease.
    NonMonotonicRowPointer {
        /// First row whose pointer violates monotonicity.
        row: usize,
    },
    /// The final row pointer must equal the stored entry count.
    RowPointerMismatch {
        /// Final row-pointer value.
        row_ptr_end: usize,
        /// Stored entries (`values.len()`).
        nnz: usize,
    },
    /// `col_idx` and `values` must be the same length.
    LengthMismatch {
        /// Column-index count.
        col_idx: usize,
        /// Value count.
        values: usize,
    },
    /// A column index is at or past the column count.
    ColumnOutOfBounds {
        /// Row containing the entry.
        row: usize,
        /// The offending column index.
        col: usize,
        /// The matrix column count.
        cols: usize,
    },
    /// Column indices within a row must be strictly increasing (sorted,
    /// no duplicates).
    UnsortedColumns {
        /// Row containing the violation.
        row: usize,
        /// The column index that is not greater than its predecessor.
        col: usize,
    },
    /// A triplet's coordinates fall outside the matrix.
    CoordinateOutOfRange {
        /// Triplet row.
        row: usize,
        /// Triplet column.
        col: usize,
        /// Matrix shape.
        shape: (usize, usize),
    },
    /// Two triplets share a coordinate.
    DuplicateEntry {
        /// Duplicated row.
        row: usize,
        /// Duplicated column.
        col: usize,
    },
    /// The implicit-value sentinel is NaN, which compares unequal to
    /// every element — [`Csr::from_dense`] would silently store the
    /// whole matrix as "non-zero" entries. (`±∞` sentinels are legal:
    /// path algebras use them as their no-edge value.)
    NanZero,
}

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrError::RowPointerLength { expected, got } => {
                write!(f, "row_ptr has {got} entries, expected {expected}")
            }
            CsrError::NonMonotonicRowPointer { row } => {
                write!(f, "row_ptr decreases (or does not start at 0) at row {row}")
            }
            CsrError::RowPointerMismatch { row_ptr_end, nnz } => {
                write!(
                    f,
                    "final row pointer {row_ptr_end} does not match {nnz} stored entries"
                )
            }
            CsrError::LengthMismatch { col_idx, values } => {
                write!(f, "{col_idx} column indices but {values} values")
            }
            CsrError::ColumnOutOfBounds { row, col, cols } => {
                write!(
                    f,
                    "column {col} in row {row} is out of bounds for {cols} columns"
                )
            }
            CsrError::UnsortedColumns { row, col } => {
                write!(f, "column {col} in row {row} is not strictly increasing")
            }
            CsrError::CoordinateOutOfRange { row, col, shape } => {
                write!(
                    f,
                    "triplet ({row},{col}) out of range for {}x{}",
                    shape.0, shape.1
                )
            }
            CsrError::DuplicateEntry { row, col } => {
                write!(f, "duplicate entry at ({row},{col})")
            }
            CsrError::NanZero => {
                write!(f, "NaN is not a usable implicit-zero sentinel")
            }
        }
    }
}

impl std::error::Error for CsrError {}

/// A compressed-sparse-row matrix of `f32` values.
///
/// The explicit-zero convention follows the algebra in use: "zero" means
/// the `⊗`-annihilating no-edge value of the operation (plain `0.0` for
/// plus-mul), and structurally-missing entries are implicitly that value.
///
/// # Example
///
/// ```
/// use simd2_matrix::{Csr, Matrix};
///
/// let d = Matrix::from_rows(&[&[0.0, 2.0], &[0.0, 0.0]]);
/// let s = Csr::from_dense(&d, 0.0)?;
/// assert_eq!(s.nnz(), 1);
/// assert_eq!(s.to_dense(0.0), d);
/// # Ok::<(), simd2_matrix::CsrError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl Csr {
    /// Builds a CSR matrix from a dense one, treating `zero` as the
    /// implicit value. `±∞` sentinels are legal (path algebras encode
    /// no-edge as `±∞`); a NaN sentinel is rejected because `v != NaN`
    /// holds for every element, which would silently build a fully
    /// dense "sparse" image. [`Csr::row_ptr_of`] counts the stored
    /// entries and [`Csr::from_dense_rows`] compacts them, both on the
    /// host's [`simd::selected_isa`].
    ///
    /// # Errors
    ///
    /// Returns [`CsrError::NanZero`] when `zero` is NaN.
    pub fn from_dense(m: &Matrix, zero: f32) -> Result<Self, CsrError> {
        let isa = simd::selected_isa();
        let row_ptr = Self::row_ptr_of(m, 0..m.rows(), zero, isa);
        Self::from_dense_rows(m, 0..m.rows(), zero, isa, row_ptr)
    }

    /// The row pointer of the image of `m`'s rows `rows` over `zero`:
    /// `0`, then the running count of their elements that differ from
    /// `zero`, row by row — one [`simd::scan`] per row on `isa`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` reaches past the last row of `m`.
    pub fn row_ptr_of(m: &Matrix, rows: Range<usize>, zero: f32, isa: KernelIsa) -> Vec<usize> {
        let mut stored = 0;
        std::iter::once(0)
            .chain(rows.map(|r| {
                stored += simd::scan(isa, zero, m.row(r)).stored;
                stored
            }))
            .collect()
    }

    /// [`Csr::from_dense`] over the row range `rows` of `m` only, given
    /// the image's row pointer — what [`Csr::row_ptr_of`] counts, or any
    /// row-by-row [`simd::scan`] of those rows adds up — which sizes the
    /// image and every row's span exactly. Row `r` of the result images
    /// row `rows.start + r` of `m`, compacted by [`simd::compact`] on
    /// `isa` (every tier builds the same image). This is how a panel
    /// worker compresses just the operand rows it owns.
    ///
    /// # Errors
    ///
    /// Returns [`CsrError::NanZero`] when `zero` is NaN.
    ///
    /// # Panics
    ///
    /// Panics if `rows` reaches past the last row of `m`, or `row_ptr`
    /// is not that row pointer.
    pub fn from_dense_rows(
        m: &Matrix,
        rows: Range<usize>,
        zero: f32,
        isa: KernelIsa,
        row_ptr: Vec<usize>,
    ) -> Result<Self, CsrError> {
        if zero.is_nan() {
            return Err(CsrError::NanZero);
        }
        assert_eq!(
            row_ptr.len(),
            rows.len() + 1,
            "one row pointer per row, and one"
        );
        assert_eq!(row_ptr[0], 0, "the row pointer starts at 0");
        let stored = row_ptr[rows.len()];
        let (mut col_idx, mut values) = (vec![0; stored], vec![0.0; stored]);
        for (r, span) in rows.clone().zip(row_ptr.windows(2)) {
            let (cols, vals) = (
                &mut col_idx[span[0]..span[1]],
                &mut values[span[0]..span[1]],
            );
            let kept = simd::compact(isa, zero, m.row(r), cols, vals);
            assert_eq!(
                kept,
                cols.len(),
                "row {r} stores {kept} entries, not {}",
                cols.len()
            );
        }
        Ok(Self {
            rows: rows.len(),
            cols: m.cols(),
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds from explicit triplets `(row, col, value)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range coordinates or duplicate entries. Use
    /// [`Csr::try_from_triplets`] to handle malformed input gracefully.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f32)>,
    ) -> Self {
        Self::try_from_triplets(rows, cols, triplets).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds from explicit triplets `(row, col, value)`, rejecting
    /// out-of-range coordinates and duplicate entries with a typed error
    /// instead of panicking.
    pub fn try_from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f32)>,
    ) -> Result<Self, CsrError> {
        let mut entries: Vec<(usize, usize, f32)> = triplets.into_iter().collect();
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());
        let mut prev: Option<(usize, usize)> = None;
        for (r, c, v) in entries {
            if r >= rows || c >= cols {
                return Err(CsrError::CoordinateOutOfRange {
                    row: r,
                    col: c,
                    shape: (rows, cols),
                });
            }
            if prev == Some((r, c)) {
                return Err(CsrError::DuplicateEntry { row: r, col: c });
            }
            prev = Some((r, c));
            row_ptr[r + 1] += 1;
            col_idx.push(c as u32);
            values.push(v);
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        Ok(Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Assembles a CSR matrix from its raw arrays, validating every
    /// structural invariant:
    ///
    /// - `row_ptr` has `rows + 1` entries, starts at 0, is non-decreasing,
    ///   and ends at the stored entry count;
    /// - `col_idx` and `values` are the same length;
    /// - within each row, column indices are strictly increasing (sorted,
    ///   duplicate-free) and below `cols`.
    ///
    /// This is the untrusted-input entry point: a CSR image read from disk
    /// or a device buffer goes through here so that downstream kernels
    /// (`row_entries`, `spgemm`) can index without bounds panics.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, CsrError> {
        if row_ptr.len() != rows + 1 {
            return Err(CsrError::RowPointerLength {
                expected: rows + 1,
                got: row_ptr.len(),
            });
        }
        if col_idx.len() != values.len() {
            return Err(CsrError::LengthMismatch {
                col_idx: col_idx.len(),
                values: values.len(),
            });
        }
        if row_ptr[0] != 0 {
            return Err(CsrError::NonMonotonicRowPointer { row: 0 });
        }
        for r in 0..rows {
            if row_ptr[r + 1] < row_ptr[r] {
                return Err(CsrError::NonMonotonicRowPointer { row: r + 1 });
            }
        }
        if row_ptr[rows] != values.len() {
            return Err(CsrError::RowPointerMismatch {
                row_ptr_end: row_ptr[rows],
                nnz: values.len(),
            });
        }
        for r in 0..rows {
            let mut prev: Option<u32> = None;
            for &c in &col_idx[row_ptr[r]..row_ptr[r + 1]] {
                if c as usize >= cols {
                    return Err(CsrError::ColumnOutOfBounds {
                        row: r,
                        col: c as usize,
                        cols,
                    });
                }
                if prev.is_some_and(|p| c <= p) {
                    return Err(CsrError::UnsortedColumns {
                        row: r,
                        col: c as usize,
                    });
                }
                prev = Some(c);
            }
        }
        Ok(Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// The raw `(row_ptr, col_idx, values)` arrays, consuming the matrix.
    /// Feeding them back through [`Csr::from_raw`] reconstructs it.
    pub fn into_raw(self) -> (Vec<usize>, Vec<u32>, Vec<f32>) {
        (self.row_ptr, self.col_idx, self.values)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored (explicit) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Density of stored entries.
    pub fn density(&self) -> f64 {
        if self.rows * self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows * self.cols) as f64
        }
    }

    /// One row's stored columns (strictly increasing) and values, as
    /// parallel slices — the form the row kernels walk.
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// One row's `(column, value)` pairs.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let (cols, values) = self.row(r);
        cols.iter().zip(values).map(|(&c, &v)| (c as usize, v))
    }

    /// The stored values, row by row, for rewriting in place (the
    /// structure — which entries are stored — cannot change through
    /// this). The sparse backend rounds them through fp16 here *after*
    /// compression, so an entry that underflows to `±0.0` stays stored.
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }

    /// Expands back to dense with `zero` as the implicit value.
    pub fn to_dense(&self, zero: f32) -> Matrix {
        let mut m = Matrix::filled(self.rows, self.cols, zero);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                m[(r, c)] = v;
            }
        }
        m
    }

    /// Device bytes of the CSR image (fp32 values + 32-bit column indices
    /// + row pointers) — the quantity the Fig 14 memory model sums.
    pub fn device_bytes(&self) -> u64 {
        (self.values.len() * 4 + self.col_idx.len() * 4 + self.row_ptr.len() * 4) as u64
    }

    /// Gustavson-style sparse × sparse multiplication under the algebra of
    /// `op`: `C(i,j) = ⊕ₖ A(i,k) ⊗ B(k,j)` over structurally present
    /// pairs.
    ///
    /// This is exactly the computation a SIMD²-extended GAMMA accelerator
    /// performs (§6.5): the classic row-wise product with the multiply
    /// and add ALUs replaced by `⊗` and `⊕`.
    ///
    /// Combined values equal to `op`'s no-edge encoding are dropped from
    /// the output (they are the implicit value).
    ///
    /// # Panics
    ///
    /// Panics when inner dimensions disagree or `op` has no no-edge
    /// encoding (plus-norm is not a sparse path algebra).
    pub fn spgemm(&self, op: OpKind, other: &Csr) -> Csr {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let zero = op
            .no_edge_f32()
            .unwrap_or_else(|| panic!("{op} has no sparse zero"));
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx: Vec<u32> = Vec::new();
        let mut values: Vec<f32> = Vec::new();
        row_ptr.push(0);
        // Dense accumulator row (the SPA of Gustavson's algorithm).
        let mut acc = vec![op.reduce_identity_f32(); other.cols];
        let mut touched: Vec<usize> = Vec::new();
        for i in 0..self.rows {
            for (k, a_ik) in self.row_entries(i) {
                for (j, b_kj) in other.row_entries(k) {
                    if acc[j] == op.reduce_identity_f32() && !touched.contains(&j) {
                        touched.push(j);
                    }
                    acc[j] = op.fma_f32(acc[j], a_ik, b_kj);
                }
            }
            touched.sort_unstable();
            for &j in &touched {
                if acc[j] != zero && acc[j] != op.reduce_identity_f32() {
                    col_idx.push(j as u32);
                    values.push(acc[j]);
                }
                acc[j] = op.reduce_identity_f32();
            }
            touched.clear();
            row_ptr.push(col_idx.len());
        }
        Csr {
            rows: self.rows,
            cols: other.cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Upper bound on the intermediate products a Gustavson pass over
    /// these operands generates (`Σᵢ Σ_{k∈row i} nnz(B row k)`), the
    /// quantity that drives spGEMM workspace.
    pub fn spgemm_products(&self, other: &Csr) -> u64 {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let mut total = 0u64;
        for i in 0..self.rows {
            for (k, _) in self.row_entries(i) {
                total += (other.row_ptr[k + 1] - other.row_ptr[k]) as u64;
            }
        }
        total
    }

    /// The transposed matrix, rebuilt in CSR form (a CSC view of the
    /// original). Two counting passes: per-column histogram, then a
    /// stable scatter, so each output row's columns stay sorted.
    pub fn transpose(&self) -> Csr {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                let at = cursor[c];
                col_idx[at] = r as u32;
                values[at] = v;
                cursor[c] += 1;
            }
        }
        Csr {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Sparse matrix × dense vector under the algebra of `op`:
    /// `y(i) = ⊕ₖ A(i,k) ⊗ x(k)`, folded over the stored entries in
    /// ascending-`k` order — one relaxation step of single-source
    /// BFS/SSSP when `x` is a frontier/distance vector. Matches the
    /// dense fold bit for bit on in-domain inputs (skipped terms
    /// combine through the annihilator; max-mul rows with skipped
    /// terms fold the `⊕ 0.0` end correction).
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != self.cols()` or `op` has no no-edge
    /// encoding (plus-norm is not a sparse path algebra).
    pub fn spmv(&self, op: OpKind, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "vector length mismatch");
        assert!(op.no_edge_f32().is_some(), "{op} has no sparse zero");
        let mut y = Vec::with_capacity(self.rows);
        for i in 0..self.rows {
            let mut acc = op.reduce_identity_f32();
            let mut folded = 0usize;
            for (k, v) in self.row_entries(i) {
                acc = op.fma_f32(acc, v, x[k]);
                folded += 1;
            }
            if op == OpKind::MaxMul && folded < self.cols {
                acc = op.reduce_f32(acc, 0.0);
            }
            y.push(acc);
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, reference};

    #[test]
    fn dense_roundtrip() {
        let d = gen::random_sparse_matrix(24, 0.8, 3);
        let s = Csr::from_dense(&d, 0.0).unwrap();
        assert_eq!(s.to_dense(0.0), d);
        assert_eq!(s.nnz(), d.as_slice().iter().filter(|&&x| x != 0.0).count());
    }

    #[test]
    fn roundtrip_with_infinity_zero() {
        // Path matrices use +inf as the implicit value.
        let mut d = Matrix::filled(4, 4, f32::INFINITY);
        d[(1, 2)] = 3.0;
        d[(0, 0)] = 0.0;
        let s = Csr::from_dense(&d, f32::INFINITY).unwrap();
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.to_dense(f32::INFINITY), d);
    }

    #[test]
    fn triplets_construction() {
        let s = Csr::from_triplets(3, 3, [(2, 1, 5.0), (0, 0, 1.0), (0, 2, 2.0)]);
        assert_eq!(s.nnz(), 3);
        let d = s.to_dense(0.0);
        assert_eq!(d[(0, 0)], 1.0);
        assert_eq!(d[(0, 2)], 2.0);
        assert_eq!(d[(2, 1)], 5.0);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_triplets_rejected() {
        let _ = Csr::from_triplets(2, 2, [(0, 0, 1.0), (0, 0, 2.0)]);
    }

    #[test]
    fn try_from_triplets_reports_typed_errors() {
        assert_eq!(
            Csr::try_from_triplets(2, 2, [(0, 3, 1.0)]),
            Err(CsrError::CoordinateOutOfRange {
                row: 0,
                col: 3,
                shape: (2, 2)
            })
        );
        assert_eq!(
            Csr::try_from_triplets(2, 2, [(1, 1, 1.0), (1, 1, 2.0)]),
            Err(CsrError::DuplicateEntry { row: 1, col: 1 })
        );
        assert!(Csr::try_from_triplets(2, 2, [(0, 1, 1.0), (1, 0, 2.0)]).is_ok());
    }

    #[test]
    fn from_raw_roundtrips_valid_images() {
        let d = gen::random_sparse_matrix(16, 0.6, 4);
        let s = Csr::from_dense(&d, 0.0).unwrap();
        let (row_ptr, col_idx, values) = s.clone().into_raw();
        let rebuilt = Csr::from_raw(16, 16, row_ptr, col_idx, values).unwrap();
        assert_eq!(rebuilt, s);
    }

    #[test]
    fn from_raw_rejects_bad_row_pointers() {
        assert_eq!(
            Csr::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]),
            Err(CsrError::RowPointerLength {
                expected: 3,
                got: 2
            })
        );
        assert_eq!(
            Csr::from_raw(2, 2, vec![1, 1, 1], vec![1], vec![1.0]),
            Err(CsrError::NonMonotonicRowPointer { row: 0 })
        );
        assert_eq!(
            Csr::from_raw(2, 2, vec![0, 1, 0], vec![1], vec![1.0]),
            Err(CsrError::NonMonotonicRowPointer { row: 2 })
        );
        assert_eq!(
            Csr::from_raw(2, 2, vec![0, 1, 2], vec![1], vec![1.0]),
            Err(CsrError::RowPointerMismatch {
                row_ptr_end: 2,
                nnz: 1
            })
        );
    }

    #[test]
    fn from_raw_rejects_bad_columns() {
        assert_eq!(
            Csr::from_raw(1, 2, vec![0, 2], vec![0, 1], vec![1.0]),
            Err(CsrError::LengthMismatch {
                col_idx: 2,
                values: 1
            })
        );
        assert_eq!(
            Csr::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]),
            Err(CsrError::ColumnOutOfBounds {
                row: 0,
                col: 5,
                cols: 2
            })
        );
        // Out of order within a row.
        assert_eq!(
            Csr::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]),
            Err(CsrError::UnsortedColumns { row: 0, col: 0 })
        );
        // Duplicate column within a row.
        assert_eq!(
            Csr::from_raw(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]),
            Err(CsrError::UnsortedColumns { row: 0, col: 1 })
        );
    }

    #[test]
    fn csr_error_displays_and_is_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(CsrError::DuplicateEntry { row: 3, col: 4 });
        assert!(e.to_string().contains("duplicate entry at (3,4)"));
    }

    #[test]
    fn spgemm_plus_mul_matches_dense_reference() {
        let a_d = gen::random_sparse_matrix(20, 0.7, 5);
        let b_d = gen::random_sparse_matrix(20, 0.7, 6);
        let a = Csr::from_dense(&a_d, 0.0).unwrap();
        let b = Csr::from_dense(&b_d, 0.0).unwrap();
        let c = a.spgemm(OpKind::PlusMul, &b);
        let want = reference::mmo(OpKind::PlusMul, &a_d, &b_d, &Matrix::zeros(20, 20)).unwrap();
        assert!(c.to_dense(0.0).max_abs_diff(&want).unwrap() < 1e-5);
    }

    #[test]
    fn spgemm_min_plus_matches_dense_reference() {
        let g = gen::gnp_graph(16, 0.2, 1.0, 9.0, 7);
        let adj = g.adjacency(OpKind::MinPlus);
        let a = Csr::from_dense(&adj, f32::INFINITY).unwrap();
        let c = a.spgemm(OpKind::MinPlus, &a);
        let cid = Matrix::filled(16, 16, f32::INFINITY);
        let want = reference::mmo(OpKind::MinPlus, &adj, &adj, &cid).unwrap();
        assert_eq!(c.to_dense(f32::INFINITY), want);
    }

    #[test]
    fn spgemm_or_and_reachability() {
        let g = gen::gnp_graph(12, 0.25, 1.0, 2.0, 11);
        let reach = g.reachability();
        let a = Csr::from_dense(&reach, 0.0).unwrap();
        let two_hop = a.spgemm(OpKind::OrAnd, &a);
        let want = reference::mmo(OpKind::OrAnd, &reach, &reach, &Matrix::zeros(12, 12)).unwrap();
        assert_eq!(two_hop.to_dense(0.0), want);
    }

    #[test]
    #[should_panic(expected = "no sparse zero")]
    fn plus_norm_rejected() {
        let s = Csr::from_dense(&Matrix::zeros(2, 2), 0.0).unwrap();
        let _ = s.spgemm(OpKind::PlusNorm, &s);
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn shape_mismatch_panics() {
        let a = Csr::from_dense(&Matrix::zeros(2, 3), 0.0).unwrap();
        let b = Csr::from_dense(&Matrix::zeros(2, 2), 0.0).unwrap();
        let _ = a.spgemm(OpKind::PlusMul, &b);
    }

    #[test]
    fn product_count_bounds_work() {
        let a_d = gen::random_sparse_matrix(30, 0.9, 9);
        let a = Csr::from_dense(&a_d, 0.0).unwrap();
        let products = a.spgemm_products(&a);
        // Products ≈ n³ d² on average.
        let expect = 30.0f64.powi(3) * 0.01;
        assert!((products as f64) < expect * 5.0 + 50.0);
        // The realised output nnz can never exceed the products generated.
        let c = a.spgemm(OpKind::PlusMul, &a);
        assert!(c.nnz() as u64 <= products);
    }

    #[test]
    fn device_bytes_accounting() {
        let s = Csr::from_triplets(4, 4, [(0, 0, 1.0), (3, 3, 1.0)]);
        // 2 values + 2 col indices + 5 row pointers, 4 bytes each.
        assert_eq!(s.device_bytes(), (2 + 2 + 5) * 4);
        assert_eq!(s.density(), 2.0 / 16.0);
    }

    #[test]
    fn nan_zero_sentinel_is_rejected() {
        let d = Matrix::zeros(3, 3);
        assert_eq!(Csr::from_dense(&d, f32::NAN), Err(CsrError::NanZero));
        assert!(CsrError::NanZero.to_string().contains("NaN"));
        // ±∞ sentinels stay legal — path algebras depend on them.
        assert!(Csr::from_dense(&d, f32::INFINITY).is_ok());
        assert!(Csr::from_dense(&d, f32::NEG_INFINITY).is_ok());
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let d = gen::random_sparse_matrix(17, 0.7, 13);
        let s = Csr::from_dense(&d, 0.0).unwrap();
        let t = s.transpose();
        assert_eq!(t.to_dense(0.0), d.transposed());
        assert_eq!(t.nnz(), s.nnz());
        // Round trip: (Aᵀ)ᵀ = A, structurally identical.
        assert_eq!(t.transpose(), s);
        // Non-square shapes swap.
        let r = Csr::from_triplets(2, 5, [(0, 4, 1.0), (1, 0, 2.0)]);
        let rt = r.transpose();
        assert_eq!((rt.rows(), rt.cols()), (5, 2));
        assert_eq!(rt.to_dense(0.0)[(4, 0)], 1.0);
    }

    #[test]
    fn transposed_columns_stay_sorted() {
        let d = gen::random_sparse_matrix(12, 0.5, 29);
        let t = Csr::from_dense(&d, 0.0).unwrap().transpose();
        let (row_ptr, col_idx, values) = t.clone().into_raw();
        // from_raw re-validates every structural invariant.
        assert_eq!(Csr::from_raw(12, 12, row_ptr, col_idx, values).unwrap(), t);
    }

    #[test]
    fn spmv_matches_dense_single_column_mmo() {
        for op in [
            OpKind::PlusMul,
            OpKind::MinPlus,
            OpKind::MaxMul,
            OpKind::OrAnd,
        ] {
            let zero = op.no_edge_f32().unwrap();
            let d = Matrix::from_fn(9, 9, |r, c| {
                if (r * 9 + c) % 3 == 0 {
                    1.0 + (r + 2 * c) as f32
                } else {
                    zero
                }
            });
            let x: Vec<f32> = (0..9).map(|i| 0.5 + i as f32).collect();
            let xm = Matrix::from_fn(9, 1, |r, _| x[r]);
            let cid = Matrix::filled(9, 1, op.reduce_identity_f32());
            let want = reference::mmo(op, &d, &xm, &cid).unwrap();
            let got = Csr::from_dense(&d, zero).unwrap().spmv(op, &x);
            for i in 0..9 {
                assert_eq!(
                    got[i].to_bits(),
                    want[(i, 0)].to_bits(),
                    "{op} row {i}: {} vs {}",
                    got[i],
                    want[(i, 0)]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "vector length")]
    fn spmv_rejects_wrong_length() {
        let s = Csr::from_dense(&Matrix::zeros(2, 3), 0.0).unwrap();
        let _ = s.spmv(OpKind::PlusMul, &[1.0, 2.0]);
    }

    #[test]
    fn empty_rows_are_fine() {
        let s = Csr::from_triplets(3, 3, [(1, 1, 2.0)]);
        assert_eq!(s.row_entries(0).count(), 0);
        assert_eq!(s.row_entries(2).count(), 0);
        assert_eq!(s.row_entries(1).collect::<Vec<_>>(), vec![(1, 2.0)]);
    }
}
