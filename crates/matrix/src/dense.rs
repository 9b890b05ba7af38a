//! Dense row-major matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

/// Error returned when two matrices' shapes are incompatible for an
/// operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShapeError {
    expected: (usize, usize),
    got: (usize, usize),
    context: &'static str,
}

impl ShapeError {
    /// Creates a shape error with a short context string (the operand name).
    pub fn new(context: &'static str, expected: (usize, usize), got: (usize, usize)) -> Self {
        Self {
            expected,
            got,
            context,
        }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shape mismatch for {}: expected {}x{}, got {}x{}",
            self.context, self.expected.0, self.expected.1, self.got.0, self.got.1
        )
    }
}

impl std::error::Error for ShapeError {}

/// A dense, row-major matrix of `f32` elements.
///
/// This is the host-side container all SIMD² kernels read tiles from and
/// write tiles into. Storage is a contiguous `rows × cols` buffer; the
/// leading dimension equals `cols` (sub-views carry their own geometry via
/// the [`crate::tiling`] helpers instead of strided views).
///
/// # Example
///
/// ```
/// use simd2_matrix::Matrix;
///
/// let mut m = Matrix::filled(2, 3, 0.0);
/// m[(0, 1)] = 5.0;
/// assert_eq!(m[(0, 1)], 5.0);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from nested row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
        }
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates an `n × n` identity-like matrix with `diag` on the diagonal
    /// and `off` elsewhere (semiring identity matrices use the `⊗` identity
    /// on the diagonal and the `⊕` identity off it).
    pub fn diagonal(n: usize, diag: f32, off: f32) -> Self {
        Self::from_fn(n, n, |r, c| if r == c { diag } else { off })
    }

    /// Creates a matrix taking ownership of a row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length must equal rows*cols"
        );
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the row-major backing storage.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the row-major backing storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning the backing storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Bounds-checked element access.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Option<f32> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// One full row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    #[inline]
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// One full row as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Sets every element to `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.fill(value);
    }

    /// The transposed matrix.
    pub fn transposed(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Largest absolute element difference to `other`.
    ///
    /// Two equal infinities contribute zero (relevant for path matrices
    /// where unreachable pairs stay `+∞`).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> Result<f32, ShapeError> {
        if self.shape() != other.shape() {
            return Err(ShapeError::new(
                "max_abs_diff operand",
                self.shape(),
                other.shape(),
            ));
        }
        let mut worst = 0.0f32;
        for (a, b) in self.data.iter().zip(&other.data) {
            if a == b {
                continue;
            }
            let d = (a - b).abs();
            worst = worst.max(d);
        }
        Ok(worst)
    }

    /// Whether every element differs from `other` by at most `tol`
    /// (infinities must match exactly).
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when the shapes differ.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> Result<bool, ShapeError> {
        Ok(self.max_abs_diff(other)? <= tol)
    }

    /// Whether `other` has the same shape and every element the same bit
    /// pattern: `-0.0` differs from `0.0`, and a NaN equals a NaN with
    /// the same payload. What a fixpoint or a replay is checked with
    /// where `==`'s float semantics would hide a difference.
    pub fn bits_eq(&self, other: &Matrix) -> bool {
        self.shape() == other.shape()
            && all_pairs(&self.data, &other.data, |x, y| x.to_bits() == y.to_bits())
    }

    /// Fraction of elements that are *not* equal to `zero_value` — the
    /// density used by the sparsity experiments (Figs 13–14).
    pub fn density(&self, zero_value: f32) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let nnz = self.data.iter().filter(|&&x| x != zero_value).count();
        nnz as f64 / self.data.len() as f64
    }
}

/// Elements [`all_pairs`] compares before it may stop.
const EQ_CHUNK: usize = 64;

/// Whether `same` holds for every pair of elements of `x` and `y` (of
/// equal length). Each chunk of [`EQ_CHUNK`] pairs is folded without an
/// early exit, so the compiler vectorises it; only the check between
/// chunks branches.
fn all_pairs(x: &[f32], y: &[f32], same: impl Fn(f32, f32) -> bool) -> bool {
    let (xs, x_tail) = x.as_chunks::<EQ_CHUNK>();
    let (ys, y_tail) = y.as_chunks::<EQ_CHUNK>();
    let chunk = |a: &[f32], b: &[f32]| a.iter().zip(b).fold(true, |all, (&p, &q)| all & same(p, q));
    xs.iter().zip(ys).all(|(a, b)| chunk(a, b)) && chunk(x_tail, y_tail)
}

/// Element-wise `==` over equal shapes, as a derived impl would be (so
/// `±0` are equal and a NaN equals nothing), but vectorised a chunk at a
/// time instead of branching on every element.
impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        self.shape() == other.shape() && all_pairs(&self.data, &other.data, |x, y| x == y)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (row, col): (usize, usize)) -> &f32 {
        debug_assert!(row < self.rows && col < self.cols);
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f32 {
        debug_assert!(row < self.rows && col < self.cols);
        &mut self.data[row * self.cols + col]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for r in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(8);
            for c in 0..show_cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:8.3}", self[(r, c)])?;
            }
            if self.cols > show_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        let a = Matrix::zeros(3, 4);
        let b = Matrix::filled(3, 4, 0.0);
        let c = Matrix::from_fn(3, 4, |_, _| 0.0);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn from_rows_layout() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(2, 1)], 6.0);
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }

    #[test]
    fn diagonal_matrix() {
        let m = Matrix::diagonal(3, 1.0, f32::INFINITY);
        assert_eq!(m[(1, 1)], 1.0);
        assert_eq!(m[(0, 2)], f32::INFINITY);
        assert!(m.is_square());
    }

    #[test]
    fn index_roundtrip() {
        let mut m = Matrix::zeros(4, 5);
        m[(3, 4)] = 7.5;
        assert_eq!(m[(3, 4)], 7.5);
        assert_eq!(m.get(3, 4), Some(7.5));
        assert_eq!(m.get(4, 0), None);
        assert_eq!(m.get(0, 5), None);
    }

    #[test]
    fn rows_are_contiguous() {
        let m = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(m.row(1), &[3.0, 4.0, 5.0]);
        let mut m = m;
        m.row_mut(1)[0] = -1.0;
        assert_eq!(m[(1, 0)], -1.0);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(2, 5, |r, c| (r * 10 + c) as f32);
        let t = m.transposed();
        assert_eq!(t.shape(), (5, 2));
        assert_eq!(t[(4, 1)], m[(1, 4)]);
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn max_abs_diff_handles_infinities() {
        let a = Matrix::from_rows(&[&[f32::INFINITY, 1.0]]);
        let b = Matrix::from_rows(&[&[f32::INFINITY, 1.5]]);
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.5);
        assert!(a.approx_eq(&b, 0.5).unwrap());
        assert!(!a.approx_eq(&b, 0.4).unwrap());
    }

    #[test]
    fn max_abs_diff_shape_error() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        let err = a.max_abs_diff(&b).unwrap_err();
        assert!(err.to_string().contains("2x3"));
    }

    #[test]
    fn mismatched_infinities_are_infinite_diff() {
        let a = Matrix::from_rows(&[&[f32::INFINITY]]);
        let b = Matrix::from_rows(&[&[0.0]]);
        assert_eq!(a.max_abs_diff(&b).unwrap(), f32::INFINITY);
    }

    #[test]
    fn density_counts_nonzeros() {
        let m = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 2.0]]);
        assert_eq!(m.density(0.0), 0.5);
        let inf = Matrix::from_rows(&[&[f32::INFINITY, 3.0]]);
        assert_eq!(inf.density(f32::INFINITY), 0.5);
    }

    #[test]
    fn debug_output_truncates() {
        let m = Matrix::zeros(20, 20);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 20x20"));
        assert!(s.contains('…'));
    }

    #[test]
    fn empty_matrix() {
        let m = Matrix::zeros(0, 0);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.density(0.0), 0.0);
    }

    #[test]
    fn equality_is_elementwise_float_and_bits_eq_is_bitwise() {
        // Sizes around the comparison chunk, with the one difference in
        // a whole chunk, at a chunk's last element and in the tail.
        for (rows, cols) in [(1, 1), (8, 8), (3, 43), (256, 256)] {
            let m = Matrix::from_fn(rows, cols, |r, c| (r * cols + c) as f32 - 7.5);
            let len = rows * cols;
            assert!(m == m.clone() && m.bits_eq(&m.clone()));
            for at in [
                0,
                len / 2,
                (len / EQ_CHUNK * EQ_CHUNK).saturating_sub(1),
                len - 1,
            ] {
                let mut other = m.clone();
                other.as_mut_slice()[at] += 1.0;
                assert!(m != other && !m.bits_eq(&other), "{rows}x{cols} at {at}");
                // `±0` are equal, but not the same bits.
                let (mut pos, mut neg) = (m.clone(), m.clone());
                pos.as_mut_slice()[at] = 0.0;
                neg.as_mut_slice()[at] = -0.0;
                assert!(pos == neg && !pos.bits_eq(&neg), "{rows}x{cols} at {at}");
                // A NaN equals nothing, but has its own bits.
                let mut nan = m.clone();
                nan.as_mut_slice()[at] = f32::NAN;
                assert!(nan != nan.clone() && nan.bits_eq(&nan.clone()));
                let mut payload = nan.clone();
                payload.as_mut_slice()[at] = f32::from_bits(f32::NAN.to_bits() | 1);
                assert!(!nan.bits_eq(&payload), "{rows}x{cols} at {at}");
            }
        }
        // The same elements in another shape are not equal.
        let (wide, tall) = (Matrix::zeros(2, 3), Matrix::zeros(3, 2));
        assert!(wide != tall && !wide.bits_eq(&tall));
        assert!(Matrix::zeros(0, 3) != Matrix::zeros(0, 5));
    }
}
