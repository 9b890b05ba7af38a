//! Const-generic square tiles — the operand granularity of SIMD²
//! instructions.

use crate::{Matrix, ShapeError};

/// A square `N × N` tile of `f32` elements, row-major.
///
/// Tiles are the unit of work of a SIMD² instruction: `simd2.load` fills a
/// tile register from shared memory, `simd2.mmo` combines three tiles into
/// one, `simd2.store` writes a tile back. The ISA-visible shape is 16×16
/// ([`crate::ISA_TILE`]); the hardware model decomposes that into 4×4
/// ([`crate::UNIT_TILE`]) steps.
///
/// # Example
///
/// ```
/// use simd2_matrix::Tile;
///
/// let mut t = Tile::<4>::splat(0.0);
/// t.set(1, 2, 9.0);
/// assert_eq!(t.get(1, 2), 9.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tile<const N: usize> {
    data: [[f32; N]; N],
}

impl<const N: usize> Tile<N> {
    /// A tile with every element equal to `value`.
    pub fn splat(value: f32) -> Self {
        Self {
            data: [[value; N]; N],
        }
    }

    /// A tile built by evaluating `f(row, col)`.
    pub fn from_fn(mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut t = Self::splat(0.0);
        for r in 0..N {
            for c in 0..N {
                t.data[r][c] = f(r, c);
            }
        }
        t
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is `>= N`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        self.data[row][col]
    }

    /// Writes `value` at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is `>= N`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        self.data[row][col] = value;
    }

    /// Side length `N`.
    #[inline]
    pub fn side(&self) -> usize {
        N
    }

    /// Flat row-major view of the tile's `N * N` elements — the layout
    /// the vectorized tile kernels load rows from.
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        self.data.as_flattened()
    }

    /// Mutable flat row-major view of the tile's `N * N` elements.
    #[inline]
    pub fn as_flat_mut(&mut self) -> &mut [f32] {
        self.data.as_flattened_mut()
    }

    /// Iterator over `(row, col, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..N).flat_map(move |r| (0..N).map(move |c| (r, c, self.data[r][c])))
    }

    /// Extracts the tile whose top-left corner is `(row0, col0)` in `m`.
    /// Elements outside `m` (when the tile hangs over the edge) are filled
    /// with `fill` — the tiling layer passes the `⊕` identity or the
    /// no-edge encoding so padding never perturbs results. An interior
    /// tile is built from its rows alone, with no fill written first.
    pub fn load(m: &Matrix, row0: usize, col0: usize, fill: f32) -> Self {
        if row0 + N <= m.rows() && col0 + N <= m.cols() {
            let src = &m.as_slice()[row0 * m.cols() + col0..];
            let data = std::array::from_fn(|r| *full_row(&src[r * m.cols()..]));
            return Self { data };
        }
        let mut t = Self::splat(fill);
        load_rows(m, row0, col0, fill, &mut t.data);
        t
    }

    /// Writes the tile into `m` at `(row0, col0)`, clipping at the matrix
    /// boundary (the inverse of the padding applied by [`Tile::load`]).
    pub fn store(&self, m: &mut Matrix, row0: usize, col0: usize) {
        let cols = m.cols();
        self.store_rows(0, m.as_mut_slice(), cols, row0, col0);
    }

    /// Writes tile rows `skip..` into `dst`, a row-major buffer of whole
    /// `cols`-wide rows, starting at buffer row `row0` and column `col0`
    /// — one copy per row, of fixed width unless clipped at column
    /// `cols`, and clipped at the buffer's last row.
    pub(crate) fn store_rows(
        &self,
        skip: usize,
        dst: &mut [f32],
        cols: usize,
        row0: usize,
        col0: usize,
    ) {
        let width = cols.saturating_sub(col0).min(N);
        if width == 0 {
            return;
        }
        let rows = dst.chunks_exact_mut(cols).skip(row0);
        let pairs = self.data.iter().skip(skip).zip(rows);
        if width == N {
            for (src, row) in pairs {
                *full_row_mut(&mut row[col0..]) = *src;
            }
        } else {
            for (src, row) in pairs {
                row[col0..col0 + width].copy_from_slice(&src[..width]);
            }
        }
    }

    /// Converts the tile to an `N × N` [`Matrix`].
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_fn(N, N, |r, c| self.data[r][c])
    }

    /// Builds a tile from an `N × N` matrix.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] if `m` is not `N × N`.
    pub fn try_from_matrix(m: &Matrix) -> Result<Self, ShapeError> {
        if m.shape() != (N, N) {
            return Err(ShapeError::new("tile source", (N, N), m.shape()));
        }
        Ok(Self::from_fn(|r, c| m[(r, c)]))
    }

    /// Largest absolute element difference to `other` (equal infinities
    /// count as zero).
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        let mut worst = 0.0f32;
        for r in 0..N {
            for c in 0..N {
                let (a, b) = (self.data[r][c], other.data[r][c]);
                if a != b {
                    worst = worst.max((a - b).abs());
                }
            }
        }
        worst
    }
}

/// The first `N` elements of `row`, as an array: a copy through it is
/// one fixed-size move, where a slice copy of a length known only at run
/// time is a `memcpy` call per row.
fn full_row<const N: usize>(row: &[f32]) -> &[f32; N] {
    row.first_chunk().expect("a full-width tile row")
}

/// [`full_row`], mutably.
fn full_row_mut<const N: usize>(row: &mut [f32]) -> &mut [f32; N] {
    row.first_chunk_mut().expect("a full-width tile row")
}

/// Copies the block of `m` whose top-left corner is `(row0, col0)` into
/// the `N`-wide rows of `dst` — fixed-size row copies where the block
/// is `N` wide, clipped row-slice copies at the right edge — filling
/// whatever hangs over the matrix edge with `fill`: the inner loop of
/// operand packing.
pub(crate) fn load_rows<const N: usize>(
    m: &Matrix,
    row0: usize,
    col0: usize,
    fill: f32,
    dst: &mut [[f32; N]],
) {
    let width = m.cols().saturating_sub(col0).min(N);
    let rows = if width == 0 {
        0
    } else {
        m.rows().saturating_sub(row0).min(dst.len())
    };
    let (inside, outside) = dst.split_at_mut(rows);
    if rows > 0 {
        let src = m.as_slice()[row0 * m.cols()..].chunks(m.cols());
        if width == N {
            for (row, src) in inside.iter_mut().zip(src) {
                *row = *full_row(&src[col0..]);
            }
        } else {
            for (row, src) in inside.iter_mut().zip(src) {
                row[..width].copy_from_slice(&src[col0..col0 + width]);
                row[width..].fill(fill);
            }
        }
    }
    outside.fill([fill; N]);
}

impl<const N: usize> Default for Tile<N> {
    fn default() -> Self {
        Self::splat(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_and_from_fn() {
        let t = Tile::<3>::splat(2.5);
        assert!(t.iter().all(|(_, _, v)| v == 2.5));
        let u = Tile::<3>::from_fn(|r, c| (r * 3 + c) as f32);
        assert_eq!(u.get(2, 1), 7.0);
        assert_eq!(u.side(), 3);
    }

    #[test]
    fn load_with_padding() {
        let m = Matrix::from_fn(5, 5, |r, c| (r * 5 + c) as f32);
        // Tile hangs over the right/bottom edges.
        let t = Tile::<4>::load(&m, 3, 3, -1.0);
        assert_eq!(t.get(0, 0), m[(3, 3)]);
        assert_eq!(t.get(1, 1), m[(4, 4)]);
        assert_eq!(t.get(2, 0), -1.0, "row 5 padded");
        assert_eq!(t.get(0, 2), -1.0, "col 5 padded");
    }

    #[test]
    fn store_clips_at_boundary() {
        let mut m = Matrix::zeros(5, 5);
        let t = Tile::<4>::splat(9.0);
        t.store(&mut m, 3, 3);
        assert_eq!(m[(4, 4)], 9.0);
        assert_eq!(m[(3, 3)], 9.0);
        // Nothing outside was touched (and no panic occurred).
        assert_eq!(m[(2, 2)], 0.0);
    }

    #[test]
    fn load_store_roundtrip_interior() {
        let m = Matrix::from_fn(8, 8, |r, c| (r * 8 + c) as f32);
        let t = Tile::<4>::load(&m, 2, 2, f32::NAN);
        let mut out = Matrix::zeros(8, 8);
        t.store(&mut out, 2, 2);
        for r in 2..6 {
            for c in 2..6 {
                assert_eq!(out[(r, c)], m[(r, c)]);
            }
        }
    }

    #[test]
    fn flat_views_are_row_major() {
        let mut t = Tile::<3>::from_fn(|r, c| (r * 3 + c) as f32);
        assert_eq!(t.as_flat(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        t.as_flat_mut()[5] = 50.0;
        assert_eq!(t.get(1, 2), 50.0);
    }

    #[test]
    fn matrix_conversions() {
        let t = Tile::<4>::from_fn(|r, c| (r + c) as f32);
        let m = t.to_matrix();
        assert_eq!(Tile::<4>::try_from_matrix(&m).unwrap(), t);
        let wrong = Matrix::zeros(3, 4);
        assert!(Tile::<4>::try_from_matrix(&wrong).is_err());
    }

    #[test]
    fn diff_ignores_matching_infinities() {
        let mut a = Tile::<2>::splat(f32::INFINITY);
        let b = Tile::<2>::splat(f32::INFINITY);
        assert_eq!(a.max_abs_diff(&b), 0.0);
        a.set(0, 0, 1.0);
        assert_eq!(a.max_abs_diff(&b), f32::INFINITY);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Tile::<4>::default(), Tile::<4>::splat(0.0));
    }
}
