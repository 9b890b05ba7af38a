//! Padding and tile-grid arithmetic.
//!
//! The high-level SIMD² API accepts arbitrary matrix shapes and implicitly
//! handles "tiling/partitioning of datasets" (paper §4). These helpers do
//! that partitioning: rounding shapes up to the tile size, iterating the
//! tile grid of an `M×N×K` operation, and loading/storing boundary tiles
//! with algebra-appropriate padding so that ragged edges never change
//! results.

use simd2_semiring::OpKind;

use crate::{Matrix, Tile};

/// Rounds `x` up to the next multiple of `tile` (`tile > 0`).
#[inline]
pub fn round_up(x: usize, tile: usize) -> usize {
    debug_assert!(tile > 0);
    x.div_ceil(tile) * tile
}

/// Number of tiles covering `x` elements.
#[inline]
pub fn tiles_for(x: usize, tile: usize) -> usize {
    x.div_ceil(tile)
}

/// Padding values that make out-of-range tile elements inert for a given
/// operation: a padded `k` step contributes `a ⊗ b`, which must be the
/// `⊕` identity (or, for the `+` ops, `+0.0`, which a seeded accumulator
/// absorbs exactly).
///
/// * `A`/`B` operand padding uses the *no-edge* (⊗-annihilating) encoding
///   on both sides — except for max-mul, whose no-edge value is `0.0` and
///   `0 × 0 = +0.0` is *not* the identity of `max`: it would lift an
///   all-negative reduction to zero. Max-mul pads `A` with `1.0` and `B`
///   with `−∞`, whose product is.
/// * `C`/`D` accumulator padding uses the `⊕` identity.
///
/// Plus-norm has no annihilator; its padding strategy is instead to pad
/// *both* operands with equal values so `(a−b)² = 0` contributes nothing to
/// the `+` reduction, which `a` and `b` encode as `0.0`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PadValues {
    /// Fill value for `A` operand tiles.
    pub a: f32,
    /// Fill value for `B` operand tiles.
    pub b: f32,
    /// Fill value for `C`/`D` accumulator tiles.
    pub accumulator: f32,
}

/// Returns the padding scheme for `op` (see [`PadValues`]).
pub fn pad_values(op: OpKind) -> PadValues {
    let (a, b) = match op {
        OpKind::MaxMul => (1.0, f32::NEG_INFINITY),
        _ => {
            let no_edge = op.no_edge_f32().unwrap_or(0.0);
            (no_edge, no_edge)
        }
    };
    PadValues {
        a,
        b,
        accumulator: op.reduce_identity_f32(),
    }
}

/// Geometry of a tiled `M×N×K` matrix-matrix operation.
///
/// # Example
///
/// ```
/// use simd2_matrix::tiling::TileGrid;
///
/// let g = TileGrid::new(40, 40, 40, 16);
/// assert_eq!((g.m_tiles, g.n_tiles, g.k_tiles), (3, 3, 3));
/// assert_eq!(g.tile_ops(), 27);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileGrid {
    /// Rows of the output, in elements.
    pub m: usize,
    /// Columns of the output, in elements.
    pub n: usize,
    /// Inner (reduction) dimension, in elements.
    pub k: usize,
    /// Tile side length.
    pub tile: usize,
    /// Tiles along `m`.
    pub m_tiles: usize,
    /// Tiles along `n`.
    pub n_tiles: usize,
    /// Tiles along `k`.
    pub k_tiles: usize,
}

impl TileGrid {
    /// Builds the grid for an `m×n` output with inner dimension `k`.
    ///
    /// # Panics
    ///
    /// Panics if `tile == 0`.
    pub fn new(m: usize, n: usize, k: usize, tile: usize) -> Self {
        assert!(tile > 0, "tile side must be positive");
        Self {
            m,
            n,
            k,
            tile,
            m_tiles: tiles_for(m, tile),
            n_tiles: tiles_for(n, tile),
            k_tiles: tiles_for(k, tile),
        }
    }

    /// Total number of tile-level `mmo` operations (`m_tiles × n_tiles ×
    /// k_tiles`) — the quantity the performance model charges for.
    pub fn tile_ops(&self) -> usize {
        self.m_tiles * self.n_tiles * self.k_tiles
    }

    /// Number of output tiles.
    pub fn output_tiles(&self) -> usize {
        self.m_tiles * self.n_tiles
    }

    /// Iterator over output tile coordinates `(ti, tj)` in row-major order.
    pub fn output_coords(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let n_tiles = self.n_tiles;
        (0..self.m_tiles).flat_map(move |ti| (0..n_tiles).map(move |tj| (ti, tj)))
    }

    /// Partitions the output tile rows into at most `parts` contiguous,
    /// balanced panels (each a `Range` of tile-row indices `ti`).
    ///
    /// Panels are the unit of worker parallelism: output tiles in
    /// different panels are disjoint, and a panel's element rows
    /// `ti·tile .. min(m, (ti_end)·tile)` form one contiguous row-major
    /// slab of the output matrix, so workers can own non-overlapping
    /// mutable slices. Earlier panels get the remainder tile rows, so
    /// sizes differ by at most one.
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0`.
    pub fn row_panels(&self, parts: usize) -> Vec<std::ops::Range<usize>> {
        assert!(parts > 0, "panel count must be positive");
        let parts = parts.min(self.m_tiles.max(1));
        let base = self.m_tiles / parts;
        let extra = self.m_tiles % parts;
        let mut panels = Vec::with_capacity(parts);
        let mut start = 0;
        for p in 0..parts {
            let len = base + usize::from(p < extra);
            if len == 0 {
                break;
            }
            panels.push(start..start + len);
            start += len;
        }
        panels
    }

    /// Element rows `row0..row1` of the output covered by a panel of
    /// tile rows, clipped to the true (unpadded) matrix height.
    pub fn panel_rows(&self, panel: &std::ops::Range<usize>) -> std::ops::Range<usize> {
        (panel.start * self.tile).min(self.m)..(panel.end * self.tile).min(self.m)
    }
}

/// Loads the `A` operand tile at grid coordinate `(ti, tk)`.
pub fn load_a_tile<const T: usize>(op: OpKind, a: &Matrix, ti: usize, tk: usize) -> Tile<T> {
    Tile::load(a, ti * T, tk * T, pad_values(op).a)
}

/// Loads the `B` operand tile at grid coordinate `(tk, tj)`.
pub fn load_b_tile<const T: usize>(op: OpKind, b: &Matrix, tk: usize, tj: usize) -> Tile<T> {
    Tile::load(b, tk * T, tj * T, pad_values(op).b)
}

/// Loads the `C` accumulator tile at grid coordinate `(ti, tj)`.
pub fn load_c_tile<const T: usize>(op: OpKind, c: &Matrix, ti: usize, tj: usize) -> Tile<T> {
    Tile::load(c, ti * T, tj * T, pad_values(op).accumulator)
}

/// Stores an output tile back at grid coordinate `(ti, tj)`, clipping at
/// the true (unpadded) matrix boundary.
pub fn store_d_tile<const T: usize>(d: &mut Matrix, tile: &Tile<T>, ti: usize, tj: usize) {
    tile.store(d, ti * T, tj * T);
}

/// Stores an output tile into a *panel slab*: a contiguous row-major
/// slice covering element rows `row0..row0 + slab.len()/cols` of the
/// output matrix (see [`TileGrid::panel_rows`]). Clips at the slab's row
/// range and at the matrix column boundary, mirroring [`store_d_tile`].
///
/// # Panics
///
/// Panics if `cols == 0` while the slab is non-empty, or if `slab` is
/// not a whole number of rows.
pub fn store_d_tile_in_panel<const T: usize>(
    slab: &mut [f32],
    row0: usize,
    cols: usize,
    tile: &Tile<T>,
    ti: usize,
    tj: usize,
) {
    if slab.is_empty() {
        return;
    }
    assert!(
        cols > 0 && slab.len().is_multiple_of(cols),
        "slab must be whole rows"
    );
    // Tile rows above the slab are skipped; `store_rows` clips the rest
    // at the slab's last row and at the matrix column boundary.
    let top = ti * T;
    tile.store_rows(
        row0.saturating_sub(top),
        slab,
        cols,
        top.saturating_sub(row0),
        tj * T,
    );
}

/// Copies the tile of `m` at grid coordinate `(tr, tc)` into `dst` as a
/// flat row-major `T × T` tile, filling whatever hangs over the matrix
/// edge with `fill` — [`Tile::load`] into caller-owned storage, the
/// building block of packed (tile-major) operand panels.
///
/// # Panics
///
/// Panics if `dst` is not exactly `T * T` long.
pub fn pack_tile<const T: usize>(m: &Matrix, tr: usize, tc: usize, fill: f32, dst: &mut [f32]) {
    assert_eq!(dst.len(), T * T, "packed tile is not {T}×{T}");
    let (rows, _) = dst.as_chunks_mut::<T>();
    crate::tile::load_rows(m, tr * T, tc * T, fill, rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use simd2_semiring::ALL_OPS;

    #[test]
    fn round_up_and_tiles_for() {
        assert_eq!(round_up(0, 16), 0);
        assert_eq!(round_up(1, 16), 16);
        assert_eq!(round_up(16, 16), 16);
        assert_eq!(round_up(17, 16), 32);
        assert_eq!(tiles_for(0, 16), 0);
        assert_eq!(tiles_for(33, 16), 3);
    }

    #[test]
    fn grid_geometry() {
        let g = TileGrid::new(100, 50, 70, 16);
        assert_eq!(g.m_tiles, 7);
        assert_eq!(g.n_tiles, 4);
        assert_eq!(g.k_tiles, 5);
        assert_eq!(g.tile_ops(), 140);
        assert_eq!(g.output_tiles(), 28);
        assert_eq!(g.output_coords().count(), 28);
        assert_eq!(g.output_coords().next(), Some((0, 0)));
        assert_eq!(g.output_coords().last(), Some((6, 3)));
    }

    #[test]
    #[should_panic(expected = "tile side")]
    fn zero_tile_panics() {
        let _ = TileGrid::new(4, 4, 4, 0);
    }

    #[test]
    fn pad_values_are_inert_per_algebra() {
        for op in ALL_OPS {
            let pv = pad_values(op);
            // A padded `k` step must leave every accumulator value as it
            // is — negative ones included, which max-mul's `0 × 0` lifted.
            for acc in [-5.0, 0.0, 0.5, 3.0, op.reduce_identity_f32()] {
                let acc = op.reduce_f32(acc, op.reduce_identity_f32());
                let got = op.fma_f32(acc, pv.a, pv.b);
                assert_eq!(got.to_bits(), acc.to_bits(), "{op} on {acc}");
            }
            // The accumulator padding is the ⊕ identity.
            assert_eq!(pv.accumulator, op.reduce_identity_f32(), "{op}");
        }
    }

    #[test]
    fn boundary_tiles_are_padded() {
        use simd2_semiring::OpKind;
        let a = Matrix::from_fn(5, 5, |r, c| (r * 5 + c) as f32 + 1.0);
        let t: Tile<4> = load_a_tile(OpKind::MinPlus, &a, 1, 1);
        // grid (1,1) starts at (4,4); only element (0,0) is in-range.
        assert_eq!(t.get(0, 0), a[(4, 4)]);
        assert_eq!(t.get(0, 1), f32::INFINITY);
        assert_eq!(t.get(3, 3), f32::INFINITY);
        let c: Tile<4> = load_c_tile(OpKind::MinPlus, &a, 1, 1);
        assert_eq!(c.get(3, 3), f32::INFINITY);
    }

    #[test]
    fn row_panels_cover_exactly_once_and_balance() {
        for m in [1usize, 15, 16, 17, 100, 160] {
            let g = TileGrid::new(m, 32, 32, 16);
            for parts in 1..=8usize {
                let panels = g.row_panels(parts);
                assert!(panels.len() <= parts);
                assert!(!panels.is_empty());
                // Contiguous, disjoint, complete cover of 0..m_tiles.
                let mut next = 0;
                for p in &panels {
                    assert_eq!(p.start, next, "m={m} parts={parts}");
                    assert!(p.end > p.start);
                    next = p.end;
                }
                assert_eq!(next, g.m_tiles);
                // Balanced to within one tile row.
                let lens: Vec<usize> = panels.iter().map(|p| p.len()).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "m={m} parts={parts}: {lens:?}");
            }
        }
    }

    #[test]
    fn panel_rows_clip_to_matrix_height() {
        let g = TileGrid::new(20, 16, 16, 16); // 2 tile rows, 20 real rows
        let panels = g.row_panels(2);
        assert_eq!(g.panel_rows(&panels[0]), 0..16);
        assert_eq!(g.panel_rows(&panels[1]), 16..20);
    }

    #[test]
    #[should_panic(expected = "panel count")]
    fn zero_panels_panics() {
        let _ = TileGrid::new(16, 16, 16, 16).row_panels(0);
    }

    #[test]
    fn panel_store_matches_matrix_store() {
        // Storing through the slab path must write exactly the bytes the
        // whole-matrix path writes, including ragged edges.
        let (m, n) = (21, 19);
        let tile = Tile::<4>::from_fn(|r, c| (r * 4 + c) as f32 + 1.0);
        let g = TileGrid::new(m, n, 8, 4);
        for parts in [1usize, 2, 3] {
            let mut via_matrix = Matrix::zeros(m, n);
            let mut via_slabs = Matrix::zeros(m, n);
            for (ti, tj) in g.output_coords() {
                store_d_tile(&mut via_matrix, &tile, ti, tj);
            }
            for panel in g.row_panels(parts) {
                let rows = g.panel_rows(&panel);
                let slab_range = rows.start * n..rows.end * n;
                let slab = &mut via_slabs.as_mut_slice()[slab_range];
                for ti in panel.clone() {
                    for tj in 0..g.n_tiles {
                        store_d_tile_in_panel(slab, rows.start, n, &tile, ti, tj);
                    }
                }
            }
            assert_eq!(via_matrix, via_slabs, "parts={parts}");
        }
    }

    #[test]
    fn panel_store_skips_tile_rows_above_the_slab() {
        // A slab that starts mid-tile receives only the tile rows it
        // covers, as the element-wise store did.
        let tile = Tile::<4>::from_fn(|r, c| (r * 4 + c) as f32 + 1.0);
        let mut slab = vec![0.0f32; 3 * 6]; // element rows 2..5 of a 6-wide output
        store_d_tile_in_panel(&mut slab, 2, 6, &tile, 0, 1);
        let want: Vec<f32> = (0..3 * 6)
            .map(|i| {
                let (gr, gc) = (2 + i / 6, i % 6);
                if gr < 4 && (4..6).contains(&gc) {
                    tile.get(gr, gc - 4)
                } else {
                    0.0
                }
            })
            .collect();
        assert_eq!(slab, want);
    }

    #[test]
    fn pack_tile_matches_tile_load_on_every_edge() {
        let m = Matrix::from_fn(6, 5, |r, c| (r * 5 + c) as f32 + 1.0);
        // Interior, right edge, bottom edge, corner, and wholly outside.
        for (tr, tc) in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (0, 2), (3, 3)] {
            let mut packed = [f32::NAN; 16];
            pack_tile::<4>(&m, tr, tc, -7.0, &mut packed);
            let want = Tile::<4>::load(&m, tr * 4, tc * 4, -7.0);
            assert_eq!(packed, want.as_flat(), "tile ({tr},{tc})");
        }
        let want = Tile::<4>::from_fn(|r, c| m.get(4 + r, 4 + c).unwrap_or(-7.0));
        assert_eq!(Tile::<4>::load(&m, 4, 4, -7.0), want);
        // ISA tiles over widths and heights short of, at and past one
        // and two tiles: interior tiles copy whole rows, edge tiles clip
        // and pad — and a stored tile writes back what was loaded,
        // clipped the same way.
        for side in [1, 15, 16, 17, 31, 32, 33] {
            for (rows, cols) in [(side, 33), (33, side), (side, side)] {
                let m = Matrix::from_fn(rows, cols, |r, c| (r * cols + c) as f32 + 0.5);
                for (tr, tc) in (0..3).flat_map(|tr| (0..3).map(move |tc| (tr, tc))) {
                    let (row0, col0) = (tr * 16, tc * 16);
                    let ctx = format!("{rows}x{cols} tile ({tr},{tc})");
                    let want =
                        Tile::<16>::from_fn(|r, c| m.get(row0 + r, col0 + c).unwrap_or(-7.0));
                    let loaded = Tile::<16>::load(&m, row0, col0, -7.0);
                    assert_eq!(loaded, want, "{ctx}");
                    let mut packed = [f32::NAN; 256];
                    pack_tile::<16>(&m, tr, tc, -7.0, &mut packed);
                    assert_eq!(packed, want.as_flat(), "{ctx}");
                    let mut stored = Matrix::filled(rows, cols, -1.0);
                    loaded.store(&mut stored, row0, col0);
                    let back = Matrix::from_fn(rows, cols, |r, c| {
                        let inside =
                            (row0..row0 + 16).contains(&r) && (col0..col0 + 16).contains(&c);
                        if inside {
                            m[(r, c)]
                        } else {
                            -1.0
                        }
                    });
                    assert_eq!(stored, back, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn store_clips() {
        let mut d = Matrix::zeros(5, 5);
        let t = Tile::<4>::splat(2.0);
        store_d_tile(&mut d, &t, 1, 1);
        assert_eq!(d[(4, 4)], 2.0);
        assert_eq!(d.as_slice().iter().filter(|&&x| x == 2.0).count(), 1);
    }
}
