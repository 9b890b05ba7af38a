//! The tile chain, forced: a unit the engine must walk tile by tile.
//! The bit-identity suites hold every step the engine picks a walk for
//! to it (`proptest_rows.rs`, `tests/fold_order.rs` and
//! `crates/apps/tests/streaming_walks.rs` include this file by path).

use simd2_matrix::{Tile, ISA_TILE};
use simd2_mxu::{MmoUnit, PrecisionMode, Simd2Unit, TileCoord};
use simd2_semiring::simd::KernelIsa;
use simd2_semiring::OpKind;

/// A [`Simd2Unit`] that is not coordinate-free: an engine over it never
/// row-walks a step, and folds every tile pair of its chains — on `f32`
/// lanes, through the unit's own chain kernel.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ChainOnly(pub(crate) Simd2Unit);

impl MmoUnit for ChainOnly {
    fn quantize_packed(&self, xs: &mut [f32]) {
        self.0.quantize_packed(xs);
    }

    fn execute_packed_at(
        &mut self,
        coord: TileCoord,
        op: OpKind,
        a: &[f32],
        b: &[f32],
        acc: &mut Tile<ISA_TILE>,
    ) {
        self.0.execute_packed_at(coord, op, a, b, acc);
    }

    fn execute_chain(
        &mut self,
        tile: (usize, usize),
        op: OpKind,
        a: &[f32],
        b: &[f32],
        acc: &mut Tile<ISA_TILE>,
    ) {
        MmoUnit::execute_chain(&mut self.0, tile, op, a, b, acc);
    }

    fn kernel_isa(&self) -> KernelIsa {
        self.0.kernel_isa()
    }

    fn precision(&self) -> PrecisionMode {
        self.0.precision()
    }

    fn shard(&self) -> Option<Self> {
        Some(*self)
    }
}
