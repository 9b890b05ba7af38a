//! Operand generators shared by the bit-identity suites: this crate's
//! `proptest_rows.rs` and the umbrella's `tests/fold_order.rs` (which
//! includes this file by path — it is the one suite that sees every
//! backend), with the block-sparse operands whose all-annihilator tiles
//! the tile chain skips.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use simd2_matrix::Matrix;

/// A `rows × cols` operand: about `density` of the entries kept (in
/// `0.5..9.5`, one in eight replaced by a value from `pool` — see
/// [`specials`] and `hostile.rs` beside this file), the rest at `zero`.
pub(crate) fn operand(
    pool: &[f32],
    rows: usize,
    cols: usize,
    zero: f32,
    density: f64,
    seed: u64,
) -> Matrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| {
        if !rng.gen_bool(density) {
            zero
        } else if !pool.is_empty() && rng.gen_bool(0.125) {
            pool[rng.gen_range(0..pool.len())]
        } else {
            rng.gen_range(0.5..9.5)
        }
    })
}

/// What the declaration and fold-order differentials sprinkle over
/// otherwise in-domain operands (positive and finite), pool by pool:
/// nothing; signed values and `±0.0`; `±∞` and a value that is finite in
/// `f32` but rounds to `∞` in fp16; NaNs of both signs. All but the first
/// put a plus-mul, min-mul or max-mul operand outside the domain on which
/// skipping its partner's annihilator entries is exact.
pub(crate) fn specials(pool: usize) -> &'static [f32] {
    const NANS: [f32; 2] = [f32::from_bits(0x7FC0_1234), f32::from_bits(0xFFA0_0001)];
    match pool {
        0 => &[],
        1 => &[-0.0, 0.0, -1.5, -0.25],
        2 => &[f32::INFINITY, f32::NEG_INFINITY, 65520.0],
        _ => &NANS,
    }
}

// `Blocks` and `block_sparse` are `tests/fold_order.rs`' alone; the other
// suites that include this file leave them unused.

/// Which whole tiles of the engine's 16×16 grid [`block_sparse`] blanks.
#[allow(dead_code)]
#[derive(Clone, Copy, Debug)]
pub(crate) enum Blocks {
    /// Each tile, with probability one half.
    Random,
    /// Every tile below the tile diagonal (tile row > tile column): the
    /// pattern of a DAG's adjacency with vertices in topological order,
    /// and of every closure iterate of it.
    UpperTriangular,
}

/// `m` with whole tiles of the engine's 16×16 grid — ragged at the
/// bottom and right edges — set to `zero` as `blocks` says; the other
/// tiles keep what they hold, specials and signs included.
#[allow(dead_code)]
pub(crate) fn block_sparse(mut m: Matrix, zero: f32, blocks: Blocks, seed: u64) -> Matrix {
    const TILE: usize = 16;
    let mut rng = SmallRng::seed_from_u64(seed);
    for ti in 0..m.rows().div_ceil(TILE) {
        for tj in 0..m.cols().div_ceil(TILE) {
            let blank = match blocks {
                Blocks::Random => rng.gen_bool(0.5),
                Blocks::UpperTriangular => ti > tj,
            };
            if !blank {
                continue;
            }
            let cols = tj * TILE..m.cols().min((tj + 1) * TILE);
            for r in ti * TILE..m.rows().min((ti + 1) * TILE) {
                m.row_mut(r)[cols.clone()].fill(zero);
            }
        }
    }
    m
}
