//! Portable scalar tile kernel — the bit-identity oracle.
//!
//! This is the flat-slice form of the original `[f32; N]` tile loop: per
//! output element, combine the `k` operand pairs into a stack buffer,
//! tree-reduce it in place, and fold the accumulator element in last.
//! Every vector leaf must reproduce this function's results bit for bit;
//! the vector leaves also call [`mmo_columns`] directly for the tail
//! columns that do not fill a whole vector.

use crate::kernel::{tree_reduce_in_place, SemiringKernel};

use super::MAX_TILE;

/// Scalar `d = c ⊕ (a ⊗ b)` over flat row-major `n × n` tiles.
///
/// Shape preconditions (`n ≤ MAX_TILE`, slices of length `n * n`) are
/// asserted by [`super::mmo_tile`] before any leaf is entered.
#[inline]
pub(crate) fn mmo_tile<K: SemiringKernel>(
    a: &[f32],
    b: &[f32],
    c: &[f32],
    d: &mut [f32],
    n: usize,
) {
    mmo_columns::<K>(a, b, c, d, n, 0);
}

/// Computes output columns `j0..n` of the tile with the scalar kernel —
/// the whole tile for `j0 == 0`, or just the tail lanes a vector leaf
/// left over. Column subsets of independent lanes are trivially
/// bit-identical to computing the full tile.
#[inline]
pub(super) fn mmo_columns<K: SemiringKernel>(
    a: &[f32],
    b: &[f32],
    c: &[f32],
    d: &mut [f32],
    n: usize,
    j0: usize,
) {
    if j0 >= n {
        return;
    }
    let mut partials = [K::IDENTITY; MAX_TILE];
    for i in 0..n {
        let row = i * n;
        for j in j0..n {
            for (k, p) in partials[..n].iter_mut().enumerate() {
                *p = K::combine(a[row + k], b[k * n + j]);
            }
            let reduced = tree_reduce_in_place::<K>(&mut partials[..n]);
            d[row + j] = K::reduce(c[row + j], reduced);
        }
    }
}

/// Scalar row sweep — the oracle of [`super::sweep_row`]. Folds the walk
/// `(ks[t], vals[t])` in order into output columns `j0..j0 + acc.len()`
/// of one row: `acc[j] ← acc[j] ⊕ (vals[t] ⊗ b[ks[t]·ldb + j0 + j])`,
/// `⊗` then `⊕` as two roundings. Vector leaves call it for the tail
/// columns that do not fill a vector; columns are independent, so a
/// column subset is bit-identical to the whole row.
#[inline]
pub(super) fn sweep_columns<K: SemiringKernel>(
    ks: &[u32],
    vals: &[f32],
    b: &[f32],
    ldb: usize,
    j0: usize,
    acc: &mut [f32],
) {
    if acc.is_empty() {
        return;
    }
    for (&k, &a) in ks.iter().zip(vals) {
        let row = &b[k as usize * ldb + j0..][..acc.len()];
        for (x, &bv) in acc.iter_mut().zip(row) {
            *x = K::reduce(*x, K::combine(a, bv));
        }
    }
}
