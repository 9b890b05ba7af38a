//! Portable scalar kernel — the bit-identity oracle.
//!
//! One function, [`sweep_columns`], is the reduction every path in the
//! repo computes: a row of accumulators folds `(k, a)` terms in order,
//! `acc[j] ← acc[j] ⊕ (a ⊗ b[k][j])`, `⊗` then `⊕` as two roundings. The
//! tile leaf ([`mmo_chain`]) seeds its accumulators
//! ([`SemiringKernel::seed`]) and hands each output row's `k = 0, 1, …`
//! terms to it; the row sweep hands it a representation's walk. Every
//! vector leaf must reproduce it bit for bit, and calls it directly for
//! the tail columns that do not fill a whole vector. The inner loop runs
//! along a contiguous `B` row with no dependence between columns, so the
//! compiler vectorises it for whatever the target's baseline vector unit
//! is. [`scan`] is the oracle of the scan leaves, [`compact`] that of the
//! compaction leaves, and [`truthy_bits`], [`or_rows`] and
//! [`bits_to_f32`] those of the bit-row leaves or-and folds on.

use crate::kernel::SemiringKernel;

use super::{Scan, BIT_WORD, TABLE_ENTRIES, TABLE_GROUP};

/// Scalar chain over tiles of side `n`: seeds `acc ← acc ⊕ id`, then
/// folds `acc ← acc ⊕ (Aₜ ⊗ Bₜ)` for each pair of flat row-major `n × n`
/// tiles of `a` and `b` in order, every element in ascending `k`.
///
/// Shape preconditions (`acc` one tile, `a` and `b` the same whole
/// number of them) are asserted by [`super::mmo_tile`] /
/// [`super::mmo_chain`] before any leaf is entered.
#[inline]
pub(super) fn mmo_chain<K: SemiringKernel>(a: &[f32], b: &[f32], acc: &mut [f32], n: usize) {
    // `n == 0`: nothing to seed or fold, and `chunks_exact(0)` panics.
    if acc.is_empty() {
        return;
    }
    for x in acc.iter_mut() {
        *x = K::seed(*x);
    }
    for (at, bt) in a.chunks_exact(n * n).zip(b.chunks_exact(n * n)) {
        for (ar, dr) in at.chunks_exact(n).zip(acc.chunks_exact_mut(n)) {
            sweep_columns::<K>(ar.iter().copied().enumerate(), bt, n, 0, dr);
        }
    }
}

/// Folds `terms` — `(k, a)` pairs, in order — into output columns
/// `j0..j0 + acc.len()` of one row:
/// `acc[j] ← acc[j] ⊕ (a ⊗ b[k·ldb + j0 + j])`. Columns are independent,
/// so a column subset is bit-identical to the whole row.
#[inline]
pub(super) fn sweep_columns<K: SemiringKernel>(
    terms: impl Iterator<Item = (usize, f32)>,
    b: &[f32],
    ldb: usize,
    j0: usize,
    acc: &mut [f32],
) {
    if acc.is_empty() {
        return;
    }
    for (k, a) in terms {
        let row = &b[k * ldb + j0..][..acc.len()];
        for (x, &bv) in acc.iter_mut().zip(row) {
            *x = K::reduce(*x, K::combine(a, bv));
        }
    }
}

/// The `(k, a)` terms of a row-sweep walk, for [`sweep_columns`].
#[inline]
pub(super) fn walk<'a>(ks: &'a [u32], vals: &'a [f32]) -> impl Iterator<Item = (usize, f32)> + 'a {
    ks.iter().map(|&k| k as usize).zip(vals.iter().copied())
}

/// Scans `xs` against the annihilator `zero`: the oracle every vector
/// scan leaf must equal. The count runs in `u32` beside the other two
/// folds so the loop vectorises; the dispatcher hands a leaf at most
/// `SCAN_BLOCK` elements, which that count cannot wrap on.
#[inline]
pub(super) fn scan(zero: f32, xs: &[f32]) -> Scan {
    let (any, max_abs, stored) =
        xs.iter()
            .fold((0u32, 0u32, 0u32), |(any, max_abs, stored), &x| {
                (
                    any | x.to_bits(),
                    max_abs.max(x.to_bits() & 0x7fff_ffff),
                    stored + u32::from(x != zero),
                )
            });
    Scan {
        any,
        max_abs,
        stored: stored as usize,
    }
}

/// Writes the truthiness of `xs` (`x != 0.0`, NaN truthy) into the bit
/// row `bits`, every bit past `xs` cleared: the oracle every vector
/// truthiness leaf must equal. Returns whether any bit is set.
#[inline]
pub(super) fn truthy_bits(xs: &[f32], bits: &mut [u64]) -> bool {
    let (head, rest) = bits.split_at_mut(xs.len().div_ceil(BIT_WORD));
    let mut any = 0;
    for (word, chunk) in head.iter_mut().zip(xs.chunks(BIT_WORD)) {
        *word = chunk
            .iter()
            .enumerate()
            .fold(0, |w, (j, &x)| w | u64::from(x != 0.0) << j);
        any |= *word;
    }
    rest.fill(0);
    any != 0
}

/// ORs into `acc` — words `j0..j0 + acc.len()` of a `words`-word bit row
/// — the same words of row `16g + s` of the bit table `table` for every
/// nibble `s ≠ 0` of `pick`, `g` the nibble's place: the oracle every
/// vector OR leaf must equal, and their tail.
///
/// # Panics
///
/// Panics if a selected row reaches past the end of `table`.
#[inline]
pub(super) fn or_rows(pick: &[u64], table: &[u64], words: usize, j0: usize, acc: &mut [u64]) {
    if acc.is_empty() {
        return;
    }
    let width = acc.len();
    for (w, &word) in pick.iter().enumerate() {
        let first = w * BIT_WORD / TABLE_GROUP * TABLE_ENTRIES;
        for b in (0..BIT_WORD).step_by(TABLE_GROUP) {
            let s = (word >> b) as usize % TABLE_ENTRIES;
            if s != 0 {
                let row = first + b / TABLE_GROUP * TABLE_ENTRIES + s;
                for (a, &r) in acc.iter_mut().zip(&table[row * words + j0..][..width]) {
                    *a |= r;
                }
            }
        }
    }
}

/// Writes `1.0` for each set bit of `bits` and `+0.0` for each clear
/// one into `out`: the oracle every vector expansion leaf must equal.
#[inline]
pub(super) fn bits_to_f32(bits: &[u64], out: &mut [f32]) {
    for (chunk, &word) in out.chunks_mut(BIT_WORD).zip(bits) {
        for (j, x) in chunk.iter_mut().enumerate() {
            *x = if word >> j & 1 == 1 { 1.0 } else { 0.0 };
        }
    }
}

/// Compacts `xs` against the annihilator `zero`: the oracle every vector
/// compaction leaf must equal. Each element that differs from `zero` by
/// value ([`scan`]'s rule) goes to the front of `vals` and its index in
/// `xs`, plus `first`, to the front of `cols`; returns how many. The
/// loop is branch-free — every element is written at the cursor, which
/// advances past the ones that stay (at mid densities a per-element
/// branch mispredicts half the time) — so it writes the slot just past
/// the count too whenever one is left.
///
/// # Panics
///
/// Panics if more elements are stored than `cols` or `vals` has room for.
#[inline]
pub(super) fn compact(
    zero: f32,
    xs: &[f32],
    first: usize,
    cols: &mut [u32],
    vals: &mut [f32],
) -> usize {
    let mut kept = 0;
    for (i, &x) in xs.iter().enumerate() {
        let keep = x != zero;
        if let (Some(col), Some(val)) = (cols.get_mut(kept), vals.get_mut(kept)) {
            *col = (first + i) as u32;
            *val = x;
        } else {
            assert!(!keep, "more stored elements than room for them");
        }
        kept += usize::from(keep);
    }
    kept
}
