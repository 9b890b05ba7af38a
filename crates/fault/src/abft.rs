//! Algorithm-based fault tolerance (ABFT) checks for semiring mmos.
//!
//! Two detection families, chosen by the algebra's reduction:
//!
//! * **Additive reductions** (`plus-mul`, `plus-norm`): the classic
//!   Huang–Abraham checksum invariant. For `D = C + A·B`,
//!   `Σ D = Σ C + Σₖ colsum(A)ₖ · rowsum(B)ₖ`, verified in f64 with a
//!   magnitude-scaled tolerance for fp32 reduction drift. `plus-norm`
//!   (`⊗ = (a−b)²`) expands to
//!   `Σₖ [ n·Σᵢa²ᵢₖ − 2·colsum(A)ₖ·rowsum(B)ₖ + m·Σⱼb²ₖⱼ ]`.
//! * **Idempotent reductions** (the min/max/or family): no checksum
//!   exists, but selection algebras are *exact* in fp32 — so a witness
//!   recomputation must match bit-for-bit at tile granularity, and at
//!   matrix granularity a cheap full dominance scan (`d ≤ c` for the
//!   min family, `d ≥ c` for the max family, `d ∈ {0,1}` for `or-and`)
//!   plus a deterministic sample of exact witnesses catches corruption.
//!   A witness is the engines' own reduction: it starts from `c ⊕ id`
//!   ([`SemiringKernel::seed`]) and folds its `⊗` terms in ascending `k`.
//!
//! A NaN tripwire runs first for every algebra: a NaN in `D` when
//! `A`/`B`/`C` are NaN-free is always corruption.
//!
//! Every check is a streaming pass whose inner loop runs over a
//! contiguous row: flags are branch-free folds (an element loop only
//! *locates* a violation a flag has found), operand rows are copied a
//! block at a time through the unit's own slice quantiser
//! ([`Simd2Unit::quantize_operands`], bit-identical to the scalar
//! quantiser on every tier), `A`'s column sums are `k` accumulators
//! updated row by row, and a witness reads a quantised row of `A` and a
//! quantised column of `B`. Each `f64` sum still adds the same values in
//! the same order as the element-at-a-time definition (written out in
//! `tests/proptest_abft.rs`), so every verdict keeps its bits.

use std::fmt;

use simd2_matrix::{Matrix, Tile};
use simd2_mxu::{PrecisionMode, Simd2Unit};
use simd2_semiring::kernel::{dispatch_kernel, KernelVisitor, SemiringKernel};
use simd2_semiring::OpKind;

/// A detected ABFT invariant violation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AbftViolation {
    /// `D` contains a NaN although every input was NaN-free.
    NonFinite {
        /// The op whose result was checked.
        op: OpKind,
        /// Row of the offending element.
        row: usize,
        /// Column of the offending element.
        col: usize,
        /// The offending value.
        value: f32,
    },
    /// The additive checksum invariant failed.
    ChecksumMismatch {
        /// The op whose result was checked.
        op: OpKind,
        /// Checksum predicted from the inputs.
        expected: f64,
        /// Checksum actually observed over `D`.
        got: f64,
        /// The tolerance the difference exceeded.
        tolerance: f64,
    },
    /// An exact witness recomputation disagreed with `D`.
    WitnessMismatch {
        /// The op whose result was checked.
        op: OpKind,
        /// Row of the offending element.
        row: usize,
        /// Column of the offending element.
        col: usize,
        /// The recomputed value.
        expected: f32,
        /// The value found in `D`.
        got: f32,
    },
    /// An idempotent-reduction dominance invariant failed
    /// (`d ≤ c` / `d ≥ c` / or-and truth forcing).
    DominanceViolation {
        /// The op whose result was checked.
        op: OpKind,
        /// Row of the offending element.
        row: usize,
        /// Column of the offending element.
        col: usize,
        /// The accumulator input at the site.
        c: f32,
        /// The output at the site.
        d: f32,
    },
    /// An `or-and` output was outside the canonical `{0, 1}` range.
    RangeViolation {
        /// The op whose result was checked.
        op: OpKind,
        /// Row of the offending element.
        row: usize,
        /// Column of the offending element.
        col: usize,
        /// The out-of-range value.
        value: f32,
    },
}

impl fmt::Display for AbftViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbftViolation::NonFinite {
                op,
                row,
                col,
                value,
            } => {
                write!(
                    f,
                    "{op}: non-finite {value} at d[{row}][{col}] with finite inputs"
                )
            }
            AbftViolation::ChecksumMismatch {
                op,
                expected,
                got,
                tolerance,
            } => {
                write!(
                    f,
                    "{op}: checksum {got} differs from predicted {expected} by more than {tolerance}"
                )
            }
            AbftViolation::WitnessMismatch {
                op,
                row,
                col,
                expected,
                got,
            } => {
                write!(
                    f,
                    "{op}: d[{row}][{col}] = {got}, witness recomputation gives {expected}"
                )
            }
            AbftViolation::DominanceViolation { op, row, col, c, d } => {
                write!(
                    f,
                    "{op}: d[{row}][{col}] = {d} violates dominance against c = {c}"
                )
            }
            AbftViolation::RangeViolation {
                op,
                row,
                col,
                value,
            } => {
                write!(
                    f,
                    "{op}: d[{row}][{col}] = {value} outside the canonical {{0,1}} range"
                )
            }
        }
    }
}

impl std::error::Error for AbftViolation {}

/// Tolerances and sampling effort for ABFT verification.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AbftConfig {
    /// Relative checksum tolerance, scaled by the f64 magnitude of all
    /// summed terms. An fp32 fold of `k` terms drifts by about
    /// `√k · ε · magnitude` (≈ 2e-6 · magnitude at `k = 1024`) and by
    /// at most `k · ε · magnitude` (≈ 6e-5 there); the default sits
    /// above both.
    pub rel_tol: f64,
    /// Absolute checksum tolerance floor for near-zero sums.
    pub abs_tol: f64,
    /// Number of exact witness samples per matrix-level idempotent
    /// check (clamped to the output size).
    pub witness_samples: usize,
}

impl Default for AbftConfig {
    fn default() -> Self {
        Self {
            rel_tol: 1e-4,
            abs_tol: 1e-6,
            witness_samples: 64,
        }
    }
}

impl AbftConfig {
    /// The default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    fn tolerance(&self, magnitude: f64) -> f64 {
        self.rel_tol * magnitude + self.abs_tol
    }
}

/// NaN-aware equality: exact selection algebras must reproduce values
/// (`-0.0 == 0.0` is accepted — reduction order may legally differ).
fn same_value(a: f32, b: f32) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

fn min_family(op: OpKind) -> bool {
    matches!(op, OpKind::MinPlus | OpKind::MinMul | OpKind::MinMax)
}

/// Flat row-major views of one checked mmo `d = c ⊕ (a ⊗ b)`: `a` is
/// `m × k`, `b` is `k × n`, `c` and `d` are `m × n`. Every pass over
/// them runs front to back.
#[derive(Clone, Copy)]
struct Operands<'a> {
    a: &'a [f32],
    b: &'a [f32],
    c: &'a [f32],
    d: &'a [f32],
    m: usize,
    k: usize,
    n: usize,
}

impl<'a> Operands<'a> {
    fn of_matrices(a: &'a Matrix, b: &'a Matrix, c: &'a Matrix, d: &'a Matrix) -> Self {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        debug_assert_eq!(b.rows(), k);
        debug_assert_eq!((d.rows(), d.cols()), (m, n));
        debug_assert_eq!((c.rows(), c.cols()), (m, n));
        Self {
            a: a.as_slice(),
            b: b.as_slice(),
            c: c.as_slice(),
            d: d.as_slice(),
            m,
            k,
            n,
        }
    }
}

/// Whether any element is NaN, as a branch-free fold: it vectorises,
/// a short-circuiting scan does not.
fn has_nan(xs: &[f32]) -> bool {
    xs.iter().fold(false, |nan, x| nan | x.is_nan())
}

/// The NaN tripwire: a NaN in `D` when `A`, `B` and `C` hold none. The
/// inputs are scanned only once `D` has flagged.
fn nan_tripwire(op: OpKind, v: &Operands<'_>) -> Result<(), AbftViolation> {
    if !has_nan(v.d) || has_nan(v.a) || has_nan(v.b) || has_nan(v.c) {
        return Ok(());
    }
    let idx = v.d.iter().position(|x| x.is_nan()).unwrap_or_default();
    Err(AbftViolation::NonFinite {
        op,
        row: idx / v.n,
        col: idx % v.n,
        value: v.d[idx],
    })
}

/// The three numbers of the additive checksum invariant for one mmo.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Checksum {
    /// `Σ D` as predicted from `A`, `B` and `C`.
    pub expected: f64,
    /// `Σ D` as observed.
    pub got: f64,
    /// How far the two may differ: [`AbftConfig::rel_tol`] times the
    /// summed magnitude of every term of the prediction, plus
    /// [`AbftConfig::abs_tol`].
    pub tolerance: f64,
}

/// The additive checksum of a matrix-granularity `plus-mul` or
/// `plus-norm` mmo — the numbers [`verify_matrix`] compares, for callers
/// that reason about what the check grants (an undetected deviation of
/// `Σ D` is bounded by `tolerance`).
///
/// # Panics
///
/// Panics if `op` is not an additive reduction.
pub fn checksum(
    op: OpKind,
    a: &Matrix,
    b: &Matrix,
    c: &Matrix,
    d: &Matrix,
    mode: PrecisionMode,
    cfg: &AbftConfig,
) -> Checksum {
    let v = Operands::of_matrices(a, b, c, d);
    checksum_of(op, &v, &Simd2Unit::with_precision(mode), cfg)
}

/// Operand elements per call of the input quantiser: enough whole rows
/// to amortise the call, few enough to stay in L1.
const BLOCK_ELEMS: usize = 4096;

/// Streams the `width`-wide rows of `xs` through `unit`'s input
/// quantiser a block of whole rows at a time, handing each quantised
/// block to `each`.
fn quantised_blocks(xs: &[f32], width: usize, unit: &Simd2Unit, mut each: impl FnMut(&[f32])) {
    if xs.is_empty() {
        return;
    }
    let block = (BLOCK_ELEMS / width).max(1) * width;
    let mut scratch = Vec::with_capacity(block.min(xs.len()));
    for rows in xs.chunks(block) {
        scratch.clear();
        scratch.extend_from_slice(rows);
        unit.quantize_operands(&mut scratch);
        each(&scratch);
    }
}

/// `B` rows whose sums advance together: one row's sum is one chain of
/// dependent additions, the chains of several rows overlap.
const ROW_LANES: usize = 4;

/// Appends `Σⱼ yⱼ` and `Σⱼ f(yⱼ)` of every `n`-wide row of `rows`, each
/// summed in `f64` from `0.0` in ascending `j`.
fn row_sums(
    rows: &[f32],
    n: usize,
    f: impl Fn(f64) -> f64,
    sums: &mut Vec<f64>,
    auxs: &mut Vec<f64>,
) {
    let mut groups = rows.chunks_exact(ROW_LANES * n);
    for group in &mut groups {
        let (r0, rest) = group.split_at(n);
        let (r1, rest) = rest.split_at(n);
        let (r2, r3) = rest.split_at(n);
        let (mut sum, mut aux) = ([0.0f64; ROW_LANES], [0.0f64; ROW_LANES]);
        for (((&y0, &y1), &y2), &y3) in r0.iter().zip(r1).zip(r2).zip(r3) {
            for (l, y) in [y0, y1, y2, y3].into_iter().enumerate() {
                let y = f64::from(y);
                sum[l] += y;
                aux[l] += f(y);
            }
        }
        sums.extend(sum);
        auxs.extend(aux);
    }
    for row in groups.remainder().chunks_exact(n) {
        let (mut sum, mut aux) = (0.0f64, 0.0f64);
        for &y in row {
            let y = f64::from(y);
            sum += y;
            aux += f(y);
        }
        sums.push(sum);
        auxs.push(aux);
    }
}

/// Per-`k` sums over the quantised operands, each accumulated in `f64`
/// from `0.0`: `Σᵢ aᵢₖ` and `Σᵢ f(aᵢₖ)` in ascending `i`, `Σⱼ bₖⱼ` and
/// `Σⱼ f(bₖⱼ)` in ascending `j`.
struct OperandSums {
    col_a: Vec<f64>,
    aux_a: Vec<f64>,
    row_b: Vec<f64>,
    aux_b: Vec<f64>,
}

fn operand_sums(v: &Operands<'_>, unit: &Simd2Unit, f: impl Fn(f64) -> f64) -> OperandSums {
    let (k, n) = (v.k, v.n);
    // `A`: `k` column accumulators, updated row by row.
    let (mut col_a, mut aux_a) = (vec![0.0f64; k], vec![0.0f64; k]);
    quantised_blocks(v.a, k, unit, |rows| {
        for row in rows.chunks_exact(k) {
            for ((sum, aux), &x) in col_a.iter_mut().zip(&mut aux_a).zip(row) {
                let x = f64::from(x);
                *sum += x;
                *aux += f(x);
            }
        }
    });
    // `B`: one pair of sums per row — of nothing when `B` has no columns.
    let (mut row_b, mut aux_b) = (Vec::with_capacity(k), Vec::with_capacity(k));
    quantised_blocks(v.b, n, unit, |rows| {
        row_sums(rows, n, &f, &mut row_b, &mut aux_b)
    });
    row_b.resize(k, 0.0);
    aux_b.resize(k, 0.0);
    OperandSums {
        col_a,
        aux_a,
        row_b,
        aux_b,
    }
}

/// The additive checksum over flat operands, `A` and `B` as `unit`'s
/// input quantiser delivers them: `Σ D = Σ C + Σₖ colsum(A)ₖ ·
/// rowsum(B)ₖ` for plus-mul, the expansion of `(a − b)²` in the module
/// docs for plus-norm, every sum in `f64`.
fn checksum_of(op: OpKind, v: &Operands<'_>, unit: &Simd2Unit, cfg: &AbftConfig) -> Checksum {
    // `C` and `D` in one pass: three chains of dependent additions that
    // overlap. `got` starts where `Iterator::sum` starts.
    let (mut expected, mut magnitude, mut got) = (0.0f64, 0.0f64, -0.0f64);
    for (&c, &d) in v.c.iter().zip(v.d) {
        let c = f64::from(c);
        expected += c;
        magnitude += c.abs();
        got += f64::from(d);
    }
    match op {
        OpKind::PlusMul => {
            let s = operand_sums(v, unit, f64::abs);
            for kk in 0..v.k {
                expected += s.col_a[kk] * s.row_b[kk];
                magnitude += s.aux_a[kk] * s.aux_b[kk];
            }
        }
        OpKind::PlusNorm => {
            let s = operand_sums(v, unit, |x| x * x);
            let (m, n) = (v.m as f64, v.n as f64);
            for kk in 0..v.k {
                let (col_a, sq_a) = (s.col_a[kk], s.aux_a[kk]);
                let (row_b, sq_b) = (s.row_b[kk], s.aux_b[kk]);
                expected += n * sq_a - 2.0 * col_a * row_b + m * sq_b;
                magnitude += n * sq_a + 2.0 * (col_a * row_b).abs() + m * sq_b;
            }
        }
        _ => unreachable!("additive path only handles plus-mul / plus-norm"),
    }
    Checksum {
        expected,
        got,
        tolerance: cfg.tolerance(magnitude),
    }
}

fn verify_checksum(
    op: OpKind,
    v: &Operands<'_>,
    unit: &Simd2Unit,
    cfg: &AbftConfig,
) -> Result<(), AbftViolation> {
    let Checksum {
        expected,
        got,
        tolerance,
    } = checksum_of(op, v, unit, cfg);
    let mismatch = if got.is_finite() && expected.is_finite() {
        (got - expected).abs() > tolerance
    } else {
        // Overflow in either direction: fall back to agreement of
        // non-finiteness (quantisation can saturate legitimately).
        got.is_finite() != expected.is_finite()
    };
    if mismatch {
        return Err(AbftViolation::ChecksumMismatch {
            op,
            expected,
            got,
            tolerance,
        });
    }
    Ok(())
}

/// Verifies one tile-granularity mmo `d = c ⊕ (a ⊗ b)` executed by
/// `unit`. `a`/`b` are the operand tiles exactly as fed to the unit
/// (the verifier re-applies the unit's input quantiser itself).
pub fn verify_tile<const N: usize>(
    op: OpKind,
    unit: &Simd2Unit,
    a: &Tile<N>,
    b: &Tile<N>,
    c: &Tile<N>,
    d: &Tile<N>,
    cfg: &AbftConfig,
) -> Result<(), AbftViolation> {
    let v = Operands {
        a: a.as_flat(),
        b: b.as_flat(),
        c: c.as_flat(),
        d: d.as_flat(),
        m: N,
        k: N,
        n: N,
    };
    nan_tripwire(op, &v)?;
    if !op.reduce_is_idempotent() {
        return verify_checksum(op, &v, unit, cfg);
    }
    // Selection algebras are exact: a witness recomputation through
    // the same datapath must agree bit-for-bit.
    let witness = unit.execute(op, a, b, c);
    for (row, col, expected) in witness.iter() {
        let got = d.get(row, col);
        if !same_value(expected, got) {
            return Err(AbftViolation::WitnessMismatch {
                op,
                row,
                col,
                expected,
                got,
            });
        }
    }
    Ok(())
}

/// Verifies a matrix-granularity mmo `d = c ⊕ (a ⊗ b)` produced by any
/// backend. `mode` describes the backend's datapath so the verifier can
/// mirror its input quantisation.
///
/// The work is `O(mk + kn + mn)` over contiguous rows plus `k` per
/// witness sample: branch-free flag scans (an element loop runs only to
/// locate a violation that a flag has already found), the checksum sums
/// or the dominance scan, then the witnesses — see the module docs.
pub fn verify_matrix(
    op: OpKind,
    a: &Matrix,
    b: &Matrix,
    c: &Matrix,
    d: &Matrix,
    mode: PrecisionMode,
    cfg: &AbftConfig,
) -> Result<(), AbftViolation> {
    let v = Operands::of_matrices(a, b, c, d);
    let unit = Simd2Unit::with_precision(mode);
    nan_tripwire(op, &v)?;
    if !op.reduce_is_idempotent() {
        return verify_checksum(op, &v, &unit, cfg);
    }
    dominance(op, &v)?;
    dispatch_kernel(
        op,
        Witness {
            v,
            unit: &unit,
            samples: cfg.witness_samples,
        },
    )
}

/// Index of the first `(c, d)` pair `bad` holds for: a branch-free flag
/// fold over the whole output, and a search only once it has flagged.
fn first_bad(v: &Operands<'_>, bad: impl Fn(f32, f32) -> bool) -> Option<usize> {
    let pairs = || v.c.iter().zip(v.d);
    if !pairs().fold(false, |any, (&c, &d)| any | bad(c, d)) {
        return None;
    }
    pairs().position(|(&c, &d)| bad(c, d))
}

/// The full dominance scan of the idempotent family: `d ≤ c` under a
/// `min`, `d ≥ c` under a `max`, and under or-and `d ∈ {0, 1}` with a
/// truthy `c` forcing `d = 1`.
fn dominance(op: OpKind, v: &Operands<'_>) -> Result<(), AbftViolation> {
    let found = if op == OpKind::OrAnd {
        first_bad(v, |c, d| d != 1.0 && (d != 0.0 || c != 0.0))
    } else if min_family(op) {
        first_bad(v, |c, d| d > c)
    } else {
        first_bad(v, |c, d| d < c)
    };
    let Some(idx) = found else {
        return Ok(());
    };
    let (row, col) = (idx / v.n, idx % v.n);
    let (c, d) = (v.c[idx], v.d[idx]);
    Err(if op == OpKind::OrAnd && d != 0.0 && d != 1.0 {
        AbftViolation::RangeViolation {
            op,
            row,
            col,
            value: d,
        }
    } else {
        AbftViolation::DominanceViolation { op, row, col, c, d }
    })
}

/// Witnesses folded side by side: one fold is one chain of dependent
/// `⊕`s, the chains of several samples overlap.
const WITNESS_LANES: usize = 8;

/// The deterministic sample of exact witnesses of the idempotent
/// family, monomorphised per op through [`dispatch_kernel`].
struct Witness<'a> {
    v: Operands<'a>,
    unit: &'a Simd2Unit,
    samples: usize,
}

impl KernelVisitor for Witness<'_> {
    type Output = Result<(), AbftViolation>;

    fn visit<K: SemiringKernel>(self) -> Self::Output {
        let Operands {
            a,
            b,
            c,
            d,
            m,
            k,
            n,
        } = self.v;
        let total = m * n;
        let samples = self.samples.min(total);
        if samples == 0 {
            return Ok(());
        }
        // Low-discrepancy walk over the output; pure function of (s, dims).
        let site = |s: usize| {
            if samples == total {
                s
            } else {
                (s.wrapping_mul(2_654_435_761).wrapping_add(s / n + s)) % total
            }
        };
        // The quantised rows of `A` and columns of `B` the folds read,
        // `k` long each: every one of them, quantised whole and once,
        // when the samples would between them quantise more than that;
        // otherwise one pair per lane, refilled for each batch.
        let whole = samples >= m + n;
        let (mut qa, mut qb) = if whole {
            let (mut qa, mut bt) = (a.to_vec(), vec![0.0f32; b.len()]);
            for (kk, row) in b.chunks_exact(n).enumerate() {
                for (j, &y) in row.iter().enumerate() {
                    bt[j * k + kk] = y;
                }
            }
            self.unit.quantize_operands(&mut qa);
            self.unit.quantize_operands(&mut bt);
            (qa, bt)
        } else {
            (
                vec![0.0f32; WITNESS_LANES * k],
                vec![0.0f32; WITNESS_LANES * k],
            )
        };
        for s0 in (0..samples).step_by(WITNESS_LANES) {
            // A short last batch repeats its last sample in the spare lanes.
            let sites: [usize; WITNESS_LANES] =
                std::array::from_fn(|l| site((s0 + l).min(samples - 1)));
            let rows = if whole {
                sites.map(|idx| (idx / n, idx % n))
            } else {
                for (l, idx) in sites.into_iter().enumerate() {
                    let (i, j) = (idx / n, idx % n);
                    qa[l * k..][..k].copy_from_slice(&a[i * k..][..k]);
                    for (q, row) in qb[l * k..][..k].iter_mut().zip(b.chunks_exact(n)) {
                        *q = row[j];
                    }
                }
                self.unit.quantize_operands(&mut qa);
                self.unit.quantize_operands(&mut qb);
                std::array::from_fn(|l| (l, l))
            };
            let expected = fold_lanes::<K>(
                sites.map(|idx| K::seed(c[idx])),
                rows.map(|(ra, rb)| (&qa[ra * k..][..k], &qb[rb * k..][..k])),
            );
            for (&idx, expected) in sites.iter().zip(expected).take(samples - s0) {
                let got = d[idx];
                if !same_value(expected, got) {
                    return Err(AbftViolation::WitnessMismatch {
                        op: K::KIND,
                        row: idx / n,
                        col: idx % n,
                        expected,
                        got,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Folds each lane's `⊗` terms into its seeded accumulator in ascending
/// `k` — the one reduction every engine computes.
fn fold_lanes<K: SemiringKernel>(
    mut acc: [f32; WITNESS_LANES],
    rows: [(&[f32], &[f32]); WITNESS_LANES],
) -> [f32; WITNESS_LANES] {
    let [l0, l1, l2, l3, l4, l5, l6, l7] = rows.map(|(a_row, b_col)| a_row.iter().zip(b_col));
    let lanes = l0.zip(l1).zip(l2.zip(l3)).zip(l4.zip(l5).zip(l6.zip(l7)));
    for (((t0, t1), (t2, t3)), ((t4, t5), (t6, t7))) in lanes {
        for (acc, (&x, &y)) in acc.iter_mut().zip([t0, t1, t2, t3, t4, t5, t6, t7]) {
            *acc = K::reduce(*acc, K::combine(x, y));
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use simd2_semiring::OpKind;

    const ALL: [OpKind; 9] = [
        OpKind::PlusMul,
        OpKind::MinPlus,
        OpKind::MaxPlus,
        OpKind::MinMul,
        OpKind::MaxMul,
        OpKind::MinMax,
        OpKind::MaxMin,
        OpKind::OrAnd,
        OpKind::PlusNorm,
    ];

    fn operands() -> (Tile<16>, Tile<16>, Tile<16>) {
        let a = Tile::<16>::from_fn(|r, c| ((r * 7 + c * 3) % 11) as f32 * 0.25 - 1.0);
        let b = Tile::<16>::from_fn(|r, c| ((r * 5 + c) % 13) as f32 * 0.5 - 2.0);
        let c = Tile::<16>::from_fn(|r, c| ((r + c) % 5) as f32 - 1.0);
        (a, b, c)
    }

    fn bool_operands() -> (Tile<16>, Tile<16>, Tile<16>) {
        let a = Tile::<16>::from_fn(|r, c| ((r * 7 + c) % 3 == 0) as u8 as f32);
        let b = Tile::<16>::from_fn(|r, c| ((r + c * 5) % 4 == 0) as u8 as f32);
        let c = Tile::<16>::from_fn(|r, c| ((r * c) % 7 == 0) as u8 as f32);
        (a, b, c)
    }

    fn pick(op: OpKind) -> (Tile<16>, Tile<16>, Tile<16>) {
        if op == OpKind::OrAnd {
            bool_operands()
        } else {
            operands()
        }
    }

    #[test]
    fn clean_tiles_verify_for_all_ops() {
        let unit = Simd2Unit::new();
        let cfg = AbftConfig::default();
        for op in ALL {
            let (a, b, c) = pick(op);
            let d = unit.execute(op, &a, &b, &c);
            assert_eq!(verify_tile(op, &unit, &a, &b, &c, &d, &cfg), Ok(()), "{op}");
        }
    }

    #[test]
    fn large_offset_is_detected_for_all_ops() {
        let unit = Simd2Unit::new();
        let cfg = AbftConfig::default();
        for op in ALL {
            let (a, b, c) = pick(op);
            let mut d = unit.execute(op, &a, &b, &c);
            // Large corruption: offset one element well past every
            // tolerance (guaranteed to change the value).
            let v = d.get(3, 7);
            d.set(3, 7, v + 50.0);
            assert!(
                verify_tile(op, &unit, &a, &b, &c, &d, &cfg).is_err(),
                "{op} missed the corruption"
            );
        }
    }

    #[test]
    fn injected_nan_is_detected_for_all_ops() {
        let unit = Simd2Unit::new();
        let cfg = AbftConfig::default();
        for op in ALL {
            let (a, b, c) = pick(op);
            let mut d = unit.execute(op, &a, &b, &c);
            d.set(0, 0, f32::NAN);
            assert!(
                matches!(
                    verify_tile(op, &unit, &a, &b, &c, &d, &cfg),
                    Err(AbftViolation::NonFinite { .. })
                ),
                "{op}"
            );
        }
    }

    #[test]
    fn nan_inputs_disable_the_tripwire() {
        let unit = Simd2Unit::new();
        let cfg = AbftConfig::default();
        let (a, b, mut c) = operands();
        c.set(0, 0, f32::NAN);
        let d = unit.execute(OpKind::MinPlus, &a, &b, &c);
        // Legitimate NaN propagation must not be flagged.
        assert_eq!(
            verify_tile(OpKind::MinPlus, &unit, &a, &b, &c, &d, &cfg),
            Ok(())
        );
    }

    #[test]
    fn tiny_mantissa_noise_is_benign_for_checksums() {
        let unit = Simd2Unit::new();
        let cfg = AbftConfig::default();
        let (a, b, c) = operands();
        let mut d = unit.execute(OpKind::PlusMul, &a, &b, &c);
        let v = d.get(2, 2);
        d.set(2, 2, v + v.abs() * 1e-7);
        assert_eq!(
            verify_tile(OpKind::PlusMul, &unit, &a, &b, &c, &d, &cfg),
            Ok(())
        );
    }

    fn matrices(m: usize, k: usize, n: usize) -> (Matrix, Matrix, Matrix) {
        let a = Matrix::from_fn(m, k, |r, c| ((r * 3 + c * 7) % 9) as f32 * 0.5 - 1.5);
        let b = Matrix::from_fn(k, n, |r, c| ((r + c * 11) % 7) as f32 * 0.25 - 0.5);
        let c = Matrix::from_fn(m, n, |r, c| ((r * c) % 4) as f32);
        (a, b, c)
    }

    fn reference_mmo(
        op: OpKind,
        a: &Matrix,
        b: &Matrix,
        c: &Matrix,
        mode: PrecisionMode,
    ) -> Matrix {
        let unit = Simd2Unit::with_precision(mode);
        let (mut qa, mut qb) = (a.clone(), b.clone());
        unit.quantize_operands(qa.as_mut_slice());
        unit.quantize_operands(qb.as_mut_slice());
        Matrix::from_fn(c.rows(), c.cols(), |i, j| {
            let mut acc = op.reduce_f32(c.row(i)[j], op.reduce_identity_f32());
            for kk in 0..a.cols() {
                acc = op.reduce_f32(acc, op.combine_f32(qa.row(i)[kk], qb.row(kk)[j]));
            }
            acc
        })
    }

    #[test]
    fn clean_matrices_verify_for_all_ops() {
        let cfg = AbftConfig::default();
        let mode = PrecisionMode::Fp16Input;
        for op in ALL {
            let (a, b, c) = matrices(20, 17, 23);
            let d = reference_mmo(op, &a, &b, &c, mode);
            assert_eq!(
                verify_matrix(op, &a, &b, &c, &d, mode, &cfg),
                Ok(()),
                "{op}"
            );
        }
    }

    #[test]
    fn matrix_corruption_is_detected_for_all_ops() {
        // Full witness: every element checked.
        let cfg = AbftConfig {
            witness_samples: usize::MAX,
            ..AbftConfig::default()
        };
        let mode = PrecisionMode::Fp16Input;
        for op in ALL {
            let (a, b, c) = matrices(20, 17, 23);
            let mut d = reference_mmo(op, &a, &b, &c, mode);
            let v = d.row(4)[9];
            d.as_mut_slice()[4 * 23 + 9] = v + 25.0;
            assert!(
                verify_matrix(op, &a, &b, &c, &d, mode, &cfg).is_err(),
                "{op} missed the corruption"
            );
        }
    }

    #[test]
    fn dominance_catches_directional_corruption_without_witness() {
        // Dominance scan only.
        let cfg = AbftConfig {
            witness_samples: 0,
            ..AbftConfig::default()
        };
        let mode = PrecisionMode::Fp32Input;
        let (a, b, c) = matrices(12, 8, 12);
        let mut d = reference_mmo(OpKind::MinPlus, &a, &b, &c, mode);
        d.as_mut_slice()[0] = c.row(0)[0] + 100.0; // min-plus result above c
        assert!(matches!(
            verify_matrix(OpKind::MinPlus, &a, &b, &c, &d, mode, &cfg),
            Err(AbftViolation::DominanceViolation { .. })
        ));
    }

    #[test]
    fn witnesses_start_from_the_seeded_accumulator() {
        // Every engine starts an element from `c ⊕ id`, which is not `c`
        // when `c` is something a fold cannot produce: a truthy or-and
        // accumulator other than `1.0`, a NaN under min/max. With `k = 0`
        // the seed is the whole result.
        let cfg = AbftConfig::default();
        let mode = PrecisionMode::Fp16Input;
        let nan = f32::from_bits(0x7FC0_1234);
        for (op, c, d) in [
            (OpKind::OrAnd, 2.0, 1.0),
            (OpKind::MinPlus, nan, f32::INFINITY),
            (OpKind::MaxMin, nan, f32::NEG_INFINITY),
        ] {
            let (a, b) = (Matrix::zeros(3, 0), Matrix::zeros(0, 2));
            let (c, d) = (Matrix::filled(3, 2, c), Matrix::filled(3, 2, d));
            assert_eq!(
                verify_matrix(op, &a, &b, &c, &d, mode, &cfg),
                Ok(()),
                "{op}"
            );
        }
        // At any `k`: a NaN accumulator all of whose terms are NaN.
        let (a, b) = (Matrix::filled(2, 4, nan), Matrix::filled(4, 2, 1.0));
        let c = Matrix::filled(2, 2, nan);
        let d = reference_mmo(OpKind::MinPlus, &a, &b, &c, mode);
        assert_eq!(d, Matrix::filled(2, 2, f32::INFINITY));
        assert_eq!(
            verify_matrix(OpKind::MinPlus, &a, &b, &c, &d, mode, &cfg),
            Ok(())
        );
    }

    #[test]
    fn or_and_range_is_enforced() {
        let cfg = AbftConfig::default();
        let mode = PrecisionMode::Fp32Input;
        let a = Matrix::from_fn(8, 8, |r, c| ((r + c) % 2) as f32);
        let b = Matrix::from_fn(8, 8, |r, c| ((r * c) % 3 == 0) as u8 as f32);
        let c = Matrix::zeros(8, 8);
        let mut d = reference_mmo(OpKind::OrAnd, &a, &b, &c, mode);
        d.as_mut_slice()[5] = 0.5;
        assert!(matches!(
            verify_matrix(OpKind::OrAnd, &a, &b, &c, &d, mode, &cfg),
            Err(AbftViolation::RangeViolation { .. })
        ));
    }
}
