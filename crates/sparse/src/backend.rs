//! Representation-aware sparse execution backend.
//!
//! [`SparseTiledBackend`] implements the core [`Backend`] trait, so any
//! algorithm written against the trait — the closure solvers, the plan
//! recorder/executor, the serving layer — runs on sparse operands
//! unchanged. Representation declarations arrive with each step of
//! [`Backend::execute`] and pick a *walk*, not a kernel: every output
//! row folds the `(l, a_il)` walk its `A` row supplies — every `l` of a
//! dense row, the stored entries of a [`OperandRepr::Csr`] row, the kept
//! slots of a [`OperandRepr::Structured24`] row ([`Compressed24`]) —
//! through one of two row kernels, chosen by `B`:
//!
//! * **sweep** — `acc[j] ← acc[j] ⊕ (a_il ⊗ B[l, j])` over contiguous
//!   rows of a dense `B` ([`simd2_semiring::simd::sweep_row`], a vector
//!   leaf on the backend's frozen kernel ISA with the scalar leaf as its
//!   oracle);
//! * **scatter** — the Gustavson inner loop over the stored entries of
//!   a CSR `B` row.
//!
//! A CSR-declared `B` whose stored density exceeds `SWEEP_B_DENSITY` is
//! swept as dense rows ([`SparseOpCount::swept_b_mmos`] counts them):
//! folding an annihilator term is as exact as skipping it — the
//! all-dense declaration folds every one through the same sweep, and
//! reproduces [`simd2_matrix::reference::mmo`] and the dense engine's
//! chain kernel bit for bit.
//!
//! **The bit-identity contract.** A representation declaration is a
//! schedule hint, never a semantic change: every `(i, j)` starts from the
//! seed `C ⊕ id` and folds its terms in ascending `k` with `⊗` and `⊕` as
//! separate roundings — the one reduction of `simd2_semiring::simd` —
//! and a walk skips only terms that combine through the algebra's
//! annihilator ([`OpKind::no_edge_f32`]). What makes a skip exact is the
//! seed: after it a min/max/or accumulator is never NaN and a `+`
//! accumulator never `-0.0`, so folding the `⊕` identity, a NaN into
//! min/max, or `±0.0` into `+` returns the accumulator's own bits.
//! Skipping `annihilator ⊗ x` therefore leaves the reduction
//! bit-identical whatever `x` is for the five ops whose `⊗` selects or
//! adds (`±∞ + x`, `min`/`max` with `±∞`, `0 ∧ x`: the identity, or the
//! NaN an `∞ − ∞` makes). For the three whose
//! `⊗` multiplies it does so only on the op's value domain, so the
//! backend checks the domain (`Scan`, one branch-free pass over each
//! operand the rule reads: `B` when `A` is declared sparse — the pass
//! that counts its stored entries anyway — and `A` when `B` will be
//! scattered, a swept `B` skipping nothing) and runs a declared operand
//! through the dense walk when skipping its annihilator entries would
//! not be exact:
//!
//! * plus-mul — the *other* operand must be finite at the backend's
//!   precision (`0 × ±∞` and `0 × NaN` are NaN, which `+` propagates;
//!   `0 × x` for finite `x` is `±0.0`, which the seeded accumulator
//!   absorbs);
//! * min-mul — the other operand must carry no sign bit (`+∞ × x` is
//!   `−∞` for negative `x`; for `x ≥ +0` it is `+∞` or a NaN, both of
//!   which `min` drops);
//! * max-mul — a skipped `0 × x` must be exactly `+0.0`, so the other
//!   operand must be finite without a sign bit; those products can still
//!   lift a negative accumulator, so columns that skipped one fold a
//!   single `⊕ 0.0` at the end, and for that one fold to stand for all
//!   of them no product may be `−0.0` (a `±0` tie under `max` goes to
//!   whichever comes first — the seed, if `C` is `−0.0`, with or without
//!   the skipped terms): the declared operand must carry no sign bit
//!   either.
//!
//! Outputs are therefore bit-identical between the dense declaration and
//! every sparse one, for every operand value and at any worker count.
//!
//! **Once per MMO, not per term.** At reduced precision operands are
//! rounded through fp16 once: stored CSR / 2:4 values *after*
//! compression (an entry that underflows to `±0.0` stays a stored
//! term), one fp16 image of a swept `B`. Row panels of the output are
//! disjoint slabs handed to [`simd2::join_workers`], one thread each;
//! a worker compresses and quantises only its own `A` rows, reads the one
//! shared `B` image, and returns its term counters, merged in panel
//! order. A panicking worker is contained and surfaces as
//! [`BackendError::WorkerPanic`] after the remaining workers drain.
//!
//! The Fig 13 pruning experiment (`A` forced through 2:4 magnitude
//! pruning, losses measured honestly) lives on as
//! [`SparseTiledBackend::mmo_pruned`] and [`pruning_quality`].

use std::borrow::Cow;
use std::ops::Range;

use simd2::{
    join_workers, Backend, BackendError, Degrade, MatrixRef, MmoArgs, OpCount, OperandRepr,
    Parallelism, Schedule, TiledBackend,
};
use simd2_matrix::tiling::TileGrid;
use simd2_matrix::{reference, Matrix, ShapeError, ISA_TILE};
use simd2_mxu::Simd2Unit;
use simd2_semiring::kernel::{dispatch_kernel, KernelVisitor, SemiringKernel};
use simd2_semiring::precision::quantize_f16;
use simd2_semiring::simd::{self, KernelIsa, SWEEP_STRIP};
use simd2_semiring::OpKind;

use crate::structured::{prune_2_4, Compressed24};
use crate::Csr;

/// Stored density of a CSR-declared `B` above which its rows are swept
/// as dense rows rather than scattered. Per `A` term a scatter costs
/// `B`'s row population in dependent scalar folds and a sweep costs the
/// row width in vector lanes, so the break-even is a property of `B`'s
/// density alone; EXPERIMENTS.md ("Scatter or sweep") has the sweep that
/// placed it.
const SWEEP_B_DENSITY: f64 = 0.11;

/// Work counters of the sparse backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SparseOpCount {
    /// Whole-matrix operations executed.
    pub matrix_mmos: u64,
    /// 16×16 tile operations executed on the sparse pipe (the
    /// [`SparseTiledBackend::mmo_pruned`] datapath).
    pub tile_mmos: u64,
    /// Operand values discarded by 2:4 pruning across all operations.
    pub pruned_values: u64,
    /// Whole-matrix operations with at least one operand declared
    /// sparse (CSR or 2:4) rather than all-dense.
    pub sparse_mmos: u64,
    /// Of [`Self::sparse_mmos`], those whose CSR-declared `B` was dense
    /// enough to be swept as dense rows instead of scattered.
    pub swept_b_mmos: u64,
    /// Semiring `⊕(⊗)` terms actually folded by the row kernels (a
    /// swept `B` row folds all of its columns).
    pub fma_terms: u64,
    /// Annihilator terms skipped by the walks relative to the dense
    /// `m·n·k` term count.
    pub skipped_terms: u64,
}

impl std::ops::AddAssign for SparseOpCount {
    fn add_assign(&mut self, rhs: Self) {
        self.matrix_mmos += rhs.matrix_mmos;
        self.tile_mmos += rhs.tile_mmos;
        self.pruned_values += rhs.pruned_values;
        self.sparse_mmos += rhs.sparse_mmos;
        self.swept_b_mmos += rhs.swept_b_mmos;
        self.fma_terms += rhs.fma_terms;
        self.skipped_terms += rhs.skipped_terms;
    }
}

/// A representation-aware whole-matrix engine: dense execution
/// bit-identical to the reference oracle, CSR and 2:4 walks for
/// declared operands through the same two row kernels, and row-panel
/// sharding across worker threads.
///
/// # Example
///
/// ```
/// use simd2::Backend;
/// use simd2_matrix::Matrix;
/// use simd2_semiring::OpKind;
/// use simd2_sparse::backend::SparseTiledBackend;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]); // violates 2:4
/// let b = Matrix::filled(4, 1, 1.0);
/// let c = Matrix::zeros(1, 1);
/// let mut be = SparseTiledBackend::new();
///
/// // The trait datapath is exact: no silent pruning.
/// let d = be.mmo(OpKind::PlusMul, &a, &b, &c)?;
/// assert_eq!(d[(0, 0)], 10.0);
///
/// // The Fig 13 experiment prunes `A` to 2:4 first: 3·1 + 4·1.
/// let d = be.mmo_pruned(OpKind::PlusMul, &a, &b, &c).unwrap();
/// assert_eq!(d[(0, 0)], 7.0);
/// assert_eq!(be.sparse_count().pruned_values, 2);
/// # Ok::<(), simd2::BackendError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct SparseTiledBackend {
    unit: Simd2Unit,
    reduced: bool,
    parallelism: Parallelism,
    count: SparseOpCount,
}

/// Rounds `xs` through fp16 in place on `isa` when the backend runs at
/// `reduced` precision.
fn quantize(reduced: bool, isa: KernelIsa, xs: &mut [f32]) {
    if reduced {
        simd::quantize_f16_slice(isa, xs);
    }
}

/// What [`SparseTiledBackend::execute`] reads off an operand in one
/// branch-free pass: the two facts the value-domain rule (module docs)
/// needs, and the stored-entry count that picks scatter or sweep for a
/// sparse `B`. The default — no element seen — is in every op's domain,
/// which is what an operand no decision reads is treated as.
#[derive(Clone, Copy, Default)]
struct Scan {
    /// OR of every element's bits: bit 31 is set iff some element
    /// carries a sign bit.
    any: u32,
    /// Largest magnitude bits: a NaN outranks `∞` outranks any finite
    /// value.
    max_abs: u32,
    /// Elements that differ from the annihilator (by value).
    stored: usize,
}

impl Scan {
    fn of(m: &Matrix, zero: f32) -> Self {
        let mut scan = Self::default();
        for r in 0..m.rows() {
            // Row by row, so the count runs in `u32` lanes beside the
            // other two folds (a row's columns fit `u32`, as in `Csr`).
            let fold = |(any, max_abs, stored): (u32, u32, u32), &x: &f32| {
                let magnitude = x.to_bits() & 0x7fff_ffff;
                (
                    any | x.to_bits(),
                    max_abs.max(magnitude),
                    stored + u32::from(x != zero),
                )
            };
            let (any, max_abs, stored) = m.row(r).iter().fold((0, 0, 0), fold);
            scan.any |= any;
            scan.max_abs = scan.max_abs.max(max_abs);
            scan.stored += stored as usize;
        }
        scan
    }

    fn sign_clear(self) -> bool {
        self.any >> 31 == 0
    }

    /// Whether every element is finite once rounded through fp16 at
    /// `reduced` precision (rounding is monotonic in magnitude, so the
    /// largest one decides).
    fn finite(self, reduced: bool) -> bool {
        let worst = f32::from_bits(self.max_abs);
        (if reduced { quantize_f16(worst) } else { worst }).is_finite()
    }
}

/// `B` rows one sweep block holds: with [`SWEEP_STRIP`] columns of
/// `f32` that is 32 KiB, an L1-resident block every row of the panel
/// folds before the next one is touched.
const SWEEP_K_BLOCK: usize = 128;

/// The `B` operand as the row kernels read it, built once per MMO and
/// shared by every worker.
enum BImage {
    /// Dense rows to sweep, packed strip-major — all `k` rows of the
    /// first [`SWEEP_STRIP`] columns, then of the next — so a block of a
    /// strip's rows is contiguous; quantised at reduced precision.
    Strips(Vec<f32>),
    /// Stored entries to scatter, quantised after compression.
    Csr(Csr),
}

/// Packs `b` strip-major (see [`BImage::Strips`]).
fn pack_strips(b: &Matrix) -> Vec<f32> {
    let mut image = Vec::with_capacity(b.len());
    for j0 in (0..b.cols()).step_by(SWEEP_STRIP) {
        let strip = j0..b.cols().min(j0 + SWEEP_STRIP);
        for l in 0..b.rows() {
            image.extend_from_slice(&b.row(l)[strip.clone()]);
        }
    }
    image
}

/// One worker's `A` rows in walk form, compressed and quantised by the
/// worker itself. Rows are indexed from the start of its panel.
enum AWalk<'a> {
    /// Every `l` in order: the rows themselves (an fp16 copy of them at
    /// reduced precision) against the shared `0..k` index run.
    Dense(Cow<'a, [f32]>, &'a [u32]),
    Csr(Csr),
    Slots(Compressed24),
}

impl AWalk<'_> {
    /// Row `local`'s `(l, a_il)` walk in ascending `l`.
    fn row(&self, local: usize) -> (&[u32], &[f32]) {
        match self {
            AWalk::Dense(rows, iota) => (iota, &rows[local * iota.len()..][..iota.len()]),
            AWalk::Csr(csr) => csr.row(local),
            AWalk::Slots(slots) => slots.row(local),
        }
    }
}

/// Seeds one output row: `acc[j] = C[j] ⊕ id`, where every fold starts.
#[inline]
fn seed_row<K: SemiringKernel>(acc: &mut [f32], c: &[f32]) {
    for (d, &cv) in acc.iter_mut().zip(c) {
        *d = K::seed(cv);
    }
}

/// Row epilogue shared by both kernels: the max-mul `⊕ 0.0` correction
/// on every column that `skipped` a product (a skipped `0·b` still folds
/// a `0.0` into a max-reduce; one fold reproduces them all exactly).
#[inline]
fn finish_row<K: SemiringKernel>(acc: &mut [f32], skipped: impl Fn(usize) -> bool) {
    if matches!(K::KIND, OpKind::MaxMul) {
        for (j, d) in acc.iter_mut().enumerate() {
            if skipped(j) {
                *d = K::reduce(*d, 0.0);
            }
        }
    }
}

/// One panel of one MMO: everything a worker needs to fold output rows
/// `rows` into `out`, monomorphised over the op by [`dispatch_kernel`].
struct Panel<'a> {
    isa: KernelIsa,
    reduced: bool,
    a: MatrixRef<'a>,
    iota: &'a [u32],
    b: &'a BImage,
    c: &'a Matrix,
    rows: Range<usize>,
    out: &'a mut [f32],
}

impl<'a> Panel<'a> {
    /// Compresses and quantises this panel's `A` rows.
    fn walk(&self) -> AWalk<'a> {
        let (a, rows) = (self.a.matrix, self.rows.clone());
        match self.a.repr {
            OperandRepr::Dense => {
                let mut rows =
                    Cow::Borrowed(&a.as_slice()[rows.start * a.cols()..rows.end * a.cols()]);
                if self.reduced {
                    quantize(true, self.isa, rows.to_mut());
                }
                AWalk::Dense(rows, self.iota)
            }
            OperandRepr::Csr { zero_bits } => {
                let mut csr = Csr::from_dense_rows(a, rows, f32::from_bits(zero_bits))
                    .expect("validated non-NaN sentinel");
                quantize(self.reduced, self.isa, csr.values_mut());
                AWalk::Csr(csr)
            }
            OperandRepr::Structured24 { zero_bits } => {
                let mut slots = Compressed24::compress_rows(a, rows, f32::from_bits(zero_bits))
                    .expect("validated 2:4-compliant operand");
                quantize(self.reduced, self.isa, slots.values_mut());
                AWalk::Slots(slots)
            }
        }
    }

    /// Row kernel 1 — `A`-walk × dense-`B` sweep: every output row is
    /// seeded with `C ⊕ id` and folds its walk over contiguous
    /// `B` rows in ascending `l` ([`simd::sweep_row`]). The schedule is
    /// blocked for L1 — strip by strip, [`SWEEP_K_BLOCK`] rows of `B` at
    /// a time, all of the panel's rows against each block — which only
    /// reorders independent `(i, j)` folds: each still sees its own
    /// terms in ascending `l`.
    fn sweep_rows<K: SemiringKernel>(self, walk: &AWalk<'_>, image: &[f32]) -> SparseOpCount {
        let (n, k) = (self.c.cols(), self.a.matrix.cols());
        // One sequential pass over `C`: seeding strip by strip (or row by
        // row) just ahead of the sweep reads it at a row stride instead,
        // and measured 3–7 % slower on a half-dense 512³ walk.
        for (local, i) in self.rows.clone().enumerate() {
            seed_row::<K>(&mut self.out[local * n..][..n], self.c.row(i));
        }
        let mut cursor = vec![0usize; self.rows.len()];
        for j0 in (0..n).step_by(SWEEP_STRIP) {
            let w = SWEEP_STRIP.min(n - j0);
            let strip = &image[k * j0..][..k * w];
            cursor.fill(0);
            for k_end in (0..k).step_by(SWEEP_K_BLOCK).map(|k0| k0 + SWEEP_K_BLOCK) {
                for (local, from) in cursor.iter_mut().enumerate() {
                    let (ks, vals) = walk.row(local);
                    let to = *from + ks[*from..].partition_point(|&l| (l as usize) < k_end);
                    let (ks, vals) = (&ks[*from..to], &vals[*from..to]);
                    let acc = &mut self.out[local * n + j0..][..w];
                    simd::sweep_row(self.isa, K::KIND, ks, vals, strip, w, acc);
                    *from = to;
                }
            }
        }
        let mut count = SparseOpCount::default();
        for local in 0..self.rows.len() {
            let terms = walk.row(local).0.len();
            finish_row::<K>(&mut self.out[local * n..][..n], |_| terms < k);
            count.fma_terms += (terms * n) as u64;
            count.skipped_terms += ((k - terms) * n) as u64;
        }
        count
    }

    /// Row kernel 2 — `A`-walk × CSR-`B` scatter (Gustavson): each walk
    /// term scatters the stored entries of `B` row `l` into the output
    /// row. The walk ascends in `l`, so every `(i, j)` still folds in
    /// ascending `k`. Max-mul keeps a per-column count of folded terms
    /// for its end correction.
    fn scatter_rows<K: SemiringKernel>(self, walk: &AWalk<'_>, b: &Csr) -> SparseOpCount {
        let (n, k) = (self.c.cols(), self.a.matrix.cols());
        let max_mul = matches!(K::KIND, OpKind::MaxMul);
        let mut folded = vec![0usize; if max_mul { n } else { 0 }];
        let mut count = SparseOpCount::default();
        for (local, i) in self.rows.enumerate() {
            let (ks, vals) = walk.row(local);
            let acc = &mut self.out[local * n..][..n];
            seed_row::<K>(acc, self.c.row(i));
            folded.fill(0);
            let mut terms = 0;
            for (&l, &av) in ks.iter().zip(vals) {
                let (cols, bvals) = b.row(l as usize);
                terms += cols.len();
                for (&j, &bv) in cols.iter().zip(bvals) {
                    let d = &mut acc[j as usize];
                    *d = K::reduce(*d, K::combine(av, bv));
                    if max_mul {
                        folded[j as usize] += 1;
                    }
                }
            }
            finish_row::<K>(acc, |j| folded[j] < k);
            count.fma_terms += terms as u64;
            count.skipped_terms += (n * k - terms) as u64;
        }
        count
    }
}

impl KernelVisitor for Panel<'_> {
    type Output = SparseOpCount;

    fn visit<K: SemiringKernel>(self) -> SparseOpCount {
        let walk = self.walk();
        match self.b {
            BImage::Strips(image) => self.sweep_rows::<K>(&walk, image),
            BImage::Csr(b) => self.scatter_rows::<K>(&walk, b),
        }
    }
}

impl SparseTiledBackend {
    /// Creates the backend: exact (fp32) scalar kernels, sequential
    /// schedule, default fp16-input unit for the pruned-pipe path.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-pool configuration for row-panel sharding.
    /// Results are bit-identical at any worker count.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Quantizes `A`/`B` element loads through fp16 (accumulation stays
    /// fp32) — the tile pipe's operand precision, applied uniformly to
    /// the dense and compressed kernels so they stay bit-identical to
    /// each other.
    pub fn with_reduced_precision(mut self, reduced: bool) -> Self {
        self.reduced = reduced;
        self
    }

    /// The configured worker-pool setting.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Extended work counters accumulated so far (a superset of the
    /// trait-level [`Backend::op_count`]).
    pub fn sparse_count(&self) -> SparseOpCount {
        self.count
    }

    /// Executes `D = C ⊕ (A|₂:₄ ⊗ B)`: `A` is pruned to 2:4 structure
    /// (round-tripped through the compressed format, as the hardware
    /// would consume it), then the tiled fp16 unit computes as usual —
    /// the Fig 13 experiment, which *changes the answer* when `A` is
    /// non-compliant and is therefore not part of the [`Backend`]
    /// contract.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when operand shapes are incompatible.
    pub fn mmo_pruned(
        &mut self,
        op: OpKind,
        a: &Matrix,
        b: &Matrix,
        c: &Matrix,
    ) -> Result<Matrix, ShapeError> {
        reference::check_mmo_shapes(a, b, c)?;
        let zero = op.no_edge_f32().unwrap_or(0.0);
        let pruned = prune_2_4(a, op);
        let nnz_before = a.as_slice().iter().filter(|&&x| x != zero).count();
        let compressed =
            Compressed24::compress(&pruned, zero).expect("prune_2_4 output is always compliant");
        self.count.pruned_values += (nnz_before - compressed.nnz()) as u64;

        // Tiled execution on the decompressed operand; the sparse pipe
        // computes the same values in half the cycles.
        let mut tiled = TiledBackend::with_unit(self.unit);
        let d = tiled
            .mmo(op, &compressed.decompress(), b, c)
            .expect("shapes were checked above");
        self.count.tile_mmos += tiled.op_count().tile_mmos;
        self.count.matrix_mmos += 1;
        Ok(d)
    }

    /// Runs `kernel` over row panels of an `m×n` output, sequentially or
    /// on one worker thread per panel, merging per-worker term counters
    /// (the `fma_terms` / `skipped_terms` of a count) in panel order.
    /// Bit-identity across worker counts holds because the panels are
    /// disjoint and each row's fold order never changes.
    fn run_panels<F>(
        &self,
        m: usize,
        n: usize,
        workers: usize,
        kernel: F,
    ) -> Result<(Matrix, SparseOpCount), BackendError>
    where
        F: Fn(Range<usize>, &mut [f32]) -> SparseOpCount + Sync,
    {
        let mut d = Matrix::zeros(m, n);
        // The dense engine's panel split: whole tile rows per worker.
        let grid = TileGrid::new(m, n, 0, ISA_TILE);
        let panels = grid.row_panels(workers.max(1));
        if panels.len() <= 1 {
            let count = kernel(0..m, d.as_mut_slice());
            return Ok((d, count));
        }
        let mut slabs: Vec<(Range<usize>, &mut [f32])> = Vec::with_capacity(panels.len());
        let mut rest = d.as_mut_slice();
        for panel in &panels {
            let rows = grid.panel_rows(panel);
            let (head, tail) = rest.split_at_mut(rows.len() * n);
            slabs.push((rows, head));
            rest = tail;
        }
        let kernel = &kernel;
        let tasks = slabs
            .into_iter()
            .map(|(rows, slab)| move || kernel(rows, slab))
            .collect();
        let (joined, panic) = join_workers(tasks);
        if let Some(err) = panic {
            return Err(err);
        }
        let mut total = SparseOpCount::default();
        for count in joined.into_iter().flatten() {
            total += count;
        }
        Ok((d, total))
    }

    /// Builds the one `B` image every worker of an MMO shares: packed
    /// dense strips when `B` is dense-declared or `swept`, its CSR form
    /// otherwise.
    fn b_image(&self, b: MatrixRef<'_>, swept: bool) -> BImage {
        let (reduced, isa) = (self.reduced, self.unit.kernel_isa());
        match b.repr.zero() {
            Some(zero) if !swept => {
                let mut csr = Csr::from_dense(b.matrix, zero).expect("validated non-NaN sentinel");
                quantize(reduced, isa, csr.values_mut());
                BImage::Csr(csr)
            }
            _ => {
                let mut image = pack_strips(b.matrix);
                quantize(reduced, isa, &mut image);
                BImage::Strips(image)
            }
        }
    }

    /// Folds `D = C ⊕ (A ⊗ B)` over row panels with `B` read through
    /// `image`.
    fn fold(
        &self,
        op: OpKind,
        a: MatrixRef<'_>,
        image: &BImage,
        c: &Matrix,
        workers: usize,
    ) -> Result<(Matrix, SparseOpCount), BackendError> {
        let isa = self.unit.kernel_isa();
        let iota: Vec<u32> = (0..a.matrix.cols() as u32).collect();
        self.run_panels(a.matrix.rows(), c.cols(), workers, |rows, out| {
            let panel = Panel {
                isa,
                reduced: self.reduced,
                a,
                iota: &iota,
                b: image,
                c,
                rows,
                out,
            };
            dispatch_kernel(op, panel)
        })
    }
}

impl Backend for SparseTiledBackend {
    fn name(&self) -> &'static str {
        "sparse-tiled"
    }

    fn reduced_precision(&self) -> bool {
        self.reduced
    }

    /// The step is sharded into row panels; its declared representations
    /// pick its walk and row kernel.
    fn execute(&mut self, step: &MmoArgs<'_>, schedule: Schedule) -> Result<Matrix, BackendError> {
        step.checked_grid()?;
        let workers = schedule.worker_count(self.parallelism);
        let (op, mut a, mut b) = (step.op, step.a_ref(), step.b_ref());
        let (a_sparse, b_sparse) = (!a.repr.is_dense(), !b.repr.is_dense());
        let multiplies = matches!(op, OpKind::PlusMul | OpKind::MinMul | OpKind::MaxMul);
        // A validated sparse declaration means the op has an annihilator.
        let zero = op.no_edge_f32().unwrap_or(0.0);
        let scan = |read: bool, m: &Matrix| {
            if read {
                Scan::of(m, zero)
            } else {
                Scan::default()
            }
        };
        // One pass over `B` serves two readers: its stored density picks
        // scatter or sweep, its values bound what `A`'s walk may skip.
        let sb = scan(b_sparse || (multiplies && a_sparse), b.matrix);
        let swept_b = b_sparse && sb.stored as f64 / b.matrix.len() as f64 > SWEEP_B_DENSITY;
        let scatter_b = b_sparse && !swept_b;
        // The value-domain rule (module docs): an operand whose
        // annihilator entries cannot be skipped exactly walks dense. A
        // swept `B` skips nothing, so `A` is read only against a
        // scattered one (and for max-mul's tie).
        if multiplies && (a_sparse || scatter_b) {
            let sa = scan(scatter_b || op == OpKind::MaxMul, a.matrix);
            let exact = |declared: Scan, other: Scan| match op {
                OpKind::PlusMul => other.finite(self.reduced),
                OpKind::MinMul => other.sign_clear(),
                _ => other.sign_clear() && other.finite(self.reduced) && declared.sign_clear(),
            };
            if !exact(sa, sb) {
                a = MatrixRef::dense(a.matrix);
            }
            if scatter_b && !exact(sb, sa) {
                b = MatrixRef::dense(b.matrix);
            }
        }
        let image = self.b_image(b, swept_b);
        let (d, terms) = self.fold(op, a, &image, step.c, workers)?;
        self.count += SparseOpCount {
            matrix_mmos: 1,
            sparse_mmos: u64::from(a_sparse || b_sparse),
            swept_b_mmos: u64::from(swept_b),
            ..terms
        };
        Ok(d)
    }

    fn degrade(&mut self, rung: Degrade) -> bool {
        match rung {
            Degrade::PinKernelIsa(_) => false,
            Degrade::ForceSequential => self.parallelism.demote(),
        }
    }

    fn op_count(&self) -> OpCount {
        OpCount {
            matrix_mmos: self.count.matrix_mmos,
            tile_mmos: self.count.tile_mmos,
            tile_loads: 0,
            tile_stores: 0,
        }
    }

    fn reset_count(&mut self) {
        self.count = SparseOpCount::default();
    }
}

/// Quality of a sparse-pipe closure versus the dense solution: fraction
/// of entries that still agree exactly, and the worst deviation on the
/// finite entries — the §6.5 trade the paper leaves to pre-processing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PruningQuality {
    /// Fraction of matching entries (exact, including infinities).
    pub exact_match_fraction: f64,
    /// Worst absolute deviation over entries finite in both.
    pub max_finite_deviation: f32,
}

/// Compares a sparse-pipe result against the dense oracle.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn pruning_quality(dense: &Matrix, sparse: &Matrix) -> PruningQuality {
    assert_eq!(dense.shape(), sparse.shape());
    let mut matches = 0usize;
    let mut worst = 0.0f32;
    for (a, b) in dense.as_slice().iter().zip(sparse.as_slice()) {
        if a == b {
            matches += 1;
        } else if a.is_finite() && b.is_finite() {
            worst = worst.max((a - b).abs());
        } else {
            worst = f32::INFINITY;
        }
    }
    PruningQuality {
        exact_match_fraction: matches as f64 / dense.len() as f64,
        max_finite_deviation: worst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use simd2_matrix::gen;
    use simd2_matrix::Graph;
    use simd2_semiring::ALL_OPS;

    /// A seeded operand in `op`'s value domain with roughly
    /// `density` of its entries kept and the rest at `zero`.
    fn sparse_operand(rows: usize, cols: usize, zero: f32, density: f64, seed: u64) -> Matrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| {
            if rng.gen_bool(density) {
                rng.gen_range(0.5..9.5)
            } else {
                zero
            }
        })
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn dense_trait_path_is_bit_identical_to_reference() {
        for (s, &op) in ALL_OPS.iter().enumerate() {
            let a = sparse_operand(9, 7, 0.0, 1.0, 100 + s as u64);
            let b = sparse_operand(7, 11, 0.0, 1.0, 200 + s as u64);
            let c = sparse_operand(9, 11, 0.0, 1.0, 300 + s as u64);
            let mut be = SparseTiledBackend::new();
            let got = be.mmo(op, &a, &b, &c).unwrap();
            let want = reference::mmo(op, &a, &b, &c).unwrap();
            assert_eq!(bits(&got), bits(&want), "{op}");
        }
        let mut be = SparseTiledBackend::new();
        assert_eq!(be.name(), "sparse-tiled");
        assert!(!be.reduced_precision());
        be.mmo(
            OpKind::PlusMul,
            &Matrix::zeros(2, 2),
            &Matrix::zeros(2, 2),
            &Matrix::zeros(2, 2),
        )
        .unwrap();
        assert_eq!(be.op_count().matrix_mmos, 1);
        be.reset_count();
        assert_eq!(be.sparse_count(), SparseOpCount::default());
    }

    #[test]
    fn every_sparse_kernel_is_bit_identical_to_the_dense_datapath() {
        // All ops with a no-edge annihilator (plus-norm has no sparse
        // lowering), every operand-side combination of declarations.
        for (s, &op) in ALL_OPS.iter().enumerate() {
            let Some(zero) = op.no_edge_f32() else {
                continue;
            };
            let a = sparse_operand(17, 13, zero, 0.3, 400 + s as u64);
            let b = sparse_operand(13, 15, zero, 0.3, 500 + s as u64);
            let c = sparse_operand(17, 15, zero, 0.8, 600 + s as u64);
            let mut be = SparseTiledBackend::new();
            let want = be.mmo(op, &a, &b, &c).unwrap();
            let csr = OperandRepr::csr(zero);
            for (ra, rb) in [
                (csr, OperandRepr::Dense),
                (OperandRepr::Dense, csr),
                (csr, csr),
            ] {
                let got = be
                    .mmo_ref(
                        op,
                        MatrixRef::new(&a, ra),
                        MatrixRef::new(&b, rb),
                        MatrixRef::dense(&c),
                    )
                    .unwrap();
                assert_eq!(bits(&got), bits(&want), "{op} {}×{}", ra.name(), rb.name());
            }
            assert!(be.sparse_count().sparse_mmos >= 3, "{op}");
            assert!(be.sparse_count().skipped_terms > 0, "{op}");
        }
    }

    #[test]
    fn structured_fast_path_is_bit_identical_to_dense() {
        for op in [
            OpKind::PlusMul,
            OpKind::MinPlus,
            OpKind::MaxMul,
            OpKind::OrAnd,
        ] {
            let zero = op.no_edge_f32().unwrap();
            let a = prune_2_4(&sparse_operand(12, 20, zero, 0.9, 7), op);
            let b = sparse_operand(20, 9, zero, 0.9, 8);
            let c = sparse_operand(12, 9, zero, 0.9, 9);
            let mut be = SparseTiledBackend::new();
            let want = be.mmo(op, &a, &b, &c).unwrap();
            let got = be
                .mmo_ref(
                    op,
                    MatrixRef::new(&a, OperandRepr::structured(zero)),
                    MatrixRef::dense(&b),
                    MatrixRef::dense(&c),
                )
                .unwrap();
            assert_eq!(bits(&got), bits(&want), "{op}");
        }
    }

    #[test]
    fn sharded_panels_are_bit_identical_at_every_worker_count() {
        let op = OpKind::MinPlus;
        let zero = op.no_edge_f32().unwrap();
        let a = sparse_operand(33, 29, zero, 0.2, 42);
        let b = sparse_operand(29, 31, zero, 0.2, 43);
        let c = Matrix::filled(33, 31, zero);
        let mut seq = SparseTiledBackend::new();
        let want = seq
            .mmo_ref(
                op,
                MatrixRef::new(&a, OperandRepr::csr(zero)),
                MatrixRef::new(&b, OperandRepr::csr(zero)),
                MatrixRef::dense(&c),
            )
            .unwrap();
        for workers in [1, 2, 4, 8] {
            let mut be = SparseTiledBackend::new().with_parallelism(Parallelism::Threads(workers));
            let got = be
                .mmo_ref(
                    op,
                    MatrixRef::new(&a, OperandRepr::csr(zero)),
                    MatrixRef::new(&b, OperandRepr::csr(zero)),
                    MatrixRef::dense(&c),
                )
                .unwrap();
            assert_eq!(bits(&got), bits(&want), "workers={workers}");
            // Panel-order merge keeps counters exact, not approximate.
            assert_eq!(be.sparse_count(), seq.sparse_count(), "workers={workers}");
        }
    }

    #[test]
    fn reduced_precision_keeps_sparse_and_dense_paths_aligned() {
        let op = OpKind::PlusMul;
        let a = sparse_operand(10, 14, 0.0, 0.4, 77);
        let b = sparse_operand(14, 6, 0.0, 0.4, 78);
        let c = sparse_operand(10, 6, 0.0, 1.0, 79);
        let mut be = SparseTiledBackend::new().with_reduced_precision(true);
        assert!(be.reduced_precision());
        let want = be.mmo(op, &a, &b, &c).unwrap();
        let got = be
            .mmo_ref(
                op,
                MatrixRef::new(&a, OperandRepr::csr(0.0)),
                MatrixRef::dense(&b),
                MatrixRef::dense(&c),
            )
            .unwrap();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn term_accounting_is_exact_for_csr_a() {
        let op = OpKind::PlusMul;
        let a = sparse_operand(6, 10, 0.0, 0.3, 13);
        let b = sparse_operand(10, 4, 0.0, 1.0, 14);
        let c = Matrix::zeros(6, 4);
        let mut be = SparseTiledBackend::new();
        be.mmo_ref(
            op,
            MatrixRef::new(&a, OperandRepr::csr(0.0)),
            MatrixRef::dense(&b),
            MatrixRef::dense(&c),
        )
        .unwrap();
        let count = be.sparse_count();
        // Folded + skipped terms together tile the dense m·n·k space.
        assert_eq!(count.fma_terms + count.skipped_terms, 6 * 4 * 10);
        let nnz = a.as_slice().iter().filter(|&&x| x != 0.0).count() as u64;
        assert_eq!(count.fma_terms, nnz * 4);
    }

    #[test]
    fn invalid_declarations_are_rejected() {
        let a = Matrix::zeros(4, 4);
        let c = Matrix::zeros(4, 4);
        let mut be = SparseTiledBackend::new();
        // Wrong sentinel for the op's annihilator.
        let err = be
            .mmo_ref(
                OpKind::MinPlus,
                MatrixRef::new(&a, OperandRepr::csr(0.0)),
                MatrixRef::dense(&a),
                MatrixRef::dense(&c),
            )
            .unwrap_err();
        assert!(matches!(err, BackendError::Repr { .. }), "{err}");
        // Non-compliant 2:4 declaration.
        let dense_row = Matrix::filled(4, 4, 1.0);
        let err = be
            .mmo_ref(
                OpKind::PlusMul,
                MatrixRef::new(&dense_row, OperandRepr::structured(0.0)),
                MatrixRef::dense(&a),
                MatrixRef::dense(&c),
            )
            .unwrap_err();
        assert!(err.to_string().contains("2:4"), "{err}");
        assert_eq!(be.sparse_count().matrix_mmos, 0);
    }

    #[test]
    fn force_sequential_demotes_the_pool() {
        let mut be = SparseTiledBackend::new().with_parallelism(Parallelism::Threads(4));
        assert_eq!(be.parallelism(), Parallelism::Threads(4));
        assert!(be.degrade(Degrade::ForceSequential));
        assert!(!be.degrade(Degrade::ForceSequential));
        assert_eq!(be.parallelism(), Parallelism::Sequential);
    }

    /// The sweep that places `SWEEP_B_DENSITY` (EXPERIMENTS.md, "Scatter
    /// or sweep"): the same CSR × CSR operands through both row kernels,
    /// image build included, at reduced precision on one thread.
    ///
    /// `cargo test --release -p simd2-sparse -- --ignored --nocapture scatter_or_sweep`
    #[test]
    #[ignore = "timing sweep, not a check: run with --release --ignored --nocapture"]
    fn scatter_or_sweep() {
        let n = 512;
        let be = SparseTiledBackend::new().with_reduced_precision(true);
        println!("op        B density  scatter ms  sweep ms  scatter/sweep");
        for op in [OpKind::PlusMul, OpKind::MinPlus] {
            let zero = op.no_edge_f32().unwrap();
            let c = Matrix::filled(n, n, op.reduce_identity_f32());
            for density in [0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.50] {
                let a = sparse_operand(n, n, zero, density, 5);
                let b = sparse_operand(n, n, zero, density, 6);
                let (a, b) = (
                    MatrixRef::new(&a, OperandRepr::csr(zero)),
                    MatrixRef::new(&b, OperandRepr::csr(zero)),
                );
                let time = |swept: bool| {
                    let run = || be.fold(op, a, &be.b_image(b, swept), &c, 1).unwrap().0;
                    let best = (0..15).map(|_| {
                        let start = std::time::Instant::now();
                        std::hint::black_box(run());
                        start.elapsed().as_secs_f64()
                    });
                    1e3 * best.fold(f64::INFINITY, f64::min)
                };
                let (scatter, sweep) = (time(false), time(true));
                assert_eq!(
                    bits(&be.fold(op, a, &be.b_image(b, false), &c, 1).unwrap().0),
                    bits(&be.fold(op, a, &be.b_image(b, true), &c, 1).unwrap().0)
                );
                println!(
                    "{:<9} {density:<10.2} {scatter:<11.3} {sweep:<9.3} {:.2}",
                    op.name(),
                    scatter / sweep
                );
            }
        }
    }

    #[test]
    fn pruning_count_is_reported() {
        let a = Matrix::filled(4, 8, 1.0); // every group violates 2:4
        let b = Matrix::filled(8, 4, 1.0);
        let c = Matrix::zeros(4, 4);
        let mut be = SparseTiledBackend::new();
        be.mmo_pruned(OpKind::PlusMul, &a, &b, &c).unwrap();
        // 4 rows × 2 groups × 2 pruned each.
        assert_eq!(be.sparse_count().pruned_values, 16);
        assert_eq!(be.sparse_count().matrix_mmos, 1);
        assert!(be.sparse_count().tile_mmos > 0);
    }

    #[test]
    fn dense_compliant_inputs_pass_through_unchanged() {
        // A graph sparse enough to satisfy 2:4 naturally loses nothing.
        let g = gen::gnp_graph(32, 0.03, 1.0, 9.0, 3);
        let adj = g.adjacency(OpKind::MinPlus);
        if !crate::structured::is_2_4_compliant(&adj, f32::INFINITY) {
            return; // rare seed; the property is covered below anyway
        }
        let c = Matrix::filled(32, 32, f32::INFINITY);
        let mut sparse_be = SparseTiledBackend::new();
        let got = sparse_be
            .mmo_pruned(OpKind::MinPlus, &adj, &adj, &c)
            .unwrap();
        let want = simd2_matrix::reference::mmo(OpKind::MinPlus, &adj, &adj, &c).unwrap();
        assert_eq!(got, want);
        assert_eq!(sparse_be.sparse_count().pruned_values, 0);
    }

    #[test]
    fn pruned_result_is_a_relaxation_for_min_plus() {
        // Dropping edges can only lengthen (or disconnect) shortest
        // paths — never shorten them.
        let g = gen::connected_gnp_graph(24, 0.4, 1.0, 9.0, 7);
        let adj = g.adjacency(OpKind::MinPlus);
        let c = Matrix::filled(24, 24, f32::INFINITY);
        let dense = simd2_matrix::reference::mmo(OpKind::MinPlus, &adj, &adj, &c).unwrap();
        let sparse = SparseTiledBackend::new()
            .mmo_pruned(OpKind::MinPlus, &adj, &adj, &c)
            .unwrap();
        for (d, s) in dense.as_slice().iter().zip(sparse.as_slice()) {
            assert!(s >= d, "pruning shortened a path: {s} < {d}");
        }
    }

    #[test]
    fn quality_metric_bounds() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let same = pruning_quality(&a, &a.clone());
        assert_eq!(same.exact_match_fraction, 1.0);
        assert_eq!(same.max_finite_deviation, 0.0);
        let b = Matrix::from_rows(&[&[1.0, 2.5]]);
        let q = pruning_quality(&a, &b);
        assert_eq!(q.exact_match_fraction, 0.5);
        assert_eq!(q.max_finite_deviation, 0.5);
        let inf = Matrix::from_rows(&[&[1.0, f32::INFINITY]]);
        assert_eq!(
            pruning_quality(&a, &inf).max_finite_deviation,
            f32::INFINITY
        );
    }

    #[test]
    fn compliant_graph_closure_is_bit_identical_on_the_sparse_pipe() {
        // A graph whose rows are 2:4-compliant by construction (diagonal
        // plus edges to v+1 and v+17: at most two entries per aligned
        // group) passes through pruning untouched, so the sparse pipe's
        // closure is bit-identical to the dense one — the regime the
        // paper's "inputs are pre-processed" assumption targets.
        let n = 48;
        let mut g = Graph::new(n);
        for v in 0..n {
            g.add_edge(v, (v + 1) % n, 1.0 + (v % 7) as f32);
            g.add_edge(v, (v + 17) % n, 2.0 + (v % 5) as f32);
        }
        let adj = g.adjacency(OpKind::MinPlus);
        assert!(crate::structured::is_2_4_compliant(&adj, f32::INFINITY));
        let run = |sparse: bool| {
            let mut dist = adj.clone();
            for _ in 0..n {
                let next = if sparse {
                    SparseTiledBackend::new()
                        .mmo_pruned(OpKind::MinPlus, &adj, &dist, &dist)
                        .unwrap()
                } else {
                    simd2_matrix::reference::mmo(OpKind::MinPlus, &adj, &dist, &dist).unwrap()
                };
                if next == dist {
                    break;
                }
                dist = next;
            }
            dist
        };
        let dense = run(false);
        let sparse = run(true);
        let q = pruning_quality(&dense, &sparse);
        assert_eq!(q.exact_match_fraction, 1.0);
        assert_eq!(q.max_finite_deviation, 0.0);
    }

    #[test]
    fn noncompliant_graph_closure_quality_is_measured_honestly() {
        // On a denser graph, 2:4 pruning drops real edges; distances can
        // only grow, and the quality metric reports how many pairs moved.
        let g = {
            let mut g = Graph::new(48);
            let base = gen::gnp_graph(48, 4.0 / 48.0, 2.0, 9.0, 11);
            for (s, d, w) in base.edges() {
                g.add_edge(s, d, w);
            }
            for v in 0..48 {
                g.add_edge(v, (v + 1) % 48, 1.0);
            }
            g
        };
        let adj = g.adjacency(OpKind::MinPlus);
        let run = |sparse: bool| {
            let mut dist = adj.clone();
            for _ in 0..48 {
                let next = if sparse {
                    SparseTiledBackend::new()
                        .mmo_pruned(OpKind::MinPlus, &adj, &dist, &dist)
                        .unwrap()
                } else {
                    simd2_matrix::reference::mmo(OpKind::MinPlus, &adj, &dist, &dist).unwrap()
                };
                if next == dist {
                    break;
                }
                dist = next;
            }
            dist
        };
        let dense = run(false);
        let sparse = run(true);
        let q = pruning_quality(&dense, &sparse);
        // The backbone (smallest weights) survives pruning, so everything
        // stays reachable; a meaningful fraction of distances still agree
        // and none improved.
        assert!(q.exact_match_fraction > 0.4, "{}", q.exact_match_fraction);
        assert!(q.max_finite_deviation.is_finite(), "no pair disconnected");
        // Distances never improve beyond fp16 operand-requantisation
        // noise (the sparse path quantises `dist` each iteration).
        for (d, sp) in dense.as_slice().iter().zip(sparse.as_slice()) {
            assert!(*sp >= d - 0.05 * d.abs(), "{sp} < {d}");
        }
    }
}
