//! The row walks of [`TiledBackend`](super::TiledBackend): how a step
//! whose operands store few entries is folded without its annihilator
//! terms.
//!
//! **The engine measures; nobody declares.** Every step of a
//! coordinate-free unit goes through [`RowWalk::choose`], which reads
//! the operands themselves — no caller, plan or pass says what they
//! store. A walk is picked, not a kernel: every output row folds the
//! `(l, a_il)` walk its `A` row supplies — every `l`, or only the stored
//! entries (a CSR image of the row; a 2:4 operand's are at most two per
//! group of four, and no different to walk) — through one of two row
//! kernels, chosen by `B`:
//!
//! * **sweep** — `acc[j] ← acc[j] ⊕ (a_il ⊗ B[l, j])` over contiguous
//!   rows of a dense `B` ([`simd2_semiring::simd::sweep_row`], a vector
//!   leaf on the unit's kernel ISA with the scalar leaf as its oracle);
//! * **scatter** — the Gustavson inner loop over the stored entries of
//!   a CSR image of `B`; a dense `A` row's walk visits only the `B` rows
//!   that store something, from the row list built with the image.
//!
//! A `B` whose stored density exceeds [`SWEEP_B_DENSITY`] is swept as
//! dense rows ([`RowCount::swept_b_mmos`] counts every swept walk):
//! folding an annihilator term is as exact as skipping it.
//!
//! **Or-and walks bits.** An or-and step reads its operands only for
//! truthiness and writes only `1.0` / `+0.0`, so every one takes the
//! bit walk ([`BitRows`]) before any sample or scan, whatever its
//! operands store: `B`'s rows pass through the pack hook and become bit
//! rows, 64 elements a word; each output row starts from the truthiness
//! of its raw `C` row, ORs in the `B` bit row of every truthy element of
//! its hook-quantised `A` row whose `B` row holds something, and is
//! written once. OR is exact, commutative and idempotent, so the fold
//! order the reduction fixes cannot show: the bits are the chain's, by
//! the argument its lane masks already rest on (`simd2_semiring::simd`,
//! "Bit identity"). [`RowCount::bit_mmos`] counts these steps; they
//! count no terms, and the walk-or-chain rule below never sees or-and.
//!
//! **[`row_kernel`] says what pays.** A row kernel folds fewer terms than
//! the tile chain, each more slowly, so a walk is worth taking only while
//! the operands store little enough — how little is measured per chain
//! kernel ([`WALK_A_DENSITY`], [`SCATTER_TERMS`]) — and the tile chain
//! itself leaves out the tile pairs an all-annihilator tile decides, so
//! the walk races a chain that folds only the pairs it keeps
//! ([`kept_pairs`], [`CHAIN_FIXED`]). The measurement stops as soon as
//! the chain is certain: a sample of each operand's tile-row heads
//! ([`dense_by_sample`]) settles a dense step in two rows; only operands
//! a walk might skip are read whole ([`Scanned`]), and their empty tiles
//! only where the stored counts leave the verdict open.
//!
//! **The bit-identity contract.** Which walk runs is a schedule, never a
//! semantic change: every `(i, j)` starts from the
//! seed `C ⊕ id` and folds its terms in ascending `k` with `⊗` and `⊕` as
//! separate roundings — the one reduction of `simd2_semiring::simd`,
//! the chain kernel's too — and a walk skips only terms that combine
//! through the algebra's annihilator ([`OpKind::no_edge_f32`]). What
//! makes a skip exact is the seed: after it a min/max/or accumulator is
//! never NaN and a `+` accumulator never `-0.0`, so folding the `⊕`
//! identity, a NaN into min/max, or `±0.0` into `+` returns the
//! accumulator's own bits. Skipping `annihilator ⊗ x` therefore leaves
//! the reduction bit-identical whatever `x` is for the five ops whose
//! `⊗` selects or adds (`±∞ + x`, `min`/`max` with `±∞`, `0 ∧ x`: the
//! identity, or the NaN an `∞ − ∞` makes). For the three whose `⊗`
//! multiplies it does so only on the op's value domain, so the choice
//! checks the domain ([`simd::scan`], one pass on the unit's vector tier
//! over each operand the rule reads — both, for those three ops — the
//! pass that counts the stored entries anyway) and walks an operand
//! whole when skipping its annihilator entries would not be exact —
//! [`skip_rule`], the one table the tile chain reads too, when it leaves
//! out a tile pair one of whose tiles holds nothing but the annihilator:
//!
//! * plus-mul — the *other* operand must be finite at the unit's
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
//!   the skipped terms): the skipped operand must carry no sign bit
//!   either.
//!
//! Outputs are therefore bit-identical between the tile chain and every
//! row walk, for every operand value and at any worker count. (The tile
//! chain skips no max-mul pair: its one trailing `⊕ 0.0` is exact only
//! over whole operands.)
//!
//! **Once per MMO, not per term.** Each operand a decision reads whole is
//! scanned once, row by row ([`simd::scan`]): the facts the domain rule
//! reads, and each row's stored count, which prices the walk and sizes
//! every CSR image exactly — one [`simd::compact`] per row, the vector
//! compaction leaf of the unit's kernel tier (the scalar leaf on the
//! forced-scalar leg). Operands pass through the unit's pack hook
//! ([`MmoUnit::quantize_packed`]) once: stored values *after*
//! compression (an entry that underflows to `±0.0` stays a stored
//! term), one image of a swept `B`. A worker compresses and quantises
//! only its own `A` rows, reads the one shared `B` image, and returns
//! its term counters.

use std::borrow::Cow;
use std::ops::Range;

use simd2_matrix::{Csr, Matrix, ISA_TILE};
use simd2_mxu::MmoUnit;
use simd2_semiring::kernel::{dispatch_kernel, KernelVisitor, SemiringKernel};
use simd2_semiring::simd::{self, KernelIsa, Scan, SWEEP_STRIP};
use simd2_semiring::OpKind;

use super::MmoArgs;

/// Stored density of a `B` above which its rows are swept as dense rows
/// rather than scattered. Per `A` term a scatter costs
/// `B`'s row population in dependent scalar folds and a sweep costs the
/// row width in vector lanes, so the break-even is a property of `B`'s
/// density alone; EXPERIMENTS.md ("Scatter or sweep") has the sweep that
/// placed it.
const SWEEP_B_DENSITY: f64 = 0.07;

/// Stored fraction of a walked `A` up to which an `A`-walk × sweep beats
/// a tile chain that folds every pair: the sweep folds `A`'s stored
/// fraction of the terms at the sweep leaf's rate, the chain all of them
/// at the chain kernel's, so the break-even is the ratio of the two
/// rates. EXPERIMENTS.md ("Walk or chain") has the sweep that placed it
/// (`walk_or_chain` below). Or-and never races the chain: it takes the
/// bit walk ([`BitRows`]).
const WALK_A_DENSITY: f64 = 0.4;

/// What of a tile chain's time does not shrink with the pairs it leaves
/// out — packing every tile and reading its record in the same pass,
/// loading `C`, storing `D` — as
/// a share of the pair folds of a chain that leaves out none: a chain
/// that folds `kept` of its pairs costs `(CHAIN_FIXED + kept) /
/// (CHAIN_FIXED + 1)` of a full one. Placed by the same sweep's
/// block-sparse and closure-app points.
const CHAIN_FIXED: f64 = 0.33;

/// Fraction of the `m·n·k` terms up to which a scatter beats a tile
/// chain that folds every pair where `A`'s walk alone would not pay: a scattered term is a
/// dependent scalar fold, a chained one a vector lane, so the break-even
/// is again a ratio of two rates. Placed by the same sweep.
const SCATTER_TERMS: f64 = 0.03;
/// What looking up one `B` row costs a scatter, in scattered terms:
/// every walked `(i, l)` whose row `l` stores something pays it however
/// few entries that is, so a narrow output (the chain's cost per pair is
/// its width) never pays. (A dense `A` row's walk visits only those
/// rows; a CSR one meets an empty row at the price of one bounds read.)
const SCATTER_ROW_TERMS: f64 = 3.0;

/// How many times the most lenient walk's bound the rows of an
/// operand's sample ([`dense_by_sample`]) must store before the step
/// leaves it to the tile chain unread: a sample is one row in up to
/// sixteen, so its fraction strays from the operand's, and the margin
/// keeps that stray from losing a walk.
const SAMPLE_MARGIN: f64 = 2.0;
/// Rows a sample holds at least, where the operand has them.
const SAMPLE_ROWS: usize = 4;

/// `B` rows one sweep block holds: with [`SWEEP_STRIP`] columns of
/// `f32` that is 32 KiB, an L1-resident block every row of the panel
/// folds before the next one is touched.
const SWEEP_K_BLOCK: usize = 128;

/// What the row walks of a [`TiledBackend`](super::TiledBackend) have
/// done, beside its [`OpCount`](super::OpCount) (which stays the logical
/// tile arithmetic of the grid whichever walk ran).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowCount {
    /// Whole-matrix operations that ran as a row walk: some operand
    /// skippable and sparse enough for the walk to beat the tile chain.
    pub sparse_mmos: u64,
    /// Whole-matrix or-and operations that ran as the bit walk — every
    /// or-and step of a coordinate-free unit. Not among
    /// [`Self::sparse_mmos`], and adding nothing to the term counters.
    pub bit_mmos: u64,
    /// Of [`Self::sparse_mmos`], those that swept `B` as dense rows
    /// rather than scattering its stored entries.
    pub swept_b_mmos: u64,
    /// Semiring `⊕(⊗)` terms the row kernels folded (a swept `B` row
    /// folds all of its columns).
    pub fma_terms: u64,
    /// Annihilator terms the walks skipped relative to the dense
    /// `m·n·k` term count.
    pub skipped_terms: u64,
}

/// How the terms an operand's annihilator entries form may be skipped —
/// what [`skip_rule`] says.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Skip {
    /// Not exactly: every such term is folded.
    Never,
    /// Every such term folds to the accumulator's own bits.
    Exact,
    /// Every such term is exactly `+0.0` (max-mul): skipping them is
    /// exact with one trailing `⊕ +0.0` on each output that skipped one,
    /// as long as no product of the whole fold is `−0.0` — which the
    /// skipped operand being sign-clear guarantees when it is the whole
    /// operand one of the product's factors comes from.
    TrailingZero,
}

/// The value-domain rule (module docs), the one table both skips read —
/// a row walk's over an operand's annihilator entries, and the tile
/// chain's over a tile pair one of whose tiles is all annihilator: how
/// `op`'s terms through the annihilator entries of the elements
/// `skipped` scanned may be skipped, given what `other` scanned — the
/// elements each of those entries meets, as the unit's pack hook leaves
/// them (see [`at_precision`]).
pub(super) fn skip_rule(op: OpKind, skipped: Scan, other: Scan) -> Skip {
    match op {
        OpKind::MinPlus | OpKind::MaxPlus | OpKind::MinMax | OpKind::MaxMin | OpKind::OrAnd => {
            Skip::Exact
        }
        OpKind::PlusMul if other.finite() => Skip::Exact,
        OpKind::MinMul if other.sign_clear() => Skip::Exact,
        OpKind::MaxMul if other.sign_clear() && other.finite() && skipped.sign_clear() => {
            Skip::TrailingZero
        }
        // Out of the domain, or plus-norm (no annihilator).
        _ => Skip::Never,
    }
}

/// `scan` of an operand as it reads once through `unit`'s pack hook, as
/// far as [`skip_rule`] looks: every quantiser is monotonic in magnitude
/// and keeps the sign bit, so quantising the largest element gives the
/// largest quantised one. (`stored` stays the count before the hook: an
/// entry that underflows to the annihilator stays a stored term.)
fn at_precision(scan: Scan, unit: &impl MmoUnit) -> Scan {
    let mut worst = [scan.largest()];
    unit.quantize_packed(&mut worst);
    Scan {
        max_abs: worst[0].to_bits() & 0x7fff_ffff,
        ..scan
    }
}

/// Whether `m` is too dense for any walk to skip it, by a sample: every
/// `stride`-th row — the first row of each tile row, or of every
/// [`SAMPLE_ROWS`]-th row of an operand too short for that to read as
/// many — in order, until the rows read store more than `limit` of
/// their elements (dense) or the sample runs out (not). A dense operand
/// is told by its first row.
fn dense_by_sample(isa: KernelIsa, zero: f32, m: &Matrix, limit: f64) -> bool {
    let stride = (m.rows() / SAMPLE_ROWS).clamp(1, ISA_TILE);
    let mut stored = 0;
    (0..m.rows()).step_by(stride).enumerate().any(|(read, r)| {
        stored += simd::scan(isa, zero, m.row(r)).stored;
        stored as f64 > limit * ((read + 1) * m.cols()) as f64
    })
}

/// One pass over an operand, row by row on the unit's vector tier: the
/// facts [`skip_rule`] reads, and how many elements each row stores —
/// which prices a walk, sizes the CSR image of any run of rows exactly
/// and says which rows store nothing.
struct Scanned {
    /// The whole operand's facts, as its pack hook leaves them
    /// ([`at_precision`]).
    scan: Scan,
    /// Elements that differ from the annihilator in rows `..r`, for
    /// every `r` through the row count.
    ends: Vec<usize>,
}

impl Scanned {
    /// The pass over `m`.
    fn of(unit: &impl MmoUnit, zero: f32, m: &Matrix) -> Self {
        let isa = unit.kernel_isa();
        let mut scan = Scan::default();
        let mut ends = Vec::with_capacity(m.rows() + 1);
        ends.push(0);
        for r in 0..m.rows() {
            scan = scan.merge(simd::scan(isa, zero, m.row(r)));
            ends.push(scan.stored);
        }
        Self {
            scan: at_precision(scan, unit),
            ends,
        }
    }

    /// The row pointer of a CSR image of `rows` (see
    /// [`Csr::from_dense_rows`]).
    fn row_ptr(&self, rows: Range<usize>) -> Vec<usize> {
        let base = self.ends[rows.start];
        self.ends[rows.start..=rows.end]
            .iter()
            .map(|end| end - base)
            .collect()
    }

    /// The rows that store something, in ascending order.
    fn occupied(&self) -> impl Iterator<Item = u32> + '_ {
        (0..)
            .zip(self.ends.windows(2))
            .filter(|(_, w)| w[1] > w[0])
            .map(|(l, _)| l)
    }

    /// The stored fraction of `m`, which this pass read.
    fn stored_fraction(&self, m: &Matrix) -> f64 {
        self.scan.stored as f64 / m.len().max(1) as f64
    }

    /// The fraction of `m`'s rows that store something.
    fn occupied_fraction(&self, m: &Matrix) -> f64 {
        self.occupied().count() as f64 / m.rows().max(1) as f64
    }
}

/// Per tile of the engine's grid over `m`, row-major: whether it holds
/// something other than `zero` — by bits, so a `-0.0` against a `+0.0`
/// annihilator counts as something: an estimate's rounding, toward a
/// chain that skips less. Each tile is read only until a row of it
/// holds something, so a dense operand costs its tile rows' first rows.
fn occupied_tiles(m: &Matrix, zero: f32) -> Vec<bool> {
    let (rows, cols, zero) = (m.rows(), m.cols(), zero.to_bits());
    let tile_cols = cols.div_ceil(ISA_TILE);
    let mut tiles = Vec::with_capacity(rows.div_ceil(ISA_TILE) * tile_cols);
    for r0 in (0..rows).step_by(ISA_TILE) {
        for c0 in (0..cols).step_by(ISA_TILE) {
            let w = ISA_TILE.min(cols - c0);
            // An OR of differences, not an early exit per element.
            let holds = |r: usize| {
                m.row(r)[c0..c0 + w]
                    .iter()
                    .fold(0, |any, x| any | (x.to_bits() ^ zero))
                    != 0
            };
            tiles.push((r0..rows.min(r0 + ISA_TILE)).any(holds));
        }
    }
    tiles
}

/// The fraction of the `(ti, tk, tj)` tile pairs of `A ⊗ B` the tile
/// chain of a coordinate-free unit folds: it leaves out a pair one of
/// whose tiles stores nothing where [`skip_rule`] lets that tile's terms
/// go exactly — read here against the facts of the whole other operand,
/// which stand in for the partner tile's.
fn kept_pairs(op: OpKind, zero: f32, (a, fa): (&Matrix, Scan), (b, fb): (&Matrix, Scan)) -> f64 {
    let (mt, kt, nt) = (
        a.rows().div_ceil(ISA_TILE),
        a.cols().div_ceil(ISA_TILE),
        b.cols().div_ceil(ISA_TILE),
    );
    let empty = Scan::default();
    let (a_skips, b_skips) = (
        skip_rule(op, empty, fb) == Skip::Exact,
        skip_rule(op, empty, fa) == Skip::Exact,
    );
    let (ta, tb) = (occupied_tiles(a, zero), occupied_tiles(b, zero));
    let skipped: usize = (0..kt)
        .map(|tk| {
            let ea = (0..mt).filter(|ti| a_skips && !ta[ti * kt + tk]).count();
            let eb = (0..nt).filter(|tj| b_skips && !tb[tk * nt + tj]).count();
            ea * nt + eb * mt - ea * eb
        })
        .sum();
    1.0 - skipped as f64 / (mt * kt * nt).max(1) as f64
}

/// The two row kernels (module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RowKernel {
    /// `A`-walk × dense-`B` sweep.
    Sweep,
    /// `A`-walk × CSR-`B` scatter.
    Scatter,
}

/// The walk-or-chain rule: the row kernel that folds one step of
/// output width `n` faster than the tile chain does, given the fraction
/// of each operand a walk would fold — its stored fraction where the
/// walk skips the rest, `1.0` where it does not — the fraction of `B`'s
/// rows a scatter would look up, those that store something (`1.0`
/// where `B` is not skipped), and the fraction of its tile pairs the
/// chain would fold, `kept` ([`kept_pairs`]). `None` is the chain.
///
/// The one place that decision is made for every op but or-and (which
/// always takes the bit walk). It reads the operands only — never the
/// unit's kernel tier — so every dispatch leg lowers a step the same way.
fn row_kernel(
    a_stored: f64,
    b_stored: f64,
    b_occupied: f64,
    kept: f64,
    n: usize,
) -> Option<RowKernel> {
    // Both walks race a chain that folds `kept` of the pairs.
    let chain = (CHAIN_FIXED + kept) / (CHAIN_FIXED + 1.0);
    let sweep_pays = a_stored <= WALK_A_DENSITY * chain;
    // Per walked `(i, l)`: `B`'s share of `n` terms, and one row lookup
    // where row `l` stores something.
    let lookups = b_occupied * SCATTER_ROW_TERMS / n as f64;
    let scatter_pays = a_stored * (b_stored + lookups) <= SCATTER_TERMS * chain;
    // Under a walk that pays, `B`'s density alone picks the kernel.
    if b_stored <= SWEEP_B_DENSITY && (sweep_pays || scatter_pays) {
        Some(RowKernel::Scatter)
    } else {
        sweep_pays.then_some(RowKernel::Sweep)
    }
}

/// The `B` operand as the row kernels read it, built once per MMO and
/// shared by every worker.
enum BImage {
    /// Dense rows to sweep, packed strip-major — all `k` rows of the
    /// first [`SWEEP_STRIP`] columns, then of the next — so a block of a
    /// strip's rows is contiguous; quantised.
    Strips(Vec<f32>),
    /// Stored entries to scatter, quantised after compression, and the
    /// rows that store any in ascending order — all a dense `A` row's
    /// walk visits.
    Csr(Csr, Vec<u32>),
    /// Or-and's truthiness bits, after the pack hook.
    Bits(BitRows),
}

/// `B` as or-and's bit walk reads it: every row through the unit's pack
/// hook, then as bits — `x != 0.0`, NaN truthy, the rule the chain
/// leaves compare with ([`simd::truthy_bits`]) — and every group of
/// [`simd::TABLE_GROUP`] rows as the [`simd::TABLE_ENTRIES`] ORs of its
/// subsets, so that a walk ORs in one table row per nibble of an `A`
/// row where it would OR in up to four bit rows ([`simd::or_rows`]).
struct BitRows {
    /// The bit table of `B`'s rows, [`simd::bit_words`]`(n)` words a
    /// row, padded with empty groups to whole words of a pick.
    table: Vec<u64>,
    /// A bit row over `B`'s rows: bit `l` is set where row `l` holds a
    /// truthy element. A walk reads only the nibbles these leave set.
    occupied: Vec<u64>,
}

impl BitRows {
    /// The bit table of `b` as `unit`'s pack hook leaves it.
    fn of(unit: &impl MmoUnit, b: &Matrix) -> Self {
        use simd::{TABLE_ENTRIES, TABLE_GROUP};
        let (k, words) = (b.rows(), simd::bit_words(b.cols()));
        let pick_words = simd::bit_words(k);
        let mut table = vec![0; simd::table_words(pick_words, words)];
        let mut occupied = vec![0; pick_words];
        // Row `l` is the entry of its group that holds it alone.
        for_each_bit_row(unit, b, 0..k, |l, bits| {
            let entry = l / TABLE_GROUP * TABLE_ENTRIES + (1 << (l % TABLE_GROUP));
            table[entry * words..][..words].copy_from_slice(bits);
            if bits.iter().any(|&w| w != 0) {
                occupied[l / simd::BIT_WORD] |= 1 << (l % simd::BIT_WORD);
            }
        });
        // Every other entry is the OR of two entries before it: its
        // lowest row and the rest — in groups where some row holds
        // something (an empty group's entries stay empty).
        let groups = table.chunks_exact_mut((TABLE_ENTRIES * words).max(1));
        let nibbles = occupied.iter().flat_map(|&w| {
            (0..simd::BIT_WORD)
                .step_by(TABLE_GROUP)
                .map(move |b| w >> b & 0xf)
        });
        for (group, _) in groups.zip(nibbles).filter(|&(_, nibble)| nibble != 0) {
            for s in (3..TABLE_ENTRIES).filter(|s| !s.is_power_of_two()) {
                let (before, entry) = group.split_at_mut(s * words);
                let (low, rest) = (s & s.wrapping_neg(), s & (s - 1));
                let (low, rest) = (&before[low * words..], &before[rest * words..]);
                for ((e, l), r) in entry[..words].iter_mut().zip(low).zip(rest) {
                    *e = l | r;
                }
            }
        }
        Self { table, occupied }
    }
}

/// Rows the bit walk passes through the pack hook in one call.
const HOOK_ROWS: usize = 8;

/// Stored fraction of an operand's sample ([`dense_by_sample`]) below
/// which the bit walk passes only its truthy elements through the pack
/// hook, gathered row by row, rather than whole rows: the gather costs
/// a few dozen times as much per element as the hook of a whole row.
const GATHER_BELOW: f64 = 1.0 / 32.0;

/// Calls `f(r, bits)` for every row `r` in `rows` of `m`, in order, with
/// the row's truthiness bits ([`simd::truthy_bits`]) as `unit`'s pack
/// hook leaves the row. At full precision that is the row itself. Else
/// the hook quantises whole rows, [`HOOK_ROWS`] a call — or, where a
/// sample of `m` stores under [`GATHER_BELOW`], only the elements that
/// are truthy before it: an element the hook reads as `±0.0` stays falsy
/// (as the CSR images have it too, which drop the annihilator before
/// the hook), so the hook can only clear bits.
fn for_each_bit_row(
    unit: &impl MmoUnit,
    m: &Matrix,
    rows: Range<usize>,
    mut f: impl FnMut(usize, &[u64]),
) {
    let (cols, isa) = (m.cols(), unit.kernel_isa());
    let mut bits = vec![0; simd::bit_words(cols)];
    let mut scratch = Vec::new();
    let reduced = unit.reduced_precision();
    if reduced && !dense_by_sample(isa, 0.0, m, GATHER_BELOW) {
        for r in rows {
            let row = m.row(r);
            if simd::truthy_bits(isa, row, &mut bits) {
                scratch.clear();
                for_each_set_bit(&bits, |j| scratch.push(row[j]));
                unit.quantize_packed(&mut scratch);
                // The same bits in the same order: clear those hooked to
                // `±0.0`.
                let mut hooked = scratch.iter();
                for word in &mut bits {
                    let mut rest = *word;
                    while rest != 0 {
                        let bit = rest & rest.wrapping_neg();
                        rest &= rest - 1;
                        if hooked.next().is_some_and(|&x| x == 0.0) {
                            *word &= !bit;
                        }
                    }
                }
            }
            f(r, &bits);
        }
        return;
    }
    for start in rows.clone().step_by(HOOK_ROWS) {
        let block = start..rows.end.min(start + HOOK_ROWS);
        let mut values = &m.as_slice()[block.start * cols..block.end * cols];
        if reduced {
            scratch.clear();
            scratch.extend_from_slice(values);
            unit.quantize_packed(&mut scratch);
            values = &scratch;
        }
        for r in block {
            simd::truthy_bits(isa, &values[(r - start) * cols..][..cols], &mut bits);
            f(r, &bits);
        }
    }
}

/// Calls `f(j)` for every set bit `j` of the bit row `bits`, ascending.
fn for_each_set_bit(bits: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in bits.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f(w * simd::BIT_WORD + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
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

/// Builds the one `B` image every worker of an MMO shares: its CSR form
/// over `scatter`'s annihilator — sized by the pass that read `B` —
/// packed dense strips to sweep otherwise.
fn b_image(unit: &impl MmoUnit, b: &Matrix, scatter: Option<(f32, &Scanned)>) -> BImage {
    match scatter {
        Some((zero, sb)) => {
            let row_ptr = sb.row_ptr(0..b.rows());
            let mut csr = Csr::from_dense_rows(b, 0..b.rows(), zero, unit.kernel_isa(), row_ptr)
                .expect("validated non-NaN sentinel");
            unit.quantize_packed(csr.values_mut());
            BImage::Csr(csr, sb.occupied().collect())
        }
        None => {
            let mut image = pack_strips(b);
            unit.quantize_packed(&mut image);
            BImage::Strips(image)
        }
    }
}

/// One worker's `A` rows in walk form, compressed and quantised by the
/// worker itself. Rows are indexed from the start of its panel.
enum AWalk<'a> {
    /// Every `l` in order: the rows themselves (a quantised copy of them
    /// at reduced precision) against the shared `0..k` index run.
    Dense(Cow<'a, [f32]>, &'a [u32]),
    Csr(Csr),
}

impl AWalk<'_> {
    /// Row `local`'s `(l, a_il)` walk in ascending `l`.
    fn row(&self, local: usize) -> (&[u32], &[f32]) {
        match self {
            AWalk::Dense(rows, iota) => (iota, &rows[local * iota.len()..][..iota.len()]),
            AWalk::Csr(csr) => csr.row(local),
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
struct Panel<'a, U> {
    walk: &'a RowWalk<'a>,
    unit: &'a U,
    rows: Range<usize>,
    out: &'a mut [f32],
}

impl<'a, U: MmoUnit> Panel<'a, U> {
    /// Compresses and quantises this panel's `A` rows: the walk of a
    /// sparse or 2:4 operand is its stored entries either way.
    fn walk(&self) -> AWalk<'a> {
        let (a, rows) = (self.walk.a, self.rows.clone());
        match &self.walk.a_zero {
            None => {
                let mut rows =
                    Cow::Borrowed(&a.as_slice()[rows.start * a.cols()..rows.end * a.cols()]);
                if self.unit.reduced_precision() {
                    self.unit.quantize_packed(rows.to_mut());
                }
                AWalk::Dense(rows, &self.walk.iota)
            }
            Some((zero, sa)) => {
                let (isa, row_ptr) = (self.unit.kernel_isa(), sa.row_ptr(rows.clone()));
                let mut csr = Csr::from_dense_rows(a, rows, *zero, isa, row_ptr)
                    .expect("validated non-NaN sentinel");
                self.unit.quantize_packed(csr.values_mut());
                AWalk::Csr(csr)
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
    fn sweep_rows<K: SemiringKernel>(self, walk: &AWalk<'_>, image: &[f32]) -> RowCount {
        let (c, n, k) = (self.walk.c, self.walk.c.cols(), self.walk.a.cols());
        let isa = self.unit.kernel_isa();
        // One sequential pass over `C`: seeding strip by strip (or row by
        // row) just ahead of the sweep reads it at a row stride instead,
        // and measured 3–7 % slower on a half-dense 512³ walk.
        for (local, i) in self.rows.clone().enumerate() {
            seed_row::<K>(&mut self.out[local * n..][..n], c.row(i));
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
                    simd::sweep_row(isa, K::KIND, ks, vals, strip, w, acc);
                    *from = to;
                }
            }
        }
        let mut count = RowCount::default();
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
    /// row — of a dense `A` row, only the terms whose `B` row is in
    /// `occupied`, the others scattering nothing. The walk ascends in
    /// `l`, so every `(i, j)` still folds in ascending `k`. Max-mul keeps
    /// a per-column count of folded terms for its end correction.
    fn scatter_rows<K: SemiringKernel>(
        self,
        walk: &AWalk<'_>,
        b: &Csr,
        occupied: &[u32],
    ) -> RowCount {
        let (c, n, k) = (self.walk.c, self.walk.c.cols(), self.walk.a.cols());
        let max_mul = matches!(K::KIND, OpKind::MaxMul);
        let mut folded = vec![0usize; if max_mul { n } else { 0 }];
        let mut count = RowCount::default();
        for (local, i) in self.rows.enumerate() {
            let acc = &mut self.out[local * n..][..n];
            seed_row::<K>(acc, c.row(i));
            folded.fill(0);
            let mut terms = 0;
            let mut scatter = |l: u32, av: f32| {
                let (cols, bvals) = b.row(l as usize);
                terms += cols.len();
                for (&j, &bv) in cols.iter().zip(bvals) {
                    let d = &mut acc[j as usize];
                    *d = K::reduce(*d, K::combine(av, bv));
                    if max_mul {
                        folded[j as usize] += 1;
                    }
                }
            };
            let (ks, vals) = walk.row(local);
            match walk {
                AWalk::Dense(..) => occupied.iter().for_each(|&l| scatter(l, vals[l as usize])),
                AWalk::Csr(_) => ks.iter().zip(vals).for_each(|(&l, &av)| scatter(l, av)),
            }
            finish_row::<K>(acc, |j| folded[j] < k);
            count.fma_terms += terms as u64;
            count.skipped_terms += (n * k - terms) as u64;
        }
        count
    }

    /// Or-and's bit walk (module docs): each output row starts from the
    /// truthiness of its raw `C` row, ORs in the `B` bit row of every
    /// truthy element of its `A` row — through the pack hook — whose `B`
    /// row holds something ([`simd::or_rows`]), and is written once as
    /// `1.0` / `+0.0`. It counts no terms.
    fn bit_rows(self, b: &BitRows) -> RowCount {
        let (a, c, isa) = (self.walk.a, self.walk.c, self.unit.kernel_isa());
        let n = c.cols();
        let (mut pick, mut acc) = (
            vec![0; simd::bit_words(a.cols())],
            vec![0; simd::bit_words(n)],
        );
        let first = self.rows.start;
        for_each_bit_row(self.unit, a, self.rows, |i, a_bits| {
            for ((p, &x), &o) in pick.iter_mut().zip(a_bits).zip(&b.occupied) {
                *p = x & o;
            }
            simd::truthy_bits(isa, c.row(i), &mut acc);
            simd::or_rows(isa, &pick, &b.table, &mut acc);
            simd::bits_to_f32(isa, &acc, &mut self.out[(i - first) * n..][..n]);
        });
        RowCount::default()
    }
}

impl<U: MmoUnit> KernelVisitor for Panel<'_, U> {
    type Output = RowCount;

    fn visit<K: SemiringKernel>(self) -> RowCount {
        match &self.walk.b {
            BImage::Strips(image) => {
                let walk = self.walk();
                self.sweep_rows::<K>(&walk, image)
            }
            BImage::Csr(b, occupied) => {
                let walk = self.walk();
                self.scatter_rows::<K>(&walk, b, occupied)
            }
            BImage::Bits(b) => self.bit_rows(b),
        }
    }
}

/// The row walk chosen for one step: the operands as the row kernels
/// read them, and what the choice counts as.
pub(super) struct RowWalk<'a> {
    op: OpKind,
    a: &'a Matrix,
    /// The annihilator `A`'s walk skips, and the pass that read `A`
    /// (which sizes each panel's image); `None` walks every `l`.
    a_zero: Option<(f32, Scanned)>,
    iota: Vec<u32>,
    b: BImage,
    c: &'a Matrix,
}

impl<'a> RowWalk<'a> {
    /// Picks the walk of a validated step from what it measures of the
    /// operands, and builds its `B` image through `unit`'s pack hook;
    /// `None` when the tile chain is the faster fold ([`row_kernel`]):
    /// nothing would be skipped, or too little to pay for a row kernel.
    ///
    /// The measurement stops as soon as the chain is certain: a sample
    /// of each operand's tile-row heads ([`dense_by_sample`]) stops once
    /// it stores [`SAMPLE_MARGIN`] times what the most lenient walk
    /// allows, and two operands too dense to be skipped go to the chain
    /// on that alone, so a dense step pays two rows. Otherwise each
    /// operand a walk may skip is read once ([`Scanned`]), for the facts
    /// the value-domain rule reads and the stored counts that price a
    /// walk and size its images — and, only where those leave the
    /// verdict open, for the empty tiles that price the chain
    /// ([`kept_pairs`]).
    ///
    /// An or-and step takes the bit walk ([`BitRows`]) before any of
    /// that: it reads operands only for truthiness, so 64 of `B`'s
    /// elements fold per word, however many it stores.
    pub(super) fn choose(unit: &impl MmoUnit, step: &MmoArgs<'a>) -> Option<Self> {
        let MmoArgs { op, a, b, c } = *step;
        if op == OpKind::OrAnd {
            return Some(Self {
                op,
                a,
                a_zero: None,
                iota: Vec::new(),
                b: BImage::Bits(BitRows::of(unit, b)),
                c,
            });
        }
        let zero = op.no_edge_f32()?;
        let isa = unit.kernel_isa();
        let b_dense = dense_by_sample(isa, zero, b, SWEEP_B_DENSITY * SAMPLE_MARGIN);
        let a_dense = dense_by_sample(isa, zero, a, WALK_A_DENSITY * SAMPLE_MARGIN);
        if a_dense && b_dense {
            return None;
        }
        // Each operand a walk may skip is read whole, and so is the
        // other where the rule reads values (module docs); an operand
        // left unread is walked whole.
        let multiplies = matches!(op, OpKind::PlusMul | OpKind::MinMul | OpKind::MaxMul);
        let read = |m, dense: bool| (!dense || multiplies).then(|| Scanned::of(unit, zero, m));
        let (sa, sb) = (read(a, a_dense), read(b, b_dense));
        let facts = |s: &Option<Scanned>| s.as_ref().map_or(Scan::default(), |s| s.scan);
        let (fa, fb) = (facts(&sa), facts(&sb));
        let skips = |skipped, other| skip_rule(op, skipped, other) != Skip::Never;
        let stored = |s: &Option<Scanned>, m: &Matrix| s.as_ref().map(|s| s.stored_fraction(m));
        // The value-domain rule: an operand whose annihilator entries
        // cannot be skipped exactly is walked whole. `B` is scattered
        // only where it stores few enough entries; `A` walks its stored
        // entries where they are fewer than the `B` rows a walk of every
        // `l` visits — all of them under a sweep, those that store
        // something under a scatter.
        let scatter_b = stored(&sb, b).filter(|&f| f <= SWEEP_B_DENSITY && skips(fb, fa));
        let b_rows_visited = match (&sb, scatter_b) {
            (Some(sb), Some(_)) => sb.occupied_fraction(b),
            _ => 1.0,
        };
        let walk_a = stored(&sa, a).filter(|&f| f < b_rows_visited && skips(fa, fb));
        // What is left to skip, as the fractions a walk would fold — and
        // of `B`'s rows, those a scatter looks up — raced against a
        // chain that leaves out no pair and one that leaves out all:
        // between the two, against the pairs its empty tiles let go.
        let kernel = |kept| {
            let (a_stored, b_stored) = (walk_a.unwrap_or(1.0), scatter_b.unwrap_or(1.0));
            row_kernel(a_stored, b_stored, b_rows_visited, kept, b.cols())
        };
        let kernel = match kernel(0.0) {
            Some(kernel) => kernel,
            None => {
                kernel(1.0)?;
                kernel(kept_pairs(op, zero, (a, fa), (b, fb)))?
            }
        };
        let scatter = (kernel == RowKernel::Scatter).then_some(zero);
        Some(Self {
            op,
            a,
            iota: (0..a.cols() as u32).collect(),
            b: b_image(unit, b, scatter.zip(sb.as_ref())),
            a_zero: walk_a.and(sa).map(|sa| (zero, sa)),
            c,
        })
    }

    /// Whether `B` is scattered.
    pub(super) fn scatters(&self) -> bool {
        matches!(self.b, BImage::Csr(..))
    }

    /// Whether this is or-and's bit walk.
    pub(super) fn on_bits(&self) -> bool {
        matches!(self.b, BImage::Bits(_))
    }

    /// Folds output rows `rows` of `D = C ⊕ (A ⊗ B)` into `out`; returns
    /// the panel's term counters.
    pub(super) fn fold<U: MmoUnit>(
        &self,
        unit: &U,
        rows: Range<usize>,
        out: &mut [f32],
    ) -> RowCount {
        let walk = self;
        dispatch_kernel(
            self.op,
            Panel {
                walk,
                unit,
                rows,
                out,
            },
        )
    }

    /// Adds the completed step to the engine's `total`: itself, and the
    /// term counters of its `panels`, in panel order.
    pub(super) fn tally(&self, total: &mut RowCount, panels: impl Iterator<Item = RowCount>) {
        if self.on_bits() {
            total.bit_mmos += 1;
            return;
        }
        total.sparse_mmos += 1;
        total.swept_b_mmos += u64::from(!self.scatters());
        for terms in panels {
            total.fma_terms += terms.fma_terms;
            total.skipped_terms += terms.skipped_terms;
        }
    }
}

// The operand generators of the crate's integration suites (`specials`
// is the walk differentials' alone).
#[cfg(test)]
#[path = "../../tests/pools/hostile.rs"]
mod hostile;
#[cfg(test)]
#[allow(dead_code)]
#[path = "../../tests/pools/mod.rs"]
mod pools;

#[cfg(test)]
mod tests {
    use super::super::{Backend, TiledBackend};
    use super::*;
    use proptest::prelude::*;
    use simd2_matrix::reference;
    use simd2_mxu::{PrecisionMode, Simd2Unit};
    use simd2_semiring::ALL_OPS;

    use super::hostile::{bits, hostile, quantized, structure_2_4};
    use super::pools::{block_sparse, operand, Blocks};

    /// A seeded `n × n` operand with about `density` of its entries
    /// stored (in `0.5..9.5`) and the rest at `zero`.
    fn square(n: usize, zero: f32, density: f64, seed: u64) -> Matrix {
        operand(&[], n, n, zero, density, seed)
    }

    /// The walk of `step` that skips `a_zero` entries of `A` (`None`
    /// walks every `l`) and scatters `B`'s entries other than `scatter`
    /// (`None` sweeps it), whatever [`row_kernel`] would say, built from
    /// the scans [`RowWalk::choose`] takes of such a step.
    fn walk_of<'a>(
        unit: &Simd2Unit,
        step: &MmoArgs<'a>,
        a_zero: Option<f32>,
        scatter: Option<f32>,
    ) -> RowWalk<'a> {
        let zero = step.op.no_edge_f32().unwrap();
        let sb = Scanned::of(unit, zero, step.b);
        RowWalk {
            op: step.op,
            a: step.a,
            iota: (0..step.a.cols() as u32).collect(),
            b: b_image(unit, step.b, scatter.map(|zero| (zero, &sb))),
            a_zero: a_zero.map(|zero| (zero, Scanned::of(unit, zero, step.a))),
            c: step.c,
        }
    }

    /// The walk the engine takes of `step` where one pays: `A`'s stored
    /// entries where its annihilator entries may be skipped, `B`
    /// scattered where it may be and stores few enough entries to.
    fn best_walk<'a>(unit: &Simd2Unit, step: &MmoArgs<'a>) -> RowWalk<'a> {
        let (a, b) = (step.a, step.b);
        let zero = step.op.no_edge_f32().unwrap();
        let (sa, sb) = (Scanned::of(unit, zero, a), Scanned::of(unit, zero, b));
        let skips = |skipped, other| skip_rule(step.op, skipped, other) != Skip::Never;
        let scatter = skips(sb.scan, sa.scan) && sb.stored_fraction(b) <= SWEEP_B_DENSITY;
        let visited = if scatter {
            sb.occupied_fraction(b)
        } else {
            1.0
        };
        let walk_a = skips(sa.scan, sb.scan) && sa.stored_fraction(a) < visited;
        RowWalk {
            op: step.op,
            a,
            iota: (0..a.cols() as u32).collect(),
            b: b_image(unit, b, scatter.then_some((zero, &sb))),
            a_zero: walk_a.then_some((zero, sa)),
            c: step.c,
        }
    }

    /// One step through the tile chain on one thread, whatever the
    /// engine would pick: the pack stage, pair skips and fp16 lanes
    /// included.
    fn chained(be: &mut TiledBackend, step: &MmoArgs<'_>) -> Matrix {
        let grid = step.checked_grid().unwrap();
        let mut d = Matrix::zeros(grid.m, grid.n);
        be.run_chain(step, &grid, 1, &mut d).unwrap();
        d
    }

    /// One step through the walk the arguments name, whatever
    /// [`row_kernel`] would say, on one thread: the scans, the image
    /// build and the fold.
    fn forced(
        unit: &Simd2Unit,
        step: &MmoArgs<'_>,
        a_zero: Option<f32>,
        scatter: Option<f32>,
    ) -> Matrix {
        let walk = walk_of(unit, step, a_zero, scatter);
        let mut d = Matrix::zeros(step.a.rows(), step.b.cols());
        walk.fold(unit, 0..step.a.rows(), d.as_mut_slice());
        d
    }

    /// Best-of-`reps` wall time of each of `runs`, in milliseconds. The
    /// candidates take turns within a repetition, so a noisy neighbour
    /// slows them alike.
    fn best_ms<const N: usize>(reps: usize, mut runs: [&mut dyn FnMut() -> Matrix; N]) -> [f64; N] {
        let mut best = [f64::INFINITY; N];
        for _ in 0..reps {
            for (best, run) in best.iter_mut().zip(&mut runs) {
                let start = std::time::Instant::now();
                std::hint::black_box(run());
                *best = best.min(1e3 * start.elapsed().as_secs_f64());
            }
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every row kernel under every walk, forced — whether or not
        /// [`row_kernel`] would pick it at these densities — against
        /// [`reference::mmo`] on the operands as the scalar quantiser
        /// rounds them: eight annihilator ops × `A` dense / CSR / 2:4 ×
        /// `B` swept / scattered × fp32 / fp16 / int8, over the hostile
        /// values each op's contract admits, output widths either side of
        /// the vector and strip boundaries, `k` inside and across sweep
        /// blocks, two panels split at an arbitrary row, with exact term
        /// accounting.
        #[test]
        fn every_row_kernel_matches_the_reference(
            op_idx in 0usize..ALL_OPS.len() - 1,
            m in 1usize..=50,
            k_idx in 0usize..5,
            n_idx in 0usize..7,
            a_density_idx in 0usize..3,
            b_density_idx in 0usize..3,
            seed in any::<u64>(),
        ) {
            let (k, n) = ([1, 7, 127, 129, 260][k_idx], [1, 15, 17, 63, 64, 65, 130][n_idx]);
            let a_density = [0.05, 0.4, 1.0][a_density_idx];
            let b_density = [0.03, 0.13, 0.6][b_density_idx];
            // Plus-norm has no annihilator, hence no row walk.
            let op = ALL_OPS.into_iter().filter(|op| op.no_edge_f32().is_some()).nth(op_idx).unwrap();
            let zero = op.no_edge_f32().unwrap();
            let pool = hostile(op);
            let a = operand(&pool, m, k, zero, a_density, seed);
            let a24 = structure_2_4(&a, zero, seed ^ 0x24);
            let b = operand(&pool, k, n, zero, b_density, seed ^ 0xB);
            let c = operand(&pool, m, n, op.reduce_identity_f32(), 0.7, seed ^ 0xC);
            let stored = |m: &Matrix| simd::scan(simd::KernelIsa::Scalar, zero, m.as_slice()).stored as u64;
            let split = seed as usize % (m + 1);
            for precision in [PrecisionMode::Fp32Input, PrecisionMode::Fp16Input, PrecisionMode::Int8Input] {
                let unit = Simd2Unit::with_precision(precision);
                let qb = quantized(&b, precision);
                let walks = [(&a, None), (&a, Some(zero)), (&a24, Some(zero))];
                for (am, a_zero) in walks {
                    let want = bits(&reference::mmo(op, &quantized(am, precision), &qb, &c).unwrap());
                    // A dense walk over a swept `B` is the chain's step.
                    for scatter in [Some(zero), None].into_iter().filter(|s| s.or(a_zero).is_some()) {
                        let step = MmoArgs::new(op, am, &b, &c);
                        let walk = walk_of(&unit, &step, a_zero, scatter);
                        prop_assert_eq!(walk.scatters(), scatter.is_some());
                        let mut d = Matrix::zeros(m, n);
                        let (top, bottom) = d.as_mut_slice().split_at_mut(split * n);
                        let mut count = RowCount::default();
                        let panels = [walk.fold(&unit, 0..split, top), walk.fold(&unit, split..m, bottom)];
                        walk.tally(&mut count, panels.into_iter());
                        let ctx = format!(
                            "{op} {m}x{n}x{k} {precision:?} a_zero={a_zero:?} scatter={scatter:?} split={split}"
                        );
                        prop_assert_eq!(&bits(&d), &want, "{}", ctx);
                        prop_assert_eq!(count.fma_terms + count.skipped_terms, (m * n * k) as u64, "{}", ctx);
                        // Quantising after compression: an entry that
                        // underflows stays a stored, folded term.
                        let a_terms = if a_zero.is_some() { stored(am) } else { (m * k) as u64 };
                        match scatter {
                            None => prop_assert_eq!(count.fma_terms, a_terms * n as u64, "{}", ctx),
                            Some(_) if a_zero.is_none() => {
                                prop_assert_eq!(count.fma_terms, m as u64 * stored(&b), "{}", ctx)
                            }
                            Some(_) => prop_assert!(count.fma_terms <= a_terms * n as u64, "{}", ctx),
                        }
                    }
                }
            }
        }
    }

    /// The sweep that places [`SWEEP_B_DENSITY`] (EXPERIMENTS.md, "Scatter
    /// or sweep"): the same CSR × CSR operands through both row kernels,
    /// image build included, at fp16 operand precision on one thread.
    ///
    /// `cargo test --release -p simd2 --lib -- --ignored --nocapture scatter_or_sweep`
    #[test]
    #[ignore = "timing sweep, not a check: run with --release --ignored --nocapture"]
    fn scatter_or_sweep() {
        let n = 512;
        let unit = Simd2Unit::new();
        println!("op        B density  scatter ms  sweep ms  scatter/sweep");
        for op in [OpKind::PlusMul, OpKind::MinPlus] {
            let zero = op.no_edge_f32().unwrap();
            let c = Matrix::filled(n, n, op.reduce_identity_f32());
            for density in [0.02, 0.03, 0.05, 0.07, 0.10, 0.15, 0.20, 0.30, 0.50] {
                let (a, b) = (square(n, zero, density, 5), square(n, zero, density, 6));
                let step = MmoArgs::new(op, &a, &b, &c);
                let run = |scatter: bool| forced(&unit, &step, Some(zero), scatter.then_some(zero));
                let [scatter, sweep] = best_ms(15, [&mut || run(true), &mut || run(false)]);
                assert_eq!(run(true), run(false));
                println!(
                    "{:<9} {density:<10.2} {scatter:<11.3} {sweep:<9.3} {:.2}",
                    op.name(),
                    scatter / sweep
                );
            }
        }
    }

    /// Rounds of [`time_point`]: a point's timings are the median of this
    /// many, each the three candidates' best in turn, so that one slow
    /// round on a shared host does not set a point's `pick/best`.
    const ROUNDS: usize = 3;

    /// One timed point of [`walk_or_chain`]: `step` through the walk the
    /// engine would take were a walk to pay ([`best_walk`], scans and
    /// image build included), through the tile chain ([`chained`]) and
    /// as the engine picks, at fp16 operand precision on one thread, in
    /// [`ROUNDS`] rounds; prints a row of the rounds' medians and the
    /// range of their `pick/best`, and returns its median.
    fn time_point(label: &str, step: &MmoArgs<'_>, density: f64) -> f64 {
        let unit = Simd2Unit::new();
        let (m, n) = (step.a.rows(), step.b.cols());
        let mut walk = || {
            let mut d = Matrix::zeros(m, n);
            best_walk(&unit, step).fold(&unit, 0..m, d.as_mut_slice());
            d
        };
        let mut chain_be = TiledBackend::with_unit(unit);
        let mut be = TiledBackend::with_unit(unit);
        let want = chained(&mut chain_be, step);
        assert_eq!(bits(&walk()), bits(&want), "{label}");
        assert_eq!(
            bits(
                &be.execute(step, super::super::Schedule::Configured)
                    .unwrap()
            ),
            bits(&want),
            "{label}"
        );
        let pick = match be.row_count() {
            count if count.bit_mmos == 1 => "bits",
            count if count.sparse_mmos == 1 => "walk",
            _ => "chain",
        };
        let reps = (1 << 23) / (m * n).max(1) + 8;
        let rounds: [[f64; 4]; ROUNDS] = std::array::from_fn(|_| {
            let [walk_ms, chain_ms, pick_ms] = best_ms(
                reps,
                [&mut walk, &mut || chained(&mut chain_be, step), &mut || {
                    be.execute(step, super::super::Schedule::Configured)
                        .unwrap()
                }],
            );
            [walk_ms, chain_ms, pick_ms, pick_ms / walk_ms.min(chain_ms)]
        });
        // Per column, the rounds' median and their range.
        let stats = |col: usize| {
            let mut xs = rounds.map(|round| round[col]);
            xs.sort_by(f64::total_cmp);
            (xs[ROUNDS / 2], xs[0], xs[ROUNDS - 1])
        };
        let ([walk_ms, chain_ms, pick_ms], (pick_over_best, lo, hi)) =
            ([0, 1, 2].map(|col| stats(col).0), stats(3));
        println!(
            "{label:<16} {:<9} {n:<4} {density:<8.3} {walk_ms:<9.3} {chain_ms:<9.3} {:<11.2} {:<6} {pick_ms:<9.3} {pick_over_best:<9.2} {lo:.2}–{hi:.2}",
            step.op.name(),
            walk_ms / chain_ms,
            pick,
        );
        pick_over_best
    }

    /// What the walk-or-chain decision costs a dense step: the engine's
    /// [`RowWalk::choose`] (the sample that settles it) against the
    /// whole MMO, on the dense operands of the repo benchmark's
    /// `dense-mmo` workload, at fp16 operand precision on one thread.
    /// (Or-and decides nothing: it takes the bit walk unsampled.)
    ///
    /// `cargo test --release -p simd2 --lib -- --ignored --nocapture decision_cost`
    #[test]
    #[ignore = "timing probe, not a check: run with --release --ignored --nocapture"]
    fn decision_cost() {
        use simd2_matrix::gen;
        let unit = Simd2Unit::new();
        println!("op        n    decide µs  mmo µs     decide/mmo");
        for op in [OpKind::PlusMul, OpKind::MinPlus] {
            for n in [64, 256] {
                let a = gen::random_operands_for(op, n, n, 1);
                let b = gen::random_operands_for(op, n, n, 2);
                let c = gen::random_operands_for(op, n, n, 3);
                let step = MmoArgs::new(op, &a, &b, &c);
                let mut be = TiledBackend::with_unit(unit);
                let reps = (1 << 24) / (n * n * n) + 64;
                let (mut decide, mut mmo) = (f64::INFINITY, f64::INFINITY);
                for _ in 0..reps {
                    // A hundred decisions a timing: one is shorter than
                    // the clock's own read.
                    let start = std::time::Instant::now();
                    for _ in 0..100 {
                        let step = std::hint::black_box(&step);
                        assert!(std::hint::black_box(RowWalk::choose(&unit, step)).is_none());
                    }
                    decide = decide.min(1e4 * start.elapsed().as_secs_f64());
                    let start = std::time::Instant::now();
                    std::hint::black_box(be.mmo(op, &a, &b, &c).unwrap());
                    mmo = mmo.min(1e6 * start.elapsed().as_secs_f64());
                }
                println!(
                    "{:<9} {n:<4} {decide:<10.3} {mmo:<10.1} {:.2} %",
                    op.name(),
                    100.0 * decide / mmo
                );
            }
        }
    }

    /// The sweep that places the walk-or-chain bounds
    /// ([`WALK_A_DENSITY`], [`SCATTER_TERMS`]; EXPERIMENTS.md, "Walk or
    /// chain"): `walk/chain` is what always walking costs, `pick/best`
    /// what the engine's choice does ([`time_point`]). Or-and's points
    /// race its bit walk, the engine's pick (`bits`), against the row
    /// walk and the tile chain it replaced. Three pools: one operand at each stored
    /// fraction beside a full one (the walk `A`-walk × sweep, or a dense
    /// walk × scatter); both operands block-sparse, whole tiles blanked
    /// at random or below the tile diagonal (`Blocks`, the tile pairs the
    /// chain skips); and the first two Leyzorek steps of the seven
    /// closure apps at `n = 256`, seed 2022.
    ///
    /// `cargo test --release -p simd2 --lib -- --ignored --nocapture walk_or_chain`
    #[test]
    #[ignore = "timing sweep, not a check: run with --release --ignored --nocapture"]
    fn walk_or_chain() {
        use simd2_apps::{aplp, apsp, gtc, harness, mst, paths};
        println!("point            op        n    density  walk ms   chain ms  walk/chain  pick   pick ms   pick/best range");
        let mut worst = 0.0f64;
        for a_walk in [true, false] {
            for op in [
                OpKind::OrAnd,
                OpKind::MinPlus,
                OpKind::MaxMin,
                OpKind::PlusMul,
            ] {
                let zero = op.no_edge_f32().unwrap();
                for n in [128, 256, 512] {
                    let c = Matrix::filled(n, n, op.reduce_identity_f32());
                    for density in [0.01, 0.03, 0.06, 0.12, 0.25, 0.5] {
                        // The sparse operand at `density`, the other full.
                        let (da, db) = if a_walk {
                            (density, 1.0)
                        } else {
                            (1.0, density)
                        };
                        let (a, b) = (square(n, zero, da, 5), square(n, zero, db, 6));
                        let label = if a_walk {
                            "A-walk×sweep"
                        } else {
                            "dense×scatter"
                        };
                        worst =
                            worst.max(time_point(label, &MmoArgs::new(op, &a, &b, &c), density));
                    }
                }
            }
        }
        for blocks in [Blocks::Random, Blocks::UpperTriangular] {
            for op in [
                OpKind::OrAnd,
                OpKind::MinPlus,
                OpKind::MaxPlus,
                OpKind::PlusMul,
            ] {
                let zero = op.no_edge_f32().unwrap();
                let n = 256;
                let c = Matrix::filled(n, n, op.reduce_identity_f32());
                for density in [0.02, 0.06, 0.15, 0.3, 0.6, 1.0] {
                    let a = block_sparse(square(n, zero, density, 7), zero, blocks, 8);
                    let b = block_sparse(square(n, zero, density, 9), zero, blocks, 10);
                    let label = format!("blocks {blocks:?}");
                    worst = worst.max(time_point(&label, &MmoArgs::new(op, &a, &b, &c), density));
                }
            }
        }
        let (n, seed) = (256, 2022);
        let apps = [
            (
                "APSP",
                OpKind::MinPlus,
                apsp::generate(n, seed).adjacency(OpKind::MinPlus),
            ),
            (
                "APLP",
                OpKind::MaxPlus,
                aplp::generate(n, seed).adjacency(OpKind::MaxPlus),
            ),
            (
                "MCP",
                OpKind::MaxMin,
                paths::generate_mcp(n, seed).adjacency(OpKind::MaxMin),
            ),
            (
                "MAXRP",
                OpKind::MaxMul,
                paths::generate_maxrp(n, seed).adjacency(OpKind::MaxMul),
            ),
            (
                "MINRP",
                OpKind::MinMul,
                paths::generate_minrp(n, seed).adjacency(OpKind::MinMul),
            ),
            (
                "MST",
                OpKind::MinMax,
                mst::generate(n, harness::MST_EXTRA_DENSITY, seed).adjacency(OpKind::MinMax),
            ),
            ("GTC", OpKind::OrAnd, gtc::generate(n, seed).reachability()),
        ];
        for (app, op, x0) in apps {
            let zero = op.no_edge_f32().unwrap();
            let x1 = TiledBackend::new().mmo(op, &x0, &x0, &x0).unwrap();
            for (k, x) in [(1, &x0), (2, &x1)] {
                let density = simd::scan(KernelIsa::Scalar, zero, x.as_slice()).stored as f64
                    / x.len() as f64;
                let label = format!("{app} step {k}");
                worst = worst.max(time_point(&label, &MmoArgs::new(op, x, x, x), density));
            }
        }
        println!("worst median pick/best: {worst:.2}");
    }

    /// Where a chained step's time goes (ROADMAP item 3): the engine's
    /// GMAC/s on one thread at fp16 operand precision, its chain leaf's
    /// folding every output tile's chain over operands packed beforehand
    /// (on the lanes the step folds on; an upper bound, since nothing is
    /// packed, loaded from `C` or stored while it runs), and the share of
    /// the engine's time outside the leaf. Six steps: the last Leyzorek
    /// step of APSP's, GTC's and MST's closures at `n = 256`, seed 2022
    /// (or-and's engine runs its bit walk), and random plus-mul and
    /// min-plus operands at 256³ and 1024³. Each figure is the median of
    /// [`ROUNDS`] interleaved rounds, each the best of several runs.
    ///
    /// `cargo test --release -p simd2 --lib -- --ignored --nocapture chain_split`
    #[test]
    #[ignore = "timing probe, not a check: run with --release --ignored --nocapture"]
    fn chain_split() {
        use super::super::chain::{ChainPlan, Lanes};
        use simd2_apps::{apsp, gtc, harness, mst};
        use simd2_matrix::{gen, tiling, Tile, ISA_TILE};
        use simd2_semiring::simd::{HalfFit, CHAIN_ELEMS, HALF_A_WORDS, HALF_B_WORDS};
        let (n, seed) = (256, 2022);
        let closed = |op: OpKind, mut x: Matrix| loop {
            let next = TiledBackend::new().mmo(op, &x, &x, &x).unwrap();
            if next.bits_eq(&x) {
                return x;
            }
            x = next;
        };
        let random = |op: OpKind, n: usize| {
            let [a, b, c] = [1, 2, 3].map(|seed| gen::random_operands_for(op, n, n, seed));
            (op, a, b, c)
        };
        let closure = |op: OpKind, x: Matrix| {
            let x = closed(op, x);
            (op, x.clone(), x.clone(), x)
        };
        let steps = [
            (
                "min-plus 256³, APSP's closure",
                closure(
                    OpKind::MinPlus,
                    apsp::generate(n, seed).adjacency(OpKind::MinPlus),
                ),
            ),
            (
                "or-and 256³, GTC's closure",
                closure(OpKind::OrAnd, gtc::generate(n, seed).reachability()),
            ),
            (
                "min-max 256³, MST's closure",
                closure(
                    OpKind::MinMax,
                    mst::generate(n, harness::MST_EXTRA_DENSITY, seed).adjacency(OpKind::MinMax),
                ),
            ),
            ("plus-mul 256³, random", random(OpKind::PlusMul, 256)),
            ("min-plus 1024³, random", random(OpKind::MinPlus, 1024)),
            ("plus-mul 1024³, random", random(OpKind::PlusMul, 1024)),
        ];
        println!("step                           engine GMAC/s  leaf GMAC/s  outside the leaf");
        for (label, (op, a, b, c)) in steps {
            let unit = Simd2Unit::new();
            let step = MmoArgs::new(op, &a, &b, &c);
            let grid = step.checked_grid().unwrap();
            let (pad, k_tiles) = (tiling::pad_values(op), grid.k_tiles);
            // Every chain of `m` packed and through the pack hook, one
            // after another: `A`'s tile rows or `B`'s tile columns.
            let packed = |m: &Matrix, chains: usize, fill: f32, a_side: bool| {
                let mut tiles = vec![0.0; chains * k_tiles * CHAIN_ELEMS];
                for (t, tile) in tiles.chunks_exact_mut(CHAIN_ELEMS).enumerate() {
                    let (chain, tk) = (t / k_tiles, t % k_tiles);
                    let (tr, tc) = if a_side { (chain, tk) } else { (tk, chain) };
                    tiling::pack_tile::<ISA_TILE>(m, tr, tc, fill, tile);
                }
                unit.quantize_packed(&mut tiles);
                tiles
            };
            let a_tiles = packed(&a, grid.m_tiles, pad.a, true);
            let b_tiles = packed(&b, grid.n_tiles, pad.b, false);
            let lanes = ChainPlan::of(&unit, &step).lanes;
            let images = |tiles: &[f32], words: usize, a_side: bool| {
                let mut image = vec![0; tiles.len() / CHAIN_ELEMS * words];
                let mut fits = vec![HalfFit::Exact; tiles.len() / CHAIN_ELEMS];
                if let Lanes::Half(half) = lanes {
                    if a_side {
                        half.image_a(tiles, &mut image, &mut fits);
                    } else {
                        half.image_b(tiles, &mut image, &mut fits);
                    }
                }
                image
            };
            let (a_half, b_half) = (
                images(&a_tiles, HALF_A_WORDS, true),
                images(&b_tiles, HALF_B_WORDS, false),
            );
            // Chain `index` of `xs`, `len` elements to a chain.
            fn nth<T>(xs: &[T], index: usize, len: usize) -> &[T] {
                &xs[index * len..(index + 1) * len]
            }
            let (tiles, a_words, b_words) = (
                k_tiles * CHAIN_ELEMS,
                k_tiles * HALF_A_WORDS,
                k_tiles * HALF_B_WORDS,
            );
            let mut leaf = || {
                let mut sum = 0.0;
                for ti in 0..grid.m_tiles {
                    for tj in 0..grid.n_tiles {
                        let mut acc = Tile::<ISA_TILE>::splat(op.reduce_identity_f32());
                        let (at, bt) = (nth(&a_tiles, ti, tiles), nth(&b_tiles, tj, tiles));
                        match lanes {
                            Lanes::Half(half) => half.mmo_chain(
                                nth(&a_half, ti, a_words),
                                nth(&b_half, tj, b_words),
                                acc.as_flat_mut(),
                            ),
                            Lanes::Fma(fma) => fma.mmo_chain(at, bt, acc.as_flat_mut()),
                            Lanes::F32 => unit.execute_chain(op, at, bt, &mut acc),
                        }
                        sum += acc.get(0, 0);
                    }
                }
                Matrix::filled(1, 1, sum)
            };
            let mut be = TiledBackend::with_unit(unit);
            let mut engine = || be.mmo(op, &a, &b, &c).unwrap();
            let reps = (1 << 26) / (grid.m * grid.n * grid.k).max(1) + 3;
            let mut rounds: [[f64; 2]; ROUNDS] =
                std::array::from_fn(|_| best_ms(reps, [&mut engine, &mut leaf]));
            let gmacs = |ms: f64| (grid.m * grid.n * grid.k) as f64 / ms / 1e6;
            let mut median = |col: usize| {
                rounds.sort_by(|x, y| x[col].total_cmp(&y[col]));
                rounds[ROUNDS / 2][col]
            };
            let (engine_ms, leaf_ms) = (median(0), median(1));
            println!(
                "{label:<30} {:<14.1} {:<12.1} {:.0} %",
                gmacs(engine_ms),
                gmacs(leaf_ms),
                100.0 * (1.0 - leaf_ms / engine_ms)
            );
        }
    }
}
