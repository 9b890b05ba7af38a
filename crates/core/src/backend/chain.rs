//! The tile chain of [`TiledBackend`](super::TiledBackend): operands
//! packed into tile-major scratch, what the step reads off each packed
//! tile, and the per-panel loop that folds every output tile's chain of
//! tile pairs.

use std::ops::Range;

use simd2_matrix::tiling::{self, TileGrid};
use simd2_matrix::{Matrix, Tile, ISA_TILE};
use simd2_mxu::MmoUnit;
use simd2_semiring::simd::{
    self, HalfFit, HalfLanes, KernelIsa, Scan, CHAIN_ELEMS as TILE_ELEMS, HALF_A_WORDS,
    HALF_B_WORDS,
};
use simd2_semiring::OpKind;
use simd2_trace::Counter;

use super::rows::{skip_rule, Skip};
use super::MmoArgs;

/// Tile pairs `(ti, tk, tj)` the tile chain left out because every term
/// of theirs folds through the annihilator (traced backends only; see
/// [`skips_pair`]). [`OpCount`](super::OpCount) still counts them: it is the grid's
/// logical traffic.
pub(super) static CHAIN_SKIPPED_PAIRS: Counter = Counter::new("core.chain.skipped_pairs");
/// Min-max and max-min tile pairs the tile chain folded on fp16 lanes
/// (traced backends only; see [`SelectLanes`]).
static CHAIN_FP16_PAIRS: Counter = Counter::new("core.chain.fp16_pairs");
/// Min-max and max-min tile pairs of a coordinate-free unit the tile
/// chain kept on `f32` lanes because a tile of the pair holds a NaN
/// (traced backends only).
static CHAIN_F32_NAN: Counter = Counter::new("core.chain.f32_select_pairs.nan");
/// … because a tile holds a value off the fp16 lattice and no NaN.
static CHAIN_F32_OFF_LATTICE: Counter = Counter::new("core.chain.f32_select_pairs.off_lattice");
/// … because the unit's kernel tier has no fp16 lanes (an AVX-512 host
/// without AVX512-FP16, or a pin to AVX2 or scalar).
static CHAIN_F32_NO_FP16: Counter = Counter::new("core.chain.f32_select_pairs.no_fp16");

/// Bytes of packed `B` one panel reads at a time: the column strip is as
/// wide as this allows (at least one tile column). A byte budget, not a
/// knob — the right width is a property of the cache a strip must stay
/// in while a panel's rows sweep it, not of any workload, and with the
/// `A` row (16·k_pad floats) it bounds a panel's scratch near 1.1 MiB
/// whatever the operand sizes.
pub(super) const B_STRIP_BYTES: usize = 1 << 20;

/// Width, in tile columns, of the packed `B` strips of a grid with
/// `k_tiles` reduction steps.
pub(super) fn strip_width(k_tiles: usize) -> usize {
    (B_STRIP_BYTES / (k_tiles.max(1) * TILE_ELEMS * std::mem::size_of::<f32>())).max(1)
}

/// The tile chain's packed-operand scratch: the quantised, padded,
/// tile-major `A` rows and `B` strips [`run_panel`] reads its chains
/// from, with what the step reads off their tiles ([`PackBuf`]). Owned
/// by the backend and reused across MMOs; contents are rewritten before
/// every read. Sized by the caller ([`fit`]) before any panel runs, so a
/// pool worker never allocates and no per-thread malloc arena grows with
/// it.
#[derive(Debug, Default)]
pub(super) struct PackScratch {
    /// Per panel: `k_tiles` tiles of one tile row of `A`, in `tk` order.
    pub(super) a: Vec<PackBuf>,
    /// `B` strips: for each tile column of a strip, its `k_tiles` tiles
    /// in `tk` order. A single-strip grid packs its one strip here once
    /// for every panel; a wider grid gives each panel a buffer of its own
    /// to pack its strips into in turn.
    pub(super) b: Vec<PackBuf>,
}

/// One buffer of packed tiles and, beside them, what the step reads off
/// each tile.
#[derive(Debug, Default)]
pub(super) struct PackBuf {
    tiles: Vec<f32>,
    /// One scan per tile — none when the step skips nothing.
    facts: Vec<Scan>,
    /// One fp16 image per tile — none unless the step folds on half
    /// lanes.
    half: Vec<u32>,
    /// One fit per image.
    fits: Vec<HalfFit>,
}

/// The first `count` buffers of `bufs`, each sized for `tiles` packed
/// tiles, a scan per tile when `facts`, and an image of `half_words`
/// words and a fit per tile when that is not zero. The images only ever
/// grow: they are rewritten before every read, and a backend that runs
/// other ops between selecting ones would otherwise zero them again for
/// each selecting step.
pub(super) fn fit(
    bufs: &mut Vec<PackBuf>,
    count: usize,
    tiles: usize,
    facts: bool,
    half_words: usize,
) -> impl Iterator<Item = Packed<'_>> {
    if bufs.len() < count {
        bufs.resize_with(count, PackBuf::default);
    }
    let imaged = if half_words == 0 { 0 } else { tiles };
    for buf in &mut bufs[..count] {
        buf.tiles.resize(tiles * TILE_ELEMS, 0.0);
        buf.facts
            .resize(if facts { tiles } else { 0 }, Scan::default());
        if buf.fits.len() < imaged {
            buf.half.resize(imaged * half_words, 0);
            buf.fits.resize(imaged, HalfFit::default());
        }
    }
    bufs[..count].iter_mut().map(move |buf| Packed {
        tiles: &mut buf.tiles,
        facts: &mut buf.facts,
        half: &mut buf.half[..imaged * half_words],
        fits: &mut buf.fits[..imaged],
    })
}

/// A packed chain or strip and what the step reads off its tiles: their
/// scans (none when the step skips nothing) and their fp16 images and
/// fits (none unless it folds on half lanes).
pub(super) struct Packed<'s> {
    tiles: &'s mut [f32],
    facts: &'s mut [Scan],
    half: &'s mut [u32],
    fits: &'s mut [HalfFit],
}

impl<'s> Packed<'s> {
    pub(super) fn reborrow(&mut self) -> Packed<'_> {
        Packed {
            tiles: self.tiles,
            facts: self.facts,
            half: self.half,
            fits: self.fits,
        }
    }

    /// The first `count` tiles and what was read off them.
    pub(super) fn prefix(self, count: usize) -> Packed<'s> {
        let tiles = self.tiles.len() / TILE_ELEMS;
        let first = |len: usize| count * (len / tiles.max(1));
        let (facts, half, fits) = (
            first(self.facts.len()),
            first(self.half.len()),
            first(self.fits.len()),
        );
        Packed {
            tiles: &mut self.tiles[..count * TILE_ELEMS],
            facts: &mut self.facts[..facts],
            half: &mut self.half[..half],
            fits: &mut self.fits[..fits],
        }
    }

    pub(super) fn into_view(self) -> View<'s> {
        View {
            tiles: self.tiles,
            facts: self.facts,
            half: self.half,
            fits: self.fits,
        }
    }
}

/// A packed chain or strip as the chains that fold it read it.
#[derive(Clone, Copy)]
pub(super) struct View<'s> {
    tiles: &'s [f32],
    facts: &'s [Scan],
    half: &'s [u32],
    fits: &'s [HalfFit],
}

impl View<'_> {
    /// The `k_tiles` tiles of its chain `index` and what was read off
    /// them, each tile's image `words` long.
    pub(super) fn chain(self, index: usize, k_tiles: usize, words: usize) -> Self {
        let tiles = index * k_tiles..(index + 1) * k_tiles;
        // What was read off every tile, or off none.
        let part = |len: usize, per: usize| {
            if len == 0 {
                0..0
            } else {
                tiles.start * per..tiles.end * per
            }
        };
        View {
            tiles: &self.tiles[part(self.tiles.len(), TILE_ELEMS)],
            facts: &self.facts[part(self.facts.len(), 1)],
            half: &self.half[part(self.half.len(), words)],
            fits: &self.fits[part(self.fits.len(), 1)],
        }
    }
}

/// Packs the chain of tiles `coords` yields from `m` — padded with `fill`
/// first, then quantised by the unit's pack hook, the order the per-tile
/// path (`load_*_tile` → `execute`) applies them in — into `dst`, one
/// flat row-major tile after another.
pub(super) fn pack_chain<U: MmoUnit>(
    unit: &U,
    m: &Matrix,
    fill: f32,
    coords: impl Iterator<Item = (usize, usize)>,
    dst: &mut [f32],
) {
    for ((tr, tc), tile) in coords.zip(dst.chunks_exact_mut(TILE_ELEMS)) {
        tiling::pack_tile::<ISA_TILE>(m, tr, tc, fill, tile);
    }
    unit.quantize_packed(dst);
}

/// Packs the `B` strip of tile columns `strip` into `dst`, images it
/// when the step folds on half lanes and, when it skips, scans it (every
/// tile's values, if the rule may read them).
pub(super) fn pack_b_strip<U: MmoUnit>(
    unit: &U,
    step: &MmoArgs<'_>,
    k_tiles: usize,
    strip: Range<usize>,
    plan: ChainPlan,
    mut dst: Packed<'_>,
) {
    let coords = strip.flat_map(|tj| (0..k_tiles).map(move |tk| (tk, tj)));
    pack_chain(
        unit,
        step.b,
        tiling::pad_values(step.op).b,
        coords,
        dst.tiles,
    );
    if let SelectLanes::Half(lanes) = plan.lanes {
        lanes.image_b(dst.tiles, dst.half, dst.fits);
    }
    if let Some(skips) = plan.skips {
        skips.scan(unit.kernel_isa(), skips.b_values, dst.reborrow());
    }
}

/// What the tile chain knows of a packed tile it found to hold something
/// other than the annihilator and did not scan: to the rule, a tile
/// outside every op's value domain, so a pair through it is skipped only
/// for what its partner holds alone.
pub(super) const UNREAD: Scan = Scan {
    any: u32::MAX,
    max_abs: 0x7fff_ffff,
    stored: 1,
};

/// How the tile chain of a step reads its packed tiles for pairs to
/// skip.
#[derive(Clone, Copy)]
pub(super) struct ChainSkips {
    /// The annihilator.
    zero: f32,
    /// Whether the rule reads what a tile beside an empty one holds
    /// (plus-mul, min-mul), not only that the other is empty.
    values: bool,
    /// Whether it may read the values of `B` tiles: `values`, and some
    /// tile of `A` may be empty.
    b_values: bool,
}

impl ChainSkips {
    /// How a `unit` step of `op` skips — `None` when it skips no pair,
    /// and packs without scanning: the unit is not
    /// [coordinate-free](MmoUnit::COORDINATE_FREE) (it injects or probes
    /// at every [`simd2_mxu::TileCoord`]), or `op` has no pair the rule
    /// lets go even on operands wholly inside its domain (the default
    /// scan): plus-norm has no annihilator, and max-mul's skipped terms
    /// need a trailing `⊕ +0.0` that is exact only over whole operands,
    /// which a tile pair does not see.
    ///
    /// `A`'s tiles are packed after `B`'s strip, so whether one of them
    /// may be empty is read off the matrix: a tile can pack to nothing
    /// but the annihilator only if its first row holds nothing else (the
    /// pack hook maps the annihilator to itself). A tile the quantiser
    /// rounds onto the annihilator is missed, and a pair through it is
    /// then kept beside a `B` tile whose values were not read — folded,
    /// not skipped, so still exact.
    pub(super) fn of<U: MmoUnit>(step: &MmoArgs<'_>) -> Option<Self> {
        let (empty, inside) = (Scan::default(), Scan::default());
        let skips = U::COORDINATE_FREE && skip_rule(step.op, empty, inside) == Skip::Exact;
        let zero = step.op.no_edge_f32().filter(|_| skips)?;
        let values = skip_rule(step.op, empty, UNREAD) != Skip::Exact;
        let a = step.a;
        let a_tile_may_be_empty = || {
            (0..a.rows()).step_by(ISA_TILE).any(|r| {
                a.row(r)
                    .chunks(ISA_TILE)
                    .any(|first_row| all_zero(first_row, zero))
            })
        };
        let b_values = values && a_tile_may_be_empty();
        Some(Self {
            zero,
            values,
            b_values,
        })
    }

    /// Fills `dst.facts` for `dst.tiles` with each tile's [`Scan`] on
    /// `isa`'s leaf — of every tile when the rule will `read_values` of
    /// these tiles; otherwise only of a tile whose first row is all
    /// annihilator, one that can be empty, the rest being [`UNREAD`], so
    /// a dense operand costs one vector compare per tile.
    pub(super) fn scan(self, isa: KernelIsa, read_values: bool, dst: Packed<'_>) {
        for (tile, fact) in dst.tiles.chunks_exact(TILE_ELEMS).zip(dst.facts) {
            *fact = if read_values || all_zero(&tile[..ISA_TILE], self.zero) {
                simd::scan(isa, self.zero, tile)
            } else {
                UNREAD
            };
        }
    }
}

/// Whether every element of `row` is `zero`: folded without an early
/// exit, since on or-and's random booleans the first element is the
/// annihilator half the time and a branch per element mispredicts.
pub(super) fn all_zero(row: &[f32], zero: f32) -> bool {
    row.iter().fold(true, |all, &x| all & (x == zero))
}

/// Whether the tile chain skips the pair of packed tiles whose scans are
/// `a` and `b`: one of them holds nothing but the annihilator and the
/// rule lets its terms go exactly, with nothing to fold after them.
pub(super) fn skips_pair(op: OpKind, a: Scan, b: Scan) -> bool {
    let exact =
        |empty: Scan, other| empty.stored == 0 && skip_rule(op, empty, other) == Skip::Exact;
    exact(a, b) || exact(b, a)
}

/// Whether some tile of the scanned chain or strip holds nothing but
/// the annihilator.
pub(super) fn holds_empty(facts: &[Scan]) -> bool {
    facts.iter().any(|scan| scan.stored == 0)
}

/// Which lanes the tile chain of a step folds on, and which of its pairs
/// the fallback counters count.
#[derive(Clone, Copy)]
pub(super) enum SelectLanes {
    /// Not a selecting op on a coordinate-free unit: `f32` lanes,
    /// uncounted.
    Off,
    /// Min-max or max-min on a coordinate-free unit whose tier has no
    /// fp16 lanes ([`MmoUnit::half_lanes`] is `None`): every pair on
    /// `f32` lanes.
    NoFp16,
    /// The unit's fp16 lanes, on every pair both of whose tiles' images
    /// are exact; the others on `f32` lanes.
    Half(HalfLanes),
}

impl SelectLanes {
    /// The lanes of a `unit` step of `op`. Only a coordinate-free unit
    /// is asked for fp16 lanes: one that injects or probes at tile
    /// coordinates is handed every pair as tiles.
    pub(super) fn of<U: MmoUnit>(unit: &U, op: OpKind) -> Self {
        if !(U::COORDINATE_FREE && op.selects()) {
            return Self::Off;
        }
        unit.half_lanes(op).map_or(Self::NoFp16, Self::Half)
    }

    /// Words of image per packed tile whose images take `words`: none
    /// unless the step folds on half lanes.
    pub(super) fn words(self, words: usize) -> usize {
        match self {
            Self::Half(_) => words,
            _ => 0,
        }
    }
}

/// What the tile chain of a step reads off its packed tiles: the pairs it
/// may skip, and the lanes it folds on.
#[derive(Clone, Copy)]
pub(super) struct ChainPlan {
    pub(super) skips: Option<ChainSkips>,
    pub(super) lanes: SelectLanes,
}

/// What the tile chain did with a step's tile pairs, beyond the grid's
/// logical [`OpCount`]: the counts behind the `core.chain.*` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(super) struct ChainTally {
    /// Pairs left out ([`skips_pair`]).
    skipped: u64,
    /// Min-max / max-min pairs folded on fp16 lanes.
    half: u64,
    /// Min-max / max-min pairs kept on `f32` lanes because a tile of the
    /// pair holds a NaN.
    nan: u64,
    /// … because a tile holds a value off the fp16 lattice (and no NaN).
    off_lattice: u64,
    /// … because the unit's tier has no fp16 lanes.
    no_fp16: u64,
}

impl ChainTally {
    /// Counts the run `tks` of pairs the chain folded, on half lanes
    /// when `half`; a pair it kept on `f32` lanes beside half lanes is
    /// counted by its `fit`.
    pub(super) fn run(
        &mut self,
        lanes: SelectLanes,
        half: bool,
        tks: Range<usize>,
        fit: impl Fn(usize) -> HalfFit,
    ) {
        let pairs = tks.len() as u64;
        match lanes {
            SelectLanes::Off => {}
            SelectLanes::NoFp16 => self.no_fp16 += pairs,
            SelectLanes::Half(_) if half => self.half += pairs,
            SelectLanes::Half(_) => {
                for tk in tks {
                    match fit(tk) {
                        HalfFit::Nan => self.nan += 1,
                        _ => self.off_lattice += 1,
                    }
                }
            }
        }
    }

    /// Adds the tally to the process-global counters.
    pub(super) fn record(self) {
        CHAIN_SKIPPED_PAIRS.add(self.skipped);
        CHAIN_FP16_PAIRS.add(self.half);
        CHAIN_F32_NAN.add(self.nan);
        CHAIN_F32_OFF_LATTICE.add(self.off_lattice);
        CHAIN_F32_NO_FP16.add(self.no_fp16);
    }
}

impl std::ops::AddAssign for ChainTally {
    fn add_assign(&mut self, rhs: Self) {
        self.skipped += rhs.skipped;
        self.half += rhs.half;
        self.nan += rhs.nan;
        self.off_lattice += rhs.off_lattice;
        self.no_fp16 += rhs.no_fp16;
    }
}

impl std::iter::Sum for ChainTally {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |mut sum, tally| {
            sum += tally;
            sum
        })
    }
}

/// Folds output tile `tile`'s chain of packed tile pairs `a`, `b` into
/// `acc` and returns what became of each pair. When the chain is
/// `sparse` it leaves out the pairs [`skips_pair`] names by their tiles'
/// facts. Each run of kept pairs that go the same way is one call: on
/// the step's half `lanes` over the pairs' fp16 images where the images
/// of both tiles are exact ([`HalfLanes::mmo_chain`]), through
/// [`MmoUnit::execute_chain`] otherwise; a tile with no kept pair gets
/// the empty chain. Every call seeds `acc ⊕ id`, which is idempotent,
/// and a half-lane call folds its run into that once, which is exact
/// (DESIGN.md §8 "Selection chains on fp16 lanes"), so the runs fold
/// exactly what one call over the kept pairs would.
pub(super) fn fold_runs<U: MmoUnit>(
    unit: &mut U,
    tile: (usize, usize),
    op: OpKind,
    (a, b): (View<'_>, View<'_>),
    sparse: bool,
    lanes: SelectLanes,
    acc: &mut Tile<ISA_TILE>,
) -> ChainTally {
    let k_tiles = a.tiles.len() / TILE_ELEMS;
    let mut tally = ChainTally::default();
    let fit = |tk: usize| a.fits[tk].max(b.fits[tk]);
    if !sparse && !matches!(lanes, SelectLanes::Half(_)) {
        unit.execute_chain(tile, op, a.tiles, b.tiles, acc);
        tally.run(lanes, false, 0..k_tiles, fit);
        return tally;
    }
    // How pair `tk` folds: `None` left out, `Some(true)` on half lanes.
    let route = |tk: usize| {
        let skip = sparse && skips_pair(op, a.facts[tk], b.facts[tk]);
        let half = matches!(lanes, SelectLanes::Half(_)) && fit(tk) == HalfFit::Exact;
        (!skip).then_some(half)
    };
    let mut fold = |tks: Range<usize>, half: bool| {
        match lanes {
            SelectLanes::Half(lanes) if half => {
                let (a_words, b_words) = (tks.start * HALF_A_WORDS, tks.start * HALF_B_WORDS);
                let (a_len, b_len) = (tks.len() * HALF_A_WORDS, tks.len() * HALF_B_WORDS);
                let (a_run, b_run) = (&a.half[a_words..][..a_len], &b.half[b_words..][..b_len]);
                lanes.mmo_chain(a_run, b_run, acc.as_flat_mut());
            }
            _ => {
                let run = tks.start * TILE_ELEMS..tks.end * TILE_ELEMS;
                unit.execute_chain(tile, op, &a.tiles[run.clone()], &b.tiles[run], acc);
            }
        }
        tally.run(lanes, half, tks, fit);
    };
    let (mut open, mut kept) = (None, 0);
    for tk in 0..=k_tiles {
        let next = if tk < k_tiles { route(tk) } else { None };
        if let Some((start, half)) = open {
            if next == Some(half) {
                continue;
            }
            fold(start..tk, half);
            kept += tk - start;
        }
        open = next.map(|half| (tk, half));
    }
    if kept == 0 {
        fold(0..0, false);
    }
    tally.skipped = (k_tiles - kept) as u64;
    tally
}

/// Where a tile-chain panel reads its packed `B` strips, and what was
/// read off their tiles.
pub(super) enum BStrip<'s> {
    /// The grid's one strip, packed by the caller and read by every
    /// panel.
    Shared(View<'s>),
    /// This panel's buffers, each strip packed into them in turn.
    Own(Packed<'s>),
}

/// What one tile-chain panel works with: one unit shard per `B` strip
/// (or the parent unit, on one panel), its `A` row buffer and its `B`
/// strips.
pub(super) struct ChainPanel<'s, U> {
    pub(super) units: &'s mut [U],
    pub(super) a_row: Packed<'s>,
    pub(super) b: BStrip<'s>,
}

/// Executes one output panel of the tile grid on the tile chain,
/// writing results into the panel's row slab of `D`; returns what became
/// of its tile pairs.
///
/// `B` is packed one column strip at a time (or was, once, by the
/// caller) and `A` one tile row at a time, each exactly once per use;
/// every output tile is then folded over contiguous packed tiles
/// ([`fold_runs`]: one call per run of tile pairs the step does not skip
/// and folds on the same lanes), into an accumulator tile read from `C`
/// and stored straight into the slab. Tiles are visited strip by strip,
/// row-major within a strip. Right after packing a chain or strip, a
/// step that folds on half lanes images it and a step that may skip
/// pairs ([`ChainSkips`]) scans it.
///
/// The panel's units are either a single unit that executes every strip
/// (the sequential schedule) or one worker shard per strip (the
/// row-panel schedule, whose dispatcher absorbs shards strip-major so
/// merged fault logs keep the sequential visit order).
pub(super) fn run_panel<U: MmoUnit>(
    ChainPanel {
        units,
        mut a_row,
        mut b,
    }: ChainPanel<'_, U>,
    step: &MmoArgs<'_>,
    grid: &TileGrid,
    plan: ChainPlan,
    panel: Range<usize>,
    slab: &mut [f32],
) -> ChainTally {
    let row0 = grid.panel_rows(&panel).start;
    let (op, pad) = (step.op, tiling::pad_values(step.op));
    let k_tiles = grid.k_tiles;
    let width = strip_width(k_tiles);
    let mut tally = ChainTally::default();
    for (s, tj0) in (0..grid.n_tiles).step_by(width).enumerate() {
        let strip = tj0..(tj0 + width).min(grid.n_tiles);
        let unit = &mut units[s.min(units.len() - 1)];
        let b_strip = match &mut b {
            BStrip::Shared(view) => *view,
            BStrip::Own(packed) => {
                let mut dst = packed.reborrow().prefix(strip.len() * k_tiles);
                pack_b_strip(unit, step, k_tiles, strip.clone(), plan, dst.reborrow());
                dst.into_view()
            }
        };
        // An `A` row's values matter only beside an empty `B` tile; with
        // no empty tile in the strip nor in the row, nothing is skipped.
        let b_sparse = holds_empty(b_strip.facts);
        for ti in panel.clone() {
            let a_coords = (0..k_tiles).map(|tk| (ti, tk));
            pack_chain(unit, step.a, pad.a, a_coords, a_row.tiles);
            if let SelectLanes::Half(lanes) = plan.lanes {
                lanes.image_a(a_row.tiles, a_row.half, a_row.fits);
            }
            if let Some(skips) = plan.skips {
                let read_values = skips.values && b_sparse;
                skips.scan(unit.kernel_isa(), read_values, a_row.reborrow());
            }
            let sparse = b_sparse || holds_empty(a_row.facts);
            let a_chain = a_row.reborrow().into_view();
            for tj in strip.clone() {
                let mut acc = tiling::load_c_tile::<ISA_TILE>(op, step.c, ti, tj);
                let chains = (a_chain, b_strip.chain(tj - tj0, k_tiles, HALF_B_WORDS));
                let lanes = plan.lanes;
                tally += fold_runs(unit, (ti, tj), op, chains, sparse, lanes, &mut acc);
                tiling::store_d_tile_in_panel(slab, row0, grid.n, &acc, ti, tj);
            }
        }
    }
    tally
}
