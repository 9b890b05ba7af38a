//! The tile chain of [`TiledBackend`](super::TiledBackend): operands
//! packed into tile-major scratch, what the step reads off each packed
//! tile, and the per-panel loop that folds every output tile's chain of
//! tile pairs.

use std::ops::Range;

use simd2_matrix::tiling::{self, TileGrid};
use simd2_matrix::{Matrix, Tile, ISA_TILE};
use simd2_mxu::MmoUnit;
use simd2_semiring::simd::{
    self, FmaLanes, HalfFit, HalfLanes, KernelIsa, Scan, CHAIN_ELEMS as TILE_ELEMS, HALF_A_WORDS,
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
/// The tile pairs of each counted [`Route`], by route (traced backends
/// only; see [`route`]).
static ROUTE_PAIRS: [Counter; Route::Unit as usize] = [
    Counter::new("core.chain.fp16_pairs"),
    Counter::new("core.chain.f32_select_pairs.nan"),
    Counter::new("core.chain.f32_select_pairs.off_lattice"),
    Counter::new("core.chain.f32_select_pairs.no_fp16"),
    Counter::new("core.chain.fma_pairs"),
    Counter::new("core.chain.mul_add_pairs.non_finite"),
    Counter::new("core.chain.mul_add_pairs.off_lattice"),
    Counter::new("core.chain.mul_add_pairs.no_fma"),
];

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
    /// One fit per tile — none unless the step folds on half or FMA
    /// lanes.
    fits: Vec<HalfFit>,
}

/// The first `count` buffers of `bufs`, each sized for `tiles` packed
/// tiles, a scan per tile when `facts`, a fit per tile when the step's
/// `lanes` read fits, and an image of `lanes.words(words)` words per
/// tile. Fits and images only ever grow: they are rewritten before every
/// read, and a backend that runs other ops between ones that read them
/// would otherwise zero them again for each such step.
pub(super) fn fit(
    bufs: &mut Vec<PackBuf>,
    count: usize,
    tiles: usize,
    facts: bool,
    (lanes, words): (Lanes, usize),
) -> impl Iterator<Item = Packed<'_>> {
    if bufs.len() < count {
        bufs.resize_with(count, PackBuf::default);
    }
    let fitted = if lanes.reads_fits() { tiles } else { 0 };
    let words = tiles * lanes.words(words);
    for buf in &mut bufs[..count] {
        buf.tiles.resize(tiles * TILE_ELEMS, 0.0);
        buf.facts
            .resize(if facts { tiles } else { 0 }, Scan::default());
        if buf.fits.len() < fitted {
            buf.fits.resize(fitted, HalfFit::default());
        }
        if buf.half.len() < words {
            buf.half.resize(words, 0);
        }
    }
    bufs[..count].iter_mut().map(move |buf| Packed {
        tiles: &mut buf.tiles,
        facts: &mut buf.facts,
        half: &mut buf.half[..words],
        fits: &mut buf.fits[..fitted],
    })
}

/// A packed chain or strip and what the step reads off its tiles: their
/// scans (none when the step skips nothing), their fits (none unless it
/// folds on half or FMA lanes) and their fp16 images (none unless it
/// folds on half lanes).
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

/// Packs the `B` strip of tile columns `strip` into `dst`, reads its
/// fits when the step's lanes read them ([`Lanes::read`]) and, when it
/// skips, scans it (every tile's values, if the rule may read them).
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
    plan.lanes.read(Side::B, dst.reborrow());
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
    /// How a step of `op` on a coordinate-free unit skips — `None` when
    /// it skips no pair, and packs without scanning: `op` has no pair the
    /// rule lets go even on operands wholly inside its domain (the
    /// default scan): plus-norm has no annihilator, and max-mul's skipped
    /// terms need a trailing `⊕ +0.0` that is exact only over whole
    /// operands, which a tile pair does not see.
    ///
    /// `A`'s tiles are packed after `B`'s strip, so whether one of them
    /// may be empty is read off the matrix: a tile can pack to nothing
    /// but the annihilator only if its first row holds nothing else (the
    /// pack hook maps the annihilator to itself). A tile the quantiser
    /// rounds onto the annihilator is missed, and a pair through it is
    /// then kept beside a `B` tile whose values were not read — folded,
    /// not skipped, so still exact.
    fn of(step: &MmoArgs<'_>) -> Option<Self> {
        let (empty, inside) = (Scan::default(), Scan::default());
        let skips = skip_rule(step.op, empty, inside) == Skip::Exact;
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

/// Where the tile chain of a coordinate-free unit folds a tile pair it
/// keeps, and which counter of [`ROUTE_PAIRS`] counts it ([`route`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
    /// Min-max or max-min on fp16 lanes.
    Fp16,
    /// … on `f32` lanes, because a tile of the pair holds a NaN.
    F32Nan,
    /// … because a tile holds a value off the fp16 lattice and no NaN.
    F32OffLattice,
    /// … because the unit's tier has no fp16 lanes (an AVX-512 host
    /// without AVX512-FP16, or a pin to AVX2 or scalar).
    F32NoFp16,
    /// Plus-mul on FMA lanes, one fused multiply-add per term.
    Fma,
    /// … as a multiply and an add, because a tile of the pair holds a
    /// NaN, or `±∞` while both are on the fp16 lattice.
    MulAddNonFinite,
    /// … because a tile holds a value off the fp16 lattice and no NaN.
    MulAddOffLattice,
    /// … because the unit's tier has no FMA lanes (a pin to scalar).
    MulAddNoFma,
    /// An op without fast lanes, or a unit that is not coordinate-free:
    /// the unit's chain, uncounted.
    Unit,
}

impl Route {
    /// Whether the pair folds on the step's fp16 or FMA lanes.
    fn fast(self) -> bool {
        matches!(self, Self::Fp16 | Self::Fma)
    }
}

/// The tile chain's lane table: where a coordinate-free unit folds a kept
/// pair of `op` whose worse tile fit is `fit`, when its tier has `op`'s
/// fp16 or FMA lanes (`lanes`: [`HalfLanes::new`] / [`FmaLanes::new`] on
/// its [`kernel_isa`](MmoUnit::kernel_isa)) or not. Without lanes the
/// table reads no fit. fp16 lanes hold a pair both of whose images hold
/// its tiles, `±∞` included; FMA lanes need both finite and on the
/// lattice, where a product of two fp16 values is exact in `f32`.
fn route(op: OpKind, lanes: bool, fit: HalfFit) -> Route {
    use HalfFit::{Exact, Infinite, Nan, OffLattice};
    use OpKind::{MaxMin, MinMax, PlusMul};
    match (op, lanes, fit) {
        (MinMax | MaxMin, true, Exact | Infinite) => Route::Fp16,
        (MinMax | MaxMin, true, Nan) => Route::F32Nan,
        (MinMax | MaxMin, true, OffLattice) => Route::F32OffLattice,
        (MinMax | MaxMin, false, _) => Route::F32NoFp16,
        (PlusMul, true, Exact) => Route::Fma,
        (PlusMul, true, Infinite | Nan) => Route::MulAddNonFinite,
        (PlusMul, true, OffLattice) => Route::MulAddOffLattice,
        (PlusMul, false, _) => Route::MulAddNoFma,
        _ => Route::Unit,
    }
}

/// Every [`HalfFit`], each at its own index.
const FITS: [HalfFit; 4] = [
    HalfFit::Exact,
    HalfFit::Infinite,
    HalfFit::OffLattice,
    HalfFit::Nan,
];

/// Which lanes the tile chain of a step folds its fast pairs on.
#[derive(Clone, Copy)]
pub(super) enum Lanes {
    /// None: every pair through the unit's chain.
    F32,
    /// fp16 lanes, over the pairs' fp16 images.
    Half(HalfLanes),
    /// FMA lanes, over the pairs' tiles.
    Fma(FmaLanes),
}

/// Which operand of a tile pair a packed chain or strip is.
#[derive(Clone, Copy)]
pub(super) enum Side {
    A,
    B,
}

impl Lanes {
    /// Words of image per packed tile whose images take `words`: none
    /// unless the step folds on half lanes.
    pub(super) fn words(self, words: usize) -> usize {
        match self {
            Self::Half(_) => words,
            _ => 0,
        }
    }

    /// Whether the step reads a fit off every packed tile: it has fast
    /// lanes.
    pub(super) fn reads_fits(self) -> bool {
        !matches!(self, Self::F32)
    }

    /// Reads what the step's lanes need off the freshly packed tiles of
    /// `dst`, the `side` operand of their pairs: the fp16 images and
    /// fits for half lanes, the fits alone for FMA lanes.
    pub(super) fn read(self, side: Side, dst: Packed<'_>) {
        match (self, side) {
            (Self::Half(lanes), Side::A) => lanes.image_a(dst.tiles, dst.half, dst.fits),
            (Self::Half(lanes), Side::B) => lanes.image_b(dst.tiles, dst.half, dst.fits),
            (Self::Fma(lanes), _) => lanes.fits(dst.tiles, dst.fits),
            (Self::F32, _) => {}
        }
    }
}

/// What the tile chain of a step reads off its packed tiles: the pairs it
/// may skip, and the lanes it folds on.
#[derive(Clone, Copy)]
pub(super) struct ChainPlan {
    pub(super) skips: Option<ChainSkips>,
    pub(super) lanes: Lanes,
    /// The step's row of [`route`]: where a kept pair folds, by the worse
    /// fit of its tiles.
    routes: [Route; FITS.len()],
}

impl ChainPlan {
    /// The plan of a `unit` step. Only a
    /// [coordinate-free](MmoUnit::COORDINATE_FREE) unit skips pairs
    /// ([`ChainSkips::of`]) or folds on its tier's fast lanes: one that
    /// injects or probes at every [`simd2_mxu::TileCoord`] is handed
    /// every pair as tiles, uncounted.
    pub(super) fn of<U: MmoUnit>(unit: &U, step: &MmoArgs<'_>) -> Self {
        let (isa, op, routed) = (unit.kernel_isa(), step.op, U::COORDINATE_FREE);
        let lanes = match (routed, HalfLanes::new(isa, op), FmaLanes::new(isa, op)) {
            (true, Some(half), _) => Lanes::Half(half),
            (true, None, Some(fma)) => Lanes::Fma(fma),
            _ => Lanes::F32,
        };
        let skips = routed.then(|| ChainSkips::of(step)).flatten();
        let routes = FITS.map(|fit| {
            if routed {
                route(op, lanes.reads_fits(), fit)
            } else {
                Route::Unit
            }
        });
        Self {
            skips,
            lanes,
            routes,
        }
    }
}

/// What the tile chain did with a step's tile pairs, beyond the grid's
/// logical [`OpCount`]: the counts behind the `core.chain.*` counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(super) struct ChainTally {
    /// Pairs left out ([`skips_pair`]).
    skipped: u64,
    /// Pairs kept, by [`Route`]; [`Route::Unit`]'s, last, is not recorded.
    routes: [u64; Route::Unit as usize + 1],
}

impl ChainTally {
    /// Adds the tally to the process-global counters.
    pub(super) fn record(self) {
        CHAIN_SKIPPED_PAIRS.add(self.skipped);
        for (counter, pairs) in ROUTE_PAIRS.iter().zip(self.routes) {
            counter.add(pairs);
        }
    }
}

impl std::ops::AddAssign for ChainTally {
    fn add_assign(&mut self, rhs: Self) {
        self.skipped += rhs.skipped;
        for (sum, pairs) in self.routes.iter_mut().zip(rhs.routes) {
            *sum += pairs;
        }
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
/// facts; the step's `plan` routes the others ([`route`]). Each run of
/// kept pairs that go the same way is one call: on the step's fp16 or
/// FMA lanes where the route is [fast](Route::fast)
/// ([`HalfLanes::mmo_chain`] over the pairs' fp16 images,
/// [`FmaLanes::mmo_chain`] over the tiles), through
/// [`MmoUnit::execute_chain`] otherwise; a tile with no kept pair gets
/// the empty chain. Every call seeds `acc ⊕ id`, which is idempotent,
/// a half-lane call folds its run into that once, which is exact
/// (DESIGN.md §8 "Selection chains on fp16 lanes"), and an FMA-lane call
/// rounds each term as a multiply and an add would (§8 "Plus-mul chains
/// on FMA lanes"), so the runs fold exactly what one call over the kept
/// pairs would.
pub(super) fn fold_runs<U: MmoUnit>(
    unit: &mut U,
    tile: (usize, usize),
    op: OpKind,
    (a, b): (View<'_>, View<'_>),
    sparse: bool,
    plan: ChainPlan,
    acc: &mut Tile<ISA_TILE>,
) -> ChainTally {
    let k_tiles = a.tiles.len() / TILE_ELEMS;
    let mut tally = ChainTally::default();
    let lanes = plan.lanes;
    if !sparse && !lanes.reads_fits() {
        unit.execute_chain(tile, op, a.tiles, b.tiles, acc);
        // Without fast lanes no fit is read, and the route takes none.
        tally.routes[plan.routes[HalfFit::Exact as usize] as usize] += k_tiles as u64;
        return tally;
    }
    let fit = |tk: usize| {
        if lanes.reads_fits() {
            a.fits[tk].max(b.fits[tk])
        } else {
            HalfFit::Exact
        }
    };
    // Where pair `tk` folds: `None` left out.
    let route = |tk: usize| {
        let skip = sparse && skips_pair(op, a.facts[tk], b.facts[tk]);
        (!skip).then(|| plan.routes[fit(tk) as usize])
    };
    let mut fold = |tks: Range<usize>, fast: bool| {
        let run = tks.start * TILE_ELEMS..tks.end * TILE_ELEMS;
        match lanes {
            Lanes::Half(lanes) if fast => {
                let (a_words, b_words) = (tks.start * HALF_A_WORDS, tks.start * HALF_B_WORDS);
                let (a_len, b_len) = (tks.len() * HALF_A_WORDS, tks.len() * HALF_B_WORDS);
                let (a_run, b_run) = (&a.half[a_words..][..a_len], &b.half[b_words..][..b_len]);
                lanes.mmo_chain(a_run, b_run, acc.as_flat_mut());
            }
            Lanes::Fma(lanes) if fast => {
                lanes.mmo_chain(&a.tiles[run.clone()], &b.tiles[run], acc.as_flat_mut());
            }
            _ => unit.execute_chain(tile, op, &a.tiles[run.clone()], &b.tiles[run], acc),
        }
    };
    let (mut open, mut kept) = (None, 0);
    for tk in 0..=k_tiles {
        let next = if tk < k_tiles { route(tk) } else { None };
        if let Some(route) = next {
            tally.routes[route as usize] += 1;
        }
        let next = next.map(Route::fast);
        if let Some((start, fast)) = open {
            if next == Some(fast) {
                continue;
            }
            fold(start..tk, fast);
            kept += tk - start;
        }
        open = next.map(|fast| (tk, fast));
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
/// step that folds on fp16 or FMA lanes reads its fits ([`Lanes::read`])
/// and a step that may skip pairs ([`ChainSkips`]) scans it.
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
            plan.lanes.read(Side::A, a_row.reborrow());
            if let Some(skips) = plan.skips {
                let read_values = skips.values && b_sparse;
                skips.scan(unit.kernel_isa(), read_values, a_row.reborrow());
            }
            let sparse = b_sparse || holds_empty(a_row.facts);
            let a_chain = a_row.reborrow().into_view();
            for tj in strip.clone() {
                let mut acc = tiling::load_c_tile::<ISA_TILE>(op, step.c, ti, tj);
                let chains = (a_chain, b_strip.chain(tj - tj0, k_tiles, HALF_B_WORDS));
                tally += fold_runs(unit, (ti, tj), op, chains, sparse, plan, &mut acc);
                tiling::store_d_tile_in_panel(slab, row0, grid.n, &acc, ti, tj);
            }
        }
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use simd2_semiring::ALL_OPS;

    /// The lane table, case by case: what folds on fast lanes, what each
    /// kept pair is counted as, and that nothing else is. Pure, so it
    /// covers the fp16 routes on hosts without AVX512-FP16 too.
    #[test]
    fn the_lane_table_routes_every_pair_once() {
        let mut reached = Vec::new();
        for (i, fit) in FITS.into_iter().enumerate() {
            assert_eq!(fit as usize, i, "{fit:?}");
        }
        for op in ALL_OPS {
            for lanes in [false, true] {
                for fit in FITS {
                    let got = route(op, lanes, fit);
                    let ctx = format!("{op} lanes={lanes} {fit:?}");
                    let fast = match op {
                        OpKind::MinMax | OpKind::MaxMin => lanes && fit <= HalfFit::Infinite,
                        OpKind::PlusMul => lanes && fit == HalfFit::Exact,
                        _ => false,
                    };
                    assert_eq!(got.fast(), fast, "{ctx}");
                    if !lanes {
                        assert_eq!(got, route(op, lanes, HalfFit::Nan), "{ctx}: read a fit");
                    }
                    let family = match op {
                        OpKind::MinMax | OpKind::MaxMin => ["core.chain.fp16_", "core.chain.f32_"],
                        OpKind::PlusMul => ["core.chain.fma_", "core.chain.mul_add_"],
                        _ => {
                            assert_eq!(got, Route::Unit, "{ctx}: counted");
                            continue;
                        }
                    };
                    let name = ROUTE_PAIRS[got as usize].name();
                    assert!(family.iter().any(|f| name.starts_with(f)), "{ctx}: {name}");
                    let cause = match (lanes, fit) {
                        (false, _) if op.selects() => ".no_fp16",
                        (false, _) => ".no_fma",
                        _ if fast => "_pairs",
                        (_, HalfFit::OffLattice) => ".off_lattice",
                        (_, HalfFit::Nan) if op.selects() => ".nan",
                        _ => ".non_finite",
                    };
                    assert!(name.ends_with(cause), "{ctx}: {name}");
                    reached.push(got);
                }
            }
        }
        for (i, counter) in ROUTE_PAIRS.iter().enumerate() {
            let name = counter.name();
            assert!(name.starts_with("core.chain."), "{name}");
            assert!(reached.iter().any(|&r| r as usize == i), "{name} unreached");
            let others = ROUTE_PAIRS.iter().map(|c| c.name());
            let names = others.chain([CHAIN_SKIPPED_PAIRS.name()]);
            assert_eq!(names.filter(|&n| n == name).count(), 1, "{name}");
        }
    }
}
