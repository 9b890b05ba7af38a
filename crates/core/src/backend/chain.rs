//! The tile chain of [`TiledBackend`](super::TiledBackend): operands
//! packed into tile-major scratch in one pass that also reads what the
//! step needs off each tile, and the per-panel loop that folds every
//! output tile's chain of tile pairs.

use std::ops::Range;

use simd2_matrix::tiling::{self, TileGrid};
use simd2_matrix::{Tile, ISA_TILE};
use simd2_mxu::MmoUnit;
use simd2_semiring::simd::{
    self, FmaLanes, HalfFit, HalfLanes, Scan, CHAIN_ELEMS as TILE_ELEMS, HALF_A_WORDS, HALF_B_WORDS,
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
/// from, each tile beside its record ([`PackBuf`]). Owned by the backend
/// and reused across MMOs; every tile, record and image is written by
/// [`pack`] before it is read. Sized by the caller ([`fit`]) before any
/// panel runs, so a pool worker never allocates and no per-thread malloc
/// arena grows with it.
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

/// One buffer of packed tiles, one record per tile ([`TileFacts`]) and,
/// on half lanes, one fp16 image per tile.
#[derive(Debug, Default)]
pub(super) struct PackBuf {
    tiles: Vec<f32>,
    facts: Vec<TileFacts>,
    half: Vec<u32>,
}

/// What [`pack`] reads off one packed tile while it is still in L1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct TileFacts {
    /// Its scan against the annihilator, or [`UNREAD`] where the step
    /// does not read it — never empty then, so a step that skips nothing
    /// finds no tile to skip for.
    scan: Scan,
    /// Its fp16 fit, where the step folds on fast lanes; otherwise
    /// [`HalfFit::Exact`], which the lane table reads as any other fit
    /// when there are no lanes ([`route`]).
    fit: HalfFit,
}

/// A record not yet written: read as a tile that is not empty.
impl Default for TileFacts {
    fn default() -> Self {
        Self {
            scan: UNREAD,
            fit: HalfFit::Exact,
        }
    }
}

/// The first `count` buffers of `bufs`, each sized for `tiles` packed
/// tiles, their records and an image of `words` words per tile. Buffers
/// only ever grow: everything in them is rewritten before it is read,
/// and a backend that runs other steps between ones that fold on half
/// lanes would otherwise zero the images again for each such step.
pub(super) fn fit(
    bufs: &mut Vec<PackBuf>,
    count: usize,
    tiles: usize,
    words: usize,
) -> impl Iterator<Item = Packed<'_>> {
    fn grow<T: Clone + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
        if buf.len() < len {
            buf.resize(len, T::default());
        }
        &mut buf[..len]
    }
    if bufs.len() < count {
        bufs.resize_with(count, PackBuf::default);
    }
    bufs[..count].iter_mut().map(move |buf| Packed {
        tiles: grow(&mut buf.tiles, tiles * TILE_ELEMS),
        facts: grow(&mut buf.facts, tiles),
        half: grow(&mut buf.half, tiles * words),
        words,
    })
}

/// Packed tiles as [`pack`] writes them: the tiles, their records and
/// their fp16 images, `words` to a tile (none unless the step folds on
/// half lanes).
pub(super) struct Packed<'s> {
    tiles: &'s mut [f32],
    facts: &'s mut [TileFacts],
    half: &'s mut [u32],
    words: usize,
}

impl<'s> Packed<'s> {
    pub(super) fn reborrow(&mut self) -> Packed<'_> {
        Packed {
            tiles: self.tiles,
            facts: self.facts,
            half: self.half,
            words: self.words,
        }
    }

    /// Tiles `tiles`, their records and images.
    pub(super) fn part(self, tiles: Range<usize>) -> Packed<'s> {
        let words = self.words;
        Packed {
            tiles: &mut self.tiles[tiles.start * TILE_ELEMS..tiles.end * TILE_ELEMS],
            facts: &mut self.facts[tiles.clone()],
            half: &mut self.half[tiles.start * words..tiles.end * words],
            words,
        }
    }

    pub(super) fn into_view(self) -> View<'s> {
        View {
            tiles: self.tiles,
            facts: self.facts,
            half: self.half,
            words: self.words,
        }
    }
}

/// Packed tiles as the chains that fold them read them.
#[derive(Clone, Copy)]
pub(super) struct View<'s> {
    tiles: &'s [f32],
    facts: &'s [TileFacts],
    half: &'s [u32],
    words: usize,
}

impl View<'_> {
    /// The `k_tiles` tiles of its chain `index`, their records and
    /// images.
    pub(super) fn chain(self, index: usize, k_tiles: usize) -> Self {
        let (start, end) = (index * k_tiles, (index + 1) * k_tiles);
        let words = self.words;
        View {
            tiles: &self.tiles[start * TILE_ELEMS..end * TILE_ELEMS],
            facts: &self.facts[start..end],
            half: &self.half[start * words..end * words],
            words,
        }
    }
}

/// Which operand of a tile pair [`pack`] packs chains of.
#[derive(Clone, Copy)]
pub(super) enum Side {
    /// `A`, one chain per tile row, packed beside a `B` strip that holds
    /// an empty tile (`b_sparse`) or not.
    A { b_sparse: bool },
    /// `B`, one chain per tile column.
    B,
}

/// Packs chains `chains` of the `side` operand of `step` into `dst`, one
/// chain of `k_tiles` tiles after another, in one pass per chain: each
/// tile padded with the op's fill ([`tiling::pack_tile`]), then the
/// whole chain through the unit's pack hook (the order the per-tile path
/// applies them in), then, while the chain is still in L1, each tile's
/// record ([`TileFacts`]) and, on half lanes, its fp16 image.
///
/// A step that skips pairs ([`ChainSkips`]) scans a tile when the rule
/// reads the values beside an empty tile and the other operand may hold
/// one — for `A`, the strip beside it does; for `B`, some tile of `A`
/// may be empty ([`ChainSkips::of`]); otherwise only a tile whose first
/// row is all annihilator, one that can be empty, the rest being
/// [`UNREAD`], so a dense operand costs one vector compare per tile.
pub(super) fn pack<U: MmoUnit>(
    unit: &U,
    step: &MmoArgs<'_>,
    plan: ChainPlan,
    side: Side,
    chains: Range<usize>,
    k_tiles: usize,
    mut dst: Packed<'_>,
) {
    let pad = tiling::pad_values(step.op);
    let (m, fill) = match side {
        Side::A { .. } => (step.a, pad.a),
        Side::B => (step.b, pad.b),
    };
    let scans = plan.skips.map(|skips| {
        let read_values = match side {
            Side::A { b_sparse } => skips.values && b_sparse,
            Side::B => skips.b_values,
        };
        (skips.zero, read_values)
    });
    for (index, chain) in chains.enumerate() {
        let part = index * k_tiles..(index + 1) * k_tiles;
        let Packed {
            tiles,
            facts,
            half,
            words,
        } = dst.reborrow().part(part);
        for (tk, tile) in tiles.chunks_exact_mut(TILE_ELEMS).enumerate() {
            let (tr, tc) = match side {
                Side::A { .. } => (chain, tk),
                Side::B => (tk, chain),
            };
            tiling::pack_tile::<ISA_TILE>(m, tr, tc, fill, tile);
        }
        unit.quantize_packed(tiles);
        for (tk, (tile, facts)) in tiles.chunks_exact(TILE_ELEMS).zip(facts).enumerate() {
            let image = &mut half[tk * words..(tk + 1) * words];
            let mut fit = HalfFit::Exact;
            let one = std::slice::from_mut(&mut fit);
            match (plan.lanes, side) {
                (Lanes::Half(lanes), Side::A { .. }) => lanes.image_a(tile, image, one),
                (Lanes::Half(lanes), Side::B) => lanes.image_b(tile, image, one),
                (Lanes::Fma(lanes), _) => lanes.fits(tile, one),
                (Lanes::F32, _) => {}
            }
            let scan = match scans {
                Some((zero, read_values)) if read_values || all_zero(&tile[..ISA_TILE], zero) => {
                    simd::scan(unit.kernel_isa(), zero, tile)
                }
                _ => UNREAD,
            };
            *facts = TileFacts { scan, fit };
        }
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
    /// it skips no pair, and packs without scanning, every record
    /// [`UNREAD`]: `op` has no pair the rule lets go even on operands
    /// wholly inside its domain (the default scan): plus-norm has no
    /// annihilator, and max-mul's skipped terms need a trailing `⊕ +0.0`
    /// that is exact only over whole operands, which a tile pair does not
    /// see.
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
}

/// Whether every element of `row` is `zero`: folded without an early
/// exit. Only the float ops' chains reach it (or-and's steps on a unit
/// that skips take the bit walk), each time on one tile row of at most
/// 16 elements; on the sparse operands where the answer matters, the
/// first stored element of a row sits anywhere in it, so an exit there
/// would mispredict about once per row, while the fold costs the same
/// compares whatever the row holds.
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

/// Whether some tile of the packed chain or strip holds nothing but the
/// annihilator.
pub(super) fn holds_empty(facts: &[TileFacts]) -> bool {
    facts.iter().any(|facts| facts.scan.stored == 0)
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
    // Where pair `tk` folds: `None` left out.
    let route = |tk: usize| {
        let (a, b) = (a.facts[tk], b.facts[tk]);
        let skip = sparse && skips_pair(op, a.scan, b.scan);
        (!skip).then(|| plan.routes[a.fit.max(b.fit) as usize])
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
/// caller) and `A` one tile row at a time, each exactly once per use and
/// each tile with its record in the same pass ([`pack`]); the strip goes
/// first, since whether `A`'s values are read depends on whether it
/// holds an empty tile. Every output tile is then folded over contiguous
/// packed tiles ([`fold_runs`]: one call per run of tile pairs the step
/// does not skip and folds on the same lanes), into an accumulator tile
/// read from `C` and stored straight into the slab. Tiles are visited
/// strip by strip, row-major within a strip.
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
    let op = step.op;
    let k_tiles = grid.k_tiles;
    let width = strip_width(k_tiles);
    let mut tally = ChainTally::default();
    for (s, tj0) in (0..grid.n_tiles).step_by(width).enumerate() {
        let strip = tj0..(tj0 + width).min(grid.n_tiles);
        let unit = &mut units[s.min(units.len() - 1)];
        let b_strip = match &mut b {
            BStrip::Shared(view) => *view,
            BStrip::Own(packed) => {
                let mut dst = packed.reborrow().part(0..strip.len() * k_tiles);
                pack(
                    unit,
                    step,
                    plan,
                    Side::B,
                    strip.clone(),
                    k_tiles,
                    dst.reborrow(),
                );
                dst.into_view()
            }
        };
        // An `A` row's values matter only beside an empty `B` tile; with
        // no empty tile in the strip nor in the row, nothing is skipped.
        let b_sparse = holds_empty(b_strip.facts);
        for ti in panel.clone() {
            let a = Side::A { b_sparse };
            pack(unit, step, plan, a, ti..ti + 1, k_tiles, a_row.reborrow());
            let sparse = b_sparse || holds_empty(a_row.facts);
            let a_chain = a_row.reborrow().into_view();
            for tj in strip.clone() {
                let mut acc = tiling::load_c_tile::<ISA_TILE>(op, step.c, ti, tj);
                let chains = (a_chain, b_strip.chain(tj - tj0, k_tiles));
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
    use simd2_matrix::Matrix;
    use simd2_mxu::{PrecisionMode, Simd2Unit};
    use simd2_semiring::simd::KernelIsa;
    use simd2_semiring::ALL_OPS;

    /// A seeded `rows × cols` operand of op's annihilator `zero`, tile
    /// by tile (on the `16 × 16` grid): empty, empty in its first row
    /// only, or stored; stored entries are on the fp16 lattice, signed,
    /// with `special` at about one entry in forty.
    fn operand(rows: usize, cols: usize, zero: f32, special: Option<f32>, salt: u64) -> Matrix {
        let hash = |x: u64| {
            let x =
                (x ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_mul(0xff51_afd7_ed55_8ccd);
            x ^ (x >> 29)
        };
        Matrix::from_fn(rows, cols, |r, c| {
            let (tr, tc) = (r / ISA_TILE, c / ISA_TILE);
            let h = hash((r * 4096 + c) as u64);
            match hash((tr * 64 + tc) as u64 | 1 << 40) % 4 {
                0 => zero,
                1 if r % ISA_TILE == 0 => zero,
                _ => match special {
                    Some(x) if h % 40 == 0 => x,
                    _ if h % 9 == 0 => zero,
                    _ => ((h >> 8) % 17) as f32 * 0.5 - 4.0,
                },
            }
        })
    }

    /// The one pass against the leaves run over the buffer it wrote:
    /// tile bits against `tiling::pack_tile` then the pack hook over the
    /// whole buffer; each record's scan against `simd::scan` on the
    /// scalar leaf, or [`UNREAD`] where the rule reads no values and the
    /// tile's first row is not all annihilator, or the step skips
    /// nothing (when no record may read as empty); its fit and image
    /// against [`FmaLanes::fits`] / [`HalfLanes::image_a`] /
    /// [`HalfLanes::image_b`] (on a host with AVX512-FP16 for the
    /// images). Every op, fp16 / fp32 / int8 units, `A` chains beside
    /// strips with and without an empty tile and `B` strips, at widths,
    /// heights and `k` of 1 / 15 / 16 / 17 / 33; max-mul's `1.0` / `−∞`
    /// pads. One scratch serves every case, so a record left unwritten
    /// shows a stale one.
    #[test]
    fn one_pass_writes_what_the_leaves_read() {
        const DIMS: [usize; 5] = [1, 15, 16, 17, 33];
        let specials = [None, Some(f32::NAN), Some(f32::NEG_INFINITY), Some(0.1)];
        let (mut bufs, mut fits, mut scans) = (Vec::new(), Vec::new(), [0; 3]);
        for precision in [
            PrecisionMode::Fp16Input,
            PrecisionMode::Fp32Input,
            PrecisionMode::Int8Input,
        ] {
            let unit = Simd2Unit::with_precision(precision);
            for op in ALL_OPS {
                let zero = op.no_edge_f32().unwrap_or(0.0);
                for (case, (special, (i, j))) in specials
                    .into_iter()
                    .flat_map(|s| (0..5).flat_map(move |i| (0..5).map(move |j| (s, (i, j)))))
                    .enumerate()
                {
                    let (m, k, n) = (DIMS[i], DIMS[j], DIMS[(i + j) % 5]);
                    let a = operand(m, k, zero, special, 2 * case as u64);
                    let b = operand(k, n, zero, special, 2 * case as u64 + 1);
                    let c = Matrix::zeros(m, n);
                    let step = MmoArgs::new(op, &a, &b, &c);
                    let grid = step.checked_grid().unwrap();
                    let plan = ChainPlan::of(&unit, &step);
                    let pad = tiling::pad_values(op);
                    for side in [
                        Side::A { b_sparse: false },
                        Side::A { b_sparse: true },
                        Side::B,
                    ] {
                        let ctx = format!("{precision:?} {op} {m}×{k}×{n} {special:?} {case}");
                        let (chains, words, fill) = match side {
                            Side::A { .. } => (grid.m_tiles, HALF_A_WORDS, pad.a),
                            Side::B => (grid.n_tiles, HALF_B_WORDS, pad.b),
                        };
                        let (count, words) = (chains * grid.k_tiles, plan.lanes.words(words));
                        let dst = fit(&mut bufs, 1, count, words).next().unwrap();
                        pack(&unit, &step, plan, side, 0..chains, grid.k_tiles, dst);
                        let buf = &bufs[0];
                        let (tiles, facts) =
                            (&buf.tiles[..count * TILE_ELEMS], &buf.facts[..count]);
                        let mut want = vec![0.0; count * TILE_ELEMS];
                        for (t, tile) in want.chunks_exact_mut(TILE_ELEMS).enumerate() {
                            let (chain, tk) = (t / grid.k_tiles, t % grid.k_tiles);
                            let (m, (tr, tc)) = match side {
                                Side::A { .. } => (&a, (chain, tk)),
                                Side::B => (&b, (tk, chain)),
                            };
                            tiling::pack_tile::<ISA_TILE>(m, tr, tc, fill, tile);
                        }
                        unit.quantize_packed(&mut want);
                        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(tiles), bits(&want), "{ctx}: tiles");
                        let mut want_fits = vec![HalfFit::Exact; count];
                        let mut image = vec![0; count * words];
                        match (plan.lanes, side) {
                            (Lanes::Half(l), Side::A { .. }) => {
                                l.image_a(&want, &mut image, &mut want_fits)
                            }
                            (Lanes::Half(l), Side::B) => {
                                l.image_b(&want, &mut image, &mut want_fits)
                            }
                            (Lanes::Fma(l), _) => l.fits(&want, &mut want_fits),
                            (Lanes::F32, _) => {}
                        }
                        assert_eq!(&buf.half[..count * words], image, "{ctx}: images");
                        let read_values = plan.skips.map(|skips| match side {
                            Side::A { b_sparse } => skips.values && b_sparse,
                            Side::B => skips.b_values,
                        });
                        for (t, (tile, got)) in want.chunks_exact(TILE_ELEMS).zip(facts).enumerate()
                        {
                            let scan = |xs| simd::scan(KernelIsa::Scalar, zero, xs);
                            let scan = match read_values {
                                Some(values) if values || scan(&tile[..ISA_TILE]).stored == 0 => {
                                    scan(tile)
                                }
                                _ => UNREAD,
                            };
                            let want = TileFacts {
                                scan,
                                fit: want_fits[t],
                            };
                            assert_eq!(*got, want, "{ctx}: record of tile {t}");
                            scans[usize::from(scan != UNREAD) + usize::from(scan.stored == 0)] += 1;
                        }
                        if plan.skips.is_none() {
                            assert!(!holds_empty(facts), "{ctx}: a step that skips nothing");
                        }
                        if plan.lanes.reads_fits() {
                            fits.extend_from_slice(&want_fits);
                        }
                    }
                }
            }
        }
        // Unread, scanned and stored, scanned and empty.
        assert!(scans.iter().all(|&n| n > 0), "{scans:?}");
        if FmaLanes::new(simd::selected_isa(), OpKind::PlusMul).is_some() {
            for fit in FITS {
                assert!(fits.contains(&fit), "{fit:?} never packed");
            }
        }
    }

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
