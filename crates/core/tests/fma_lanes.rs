//! Plus-mul on the tile chain's FMA lanes, end to end.
//!
//! `TiledBackend` folds plus-mul with one fused multiply-add per term
//! wherever both tiles of a pair are finite and on the fp16 lattice, and
//! with a multiply and an add otherwise. Every case here must equal
//! `ReferenceBackend` on the unit's quantised operands and the
//! scalar-pinned unit bit for bit:
//! * `Fp16Input`, `Fp32Input` and `Int8Input` units, at one and two
//!   workers;
//! * a grid whose packed `B` is one shared strip, and one packed in two
//!   strips, and a grid with no marked tile, whose chains all fuse;
//! * values from fp16 subnormals to `±65504` (products from `2⁻⁴⁸` to
//!   `65504²`), whole tiles of the annihilator (`0`), so the chain leaves
//!   pairs out and folds the rest in runs, tiles holding a NaN, a `±∞`
//!   or values off the fp16 lattice, and tiles of `1e19` whose products
//!   overflow the accumulator the next run folds into, while the
//!   accumulators of other output tiles stay small enough that a pair
//!   fused off the lattice would show — over
//!   accumulators holding NaN, `±0`, `±∞`, `±f32::MAX` and values off
//!   the lattice;
//! * the tier pinned down to AVX2 and to the scalar kernel, as a
//!   resilience layer pins a suspect tier (never up: on the forced-scalar
//!   leg only the scalar pin runs, and no pair may fuse).
//!
//! Each step must also move the `core.chain.*` counters by exactly what a
//! model of the packed tiles predicts. The counters are process-global,
//! so this binary holds one test that reads their deltas one step at a
//! time.

use simd2::{Backend, Degrade, Parallelism, RecoveryPolicy, ReferenceBackend, ResilientBackend};
use simd2::{MmoArgs, TiledBackend};
use simd2_matrix::tiling::{self, TileGrid};
use simd2_matrix::{Matrix, ISA_TILE};
use simd2_mxu::{PrecisionMode, Simd2Unit};
use simd2_semiring::precision::quantize_f16;
use simd2_semiring::simd::{self, FmaLanes, HalfFit, KernelIsa};
use simd2_semiring::OpKind;

#[path = "pools/lanes.rs"]
mod lanes;
use lanes::{assert_same, bits, hash, step, traced};

/// The counters a plus-mul tile-chain step moves, in the order [`Tally`]
/// holds them.
const COUNTERS: [&str; 5] = [
    "core.chain.skipped_pairs",
    "core.chain.fma_pairs",
    "core.chain.mul_add_pairs.non_finite",
    "core.chain.mul_add_pairs.off_lattice",
    "core.chain.mul_add_pairs.no_fma",
];

/// Pairs skipped, folded on FMA lanes, and folded as a multiply and an
/// add for a NaN or `±∞`, for a value off the lattice and for a tier
/// without FMA lanes.
type Tally = [u64; 5];

const OP: OpKind = OpKind::PlusMul;

/// What an operand tile holds besides ordinary values.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mark {
    Dense,
    /// Nothing but the annihilator.
    Empty,
    /// A NaN.
    Nan,
    /// A `±∞`.
    Inf,
    /// Every value off the fp16 lattice (and off the int8 one).
    Off,
    /// A line of `1e19`: off the lattice (`∞` once quantised to fp16).
    /// `A` tiles hold a row, `B` tiles a column, so a pair of two such
    /// tiles overflows one accumulator element within four terms.
    Big,
}

/// Where an operand's tiles hold what: `wide` tiles take fp16 subnormals
/// and `±65504` among their values, `big` tiles are [`Mark::Big`] with
/// their `1e19`s where `line` says. Keeping wide values to some output
/// tiles, and every special to one element or line of a tile, leaves
/// most accumulators small and finite enough that a product rounded once
/// less than the fold rounds it shows in their bits.
struct Layout {
    wide: fn(usize, usize) -> bool,
    big: fn(usize, usize) -> bool,
    line: fn(usize, usize) -> bool,
}

/// The mark of tile `(tr, tc)` of an operand: a quarter of the tiles
/// empty, one in eight each with NaNs, with infinities and off the
/// lattice, and the `big` ones — or none but dense ones when the operand
/// is `clean`.
fn mark(tr: usize, tc: usize, salt: u64, layout: &Layout, clean: bool) -> Mark {
    match hash(tr, tc, salt) % 8 {
        _ if clean => Mark::Dense,
        _ if (layout.big)(tr, tc) => Mark::Big,
        0 | 1 => Mark::Empty,
        2 => Mark::Nan,
        3 => Mark::Inf,
        4 => Mark::Off,
        _ => Mark::Dense,
    }
}

/// A `rows × cols` plus-mul operand whose tiles carry [`mark`]s.
/// Ordinary values are integers in `-100..=100` and signed zeros, with
/// the smallest fp16 subnormal and `±65504` in `wide` tiles: on the fp16
/// lattice, and the integers on the int8 one. Off the lattice, each is
/// `0.1` more.
fn operand(rows: usize, cols: usize, salt: u64, layout: &Layout, clean: bool) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let (tr, tc) = (r / ISA_TILE, c / ISA_TILE);
        let h = hash(r, c, salt + 1);
        let value = match h % 16 {
            0 => -0.0,
            1 => 0.0,
            2 if (layout.wide)(tr, tc) => 1.0 / 16_777_216.0,
            3 if (layout.wide)(tr, tc) => 65504.0,
            4 if (layout.wide)(tr, tc) => -65504.0,
            _ => (h % 201) as f32 - 100.0,
        };
        let (i, j) = (r % ISA_TILE, c % ISA_TILE);
        match mark(tr, tc, salt, layout, clean) {
            Mark::Empty => 0.0,
            Mark::Nan if (i, j) == (3, 7) => f32::NAN,
            Mark::Inf if (i, j) == (5, 11) => f32::INFINITY.copysign(value),
            Mark::Off => value + 0.1,
            Mark::Big if (layout.line)(i, j) => 1.0e19,
            _ => value,
        }
    })
}

/// `A`: wide in every third tile row, and `1e19` along row 7 of the
/// first tile of odd tile rows.
const A_LAYOUT: Layout = Layout {
    wide: |ti, _| ti % 3 == 0,
    big: |ti, tk| tk == 0 && ti % 2 == 1,
    line: |i, _| i == 7,
};

/// `B`: wide in every third tile column, and `1e19` along column 7 of
/// the first tile of odd tile columns — so element `(7, 7)` of output
/// tiles in odd tile rows and columns overflows at their first pair, and
/// the runs after it fold into `+∞`.
const B_LAYOUT: Layout = Layout {
    wide: |_, tj| tj % 3 == 0,
    big: |tk, tj| tk == 0 && tj % 2 == 1,
    line: |_, j| j == 7,
};

/// An accumulator holding NaN, `±0`, `±∞`, `±f32::MAX`, values off the
/// fp16 lattice and integers.
fn accumulator(rows: usize, cols: usize, salt: u64) -> Matrix {
    const SEEDS: [f32; 8] = [
        f32::NAN,
        -0.0,
        0.0,
        0.1,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
        -f32::MAX,
    ];
    Matrix::from_fn(rows, cols, |r, c| {
        let h = hash(r, c, salt);
        SEEDS
            .get(h as usize % 16)
            .copied()
            .unwrap_or((h % 201) as f32 - 100.0)
    })
}

/// What the tile chain can read off a packed, quantised tile.
#[derive(Clone, Copy)]
struct Facts {
    /// Nothing but the annihilator (`±0`).
    empty: bool,
    /// The first row is all annihilator: the engine scans this tile even
    /// when it reads no values.
    first_row_empty: bool,
    /// Every element finite.
    finite: bool,
    fit: HalfFit,
}

fn tile_facts(unit: &Simd2Unit, m: &Matrix, (tr, tc): (usize, usize), fill: f32) -> Facts {
    let mut tile = [0.0f32; ISA_TILE * ISA_TILE];
    tiling::pack_tile::<ISA_TILE>(m, tr, tc, fill, &mut tile);
    unit.quantize_operands(&mut tile);
    let fit = if tile.iter().any(|x| x.is_nan()) {
        HalfFit::Nan
    } else if tile
        .iter()
        .any(|&x| quantize_f16(x).to_bits() != x.to_bits())
    {
        HalfFit::OffLattice
    } else if tile.iter().any(|x| x.is_infinite()) {
        HalfFit::Infinite
    } else {
        HalfFit::Exact
    };
    Facts {
        empty: tile.iter().all(|&x| x == 0.0),
        first_row_empty: tile[..ISA_TILE].iter().all(|&x| x == 0.0),
        finite: tile.iter().all(|x| x.is_finite()),
        fit,
    }
}

/// The counter deltas a `unit` step of plus-mul on `a` and `b` should
/// make. A pair is skipped when one tile is empty and the engine read
/// the other as finite: it reads every `B` tile's values when some `A`
/// tile's first row holds nothing but the annihilator (in the matrix,
/// before the pack), and every `A` tile's values beside a `B` strip with
/// an empty tile; otherwise only a tile whose first row is empty. A kept
/// pair fuses when the unit has FMA lanes and both tiles are exact, and
/// is counted by its cause otherwise.
fn model(unit: &Simd2Unit, a: &Matrix, b: &Matrix) -> Tally {
    let grid = TileGrid::new(a.rows(), b.cols(), a.cols(), ISA_TILE);
    let pad = tiling::pad_values(OP);
    // `A` by tile rows, `B` by tile columns: one chain each.
    let chains = |m: &Matrix, outer: usize, fill: f32, at: fn(usize, usize) -> (usize, usize)| {
        (0..outer)
            .map(|o| {
                (0..grid.k_tiles)
                    .map(|tk| tile_facts(unit, m, at(o, tk), fill))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    let a_rows = chains(a, grid.m_tiles, pad.a, |ti, tk| (ti, tk));
    let b_cols = chains(b, grid.n_tiles, pad.b, |tj, tk| (tk, tj));
    let b_values = (0..a.rows()).step_by(ISA_TILE).any(|r| {
        a.row(r)
            .chunks(ISA_TILE)
            .any(|x| x.iter().all(|&x| x == 0.0))
    });
    let width = (1 << 20) / (grid.k_tiles * ISA_TILE * ISA_TILE * 4);
    let lanes = FmaLanes::new(unit.kernel_isa(), OP).is_some();
    let mut tally = [0; 5];
    for strip in b_cols.chunks(width.max(1)) {
        let b_sparse = strip.iter().flatten().any(|f| f.empty);
        for a_row in &a_rows {
            for b_col in strip {
                for (fa, fb) in a_row.iter().zip(b_col) {
                    let a_read = b_sparse || fa.first_row_empty;
                    let b_read = b_values || fb.first_row_empty;
                    let skip =
                        (fa.empty && b_read && fb.finite) || (fb.empty && a_read && fa.finite);
                    let slot = match fa.fit.max(fb.fit) {
                        _ if skip => 0,
                        _ if !lanes => 4,
                        HalfFit::Exact => 1,
                        HalfFit::Infinite | HalfFit::Nan => 2,
                        HalfFit::OffLattice => 3,
                    };
                    tally[slot] += 1;
                }
            }
        }
    }
    tally
}

#[test]
fn plus_mul_chains_on_fma_lanes_equal_the_reference_and_count_every_fallback() {
    let selected = simd::selected_isa();
    let mut covered: Tally = [0; 5];
    let mut add = |tally: Tally| {
        for (sum, n) in covered.iter_mut().zip(tally) {
            *sum += n;
        }
    };
    // (m, n, k, strips, clean): one shared `B` strip with ragged edges,
    // two strips (the second narrower), and unmarked operands.
    for (m, n, k, strips, clean) in [
        (72, 88, 120, 1, false),
        (32, 256, 1088, 2, false),
        (48, 40, 96, 1, true),
    ] {
        let grid = TileGrid::new(m, n, k, ISA_TILE);
        let width = (1 << 20) / (grid.k_tiles * ISA_TILE * ISA_TILE * 4);
        assert_eq!(grid.n_tiles.div_ceil(width), strips);
        let salt = (m + n + k) as u64;
        let (a, b, c) = (
            operand(m, k, salt, &A_LAYOUT, clean),
            operand(k, n, salt + 10, &B_LAYOUT, clean),
            accumulator(m, n, salt + 20),
        );
        let scalar = |unit: Simd2Unit| {
            let unit = unit.with_kernel_isa(KernelIsa::Scalar);
            bits(&TiledBackend::with_unit(unit).mmo(OP, &a, &b, &c).unwrap())
        };
        for precision in [
            PrecisionMode::Fp16Input,
            PrecisionMode::Fp32Input,
            PrecisionMode::Int8Input,
        ] {
            let unit = Simd2Unit::with_precision(precision);
            let ctx = format!("{m}x{n}x{k} {precision:?}");
            let (mut qa, mut qb) = (a.clone(), b.clone());
            unit.quantize_operands(qa.as_mut_slice());
            unit.quantize_operands(qb.as_mut_slice());
            let want = bits(&ReferenceBackend::new().mmo(OP, &qa, &qb, &c).unwrap());
            assert_same(
                &scalar(unit),
                &want,
                &format!("{ctx}: scalar-pinned unit"),
                simd::same_bits,
            );
            let tally = model(&unit, &a, &b);
            for workers in [1, 2] {
                let mut be = traced(unit);
                be.set_parallelism(Parallelism::Threads(workers));
                let (got, moved) = step(&mut be, &COUNTERS, &MmoArgs::new(OP, &a, &b, &c));
                assert_eq!(be.row_count().sparse_mmos, 0, "{ctx}: the step walked");
                assert_same(
                    &got,
                    &want,
                    &format!("{ctx} at {workers} workers"),
                    simd::same_bits,
                );
                assert_eq!(moved, tally, "{ctx} at {workers} workers: counters");
            }
            add(tally);
        }
        // Pinned down to AVX2 (from a wider tier only) and to the scalar
        // kernel: the same bits; AVX2 still fuses, the scalar tier never.
        let unit = Simd2Unit::new();
        for pin in [KernelIsa::Avx2, KernelIsa::Scalar] {
            if pin.lanes() > selected.lanes() {
                continue;
            }
            let mut be = ResilientBackend::new(traced(unit), RecoveryPolicy::FailFast);
            assert!(be.degrade(Degrade::PinKernelIsa(pin)));
            let pinned = unit.with_kernel_isa(pin);
            assert_eq!(
                FmaLanes::new(pinned.kernel_isa(), OP).is_some(),
                pinned.kernel_isa() != KernelIsa::Scalar
            );
            let (got, moved) = step(&mut be, &COUNTERS, &MmoArgs::new(OP, &a, &b, &c));
            let ctx = format!("{m}x{n}x{k} pinned to {pin}");
            assert_same(&got, &scalar(unit), &ctx, simd::same_bits);
            let tally = model(&pinned, &a, &b);
            assert_eq!(moved, tally, "{ctx}: counters");
            add(tally);
        }
    }
    println!("kernel tier {selected}; pairs skipped, fused, non-finite, off the lattice, no FMA: {covered:?}");
    // Every route was taken: pairs skipped, folded as a multiply and an
    // add for a NaN or `±∞`, for a value off the lattice (the
    // `Fp32Input` unit's) and for want of FMA lanes; and fused wherever
    // the tier has FMA lanes — on the forced-scalar leg, nowhere.
    let vector = selected != KernelIsa::Scalar;
    assert!(covered[0] > 0, "{covered:?}");
    assert_eq!(covered[1] > 0, vector, "{covered:?}");
    assert_eq!(covered[2] > 0 && covered[3] > 0, vector, "{covered:?}");
    assert!(covered[4] > 0, "{covered:?}");
}
