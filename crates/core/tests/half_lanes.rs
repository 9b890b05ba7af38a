//! Min-max and max-min on the tile chain's fp16 lanes, end to end.
//!
//! `TiledBackend` folds these two ops on fp16 lanes wherever both tiles
//! of a pair have exact fp16 images, and on `f32` lanes otherwise. Every
//! case here must equal `ReferenceBackend` on the unit's quantised
//! operands and the scalar-pinned unit bit for bit:
//! * `Fp16Input`, `Fp32Input` and `Int8Input` units, at one and two
//!   workers;
//! * a grid whose packed `B` is one shared strip, and one packed in two
//!   strips;
//! * operands with whole tiles of the annihilator (`+∞` / `−∞`), so the
//!   chain leaves pairs out and folds the rest in runs, tiles holding a
//!   NaN and tiles holding a value off the fp16 lattice, so runs switch
//!   lanes, over accumulators holding NaN, `±0`, `±∞` and values off the
//!   lattice;
//! * a `ResilientBackend` pinned down to AVX2.
//!
//! Each step must also move the `core.chain.*` counters by exactly what a
//! model of the packed tiles predicts. The counters are process-global,
//! so this binary holds one test that reads their deltas one step at a
//! time (and one that only prints the host's features).

use simd2::{Backend, Degrade, Parallelism, RecoveryPolicy, ReferenceBackend, ResilientBackend};
use simd2::{MmoArgs, TiledBackend};
use simd2_matrix::tiling::{self, TileGrid};
use simd2_matrix::{Matrix, ISA_TILE};
use simd2_mxu::{PrecisionMode, Simd2Unit};
use simd2_semiring::precision::quantize_f16;
use simd2_semiring::simd::{self, HalfFit, HalfLanes, KernelIsa};
use simd2_semiring::OpKind;

#[path = "pools/lanes.rs"]
mod lanes;
use lanes::{assert_same, bits, hash, step, traced};

/// The counters a tile-chain step moves, in the order [`Tally`] holds
/// them.
const COUNTERS: [&str; 5] = [
    "core.chain.skipped_pairs",
    "core.chain.fp16_pairs",
    "core.chain.f32_select_pairs.nan",
    "core.chain.f32_select_pairs.off_lattice",
    "core.chain.f32_select_pairs.no_fp16",
];

/// Pairs skipped, folded on fp16 lanes, and kept on `f32` lanes for a
/// NaN, for a value off the lattice and for a tier without fp16 lanes.
type Tally = [u64; 5];

/// The equality [`assert_same`] holds these outputs to: the same bits,
/// NaN payloads included — a selection returns one of its operands.
fn identical(x: f32, y: f32) -> bool {
    x.to_bits() == y.to_bits()
}

/// What an operand tile holds besides ordinary values.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mark {
    Dense,
    /// Nothing but the annihilator.
    Empty,
    /// A row of NaN.
    Nan,
    /// Every finite value off the fp16 lattice (and off the int8 one).
    Off,
}

/// The mark of tile `(tr, tc)` of an operand: a quarter of the tiles
/// empty, one in eight with NaNs, one in eight off the lattice.
fn mark(tr: usize, tc: usize, salt: u64) -> Mark {
    match hash(tr, tc, salt) % 8 {
        0 | 1 => Mark::Empty,
        2 => Mark::Nan,
        3 => Mark::Off,
        _ => Mark::Dense,
    }
}

/// A `rows × cols` operand of `op` whose tiles carry [`mark`]s. Ordinary
/// values are integers in `-100..=100`, signed zeros and the two
/// infinities: on the fp16 and the int8 lattice alike.
fn operand(op: OpKind, rows: usize, cols: usize, salt: u64) -> Matrix {
    let zero = op.no_edge_f32().expect("a selecting op has an annihilator");
    Matrix::from_fn(rows, cols, |r, c| {
        let h = hash(r, c, salt + 1);
        let value = match h % 16 {
            0 => -0.0,
            1 => 0.0,
            2 => zero,
            3 => -zero,
            _ => (h % 201) as f32 - 100.0,
        };
        match mark(r / ISA_TILE, c / ISA_TILE, salt) {
            Mark::Empty => zero,
            Mark::Nan if r % ISA_TILE == 3 => f32::NAN,
            Mark::Off if value.is_finite() => value + 0.1,
            _ => value,
        }
    })
}

/// An accumulator holding NaN, `±0`, `±∞`, values off the fp16 lattice
/// and integers.
fn accumulator(rows: usize, cols: usize, salt: u64) -> Matrix {
    const SEEDS: [f32; 6] = [f32::NAN, -0.0, 0.0, 0.1, f32::INFINITY, f32::NEG_INFINITY];
    Matrix::from_fn(rows, cols, |r, c| {
        let h = hash(r, c, salt);
        SEEDS
            .get(h as usize % 12)
            .copied()
            .unwrap_or((h % 201) as f32 - 100.0)
    })
}

/// What the tile chain reads off a packed, quantised tile: whether it
/// holds nothing but the annihilator, and its fp16 fit.
fn tile_facts(
    unit: &Simd2Unit,
    m: &Matrix,
    (tr, tc): (usize, usize),
    fill: f32,
    zero: f32,
) -> (bool, HalfFit) {
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
    } else {
        HalfFit::Exact
    };
    (tile.iter().all(|&x| x == zero), fit)
}

/// The counter deltas a `unit` step of `op` on `a` and `b` should make:
/// a pair is skipped when either tile is empty; a kept pair folds on
/// fp16 lanes when the unit has them and both tiles fit, and is counted
/// by its cause otherwise.
fn model(unit: &Simd2Unit, op: OpKind, a: &Matrix, b: &Matrix) -> Tally {
    let grid = TileGrid::new(a.rows(), b.cols(), a.cols(), ISA_TILE);
    let (pad, zero) = (tiling::pad_values(op), op.no_edge_f32().unwrap());
    // `A` by tile rows, `B` by tile columns: one chain each.
    let chains = |m: &Matrix, outer: usize, fill: f32, at: fn(usize, usize) -> (usize, usize)| {
        (0..outer)
            .map(|o| {
                (0..grid.k_tiles)
                    .map(|tk| tile_facts(unit, m, at(o, tk), fill, zero))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
    };
    let a_rows = chains(a, grid.m_tiles, pad.a, |ti, tk| (ti, tk));
    let b_cols = chains(b, grid.n_tiles, pad.b, |tj, tk| (tk, tj));
    let lanes = HalfLanes::new(unit.kernel_isa(), op).is_some();
    let mut tally = [0; 5];
    for a_row in &a_rows {
        for b_col in &b_cols {
            for (&(a_empty, a_fit), &(b_empty, b_fit)) in a_row.iter().zip(b_col) {
                let slot = match a_fit.max(b_fit) {
                    _ if a_empty || b_empty => 0,
                    _ if !lanes => 4,
                    HalfFit::Exact | HalfFit::Infinite => 1,
                    HalfFit::Nan => 2,
                    HalfFit::OffLattice => 3,
                };
                tally[slot] += 1;
            }
        }
    }
    tally
}

#[test]
fn selection_chains_on_fp16_lanes_equal_the_reference_and_count_every_fallback() {
    let mut covered: Tally = [0; 5];
    // (m, n, k, strips): one shared `B` strip with ragged edges, and two
    // strips, the second narrower.
    for (m, n, k, strips) in [(72, 88, 120, 1), (32, 256, 1088, 2)] {
        let grid = TileGrid::new(m, n, k, ISA_TILE);
        let width = (1 << 20) / (grid.k_tiles * ISA_TILE * ISA_TILE * 4);
        assert_eq!(grid.n_tiles.div_ceil(width), strips);
        for op in [OpKind::MinMax, OpKind::MaxMin] {
            let salt = (m + n + k) as u64 + op.opcode() as u64;
            let (a, b, c) = (
                operand(op, m, k, salt),
                operand(op, k, n, salt + 10),
                accumulator(m, n, salt + 20),
            );
            for precision in [
                PrecisionMode::Fp16Input,
                PrecisionMode::Fp32Input,
                PrecisionMode::Int8Input,
            ] {
                let unit = Simd2Unit::with_precision(precision);
                let ctx = format!("{op} {m}x{n}x{k} {precision:?}");
                let (mut qa, mut qb) = (a.clone(), b.clone());
                unit.quantize_operands(qa.as_mut_slice());
                unit.quantize_operands(qb.as_mut_slice());
                let reference = ReferenceBackend::new().mmo(op, &qa, &qb, &c).unwrap();
                let want = bits(&reference);
                let scalar = TiledBackend::with_unit(unit.with_kernel_isa(KernelIsa::Scalar))
                    .mmo(op, &a, &b, &c)
                    .unwrap();
                assert_same(
                    &bits(&scalar),
                    &want,
                    &format!("{ctx}: scalar-pinned unit"),
                    identical,
                );
                let tally = model(&unit, op, &a, &b);
                for workers in [1, 2] {
                    let mut be = traced(unit);
                    be.set_parallelism(Parallelism::Threads(workers));
                    let (got, moved) = step(&mut be, &COUNTERS, &MmoArgs::new(op, &a, &b, &c));
                    assert_same(
                        &got,
                        &want,
                        &format!("{ctx} at {workers} workers"),
                        identical,
                    );
                    assert_eq!(moved, tally, "{ctx} at {workers} workers: counters");
                }
                for (sum, n) in covered.iter_mut().zip(tally) {
                    *sum += n;
                }
            }
            // Pinned to AVX2, as a resilience layer pins a suspect tier:
            // the same bits, every kept pair on `f32` lanes for want of
            // fp16 ones.
            let unit = Simd2Unit::new();
            let inner = traced(unit);
            let mut be = ResilientBackend::new(inner, RecoveryPolicy::FailFast);
            be.degrade(Degrade::PinKernelIsa(KernelIsa::Avx2));
            let pinned = unit.with_kernel_isa(KernelIsa::Avx2);
            assert!(HalfLanes::new(pinned.kernel_isa(), op).is_none());
            let (got, moved) = step(&mut be, &COUNTERS, &MmoArgs::new(op, &a, &b, &c));
            let scalar = TiledBackend::with_unit(unit.with_kernel_isa(KernelIsa::Scalar))
                .mmo(op, &a, &b, &c)
                .unwrap();
            assert_same(
                &got,
                &bits(&scalar),
                &format!("{op} {m}x{n}x{k} pinned to AVX2"),
                identical,
            );
            let tally = model(&pinned, op, &a, &b);
            assert_eq!(moved, tally, "{op} {m}x{n}x{k} pinned to AVX2: counters");
            assert!(tally[4] > 0 && tally[1..4] == [0; 3]);
            for (sum, n) in covered.iter_mut().zip(tally) {
                *sum += n;
            }
        }
    }
    // Every route was taken: pairs skipped, and kept on `f32` lanes for
    // a NaN, for a value off the lattice (the `Fp32Input` unit's) and
    // for want of fp16 lanes; and folded on fp16 lanes wherever this
    // host has them.
    let f = simd::cpu_features();
    let half = simd::selected_isa() == KernelIsa::Avx512 && f.avx512fp16;
    assert!(covered[0] > 0, "{covered:?}");
    assert_eq!(covered[1] > 0, half, "{covered:?}");
    assert_eq!(covered[2] > 0 && covered[3] > 0, half, "{covered:?}");
    assert!(covered[4] > 0, "{covered:?}");
}

/// Prints the features this host's kernels were picked by, so that a
/// log of the suite says whether the fp16 lanes ran
/// (`cargo test -p simd2 --test half_lanes -- --nocapture features`).
#[test]
fn host_features() {
    println!(
        "kernel tier {}; {:?}",
        simd::selected_isa(),
        simd::cpu_features()
    );
}
