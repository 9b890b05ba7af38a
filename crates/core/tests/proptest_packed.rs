//! The packed-operand engine against the schedule it replaced.
//!
//! `TiledBackend` packs `A` and `B` once per use into quantised,
//! tile-major scratch and runs each output tile's whole `k` loop as one
//! chain-kernel call. The oracle here is the schedule it used before,
//! rebuilt from the public per-tile API — `tiling::load_*_tile` →
//! `Simd2Unit::execute` (pinned to the scalar leaf, which the change does
//! not touch) → `tiling::store_d_tile` — and the contract is **bit
//! identity**, the exact `TileGrid` work counters, and the same
//! telemetry, for every op × operand precision × kernel tier × worker
//! count, over shapes chosen to hit every edge of the pack stage: ragged
//! tiles on every side, `k` under one tile, a `B` strip wider than the
//! matrix, and a `k` deep enough to force several strips.

use proptest::prelude::*;
use simd2::{Backend, OpCount, Parallelism, TiledBackend};
use simd2_fault::{FaultPlan, FaultPlanConfig, FaultySimd2Unit, PlannedInjector};
use simd2_matrix::tiling::{self, TileGrid};
use simd2_matrix::{Matrix, ISA_TILE};
use simd2_mxu::{PrecisionMode, Simd2Unit};
use simd2_semiring::simd::KernelIsa;
use simd2_semiring::{OpKind, ALL_OPS};
use simd2_trace::{field, span, Event, EventKind, RingSink, Tracer};

const PRECISIONS: [PrecisionMode; 3] = [
    PrecisionMode::Fp16Input,
    PrecisionMode::Fp32Input,
    PrecisionMode::Int8Input,
];

const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Every mix of tile-edge sizes that matters, including `k` under one
/// tile: one below, on, and one above a tile boundary, and two tiles
/// plus one.
const EDGE_SHAPES: [(usize, usize, usize); 10] = [
    (1, 1, 1),
    (15, 16, 17),
    (16, 16, 16),
    (17, 15, 16),
    (16, 17, 15),
    (33, 1, 17),
    (1, 33, 33),
    (17, 33, 1),
    (33, 17, 15),
    (33, 33, 33),
];

/// The large shapes: ragged on every side with sixteen tile rows; a `B`
/// strip wider than `n`; and `k_pad = 2048` with nine tile columns,
/// which a 1 MiB strip budget (eight columns at that depth) must split
/// in two.
const DEEP_SHAPES: [(usize, usize, usize); 3] = [(250, 130, 77), (64, 64, 2048), (20, 136, 2040)];

/// Values every operand is salted with: NaN (canonical and with a
/// payload), signed zeros, infinities, values fp16 rounds (0.1, a
/// subnormal, one that overflows to fp16 infinity) and one int8
/// saturates.
const SPECIALS: [f32; 11] = [
    f32::NAN,
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.1,
    1.0e-40,
    65520.0,
    200.0,
    -3.3,
    1.0,
];

fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded operand: mostly small fp16-inexact reals, one element in
/// five a [`SPECIALS`] entry, and (for the accumulator) one in five the
/// op's `⊕` identity.
fn operand(rows: usize, cols: usize, seed: u64, identity: Option<f32>) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        let h = mix(seed ^ ((r as u64) << 32) ^ c as u64);
        match (h % 5, identity) {
            (0, _) => SPECIALS[(h >> 8) as usize % SPECIALS.len()],
            (1, Some(id)) => id,
            _ => ((h >> 16) % 97) as f32 * 0.13 - 4.0,
        }
    })
}

fn operands(op: OpKind, (m, n, k): (usize, usize, usize), seed: u64) -> (Matrix, Matrix, Matrix) {
    (
        operand(m, k, seed, None),
        operand(k, n, seed ^ 0xa5a5, None),
        operand(m, n, seed ^ 0x5a5a, Some(op.reduce_identity_f32())),
    )
}

/// The pre-change schedule: one tile copy per operand per `(ti, tj, tk)`
/// and one quantising `execute` per step, on the scalar leaf.
fn per_tile_schedule(
    op: OpKind,
    precision: PrecisionMode,
    (a, b, c): (&Matrix, &Matrix, &Matrix),
) -> Matrix {
    let unit = Simd2Unit::with_precision(precision).with_kernel_isa(KernelIsa::Scalar);
    let grid = TileGrid::new(a.rows(), b.cols(), a.cols(), ISA_TILE);
    let mut d = Matrix::zeros(grid.m, grid.n);
    for (ti, tj) in grid.output_coords() {
        let mut acc = tiling::load_c_tile::<ISA_TILE>(op, c, ti, tj);
        for tk in 0..grid.k_tiles {
            let at = tiling::load_a_tile::<ISA_TILE>(op, a, ti, tk);
            let bt = tiling::load_b_tile::<ISA_TILE>(op, b, tk, tj);
            acc = unit.execute(op, &at, &bt, &acc);
        }
        tiling::store_d_tile(&mut d, &acc, ti, tj);
    }
    d
}

/// The paper's logical tile traffic for one mmo (Figure 6) — what
/// `OpCount` must keep meaning, whatever the host packs.
fn grid_count(grid: &TileGrid) -> OpCount {
    OpCount {
        matrix_mmos: 1,
        tile_mmos: grid.tile_ops() as u64,
        tile_loads: (grid.output_tiles() + 2 * grid.tile_ops()) as u64,
        tile_stores: grid.output_tiles() as u64,
    }
}

fn count_fields(count: &OpCount) -> [simd2_trace::Field; 3] {
    [
        field("tile_mmos", count.tile_mmos),
        field("tile_loads", count.tile_loads),
        field("tile_stores", count.tile_stores),
    ]
}

/// The events one mmo over `grid` must emit when its rows are split
/// into `panels`: the `mmo` span around one `tile_panel` summary each.
fn mmo_events(
    op: OpKind,
    grid: &TileGrid,
    workers: usize,
    isa: KernelIsa,
    panels: &[std::ops::Range<usize>],
) -> Vec<Event> {
    let mut events = vec![Event {
        span: span::MMO,
        kind: EventKind::Begin,
        fields: vec![
            field("op", op.name()),
            field("m", grid.m),
            field("n", grid.n),
            field("k", grid.k),
            field("workers", workers),
            field("isa", isa.name()),
        ],
    }];
    for (idx, panel) in panels.iter().enumerate() {
        let tiles = panel.len() * grid.n_tiles;
        let count = OpCount {
            matrix_mmos: 0,
            tile_mmos: (tiles * grid.k_tiles) as u64,
            tile_loads: (tiles + 2 * tiles * grid.k_tiles) as u64,
            tile_stores: tiles as u64,
        };
        let mut fields = vec![
            field("panel", idx),
            field("rows", grid.panel_rows(panel).len()),
        ];
        fields.extend(count_fields(&count));
        events.push(Event {
            span: span::TILE_PANEL,
            kind: EventKind::End,
            fields,
        });
    }
    let mut fields = vec![field("op", op.name())];
    fields.extend(count_fields(&grid_count(grid)));
    events.push(Event {
        span: span::MMO,
        kind: EventKind::End,
        fields,
    });
    events
}

/// Event streams as sorted JSON lines: worker threads interleave their
/// panel summaries freely, so streams compare as multisets (the
/// single-worker order is pinned byte for byte by
/// `tests/telemetry_snapshot.rs`).
fn sorted_lines(events: &[Event]) -> Vec<String> {
    let mut lines: Vec<String> = events.iter().map(Event::json_line).collect();
    lines.sort();
    lines
}

/// Bit identity. In an optimised build any two NaNs compare equal:
/// there LLVM may commute the scalar oracle's `+` and `×`, and which
/// NaN survives when two different ones meet is then unspecified (the
/// kernel proptests in `simd2-semiring` have the same limit).
fn assert_bits(got: &Matrix, want: &Matrix, ctx: &str) {
    assert_eq!(got.shape(), want.shape(), "{ctx}");
    for (i, (x, y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        let both_nan = !cfg!(debug_assertions) && x.is_nan() && y.is_nan();
        assert!(
            both_nan || x.to_bits() == y.to_bits(),
            "{ctx}: element {i} ({x:e} vs {y:e}, {:#x} vs {:#x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

/// Runs `shapes` through `mmo` (one call each) on every supported tier
/// in `isas` and every worker count in `workers`, checking outputs,
/// counters and telemetry against the per-tile schedule and the grid
/// arithmetic.
fn check(
    op: OpKind,
    precision: PrecisionMode,
    shapes: &[(usize, usize, usize)],
    isas: &[KernelIsa],
    workers: &[usize],
    seed: u64,
) {
    let inputs: Vec<_> = shapes
        .iter()
        .enumerate()
        .map(|(i, &shape)| operands(op, shape, seed.wrapping_add(i as u64)))
        .collect();
    let want: Vec<Matrix> = inputs
        .iter()
        .map(|(a, b, c)| per_tile_schedule(op, precision, (a, b, c)))
        .collect();
    let grids: Vec<TileGrid> = shapes
        .iter()
        .map(|&(m, n, k)| TileGrid::new(m, n, k, ISA_TILE))
        .collect();
    let mut want_count = OpCount::default();
    for grid in &grids {
        want_count += grid_count(grid);
    }

    for &isa in isas.iter().filter(|isa| isa.is_supported()) {
        for &w in workers {
            let ctx = format!("{op} {precision:?} {isa} workers={w}");
            // One `mmo` per shape on one backend, so scratch is reused
            // across shapes of different depth and width.
            let ring = RingSink::shared();
            let unit = Simd2Unit::with_precision(precision).with_kernel_isa(isa);
            let mut be = TiledBackend::with_unit(unit).with_tracer(Tracer::to(ring.clone()));
            be.set_parallelism(Parallelism::Threads(w));
            let mut want_events = Vec::new();
            for (((a, b, c), want), grid) in inputs.iter().zip(&want).zip(&grids) {
                let got = be.mmo(op, a, b, c).unwrap();
                assert_bits(&got, want, &format!("{ctx} mmo {:?}", got.shape()));
                want_events.extend(mmo_events(op, grid, w, isa, &grid.row_panels(w)));
            }
            assert_eq!(be.op_count(), want_count, "{ctx} mmo counters");
            assert_eq!(ring.dropped(), 0);
            assert_eq!(
                sorted_lines(&ring.events()),
                sorted_lines(&want_events),
                "{ctx} mmo telemetry"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The full cross product on the tile-edge shapes.
    #[test]
    fn packed_engine_matches_the_per_tile_schedule_on_every_edge(seed in any::<u64>()) {
        for op in ALL_OPS {
            for precision in PRECISIONS {
                check(op, precision, &EDGE_SHAPES, &KernelIsa::ALL, &WORKERS, seed);
            }
        }
    }
}

/// The deep shapes. The edge test above already runs the whole cross
/// product; what these add — many tile rows, a strip wider than `n`,
/// several strips — does not depend on the op, so the nine ops are laid
/// over the 3 × 3 (shape, precision) square, one cell each, which keeps
/// an unoptimised test build to seconds. Each cell runs the host's
/// widest tier at every worker count and every other tier at one, with
/// a small second step so that the scratch is reused across shapes.
#[test]
fn packed_engine_matches_the_per_tile_schedule_on_deep_shapes() {
    let widest = simd2_semiring::simd::selected_isa();
    let others: Vec<KernelIsa> = KernelIsa::ALL
        .into_iter()
        .filter(|isa| *isa != widest)
        .collect();
    for (i, op) in ALL_OPS.into_iter().enumerate() {
        let shapes = [DEEP_SHAPES[i % 3], (33, 17, 15)];
        let precision = PRECISIONS[i / 3];
        check(op, precision, &shapes, &[widest], &WORKERS, 2022);
        check(op, precision, &shapes, &others, &[2], 2022);
    }
}

/// A fault campaign on a grid with several `B` strips: every schedule
/// visits tiles strip by strip, so the panel-parallel merged log is the
/// sequential log entry for entry, and outputs and counters agree.
#[test]
fn multi_strip_fault_logs_merge_in_the_sequential_visit_order() {
    let op = OpKind::MinPlus;
    let shape = (40, 136, 2040);
    let (a, b, c) = operands(op, shape, 7);
    let run = |parallelism| {
        let plan = FaultPlan::new(FaultPlanConfig::new(11).with_bit_flip_ppm(150_000));
        let unit = FaultySimd2Unit::new(Simd2Unit::new(), PlannedInjector::new(plan));
        let mut be = TiledBackend::with_unit(unit);
        be.set_parallelism(parallelism);
        let d = be.mmo(op, &a, &b, &c).unwrap();
        let injector = be.unit().injector();
        (d, injector.log(), injector.mmo_sites(), be.op_count())
    };
    let (d_seq, log_seq, sites_seq, count_seq) = run(Parallelism::Sequential);
    let coords: Vec<_> = log_seq.iter().filter_map(|e| e.coord).collect();
    assert!(
        coords.windows(2).any(|w| w[0] > w[1]),
        "a multi-strip grid is not visited in row-major order"
    );
    assert_eq!(
        count_seq,
        grid_count(&TileGrid::new(40, 136, 2040, ISA_TILE))
    );
    assert_eq!(sites_seq, count_seq.tile_mmos);
    for workers in [2usize, 3, 8] {
        let (d, log, sites, count) = run(Parallelism::Threads(workers));
        assert_bits(&d, &d_seq, &format!("workers={workers}"));
        assert_eq!(log, log_seq, "workers={workers}");
        assert_eq!(sites, sites_seq, "workers={workers}");
        assert_eq!(count, count_seq, "workers={workers}");
    }
}
