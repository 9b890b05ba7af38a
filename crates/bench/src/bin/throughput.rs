//! Whole-matrix MMO throughput of the tiled execution engine.
//!
//! Measures the monomorphized, allocation-free kernel path of
//! [`simd2::TiledBackend`] against a *scalar baseline* — a faithful
//! reimplementation of the pre-fusion datapath (per-scalar dynamic
//! `OpKind` dispatch, per-element partial-product `Vec`, per-level
//! reduction `Vec`) — and sweeps the worker-pool size.
//!
//! For every `(op, N, threads)` point it reports wall time, tile-MMOs/s
//! and effective tile-traffic GB/s (tile loads + stores × 16×16 × 4 B),
//! plus the speedup over the scalar baseline at the same size. Results
//! are printed as a table and written to `BENCH_throughput.json`
//! (hand-rolled JSON; the build vendors no JSON serializer).
//!
//! The per-point tile counts are derived from the backend's
//! `simd2-trace` mmo-span events (a [`RingSink`] attached to each timed
//! backend) and asserted equal to [`Backend::op_count`] — the report is
//! a view of the telemetry stream, cross-checked against the engine's
//! own accounting.
//!
//! A `sparse_crossover` section sweeps input density through
//! [`SparseTiledBackend`] with CSR-declared operands against
//! [`TiledBackend`] on the detected ISA — the strongest dense engine in
//! the repo, so the crossover sits where it really is — with the sparse
//! backend's own dense leg as a labelled second column (bit-identity to
//! it asserted at every point).
//!
//! A final section replays a merged nine-step [`Plan`] (one independent
//! MMO per op) sequentially vs batched across the thread sweep — the
//! plan-IR dispatch path over the same worker pool — asserting the
//! batched replay bit-identical per step.
//!
//! Pass `--quick` for a seconds-scale smoke run (small N, fewer ops and
//! thread counts, single rep) used by `scripts/bench.sh`.

use std::time::Instant;

use simd2::{
    Backend, MatrixRef, OperandRepr, Parallelism, PassPipeline, Plan, PlanBuilder, PlanExecutor,
    TiledBackend,
};
use simd2_bench::{report::fmt_speedup, Table};
use simd2_matrix::tiling::TileGrid;
use simd2_matrix::{gen, tiling, Matrix, Tile, ISA_TILE};
use simd2_semiring::{precision::quantize_f16, OpKind, ALL_OPS};
use simd2_sparse::SparseTiledBackend;
use simd2_trace::{span, EventKind, RingSink, Tracer};

/// The pre-optimization reduction: materializes a fresh `Vec` per tree
/// level. Pairing is identical to the fused in-place kernel, so outputs
/// stay bit-identical — only the allocation behaviour differs.
fn scalar_tree_reduce(op: OpKind, mut level: Vec<f32>) -> f32 {
    if level.is_empty() {
        return op.reduce_identity_f32();
    }
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|p| {
                if p.len() == 2 {
                    op.reduce_f32(p[0], p[1])
                } else {
                    p[0]
                }
            })
            .collect();
    }
    level[0]
}

/// The pre-optimization tile datapath: one `match` on `op` per scalar
/// (inside `combine_f32`/`reduce_f32`), one heap allocation per output
/// element, quantization re-applied per scalar read.
fn scalar_execute(
    op: OpKind,
    a: &Tile<ISA_TILE>,
    b: &Tile<ISA_TILE>,
    c: &Tile<ISA_TILE>,
) -> Tile<ISA_TILE> {
    Tile::from_fn(|i, j| {
        let mut partials = Vec::with_capacity(ISA_TILE);
        for k in 0..ISA_TILE {
            let x = quantize_f16(a.get(i, k));
            let y = quantize_f16(b.get(k, j));
            partials.push(op.combine_f32(x, y));
        }
        let reduced = scalar_tree_reduce(op, partials);
        op.reduce_f32(c.get(i, j), reduced)
    })
}

/// Whole-matrix MMO through the scalar tile datapath — same tile loop as
/// the sequential `TiledBackend` path, different per-tile kernel.
fn scalar_mmo(op: OpKind, a: &Matrix, b: &Matrix, c: &Matrix) -> Matrix {
    let grid = TileGrid::new(a.rows(), b.cols(), a.cols(), ISA_TILE);
    let mut d = Matrix::zeros(a.rows(), b.cols());
    for (ti, tj) in grid.output_coords() {
        let mut acc = tiling::load_c_tile::<ISA_TILE>(op, c, ti, tj);
        for tk in 0..grid.k_tiles {
            let at = tiling::load_a_tile::<ISA_TILE>(op, a, ti, tk);
            let bt = tiling::load_b_tile::<ISA_TILE>(op, b, tk, tj);
            acc = scalar_execute(op, &at, &bt, &acc);
        }
        tiling::store_d_tile(&mut d, &acc, ti, tj);
    }
    d
}

/// In-domain operands for `op` (booleans for or-and, reliabilities in
/// (0, 1] for the min/max-mul algebras, small weights otherwise).
fn operands(op: OpKind, m: usize, n: usize, k: usize) -> (Matrix, Matrix, Matrix) {
    match op {
        OpKind::OrAnd => (
            gen::random_bool_matrix(m, k, 0.5, 11),
            gen::random_bool_matrix(k, n, 0.5, 12),
            gen::random_bool_matrix(m, n, 0.5, 13),
        ),
        OpKind::MinMul | OpKind::MaxMul => (
            gen::random_matrix(m, k, 0.05, 1.0, 11),
            gen::random_matrix(k, n, 0.05, 1.0, 12),
            gen::random_matrix(m, n, 0.05, 1.0, 13),
        ),
        _ => (
            gen::random_matrix(m, k, 0.0, 8.0, 11),
            gen::random_matrix(k, n, 0.0, 8.0, 12),
            gen::random_matrix(m, n, 0.0, 8.0, 13),
        ),
    }
}

struct Entry {
    op: OpKind,
    n: usize,
    threads: usize,
    /// A multi-thread row on a one-CPU host: it times thread hand-off,
    /// not scaling.
    overhead_only: bool,
    isa: &'static str,
    seconds: f64,
    tile_mmos_per_s: f64,
    gbps: f64,
    speedup_vs_scalar: f64,
}

struct SparseEntry {
    op: OpKind,
    n: usize,
    density: f64,
    threads: usize,
    tiled_seconds: f64,
    own_dense_leg_seconds: f64,
    sparse_seconds: f64,
    speedup_sparse_vs_tiled: f64,
    vs_own_dense_leg: f64,
    skipped_term_frac: f64,
    /// The CSR-declared `B` was dense enough to be swept as dense rows.
    swept_b: bool,
}

/// Times `f` over `reps` runs (after one warmup) and returns the best.
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6e}")
    } else {
        "null".to_owned()
    }
}

fn render_json(quick: bool, nproc: usize, entries: &[Entry], sparse: &[SparseEntry]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"throughput\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"nproc\": {nproc},\n"));
    out.push_str(&format!("  \"tile\": {ISA_TILE},\n"));
    out.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"n\": {}, \"threads\": {}, \"overhead_only\": {}, \
             \"isa\": \"{}\", \"seconds\": {}, \"tile_mmos_per_s\": {}, \"gbps\": {}, \
             \"speedup_vs_scalar\": {}}}{}\n",
            e.op.name(),
            e.n,
            e.threads,
            e.overhead_only,
            e.isa,
            jnum(e.seconds),
            jnum(e.tile_mmos_per_s),
            jnum(e.gbps),
            jnum(e.speedup_vs_scalar),
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"sparse_crossover\": [\n");
    for (i, e) in sparse.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"op\": \"{}\", \"n\": {}, \"density\": {}, \"threads\": {}, \
             \"tiled_seconds\": {}, \"own_dense_leg_seconds\": {}, \"sparse_seconds\": {}, \
             \"speedup_sparse_vs_tiled\": {}, \"vs_own_dense_leg\": {}, \
             \"skipped_term_frac\": {}, \"swept_b\": {}}}{}\n",
            e.op.name(),
            e.n,
            jnum(e.density),
            e.threads,
            jnum(e.tiled_seconds),
            jnum(e.own_dense_leg_seconds),
            jnum(e.sparse_seconds),
            jnum(e.speedup_sparse_vs_tiled),
            jnum(e.vs_own_dense_leg),
            jnum(e.skipped_term_frac),
            e.swept_b,
            if i + 1 == sparse.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Thins `m` to roughly `density` by writing the op's annihilator into
/// the complement, with a fixed splitmix-style stream so every run of
/// the bench sees the same operand.
fn sparsify(op: OpKind, m: &Matrix, density: f64, seed: u64) -> Matrix {
    let zero = op.no_edge_f32().expect("sparsify needs an annihilator");
    let mut out = m.clone();
    let mut s = seed ^ 0x9e37_79b9_7f4a_7c15;
    for v in out.as_mut_slice().iter_mut() {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        if ((s >> 11) as f64 / (1u64 << 53) as f64) >= density {
            *v = zero;
        }
    }
    out
}

/// Dense/sparse crossover: the same MMO on [`TiledBackend`] (detected
/// ISA, fp16 operands — the dense engine a caller would otherwise use)
/// and through [`SparseTiledBackend`] at the same precision, once with
/// all-dense operand declarations (its own dense leg) and once with
/// `A`/`B` declared [`OperandRepr::csr`], across an input density sweep.
/// The sparse leg is asserted bit-identical to the backend's own dense
/// leg at every point (the representation contract); the crossover
/// density is wherever the `vs tiled` column passes 1.0 on this host.
/// `vs own dense leg` is kept as a labelled column only: that leg runs
/// the same row kernel as the sparse one, so the ratio measures skipped
/// terms, not an alternative a caller has.
fn sparse_crossover_sweep(quick: bool, reps: usize) -> Vec<SparseEntry> {
    let n = if quick { 128 } else { 256 };
    let densities: &[f64] = if quick {
        &[0.01, 0.1, 0.5]
    } else {
        &[0.01, 0.05, 0.1, 0.25, 0.5, 1.0]
    };
    let thread_counts: &[usize] = if quick { &[1, 2] } else { &[1, 4] };
    let ops = [OpKind::PlusMul, OpKind::MinPlus];

    let mut entries = Vec::new();
    let mut t = Table::new(
        format!("Sparse crossover: CSR-declared vs the tiled dense engine ({n}x{n})"),
        &[
            "op",
            "density",
            "threads",
            "tiled s",
            "own dense leg s",
            "sparse s",
            "sparse vs tiled",
            "vs own dense leg",
            "skipped",
            "B swept",
        ],
    );
    for op in ops {
        let csr = OperandRepr::csr_for(op).expect("crossover ops carry an annihilator");
        let (a0, b0, c) = operands(op, n, n, n);
        for &density in densities {
            let a = sparsify(op, &a0, density, 21);
            let b = sparsify(op, &b0, density, 22);
            for &threads in thread_counts {
                let par = Parallelism::Threads(threads);
                let sparse_backend = || {
                    SparseTiledBackend::new()
                        .with_reduced_precision(true)
                        .with_parallelism(par)
                };
                let mut tiled_be = TiledBackend::with_parallelism(par);
                let (mut dense_be, mut sparse_be) = (sparse_backend(), sparse_backend());
                let run_sparse = |be: &mut SparseTiledBackend| {
                    be.mmo_ref(
                        op,
                        MatrixRef::new(&a, csr),
                        MatrixRef::new(&b, csr),
                        MatrixRef::dense(&c),
                    )
                    .expect("sparse mmo")
                };
                let dense_out = dense_be.mmo(op, &a, &b, &c).expect("dense mmo");
                let sparse_out = run_sparse(&mut sparse_be);
                assert!(
                    dense_out
                        .as_slice()
                        .iter()
                        .zip(sparse_out.as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "sparse dispatch diverged from dense: {op} d={density} T={threads}"
                );
                let counts = sparse_be.sparse_count();
                assert!(counts.sparse_mmos > 0, "sparse leg must route sparse");
                let terms = (counts.fma_terms + counts.skipped_terms) as f64;
                let skipped_term_frac = if terms > 0.0 {
                    counts.skipped_terms as f64 / terms
                } else {
                    0.0
                };
                let tiled_seconds = time_best(reps, || tiled_be.mmo(op, &a, &b, &c).expect("mmo"));
                let own_dense_leg_seconds =
                    time_best(reps, || dense_be.mmo(op, &a, &b, &c).expect("mmo"));
                let sparse_seconds = time_best(reps, || run_sparse(&mut sparse_be));
                let e = SparseEntry {
                    op,
                    n,
                    density,
                    threads,
                    tiled_seconds,
                    own_dense_leg_seconds,
                    sparse_seconds,
                    speedup_sparse_vs_tiled: tiled_seconds / sparse_seconds,
                    vs_own_dense_leg: own_dense_leg_seconds / sparse_seconds,
                    skipped_term_frac,
                    swept_b: counts.swept_b_mmos > 0,
                };
                t.row(&[
                    op.name().to_owned(),
                    format!("{density:.2}"),
                    threads.to_string(),
                    format!("{tiled_seconds:.5}"),
                    format!("{own_dense_leg_seconds:.5}"),
                    format!("{sparse_seconds:.5}"),
                    fmt_speedup(e.speedup_sparse_vs_tiled),
                    fmt_speedup(e.vs_own_dense_leg),
                    format!("{:.1}%", 100.0 * skipped_term_frac),
                    if e.swept_b { "yes" } else { "no" }.to_owned(),
                ]);
                entries.push(e);
            }
        }
    }
    t.print();
    entries
}

/// Plan-IR batch dispatch: records one independent MMO per op as a
/// [`Plan`], merges the nine single-step plans into one nine-step plan
/// (one wave — no cross-step dependencies), and replays it sequentially
/// vs batched across the thread sweep. Every batched replay is asserted
/// bit-identical to the sequential one per step, and the replayed work
/// is cross-checked against [`Plan::predicted_op_count`].
fn plan_batch_sweep(quick: bool, thread_counts: &[usize], reps: usize) {
    let n = if quick { 96 } else { 256 };
    let plan = Plan::merge(ALL_OPS.iter().map(|&op| {
        let (a, b, c) = operands(op, n, n, n);
        let mut be = TiledBackend::new();
        let mut rec = PlanBuilder::over(&mut be);
        rec.mmo(op, &a, &b, &c).expect("recording mmo");
        rec.finish()
    }));
    assert_eq!(plan.step_count(), ALL_OPS.len());
    assert_eq!(plan.waves().len(), 1, "merged steps must be independent");
    let predicted = plan.predicted_op_count();

    let mut seq_be = TiledBackend::new();
    let seq = PlanExecutor::new()
        .run(&plan, &mut seq_be)
        .expect("sequential replay");
    assert_eq!(seq_be.op_count().tile_mmos, predicted.tile_mmos);
    let seq_s = time_best(reps, || {
        PlanExecutor::new()
            .run(&plan, &mut TiledBackend::new())
            .expect("sequential replay")
    });

    let mut t = Table::new(
        format!(
            "Plan batch replay: {} independent {n}x{n} steps, one per op",
            plan.step_count()
        ),
        &["threads", "seconds", "vs sequential"],
    );
    for &threads in thread_counts {
        let mut be = TiledBackend::with_parallelism(Parallelism::Threads(threads));
        let bat = PlanExecutor::batched()
            .run(&plan, &mut be)
            .expect("batched replay");
        assert_eq!(be.op_count().tile_mmos, predicted.tile_mmos);
        for step in 0..plan.step_count() {
            assert_eq!(
                seq.step_output(step),
                bat.step_output(step),
                "batched replay diverged at step {step} (threads={threads})"
            );
        }
        let seconds = time_best(reps, || {
            let mut be = TiledBackend::with_parallelism(Parallelism::Threads(threads));
            PlanExecutor::batched()
                .run(&plan, &mut be)
                .expect("batched replay")
        });
        t.row(&[
            threads.to_string(),
            format!("{seconds:.4}"),
            fmt_speedup(seq_s / seconds),
        ]);
    }
    t.print();
}

/// Pass-pipeline replay speedup: records every op's MMO *twice* (a
/// duplicated instruction stream, the shape a naive recording loop
/// produces), lets the standard pipeline CSE the duplicates away, and
/// times unoptimized vs optimized sequential replay. Every original
/// step's output — including the merged duplicates — is asserted
/// bit-identical through the [`OptimizedPlan`](simd2::OptimizedPlan)
/// remap, so the speedup row is also an end-to-end equivalence check.
fn pass_pipeline_sweep(quick: bool, reps: usize) {
    let n = if quick { 96 } else { 256 };
    let plan = Plan::merge(ALL_OPS.iter().map(|&op| {
        let (a, b, c) = operands(op, n, n, n);
        let mut be = TiledBackend::new();
        let mut rec = PlanBuilder::over(&mut be);
        rec.mmo(op, &a, &b, &c).expect("recording mmo");
        rec.mmo(op, &a, &b, &c).expect("recording duplicate mmo");
        rec.finish()
    }));
    let optimized = PassPipeline::standard().run(plan.clone());
    let report = optimized.report().clone();
    assert_eq!(report.steps_before, 2 * ALL_OPS.len());
    assert_eq!(report.steps_merged, ALL_OPS.len());
    assert_eq!(report.steps_after, ALL_OPS.len());

    let seq = PlanExecutor::new()
        .run(&plan, &mut TiledBackend::new())
        .expect("unoptimized replay");
    let mut opt_be = TiledBackend::new();
    let opt = PlanExecutor::new()
        .run_optimized(&optimized, &mut opt_be)
        .expect("optimized replay");
    assert_eq!(
        opt_be.op_count(),
        optimized.plan().predicted_op_count(),
        "optimized replay work"
    );
    for step in 0..plan.step_count() {
        assert_eq!(
            optimized.step_output(&opt, step),
            Some(seq.step_output(step)),
            "optimized replay diverged at original step {step}"
        );
    }

    let base_s = time_best(reps, || {
        PlanExecutor::new()
            .run(&plan, &mut TiledBackend::new())
            .expect("unoptimized replay")
    });
    let opt_s = time_best(reps, || {
        PlanExecutor::new()
            .run_optimized(&optimized, &mut TiledBackend::new())
            .expect("optimized replay")
    });

    let mut t = Table::new(
        format!("Pass-pipeline replay: duplicated {n}x{n} op stream, CSE'd"),
        &["plan", "steps", "merged", "seconds", "replay speedup"],
    );
    t.row(&[
        "recorded".to_owned(),
        report.steps_before.to_string(),
        "-".to_owned(),
        format!("{base_s:.4}"),
        fmt_speedup(1.0),
    ]);
    t.row(&[
        "optimized".to_owned(),
        report.steps_after.to_string(),
        report.steps_merged.to_string(),
        format!("{opt_s:.4}"),
        fmt_speedup(base_s / opt_s),
    ]);
    t.print();
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (sizes, reps): (&[usize], usize) = if quick {
        (&[128], 1)
    } else {
        (&[256, 512, 1024], 3)
    };
    let thread_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // All nine ops at the smallest size; a representative plus-mul /
    // min-plus / plus-norm subset at the larger ones keeps full mode
    // minutes-scale on one core.
    let subset = [OpKind::PlusMul, OpKind::MinPlus, OpKind::PlusNorm];

    let mut entries: Vec<Entry> = Vec::new();
    let mut t = Table::new(
        "MMO throughput: fused engine vs scalar baseline (square NxN)",
        &[
            "op",
            "N",
            "threads",
            "isa",
            "seconds",
            "tile-MMOs/s",
            "GB/s",
            "vs scalar",
        ],
    );

    for (si, &n) in sizes.iter().enumerate() {
        let ops: Vec<OpKind> = if si == 0 {
            ALL_OPS.to_vec()
        } else {
            subset.to_vec()
        };
        for op in ops {
            let (a, b, c) = operands(op, n, n, n);
            let scalar_s = time_best(reps, || scalar_mmo(op, &a, &b, &c));
            for &threads in thread_counts {
                let ring = RingSink::shared();
                let mut be = TiledBackend::with_parallelism(Parallelism::Threads(threads))
                    .with_tracer(Tracer::to(ring.clone()));
                // Sanity: fusion and the worker pool must not change a
                // single bit relative to the scalar datapath.
                if threads == thread_counts[0] {
                    let fused = be.mmo(op, &a, &b, &c).expect("mmo");
                    let scalar = scalar_mmo(op, &a, &b, &c);
                    assert!(
                        fused
                            .as_slice()
                            .iter()
                            .zip(scalar.as_slice())
                            .all(|(x, y)| x.to_bits() == y.to_bits()),
                        "fused engine diverged from scalar baseline: {op} N={n}"
                    );
                }
                be.reset_count();
                ring.clear();
                let seconds = time_best(reps, || be.mmo(op, &a, &b, &c).expect("mmo"));
                // Telemetry covers warmup + reps; normalize to one run.
                // The report reads the mmo-span end events and asserts
                // them against the backend's own counters.
                let runs = (reps + 1) as f64;
                let (mut ev_mmos, mut ev_tile_mmos, mut ev_loads, mut ev_stores) =
                    (0u64, 0u64, 0u64, 0u64);
                for e in ring.events() {
                    if e.span == span::MMO && e.kind == EventKind::End {
                        ev_mmos += 1;
                        ev_tile_mmos += e.u64("tile_mmos").unwrap_or(0);
                        ev_loads += e.u64("tile_loads").unwrap_or(0);
                        ev_stores += e.u64("tile_stores").unwrap_or(0);
                    }
                }
                assert_eq!(ring.dropped(), 0, "telemetry ring overflowed");
                let count = be.op_count();
                assert_eq!(
                    (ev_mmos, ev_tile_mmos, ev_loads, ev_stores),
                    (
                        count.matrix_mmos,
                        count.tile_mmos,
                        count.tile_loads,
                        count.tile_stores
                    ),
                    "span-derived totals diverged from op_count: {op} N={n} T={threads}"
                );
                let tile_mmos = ev_tile_mmos as f64 / runs;
                let traffic_bytes =
                    (ev_loads + ev_stores) as f64 / runs * (ISA_TILE * ISA_TILE) as f64 * 4.0;
                let e = Entry {
                    op,
                    n,
                    threads,
                    overhead_only: threads > 1 && nproc == 1,
                    isa: be.kernel_isa().name(),
                    seconds,
                    tile_mmos_per_s: tile_mmos / seconds,
                    gbps: traffic_bytes / seconds / 1e9,
                    speedup_vs_scalar: scalar_s / seconds,
                };
                t.row(&[
                    op.name().to_owned(),
                    n.to_string(),
                    if e.overhead_only {
                        format!("{threads} (overhead_only)")
                    } else {
                        threads.to_string()
                    },
                    e.isa.to_owned(),
                    format!("{:.4}", e.seconds),
                    format!("{:.3e}", e.tile_mmos_per_s),
                    format!("{:.2}", e.gbps),
                    fmt_speedup(e.speedup_vs_scalar),
                ]);
                entries.push(e);
            }
        }
    }

    t.print();
    println!();
    let sparse_entries = sparse_crossover_sweep(quick, reps);
    plan_batch_sweep(quick, thread_counts, reps);
    pass_pipeline_sweep(quick, reps);
    let json = render_json(quick, nproc, &entries, &sparse_entries);
    std::fs::write("BENCH_throughput.json", &json).expect("write BENCH_throughput.json");
    eprintln!("wrote BENCH_throughput.json ({} entries)", entries.len());
}
