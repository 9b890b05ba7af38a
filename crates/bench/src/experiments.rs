//! Every table, figure and ablation of the evaluation, as one table of
//! `(name, what, render)` entries.
//!
//! [`EXPERIMENTS`] is the only list of the experiments in the repo: the
//! `reproduce` binary runs entries from it, and the snapshot test
//! (`tests/snapshots.rs`) pins each entry's rendered report byte for
//! byte against `results/<name>.txt` and checks that the names and the
//! committed files are the same set. Every report is a pure function of
//! the code — seeded inputs, analytic models — so it reproduces exactly.

use std::fmt::Write as _;

use simd2::backend::{Backend, ReferenceBackend, TiledBackend};
use simd2::micro::{fig10_shapes, fig9_sizes, MicroBench};
use simd2::solve::ClosureAlgorithm;
use simd2::validate::compare_outputs;
use simd2::PlanExecutor;
use simd2_apps::{apsp, harness, paths, AppKind, AppTiming, Config};
use simd2_gpu::cost::{cuda_op_cost, cuda_op_cost_fused, effective_dim, utilisation};
use simd2_gpu::sim::{tile_mmo_program, SmPipeline};
use simd2_gpu::{geomean, Gpu};
use simd2_matrix::gen::InputScale;
use simd2_mxu::timing::UnitTiming;
use simd2_mxu::{AreaModel, DieModel, PowerModel, PrecisionMode, Simd2Unit};
use simd2_semiring::precision::Precision;
use simd2_semiring::{OpKind, ALL_OPS, EXTENDED_OPS};
use simd2_sparse::model::{crossover_point, fig14_sizes, fig14_sparsities};

use crate::report::fmt_speedup;
use crate::{fig11, Table};

/// One experiment of the evaluation.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Name on the `reproduce` command line and stem of the committed
    /// report, `results/<name>.txt`.
    pub name: &'static str,
    /// What the report regenerates, for `reproduce list`.
    pub what: &'static str,
    /// Renders the report exactly as it is committed.
    pub render: fn() -> String,
}

/// Every experiment, in the order `reproduce all` runs them.
pub const EXPERIMENTS: [Experiment; 14] = [
    Experiment {
        name: "table4_apps",
        what: "Table 4: application / baseline / input inventory",
        render: table4_apps,
    },
    Experiment {
        name: "table5_area",
        what: "Table 5(a)(b)(c) + §6.1 power and die overheads",
        render: table5_area,
    },
    Experiment {
        name: "fig09_micro",
        what: "Figure 9: square microbenchmarks",
        render: fig09_micro,
    },
    Experiment {
        name: "fig10_nonsquare",
        what: "Figure 10: non-square microbenchmarks",
        render: fig10_nonsquare,
    },
    Experiment {
        name: "fig11_apps",
        what: "Figure 11: application speedups, both SIMD2 configurations",
        render: fig11::report,
    },
    Experiment {
        name: "fig12_ablation",
        what: "Figure 12: algorithm / convergence-check ablation",
        render: fig12_ablation,
    },
    Experiment {
        name: "fig13_sparse",
        what: "Figure 13: sparse (2:4) SIMD2 units",
        render: fig13_sparse,
    },
    Experiment {
        name: "fig14_crossover",
        what: "Figure 14: spGEMM vs dense crossover and the OOM wall",
        render: fig14_crossover,
    },
    Experiment {
        name: "ablate_sharing",
        what: "ablation (§3.1/§6.1): area saved by datapath sharing",
        render: ablate_sharing,
    },
    Experiment {
        name: "ablate_fused_vector",
        what: "ablation (§6.2): SIMD2 units vs a fused-vector CUDA ISA",
        render: ablate_fused_vector,
    },
    Experiment {
        name: "ablate_tile_shape",
        what: "ablation (Table 5(c)): 4x4 vs 8x8 units, perf per area",
        render: ablate_tile_shape,
    },
    Experiment {
        name: "ablate_precision",
        what: "ablation (§3.2): fp32 / fp16 / int8 operands",
        render: ablate_precision,
    },
    Experiment {
        name: "ablate_standalone",
        what: "ablation (§3.1): integrated units vs a standalone accelerator",
        render: ablate_standalone,
    },
    Experiment {
        name: "validate_apps",
        what: "§5.1 correctness validation sweep, plan replay cross-checked",
        render: validate_apps,
    },
];

/// Table 4: the application / baseline / input inventory.
fn table4_apps() -> String {
    let mut t = Table::new(
        "Table 4: benchmark applications, baselines and input dimensions",
        &[
            "Application",
            "Label",
            "SIMD2 op",
            "Baseline source",
            "Small",
            "Medium",
            "Large",
        ],
    );
    for app in AppKind::all() {
        let s = app.spec();
        t.row(&[
            s.full_name.to_owned(),
            s.label.to_owned(),
            s.op.ptx_mnemonic().to_owned(),
            s.baseline_source.to_owned(),
            app.dimension(InputScale::Small).to_string(),
            app.dimension(InputScale::Medium).to_string(),
            app.dimension(InputScale::Large).to_string(),
        ]);
    }
    t.emit()
}

/// Table 5 (area) plus the §6.1 power and die-level numbers.
fn table5_area() -> String {
    let mut out = String::new();

    // (a) Adding instructions to the MMA unit.
    let mut a = Table::new(
        "Table 5(a): combined-unit area relative to the 16-bit MMA baseline",
        &["Supported ops", "Area (rel)", "Area (mm2 @45nm)"],
    );
    let full = AreaModel::combined(&EXTENDED_OPS);
    a.row(&[
        "MMA + all SIMD2 insts".to_owned(),
        format!("{:.2}", full.relative_area()),
        format!("{:.2}", full.area_mm2_45nm()),
    ]);
    for op in EXTENDED_OPS {
        let m = AreaModel::combined(&[op]);
        a.row(&[
            format!("MMA + {}", op.name()),
            format!("{:.2}", m.relative_area()),
            format!("{:.2}", m.area_mm2_45nm()),
        ]);
    }
    out.push_str(&a.emit());
    out.push('\n');

    // (b) Standalone accelerators.
    let mut b = Table::new(
        "Table 5(b): standalone per-op accelerators",
        &["Supported op", "Area (rel)"],
    );
    for op in EXTENDED_OPS {
        b.row(&[
            op.name().to_owned(),
            format!("{:.2}", AreaModel::standalone(op).relative_area()),
        ]);
    }
    b.row(&[
        "total".to_owned(),
        format!("{:.2}", AreaModel::standalone_total()),
    ]);
    out.push_str(&b.emit());
    out.push('\n');

    // (c) Precision scaling.
    let mut c = Table::new(
        "Table 5(c): precision scaling (relative to 16-bit MMA)",
        &["Unit", "8-bit", "16-bit", "32-bit", "64-bit"],
    );
    let fmt_row = |name: &str, f: &dyn Fn(Precision) -> f64| {
        let mut row = vec![name.to_owned()];
        for p in Precision::all() {
            row.push(format!("{:.2}", f(p)));
        }
        row
    };
    c.row(&fmt_row("MMA only", &AreaModel::mma_at_precision));
    c.row(&fmt_row(
        "MMA + all SIMD2 insts",
        &AreaModel::full_simd2_at_precision,
    ));
    out.push_str(&c.emit());
    out.push('\n');

    // Shape scaling + power + die (§6.1 prose numbers).
    let _ = writeln!(
        out,
        "8x8-tile MMA unit: {:.2}x the 4x4 baseline (overhead ratio constant)",
        AreaModel::shape_scale(8) / AreaModel::shape_scale(4)
    );
    let _ = writeln!(
        out,
        "Power: MMA {:.2} W -> full SIMD2 {:.2} W (+{:.2} W)",
        PowerModel::MMA_WATTS,
        PowerModel::combined_watts(&EXTENDED_OPS),
        PowerModel::combined_watts(&EXTENDED_OPS) - PowerModel::MMA_WATTS
    );
    let die = DieModel::rtx3080();
    let _ = writeln!(
        out,
        "Die: SIMD2 unit adds {:.3} mm2/SM @8N = {:.1}% of an SM = {:.1}% of the {} SM die",
        die.simd2_overhead_mm2(),
        100.0 * die.sm_overhead_fraction(),
        100.0 * die.die_overhead_fraction(),
        die.sm_count()
    );
    out
}

/// One row per op and one column per `(label, m, n, k)` shape of
/// modelled SIMD2-unit speedup over CUDA cores, with the GMEAN row — the
/// body of Figures 9 and 10.
fn micro_table(title: &str, shapes: &[(String, usize, usize, usize)]) -> String {
    let gpu = Gpu::default();
    let mut header = vec!["op"];
    header.extend(shapes.iter().map(|(label, ..)| label.as_str()));
    let mut t = Table::new(title, &header);
    let mut per_shape: Vec<Vec<f64>> = vec![Vec::new(); shapes.len()];
    for op in ALL_OPS {
        let mut row = vec![op.name().to_owned()];
        for (col, &(_, m, n, k)) in per_shape.iter_mut().zip(shapes) {
            let s = MicroBench { op, m, n, k }.time(&gpu).speedup();
            col.push(s);
            row.push(fmt_speedup(s));
        }
        t.row(&row);
    }
    let mut gm = vec!["GMEAN".to_owned()];
    for col in &per_shape {
        gm.push(fmt_speedup(geomean(col)));
    }
    t.row(&gm);
    t.emit()
}

/// Figure 9: per-operation microbenchmark speedups on square matrices,
/// SIMD2 units vs the CUDA-core implementation.
fn fig09_micro() -> String {
    let shapes: Vec<_> = fig9_sizes()
        .into_iter()
        .map(|n| (n.to_string(), n, n, n))
        .collect();
    micro_table(
        "Figure 9: microbenchmark speedup, SIMD2 units over CUDA cores (square NxN)",
        &shapes,
    )
}

/// Figure 10: microbenchmark speedups on non-square shapes.
fn fig10_nonsquare() -> String {
    let shapes: Vec<_> = fig10_shapes()
        .into_iter()
        .map(|(label, m, n, k)| (label.to_owned(), m, n, k))
        .collect();
    micro_table(
        "Figure 10: microbenchmark speedup on non-square shapes",
        &shapes,
    )
}

/// Figure 12: algorithmic ablation — Leyzorek with/without convergence
/// checks, and all-pairs Bellman-Ford — against the same baselines as
/// Figure 11 (SIMD2-unit configuration).
fn fig12_ablation() -> String {
    let model = AppTiming::new(Gpu::default());
    let variants: [(&str, ClosureAlgorithm, bool); 4] = [
        ("Leyzorek + convergence", ClosureAlgorithm::Leyzorek, true),
        (
            "Leyzorek w/o convergence",
            ClosureAlgorithm::Leyzorek,
            false,
        ),
        (
            "Bellman-Ford + convergence",
            ClosureAlgorithm::BellmanFord,
            true,
        ),
        (
            "Bellman-Ford w/o convergence",
            ClosureAlgorithm::BellmanFord,
            false,
        ),
    ];
    let mut out = String::new();
    for scale in [InputScale::Small, InputScale::Large] {
        let mut t = Table::new(
            format!(
                "Figure 12: algorithm ablation, speedup over baseline ({})",
                scale.label()
            ),
            &[
                "app",
                variants[0].0,
                variants[1].0,
                variants[2].0,
                variants[3].0,
            ],
        );
        for app in AppKind::all() {
            if app == AppKind::Knn {
                continue; // KNN has no closure loop to ablate
            }
            let n = app.dimension(scale);
            let base = model.baseline_time(app, n);
            let mut row = vec![app.spec().label.to_owned()];
            for &(_, alg, conv) in &variants {
                let iters = model.iterations(app, n, alg, conv);
                let time = model.simd2_time(app, n, iters, conv, Config::Simd2Units);
                row.push(fmt_speedup(time.speedup_over(base)));
            }
            t.row(&row);
        }
        out.push_str(&t.emit());
        out.push('\n');
    }
    out
}

/// Figure 13: application speedups with the structured-sparsity (2:4)
/// SIMD2 tile pipe, and the gain over dense SIMD2 units.
fn fig13_sparse() -> String {
    let model = AppTiming::new(Gpu::default());
    let mut t = Table::new(
        "Figure 13: sparse SIMD2 unit speedup over baseline (and vs dense SIMD2)",
        &["app", "small", "medium", "large", "vs dense (medium)"],
    );
    let mut per_scale: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut peak = 0.0f64;
    for app in AppKind::all() {
        let mut row = vec![app.spec().label.to_owned()];
        for (i, scale) in InputScale::all().into_iter().enumerate() {
            let n = app.dimension(scale);
            let s = model.speedup(app, n, Config::Simd2SparseUnits);
            per_scale[i].push(s);
            peak = peak.max(s);
            row.push(fmt_speedup(s));
        }
        let n = app.dimension(InputScale::Medium);
        let iters = model.iterations(app, n, ClosureAlgorithm::Leyzorek, true);
        let dense = model.simd2_time(app, n, iters, true, Config::Simd2Units);
        let sparse = model.simd2_time(app, n, iters, true, Config::Simd2SparseUnits);
        row.push(fmt_speedup(sparse.speedup_over(dense)));
        t.row(&row);
    }
    let mut gm = vec!["GMEAN".to_owned()];
    for col in &per_scale {
        gm.push(fmt_speedup(geomean(col)));
    }
    gm.push(String::new());
    t.row(&gm);
    let mut out = t.emit();
    let _ = writeln!(out, "Peak sparse-SIMD2 speedup: {}", fmt_speedup(peak));
    out
}

/// Figure 14: cuSPARSE-style spGEMM vs dense Tensor-Core GEMM across
/// sparsities and sizes, including the OOM wall at 16384.
fn fig14_crossover() -> String {
    let gpu = Gpu::default();
    let sparsities = fig14_sparsities();
    let mut header: Vec<String> = vec!["size".into()];
    header.extend(sparsities.iter().map(|s| format!("{:.2}%", s * 100.0)));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "Figure 14: spGEMM speedup over dense Tensor-Core GEMM (OOM = exceeds 10 GB)",
        &header_refs,
    );
    for n in fig14_sizes() {
        let mut row = vec![n.to_string()];
        for &s in &sparsities {
            let p = crossover_point(&gpu, n, s);
            row.push(match p.speedup() {
                Some(sp) => fmt_speedup(sp),
                None => "OOM".to_owned(),
            });
        }
        t.row(&row);
    }
    let mut out = t.emit();
    let _ = writeln!(
        out,
        "\nDense fp16-operand GEMM footprint at 32768^2: {:.1} GB (fits the 10 GB device)",
        (2.0 * 32768.0f64 * 32768.0 * 2.0 + 32768.0f64 * 32768.0 * 4.0) / 1.0e9
    );
    out
}

/// Ablation (§3.1/§6.1 design choice): how much area does datapath
/// sharing save, pairwise and cumulatively? The paper's headline: the
/// combined unit costs 0.69 MMA-equivalents versus 2.96 for dedicated
/// accelerators, and a mirror pair like min-mul/max-mul shares so much
/// circuitry that supporting both costs 11.82% instead of 2×103%.
fn ablate_sharing() -> String {
    let mut t = Table::new(
        "Mirror-pair sharing: combined increment vs sum of per-op increments",
        &[
            "pair",
            "each standalone",
            "sum standalone",
            "combined w/ MMA",
            "sharing saves",
        ],
    );
    for (a, b) in [
        (OpKind::MinPlus, OpKind::MaxPlus),
        (OpKind::MinMul, OpKind::MaxMul),
        (OpKind::MinMax, OpKind::MaxMin),
    ] {
        let standalone = AreaModel::standalone(a).relative_area();
        let combined = AreaModel::combined(&[a, b]).relative_area();
        let separate_increment = 2.0 * (AreaModel::combined(&[a]).relative_area() - 1.0);
        t.row(&[
            format!("{} + {}", a.name(), b.name()),
            format!("{standalone:.2}"),
            format!("{:.2}", 2.0 * standalone),
            format!("{combined:.2}"),
            format!(
                "{:.0}%",
                100.0 * (1.0 - (combined - 1.0) / separate_increment)
            ),
        ]);
    }
    let mut out = t.emit();
    out.push('\n');

    let mut c = Table::new(
        "Cumulative build-up of the full SIMD2 unit",
        &[
            "ops included",
            "combined area",
            "sum of standalone accelerators",
        ],
    );
    let mut set: Vec<OpKind> = Vec::new();
    let mut standalone_sum = 1.0; // the MMA unit itself
    for op in EXTENDED_OPS {
        set.push(op);
        standalone_sum += AreaModel::standalone(op).relative_area();
        c.row(&[
            format!("MMA + {} ext ops", set.len()),
            format!("{:.2}", AreaModel::combined(&set).relative_area()),
            format!("{standalone_sum:.2}"),
        ]);
    }
    out.push_str(&c.emit());
    let full = AreaModel::combined(&EXTENDED_OPS).relative_area() - 1.0;
    let _ = writeln!(
        out,
        "\nDedicated accelerators cost {:.1}x the combined design's overhead (paper: > 4x).",
        AreaModel::standalone_total() / full
    );
    out
}

/// Ablation (§6.2 future-work aside): what if CUDA cores gained fused
/// vector instructions for every ⊕-⊗ pair, the way multiply-add has FMA?
///
/// The paper argues SIMD² "has larger potential than fusing more vector
/// operations": fusing shrinks the gap to the raw throughput ratio
/// (quoting "up to 5.96× for larger matrix operations"), while the SIMD²
/// architecture keeps the full tile-pipe advantage.
fn ablate_fused_vector() -> String {
    let gpu = Gpu::default();
    let n = 16384usize;
    let mut t = Table::new(
        format!("SIMD2-unit speedup at {n}^3 under today's ISA vs a fused-vector ISA"),
        &[
            "op",
            "vs today's CUDA ISA",
            "vs fused-vector ISA",
            "fusion closes",
        ],
    );
    let mut today_all = Vec::new();
    let mut fused_all = Vec::new();
    for op in ALL_OPS {
        let simd2 = gpu.simd2_mmo_time(op, n, n, n).get();
        let eff = utilisation(effective_dim(n, n, n), gpu.config().cuda_half_sat_dim);
        let steps = (n as f64).powi(3);
        let cuda = |slots: f64| steps * slots / (gpu.config().cuda_ops_per_second() * eff);
        let s_today = cuda(cuda_op_cost(op).total_slots()) / simd2;
        let s_fused = cuda(cuda_op_cost_fused(op).total_slots()) / simd2;
        today_all.push(s_today);
        fused_all.push(s_fused);
        t.row(&[
            op.name().to_owned(),
            fmt_speedup(s_today),
            fmt_speedup(s_fused),
            format!("{:.0}%", 100.0 * (1.0 - s_fused / s_today)),
        ]);
    }
    t.row(&[
        "GMEAN".to_owned(),
        fmt_speedup(geomean(&today_all)),
        fmt_speedup(geomean(&fused_all)),
        String::new(),
    ]);
    let mut out = t.emit();
    let _ = writeln!(
        out,
        "\nEven against a fully fused vector ISA, SIMD2 keeps up to {} (paper: up to 5.96x).",
        fmt_speedup(fused_all.iter().copied().fold(0.0, f64::max))
    );
    out
}

/// Ablation (Table 5(c) design choice): 4x4 vs 8x8 SIMD2 units, priced
/// on the cycle-level SM pipeline simulator and the area model — the
/// performance-per-area trade behind the paper's 4x4 design point.
fn ablate_tile_shape() -> String {
    let warps = 8usize;
    let k_tiles = 32usize;
    let programs: Vec<_> = (0..warps)
        .map(|_| tile_mmo_program(OpKind::MinPlus, k_tiles))
        .collect();
    let mut t = Table::new(
        format!("Tile-shape ablation: {warps} warps x {k_tiles} ISA mmos on one sub-core"),
        &[
            "unit",
            "cycles",
            "cycles/mmo",
            "SIMD2 util",
            "area (rel)",
            "perf/area",
        ],
    );
    let shapes = [
        ("4x4 (paper)", UnitTiming::simd2_4x4(), 4usize),
        (
            "8x8",
            UnitTiming {
                tile_side: 8,
                latency_cycles: 4,
                initiation_interval: 1,
            },
            8,
        ),
    ];
    let mut results = Vec::new();
    for (name, unit, side) in shapes {
        let stats = SmPipeline::with_unit(unit).simulate(&programs);
        // The SIMD2 overhead ratio is shape-invariant (§6.1), so the full
        // unit scales with the MMA shape factor.
        let area = AreaModel::shape_scale(side) / AreaModel::shape_scale(4)
            * AreaModel::combined(&EXTENDED_OPS).relative_area();
        let perf = 1.0 / stats.cycles as f64;
        t.row(&[
            name.to_owned(),
            stats.cycles.to_string(),
            format!("{:.1}", stats.cycles_per_mmo()),
            format!("{:.0}%", 100.0 * stats.simd2_utilization()),
            format!("{area:.2}"),
            format!("{:.3}", perf / area * 1.0e4),
        ]);
        results.push((stats.cycles, area));
    }
    let mut out = t.emit();
    let speedup = results[0].0 as f64 / results[1].0 as f64;
    let area_cost = results[1].1 / results[0].1;
    let _ = writeln!(
        out,
        "\n8x8 is {speedup:.2}x faster but {area_cost:.1}x larger: {:.2}x perf/area — \
         the 4x4 point wins on efficiency, matching the paper's design choice.",
        speedup / area_cost
    );
    out
}

/// Ablation (§3.2 design choice): operand precision. The paper chose
/// fp16-in/fp32-out and rejected fixed-precision int8 because "for many
/// algorithms, we find fixed-precision format cannot converge to the same
/// result as baseline fp32". This demonstrates both halves on the
/// functional stack: the selection algebras are bit-exact at fp16, the
/// multiplicative ones drift slightly, and int8 breaks APSP outright.
fn ablate_precision() -> String {
    let n = 80;
    let modes = [
        ("fp32", PrecisionMode::Fp32Input),
        ("fp16 (paper)", PrecisionMode::Fp16Input),
        ("int8", PrecisionMode::Int8Input),
    ];
    let mut t = Table::new(
        format!("Operand-precision ablation at n = {n} (max |diff| vs fp32 baseline algorithm)"),
        &["app", "mode", "max abs diff", "verdict"],
    );
    let mut row = |app: &str, mode: &str, v: simd2::validate::Validation| {
        t.row(&[
            app.to_owned(),
            mode.to_owned(),
            format!("{:.3e}", v.max_abs_diff),
            if v.passed() {
                "converges"
            } else {
                "DOES NOT CONVERGE"
            }
            .to_owned(),
        ]);
    };

    // APSP: integer weights scaled so optimal distances exceed the int8
    // range (but stay fp16-exact) — int8 saturates at 127 and breaks.
    let g = apsp::generate(n, 9).map_weights(|w| w * 8.0);
    let oracle = apsp::baseline(&g);
    for (name, mode) in modes {
        let mut be = TiledBackend::with_unit(Simd2Unit::with_precision(mode));
        let got = apsp::simd2(&mut be, &g, ClosureAlgorithm::Leyzorek, true);
        row(
            "APSP",
            name,
            compare_outputs("apsp", &oracle, &got.closure, 0.0),
        );
    }

    // MAXRP: products in (0,1] — fp16 drifts slightly, int8 collapses the
    // whole probability resolution.
    let g = paths::generate_maxrp(n, 9);
    let oracle = paths::baseline(OpKind::MaxMul, &g);
    for (name, mode) in modes {
        let mut be = TiledBackend::with_unit(Simd2Unit::with_precision(mode));
        let got = paths::simd2(
            &mut be,
            OpKind::MaxMul,
            &g,
            ClosureAlgorithm::Leyzorek,
            true,
        );
        row(
            "MAXRP",
            name,
            compare_outputs("maxrp", &oracle, &got.closure, 0.02),
        );
    }
    t.emit()
}

/// Ablation (§3.1 design choice): SIMD² units integrated into GPU SMs vs
/// a standalone SIMD² accelerator across a host interconnect. The paper
/// argues for integration because "matrix operations just serve as the
/// core computation" — pre/post-processing and convergence checks need
/// collocated scalar/vector cores. This quantifies the claim.
fn ablate_standalone() -> String {
    let model = AppTiming::new(Gpu::default());
    let mut t = Table::new(
        "Integrated (GPU SM) vs standalone SIMD2 accelerator, speedup over baseline (small)",
        &["app", "integrated", "standalone ASIC", "integration buys"],
    );
    for app in AppKind::all() {
        let n = app.dimension(InputScale::Small);
        let iters = model.iterations(app, n, ClosureAlgorithm::Leyzorek, true);
        let base = model.baseline_time(app, n);
        let integrated = model.simd2_time(app, n, iters, true, Config::Simd2Units);
        let standalone = model.standalone_simd2_time(app, n, iters, true);
        t.row(&[
            app.spec().label.to_owned(),
            fmt_speedup(integrated.speedup_over(base)),
            fmt_speedup(standalone.speedup_over(base)),
            format!("{:.2}x", standalone.get() / integrated.get()),
        ]);
    }
    let mut out = t.emit();
    out.push_str(
        "\nConvergence-checked closures lose most of their gain across a host link —\n\
         the §3.1 argument for building SIMD2 into the SM rather than beside it.\n",
    );
    out
}

/// §5.1 correctness-validation sweep: runs every application
/// functionally at a host-tractable scale through the registry-driven
/// harness ([`simd2_apps::harness`]), compares the SIMD2-ized output (on
/// both the fp32 reference backend and the fp16 tiled backend) against
/// the state-of-the-art baseline algorithm, and reports the op
/// statistics.
///
/// Each run records its MMO sequence as a [`Plan`](simd2::Plan); the
/// sweep replays that plan on a fresh backend of the same kind and
/// cross-checks the replay's work counters against the recorded run's —
/// the `replay` column reports the verdict.
fn validate_apps() -> String {
    /// Runs `app` on `be`, then replays the recorded plan on `fresh` and
    /// checks the replayed work counters equal the recorded run's.
    fn run_and_replay<B: Backend>(app: AppKind, n: usize, mut be: B, mut fresh: B) -> [String; 5] {
        let run = harness::run_app(&mut be, app, n, 42, ClosureAlgorithm::Leyzorek, true);
        let mmos = be.op_count().tile_mmos;
        let replay = match PlanExecutor::new().run(&run.plan, &mut fresh) {
            Ok(_) if fresh.op_count().tile_mmos == mmos => "OK",
            Ok(_) => "COUNT-MISMATCH",
            Err(_) => "ERROR",
        };
        let verdict = if run.passed() { "PASS" } else { "FAIL" };
        [
            format!("{:.3e}", run.diff),
            run.iterations.to_string(),
            mmos.to_string(),
            replay.to_owned(),
            verdict.to_owned(),
        ]
    }

    let n = 96;
    let mut t = Table::new(
        format!("Correctness validation at n = {n} (diff vs baseline algorithm output)"),
        &[
            "app",
            "backend",
            "max abs diff / (1-recall)",
            "iterations",
            "tile mmos",
            "replay",
            "verdict",
        ],
    );
    for app in AppKind::all() {
        let fp32 = run_and_replay(app, n, ReferenceBackend::new(), ReferenceBackend::new());
        let fp16 = run_and_replay(app, n, TiledBackend::new(), TiledBackend::new());
        for (backend, cells) in [("CUDA cores (fp32)", fp32), ("SIMD2 units (fp16)", fp16)] {
            let mut row = vec![app.spec().label.to_owned(), backend.to_owned()];
            row.extend(cells);
            t.row(&row);
        }
    }
    t.emit()
}
