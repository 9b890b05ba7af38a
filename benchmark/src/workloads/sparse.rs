//! `sparse-mmo`: the engine layer of `dense-mmo` used differently —
//! 512³ plus-mul and min-plus with both operands CSR-declared at
//! density 0.01 / 0.10 / 0.50, and one 2:4-structured `A`, through
//! `SparseTiledBackend::mmo_ref` at reduced precision.
//!
//! With `--trace 1` each point is also timed on `TiledBackend::mmo`
//! with the same values — the strongest dense engine in the repo, so
//! the crossover sits where it really is — and, as a labelled strawman,
//! on `SparseTiledBackend`'s own scalar dense leg (what
//! `BENCH_throughput.json`'s `sparse_crossover` rows divide by).

use simd2::{
    Backend, MatrixRef, OperandRepr, Parallelism, PassPipeline, PlanBuilder, TiledBackend,
};
use simd2_matrix::Matrix;
use simd2_semiring::OpKind;
use simd2_sparse::SparseTiledBackend;

use super::{mmo_end_to_end, MmoEntry, Tracing};
use crate::common::{bits_eq, operands, repeat_setup, run_rounds, time, Args, Env, Rng};
use crate::metrics::{Report, SPARSE_OPS, SPARSE_POINTS};
use crate::stats::geomean;

const N: usize = 512;
const MACS: f64 = (N * N * N) as f64;

/// CSR densities of the first three [`SPARSE_POINTS`].
const DENSITIES: [f64; 3] = [0.01, 0.10, 0.50];

/// Rows of the scalar dense leg actually timed for the strawman column.
const STRAWMAN_ROWS: usize = 128;

/// `(op index, point index)` of the entries repeated at `T` threads.
const MT_POINTS: [(usize, usize); 4] = [(0, 1), (0, 2), (1, 1), (1, 2)];

/// One operand set with its representation declarations.
struct Point {
    op: OpKind,
    label: String,
    a: Matrix,
    b: Matrix,
    c: Matrix,
    a_repr: OperandRepr,
    b_repr: OperandRepr,
}

impl Point {
    fn run_sparse(&self, be: &mut SparseTiledBackend) -> Option<Matrix> {
        be.mmo_ref(
            self.op,
            MatrixRef::new(&self.a, self.a_repr),
            MatrixRef::new(&self.b, self.b_repr),
            MatrixRef::dense(&self.c),
        )
        .ok()
    }
}

/// Keeps each element with probability `density`, writing the op's
/// annihilator elsewhere.
fn sparsify(m: &Matrix, zero: f32, density: f64, rng: &mut Rng) -> Matrix {
    let mut out = m.clone();
    for v in out.as_mut_slice() {
        if rng.unit() >= density {
            *v = zero;
        }
    }
    out
}

/// Keeps two seeded positions of every aligned group of four along each
/// row: exactly the 2:4 structured pattern.
fn structure_2_4(m: &Matrix, zero: f32, rng: &mut Rng) -> Matrix {
    let mut out = m.clone();
    for r in 0..out.rows() {
        for group in out.row_mut(r).chunks_mut(4) {
            let first = rng.below(group.len());
            let mut second = rng.below(group.len().max(2) - 1);
            second += usize::from(second >= first);
            for (i, v) in group.iter_mut().enumerate() {
                if i != first && i != second {
                    *v = zero;
                }
            }
        }
    }
    out
}

fn build_points(seed: u64) -> Vec<Point> {
    let mut points = Vec::new();
    for (oi, &op) in SPARSE_OPS.iter().enumerate() {
        let zero = op.no_edge_f32().expect("sparse ops carry an annihilator");
        let csr = OperandRepr::csr_for(op).expect("annihilator implies a CSR repr");
        let (a0, b0, c) = operands(op, N, N, N, seed.wrapping_add(oi as u64));
        let mut rng = Rng::new(seed, 0x5a + oi as u64);
        for (pi, &label) in SPARSE_POINTS.iter().enumerate() {
            let label = format!("{}.{label}", op.name());
            let point = match DENSITIES.get(pi) {
                Some(&d) => Point {
                    op,
                    label,
                    a: sparsify(&a0, zero, d, &mut rng),
                    b: sparsify(&b0, zero, d, &mut rng),
                    c: c.clone(),
                    a_repr: csr,
                    b_repr: csr,
                },
                None => Point {
                    op,
                    label,
                    a: structure_2_4(&a0, zero, &mut rng),
                    b: b0.clone(),
                    c: c.clone(),
                    a_repr: OperandRepr::structured_for(op).expect("annihilator"),
                    b_repr: OperandRepr::Dense,
                },
            };
            points.push(point);
        }
    }
    points
}

fn point_index(op: usize, point: usize) -> usize {
    op * SPARSE_POINTS.len() + point
}

/// Density at which `vs_tiled` (geomean over ops) crosses 1, by linear
/// interpolation in log-log between the measured CSR densities; clamped
/// to the measured range when it never crosses.
fn crossover_density(ratios: &[f64; 3]) -> (f64, &'static str) {
    for i in 0..2 {
        let (r0, r1) = (ratios[i], ratios[i + 1]);
        if (r0 >= 1.0) != (r1 >= 1.0) {
            let (x0, x1) = (DENSITIES[i].ln(), DENSITIES[i + 1].ln());
            let t = (0.0 - r0.ln()) / (r1.ln() - r0.ln());
            return ((x0 + t * (x1 - x0)).exp(), "interpolated");
        }
    }
    if ratios[0] >= 1.0 {
        (
            DENSITIES[2],
            "sparse wins at every measured density: a lower bound",
        )
    } else {
        (
            DENSITIES[0],
            "dense wins at every measured density: an upper bound",
        )
    }
}

/// Runs the workload.
pub fn run(args: &Args, env: &Env) -> Report {
    let mut report = Report::default();
    let (setup_s, setup_reps, points) = repeat_setup(|| build_points(args.seed));
    report.set("setup_s", setup_s);

    let sparse_backend = |par: Parallelism| {
        SparseTiledBackend::new()
            .with_reduced_precision(true)
            .with_parallelism(par)
    };
    let mut sparse_t1 = sparse_backend(Parallelism::Sequential);
    let mut sparse_tt = sparse_backend(Parallelism::Threads(env.threads));
    let mut tiled = TiledBackend::new();

    // Oracle: the sparse backend's own dense leg at the same precision
    // (a representation declaration is a schedule hint; it may not move
    // a bit). It is a scalar loop at ~0.1 GMAC/s, so it runs on the
    // `T`-thread schedule, which the backend keeps bit-identical to the
    // sequential one. Whether that leg also agrees with `TiledBackend`
    // is reported, not required: the two reduce in different orders.
    let (oracle_s, oracle) = time(|| {
        points
            .iter()
            .map(|p| sparse_tt.mmo(p.op, &p.a, &p.b, &p.c).expect("oracle mmo"))
            .collect::<Vec<Matrix>>()
    });
    report.note(format!(
        "set-up repeated {setup_reps}x (median reported); dense-leg oracle built once in {oracle_s:.3} s"
    ));
    for (oi, op) in SPARSE_OPS.iter().enumerate() {
        let same = (0..SPARSE_POINTS.len()).all(|pi| {
            let p = &points[point_index(oi, pi)];
            let d = tiled.mmo(p.op, &p.a, &p.b, &p.c).expect("tiled mmo");
            bits_eq(&d, &oracle[point_index(oi, pi)])
        });
        report.note(format!(
            "SparseTiledBackend (reduced precision) vs TiledBackend on the same values, {op}: {}",
            if same {
                "bit-identical"
            } else {
                "NOT bit-identical (sequential fold vs per-tile tree; reported, not a failure)"
            }
        ));
    }

    // Exact term accounting, one call per point on a fresh counter.
    let skipped: Vec<f64> = points
        .iter()
        .map(|p| {
            sparse_t1.reset_count();
            p.run_sparse(&mut sparse_t1);
            let c = sparse_t1.sparse_count();
            c.skipped_terms as f64 / (c.fma_terms + c.skipped_terms).max(1) as f64
        })
        .collect();

    // The strawman column: the sequential scalar dense leg, timed on the
    // first rows of each plus-mul CSR point and scaled to all rows (the
    // leg is a per-row loop; whole operands would cost 1.4 s a sample).
    let strawman: Vec<f64> = if args.trace {
        (0..DENSITIES.len())
            .map(|pi| {
                let p = &points[point_index(0, pi)];
                let head = |m: &Matrix| {
                    Matrix::from_vec(
                        STRAWMAN_ROWS,
                        m.cols(),
                        m.as_slice()[..STRAWMAN_ROWS * m.cols()].to_vec(),
                    )
                };
                let (a, c) = (head(&p.a), head(&p.c));
                let (s, _) = time(|| sparse_t1.mmo(p.op, &a, &p.b, &c));
                s * (N / STRAWMAN_ROWS) as f64
            })
            .collect()
    } else {
        Vec::new()
    };

    let tracing = args.trace.then(|| Tracing::new(1 << 16));
    let mut tiled_traced = tracing
        .as_ref()
        .map(|t| TiledBackend::new().with_tracer(t.tracer()));

    // Rounds: the first is the untimed warm-up, and every sparse call of
    // every round is checked against its oracle, outside its timer.
    // Layout: [sparse t1 × points] [sparse tT × MT_POINTS] then, when
    // tracing, [tiled × points] [tiled traced × points].
    let n = points.len();
    let n_mt = MT_POINTS.len();
    let width = if args.trace { 3 * n + n_mt } else { n + n_mt };
    let rounds = run_rounds(width, args.seconds, |warm_up| {
        let mut times = Vec::with_capacity(width);
        for (i, p) in points.iter().enumerate() {
            let (s, out) = time(|| p.run_sparse(&mut sparse_t1));
            report.attempt(out.is_some_and(|d| bits_eq(&d, &oracle[i])));
            times.push(s);
        }
        for (oi, pi) in MT_POINTS {
            let i = point_index(oi, pi);
            let (s, out) = time(|| points[i].run_sparse(&mut sparse_tt));
            report.attempt(out.is_some_and(|d| bits_eq(&d, &oracle[i])));
            times.push(s);
        }
        if let Some(traced) = tiled_traced.as_mut().filter(|_| !warm_up) {
            for p in &points {
                times.push(time(|| tiled.mmo(p.op, &p.a, &p.b, &p.c)).0);
            }
            for p in &points {
                times.push(time(|| traced.mmo(p.op, &p.a, &p.b, &p.c)).0);
            }
        }
        times
    });
    report.note(format!(
        "{} timed rounds x {} entries after one warm-up round, every call checked, T = {}",
        rounds.rounds,
        n + n_mt,
        env.threads
    ));
    if env.overhead_only() {
        report.note("nproc = 1: mmo_gmacs_mt and sparse.scale_eff are overhead_only");
    }

    // Dense-equivalent MACs: the sparse kernels skip terms, the problem
    // they solve is still 512³.
    let entries: Vec<MmoEntry> = (0..n + n_mt)
        .map(|i| MmoEntry {
            macs: MACS,
            multi_thread: i >= n,
            quiet_s: rounds.quiet(i),
        })
        .collect();
    if !args.trace {
        mmo_end_to_end(&mut report, &entries);
        return report;
    }

    let mut vs_tiled = vec![0.0; n];
    for (i, p) in points.iter().enumerate() {
        report.set(format!("sparse.gmacs.{}", p.label), entries[i].gmacs());
        vs_tiled[i] = rounds.quiet(n + n_mt + i) / entries[i].quiet_s;
        report.set(format!("sparse.vs_tiled.{}", p.label), vs_tiled[i]);
    }
    for (pi, label) in SPARSE_POINTS.iter().enumerate() {
        report.set(
            format!("sparse.skipped_term_frac.{label}"),
            skipped[point_index(0, pi)],
        );
        if let Some(dense_leg_s) = strawman.get(pi) {
            report.set(
                format!("sparse.vs_scalar_dense.{label}"),
                dense_leg_s / entries[point_index(0, pi)].quiet_s,
            );
        }
    }
    report.note(format!(
        "sparse.vs_scalar_dense.* is a strawman: its base is SparseTiledBackend's scalar dense leg \
         (one sample, first {STRAWMAN_ROWS} rows scaled to {N})"
    ));
    let per_density: [f64; 3] = std::array::from_fn(|pi| {
        geomean(
            &(0..SPARSE_OPS.len())
                .map(|oi| vs_tiled[point_index(oi, pi)])
                .collect::<Vec<_>>(),
        )
    });
    let (crossover, how) = crossover_density(&per_density);
    report.set("sparse.crossover_density", crossover);
    report.note(format!("sparse.crossover_density: {how}"));
    report.set(
        "sparse.scale_eff",
        geomean(
            &MT_POINTS
                .iter()
                .enumerate()
                .map(|(j, &(oi, pi))| {
                    entries[n + j].gmacs()
                        / (env.threads as f64 * entries[point_index(oi, pi)].gmacs())
                })
                .collect::<Vec<_>>(),
        ),
    );

    // Does the lowering pass agree with the host? A one-step plan per
    // point, dense-declared, through the sparse pipeline.
    let mut mispredicts = 0;
    for (i, p) in points.iter().enumerate() {
        let mut rec = PlanBuilder::over(&mut tiled);
        rec.mmo(p.op, &p.a, &p.b, &p.c).expect("recording mmo");
        let promoted = PassPipeline::sparse()
            .run(rec.finish())
            .report()
            .slots_relowered
            > 0;
        let sparse_wins = vs_tiled[i] > 1.0;
        if promoted != sparse_wins {
            mispredicts += 1;
            report.note(format!(
                "lowering mispredict at {}: pass {} but sparse is {:.2}x the tiled engine",
                p.label,
                if promoted { "promotes" } else { "stays dense" },
                vs_tiled[i]
            ));
        }
    }
    report.set("core.passes.lowering_mispredicts", f64::from(mispredicts));

    let tiled_from = n + n_mt;
    let overhead = rounds.ratio_per_round(
        tiled_from + n..tiled_from + 2 * n,
        tiled_from..tiled_from + n,
    );
    tracing
        .expect("trace mode has a sink")
        .finish(&mut report, &args.workload, &overhead);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structured_operand_is_2_4_compliant_and_half_dense() {
        let (a0, _, _) = operands(OpKind::PlusMul, 32, 32, 64, 3);
        let a = structure_2_4(&a0, 0.0, &mut Rng::new(3, 0));
        assert!(simd2::repr::is_2_4_compliant(&a, 0.0));
        let d = simd2::repr::density(&a, 0.0);
        assert!((d - 0.5).abs() < 0.02, "{d}");
    }

    #[test]
    fn sparsify_hits_its_density() {
        let (a0, _, _) = operands(OpKind::MinPlus, 64, 64, 64, 5);
        let a = sparsify(&a0, f32::INFINITY, 0.10, &mut Rng::new(5, 0));
        let d = simd2::repr::density(&a, f32::INFINITY);
        assert!((d - 0.10).abs() < 0.02, "{d}");
    }

    #[test]
    fn crossover_interpolates_in_log_space() {
        // Crossing exactly halfway (in log) between 0.10 and 0.50.
        let (d, how) = crossover_density(&[4.0, 2.0, 0.5]);
        assert_eq!(how, "interpolated");
        assert!((d - (0.10f64 * 0.50).sqrt()).abs() < 1e-9, "{d}");
        assert_eq!(crossover_density(&[3.0, 2.0, 1.5]).0, 0.50);
        assert_eq!(crossover_density(&[0.9, 0.5, 0.1]).0, 0.01);
    }

    #[test]
    fn points_are_seeded_and_declared() {
        let a = build_points(9);
        let b = build_points(9);
        assert_eq!(a.len(), 8);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| bits_eq(&x.a, &y.a) && bits_eq(&x.b, &y.b)));
        assert!(!bits_eq(&a[0].a, &build_points(10)[0].a));
        assert_eq!(a[3].label, "plus-mul.s24");
        assert!(a[3].b_repr.is_dense() && !a[3].a_repr.is_dense());
    }
}
