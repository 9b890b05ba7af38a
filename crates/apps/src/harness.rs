//! Registry-driven application harness: one generate → baseline →
//! record → validate pipeline for all eight Figure-11 applications.
//!
//! Every consumer that used to hand-roll this loop — the per-app unit
//! tests, the `validate_apps` sweep, the timing model's §5.1
//! statistics-collection pass — now routes through [`run_app`], so the
//! per-app dispatch (which generator, which baseline oracle, which diff
//! metric) exists in exactly one place. Each run executes the SIMD²-ized
//! algorithm through a recording [`simd2::PlanBuilder`], so the
//! validated run's exact MMO sequence comes back as a replayable
//! [`Plan`] alongside the correctness verdict.

use simd2::solve::ClosureAlgorithm;
use simd2::validate::compare_outputs;
use simd2::{Backend, Plan};
use simd2_semiring::OpKind;

use crate::registry::AppKind;
use crate::{aplp, apsp, gtc, knn, mst, paths, streaming};

/// Extra edge density (beyond the spanning backbone) of the MST
/// workload, shared by the harness and the timing model's hop estimate.
pub const MST_EXTRA_DENSITY: f64 = 0.1;

/// One functional application run: the §5.1 validation verdict, the
/// closure statistics, and the recorded plan.
#[derive(Clone, Debug)]
pub struct AppRun {
    /// The application that ran.
    pub app: AppKind,
    /// Diff metric vs the baseline algorithm: max absolute output
    /// difference (for MST, weight error plus an edge-set mismatch flag;
    /// for KNN, `1 − recall`).
    pub diff: f32,
    /// Closure iterations executed (`1` for KNN's single pass).
    pub iterations: usize,
    /// The MMO sequence the run executed, as a replayable plan.
    pub plan: Plan,
}

impl AppRun {
    /// Whether [`diff`](Self::diff) is within the app's registry
    /// tolerance ([`AppSpec::tolerance`](crate::AppSpec)).
    pub fn passed(&self) -> bool {
        self.diff <= self.app.spec().tolerance
    }
}

/// Runs `app` at dimension `n` through `backend`: generates the seeded
/// workload, computes the baseline oracle, executes the SIMD²-ized
/// algorithm through a recording plan builder, and compares the outputs.
///
/// The closure-family apps honour `algorithm`/`convergence`; KNN runs
/// its single `addnorm` pass regardless.
///
/// # Panics
///
/// Panics on internal shape errors.
pub fn run_app<B: Backend>(
    backend: &mut B,
    app: AppKind,
    n: usize,
    seed: u64,
    algorithm: ClosureAlgorithm,
    convergence: bool,
) -> AppRun {
    let (diff, iterations, plan) = match app {
        AppKind::Apsp => {
            let g = apsp::generate(n, seed);
            let want = apsp::baseline(&g);
            let (r, plan) = apsp::record(backend, &g, algorithm, convergence);
            (
                compare_outputs("apsp", &want, &r.closure, 0.0).max_abs_diff,
                r.stats.iterations,
                plan,
            )
        }
        AppKind::Aplp => {
            let g = aplp::generate(n, seed);
            let want = aplp::baseline(&g);
            let (r, plan) = aplp::record(backend, &g, algorithm, convergence);
            (
                compare_outputs("aplp", &want, &r.closure, 0.0).max_abs_diff,
                r.stats.iterations,
                plan,
            )
        }
        AppKind::Mcp => {
            let g = paths::generate_mcp(n, seed);
            let want = paths::baseline(OpKind::MaxMin, &g);
            let (r, plan) = paths::record(backend, OpKind::MaxMin, &g, algorithm, convergence);
            (
                compare_outputs("mcp", &want, &r.closure, 0.0).max_abs_diff,
                r.stats.iterations,
                plan,
            )
        }
        AppKind::MaxRp => {
            let g = paths::generate_maxrp(n, seed);
            let want = paths::baseline(OpKind::MaxMul, &g);
            let (r, plan) = paths::record(backend, OpKind::MaxMul, &g, algorithm, convergence);
            (
                compare_outputs("maxrp", &want, &r.closure, 0.0).max_abs_diff,
                r.stats.iterations,
                plan,
            )
        }
        AppKind::MinRp => {
            let g = paths::generate_minrp(n, seed);
            let want = paths::baseline(OpKind::MinMul, &g);
            let (r, plan) = paths::record(backend, OpKind::MinMul, &g, algorithm, convergence);
            (
                compare_outputs("minrp", &want, &r.closure, 0.0).max_abs_diff,
                r.stats.iterations,
                plan,
            )
        }
        AppKind::Mst => {
            let g = mst::generate(n, MST_EXTRA_DENSITY, seed);
            let want = mst::baseline(&g);
            let (got, r, plan) = mst::record(backend, &g, algorithm, convergence);
            let diff = (want.total_weight - got.total_weight).abs() as f32
                + if want.edges == got.edges { 0.0 } else { 1.0 };
            (diff, r.stats.iterations, plan)
        }
        AppKind::Gtc => {
            let g = gtc::generate(n, seed);
            let want = gtc::baseline(&g);
            let (r, plan) = gtc::record(backend, &g, algorithm, convergence);
            (
                compare_outputs("gtc", &want, &r.closure, 0.0).max_abs_diff,
                r.stats.iterations,
                plan,
            )
        }
        AppKind::Knn => {
            let pts = knn::generate(n, seed);
            let want = knn::baseline(&pts, knn::K);
            let (got, plan) = knn::record(backend, &pts, knn::K);
            ((1.0 - knn::recall(&want, &got)) as f32, 1, plan)
        }
        AppKind::StreamingApsp | AppKind::StreamingBfs => {
            let op = app.spec().op;
            let w = streaming::generate(op, n, streaming::DEFAULT_BATCHES, seed);
            let want = streaming::baseline(&w);
            let (got, stats, plan) = streaming::record(backend, &w);
            (
                compare_outputs(app.spec().label, &want, &got, 0.0).max_abs_diff,
                stats.steps,
                plan,
            )
        }
    };
    AppRun {
        app,
        diff,
        iterations,
        plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simd2::backend::{IsaBackend, ReferenceBackend, TiledBackend};
    use simd2::{Parallelism, PlanExecutor};

    const N: usize = 48;
    const SEED: u64 = 42;

    #[test]
    fn every_app_validates_on_reference_and_tiled_backends() {
        // The former per-app `matches_baseline` / `bit_exact_on_units`
        // test pairs, as one registry sweep: fp32 reference backend with
        // both closure algorithms, fp16 tiled backend with Leyzorek.
        for app in AppKind::all() {
            for alg in [ClosureAlgorithm::BellmanFord, ClosureAlgorithm::Leyzorek] {
                let run = run_app(&mut ReferenceBackend::new(), app, N, SEED, alg, true);
                assert!(run.passed(), "{app:?} {alg:?} fp32: diff {}", run.diff);
            }
            let run = run_app(
                &mut TiledBackend::new(),
                app,
                N,
                SEED,
                ClosureAlgorithm::Leyzorek,
                true,
            );
            assert!(run.passed(), "{app:?} fp16: diff {}", run.diff);
            assert_eq!(run.plan.step_count(), run.iterations, "{app:?}");
        }
    }

    #[test]
    fn streaming_apps_validate_and_record_sparse_plans() {
        let mut walked = 0;
        for app in AppKind::streaming() {
            let mut be = TiledBackend::new();
            let run = run_app(&mut be, app, N, SEED, ClosureAlgorithm::Leyzorek, true);
            assert!(run.passed(), "{app:?}: diff {}", run.diff);
            assert_eq!(run.plan.step_count(), run.iterations, "{app:?}");
            walked += be.row_count().sparse_mmos;
        }
        // Which steps walk is the engine's call (at this size or-and's
        // bit-mask chain outruns every one of its walks); some must.
        assert!(walked > 0, "the sparse delta steps must row-walk");
    }

    /// The premise behind one step per [`Backend::execute`] and one
    /// dispatch per step: the paper's workloads are closure loops in
    /// which every MMO reads the one before it.
    #[test]
    fn every_recorded_wave_is_one_step_wide() {
        let algorithms = [ClosureAlgorithm::BellmanFord, ClosureAlgorithm::Leyzorek];
        for app in AppKind::all().into_iter().chain(AppKind::streaming()) {
            for algorithm in algorithms {
                for convergence in [true, false] {
                    let run = run_app(
                        &mut TiledBackend::new(),
                        app,
                        32,
                        SEED,
                        algorithm,
                        convergence,
                    );
                    let widest = run.plan.waves().iter().map(Vec::len).max();
                    assert_eq!(
                        widest,
                        Some(1),
                        "{app:?} {algorithm:?} convergence={convergence} recorded a wave of \
                         mutually independent steps. Replay dispatches steps one by one; a \
                         workload with waves wider than one is what an inter-step schedule \
                         (batched dispatch, a wave scheduler) would need — bring it back \
                         with this workload as its benchmark."
                    );
                }
            }
        }
    }

    #[test]
    fn recording_is_observationally_identical_to_eager_execution() {
        let g = apsp::generate(32, 7);
        let mut eager_be = TiledBackend::new();
        let eager = apsp::simd2(&mut eager_be, &g, ClosureAlgorithm::Leyzorek, true);
        let mut rec_be = TiledBackend::new();
        let (recorded, plan) = apsp::record(&mut rec_be, &g, ClosureAlgorithm::Leyzorek, true);
        assert_eq!(eager.closure, recorded.closure);
        assert_eq!(eager.stats, recorded.stats);
        assert_eq!(eager_be.op_count(), rec_be.op_count());
        // Replaying the plan lands on the same closure bit-for-bit (the
        // solver returns its final relaxation output verbatim).
        let replay = PlanExecutor::new()
            .run(&plan, &mut TiledBackend::new())
            .expect("recorded plans replay");
        assert_eq!(replay.final_output(), Some(&recorded.closure));
    }

    #[test]
    fn every_apps_plan_replays_bit_identically() {
        for app in AppKind::all() {
            let mut rec_be = TiledBackend::new();
            let run = run_app(&mut rec_be, app, 32, 7, ClosureAlgorithm::Leyzorek, true);
            assert!(!run.plan.is_empty(), "{app:?}");
            // Sequential replay reproduces the recorded work exactly.
            let mut seq = TiledBackend::new();
            let sr = PlanExecutor::new()
                .run(&run.plan, &mut seq)
                .expect("replay");
            assert_eq!(seq.op_count(), rec_be.op_count(), "{app:?}");
            // The plan's static prediction agrees with the replayed count.
            let predicted = run.plan.predicted_op_count().tile_mmos;
            assert_eq!(predicted, seq.op_count().tile_mmos, "{app:?}");
            // Replay on a worker pool does not change a bit.
            let mut par = TiledBackend::with_parallelism(Parallelism::Threads(4));
            let pr = PlanExecutor::new()
                .run(&run.plan, &mut par)
                .expect("4-worker replay");
            assert_eq!(par.op_count(), rec_be.op_count(), "{app:?}");
            for step in 0..run.plan.step_count() {
                assert_eq!(
                    sr.step_output(step),
                    pr.step_output(step),
                    "{app:?} #{step}"
                );
            }
            // The fp32 reference backend and the instruction-level backend
            // lower the same plan too.
            PlanExecutor::new()
                .run(&run.plan, &mut ReferenceBackend::new())
                .expect("reference replay");
            PlanExecutor::new()
                .run(&run.plan, &mut IsaBackend::new())
                .expect("isa replay");
        }
    }
}
