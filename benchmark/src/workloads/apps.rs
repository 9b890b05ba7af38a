//! `apps-closure`: the eight Figure-11 applications plus the two
//! streaming ones, through each app module's public `generate` /
//! `simd2` (never `run_app`, which would time the scalar baseline).
//!
//! Many medium MMOs behind convergence checks, the plan recorder, the
//! slot arena and the pass pipeline; the service is bypassed entirely.
//! Per round and app: one eager solve (Leyzorek, convergence on); then,
//! on a plan recorded once in set-up with convergence off, the standard
//! pass pipeline and an optimised sequential replay. Traced runs add the
//! recorder, raw replays, and the optimised plan on the batching executor
//! at `T` threads.

use simd2::solve::ClosureAlgorithm;
use simd2::validate::compare_outputs;
use simd2::{
    Backend, OptimizedPlan, Parallelism, PassPipeline, Plan, PlanBuilder, PlanExecutor,
    TiledBackend,
};
use simd2_apps::knn::KnnResult;
use simd2_apps::mst::MstResult;
use simd2_apps::streaming::{self, StreamingWorkload};
use simd2_apps::timing::{AppTiming, Config};
use simd2_apps::{aplp, apsp, gtc, harness, knn, mst, paths, AppKind};
use simd2_gpu::{simulate_trace, Gpu, GpuConfig, SmPipeline};
use simd2_matrix::{Graph, Matrix, ISA_TILE};

use super::Tracing;
use crate::common::{bits_eq, repeat_setup, run_rounds, time, Args, Env};
use crate::metrics::{Report, APP_LABELS};
use crate::stats::{geomean, median, quiet};

/// Vertices of the closure and streaming apps (one eager solve: 20–150 ms).
const CLOSURE_N: usize = 256;
/// Points of the KNN app (one 1024×1024×128 plus-norm).
const KNN_POINTS: usize = 1024;
/// Warps per simulated step when pricing plans on the GPU pipeline model.
const SIM_WARPS: usize = 4;
const ALGORITHM: ClosureAlgorithm = ClosureAlgorithm::Leyzorek;

const KINDS: [AppKind; 10] = [
    AppKind::Apsp,
    AppKind::Aplp,
    AppKind::Mcp,
    AppKind::MaxRp,
    AppKind::MinRp,
    AppKind::Mst,
    AppKind::Gtc,
    AppKind::Knn,
    AppKind::StreamingApsp,
    AppKind::StreamingBfs,
];

/// An app's generated input.
pub enum Input {
    /// A closure app's graph.
    Graph(Graph),
    /// KNN's point cloud.
    Points(Matrix),
    /// A streaming app's base graph and edge batches.
    Stream(StreamingWorkload),
}

/// What a solve returns.
pub enum Output {
    /// A closure matrix.
    Closure(Matrix),
    /// A spanning tree.
    Mst(MstResult),
    /// Neighbour lists.
    Knn(KnnResult),
}

/// A solve's output and iteration count.
pub struct Solved {
    /// The app-level result.
    pub output: Output,
    /// Closure iterations (plan steps for the streaming apps).
    pub iterations: usize,
}

struct App {
    kind: AppKind,
    input: Input,
    /// The solve's MMO sequence, recorded once with convergence off.
    plan: Plan,
}

/// The app's seeded input at dimension `n` (vertices, or KNN points).
pub fn generate(kind: AppKind, n: usize, seed: u64) -> Input {
    match kind {
        AppKind::Apsp => Input::Graph(apsp::generate(n, seed)),
        AppKind::Aplp => Input::Graph(aplp::generate(n, seed)),
        AppKind::Mcp => Input::Graph(paths::generate_mcp(n, seed)),
        AppKind::MaxRp => Input::Graph(paths::generate_maxrp(n, seed)),
        AppKind::MinRp => Input::Graph(paths::generate_minrp(n, seed)),
        AppKind::Mst => Input::Graph(mst::generate(n, harness::MST_EXTRA_DENSITY, seed)),
        AppKind::Gtc => Input::Graph(gtc::generate(n, seed)),
        AppKind::Knn => Input::Points(knn::generate(n, seed)),
        AppKind::StreamingApsp | AppKind::StreamingBfs => Input::Stream(streaming::generate(
            kind.spec().op,
            n,
            streaming::DEFAULT_BATCHES,
            seed,
        )),
    }
}

/// The SIMD²-ized solve through `backend` (a real backend, or a recorder
/// over one).
fn solve<B: Backend>(kind: AppKind, input: &Input, backend: &mut B, convergence: bool) -> Solved {
    let closure = |r: simd2::ClosureResult| Solved {
        iterations: r.stats.iterations,
        output: Output::Closure(r.closure),
    };
    match (input, kind) {
        (Input::Graph(g), AppKind::Apsp) => {
            closure(apsp::simd2(backend, g, ALGORITHM, convergence))
        }
        (Input::Graph(g), AppKind::Aplp) => {
            closure(aplp::simd2(backend, g, ALGORITHM, convergence))
        }
        (Input::Graph(g), AppKind::Gtc) => closure(gtc::simd2(backend, g, ALGORITHM, convergence)),
        (Input::Graph(g), AppKind::Mst) => {
            let (tree, r) = mst::simd2(backend, g, ALGORITHM, convergence);
            Solved {
                output: Output::Mst(tree),
                iterations: r.stats.iterations,
            }
        }
        (Input::Graph(g), _) => closure(paths::simd2(
            backend,
            kind.spec().op,
            g,
            ALGORITHM,
            convergence,
        )),
        (Input::Points(p), _) => Solved {
            output: Output::Knn(knn::simd2(backend, p, knn::K)),
            iterations: 1,
        },
        (Input::Stream(w), _) => {
            let (x, stats) = streaming::simd2(backend, w);
            Solved {
                output: Output::Closure(x),
                iterations: stats.steps,
            }
        }
    }
}

/// Solves through a recorder: same result, plus the MMO sequence as a
/// plan (what each app module's `record` does).
pub fn record(
    kind: AppKind,
    input: &Input,
    backend: &mut TiledBackend,
    convergence: bool,
) -> (Solved, Plan) {
    let mut rec = PlanBuilder::over(backend);
    let solved = solve(kind, input, &mut rec, convergence);
    (solved, rec.finish())
}

impl App {
    fn build(kind: AppKind, seed: u64) -> Self {
        let n = if kind == AppKind::Knn {
            KNN_POINTS
        } else {
            CLOSURE_N
        };
        let input = generate(kind, n, seed);
        let (_, plan) = record(kind, &input, &mut TiledBackend::new(), false);
        App { kind, input, plan }
    }

    fn solve<B: Backend>(&self, backend: &mut B) -> Solved {
        solve(self.kind, &self.input, backend, true)
    }
}

/// What an app's outputs are checked against.
struct Oracle {
    /// The app module's scalar `baseline()`.
    baseline: Output,
    /// Final output of a clean sequential replay of the set-up plan.
    replay: Matrix,
}

impl Oracle {
    fn build(app: &App) -> Self {
        let baseline = match (&app.input, app.kind) {
            (Input::Graph(g), AppKind::Apsp) => Output::Closure(apsp::baseline(g)),
            (Input::Graph(g), AppKind::Aplp) => Output::Closure(aplp::baseline(g)),
            (Input::Graph(g), AppKind::Gtc) => Output::Closure(gtc::baseline(g)),
            (Input::Graph(g), AppKind::Mst) => Output::Mst(mst::baseline(g)),
            (Input::Graph(g), kind) => Output::Closure(paths::baseline(kind.spec().op, g)),
            (Input::Points(p), _) => Output::Knn(knn::baseline(p, knn::K)),
            (Input::Stream(w), _) => Output::Closure(streaming::baseline(w)),
        };
        let replay = PlanExecutor::new()
            .run(&app.plan, &mut TiledBackend::new())
            .expect("oracle replay")
            .into_final_output()
            .expect("recorded plans are non-empty");
        Self { baseline, replay }
    }

    /// The registry's diff metric within the registry's tolerance, as
    /// `simd2_apps::harness::run_app` judges it.
    fn accepts(&self, kind: AppKind, got: &Output) -> bool {
        let diff = match (&self.baseline, got) {
            (Output::Closure(want), Output::Closure(got)) => {
                compare_outputs(kind.spec().label, want, got, 0.0).max_abs_diff
            }
            (Output::Mst(want), Output::Mst(got)) => {
                (want.total_weight - got.total_weight).abs() as f32
                    + if want.edges == got.edges { 0.0 } else { 1.0 }
            }
            (Output::Knn(want), Output::Knn(got)) => (1.0 - knn::recall(want, got)) as f32,
            _ => return false,
        };
        diff <= kind.spec().tolerance
    }
}

/// Samples of one app in one round, in this order.
mod slot {
    pub const SOLVE: usize = 0;
    pub const OPTIMISE: usize = 1;
    pub const REPLAY_OPT: usize = 2;
    pub const END_TO_END: usize = 3;
    // Tracing only.
    pub const BATCHED: usize = 3;
    pub const RECORD: usize = 4;
    pub const REPLAY_RECORDED: usize = 5;
    pub const REPLAY_RAW: usize = 6;
    pub const TRACED: usize = 7;
    pub const PER_LAYER: usize = 8;
}

/// MACs of `tile_mmos` 16x16x16 tile operations.
pub fn tile_macs(tile_mmos: u64) -> f64 {
    tile_mmos as f64 * (ISA_TILE * ISA_TILE * ISA_TILE) as f64
}

/// Runs the workload.
pub fn run(args: &Args, env: &Env) -> Report {
    let mut report = Report::default();
    let (setup_s, setup_reps, apps) = repeat_setup(|| {
        KINDS
            .iter()
            .enumerate()
            .map(|(i, &kind)| App::build(kind, args.seed.wrapping_add(i as u64)))
            .collect::<Vec<App>>()
    });
    report.set("setup_s", setup_s);
    let (oracle_s, oracles) = time(|| apps.iter().map(Oracle::build).collect::<Vec<Oracle>>());
    report.note(format!(
        "set-up repeated {setup_reps}x (median reported); baselines and replay oracles built once in {oracle_s:.3} s"
    ));

    let mut t1 = TiledBackend::new();
    let mut tt = TiledBackend::with_parallelism(Parallelism::Threads(env.threads));
    let tracing = args.trace.then(|| Tracing::new(1 << 18));
    let mut traced = tracing.as_ref().map(|t| {
        (
            TiledBackend::new().with_tracer(t.tracer()),
            PlanExecutor::new().with_tracer(t.tracer()),
            AppTiming::new(Gpu::new(GpuConfig::rtx3080())).with_tracer(t.tracer()),
        )
    });

    // Exact per-seed counters, taken outside the rounds.
    let optimised: Vec<OptimizedPlan> = apps
        .iter()
        .map(|a| PassPipeline::standard().run(a.plan.clone()))
        .collect();
    let mut eager_macs = Vec::new();
    let mut iterations_total = 0;
    for app in &apps {
        t1.reset_count();
        iterations_total += app.solve(&mut t1).iterations;
        eager_macs.push(tile_macs(t1.op_count().tile_mmos));
    }

    let per_app = if args.trace {
        slot::PER_LAYER
    } else {
        slot::END_TO_END
    };
    let width = apps.len() * per_app + usize::from(args.trace);
    let mut sim_cycles = 0u64;
    let rounds = run_rounds(width, args.seconds, |warm_up| {
        let mut times = Vec::with_capacity(width);
        for (i, app) in apps.iter().enumerate() {
            let oracle = &oracles[i];
            let (s, solved) = time(|| app.solve(&mut t1));
            report.attempt(oracle.accepts(app.kind, &solved.output));
            times.push(s);

            // The pipeline consumes its plan; the copy is the client's.
            let plan = app.plan.clone();
            let (s, opt) = time(|| PassPipeline::standard().run(plan));
            times.push(s);
            let (s, replay) = time(|| PlanExecutor::new().run_optimized(&opt, &mut t1));
            report.attempt(replay.is_ok_and(|r| {
                opt.final_output(&r)
                    .is_some_and(|d| bits_eq(d, &oracle.replay))
            }));
            times.push(s);
            let Some((traced_be, traced_exec, _)) = traced.as_mut() else {
                continue;
            };
            let (s, replay) =
                time(|| PlanExecutor::batched().run_optimized(&optimised[i], &mut tt));
            report.attempt(replay.is_ok_and(|r| {
                optimised[i]
                    .final_output(&r)
                    .is_some_and(|d| bits_eq(d, &oracle.replay))
            }));
            times.push(s);
            let (s, (_, recorded)) = time(|| record(app.kind, &app.input, &mut t1, true));
            times.push(s);
            times.push(time(|| PlanExecutor::new().run(&recorded, &mut t1)).0);
            times.push(time(|| PlanExecutor::new().run(&app.plan, &mut t1)).0);
            if warm_up {
                continue;
            }
            let plan = app.plan.clone();
            times.push(
                time(|| {
                    app.solve(traced_be);
                    let opt = PassPipeline::standard().run(plan);
                    traced_exec.run_optimized(&opt, traced_be)
                })
                .0,
            );
        }
        if let Some((_, _, timing)) = traced.as_ref().filter(|_| !warm_up) {
            // Host time of pricing every plan on the GPU pipeline model
            // (the model's own answer, `cycles`, must repeat exactly).
            let (s, cycles) = time(|| {
                let pipeline = SmPipeline::new();
                for kind in AppKind::all() {
                    let n = if kind == AppKind::Knn {
                        KNN_POINTS
                    } else {
                        CLOSURE_N
                    };
                    timing.speedup(kind, n, Config::Simd2Units);
                }
                apps.iter()
                    .map(|a| simulate_trace(&pipeline, &a.plan.traces(), SIM_WARPS).cycles)
                    .sum::<u64>()
            });
            assert!(
                sim_cycles == 0 || sim_cycles == cycles,
                "simulated cycles changed between rounds: {sim_cycles} vs {cycles}"
            );
            sim_cycles = cycles;
            times.push(s);
        }
        times
    });
    report.note(format!(
        "{} timed rounds x {} apps after one warm-up round, every solve and replay checked, T = {}",
        rounds.rounds,
        apps.len(),
        env.threads
    ));
    if env.overhead_only() {
        report.note("nproc = 1: core.plan.replay_batched_s is overhead_only");
    }

    let at = |app: usize, slot: usize| rounds.quiet(app * per_app + slot);
    let total = |slot: usize| (0..apps.len()).map(|a| at(a, slot)).sum::<f64>();
    // Optimise + optimised replay, summed within each round.
    let replan: Vec<f64> = (0..apps.len())
        .map(|a| {
            let base = a * per_app;
            quiet(
                &(0..rounds.rounds)
                    .map(|r| {
                        rounds.samples[base + slot::OPTIMISE][r]
                            + rounds.samples[base + slot::REPLAY_OPT][r]
                    })
                    .collect::<Vec<_>>(),
            )
        })
        .collect();

    if !args.trace {
        let solve: Vec<f64> = (0..apps.len()).map(|a| at(a, slot::SOLVE)).collect();
        // Solves run on one thread; the T-thread replay is a per-layer
        // metric (core.plan.replay_batched_s), so mmo_gmacs_mt repeats
        // mmo_gmacs here.
        let rate = geomean(
            &solve
                .iter()
                .zip(&eager_macs)
                .map(|(s, macs)| macs / s / 1e9)
                .collect::<Vec<_>>(),
        );
        report.set("mmo_gmacs", rate);
        report.set("mmo_gmacs_mt", rate);
        let (solve_s, replan_s) = (solve.iter().sum::<f64>(), replan.iter().sum::<f64>());
        report.set("solve_s", solve_s);
        report.set("replan_s", replan_s);
        let ops: Vec<f64> = solve.iter().chain(&replan).copied().collect();
        report.set("jobs_per_s", ops.len() as f64 / (solve_s + replan_s));
        report.set("job_p50_ms", median(&ops) * 1e3);
        report.set("job_p99_ms", ops.iter().copied().fold(0.0, f64::max) * 1e3);
        return report;
    }

    for (a, label) in APP_LABELS.iter().enumerate() {
        report.set(format!("apps.solve_s.{label}"), at(a, slot::SOLVE));
    }
    report.set("apps.iterations_total", iterations_total as f64);
    report.set(
        "core.plan.record_over_eager",
        total(slot::RECORD) / total(slot::SOLVE),
    );
    report.set(
        "core.plan.steps_raw",
        apps.iter().map(|a| a.plan.step_count()).sum::<usize>() as f64,
    );
    report.set(
        "core.passes.steps_opt",
        optimised
            .iter()
            .map(|o| o.report().steps_after)
            .sum::<usize>() as f64,
    );
    report.set("core.passes.optimise_s", total(slot::OPTIMISE));
    report.set("core.plan.replay_s", total(slot::REPLAY_RAW));
    report.set("core.plan.replay_opt_s", total(slot::REPLAY_OPT));
    report.set(
        "core.plan.replay_over_eager",
        total(slot::REPLAY_RECORDED) / total(slot::SOLVE),
    );
    report.set("core.plan.replay_batched_s", total(slot::BATCHED));
    report.set("gpu.price_s", rounds.quiet(width - 1));
    report.set("gpu.sim_cycles_total", sim_cycles as f64);
    report.note(
        "core.plan.replay_over_eager replays the plan recorded from the same convergence-on solve",
    );

    let slots = |slots: &'static [usize]| {
        (0..apps.len()).flat_map(move |a| slots.iter().map(move |s| a * per_app + s))
    };
    let overhead = rounds.ratio_per_round(
        slots(&[slot::TRACED]),
        slots(&[slot::SOLVE, slot::OPTIMISE, slot::REPLAY_OPT]),
    );
    tracing
        .expect("trace mode has a sink")
        .finish(&mut report, &args.workload, &overhead);
    report
}
