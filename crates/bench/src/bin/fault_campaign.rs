//! Seeded fault-injection campaign over the Figure-11 application suite.
//!
//! Every application kernel runs on a SIMD²-unit backend whose datapath
//! injects deterministic faults (bit flips, stuck MXU lanes, transient
//! NaN/Inf) drawn from a seeded [`FaultPlan`]. The resilient dispatch
//! layer verifies each whole-matrix mmo with ABFT invariants and
//! recovers by re-execution (transient faults draw fresh outcomes) or by
//! falling back to the scalar reference backend. A second sweep drives
//! the ISA-level executor with per-instruction verification plus
//! shared-memory corruption.
//!
//! Usage: `cargo run -p simd2-bench --bin fault_campaign [--seed S]
//! [--trials T] [--size N] [--threads W]`. Output is a pure function of
//! the arguments — rerunning reproduces it bit for bit. The tiled sweep
//! runs twice, on the sequential schedule and on `W` panel workers:
//! coordinate-addressed fault sites make the two campaigns strike the
//! same tiles, so their telemetry must be identical — the harness
//! asserts it.
//!
//! Every number in the report is derived from the `simd2-trace` event
//! stream (a per-trial [`RingSink`] attached to the injector, the tiled
//! backend and the resilient layer), then cross-checked against the
//! subsystems' own counters — any divergence aborts the run. The
//! sequential tiled sweep additionally streams its events to
//! `results/telemetry/fault_campaign.jsonl`.

use simd2::backend::{Backend, IsaBackend, Parallelism, TiledBackend};
use simd2::resilient::{RecoveryPolicy, ResilientBackend};
use simd2::solve::ClosureAlgorithm;
use simd2::validate::compare_outputs;
use simd2_apps::{aplp, apsp, gtc, knn, mst, paths, streaming, AppKind};
use simd2_bench::Table;
use simd2_fault::{AbftConfig, FaultPlan, FaultPlanConfig, FaultySimd2Unit, PlannedInjector};
use simd2_mxu::Simd2Unit;
use simd2_semiring::OpKind;
use simd2_trace::{span, Event, FanoutSink, JsonLinesSink, RingSink, Sink, Tracer};

use std::sync::Arc;

/// Per-tile-mmo fault rates (parts per million) for the tiled sweep.
const BIT_FLIP_PPM: u32 = 9_000;
const STUCK_LANE_PPM: u32 = 5_000;
const TRANSIENT_NAN_PPM: u32 = 5_000;
/// Per-store shared-memory corruption rate for the ISA sweep.
const MEM_PPM: u32 = 60_000;

/// One trial's telemetry, derived entirely from the trace-event stream.
#[derive(Clone, PartialEq, Eq)]
struct Outcome {
    injected: u64,
    /// Fault-log ring evictions — must match across schedules too.
    dropped: u64,
    detections: u64,
    retries: u64,
    retry_successes: u64,
    fallbacks: u64,
    correct: bool,
}

/// Counts the trial's stage-tagged events into an [`Outcome`]. The
/// counts are order-independent, so the parallel schedule (whose worker
/// events interleave nondeterministically) compares exactly against the
/// sequential one.
fn outcome_from_events(events: &[Event], correct: bool) -> Outcome {
    let stage = |sp: &str, st: &str| events.iter().filter(|e| e.is_stage(sp, st)).count() as u64;
    Outcome {
        injected: stage(span::FAULT, "injected"),
        dropped: stage(span::FAULT, "dropped"),
        detections: stage(span::RECOVERY, "detection"),
        retries: stage(span::RECOVERY, "retry"),
        retry_successes: stage(span::RECOVERY, "retry_success"),
        fallbacks: stage(span::RECOVERY, "fallback"),
        correct,
    }
}

/// The per-trial sink: a fresh ring, optionally fanned out to the
/// campaign's JSON-lines export.
fn trial_sink(export: Option<&Arc<JsonLinesSink>>) -> (Arc<RingSink>, Tracer) {
    let ring = RingSink::shared();
    let tracer = match export {
        Some(jsonl) => Tracer::to(Arc::new(FanoutSink::new(vec![
            ring.clone() as Arc<dyn Sink>,
            jsonl.clone() as Arc<dyn Sink>,
        ]))),
        None => Tracer::to(ring.clone()),
    };
    (ring, tracer)
}

/// Runs one application end to end on `be` and checks the result against
/// the baseline algorithm, with the same per-op bars as `validate_apps`.
fn run_app_and_check<B: Backend>(app: AppKind, n: usize, seed: u64, be: &mut B) -> bool {
    let alg = ClosureAlgorithm::Leyzorek;
    match app {
        AppKind::Apsp => {
            let g = apsp::generate(n, seed);
            let r = apsp::simd2(be, &g, alg, true);
            compare_outputs("apsp", &apsp::baseline(&g), &r.closure, 0.0).passed()
        }
        AppKind::Aplp => {
            let g = aplp::generate(n, seed);
            let r = aplp::simd2(be, &g, alg, true);
            compare_outputs("aplp", &aplp::baseline(&g), &r.closure, 0.0).passed()
        }
        AppKind::Mcp => {
            let g = paths::generate_mcp(n, seed);
            let r = paths::simd2(be, OpKind::MaxMin, &g, alg, true);
            compare_outputs("mcp", &paths::baseline(OpKind::MaxMin, &g), &r.closure, 0.0).passed()
        }
        AppKind::MaxRp => {
            let g = paths::generate_maxrp(n, seed);
            let r = paths::simd2(be, OpKind::MaxMul, &g, alg, true);
            compare_outputs(
                "maxrp",
                &paths::baseline(OpKind::MaxMul, &g),
                &r.closure,
                0.02,
            )
            .passed()
        }
        AppKind::MinRp => {
            let g = paths::generate_minrp(n, seed);
            let r = paths::simd2(be, OpKind::MinMul, &g, alg, true);
            compare_outputs(
                "minrp",
                &paths::baseline(OpKind::MinMul, &g),
                &r.closure,
                0.02,
            )
            .passed()
        }
        AppKind::Mst => {
            let g = mst::generate(n, 0.1, seed);
            let want = mst::baseline(&g);
            let (got, _) = mst::simd2(be, &g, alg, true);
            want.edges == got.edges
        }
        AppKind::Gtc => {
            let g = gtc::generate(n, seed);
            let r = gtc::simd2(be, &g, alg, true);
            compare_outputs("gtc", &gtc::baseline(&g), &r.closure, 0.0).passed()
        }
        AppKind::Knn => {
            let pts = knn::generate(n, seed);
            let want = knn::baseline(&pts, knn::K);
            let got = knn::simd2(be, &pts, knn::K);
            knn::recall(&want, &got) >= 0.95
        }
        AppKind::StreamingApsp | AppKind::StreamingBfs => {
            let w = streaming::generate(app.spec().op, n, streaming::DEFAULT_BATCHES, seed);
            let (got, _) = streaming::simd2(be, &w);
            compare_outputs(app.spec().label, &streaming::baseline(&w), &got, 0.0).passed()
        }
    }
}

/// Full-coverage ABFT: sampled witnesses would let an in-range stuck
/// value slip through on idempotent algebras.
fn abft() -> AbftConfig {
    AbftConfig {
        witness_samples: usize::MAX,
        ..AbftConfig::default()
    }
}

/// One trial on the tiled backend with a fault-injected SIMD² unit.
/// The outcome is read back from the trial's event stream and asserted
/// equal to the private counters it replaced.
fn tiled_trial(
    app: AppKind,
    n: usize,
    trial_seed: u64,
    par: Parallelism,
    export: Option<&Arc<JsonLinesSink>>,
) -> Outcome {
    let (ring, tracer) = trial_sink(export);
    let cfg = FaultPlanConfig::new(trial_seed)
        .with_bit_flip_ppm(BIT_FLIP_PPM)
        .with_stuck_lane_ppm(STUCK_LANE_PPM)
        .with_transient_nan_ppm(TRANSIENT_NAN_PPM);
    let mut inner = TiledBackend::with_unit(FaultySimd2Unit::new(
        Simd2Unit::new(),
        PlannedInjector::new(FaultPlan::new(cfg)).with_tracer(tracer.clone()),
    ));
    inner.set_parallelism(par);
    inner.set_tracer(tracer.clone());
    let mut be = ResilientBackend::with_config(
        inner,
        RecoveryPolicy::RetryThenFallback { attempts: 3 },
        abft(),
    )
    .with_tracer(tracer);
    let correct = run_app_and_check(app, n, trial_seed ^ 0xa99, &mut be);
    let s = be.recovery_stats();
    let o = outcome_from_events(&ring.events(), correct);
    let inj = be.inner().unit().injector();
    assert_eq!(o.injected, inj.injected(), "telemetry vs injector counter");
    assert_eq!(o.dropped, inj.dropped(), "telemetry vs log-drop counter");
    assert_eq!(o.detections, s.detections, "telemetry vs recovery stats");
    assert_eq!(o.retries, s.retries, "telemetry vs recovery stats");
    assert_eq!(o.retry_successes, s.retry_successes, "telemetry vs stats");
    assert_eq!(o.fallbacks, s.fallbacks, "telemetry vs recovery stats");
    o
}

/// One trial on the ISA executor with per-instruction ABFT plus
/// shared-memory store corruption.
fn isa_trial(app: AppKind, n: usize, trial_seed: u64) -> Outcome {
    let (ring, tracer) = trial_sink(None);
    let cfg = FaultPlanConfig::new(trial_seed)
        .with_bit_flip_ppm(BIT_FLIP_PPM)
        .with_transient_nan_ppm(TRANSIENT_NAN_PPM)
        .with_mem_ppm(MEM_PPM);
    let mut inner = IsaBackend::new();
    inner.set_injector(PlannedInjector::new(FaultPlan::new(cfg)).with_tracer(tracer.clone()));
    inner.enable_verification(AbftConfig::default());
    inner.set_tracer(tracer.clone());
    let mut be = ResilientBackend::with_config(
        inner,
        RecoveryPolicy::RetryThenFallback { attempts: 3 },
        abft(),
    )
    .with_tracer(tracer);
    let correct = run_app_and_check(app, n, trial_seed ^ 0xa99, &mut be);
    let s = be.recovery_stats();
    let o = outcome_from_events(&ring.events(), correct);
    let injected = be
        .inner()
        .injector()
        .map(PlannedInjector::injected)
        .unwrap_or_default();
    let dropped = be
        .inner()
        .injector()
        .map(PlannedInjector::dropped)
        .unwrap_or_default();
    assert_eq!(o.injected, injected, "telemetry vs injector counter");
    assert_eq!(o.dropped, dropped, "telemetry vs log-drop counter");
    assert_eq!(o.detections, s.detections, "telemetry vs recovery stats");
    assert_eq!(o.retries, s.retries, "telemetry vs recovery stats");
    assert_eq!(o.retry_successes, s.retry_successes, "telemetry vs stats");
    assert_eq!(o.fallbacks, s.fallbacks, "telemetry vs recovery stats");
    o
}

/// Runs the sweep, prints the table, and returns every trial's telemetry
/// (in app-then-trial order) so schedules can be compared exactly.
fn campaign<F: Fn(AppKind, usize, u64) -> Outcome>(
    title: &str,
    seed: u64,
    trials: u64,
    n: usize,
    run: F,
) -> Vec<Outcome> {
    let mut t = Table::new(
        title.to_owned(),
        &[
            "app",
            "op",
            "injected",
            "dropped",
            "detected",
            "retries",
            "rescued",
            "fallbacks",
            "correct",
        ],
    );
    let (mut struck_trials, mut struck_handled, mut struck_correct, mut total) =
        (0u64, 0u64, 0u64, 0u64);
    let mut outcomes = Vec::new();
    for app in AppKind::all() {
        let mut agg = Outcome {
            injected: 0,
            dropped: 0,
            detections: 0,
            retries: 0,
            retry_successes: 0,
            fallbacks: 0,
            correct: true,
        };
        let mut correct_trials = 0u64;
        for trial in 0..trials {
            // One independent deterministic stream per (app, trial).
            let o = run(
                app,
                n,
                seed ^ (app as u64) << 8 ^ trial.wrapping_mul(0x9e37),
            );
            total += 1;
            if o.injected > 0 {
                struck_trials += 1;
                // A struck trial is *handled* when the pipeline either
                // detected the corruption or the faults were benign
                // (the result still passed the clean-run bar).
                if o.detections > 0 || o.correct {
                    struck_handled += 1;
                }
                if o.correct {
                    struck_correct += 1;
                }
            }
            correct_trials += u64::from(o.correct);
            agg.injected += o.injected;
            agg.dropped += o.dropped;
            agg.detections += o.detections;
            agg.retries += o.retries;
            agg.retry_successes += o.retry_successes;
            agg.fallbacks += o.fallbacks;
            outcomes.push(o);
        }
        t.row(&[
            app.spec().label.to_owned(),
            app.spec().op.to_string(),
            agg.injected.to_string(),
            agg.dropped.to_string(),
            agg.detections.to_string(),
            agg.retries.to_string(),
            agg.retry_successes.to_string(),
            agg.fallbacks.to_string(),
            format!("{correct_trials}/{trials}"),
        ]);
    }
    print!("{}", t.emit());
    let pct = |num: u64, den: u64| {
        if den == 0 {
            100.0
        } else {
            100.0 * num as f64 / den as f64
        }
    };
    println!(
        "struck trials: {struck_trials}/{total}  \
         detection (detected-or-benign): {:.1}%  \
         end-to-end recovery: {:.1}%",
        pct(struck_handled, struck_trials),
        pct(struck_correct, struck_trials),
    );
    println!();
    outcomes
}

fn main() {
    let (seed, trials, n, threads) = simd2_bench::cli::parse(
        "fault_campaign [--seed S] [--trials T] [--size N] [--threads W]",
        |flags| {
            Ok((
                flags.value("--seed", 2022)?,
                flags.value("--trials", 4)?,
                flags.value("--size", 48)? as usize,
                flags.value("--threads", 4)? as usize,
            ))
        },
    );
    println!(
        "fault campaign: seed={seed} trials={trials}/app size={n} threads={threads}  \
         rates(ppm): flip={BIT_FLIP_PPM} stuck={STUCK_LANE_PPM} nan={TRANSIENT_NAN_PPM} \
         mem={MEM_PPM}  policy=retry(3)-then-fallback"
    );
    println!();
    // The sequential sweep's events additionally stream to disk; its
    // event order is deterministic, so the export reproduces bit for bit.
    let export = JsonLinesSink::create("results/telemetry/fault_campaign.jsonl")
        .ok()
        .map(Arc::new);
    let seq = campaign(
        format!(
            "Tiled SIMD2 units with faulty datapath (matrix-level ABFT, seed {seed}, sequential)"
        )
        .as_str(),
        seed,
        trials,
        n,
        |app, n, s| tiled_trial(app, n, s, Parallelism::Sequential, export.as_ref()),
    );
    if let Some(jsonl) = &export {
        let _ = jsonl.flush();
        eprintln!("wrote {}", jsonl.path().display());
    }
    let par = campaign(
        format!(
            "Tiled SIMD2 units with faulty datapath (matrix-level ABFT, seed {seed}, {threads} workers)"
        )
        .as_str(),
        seed,
        trials,
        n,
        |app, n, s| tiled_trial(app, n, s, Parallelism::Threads(threads), None),
    );
    // Coordinate-addressed fault sites: both schedules strike the same
    // tiles, so every trial's telemetry — including fault-log ring
    // evictions — must match exactly.
    assert!(
        seq == par,
        "parallel faulty campaign diverged from sequential telemetry"
    );
    assert!(
        seq.iter().zip(&par).all(|(a, b)| a.dropped == b.dropped),
        "dropped-log telemetry diverged across schedules"
    );
    println!(
        "tiled sweep: {threads}-worker telemetry identical to sequential \
         across all {} trials (dropped counts included)",
        seq.len()
    );
    println!();
    campaign(
        format!(
            "ISA executor with faulty datapath + memory corruption (per-instruction ABFT, seed {seed})"
        )
        .as_str(),
        seed,
        trials,
        n.min(32),
        isa_trial,
    );
}
