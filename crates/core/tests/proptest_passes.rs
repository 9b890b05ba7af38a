//! Property-based pass-equivalence layer: every optimizing pass, and
//! the full standard pipeline, must preserve replay *bit*-identity
//! against the unoptimized plan.
//!
//! The contract under test, for all nine ops × non-square shapes ×
//! fp16 (tiled) and fp32 (reference) recordings × one thread and
//! workers {1, 2, 4, 8}:
//!
//! * every original step the optimizer's step map still reaches
//!   replays to its exact recorded bits, read back through the
//!   [`OptimizedPlan`] remap — including steps CSE merged away;
//! * the replaying backend's [`OpCount`](simd2::OpCount) equals the
//!   optimized plan's [`predicted_op_count`](simd2::Plan::predicted_op_count)
//!   (the optimizer's savings are real, not double-counted);
//! * telemetry: when a pipeline reports no change the optimized
//!   replay's event stream equals the unoptimized replay's event for
//!   event;
//! * checkpoint/resume through an *optimized* plan at every wave
//!   boundary is bit-identical to its uninterrupted replay — outputs,
//!   counters, telemetry — so optimization composes with the PR 8
//!   resilience layer.

use proptest::prelude::*;
use proptest::strategy::ValueTree;
use simd2::backend::ReferenceBackend;
use simd2::{
    Backend, CsePass, DsePass, OptimizedPlan, Parallelism, PassPipeline, Plan, PlanBuilder,
    PlanExecutor, PlanPass, ReplayProgress, RootPolicy, TiledBackend,
};
use simd2_matrix::Matrix;
use simd2_semiring::{OpKind, ALL_OPS};
use simd2_trace::{RingSink, Tracer};

/// In-domain operand values for the given op (reliabilities in (0,1],
/// booleans in {0,1}, everything else small non-negative reals).
fn operand(op: OpKind, raw: u16) -> f32 {
    let raw = f32::from(raw % 64);
    match op {
        OpKind::OrAnd => {
            if raw >= 32.0 {
                1.0
            } else {
                0.0
            }
        }
        OpKind::MinMul | OpKind::MaxMul => 0.5 + raw / 128.0,
        _ => raw * 0.25,
    }
}

fn matrix_strategy(op: OpKind, rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(any::<u16>(), rows * cols)
        .prop_map(move |vals| Matrix::from_fn(rows, cols, |r, c| operand(op, vals[r * cols + c])))
}

fn gen_operands(op: OpKind, m: usize, n: usize, k: usize, seed: u32) -> (Matrix, Matrix, Matrix) {
    let mut runner = proptest::test_runner::TestRunner::new_seeded(u64::from(seed));
    let a = matrix_strategy(op, m, k)
        .new_tree(&mut runner)
        .unwrap()
        .current();
    let b = matrix_strategy(op, k, n)
        .new_tree(&mut runner)
        .unwrap()
        .current();
    let c = matrix_strategy(op, m, n)
        .new_tree(&mut runner)
        .unwrap()
        .current();
    (a, b, c)
}

fn assert_bits_equal(want: &Matrix, got: &Matrix, what: &str) {
    assert_eq!(want.shape(), got.shape(), "{what}: shape");
    for (i, (x, y)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}");
    }
}

/// Records a workload that gives every pass something to chew on:
/// two interleaved accumulation chains under different ops (each wave
/// holds two independent steps), with the first chain's root recorded
/// twice (a duplicate subexpression for CSE). Returns the eager per-step
/// outputs in record order.
fn record_workload<B: Backend>(
    backend: &mut B,
    (op1, op2): (OpKind, OpKind),
    (a, b, c): (&Matrix, &Matrix, &Matrix),
    len: usize,
) -> (Vec<Matrix>, Plan) {
    let mut rec = PlanBuilder::over(backend);
    let mut expected = Vec::new();
    let d0 = rec.mmo(op1, a, b, c).expect("chain-1 root");
    expected.push(d0.clone());
    let e0 = rec.mmo(op2, a, b, c).expect("chain-2 root");
    expected.push(e0.clone());
    let mut d = rec.mmo(op1, a, b, c).expect("duplicate of chain-1 root");
    expected.push(d.clone());
    let mut e = e0;
    for i in 1..len {
        d = rec
            .mmo(op1, a, b, &d)
            .unwrap_or_else(|err| panic!("chain-1 step {i}: {err}"));
        expected.push(d.clone());
        e = rec
            .mmo(op2, a, b, &e)
            .unwrap_or_else(|err| panic!("chain-2 step {i}: {err}"));
        expected.push(e.clone());
    }
    (expected, rec.finish())
}

/// Replays `optimized` on a fresh backend and asserts the core
/// equivalence contract against the eager record-order outputs:
/// per-step bits through the remap, final-output bits, and (optionally)
/// the exact [`OpCount`](simd2::OpCount) the optimized plan predicts.
fn check_replay<B: Backend>(
    optimized: &OptimizedPlan,
    expected: &[Matrix],
    mut make_backend: impl FnMut() -> B,
    check_full_count: bool,
    what: &str,
) {
    let mut be = make_backend();
    let replay = PlanExecutor::new()
        .run_optimized(optimized, &mut be)
        .unwrap_or_else(|e| panic!("{what}: optimized replay: {e}"));
    for (step, want) in expected.iter().enumerate() {
        let got = optimized
            .step_output(&replay, step)
            .unwrap_or_else(|| panic!("{what}: original step {step} unreachable"));
        assert_bits_equal(want, got, &format!("{what}: step {step}"));
    }
    assert_bits_equal(
        expected.last().unwrap(),
        optimized.final_output(&replay).unwrap(),
        &format!("{what}: final"),
    );
    let predicted = optimized.plan().predicted_op_count();
    if check_full_count {
        assert_eq!(be.op_count(), predicted, "{what}: op counters");
    } else {
        assert_eq!(
            be.op_count().matrix_mmos,
            predicted.matrix_mmos,
            "{what}: matrix mmos"
        );
    }
}

/// The three pipelines under test: each pass alone, then the standard
/// composition.
fn pipelines() -> Vec<(&'static str, PassPipeline)> {
    fn single(pass: Box<dyn PlanPass>) -> PassPipeline {
        PassPipeline::new(vec![pass])
    }
    vec![
        ("cse", single(Box::new(CsePass))),
        ("dse", single(Box::new(DsePass::new(RootPolicy::Leaves)))),
        ("standard", PassPipeline::standard()),
    ]
}

/// Halts a resumable replay of the optimized plan once `halt_at` steps
/// completed, resumes from the checkpoint, and asserts the pair is
/// indistinguishable from the clean optimized replay: outputs,
/// counters, and the concatenated telemetry stream.
fn check_optimized_boundary(
    optimized: &OptimizedPlan,
    expected: &[Matrix],
    halt_at: usize,
    mut make_backend: impl FnMut() -> TiledBackend,
    what: &str,
) {
    let plan = optimized.plan();
    let clean_ring = RingSink::shared();
    let clean_exec = PlanExecutor::new().with_tracer(Tracer::to(clean_ring.clone()));
    let mut clean_be = make_backend();
    let clean = clean_exec
        .run_resumable(plan, &mut clean_be, &mut |_: ReplayProgress| Ok(()))
        .unwrap_or_else(|h| panic!("{what}: clean run halted: {}", h.error));
    for (step, want) in expected.iter().enumerate() {
        if let Some(got) = optimized.step_output(&clean, step) {
            assert_bits_equal(want, got, &format!("{what}: clean step {step}"));
        }
    }

    let ring = RingSink::shared();
    let exec = PlanExecutor::new().with_tracer(Tracer::to(ring.clone()));
    let mut be = make_backend();
    let mut halt = |p: ReplayProgress| {
        if p.completed_steps >= halt_at {
            Err(format!("halt after {halt_at} steps"))
        } else {
            Ok(())
        }
    };
    let halted = exec
        .run_resumable(plan, &mut be, &mut halt)
        .expect_err("the control must halt the replay");
    assert_eq!(
        halted.checkpoint.key(),
        optimized.cache_key(),
        "{what}: checkpoint keys the optimized plan"
    );
    let resumed = exec
        .resume_from(
            plan,
            halted.checkpoint,
            &mut be,
            &mut |_: ReplayProgress| Ok(()),
        )
        .unwrap_or_else(|h| panic!("{what}: resume halted: {}", h.error));
    for step in 0..plan.step_count() {
        assert_bits_equal(
            clean.step_output(step),
            resumed.step_output(step),
            &format!("{what}: resumed step {step}"),
        );
    }
    assert_eq!(be.op_count(), clean_be.op_count(), "{what}: op counters");
    assert_eq!(ring.events(), clean_ring.events(), "{what}: telemetry");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every pass alone and the standard pipeline preserve replay
    /// bit-identity — outputs through the remap, exact op counters —
    /// on the fp16 tiled backend (one thread and workers {1, 2, 4, 8})
    /// and the fp32 reference backend, across all nine ops and
    /// non-square shapes.
    #[test]
    fn every_pass_preserves_replay_bit_identity(
        op_idx in 0..ALL_OPS.len(),
        op_off in 1..ALL_OPS.len(),
        m in 1usize..28,
        n in 1usize..28,
        k in 1usize..20,
        len in 2usize..4,
        seed in any::<u32>(),
    ) {
        let ops = (ALL_OPS[op_idx], ALL_OPS[(op_idx + op_off) % ALL_OPS.len()]);
        let (a, b, c) = gen_operands(ops.0, m, n, k, seed);

        // fp16 leg: record on the tiled backend, replay optimized plans
        // on the same bit-identity class.
        let (expected, plan) = record_workload(
            &mut TiledBackend::new(), ops, (&a, &b, &c), len,
        );
        for (name, pipeline) in pipelines() {
            let optimized = pipeline.run(plan.clone());
            if name == "cse" || name == "standard" {
                // The duplicated root must actually merge.
                prop_assert!(optimized.report().steps_merged >= 1, "{}", name);
            }
            check_replay(
                &optimized,
                &expected,
                TiledBackend::new,
                true,
                &format!("fp16 {name} sequential"),
            );
            for workers in [1usize, 2, 4, 8] {
                check_replay(
                    &optimized,
                    &expected,
                    || TiledBackend::with_parallelism(Parallelism::Threads(workers)),
                    true,
                    &format!("fp16 {name} workers={workers}"),
                );
            }

            // Unchanged pipelines must be telemetry-invisible: the
            // optimized replay's event stream equals the unoptimized
            // replay's event for event.
            if !optimized.report().changed() {
                let base_ring = RingSink::shared();
                PlanExecutor::new()
                    .with_tracer(Tracer::to(base_ring.clone()))
                    .run(&plan, &mut TiledBackend::new())
                    .expect("unoptimized replay");
                let opt_ring = RingSink::shared();
                PlanExecutor::new()
                    .with_tracer(Tracer::to(opt_ring.clone()))
                    .run_optimized(&optimized, &mut TiledBackend::new())
                    .expect("optimized replay");
                prop_assert_eq!(opt_ring.events(), base_ring.events(), "{} telemetry", name);
            }
        }

        // fp32 leg: record on the reference backend, replay there too.
        let (expected32, plan32) = record_workload(
            &mut ReferenceBackend::new(), ops, (&a, &b, &c), len,
        );
        for (name, pipeline) in pipelines() {
            let optimized = pipeline.run(plan32.clone());
            check_replay(
                &optimized,
                &expected32,
                ReferenceBackend::new,
                false,
                &format!("fp32 {name}"),
            );
        }
    }

    /// Checkpoint/resume *through an optimized plan* at every wave
    /// boundary is bit-identical to the uninterrupted optimized replay
    /// — outputs, op counters, telemetry — on one thread and over
    /// workers {1, 2, 4, 8}.
    #[test]
    fn optimized_plans_checkpoint_and_resume_at_every_wave_boundary(
        op_idx in 0..ALL_OPS.len(),
        op_off in 1..ALL_OPS.len(),
        m in 1usize..24,
        n in 1usize..24,
        k in 1usize..16,
        len in 2usize..4,
        seed in any::<u32>(),
    ) {
        let ops = (ALL_OPS[op_idx], ALL_OPS[(op_idx + op_off) % ALL_OPS.len()]);
        let (a, b, c) = gen_operands(ops.0, m, n, k, seed);
        let (expected, plan) = record_workload(
            &mut TiledBackend::new(), ops, (&a, &b, &c), len,
        );
        let optimized = PassPipeline::standard().run(plan);
        let waves = optimized.plan().waves();
        // Halt after each wave prefix: every wave boundary is exercised.
        let mut completed = 0usize;
        for wave in &waves[..waves.len() - 1] {
            completed += wave.len();
            check_optimized_boundary(
                &optimized,
                &expected,
                completed,
                TiledBackend::new,
                &format!("sequential, halt_at={completed}"),
            );
            for workers in [1usize, 2, 4, 8] {
                check_optimized_boundary(
                    &optimized,
                    &expected,
                    completed,
                    || TiledBackend::with_parallelism(Parallelism::Threads(workers)),
                    &format!("workers={workers}, halt_at={completed}"),
                );
            }
        }
    }
}
