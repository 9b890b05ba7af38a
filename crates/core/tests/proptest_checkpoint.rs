//! Property-based validation of wave-granular checkpoint/resume against
//! uninterrupted replay.
//!
//! The contract under test: halting a resumable replay at **any** wave
//! boundary and resuming from the returned [`PlanCheckpoint`] is
//! observationally identical to one uninterrupted replay — final and
//! per-step outputs bit for bit, backend [`OpCount`](simd2::OpCount)
//! work counters exact (completed waves are never re-executed), and the
//! concatenated halted + resumed telemetry streams equal to the clean
//! run's stream event for event — for every operation, every
//! (non-square) shape, on one thread and over workers {1, 2, 4, 8}.

use proptest::prelude::*;
use proptest::strategy::ValueTree;
use simd2::{Backend, Parallelism, Plan, PlanBuilder, PlanExecutor, ReplayProgress, TiledBackend};
use simd2_matrix::Matrix;
use simd2_semiring::{OpKind, ALL_OPS};
use simd2_trace::{RingSink, Tracer};

fn op_strategy() -> impl Strategy<Value = OpKind> {
    (0..ALL_OPS.len()).prop_map(|i| ALL_OPS[i])
}

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

/// Records a `len`-step chain — each step accumulates onto the previous
/// step's output, so every wave holds exactly one step — and returns
/// the eager per-step outputs alongside the plan.
fn record_chain(op: OpKind, a: &Matrix, b: &Matrix, c: &Matrix, len: usize) -> (Vec<Matrix>, Plan) {
    let mut rec_be = TiledBackend::new();
    let mut rec = PlanBuilder::over(&mut rec_be);
    let mut d = rec.mmo(op, a, b, c).expect("recording step 0");
    let mut expected = vec![d.clone()];
    for i in 1..len {
        d = rec
            .mmo(op, a, b, &d)
            .unwrap_or_else(|e| panic!("recording step {i}: {e}"));
        expected.push(d.clone());
    }
    (expected, rec.finish())
}

/// Halts a resumable replay once `halt_at` steps completed, resumes it
/// from the checkpoint on the same backend/ring, and asserts the pair
/// is indistinguishable from the clean run: outputs, counters, and the
/// concatenated telemetry stream.
fn check_boundary<B: Backend>(
    plan: &Plan,
    expected: &[Matrix],
    halt_at: usize,
    mut make_backend: impl FnMut() -> B,
    what: &str,
) {
    let len = plan.step_count();

    let clean_ring = RingSink::shared();
    let clean_exec = PlanExecutor::new().with_tracer(Tracer::to(clean_ring.clone()));
    let mut clean_be = make_backend();
    let clean = clean_exec
        .run_resumable(plan, &mut clean_be, &mut |_: ReplayProgress| Ok(()))
        .unwrap_or_else(|h| panic!("{what}: clean run halted: {}", h.error));
    assert_bits_equal(&expected[len - 1], clean.final_output().unwrap(), what);

    // Interrupted leg: halt at the wave boundary, then resume through
    // the same executor/backend/ring so counters and telemetry span the
    // whole halted-plus-resumed lifetime.
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
    assert!(halted.error.is_cancelled(), "{what}: halt kind");
    assert_eq!(halted.error.completed_steps, halt_at, "{what}: halt point");
    let cp = &halted.checkpoint;
    assert_eq!(cp.key(), plan.cache_key(), "{what}: checkpoint key");
    assert_eq!(
        cp.completed_steps(),
        halt_at,
        "{what}: checkpoint completed"
    );
    assert_eq!(
        cp.remaining_steps(),
        len - halt_at,
        "{what}: checkpoint remaining"
    );
    assert_eq!(cp.total_steps(), len, "{what}: checkpoint total");
    assert_eq!(cp.resumes(), 0, "{what}: first halt");
    for step in 0..len {
        assert_eq!(
            cp.step_completed(step),
            step < halt_at,
            "{what}: step {step} completion"
        );
    }

    let resumed = exec
        .resume_from(
            plan,
            halted.checkpoint,
            &mut be,
            &mut |_: ReplayProgress| Ok(()),
        )
        .unwrap_or_else(|h| panic!("{what}: resume halted: {}", h.error));
    for (step, want) in expected.iter().enumerate() {
        assert_bits_equal(
            want,
            resumed.step_output(step),
            &format!("{what}: step {step}"),
        );
    }
    assert_bits_equal(
        clean.final_output().unwrap(),
        resumed.final_output().unwrap(),
        &format!("{what}: final"),
    );

    // The backend performed exactly the clean run's work — no completed
    // wave was ever re-executed.
    assert_eq!(be.op_count(), clean_be.op_count(), "{what}: op counters");

    // The halted stream plus the resume's complement reads as one
    // uninterrupted run (events carry no timestamps, so equality is
    // exact: same spans, same kinds, same fields, same order).
    assert_eq!(ring.events(), clean_ring.events(), "{what}: telemetry");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Checkpoint/resume at **every** wave boundary of a multi-wave
    /// chain is bit-identical to uninterrupted replay — outputs, op
    /// counters, and telemetry — on one thread and over workers
    /// {1, 2, 4, 8}, across all nine ops and non-square shapes.
    #[test]
    fn resume_from_every_wave_boundary_is_bit_identical_to_clean_replay(
        op in op_strategy(),
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..24,
        len in 2usize..5,
        seed in any::<u32>(),
    ) {
        let (a, b, c) = gen_operands(op, m, n, k, seed);
        let (expected, plan) = record_chain(op, &a, &b, &c, len);
        prop_assert_eq!(plan.step_count(), len);
        // The chain's RAW edges force one wave per step, so every step
        // boundary is a wave boundary.
        prop_assert_eq!(plan.waves().len(), len);

        for halt_at in 1..len {
            check_boundary(
                &plan,
                &expected,
                halt_at,
                TiledBackend::new,
                &format!("sequential, halt_at={halt_at}"),
            );
            for workers in [1usize, 2, 4, 8] {
                check_boundary(
                    &plan,
                    &expected,
                    halt_at,
                    || TiledBackend::with_parallelism(Parallelism::Threads(workers)),
                    &format!("workers={workers}, halt_at={halt_at}"),
                );
            }
        }
    }
}
