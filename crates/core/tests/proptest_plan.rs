//! Property-based validation of the plan IR lowering pipeline against
//! eager [`Backend::mmo`] execution.
//!
//! The contract under test: recording through [`PlanBuilder`] is
//! observationally identical to eager execution, and replaying the
//! recorded [`Plan`] — on one thread or any worker count —
//! reproduces the eager result **bit for bit** with exact [`OpCount`]
//! work counters, for every operation, every (non-square) shape, and
//! both the fp16 tiled and fp32 reference lowerings.

use proptest::prelude::*;
use proptest::strategy::ValueTree;
use simd2::{
    Backend, MatrixRef, OperandRepr, Parallelism, Plan, PlanBuilder, PlanExecutor,
    ReferenceBackend, TiledBackend,
};
use simd2_matrix::Matrix;
use simd2_semiring::{OpKind, ALL_OPS};

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

/// Records one `op` mmo over `backend`'s kind and returns the recording
/// backend's observations alongside the plan.
fn record_one<B: Backend>(
    backend: &mut B,
    op: OpKind,
    a: &Matrix,
    b: &Matrix,
    c: &Matrix,
) -> (Matrix, Plan) {
    let mut rec = PlanBuilder::over(backend);
    let d = rec.mmo(op, a, b, c).expect("recording mmo");
    (d, rec.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// fp16 tiled lowering: record == eager, sequential replay == eager,
    /// replay over workers {1, 2, 4, 8} == eager — bit for bit, counters
    /// exact — over all nine ops × non-square shapes; and a recording
    /// that declares its operands keys like one that does not.
    #[test]
    fn tiled_replay_is_bit_identical_to_eager_mmo(
        op in op_strategy(),
        m in 1usize..48,
        n in 1usize..48,
        k in 1usize..32,
        seed in any::<u32>(),
    ) {
        let (a, b, c) = gen_operands(op, m, n, k, seed);

        let mut eager_be = TiledBackend::new();
        let eager = eager_be.mmo(op, &a, &b, &c).unwrap();
        let eager_count = eager_be.op_count();

        let mut rec_be = TiledBackend::new();
        let (recorded, plan) = record_one(&mut rec_be, op, &a, &b, &c);
        assert_bits_equal(&eager, &recorded, "recording");
        prop_assert_eq!(rec_be.op_count(), eager_count, "recording counters");
        prop_assert_eq!(plan.step_count(), 1);
        // A declaration is not part of a plan: the step recorded with
        // `A` and `B` declared CSR keys exactly as the undeclared one.
        if let Some(csr) = OperandRepr::csr_for(op) {
            let mut declared_be = TiledBackend::new();
            let mut rec = PlanBuilder::over(&mut declared_be);
            let declared = rec
                .mmo_ref(op, MatrixRef::new(&a, csr), MatrixRef::new(&b, csr), MatrixRef::dense(&c))
                .unwrap();
            assert_bits_equal(&eager, &declared, "declared recording");
            let declared_plan = rec.finish();
            prop_assert_eq!(declared_plan.structural_hash(), plan.structural_hash());
            prop_assert_eq!(declared_plan.cache_key(), plan.cache_key());
        }

        let mut seq_be = TiledBackend::new();
        let seq = PlanExecutor::new().run(&plan, &mut seq_be).unwrap();
        assert_bits_equal(&eager, seq.final_output().unwrap(), "sequential replay");
        prop_assert_eq!(seq_be.op_count(), eager_count, "sequential counters");

        for workers in [1usize, 2, 4, 8] {
            let mut be = TiledBackend::with_parallelism(Parallelism::Threads(workers));
            let par = PlanExecutor::new().run(&plan, &mut be).unwrap();
            assert_bits_equal(
                &eager,
                par.final_output().unwrap(),
                &format!("replay, workers={workers}"),
            );
            prop_assert_eq!(be.op_count(), eager_count, "counters, workers={}", workers);
        }
    }

    /// fp32 reference lowering keeps the same record/replay contract.
    #[test]
    fn reference_replay_is_bit_identical_to_eager_mmo(
        op in op_strategy(),
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..24,
        seed in any::<u32>(),
    ) {
        let (a, b, c) = gen_operands(op, m, n, k, seed);

        let mut eager_be = ReferenceBackend::new();
        let eager = eager_be.mmo(op, &a, &b, &c).unwrap();
        let eager_count = eager_be.op_count();

        let mut rec_be = ReferenceBackend::new();
        let (recorded, plan) = record_one(&mut rec_be, op, &a, &b, &c);
        assert_bits_equal(&eager, &recorded, "recording");

        let mut seq_be = ReferenceBackend::new();
        let seq = PlanExecutor::new().run(&plan, &mut seq_be).unwrap();
        assert_bits_equal(&eager, seq.final_output().unwrap(), "sequential replay");
        prop_assert_eq!(seq_be.op_count(), eager_count, "sequential counters");
    }

    /// A two-step chain (the second step accumulates onto the first's
    /// output) records an exact RAW dependency — two waves — and each
    /// step replays bit-identically on one thread and on four.
    #[test]
    fn chained_steps_replay_with_exact_dependencies(
        op in op_strategy(),
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..24,
        seed in any::<u32>(),
    ) {
        let (a, b, c) = gen_operands(op, m, n, k, seed);

        let mut rec_be = TiledBackend::new();
        let mut rec = PlanBuilder::over(&mut rec_be);
        let d1 = rec.mmo(op, &a, &b, &c).unwrap();
        let d2 = rec.mmo(op, &a, &b, &d1).unwrap();
        let plan = rec.finish();
        prop_assert_eq!(plan.step_count(), 2);
        // The RAW edge d1 → step 1 forces two scheduling waves.
        prop_assert_eq!(plan.waves(), vec![vec![0], vec![1]]);

        let mut seq_be = TiledBackend::new();
        let seq = PlanExecutor::new().run(&plan, &mut seq_be).unwrap();
        assert_bits_equal(&d1, seq.step_output(0), "step 0");
        assert_bits_equal(&d2, seq.step_output(1), "step 1");
        assert_bits_equal(&d2, seq.final_output().unwrap(), "final");

        let mut par_be = TiledBackend::with_parallelism(Parallelism::Threads(4));
        let par = PlanExecutor::new().run(&plan, &mut par_be).unwrap();
        assert_bits_equal(&d1, par.step_output(0), "4-worker step 0");
        assert_bits_equal(&d2, par.step_output(1), "4-worker step 1");
        prop_assert_eq!(seq_be.op_count(), par_be.op_count(), "chain counters");
    }
}
