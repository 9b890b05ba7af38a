//! Forwarding conformance for everything that wraps a [`Backend`].
//!
//! `Backend` has one MMO entry ([`Backend::execute`]) and two control
//! methods ([`Backend::health`], [`Backend::degrade`]). A wrapper that
//! forwards those three forwards everything, and this suite proves each
//! one does: a spy backend sits under [`PlanBuilder`],
//! [`OptimizingRecorder`] and [`ResilientBackend`] — each alone, and
//! either recorder stacked over the resilient layer, the order
//! `PlanService` replays through — and must observe every step's op, all
//! three representation declarations, the [`Schedule`], both [`Degrade`]
//! rungs and the `health()` reads. Every `mmo` / `mmo_ref` / `execute`
//! must reach the spy as exactly one `execute` call, which is what "no
//! wrapper overrides the helpers" means in behaviour.
//!
//! Two regressions ride along: a replay rejects an invalid declaration
//! at exactly its step, keeping the steps before it, whichever
//! constructor built the executor; and the recorders keep what they are
//! handed — declarations in the plan, controls on the backend.

use std::cell::Cell;

use simd2::{
    Backend, BackendError, Degrade, Health, MatrixRef, MmoArgs, OpCount, OperandRepr,
    OptimizingRecorder, Parallelism, PlanBuilder, PlanExecutor, RecoveryPolicy, ReferenceBackend,
    ReplayHalt, ResilientBackend, Schedule, Simd2Context, TiledBackend,
};
use simd2_matrix::Matrix;
use simd2_mxu::PrecisionMode;
use simd2_semiring::simd::KernelIsa;
use simd2_semiring::OpKind;

/// What the spy saw of one step.
type Seen = (OpKind, [OperandRepr; 3], Schedule);

/// Records every call it receives and computes through the reference
/// oracle, so wrappers that verify results are satisfied.
#[derive(Default)]
struct Spy {
    oracle: ReferenceBackend,
    /// One entry per `execute` call.
    calls: Vec<Seen>,
    rungs: Vec<Degrade>,
    health_reads: Cell<usize>,
}

/// A health no default produces, so a wrapper answering for itself shows.
const SPY_HEALTH: Health = Health {
    kernel_isa: KernelIsa::Avx2,
    fault_log_dropped: 7,
};

impl Backend for Spy {
    fn name(&self) -> &'static str {
        "spy"
    }

    fn precision(&self) -> PrecisionMode {
        PrecisionMode::Fp32Input
    }

    fn execute(&mut self, step: &MmoArgs<'_>, schedule: Schedule) -> Result<Matrix, BackendError> {
        self.calls.push((step.op, step.reprs, schedule));
        self.oracle.execute(step, schedule)
    }

    fn health(&self) -> Health {
        self.health_reads.set(self.health_reads.get() + 1);
        SPY_HEALTH
    }

    fn degrade(&mut self, rung: Degrade) -> bool {
        self.rungs.push(rung);
        true
    }

    fn op_count(&self) -> OpCount {
        self.oracle.op_count()
    }

    fn reset_count(&mut self) {
        self.oracle.reset_count();
    }
}

/// Operands for `op` whose `A` is sparse over the no-edge value and
/// whose `B` is 2:4-compliant, so both declarations validate.
fn operands(op: OpKind) -> (Matrix, Matrix, Matrix) {
    let zero = op.no_edge_f32().expect("an op with a sparse lowering");
    let a = Matrix::from_fn(8, 8, |r, c| {
        if (r + c) % 3 == 0 {
            1.0 + r as f32
        } else {
            zero
        }
    });
    let b = Matrix::from_fn(
        8,
        8,
        |r, c| {
            if c % 4 == r % 2 {
                2.0 + c as f32
            } else {
                zero
            }
        },
    );
    let c = Matrix::filled(8, 8, op.reduce_identity_f32());
    (a, b, c)
}

/// The declarations [`drive`] attaches to its declared steps.
fn declared(op: OpKind) -> [OperandRepr; 3] {
    let zero = op.no_edge_f32().unwrap();
    [
        OperandRepr::csr(zero),
        OperandRepr::structured(zero),
        OperandRepr::Dense,
    ]
}

/// Sends one of everything through `wrapper`; returns what a spy under
/// it must have seen, call by call.
fn drive<W: Backend>(wrapper: &mut W) -> Vec<Seen> {
    let dense = [OperandRepr::Dense; 3];
    let (op1, op2) = (OpKind::MinPlus, OpKind::PlusMul);
    let (a1, b1, c1) = operands(op1);
    let (a2, b2, c2) = operands(op2);

    let d = wrapper.mmo(op1, &a1, &b1, &c1).expect("dense mmo");
    let reprs = declared(op2);
    let d_ref = wrapper
        .mmo_ref(
            op2,
            MatrixRef::new(&a2, reprs[0]),
            MatrixRef::new(&b2, reprs[1]),
            MatrixRef::new(&c2, reprs[2]),
        )
        .expect("declared mmo_ref");
    let steps = [
        MmoArgs {
            reprs: declared(op1),
            ..MmoArgs::new(op1, &a1, &b1, &c1)
        },
        MmoArgs::new(op2, &a2, &b2, &c2),
    ];
    let outputs = steps.map(|step| {
        wrapper
            .execute(&step, Schedule::Sequential)
            .expect("sequential execute")
    });
    // Declarations and schedules are hints: same bits either way.
    assert_eq!(outputs, [d, d_ref]);

    assert_eq!(wrapper.health(), SPY_HEALTH);
    assert!(wrapper.degrade(Degrade::PinKernelIsa(KernelIsa::Scalar)));
    assert!(wrapper.degrade(Degrade::ForceSequential));

    vec![
        (op1, dense, Schedule::Configured),
        (op2, reprs, Schedule::Configured),
        (op1, declared(op1), Schedule::Sequential),
        (op2, dense, Schedule::Sequential),
    ]
}

fn check(spy: &Spy, expected: &[Seen], what: &str) {
    // One call per step: no wrapper dispatches a step twice.
    assert_eq!(
        spy.calls, expected,
        "{what}: steps, declarations, schedules"
    );
    assert_eq!(
        spy.rungs,
        [
            Degrade::PinKernelIsa(KernelIsa::Scalar),
            Degrade::ForceSequential
        ],
        "{what}: degrade rungs"
    );
    assert!(spy.health_reads.get() >= 1, "{what}: health read");
}

fn resilient() -> ResilientBackend<Spy> {
    ResilientBackend::new(Spy::default(), RecoveryPolicy::FailFast)
}

#[test]
fn every_wrapper_forwards_steps_declarations_schedule_and_controls() {
    let mut spy = Spy::default();
    let mut rec = PlanBuilder::over(&mut spy);
    let expected = drive(&mut rec);
    let plan = rec.finish();
    check(&spy, &expected, "PlanBuilder");
    // The recorder kept what it forwarded: every step, with its
    // declarations.
    assert_eq!(plan.step_count(), expected.len());
    assert!(plan.has_sparse_slots());

    let mut spy = Spy::default();
    let mut rec = OptimizingRecorder::over(&mut spy);
    let expected = drive(&mut rec);
    assert_eq!(rec.recorded_steps(), expected.len());
    assert!(rec.finish().plan().has_sparse_slots());
    check(&spy, &expected, "OptimizingRecorder");

    let mut wrapped = resilient();
    let expected = drive(&mut wrapped);
    check(wrapped.inner(), &expected, "ResilientBackend");
    assert_eq!(wrapped.recovery_stats().verified, expected.len() as u64);

    let mut wrapped = resilient();
    let mut rec = PlanBuilder::over(&mut wrapped);
    let expected = drive(&mut rec);
    drop(rec);
    check(
        wrapped.inner(),
        &expected,
        "PlanBuilder over ResilientBackend",
    );

    let mut wrapped = resilient();
    let mut rec = OptimizingRecorder::over(&mut wrapped);
    let expected = drive(&mut rec);
    drop(rec);
    check(
        wrapped.inner(),
        &expected,
        "OptimizingRecorder over ResilientBackend",
    );
}

#[test]
fn record_optimized_keeps_a_csr_declaration() {
    let op = OpKind::MinPlus;
    let (a, b, c) = operands(op);
    let mut ctx = Simd2Context::new();
    let mut rec = ctx.record_optimized();
    rec.mmo_ref(
        op,
        MatrixRef::new(&a, OperandRepr::csr(f32::INFINITY)),
        MatrixRef::dense(&b),
        MatrixRef::dense(&c),
    )
    .expect("declared mmo_ref");
    assert!(rec.finish().plan().has_sparse_slots());
}

#[test]
fn recorders_report_and_degrade_the_backend_they_record_over() {
    let mut be = TiledBackend::with_parallelism(Parallelism::Threads(2));
    let isa = be.kernel_isa();
    let mut rec = PlanBuilder::over(&mut be);
    assert_eq!(rec.health().kernel_isa, isa);
    assert!(rec.degrade(Degrade::PinKernelIsa(KernelIsa::Scalar)));
    assert_eq!(rec.health().kernel_isa, KernelIsa::Scalar);
    let mut rec = OptimizingRecorder::over(&mut be);
    assert_eq!(rec.health().kernel_isa, KernelIsa::Scalar);
    assert!(rec.degrade(Degrade::ForceSequential));
    drop(rec);
    assert_eq!(be.kernel_isa(), KernelIsa::Scalar);
    assert_eq!(be.parallelism(), Parallelism::Sequential);
}

/// Computes without validating, so a recording over it can carry a
/// declaration no real backend would accept.
#[derive(Default)]
struct Lenient(OpCount);

impl Backend for Lenient {
    fn name(&self) -> &'static str {
        "lenient"
    }

    fn precision(&self) -> PrecisionMode {
        PrecisionMode::Fp32Input
    }

    fn execute(&mut self, s: &MmoArgs<'_>, _schedule: Schedule) -> Result<Matrix, BackendError> {
        Ok(simd2_matrix::reference::mmo(s.op, s.a, s.b, s.c)?)
    }

    fn op_count(&self) -> OpCount {
        self.0
    }

    fn reset_count(&mut self) {}
}

#[test]
fn both_executors_reject_an_invalid_declaration_with_the_same_error() {
    let full = Matrix::from_fn(8, 8, |r, c| 1.0 + (r * 8 + c) as f32);
    let other = Matrix::from_fn(8, 8, |r, c| 2.0 + (r + c) as f32);
    let c = Matrix::zeros(8, 8);
    let cases = [
        // Four stored values in every group of four.
        (OpKind::PlusMul, OperandRepr::structured(0.0), "2:4"),
        // plus-norm has no annihilator, so no sparse lowering at all.
        (OpKind::PlusNorm, OperandRepr::csr(0.0), "no-edge"),
    ];
    for (op, repr, why) in cases {
        // Two independent steps in one wave: the valid one completes,
        // the declared one is rejected.
        let mut lenient = Lenient::default();
        let mut rec = PlanBuilder::over(&mut lenient);
        rec.mmo(op, &other, &other, &c).expect("valid step");
        rec.mmo_ref(
            op,
            MatrixRef::new(&full, repr),
            MatrixRef::dense(&other),
            MatrixRef::dense(&c),
        )
        .expect("the lenient backend accepts anything");
        let plan = rec.finish();
        assert_eq!(plan.waves().len(), 1);

        // `batched()` is the same executor as `new()`.
        for exec in [PlanExecutor::new(), PlanExecutor::batched()] {
            let mut be = TiledBackend::with_parallelism(Parallelism::Threads(2));
            let err = exec
                .run(&plan, &mut be)
                .expect_err("an invalid declaration must not replay");
            assert_eq!((err.step, err.completed_steps), (1, 1), "{op}");
            match &err.halt {
                ReplayHalt::Backend(BackendError::Repr {
                    operand, reason, ..
                }) => {
                    assert_eq!(*operand, "A");
                    assert!(reason.contains(why), "{op}: {reason}");
                }
                other => panic!("{op}: expected a Repr rejection, got {other:?}"),
            }
        }
    }
}
