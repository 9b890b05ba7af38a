//! Forwarding conformance for everything that wraps a [`Backend`].
//!
//! `Backend` has one MMO entry ([`Backend::execute`]) and two control
//! methods ([`Backend::health`], [`Backend::degrade`]). A wrapper that
//! forwards those three forwards everything, and this suite proves each
//! one does: a spy backend sits under [`PlanBuilder`] and
//! [`ResilientBackend`] — each alone, and the recorder stacked over the
//! resilient layer, the order `PlanService` replays through — and must
//! observe every step's op and operands, the [`Schedule`], both
//! [`Degrade`] rungs and the `health()` reads. Every `mmo` / `mmo_ref` /
//! `execute` must reach the spy as exactly one `execute` call, which is
//! what "no wrapper overrides the helpers" means in behaviour; what an
//! `mmo_ref` declares reaches no one.
//!
//! A regression rides along: the recorder keeps what it is handed —
//! every step in the plan, controls on the backend.

use std::cell::Cell;

use simd2::{
    Backend, BackendError, Degrade, Health, MatrixRef, MmoArgs, OpCount, OperandRepr, Parallelism,
    PlanBuilder, RecoveryPolicy, ReferenceBackend, ResilientBackend, Schedule, TiledBackend,
};
use simd2_matrix::Matrix;
use simd2_mxu::PrecisionMode;
use simd2_semiring::simd::KernelIsa;
use simd2_semiring::OpKind;

/// What the spy saw of one step: its op, its operands' `A[0, 0]` (which
/// tells [`drive`]'s steps apart) and its schedule.
type Seen = (OpKind, u32, Schedule);

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
        self.calls
            .push((step.op, step.a[(0, 0)].to_bits(), schedule));
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
/// whose `B` is 2:4-compliant, as the declarations [`drive`] sends say.
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

/// Sends one of everything through `wrapper`; returns what a spy under
/// it must have seen, call by call.
fn drive<W: Backend>(wrapper: &mut W) -> Vec<Seen> {
    let (op1, op2) = (OpKind::MinPlus, OpKind::PlusMul);
    let (a1, b1, c1) = operands(op1);
    let (a2, b2, c2) = operands(op2);

    let d = wrapper.mmo(op1, &a1, &b1, &c1).expect("mmo");
    let (csr, s24) = (
        OperandRepr::csr_for(op2).unwrap(),
        OperandRepr::structured_for(op2).unwrap(),
    );
    let d_ref = wrapper
        .mmo_ref(
            op2,
            MatrixRef::new(&a2, csr),
            MatrixRef::new(&b2, s24),
            MatrixRef::dense(&c2),
        )
        .expect("declared mmo_ref");
    let steps = [
        MmoArgs::new(op1, &a1, &b1, &c1),
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

    let (a1, a2) = (a1[(0, 0)].to_bits(), a2[(0, 0)].to_bits());
    vec![
        (op1, a1, Schedule::Configured),
        (op2, a2, Schedule::Configured),
        (op1, a1, Schedule::Sequential),
        (op2, a2, Schedule::Sequential),
    ]
}

fn check(spy: &Spy, expected: &[Seen], what: &str) {
    // One call per step: no wrapper dispatches a step twice.
    assert_eq!(spy.calls, expected, "{what}: steps, operands, schedules");
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
    // The recorder kept what it forwarded: every step.
    assert_eq!(plan.step_count(), expected.len());

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
}

#[test]
fn recorders_report_and_degrade_the_backend_they_record_over() {
    let mut be = TiledBackend::with_parallelism(Parallelism::Threads(2));
    let isa = be.kernel_isa();
    let mut rec = PlanBuilder::over(&mut be);
    assert_eq!(rec.health().kernel_isa, isa);
    assert!(rec.degrade(Degrade::PinKernelIsa(KernelIsa::Scalar)));
    assert_eq!(rec.health().kernel_isa, KernelIsa::Scalar);
    let mut rec = PlanBuilder::over(&mut be);
    assert_eq!(rec.health().kernel_isa, KernelIsa::Scalar);
    assert!(rec.degrade(Degrade::ForceSequential));
    drop(rec);
    assert_eq!(be.kernel_isa(), KernelIsa::Scalar);
    assert_eq!(be.parallelism(), Parallelism::Sequential);
}
