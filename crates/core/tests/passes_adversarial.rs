//! Adversarial pass unit tests: hand-built minimal plans that each
//! target one way a pass could be *plausibly but incorrectly* eager.
//!
//! * CSE must not merge steps whose inputs collide only after fp16
//!   quantization — even though their recorded outputs are
//!   bit-identical on the recording backend, the steps are not
//!   equivalent on every backend class.
//! * Dead-step elimination must keep steps that checkpoint consumers
//!   can still reach: the final-output policy is only for callers whose
//!   contract is the final output, explicit [`RootPolicy::Steps`] and
//!   the default leaf policy retain intermediates, and a checkpoint
//!   taken against the unoptimized plan is *rejected* (never silently
//!   misapplied) by a resume against the optimized plan.

use simd2::backend::TiledBackend;
use simd2::{Backend, DsePass, PassPipeline, PlanBuilder, PlanExecutor, ReplayHalt, RootPolicy};
use simd2_matrix::Matrix;
use simd2_semiring::precision::quantize_f16;
use simd2_semiring::OpKind;

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Two inputs that differ in f32 bits but quantize to the same fp16
/// value, so the recording backend produces bit-identical outputs for
/// both steps. CSE must still treat the steps as distinct — merging
/// them would bake the fp16 collision into the plan structure and
/// change fp32 replays.
#[test]
fn cse_never_merges_on_post_quantization_collisions() {
    let op = OpKind::MinPlus;
    let a1 = Matrix::filled(24, 24, 0.1);
    let a2 = Matrix::filled(24, 24, quantize_f16(0.1));
    assert_ne!(
        bits(&a1),
        bits(&a2),
        "the trap needs inputs that differ pre-quantization"
    );
    assert_eq!(quantize_f16(0.1), quantize_f16(quantize_f16(0.1)));
    let b = Matrix::filled(24, 24, 1.0);
    let c = Matrix::filled(24, 24, f32::INFINITY);

    let mut be = TiledBackend::new();
    let mut rec = PlanBuilder::over(&mut be);
    let d1 = rec.mmo(op, &a1, &b, &c).unwrap();
    let d2 = rec.mmo(op, &a2, &b, &c).unwrap();
    // Sanity: the collision is real — the recorded outputs match bit
    // for bit, so a value-based CSE would be tempted.
    assert_eq!(bits(&d1), bits(&d2));
    let plan = rec.finish();

    let optimized = PassPipeline::standard().run(plan);
    assert_eq!(
        optimized.report().steps_merged,
        0,
        "inputs that collide only after quantization must not merge"
    );
    assert_eq!(optimized.plan().step_count(), 2);

    // Positive control: recording the *same* input twice does merge —
    // the trap above failed for the right reason.
    let mut be = TiledBackend::new();
    let mut rec = PlanBuilder::over(&mut be);
    rec.mmo(op, &a1, &b, &c).unwrap();
    rec.mmo(op, &a1, &b, &c).unwrap();
    let control = PassPipeline::standard().run(rec.finish());
    assert_eq!(control.report().steps_merged, 1);
}

/// A three-step plan whose middle step feeds nothing: step 0 feeds
/// step 2, step 1 is independent work whose output only a checkpoint
/// consumer would read.
fn plan_with_intermediate() -> (simd2::Plan, Vec<Matrix>) {
    let a = Matrix::filled(20, 20, 2.0);
    let b = Matrix::filled(20, 20, 3.0);
    let c = Matrix::filled(20, 20, f32::INFINITY);
    let mut be = TiledBackend::new();
    let mut rec = PlanBuilder::over(&mut be);
    let d0 = rec.mmo(OpKind::MinPlus, &a, &b, &c).unwrap();
    let d1 = rec.mmo(OpKind::MaxPlus, &a, &b, &c).unwrap();
    let d2 = rec.mmo(OpKind::MinPlus, &a, &b, &d0).unwrap();
    (rec.finish(), vec![d0, d1, d2])
}

#[test]
fn dse_policies_control_intermediate_retention() {
    let (plan, outputs) = plan_with_intermediate();

    // Final-output policy: step 1 is dead and eliminated, steps 0 and 2
    // survive, and the final output is still exact.
    let aggressive = PassPipeline::serving().run(plan.clone());
    assert_eq!(aggressive.report().steps_eliminated, 1);
    assert_eq!(aggressive.step_target(1), None);
    assert!(aggressive.step_target(0).is_some());
    assert!(aggressive.step_target(2).is_some());
    let mut be = TiledBackend::new();
    let replay = PlanExecutor::new()
        .run_optimized(&aggressive, &mut be)
        .unwrap();
    assert_eq!(
        bits(aggressive.final_output(&replay).unwrap()),
        bits(&outputs[2])
    );

    // The default leaf policy keeps step 1 — its output is a visible
    // leaf of the plan.
    let leaves = PassPipeline::standard().run(plan.clone());
    assert_eq!(leaves.report().steps_eliminated, 0);
    let step1 = leaves.step_target(1).expect("leaf step retained");
    let mut be = TiledBackend::new();
    let replay = PlanExecutor::new().run_optimized(&leaves, &mut be).unwrap();
    assert_eq!(bits(replay.step_output(step1)), bits(&outputs[1]));

    // Explicit roots: a checkpoint consumer that needs step 1 pins it,
    // and everything not reachable from the pinned roots goes away.
    let pinned = PassPipeline::new(vec![Box::new(DsePass::new(RootPolicy::Steps(vec![1])))])
        .run(plan.clone());
    assert!(pinned.step_target(1).is_some());
    assert_eq!(pinned.report().steps_eliminated, 2);
}

/// Optimization changes the plan's structural identity, so a checkpoint
/// taken against the unoptimized plan must be *rejected* by a resume
/// against the optimized plan — a silent remap would replay the wrong
/// steps against the wrong slots.
#[test]
fn stale_checkpoints_are_rejected_by_optimized_plans() {
    let (plan, _) = plan_with_intermediate();
    let optimized = PassPipeline::serving().run(plan.clone());
    assert_ne!(
        plan.cache_key().structural,
        optimized.cache_key().structural,
        "the optimized plan must have its own structural identity"
    );

    // Halt an unoptimized replay after its first wave.
    let mut be = TiledBackend::new();
    let halted = PlanExecutor::new()
        .run_resumable(&plan, &mut be, &mut |p: simd2::ReplayProgress| {
            if p.completed_steps >= 2 {
                Err("halt".to_owned())
            } else {
                Ok(())
            }
        })
        .expect_err("control halts the replay");

    // Resuming that checkpoint through the optimized plan is refused.
    let err = PlanExecutor::new()
        .resume_from(
            optimized.plan(),
            halted.checkpoint,
            &mut be,
            &mut |_: simd2::ReplayProgress| Ok(()),
        )
        .expect_err("stale checkpoint must be rejected");
    assert!(
        matches!(err.error.halt, ReplayHalt::Checkpoint { .. }),
        "got {:?}",
        err.error.halt
    );
}
