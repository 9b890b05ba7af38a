//! Optimizing pass pipeline over the Plan IR.
//!
//! PR 5's recorder captures exactly the MMO steps an algorithm ran —
//! including the ones it did not need to run. A convergence-free
//! closure keeps relaxing past its fixed point (every post-fixed-point
//! step recomputes bits an earlier step already produced), and a
//! recording that evaluates the same subexpression twice replays it
//! twice. This module adds `Plan -> Plan` passes that remove that
//! redundancy *without changing a single output bit*:
//!
//! * [`CsePass`] — common-subexpression elimination. Steps are keyed on
//!   their operation plus the *canonical content class* of each operand
//!   slot: the recorder's FNV interning dedups inputs, and the
//!   [twin](Plan::slot_twin) links it records for bit-identical step
//!   outputs extend that equivalence to the post-fixed-point tail of a
//!   closure. Two steps with equal keys compute equal bits on the
//!   recording backend's bit-identity class, so the later one merges
//!   into the earlier.
//! * [`DsePass`] — dead-step elimination from live output roots
//!   ([`RootPolicy`]), dropping steps (and orphaned slots) nothing
//!   live reads.
//!
//! No pass lowers an operand's representation: the engine measures each
//! step's operands and walks the sparse ones itself (DESIGN.md §12).
//!
//! # The bit-identity contract
//!
//! Every pass preserves *bit*-identity, not merely value-equality: for
//! every original step the [`OptimizedPlan`]'s step map still reaches,
//! replaying the optimized plan produces the exact bits the unoptimized
//! replay produces, and the replaying backend's [`OpCount`] equals the
//! optimized plan's [`Plan::predicted_op_count`]. The one caveat is
//! inherited from the twin links: they record content equality on the
//! *recording* backend's bit-identity class, so an optimized
//! reduced-precision plan should be replayed on that same class (any
//! tiled configuration), not on the fp32 reference.
//!
//! A [`PassPipeline`] composes passes, aggregates a [`PassReport`], and
//! bumps the process-global `core.pass.*` counters.

use std::collections::HashMap;

use simd2_matrix::Matrix;
use simd2_mxu::PrecisionMode;
use simd2_semiring::OpKind;
use simd2_trace::Counter;

use super::{Executor, Plan, PlanBuilder, PlanKey, Replay, ReplayError, SlotId, SlotOrigin};
use crate::backend::{Backend, Degrade, Health, MmoArgs, OpCount, Schedule};
use crate::error::BackendError;

/// Process-global count of pipeline runs.
static PASS_RUNS: Counter = Counter::new("core.pass.runs");
/// Process-global count of steps merged by CSE.
static PASS_STEPS_MERGED: Counter = Counter::new("core.pass.steps_merged");
/// Process-global count of steps removed by DSE.
static PASS_STEPS_ELIMINATED: Counter = Counter::new("core.pass.steps_eliminated");

/// What one pass did to the plan it was handed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassStats {
    /// The reporting pass's [`PlanPass::name`].
    pub pass: &'static str,
    /// Steps merged into an earlier equivalent step (CSE).
    pub steps_merged: usize,
    /// Steps removed as dead (DSE).
    pub steps_eliminated: usize,
}

/// Aggregate telemetry of one [`PassPipeline::run`]: per-pass stats
/// plus step totals before and after.
#[derive(Clone, Debug, Default)]
pub struct PassReport {
    /// Steps in the plan handed to the pipeline.
    pub steps_before: usize,
    /// Steps in the optimized plan.
    pub steps_after: usize,
    /// Total steps merged by CSE passes.
    pub steps_merged: usize,
    /// Total steps removed by DSE passes.
    pub steps_eliminated: usize,
    /// Always 0: no pass declares an input's representation (the engine
    /// measures the operands itself). Kept for callers that read it.
    pub slots_relowered: usize,
    /// Per-pass breakdown, in execution order.
    pub passes: Vec<PassStats>,
}

impl PassReport {
    /// Whether any pass changed the plan's steps (merges or
    /// eliminations). When this is `false` the optimized plan's replay
    /// is event-stream-identical to the unoptimized replay, not just
    /// output-identical.
    pub fn changed(&self) -> bool {
        self.steps_merged + self.steps_eliminated > 0
    }
}

/// An optimized plan plus the remap back to the recording it came from:
/// which optimized step/slot (if any) now stands for each original one.
/// Produced by [`PassPipeline::run`]; replayed by
/// [`Executor::run_optimized`]; original-indexed outputs are read back
/// through [`step_output`](Self::step_output) /
/// [`final_output`](Self::final_output).
#[derive(Clone, Debug)]
pub struct OptimizedPlan {
    plan: Plan,
    original_steps: usize,
    original_slots: usize,
    /// `step_map[i]` is the optimized step computing original step `i`'s
    /// bits (`None` once a DSE pass drops it).
    step_map: Vec<Option<usize>>,
    /// `slot_map[i]` is the optimized slot holding original slot `i`'s
    /// bits (`None` for slots dropped with their dead steps).
    slot_map: Vec<Option<SlotId>>,
    report: PassReport,
}

impl OptimizedPlan {
    /// Wraps `plan` with identity maps and an empty report — the state
    /// a pipeline starts from, and a valid "no passes ran" artifact.
    pub fn identity(plan: Plan) -> Self {
        let steps = plan.step_count();
        let slots = plan.slot_count();
        Self {
            original_steps: steps,
            original_slots: slots,
            step_map: (0..steps).map(Some).collect(),
            slot_map: (0..slots).map(|i| Some(SlotId(i))).collect(),
            report: PassReport {
                steps_before: steps,
                steps_after: steps,
                ..PassReport::default()
            },
            plan,
        }
    }

    /// The optimized plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Consumes the artifact, returning the optimized plan.
    pub fn into_plan(self) -> Plan {
        self.plan
    }

    /// What every pass did.
    pub fn report(&self) -> &PassReport {
        &self.report
    }

    /// Steps in the original recording.
    pub fn original_steps(&self) -> usize {
        self.original_steps
    }

    /// Slots in the original recording.
    pub fn original_slots(&self) -> usize {
        self.original_slots
    }

    /// The optimized step that computes original step `step`'s bits
    /// (`None` if a DSE pass dropped it as dead).
    pub fn step_target(&self, step: usize) -> Option<usize> {
        self.step_map.get(step).copied().flatten()
    }

    /// The optimized slot holding original slot `slot`'s bits (`None`
    /// for slots dropped with their dead steps).
    pub fn slot_target(&self, slot: SlotId) -> Option<SlotId> {
        self.slot_map.get(slot.0).copied().flatten()
    }

    /// The optimized step standing for the original recording's final
    /// step — the root a [`RootPolicy::FinalOutput`] DSE keeps, and the
    /// step [`final_output`](Self::final_output) reads.
    pub fn final_step(&self) -> Option<usize> {
        self.original_steps
            .checked_sub(1)
            .and_then(|last| self.step_map[last])
    }

    /// The optimized plan's cache identity — the *post*-optimization
    /// structural hash plus input fingerprint, which is what a plan
    /// cache should key on: differently-recorded but
    /// post-optimization-identical plans collide here and can share one
    /// cached result.
    pub fn cache_key(&self) -> PlanKey {
        self.plan.cache_key()
    }

    /// Original step `step`'s output, read from a replay of the
    /// *optimized* plan through the step map. Bit-identical to the
    /// unoptimized replay's `step_output(step)` whenever the map still
    /// reaches the step.
    pub fn step_output<'r>(&self, replay: &'r Replay, step: usize) -> Option<&'r Matrix> {
        self.step_target(step).map(|j| replay.step_output(j))
    }

    /// The original recording's final output, read from a replay of the
    /// optimized plan — bit-identical to the unoptimized replay's
    /// [`Replay::final_output`].
    pub fn final_output<'r>(&self, replay: &'r Replay) -> Option<&'r Matrix> {
        self.final_step().map(|j| replay.step_output(j))
    }

    /// Replaces the plan and composes the pass-local maps into the
    /// running original→optimized maps.
    fn compose(&mut self, plan: Plan, slot_map: Vec<Option<SlotId>>, step_map: Vec<Option<usize>>) {
        for m in &mut self.slot_map {
            *m = m.and_then(|s| slot_map[s.0]);
        }
        for m in &mut self.step_map {
            *m = m.and_then(|j| step_map[j]);
        }
        self.plan = plan;
    }
}

/// One `Plan -> Plan` transformation. A pass mutates the
/// [`OptimizedPlan`] in place — rewriting the plan and composing its
/// own local remap into the artifact's original→optimized maps — and
/// reports what it did. The contract every pass must keep: for each
/// original step the composed step map still reaches, the optimized
/// plan's replay produces that step's exact recorded bits (on the
/// recording backend's bit-identity class).
pub trait PlanPass {
    /// Short stable pass name, reported in [`PassStats`].
    fn name(&self) -> &'static str;

    /// Transforms the plan, returning what changed.
    fn run(&self, optimized: &mut OptimizedPlan) -> PassStats;
}

/// Common-subexpression elimination.
///
/// Every slot gets a *canonical content class*: inputs are their own
/// class (the recorder's interning already merged bit-identical
/// inputs), a step output with a [twin](Plan::slot_twin) joins its
/// twin's class, and a merged step's output joins its representative's
/// class. Steps are keyed on `(op, class(a), class(b), class(c))`; a
/// step whose key was seen before merges into the earlier step:
/// readers of its output are rewired to the representative's output
/// slot, and the step and its output slot are dropped.
///
/// Canonicalisation is used for *keying only* — surviving steps keep
/// their recorded operand slots, so no rewiring happens beyond what a
/// merge requires. Inputs that differ in any exact f32 bit (e.g. values
/// that collide only after fp16 quantisation) are never identified.
#[derive(Clone, Copy, Debug, Default)]
pub struct CsePass;

impl PlanPass for CsePass {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&self, optimized: &mut OptimizedPlan) -> PassStats {
        let plan = &optimized.plan;
        let n_slots = plan.slots.len();
        let n_steps = plan.steps.len();
        // Canonical content class per slot, seeded from the record-time
        // twin links (a twin always points strictly earlier, so the
        // class of the target is final when we read it).
        let mut class: Vec<usize> = (0..n_slots).collect();
        for i in 0..n_slots {
            if let Some(t) = plan.slots[i].twin {
                class[i] = class[t.0];
            }
        }
        let mut seen: HashMap<(OpKind, usize, usize, usize), usize> = HashMap::new();
        let mut keep = vec![true; n_steps];
        let mut rep: Vec<usize> = (0..n_steps).collect();
        for (j, step) in plan.steps.iter().enumerate() {
            let key = (step.op, class[step.a.0], class[step.b.0], class[step.c.0]);
            match seen.get(&key) {
                Some(&i) => {
                    keep[j] = false;
                    rep[j] = i;
                    // The merged step's output joins its
                    // representative's content class.
                    class[step.d.0] = class[plan.steps[i].d.0];
                }
                None => {
                    seen.insert(key, j);
                }
            }
        }
        let merged = keep.iter().filter(|&&k| !k).count();
        if merged == 0 {
            return PassStats {
                pass: self.name(),
                ..PassStats::default()
            };
        }
        // Merged steps' output slots are dropped; readers redirect to
        // the representative's output slot. Everything else compacts.
        let mut merged_output: Vec<Option<usize>> = vec![None; n_slots];
        for (j, step) in plan.steps.iter().enumerate() {
            if !keep[j] {
                merged_output[step.d.0] = Some(rep[j]);
            }
        }
        let mut slot_map: Vec<Option<SlotId>> = vec![None; n_slots];
        let mut next = 0usize;
        for i in 0..n_slots {
            if merged_output[i].is_none() {
                slot_map[i] = Some(SlotId(next));
                next += 1;
            }
        }
        for i in 0..n_slots {
            if let Some(r) = merged_output[i] {
                // The representative (a kept step) precedes the merged
                // step, so its output slot survived and is mapped.
                slot_map[i] = slot_map[plan.steps[r].d.0];
            }
        }
        let mut step_map: Vec<Option<usize>> = vec![None; n_steps];
        let mut new_steps = Vec::with_capacity(n_steps - merged);
        for (j, step) in plan.steps.iter().enumerate() {
            if keep[j] {
                step_map[j] = Some(new_steps.len());
                new_steps.push(*step);
            }
        }
        for j in 0..n_steps {
            if step_map[j].is_none() {
                step_map[j] = step_map[rep[j]];
            }
        }
        let remap = |s: SlotId| slot_map[s.0].expect("surviving slots are mapped");
        for s in &mut new_steps {
            s.a = remap(s.a);
            s.b = remap(s.b);
            s.c = remap(s.c);
            s.d = remap(s.d);
        }
        let mut new_slots = Vec::with_capacity(next);
        for (i, slot) in plan.slots.iter().enumerate() {
            if merged_output[i].is_some() {
                continue;
            }
            let mut s = slot.clone();
            if let SlotOrigin::Step(j) = s.origin {
                s.origin = SlotOrigin::Step(step_map[j].expect("kept steps are mapped"));
            }
            s.twin = s.twin.and_then(|t| slot_map[t.0]);
            new_slots.push(s);
        }
        let new_plan = Plan {
            slots: new_slots,
            steps: new_steps,
            precision: plan.precision,
        };
        optimized.compose(new_plan, slot_map, step_map);
        PassStats {
            pass: self.name(),
            steps_merged: merged,
            ..PassStats::default()
        }
    }
}

/// Which steps a [`DsePass`] treats as live output roots.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum RootPolicy {
    /// Every leaf step — one whose output no other step reads — is a
    /// root. The safe default: every visible result of the plan
    /// (including each constituent of a [`Plan::merge`]) stays
    /// reachable, and only work orphaned by earlier passes dies.
    #[default]
    Leaves,
    /// Only the step the original recording's final output maps to
    /// ([`OptimizedPlan::final_step`]). The aggressive policy for
    /// consumers whose contract is the final output alone (the serving
    /// layer): a guaranteed consequence is that the root becomes the
    /// optimized plan's unique deepest step, so
    /// [`Replay::final_output`] on the optimized plan equals the
    /// original final output.
    FinalOutput,
    /// Explicit root steps, as indices of the plan this pass sees —
    /// the retention seam for callers that must keep intermediate
    /// steps observable (e.g. checkpoint consumers reading per-step
    /// outputs). Out-of-range indices are ignored.
    Steps(Vec<usize>),
}

/// Dead-step elimination: drops every step not transitively reachable
/// from the configured [`RootPolicy`] roots through read-after-write
/// edges, along with slots only dead steps used.
#[derive(Clone, Debug, Default)]
pub struct DsePass {
    policy: RootPolicy,
}

impl DsePass {
    /// A DSE pass rooted by `policy`.
    pub fn new(policy: RootPolicy) -> Self {
        Self { policy }
    }
}

impl PlanPass for DsePass {
    fn name(&self) -> &'static str {
        "dse"
    }

    fn run(&self, optimized: &mut OptimizedPlan) -> PassStats {
        let plan = &optimized.plan;
        let n_steps = plan.steps.len();
        let none = PassStats {
            pass: self.name(),
            ..PassStats::default()
        };
        if n_steps == 0 {
            return none;
        }
        let deps = plan.dependencies();
        let mut stack: Vec<usize> = match &self.policy {
            RootPolicy::Leaves => {
                let mut read = vec![false; n_steps];
                for d in &deps {
                    for &p in d {
                        read[p] = true;
                    }
                }
                (0..n_steps).filter(|&j| !read[j]).collect()
            }
            RootPolicy::FinalOutput => optimized.final_step().into_iter().collect(),
            RootPolicy::Steps(roots) => roots.iter().copied().filter(|&j| j < n_steps).collect(),
        };
        let mut live = vec![false; n_steps];
        while let Some(j) = stack.pop() {
            if live[j] {
                continue;
            }
            live[j] = true;
            stack.extend(deps[j].iter().copied());
        }
        let eliminated = live.iter().filter(|&&l| !l).count();
        if eliminated == 0 {
            return none;
        }
        let n_slots = plan.slots.len();
        let mut keep_slot = vec![false; n_slots];
        for (j, step) in plan.steps.iter().enumerate() {
            if live[j] {
                for s in [step.a, step.b, step.c, step.d] {
                    keep_slot[s.0] = true;
                }
            }
        }
        let mut slot_map: Vec<Option<SlotId>> = vec![None; n_slots];
        let mut next = 0usize;
        for i in 0..n_slots {
            if keep_slot[i] {
                slot_map[i] = Some(SlotId(next));
                next += 1;
            }
        }
        let mut step_map: Vec<Option<usize>> = vec![None; n_steps];
        let mut new_steps = Vec::new();
        for (j, step) in plan.steps.iter().enumerate() {
            if live[j] {
                step_map[j] = Some(new_steps.len());
                let mut s = *step;
                let remap = |s: SlotId| slot_map[s.0].expect("live steps' slots are kept");
                s.a = remap(s.a);
                s.b = remap(s.b);
                s.c = remap(s.c);
                s.d = remap(s.d);
                new_steps.push(s);
            }
        }
        let mut new_slots = Vec::with_capacity(next);
        for (i, slot) in plan.slots.iter().enumerate() {
            if !keep_slot[i] {
                continue;
            }
            let mut s = slot.clone();
            if let SlotOrigin::Step(j) = s.origin {
                s.origin =
                    SlotOrigin::Step(step_map[j].expect("kept outputs come from live steps"));
            }
            s.twin = s.twin.and_then(|t| slot_map[t.0]);
            new_slots.push(s);
        }
        let new_plan = Plan {
            slots: new_slots,
            steps: new_steps,
            precision: plan.precision,
        };
        optimized.compose(new_plan, slot_map, step_map);
        PassStats {
            pass: self.name(),
            steps_eliminated: eliminated,
            ..PassStats::default()
        }
    }
}

/// An ordered sequence of passes with aggregate telemetry: runs each
/// pass, folds its [`PassStats`] into one [`PassReport`], and bumps the
/// process-global `core.pass.*` counters.
pub struct PassPipeline {
    passes: Vec<Box<dyn PlanPass>>,
}

impl std::fmt::Debug for PassPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassPipeline")
            .field(
                "passes",
                &self.passes.iter().map(|p| p.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Default for PassPipeline {
    fn default() -> Self {
        Self::standard()
    }
}

impl PassPipeline {
    /// A pipeline running `passes` in order.
    pub fn new(passes: Vec<Box<dyn PlanPass>>) -> Self {
        Self { passes }
    }

    /// The standard pipeline: CSE → DSE (leaf roots, so every visible
    /// result survives). The safe default for general replays,
    /// including merged multi-recording plans.
    pub fn standard() -> Self {
        Self::new(vec![
            Box::new(CsePass),
            Box::new(DsePass::new(RootPolicy::Leaves)),
        ])
    }

    /// The serving pipeline: like [`standard`](Self::standard) but DSE
    /// is rooted at the final output alone
    /// ([`RootPolicy::FinalOutput`]) — the serving layer's contract is
    /// the final output, and this policy guarantees the optimized
    /// plan's own [`Replay::final_output`] equals the original's (every
    /// surviving step feeds the root, so it is the last one).
    pub fn serving() -> Self {
        Self::new(vec![
            Box::new(CsePass),
            Box::new(DsePass::new(RootPolicy::FinalOutput)),
        ])
    }

    /// The [`standard`](Self::standard) pipeline, under the name callers
    /// that once opted into representation lowering still use: the
    /// engine walks sparse operands without a pass declaring them.
    pub fn sparse() -> Self {
        Self::standard()
    }

    /// The configured passes' names, in order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass over `plan` and returns the optimized artifact.
    pub fn run(&self, plan: Plan) -> OptimizedPlan {
        let mut optimized = OptimizedPlan::identity(plan);
        for pass in &self.passes {
            let stats = pass.run(&mut optimized);
            let report = &mut optimized.report;
            report.steps_merged += stats.steps_merged;
            report.steps_eliminated += stats.steps_eliminated;
            report.passes.push(stats);
        }
        optimized.report.steps_after = optimized.plan.step_count();
        let report = &optimized.report;
        PASS_RUNS.add(1);
        PASS_STEPS_MERGED.add(report.steps_merged as u64);
        PASS_STEPS_ELIMINATED.add(report.steps_eliminated as u64);
        optimized
    }
}

impl Executor {
    /// Replays an [`OptimizedPlan`]: runs the optimized plan exactly
    /// like [`run`](Executor::run). Read original-indexed outputs back
    /// through [`OptimizedPlan::step_output`] /
    /// [`OptimizedPlan::final_output`].
    ///
    /// # Errors
    ///
    /// Exactly those of [`run`](Executor::run).
    pub fn run_optimized<B: Backend>(
        &self,
        optimized: &OptimizedPlan,
        backend: &mut B,
    ) -> Result<Replay, ReplayError> {
        self.run(&optimized.plan, backend)
    }
}

/// A recording frontend that optimizes on finish: wraps a
/// [`PlanBuilder`] (so it is itself a [`Backend`] any algorithm records
/// through, observationally identical to the eager run) and pipes the
/// finished plan through a [`PassPipeline`]. Obtained from
/// [`Simd2Context::record_optimized`](crate::Simd2Context::record_optimized).
#[derive(Debug)]
pub struct OptimizingRecorder<'b, B: Backend> {
    builder: PlanBuilder<'b, B>,
    pipeline: PassPipeline,
}

impl<'b, B: Backend> OptimizingRecorder<'b, B> {
    /// Starts recording over `backend` with the
    /// [standard](PassPipeline::standard) pipeline.
    pub fn over(backend: &'b mut B) -> Self {
        Self::with_pipeline(backend, PassPipeline::standard())
    }

    /// Starts recording over `backend` with a specific pipeline.
    pub fn with_pipeline(backend: &'b mut B, pipeline: PassPipeline) -> Self {
        Self {
            builder: PlanBuilder::over(backend),
            pipeline,
        }
    }

    /// The number of steps recorded so far (pre-optimization).
    pub fn recorded_steps(&self) -> usize {
        self.builder.recorded_steps()
    }

    /// Finishes recording and runs the pipeline over the plan.
    pub fn finish(self) -> OptimizedPlan {
        self.pipeline.run(self.builder.finish())
    }
}

impl<B: Backend> Backend for OptimizingRecorder<'_, B> {
    fn name(&self) -> &'static str {
        self.builder.name()
    }

    fn precision(&self) -> PrecisionMode {
        self.builder.precision()
    }

    fn execute(&mut self, step: &MmoArgs<'_>, schedule: Schedule) -> Result<Matrix, BackendError> {
        self.builder.execute(step, schedule)
    }

    fn health(&self) -> Health {
        self.builder.health()
    }

    fn degrade(&mut self, rung: Degrade) -> bool {
        self.builder.degrade(rung)
    }

    fn op_count(&self) -> OpCount {
        self.builder.op_count()
    }

    fn reset_count(&mut self) {
        self.builder.reset_count();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::TiledBackend;
    use simd2_matrix::gen;

    fn bit_eq(x: &Matrix, y: &Matrix) -> bool {
        x.shape() == y.shape()
            && x.as_slice()
                .iter()
                .zip(y.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// A recording that evaluates the same subexpression twice: the
    /// duplicate merges, and the downstream reader follows it.
    fn record_with_duplicate(op: OpKind) -> (Plan, Vec<Matrix>) {
        let a = gen::random_operands_for(op, 40, 40, 1);
        let b = gen::random_operands_for(op, 40, 40, 2);
        let c = Matrix::filled(40, 40, op.reduce_identity_f32());
        let mut be = TiledBackend::new();
        let mut rec = PlanBuilder::over(&mut be);
        let d0 = rec.mmo(op, &a, &b, &c).unwrap();
        let d1 = rec.mmo(op, &a, &b, &c).unwrap(); // duplicate of d0
        let d2 = rec.mmo(op, &d1, &b, &c).unwrap();
        (rec.finish(), vec![d0, d1, d2])
    }

    #[test]
    fn cse_merges_duplicate_recordings_and_maps_outputs() {
        let (plan, eager) = record_with_duplicate(OpKind::MinPlus);
        assert_eq!(plan.step_count(), 3);
        let optimized = PassPipeline::standard().run(plan);
        assert_eq!(optimized.report().steps_merged, 1);
        assert_eq!(optimized.plan().step_count(), 2);
        let mut be = TiledBackend::new();
        let replay = Executor::new().run_optimized(&optimized, &mut be).unwrap();
        for (i, want) in eager.iter().enumerate() {
            assert!(
                bit_eq(optimized.step_output(&replay, i).unwrap(), want),
                "step {i}"
            );
        }
        assert!(bit_eq(optimized.final_output(&replay).unwrap(), &eager[2]));
        assert_eq!(be.op_count(), optimized.plan().predicted_op_count());
    }

    #[test]
    fn duplicate_and_clean_recordings_optimize_to_equal_keys() {
        let (dup, _) = record_with_duplicate(OpKind::MaxMin);
        let op = OpKind::MaxMin;
        let a = gen::random_operands_for(op, 40, 40, 1);
        let b = gen::random_operands_for(op, 40, 40, 2);
        let c = Matrix::filled(40, 40, op.reduce_identity_f32());
        let mut be = TiledBackend::new();
        let mut rec = PlanBuilder::over(&mut be);
        let d0 = rec.mmo(op, &a, &b, &c).unwrap();
        rec.mmo(op, &d0, &b, &c).unwrap();
        let clean = rec.finish();
        let pipeline = PassPipeline::standard();
        let dup_opt = pipeline.run(dup);
        let clean_opt = pipeline.run(clean);
        assert_eq!(dup_opt.cache_key(), clean_opt.cache_key());
        assert_ne!(
            dup_opt.cache_key().structural,
            clean_opt.report().steps_merged as u64,
            "sanity: key is a real hash"
        );
    }

    #[test]
    fn convergence_free_closure_tail_merges_via_twins() {
        use crate::solve::{closure, ClosureAlgorithm};
        let op = OpKind::MinPlus;
        let adj = gen::gnp_graph(24, 0.4, 1.0, 8.0, 7).adjacency(op);
        let mut be = TiledBackend::new();
        let mut rec = PlanBuilder::over(&mut be);
        let full = closure(&mut rec, op, &adj, ClosureAlgorithm::BellmanFord, false).unwrap();
        let plan = rec.finish();
        let optimized = PassPipeline::standard().run(plan);
        assert!(
            optimized.report().steps_merged > 0,
            "post-fixed-point relaxations must merge: {:?}",
            optimized.report()
        );
        let mut replay_be = TiledBackend::new();
        let replay = Executor::new()
            .run_optimized(&optimized, &mut replay_be)
            .unwrap();
        assert!(bit_eq(
            optimized.final_output(&replay).unwrap(),
            &full.closure
        ));
    }

    #[test]
    fn leaves_policy_keeps_every_merged_plan_output() {
        let op_a = OpKind::PlusMul;
        let op_b = OpKind::MinPlus;
        let record = |op: OpKind| {
            let a = gen::random_operands_for(op, 24, 24, 3);
            let c = Matrix::filled(24, 24, op.reduce_identity_f32());
            let mut be = TiledBackend::new();
            let mut rec = PlanBuilder::over(&mut be);
            let d = rec.mmo(op, &a, &a, &c).unwrap();
            (rec.finish(), d)
        };
        let (pa, da) = record(op_a);
        let (pb, db) = record(op_b);
        let merged = Plan::merge([pa, pb]);
        let optimized = PassPipeline::standard().run(merged);
        assert_eq!(optimized.report().steps_eliminated, 0);
        let mut be = TiledBackend::new();
        let replay = Executor::new().run_optimized(&optimized, &mut be).unwrap();
        assert!(bit_eq(optimized.step_output(&replay, 0).unwrap(), &da));
        assert!(bit_eq(optimized.step_output(&replay, 1).unwrap(), &db));
    }

    #[test]
    fn sparse_pipeline_is_identity_on_dense_plans() {
        // The sparse pipeline is the standard one: same report, same
        // cache identity.
        let (plan, _) = record_with_duplicate(OpKind::MinPlus);
        let standard = PassPipeline::standard().run(plan.clone());
        let sparse = PassPipeline::sparse().run(plan);
        assert_eq!(sparse.report().slots_relowered, 0);
        assert_eq!(standard.cache_key(), sparse.cache_key());
    }

    #[test]
    fn pipeline_bumps_process_counters() {
        let before = (super::PASS_RUNS.get(), super::PASS_STEPS_MERGED.get());
        let (plan, _) = record_with_duplicate(OpKind::OrAnd);
        let optimized = PassPipeline::standard().run(plan);
        assert!(optimized.report().changed());
        assert!(super::PASS_RUNS.get() > before.0);
        assert!(super::PASS_STEPS_MERGED.get() > before.1);
    }
}
