//! Plan IR: record once, lower anywhere.
//!
//! Historically every consumer of an algorithm's matrix-operation
//! sequence maintained its own shadow of it — the functional backends
//! executed it eagerly, the ISA path rebuilt the instruction stream
//! inline, and the timing layer hand-derived each application's
//! iteration structure. This module replaces those shadows with one
//! recorded artifact: a [`Plan`] is an ordered list of MMO steps
//! (`D = C ⊕ (A ⊗ B)` over a small slot arena) with recorded shape
//! metadata and a dependency summary, built by running an unmodified
//! algorithm against a [`PlanBuilder`] — a recording [`Backend`] that
//! delegates to a real one, so data-dependent control flow (convergence
//! checks) records exactly the steps that actually ran.
//!
//! A single [`Executor`] then lowers a plan onto any [`Backend`], one
//! [`Backend::execute`] call per step, bit-identical to the eager run.
//! The same plan also compiles to per-warp ISA kernels
//! ([`Plan::compile`]) and exports shape-level traces ([`Plan::traces`])
//! that drive the GPU pipeline cost model — one recording, three
//! lowerings.

pub mod passes;

use std::collections::HashMap;

use simd2_gpu::MmoTrace;
use simd2_matrix::Matrix;
use simd2_mxu::PrecisionMode;
use simd2_semiring::OpKind;
use simd2_trace::{field, span, Tracer};

use crate::backend::{Backend, Degrade, Health, MmoArgs, OpCount, Schedule};
use crate::error::BackendError;
use crate::program::{compile_mmo, CompiledKernel};

/// Index of a value slot in a plan's arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(usize);

impl SlotId {
    /// The slot's arena index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Where a slot's value comes from at replay time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotOrigin {
    /// An external operand captured at record time.
    Input,
    /// The output of the step with this index.
    Step(usize),
}

/// One value slot: its shape, provenance, and (for inputs) the captured
/// value. Step outputs are *not* stored — they are recomputed at replay,
/// which is what makes replay a real execution rather than a lookup.
#[derive(Clone, Debug)]
struct Slot {
    shape: (usize, usize),
    origin: SlotOrigin,
    value: Option<Matrix>,
    /// Earliest slot whose recorded content was bit-identical to this
    /// one (`None` when this slot's bits were novel at record time).
    /// Only step outputs carry twins — interning already dedups inputs —
    /// and the link is what lets the CSE pass recognise the
    /// post-fixed-point steps of a convergence-free closure as
    /// redundant. Twins are value-derived, so they are deliberately
    /// excluded from [`Plan::structural_hash`].
    twin: Option<SlotId>,
}

/// One recorded `D = C ⊕ (A ⊗ B)` step over the slot arena. Slots are
/// SSA: every step writes a fresh output slot, so the dependency summary
/// is exactly "which steps produced my operands".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// Semiring operation.
    pub op: OpKind,
    /// Left operand (`m×k`).
    pub a: SlotId,
    /// Right operand (`k×n`).
    pub b: SlotId,
    /// Accumulator (`m×n`).
    pub c: SlotId,
    /// Output (`m×n`, always a fresh slot).
    pub d: SlotId,
}

/// A recorded program of matrix operations: the single artifact the
/// functional, ISA and timing lowerings all consume. Built by a
/// [`PlanBuilder`]; executed by an [`Executor`].
#[derive(Clone, Debug, Default)]
pub struct Plan {
    slots: Vec<Slot>,
    steps: Vec<Step>,
    precision: PrecisionMode,
}

/// `mode` as [`Plan::structural_hash`] mixes it in, coarser modes
/// higher: `0` / `1` for fp32 / fp16, the values the `bool` this field
/// replaced hashed to.
fn precision_rank(mode: PrecisionMode) -> u64 {
    match mode {
        PrecisionMode::Fp32Input => 0,
        PrecisionMode::Fp16Input => 1,
        PrecisionMode::Int8Input => 2,
    }
}

impl Plan {
    /// Number of recorded steps.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Number of value slots (inputs + one output per step).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Whether the plan records no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The recorded steps, in execution order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The precision the recording backend rounded operands to.
    pub fn precision(&self) -> PrecisionMode {
        self.precision
    }

    /// Whether the recording backend rounded operands below fp32.
    pub fn reduced_precision(&self) -> bool {
        self.precision != PrecisionMode::Fp32Input
    }

    /// A slot's recorded `(rows, cols)` shape.
    pub fn slot_shape(&self, slot: SlotId) -> (usize, usize) {
        self.slots[slot.0].shape
    }

    /// A slot's provenance.
    pub fn slot_origin(&self, slot: SlotId) -> SlotOrigin {
        self.slots[slot.0].origin
    }

    /// The captured value of an input slot (`None` for step outputs).
    pub fn input_value(&self, slot: SlotId) -> Option<&Matrix> {
        self.slots[slot.0].value.as_ref()
    }

    /// The earliest slot whose recorded content was bit-identical to
    /// `slot`'s, if the recorder observed one — the content-equality
    /// link [`passes::CsePass`] canonicalises operands through. Twins
    /// hold on the recording backend's bit-identity class and are not
    /// part of the structural hash.
    pub fn slot_twin(&self, slot: SlotId) -> Option<SlotId> {
        self.slots[slot.0].twin
    }

    /// Every input slot, in arena order — the slots whose captured
    /// values a replay starts from (admission layers size quotas on
    /// them).
    pub fn input_slots(&self) -> Vec<SlotId> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.origin, SlotOrigin::Input))
            .map(|(i, _)| SlotId(i))
            .collect()
    }

    /// Per-step dependency summary: for each step, the (sorted,
    /// deduplicated) indices of earlier steps whose outputs it reads.
    /// Slots are SSA, so these are pure read-after-write edges.
    pub fn dependencies(&self) -> Vec<Vec<usize>> {
        self.steps
            .iter()
            .map(|s| {
                let mut deps: Vec<usize> = [s.a, s.b, s.c]
                    .iter()
                    .filter_map(|&sl| match self.slots[sl.0].origin {
                        SlotOrigin::Step(i) => Some(i),
                        SlotOrigin::Input => None,
                    })
                    .collect();
                deps.sort_unstable();
                deps.dedup();
                deps
            })
            .collect()
    }

    /// Topological dispatch levels: wave `w` holds the (ascending) step
    /// indices whose dependencies all completed in waves `< w`. Steps
    /// within one wave are mutually independent; replay dispatches them
    /// one by one, wave after wave.
    pub fn waves(&self) -> Vec<Vec<usize>> {
        let deps = self.dependencies();
        let mut level = vec![0usize; self.steps.len()];
        let mut waves: Vec<Vec<usize>> = Vec::new();
        for i in 0..self.steps.len() {
            let l = deps[i].iter().map(|&p| level[p] + 1).max().unwrap_or(0);
            level[i] = l;
            if waves.len() <= l {
                waves.resize(l + 1, Vec::new());
            }
            waves[l].push(i);
        }
        waves
    }

    /// A step's `(m, n, k)` geometry, from its operand slot shapes.
    pub fn step_geometry(&self, step: usize) -> (usize, usize, usize) {
        let s = &self.steps[step];
        let (m, k) = self.slots[s.a.0].shape;
        let (_, n) = self.slots[s.b.0].shape;
        (m, n, k)
    }

    /// Exports the plan as shape-level [`MmoTrace`] records — the form
    /// the GPU pipeline cost model replays
    /// ([`simd2_gpu::simulate_trace`]), so timing is derived from the
    /// recorded algorithm instead of a hand-maintained op sequence.
    pub fn traces(&self) -> Vec<MmoTrace> {
        (0..self.steps.len())
            .map(|i| {
                let (m, n, k) = self.step_geometry(i);
                MmoTrace::new(self.steps[i].op, m, n, k)
            })
            .collect()
    }

    /// Lowers every step to a `warps`-wide ISA kernel
    /// ([`compile_mmo`]) — the instruction streams the warp-level
    /// executor and the pipeline simulator both consume.
    ///
    /// # Panics
    ///
    /// Panics if `warps == 0`.
    pub fn compile(&self, warps: usize) -> Vec<CompiledKernel> {
        (0..self.steps.len())
            .map(|i| {
                let (m, n, k) = self.step_geometry(i);
                compile_mmo(self.steps[i].op, m, n, k, warps)
            })
            .collect()
    }

    /// The tile-operation counters a full replay of this plan performs,
    /// predicted from recorded shapes alone — equal to the replaying
    /// backend's [`OpCount`] delta.
    pub fn predicted_op_count(&self) -> OpCount {
        let mut count = OpCount::default();
        for trace in self.traces() {
            count.matrix_mmos += 1;
            count.tile_mmos += trace.tile_mmos() as u64;
            count.tile_loads += (2 * trace.tile_mmos() + trace.output_tiles()) as u64;
            count.tile_stores += trace.output_tiles() as u64;
        }
        count
    }

    /// FNV-1a over the plan's *structure*: step ops and operand slot
    /// wiring, slot shapes and origins, and the recording precision —
    /// but not input content. Two plans recorded independently from the
    /// same algorithm run hash equal even though their captured input
    /// matrices are distinct allocations.
    pub fn structural_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        h = fnv_mix(h, precision_rank(self.precision));
        h = fnv_mix(h, self.slots.len() as u64);
        for slot in &self.slots {
            h = fnv_mix(h, slot.shape.0 as u64);
            h = fnv_mix(h, slot.shape.1 as u64);
            h = fnv_mix(
                h,
                match slot.origin {
                    SlotOrigin::Input => 0,
                    SlotOrigin::Step(i) => 1 + i as u64,
                },
            );
        }
        h = fnv_mix(h, self.steps.len() as u64);
        for step in &self.steps {
            for byte in step.op.name().bytes() {
                h = fnv_mix(h, u64::from(byte));
            }
            for slot in [step.a, step.b, step.c, step.d] {
                h = fnv_mix(h, slot.0 as u64);
            }
        }
        h
    }

    /// FNV-1a over every captured input slot's exact element bits (in
    /// slot order). Flipping any single bit of any input changes the
    /// fingerprint, so a cache keyed on [`Plan::cache_key`] can never
    /// serve a stale result for perturbed inputs.
    pub fn input_fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(value) = &slot.value {
                h = fnv_mix(h, i as u64);
                h = fnv_mix(h, content_hash(value));
            }
        }
        h
    }

    /// The plan's cache identity: [`structural_hash`](Self::structural_hash)
    /// plus [`input_fingerprint`](Self::input_fingerprint).
    pub fn cache_key(&self) -> PlanKey {
        PlanKey {
            structural: self.structural_hash(),
            inputs: self.input_fingerprint(),
        }
    }

    /// Merges several plans into one: slots and step indices are
    /// renumbered plan-by-plan, and no cross-plan edges are introduced,
    /// so steps from different plans land in the same waves — the
    /// fan-out path for running independent recordings through one
    /// replay. The merged plan records the coarsest precision of its
    /// constituents.
    pub fn merge<I: IntoIterator<Item = Plan>>(plans: I) -> Plan {
        let mut merged = Plan {
            precision: PrecisionMode::Fp32Input,
            ..Plan::default()
        };
        for plan in plans {
            let slot_base = merged.slots.len();
            let step_base = merged.steps.len();
            if precision_rank(plan.precision) > precision_rank(merged.precision) {
                merged.precision = plan.precision;
            }
            for mut slot in plan.slots {
                if let SlotOrigin::Step(i) = slot.origin {
                    slot.origin = SlotOrigin::Step(i + step_base);
                }
                slot.twin = slot.twin.map(|t| SlotId(t.0 + slot_base));
                merged.slots.push(slot);
            }
            for step in plan.steps {
                let shift = |s: SlotId| SlotId(s.0 + slot_base);
                merged.steps.push(Step {
                    op: step.op,
                    a: shift(step.a),
                    b: shift(step.b),
                    c: shift(step.c),
                    d: shift(step.d),
                });
            }
        }
        merged
    }
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a mixing round.
pub(crate) fn fnv_mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// FNV-1a over a matrix's shape and exact element bits — the interning
/// key the recorder uses to recover dependency edges from operand
/// identity, and the per-input word of [`Plan::input_fingerprint`].
fn content_hash(m: &Matrix) -> u64 {
    let mut h = FNV_OFFSET;
    for word in [m.rows() as u64, m.cols() as u64]
        .into_iter()
        .chain(m.as_slice().iter().map(|v| u64::from(v.to_bits())))
    {
        h = fnv_mix(h, word);
    }
    h
}

/// Cache identity of a recorded plan: the hash of its step *structure*
/// plus a fingerprint of every captured input's exact bits.
///
/// Replay is deterministic, so two plans with equal keys replay
/// bit-identically on the same backend configuration — which is what
/// makes caching replay results on this key sound. The serving layer's
/// plan cache (`simd2-serve`) uses it as its map key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanKey {
    /// [`Plan::structural_hash`]: ops, slot wiring, shapes, origins,
    /// recording precision — everything except input content.
    pub structural: u64,
    /// [`Plan::input_fingerprint`]: the captured input slots' bits.
    pub inputs: u64,
}

/// A recording frontend: a [`Backend`] that executes every operation
/// through an inner backend *and* appends it to a [`Plan`]. Because the
/// real backend runs underneath, recorded programs with data-dependent
/// control flow (convergence loops) capture exactly the steps that
/// executed, and recording is observationally identical to the eager
/// path — same outputs, same counters, same telemetry.
///
/// Operands are interned by content (exact bits): an operand that equals
/// a previous step's output becomes a read of that step's slot, which is
/// how dependency edges are recovered without any API change in the
/// recorded algorithm. When several slots hold bit-identical content the
/// most recent one wins — replay values are unaffected (the contents are
/// equal by construction).
#[derive(Debug)]
pub struct PlanBuilder<'b, B: Backend> {
    backend: &'b mut B,
    plan: Plan,
    /// Transient value of every slot (inputs *and* step outputs), used
    /// only for interning during recording.
    values: Vec<Matrix>,
    index: HashMap<u64, Vec<SlotId>>,
}

impl<'b, B: Backend> PlanBuilder<'b, B> {
    /// Starts recording over `backend`.
    pub fn over(backend: &'b mut B) -> Self {
        let precision = backend.precision();
        Self {
            backend,
            plan: Plan {
                precision,
                ..Plan::default()
            },
            values: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Finishes recording and returns the plan.
    pub fn finish(self) -> Plan {
        self.plan
    }

    /// The number of steps recorded so far.
    pub fn recorded_steps(&self) -> usize {
        self.plan.step_count()
    }

    /// Interns `m`: returns the most recent slot with bit-identical
    /// content, or captures it as a fresh input slot.
    fn intern(&mut self, m: &Matrix) -> SlotId {
        let h = content_hash(m);
        if let Some(candidates) = self.index.get(&h) {
            for &slot in candidates.iter().rev() {
                let held = &self.values[slot.0];
                if held.shape() == m.shape()
                    && held
                        .as_slice()
                        .iter()
                        .zip(m.as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits())
                {
                    return slot;
                }
            }
        }
        let slot = SlotId(self.plan.slots.len());
        self.plan.slots.push(Slot {
            shape: m.shape(),
            origin: SlotOrigin::Input,
            value: Some(m.clone()),
            twin: None,
        });
        self.values.push(m.clone());
        self.index.entry(h).or_default().push(slot);
        slot
    }

    /// The *earliest* recorded slot whose content is bit-identical to
    /// `m`, if any — the twin link the CSE pass canonicalises through.
    /// (Interning wants the most recent match; twins want the first, so
    /// every bit-equal slot chains to one canonical root.)
    fn earliest_twin(&self, h: u64, m: &Matrix) -> Option<SlotId> {
        self.index.get(&h)?.iter().copied().find(|&slot| {
            let held = &self.values[slot.0];
            held.shape() == m.shape()
                && held
                    .as_slice()
                    .iter()
                    .zip(m.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        })
    }

    /// Registers a step's freshly computed output as a new slot.
    fn record_output(&mut self, d: &Matrix, step: usize) -> SlotId {
        let h = content_hash(d);
        let twin = self.earliest_twin(h, d);
        let slot = SlotId(self.plan.slots.len());
        self.plan.slots.push(Slot {
            shape: d.shape(),
            origin: SlotOrigin::Step(step),
            value: None,
            twin,
        });
        self.values.push(d.clone());
        self.index.entry(h).or_default().push(slot);
        slot
    }

    /// Appends the executed step `s`, whose output was `d`.
    fn record_mmo(&mut self, s: &MmoArgs<'_>, d: &Matrix) {
        let (sa, sb, sc) = (self.intern(s.a), self.intern(s.b), self.intern(s.c));
        let step = self.plan.steps.len();
        let sd = self.record_output(d, step);
        self.plan.steps.push(Step {
            op: s.op,
            a: sa,
            b: sb,
            c: sc,
            d: sd,
        });
    }
}

impl<B: Backend> Backend for PlanBuilder<'_, B> {
    fn name(&self) -> &'static str {
        self.backend.name()
    }

    fn precision(&self) -> PrecisionMode {
        self.backend.precision()
    }

    fn execute(&mut self, step: &MmoArgs<'_>, schedule: Schedule) -> Result<Matrix, BackendError> {
        // Execute first: the inner backend validates the step, and a
        // failed call records nothing, matching the counter/telemetry
        // convention everywhere else.
        let d = self.backend.execute(step, schedule)?;
        self.record_mmo(step, &d);
        Ok(d)
    }

    fn health(&self) -> Health {
        self.backend.health()
    }

    fn degrade(&mut self, rung: Degrade) -> bool {
        self.backend.degrade(rung)
    }

    fn op_count(&self) -> OpCount {
        self.backend.op_count()
    }

    fn reset_count(&mut self) {
        self.backend.reset_count();
    }
}

/// Why a replay halted at a step boundary.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplayHalt {
    /// The backend failed while executing the step.
    Backend(BackendError),
    /// A [`ReplayControl`] cancelled the replay before the step ran
    /// (deadline exceeded, shutdown requested, …). The step itself was
    /// never dispatched.
    Cancelled {
        /// The controller's stated reason, e.g. `"deadline"`.
        reason: String,
    },
    /// A resume was attempted with a [`PlanCheckpoint`] that does not
    /// belong to this plan: the checkpoint's [`PlanKey`] disagrees with
    /// the plan's, so replaying from it could splice another program's
    /// outputs into this one. Nothing was dispatched.
    Checkpoint {
        /// Why the checkpoint was rejected.
        reason: String,
    },
}

/// A failed [`Executor::run`]: what went wrong, pinned to the step that
/// died — a mid-replay error without the step index is useless to a
/// caller managing many plans. Every dispatch is one step, so the
/// attribution is exact.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayError {
    /// Index of the failing (or cancelled) step in the plan.
    pub step: usize,
    /// That step's output slot.
    pub slot: SlotId,
    /// Steps that completed before the halt.
    pub completed_steps: usize,
    /// What stopped the replay.
    pub halt: ReplayHalt,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.halt {
            ReplayHalt::Backend(e) => write!(
                f,
                "plan replay failed at step {} (slot {}): {e}",
                self.step,
                self.slot.index()
            ),
            ReplayHalt::Cancelled { reason } => write!(
                f,
                "plan replay cancelled before step {} after {} completed steps: {reason}",
                self.step, self.completed_steps
            ),
            ReplayHalt::Checkpoint { reason } => {
                write!(f, "plan resume rejected its checkpoint: {reason}")
            }
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.halt {
            ReplayHalt::Backend(e) => Some(e),
            ReplayHalt::Cancelled { .. } | ReplayHalt::Checkpoint { .. } => None,
        }
    }
}

impl ReplayError {
    /// The backend error, if the halt was a backend failure.
    pub fn backend_error(&self) -> Option<&BackendError> {
        match &self.halt {
            ReplayHalt::Backend(e) => Some(e),
            ReplayHalt::Cancelled { .. } | ReplayHalt::Checkpoint { .. } => None,
        }
    }

    /// Whether the halt was a [`ReplayControl`] cancellation.
    pub fn is_cancelled(&self) -> bool {
        matches!(self.halt, ReplayHalt::Cancelled { .. })
    }
}

/// Durable snapshot of a halted replay's completed work, at step
/// granularity: the outputs of every step that finished before the
/// halt, pinned to the plan's [`PlanKey`] identity.
///
/// Produced by [`Executor::run_resumable`] when a replay halts;
/// consumed by [`Executor::resume_from`], which re-seeds the slot arena
/// from these outputs and dispatches *only* the incomplete steps — so a
/// resume never re-executes completed work, and the concatenation of
/// the halted and resumed runs is bit-identical (outputs, op counters,
/// telemetry) to one uninterrupted replay.
///
/// Completion is step-exact, not wave-rounded: a halt midway through a
/// wave keeps that wave's finished prefix, and a later resume
/// dispatches just the remainder.
#[derive(Clone, Debug)]
pub struct PlanCheckpoint {
    key: PlanKey,
    total_steps: usize,
    completed: usize,
    /// `outputs[i]` holds step `i`'s output iff it completed.
    outputs: Vec<Option<Matrix>>,
    resumes: u64,
}

impl PlanCheckpoint {
    /// The [`PlanKey`] of the plan this checkpoint belongs to.
    /// [`Executor::resume_from`] refuses a checkpoint whose key
    /// disagrees with the plan it is handed.
    pub fn key(&self) -> PlanKey {
        self.key
    }

    /// Steps whose outputs the checkpoint holds.
    pub fn completed_steps(&self) -> usize {
        self.completed
    }

    /// Steps a resume still has to dispatch.
    pub fn remaining_steps(&self) -> usize {
        self.total_steps - self.completed
    }

    /// Total steps in the checkpointed plan.
    pub fn total_steps(&self) -> usize {
        self.total_steps
    }

    /// Whether step `step` completed before the halt.
    pub fn step_completed(&self, step: usize) -> bool {
        self.outputs.get(step).is_some_and(Option::is_some)
    }

    /// How many times this checkpoint lineage has been resumed (0 for a
    /// first halt; each halted resume increments it).
    pub fn resumes(&self) -> u64 {
        self.resumes
    }
}

/// A halted resumable replay: the step-attributed [`ReplayError`] plus
/// the [`PlanCheckpoint`] holding every completed step's output.
///
/// Boxed at the API surface ([`Executor::run_resumable`]) because the
/// checkpoint owns matrices — keeping the `Result`'s error arm pointer
/// sized.
#[derive(Clone, Debug)]
pub struct HaltedReplay {
    /// What stopped the replay, pinned to the step that died.
    pub error: ReplayError,
    /// The completed work, ready for [`Executor::resume_from`].
    pub checkpoint: PlanCheckpoint,
}

/// Progress snapshot handed to a [`ReplayControl`] before each step is
/// dispatched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayProgress {
    /// Index of the step about to execute.
    pub next_step: usize,
    /// Steps completed so far.
    pub completed_steps: usize,
    /// Total steps in the plan.
    pub total_steps: usize,
}

/// Step-boundary control hook consulted by
/// [`Executor::run_controlled`] before every dispatch: return `Err` to
/// cancel the replay with a [`ReplayHalt::Cancelled`]. This is the
/// executor's deadline/cancellation seam — a budget check here can
/// never hang mid-step, because it runs only between steps.
///
/// Implemented for any `FnMut(ReplayProgress) -> Result<(), String>`.
pub trait ReplayControl {
    /// Approve (`Ok`) or cancel (`Err(reason)`) the next dispatch.
    fn check(&mut self, progress: ReplayProgress) -> Result<(), String>;
}

impl<F: FnMut(ReplayProgress) -> Result<(), String>> ReplayControl for F {
    fn check(&mut self, progress: ReplayProgress) -> Result<(), String> {
        self(progress)
    }
}

/// Lowers recorded plans onto any [`Backend`] — the one execution engine
/// behind the functional, ISA and (via [`Plan::traces`]) timing paths.
#[derive(Clone, Debug, Default)]
pub struct Executor {
    tracer: Tracer,
}

impl Executor {
    /// The executor: steps replay one by one, wave after wave —
    /// bit-identical to the eager run that produced the plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// The same executor as [`new`](Self::new). Wave-batched dispatch is
    /// gone (every recorded workload's waves are one step wide); this
    /// constructor survives only because `benchmark/` calls it and may
    /// not change in the PR that removed batching.
    pub fn batched() -> Self {
        Self::new()
    }

    /// Attaches a telemetry tracer: every [`run`](Self::run) emits a
    /// [`span::PLAN`] begin/end span plus one [`span::PLAN_WAVE`]
    /// summary per dispatch wave. Backend-level spans (`mmo`,
    /// `tile_panel`) come from the backend's own tracer.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attaches a telemetry tracer (builder form).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The attached tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Replays `plan` on `backend` and returns every slot's value:
    /// one [`Backend::execute`] call per step, wave after wave. Outputs
    /// are bit-identical to the eager run that recorded the plan (given
    /// the same backend configuration).
    ///
    /// # Errors
    ///
    /// Propagates the first [`BackendError`] a step raises as a
    /// [`ReplayError`] carrying the failing step index and output slot;
    /// completed steps' counters are retained, and (matching the `mmo`
    /// span convention) a failed run emits no [`span::PLAN`] end event.
    pub fn run<B: Backend>(&self, plan: &Plan, backend: &mut B) -> Result<Replay, ReplayError> {
        self.run_controlled(plan, backend, &mut |_: ReplayProgress| Ok(()))
    }

    /// [`run`](Self::run) with a [`ReplayControl`] consulted before
    /// every dispatch — the deadline/cancellation seam. A control that
    /// returns `Err` halts the replay with [`ReplayHalt::Cancelled`]
    /// before the next step executes; steps already dispatched always
    /// run to completion (cancellation is a step-boundary protocol,
    /// never a mid-step abort).
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run), plus [`ReplayHalt::Cancelled`] when the
    /// control cancels.
    pub fn run_controlled<B: Backend, C: ReplayControl>(
        &self,
        plan: &Plan,
        backend: &mut B,
        control: &mut C,
    ) -> Result<Replay, ReplayError> {
        self.run_inner(plan, backend, control, None)
            .map_err(|halted| halted.error)
    }

    /// [`run_controlled`](Self::run_controlled), but a halt returns a
    /// [`HaltedReplay`] carrying a [`PlanCheckpoint`] of every completed
    /// step's output alongside the error — the durable state
    /// [`resume_from`](Self::resume_from) continues from. A successful
    /// run returns the same [`Replay`] as [`run`](Self::run), and the
    /// checkpoint is built by *moving* the completed outputs (no
    /// copies), so arming resumability costs nothing on the happy path.
    ///
    /// # Errors
    ///
    /// As [`run_controlled`](Self::run_controlled), boxed with the
    /// checkpoint.
    pub fn run_resumable<B: Backend, C: ReplayControl>(
        &self,
        plan: &Plan,
        backend: &mut B,
        control: &mut C,
    ) -> Result<Replay, Box<HaltedReplay>> {
        self.run_inner(plan, backend, control, None)
    }

    /// Continues a halted replay from `checkpoint`, dispatching only
    /// the steps that have not completed — completed steps are never
    /// re-executed (their outputs seed the slot arena directly, and the
    /// backend sees exactly `remaining_steps` dispatches). The
    /// [`ReplayControl`] is consulted only before real dispatches, with
    /// `completed_steps` counting checkpointed work, so total-budget
    /// deadlines account across halt/resume exactly as they would over
    /// one uninterrupted run.
    ///
    /// Telemetry is the *complement* of the halted run's: no
    /// [`span::PLAN`] begin (the original run's stands), and a
    /// [`span::PLAN_WAVE`] end only for waves this resume dispatched
    /// into — so the concatenation of the halted and resumed event
    /// streams equals an uninterrupted run's stream exactly.
    ///
    /// # Errors
    ///
    /// [`ReplayHalt::Checkpoint`] if `checkpoint.key()` disagrees with
    /// `plan.cache_key()`; otherwise as
    /// [`run_resumable`](Self::run_resumable) — a halted resume returns
    /// a fresh checkpoint with [`PlanCheckpoint::resumes`] incremented.
    pub fn resume_from<B: Backend, C: ReplayControl>(
        &self,
        plan: &Plan,
        checkpoint: PlanCheckpoint,
        backend: &mut B,
        control: &mut C,
    ) -> Result<Replay, Box<HaltedReplay>> {
        let key = plan.cache_key();
        if checkpoint.key != key || checkpoint.total_steps != plan.step_count() {
            let step = (0..checkpoint.total_steps.min(plan.step_count()))
                .find(|&i| !checkpoint.step_completed(i))
                .unwrap_or(0);
            let slot = plan.steps.get(step).map_or(SlotId(0), |s| s.d);
            return Err(Box::new(HaltedReplay {
                error: ReplayError {
                    step,
                    slot,
                    completed_steps: checkpoint.completed,
                    halt: ReplayHalt::Checkpoint {
                        reason: format!(
                            "checkpoint key {:?} does not match plan key {key:?}",
                            checkpoint.key
                        ),
                    },
                },
                checkpoint,
            }));
        }
        self.run_inner(plan, backend, control, Some(checkpoint))
    }

    /// The one replay loop behind [`run_controlled`](Self::run_controlled),
    /// [`run_resumable`](Self::run_resumable) and
    /// [`resume_from`](Self::resume_from). With `resume` set, completed
    /// steps seed the arena and are skipped; telemetry emits only what
    /// the halted run did not.
    fn run_inner<B: Backend, C: ReplayControl>(
        &self,
        plan: &Plan,
        backend: &mut B,
        control: &mut C,
        resume: Option<PlanCheckpoint>,
    ) -> Result<Replay, Box<HaltedReplay>> {
        let mut values: Vec<Option<Matrix>> = plan.slots.iter().map(|s| s.value.clone()).collect();
        let resumes = match resume {
            Some(cp) => {
                for (i, output) in cp.outputs.into_iter().enumerate() {
                    if let Some(d) = output {
                        values[plan.steps[i].d.0] = Some(d);
                    }
                }
                cp.resumes + 1
            }
            None => {
                self.tracer.begin(
                    span::PLAN,
                    &[
                        field("steps", plan.step_count()),
                        field("slots", plan.slot_count()),
                        field("backend", backend.name()),
                        field("mode", "sequential"),
                    ],
                );
                0
            }
        };
        fn operand(values: &[Option<Matrix>], slot: SlotId) -> &Matrix {
            values[slot.0]
                .as_ref()
                .expect("waves resolve every operand before its readers")
        }
        let waves = plan.waves();
        let completed = values
            .iter()
            .zip(&plan.slots)
            .filter(|(v, s)| v.is_some() && matches!(s.origin, SlotOrigin::Step(_)))
            .count();
        let mut run =
            |values: &mut Vec<Option<Matrix>>, control: &mut C| -> Result<(), ReplayError> {
                let mut completed = completed;
                for (w, wave) in waves.iter().enumerate() {
                    let mut dispatched = false;
                    for &i in wave {
                        let s = &plan.steps[i];
                        if values[s.d.0].is_some() {
                            // Completed before the halt this run resumes
                            // from: neither control-checked nor dispatched,
                            // so the backend performs exactly the remaining
                            // work.
                            continue;
                        }
                        let halted = |halt| ReplayError {
                            step: i,
                            slot: s.d,
                            completed_steps: completed,
                            halt,
                        };
                        control
                            .check(ReplayProgress {
                                next_step: i,
                                completed_steps: completed,
                                total_steps: plan.step_count(),
                            })
                            .map_err(|reason| halted(ReplayHalt::Cancelled { reason }))?;
                        let step = MmoArgs::new(
                            s.op,
                            operand(values, s.a),
                            operand(values, s.b),
                            operand(values, s.c),
                        );
                        let d = backend
                            .execute(&step, Schedule::Configured)
                            .map_err(|e| halted(ReplayHalt::Backend(e)))?;
                        values[s.d.0] = Some(d);
                        completed += 1;
                        dispatched = true;
                    }
                    if !dispatched {
                        // The halted run finished this wave and already
                        // emitted its summary.
                        continue;
                    }
                    self.tracer.end(
                        span::PLAN_WAVE,
                        &[field("wave", w), field("steps", wave.len())],
                    );
                }
                Ok(())
            };
        if let Err(error) = run(&mut values, control) {
            let outputs: Vec<Option<Matrix>> =
                plan.steps.iter().map(|s| values[s.d.0].take()).collect();
            let completed = outputs.iter().filter(|o| o.is_some()).count();
            return Err(Box::new(HaltedReplay {
                error,
                checkpoint: PlanCheckpoint {
                    key: plan.cache_key(),
                    total_steps: plan.step_count(),
                    completed,
                    outputs,
                    resumes,
                },
            }));
        }
        self.tracer.end(
            span::PLAN,
            &[
                field("steps", plan.step_count()),
                field("slots", plan.slot_count()),
                field("waves", waves.len()),
            ],
        );
        Ok(Replay {
            values: values
                .into_iter()
                .map(|v| v.expect("every slot is an input or a completed step output"))
                .collect(),
            step_outputs: plan.steps.iter().map(|s| s.d).collect(),
        })
    }
}

/// The resolved values of one plan replay.
#[derive(Clone, Debug)]
pub struct Replay {
    values: Vec<Matrix>,
    step_outputs: Vec<SlotId>,
}

impl Replay {
    /// A slot's replayed value.
    pub fn value(&self, slot: SlotId) -> &Matrix {
        &self.values[slot.index()]
    }

    /// The output of step `step`.
    pub fn step_output(&self, step: usize) -> &Matrix {
        self.value(self.step_outputs[step])
    }

    /// The last step's output (`None` for an empty plan).
    pub fn final_output(&self) -> Option<&Matrix> {
        self.step_outputs.last().map(|&s| self.value(s))
    }

    /// Consumes the replay and returns the last step's output.
    pub fn into_final_output(mut self) -> Option<Matrix> {
        let last = *self.step_outputs.last()?;
        Some(self.values.swap_remove(last.index()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Parallelism, ReferenceBackend, TiledBackend};
    use simd2_matrix::gen;
    use simd2_semiring::ALL_OPS;

    fn bit_eq(x: &Matrix, y: &Matrix) -> bool {
        x.shape() == y.shape()
            && x.as_slice()
                .iter()
                .zip(y.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Records a 3-step chain: d0 = C ⊕ (A ⊗ B); d1 = C ⊕ (d0 ⊗ B);
    /// d2 = C ⊕ (d0 ⊗ d1-ish)… kept square so chaining is legal.
    fn record_chain(op: OpKind) -> (Plan, Vec<Matrix>) {
        let a = gen::random_operands_for(op, 40, 40, 1);
        let b = gen::random_operands_for(op, 40, 40, 2);
        let c = Matrix::filled(40, 40, op.reduce_identity_f32());
        let mut be = TiledBackend::new();
        let mut rec = PlanBuilder::over(&mut be);
        let d0 = rec.mmo(op, &a, &b, &c).unwrap();
        let d1 = rec.mmo(op, &d0, &b, &c).unwrap();
        let d2 = rec.mmo(op, &d0, &d1, &c).unwrap();
        (rec.finish(), vec![d0, d1, d2])
    }

    #[test]
    fn recording_recovers_dependency_edges() {
        let (plan, _) = record_chain(OpKind::MinPlus);
        assert_eq!(plan.step_count(), 3);
        // 3 inputs (A, B, C) + 3 step outputs.
        assert_eq!(plan.slot_count(), 6);
        assert_eq!(plan.dependencies(), vec![vec![], vec![0], vec![0, 1]]);
        assert_eq!(plan.waves(), vec![vec![0], vec![1], vec![2]]);
        let s = plan.steps()[1];
        assert_eq!(plan.slot_origin(s.a), SlotOrigin::Step(0));
        assert_eq!(plan.slot_origin(s.b), SlotOrigin::Input);
        assert!(plan.input_value(s.b).is_some());
        assert!(plan.input_value(s.a).is_none());
        assert!(plan.reduced_precision());
    }

    #[test]
    fn sequential_replay_is_bit_identical_to_recording() {
        for op in ALL_OPS {
            let (plan, eager) = record_chain(op);
            let mut be = TiledBackend::new();
            let replay = Executor::new().run(&plan, &mut be).unwrap();
            for (i, want) in eager.iter().enumerate() {
                assert!(bit_eq(replay.step_output(i), want), "{op} step {i}");
            }
            assert!(bit_eq(replay.final_output().unwrap(), &eager[2]), "{op}");
        }
    }

    #[test]
    fn replay_counters_match_prediction() {
        let (plan, _) = record_chain(OpKind::MaxPlus);
        let mut be = TiledBackend::new();
        Executor::new().run(&plan, &mut be).unwrap();
        assert_eq!(be.op_count(), plan.predicted_op_count());
    }

    #[test]
    fn merged_plans_batch_into_shared_waves() {
        let plans: Vec<Plan> = [OpKind::MinPlus, OpKind::MaxMin, OpKind::PlusMul]
            .into_iter()
            .map(|op| record_chain(op).0)
            .collect();
        let eager: Vec<Vec<Matrix>> = [OpKind::MinPlus, OpKind::MaxMin, OpKind::PlusMul]
            .into_iter()
            .map(|op| record_chain(op).1)
            .collect();
        let merged = Plan::merge(plans);
        assert_eq!(merged.step_count(), 9);
        // Independent recordings share waves: 3 waves of 3 steps.
        let waves = merged.waves();
        assert_eq!(waves.len(), 3);
        assert!(waves.iter().all(|w| w.len() == 3));
        // Replay on a worker pool stays bit-identical; `batched()` is
        // the same executor as `new()`.
        let mut be = TiledBackend::with_parallelism(Parallelism::Threads(4));
        let replay = Executor::batched().run(&merged, &mut be).unwrap();
        for (p, outs) in eager.iter().enumerate() {
            for (i, want) in outs.iter().enumerate() {
                assert!(
                    bit_eq(replay.step_output(3 * p + i), want),
                    "plan {p} step {i}"
                );
            }
        }
        assert_eq!(be.op_count(), merged.predicted_op_count());
    }

    #[test]
    fn traces_and_kernels_carry_recorded_geometry() {
        let op = OpKind::PlusNorm;
        let a = gen::random_operands_for(op, 20, 36, 3);
        let b = gen::random_operands_for(op, 36, 52, 4);
        let c = Matrix::filled(20, 52, op.reduce_identity_f32());
        let mut be = ReferenceBackend::new();
        let mut rec = PlanBuilder::over(&mut be);
        rec.mmo(op, &a, &b, &c).unwrap();
        let plan = rec.finish();
        assert!(!plan.reduced_precision());
        assert_eq!(plan.step_geometry(0), (20, 52, 36));
        let traces = plan.traces();
        assert_eq!(traces, vec![MmoTrace::new(op, 20, 52, 36)]);
        let kernels = plan.compile(4);
        assert_eq!(kernels.len(), 1);
        assert_eq!(kernels[0].shape, (20, 52, 36));
        assert_eq!(
            kernels[0].total_mmos() as u64,
            plan.predicted_op_count().tile_mmos
        );
    }

    #[test]
    fn recording_is_observationally_identical_to_eager() {
        use simd2_trace::RingSink;
        let op = OpKind::MinPlus;
        let a = gen::random_operands_for(op, 40, 40, 1);
        let c = Matrix::filled(40, 40, op.reduce_identity_f32());
        let eager_ring = RingSink::shared();
        let mut eager_be = TiledBackend::new().with_tracer(Tracer::to(eager_ring.clone()));
        let eager_d = eager_be.mmo(op, &a, &a, &c).unwrap();
        let rec_ring = RingSink::shared();
        let mut rec_be = TiledBackend::new().with_tracer(Tracer::to(rec_ring.clone()));
        let mut rec = PlanBuilder::over(&mut rec_be);
        let rec_d = rec.mmo(op, &a, &a, &c).unwrap();
        assert_eq!(rec.op_count(), eager_be.op_count());
        assert!(bit_eq(&eager_d, &rec_d));
        assert_eq!(
            eager_ring.len(),
            rec_ring.len(),
            "same telemetry event stream"
        );
    }

    #[test]
    fn executor_spans_summarise_the_replay() {
        use simd2_trace::{EventKind, RingSink};
        let (plan, _) = record_chain(OpKind::MinPlus);
        let ring = RingSink::shared();
        let exec = Executor::new().with_tracer(Tracer::to(ring.clone()));
        let mut be = TiledBackend::new();
        exec.run(&plan, &mut be).unwrap();
        let events = ring.events();
        let plan_ends: Vec<_> = events
            .iter()
            .filter(|e| e.span == span::PLAN && e.kind == EventKind::End)
            .collect();
        assert_eq!(plan_ends.len(), 1);
        assert_eq!(plan_ends[0].u64("steps"), Some(3));
        assert_eq!(plan_ends[0].u64("waves"), Some(3));
        let wave_steps: u64 = events
            .iter()
            .filter(|e| e.span == span::PLAN_WAVE)
            .map(|e| e.u64("steps").unwrap())
            .sum();
        assert_eq!(wave_steps, 3);
    }

    #[test]
    fn failed_step_propagates_and_emits_no_plan_end() {
        use simd2_trace::{EventKind, RingSink};
        // Corrupt a recorded plan's captured input so the first step is
        // rejected at replay time.
        let (mut plan, _) = record_chain(OpKind::MinPlus);
        let bad = Matrix::zeros(7, 3);
        let a_slot = plan.steps()[0].a;
        plan.slots[a_slot.0].value = Some(bad);
        let ring = RingSink::shared();
        let exec = Executor::new().with_tracer(Tracer::to(ring.clone()));
        let mut be = TiledBackend::new();
        let err = exec.run(&plan, &mut be).unwrap_err();
        assert_eq!(err.step, 0);
        assert_eq!(err.slot, plan.steps()[0].d);
        assert_eq!(err.completed_steps, 0);
        assert!(matches!(
            err.halt,
            ReplayHalt::Backend(BackendError::Shape(_))
        ));
        assert!(err.backend_error().is_some());
        assert!(!err.is_cancelled());
        let events = ring.events();
        assert!(events
            .iter()
            .any(|e| e.span == span::PLAN && e.kind == EventKind::Begin));
        assert!(
            !events
                .iter()
                .any(|e| e.span == span::PLAN && e.kind == EventKind::End),
            "a failed replay must not report completion"
        );
    }

    #[test]
    fn non_square_chains_record_and_replay() {
        // D1 = C1 ⊕ (A{20×36} ⊗ B{36×24}); D2 = C2 ⊕ (D1 ⊗ B2{24×52}).
        let op = OpKind::PlusMul;
        let a = gen::random_operands_for(op, 20, 36, 5);
        let b = gen::random_operands_for(op, 36, 24, 6);
        let b2 = gen::random_operands_for(op, 24, 52, 7);
        let c1 = Matrix::filled(20, 24, op.reduce_identity_f32());
        let c2 = Matrix::filled(20, 52, op.reduce_identity_f32());
        let mut be = TiledBackend::new();
        let mut rec = PlanBuilder::over(&mut be);
        let d1 = rec.mmo(op, &a, &b, &c1).unwrap();
        let d2 = rec.mmo(op, &d1, &b2, &c2).unwrap();
        let plan = rec.finish();
        assert_eq!(plan.step_geometry(0), (20, 24, 36));
        assert_eq!(plan.step_geometry(1), (20, 52, 24));
        assert_eq!(plan.dependencies(), vec![vec![], vec![0]]);
        let mut replay_be = TiledBackend::new();
        let replay = Executor::new().run(&plan, &mut replay_be).unwrap();
        assert!(bit_eq(replay.step_output(0), &d1));
        assert!(bit_eq(replay.step_output(1), &d2));
        assert!(bit_eq(&replay.into_final_output().unwrap(), &d2));
    }

    #[test]
    fn planted_panic_at_step_k_is_attributed_to_step_k() {
        use crate::backend::Parallelism;
        use simd2_fault::PanicProbeUnit;
        use simd2_mxu::Simd2Unit;
        let op = OpKind::PlusMul;
        // Three mutually independent steps; only step 2 is tall enough
        // (3 tile rows) to reach the probe's panicking tile row 1.
        let small_a = gen::random_operands_for(op, 16, 16, 11);
        let small_a2 = gen::random_operands_for(op, 16, 16, 13);
        let small_b = gen::random_operands_for(op, 16, 16, 12);
        let small_c = Matrix::filled(16, 16, op.reduce_identity_f32());
        let tall_a = gen::random_operands_for(op, 48, 16, 14);
        let tall_c = Matrix::filled(48, 16, op.reduce_identity_f32());
        let mut rec_be = TiledBackend::new();
        let mut rec = PlanBuilder::over(&mut rec_be);
        rec.mmo(op, &small_a, &small_b, &small_c).unwrap();
        rec.mmo(op, &small_a2, &small_b, &small_c).unwrap();
        rec.mmo(op, &tall_a, &small_b, &tall_c).unwrap();
        let plan = rec.finish();
        assert_eq!(plan.waves(), vec![vec![0, 1, 2]]);
        let probe = || {
            let mut be = TiledBackend::with_unit(PanicProbeUnit::new(Simd2Unit::new(), 1));
            be.set_parallelism(Parallelism::Threads(3));
            be
        };
        // One wave, three dispatches: steps 0 and 1 complete, step 2
        // panics — under either constructor.
        for exec in [Executor::new(), Executor::batched()] {
            let err = exec.run(&plan, &mut probe()).unwrap_err();
            assert_eq!(err.step, 2);
            assert_eq!(err.slot, plan.steps()[2].d);
            assert_eq!(err.completed_steps, 2);
            assert!(matches!(
                err.halt,
                ReplayHalt::Backend(BackendError::WorkerPanic { .. })
            ));
        }
    }

    #[test]
    fn control_cancels_at_step_boundaries() {
        let (plan, _) = record_chain(OpKind::MinPlus);
        let mut be = TiledBackend::new();
        let mut ctl = |p: ReplayProgress| {
            if p.completed_steps < 1 {
                Ok(())
            } else {
                Err("budget".to_string())
            }
        };
        let err = Executor::new()
            .run_controlled(&plan, &mut be, &mut ctl)
            .unwrap_err();
        assert!(err.is_cancelled());
        assert!(err.backend_error().is_none());
        assert_eq!(err.step, 1);
        assert_eq!(err.slot, plan.steps()[1].d);
        assert_eq!(err.completed_steps, 1);
        assert_eq!(
            be.op_count().matrix_mmos,
            1,
            "cancelled steps never dispatch"
        );
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn cache_keys_capture_structure_and_input_bits() {
        let (p1, _) = record_chain(OpKind::MinPlus);
        let (p2, _) = record_chain(OpKind::MinPlus);
        assert_eq!(
            p1.cache_key(),
            p2.cache_key(),
            "independent recordings of the same run agree"
        );
        let (p3, _) = record_chain(OpKind::MaxPlus);
        assert_ne!(p1.structural_hash(), p3.structural_hash());
        // Perturbing one captured input bit moves only the fingerprint.
        let (mut p4, _) = record_chain(OpKind::MinPlus);
        let slot = p4.steps()[0].a;
        let v = p4.slots[slot.index()].value.as_mut().unwrap();
        let flipped = f32::from_bits(v.as_slice()[0].to_bits() ^ 1);
        v.as_mut_slice()[0] = flipped;
        assert_eq!(p1.structural_hash(), p4.structural_hash());
        assert_ne!(p1.input_fingerprint(), p4.input_fingerprint());
        assert_ne!(p1.cache_key(), p4.cache_key());
    }

    #[test]
    fn empty_plan_replays_to_nothing() {
        let mut be = TiledBackend::new();
        let rec = PlanBuilder::over(&mut be);
        let plan = rec.finish();
        assert!(plan.is_empty());
        let replay = Executor::batched().run(&plan, &mut be).unwrap();
        assert!(replay.final_output().is_none());
        assert_eq!(be.op_count(), OpCount::default());
    }

    /// Cancels once `stop_after` steps have completed.
    fn halt_after(stop_after: usize) -> impl FnMut(ReplayProgress) -> Result<(), String> {
        move |p: ReplayProgress| {
            if p.completed_steps < stop_after {
                Ok(())
            } else {
                Err("budget".to_string())
            }
        }
    }

    fn approve() -> impl FnMut(ReplayProgress) -> Result<(), String> {
        |_: ReplayProgress| Ok(())
    }

    #[test]
    fn halted_replay_resumes_bit_identically_without_reexecution() {
        for op in ALL_OPS {
            let (plan, eager) = record_chain(op);
            let mut be = TiledBackend::new();
            let halted = Executor::new()
                .run_resumable(&plan, &mut be, &mut halt_after(1))
                .unwrap_err();
            assert!(halted.error.is_cancelled());
            assert_eq!(halted.error.step, 1);
            let cp = &halted.checkpoint;
            assert_eq!(cp.key(), plan.cache_key());
            assert_eq!(cp.completed_steps(), 1);
            assert_eq!(cp.remaining_steps(), 2);
            assert_eq!(cp.total_steps(), 3);
            assert_eq!(cp.resumes(), 0);
            assert!(cp.step_completed(0) && !cp.step_completed(1));
            assert_eq!(be.op_count().matrix_mmos, 1, "halted run dispatched 1 step");
            // The resume dispatches exactly the two incomplete steps…
            let mut resume_be = TiledBackend::new();
            let replay = Executor::new()
                .resume_from(&plan, halted.checkpoint, &mut resume_be, &mut approve())
                .unwrap();
            assert_eq!(resume_be.op_count().matrix_mmos, 2);
            // …and every step output (including the checkpointed one)
            // matches the eager originals bit for bit.
            for (i, want) in eager.iter().enumerate() {
                assert!(bit_eq(replay.step_output(i), want), "{op} step {i}");
            }
        }
    }

    #[test]
    fn resume_op_counters_complement_the_halted_run_exactly() {
        let (plan, _) = record_chain(OpKind::PlusMul);
        let mut clean_be = TiledBackend::new();
        Executor::new().run(&plan, &mut clean_be).unwrap();
        let mut be = TiledBackend::new();
        let halted = Executor::new()
            .run_resumable(&plan, &mut be, &mut halt_after(2))
            .unwrap_err();
        Executor::new()
            .resume_from(&plan, halted.checkpoint, &mut be, &mut approve())
            .unwrap();
        // Halt + resume on one backend performs exactly one clean run's
        // work: no completed step is ever re-executed.
        assert_eq!(be.op_count(), clean_be.op_count());
        assert_eq!(be.op_count(), plan.predicted_op_count());
    }

    #[test]
    fn halted_plus_resumed_telemetry_equals_an_uninterrupted_run() {
        use simd2_trace::RingSink;
        let (plan, _) = record_chain(OpKind::MinPlus);
        let clean_ring = RingSink::shared();
        Executor::new()
            .with_tracer(Tracer::to(clean_ring.clone()))
            .run(&plan, &mut TiledBackend::new())
            .unwrap();
        let ring = RingSink::shared();
        let exec = Executor::new().with_tracer(Tracer::to(ring.clone()));
        let mut be = TiledBackend::new();
        let halted = exec
            .run_resumable(&plan, &mut be, &mut halt_after(1))
            .unwrap_err();
        exec.resume_from(&plan, halted.checkpoint, &mut be, &mut approve())
            .unwrap();
        // The resume emits no second PLAN begin and only the wave
        // summaries the halted run did not reach: the union is exactly
        // the uninterrupted stream.
        assert_eq!(ring.events(), clean_ring.events());
    }

    #[test]
    fn sequential_halt_resumes_on_the_batched_executor() {
        let ops = [OpKind::MinPlus, OpKind::MaxMin, OpKind::PlusMul];
        let plans: Vec<Plan> = ops.into_iter().map(|op| record_chain(op).0).collect();
        let eager: Vec<Vec<Matrix>> = ops.into_iter().map(|op| record_chain(op).1).collect();
        let merged = Plan::merge(plans);
        // A halt mid-wave: one of wave 0's three steps done.
        let mut be = TiledBackend::with_parallelism(Parallelism::Threads(4));
        let halted = Executor::new()
            .run_resumable(&merged, &mut be, &mut halt_after(1))
            .unwrap_err();
        assert_eq!(halted.checkpoint.completed_steps(), 1);
        // The resume — through the surviving `batched()` constructor —
        // dispatches wave 0's remainder, then the full later waves.
        let replay = Executor::batched()
            .resume_from(&merged, halted.checkpoint, &mut be, &mut approve())
            .unwrap();
        assert_eq!(be.op_count(), merged.predicted_op_count());
        for (p, outs) in eager.iter().enumerate() {
            for (i, want) in outs.iter().enumerate() {
                assert!(
                    bit_eq(replay.step_output(3 * p + i), want),
                    "plan {p} step {i}"
                );
            }
        }
    }

    #[test]
    fn worker_panic_halts_with_a_checkpoint_and_resumes_clean() {
        use crate::backend::Parallelism;
        use simd2_fault::PanicProbeUnit;
        use simd2_mxu::Simd2Unit;
        let op = OpKind::PlusMul;
        let a = gen::random_operands_for(op, 48, 16, 21);
        let b = gen::random_operands_for(op, 16, 16, 22);
        let c = Matrix::filled(48, 16, op.reduce_identity_f32());
        let c2 = Matrix::filled(16, 16, op.reduce_identity_f32());
        let small = gen::random_operands_for(op, 16, 16, 23);
        let mut rec_be = TiledBackend::new();
        let mut rec = PlanBuilder::over(&mut rec_be);
        let d0 = rec.mmo(op, &small, &b, &c2).unwrap();
        let d1 = rec.mmo(op, &a, &d0, &c).unwrap();
        let plan = rec.finish();
        let mut probe = TiledBackend::with_unit(PanicProbeUnit::new(Simd2Unit::new(), 1));
        probe.set_parallelism(Parallelism::Threads(3));
        let halted = Executor::new()
            .run_resumable(&plan, &mut probe, &mut approve())
            .unwrap_err();
        assert!(matches!(
            halted.error.halt,
            ReplayHalt::Backend(BackendError::WorkerPanic { .. })
        ));
        assert_eq!(halted.error.step, 1);
        assert_eq!(halted.checkpoint.completed_steps(), 1);
        // Resume on a healthy backend finishes only the panicked step.
        let mut clean_be = TiledBackend::new();
        let replay = Executor::new()
            .resume_from(&plan, halted.checkpoint, &mut clean_be, &mut approve())
            .unwrap();
        assert_eq!(clean_be.op_count().matrix_mmos, 1);
        assert!(bit_eq(replay.step_output(0), &d0));
        assert!(bit_eq(replay.step_output(1), &d1));
    }

    #[test]
    fn a_halted_resume_rolls_the_checkpoint_forward() {
        let (plan, eager) = record_chain(OpKind::MaxPlus);
        let mut be = TiledBackend::new();
        let halted = Executor::new()
            .run_resumable(&plan, &mut be, &mut halt_after(1))
            .unwrap_err();
        let again = Executor::new()
            .resume_from(&plan, halted.checkpoint, &mut be, &mut halt_after(2))
            .unwrap_err();
        assert!(again.error.is_cancelled());
        assert_eq!(again.checkpoint.completed_steps(), 2);
        assert_eq!(again.checkpoint.resumes(), 1);
        let replay = Executor::new()
            .resume_from(&plan, again.checkpoint, &mut be, &mut approve())
            .unwrap();
        assert_eq!(be.op_count(), plan.predicted_op_count());
        assert!(bit_eq(replay.final_output().unwrap(), &eager[2]));
    }

    #[test]
    fn foreign_checkpoints_are_rejected_before_any_dispatch() {
        let (plan, _) = record_chain(OpKind::MinPlus);
        let (other, _) = record_chain(OpKind::MaxPlus);
        let halted = Executor::new()
            .run_resumable(&plan, &mut TiledBackend::new(), &mut halt_after(1))
            .unwrap_err();
        let mut be = TiledBackend::new();
        let err = Executor::new()
            .resume_from(&other, halted.checkpoint, &mut be, &mut approve())
            .unwrap_err();
        assert!(matches!(err.error.halt, ReplayHalt::Checkpoint { .. }));
        assert!(!err.error.is_cancelled());
        assert!(err.error.backend_error().is_none());
        assert_eq!(be.op_count().matrix_mmos, 0, "nothing dispatched");
        // The checkpoint rides along unchanged, still usable against
        // the plan it belongs to.
        assert_eq!(err.checkpoint.key(), plan.cache_key());
        assert!(err.error.to_string().contains("checkpoint"));
    }
}
