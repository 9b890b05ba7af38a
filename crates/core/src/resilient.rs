//! Fault-tolerant backend dispatch: detect, retry, fall back.
//!
//! [`ResilientBackend`] wraps any [`Backend`] with matrix-level ABFT
//! verification and a [`RecoveryPolicy`]. Every `mmo` result is checked
//! against the operands' invariants ([`simd2_fault::abft::verify_matrix`]);
//! on detection the policy decides whether to fail fast, re-execute on
//! the same (possibly faulty) backend — transient faults draw fresh
//! outcomes each attempt — or abandon the accelerated datapath for the
//! scalar [`ReferenceBackend`] oracle.
//!
//! This is the software half of the paper's reliability story: the MXU
//! datapath stays simple, and the library layer turns silent data
//! corruption into detected-and-recovered events.

use simd2_fault::abft::{self, AbftConfig};
use simd2_matrix::Matrix;
use simd2_mxu::PrecisionMode;
use simd2_semiring::OpKind;
use simd2_trace::{field, span, Counter, Tracer};

use crate::backend::{Backend, Degrade, Health, MmoArgs, OpCount, ReferenceBackend, Schedule};
use crate::error::BackendError;

/// Process-global count of ABFT corruption detections.
static DETECTIONS: Counter = Counter::new("resilient.detections");
/// Process-global count of recovery re-executions.
static RETRIES: Counter = Counter::new("resilient.retries");
/// Process-global count of reference-backend fallbacks.
static FALLBACKS: Counter = Counter::new("resilient.fallbacks");
/// Process-global count of contained worker panics.
static WORKER_PANICS: Counter = Counter::new("resilient.worker_panics");

/// What to do when verification detects a corrupted result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Surface the detection as an error immediately.
    FailFast,
    /// Re-execute on the same backend up to `attempts` extra times; give
    /// up (error) if every attempt is detected as corrupt.
    Retry {
        /// Maximum extra executions after the first detection.
        attempts: u32,
    },
    /// Recompute once on the scalar reference backend.
    Fallback,
    /// Retry up to `attempts` times, then recompute on the reference
    /// backend if still failing — the most forgiving policy.
    RetryThenFallback {
        /// Maximum extra executions before falling back.
        attempts: u32,
    },
}

impl RecoveryPolicy {
    fn retry_attempts(self) -> u32 {
        match self {
            RecoveryPolicy::FailFast | RecoveryPolicy::Fallback => 0,
            RecoveryPolicy::Retry { attempts } | RecoveryPolicy::RetryThenFallback { attempts } => {
                attempts
            }
        }
    }

    fn falls_back(self) -> bool {
        matches!(
            self,
            RecoveryPolicy::Fallback | RecoveryPolicy::RetryThenFallback { .. }
        )
    }
}

/// Capped exponential backoff budget bounding a retrying
/// [`RecoveryPolicy`].
///
/// A bare attempt count lets a generously configured policy spin through
/// hundreds of doomed re-executions against a permanently faulty site.
/// The budget charges each retry a *virtual* cost — starting at
/// `base_units`, doubling per retry, saturating at `cap_units` — and
/// refuses any retry whose cost would push the cumulative spend past
/// `budget_units`, surfacing the terminal error (or falling back, if the
/// policy falls back) instead.
///
/// Units are deliberately virtual: no wall-clock sleeping happens, so
/// recovery stays deterministic and instantly testable. One unit is
/// "one base retry's worth of pressure on the faulty resource".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryBackoff {
    /// Virtual cost charged for the first retry.
    pub base_units: u64,
    /// Saturation cap on the per-retry cost (doubling stops here).
    pub cap_units: u64,
    /// Total virtual budget; a retry that would exceed it is refused.
    pub budget_units: u64,
    /// Seed for deterministic per-retry jitter, `None` by default.
    ///
    /// With a seed set, each retry's charged cost is drawn from
    /// `[max(nominal/2, 1), nominal]` by a pure hash of
    /// `(seed, retry index)` — many replicas retrying the same fault
    /// desynchronise instead of stampeding in lock-step, yet a given
    /// seed replays bit-identically. `None` keeps the exact
    /// capped-exponential schedule for bit-reproducible campaigns.
    pub jitter_seed: Option<u64>,
}

impl RetryBackoff {
    /// No backoff accounting: retries cost nothing and the policy's
    /// attempt count is the only bound (the pre-backoff behaviour, and
    /// the [`Default`]).
    pub const fn unbounded() -> Self {
        Self {
            base_units: 0,
            cap_units: 0,
            budget_units: u64::MAX,
            jitter_seed: None,
        }
    }

    /// A budget charging `base_units` for the first retry, doubling up
    /// to `cap_units`, refusing retries past `budget_units` total.
    pub const fn new(base_units: u64, cap_units: u64, budget_units: u64) -> Self {
        Self {
            base_units,
            cap_units,
            budget_units,
            jitter_seed: None,
        }
    }

    /// Enables seeded jitter (see [`jitter_seed`](Self::jitter_seed)).
    pub const fn with_jitter(mut self, seed: u64) -> Self {
        self.jitter_seed = Some(seed);
        self
    }

    /// The cost charged for retry number `retry` (0-based) whose
    /// nominal capped-exponential cost is `nominal`: the nominal cost
    /// itself without jitter, or a deterministic draw from
    /// `[max(nominal/2, 1), nominal]` with it.
    fn charge(&self, retry: u64, nominal: u64) -> u64 {
        match self.jitter_seed {
            None => nominal,
            Some(_) if nominal <= 1 => nominal,
            Some(seed) => {
                let lo = (nominal / 2).max(1);
                lo + splitmix(seed ^ splitmix(retry)) % (nominal - lo + 1)
            }
        }
    }
}

/// SplitMix64 finaliser — the jitter draw's avalanche mix.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Default for RetryBackoff {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// Outcome counters for one resilient backend's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Whole-matrix mmos requested.
    pub mmos: u64,
    /// Results that passed ABFT verification (including after retry).
    pub verified: u64,
    /// Corruption detections (each failing attempt counts once).
    pub detections: u64,
    /// Re-executions performed after a detection.
    pub retries: u64,
    /// Operations ultimately rescued by a retry.
    pub retry_successes: u64,
    /// Operations recomputed on the reference backend.
    pub fallbacks: u64,
    /// Contained worker panics observed ([`BackendError::WorkerPanic`]).
    pub worker_panics: u64,
    /// Operations rescued by the sequential re-execution that follows a
    /// worker panic.
    pub panic_recoveries: u64,
    /// Virtual backoff units spent on retries ([`RetryBackoff`]).
    pub backoff_units: u64,
    /// Retry loops cut short because the backoff budget ran out.
    pub budget_exhausted: u64,
}

/// A [`Backend`] decorator adding ABFT verification and recovery.
///
/// With a [`Tracer`] attached ([`set_tracer`](Self::set_tracer)), every
/// [`RecoveryStats`] increment also emits a [`span::RECOVERY`] instant
/// event carrying a `stage` field (`mmo`, `verified`, `detection`,
/// `retry`, `retry_success`, `fallback`, `worker_panic`,
/// `panic_recovery`, `budget_exhausted`) — event counts per stage
/// reproduce the stats struct exactly.
#[derive(Clone, Debug)]
pub struct ResilientBackend<B: Backend> {
    inner: B,
    fallback: ReferenceBackend,
    policy: RecoveryPolicy,
    backoff: RetryBackoff,
    abft: AbftConfig,
    recover_panics: bool,
    stats: RecoveryStats,
    tracer: Tracer,
}

impl<B: Backend> ResilientBackend<B> {
    /// Wraps `inner` with the given policy and default ABFT tolerances.
    pub fn new(inner: B, policy: RecoveryPolicy) -> Self {
        Self::with_config(inner, policy, AbftConfig::default())
    }

    /// Wraps `inner` with explicit ABFT tolerances.
    pub fn with_config(inner: B, policy: RecoveryPolicy, abft: AbftConfig) -> Self {
        Self {
            inner,
            fallback: ReferenceBackend::new(),
            policy,
            backoff: RetryBackoff::unbounded(),
            abft,
            recover_panics: true,
            stats: RecoveryStats::default(),
            tracer: Tracer::off(),
        }
    }

    /// Whether contained worker panics are recovered in place by a
    /// sequential re-execution (the default), or surfaced as
    /// [`BackendError::WorkerPanic`] after counting — letting a layer
    /// with more context (e.g. a checkpointing executor) decide how to
    /// resume.
    pub fn set_recover_panics(&mut self, recover: bool) {
        self.recover_panics = recover;
    }

    /// Surfaces or recovers worker panics (builder form); see
    /// [`set_recover_panics`](Self::set_recover_panics).
    pub fn with_recover_panics(mut self, recover: bool) -> Self {
        self.recover_panics = recover;
        self
    }

    /// Whether worker panics are recovered in place.
    pub fn recovers_panics(&self) -> bool {
        self.recover_panics
    }

    /// Bounds the retry loop with a [`RetryBackoff`] budget.
    pub fn set_backoff(&mut self, backoff: RetryBackoff) {
        self.backoff = backoff;
    }

    /// Bounds the retry loop with a [`RetryBackoff`] budget (builder
    /// form).
    pub fn with_backoff(mut self, backoff: RetryBackoff) -> Self {
        self.backoff = backoff;
        self
    }

    /// The active backoff budget.
    pub fn backoff(&self) -> RetryBackoff {
        self.backoff
    }

    /// Attaches a telemetry tracer to the recovery layer and to the
    /// internal reference fallback (so fallback executions emit
    /// [`span::MMO`] spans into the same sink). The *inner* backend's
    /// tracer is the caller's to set via [`inner_mut`](Self::inner_mut).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.fallback.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Attaches a telemetry tracer (builder form).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.set_tracer(tracer);
        self
    }

    /// Emits one [`span::RECOVERY`] stage event.
    fn note(&self, op: OpKind, stage: &'static str) {
        self.tracer.instant(
            span::RECOVERY,
            &[field("stage", stage), field("op", op.name())],
        );
    }

    /// A detection event plus its process-global counter.
    fn note_detection(&self, op: OpKind) {
        if self.tracer.enabled() {
            DETECTIONS.add(1);
        }
        self.note(op, "detection");
    }

    /// A contained-worker-panic event plus its process-global counter.
    fn note_worker_panic(&self, op: OpKind) {
        if self.tracer.enabled() {
            WORKER_PANICS.add(1);
        }
        self.note(op, "worker_panic");
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Mutable access to the wrapped backend (e.g. to install injectors).
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// Unwraps into the inner backend.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// The active recovery policy.
    pub fn policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// Recovery outcome counters.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.stats
    }

    /// Resets the recovery counters.
    pub fn reset_recovery_stats(&mut self) {
        self.stats = RecoveryStats::default();
    }

    /// One verified execution attempt of `step` on the inner backend
    /// under `schedule`.
    fn attempt(&mut self, step: &MmoArgs<'_>, schedule: Schedule) -> Result<Matrix, BackendError> {
        let MmoArgs { op, a, b, c, .. } = *step;
        let d = self.inner.execute(step, schedule)?;
        // Mirror the inner datapath's quantisation so clean reduced-
        // precision results are not flagged as corrupt.
        let mode = self.inner.precision();
        abft::verify_matrix(op, a, b, c, &d, mode, &self.abft)
            .map_err(|violation| BackendError::Corruption { op, violation })?;
        Ok(d)
    }

    /// The full detection → retry → fallback ladder for one step,
    /// starting on `schedule`.
    fn recover(
        &mut self,
        step: &MmoArgs<'_>,
        mut schedule: Schedule,
    ) -> Result<Matrix, BackendError> {
        let op = step.op;
        self.stats.mmos += 1;
        self.note(op, "mmo");
        // Once a worker panic is seen, every further attempt for this
        // operation runs on the sequential schedule, where panel workers
        // (and therefore worker panics) do not exist.
        let mut last = match self.attempt(step, schedule) {
            Ok(d) => {
                self.stats.verified += 1;
                self.note(op, "verified");
                return Ok(d);
            }
            Err(e) if e.is_corruption() => {
                self.stats.detections += 1;
                self.note_detection(op);
                e
            }
            Err(e) if e.is_worker_panic() => {
                // Panic-containment recovery arm: re-execute immediately
                // on the sequential schedule (unless the caller asked
                // for panics to surface so it can checkpoint instead).
                self.stats.worker_panics += 1;
                self.note_worker_panic(op);
                if !self.recover_panics {
                    return Err(e);
                }
                schedule = Schedule::Sequential;
                match self.attempt(step, schedule) {
                    Ok(d) => {
                        self.stats.verified += 1;
                        self.stats.panic_recoveries += 1;
                        self.note(op, "verified");
                        self.note(op, "panic_recovery");
                        return Ok(d);
                    }
                    Err(e2) if e2.is_corruption() => {
                        self.stats.detections += 1;
                        self.note_detection(op);
                        e2
                    }
                    Err(e2) => return Err(e2),
                }
            }
            // Structural errors (shapes, addressing) are not transient;
            // no amount of re-execution fixes them.
            Err(e) => return Err(e),
        };
        let mut spent = 0u64;
        let mut nominal = self.backoff.base_units;
        for retry in 0..self.policy.retry_attempts() {
            // Charge the (possibly jittered) capped-exponential cost up
            // front; a retry the budget cannot afford is refused, ending
            // the loop.
            let cost = self.backoff.charge(u64::from(retry), nominal);
            if spent.saturating_add(cost) > self.backoff.budget_units {
                self.stats.budget_exhausted += 1;
                self.note(op, "budget_exhausted");
                break;
            }
            spent += cost;
            self.stats.backoff_units += cost;
            nominal = nominal.saturating_mul(2).min(self.backoff.cap_units);
            self.stats.retries += 1;
            if self.tracer.enabled() {
                RETRIES.add(1);
            }
            self.note(op, "retry");
            match self.attempt(step, schedule) {
                Ok(d) => {
                    self.stats.verified += 1;
                    self.stats.retry_successes += 1;
                    self.note(op, "verified");
                    self.note(op, "retry_success");
                    return Ok(d);
                }
                Err(e) if e.is_corruption() => {
                    self.stats.detections += 1;
                    self.note_detection(op);
                    last = e;
                }
                Err(e) if e.is_worker_panic() => {
                    self.stats.worker_panics += 1;
                    self.note_worker_panic(op);
                    if !self.recover_panics {
                        return Err(e);
                    }
                    schedule = Schedule::Sequential;
                    last = e;
                }
                Err(e) => return Err(e),
            }
        }
        if self.policy.falls_back() {
            self.stats.fallbacks += 1;
            if self.tracer.enabled() {
                FALLBACKS.add(1);
            }
            self.note(op, "fallback");
            let d = self.fallback.mmo(op, step.a, step.b, step.c)?;
            self.stats.verified += 1;
            self.note(op, "verified");
            return Ok(d);
        }
        Err(last)
    }
}

impl<B: Backend> Backend for ResilientBackend<B> {
    fn name(&self) -> &'static str {
        "resilient (ABFT-verified)"
    }

    fn precision(&self) -> PrecisionMode {
        self.inner.precision()
    }

    /// The step goes through the full verified ladder, every inner
    /// attempt on the wrapped backend (so a sparse step replayed under
    /// resilience still takes the row walk the engine measures for it);
    /// only the reference fallback runs dense — bit-identical by the
    /// one-reduction contract.
    fn execute(&mut self, step: &MmoArgs<'_>, schedule: Schedule) -> Result<Matrix, BackendError> {
        self.recover(step, schedule)
    }

    fn health(&self) -> Health {
        self.inner.health()
    }

    fn degrade(&mut self, rung: Degrade) -> bool {
        self.inner.degrade(rung)
    }

    fn op_count(&self) -> OpCount {
        let i = self.inner.op_count();
        let f = self.fallback.op_count();
        OpCount {
            matrix_mmos: i.matrix_mmos + f.matrix_mmos,
            tile_mmos: i.tile_mmos + f.tile_mmos,
            tile_loads: i.tile_loads + f.tile_loads,
            tile_stores: i.tile_stores + f.tile_stores,
        }
    }

    fn reset_count(&mut self) {
        self.inner.reset_count();
        self.fallback.reset_count();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{IsaBackend, TiledBackend};
    use simd2_fault::{FaultPlan, FaultPlanConfig, FaultySimd2Unit, PlannedInjector};
    use simd2_matrix::gen;
    use simd2_mxu::Simd2Unit;
    use simd2_semiring::precision::quantize_f16;
    use simd2_semiring::ALL_OPS;

    fn operands(op: OpKind, n: usize) -> (Matrix, Matrix, Matrix) {
        let mut a = gen::random_operands_for(op, n, n, 17);
        let mut b = gen::random_operands_for(op, n, n, 18);
        for v in a.as_mut_slice().iter_mut().chain(b.as_mut_slice()) {
            *v = quantize_f16(*v);
        }
        let c = Matrix::filled(n, n, op.reduce_identity_f32());
        (a, b, c)
    }

    fn faulty_tiled(seed: u64, ppm: u32) -> TiledBackend<FaultySimd2Unit> {
        let plan = FaultPlan::new(FaultPlanConfig::new(seed).with_transient_nan_ppm(ppm));
        TiledBackend::with_unit(FaultySimd2Unit::new(
            Simd2Unit::new(),
            PlannedInjector::new(plan),
        ))
    }

    #[test]
    fn clean_backends_verify_for_all_ops() {
        for op in ALL_OPS {
            let (a, b, c) = operands(op, 24);
            let mut be = ResilientBackend::new(TiledBackend::new(), RecoveryPolicy::FailFast);
            let d = be.mmo(op, &a, &b, &c).unwrap();
            let want = TiledBackend::new().mmo(op, &a, &b, &c).unwrap();
            assert_eq!(d, want, "{op}");
            // An int8 unit is verified against int8-rounded operands: its
            // own answer comes back, first attempt.
            let int8 =
                || TiledBackend::with_unit(Simd2Unit::with_precision(PrecisionMode::Int8Input));
            let policy = RecoveryPolicy::RetryThenFallback { attempts: 2 };
            let mut be = ResilientBackend::new(int8(), policy);
            let d = be.mmo(op, &a, &b, &c).unwrap();
            assert_eq!(d, int8().mmo(op, &a, &b, &c).unwrap(), "{op} int8");
            let stats = be.recovery_stats();
            assert_eq!(
                (stats.detections, stats.retries, stats.fallbacks),
                (0, 0, 0),
                "{op} int8"
            );
        }
        let (a, b, c) = operands(OpKind::MinPlus, 20);
        let mut be = ResilientBackend::new(ReferenceBackend::new(), RecoveryPolicy::FailFast);
        assert!(be.mmo(OpKind::MinPlus, &a, &b, &c).is_ok());
        assert_eq!(be.recovery_stats().detections, 0);
        assert_eq!(be.recovery_stats().verified, 1);
    }

    #[test]
    fn clean_steps_verify_whatever_the_accumulator_holds() {
        // The witness recomputes what the engines compute, seed included:
        // an element starts from `c ⊕ id`, so a truthy or-and `c` comes
        // out `1.0` and a NaN min-plus `c` comes out `∞` — at `k = 0`
        // that is the whole result.
        let nan = f32::from_bits(0x7FC0_1234);
        for (op, c, want) in [
            (OpKind::OrAnd, 2.0, 1.0),
            (OpKind::MinPlus, nan, f32::INFINITY),
        ] {
            for k in [0, 5] {
                let a = Matrix::filled(3, k, nan);
                let b = Matrix::filled(k, 4, 1.0);
                let c = Matrix::filled(3, 4, c);
                let mut be = ResilientBackend::new(TiledBackend::new(), RecoveryPolicy::FailFast);
                let d = be
                    .mmo(op, &a, &b, &c)
                    .unwrap_or_else(|e| panic!("{op} k={k}: {e}"));
                assert_eq!(d, Matrix::filled(3, 4, want), "{op} k={k}");
                assert_eq!(be.recovery_stats().detections, 0, "{op} k={k}");
            }
        }
    }

    #[test]
    fn fail_fast_surfaces_detection() {
        let (a, b, c) = operands(OpKind::PlusMul, 16);
        let mut be = ResilientBackend::new(faulty_tiled(5, 1_000_000), RecoveryPolicy::FailFast);
        let err = be.mmo(OpKind::PlusMul, &a, &b, &c).unwrap_err();
        assert!(err.is_corruption(), "{err}");
        assert_eq!(be.recovery_stats().detections, 1);
        assert_eq!(be.recovery_stats().retries, 0);
    }

    #[test]
    fn retry_recovers_under_moderate_fault_rate() {
        // ~30% per-tile NaN rate: some attempt among 32 executes cleanly.
        let (a, b, c) = operands(OpKind::MinPlus, 16);
        let want = TiledBackend::new()
            .mmo(OpKind::MinPlus, &a, &b, &c)
            .unwrap();
        // Full witness coverage: +Inf faults on min-family ops can slip
        // past a sampled witness (they satisfy dominance).
        let full = AbftConfig {
            witness_samples: usize::MAX,
            ..AbftConfig::default()
        };
        let mut be = ResilientBackend::with_config(
            faulty_tiled(42, 300_000),
            RecoveryPolicy::Retry { attempts: 32 },
            full,
        );
        let mut saw_retry_success = false;
        for _ in 0..8 {
            let d = be.mmo(OpKind::MinPlus, &a, &b, &c).unwrap();
            assert_eq!(d, want);
        }
        let s = be.recovery_stats();
        saw_retry_success |= s.retry_successes > 0;
        assert_eq!(s.verified, 8);
        assert!(s.detections >= s.retry_successes);
        // At 30% over 8 ops the odds all first attempts are clean are
        // ~0.7^8 ≈ 6% per run, but the seeded plan is deterministic: this
        // seed/rate strikes at least once.
        assert!(
            saw_retry_success,
            "seeded plan should force at least one retry"
        );
        assert_eq!(s.fallbacks, 0);
    }

    #[test]
    fn fallback_rescues_a_permanently_faulty_backend() {
        // Full-rate faults: every inner attempt is corrupt, only the
        // reference fallback can produce a verified result.
        let (a, b, c) = operands(OpKind::MaxMin, 20);
        let want = ReferenceBackend::new()
            .mmo(OpKind::MaxMin, &a, &b, &c)
            .unwrap();
        let mut be = ResilientBackend::new(
            faulty_tiled(7, 1_000_000),
            RecoveryPolicy::RetryThenFallback { attempts: 2 },
        );
        let d = be.mmo(OpKind::MaxMin, &a, &b, &c).unwrap();
        assert_eq!(d, want);
        let s = be.recovery_stats();
        assert_eq!(s.fallbacks, 1);
        assert_eq!(s.retries, 2);
        assert_eq!(s.detections, 3);
        assert_eq!(s.verified, 1);
    }

    #[test]
    fn worker_panic_recovers_on_the_sequential_schedule() {
        use crate::backend::Parallelism;
        use simd2_fault::PanicProbeUnit;
        // A probe whose panel shards panic at tile row 2: the parallel
        // attempt fails, the sequential re-execution (parent unit, no
        // shards) succeeds and is verified.
        let (a, b, c) = operands(OpKind::PlusMul, 70); // 5 tile rows
        let want = TiledBackend::new()
            .mmo(OpKind::PlusMul, &a, &b, &c)
            .unwrap();
        let mut inner = TiledBackend::with_unit(PanicProbeUnit::new(Simd2Unit::new(), 2));
        inner.set_parallelism(Parallelism::Threads(4));
        let mut be = ResilientBackend::new(inner, RecoveryPolicy::FailFast);
        let d = be.mmo(OpKind::PlusMul, &a, &b, &c).unwrap();
        assert_eq!(d, want);
        let s = be.recovery_stats();
        assert_eq!(s.worker_panics, 1);
        assert_eq!(s.panic_recoveries, 1);
        assert_eq!(s.verified, 1);
        assert_eq!(s.detections, 0);
        assert_eq!(s.retries, 0);
        assert_eq!(s.fallbacks, 0);
    }

    #[test]
    fn backoff_budget_bounds_an_always_faulty_retry_loop() {
        use simd2_trace::RingSink;
        // Full-rate faults: every attempt is detected as corrupt. The
        // policy would allow effectively unlimited retries; the backoff
        // budget must cut the loop off and surface the terminal error.
        let ring = RingSink::shared();
        let (a, b, c) = operands(OpKind::PlusMul, 16);
        let mut be = ResilientBackend::new(
            faulty_tiled(5, 1_000_000),
            RecoveryPolicy::Retry { attempts: u32::MAX },
        )
        .with_backoff(RetryBackoff::new(1, 8, 20))
        .with_tracer(Tracer::to(ring.clone()));
        assert_eq!(be.backoff(), RetryBackoff::new(1, 8, 20));
        let err = be.mmo(OpKind::PlusMul, &a, &b, &c).unwrap_err();
        assert!(err.is_corruption(), "{err}");
        let s = be.recovery_stats();
        // Costs 1, 2, 4, 8 spend 15 of 20; a fifth retry (8) is refused.
        assert_eq!(s.retries, 4);
        assert_eq!(s.backoff_units, 15);
        assert_eq!(s.budget_exhausted, 1);
        assert_eq!(s.detections, 5, "initial attempt plus four retries");
        assert_eq!(s.verified, 0);
        let exhausted = ring
            .events()
            .iter()
            .filter(|e| e.is_stage(span::RECOVERY, "budget_exhausted"))
            .count();
        assert_eq!(exhausted as u64, s.budget_exhausted);
    }

    #[test]
    fn exhausted_budget_still_reaches_the_fallback() {
        // With a fallback policy the refused retry loop hands over to
        // the reference oracle instead of erroring.
        let (a, b, c) = operands(OpKind::MaxMin, 20);
        let want = ReferenceBackend::new()
            .mmo(OpKind::MaxMin, &a, &b, &c)
            .unwrap();
        let mut be = ResilientBackend::new(
            faulty_tiled(7, 1_000_000),
            RecoveryPolicy::RetryThenFallback { attempts: 1_000 },
        )
        .with_backoff(RetryBackoff::new(1, 4, 6));
        let d = be.mmo(OpKind::MaxMin, &a, &b, &c).unwrap();
        assert_eq!(d, want);
        let s = be.recovery_stats();
        // Costs 1, 2, 4 would spend 7 > 6: two retries then fallback.
        assert_eq!(s.retries, 2);
        assert_eq!(s.backoff_units, 3);
        assert_eq!(s.budget_exhausted, 1);
        assert_eq!(s.fallbacks, 1);
        assert_eq!(s.verified, 1);
    }

    #[test]
    fn unbounded_backoff_preserves_attempt_counted_retries() {
        let be = ResilientBackend::new(TiledBackend::new(), RecoveryPolicy::FailFast);
        assert_eq!(be.backoff(), RetryBackoff::unbounded());
        assert_eq!(RetryBackoff::default(), RetryBackoff::unbounded());
        // Charging zero units forever never exhausts the budget.
        let (a, b, c) = operands(OpKind::PlusMul, 16);
        let mut be = ResilientBackend::new(
            faulty_tiled(5, 1_000_000),
            RecoveryPolicy::Retry { attempts: 3 },
        );
        let err = be.mmo(OpKind::PlusMul, &a, &b, &c).unwrap_err();
        assert!(err.is_corruption());
        let s = be.recovery_stats();
        assert_eq!(s.retries, 3, "the attempt count is the only bound");
        assert_eq!(s.backoff_units, 0);
        assert_eq!(s.budget_exhausted, 0);
    }

    #[test]
    fn structural_errors_are_not_retried() {
        let a = Matrix::zeros(4, 4);
        let bad_b = Matrix::zeros(5, 4);
        let c = Matrix::zeros(4, 4);
        let mut be = ResilientBackend::new(
            TiledBackend::new(),
            RecoveryPolicy::RetryThenFallback { attempts: 8 },
        );
        let err = be.mmo(OpKind::PlusMul, &a, &bad_b, &c).unwrap_err();
        assert!(matches!(err, BackendError::Shape(_)));
        assert_eq!(be.recovery_stats().retries, 0);
        assert_eq!(be.recovery_stats().fallbacks, 0);
    }

    #[test]
    fn wraps_the_isa_backend_with_executor_level_detection() {
        // The ISA backend verifies per instruction; its SilentCorruption
        // surfaces as BackendError::Corruption and the resilient wrapper
        // retries it with the injector's site counters preserved.
        let (a, b, c) = operands(OpKind::PlusMul, 16);
        let want = IsaBackend::new().mmo(OpKind::PlusMul, &a, &b, &c).unwrap();
        let mut inner = IsaBackend::new();
        let plan = FaultPlan::new(FaultPlanConfig::new(9).with_transient_nan_ppm(400_000));
        inner.set_injector(PlannedInjector::new(plan));
        inner.enable_verification(AbftConfig::default());
        let mut be = ResilientBackend::new(inner, RecoveryPolicy::Retry { attempts: 64 });
        let d = be.mmo(OpKind::PlusMul, &a, &b, &c).unwrap();
        assert_eq!(d, want);
        let injected = be
            .inner()
            .injector()
            .map(PlannedInjector::injected)
            .unwrap_or_default();
        let s = be.recovery_stats();
        assert_eq!(
            s.detections, injected,
            "every injected NaN fault is detected"
        );
        assert!(s.verified == 1);
    }

    #[test]
    fn recovery_events_reproduce_the_stats_struct() {
        use simd2_trace::RingSink;
        let ring = RingSink::shared();
        let (a, b, c) = operands(OpKind::MaxMin, 20);
        let mut be = ResilientBackend::new(
            faulty_tiled(7, 1_000_000),
            RecoveryPolicy::RetryThenFallback { attempts: 2 },
        )
        .with_tracer(Tracer::to(ring.clone()));
        be.mmo(OpKind::MaxMin, &a, &b, &c).unwrap();
        let events = ring.events();
        let stage_count = |stage: &str| -> u64 {
            events
                .iter()
                .filter(|e| e.is_stage(span::RECOVERY, stage))
                .count() as u64
        };
        let s = be.recovery_stats();
        assert_eq!(stage_count("mmo"), s.mmos);
        assert_eq!(stage_count("verified"), s.verified);
        assert_eq!(stage_count("detection"), s.detections);
        assert_eq!(stage_count("retry"), s.retries);
        assert_eq!(stage_count("retry_success"), s.retry_successes);
        assert_eq!(stage_count("fallback"), s.fallbacks);
        assert_eq!(stage_count("worker_panic"), s.worker_panics);
        assert_eq!(stage_count("panic_recovery"), s.panic_recoveries);
        assert_eq!(stage_count("budget_exhausted"), s.budget_exhausted);
        assert!(s.detections > 0 && s.fallbacks == 1);
        // The internal reference fallback shares the sink: its execution
        // shows up as an mmo span.
        assert!(events
            .iter()
            .any(|e| e.span == span::MMO && e.kind == simd2_trace::EventKind::End));
    }

    #[test]
    fn panic_recovery_emits_stage_events() {
        use crate::backend::Parallelism;
        use simd2_fault::PanicProbeUnit;
        use simd2_trace::RingSink;
        let ring = RingSink::shared();
        let (a, b, c) = operands(OpKind::PlusMul, 70);
        let mut inner = TiledBackend::with_unit(PanicProbeUnit::new(Simd2Unit::new(), 2));
        inner.set_parallelism(Parallelism::Threads(4));
        let mut be = ResilientBackend::new(inner, RecoveryPolicy::FailFast)
            .with_tracer(Tracer::to(ring.clone()));
        be.mmo(OpKind::PlusMul, &a, &b, &c).unwrap();
        let events = ring.events();
        let stage_count = |stage: &str| {
            events
                .iter()
                .filter(|e| e.is_stage(span::RECOVERY, stage))
                .count() as u64
        };
        let s = be.recovery_stats();
        assert_eq!(stage_count("worker_panic"), s.worker_panics);
        assert_eq!(stage_count("panic_recovery"), s.panic_recoveries);
        assert_eq!(s.panic_recoveries, 1);
    }

    #[test]
    fn jitter_off_by_default_keeps_exact_backoff_arithmetic() {
        assert_eq!(RetryBackoff::new(1, 8, 64).jitter_seed, None);
        assert_eq!(RetryBackoff::unbounded().jitter_seed, None);
        // Without a seed the charge IS the nominal cost, bit-for-bit.
        let b = RetryBackoff::new(3, 16, 100);
        for retry in 0..10 {
            assert_eq!(b.charge(retry, 7), 7);
        }
    }

    #[test]
    fn jittered_backoff_is_deterministic_and_bounded() {
        let b = RetryBackoff::new(4, 32, u64::MAX).with_jitter(2022);
        let again = RetryBackoff::new(4, 32, u64::MAX).with_jitter(2022);
        let mut saw_below_nominal = false;
        for retry in 0..64 {
            for nominal in [2u64, 4, 8, 16, 32] {
                let cost = b.charge(retry, nominal);
                // Same seed, same retry index: bit-identical draw.
                assert_eq!(cost, again.charge(retry, nominal));
                assert!(cost >= (nominal / 2).max(1), "{retry} {nominal} {cost}");
                assert!(cost <= nominal, "{retry} {nominal} {cost}");
                saw_below_nominal |= cost < nominal;
            }
            // Degenerate nominals are never jittered.
            assert_eq!(b.charge(retry, 0), 0);
            assert_eq!(b.charge(retry, 1), 1);
        }
        assert!(saw_below_nominal, "jitter must actually perturb the cost");
        // Different seeds desynchronise the schedules.
        let other = RetryBackoff::new(4, 32, u64::MAX).with_jitter(7);
        let diverged = (0..64u64).any(|r| other.charge(r, 32) != b.charge(r, 32));
        assert!(diverged, "distinct seeds should draw distinct schedules");
    }

    #[test]
    fn jittered_retry_loop_replays_bit_identically() {
        // Two identical resilient backends with the same jitter seed
        // spend identical backoff units and produce identical stats; a
        // third with another seed diverges in spend but not in outcome.
        let (a, b, c) = operands(OpKind::PlusMul, 16);
        let run = |seed: u64| {
            let mut be = ResilientBackend::new(
                faulty_tiled(5, 1_000_000),
                RecoveryPolicy::Retry { attempts: u32::MAX },
            )
            .with_backoff(RetryBackoff::new(2, 8, 40).with_jitter(seed));
            let err = be.mmo(OpKind::PlusMul, &a, &b, &c).unwrap_err();
            assert!(err.is_corruption());
            be.recovery_stats()
        };
        let s1 = run(2022);
        let s2 = run(2022);
        assert_eq!(s1, s2, "same seed, same campaign");
        assert_eq!(s1.budget_exhausted, 1);
        assert!(s1.backoff_units <= 40);
        // The no-jitter schedule 2,4,8,8,8,8 spends 38 of 40 over six
        // retries; jitter halves costs at worst so it can only retry
        // at least as many times within the same budget.
        let exact = run_without_jitter(&a, &b, &c);
        assert!(s1.retries >= exact.retries);
    }

    fn run_without_jitter(a: &Matrix, b: &Matrix, c: &Matrix) -> RecoveryStats {
        let mut be = ResilientBackend::new(
            faulty_tiled(5, 1_000_000),
            RecoveryPolicy::Retry { attempts: u32::MAX },
        )
        .with_backoff(RetryBackoff::new(2, 8, 40));
        be.mmo(OpKind::PlusMul, a, b, c).unwrap_err();
        be.recovery_stats()
    }

    #[test]
    fn surfaced_worker_panics_skip_sequential_recovery() {
        use crate::backend::Parallelism;
        use simd2_fault::PanicProbeUnit;
        let (a, b, c) = operands(OpKind::PlusMul, 70);
        let mut inner = TiledBackend::with_unit(PanicProbeUnit::new(Simd2Unit::new(), 2));
        inner.set_parallelism(Parallelism::Threads(4));
        let mut be = ResilientBackend::new(inner, RecoveryPolicy::Retry { attempts: 8 })
            .with_recover_panics(false);
        assert!(!be.recovers_panics());
        let err = be.mmo(OpKind::PlusMul, &a, &b, &c).unwrap_err();
        assert!(err.is_worker_panic(), "{err}");
        let s = be.recovery_stats();
        assert_eq!(s.worker_panics, 1, "the panic is still counted");
        assert_eq!(s.panic_recoveries, 0, "but never recovered in place");
        assert_eq!(s.retries, 0, "and never retried");
        assert_eq!(s.verified, 0);
    }

    #[test]
    fn policy_accessors_and_counts() {
        let be = ResilientBackend::new(TiledBackend::new(), RecoveryPolicy::Fallback);
        assert_eq!(be.policy(), RecoveryPolicy::Fallback);
        assert!(be.reduced_precision());
        assert_eq!(be.op_count(), OpCount::default());
        assert!(be.name().contains("resilient"));
    }
}
