//! The plan service: admission → per-tenant queues → weighted
//! round-robin scheduling → resilient execution → terminal outcomes.
//!
//! # Lifecycle
//!
//! [`PlanService::submit`] validates the payload (expanding registry
//! apps to their recorded plans), applies the service-wide backpressure
//! gate and the tenant's [`TenantQuota`], and either enqueues the job
//! or returns an explicit [`Rejected`]. [`PlanService::run_until_idle`]
//! drains the per-tenant FIFO queues in weighted round-robin order;
//! each job replays through the shared [`ResilientBackend`] under its
//! [`Deadline`] (a step-boundary [`ReplayControl`](simd2::ReplayControl)
//! budget check) and lands exactly one [`JobOutcome`].
//!
//! # Isolation
//!
//! Tenants share one backend but nothing else. A worker panic inside
//! tenant A's job is contained by the backend's panic isolation and
//! recovered sequentially; a poisoned input fails *that job* with
//! [`JobStatus::Failed`] after the recovery policy exhausts; neither
//! corrupts, delays past deadline bounds, nor aborts tenant B's jobs.
//! The `serve_soak` binary proves this under seeded chaos sweeps.

use std::collections::HashMap;
use std::collections::VecDeque;

use simd2::solve::ClosureAlgorithm;
use simd2::{
    Backend, Degrade, HaltedReplay, PassPipeline, Plan, PlanCheckpoint, PlanExecutor, PlanKey,
    RecoveryPolicy, RecoveryStats, ReplayProgress, ResilientBackend, RetryBackoff, TiledBackend,
};
use simd2_apps::{harness, AppKind};
use simd2_fault::abft::AbftConfig;
use simd2_semiring::simd::KernelIsa;
use simd2_trace::{field, span, Tracer};

use crate::admission::{plan_input_bytes, validate_plan, TenantLedger, TenantQuota};
use crate::breaker::{Breaker, BreakerConfig};
use crate::cache::{CacheStats, PlanCache};
use crate::job::{Deadline, JobId, JobOutcome, JobPayload, JobSpec, JobStatus, Rejected, TenantId};

/// Service-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Cap on jobs waiting across *all* tenants; submissions beyond it
    /// are rejected with [`Rejected::Backpressure`].
    pub max_queued_jobs: usize,
    /// Plan-cache entry capacity (`0` disables caching).
    pub cache_capacity: usize,
    /// Recovery policy every job executes under.
    pub policy: RecoveryPolicy,
    /// Backoff budget bounding the recovery retry loop.
    pub backoff: RetryBackoff,
    /// ABFT tolerances for result verification.
    pub abft: AbftConfig,
    /// Largest problem dimension accepted for registry-app payloads
    /// (app expansion runs the generator and baseline at admission
    /// time, so it must be bounded).
    pub max_app_dimension: usize,
    /// Per-tenant and per-plan circuit-breaker thresholds (disabled by
    /// default).
    pub breaker: BreakerConfig,
    /// Wave-granular checkpoint/resume scheduling (disabled by
    /// default). Arming this also disables the recovery layer's
    /// in-place panic recovery: worker panics surface to the scheduler,
    /// which checkpoints and resumes instead.
    pub resume: ResumeConfig,
    /// Degradation-ladder thresholds (disabled by default).
    pub degrade: DegradeConfig,
    /// Run every admitted plan through the serving pass pipeline
    /// ([`PassPipeline::serving`]: CSE, final-output-rooted dead-step
    /// elimination) before quota accounting and queueing (disabled by
    /// default). Quotas, deadlines, and the plan cache then all see the
    /// *optimized* plan — in particular the cache keys on the
    /// post-optimization structural hash, so differently-recorded but
    /// post-optimization-identical plans share one entry. Final
    /// outputs are bit-identical to replaying the unoptimized plan.
    pub optimize_plans: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_queued_jobs: 256,
            cache_capacity: 128,
            policy: RecoveryPolicy::RetryThenFallback { attempts: 3 },
            backoff: RetryBackoff::new(1, 8, 64),
            abft: AbftConfig::default(),
            max_app_dimension: 256,
            breaker: BreakerConfig::default(),
            resume: ResumeConfig::default(),
            degrade: DegradeConfig::default(),
            optimize_plans: false,
        }
    }
}

/// Checkpoint/resume scheduling policy.
///
/// With `max_resumes == 0` (the default) resume is disabled and the
/// service discards partial work on expiry, exactly as before. Armed,
/// a job halted by its deadline budget, the round quantum, or a worker
/// panic is *suspended*: its [`PlanCheckpoint`] rides along on the
/// queue entry, the job re-enqueues at the back of its tenant's queue,
/// and a later scheduling round resumes it — completed waves are never
/// re-executed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResumeConfig {
    /// Most plan steps one scheduling round may dispatch for a single
    /// job (`0` = unlimited: the job runs until its deadline budget or
    /// a failure stops it).
    pub quantum: u64,
    /// Most times one job may be suspended and resumed before the
    /// scheduler gives up and lands a terminal status (`0` disables
    /// resume entirely).
    pub max_resumes: u64,
}

impl ResumeConfig {
    /// Whether checkpoint/resume is armed.
    pub fn armed(&self) -> bool {
        self.max_resumes != 0
    }
}

/// Degradation-ladder thresholds. Each rung fires at most once, for
/// the life of the service, and emits a [`span::SERVE`] event when it
/// does.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DegradeConfig {
    /// ABFT detections observed while the backend runs a vector kernel
    /// tier after which the backend is pinned to the scalar kernel
    /// (`0` disables the rung).
    pub scalar_after_detections: u64,
    /// Worker panics after which parallel dispatch is demoted to
    /// sequential (`0` disables the rung).
    pub sequential_after_panics: u64,
}

/// The degradation ladder's observable state.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DegradeState {
    /// Whether the scalar-kernel rung has fired.
    pub scalar_pinned: bool,
    /// Whether the sequential-dispatch rung has fired.
    pub sequential: bool,
    /// ABFT detections accumulated while a vector tier was active.
    pub vector_detections: u64,
    /// Worker panics accumulated toward the sequential rung.
    pub panic_strikes: u64,
}

/// Per-tenant outcome counters, maintained by the scheduler and
/// mirrored one-for-one by [`span::SERVE`] telemetry events (the
/// `serve_soak` binary asserts exact equality).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Submissions received (admitted + rejected).
    pub submitted: u64,
    /// Jobs admitted into the queue.
    pub admitted: u64,
    /// Submissions refused by the service-wide queue cap.
    pub rejected_backpressure: u64,
    /// Submissions refused by this tenant's quotas.
    pub rejected_quota: u64,
    /// Submissions that could never execute.
    pub rejected_malformed: u64,
    /// Jobs that completed (including cache hits).
    pub completed: u64,
    /// Jobs that ran out of deadline budget.
    pub expired: u64,
    /// Jobs that failed terminally.
    pub failed: u64,
    /// Completed jobs the recovery layer had to rescue.
    pub recovered: u64,
    /// Completed jobs served from the plan cache.
    pub cache_hits: u64,
    /// Plan steps actually dispatched for this tenant (each step
    /// counted once, across the initial round and every resume).
    pub executed_steps: u64,
    /// Scheduling rounds that suspended a job at a wave boundary with
    /// its checkpoint kept.
    pub suspended: u64,
    /// Scheduling rounds that resumed a suspended job from its
    /// checkpoint.
    pub resumed: u64,
    /// Circuit-breaker trips (tenant and plan breakers) caused by this
    /// tenant's failures.
    pub breaker_trips: u64,
    /// Jobs refused by an open breaker without executing.
    pub breaker_short_circuits: u64,
    /// Jobs refused because their plan is quarantined.
    pub quarantined: u64,
    /// Fault-injector log entries dropped by ring-buffer overflow
    /// while this tenant's jobs executed.
    pub fault_log_dropped: u64,
}

impl TenantStats {
    /// Total rejections across all classes.
    pub fn rejected(&self) -> u64 {
        self.rejected_backpressure + self.rejected_quota + self.rejected_malformed
    }

    /// Jobs that reached a terminal status.
    pub fn terminal(&self) -> u64 {
        self.completed + self.expired + self.failed + self.quarantined
    }
}

/// One admitted job waiting for a scheduling round — fresh, or
/// suspended mid-plan with its checkpoint riding along.
#[derive(Clone, Debug)]
struct QueuedJob {
    id: JobId,
    plan: Plan,
    deadline: Deadline,
    steps: u64,
    bytes: u64,
    /// Completed-wave state from a previous round (`None` until the
    /// job's first suspension).
    checkpoint: Option<PlanCheckpoint>,
}

/// Everything the service tracks per tenant.
#[derive(Clone, Debug)]
struct TenantState {
    quota: TenantQuota,
    ledger: TenantLedger,
    queue: VecDeque<QueuedJob>,
    stats: TenantStats,
    breaker: Breaker,
}

impl TenantState {
    fn new(quota: TenantQuota) -> Self {
        Self {
            quota,
            ledger: TenantLedger::default(),
            queue: VecDeque::new(),
            stats: TenantStats::default(),
            breaker: Breaker::new(),
        }
    }
}

/// A multi-tenant plan service over one shared backend.
///
/// The backend is wrapped in a [`ResilientBackend`] so every job runs
/// through ABFT verification and the configured recovery policy. See
/// the [module docs](self) for the lifecycle and isolation story.
#[derive(Debug)]
pub struct PlanService<B: Backend> {
    backend: ResilientBackend<B>,
    /// Sequential clean recorder used to expand registry-app payloads.
    recorder: TiledBackend,
    /// Registration order doubles as the deterministic round-robin
    /// order.
    tenants: Vec<(TenantId, TenantState)>,
    cache: PlanCache,
    app_plans: HashMap<(AppKind, usize, u64), Plan>,
    /// Per-plan circuit breakers (populated only when breakers are
    /// armed; one entry per distinct executed plan).
    plan_breakers: HashMap<PlanKey, Breaker>,
    outcomes: Vec<JobOutcome>,
    tracer: Tracer,
    next_job: u64,
    queued_total: usize,
    max_queued_jobs: usize,
    max_app_dimension: usize,
    breaker_config: BreakerConfig,
    resume_config: ResumeConfig,
    degrade_config: DegradeConfig,
    degrade: DegradeState,
    optimize_plans: bool,
}

impl<B: Backend> PlanService<B> {
    /// Builds a service executing on `backend` under `config`.
    pub fn new(backend: B, config: ServeConfig) -> Self {
        let mut backend = ResilientBackend::with_config(backend, config.policy, config.abft)
            .with_backoff(config.backoff);
        // With resume armed the scheduler owns panic handling: the
        // recovery layer surfaces worker panics instead of re-running
        // sequentially in place, so the halt lands a checkpoint.
        if config.resume.armed() {
            backend.set_recover_panics(false);
        }
        Self {
            backend,
            recorder: TiledBackend::new(),
            tenants: Vec::new(),
            cache: PlanCache::new(config.cache_capacity),
            app_plans: HashMap::new(),
            plan_breakers: HashMap::new(),
            outcomes: Vec::new(),
            tracer: Tracer::off(),
            next_job: 0,
            queued_total: 0,
            max_queued_jobs: config.max_queued_jobs,
            max_app_dimension: config.max_app_dimension,
            breaker_config: config.breaker,
            resume_config: config.resume,
            degrade_config: config.degrade,
            degrade: DegradeState::default(),
            optimize_plans: config.optimize_plans,
        }
    }

    /// Attaches a telemetry tracer: job lifecycle instants
    /// ([`span::SERVE`]), plan replay spans, and recovery-layer events
    /// all land in the same sink.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.backend.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Attaches a telemetry tracer (builder form).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.set_tracer(tracer);
        self
    }

    /// Registers `tenant` with `quota`, or updates the quota of an
    /// already-registered tenant (its queue and stats are kept).
    pub fn register_tenant(&mut self, tenant: TenantId, quota: TenantQuota) {
        match self.tenant_index(tenant) {
            Some(idx) => self.tenants[idx].1.quota = quota,
            None => self.tenants.push((tenant, TenantState::new(quota))),
        }
    }

    /// The registered tenants, in registration (= scheduling) order.
    pub fn tenants(&self) -> Vec<TenantId> {
        self.tenants.iter().map(|(t, _)| *t).collect()
    }

    fn tenant_index(&self, tenant: TenantId) -> Option<usize> {
        self.tenants.iter().position(|(t, _)| *t == tenant)
    }

    fn emit_stage(&self, stage: &'static str, tenant: TenantId, job: Option<JobId>) {
        match job {
            Some(id) => self.tracer.instant(
                span::SERVE,
                &[
                    field("stage", stage),
                    field("tenant", tenant.0),
                    field("job", id.0),
                ],
            ),
            None => self.tracer.instant(
                span::SERVE,
                &[field("stage", stage), field("tenant", tenant.0)],
            ),
        }
    }

    /// Submits a job for `tenant`.
    ///
    /// # Errors
    ///
    /// [`Rejected::Malformed`] for unknown tenants and structurally
    /// unexecutable payloads, [`Rejected::Backpressure`] when the
    /// service-wide queue is full, [`Rejected::QuotaExceeded`] when the
    /// tenant is over its own limits. Rejections consume no queue
    /// space.
    pub fn submit(&mut self, tenant: TenantId, spec: JobSpec) -> Result<JobId, Rejected> {
        let Some(idx) = self.tenant_index(tenant) else {
            return Err(Rejected::Malformed {
                reason: format!("{tenant} is not registered"),
            });
        };
        self.tenants[idx].1.stats.submitted += 1;
        self.emit_stage("submitted", tenant, None);
        let result = self.admit(idx, spec);
        match &result {
            Ok(id) => {
                self.tenants[idx].1.stats.admitted += 1;
                self.emit_stage("admitted", tenant, Some(*id));
            }
            Err(rejection) => {
                let stats = &mut self.tenants[idx].1.stats;
                match rejection {
                    Rejected::Backpressure { .. } => stats.rejected_backpressure += 1,
                    Rejected::QuotaExceeded { .. } => stats.rejected_quota += 1,
                    Rejected::Malformed { .. } => stats.rejected_malformed += 1,
                }
                self.emit_stage(rejection.stage(), tenant, None);
            }
        }
        result
    }

    fn admit(&mut self, idx: usize, spec: JobSpec) -> Result<JobId, Rejected> {
        let plan = match spec.payload {
            JobPayload::Plan(plan) => plan,
            JobPayload::App { app, n, seed } => self.app_plan(app, n, seed)?,
        };
        validate_plan(&plan)?;
        // Optimization happens before quota accounting and queueing, so
        // steps/bytes ledgers, deadline budgets, and — crucially — the
        // plan cache key all describe the plan that actually replays.
        // The serving pipeline's final-output-rooted DSE guarantees the
        // optimized plan's final output is the original's, bit for bit.
        let plan = if self.optimize_plans {
            PassPipeline::serving().run(plan).into_plan()
        } else {
            plan
        };
        if self.queued_total >= self.max_queued_jobs {
            return Err(Rejected::Backpressure {
                queued: self.queued_total,
                capacity: self.max_queued_jobs,
            });
        }
        let steps = plan.step_count() as u64;
        let bytes = plan_input_bytes(&plan);
        {
            let state = &self.tenants[idx].1;
            state.ledger.admit(&state.quota, steps, bytes)?;
        }
        let id = JobId(self.next_job);
        self.next_job += 1;
        let state = &mut self.tenants[idx].1;
        state.ledger.in_flight += 1;
        state.ledger.queued_steps += steps;
        state.ledger.queued_bytes += bytes;
        state.queue.push_back(QueuedJob {
            id,
            plan,
            deadline: spec.deadline,
            steps,
            bytes,
            checkpoint: None,
        });
        self.queued_total += 1;
        Ok(id)
    }

    /// Expands a registry-app payload to its recorded plan on the
    /// internal sequential recorder, memoized per `(app, n, seed)`.
    /// Expansion happens at admission so quotas and deadlines see the
    /// plan's real step count.
    fn app_plan(&mut self, app: AppKind, n: usize, seed: u64) -> Result<Plan, Rejected> {
        if n < 16 || n > self.max_app_dimension {
            return Err(Rejected::Malformed {
                reason: format!("app dimension {n} outside 16..={}", self.max_app_dimension),
            });
        }
        if let Some(plan) = self.app_plans.get(&(app, n, seed)) {
            return Ok(plan.clone());
        }
        let run = harness::run_app(
            &mut self.recorder,
            app,
            n,
            seed,
            ClosureAlgorithm::Leyzorek,
            true,
        );
        self.app_plans.insert((app, n, seed), run.plan.clone());
        Ok(run.plan)
    }

    /// Drains every tenant queue: each cycle visits tenants in
    /// registration order and executes up to `weight` jobs per tenant,
    /// so a weight-2 tenant drains twice as fast as a weight-1 tenant
    /// under contention. Returns the number of scheduling rounds
    /// executed (with resume disabled, exactly the number of jobs).
    /// Every admitted job lands one [`JobOutcome`] — deterministically,
    /// in scheduling order; suspended jobs re-enter the back of their
    /// tenant's queue and finish in a later cycle.
    pub fn run_until_idle(&mut self) -> usize {
        let mut executed = 0;
        loop {
            let mut progressed = false;
            for idx in 0..self.tenants.len() {
                let weight = self.tenants[idx].1.quota.weight.max(1);
                for _ in 0..weight {
                    let Some(job) = self.tenants[idx].1.queue.pop_front() else {
                        break;
                    };
                    self.execute(idx, job);
                    executed += 1;
                    progressed = true;
                }
            }
            if !progressed {
                return executed;
            }
        }
    }

    /// Executes one scheduling round of `job`: either to a terminal
    /// status, or to a wave-boundary suspension that re-enqueues the
    /// job with its checkpoint.
    fn execute(&mut self, idx: usize, mut job: QueuedJob) {
        let tenant = self.tenants[idx].0;
        {
            let ledger = &mut self.tenants[idx].1.ledger;
            ledger.queued_steps -= job.steps;
            ledger.queued_bytes -= job.bytes;
        }
        self.queued_total -= 1;
        let total_steps = job.plan.step_count() as u64;
        let key = job.plan.cache_key();

        if self.breaker_config.armed() {
            if let Some(status) = self.breaker_gate(idx, job.id, key) {
                self.finish(idx, &job, key, 0, status, false);
                return;
            }
        }

        let resumed_round = job.checkpoint.is_some();
        if resumed_round {
            self.tenants[idx].1.stats.resumed += 1;
            self.emit_stage("resumed", tenant, Some(job.id));
        } else if let Some(output) = self.cache.get(&key) {
            let status = JobStatus::Completed {
                output,
                cache_hit: true,
                recovered: false,
                executed_steps: 0,
            };
            self.finish(idx, &job, key, 0, status, false);
            return;
        }

        let before = self.backend.recovery_stats();
        let dropped_before = self.backend.health().fault_log_dropped;
        let base = job
            .checkpoint
            .as_ref()
            .map_or(0, |c| c.completed_steps() as u64);
        let deadline = job.deadline;
        let quantum = self.resume_config.quantum;
        let mut control = |p: ReplayProgress| {
            let done = p.completed_steps as u64;
            if !deadline.allows(done) {
                return Err(format!(
                    "deadline: step budget {}",
                    deadline.budget().unwrap_or(0)
                ));
            }
            if quantum != 0 && done - base >= quantum {
                return Err(format!("quantum: round budget {quantum}"));
            }
            Ok(())
        };
        let executor = PlanExecutor::new().with_tracer(self.tracer.clone());
        let result = match job.checkpoint.take() {
            Some(cp) => executor.resume_from(&job.plan, cp, &mut self.backend, &mut control),
            None => executor.run_resumable(&job.plan, &mut self.backend, &mut control),
        };
        let after = self.backend.recovery_stats();
        self.tenants[idx].1.stats.fault_log_dropped +=
            self.backend.health().fault_log_dropped - dropped_before;
        self.feed_degradation(tenant, job.id, &before, &after);

        match result {
            Ok(replay) => {
                let recovered = after.retry_successes != before.retry_successes
                    || after.panic_recoveries != before.panic_recoveries
                    || after.fallbacks != before.fallbacks;
                let output = replay
                    .into_final_output()
                    .expect("admitted plans are non-empty");
                self.cache.insert(key, output.clone());
                let status = JobStatus::Completed {
                    output,
                    cache_hit: false,
                    recovered,
                    executed_steps: total_steps,
                };
                self.finish(idx, &job, key, total_steps - base, status, true);
            }
            Err(halted) => self.finish_halted(idx, job, key, base, *halted),
        }
    }

    /// The pre-execution breaker gate: quarantine first, then the plan
    /// breaker, then the tenant breaker. Returns the terminal status
    /// that short-circuits the job, or `None` to let it execute.
    fn breaker_gate(&mut self, idx: usize, job_id: JobId, key: PlanKey) -> Option<JobStatus> {
        let cfg = self.breaker_config;
        let tenant = self.tenants[idx].0;
        if let Some(b) = self.plan_breakers.get(&key) {
            if b.quarantined(&cfg) {
                return Some(JobStatus::Quarantined {
                    key,
                    trips: b.trips(),
                });
            }
        }
        if !self.plan_breakers.entry(key).or_default().admit(&cfg) {
            self.tenants[idx].1.stats.breaker_short_circuits += 1;
            self.emit_stage("breaker_short_circuit", tenant, Some(job_id));
            return Some(JobStatus::Failed {
                step: 0,
                executed_steps: 0,
                error: format!("circuit breaker open for plan {key:?}"),
            });
        }
        if !self.tenants[idx].1.breaker.admit(&cfg) {
            self.tenants[idx].1.stats.breaker_short_circuits += 1;
            self.emit_stage("breaker_short_circuit", tenant, Some(job_id));
            return Some(JobStatus::Failed {
                step: 0,
                executed_steps: 0,
                error: format!("circuit breaker open for {tenant}"),
            });
        }
        None
    }

    /// Lands a halted round: a wave-boundary suspension (checkpoint
    /// kept, job re-enqueued) when the resume policy allows, otherwise
    /// a terminal expiry or failure carrying exact resume accounting.
    fn finish_halted(
        &mut self,
        idx: usize,
        job: QueuedJob,
        key: PlanKey,
        base: u64,
        halted: HaltedReplay,
    ) {
        let HaltedReplay { error, checkpoint } = halted;
        let done = checkpoint.completed_steps() as u64;
        let round_executed = done - base;
        let resumes = checkpoint.resumes();
        let total_steps = checkpoint.total_steps() as u64;
        let budget = job.deadline.budget();
        let resume_armed = self.resume_config.armed();
        let resumes_left = resumes < self.resume_config.max_resumes;
        if error.is_cancelled() {
            // Deadline or round-quantum halt at a step boundary (a
            // quantum always admits one step, so a suspended round made
            // progress).
            let budget_open = budget.is_none_or(|b| b > done);
            if resume_armed && budget_open && resumes_left {
                self.suspend(idx, job, checkpoint, round_executed);
                return;
            }
            let status = JobStatus::Expired {
                executed_steps: done,
                budget: budget.unwrap_or(0),
                total_steps,
                resumed_from: resumes,
                checkpoint: resume_armed.then_some(key),
                resumable: resume_armed && budget_open,
            };
            self.finish(idx, &job, key, round_executed, status, true);
        } else {
            // A backend failure. Worker panics (surfaced because resume
            // arms `recover_panics = false`) suspend and retry in a
            // later round — the degradation ladder makes those retries
            // converge; everything else is terminal.
            let panicked = error
                .backend_error()
                .is_some_and(simd2::BackendError::is_worker_panic);
            if resume_armed && panicked && resumes_left {
                self.suspend(idx, job, checkpoint, round_executed);
                return;
            }
            let status = JobStatus::Failed {
                step: error.step,
                executed_steps: done,
                error: error
                    .backend_error()
                    .map(ToString::to_string)
                    .unwrap_or_default(),
            };
            self.finish(idx, &job, key, round_executed, status, true);
        }
    }

    /// Re-enqueues a halted job at the back of its tenant's queue with
    /// its checkpoint riding along: completed waves are never
    /// re-executed.
    fn suspend(
        &mut self,
        idx: usize,
        mut job: QueuedJob,
        checkpoint: PlanCheckpoint,
        round_executed: u64,
    ) {
        let tenant = self.tenants[idx].0;
        job.checkpoint = Some(checkpoint);
        {
            let state = &mut self.tenants[idx].1;
            state.stats.suspended += 1;
            state.stats.executed_steps += round_executed;
            state.ledger.queued_steps += job.steps;
            state.ledger.queued_bytes += job.bytes;
        }
        self.queued_total += 1;
        self.tracer.instant(
            span::SERVE,
            &[
                field("stage", "suspended"),
                field("tenant", tenant.0),
                field("job", job.id.0),
                field("executed_steps", round_executed),
            ],
        );
        self.tenants[idx].1.queue.push_back(job);
    }

    /// Lands a terminal status: stats, breaker recording (for statuses
    /// that actually `executed`), telemetry, ledger release, and the
    /// outcome record. The telemetry event carries this *round's*
    /// dispatched steps, so event sums stay equal to
    /// [`TenantStats::executed_steps`] across suspensions.
    fn finish(
        &mut self,
        idx: usize,
        job: &QueuedJob,
        key: PlanKey,
        round_executed: u64,
        status: JobStatus,
        executed: bool,
    ) {
        let tenant = self.tenants[idx].0;
        {
            let state = &mut self.tenants[idx].1;
            state.ledger.in_flight -= 1;
            state.stats.executed_steps += round_executed;
            match &status {
                JobStatus::Completed {
                    cache_hit,
                    recovered,
                    ..
                } => {
                    state.stats.completed += 1;
                    if *cache_hit {
                        state.stats.cache_hits += 1;
                    }
                    if *recovered {
                        state.stats.recovered += 1;
                    }
                }
                JobStatus::Expired { .. } => state.stats.expired += 1,
                JobStatus::Failed { .. } => state.stats.failed += 1,
                JobStatus::Quarantined { .. } => state.stats.quarantined += 1,
            }
        }
        if executed {
            self.record_breakers(idx, job.id, key, &status);
        }
        self.tracer.instant(
            span::SERVE,
            &[
                field("stage", status.label()),
                field("tenant", tenant.0),
                field("job", job.id.0),
                field("executed_steps", round_executed),
            ],
        );
        if let JobStatus::Completed {
            cache_hit,
            recovered,
            ..
        } = &status
        {
            if *cache_hit {
                self.emit_stage("cache_hit", tenant, Some(job.id));
            }
            if *recovered {
                self.emit_stage("recovered", tenant, Some(job.id));
            }
        }
        self.outcomes.push(JobOutcome {
            tenant,
            job: job.id,
            status,
        });
    }

    /// Feeds an executed job's terminal outcome to its tenant and plan
    /// breakers. Short-circuited and cache-hit jobs never reach here —
    /// they executed nothing. Expiry and suspension count as neither
    /// success nor failure.
    fn record_breakers(&mut self, idx: usize, job_id: JobId, key: PlanKey, status: &JobStatus) {
        if !self.breaker_config.armed() {
            return;
        }
        let cfg = self.breaker_config;
        let tenant = self.tenants[idx].0;
        match status {
            JobStatus::Completed { .. } => {
                self.tenants[idx].1.breaker.record_success();
                if let Some(b) = self.plan_breakers.get_mut(&key) {
                    b.record_success();
                }
            }
            JobStatus::Failed { .. } => {
                let mut trips = 0u64;
                if self.tenants[idx].1.breaker.record_failure(&cfg) {
                    trips += 1;
                }
                if self
                    .plan_breakers
                    .entry(key)
                    .or_default()
                    .record_failure(&cfg)
                {
                    trips += 1;
                }
                for _ in 0..trips {
                    self.tenants[idx].1.stats.breaker_trips += 1;
                    self.emit_stage("breaker_trip", tenant, Some(job_id));
                }
            }
            JobStatus::Expired { .. } | JobStatus::Quarantined { .. } => {}
        }
    }

    /// Advances the degradation ladder from one round's recovery-stat
    /// deltas: ABFT detections observed while a vector kernel tier is
    /// active pin the backend to the scalar kernel; worker panics
    /// demote parallel dispatch to sequential. Each rung fires at most
    /// once and emits a [`span::SERVE`] event.
    fn feed_degradation(
        &mut self,
        tenant: TenantId,
        job: JobId,
        before: &RecoveryStats,
        after: &RecoveryStats,
    ) {
        let cfg = self.degrade_config;
        if cfg.scalar_after_detections != 0
            && !self.degrade.scalar_pinned
            && self.backend.health().kernel_isa != KernelIsa::Scalar
        {
            self.degrade.vector_detections += after.detections - before.detections;
            if self.degrade.vector_detections >= cfg.scalar_after_detections
                && self
                    .backend
                    .degrade(Degrade::PinKernelIsa(KernelIsa::Scalar))
            {
                self.degrade.scalar_pinned = true;
                self.emit_stage("degraded_scalar", tenant, Some(job));
            }
        }
        if cfg.sequential_after_panics != 0 && !self.degrade.sequential {
            self.degrade.panic_strikes += after.worker_panics - before.worker_panics;
            if self.degrade.panic_strikes >= cfg.sequential_after_panics
                && self.backend.degrade(Degrade::ForceSequential)
            {
                self.degrade.sequential = true;
                self.emit_stage("degraded_sequential", tenant, Some(job));
            }
        }
    }

    /// Drains the accumulated terminal outcomes, in execution order.
    pub fn take_outcomes(&mut self) -> Vec<JobOutcome> {
        std::mem::take(&mut self.outcomes)
    }

    /// A tenant's outcome counters (`None` if unregistered).
    pub fn tenant_stats(&self, tenant: TenantId) -> Option<TenantStats> {
        self.tenant_index(tenant).map(|i| self.tenants[i].1.stats)
    }

    /// A tenant's live admission ledger (`None` if unregistered).
    pub fn tenant_ledger(&self, tenant: TenantId) -> Option<TenantLedger> {
        self.tenant_index(tenant).map(|i| self.tenants[i].1.ledger)
    }

    /// Jobs currently queued across all tenants.
    pub fn queued_jobs(&self) -> usize {
        self.queued_total
    }

    /// Plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The shared recovery layer's counters.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.backend.recovery_stats()
    }

    /// The resilient execution backend (e.g. to inspect the wrapped
    /// inner backend).
    pub fn resilient(&self) -> &ResilientBackend<B> {
        &self.backend
    }

    /// Mutable access to the resilient execution backend (e.g. to
    /// install fault injectors in chaos tests).
    pub fn resilient_mut(&mut self) -> &mut ResilientBackend<B> {
        &mut self.backend
    }

    /// A tenant's circuit breaker (`None` if unregistered).
    pub fn tenant_breaker(&self, tenant: TenantId) -> Option<Breaker> {
        self.tenant_index(tenant).map(|i| self.tenants[i].1.breaker)
    }

    /// A plan's circuit breaker (`None` until the plan first executes
    /// with breakers armed).
    pub fn plan_breaker(&self, key: PlanKey) -> Option<Breaker> {
        self.plan_breakers.get(&key).copied()
    }

    /// Whether `key`'s plan has tripped its breaker into quarantine.
    pub fn plan_quarantined(&self, key: PlanKey) -> bool {
        self.plan_breakers
            .get(&key)
            .is_some_and(|b| b.quarantined(&self.breaker_config))
    }

    /// The degradation ladder's current state.
    pub fn degrade_state(&self) -> DegradeState {
        self.degrade
    }

    /// Fault-injector log entries dropped by ring-buffer overflow on
    /// the shared backend (`0` when no injector is installed).
    pub fn fault_log_dropped(&self) -> u64 {
        self.backend.health().fault_log_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simd2::{Parallelism, PlanBuilder};
    use simd2_fault::PanicProbeUnit;
    use simd2_matrix::Matrix;
    use simd2_mxu::Simd2Unit;
    use simd2_semiring::OpKind;
    use simd2_trace::RingSink;

    /// Records a `len`-step min-plus chain over `side`-square inputs
    /// filled with `fill` (distinct fills → distinct cache keys).
    fn chain_plan(len: usize, side: usize, fill: f32) -> Plan {
        let a = Matrix::from_fn(side, side, |r, c| fill + (r * side + c) as f32);
        let c = Matrix::filled(side, side, f32::INFINITY);
        let mut be = TiledBackend::new();
        let mut rec = PlanBuilder::over(&mut be);
        let mut cur = rec.mmo(OpKind::MinPlus, &a, &a, &c).unwrap();
        for _ in 1..len {
            cur = rec.mmo(OpKind::MinPlus, &cur, &a, &c).unwrap();
        }
        rec.finish()
    }

    /// The sequential clean-replay oracle every completed job must
    /// match bit-for-bit.
    fn clean_output(plan: &Plan) -> Matrix {
        PlanExecutor::new()
            .run(plan, &mut TiledBackend::new())
            .unwrap()
            .into_final_output()
            .unwrap()
    }

    fn assert_bit_identical(got: &Matrix, want: &Matrix) {
        assert_eq!(got.shape(), want.shape());
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert_eq!(g.to_bits(), w.to_bits(), "outputs diverge");
        }
    }

    fn service() -> PlanService<TiledBackend> {
        PlanService::new(TiledBackend::new(), ServeConfig::default())
    }

    #[test]
    fn unknown_tenants_are_rejected_as_malformed() {
        let mut svc = service();
        let err = svc
            .submit(TenantId(9), JobSpec::plan(chain_plan(1, 16, 0.0)))
            .unwrap_err();
        assert!(matches!(err, Rejected::Malformed { .. }));
        assert!(svc.tenant_stats(TenantId(9)).is_none());
    }

    #[test]
    fn completed_jobs_are_bit_identical_to_a_clean_sequential_replay() {
        let mut svc = service();
        let t = TenantId(0);
        svc.register_tenant(t, TenantQuota::default());
        let plan = chain_plan(3, 16, 1.0);
        let want = clean_output(&plan);
        let id = svc.submit(t, JobSpec::plan(plan)).unwrap();
        assert_eq!(svc.run_until_idle(), 1);
        let outcomes = svc.take_outcomes();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].job, id);
        let JobStatus::Completed {
            output,
            cache_hit,
            recovered,
            executed_steps,
        } = &outcomes[0].status
        else {
            panic!("expected completion, got {:?}", outcomes[0].status);
        };
        assert!(!cache_hit);
        assert!(!recovered);
        assert_eq!(*executed_steps, 3);
        assert_bit_identical(output, &want);
        let stats = svc.tenant_stats(t).unwrap();
        assert_eq!(
            (stats.submitted, stats.admitted, stats.completed),
            (1, 1, 1)
        );
        assert_eq!(stats.executed_steps, 3);
        assert_eq!(svc.tenant_ledger(t).unwrap(), TenantLedger::default());
    }

    #[test]
    fn tenant_quotas_reject_with_explicit_responses() {
        let mut svc = service();
        let t = TenantId(0);
        svc.register_tenant(t, TenantQuota::default().with_max_in_flight(1));
        svc.submit(t, JobSpec::plan(chain_plan(1, 16, 0.0)))
            .unwrap();
        let err = svc
            .submit(t, JobSpec::plan(chain_plan(1, 16, 1.0)))
            .unwrap_err();
        assert!(matches!(
            err,
            Rejected::QuotaExceeded {
                quota: "in_flight_jobs",
                ..
            }
        ));
        assert_eq!(svc.tenant_stats(t).unwrap().rejected_quota, 1);
        // Draining the queue frees the quota.
        svc.run_until_idle();
        assert!(svc.submit(t, JobSpec::plan(chain_plan(1, 16, 1.0))).is_ok());
    }

    #[test]
    fn service_wide_backpressure_spills_over_to_other_tenants() {
        let config = ServeConfig {
            max_queued_jobs: 1,
            ..ServeConfig::default()
        };
        let mut svc = PlanService::new(TiledBackend::new(), config);
        let (t0, t1) = (TenantId(0), TenantId(1));
        svc.register_tenant(t0, TenantQuota::default());
        svc.register_tenant(t1, TenantQuota::default());
        svc.submit(t0, JobSpec::plan(chain_plan(1, 16, 0.0)))
            .unwrap();
        let err = svc
            .submit(t1, JobSpec::plan(chain_plan(1, 16, 1.0)))
            .unwrap_err();
        assert!(matches!(
            err,
            Rejected::Backpressure {
                queued: 1,
                capacity: 1
            }
        ));
        assert_eq!(svc.tenant_stats(t1).unwrap().rejected_backpressure, 1);
    }

    #[test]
    fn weighted_round_robin_drains_in_registration_order_by_weight() {
        let mut svc = service();
        let (t0, t1) = (TenantId(0), TenantId(1));
        svc.register_tenant(t0, TenantQuota::default().with_weight(2));
        svc.register_tenant(t1, TenantQuota::default().with_weight(1));
        for i in 0..4 {
            svc.submit(t0, JobSpec::plan(chain_plan(1, 16, i as f32)))
                .unwrap();
        }
        for i in 0..2 {
            svc.submit(t1, JobSpec::plan(chain_plan(1, 16, 100.0 + i as f32)))
                .unwrap();
        }
        assert_eq!(svc.run_until_idle(), 6);
        let order: Vec<TenantId> = svc.take_outcomes().iter().map(|o| o.tenant).collect();
        assert_eq!(order, vec![t0, t0, t1, t0, t0, t1]);
    }

    #[test]
    fn deadlines_expire_at_step_boundaries_with_exact_accounting() {
        let mut svc = service();
        let t = TenantId(0);
        svc.register_tenant(t, TenantQuota::default());
        let plan = chain_plan(3, 16, 2.0);
        svc.submit(
            t,
            JobSpec::plan(plan.clone()).with_deadline(Deadline::Steps(1)),
        )
        .unwrap();
        svc.submit(
            t,
            JobSpec::plan(plan.clone()).with_deadline(Deadline::Steps(0)),
        )
        .unwrap();
        svc.submit(
            t,
            JobSpec::plan(plan.clone()).with_deadline(Deadline::Steps(3)),
        )
        .unwrap();
        assert_eq!(svc.run_until_idle(), 3);
        let outcomes = svc.take_outcomes();
        // With resume disabled, expiry is terminal: no checkpoint, no
        // resumability, zero resumes.
        assert!(matches!(
            outcomes[0].status,
            JobStatus::Expired {
                executed_steps: 1,
                budget: 1,
                total_steps: 3,
                resumed_from: 0,
                checkpoint: None,
                resumable: false,
            }
        ));
        assert_eq!(outcomes[0].status.remaining_budget(), Some(0));
        assert!(matches!(
            outcomes[1].status,
            JobStatus::Expired {
                executed_steps: 0,
                budget: 0,
                total_steps: 3,
                resumed_from: 0,
                checkpoint: None,
                resumable: false,
            }
        ));
        assert!(matches!(
            &outcomes[2].status,
            JobStatus::Completed {
                executed_steps: 3,
                ..
            }
        ));
        let stats = svc.tenant_stats(t).unwrap();
        assert_eq!((stats.expired, stats.completed), (2, 1));
        // 1 step from the first job, 0 from the second, 3 from the
        // third. The expired jobs' partial work is still accounted.
        assert_eq!(stats.executed_steps, 4);
    }

    #[test]
    fn structurally_identical_resubmission_hits_the_cache_bit_identically() {
        let mut svc = service();
        let t = TenantId(0);
        svc.register_tenant(t, TenantQuota::default());
        // Recorded independently: equal cache keys come from content,
        // not object identity.
        svc.submit(t, JobSpec::plan(chain_plan(2, 16, 3.0)))
            .unwrap();
        svc.submit(t, JobSpec::plan(chain_plan(2, 16, 3.0)))
            .unwrap();
        // A deadline too tight to run even one step: the cache hit
        // bypasses execution entirely, so it still completes.
        svc.submit(
            t,
            JobSpec::plan(chain_plan(2, 16, 3.0)).with_deadline(Deadline::Steps(0)),
        )
        .unwrap();
        assert_eq!(svc.run_until_idle(), 3);
        let outcomes = svc.take_outcomes();
        let JobStatus::Completed { output: cold, .. } = &outcomes[0].status else {
            panic!("cold run should complete");
        };
        for outcome in &outcomes[1..] {
            let JobStatus::Completed {
                output,
                cache_hit,
                executed_steps,
                ..
            } = &outcome.status
            else {
                panic!("cache hit should complete, got {:?}", outcome.status);
            };
            assert!(cache_hit);
            assert_eq!(*executed_steps, 0);
            assert_bit_identical(output, cold);
        }
        let cache = svc.cache_stats();
        assert_eq!((cache.hits, cache.misses, cache.entries), (2, 1, 1));
        assert_eq!(svc.tenant_stats(t).unwrap().cache_hits, 2);
    }

    #[test]
    fn app_payloads_expand_at_admission_and_cache_across_submissions() {
        let mut svc = service();
        let t = TenantId(0);
        svc.register_tenant(t, TenantQuota::default());
        svc.submit(t, JobSpec::app(AppKind::Apsp, 32, 7)).unwrap();
        svc.submit(t, JobSpec::app(AppKind::Apsp, 32, 7)).unwrap();
        let err = svc
            .submit(t, JobSpec::app(AppKind::Apsp, 100_000, 7))
            .unwrap_err();
        assert!(matches!(err, Rejected::Malformed { .. }));
        assert_eq!(svc.run_until_idle(), 2);
        let outcomes = svc.take_outcomes();
        let JobStatus::Completed {
            output: cold,
            cache_hit: false,
            ..
        } = &outcomes[0].status
        else {
            panic!("app job should complete cold");
        };
        let JobStatus::Completed {
            output: warm,
            cache_hit: true,
            ..
        } = &outcomes[1].status
        else {
            panic!("identical app job should hit the cache");
        };
        assert_bit_identical(warm, cold);
    }

    #[test]
    fn a_poisoned_tenant_stays_deterministic_and_neighbours_stay_clean() {
        // NaN inputs are *legitimate* to ABFT (NaN-in → NaN-out): the
        // poisoned job completes, deterministically, with its own
        // clean-replay bits — and the poison never leaks into another
        // tenant's outputs through the shared backend.
        let mut svc = service();
        let (bad, good) = (TenantId(0), TenantId(1));
        svc.register_tenant(bad, TenantQuota::default());
        svc.register_tenant(good, TenantQuota::default());

        let mut poisoned = Matrix::filled(16, 16, 1.0);
        poisoned.as_mut_slice()[7] = f32::NAN;
        let zero = Matrix::filled(16, 16, 0.0);
        let mut be = TiledBackend::new();
        let mut rec = PlanBuilder::over(&mut be);
        rec.mmo(OpKind::PlusMul, &poisoned, &poisoned, &zero)
            .unwrap();
        let bad_plan = rec.finish();
        let want_bad = clean_output(&bad_plan);
        assert!(want_bad.as_slice().iter().any(|v| v.is_nan()));

        let good_plan = chain_plan(2, 16, 5.0);
        let want_good = clean_output(&good_plan);
        svc.submit(bad, JobSpec::plan(bad_plan)).unwrap();
        svc.submit(good, JobSpec::plan(good_plan)).unwrap();
        assert_eq!(svc.run_until_idle(), 2);

        for outcome in svc.take_outcomes() {
            let JobStatus::Completed { output, .. } = outcome.status else {
                panic!("both jobs complete, got {:?}", outcome.status);
            };
            if outcome.tenant == bad {
                assert_bit_identical(&output, &want_bad);
            } else {
                assert!(output.as_slice().iter().all(|v| !v.is_nan()));
                assert_bit_identical(&output, &want_good);
            }
        }
    }

    #[test]
    fn exhausted_recovery_surfaces_an_explicit_failure_with_step_index() {
        use simd2_fault::{FaultPlan, FaultPlanConfig, FaultySimd2Unit, PlannedInjector};
        // Full-rate persistent faults: every attempt is detected, the
        // retry policy exhausts, and the job fails explicitly — with
        // the failing step attributed.
        let plan = FaultPlan::new(FaultPlanConfig::new(5).with_transient_nan_ppm(1_000_000));
        let inner = TiledBackend::with_unit(FaultySimd2Unit::new(
            Simd2Unit::new(),
            PlannedInjector::new(plan),
        ));
        let config = ServeConfig {
            policy: RecoveryPolicy::Retry { attempts: 2 },
            abft: AbftConfig {
                witness_samples: usize::MAX,
                ..AbftConfig::default()
            },
            ..ServeConfig::default()
        };
        let mut svc = PlanService::new(inner, config);
        let t = TenantId(0);
        svc.register_tenant(t, TenantQuota::default());

        let mut be = TiledBackend::new();
        let mut rec = PlanBuilder::over(&mut be);
        let a = Matrix::filled(16, 16, 1.0);
        let zero = Matrix::filled(16, 16, 0.0);
        rec.mmo(OpKind::PlusMul, &a, &a, &zero).unwrap();
        let doomed = rec.finish();

        svc.submit(t, JobSpec::plan(doomed)).unwrap();
        assert_eq!(svc.run_until_idle(), 1);
        let outcomes = svc.take_outcomes();
        let JobStatus::Failed {
            step,
            executed_steps,
            error,
        } = &outcomes[0].status
        else {
            panic!("doomed job must fail, got {:?}", outcomes[0].status);
        };
        assert_eq!(*step, 0);
        assert_eq!(*executed_steps, 0);
        assert!(!error.is_empty());
        let stats = svc.tenant_stats(t).unwrap();
        assert_eq!((stats.failed, stats.completed), (1, 0));
        let recovery = svc.recovery_stats();
        assert!(recovery.detections >= 3, "initial try + 2 retries detected");
        assert_eq!(recovery.retries, 2);
    }

    #[test]
    fn a_panicking_tenant_recovers_without_touching_neighbours() {
        // Worker shards panic at tile row 1: only tenant 0's 48-row
        // jobs strike it; tenant 1's single-tile jobs never do.
        let mut inner = TiledBackend::with_unit(PanicProbeUnit::new(Simd2Unit::new(), 1));
        inner.set_parallelism(Parallelism::Threads(3));
        let mut svc = PlanService::new(inner, ServeConfig::default());
        let (chaos, calm) = (TenantId(0), TenantId(1));
        svc.register_tenant(chaos, TenantQuota::default());
        svc.register_tenant(calm, TenantQuota::default());

        let tall = chain_plan(2, 48, 1.0);
        let small = chain_plan(2, 16, 2.0);
        let want_tall = clean_output(&tall);
        let want_small = clean_output(&small);
        svc.submit(chaos, JobSpec::plan(tall)).unwrap();
        svc.submit(calm, JobSpec::plan(small)).unwrap();
        assert_eq!(svc.run_until_idle(), 2);

        let outcomes = svc.take_outcomes();
        for outcome in &outcomes {
            let JobStatus::Completed {
                output, recovered, ..
            } = &outcome.status
            else {
                panic!("both tenants must complete, got {:?}", outcome.status);
            };
            if outcome.tenant == chaos {
                assert!(recovered, "panicked job recovers sequentially");
                assert_bit_identical(output, &want_tall);
            } else {
                assert!(!recovered, "calm tenant untouched by the panic");
                assert_bit_identical(output, &want_small);
            }
        }
        assert_eq!(svc.tenant_stats(chaos).unwrap().recovered, 1);
        assert_eq!(svc.tenant_stats(calm).unwrap().recovered, 0);
        assert!(svc.recovery_stats().panic_recoveries >= 1);
    }

    #[test]
    fn suspended_jobs_resume_bit_identically_without_reexecuting_waves() {
        let config = ServeConfig {
            resume: ResumeConfig {
                quantum: 1,
                max_resumes: 8,
            },
            ..ServeConfig::default()
        };
        let mut svc = PlanService::new(TiledBackend::new(), config);
        let t = TenantId(0);
        svc.register_tenant(t, TenantQuota::default());
        let plan = chain_plan(3, 16, 9.0);
        let want = clean_output(&plan);
        svc.submit(t, JobSpec::plan(plan)).unwrap();
        // One job, quantum 1: three rounds (run, resume, resume).
        assert_eq!(svc.run_until_idle(), 3);
        let outcomes = svc.take_outcomes();
        assert_eq!(outcomes.len(), 1, "suspensions land no outcome");
        let JobStatus::Completed {
            output,
            executed_steps,
            recovered,
            cache_hit,
        } = &outcomes[0].status
        else {
            panic!("resumed job must complete, got {:?}", outcomes[0].status);
        };
        assert!(!recovered && !cache_hit);
        assert_eq!(*executed_steps, 3);
        assert_bit_identical(output, &want);
        let stats = svc.tenant_stats(t).unwrap();
        assert_eq!((stats.suspended, stats.resumed), (2, 2));
        assert_eq!(stats.executed_steps, 3, "each step counted exactly once");
        // Counter-verified: completed waves were never re-dispatched.
        assert_eq!(Backend::op_count(svc.resilient()).matrix_mmos, 3);
        assert_eq!(svc.tenant_ledger(t).unwrap(), TenantLedger::default());
    }

    #[test]
    fn deadline_budget_spreads_across_resumed_rounds_with_exact_accounting() {
        let config = ServeConfig {
            resume: ResumeConfig {
                quantum: 1,
                max_resumes: 8,
            },
            ..ServeConfig::default()
        };
        let mut svc = PlanService::new(TiledBackend::new(), config);
        let t = TenantId(0);
        svc.register_tenant(t, TenantQuota::default());
        let plan = chain_plan(3, 16, 10.0);
        let key = plan.cache_key();
        svc.submit(t, JobSpec::plan(plan).with_deadline(Deadline::Steps(2)))
            .unwrap();
        svc.run_until_idle();
        let outcomes = svc.take_outcomes();
        // Two one-step rounds spend the budget of 2; the third step
        // would exceed it: terminal expiry, budget genuinely spent.
        let JobStatus::Expired {
            executed_steps,
            budget,
            total_steps,
            resumed_from,
            checkpoint,
            resumable,
        } = &outcomes[0].status
        else {
            panic!("expected expiry, got {:?}", outcomes[0].status);
        };
        assert_eq!(
            (*executed_steps, *budget, *total_steps, *resumed_from),
            (2, 2, 3, 1)
        );
        assert_eq!(*checkpoint, Some(key));
        assert!(!resumable, "budget exhausted: expired, terminal");
        assert_eq!(outcomes[0].status.remaining_budget(), Some(0));
        let stats = svc.tenant_stats(t).unwrap();
        assert_eq!((stats.suspended, stats.resumed, stats.expired), (1, 1, 1));
        assert_eq!(stats.executed_steps, 2);
    }

    #[test]
    fn resume_cap_expires_with_open_budget_as_resumable() {
        // quantum 1 over a 4-step plan with max_resumes 1: round 0
        // suspends, round 1 (the only allowed resume) halts again with
        // budget math still open — expired, resumable.
        let config = ServeConfig {
            resume: ResumeConfig {
                quantum: 1,
                max_resumes: 1,
            },
            ..ServeConfig::default()
        };
        let mut svc = PlanService::new(TiledBackend::new(), config);
        let t = TenantId(0);
        svc.register_tenant(t, TenantQuota::default());
        let plan = chain_plan(4, 16, 11.0);
        let key = plan.cache_key();
        svc.submit(t, JobSpec::plan(plan)).unwrap();
        svc.run_until_idle();
        let outcomes = svc.take_outcomes();
        let JobStatus::Expired {
            executed_steps,
            total_steps,
            resumed_from,
            checkpoint,
            resumable,
            ..
        } = &outcomes[0].status
        else {
            panic!("expected expiry, got {:?}", outcomes[0].status);
        };
        assert_eq!((*executed_steps, *total_steps, *resumed_from), (2, 4, 1));
        assert_eq!(*checkpoint, Some(key));
        assert!(resumable, "resume cap, not budget: expired, resumable");
    }

    #[test]
    fn worker_panics_checkpoint_and_the_ladder_demotes_to_sequential() {
        let mut inner = TiledBackend::with_unit(PanicProbeUnit::new(Simd2Unit::new(), 1));
        inner.set_parallelism(Parallelism::Threads(3));
        let config = ServeConfig {
            resume: ResumeConfig {
                quantum: 0,
                max_resumes: 4,
            },
            degrade: DegradeConfig {
                scalar_after_detections: 0,
                sequential_after_panics: 2,
            },
            ..ServeConfig::default()
        };
        let mut svc = PlanService::new(inner, config);
        let t = TenantId(0);
        svc.register_tenant(t, TenantQuota::default());
        let tall = chain_plan(2, 48, 12.0);
        let want = clean_output(&tall);
        svc.submit(t, JobSpec::plan(tall)).unwrap();
        svc.run_until_idle();
        let outcomes = svc.take_outcomes();
        let JobStatus::Completed { output, .. } = &outcomes[0].status else {
            panic!(
                "panicked job must complete after demotion, got {:?}",
                outcomes[0].status
            );
        };
        assert_bit_identical(output, &want);
        // Two panic rounds strike the sequential rung, then the
        // demoted resume finishes the plan.
        let degrade = svc.degrade_state();
        assert!(degrade.sequential);
        assert_eq!(degrade.panic_strikes, 2);
        let stats = svc.tenant_stats(t).unwrap();
        assert_eq!((stats.suspended, stats.resumed), (2, 2));
        assert_eq!(stats.executed_steps, 2);
        let recovery = svc.recovery_stats();
        assert_eq!(recovery.worker_panics, 2);
        assert_eq!(
            recovery.panic_recoveries, 0,
            "resume owns panic handling: no in-place sequential recovery"
        );
    }

    #[test]
    fn persistent_failures_trip_breakers_and_quarantine_the_plan() {
        use simd2_fault::{FaultPlan, FaultPlanConfig, FaultySimd2Unit, PlannedInjector};
        // Full-rate persistent faults doom every execution.
        let fault = FaultPlan::new(FaultPlanConfig::new(5).with_transient_nan_ppm(1_000_000));
        let inner = TiledBackend::with_unit(FaultySimd2Unit::new(
            Simd2Unit::new(),
            PlannedInjector::new(fault),
        ));
        let config = ServeConfig {
            policy: RecoveryPolicy::Retry { attempts: 2 },
            abft: AbftConfig {
                witness_samples: usize::MAX,
                ..AbftConfig::default()
            },
            breaker: crate::BreakerConfig {
                trip_after: 2,
                cooldown: 1,
                quarantine_after: 2,
            },
            ..ServeConfig::default()
        };
        let mut svc = PlanService::new(inner, config);
        let t = TenantId(0);
        svc.register_tenant(t, TenantQuota::default());
        let doomed = chain_plan(1, 16, 13.0);
        let key = doomed.cache_key();
        for _ in 0..6 {
            svc.submit(t, JobSpec::plan(doomed.clone())).unwrap();
        }
        svc.run_until_idle();
        let outcomes = svc.take_outcomes();
        let labels: Vec<&str> = outcomes.iter().map(|o| o.status.label()).collect();
        // 2 real failures trip both breakers; the plan breaker then the
        // tenant breaker each absorb one short-circuit (cooldown 1);
        // the half-open probe fails, re-tripping both — the plan's 2nd
        // trip quarantines it.
        assert_eq!(
            labels,
            vec![
                "failed",
                "failed",
                "failed",
                "failed",
                "failed",
                "quarantined"
            ]
        );
        let short_circuit = |s: &JobStatus| match s {
            JobStatus::Failed { error, .. } => error.contains("circuit breaker open"),
            _ => false,
        };
        assert!(!short_circuit(&outcomes[0].status));
        assert!(!short_circuit(&outcomes[1].status));
        assert!(short_circuit(&outcomes[2].status), "plan breaker open");
        assert!(short_circuit(&outcomes[3].status), "tenant breaker open");
        assert!(!short_circuit(&outcomes[4].status), "half-open probe ran");
        assert!(matches!(
            outcomes[5].status,
            JobStatus::Quarantined { trips: 2, key: k } if k == key
        ));
        let stats = svc.tenant_stats(t).unwrap();
        assert_eq!(stats.failed, 5);
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.breaker_short_circuits, 2);
        assert_eq!(stats.breaker_trips, 4, "two trips on each breaker");
        assert_eq!(stats.terminal(), 6);
        assert!(svc.plan_quarantined(key));
        assert_eq!(svc.plan_breaker(key).unwrap().trips(), 2);
        assert_eq!(svc.tenant_breaker(t).unwrap().trips(), 2);
    }

    #[test]
    fn repeated_detections_pin_the_kernel_to_scalar_on_vector_hosts() {
        use simd2_fault::{FaultPlan, FaultPlanConfig, FaultySimd2Unit, PlannedInjector};
        use simd2_mxu::MmoUnit;
        use simd2_semiring::simd::KernelIsa;
        // Vector-tier-only injection: every attempt is corrupted while
        // a vector kernel runs, and the injector disarms the moment the
        // ladder pins the scalar kernel.
        let fault = FaultPlan::new(FaultPlanConfig::new(7).with_transient_nan_ppm(1_000_000));
        let unit = FaultySimd2Unit::new(Simd2Unit::new(), PlannedInjector::new(fault))
            .with_vector_only(true);
        let vector_host = unit.kernel_isa() != KernelIsa::Scalar;
        let inner = TiledBackend::with_unit(unit);
        let config = ServeConfig {
            policy: RecoveryPolicy::Retry { attempts: 2 },
            abft: AbftConfig {
                witness_samples: usize::MAX,
                ..AbftConfig::default()
            },
            degrade: DegradeConfig {
                scalar_after_detections: 1,
                sequential_after_panics: 0,
            },
            ..ServeConfig::default()
        };
        let mut svc = PlanService::new(inner, config);
        let t = TenantId(0);
        svc.register_tenant(t, TenantQuota::default());
        let plan_a = chain_plan(1, 16, 14.0);
        let plan_b = chain_plan(1, 16, 15.0);
        let want_b = clean_output(&plan_b);
        svc.submit(t, JobSpec::plan(plan_a)).unwrap();
        svc.submit(t, JobSpec::plan(plan_b)).unwrap();
        svc.run_until_idle();
        let outcomes = svc.take_outcomes();
        let detections = svc.recovery_stats().detections;
        if vector_host {
            // Job 1 fails under full-rate vector corruption; its
            // detections fire the scalar rung, so job 2 runs clean on
            // the pinned scalar kernel.
            assert_eq!(outcomes[0].status.label(), "failed");
            assert!(svc.degrade_state().scalar_pinned);
            assert!(detections >= 1);
            assert_eq!(
                svc.resilient().health().kernel_isa,
                KernelIsa::Scalar,
                "backend pinned to the scalar kernel"
            );
        } else {
            // Scalar host (e.g. SIMD2_FORCE_SCALAR=1): the vector-only
            // injector never arms, nothing degrades.
            assert_eq!(outcomes[0].status.label(), "completed");
            assert!(!svc.degrade_state().scalar_pinned);
            assert_eq!(detections, 0);
        }
        let JobStatus::Completed {
            output, recovered, ..
        } = &outcomes[1].status
        else {
            panic!(
                "job after the pin must complete, got {:?}",
                outcomes[1].status
            );
        };
        assert!(!recovered, "no retries needed once disarmed");
        assert_bit_identical(output, &want_b);
    }

    #[test]
    fn streaming_app_jobs_serve_sparse_plans_end_to_end() {
        use simd2::solve::ClosureAlgorithm;
        // The full sparse-serving path in one pass: a streaming-update
        // registry app expands at admission into a plan with
        // CSR-declared delta slots, survives the serving pass pipeline,
        // suspends/resumes at wave boundaries under a round quantum,
        // replays its sparse steps through the engine's row walks on a
        // sharded worker pool — the plain `TiledBackend` every service
        // runs on — and still lands bits identical to a clean
        // sequential replay with every declaration stripped.
        let sink = RingSink::shared();
        let config = ServeConfig {
            optimize_plans: true,
            resume: ResumeConfig {
                quantum: 4,
                max_resumes: 16,
            },
            ..ServeConfig::default()
        };
        let inner = TiledBackend::with_parallelism(Parallelism::Threads(4));
        let mut svc = PlanService::new(inner, config).with_tracer(Tracer::to(sink.clone()));
        let t = TenantId(0);
        svc.register_tenant(t, TenantQuota::default());

        // The oracle never row-walks: a unit that is not coordinate-free
        // (here an injector that never strikes) takes the tile chain on
        // every step, declared or not.
        let dense_output = |plan: &Plan| {
            use simd2_fault::{FaultPlan, FaultPlanConfig, FaultySimd2Unit, PlannedInjector};
            let injector = PlannedInjector::new(FaultPlan::new(FaultPlanConfig::new(0)));
            let mut chain =
                TiledBackend::with_unit(FaultySimd2Unit::new(Simd2Unit::new(), injector));
            let run = PlanExecutor::new().run(plan, &mut chain).unwrap();
            assert_eq!(chain.row_count().sparse_mmos, 0);
            run.into_final_output().unwrap()
        };
        let mut wants = HashMap::new();
        for app in AppKind::streaming() {
            // The admission expansion is deterministic per (app, n,
            // seed): recompute it here for the clean-replay oracle.
            let run = harness::run_app(
                &mut TiledBackend::new(),
                app,
                32,
                7,
                ClosureAlgorithm::Leyzorek,
                true,
            );
            assert!(run.passed(), "{app:?}: diff {}", run.diff);
            assert!(run.plan.has_sparse_slots(), "{app:?}");
            let id = svc.submit(t, JobSpec::app(app, 32, 7)).unwrap();
            wants.insert(id, dense_output(&run.plan));
        }
        svc.run_until_idle();

        let outcomes = svc.take_outcomes();
        assert_eq!(outcomes.len(), 2);
        // Suspensions reorder completion, so match oracles by job id.
        for outcome in &outcomes {
            let want = &wants[&outcome.job];
            let JobStatus::Completed {
                output, cache_hit, ..
            } = &outcome.status
            else {
                panic!("streaming job must complete, got {:?}", outcome.status);
            };
            assert!(!cache_hit);
            assert_bit_identical(output, want);
        }
        // The row walks genuinely executed on the shared backend.
        let counts = svc.resilient().inner().row_count();
        assert!(counts.sparse_mmos > 0, "{counts:?}");
        assert!(counts.skipped_terms > 0, "{counts:?}");
        // Per-tenant telemetry: the quantum forced suspensions, every
        // counter mirrors its SERVE event stream exactly.
        let stats = svc.tenant_stats(t).unwrap();
        assert_eq!(stats.completed, 2);
        assert!(stats.suspended > 0 && stats.suspended == stats.resumed);
        assert!(stats.executed_steps > 0);
        let count = |stage: &str| -> u64 {
            sink.events()
                .iter()
                .filter(|e| e.is_stage(span::SERVE, stage))
                .filter(|e| e.u64("tenant") == Some(t.0 as u64))
                .count() as u64
        };
        assert_eq!(count("completed"), stats.completed);
        assert_eq!(count("suspended"), stats.suspended);
        assert_eq!(count("resumed"), stats.resumed);
        let executed: u64 = sink
            .events()
            .iter()
            .filter(|e| {
                (e.is_stage(span::SERVE, "completed") || e.is_stage(span::SERVE, "suspended"))
                    && e.u64("tenant") == Some(t.0 as u64)
            })
            .filter_map(|e| e.u64("executed_steps"))
            .sum();
        assert_eq!(executed, stats.executed_steps);
    }

    #[test]
    fn telemetry_events_mirror_tenant_stats_exactly() {
        let sink = RingSink::shared();
        let mut svc = service().with_tracer(Tracer::to(sink.clone()));
        let (t0, t1) = (TenantId(0), TenantId(1));
        svc.register_tenant(t0, TenantQuota::default().with_max_in_flight(2));
        svc.register_tenant(t1, TenantQuota::default());

        svc.submit(t0, JobSpec::plan(chain_plan(2, 16, 0.0)))
            .unwrap();
        svc.submit(t0, JobSpec::plan(chain_plan(2, 16, 0.0)))
            .unwrap();
        // Third submission trips t0's in-flight quota.
        svc.submit(t0, JobSpec::plan(chain_plan(2, 16, 1.0)))
            .unwrap_err();
        svc.submit(
            t1,
            JobSpec::plan(chain_plan(3, 16, 2.0)).with_deadline(Deadline::Steps(1)),
        )
        .unwrap();
        // Empty plan: malformed.
        let empty = PlanBuilder::over(&mut TiledBackend::new()).finish();
        svc.submit(t1, JobSpec::plan(empty)).unwrap_err();
        svc.run_until_idle();

        for tenant in [t0, t1] {
            let stats = svc.tenant_stats(tenant).unwrap();
            let count = |stage: &str| -> u64 {
                sink.events()
                    .iter()
                    .filter(|e| e.is_stage(span::SERVE, stage))
                    .filter(|e| e.u64("tenant") == Some(tenant.0 as u64))
                    .count() as u64
            };
            assert_eq!(count("submitted"), stats.submitted);
            assert_eq!(count("admitted"), stats.admitted);
            assert_eq!(count("rejected_backpressure"), stats.rejected_backpressure);
            assert_eq!(count("rejected_quota"), stats.rejected_quota);
            assert_eq!(count("rejected_malformed"), stats.rejected_malformed);
            assert_eq!(count("completed"), stats.completed);
            assert_eq!(count("expired"), stats.expired);
            assert_eq!(count("failed"), stats.failed);
            assert_eq!(count("cache_hit"), stats.cache_hits);
            assert_eq!(count("recovered"), stats.recovered);
            let executed: u64 = sink
                .events()
                .iter()
                .filter(|e| {
                    (e.is_stage(span::SERVE, "completed")
                        || e.is_stage(span::SERVE, "expired")
                        || e.is_stage(span::SERVE, "failed"))
                        && e.u64("tenant") == Some(tenant.0 as u64)
                })
                .filter_map(|e| e.u64("executed_steps"))
                .sum();
            assert_eq!(executed, stats.executed_steps);
        }
    }
}
