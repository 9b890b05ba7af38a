//! The plan service: admission → per-tenant queues → weighted
//! round-robin scheduling → resilient execution → terminal outcomes.
//!
//! # Lifecycle
//!
//! [`PlanService::submit`] checks the payload's structure, applies the
//! service-wide backpressure gate, expands registry apps to their
//! recorded plans, and checks the tenant's [`TenantQuota`]: it either
//! enqueues the job or returns an explicit [`Rejected`].
//! [`PlanService::run_until_idle`] drains the per-tenant FIFO queues in
//! weighted round-robin order. Each popped job is gated (quarantine,
//! plan breaker, tenant breaker), served from the cache or replayed
//! through the shared [`ResilientBackend`] under its [`Deadline`] (a
//! step-boundary [`ReplayControl`](simd2::ReplayControl) budget check),
//! and then lands — a terminal [`JobOutcome`], or a suspension that
//! re-queues it with its checkpoint — through one function.
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
use simd2_apps::harness;
use simd2_fault::abft::AbftConfig;
use simd2_matrix::Matrix;
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

/// Per-tenant outcome counters. Every counter but `fault_log_dropped`
/// moves only where its [`span::SERVE`] event is emitted, so the event
/// stream and these counters agree by construction.
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

    /// The counter a lifecycle stage moves (`None` for the
    /// degradation-ladder stages, which are service state).
    fn counter(&mut self, stage: &str) -> Option<&mut u64> {
        Some(match stage {
            "submitted" => &mut self.submitted,
            "admitted" => &mut self.admitted,
            "rejected_backpressure" => &mut self.rejected_backpressure,
            "rejected_quota" => &mut self.rejected_quota,
            "rejected_malformed" => &mut self.rejected_malformed,
            "completed" => &mut self.completed,
            "expired" => &mut self.expired,
            "failed" => &mut self.failed,
            "quarantined" => &mut self.quarantined,
            "recovered" => &mut self.recovered,
            "cache_hit" => &mut self.cache_hits,
            "suspended" => &mut self.suspended,
            "resumed" => &mut self.resumed,
            "breaker_trip" => &mut self.breaker_trips,
            "breaker_short_circuit" => &mut self.breaker_short_circuits,
            _ => return None,
        })
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
    /// Steps completed in earlier rounds: the checkpoint's
    /// `completed_steps`, kept beside it because a resume consumes it.
    done: u64,
    /// Completed-step state from a previous round (`None` until the
    /// job's first suspension).
    checkpoint: Option<PlanCheckpoint>,
}

/// Everything the service tracks per tenant.
#[derive(Clone, Debug)]
struct TenantState {
    quota: TenantQuota,
    queue: VecDeque<QueuedJob>,
    stats: TenantStats,
    breaker: Breaker,
}

impl TenantState {
    /// The admission ledger, read off the queue. Exact whenever no
    /// round is running — the only time admission reads it — because a
    /// job is in flight exactly while it is queued.
    fn ledger(&self) -> TenantLedger {
        TenantLedger {
            in_flight: self.queue.len(),
            queued_steps: self.queue.iter().map(|j| j.steps).sum(),
            queued_bytes: self.queue.iter().map(|j| j.bytes).sum(),
        }
    }
}

/// How one scheduling round of a job ended, before [`PlanService::land`]
/// turns it into a terminal status or a suspension.
enum Round {
    /// Refused: the plan is quarantined after this many trips.
    Quarantined(u32),
    /// Refused by an open breaker.
    ShortCircuit(String),
    /// Served from the plan cache.
    CacheHit(Matrix),
    /// Replayed to the final step.
    Completed { output: Matrix, recovered: bool },
    /// Replay halted: budget, quantum, or a backend failure.
    Halted(Box<HaltedReplay>),
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
    /// Per-plan circuit breakers (populated only when breakers are
    /// armed; one entry per distinct executed plan).
    plan_breakers: HashMap<PlanKey, Breaker>,
    outcomes: Vec<JobOutcome>,
    tracer: Tracer,
    next_job: u64,
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
            plan_breakers: HashMap::new(),
            outcomes: Vec::new(),
            tracer: Tracer::off(),
            next_job: 0,
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
            None => self.tenants.push((
                tenant,
                TenantState {
                    quota,
                    queue: VecDeque::new(),
                    stats: TenantStats::default(),
                    breaker: Breaker::new(),
                },
            )),
        }
    }

    /// The registered tenants, in registration (= scheduling) order.
    pub fn tenants(&self) -> Vec<TenantId> {
        self.tenants.iter().map(|(t, _)| *t).collect()
    }

    fn tenant_index(&self, tenant: TenantId) -> Option<usize> {
        self.tenants.iter().position(|(t, _)| *t == tenant)
    }

    /// Moves the tenant counter of one lifecycle `stage` (and
    /// `executed_steps` by `steps`, for the stages that carry a
    /// round's steps) and emits the stage's [`span::SERVE`] event —
    /// the one place either happens.
    fn record(&mut self, idx: usize, stage: &'static str, job: Option<JobId>, steps: Option<u64>) {
        let (tenant, state) = &mut self.tenants[idx];
        if let Some(n) = state.stats.counter(stage) {
            *n += 1;
        }
        state.stats.executed_steps += steps.unwrap_or(0);
        let fields = [
            field("stage", stage),
            field("tenant", tenant.0),
            field("job", job.map_or(0, |j| j.0)),
            field("executed_steps", steps.unwrap_or(0)),
        ];
        let len = 2 + usize::from(job.is_some()) + usize::from(steps.is_some());
        self.tracer.instant(span::SERVE, &fields[..len]);
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
        self.record(idx, "submitted", None, None);
        let result = self.admit(idx, spec);
        match &result {
            Ok(id) => self.record(idx, "admitted", Some(*id), None),
            Err(rejection) => self.record(idx, rejection.stage(), None, None),
        }
        result
    }

    /// Structure, then backpressure, then expansion, then quota: a
    /// refused submission never pays for an app run or a pass pipeline.
    fn admit(&mut self, idx: usize, spec: JobSpec) -> Result<JobId, Rejected> {
        match &spec.payload {
            JobPayload::Plan(plan) => validate_plan(plan)?,
            JobPayload::App { n, .. } if *n < 16 || *n > self.max_app_dimension => {
                return Err(Rejected::Malformed {
                    reason: format!("app dimension {n} outside 16..={}", self.max_app_dimension),
                })
            }
            JobPayload::App { .. } => {}
        }
        let queued = self.queued_jobs();
        if queued >= self.max_queued_jobs {
            return Err(Rejected::Backpressure {
                queued,
                capacity: self.max_queued_jobs,
            });
        }
        let plan = match spec.payload {
            JobPayload::Plan(plan) => plan,
            // Expansion happens at admission so quotas and deadlines see
            // the plan's real step count.
            JobPayload::App { app, n, seed } => {
                let leyzorek = ClosureAlgorithm::Leyzorek;
                harness::run_app(&mut self.recorder, app, n, seed, leyzorek, true).plan
            }
        };
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
        let steps = plan.step_count() as u64;
        let bytes = plan_input_bytes(&plan);
        let state = &mut self.tenants[idx].1;
        state.ledger().admit(&state.quota, steps, bytes)?;
        let id = JobId(self.next_job);
        self.next_job += 1;
        state.queue.push_back(QueuedJob {
            id,
            plan,
            deadline: spec.deadline,
            steps,
            bytes,
            done: 0,
            checkpoint: None,
        });
        Ok(id)
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
                    let Some(mut job) = self.tenants[idx].1.queue.pop_front() else {
                        break;
                    };
                    let key = job.plan.cache_key();
                    let round = match self.gate(idx, key) {
                        Some(refused) => refused,
                        None if job.checkpoint.is_some() => {
                            self.record(idx, "resumed", Some(job.id), None);
                            self.replay(idx, &mut job)
                        }
                        None => match self.cache.get(&key) {
                            Some(output) => Round::CacheHit(output),
                            None => self.replay(idx, &mut job),
                        },
                    };
                    self.land(idx, job, key, round);
                    executed += 1;
                    progressed = true;
                }
            }
            if !progressed {
                return executed;
            }
        }
    }

    /// The pre-execution breaker gate: quarantine first, then the plan
    /// breaker, then the tenant breaker. Returns the refusal, or `None`
    /// to let the job run.
    fn gate(&mut self, idx: usize, key: PlanKey) -> Option<Round> {
        let cfg = self.breaker_config;
        if !cfg.armed() {
            return None;
        }
        let plan = self.plan_breakers.entry(key).or_default();
        if plan.quarantined(&cfg) {
            return Some(Round::Quarantined(plan.trips()));
        }
        if !plan.admit(&cfg) {
            let error = format!("circuit breaker open for plan {key:?}");
            return Some(Round::ShortCircuit(error));
        }
        let (tenant, state) = &mut self.tenants[idx];
        if !state.breaker.admit(&cfg) {
            let error = format!("circuit breaker open for {tenant}");
            return Some(Round::ShortCircuit(error));
        }
        None
    }

    /// Replays `job` from its checkpoint (or from the start) under its
    /// deadline and the round quantum, then feeds the round's recovery
    /// counters to the degradation ladder.
    fn replay(&mut self, idx: usize, job: &mut QueuedJob) -> Round {
        let before = self.backend.recovery_stats();
        let dropped_before = self.backend.health().fault_log_dropped;
        let (base, deadline) = (job.done, job.deadline);
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
        self.feed_degradation(idx, job.id, &before, &after);
        match result {
            Ok(replay) => Round::Completed {
                output: replay
                    .into_final_output()
                    .expect("admitted plans are non-empty"),
                recovered: after.retry_successes != before.retry_successes
                    || after.panic_recoveries != before.panic_recoveries
                    || after.fallbacks != before.fallbacks,
            },
            Err(halted) => Round::Halted(halted),
        }
    }

    /// Lands one round: a wave-boundary suspension (checkpoint kept,
    /// job re-queued) when the resume policy allows, otherwise a
    /// terminal status, recorded into the breakers if the round ran.
    /// Executed steps and the resume count are read off the job and its
    /// checkpoint; each event carries this *round's* steps, so event
    /// sums equal [`TenantStats::executed_steps`] across suspensions.
    fn land(&mut self, idx: usize, mut job: QueuedJob, key: PlanKey, round: Round) {
        let id = Some(job.id);
        let before = job.done;
        let ran = matches!(round, Round::Completed { .. } | Round::Halted(_));
        let status = match round {
            Round::Quarantined(trips) => JobStatus::Quarantined { key, trips },
            Round::ShortCircuit(error) => {
                self.record(idx, "breaker_short_circuit", id, None);
                JobStatus::Failed {
                    step: before as usize,
                    executed_steps: before,
                    error,
                }
            }
            Round::CacheHit(output) => JobStatus::Completed {
                output,
                cache_hit: true,
                recovered: false,
                executed_steps: before,
            },
            Round::Completed { output, recovered } => {
                self.cache.insert(key, output.clone());
                job.done = job.steps;
                JobStatus::Completed {
                    output,
                    cache_hit: false,
                    recovered,
                    executed_steps: job.done,
                }
            }
            Round::Halted(halted) => {
                let HaltedReplay { error, checkpoint } = *halted;
                job.done = checkpoint.completed_steps() as u64;
                let resumes = checkpoint.resumes();
                let armed = self.resume_config.armed();
                let budget = job.deadline.budget();
                let budget_open = budget.is_none_or(|b| b > job.done);
                let panicked = error
                    .backend_error()
                    .is_some_and(simd2::BackendError::is_worker_panic);
                // A deadline or quantum halt with budget left suspends
                // (a quantum always admits one step, so the round made
                // progress); so does a worker panic (surfaced because
                // resume arms `recover_panics = false`), whose retries
                // the degradation ladder makes converge.
                let retry = if error.is_cancelled() {
                    budget_open
                } else {
                    panicked
                };
                if armed && retry && resumes < self.resume_config.max_resumes {
                    job.checkpoint = Some(checkpoint);
                    self.record(idx, "suspended", id, Some(job.done - before));
                    self.tenants[idx].1.queue.push_back(job);
                    return;
                }
                if error.is_cancelled() {
                    JobStatus::Expired {
                        executed_steps: job.done,
                        budget: budget.unwrap_or(0),
                        total_steps: job.steps,
                        resumed_from: resumes,
                        checkpoint: armed.then_some(key),
                        resumable: armed && budget_open,
                    }
                } else {
                    JobStatus::Failed {
                        step: error.step,
                        executed_steps: job.done,
                        error: error
                            .backend_error()
                            .map(ToString::to_string)
                            .unwrap_or_default(),
                    }
                }
            }
        };
        // Only executed rounds feed the breakers; expiry counts as
        // neither success nor failure.
        let cfg = self.breaker_config;
        if ran && cfg.armed() && !matches!(status, JobStatus::Expired { .. }) {
            let failed = matches!(status, JobStatus::Failed { .. });
            let mut trips = 0;
            let plan = self.plan_breakers.entry(key).or_default();
            for breaker in [&mut self.tenants[idx].1.breaker, plan] {
                if !failed {
                    breaker.record_success();
                } else if breaker.record_failure(&cfg) {
                    trips += 1;
                }
            }
            for _ in 0..trips {
                self.record(idx, "breaker_trip", id, None);
            }
        }
        self.record(idx, status.label(), id, Some(job.done - before));
        if let JobStatus::Completed {
            cache_hit,
            recovered,
            ..
        } = status
        {
            if cache_hit {
                self.record(idx, "cache_hit", id, None);
            }
            if recovered {
                self.record(idx, "recovered", id, None);
            }
        }
        let tenant = self.tenants[idx].0;
        self.outcomes.push(JobOutcome {
            tenant,
            job: job.id,
            status,
        });
    }

    /// Advances the degradation ladder from one round's recovery-stat
    /// deltas: ABFT detections observed while a vector kernel tier is
    /// active pin the backend to the scalar kernel; worker panics
    /// demote parallel dispatch to sequential. Each rung fires at most
    /// once and emits a [`span::SERVE`] event.
    fn feed_degradation(
        &mut self,
        idx: usize,
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
                self.record(idx, "degraded_scalar", Some(job), None);
            }
        }
        if cfg.sequential_after_panics != 0 && !self.degrade.sequential {
            self.degrade.panic_strikes += after.worker_panics - before.worker_panics;
            if self.degrade.panic_strikes >= cfg.sequential_after_panics
                && self.backend.degrade(Degrade::ForceSequential)
            {
                self.degrade.sequential = true;
                self.record(idx, "degraded_sequential", Some(job), None);
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
        self.tenant_index(tenant)
            .map(|i| self.tenants[i].1.ledger())
    }

    /// Jobs currently queued across all tenants.
    pub fn queued_jobs(&self) -> usize {
        self.tenants.iter().map(|(_, s)| s.queue.len()).sum()
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
    use simd2_apps::AppKind;
    use simd2_fault::PanicProbeUnit;
    use simd2_mxu::Simd2Unit;
    use simd2_semiring::OpKind;
    use simd2_trace::RingSink;

    /// Every stage the service counts per tenant; the ladder's two
    /// `degraded_*` stages are the only other `span::SERVE` events.
    const STAGES: [&str; 15] = [
        "submitted",
        "admitted",
        "rejected_backpressure",
        "rejected_quota",
        "rejected_malformed",
        "completed",
        "expired",
        "failed",
        "quarantined",
        "recovered",
        "cache_hit",
        "suspended",
        "resumed",
        "breaker_trip",
        "breaker_short_circuit",
    ];

    /// Each tenant's counters equal its `span::SERVE` events: one event
    /// per count of each stage, and the rounds' `executed_steps` summing
    /// to the tally.
    fn assert_events_mirror_stats<B: Backend>(sink: &RingSink, svc: &PlanService<B>) {
        let events = sink.events();
        for tenant in svc.tenants() {
            let mut stats = svc.tenant_stats(tenant).unwrap();
            let mine: Vec<_> = events
                .iter()
                .filter(|e| e.span == span::SERVE && e.u64("tenant") == Some(u64::from(tenant.0)))
                .collect();
            for e in &mine {
                let stage = e.str_value("stage").unwrap();
                assert!(
                    STAGES.contains(&stage) || stage.starts_with("degraded_"),
                    "{stage}"
                );
            }
            for stage in STAGES {
                let count = mine
                    .iter()
                    .filter(|e| e.is_stage(span::SERVE, stage))
                    .count();
                assert_eq!(
                    count as u64,
                    *stats.counter(stage).unwrap(),
                    "{tenant} {stage}"
                );
            }
            let steps: u64 = mine.iter().filter_map(|e| e.u64("executed_steps")).sum();
            assert_eq!(steps, stats.executed_steps, "{tenant}");
        }
    }

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
        // registry app expands at admission into a plan with sparse
        // delta steps, survives the serving pass pipeline,
        // suspends/resumes at wave boundaries under a round quantum,
        // replays its sparse steps through the engine's row walks on a
        // sharded worker pool — the plain `TiledBackend` every service
        // runs on — and still lands bits identical to a clean
        // sequential replay on the tile chain.
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
        // every step.
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
        let mut walked = 0;
        for app in AppKind::streaming() {
            // The admission expansion is deterministic per (app, n,
            // seed): recompute it here for the clean-replay oracle.
            let mut local = TiledBackend::new();
            let run = harness::run_app(&mut local, app, 32, 7, ClosureAlgorithm::Leyzorek, true);
            assert!(run.passed(), "{app:?}: diff {}", run.diff);
            walked += local.row_count().sparse_mmos;
            let id = svc.submit(t, JobSpec::app(app, 32, 7)).unwrap();
            wants.insert(id, dense_output(&run.plan));
        }
        assert!(walked > 0, "the sparse delta steps must row-walk");
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
        // The quantum forced suspensions; every counter mirrors its
        // SERVE event stream exactly.
        let stats = svc.tenant_stats(t).unwrap();
        assert_eq!(stats.completed, 2);
        assert!(stats.suspended > 0 && stats.suspended == stats.resumed);
        assert!(stats.executed_steps > 0);
        assert_events_mirror_stats(&sink, &svc);
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
        assert_events_mirror_stats(&sink, &svc);
    }

    #[test]
    fn a_breaker_refusing_a_resumed_job_reports_its_checkpointed_steps() {
        // The tall job panics and suspends; the small job runs one step
        // and suspends; the tall job panics again with its one resume
        // spent, fails, and trips the tenant breaker — which then
        // refuses the small job holding one completed step.
        let sink = RingSink::shared();
        let mut inner = TiledBackend::with_unit(PanicProbeUnit::new(Simd2Unit::new(), 1));
        inner.set_parallelism(Parallelism::Threads(3));
        let config = ServeConfig {
            resume: ResumeConfig {
                quantum: 1,
                max_resumes: 1,
            },
            breaker: crate::BreakerConfig {
                trip_after: 1,
                cooldown: 5,
                ..crate::BreakerConfig::default()
            },
            ..ServeConfig::default()
        };
        let mut svc = PlanService::new(inner, config).with_tracer(Tracer::to(sink.clone()));
        let t = TenantId(0);
        svc.register_tenant(t, TenantQuota::default());
        svc.submit(t, JobSpec::plan(chain_plan(1, 48, 16.0)))
            .unwrap();
        let small = svc
            .submit(t, JobSpec::plan(chain_plan(3, 16, 17.0)))
            .unwrap();
        svc.run_until_idle();
        let outcomes = svc.take_outcomes();
        let refused = outcomes.iter().find(|o| o.job == small).unwrap();
        assert!(
            matches!(
                &refused.status,
                JobStatus::Failed { step: 1, executed_steps: 1, error }
                    if error.contains("circuit breaker open for tenant#0")
            ),
            "{:?}",
            refused.status
        );
        // A terminal outcome's executed steps are the steps its job
        // dispatched across all its rounds.
        let events = sink.events();
        for outcome in &outcomes {
            let dispatched: u64 = events
                .iter()
                .filter(|e| e.span == span::SERVE && e.u64("job") == Some(outcome.job.0))
                .filter_map(|e| e.u64("executed_steps"))
                .sum();
            match &outcome.status {
                JobStatus::Completed { executed_steps, .. }
                | JobStatus::Expired { executed_steps, .. }
                | JobStatus::Failed { executed_steps, .. } => {
                    assert_eq!(*executed_steps, dispatched, "{:?}", outcome.status);
                }
                JobStatus::Quarantined { .. } => {}
            }
        }
        assert_eq!(svc.tenant_stats(t).unwrap().executed_steps, 1);
        assert_events_mirror_stats(&sink, &svc);
    }
}
