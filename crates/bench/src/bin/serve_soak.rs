//! Randomized multi-tenant soak for the `simd2-serve` plan service.
//!
//! A seeded, time-bounded episode loop. Each episode builds a fresh
//! [`PlanService`] in one of seven chaos modes — clean, transient-fault
//! injected, worker-panic armed, quantum-resume, sticky-fault with
//! circuit breakers, panic-resume with the degradation ladder, or
//! vector-tier-only faults with the scalar-pin rung — registers 2–4
//! tenants with randomized quotas and scheduler weights, and drives a
//! randomized
//! batch of submissions (op × shape × chain length × deadline × cache
//! duplicates × quota probes × malformed probes × NaN-poisoned inputs),
//! then asserts:
//!
//! 1. **Explicit admission** — every submission's accept/reject
//!    response matches an arithmetic mirror of the admission controller
//!    (backpressure gate, then in-flight / queued-step / queued-byte
//!    quotas, in order); nothing is silently dropped.
//! 2. **Deterministic scheduling** — terminal outcomes arrive exactly
//!    in the weighted-round-robin order predicted from the tenant
//!    weights and queue contents.
//! 3. **Exactly-one terminal** — every admitted job lands exactly one
//!    [`JobStatus`]; over-deadline jobs expire at the predicted step
//!    boundary with exact partial-work accounting; only fault-injected
//!    episodes may fail, and failures carry the failing step.
//! 4. **Bit identity** — 100% of completed jobs (cold, cache-hit,
//!    recovered, or NaN-poisoned) match a clean sequential replay of
//!    their plan bit for bit: one tenant's chaos never corrupts
//!    another's results.
//! 5. **Isolation** — in panic mode only the chaos tenant's multi-tile
//!    jobs recover from panics; calm tenants complete unrecovered. In
//!    clean mode nothing recovers or fails.
//! 6. **Telemetry lock-step** — per-tenant counters derived from
//!    [`span::SERVE`] events equal the scheduler's
//!    [`simd2_serve::TenantStats`] exactly, field by field, and both
//!    equal the soak's own mirror.
//! 7. **Resume exactness** — with a round quantum armed, suspended jobs
//!    resume bit-identically with exact suspension/resumption counts,
//!    and the backend op counter proves no completed wave was ever
//!    re-executed; terminal expiries carry exact
//!    `{executed, budget, resumed_from, checkpoint, resumable}` math.
//! 8. **Breaker determinism** — sticky-fault episodes replay a mirror
//!    of the tenant/plan circuit-breaker state machine outcome by
//!    outcome (short-circuits, half-open probes, quarantines), and two
//!    identically seeded runs produce identical outcome streams.
//! 9. **Degradation ladder** — repeated worker panics demote dispatch
//!    to sequential (after which every checkpointed job completes), and
//!    on vector hosts repeated ABFT detections pin the kernel to scalar
//!    and disarm the vector-only injector.
//!
//! At exit the per-tenant SLO aggregates (admitted / rejected / expired
//! / recovered / deadline-miss / suspension / breaker / quarantine /
//! fault-log-drop counts) are exported to
//! `results/telemetry/serve_soak.jsonl`.
//!
//! Usage: `cargo run -p simd2-bench --bin serve_soak [--seed S]
//! [--seconds T] [--iters N]`. The episode stream is a pure function of
//! the seed; any violation prints the failing episode's parameters and
//! exits 1.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use simd2::solve::ClosureAlgorithm;
use simd2::{
    Backend, Parallelism, Plan, PlanBuilder, PlanExecutor, PlanKey, RecoveryPolicy, RetryBackoff,
    TiledBackend,
};
use simd2_apps::{harness, AppKind};
use simd2_fault::{
    AbftConfig, FaultPlan, FaultPlanConfig, FaultySimd2Unit, PanicProbeUnit, PlannedInjector,
    PANIC_PROBE_PAYLOAD,
};
use simd2_matrix::{gen, Matrix, ISA_TILE};
use simd2_mxu::{PrecisionMode, Simd2Unit};
use simd2_semiring::precision::quantize_f16;
use simd2_semiring::simd::KernelIsa;
use simd2_semiring::{OpKind, ALL_OPS};
use simd2_serve::{
    plan_input_bytes, Breaker, BreakerConfig, Deadline, DegradeConfig, JobSpec, JobStatus,
    PlanService, ResumeConfig, ServeConfig, TenantId, TenantQuota,
};
use simd2_trace::{field, json_line_into, span, EventKind, RingSink, Tracer};

/// SplitMix64: the soak's own deterministic parameter stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ChaosMode {
    Clean,
    Faults,
    Panic,
    /// Clean backend, round quantum armed: jobs suspend at wave
    /// boundaries and resume bit-identically, never re-executing a
    /// completed wave (counter-verified against the backend op count).
    Resume,
    /// Sticky (retry-defeating) faults with tenant+plan circuit
    /// breakers armed: short-circuits and quarantines must replay the
    /// mirror breaker state machine exactly.
    Sticky,
    /// Worker panics with resume + the degradation ladder armed:
    /// panicked jobs checkpoint, the ladder demotes dispatch to
    /// sequential, and every job still completes bit-identically.
    PanicResume,
    /// Vector-tier-only faults with the scalar-pin rung armed: on
    /// vector hosts detections pin the kernel to scalar and injection
    /// disarms; on scalar hosts (SIMD2_FORCE_SCALAR) nothing ever arms.
    VectorPin,
}

/// One episode's randomized parameters.
#[derive(Debug)]
struct Episode {
    mode: ChaosMode,
    tenants: usize,
    weights: Vec<u32>,
    max_in_flight: Vec<usize>,
    max_queued_steps: Vec<u64>,
    max_queued_bytes: Vec<u64>,
    max_queued_jobs: usize,
    jobs_per_tenant: usize,
    ppm: u32,
    fault_seed: u64,
    workers: usize,
    data_seed: u64,
    /// Round quantum (steps per scheduling round) for resume modes.
    quantum: u64,
}

fn draw_episode(rng: &mut Rng) -> Episode {
    let mode = rng.pick(&[
        ChaosMode::Clean,
        ChaosMode::Faults,
        ChaosMode::Panic,
        ChaosMode::Resume,
        ChaosMode::Sticky,
        ChaosMode::PanicResume,
        ChaosMode::VectorPin,
    ]);
    let tenants = 2 + rng.below(3) as usize;
    Episode {
        mode,
        tenants,
        weights: (0..tenants).map(|_| 1 + rng.below(3) as u32).collect(),
        max_in_flight: (0..tenants).map(|_| 2 + rng.below(6) as usize).collect(),
        max_queued_steps: (0..tenants).map(|_| 4 + rng.below(20)).collect(),
        max_queued_bytes: (0..tenants)
            .map(|_| rng.pick(&[24u64 << 10, 1 << 20, 64 << 20]))
            .collect(),
        max_queued_jobs: 6 + rng.below(18) as usize,
        jobs_per_tenant: 3 + rng.below(6) as usize,
        ppm: rng.pick(&[20_000u32, 200_000]),
        fault_seed: rng.next(),
        workers: rng.pick(&[2usize, 3, 4]),
        data_seed: rng.next(),
        quantum: 1 + rng.below(3),
    }
}

/// What the soak expects back from one submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expect {
    Admit,
    Backpressure,
    Quota,
    Malformed,
}

/// One submission the soak will make, with everything the mirror needs.
struct Submission {
    tenant: usize,
    spec: JobSpec,
    /// The plan behind the spec (regenerated locally for app payloads).
    plan: Plan,
    /// Whether the plan carries deliberate NaN inputs.
    poisoned: bool,
    /// Whether the plan spans more than one output tile row — in panic
    /// mode, exactly the jobs that strike the armed probe (regardless
    /// of which tenant ends up submitting a duplicate of them).
    tall: bool,
}

/// Records a `len`-step chain (D0 = A⊗B⊕C, Di = A⊗B⊕D(i-1)) over
/// in-domain side×side operands.
fn record_chain(op: OpKind, side: usize, len: usize, seed: u64, poison: bool) -> Plan {
    let mut a = gen::random_operands_for(op, side, side, seed);
    let mut b = gen::random_operands_for(op, side, side, seed ^ 0x5eed);
    // Pre-quantize to the backends' fp16 input precision so clean
    // results pass ABFT verification exactly (mirrors the engine soak).
    for v in a.as_mut_slice().iter_mut().chain(b.as_mut_slice()) {
        *v = quantize_f16(*v);
    }
    if poison {
        let idx = (seed % (side * side) as u64) as usize;
        a.as_mut_slice()[idx] = f32::NAN;
    }
    let c = Matrix::filled(side, side, op.reduce_identity_f32());
    let mut be = TiledBackend::new();
    let mut rec = PlanBuilder::over(&mut be);
    let mut acc = rec.mmo(op, &a, &b, &c).expect("recording step 0");
    for _ in 1..len {
        acc = rec.mmo(op, &a, &b, &acc).expect("recording chain step");
    }
    rec.finish()
}

/// The clean sequential reference every completed job must match bit
/// for bit.
fn clean_replay(plan: &Plan) -> Matrix {
    PlanExecutor::new()
        .run(plan, &mut TiledBackend::new())
        .expect("clean replay")
        .into_final_output()
        .expect("non-empty plan")
}

/// [`clean_replay`] with every step on the tile chain, declared sparse
/// or not: a unit that is not coordinate-free (here an injector that
/// never strikes) is never row-walked.
fn dense_replay(plan: &Plan) -> Matrix {
    let injector = PlannedInjector::new(FaultPlan::new(FaultPlanConfig::new(0)));
    let unit = FaultySimd2Unit::new(Simd2Unit::new(), injector);
    PlanExecutor::new()
        .run(plan, &mut TiledBackend::with_unit(unit))
        .expect("dense replay")
        .into_final_output()
        .expect("non-empty plan")
}

/// Draws one episode's submission batch. Tenant 0 is the chaos tenant:
/// in panic mode it gets the multi-tile jobs that strike the probe, and
/// in clean/panic modes it occasionally submits NaN-poisoned inputs.
fn draw_submissions(ep: &Episode, rng: &mut Rng) -> Vec<Submission> {
    let idempotent: Vec<OpKind> = ALL_OPS
        .iter()
        .copied()
        .filter(|op| op.reduce_is_idempotent())
        .collect();
    let mut subs: Vec<Submission> = Vec::new();
    for tenant in 0..ep.tenants {
        for _ in 0..ep.jobs_per_tenant {
            // 1-in-4: resubmit an earlier plan verbatim (cache probe).
            if rng.below(4) == 0 {
                if let Some(prev) = subs.get(rng.below(subs.len().max(1) as u64) as usize) {
                    let deadline = prev.spec.deadline;
                    let plan = prev.plan.clone();
                    let (poisoned, tall) = (prev.poisoned, prev.tall);
                    subs.push(Submission {
                        tenant,
                        spec: JobSpec::plan(plan.clone()).with_deadline(deadline),
                        plan,
                        poisoned,
                        tall,
                    });
                    continue;
                }
            }
            // 1-in-8 in clean mode: a registry-app payload.
            if ep.mode == ChaosMode::Clean && rng.below(8) == 0 {
                let app = rng.pick(&AppKind::all());
                let n = rng.pick(&[16usize, 32]);
                let seed = rng.below(2);
                let mut recorder = TiledBackend::new();
                let run = harness::run_app(
                    &mut recorder,
                    app,
                    n,
                    seed,
                    ClosureAlgorithm::Leyzorek,
                    true,
                );
                subs.push(Submission {
                    tenant,
                    spec: JobSpec::app(app, n, seed),
                    plan: run.plan,
                    poisoned: false,
                    tall: n > ISA_TILE,
                });
                continue;
            }
            let faulty = matches!(
                ep.mode,
                ChaosMode::Faults | ChaosMode::Sticky | ChaosMode::VectorPin
            );
            let op = if faulty {
                rng.pick(&idempotent)
            } else {
                rng.pick(&ALL_OPS)
            };
            let side = match (ep.mode, tenant) {
                // Chaos tenant's jobs span >= 3 tile rows: the probe
                // (armed at tile row 1) strikes every parallel mmo.
                (ChaosMode::Panic | ChaosMode::PanicResume, 0) => {
                    2 * ISA_TILE + 1 + rng.below(31) as usize
                }
                // Calm tenants stay within one tile row: sequential
                // path, never strikes.
                (ChaosMode::Panic | ChaosMode::PanicResume, _) => {
                    5 + rng.below(ISA_TILE as u64 - 4) as usize
                }
                _ => 5 + rng.below(36) as usize,
            };
            let len = 1 + rng.below(3) as usize;
            let poison = !faulty && tenant == 0 && rng.below(8) == 0;
            let plan = record_chain(op, side, len, ep.data_seed ^ rng.next(), poison);
            let deadline = if rng.below(4) == 0 {
                Deadline::Steps(rng.below(len as u64 + 2))
            } else {
                Deadline::None
            };
            subs.push(Submission {
                tenant,
                spec: JobSpec::plan(plan.clone()).with_deadline(deadline),
                plan,
                poisoned: poison,
                tall: side > ISA_TILE,
            });
        }
    }
    // A malformed probe: an empty plan, from a random tenant.
    let empty = PlanBuilder::over(&mut TiledBackend::new()).finish();
    subs.push(Submission {
        tenant: rng.below(ep.tenants as u64) as usize,
        spec: JobSpec::plan(empty.clone()),
        plan: empty,
        poisoned: false,
        tall: false,
    });
    subs
}

struct Violation {
    what: String,
}

macro_rules! soak_check {
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err(Violation { what: format!($($fmt)*) });
        }
    };
}

/// Per-tenant mirror of what the service must report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct MirrorStats {
    submitted: u64,
    admitted: u64,
    rejected_backpressure: u64,
    rejected_quota: u64,
    rejected_malformed: u64,
    completed: u64,
    expired: u64,
    failed: u64,
    cache_hits: u64,
    executed_steps: u64,
    suspended: u64,
    resumed: u64,
    breaker_short_circuits: u64,
    breaker_trips: u64,
    quarantined: u64,
}

#[derive(Default)]
struct Totals {
    episodes: u64,
    submissions: u64,
    admitted: u64,
    rejected: u64,
    completed: u64,
    expired: u64,
    failed: u64,
    recovered: u64,
    cache_hits: u64,
    panic_recoveries: u64,
    detections: u64,
    suspended: u64,
    resumed: u64,
    breaker_trips: u64,
    quarantined: u64,
    fault_dropped: u64,
    /// Aggregated per tenant index across episodes, for the SLO export.
    slo: HashMap<u32, SloRow>,
}

#[derive(Clone, Copy, Debug, Default)]
struct SloRow {
    episodes: u64,
    submitted: u64,
    admitted: u64,
    rejected_backpressure: u64,
    rejected_quota: u64,
    rejected_malformed: u64,
    completed: u64,
    expired: u64,
    failed: u64,
    recovered: u64,
    cache_hits: u64,
    deadline_misses: u64,
    suspended: u64,
    resumed: u64,
    breaker_short_circuits: u64,
    breaker_trips: u64,
    quarantined: u64,
    fault_dropped: u64,
}

/// Builds the service for the episode's mode, runs the batch, and
/// checks every invariant.
fn run_episode(ep: &Episode, subs: &[Submission], totals: &mut Totals) -> Result<(), Violation> {
    match ep.mode {
        ChaosMode::Clean => {
            let config = ServeConfig {
                max_queued_jobs: ep.max_queued_jobs,
                cache_capacity: 1024,
                policy: RecoveryPolicy::Retry { attempts: 2 },
                ..ServeConfig::default()
            };
            check_episode(TiledBackend::new(), config, ep, subs, totals)
        }
        ChaosMode::Faults => {
            let plan =
                FaultPlan::new(FaultPlanConfig::new(ep.fault_seed).with_transient_nan_ppm(ep.ppm));
            let inner = TiledBackend::with_unit(FaultySimd2Unit::new(
                Simd2Unit::new(),
                PlannedInjector::new(plan),
            ));
            let config = ServeConfig {
                max_queued_jobs: ep.max_queued_jobs,
                cache_capacity: 1024,
                policy: RecoveryPolicy::Retry { attempts: 32 },
                backoff: RetryBackoff::unbounded(),
                abft: AbftConfig {
                    witness_samples: usize::MAX,
                    ..AbftConfig::default()
                },
                ..ServeConfig::default()
            };
            check_episode(inner, config, ep, subs, totals)
        }
        ChaosMode::Panic => {
            let mut inner = TiledBackend::with_unit(PanicProbeUnit::new(Simd2Unit::new(), 1));
            inner.set_parallelism(Parallelism::Threads(ep.workers));
            let config = ServeConfig {
                max_queued_jobs: ep.max_queued_jobs,
                cache_capacity: 1024,
                policy: RecoveryPolicy::Retry { attempts: 2 },
                ..ServeConfig::default()
            };
            check_episode(inner, config, ep, subs, totals)
        }
        ChaosMode::Resume => {
            let config = ServeConfig {
                max_queued_jobs: ep.max_queued_jobs,
                cache_capacity: 1024,
                policy: RecoveryPolicy::Retry { attempts: 2 },
                resume: ResumeConfig {
                    quantum: ep.quantum,
                    max_resumes: 64,
                },
                ..ServeConfig::default()
            };
            check_episode(TiledBackend::new(), config, ep, subs, totals)
        }
        ChaosMode::Sticky => {
            let build = || {
                let plan =
                    FaultPlan::new(FaultPlanConfig::new(ep.fault_seed).with_sticky_ppm(ep.ppm));
                TiledBackend::with_unit(FaultySimd2Unit::new(
                    Simd2Unit::new(),
                    PlannedInjector::new(plan),
                ))
            };
            let config = || ServeConfig {
                max_queued_jobs: ep.max_queued_jobs,
                cache_capacity: 1024,
                policy: RecoveryPolicy::Retry { attempts: 2 },
                abft: AbftConfig {
                    witness_samples: usize::MAX,
                    ..AbftConfig::default()
                },
                breaker: BreakerConfig {
                    trip_after: 2,
                    cooldown: 2,
                    quarantine_after: 2,
                },
                ..ServeConfig::default()
            };
            // Breaker state-machine determinism: two identically seeded
            // services must land an identical outcome stream.
            let first = outcome_fingerprint(build(), config(), ep, subs);
            let second = outcome_fingerprint(build(), config(), ep, subs);
            if first != second {
                return Err(Violation {
                    what: format!(
                        "sticky episode outcome stream diverged between identical \
                         runs:\n  {first:?}\n  {second:?}"
                    ),
                });
            }
            check_episode(build(), config(), ep, subs, totals)
        }
        ChaosMode::PanicResume => {
            let mut inner = TiledBackend::with_unit(PanicProbeUnit::new(Simd2Unit::new(), 1));
            inner.set_parallelism(Parallelism::Threads(ep.workers));
            let config = ServeConfig {
                max_queued_jobs: ep.max_queued_jobs,
                cache_capacity: 1024,
                policy: RecoveryPolicy::Retry { attempts: 2 },
                resume: ResumeConfig {
                    quantum: 0,
                    max_resumes: 8,
                },
                degrade: DegradeConfig {
                    scalar_after_detections: 0,
                    sequential_after_panics: 2,
                },
                ..ServeConfig::default()
            };
            check_episode(inner, config, ep, subs, totals)
        }
        ChaosMode::VectorPin => {
            let plan =
                FaultPlan::new(FaultPlanConfig::new(ep.fault_seed).with_transient_nan_ppm(ep.ppm));
            let unit = FaultySimd2Unit::new(Simd2Unit::new(), PlannedInjector::new(plan))
                .with_vector_only(true);
            let inner = TiledBackend::with_unit(unit);
            let config = ServeConfig {
                max_queued_jobs: ep.max_queued_jobs,
                cache_capacity: 1024,
                policy: RecoveryPolicy::Retry { attempts: 32 },
                backoff: RetryBackoff::unbounded(),
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
            check_episode(inner, config, ep, subs, totals)
        }
    }
}

/// Runs an episode's submissions to completion and reduces each outcome
/// to a compact fingerprint — the determinism witness for breaker
/// episodes.
fn outcome_fingerprint<B: Backend>(
    inner: B,
    config: ServeConfig,
    ep: &Episode,
    subs: &[Submission],
) -> Vec<String> {
    let mut svc = PlanService::new(inner, config);
    for t in 0..ep.tenants {
        svc.register_tenant(
            TenantId(t as u32),
            TenantQuota::default()
                .with_weight(ep.weights[t])
                .with_max_in_flight(ep.max_in_flight[t])
                .with_max_queued_steps(ep.max_queued_steps[t])
                .with_max_queued_bytes(ep.max_queued_bytes[t]),
        );
    }
    for sub in subs {
        let _ = svc.submit(TenantId(sub.tenant as u32), sub.spec.clone());
    }
    svc.run_until_idle();
    svc.take_outcomes()
        .iter()
        .map(|o| match &o.status {
            JobStatus::Completed {
                executed_steps,
                cache_hit,
                ..
            } => format!("{} completed e={executed_steps} c={cache_hit}", o.job),
            JobStatus::Expired {
                executed_steps,
                resumed_from,
                ..
            } => format!("{} expired e={executed_steps} r={resumed_from}", o.job),
            JobStatus::Failed { step, error, .. } => format!("{} failed s={step} {error}", o.job),
            JobStatus::Quarantined { trips, .. } => format!("{} quarantined t={trips}", o.job),
        })
        .collect()
}

/// The terminal outcome the resume simulator predicts for one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pred {
    /// Served from the result cache on the job's first round.
    CacheHit,
    /// Ran to completion (possibly across suspended rounds).
    Done,
    /// Terminal expiry with exact resume accounting.
    Expired {
        executed: u64,
        resumed_from: u64,
        resumable: bool,
    },
    /// Worker panic with the resume budget exhausted.
    Failed,
}

/// What the simulator predicts for a resume-armed episode.
struct SimResult {
    /// Terminal outcomes in order: (tenant, job id, submission index).
    order: Vec<(usize, u64, usize)>,
    /// Predicted terminal outcome per entry of `order`.
    preds: Vec<Pred>,
    /// Per-tenant suspension / resumption counts.
    suspended: Vec<u64>,
    resumed: Vec<u64>,
    /// Total scheduling rounds (`run_until_idle`'s return value).
    rounds: u64,
    /// Worker-panic strikes (panic-resume episodes only).
    strikes: u64,
}

/// Replays the scheduler's drain loop arithmetically for resume-armed
/// episodes: weighted round-robin with suspended jobs re-entering the
/// back of their tenant's queue, the result cache consulted only on
/// first rounds, and (for panic episodes) the degradation ladder's
/// sequential demotion after `panic_ladder` strikes.
fn simulate_resume(
    ep: &Episode,
    subs: &[Submission],
    queues: &[VecDeque<(u64, usize)>],
    quantum: u64,
    max_resumes: u64,
    panic_ladder: Option<u64>,
) -> SimResult {
    struct SimJob {
        id: u64,
        sub: usize,
        done: u64,
        suspends: u64,
    }
    let mut q: Vec<VecDeque<SimJob>> = queues
        .iter()
        .map(|queue| {
            queue
                .iter()
                .map(|&(id, sub)| SimJob {
                    id,
                    sub,
                    done: 0,
                    suspends: 0,
                })
                .collect()
        })
        .collect();
    let mut out = SimResult {
        order: Vec::new(),
        preds: Vec::new(),
        suspended: vec![0; ep.tenants],
        resumed: vec![0; ep.tenants],
        rounds: 0,
        strikes: 0,
    };
    let mut cache: HashSet<PlanKey> = HashSet::new();
    let mut sequential = false;
    loop {
        let mut progressed = false;
        for (t, queue) in q.iter_mut().enumerate() {
            for _ in 0..ep.weights[t].max(1) {
                let Some(mut j) = queue.pop_front() else {
                    break;
                };
                out.rounds += 1;
                progressed = true;
                let sub = &subs[j.sub];
                let steps = sub.plan.step_count() as u64;
                let key = sub.plan.cache_key();
                let budget = sub.spec.deadline.budget();
                if j.suspends > 0 {
                    out.resumed[t] += 1;
                } else if cache.contains(&key) {
                    out.order.push((t, j.id, j.sub));
                    out.preds.push(Pred::CacheHit);
                    continue;
                }
                // A tall job on a parallel backend panics at its first
                // dispatch and makes no progress until the ladder
                // demotes dispatch to sequential.
                if panic_ladder.is_some() && sub.tall && !sequential {
                    if budget.is_none_or(|b| j.done < b) {
                        out.strikes += 1;
                        if panic_ladder.is_some_and(|after| out.strikes >= after) {
                            sequential = true;
                        }
                        if j.suspends < max_resumes {
                            j.suspends += 1;
                            out.suspended[t] += 1;
                            queue.push_back(j);
                        } else {
                            out.order.push((t, j.id, j.sub));
                            out.preds.push(Pred::Failed);
                        }
                    } else {
                        // The deadline cancels before any dispatch.
                        out.order.push((t, j.id, j.sub));
                        out.preds.push(Pred::Expired {
                            executed: j.done,
                            resumed_from: j.suspends,
                            resumable: false,
                        });
                    }
                    continue;
                }
                // One clean round under the quantum and budget caps.
                let cap_q = if quantum == 0 { u64::MAX } else { quantum };
                let cap_b = budget.map_or(u64::MAX, |b| b - j.done);
                let room = (steps - j.done).min(cap_q).min(cap_b);
                j.done += room;
                if j.done == steps {
                    cache.insert(key);
                    out.order.push((t, j.id, j.sub));
                    out.preds.push(Pred::Done);
                } else if budget == Some(j.done) {
                    out.order.push((t, j.id, j.sub));
                    out.preds.push(Pred::Expired {
                        executed: j.done,
                        resumed_from: j.suspends,
                        resumable: false,
                    });
                } else if room > 0 && j.suspends < max_resumes {
                    j.suspends += 1;
                    out.suspended[t] += 1;
                    queue.push_back(j);
                } else {
                    out.order.push((t, j.id, j.sub));
                    out.preds.push(Pred::Expired {
                        executed: j.done,
                        resumed_from: j.suspends,
                        resumable: true,
                    });
                }
            }
        }
        if !progressed {
            break;
        }
    }
    out
}

#[allow(clippy::too_many_lines)]
fn check_episode<B: Backend>(
    inner: B,
    config: ServeConfig,
    ep: &Episode,
    subs: &[Submission],
    totals: &mut Totals,
) -> Result<(), Violation> {
    let breaker_cfg = config.breaker;
    let resume_cfg = config.resume;
    let degrade_cfg = config.degrade;
    // Which dispatch leg this host runs (SIMD2_FORCE_SCALAR lands here
    // as KernelIsa::Scalar) — vector-pin assertions branch on it.
    let scalar_host = inner.health().kernel_isa == KernelIsa::Scalar;
    let sink: Arc<RingSink> = RingSink::shared();
    let mut svc = PlanService::new(inner, config).with_tracer(Tracer::to(sink.clone()));
    for t in 0..ep.tenants {
        svc.register_tenant(
            TenantId(t as u32),
            TenantQuota::default()
                .with_weight(ep.weights[t])
                .with_max_in_flight(ep.max_in_flight[t])
                .with_max_queued_steps(ep.max_queued_steps[t])
                .with_max_queued_bytes(ep.max_queued_bytes[t]),
        );
    }

    // An unknown tenant is refused outright and appears in no ledger.
    let probe = svc.submit(TenantId(99), JobSpec::plan(subs[0].plan.clone()));
    soak_check!(
        matches!(probe, Err(simd2_serve::Rejected::Malformed { .. })),
        "unknown tenant must be rejected as malformed, got {probe:?}"
    );

    // --- Submission phase, mirrored arithmetically. ------------------
    let mut mirror = vec![MirrorStats::default(); ep.tenants];
    let mut ledger_if = vec![0usize; ep.tenants];
    let mut ledger_steps = vec![0u64; ep.tenants];
    let mut ledger_bytes = vec![0u64; ep.tenants];
    let mut queued_total = 0usize;
    // Admitted jobs per tenant, in order: (expected id, submission idx).
    let mut queues: Vec<VecDeque<(u64, usize)>> = vec![VecDeque::new(); ep.tenants];
    let mut next_id = 0u64;

    for (i, sub) in subs.iter().enumerate() {
        let t = sub.tenant;
        mirror[t].submitted += 1;
        let steps = sub.plan.step_count() as u64;
        let bytes = plan_input_bytes(&sub.plan);
        let expect = if sub.plan.is_empty() {
            Expect::Malformed
        } else if queued_total >= ep.max_queued_jobs {
            Expect::Backpressure
        } else if ledger_if[t] + 1 > ep.max_in_flight[t]
            || ledger_steps[t] + steps > ep.max_queued_steps[t]
            || ledger_bytes[t] + bytes > ep.max_queued_bytes[t]
        {
            Expect::Quota
        } else {
            Expect::Admit
        };
        let got = svc.submit(TenantId(t as u32), sub.spec.clone());
        match (expect, &got) {
            (Expect::Admit, Ok(id)) => {
                soak_check!(
                    id.0 == next_id,
                    "job ids are dense: want {next_id}, got {id}"
                );
                mirror[t].admitted += 1;
                ledger_if[t] += 1;
                ledger_steps[t] += steps;
                ledger_bytes[t] += bytes;
                queued_total += 1;
                queues[t].push_back((next_id, i));
                next_id += 1;
            }
            (Expect::Backpressure, Err(simd2_serve::Rejected::Backpressure { .. })) => {
                mirror[t].rejected_backpressure += 1;
            }
            (Expect::Quota, Err(simd2_serve::Rejected::QuotaExceeded { .. })) => {
                mirror[t].rejected_quota += 1;
            }
            (Expect::Malformed, Err(simd2_serve::Rejected::Malformed { .. })) => {
                mirror[t].rejected_malformed += 1;
            }
            _ => soak_check!(
                false,
                "submission {i} (tenant {t}): expected {expect:?}, got {got:?}"
            ),
        }
    }

    // --- Scheduling phase: weighted-round-robin prediction. ----------
    let admitted: u64 = mirror.iter().map(|m| m.admitted).sum();
    let executed = svc.run_until_idle();
    // With resume armed the drain loop is simulated exactly (suspended
    // jobs re-enter the back of their tenant's queue); otherwise plain
    // WRR, one round per admitted job.
    let sim = if resume_cfg.armed() {
        Some(simulate_resume(
            ep,
            subs,
            &queues,
            resume_cfg.quantum,
            resume_cfg.max_resumes,
            (degrade_cfg.sequential_after_panics != 0)
                .then_some(degrade_cfg.sequential_after_panics),
        ))
    } else {
        None
    };
    let (expected_order, preds, want_rounds) = match sim.as_ref() {
        Some(s) => (s.order.clone(), Some(&s.preds), s.rounds),
        None => {
            let mut order: Vec<(usize, u64, usize)> = Vec::new();
            loop {
                let mut progressed = false;
                for (t, queue) in queues.iter_mut().enumerate() {
                    for _ in 0..ep.weights[t].max(1) {
                        let Some((id, i)) = queue.pop_front() else {
                            break;
                        };
                        order.push((t, id, i));
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
            (order, None, admitted)
        }
    };
    soak_check!(
        executed as u64 == want_rounds,
        "run_until_idle ran {executed} rounds, predicted {want_rounds} \
         (admitted {admitted})"
    );

    // --- Outcome phase: exactly-one-terminal + bit identity. ---------
    let mut oracle: HashMap<PlanKey, Matrix> = HashMap::new();
    let mut mirror_cache: HashSet<PlanKey> = HashSet::new();
    // Steps actually dispatched from multi-tile plans: in panic mode,
    // each one strikes the probe exactly once.
    let mut tall_steps = 0u64;
    let outcomes = svc.take_outcomes();
    soak_check!(
        outcomes.len() == expected_order.len(),
        "outcome count {} != admitted {}",
        outcomes.len(),
        expected_order.len()
    );
    // Mirror breakers, advanced in lock-step with the outcome stream:
    // the scheduler's gate decisions must replay this state machine
    // exactly.
    let mut ten_breakers = vec![Breaker::new(); ep.tenants];
    let mut plan_breakers: HashMap<PlanKey, Breaker> = HashMap::new();
    for (pos, (outcome, &(t, id, i))) in outcomes.iter().zip(&expected_order).enumerate() {
        soak_check!(
            outcome.tenant == TenantId(t as u32) && outcome.job.0 == id,
            "WRR order diverged: expected tenant {t} job {id}, got {} {}",
            outcome.tenant,
            outcome.job
        );
        let sub = &subs[i];
        let steps = sub.plan.step_count() as u64;
        let key = sub.plan.cache_key();
        let budget = sub.spec.deadline.budget();
        let pred = preds.map(|p| p[pos]);
        match &outcome.status {
            JobStatus::Completed {
                output,
                cache_hit,
                recovered,
                executed_steps,
            } => {
                mirror[t].completed += 1;
                mirror[t].executed_steps += executed_steps;
                if sub.tall {
                    tall_steps += executed_steps;
                }
                if *cache_hit {
                    mirror[t].cache_hits += 1;
                }
                match pred {
                    // Resume modes: the simulator owns the cache and
                    // completion prediction (a cold completion of an
                    // already-cached key is legal while the original
                    // holder is suspended).
                    Some(Pred::CacheHit) => {
                        soak_check!(
                            *cache_hit && *executed_steps == 0,
                            "predicted cache hit, got cold completion"
                        );
                    }
                    Some(Pred::Done) => {
                        soak_check!(
                            !*cache_hit && *executed_steps == steps,
                            "predicted cold completion, got cache_hit={cache_hit} \
                             executed={executed_steps} of {steps}"
                        );
                    }
                    Some(other) => {
                        soak_check!(false, "predicted {other:?}, job completed")
                    }
                    None => {
                        if *cache_hit {
                            soak_check!(
                                mirror_cache.contains(&key),
                                "cache hit for a key never completed cold"
                            );
                            soak_check!(*executed_steps == 0, "cache hit executed steps");
                        } else {
                            soak_check!(
                                !mirror_cache.contains(&key),
                                "cold run for a key already cached"
                            );
                            soak_check!(
                                budget.is_none_or(|b| b >= steps),
                                "completed past its deadline: budget {budget:?}, steps {steps}"
                            );
                            soak_check!(*executed_steps == steps, "cold run executed steps");
                            mirror_cache.insert(key);
                        }
                    }
                }
                match ep.mode {
                    ChaosMode::Clean => {
                        soak_check!(!recovered, "clean episode recovered a job")
                    }
                    ChaosMode::Panic => {
                        // Exactly the multi-tile jobs strike the probe
                        // (cache hits never execute, so never recover);
                        // single-tile jobs are never dragged into a
                        // recovery, whichever tenant runs next to the
                        // chaos.
                        let want = sub.tall && !*cache_hit;
                        soak_check!(
                            *recovered == want,
                            "panic isolation: tall={} cache_hit={cache_hit} but \
                             recovered={recovered} (tenant {t} job {id})",
                            sub.tall
                        );
                    }
                    // Resume rounds run clean; panic-resume handles
                    // panics by checkpointing, never by in-place
                    // recovery; sticky episodes either fail or run
                    // fault-free.
                    ChaosMode::Resume | ChaosMode::PanicResume | ChaosMode::Sticky => {
                        soak_check!(
                            !recovered,
                            "{:?} episode recovered a completed job",
                            ep.mode
                        );
                    }
                    ChaosMode::VectorPin => {
                        if scalar_host {
                            soak_check!(
                                !recovered,
                                "scalar leg: vector-only faults must never arm"
                            );
                        }
                    }
                    ChaosMode::Faults => {}
                }
                let want = oracle.entry(key).or_insert_with(|| clean_replay(&sub.plan));
                soak_check!(
                    output.shape() == want.shape(),
                    "completed output shape diverged"
                );
                for (x, y) in output.as_slice().iter().zip(want.as_slice()) {
                    soak_check!(
                        x.to_bits() == y.to_bits(),
                        "tenant {t} job {id}: completed output diverged from the \
                         clean sequential reference (poisoned={})",
                        sub.poisoned
                    );
                }
            }
            JobStatus::Expired {
                executed_steps,
                budget: got_budget,
                total_steps,
                resumed_from,
                checkpoint,
                resumable,
            } => {
                mirror[t].expired += 1;
                mirror[t].executed_steps += executed_steps;
                if sub.tall {
                    tall_steps += executed_steps;
                }
                if let Some(p) = pred {
                    let Pred::Expired {
                        executed,
                        resumed_from: want_resumes,
                        resumable: want_resumable,
                    } = p
                    else {
                        soak_check!(false, "predicted {p:?}, job expired");
                        unreachable!()
                    };
                    soak_check!(
                        *executed_steps == executed
                            && *resumed_from == want_resumes
                            && *resumable == want_resumable,
                        "resume expiry accounting: executed {executed_steps} (want \
                         {executed}), resumed_from {resumed_from} (want \
                         {want_resumes}), resumable {resumable} (want {want_resumable})"
                    );
                    soak_check!(
                        *got_budget == budget.unwrap_or(0)
                            && *total_steps == steps
                            && *checkpoint == Some(key),
                        "expiry identity: budget {got_budget}, total {total_steps}, \
                         checkpoint {checkpoint:?}"
                    );
                } else {
                    let b = budget.unwrap_or(u64::MAX);
                    soak_check!(
                        !mirror_cache.contains(&key),
                        "a cached job expired instead of hitting"
                    );
                    soak_check!(
                        b < steps && *got_budget == b && *total_steps == steps,
                        "expiry accounting: budget {got_budget} (want {b}), total \
                         {total_steps} (want {steps})"
                    );
                    soak_check!(
                        *executed_steps == b.min(steps),
                        "expired after {executed_steps} steps, predicted {}",
                        b.min(steps)
                    );
                    soak_check!(
                        *resumed_from == 0 && checkpoint.is_none() && !resumable,
                        "resume accounting in a non-resume episode: resumed_from \
                         {resumed_from}, checkpoint {checkpoint:?}, resumable {resumable}"
                    );
                }
            }
            JobStatus::Failed {
                step,
                executed_steps,
                error,
            } => {
                mirror[t].failed += 1;
                mirror[t].executed_steps += executed_steps;
                if let Some(p) = pred {
                    soak_check!(
                        p == Pred::Failed,
                        "unpredicted failure in a resume episode: {error}"
                    );
                } else {
                    let failures_allowed = matches!(ep.mode, ChaosMode::Faults | ChaosMode::Sticky)
                        || (ep.mode == ChaosMode::VectorPin && !scalar_host);
                    soak_check!(
                        failures_allowed,
                        "job failed outside a fault episode: {error}"
                    );
                }
                soak_check!(
                    (*step as u64) < steps && executed_steps < &steps && !error.is_empty(),
                    "failure attribution: step {step}, executed {executed_steps}, \
                     of {steps}"
                );
            }
            JobStatus::Quarantined {
                key: got_key,
                trips,
            } => {
                mirror[t].quarantined += 1;
                soak_check!(
                    breaker_cfg.armed() && pred.is_none(),
                    "quarantine outside a breaker episode"
                );
                soak_check!(
                    *got_key == key && *trips >= breaker_cfg.quarantine_after,
                    "quarantine identity: key {got_key:?} (want {key:?}), trips {trips}"
                );
            }
        }
        // Replay the scheduler's pre-execution breaker gate and outcome
        // recording against the mirror state machine.
        if breaker_cfg.armed() {
            let quarantined = plan_breakers
                .get(&key)
                .is_some_and(|b| b.quarantined(&breaker_cfg));
            if quarantined {
                let trips = plan_breakers[&key].trips();
                soak_check!(
                    matches!(&outcome.status, JobStatus::Quarantined { trips: got, .. } if *got == trips),
                    "mirror predicted quarantine (trips {trips}), got {}",
                    outcome.status.label()
                );
            } else if !plan_breakers.entry(key).or_default().admit(&breaker_cfg) {
                soak_check!(
                    matches!(&outcome.status, JobStatus::Failed { error, .. }
                        if error.contains("circuit breaker open for plan")),
                    "mirror predicted a plan short-circuit, got {}",
                    outcome.status.label()
                );
                mirror[t].breaker_short_circuits += 1;
            } else if !ten_breakers[t].admit(&breaker_cfg) {
                soak_check!(
                    matches!(&outcome.status, JobStatus::Failed { error, .. }
                        if error.contains("circuit breaker open for tenant")),
                    "mirror predicted a tenant short-circuit, got {}",
                    outcome.status.label()
                );
                mirror[t].breaker_short_circuits += 1;
            } else {
                match &outcome.status {
                    JobStatus::Completed { cache_hit, .. } => {
                        // Cache hits never executed: breaker-neutral.
                        if !cache_hit {
                            ten_breakers[t].record_success();
                            if let Some(b) = plan_breakers.get_mut(&key) {
                                b.record_success();
                            }
                        }
                    }
                    JobStatus::Failed { error, .. } => {
                        soak_check!(
                            !error.contains("circuit breaker open"),
                            "short-circuit without an open mirror breaker: {error}"
                        );
                        let mut trips = 0u64;
                        if ten_breakers[t].record_failure(&breaker_cfg) {
                            trips += 1;
                        }
                        if plan_breakers
                            .entry(key)
                            .or_default()
                            .record_failure(&breaker_cfg)
                        {
                            trips += 1;
                        }
                        mirror[t].breaker_trips += trips;
                    }
                    JobStatus::Expired { .. } => {}
                    JobStatus::Quarantined { .. } => {
                        soak_check!(false, "quarantine the mirror did not predict")
                    }
                }
            }
        }
    }

    // --- Telemetry phase: events == stats == mirror. -----------------
    if let Some(s) = sim.as_ref() {
        for (t, m) in mirror.iter_mut().enumerate() {
            m.suspended = s.suspended[t];
            m.resumed = s.resumed[t];
        }
    }
    let events = sink.events();
    for (t, m) in mirror.iter().enumerate() {
        let stats = svc.tenant_stats(TenantId(t as u32)).expect("registered");
        let count = |stage: &str| -> u64 {
            events
                .iter()
                .filter(|e| e.is_stage(span::SERVE, stage))
                .filter(|e| e.u64("tenant") == Some(t as u64))
                .count() as u64
        };
        let pairs: [(&str, u64); 14] = [
            ("submitted", stats.submitted),
            ("admitted", stats.admitted),
            ("rejected_backpressure", stats.rejected_backpressure),
            ("rejected_quota", stats.rejected_quota),
            ("rejected_malformed", stats.rejected_malformed),
            ("completed", stats.completed),
            ("expired", stats.expired),
            ("failed", stats.failed),
            ("cache_hit", stats.cache_hits),
            ("suspended", stats.suspended),
            ("resumed", stats.resumed),
            ("breaker_short_circuit", stats.breaker_short_circuits),
            ("breaker_trip", stats.breaker_trips),
            ("quarantined", stats.quarantined),
        ];
        for (stage, want) in pairs {
            soak_check!(
                count(stage) == want,
                "tenant {t}: {stage} events ({}) != scheduler tally ({want})",
                count(stage)
            );
        }
        soak_check!(
            count("recovered") == stats.recovered,
            "tenant {t}: recovered events != stats"
        );
        // Per-round step accounting: the executed_steps fields on the
        // tenant's terminal + suspension events sum to the exact tally,
        // so no wave is double-counted across suspensions.
        let step_stages = ["completed", "expired", "failed", "quarantined", "suspended"];
        let step_sum: u64 = events
            .iter()
            .filter(|e| step_stages.iter().any(|s| e.is_stage(span::SERVE, s)))
            .filter(|e| e.u64("tenant") == Some(t as u64))
            .filter_map(|e| e.u64("executed_steps"))
            .sum();
        soak_check!(
            step_sum == stats.executed_steps,
            "tenant {t}: per-round event steps ({step_sum}) != scheduler tally ({})",
            stats.executed_steps
        );
        let flat = MirrorStats {
            submitted: stats.submitted,
            admitted: stats.admitted,
            rejected_backpressure: stats.rejected_backpressure,
            rejected_quota: stats.rejected_quota,
            rejected_malformed: stats.rejected_malformed,
            completed: stats.completed,
            expired: stats.expired,
            failed: stats.failed,
            cache_hits: stats.cache_hits,
            executed_steps: stats.executed_steps,
            suspended: stats.suspended,
            resumed: stats.resumed,
            breaker_short_circuits: stats.breaker_short_circuits,
            breaker_trips: stats.breaker_trips,
            quarantined: stats.quarantined,
        };
        soak_check!(
            flat == *m,
            "tenant {t}: scheduler tallies {flat:?} != soak mirror {m:?}"
        );
        soak_check!(
            svc.tenant_ledger(TenantId(t as u32)) == Some(Default::default()),
            "tenant {t}: ledger not drained to zero"
        );

        let row = totals.slo.entry(t as u32).or_default();
        row.episodes += 1;
        row.submitted += stats.submitted;
        row.admitted += stats.admitted;
        row.rejected_backpressure += stats.rejected_backpressure;
        row.rejected_quota += stats.rejected_quota;
        row.rejected_malformed += stats.rejected_malformed;
        row.completed += stats.completed;
        row.expired += stats.expired;
        row.failed += stats.failed;
        row.recovered += stats.recovered;
        row.cache_hits += stats.cache_hits;
        row.deadline_misses += stats.expired;
        row.suspended += stats.suspended;
        row.resumed += stats.resumed;
        row.breaker_short_circuits += stats.breaker_short_circuits;
        row.breaker_trips += stats.breaker_trips;
        row.quarantined += stats.quarantined;
        row.fault_dropped += stats.fault_log_dropped;
        totals.submissions += stats.submitted;
        totals.admitted += stats.admitted;
        totals.rejected += stats.rejected();
        totals.completed += stats.completed;
        totals.expired += stats.expired;
        totals.failed += stats.failed;
        totals.recovered += stats.recovered;
        totals.cache_hits += stats.cache_hits;
        totals.suspended += stats.suspended;
        totals.resumed += stats.resumed;
        totals.breaker_trips += stats.breaker_trips;
        totals.quarantined += stats.quarantined;
        totals.fault_dropped += stats.fault_log_dropped;
    }

    // The per-tenant attribution of injector ring-buffer drops must
    // account for every drop the backend saw.
    let dropped_total: u64 = (0..ep.tenants)
        .map(|t| {
            svc.tenant_stats(TenantId(t as u32))
                .expect("registered")
                .fault_log_dropped
        })
        .sum();
    soak_check!(
        dropped_total == svc.fault_log_dropped(),
        "fault-log drop attribution: tenants saw {dropped_total}, backend {}",
        svc.fault_log_dropped()
    );

    let recovery = svc.recovery_stats();
    match ep.mode {
        ChaosMode::Clean => soak_check!(
            recovery.detections == 0 && recovery.panic_recoveries == 0,
            "clean episode saw recovery activity: {recovery:?}"
        ),
        ChaosMode::Panic => {
            soak_check!(
                recovery.panic_recoveries == tall_steps,
                "panic episode: {} multi-tile steps dispatched but {} panic \
                 recoveries",
                tall_steps,
                recovery.panic_recoveries
            );
        }
        ChaosMode::Faults => soak_check!(
            recovery.fallbacks == 0,
            "retry-only policy must never fall back"
        ),
        ChaosMode::Resume => {
            soak_check!(
                recovery.detections == 0 && recovery.worker_panics == 0 && recovery.retries == 0,
                "resume episode saw recovery activity: {recovery:?}"
            );
            // Counter-verified: across every suspension and resumption,
            // the backend dispatched each plan step exactly once.
            let total_steps: u64 = mirror.iter().map(|m| m.executed_steps).sum();
            let mmos = Backend::op_count(svc.resilient()).matrix_mmos;
            soak_check!(
                mmos == total_steps,
                "resume episode re-executed completed waves: {mmos} mmos \
                 dispatched for {total_steps} accounted steps"
            );
        }
        ChaosMode::Sticky => {
            soak_check!(
                recovery.fallbacks == 0,
                "retry-only policy must never fall back"
            );
            // The service's breakers ended in the mirror's exact state.
            for (t, want) in ten_breakers.iter().enumerate() {
                let got = svc.tenant_breaker(TenantId(t as u32));
                soak_check!(
                    got == Some(*want),
                    "tenant {t} breaker diverged from the mirror: {got:?} vs {want:?}"
                );
            }
            for (key, want) in &plan_breakers {
                let got = svc.plan_breaker(*key);
                soak_check!(
                    got == Some(*want),
                    "plan breaker diverged from the mirror: {got:?} vs {want:?}"
                );
            }
        }
        ChaosMode::PanicResume => {
            let strikes = sim.as_ref().map_or(0, |s| s.strikes);
            soak_check!(
                recovery.panic_recoveries == 0,
                "resume owns panic handling: no in-place recovery, got {}",
                recovery.panic_recoveries
            );
            soak_check!(
                recovery.worker_panics == strikes,
                "panic-resume strikes: backend saw {}, simulator predicted {strikes}",
                recovery.worker_panics
            );
            let degrade = svc.degrade_state();
            soak_check!(
                degrade.panic_strikes == strikes
                    && degrade.sequential == (strikes >= degrade_cfg.sequential_after_panics),
                "degradation ladder accounting: {degrade:?} vs {strikes} strikes"
            );
        }
        ChaosMode::VectorPin => {
            soak_check!(
                recovery.fallbacks == 0,
                "retry-only policy must never fall back"
            );
            let degrade = svc.degrade_state();
            if scalar_host {
                soak_check!(
                    recovery.detections == 0 && !degrade.scalar_pinned,
                    "scalar leg: vector-only injection armed anyway: {recovery:?}"
                );
            } else {
                soak_check!(
                    degrade.scalar_pinned
                        == (degrade.vector_detections >= degrade_cfg.scalar_after_detections),
                    "scalar-pin rung accounting: {degrade:?}"
                );
                if degrade.scalar_pinned {
                    soak_check!(
                        svc.resilient().health().kernel_isa == KernelIsa::Scalar,
                        "pinned service still reports a vector kernel tier"
                    );
                }
            }
        }
    }
    totals.panic_recoveries += recovery.panic_recoveries;
    totals.detections += recovery.detections;
    Ok(())
}

/// Deterministic sparse-serving episode (`--sparse`): the two
/// streaming-update registry apps, expanded at admission into plans
/// with CSR-declared delta slots, served over a `TiledBackend` worker
/// pool (fp32-input unit) with the serving pass pipeline and a round
/// quantum armed. Runs on whichever kernel dispatch leg the host
/// provides — re-run under `SIMD2_FORCE_SCALAR=1` to cover the scalar
/// leg.
///
/// Asserts: every job (including a cross-tenant duplicate per app)
/// lands `Completed` bit-identical to a clean sequential dense replay
/// ([`dense_replay`]), suspensions balance resumptions, and the row
/// walks genuinely executed (`sparse_mmos` / `skipped_terms` nonzero).
fn run_sparse_episode(seed: u64) -> Result<(), Violation> {
    let config = ServeConfig {
        max_queued_jobs: 64,
        cache_capacity: 1024,
        policy: RecoveryPolicy::Retry { attempts: 2 },
        optimize_plans: true,
        resume: ResumeConfig {
            quantum: 4,
            max_resumes: 64,
        },
        ..ServeConfig::default()
    };
    let mut inner = TiledBackend::with_unit(Simd2Unit::with_precision(PrecisionMode::Fp32Input));
    inner.set_parallelism(Parallelism::Threads(4));
    let mut svc = PlanService::new(inner, config);
    svc.register_tenant(TenantId(0), TenantQuota::default().with_weight(2));
    svc.register_tenant(TenantId(1), TenantQuota::default().with_weight(1));

    // The admission expansion is deterministic per (app, n, seed):
    // recompute it locally for the clean-replay oracles. Tenant 1
    // duplicates tenant 0's submissions, probing the plan cache (or a
    // legal cold re-run while the original holder is suspended).
    let mut wants: HashMap<u64, (AppKind, Matrix)> = HashMap::new();
    for app in AppKind::streaming() {
        for (tenant, n) in [(0u32, 32usize), (1, 32), (0, 24)] {
            let run = harness::run_app(
                &mut TiledBackend::new(),
                app,
                n,
                seed,
                ClosureAlgorithm::Leyzorek,
                true,
            );
            soak_check!(
                run.passed() && run.plan.has_sparse_slots(),
                "sparse episode: {app:?} n={n} failed local validation \
                 (diff {}, sparse_slots {})",
                run.diff,
                run.plan.has_sparse_slots()
            );
            let id = match svc.submit(TenantId(tenant), JobSpec::app(app, n, seed)) {
                Ok(id) => id,
                Err(e) => {
                    return Err(Violation {
                        what: format!("sparse episode: {app:?} n={n} rejected: {e:?}"),
                    })
                }
            };
            wants.insert(id.0, (app, dense_replay(&run.plan)));
        }
    }
    svc.run_until_idle();

    let outcomes = svc.take_outcomes();
    soak_check!(
        outcomes.len() == wants.len(),
        "sparse episode: {} outcomes for {} submissions",
        outcomes.len(),
        wants.len()
    );
    let mut cache_hits = 0u64;
    for outcome in &outcomes {
        let (app, want) = &wants[&outcome.job.0];
        let JobStatus::Completed {
            output, cache_hit, ..
        } = &outcome.status
        else {
            return Err(Violation {
                what: format!(
                    "sparse episode: {app:?} job {} must complete, got {}",
                    outcome.job,
                    outcome.status.label()
                ),
            });
        };
        cache_hits += u64::from(*cache_hit);
        soak_check!(
            output.shape() == want.shape(),
            "sparse episode: {app:?} output shape diverged"
        );
        for (x, y) in output.as_slice().iter().zip(want.as_slice()) {
            soak_check!(
                x.to_bits() == y.to_bits(),
                "sparse episode: {app:?} job {} diverged from the clean \
                 sequential dense replay",
                outcome.job
            );
        }
    }
    let mut suspended = 0u64;
    let mut resumed = 0u64;
    for t in 0..2 {
        let stats = svc.tenant_stats(TenantId(t)).expect("registered");
        suspended += stats.suspended;
        resumed += stats.resumed;
    }
    soak_check!(
        suspended > 0 && suspended == resumed,
        "sparse episode: quantum must suspend and resume in balance \
         (suspended {suspended}, resumed {resumed})"
    );
    let counts = svc.resilient().inner().row_count();
    soak_check!(
        counts.sparse_mmos > 0 && counts.skipped_terms > 0,
        "sparse episode: the row walks never executed: {counts:?}"
    );
    println!(
        "serve_soak sparse PASS: seed={seed} isa={:?} jobs={} cache-hits={cache_hits} \
         suspended={suspended} sparse-mmos={} swept-b-mmos={} skipped-terms={}",
        svc.resilient().health().kernel_isa,
        outcomes.len(),
        counts.sparse_mmos,
        counts.swept_b_mmos,
        counts.skipped_terms,
    );
    Ok(())
}

/// Writes the per-tenant SLO aggregates as JSON lines.
fn export_slo(seed: u64, totals: &Totals) -> std::io::Result<String> {
    let dir = std::path::Path::new("results/telemetry");
    std::fs::create_dir_all(dir)?;
    let mut out = String::new();
    let mut rows: Vec<(&u32, &SloRow)> = totals.slo.iter().collect();
    rows.sort_by_key(|(tenant, _)| **tenant);
    for (tenant, row) in rows {
        json_line_into(
            &mut out,
            "serve_slo",
            EventKind::Instant,
            &[
                field("seed", seed),
                field("tenant", u64::from(*tenant)),
                field("episodes", row.episodes),
                field("submitted", row.submitted),
                field("admitted", row.admitted),
                field("rejected_backpressure", row.rejected_backpressure),
                field("rejected_quota", row.rejected_quota),
                field("rejected_malformed", row.rejected_malformed),
                field("completed", row.completed),
                field("expired", row.expired),
                field("failed", row.failed),
                field("recovered", row.recovered),
                field("cache_hits", row.cache_hits),
                field("deadline_misses", row.deadline_misses),
                field("suspended", row.suspended),
                field("resumed", row.resumed),
                field("breaker_short_circuits", row.breaker_short_circuits),
                field("breaker_trips", row.breaker_trips),
                field("quarantined", row.quarantined),
                field("fault_dropped", row.fault_dropped),
            ],
        );
        out.push('\n');
    }
    let path = dir.join("serve_soak.jsonl");
    std::fs::write(&path, &out)?;
    Ok(path.display().to_string())
}

fn main() {
    let (seed, seconds, iter_cap, sparse) = simd2_bench::cli::parse(
        "serve_soak [--seed S] [--seconds T] [--iters N] | serve_soak --sparse [--seed S]",
        |flags| {
            Ok((
                flags.value("--seed", 2022)?,
                flags.value("--seconds", 10)?,
                flags.value("--iters", 0)?,
                flags.switch("--sparse"),
            ))
        },
    );
    if sparse {
        if let Err(v) = run_sparse_episode(seed) {
            eprintln!("serve_soak VIOLATION in the sparse episode: {}", v.what);
            std::process::exit(1);
        }
        return;
    }
    println!(
        "serve_soak: seed={seed} budget={seconds}s episode-cap={}  \
         modes={{clean,faults,panic,resume,sticky,panic-resume,vector-pin}} \
         tenants=2..4 jobs/tenant=3..8 ppm={{20k,200k}} cache-dups~1/4 poison~1/8",
        if iter_cap == 0 {
            "none".to_owned()
        } else {
            iter_cap.to_string()
        }
    );

    // Probe panics are contained by design; keep the default hook for
    // anything else so genuine defects still print a backtrace.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let is_probe = payload
            .downcast_ref::<String>()
            .map(|s| s.starts_with(PANIC_PROBE_PAYLOAD))
            .or_else(|| {
                payload
                    .downcast_ref::<&str>()
                    .map(|s| s.starts_with(PANIC_PROBE_PAYLOAD))
            })
            .unwrap_or(false);
        if !is_probe {
            default_hook(info);
        }
    }));

    let mut rng = Rng(seed);
    let mut totals = Totals::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while Instant::now() < deadline && (iter_cap == 0 || totals.episodes < iter_cap) {
        let ep = draw_episode(&mut rng);
        let subs = draw_submissions(&ep, &mut rng);
        if let Err(v) = run_episode(&ep, &subs, &mut totals) {
            eprintln!(
                "serve_soak VIOLATION at episode {}: {}",
                totals.episodes, v.what
            );
            eprintln!("  params: {ep:?}");
            std::process::exit(1);
        }
        totals.episodes += 1;
    }

    match export_slo(seed, &totals) {
        Ok(path) => println!("serve_soak SLO export: {path}"),
        Err(e) => {
            eprintln!("serve_soak: SLO export failed: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "serve_soak PASS: {} episodes  submissions={} admitted={} rejected={} \
         completed={} expired={} failed={} recovered={} cache-hits={} \
         panic-recoveries={} detections={} suspended={} resumed={} \
         breaker-trips={} quarantined={} fault-dropped={}",
        totals.episodes,
        totals.submissions,
        totals.admitted,
        totals.rejected,
        totals.completed,
        totals.expired,
        totals.failed,
        totals.recovered,
        totals.cache_hits,
        totals.panic_recoveries,
        totals.detections,
        totals.suspended,
        totals.resumed,
        totals.breaker_trips,
        totals.quarantined,
        totals.fault_dropped,
    );
}
