//! Randomized multi-tenant soak for the `simd2-serve` plan service.
//!
//! A seeded episode loop. Each episode draws its policies — fault
//! class (none, transient faults, sticky faults, vector-tier-only
//! faults, worker panics), checkpoint/resume (round quantum and resume
//! cap), circuit breakers (trip, cooldown and quarantine thresholds)
//! and the two degradation-ladder rungs — independently, so every
//! combination occurs; registers 2–4 tenants with randomized quotas and
//! scheduler weights; and drives a randomized batch of submissions (op
//! × shape × chain length × deadline × cache duplicates × app payloads
//! × a malformed probe × NaN-poisoned inputs).
//!
//! One reference model (`Model`) is fed the same submissions and
//! predicts from the policies alone every admission answer
//! (backpressure, then the in-flight / queued-step / queued-byte
//! quotas), the weighted-round-robin drain with quantum / budget /
//! resume-cap suspensions, first-round cache hits, breaker gates, trips
//! and quarantines, and the panic strikes that move the ladder. From
//! the service's outcome stream it takes only what injected faults
//! decide: whether an executed round failed (and at which step), and
//! whether a completed one was rescued by a retry. The episode then
//! asserts:
//!
//! 1. every answer, job id, outcome and outcome position equals the
//!    model's, field for field — executed steps summed over every
//!    round, the resume accounting of each expiry, which breaker
//!    refused a job;
//! 2. every completed output (cold, cache hit, recovered, resumed or
//!    NaN-poisoned) is bit-identical to a clean sequential replay;
//! 3. at episode end the service's `TenantStats`, ledgers, tenant and
//!    plan breakers and `DegradeState` equal the model's; its recovery
//!    counters show exactly the worker panics the model predicted; and
//!    a fault-free backend dispatched exactly the steps accounted, so
//!    no completed wave was re-executed;
//! 4. with breakers armed under live faults, a second identically
//!    seeded service lands the same outcome stream.
//!
//! The run fails unless every lifecycle stage in `FLOOR` occurred at
//! least once (the coverage floor); per-tenant SLO aggregates are
//! exported to `results/telemetry/serve_soak.jsonl`.
//!
//! Usage: `cargo run -p simd2-bench --bin serve_soak [--seed S]
//! [--seconds T] [--iters N]`, or `--sparse [--seed S]` for the
//! deterministic sparse-serving episode. The episode stream is a pure
//! function of the seed; any violation prints the failing episode's
//! parameters and exits 1.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

use simd2::solve::ClosureAlgorithm;
use simd2::{
    Backend, Parallelism, Plan, PlanBuilder, PlanExecutor, PlanKey, RecoveryPolicy, RetryBackoff,
    TiledBackend,
};
use simd2_apps::{harness, AppKind};
use simd2_fault::{
    FaultPlan, FaultPlanConfig, FaultySimd2Unit, PanicProbeUnit, PlannedInjector,
    PANIC_PROBE_PAYLOAD,
};
use simd2_matrix::{gen, Matrix, ISA_TILE};
use simd2_mxu::{PrecisionMode, Simd2Unit};
use simd2_semiring::precision::quantize_f16;
use simd2_semiring::simd::KernelIsa;
use simd2_semiring::{OpKind, ALL_OPS};
use simd2_serve::{
    plan_input_bytes, Breaker, BreakerConfig, Deadline, DegradeConfig, DegradeState, JobOutcome,
    JobSpec, JobStatus, PlanService, ResumeConfig, ServeConfig, TenantId, TenantLedger,
    TenantQuota, TenantStats,
};
use simd2_trace::{field, json_line_into, EventKind};

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

/// What the episode's backend injects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    None,
    /// Transient NaN corruption; retries usually rescue the round.
    Transient,
    /// Sticky corruption that defeats retries.
    Sticky,
    /// Transient corruption on vector kernel tiers only: it disarms once
    /// the scalar rung pins the kernel, and never arms on a scalar host.
    VectorOnly,
    /// Worker shards panic at tile row 1 of a parallel dispatch.
    Panic,
}

/// One episode's randomized parameters.
#[derive(Debug)]
struct Episode {
    fault: Fault,
    resume: ResumeConfig,
    breaker: BreakerConfig,
    degrade: DegradeConfig,
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
}

fn draw_episode(rng: &mut Rng) -> Episode {
    use Fault::{Panic, Sticky, Transient, VectorOnly};
    // Weighted towards the classes that fail rounds, and each policy
    // armed two times in three, so breakers meet resumed jobs often.
    let fault = rng.pick(&[
        Fault::None,
        Fault::None,
        Transient,
        Sticky,
        Sticky,
        VectorOnly,
        Panic,
        Panic,
        Panic,
    ]);
    let resume = match rng.below(3) {
        0 => ResumeConfig::default(),
        _ => ResumeConfig {
            quantum: rng.below(3),
            max_resumes: rng.pick(&[1, 2, 8]),
        },
    };
    let breaker = match rng.below(3) {
        0 => BreakerConfig::default(),
        _ => BreakerConfig {
            trip_after: rng.pick(&[1, 1, 2]),
            cooldown: rng.below(3) as u32,
            quarantine_after: rng.pick(&[0, 1, 1, 2]),
        },
    };
    let degrade = DegradeConfig {
        scalar_after_detections: rng.pick(&[0, 1, 2]),
        sequential_after_panics: rng.pick(&[0, 0, 1, 2]),
    };
    let tenants = 2 + rng.below(3) as usize;
    Episode {
        fault,
        resume,
        breaker,
        degrade,
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
    }
}

/// One submission the soak will make, with everything the model needs.
struct Submission {
    tenant: usize,
    spec: JobSpec,
    /// The plan behind the spec (regenerated locally for app payloads).
    plan: Plan,
    key: PlanKey,
    /// Whether the plan carries deliberate NaN inputs.
    poisoned: bool,
    /// Whether the plan spans three or more output tile rows — under
    /// worker panics, exactly the jobs whose parallel dispatch strikes
    /// the probe (regardless of which tenant submits a duplicate).
    tall: bool,
}

impl Submission {
    fn new(tenant: usize, spec: JobSpec, plan: Plan, poisoned: bool, tall: bool) -> Self {
        let key = plan.cache_key();
        Self {
            tenant,
            spec,
            plan,
            key,
            poisoned,
            tall,
        }
    }
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
/// under worker panics it gets the tall jobs that strike the probe, and
/// without corrupting faults it occasionally submits NaN-poisoned
/// inputs.
fn draw_submissions(ep: &Episode, rng: &mut Rng) -> Vec<Submission> {
    let idempotent: Vec<OpKind> = ALL_OPS
        .iter()
        .copied()
        .filter(|op| op.reduce_is_idempotent())
        .collect();
    let corrupting = matches!(
        ep.fault,
        Fault::Transient | Fault::Sticky | Fault::VectorOnly
    );
    let mut subs: Vec<Submission> = Vec::new();
    for tenant in 0..ep.tenants {
        for _ in 0..ep.jobs_per_tenant {
            // 1-in-4: resubmit an earlier plan verbatim (cache probe).
            if rng.below(4) == 0 {
                if let Some(prev) = subs.get(rng.below(subs.len().max(1) as u64) as usize) {
                    let spec = JobSpec::plan(prev.plan.clone()).with_deadline(prev.spec.deadline);
                    let (plan, poisoned, tall) = (prev.plan.clone(), prev.poisoned, prev.tall);
                    subs.push(Submission::new(tenant, spec, plan, poisoned, tall));
                    continue;
                }
            }
            // 1-in-8 on a fault-free backend: a registry-app payload.
            if ep.fault == Fault::None && rng.below(8) == 0 {
                let app = rng.pick(&AppKind::all());
                let n = rng.pick(&[16usize, 32]);
                let seed = rng.below(2);
                let leyzorek = ClosureAlgorithm::Leyzorek;
                let run = harness::run_app(&mut TiledBackend::new(), app, n, seed, leyzorek, true);
                let spec = JobSpec::app(app, n, seed);
                subs.push(Submission::new(tenant, spec, run.plan, false, false));
                continue;
            }
            let op = if corrupting {
                rng.pick(&idempotent)
            } else {
                rng.pick(&ALL_OPS)
            };
            let side = match (ep.fault, tenant) {
                // The chaos tenant's jobs span >= 3 tile rows: the probe
                // (armed at tile row 1) strikes every parallel mmo.
                (Fault::Panic, 0) => 2 * ISA_TILE + 1 + rng.below(31) as usize,
                // Calm tenants stay within one tile row: sequential
                // path, never strikes.
                (Fault::Panic, _) => 5 + rng.below(ISA_TILE as u64 - 4) as usize,
                _ => 5 + rng.below(36) as usize,
            };
            let len = 1 + rng.below(3) as usize;
            let poison = !corrupting && tenant == 0 && rng.below(8) == 0;
            let plan = record_chain(op, side, len, ep.data_seed ^ rng.next(), poison);
            let deadline = if rng.below(4) == 0 {
                Deadline::Steps(rng.below(len as u64 + 2))
            } else {
                Deadline::None
            };
            let spec = JobSpec::plan(plan.clone()).with_deadline(deadline);
            subs.push(Submission::new(
                tenant,
                spec,
                plan,
                poison,
                side > 2 * ISA_TILE,
            ));
        }
    }
    // A malformed probe: an empty plan, from a random tenant.
    let empty = PlanBuilder::over(&mut TiledBackend::new()).finish();
    let tenant = rng.below(ep.tenants as u64) as usize;
    subs.push(Submission::new(
        tenant,
        JobSpec::plan(empty.clone()),
        empty,
        false,
        false,
    ));
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

/// A terminal outcome as the model predicts it: a [`JobStatus`] without
/// the output (checked against the clean replay instead), and with a
/// failure's error reduced to which breaker refused the job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Want {
    Completed {
        cache_hit: bool,
        recovered: bool,
        executed_steps: u64,
    },
    Expired {
        executed_steps: u64,
        budget: u64,
        total_steps: u64,
        resumed_from: u64,
        checkpoint: Option<PlanKey>,
        resumable: bool,
    },
    Failed {
        step: usize,
        executed_steps: u64,
        /// `"plan"` / `"tenant"` for a breaker refusal, `""` for a
        /// failed replay; an empty error reads `"(no error)"`, which no
        /// prediction matches.
        refused_by: &'static str,
    },
    Quarantined {
        key: PlanKey,
        trips: u32,
    },
}

impl Want {
    fn of(status: &JobStatus) -> Self {
        match *status {
            JobStatus::Completed {
                cache_hit,
                recovered,
                executed_steps,
                ..
            } => Want::Completed {
                cache_hit,
                recovered,
                executed_steps,
            },
            JobStatus::Expired {
                executed_steps,
                budget,
                total_steps,
                resumed_from,
                checkpoint,
                resumable,
            } => Want::Expired {
                executed_steps,
                budget,
                total_steps,
                resumed_from,
                checkpoint,
                resumable,
            },
            JobStatus::Failed {
                step,
                executed_steps,
                ref error,
            } => Want::Failed {
                step,
                executed_steps,
                refused_by: match error.strip_prefix("circuit breaker open for ") {
                    Some(rest) if rest.starts_with("plan") => "plan",
                    Some(rest) if rest.starts_with("tenant") => "tenant",
                    _ if error.is_empty() => "(no error)",
                    _ => "",
                },
            },
            JobStatus::Quarantined { key, trips } => Want::Quarantined { key, trips },
        }
    }
}

/// One admitted job as the model sees it.
struct Job {
    id: u64,
    sub: usize,
    /// Steps completed in earlier rounds.
    done: u64,
    /// Resumed rounds started (a halt's `PlanCheckpoint::resumes`).
    resumes: u64,
    suspended: bool,
}

/// The reference model of one episode's service, recomputed from the
/// episode's policies and submissions.
struct Model<'a> {
    ep: &'a Episode,
    subs: &'a [Submission],
    /// Whether injected corruption can fail or rescue a round here.
    faults_live: bool,
    stats: Vec<TenantStats>,
    queues: Vec<VecDeque<Job>>,
    breakers: Vec<Breaker>,
    plan_breakers: HashMap<PlanKey, Breaker>,
    cache: HashSet<PlanKey>,
    degrade: DegradeState,
    next_id: u64,
    rounds: usize,
    /// Worker panics the backend must have seen.
    panics: u64,
    oracle: HashMap<PlanKey, Matrix>,
}

impl<'a> Model<'a> {
    fn new(ep: &'a Episode, subs: &'a [Submission], faults_live: bool) -> Self {
        Self {
            ep,
            subs,
            faults_live,
            stats: vec![TenantStats::default(); ep.tenants],
            queues: (0..ep.tenants).map(|_| VecDeque::new()).collect(),
            breakers: vec![Breaker::new(); ep.tenants],
            plan_breakers: HashMap::new(),
            cache: HashSet::new(),
            degrade: DegradeState::default(),
            next_id: 0,
            rounds: 0,
            panics: 0,
            oracle: HashMap::new(),
        }
    }

    fn ledger(&self, t: usize) -> TenantLedger {
        let queue = &self.queues[t];
        TenantLedger {
            in_flight: queue.len(),
            queued_steps: queue
                .iter()
                .map(|j| self.subs[j.sub].plan.step_count() as u64)
                .sum(),
            queued_bytes: queue
                .iter()
                .map(|j| plan_input_bytes(&self.subs[j.sub].plan))
                .sum(),
        }
    }

    fn queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Answers submission `i`: the admitted job id, or the rejection
    /// stage — structure, then backpressure, then the tenant's quotas.
    fn submit(&mut self, i: usize) -> Result<u64, &'static str> {
        let sub = &self.subs[i];
        let t = sub.tenant;
        let ledger = self.ledger(t);
        let queued = self.queued();
        let stats = &mut self.stats[t];
        stats.submitted += 1;
        if sub.plan.is_empty() {
            stats.rejected_malformed += 1;
            return Err("rejected_malformed");
        }
        if queued >= self.ep.max_queued_jobs {
            stats.rejected_backpressure += 1;
            return Err("rejected_backpressure");
        }
        if ledger.in_flight + 1 > self.ep.max_in_flight[t]
            || ledger.queued_steps + sub.plan.step_count() as u64 > self.ep.max_queued_steps[t]
            || ledger.queued_bytes + plan_input_bytes(&sub.plan) > self.ep.max_queued_bytes[t]
        {
            stats.rejected_quota += 1;
            return Err("rejected_quota");
        }
        stats.admitted += 1;
        let id = self.next_id;
        self.next_id += 1;
        self.queues[t].push_back(Job {
            id,
            sub: i,
            done: 0,
            resumes: 0,
            suspended: false,
        });
        Ok(id)
    }

    /// Drains the queues in weighted round-robin order, checking each
    /// terminal the model lands against the service's next outcome.
    fn drain(&mut self, outcomes: &[JobOutcome]) -> Result<(), Violation> {
        let mut landed = 0;
        loop {
            let mut progressed = false;
            for t in 0..self.ep.tenants {
                for _ in 0..self.ep.weights[t].max(1) {
                    let Some(job) = self.queues[t].pop_front() else {
                        break;
                    };
                    self.rounds += 1;
                    progressed = true;
                    let (id, sub) = (job.id, job.sub);
                    let next = outcomes.get(landed);
                    let Some(want) = self.round(t, job, next) else {
                        continue;
                    };
                    let Some(got) = next else {
                        return Err(Violation {
                            what: format!(
                                "model landed job {id} ({want:?}); service landed nothing"
                            ),
                        });
                    };
                    let seen = Want::of(&got.status);
                    soak_check!(
                        (got.tenant.0 as usize, got.job.0, seen) == (t, id, want),
                        "outcome {landed}: model tenant {t} job {id} {want:?}, service {} {} {seen:?}",
                        got.tenant,
                        got.job
                    );
                    if let Some(output) = got.status.output() {
                        let sub = &self.subs[sub];
                        let oracle = self.oracle.entry(sub.key);
                        let want = oracle.or_insert_with(|| clean_replay(&sub.plan));
                        let same = output.shape() == want.shape()
                            && output
                                .as_slice()
                                .iter()
                                .zip(want.as_slice())
                                .all(|(x, y)| x.to_bits() == y.to_bits());
                        soak_check!(
                            same,
                            "job {id}: completed output diverged from the clean sequential \
                             replay (poisoned={})",
                            sub.poisoned
                        );
                    }
                    landed += 1;
                }
            }
            if !progressed {
                soak_check!(
                    landed == outcomes.len(),
                    "service landed {} outcomes, model {landed}",
                    outcomes.len()
                );
                return Ok(());
            }
        }
    }

    /// One scheduling round of `job`: gate, cache, replay, landing.
    /// `None` when the job suspended. `next` is the service's next
    /// unmatched outcome — read only where injected faults decide.
    fn round(&mut self, t: usize, mut job: Job, next: Option<&JobOutcome>) -> Option<Want> {
        let sub = &self.subs[job.sub];
        let (key, steps, before) = (sub.key, sub.plan.step_count() as u64, job.done);
        let cfg = self.ep.breaker;
        if cfg.armed() {
            let plan = self.plan_breakers.entry(key).or_default();
            let refused_by = if plan.quarantined(&cfg) {
                let trips = plan.trips();
                return Some(self.land(t, key, 0, Want::Quarantined { key, trips }, false));
            } else if !plan.admit(&cfg) {
                "plan"
            } else if !self.breakers[t].admit(&cfg) {
                "tenant"
            } else {
                ""
            };
            if !refused_by.is_empty() {
                self.stats[t].breaker_short_circuits += 1;
                let want = Want::Failed {
                    step: before as usize,
                    executed_steps: before,
                    refused_by,
                };
                return Some(self.land(t, key, 0, want, false));
            }
        }
        if job.suspended {
            self.stats[t].resumed += 1;
            job.resumes += 1;
        } else if self.cache.contains(&key) {
            let want = Want::Completed {
                cache_hit: true,
                recovered: false,
                executed_steps: before,
            };
            return Some(self.land(t, key, 0, want, false));
        }

        // The replay: up to `room` steps under the budget and quantum.
        let budget = sub.spec.deadline.budget();
        let armed = self.ep.resume.armed();
        let quantum = match self.ep.resume.quantum {
            0 => u64::MAX,
            q => q,
        };
        let budget_left = budget.map_or(u64::MAX, |b| b.saturating_sub(before));
        let room = (steps - before).min(quantum).min(budget_left);
        let striking = self.ep.fault == Fault::Panic && sub.tall && !self.degrade.sequential;
        let mut panics = 0;
        let mut recovered = false;
        let mut failed = false;
        if room > 0 && striking && armed {
            // The first dispatch panics and the scheduler gets the halt.
            panics = 1;
            failed = true;
        } else if room > 0 {
            // Otherwise every striking step panics and is recovered in
            // place; a live fault may fail the round at any step of it.
            if striking {
                panics = room;
                recovered = true;
            }
            job.done += room;
            if let Some(got) = next.filter(|o| self.faults_live && o.job.0 == job.id) {
                match got.status {
                    JobStatus::Failed { step, .. }
                        if (before..job.done).contains(&(step as u64)) =>
                    {
                        job.done = step as u64;
                        failed = true;
                    }
                    JobStatus::Completed {
                        recovered: rescued, ..
                    } if self.ep.fault == Fault::Transient
                        || self.ep.fault == Fault::VectorOnly =>
                    {
                        recovered = rescued;
                    }
                    _ => {}
                }
            }
        }
        self.panics += panics;
        let ladder = self.ep.degrade.sequential_after_panics;
        if ladder != 0 && !self.degrade.sequential {
            self.degrade.panic_strikes += panics;
            self.degrade.sequential = self.degrade.panic_strikes >= ladder;
        }

        let done = job.done;
        if !failed && done == steps {
            self.cache.insert(key);
            let want = Want::Completed {
                cache_hit: false,
                recovered,
                executed_steps: done,
            };
            return Some(self.land(t, key, done - before, want, true));
        }
        // A halt: a deadline or quantum cancel suspends while budget is
        // left, a worker panic always asks to; either within the cap.
        let budget_open = budget.is_none_or(|b| b > done);
        let retry = if failed { panics > 0 } else { budget_open };
        if armed && retry && job.resumes < self.ep.resume.max_resumes {
            self.stats[t].suspended += 1;
            self.stats[t].executed_steps += done - before;
            job.suspended = true;
            self.queues[t].push_back(job);
            return None;
        }
        let want = if failed {
            Want::Failed {
                step: done as usize,
                executed_steps: done,
                refused_by: "",
            }
        } else {
            Want::Expired {
                executed_steps: done,
                budget: budget.unwrap_or(0),
                total_steps: steps,
                resumed_from: job.resumes,
                checkpoint: armed.then_some(key),
                resumable: armed && budget_open,
            }
        };
        Some(self.land(t, key, done - before, want, true))
    }

    /// Lands a terminal: tenant counters, and — for a round that
    /// replayed — the breakers.
    fn land(&mut self, t: usize, key: PlanKey, round_steps: u64, want: Want, ran: bool) -> Want {
        let cfg = self.ep.breaker;
        if ran && cfg.armed() && !matches!(want, Want::Expired { .. }) {
            let failed = matches!(want, Want::Failed { .. });
            let plan = self.plan_breakers.entry(key).or_default();
            for breaker in [&mut self.breakers[t], plan] {
                if !failed {
                    breaker.record_success();
                } else if breaker.record_failure(&cfg) {
                    self.stats[t].breaker_trips += 1;
                }
            }
        }
        let stats = &mut self.stats[t];
        stats.executed_steps += round_steps;
        match want {
            Want::Completed {
                cache_hit,
                recovered,
                ..
            } => {
                stats.completed += 1;
                stats.cache_hits += u64::from(cache_hit);
                stats.recovered += u64::from(recovered);
            }
            Want::Expired { .. } => stats.expired += 1,
            Want::Failed { .. } => stats.failed += 1,
            Want::Quarantined { .. } => stats.quarantined += 1,
        }
        want
    }
}

/// Builds the episode's service on `inner`, tenants registered.
fn service<B: Backend>(inner: B, config: ServeConfig, ep: &Episode) -> PlanService<B> {
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
    svc
}

/// Builds the episode's backend and configuration and checks it.
fn run_episode(ep: &Episode, subs: &[Submission], totals: &mut Totals) -> Result<(), Violation> {
    let corrupting = matches!(
        ep.fault,
        Fault::Transient | Fault::Sticky | Fault::VectorOnly
    );
    let mut config = ServeConfig {
        max_queued_jobs: ep.max_queued_jobs,
        cache_capacity: 1024,
        policy: RecoveryPolicy::Retry { attempts: 2 },
        breaker: ep.breaker,
        resume: ep.resume,
        degrade: ep.degrade,
        ..ServeConfig::default()
    };
    if corrupting {
        config.abft.witness_samples = usize::MAX;
    }
    if matches!(ep.fault, Fault::Transient | Fault::VectorOnly) {
        config.policy = RecoveryPolicy::Retry { attempts: 32 };
        config.backoff = RetryBackoff::unbounded();
    }
    match ep.fault {
        Fault::None => check_episode(TiledBackend::new, config, ep, subs, totals),
        Fault::Panic => {
            let build = || {
                let mut inner = TiledBackend::with_unit(PanicProbeUnit::new(Simd2Unit::new(), 1));
                inner.set_parallelism(Parallelism::Threads(ep.workers));
                inner
            };
            check_episode(build, config, ep, subs, totals)
        }
        Fault::Transient | Fault::Sticky | Fault::VectorOnly => {
            let build = || {
                let plan = FaultPlanConfig::new(ep.fault_seed);
                let plan = match ep.fault {
                    Fault::Sticky => plan.with_sticky_ppm(ep.ppm),
                    _ => plan.with_transient_nan_ppm(ep.ppm),
                };
                let injector = PlannedInjector::new(FaultPlan::new(plan));
                TiledBackend::with_unit(
                    FaultySimd2Unit::new(Simd2Unit::new(), injector)
                        .with_vector_only(ep.fault == Fault::VectorOnly),
                )
            };
            check_episode(build, config, ep, subs, totals)
        }
    }
}

/// Runs the episode's submissions through a service and the model, and
/// compares them answer for answer, outcome for outcome, then state for
/// state.
fn check_episode<B: Backend>(
    build: impl Fn() -> B,
    config: ServeConfig,
    ep: &Episode,
    subs: &[Submission],
    totals: &mut Totals,
) -> Result<(), Violation> {
    let inner = build();
    // Which dispatch leg this host runs (SIMD2_FORCE_SCALAR lands here
    // as KernelIsa::Scalar): vector-only faults arm on a vector leg only.
    let vector_host = inner.health().kernel_isa != KernelIsa::Scalar;
    let faults_live = match ep.fault {
        Fault::Transient | Fault::Sticky => true,
        Fault::VectorOnly => vector_host,
        Fault::None | Fault::Panic => false,
    };
    let mut svc = service(inner, config, ep);
    let mut model = Model::new(ep, subs, faults_live);

    // An unknown tenant is refused outright and appears in no ledger.
    let probe = svc.submit(TenantId(99), JobSpec::plan(subs[0].plan.clone()));
    soak_check!(
        matches!(probe, Err(simd2_serve::Rejected::Malformed { .. })),
        "unknown tenant must be rejected as malformed, got {probe:?}"
    );
    for (i, sub) in subs.iter().enumerate() {
        let want = model.submit(i);
        let got = svc.submit(TenantId(sub.tenant as u32), sub.spec.clone());
        let got = got.map(|id| id.0).map_err(|r| r.stage());
        soak_check!(
            got == want,
            "submission {i} (tenant {}): model {want:?}, service {got:?}",
            sub.tenant
        );
    }
    for t in 0..ep.tenants {
        let got = svc.tenant_ledger(TenantId(t as u32));
        soak_check!(
            got == Some(model.ledger(t)),
            "tenant {t}: admitted ledger {got:?}, model {:?}",
            model.ledger(t)
        );
    }
    soak_check!(
        svc.queued_jobs() == model.queued(),
        "queued jobs {} != model {}",
        svc.queued_jobs(),
        model.queued()
    );

    let rounds = svc.run_until_idle();
    let outcomes = svc.take_outcomes();
    model.drain(&outcomes)?;
    soak_check!(
        rounds == model.rounds,
        "run_until_idle ran {rounds} rounds, model {}",
        model.rounds
    );
    if ep.breaker.armed() && faults_live {
        // Injected faults are seeded: a twin service lands the same
        // stream, so the breakers replay the same transitions.
        let mut twin = service(build(), config, ep);
        for sub in subs {
            let _ = twin.submit(TenantId(sub.tenant as u32), sub.spec.clone());
        }
        twin.run_until_idle();
        let stream = |o: &[JobOutcome]| -> Vec<(u64, Want)> {
            o.iter().map(|o| (o.job.0, Want::of(&o.status))).collect()
        };
        soak_check!(
            stream(&twin.take_outcomes()) == stream(&outcomes),
            "a twin service diverged from an identically seeded outcome stream"
        );
    }

    // State for state: counters, ledgers, breakers, ladder.
    let mut dropped = 0;
    for t in 0..ep.tenants {
        let tenant = TenantId(t as u32);
        let stats = svc.tenant_stats(tenant).expect("registered");
        // Ring-buffer drops are the injector's; only their attribution
        // is checked (below).
        dropped += stats.fault_log_dropped;
        let want = TenantStats {
            fault_log_dropped: stats.fault_log_dropped,
            ..model.stats[t]
        };
        soak_check!(
            stats == want,
            "tenant {t}: stats {stats:?}\n  model {want:?}"
        );
        soak_check!(
            svc.tenant_ledger(tenant) == Some(TenantLedger::default()),
            "tenant {t}: ledger not drained to zero"
        );
        let breaker = svc.tenant_breaker(tenant);
        soak_check!(
            breaker == Some(model.breakers[t]),
            "tenant {t}: breaker {breaker:?}, model {:?}",
            model.breakers[t]
        );
        totals.stats.push((t as u32, stats));
    }
    for (key, want) in &model.plan_breakers {
        let got = svc.plan_breaker(*key);
        soak_check!(got == Some(*want), "plan breaker {got:?}, model {want:?}");
    }
    soak_check!(
        dropped == svc.fault_log_dropped(),
        "fault-log drop attribution: tenants saw {dropped}, backend {}",
        svc.fault_log_dropped()
    );

    let recovery = svc.recovery_stats();
    let degrade = svc.degrade_state();
    // The scalar rung counts ABFT detections the model does not predict:
    // it must fire exactly at its threshold, and count every detection
    // when only the vector tier is corrupted.
    let scalar_rung = ep.degrade.scalar_after_detections;
    let rung_live = scalar_rung != 0 && vector_host;
    soak_check!(
        degrade.scalar_pinned == (rung_live && degrade.vector_detections >= scalar_rung)
            && (rung_live || degrade.vector_detections == 0)
            && (!rung_live
                || !matches!(ep.fault, Fault::VectorOnly | Fault::None | Fault::Panic)
                || degrade.vector_detections == recovery.detections),
        "scalar-pin rung accounting: {degrade:?}, {recovery:?}"
    );
    let want = DegradeState {
        scalar_pinned: degrade.scalar_pinned,
        vector_detections: degrade.vector_detections,
        ..model.degrade
    };
    soak_check!(degrade == want, "ladder {degrade:?}, model {want:?}");
    if degrade.scalar_pinned {
        soak_check!(
            svc.resilient().health().kernel_isa == KernelIsa::Scalar,
            "pinned service still reports a vector kernel tier"
        );
    }
    soak_check!(
        recovery.fallbacks == 0,
        "retry-only policy must never fall back"
    );
    if !faults_live {
        let in_place = if ep.resume.armed() { 0 } else { model.panics };
        soak_check!(
            recovery.detections == 0
                && recovery.retries == 0
                && recovery.worker_panics == model.panics
                && recovery.panic_recoveries == in_place,
            "model predicted {} worker panics ({in_place} recovered in place), got {recovery:?}",
            model.panics
        );
    }
    if ep.fault == Fault::None {
        // Across every suspension and resumption, the backend dispatched
        // each accounted step exactly once.
        let steps: u64 = model.stats.iter().map(|s| s.executed_steps).sum();
        let mmos = Backend::op_count(svc.resilient()).matrix_mmos;
        soak_check!(
            mmos == steps,
            "{mmos} mmos dispatched for {steps} accounted steps"
        );
    }
    totals.panic_recoveries += recovery.panic_recoveries;
    totals.detections += recovery.detections;
    totals.degraded_sequential += u64::from(degrade.sequential);
    totals.degraded_scalar += u64::from(degrade.scalar_pinned);
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

/// What the run accumulates across episodes.
#[derive(Default)]
struct Totals {
    episodes: u64,
    /// Every episode's final counters, by tenant index.
    stats: Vec<(u32, TenantStats)>,
    panic_recoveries: u64,
    detections: u64,
    /// Episodes whose ladder demoted dispatch to sequential.
    degraded_sequential: u64,
    /// Episodes whose ladder pinned the scalar kernel.
    degraded_scalar: u64,
}

/// The counters of a [`TenantStats`], by name: what the SLO export, the
/// run totals and the coverage floor read.
fn counters(s: &TenantStats) -> [(&'static str, u64); 17] {
    [
        ("submitted", s.submitted),
        ("admitted", s.admitted),
        ("rejected_backpressure", s.rejected_backpressure),
        ("rejected_quota", s.rejected_quota),
        ("rejected_malformed", s.rejected_malformed),
        ("completed", s.completed),
        ("expired", s.expired),
        ("failed", s.failed),
        ("recovered", s.recovered),
        ("cache_hits", s.cache_hits),
        ("executed_steps", s.executed_steps),
        ("suspended", s.suspended),
        ("resumed", s.resumed),
        ("breaker_trips", s.breaker_trips),
        ("breaker_short_circuits", s.breaker_short_circuits),
        ("quarantined", s.quarantined),
        ("fault_log_dropped", s.fault_log_dropped),
    ]
}

/// Element-wise sum of [`counters`] over `rows`.
fn sum<'a>(rows: impl Iterator<Item = &'a TenantStats>) -> [(&'static str, u64); 17] {
    let mut out = counters(&TenantStats::default());
    for row in rows {
        for (acc, (_, v)) in out.iter_mut().zip(counters(row)) {
            acc.1 += v;
        }
    }
    out
}

/// The lifecycle stages every run must reach, as [`counters`] names
/// plus the two ladder rungs (the scalar pin only on a vector host).
const FLOOR: [&str; 11] = [
    "expired",
    "failed",
    "cache_hits",
    "recovered",
    "suspended",
    "resumed",
    "breaker_short_circuits",
    "breaker_trips",
    "quarantined",
    "degraded_sequential",
    "degraded_scalar",
];

/// The floor's stages this run never reached.
fn unreached(totals: &Totals, vector_host: bool) -> Vec<&'static str> {
    let all = sum(totals.stats.iter().map(|(_, s)| s));
    FLOOR
        .into_iter()
        .filter(|stage| {
            let count = match *stage {
                "degraded_sequential" => totals.degraded_sequential,
                "degraded_scalar" if !vector_host => 1,
                "degraded_scalar" => totals.degraded_scalar,
                name => all.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v),
            };
            count == 0
        })
        .collect()
}

/// Writes the per-tenant SLO aggregates as JSON lines.
fn export_slo(seed: u64, totals: &Totals) -> std::io::Result<String> {
    let dir = std::path::Path::new("results/telemetry");
    std::fs::create_dir_all(dir)?;
    let mut by_tenant: BTreeMap<u32, Vec<&TenantStats>> = BTreeMap::new();
    for (tenant, stats) in &totals.stats {
        by_tenant.entry(*tenant).or_default().push(stats);
    }
    let mut out = String::new();
    for (tenant, rows) in by_tenant {
        let mut fields = vec![
            field("seed", seed),
            field("tenant", u64::from(tenant)),
            field("episodes", rows.len() as u64),
        ];
        fields.extend(sum(rows.into_iter()).map(|(name, v)| field(name, v)));
        json_line_into(&mut out, "serve_slo", EventKind::Instant, &fields);
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
         faults={{none,transient,sticky,vector-only,panic}} x resume x breakers x ladder \
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
    let all = sum(totals.stats.iter().map(|(_, s)| s));
    let all: Vec<String> = all.iter().map(|(name, v)| format!("{name}={v}")).collect();
    println!(
        "serve_soak: {} episodes  {}  panic_recoveries={} detections={} \
         degraded_sequential={} degraded_scalar={}",
        totals.episodes,
        all.join(" "),
        totals.panic_recoveries,
        totals.detections,
        totals.degraded_sequential,
        totals.degraded_scalar,
    );
    let vector_host = TiledBackend::new().health().kernel_isa != KernelIsa::Scalar;
    let missing = unreached(&totals, vector_host);
    if !missing.is_empty() {
        eprintln!(
            "serve_soak COVERAGE: no episode reached {} (vector host: {vector_host})",
            missing.join(", ")
        );
        std::process::exit(1);
    }
    println!("serve_soak PASS: every lifecycle stage reached");
}
