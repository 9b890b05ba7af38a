//! `serve-mix`: `PlanService<TiledBackend>` on the sequential backend
//! with `optimize_plans` on — ABFT verification, the recovery policy and
//! the 128-entry plan cache all armed — three tenants weighted 2/1/1,
//! one client, one job in flight: `submit` → `run_until_idle` →
//! `take_outcomes`, timed per job.
//!
//! The mirror image of `dense-mmo`: S-class jobs (~1 ms of kernel) make
//! admission, fingerprinting, ABFT, cache and scheduler the dominant
//! cost; L-class misses are 5 % of jobs, so p99 sits inside that class
//! and is set by compute; 30 % of jobs repeat a resident plan, so a
//! cache change that helps hits and costs misses shows. The stream is
//! [`crate::jobstream`].

use simd2::{OptimizedPlan, PassPipeline, Plan, PlanExecutor, ResilientBackend, TiledBackend};
use simd2_apps::AppKind;
use simd2_matrix::Matrix;
use simd2_serve::{JobSpec, JobStatus, PlanService, ServeConfig, TenantId, TenantQuota};

use super::apps::{generate, record, tile_macs};
use super::Tracing;
use crate::common::{bits_eq, repeat_setup, run_rounds, time, Args, Env};
use crate::jobstream::{Job, JobStream, BLOCK, CLASSES, FRESH, REPEATS};
use crate::metrics::{Report, JOB_CLASSES};
use crate::stats::{geomean, median, percentile, quiet};

/// Plan dimension of each class.
const CLASS_N: [usize; CLASSES] = [64, 128, 256];
/// Pre-recorded plans per class: more than the cache holds.
const POOL: [usize; CLASSES] = [200, 60, 12];
/// App kinds the pools cycle through (the eight Table-4 apps): plan `i`
/// of a pool is of kind `i % KINDS`.
const KINDS: usize = 8;
/// Blocks served before timing starts (fills the cache past its first
/// evictions' worth of S-class entries and warms the allocator).
const WARM_UP_BLOCKS: usize = 5;

fn config() -> ServeConfig {
    ServeConfig {
        optimize_plans: true,
        ..ServeConfig::default()
    }
}

fn service(backend: TiledBackend, config: ServeConfig) -> PlanService<TiledBackend> {
    let mut svc = PlanService::new(backend, config);
    for (tenant, weight) in [(1, 2), (2, 1), (3, 1)] {
        svc.register_tenant(TenantId(tenant), TenantQuota::default().with_weight(weight));
    }
    svc
}

/// The pre-recorded plans, by class: the eight Table-4 apps in turn,
/// each with its own seed, recorded with convergence off.
fn build_pools(seed: u64) -> [Vec<Plan>; CLASSES] {
    std::array::from_fn(|class| {
        (0..POOL[class])
            .map(|i| {
                let kind = AppKind::all()[i % KINDS];
                let plan_seed = seed.wrapping_add((class * 1000 + i) as u64);
                let input = generate(kind, CLASS_N[class], plan_seed);
                record(kind, &input, &mut TiledBackend::new(), false).1
            })
            .collect()
    })
}

/// Per-plan facts computed once, outside set-up.
struct PlanFacts {
    /// Final output of a clean sequential replay of the plan as recorded.
    oracle: Matrix,
    /// The plan as the service's admission pipeline rewrites it.
    optimised: OptimizedPlan,
    /// MACs the optimised plan executes.
    macs: f64,
}

impl PlanFacts {
    fn of(plan: &Plan) -> Self {
        let oracle = PlanExecutor::new()
            .run(plan, &mut TiledBackend::new())
            .expect("oracle replay")
            .into_final_output()
            .expect("recorded plans are non-empty");
        let optimised = PassPipeline::serving().run(plan.clone());
        let macs = tile_macs(optimised.plan().predicted_op_count().tile_mmos);
        Self {
            oracle,
            optimised,
            macs,
        }
    }
}

/// One served job's timings, in seconds.
struct Served {
    job: Job,
    submit_s: f64,
    total_s: f64,
}

/// Submits one job and drives it to its outcome. Returns the timings
/// and whether the job completed with the oracle's bits.
fn serve_one(
    svc: &mut PlanService<TiledBackend>,
    job: Job,
    plan: &Plan,
    oracle: &Matrix,
) -> (Served, bool) {
    let spec = JobSpec::plan(plan.clone()); // the client's copy, not timed
    let t0 = std::time::Instant::now();
    let admitted = svc.submit(TenantId(job.tenant), spec);
    let submit_s = t0.elapsed().as_secs_f64();
    svc.run_until_idle();
    let outcomes = svc.take_outcomes();
    let total_s = t0.elapsed().as_secs_f64();
    let ok = admitted.is_ok()
        && outcomes.len() == 1
        && matches!(
            &outcomes[0].status,
            JobStatus::Completed { output, cache_hit, .. }
                if bits_eq(output, oracle) && *cache_hit == job.repeat
        );
    (
        Served {
            job,
            submit_s,
            total_s,
        },
        ok,
    )
}

/// Quiet-host cost of one job of a class.
struct ClassCost {
    /// Seconds per miss.
    miss_s: f64,
    /// MACs per miss.
    miss_macs: f64,
    /// Seconds per hit.
    hit_s: f64,
}

/// Quiet-host job costs by class.
///
/// Blocks differ in content — an L-class KNN plan is a tenth of the work
/// of an L-class closure — so the fastest blocks are the lightest, not
/// the quietest, and [`quiet`] over block times would measure the draw.
/// Jobs of one class and app kind, though, do identical work (same
/// steps, same shapes), so miss latencies are quieted per kind and
/// averaged in the proportions the pools hold the kinds, which is the
/// proportion the cyclic walk submits them in; hits are quieted per
/// class.
fn class_costs(served: &[Served], facts: &[Vec<PlanFacts>; CLASSES]) -> [ClassCost; CLASSES] {
    std::array::from_fn(|class| {
        let of = |keep: &dyn Fn(&Job) -> bool| -> Vec<f64> {
            served
                .iter()
                .filter(|s| s.job.class == class && keep(&s.job))
                .map(|s| s.total_s)
                .collect()
        };
        let (mut secs, mut macs, mut plans) = (0.0, 0.0, 0.0);
        for kind in 0..KINDS {
            let misses = of(&|j| !j.repeat && j.plan % KINDS == kind);
            if misses.is_empty() {
                continue; // a run too short to have served this kind
            }
            let in_pool: Vec<&PlanFacts> = facts[class].iter().skip(kind).step_by(KINDS).collect();
            secs += quiet(&misses) * in_pool.len() as f64;
            macs += in_pool.iter().map(|f| f.macs).sum::<f64>();
            plans += in_pool.len() as f64;
        }
        let hits = of(&|j| j.repeat);
        ClassCost {
            miss_s: secs / plans,
            miss_macs: macs / plans,
            hit_s: if hits.is_empty() { 0.0 } else { quiet(&hits) },
        }
    })
}

/// Runs the workload.
pub fn run(args: &Args, _env: &Env) -> Report {
    let mut report = Report::default();
    let (setup_s, setup_reps, (pools, mut svc)) = repeat_setup(|| {
        (
            build_pools(args.seed),
            service(TiledBackend::new(), config()),
        )
    });
    report.set("setup_s", setup_s);
    let (oracle_s, facts) = time(|| {
        pools
            .each_ref()
            .map(|pool| pool.iter().map(PlanFacts::of).collect::<Vec<_>>())
    });
    report.note(format!(
        "set-up repeated {setup_reps}x (median reported); {} replay oracles built once in {oracle_s:.3} s",
        POOL.iter().sum::<usize>()
    ));

    let mut stream = JobStream::new(args.seed, POOL, config().cache_capacity);
    let tracing = args.trace.then(|| Tracing::new(1 << 20));
    let mut traced_svc = tracing.as_ref().map(|t| {
        let mut svc = service(TiledBackend::new().with_tracer(t.tracer()), config());
        svc.set_tracer(t.tracer());
        svc
    });
    let mut bare = TiledBackend::new();
    let cfg = config();
    let mut resilient = ResilientBackend::with_config(TiledBackend::new(), cfg.policy, cfg.abft)
        .with_backoff(cfg.backoff);

    let mut served: Vec<Served> = Vec::new();
    // Tracing only: per class, (service latency / bare replay) and
    // (resilient replay / bare replay) of the block's first miss, and
    // the admission pipeline's time on it.
    let mut over_replay: [Vec<f64>; CLASSES] = Default::default();
    let mut over_bare: [Vec<f64>; CLASSES] = Default::default();
    let mut admit_optimise = Vec::new();
    let mut cache_at_start = svc.cache_stats();

    // One "round" is one block of twenty jobs; its single sample is the
    // block's service time. Layout when tracing: [block, block traced].
    let width = 1 + usize::from(args.trace);
    let rounds = run_rounds(width, args.seconds, |warm_up| {
        let mut block_s = 0.0;
        let mut traced_s = 0.0;
        for _ in 0..if warm_up { WARM_UP_BLOCKS } else { 1 } {
            let block = stream.next_block();
            let mut sampled = [false; CLASSES];
            for &job in &block {
                let plan = &pools[job.class][job.plan];
                let fact = &facts[job.class][job.plan];
                let (s, ok) = serve_one(&mut svc, job, plan, &fact.oracle);
                report.attempt(ok);
                block_s += s.total_s;
                let service_s = s.total_s;
                if !warm_up {
                    served.push(s);
                }
                let Some(traced_svc) = traced_svc.as_mut() else {
                    continue;
                };
                traced_s += serve_one(traced_svc, job, plan, &fact.oracle).0.total_s;
                if warm_up || job.repeat || std::mem::replace(&mut sampled[job.class], true) {
                    continue;
                }
                let opt = fact.optimised.plan();
                let bare_s = time(|| PlanExecutor::new().run(opt, &mut bare)).0;
                over_replay[job.class].push(service_s / bare_s);
                let resilient_s = time(|| PlanExecutor::new().run(opt, &mut resilient)).0;
                over_bare[job.class].push(resilient_s / bare_s);
                let copy = plan.clone();
                admit_optimise.push(time(|| PassPipeline::serving().run(copy)).0);
            }
        }
        if warm_up {
            cache_at_start = svc.cache_stats();
        }
        if args.trace {
            vec![block_s, traced_s]
        } else {
            vec![block_s]
        }
    });

    let jobs = served.len();
    debug_assert_eq!(jobs, rounds.rounds * BLOCK);
    report.note(format!(
        "{jobs} timed jobs in {} blocks of {BLOCK} after {WARM_UP_BLOCKS} warm-up blocks, every outcome checked",
        rounds.rounds
    ));
    let ms = |xs: &[f64]| median(xs) * 1e3;
    let latencies = |keep: &dyn Fn(&Served) -> bool| -> Vec<f64> {
        served
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.total_s)
            .collect()
    };
    let miss_of = |class: usize| latencies(&|s| s.job.class == class && !s.job.repeat);

    if !args.trace {
        let all = latencies(&|_| true);
        let costs = class_costs(&served, &facts);
        let block_s: f64 = costs
            .iter()
            .enumerate()
            .map(|(c, cost)| FRESH[c] as f64 * cost.miss_s + REPEATS[c] as f64 * cost.hit_s)
            .sum();
        // Time to serve one block of the mix on a quiet host, and the
        // throughput that goes with it; the raw closed-loop figure over
        // the whole timed wall goes to the notes. Nothing is re-planned
        // apart from the service, so replan_s repeats solve_s.
        report.set("solve_s", block_s);
        report.set("replan_s", block_s);
        report.set("jobs_per_s", BLOCK as f64 / block_s);
        report.note(format!(
            "raw throughput over the whole timed wall: {:.1} jobs/s, median block {:.2} ms",
            jobs as f64 / all.iter().sum::<f64>(),
            median(&rounds.samples[0]) * 1e3
        ));
        report.set("job_p50_ms", ms(&all));
        match percentile(&all, 99.0) {
            Some(p99) => report.set("job_p99_ms", p99 * 1e3),
            None => report.note(format!(
                "job_p99_ms refused: {jobs} jobs leave fewer than ten beyond p99; raise --seconds"
            )),
        }
        // MACs the service's misses execute over the time they take, by
        // class (hits execute nothing). The service and its backend are
        // single-threaded, so its T-thread rate is this same rate.
        let rate = geomean(
            &costs
                .iter()
                .map(|c| c.miss_macs / c.miss_s / 1e9)
                .collect::<Vec<_>>(),
        );
        report.set("mmo_gmacs", rate);
        report.set("mmo_gmacs_mt", rate);
        report.note("serve-mix: mmo_gmacs_mt repeats mmo_gmacs and replan_s repeats solve_s (no separate measurement exists)");
        return report;
    }

    report.set(
        "serve.submit_ms_p50",
        ms(&served.iter().map(|s| s.submit_s).collect::<Vec<_>>()),
    );
    for (class, label) in JOB_CLASSES.iter().enumerate() {
        report.set(format!("serve.miss_ms_p50.{label}"), ms(&miss_of(class)));
        report.set(
            format!("serve.over_replay.{label}"),
            median(&over_replay[class]),
        );
    }
    report.set("serve.hit_ms_p50", ms(&latencies(&|s| s.job.repeat)));
    let cache = svc.cache_stats();
    let (hits, misses) = (
        cache.hits - cache_at_start.hits,
        cache.misses - cache_at_start.misses,
    );
    report.set("serve.cache_hit_frac", hits as f64 / (hits + misses) as f64);
    report.set("core.resilient.over_bare.S", median(&over_bare[0]));
    report.set("core.resilient.over_bare.L", median(&over_bare[2]));
    report.set("core.passes.admit_optimise_ms_p50", ms(&admit_optimise));
    let stats: Vec<_> = svc
        .tenants()
        .into_iter()
        .filter_map(|t| svc.tenant_stats(t))
        .collect();
    report.set(
        "serve.recovered_jobs",
        stats.iter().map(|s| s.recovered).sum::<u64>() as f64,
    );
    report.set(
        "serve.rejected_jobs",
        stats.iter().map(|s| s.rejected()).sum::<u64>() as f64,
    );
    report.set(
        "serve.expired_jobs",
        stats.iter().map(|s| s.expired).sum::<u64>() as f64,
    );
    report.note(format!(
        "{} interleaved bare / resilient replays per class",
        over_replay[0].len()
    ));

    let overhead = rounds.ratio_per_round(1..2, 0..1);
    tracing
        .expect("trace mode has a sink")
        .finish(&mut report, &args.workload, &overhead);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use simd2::{Backend, PlanBuilder};
    use simd2_semiring::OpKind;

    /// A one-step 16³ plan whose inputs depend on `tag`.
    fn tiny_plan(tag: usize) -> Plan {
        let (a, b, c) = crate::common::operands(OpKind::MinPlus, 16, 16, 16, tag as u64);
        let mut be = TiledBackend::new();
        let mut rec = PlanBuilder::over(&mut be);
        rec.mmo(OpKind::MinPlus, &a, &b, &c).expect("recording mmo");
        rec.finish()
    }

    /// Serves `blocks` blocks of a seeded stream on a fresh service and
    /// returns each job with whether the service answered from its
    /// cache, plus the service's own hit fraction after the first block.
    fn serve_stream(seed: u64, blocks: usize) -> (Vec<(Job, bool)>, f64) {
        const POOLS: [usize; CLASSES] = [60, 24, 6];
        let cfg = ServeConfig {
            cache_capacity: 64,
            ..config()
        };
        let pools: [Vec<Plan>; CLASSES] =
            std::array::from_fn(|c| (0..POOLS[c]).map(|i| tiny_plan(c * 100 + i)).collect());
        let mut svc = service(TiledBackend::new(), cfg);
        let mut stream = JobStream::new(seed, POOLS, cfg.cache_capacity);
        let mut seen = Vec::new();
        let mut after_first = svc.cache_stats();
        for b in 0..blocks {
            for job in stream.next_block() {
                let plan = &pools[job.class][job.plan];
                svc.submit(TenantId(job.tenant), JobSpec::plan(plan.clone()))
                    .expect("admitted");
                svc.run_until_idle();
                let outcome = svc.take_outcomes().pop().expect("one outcome");
                let JobStatus::Completed { cache_hit, .. } = outcome.status else {
                    panic!("job did not complete: {:?}", outcome.status);
                };
                seen.push((job, cache_hit));
            }
            if b == 0 {
                after_first = svc.cache_stats();
            }
        }
        let end = svc.cache_stats();
        let (hits, misses) = (end.hits - after_first.hits, end.misses - after_first.misses);
        (seen, hits as f64 / (hits + misses) as f64)
    }

    #[test]
    fn same_seed_gives_the_same_job_order_and_cache_hit_frac() {
        let (jobs_a, frac_a) = serve_stream(11, 12);
        let (jobs_b, frac_b) = serve_stream(11, 12);
        assert_eq!(jobs_a, jobs_b);
        assert_eq!(frac_a, frac_b);
        // The stream's model of the cache is the cache's behaviour:
        // repeats hit, fresh plans miss, 30 % of every block repeats.
        assert!(jobs_a.iter().all(|(job, hit)| job.repeat == *hit));
        assert_eq!(frac_a, 0.30);
        assert_ne!(serve_stream(12, 12).0, jobs_a);
    }

    #[test]
    fn a_wrong_output_or_an_unexpected_cache_answer_fails_the_job() {
        let plan = tiny_plan(1);
        let oracle = PlanFacts::of(&plan).oracle;
        let job = Job {
            class: 0,
            plan: 0,
            tenant: 1,
            repeat: false,
        };
        let mut svc = service(TiledBackend::new(), config());
        assert!(serve_one(&mut svc, job, &plan, &oracle).1);
        // Served again it hits the cache, which a fresh job must not.
        assert!(!serve_one(&mut svc, job, &plan, &oracle).1);
        let repeat = Job {
            repeat: true,
            ..job
        };
        assert!(serve_one(&mut svc, repeat, &plan, &oracle).1);
        // A mismatching oracle is a failure too.
        let wrong = PlanFacts::of(&tiny_plan(2)).oracle;
        assert!(!serve_one(&mut svc, repeat, &plan, &wrong).1);
        // As is an unregistered tenant.
        let stranger = Job {
            tenant: 9,
            ..repeat
        };
        assert!(!serve_one(&mut svc, stranger, &plan, &oracle).1);
    }
}
