//! Randomized soak harness for the hardened concurrent engine.
//!
//! A seeded, time-bounded stress loop that randomizes operation × shape ×
//! input precision × worker count × fault rate × panic arming, and
//! asserts on every iteration:
//!
//! 1. **Bit identity** — the faulty parallel schedule produces the same
//!    `D`, the same merged fault log, and the same injection count as
//!    the faulty sequential schedule (coordinate-addressed fault sites).
//! 2. **Exact accounting** — the merged [`OpCount`] equals the tile-grid
//!    arithmetic prediction, with nothing dropped or double-counted.
//! 3. **Detection-or-benign** — under resilient dispatch every struck
//!    iteration is either detected (and recovered) or benign: the
//!    delivered result matches the clean oracle bitwise for the
//!    idempotent algebras and within checksum tolerance for the
//!    additive ones.
//! 4. **Panic containment** — an armed probe panics a panel worker; the
//!    direct backend surfaces [`BackendError::WorkerPanic`] instead of
//!    aborting, and the resilient layer recovers on the sequential
//!    schedule with the panic counted in its stats.
//! 5. **Telemetry lock-step** — every run carries a `simd2-trace`
//!    [`RingSink`]; span-derived totals must equal [`Backend::op_count`]
//!    exactly, fault-event counts must equal the injector's counters on
//!    both schedules, recovery stage events must reproduce
//!    [`simd2::resilient::RecoveryStats`], and a panicked mmo must
//!    leave its `mmo` span open (a `begin` with no `end`). The final
//!    PASS line's tallies are read back from the event stream.
//!
//! Usage: `cargo run -p simd2-bench --bin soak [--seed S] [--seconds T]
//! [--iters N]`. The iteration stream is a pure function of the seed;
//! `--seconds` only decides how far down the stream the loop runs, and
//! `--iters` caps the count deterministically (0 = no cap). Any
//! violation prints the failing iteration's parameters and exits 1.

use std::time::{Duration, Instant};

use simd2::backend::{Backend, OpCount, Parallelism, TiledBackend};
use simd2::error::BackendError;
use simd2::resilient::{RecoveryPolicy, ResilientBackend};
use simd2_fault::{
    AbftConfig, FaultPlan, FaultPlanConfig, FaultySimd2Unit, PanicProbeUnit, PlannedInjector,
    PANIC_PROBE_PAYLOAD,
};
use simd2_matrix::tiling::TileGrid;
use simd2_matrix::{gen, Matrix, ISA_TILE};
use simd2_mxu::{PrecisionMode, Simd2Unit};
use simd2_semiring::precision::quantize_f16;
use simd2_semiring::{OpKind, ALL_OPS};
use simd2_trace::{span, Event, EventKind, RingSink, Tracer};

use std::sync::Arc;

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

/// One iteration's randomized parameters.
#[derive(Debug)]
struct Params {
    op: OpKind,
    m: usize,
    n: usize,
    k: usize,
    workers: usize,
    ppm: u32,
    precision: PrecisionMode,
    plan_seed: u64,
    data_seed: u64,
    /// Tile row whose shard panics; `None` when the iteration is not
    /// panic-armed.
    panic_ti: Option<u32>,
}

fn draw(rng: &mut Rng) -> Params {
    let m = 1 + rng.below(80) as usize;
    let op = ALL_OPS[rng.below(ALL_OPS.len() as u64) as usize];
    // A probe shard only executes (and panics) when the parallel path is
    // taken, which needs at least two tile rows.
    let panic_armed = rng.below(8) == 0 && m > ISA_TILE;
    let m_tiles = m.div_ceil(ISA_TILE);
    Params {
        op,
        m,
        n: 1 + rng.below(80) as usize,
        k: 1 + rng.below(48) as usize,
        workers: rng.pick(&[2usize, 3, 4, 8]),
        ppm: rng.pick(&[0u32, 2_000, 20_000, 200_000]),
        precision: rng.pick(&[PrecisionMode::Fp16Input, PrecisionMode::Fp32Input]),
        plan_seed: rng.next(),
        data_seed: rng.next(),
        panic_ti: panic_armed.then(|| rng.below(m_tiles as u64) as u32),
    }
}

/// In-domain operands, pre-quantized to the iteration's input precision
/// so clean results pass ABFT exactly.
fn operands(p: &Params) -> (Matrix, Matrix, Matrix) {
    let mut a = gen::random_operands_for(p.op, p.m, p.k, p.data_seed);
    let mut b = gen::random_operands_for(p.op, p.k, p.n, p.data_seed ^ 0x5eed);
    if p.precision == PrecisionMode::Fp16Input {
        for v in a.as_mut_slice().iter_mut().chain(b.as_mut_slice()) {
            *v = quantize_f16(*v);
        }
    }
    let c = Matrix::filled(p.m, p.n, p.op.reduce_identity_f32());
    (a, b, c)
}

fn plan(p: &Params) -> FaultPlan {
    // Rotate the struck fault class per iteration so every class soaks.
    let cfg = FaultPlanConfig::new(p.plan_seed);
    let cfg = match p.plan_seed % 3 {
        0 => cfg.with_bit_flip_ppm(p.ppm),
        1 => cfg.with_stuck_lane_ppm(p.ppm),
        _ => cfg.with_transient_nan_ppm(p.ppm),
    };
    FaultPlan::new(cfg)
}

fn faulty_backend(p: &Params, par: Parallelism, tracer: &Tracer) -> TiledBackend<FaultySimd2Unit> {
    let unit = FaultySimd2Unit::new(
        Simd2Unit::with_precision(p.precision),
        PlannedInjector::new(plan(p)).with_tracer(tracer.clone()),
    );
    let mut be = TiledBackend::with_unit(unit);
    be.set_parallelism(par);
    be.set_tracer(tracer.clone());
    be
}

/// Counts `stage`-tagged instants on `sp` — order-independent, so
/// sequential and parallel streams compare by totals.
fn stage_count(events: &[Event], sp: &str, stage: &str) -> u64 {
    events.iter().filter(|e| e.is_stage(sp, stage)).count() as u64
}

/// Rebuilds an [`OpCount`] from a run's `mmo` span-end events.
fn op_count_from_events(events: &[Event]) -> OpCount {
    let mut c = OpCount::default();
    for e in events {
        if e.span == span::MMO && e.kind == EventKind::End {
            c.matrix_mmos += 1;
            c.tile_mmos += e.u64("tile_mmos").unwrap_or(0);
            c.tile_loads += e.u64("tile_loads").unwrap_or(0);
            c.tile_stores += e.u64("tile_stores").unwrap_or(0);
        }
    }
    c
}

/// Clean oracle at the iteration's precision.
fn clean_backend(p: &Params) -> TiledBackend<Simd2Unit> {
    TiledBackend::with_unit(Simd2Unit::with_precision(p.precision))
}

/// Full witness coverage: in-range stuck values on the idempotent
/// algebras can evade a sampled witness check.
fn abft() -> AbftConfig {
    AbftConfig {
        witness_samples: usize::MAX,
        ..AbftConfig::default()
    }
}

struct Violation {
    what: String,
}

macro_rules! soak_check {
    ($cond:expr, $($fmt:tt)*) => {
        // Bound first: a float comparison that is false because an
        // operand is NaN must fail the check too.
        let holds: bool = $cond;
        if !holds {
            return Err(Violation { what: format!($($fmt)*) });
        }
    };
}

/// Aggregate telemetry over the whole soak.
#[derive(Default)]
struct Totals {
    iters: u64,
    struck: u64,
    injected: u64,
    detections: u64,
    retry_successes: u64,
    fallbacks: u64,
    panics: u64,
    panic_recoveries: u64,
}

/// Invariant 4: an armed probe panics a worker; the direct backend
/// contains it and the resilient layer recovers sequentially.
fn soak_panic(p: &Params, totals: &mut Totals) -> Result<(), Violation> {
    let panic_ti = p.panic_ti.unwrap_or_default();
    let (a, b, c) = operands(p);
    let clean = clean_backend(p)
        .mmo(p.op, &a, &b, &c)
        .map_err(|e| Violation {
            what: format!("clean oracle failed: {e}"),
        })?;

    let direct_ring = RingSink::shared();
    let mut direct = TiledBackend::with_unit(PanicProbeUnit::new(
        Simd2Unit::with_precision(p.precision),
        panic_ti,
    ))
    .with_tracer(Tracer::to(direct_ring.clone()));
    direct.set_parallelism(Parallelism::Threads(p.workers));
    match direct.mmo(p.op, &a, &b, &c) {
        Err(BackendError::WorkerPanic { payload, .. }) => {
            soak_check!(
                payload.starts_with(PANIC_PROBE_PAYLOAD),
                "unexpected panic payload {payload:?}"
            );
        }
        other => {
            soak_check!(false, "armed probe must surface WorkerPanic, got {other:?}");
        }
    }
    soak_check!(
        direct.op_count() == OpCount::default(),
        "panicked mmo must contribute no completed-work counters"
    );
    // Invariant 5: the failed mmo's span stays open — a begin with no
    // end — so event-derived totals also attribute it zero work.
    let direct_events = direct_ring.events();
    let begins = direct_events
        .iter()
        .filter(|e| e.span == span::MMO && e.kind == EventKind::Begin)
        .count();
    soak_check!(
        begins == 1 && op_count_from_events(&direct_events) == OpCount::default(),
        "panicked mmo must emit one open span and no completed-work events"
    );

    let ring = RingSink::shared();
    let tracer = Tracer::to(ring.clone() as Arc<_>);
    let inner = {
        let mut be = TiledBackend::with_unit(PanicProbeUnit::new(
            Simd2Unit::with_precision(p.precision),
            panic_ti,
        ));
        be.set_parallelism(Parallelism::Threads(p.workers));
        be.set_tracer(tracer.clone());
        be
    };
    let mut resilient =
        ResilientBackend::with_config(inner, RecoveryPolicy::FailFast, abft()).with_tracer(tracer);
    let d = resilient.mmo(p.op, &a, &b, &c).map_err(|e| Violation {
        what: format!("resilient layer failed to recover: {e}"),
    })?;
    let s = resilient.recovery_stats();
    soak_check!(
        s.worker_panics == 1 && s.panic_recoveries == 1,
        "panic recovery not counted: {s:?}"
    );
    soak_check!(
        d == clean,
        "sequential panic recovery diverged from the clean oracle"
    );
    // Invariant 5: the recovery stage events reproduce the stats struct;
    // the PASS line's tallies come from the event stream.
    let events = ring.events();
    let ev_panics = stage_count(&events, span::RECOVERY, "worker_panic");
    let ev_recoveries = stage_count(&events, span::RECOVERY, "panic_recovery");
    soak_check!(
        ev_panics == s.worker_panics && ev_recoveries == s.panic_recoveries,
        "panic telemetry diverged from recovery stats: \
         events ({ev_panics}, {ev_recoveries}) vs {s:?}"
    );
    totals.panics += ev_panics;
    totals.panic_recoveries += ev_recoveries;
    Ok(())
}

/// Invariants 1–3 for a (possibly clean) fault iteration.
fn soak_faults(p: &Params, totals: &mut Totals) -> Result<(), Violation> {
    let (a, b, c) = operands(p);

    // 1. Bit identity across schedules, plus identical fault telemetry.
    let seq_ring = RingSink::shared();
    let mut seq_be = faulty_backend(p, Parallelism::Sequential, &Tracer::to(seq_ring.clone()));
    let d_seq = seq_be.mmo(p.op, &a, &b, &c).map_err(|e| Violation {
        what: format!("sequential faulty mmo failed: {e}"),
    })?;
    let par_ring = RingSink::shared();
    let mut par_be = faulty_backend(
        p,
        Parallelism::Threads(p.workers),
        &Tracer::to(par_ring.clone()),
    );
    let d_par = par_be.mmo(p.op, &a, &b, &c).map_err(|e| Violation {
        what: format!("parallel faulty mmo failed: {e}"),
    })?;
    let bits_equal = d_seq
        .as_slice()
        .iter()
        .zip(d_par.as_slice())
        .all(|(x, y)| x.to_bits() == y.to_bits());
    soak_check!(bits_equal, "parallel faulty D diverged from sequential");
    soak_check!(
        seq_be.unit().injector().log() == par_be.unit().injector().log(),
        "merged fault log diverged from sequential"
    );
    soak_check!(
        seq_be.unit().injector().injected() == par_be.unit().injector().injected(),
        "injection counters diverged"
    );
    soak_check!(
        seq_be.unit().injector().dropped() == 0,
        "soak shapes must not overflow the fault-log ring"
    );
    // Invariant 5: fault-event totals equal the injector counters on
    // both schedules (parallel event *order* may differ; totals may not).
    let seq_events = seq_ring.events();
    let par_events = par_ring.events();
    for (label, events, be) in [
        ("sequential", &seq_events, &seq_be),
        ("parallel", &par_events, &par_be),
    ] {
        let injected_events = stage_count(events, span::FAULT, "injected");
        let dropped_events = stage_count(events, span::FAULT, "dropped");
        soak_check!(
            injected_events == be.unit().injector().injected()
                && dropped_events == be.unit().injector().dropped(),
            "{label} fault telemetry diverged from injector counters: \
             events ({injected_events}, {dropped_events}) vs ({}, {})",
            be.unit().injector().injected(),
            be.unit().injector().dropped()
        );
    }

    // 2. Exact accounting from tile-grid arithmetic.
    let g = TileGrid::new(p.m, p.n, p.k, ISA_TILE);
    let want = OpCount {
        matrix_mmos: 1,
        tile_mmos: g.tile_ops() as u64,
        tile_loads: (2 * g.tile_ops() + g.output_tiles()) as u64,
        tile_stores: g.output_tiles() as u64,
    };
    soak_check!(
        par_be.op_count() == want && seq_be.op_count() == want,
        "OpCount mismatch: want {want:?}, seq {:?}, par {:?}",
        seq_be.op_count(),
        par_be.op_count()
    );
    // Invariant 5: span-derived totals rebuild the same OpCount.
    soak_check!(
        op_count_from_events(&seq_events) == want && op_count_from_events(&par_events) == want,
        "span-derived OpCount diverged: want {want:?}, seq {:?}, par {:?}",
        op_count_from_events(&seq_events),
        op_count_from_events(&par_events)
    );

    // 3. Detection-or-benign under resilient dispatch.
    let ring = RingSink::shared();
    let tracer = Tracer::to(ring.clone() as Arc<_>);
    let inner = faulty_backend(p, Parallelism::Threads(p.workers), &tracer);
    let mut resilient = ResilientBackend::with_config(
        inner,
        RecoveryPolicy::RetryThenFallback { attempts: 3 },
        abft(),
    )
    .with_tracer(tracer);
    let d = resilient.mmo(p.op, &a, &b, &c).map_err(|e| Violation {
        what: format!("resilient dispatch failed: {e}"),
    })?;
    let s = resilient.recovery_stats();
    // Invariant 5: the stage events reproduce the stats struct; the
    // PASS line's tallies are read back from the event stream.
    let events = ring.events();
    let ev = |stage: &str| stage_count(&events, span::RECOVERY, stage);
    soak_check!(
        ev("detection") == s.detections
            && ev("retry") == s.retries
            && ev("retry_success") == s.retry_successes
            && ev("fallback") == s.fallbacks,
        "recovery telemetry diverged from stats: {s:?}"
    );
    let injected = stage_count(&events, span::FAULT, "injected");
    soak_check!(
        injected == resilient.inner().unit().injector().injected(),
        "resilient fault telemetry diverged from injector counter"
    );
    if injected > 0 {
        totals.struck += 1;
        totals.injected += injected;
        totals.detections += ev("detection");
        totals.retry_successes += ev("retry_success");
        totals.fallbacks += ev("fallback");
        if s.detections == 0 {
            // Undetected strikes must be benign, where "benign" is
            // exactly what the detector promises. Idempotent family:
            // full-witness + dominance pin every element, so the result
            // must match a clean run bitwise. Additive family: the
            // Huang–Abraham checksum bounds the deviation of the *sum*
            // by the magnitude-scaled tolerance (clean and faulty runs
            // each pass within one tolerance of the f64 prediction).
            let clean = clean_backend(p)
                .mmo(p.op, &a, &b, &c)
                .map_err(|e| Violation {
                    what: format!("clean oracle failed: {e}"),
                })?;
            match p.op {
                OpKind::PlusMul | OpKind::PlusNorm => {
                    let sum =
                        |mm: &Matrix| -> f64 { mm.as_slice().iter().map(|&v| f64::from(v)).sum() };
                    let drift = (sum(&d) - sum(&clean)).abs();
                    let granted =
                        simd2_fault::abft::checksum(p.op, &a, &b, &c, &d, p.precision, &abft());
                    let tol = 2.0 * granted.tolerance;
                    soak_check!(
                        drift <= tol,
                        "undetected strike exceeded the checksum guarantee: \
                         |sum(d) - sum(clean)| = {drift} > {tol}"
                    );
                }
                _ => {
                    let bits_equal = d
                        .as_slice()
                        .iter()
                        .zip(clean.as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                    soak_check!(
                        bits_equal,
                        "undetected strike on an idempotent op was not bit-benign"
                    );
                }
            }
        }
    }
    Ok(())
}

fn main() {
    let (seed, seconds, iter_cap) =
        simd2_bench::cli::parse("soak [--seed S] [--seconds T] [--iters N]", |flags| {
            Ok((
                flags.value("--seed", 2022)?,
                flags.value("--seconds", 10)?,
                flags.value("--iters", 0)?,
            ))
        });
    println!(
        "soak: seed={seed} budget={seconds}s iter-cap={}  \
         ops=9 shapes=m,n<=80 k<=48 precision={{fp16,fp32}} workers={{2,3,4,8}} \
         ppm={{0,2k,20k,200k}} panic~1/8",
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
    while Instant::now() < deadline && (iter_cap == 0 || totals.iters < iter_cap) {
        let p = draw(&mut rng);
        let res = if p.panic_ti.is_some() {
            soak_panic(&p, &mut totals)
        } else {
            soak_faults(&p, &mut totals)
        };
        if let Err(v) = res {
            eprintln!("soak VIOLATION at iteration {}: {}", totals.iters, v.what);
            eprintln!("  params: {p:?}");
            std::process::exit(1);
        }
        totals.iters += 1;
    }

    println!(
        "soak PASS: {} iterations ({} struck, {} panic-armed)  \
         injected={} detections={} retry-rescues={} fallbacks={} panic-recoveries={}",
        totals.iters,
        totals.struck,
        totals.panics,
        totals.injected,
        totals.detections,
        totals.retry_successes,
        totals.fallbacks,
        totals.panic_recoveries,
    );
}
