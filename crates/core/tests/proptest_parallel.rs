//! Property-based cross-validation of the parallel tile-grid schedule
//! against the sequential reference schedule.
//!
//! The contract under test is the strongest one the engine makes:
//! **bit-for-bit identity** for every operation, every (non-square)
//! shape, and every worker count — plus exact equality of the merged
//! [`OpCount`] work counters. Any divergence would mean panel
//! partitioning changed a reduction order or dropped/duplicated a tile.

use proptest::prelude::*;
use proptest::strategy::ValueTree;
use simd2::{Backend, OpCount, Parallelism, TiledBackend};
use simd2_fault::{FaultLogEntry, FaultPlan, FaultPlanConfig, FaultySimd2Unit, PlannedInjector};
use simd2_matrix::Matrix;
use simd2_mxu::{PrecisionMode, Simd2Unit};
use simd2_semiring::simd::KernelIsa;
use simd2_semiring::{OpKind, ALL_OPS};
use simd2_trace::{span, Event, EventKind, RingSink, Tracer};

fn op_strategy() -> impl Strategy<Value = OpKind> {
    (0..ALL_OPS.len()).prop_map(|i| ALL_OPS[i])
}

/// In-domain operand values for the given op (reliabilities in (0,1],
/// booleans in {0,1}, everything else small non-negative reals).
fn operand(op: OpKind, raw: u16) -> f32 {
    let raw = f32::from(raw % 64);
    match op {
        OpKind::OrAnd => {
            if raw >= 32.0 {
                1.0
            } else {
                0.0
            }
        }
        OpKind::MinMul | OpKind::MaxMul => 0.5 + raw / 128.0,
        _ => raw * 0.25,
    }
}

fn matrix_strategy(op: OpKind, rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(any::<u16>(), rows * cols)
        .prop_map(move |vals| Matrix::from_fn(rows, cols, |r, c| operand(op, vals[r * cols + c])))
}

/// Rebuilds an [`OpCount`] from a run's `mmo` span-end events.
fn mmo_totals(events: &[Event]) -> OpCount {
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

/// Sums the per-worker `tile_panel` span summaries (no matrix_mmos —
/// panels are fractions of one mmo).
fn panel_totals(events: &[Event]) -> OpCount {
    let mut c = OpCount::default();
    for e in events {
        if e.span == span::TILE_PANEL && e.kind == EventKind::End {
            c.tile_mmos += e.u64("tile_mmos").unwrap_or(0);
            c.tile_loads += e.u64("tile_loads").unwrap_or(0);
            c.tile_stores += e.u64("tile_stores").unwrap_or(0);
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Parallel == sequential, bit for bit, over all nine ops ×
    /// non-square shapes × worker counts {1, 2, 4, 8}; counters exact.
    #[test]
    fn parallel_matches_sequential_bit_for_bit(
        op in op_strategy(),
        m in 1usize..70,
        n in 1usize..70,
        k in 1usize..40,
        seed in any::<u32>(),
    ) {
        let mut runner = proptest::test_runner::TestRunner::new_seeded(u64::from(seed));
        let a = matrix_strategy(op, m, k).new_tree(&mut runner).unwrap().current();
        let b = matrix_strategy(op, k, n).new_tree(&mut runner).unwrap().current();
        let c = matrix_strategy(op, m, n).new_tree(&mut runner).unwrap().current();

        let mut seq_be = TiledBackend::new();
        let seq = seq_be.mmo(op, &a, &b, &c).unwrap();
        let seq_count = seq_be.op_count();
        prop_assert!(seq_count.tile_mmos > 0);

        for workers in [1usize, 2, 4, 8] {
            let mut par_be = TiledBackend::with_parallelism(Parallelism::Threads(workers));
            let par = par_be.mmo(op, &a, &b, &c).unwrap();
            prop_assert_eq!(par.shape(), (m, n));
            for (i, (x, y)) in seq.as_slice().iter().zip(par.as_slice()).enumerate() {
                prop_assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{} {}x{}x{} workers={} element {}",
                    op, m, n, k, workers, i
                );
            }
            // OpCount exactness under parallelism: per-worker counters
            // merged after the join must equal the sequential totals.
            prop_assert_eq!(par_be.op_count(), seq_count, "workers={}", workers);
        }
    }

    /// Faulty units keep the same contract: a coordinate-addressed
    /// fault plan strikes the same tiles on every schedule, so D is
    /// bit-identical, the merged fault log equals the sequential log,
    /// and the work counters stay exact — over all nine ops ×
    /// non-square shapes × worker counts {1, 2, 4, 8}.
    #[test]
    fn faulty_parallel_matches_faulty_sequential(
        op in op_strategy(),
        m in 1usize..70,
        n in 1usize..70,
        k in 1usize..40,
        seed in any::<u32>(),
        plan_seed in any::<u32>(),
    ) {
        let mut runner = proptest::test_runner::TestRunner::new_seeded(u64::from(seed));
        let a = matrix_strategy(op, m, k).new_tree(&mut runner).unwrap().current();
        let b = matrix_strategy(op, k, n).new_tree(&mut runner).unwrap().current();
        let c = matrix_strategy(op, m, n).new_tree(&mut runner).unwrap().current();

        // Fresh backend per schedule so every run sees the identical
        // (seed, mmo_seq) fault-draw stream.
        let run = |threads| -> (Matrix, Vec<FaultLogEntry>, u64, OpCount) {
            let plan = FaultPlan::new(
                FaultPlanConfig::new(u64::from(plan_seed))
                    .with_bit_flip_ppm(120_000)
                    .with_stuck_lane_ppm(40_000)
                    .with_transient_nan_ppm(60_000),
            );
            let unit = FaultySimd2Unit::new(Simd2Unit::new(), PlannedInjector::new(plan));
            let mut be = TiledBackend::with_unit(unit);
            be.set_parallelism(threads);
            let d = be.mmo(op, &a, &b, &c).unwrap();
            let inj = be.unit().injector();
            (d, inj.log(), inj.injected(), be.op_count())
        };
        let (d_seq, log_seq, inj_seq, count_seq) = run(Parallelism::Sequential);
        for workers in [1usize, 2, 4, 8] {
            let (d_par, log_par, inj_par, count_par) = run(Parallelism::Threads(workers));
            for (i, (x, y)) in d_seq.as_slice().iter().zip(d_par.as_slice()).enumerate() {
                prop_assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{} {}x{}x{} workers={} element {}",
                    op, m, n, k, workers, i
                );
            }
            // Shards merged in panel order reproduce the sequential
            // row-major log and injection count exactly.
            prop_assert_eq!(&log_seq, &log_par, "workers={}", workers);
            prop_assert_eq!(inj_seq, inj_par, "workers={}", workers);
            prop_assert_eq!(count_seq, count_par, "workers={}", workers);
        }
    }

    /// Telemetry lock-step: span-derived totals equal the backend's own
    /// [`Backend::op_count`] *exactly* — over all nine ops × non-square
    /// shapes × worker counts {1, 2, 4, 8} — and the sequential and
    /// parallel schedules emit identical counter totals (the parallel
    /// event *order* may differ; the totals may not).
    #[test]
    fn span_totals_equal_op_count_across_schedules(
        op in op_strategy(),
        m in 1usize..70,
        n in 1usize..70,
        k in 1usize..40,
        seed in any::<u32>(),
    ) {
        let mut runner = proptest::test_runner::TestRunner::new_seeded(u64::from(seed));
        let a = matrix_strategy(op, m, k).new_tree(&mut runner).unwrap().current();
        let b = matrix_strategy(op, k, n).new_tree(&mut runner).unwrap().current();
        let c = matrix_strategy(op, m, n).new_tree(&mut runner).unwrap().current();

        let run = |par: Parallelism| -> (Vec<Event>, OpCount) {
            let ring = RingSink::shared();
            let mut be = TiledBackend::new().with_tracer(Tracer::to(ring.clone()));
            be.set_parallelism(par);
            be.mmo(op, &a, &b, &c).unwrap();
            assert_eq!(ring.dropped(), 0, "telemetry ring overflowed");
            (ring.events(), be.op_count())
        };

        let (seq_events, seq_count) = run(Parallelism::Sequential);
        let seq_mmo = mmo_totals(&seq_events);
        let seq_panels = panel_totals(&seq_events);
        prop_assert_eq!(seq_mmo, seq_count, "sequential mmo spans vs op_count");
        prop_assert_eq!(
            (seq_panels.tile_mmos, seq_panels.tile_loads, seq_panels.tile_stores),
            (seq_count.tile_mmos, seq_count.tile_loads, seq_count.tile_stores),
            "sequential panel spans vs op_count"
        );

        for workers in [1usize, 2, 4, 8] {
            let (par_events, par_count) = run(Parallelism::Threads(workers));
            prop_assert_eq!(par_count, seq_count, "workers={}", workers);
            let par_mmo = mmo_totals(&par_events);
            prop_assert_eq!(par_mmo, par_count, "mmo spans, workers={}", workers);
            let par_panels = panel_totals(&par_events);
            prop_assert_eq!(
                (par_panels.tile_mmos, par_panels.tile_loads, par_panels.tile_stores),
                (par_count.tile_mmos, par_count.tile_loads, par_count.tile_stores),
                "panel spans, workers={}", workers
            );
        }
    }

    /// SIMD == scalar end to end: a backend whose unit is pinned to the
    /// scalar kernel and one on the auto-selected vector tier produce
    /// bit-identical whole-matrix results — over all nine ops ×
    /// non-square shapes × fp16/fp32 operand precisions × worker counts
    /// {1, 2, 4, 8}. On hosts without a vector tier both units run
    /// scalar and the property degenerates to a self-check.
    #[test]
    fn vector_kernel_matches_scalar_backend_bit_for_bit(
        op in op_strategy(),
        m in 1usize..70,
        n in 1usize..70,
        k in 1usize..40,
        seed in any::<u32>(),
    ) {
        let mut runner = proptest::test_runner::TestRunner::new_seeded(u64::from(seed));
        let a = matrix_strategy(op, m, k).new_tree(&mut runner).unwrap().current();
        let b = matrix_strategy(op, k, n).new_tree(&mut runner).unwrap().current();
        let c = matrix_strategy(op, m, n).new_tree(&mut runner).unwrap().current();

        for precision in [PrecisionMode::Fp16Input, PrecisionMode::Fp32Input] {
            let scalar_unit =
                Simd2Unit::with_precision(precision).with_kernel_isa(KernelIsa::Scalar);
            let mut scalar_be = TiledBackend::with_unit(scalar_unit);
            let want = scalar_be.mmo(op, &a, &b, &c).unwrap();
            for workers in [1usize, 2, 4, 8] {
                let mut be = TiledBackend::with_unit(Simd2Unit::with_precision(precision));
                be.set_parallelism(Parallelism::Threads(workers));
                let got = be.mmo(op, &a, &b, &c).unwrap();
                prop_assert_eq!(be.kernel_isa(), Simd2Unit::default().kernel_isa());
                for (i, (x, y)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
                    prop_assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{} {}x{}x{} {:?} workers={} element {}",
                        op, m, n, k, precision, workers, i
                    );
                }
            }
        }
    }

    /// Fault campaigns are kernel-ISA-independent: the same seeded
    /// fault plan run on a scalar-pinned unit and on the auto-selected
    /// vector unit strikes the same sites, logs the same entries and
    /// produces bit-identical (faulted) outputs — injection addresses
    /// output *coordinates* after the datapath has produced its bits,
    /// and the datapath bits themselves are identical across ISAs.
    #[test]
    fn fault_campaign_is_identical_across_kernel_isas(
        op in op_strategy(),
        m in 1usize..50,
        n in 1usize..50,
        k in 1usize..34,
        seed in any::<u32>(),
        plan_seed in any::<u32>(),
    ) {
        let mut runner = proptest::test_runner::TestRunner::new_seeded(u64::from(seed));
        let a = matrix_strategy(op, m, k).new_tree(&mut runner).unwrap().current();
        let b = matrix_strategy(op, k, n).new_tree(&mut runner).unwrap().current();
        let c = matrix_strategy(op, m, n).new_tree(&mut runner).unwrap().current();

        let run = |isa: Option<KernelIsa>| -> (Matrix, Vec<FaultLogEntry>, u64, OpCount) {
            let plan = FaultPlan::new(
                FaultPlanConfig::new(u64::from(plan_seed))
                    .with_bit_flip_ppm(120_000)
                    .with_stuck_lane_ppm(40_000)
                    .with_transient_nan_ppm(60_000),
            );
            let mut unit = Simd2Unit::new();
            if let Some(isa) = isa {
                unit = unit.with_kernel_isa(isa);
            }
            let mut be =
                TiledBackend::with_unit(FaultySimd2Unit::new(unit, PlannedInjector::new(plan)));
            let d = be.mmo(op, &a, &b, &c).unwrap();
            let inj = be.unit().injector();
            (d, inj.log(), inj.injected(), be.op_count())
        };

        let (d_scalar, log_scalar, inj_scalar, count_scalar) = run(Some(KernelIsa::Scalar));
        let (d_simd, log_simd, inj_simd, count_simd) = run(None);
        for (i, (x, y)) in d_scalar.as_slice().iter().zip(d_simd.as_slice()).enumerate() {
            prop_assert_eq!(
                x.to_bits(), y.to_bits(),
                "{} {}x{}x{} element {}", op, m, n, k, i
            );
        }
        prop_assert_eq!(&log_scalar, &log_simd);
        prop_assert_eq!(inj_scalar, inj_simd);
        prop_assert_eq!(count_scalar, count_simd);
    }

    /// Repeated parallel runs on one backend keep accumulating exact
    /// counters (merge-on-join never double-counts or loses work).
    #[test]
    fn counters_accumulate_exactly_across_calls(
        m in 1usize..50,
        n in 1usize..50,
        k in 1usize..34,
        calls in 1usize..4,
    ) {
        let op = OpKind::MinPlus;
        let a = Matrix::from_fn(m, k, |r, c| ((r + c) % 7) as f32);
        let b = Matrix::from_fn(k, n, |r, c| ((r * c) % 5) as f32);
        let c = Matrix::filled(m, n, f32::INFINITY);
        let mut one = TiledBackend::with_parallelism(Parallelism::Threads(4));
        one.mmo(op, &a, &b, &c).unwrap();
        let per_call = one.op_count();
        let mut many = TiledBackend::with_parallelism(Parallelism::Threads(4));
        for _ in 0..calls {
            many.mmo(op, &a, &b, &c).unwrap();
        }
        let want = OpCount {
            matrix_mmos: per_call.matrix_mmos * calls as u64,
            tile_mmos: per_call.tile_mmos * calls as u64,
            tile_loads: per_call.tile_loads * calls as u64,
            tile_stores: per_call.tile_stores * calls as u64,
        };
        prop_assert_eq!(many.op_count(), want);
    }
}
