//! Property-based integration tests across the stack.

use proptest::prelude::*;
#[path = "../crates/core/tests/pools/chain.rs"]
mod chain;
use chain::ChainOnly;
use simd2_repro::core::backend::{Backend, Parallelism, ReferenceBackend, TiledBackend};
use simd2_repro::core::solve::{closure, floyd_warshall_closure, ClosureAlgorithm};
use simd2_repro::core::{PlanBuilder, PlanExecutor};
use simd2_repro::matrix::structured::prune_2_4;
use simd2_repro::matrix::{gen, Csr, Graph, Matrix};
use simd2_repro::mxu::{PrecisionMode, Simd2Unit};
use simd2_repro::semiring::precision::quantize_f16;
use simd2_repro::semiring::{OpKind, ALL_OPS};
use simd2_repro::trace::{span, EventKind, RingSink, Tracer};

/// An fp16-exact operand in `op`'s input domain with roughly `density`
/// of its entries kept; the rest become the op's no-edge sentinel (ops
/// without one — plus-norm — stay fully dense).
fn sparse_operand(op: OpKind, rows: usize, cols: usize, density: f64, seed: u64) -> Matrix {
    let mut m = gen::random_operands_for(op, rows, cols, seed);
    for v in m.as_mut_slice().iter_mut() {
        *v = quantize_f16(*v);
    }
    if let Some(zero) = op.no_edge_f32() {
        let mut s = seed ^ 0x9e37_79b9_7f4a_7c15;
        for v in m.as_mut_slice().iter_mut() {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            if ((s >> 11) as f64 / (1u64 << 53) as f64) >= density {
                *v = zero;
            }
        }
    }
    m
}

/// The engine at fp16 (`reduced`) or fp32 operand precision.
fn unit(reduced: bool) -> Simd2Unit {
    Simd2Unit::with_precision(if reduced {
        PrecisionMode::Fp16Input
    } else {
        PrecisionMode::Fp32Input
    })
}

fn engine(reduced: bool) -> TiledBackend {
    TiledBackend::with_unit(unit(reduced))
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn closure_ops() -> impl Strategy<Value = OpKind> {
    prop_oneof![
        Just(OpKind::MinPlus),
        Just(OpKind::MaxMin),
        Just(OpKind::MinMax),
        Just(OpKind::OrAnd),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Closure is a fixed point: running the solver on its own output
    /// converges in one productive iteration and changes nothing.
    #[test]
    fn closure_is_idempotent(op in closure_ops(), n in 4usize..24, seed in 0u64..500) {
        let g = gen::connected_gnp_graph(n, 0.2, 1.0, 9.0, seed);
        let adj = match op {
            OpKind::OrAnd => g.reachability(),
            _ => g.adjacency(op),
        };
        let mut be = ReferenceBackend::new();
        let first = closure(&mut be, op, &adj, ClosureAlgorithm::Leyzorek, true).unwrap();
        let second =
            closure(&mut be, op, &first.closure, ClosureAlgorithm::Leyzorek, true).unwrap();
        prop_assert_eq!(&second.closure, &first.closure);
        prop_assert!(second.stats.iterations <= 1 || second.stats.converged_early);
    }

    /// Bellman-Ford and Leyzorek always reach the same fixed point as
    /// scalar Floyd–Warshall, for any closure algebra and random graph.
    #[test]
    fn solvers_agree_with_floyd_warshall(
        op in closure_ops(), n in 3usize..20, p in 0.05f64..0.5, seed in 0u64..1000
    ) {
        let g = gen::gnp_graph(n, p, 1.0, 9.0, seed);
        let adj = match op {
            OpKind::OrAnd => g.reachability(),
            _ => g.adjacency(op),
        };
        let want = floyd_warshall_closure(op, &adj);
        let mut be = ReferenceBackend::new();
        for alg in [ClosureAlgorithm::BellmanFord, ClosureAlgorithm::Leyzorek] {
            let got = closure(&mut be, op, &adj, alg, true).unwrap();
            prop_assert_eq!(&got.closure, &want, "{} {:?}", op, alg);
        }
    }

    /// The tiled fp16 backend equals the fp32 reference bit-for-bit on
    /// min/max/or algebras whenever inputs are fp16-exact.
    #[test]
    fn fp16_backend_is_exact_on_selection_algebras(
        n in 2usize..30, seed in 0u64..1000
    ) {
        let g = gen::integer_weight_graph(n, 0.3, 64, seed);
        for op in [OpKind::MinPlus, OpKind::MinMax, OpKind::MaxMin] {
            let adj = g.adjacency(op);
            let c = Matrix::filled(n, n, op.reduce_identity_f32());
            let want = ReferenceBackend::new().mmo(op, &adj, &adj, &c).unwrap();
            let got = TiledBackend::new().mmo(op, &adj, &adj, &c).unwrap();
            prop_assert_eq!(got, want, "{}", op);
        }
    }

    /// CSR round-trips dense matrices for any sparsity and zero encoding.
    #[test]
    fn csr_roundtrip(n in 1usize..40, sparsity in 0.0f64..1.0, seed in 0u64..1000) {
        let m = gen::random_sparse_matrix(n, sparsity, seed);
        let s = Csr::from_dense(&m, 0.0).unwrap();
        prop_assert_eq!(s.to_dense(0.0), m);
    }

    /// spGEMM equals the dense reference under every sparse-capable
    /// algebra.
    #[test]
    fn spgemm_matches_dense(op in closure_ops(), n in 2usize..16, seed in 0u64..500) {
        let g = gen::gnp_graph(n, 0.3, 1.0, 9.0, seed);
        let adj = match op {
            OpKind::OrAnd => g.reachability(),
            _ => g.adjacency(op),
        };
        let zero = op.no_edge_f32().unwrap();
        let a = Csr::from_dense(&adj, zero).unwrap();
        let got = a.spgemm(op, &a).to_dense(zero);
        let c = Matrix::filled(n, n, op.reduce_identity_f32());
        let want = simd2_repro::matrix::reference::mmo(op, &adj, &adj, &c).unwrap();
        // The reference may produce explicit identity values where spgemm
        // stores nothing; both decode to the same dense matrix.
        prop_assert_eq!(got, want, "{}", op);
    }

    /// Graph → adjacency → graph round-trips (modulo parallel-edge
    /// resolution, which `⊕` makes canonical).
    #[test]
    fn graph_adjacency_roundtrip(n in 1usize..30, p in 0.0f64..0.6, seed in 0u64..1000) {
        let g = gen::gnp_graph(n, p, 1.0, 9.0, seed);
        let adj = g.adjacency(OpKind::MinPlus);
        let back = Graph::from_adjacency(OpKind::MinPlus, &adj);
        prop_assert_eq!(back.adjacency(OpKind::MinPlus), adj);
    }

    /// Convergence-checked runs never do more work than unchecked runs,
    /// and both reach the same answer.
    #[test]
    fn convergence_check_only_saves_work(n in 4usize..24, seed in 0u64..500) {
        let g = gen::connected_gnp_graph(n, 0.25, 1.0, 5.0, seed);
        let adj = g.adjacency(OpKind::MinPlus);
        let mut be = ReferenceBackend::new();
        let with = closure(&mut be, OpKind::MinPlus, &adj, ClosureAlgorithm::Leyzorek, true)
            .unwrap();
        let without =
            closure(&mut be, OpKind::MinPlus, &adj, ClosureAlgorithm::Leyzorek, false).unwrap();
        prop_assert_eq!(&with.closure, &without.closure);
        prop_assert!(with.stats.iterations <= without.stats.iterations);
    }

    /// Every backend's telemetry stream is an exact ledger: summing the
    /// `mmo` span-end events reproduces [`Backend::op_count`] across all
    /// nine ops, non-square shapes, and worker counts {1, 2, 4, 8}, and
    /// the sequential and parallel schedules agree on totals.
    #[test]
    fn telemetry_totals_match_op_count(
        op_idx in 0usize..9, m in 1usize..48, n in 1usize..48, k in 1usize..32,
        seed in 0u64..1000
    ) {
        let op = ALL_OPS[op_idx];
        let a = gen::random_operands_for(op, m, k, seed);
        let b = gen::random_operands_for(op, k, n, seed ^ 0x5eed);
        let c = Matrix::filled(m, n, op.reduce_identity_f32());
        let run = |par: Parallelism| {
            let ring = RingSink::shared();
            let mut be = TiledBackend::new().with_tracer(Tracer::to(ring.clone()));
            be.set_parallelism(par);
            be.mmo(op, &a, &b, &c).unwrap();
            let mut totals = (0u64, 0u64, 0u64, 0u64);
            for e in ring.events() {
                if e.span == span::MMO && e.kind == EventKind::End {
                    totals.0 += 1;
                    totals.1 += e.u64("tile_mmos").unwrap_or(0);
                    totals.2 += e.u64("tile_loads").unwrap_or(0);
                    totals.3 += e.u64("tile_stores").unwrap_or(0);
                }
            }
            let count = be.op_count();
            (totals, (count.matrix_mmos, count.tile_mmos, count.tile_loads, count.tile_stores))
        };
        let (seq_totals, seq_count) = run(Parallelism::Sequential);
        prop_assert_eq!(seq_totals, seq_count, "{} sequential", op);
        for workers in [1usize, 2, 4, 8] {
            let (par_totals, par_count) = run(Parallelism::Threads(workers));
            prop_assert_eq!(par_totals, par_count, "{} workers={}", op, workers);
            prop_assert_eq!(par_totals, seq_totals, "{} workers={} vs sequential", op, workers);
        }
    }

    /// A plan whose operands the engine row-walks replays bit-
    /// identically to the same plan on the forced tile chain, across
    /// every op, density regime {0.01, 0.1, 0.5, 2:4-structured}, both
    /// input precisions, and worker counts {1, 2, 4, 8}. Plus-norm has no
    /// no-edge annihilator, so it never walks — the replay must agree all
    /// the same.
    #[test]
    fn sparse_replay_is_bit_identical_to_dense_replay(
        op_idx in 0usize..9, density_idx in 0usize..4, reduced in any::<bool>(),
        n in 6usize..26, seed in 0u64..500
    ) {
        let op = ALL_OPS[op_idx];
        let structured = density_idx == 3;
        let density = [0.01, 0.1, 0.5, 0.5][density_idx];
        let sentinel = op.no_edge_f32();
        let mut a = sparse_operand(op, n, n, density, seed);
        if structured && sentinel.is_some() {
            a = prune_2_4(&a, op);
        }
        let b = sparse_operand(op, n, n, density.max(0.3), seed ^ 0x5eed);
        let c = Matrix::filled(n, n, op.reduce_identity_f32());
        let plan = {
            let mut be = engine(reduced);
            let mut rec = PlanBuilder::over(&mut be);
            let d0 = rec.mmo(op, &a, &b, &c).unwrap();
            rec.mmo(op, &d0, &b, &c).unwrap();
            rec.finish()
        };
        let want = PlanExecutor::new()
            .run(&plan, &mut TiledBackend::with_unit(ChainOnly(unit(reduced))))
            .unwrap();
        for workers in [1usize, 2, 4, 8] {
            let mut be = engine(reduced);
            be.set_parallelism(Parallelism::Threads(workers));
            let got = PlanExecutor::new().run(&plan, &mut be).unwrap();
            for step in 0..plan.step_count() {
                prop_assert_eq!(
                    bits(got.step_output(step)), bits(want.step_output(step)),
                    "{} density_idx={} reduced={} workers={} step={}",
                    op, density_idx, reduced, workers, step
                );
            }
            // Whether a step is row-walked is the engine's call: below
            // every float chain's walk-or-chain bound it walks (or-and's
            // bit-mask chain wins from 8 % up).
            if sentinel.is_some() && op != OpKind::OrAnd && density <= 0.1 {
                prop_assert!(
                    be.row_count().sparse_mmos > 0,
                    "{}: a sparse operand must take a row walk", op
                );
            }
        }
        // The fp32 leg also agrees with the dense scalar reference.
        if !reduced {
            let refr = PlanExecutor::new()
                .run(&plan, &mut ReferenceBackend::new())
                .unwrap();
            for step in 0..plan.step_count() {
                prop_assert_eq!(
                    bits(refr.step_output(step)), bits(want.step_output(step)),
                    "{} reference step={}", op, step
                );
            }
        }
    }

    /// A recorded sparse plan halted at *every* wave boundary and
    /// resumed from its checkpoint lands bit-identical to one
    /// uninterrupted replay — and the resume never re-executes a
    /// completed wave (counter-verified on the backend).
    #[test]
    fn sparse_plan_resumes_bit_identically_at_every_wave_boundary(
        op_idx in 0usize..9, len in 3usize..6, n in 6usize..20, seed in 0u64..500
    ) {
        let op = ALL_OPS[op_idx];
        let a = sparse_operand(op, n, n, 0.15, seed);
        let b = sparse_operand(op, n, n, 0.3, seed ^ 0x5eed);
        let c = Matrix::filled(n, n, op.reduce_identity_f32());
        let plan = {
            let mut be = engine(false);
            let mut rec = PlanBuilder::over(&mut be);
            let mut acc = rec.mmo(op, &a, &b, &c).unwrap();
            for _ in 1..len {
                acc = rec.mmo(op, &a, &b, &acc).unwrap();
            }
            rec.finish()
        };
        let want = PlanExecutor::new()
            .run(&plan, &mut engine(false))
            .unwrap();
        // A dependent chain: every wave is one step, so halting after
        // each completed-step count covers every wave boundary.
        let waves = plan.waves().len();
        prop_assert_eq!(waves, plan.step_count());
        for halt_after in 1..waves {
            let exec = PlanExecutor::new();
            let mut first = engine(false);
            first.set_parallelism(Parallelism::Threads(2));
            let halted = exec
                .run_resumable(&plan, &mut first, &mut |p: simd2_repro::core::ReplayProgress| {
                    if p.completed_steps >= halt_after { Err("wave halt".to_owned()) } else { Ok(()) }
                })
                .expect_err("control must halt the replay");
            prop_assert!(halted.error.is_cancelled());
            prop_assert_eq!(halted.checkpoint.completed_steps(), halt_after);
            let mut second = engine(false);
            second.set_parallelism(Parallelism::Threads(2));
            let done = exec
                .resume_from(&plan, halted.checkpoint, &mut second, &mut |_| Ok(()))
                .expect("resume runs to completion");
            for step in 0..plan.step_count() {
                prop_assert_eq!(
                    bits(done.step_output(step)), bits(want.step_output(step)),
                    "{} halt_after={} step={}", op, halt_after, step
                );
            }
            // The checkpointed waves were never re-dispatched.
            prop_assert_eq!(
                Backend::op_count(&second).matrix_mmos as usize,
                plan.step_count() - halt_after,
                "{} halt_after={}", op, halt_after
            );
        }
    }

    /// The ISA instruction encoding round-trips arbitrary well-formed
    /// instructions (fuzzing the bit layout).
    #[test]
    fn isa_encoding_roundtrips(
        op_idx in 0usize..9, d in 0u8..16, a in 0u8..16, b in 0u8..16, c in 0u8..16,
        addr in any::<u32>(), ld in 16u32..(1 << 23)
    ) {
        use simd2_repro::isa::{Dtype, Instruction, MatrixReg};
        let instrs = [
            Instruction::Mmo {
                op: ALL_OPS[op_idx],
                d: MatrixReg::new(d),
                a: MatrixReg::new(a),
                b: MatrixReg::new(b),
                c: MatrixReg::new(c),
            },
            Instruction::Load { dst: MatrixReg::new(d), dtype: Dtype::Fp16, addr, ld },
            Instruction::Store { src: MatrixReg::new(a), addr, ld },
        ];
        for i in instrs {
            prop_assert_eq!(Instruction::decode(i.encode()).unwrap(), i);
            // The assembly text form round-trips too.
            let text = i.to_string();
            let parsed = simd2_repro::isa::asm::parse(&text).unwrap();
            prop_assert_eq!(parsed[0], i);
        }
    }
}
