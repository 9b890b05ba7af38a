//! Cross-crate integration: the full stack from workload generation
//! through the ISA executor, checked against the independent baselines.

use simd2_repro::apps::{aplp, apsp, gtc, mst, paths};
use simd2_repro::core::backend::{Backend, IsaBackend, ReferenceBackend, TiledBackend};
use simd2_repro::core::highlevel;
use simd2_repro::core::solve::{closure, ClosureAlgorithm};
use simd2_repro::matrix::{gen, reference, Matrix};
use simd2_repro::semiring::{OpKind, ALL_OPS};

/// The deepest path — assembler-level instruction streams — solves APSP
/// identically to the scalar blocked Floyd–Warshall baseline.
#[test]
fn apsp_through_the_isa_executor_matches_the_baseline() {
    let g = apsp::generate(40, 77);
    let want = apsp::baseline(&g);
    let mut be = IsaBackend::new();
    let got = apsp::simd2(&mut be, &g, ClosureAlgorithm::Leyzorek, true);
    assert_eq!(got.closure, want);
    // The executor really ran min-plus mmo instructions.
    assert!(be.exec_stats().mmos[&OpKind::MinPlus] > 0);
    assert_eq!(be.exec_stats().fills, 0, "C tiles are loaded, not filled");
}

/// All three backends agree, bit for bit, on every operation for ragged
/// shapes: they compute one reduction.
#[test]
fn three_backends_agree_on_all_nine_ops() {
    for op in ALL_OPS {
        let mut a = gen::random_operands_for(op, 21, 19, 5);
        let mut b = gen::random_operands_for(op, 19, 23, 6);
        // fp16-exact inputs: the fp32 reference and the fp16 backends see
        // the same operand bits.
        simd2_repro::semiring::precision::quantize_f16_slice(a.as_mut_slice());
        simd2_repro::semiring::precision::quantize_f16_slice(b.as_mut_slice());
        let c = Matrix::filled(21, 23, op.reduce_identity_f32());
        let reference_out = ReferenceBackend::new().mmo(op, &a, &b, &c).unwrap();
        let tiled_out = TiledBackend::new().mmo(op, &a, &b, &c).unwrap();
        let isa_out = IsaBackend::new().mmo(op, &a, &b, &c).unwrap();
        assert_eq!(
            tiled_out, isa_out,
            "{op}: tiled vs ISA must be bit-identical"
        );
        assert_eq!(reference_out, tiled_out, "{op}: reference vs tiled");
    }
}

/// Every closure application agrees between its independent baseline
/// algorithm and the matrix solver, end to end.
#[test]
fn every_application_validates_end_to_end() {
    let n = 64;
    let mut be = TiledBackend::new();

    let g = apsp::generate(n, 1);
    assert_eq!(
        apsp::simd2(&mut be, &g, ClosureAlgorithm::Leyzorek, true).closure,
        apsp::baseline(&g)
    );

    let g = aplp::generate(n, 2);
    assert_eq!(
        aplp::simd2(&mut be, &g, ClosureAlgorithm::Leyzorek, true).closure,
        aplp::baseline(&g)
    );

    let g = paths::generate_mcp(n, 3);
    assert_eq!(
        paths::simd2(
            &mut be,
            OpKind::MaxMin,
            &g,
            ClosureAlgorithm::Leyzorek,
            true
        )
        .closure,
        paths::baseline(OpKind::MaxMin, &g)
    );

    let g = gtc::generate(n, 4);
    assert_eq!(
        gtc::simd2(&mut be, &g, ClosureAlgorithm::Leyzorek, true).closure,
        gtc::baseline(&g)
    );

    let g = mst::generate(n, 0.1, 5);
    let (tree, _) = mst::simd2(&mut be, &g, ClosureAlgorithm::Leyzorek, true);
    assert_eq!(tree, mst::baseline(&g));
}

/// The high-level API (Figure 6 style) composes with the solver layer:
/// manually iterating `simd2_minplus` reaches the same fixed point.
#[test]
fn manual_highlevel_iteration_matches_the_solver() {
    let g = gen::connected_gnp_graph(30, 0.15, 1.0, 9.0, 9);
    let adj = g.adjacency(OpKind::MinPlus);
    // Hand-rolled Figure-7 loop over the high-level API.
    let mut dist = adj.clone();
    loop {
        let next = highlevel::simd2_minplus(&dist, &adj, &dist).unwrap();
        if next == dist {
            break;
        }
        dist = next;
    }
    let mut be = TiledBackend::new();
    let solver = closure(
        &mut be,
        OpKind::MinPlus,
        &adj,
        ClosureAlgorithm::BellmanFord,
        true,
    )
    .unwrap();
    assert_eq!(dist, solver.closure);
}

/// Sparse and dense substrates agree: spGEMM-based closure equals the
/// dense matrix closure.
#[test]
fn sparse_closure_matches_dense_closure() {
    use simd2_repro::sparse::gamma::sparse_closure;
    let g = gen::connected_gnp_graph(32, 0.1, 1.0, 9.0, 13);
    let adj = g.adjacency(OpKind::MinPlus);
    let (sparse, _) = sparse_closure(OpKind::MinPlus, &adj, 64);
    let mut be = ReferenceBackend::new();
    let dense = closure(
        &mut be,
        OpKind::MinPlus,
        &adj,
        ClosureAlgorithm::Leyzorek,
        true,
    )
    .unwrap();
    assert_eq!(sparse, dense.closure);
}

/// The reference mmo distributes over k-dimension splits — the algebraic
/// fact that makes tiling legal, demonstrated at the whole-matrix level.
#[test]
fn k_split_accumulation_matches_single_pass() {
    for op in [
        OpKind::MinPlus,
        OpKind::MaxMin,
        OpKind::OrAnd,
        OpKind::MinMax,
    ] {
        let a = gen::random_operands_for(op, 12, 32, 21);
        let b = gen::random_operands_for(op, 32, 12, 22);
        let c = Matrix::filled(12, 12, op.reduce_identity_f32());
        let whole = reference::mmo(op, &a, &b, &c).unwrap();
        // Split k = 32 into two halves and accumulate.
        let a1 = Matrix::from_fn(12, 16, |r, cc| a[(r, cc)]);
        let a2 = Matrix::from_fn(12, 16, |r, cc| a[(r, cc + 16)]);
        let b1 = Matrix::from_fn(16, 12, |r, cc| b[(r, cc)]);
        let b2 = Matrix::from_fn(16, 12, |r, cc| b[(r + 16, cc)]);
        let partial = reference::mmo(op, &a1, &b1, &c).unwrap();
        let split = reference::mmo(op, &a2, &b2, &partial).unwrap();
        assert_eq!(whole, split, "{op}");
    }
}
