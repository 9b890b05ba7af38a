//! Boundary and degenerate-input behaviour across the stack.

use simd2_repro::apps::{gtc, knn, mst};
use simd2_repro::core::backend::{Backend, ReferenceBackend, TiledBackend};
use simd2_repro::core::solve::{closure, ClosureAlgorithm};
use simd2_repro::isa;
use simd2_repro::matrix::Csr;
use simd2_repro::matrix::{Graph, Matrix};
use simd2_repro::semiring::OpKind;

#[test]
fn single_vertex_graph_closures() {
    let g = Graph::new(1);
    for op in [OpKind::MinPlus, OpKind::MaxMin, OpKind::OrAnd] {
        let adj = match op {
            OpKind::OrAnd => g.reachability(),
            _ => g.adjacency(op),
        };
        let mut be = ReferenceBackend::new();
        let r = closure(&mut be, op, &adj, ClosureAlgorithm::Leyzorek, true).unwrap();
        assert_eq!(r.closure, adj, "{op}: a single vertex is already closed");
        assert_eq!(r.stats.iterations, 1);
    }
}

#[test]
fn edgeless_graph_stays_disconnected() {
    let g = Graph::new(5);
    let adj = g.adjacency(OpKind::MinPlus);
    let mut be = TiledBackend::new();
    let r = closure(
        &mut be,
        OpKind::MinPlus,
        &adj,
        ClosureAlgorithm::BellmanFord,
        true,
    )
    .unwrap();
    for i in 0..5 {
        for j in 0..5 {
            let want = if i == j { 0.0 } else { f32::INFINITY };
            assert_eq!(r.closure[(i, j)], want);
        }
    }
    assert!(r.stats.converged_early, "fixed point after one iteration");
}

#[test]
fn one_by_one_matrix_operations() {
    for op in simd2_repro::semiring::ALL_OPS {
        let a = Matrix::filled(1, 1, 1.0);
        let c = Matrix::filled(1, 1, op.reduce_identity_f32());
        let d = TiledBackend::new().mmo(op, &a, &a, &c).unwrap();
        assert_eq!(d.shape(), (1, 1), "{op}");
        assert_eq!(
            d[(0, 0)],
            op.fma_f32(op.reduce_identity_f32(), 1.0, 1.0),
            "{op}"
        );
    }
}

#[test]
fn knn_with_k_larger_than_candidates_truncates() {
    let pts = knn::generate(3, 1);
    // Only 2 candidates exist per query (self excluded).
    let r = knn::baseline(&pts, 10);
    for q in 0..3 {
        assert_eq!(r.indices[q].len(), 2);
        assert!(!r.indices[q].contains(&q));
    }
}

#[test]
fn mst_of_a_tree_is_the_tree() {
    // p = 0 extras ⇒ the generator's spanning tree is the whole graph.
    let g = mst::generate(12, 0.0, 7);
    let m = mst::baseline(&g);
    assert_eq!(m.edges.len(), 11);
    let mut be = ReferenceBackend::new();
    let (got, _) = mst::simd2(&mut be, &g, ClosureAlgorithm::Leyzorek, true);
    assert_eq!(got, m);
    let edge_weights: f64 = g
        .edges()
        .filter(|&(u, v, _)| u < v)
        .map(|e| f64::from(e.2))
        .sum();
    assert_eq!(m.total_weight, edge_weights);
}

#[test]
fn gtc_on_fully_disconnected_graph_is_identity() {
    let g = Graph::new(20);
    let r = gtc::baseline(&g);
    for i in 0..20 {
        for j in 0..20 {
            assert_eq!(r[(i, j)], if i == j { 1.0 } else { 0.0 });
        }
    }
    let mut be = ReferenceBackend::new();
    assert_eq!(
        gtc::simd2(&mut be, &g, ClosureAlgorithm::Leyzorek, true).closure,
        r
    );
}

#[test]
fn empty_csr_behaves() {
    let m = Matrix::zeros(4, 4);
    let s = Csr::from_dense(&m, 0.0).unwrap();
    assert_eq!(s.nnz(), 0);
    assert_eq!(s.density(), 0.0);
    let p = s.spgemm(OpKind::PlusMul, &s);
    assert_eq!(p.nnz(), 0);
    assert_eq!(p.to_dense(0.0), m);
    assert_eq!(s.spgemm_products(&s), 0);
}

#[test]
fn executor_runs_empty_and_fill_only_programs() {
    let mut exec = isa::Executor::new(isa::SharedMemory::new(256));
    let stats = exec.run(&[]).unwrap();
    assert_eq!(stats.total_instructions(), 0);
    let prog = isa::asm::parse("simd2.fill %m0, 3.5").unwrap();
    let stats = exec.run(&prog).unwrap();
    assert_eq!(stats.fills, 1);
    assert!(exec.reg(0).iter().all(|(_, _, v)| v == 3.5));
}

#[test]
fn asm_accepts_empty_and_comment_only_sources() {
    assert_eq!(isa::asm::parse("").unwrap(), vec![]);
    assert_eq!(
        isa::asm::parse("// nothing here\n\n   // still nothing").unwrap(),
        vec![]
    );
    assert_eq!(isa::asm::print(&[]), "");
}

#[test]
fn program_image_of_empty_program() {
    let img = isa::to_image(&[]);
    assert_eq!(isa::from_image(&img).unwrap(), vec![]);
}

#[test]
fn negative_weight_max_plus_dag_closure() {
    // Max-plus tolerates negative weights on DAGs (no positive cycles).
    let mut g = Graph::new(3);
    g.add_edge(0, 1, -2.0);
    g.add_edge(1, 2, 5.0);
    g.add_edge(0, 2, 1.0);
    let adj = g.adjacency(OpKind::MaxPlus);
    let mut be = ReferenceBackend::new();
    let r = closure(
        &mut be,
        OpKind::MaxPlus,
        &adj,
        ClosureAlgorithm::BellmanFord,
        true,
    )
    .unwrap();
    assert_eq!(r.closure[(0, 2)], 3.0, "-2 + 5 beats the direct 1");
}

#[test]
fn zero_weight_edges_are_not_no_edges() {
    // A 0-weight edge is a real edge for min-plus (no_edge is +inf).
    let mut g = Graph::new(2);
    g.add_edge(0, 1, 0.0);
    let adj = g.adjacency(OpKind::MinPlus);
    assert_eq!(adj[(0, 1)], 0.0);
    let mut be = ReferenceBackend::new();
    let r = closure(
        &mut be,
        OpKind::MinPlus,
        &adj,
        ClosureAlgorithm::Leyzorek,
        true,
    )
    .unwrap();
    assert_eq!(r.closure[(0, 1)], 0.0);
    assert_eq!(r.closure[(1, 0)], f32::INFINITY);
}
