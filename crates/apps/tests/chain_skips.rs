//! The `core.chain.skipped_pairs` counter on the two DAG applications.
//!
//! APLP (max-plus) and MINRP (min-mul) are posed on DAGs whose vertices
//! are numbered in topological order, so at `n = 256` the 120 tiles of
//! the 16×16 tile grid below its diagonal hold nothing but the
//! annihilator in the adjacency and in every closure iterate, while each
//! of the 136 others holds an edge. A tile pair `(ti, tk, tj)` folds
//! something only where `ti ≤ tk ≤ tj`: 816 of the 4,096 pairs of a
//! step, so the tile chain leaves out exactly 3,280 per step, at any
//! worker count; on dense operands it leaves out none.
//!
//! The counter is process-global, so this binary holds one test and
//! reads its deltas one step at a time.

use std::sync::Arc;

use simd2::{solve, Backend, ClosureAlgorithm, Parallelism, TiledBackend};
use simd2_apps::{aplp, paths};
use simd2_matrix::gen;
use simd2_semiring::OpKind;
use simd2_trace::{NullSink, Tracer};

/// Pairs a 256-vertex DAG step skips: 16³ − C(18, 3).
const DAG_SKIPS: u64 = 4096 - 816;

fn skipped_pairs() -> u64 {
    simd2_trace::snapshot()
        .counters
        .iter()
        .find(|c| c.name == "core.chain.skipped_pairs")
        .map_or(0, |c| c.value)
}

fn traced(workers: usize) -> TiledBackend {
    let mut be = TiledBackend::new().with_tracer(Tracer::to(Arc::new(NullSink)));
    be.set_parallelism(Parallelism::Threads(workers));
    be
}

#[test]
fn the_chain_skips_exactly_the_pairs_below_a_dags_tile_diagonal() {
    for workers in [1, 2] {
        for (op, graph) in [
            (OpKind::MaxPlus, aplp::generate(256, 7)),
            (OpKind::MinMul, paths::generate_minrp(256, 7)),
        ] {
            let mut be = traced(workers);
            let before = skipped_pairs();
            let result = solve::closure(
                &mut be,
                op,
                &graph.adjacency(op),
                ClosureAlgorithm::Leyzorek,
                true,
            )
            .unwrap();
            let steps = be.op_count().matrix_mmos;
            assert_eq!(steps, result.stats.matrix_mmos as u64);
            assert!(steps >= 2, "{op}: {steps} steps");
            assert_eq!(
                skipped_pairs() - before,
                DAG_SKIPS * steps,
                "{op} at {workers} workers over {steps} steps"
            );
        }
        // Dense operands: no tile holds only the annihilator.
        let mut be = traced(workers);
        let before = skipped_pairs();
        for op in [OpKind::MinPlus, OpKind::PlusMul, OpKind::OrAnd] {
            let a = gen::random_operands_for(op, 256, 256, 1);
            let b = gen::random_operands_for(op, 256, 256, 2);
            let c = gen::random_operands_for(op, 256, 256, 3);
            be.mmo(op, &a, &b, &c).unwrap();
        }
        assert_eq!(skipped_pairs(), before, "dense at {workers} workers");
    }
}
