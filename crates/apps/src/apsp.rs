//! All-pairs shortest path (APSP) — the min-plus flagship application.
//!
//! * Baseline: blocked Floyd–Warshall, the algorithm class of ECL-APSP.
//! * SIMD²: min-plus closure (all-pairs Bellman-Ford or Leyzorek) per
//!   paper Figure 7.

use simd2::solve::{self, ClosureAlgorithm, ClosureResult};
use simd2::Backend;
use simd2_matrix::{gen, Graph, Matrix};
use simd2_semiring::OpKind;

/// Workload generator: strongly connected digraph with fp16-exact integer
/// weights and average out-degree ≈ 8.
pub fn generate(n: usize, seed: u64) -> Graph {
    let p = (8.0 / n as f64).min(0.5);
    let mut g = gen::integer_weight_graph(n, p, 64, seed);
    // Hamiltonian backbone keeps every pair reachable.
    for v in 0..n {
        g.add_edge(v, (v + 1) % n, 32.0);
    }
    g
}

/// Baseline: blocked Floyd–Warshall over the min-plus algebra.
///
/// The blocking mirrors the phase-based tiled structure of ECL-APSP
/// (diagonal block, then its row/column panels, then the remainder) —
/// same O(V³) work, cache-friendly order, bit-identical result to
/// textbook FW on this algebra.
pub fn baseline(g: &Graph) -> Matrix {
    blocked_floyd_warshall(OpKind::MinPlus, &g.adjacency(OpKind::MinPlus), 32)
}

/// Blocked Floyd–Warshall over any closure algebra, with block side `b`.
pub fn blocked_floyd_warshall(op: OpKind, adj: &Matrix, b: usize) -> Matrix {
    assert!(adj.is_square());
    let n = adj.rows();
    let mut d = adj.clone();
    let blocks = n.div_ceil(b);
    let range = |t: usize| (t * b)..(((t + 1) * b).min(n));
    for t in 0..blocks {
        // Phase 1: diagonal block.
        for k in range(t) {
            for i in range(t) {
                let dik = d[(i, k)];
                for j in range(t) {
                    d[(i, j)] = op.reduce_f32(d[(i, j)], op.combine_f32(dik, d[(k, j)]));
                }
            }
        }
        // Phase 2: row and column panels.
        for other in 0..blocks {
            if other == t {
                continue;
            }
            for k in range(t) {
                for i in range(t) {
                    let dik = d[(i, k)];
                    for j in range(other) {
                        d[(i, j)] = op.reduce_f32(d[(i, j)], op.combine_f32(dik, d[(k, j)]));
                    }
                }
                for i in range(other) {
                    let dik = d[(i, k)];
                    for j in range(t) {
                        d[(i, j)] = op.reduce_f32(d[(i, j)], op.combine_f32(dik, d[(k, j)]));
                    }
                }
            }
        }
        // Phase 3: remainder blocks.
        for bi in 0..blocks {
            if bi == t {
                continue;
            }
            for bj in 0..blocks {
                if bj == t {
                    continue;
                }
                for k in range(t) {
                    for i in range(bi) {
                        let dik = d[(i, k)];
                        for j in range(bj) {
                            d[(i, j)] = op.reduce_f32(d[(i, j)], op.combine_f32(dik, d[(k, j)]));
                        }
                    }
                }
            }
        }
    }
    d
}

/// SIMD²-ized APSP: min-plus closure through the given backend.
///
/// # Panics
///
/// Panics on internal shape errors (the adjacency matrix is square by
/// construction).
pub fn simd2<B: Backend>(
    backend: &mut B,
    g: &Graph,
    algorithm: ClosureAlgorithm,
    convergence: bool,
) -> ClosureResult {
    let adj = g.adjacency(OpKind::MinPlus);
    solve::closure(backend, OpKind::MinPlus, &adj, algorithm, convergence)
        .expect("square adjacency")
}

#[cfg(test)]
mod tests {
    use super::*;
    use simd2::backend::ReferenceBackend;

    // Baseline-vs-SIMD² comparisons on both backends live in the
    // registry-driven sweep in `crate::harness`.

    #[test]
    fn blocked_fw_matches_plain_fw() {
        let g = generate(37, 3); // deliberately not a multiple of the block
        let adj = g.adjacency(OpKind::MinPlus);
        let plain = simd2::solve::floyd_warshall_closure(OpKind::MinPlus, &adj);
        let blocked = blocked_floyd_warshall(OpKind::MinPlus, &adj, 8);
        assert_eq!(plain, blocked);
    }

    #[test]
    fn all_pairs_are_reachable() {
        let g = generate(20, 5);
        let d = baseline(&g);
        assert!(d.as_slice().iter().all(|&x| x.is_finite()));
    }

    #[test]
    fn leyzorek_converges_in_logarithmic_iterations() {
        let g = generate(64, 9);
        let mut be = ReferenceBackend::new();
        let r = simd2(&mut be, &g, ClosureAlgorithm::Leyzorek, true);
        assert!(r.stats.converged_early);
        assert!(r.stats.iterations <= 7, "{}", r.stats.iterations);
    }

    #[test]
    fn generator_is_deterministic_and_connected() {
        assert_eq!(generate(16, 1), generate(16, 1));
        let g = generate(16, 2);
        assert!(g.edge_count() >= 16, "backbone present");
    }
}
