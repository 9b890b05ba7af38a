//! The transitive-closure path family: maximum capacity (MCP), maximum
//! reliability (MAXRP) and minimum reliability (MINRP) paths.
//!
//! The paper pairs all three with the CUDA-FW baseline, "apply\[ing\]
//! different operations in each iteration of their algorithms"; the SIMD²
//! kernels just switch the instruction to max-min, max-mul or min-mul.

use simd2::solve::{self, ClosureAlgorithm, ClosureResult};
use simd2::Backend;
use simd2_matrix::{gen, Graph, Matrix};
use simd2_semiring::OpKind;

/// Maximum-capacity-path workload: strongly connected digraph with
/// fp16-exact integer link capacities.
pub fn generate_mcp(n: usize, seed: u64) -> Graph {
    let p = (8.0 / n as f64).min(0.5);
    let mut g = gen::integer_weight_graph(n, p, 100, seed);
    for v in 0..n {
        g.add_edge(v, (v + 1) % n, 10.0);
    }
    g
}

/// Reliability workload (shared by MAXRP): strongly connected digraph
/// with link success probabilities in `(0.5, 1.0)`.
pub fn generate_maxrp(n: usize, seed: u64) -> Graph {
    let p = (8.0 / n as f64).min(0.5);
    gen::reliability_graph(n, p, seed)
}

/// MINRP workload: reliability weights on a DAG. Minimum reliability over
/// *walks* is degenerate on cyclic graphs (every extra factor < 1 lowers
/// the product), so the problem is posed on acyclic networks where all
/// solvers agree on the same well-defined optimum.
pub fn generate_minrp(n: usize, seed: u64) -> Graph {
    let p = (16.0 / n as f64).min(0.5);
    gen::random_dag(n, p, 0.0, 1.0, seed)
        .map_weights(|w| simd2_semiring::precision::quantize_f16(0.5 + 0.5 * w.clamp(0.0, 0.999)))
}

/// Baseline: Floyd–Warshall transitive closure generalised over the
/// algebra (the CUDA-FW structure).
pub fn baseline(op: OpKind, g: &Graph) -> Matrix {
    solve::floyd_warshall_closure(op, &g.adjacency(op))
}

/// SIMD²-ized solver: closure through the given backend with the
/// application's operation.
///
/// # Panics
///
/// Panics on internal shape errors.
pub fn simd2<B: Backend>(
    backend: &mut B,
    op: OpKind,
    g: &Graph,
    algorithm: ClosureAlgorithm,
    convergence: bool,
) -> ClosureResult {
    solve::closure(backend, op, &g.adjacency(op), algorithm, convergence).expect("square adjacency")
}

#[cfg(test)]
mod tests {
    use super::*;

    // Baseline-vs-SIMD² comparisons on both backends live in the
    // registry-driven sweep in `crate::harness`.

    #[test]
    fn mcp_capacity_properties() {
        let g = generate_mcp(24, 7);
        let cap = baseline(OpKind::MaxMin, &g);
        // A path's capacity is at least that of the best direct edge.
        let adj = g.adjacency(OpKind::MaxMin);
        for s in 0..24 {
            for d in 0..24 {
                if s != d {
                    assert!(cap[(s, d)] >= adj[(s, d)]);
                }
            }
        }
    }

    #[test]
    fn maxrp_probabilities_stay_in_unit_interval() {
        let g = generate_maxrp(20, 11);
        let rel = baseline(OpKind::MaxMul, &g);
        for s in 0..20 {
            for d in 0..20 {
                if s != d {
                    let r = rel[(s, d)];
                    assert!((0.0..=1.0).contains(&r), "({s},{d}): {r}");
                }
            }
        }
    }

    #[test]
    fn minrp_longer_paths_only_lower_reliability() {
        let g = generate_minrp(20, 17);
        let rel = baseline(OpKind::MinMul, &g);
        let adj = g.adjacency(OpKind::MinMul);
        for s in 0..20 {
            for d in 0..20 {
                if s != d && adj[(s, d)] != f32::INFINITY {
                    assert!(rel[(s, d)] <= adj[(s, d)], "({s},{d})");
                }
            }
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(generate_mcp(16, 1), generate_mcp(16, 1));
        assert_eq!(generate_maxrp(16, 1), generate_maxrp(16, 1));
        assert_eq!(generate_minrp(16, 1), generate_minrp(16, 1));
    }
}
