//! All-pairs critical (longest) path (APLP) — max-plus on DAGs.
//!
//! The paper builds APLP "by extending … ECL-APSP with reversing the
//! input weights on \[a\] DAG to support the desired recurrence relation";
//! the SIMD² version simply switches the instruction to max-plus. Our
//! baseline is an independent algorithm — per-source dynamic programming
//! in topological order — which makes the validation meaningful.

use simd2::solve::{self, ClosureAlgorithm, ClosureResult};
use simd2::Backend;
use simd2_matrix::{gen, Graph, Matrix};
use simd2_semiring::OpKind;

/// Workload generator: random DAG (edges run from lower to higher vertex
/// id) with fp16-exact integer weights and average degree ≈ 8.
pub fn generate(n: usize, seed: u64) -> Graph {
    let p = (16.0 / n as f64).min(0.5);
    let mut g = gen::random_dag(n, p, 1.0, 32.0, seed);
    // Snap to integers for bit-exact reduced-precision validation.
    g = g.map_weights(|w| w.round().clamp(1.0, 32.0));
    // Critical-path workloads (schedules, circuits) carry long dependency
    // chains that grow with design size; thread one through every 8th
    // vertex. This growing depth is what degrades APLP at larger inputs
    // (paper §6.3).
    for v in (0..n.saturating_sub(8)).step_by(8) {
        g.add_edge(v, v + 8, 1.0);
    }
    g
}

/// Baseline: per-source longest-path DP in topological order
/// (`O(V·(V+E))`), the classic critical-path algorithm.
///
/// Returns the all-pairs longest-path matrix; unreachable pairs hold
/// `−∞`, the diagonal holds `0`.
pub fn baseline(g: &Graph) -> Matrix {
    let n = g.vertex_count();
    let adj = g.out_neighbors();
    let mut d = Matrix::filled(n, n, f32::NEG_INFINITY);
    for src in 0..n {
        d[(src, src)] = 0.0;
        // Vertices are already topologically ordered (edges go s → d with
        // s < d), so one ascending sweep settles every distance.
        for u in src..n {
            let du = d[(src, u)];
            if du == f32::NEG_INFINITY {
                continue;
            }
            for &(v, w) in &adj[u] {
                let cand = du + w;
                if cand > d[(src, v)] {
                    d[(src, v)] = cand;
                }
            }
        }
    }
    d
}

/// SIMD²-ized APLP: max-plus closure.
///
/// # Panics
///
/// Panics on internal shape errors.
pub fn simd2<B: Backend>(
    backend: &mut B,
    g: &Graph,
    algorithm: ClosureAlgorithm,
    convergence: bool,
) -> ClosureResult {
    let adj = g.adjacency(OpKind::MaxPlus);
    solve::closure(backend, OpKind::MaxPlus, &adj, algorithm, convergence)
        .expect("square adjacency")
}

/// Length of the overall critical path (the largest finite entry).
pub fn critical_path_length(d: &Matrix) -> f32 {
    d.as_slice()
        .iter()
        .copied()
        .filter(|x| x.is_finite())
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simd2::backend::ReferenceBackend;

    // Baseline-vs-SIMD² comparisons on both backends live in the
    // registry-driven sweep in `crate::harness`.

    #[test]
    fn critical_path_dominates_every_edge() {
        let g = generate(30, 5);
        let d = baseline(&g);
        let cp = critical_path_length(&d);
        for (_, _, w) in g.edges() {
            assert!(cp >= w);
        }
    }

    #[test]
    fn unreachable_pairs_stay_neg_infinity() {
        let g = generate(20, 7);
        let d = baseline(&g);
        // Backward pairs (dst < src) are unreachable in this DAG.
        for s in 1..20 {
            assert_eq!(d[(s, 0)], f32::NEG_INFINITY);
        }
    }

    #[test]
    fn aplp_needs_more_iterations_on_deeper_dags() {
        // Chain DAG: depth n − 1 ⇒ Leyzorek needs ~log2(n) productive
        // iterations; a shallow DAG converges faster. This is the §6.3
        // effect that degrades APLP at larger inputs.
        let mut deep = Graph::new(64);
        for v in 0..63 {
            deep.add_edge(v, v + 1, 1.0);
        }
        let mut shallow = Graph::new(64);
        for v in 1..64 {
            shallow.add_edge(0, v, 1.0);
        }
        let mut be = ReferenceBackend::new();
        let rd = simd2(&mut be, &deep, ClosureAlgorithm::Leyzorek, true);
        let rs = simd2(&mut be, &shallow, ClosureAlgorithm::Leyzorek, true);
        assert!(rd.stats.iterations > rs.stats.iterations);
    }
}
