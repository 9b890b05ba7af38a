//! Graph transitive closure (GTC) — or-and.
//!
//! * Baseline: per-vertex BFS over packed bitset rows (the boolean
//!   linear-algebra style of cuBool).
//! * SIMD²: or-and closure on the `0.0`/`1.0`-encoded reachability
//!   matrix.

use simd2::solve::{self, ClosureAlgorithm, ClosureResult};
use simd2::Backend;
use simd2_matrix::{gen, Graph, Matrix};
use simd2_semiring::OpKind;

/// Workload generator: sparse digraph with average out-degree ≈ 4.
pub fn generate(n: usize, seed: u64) -> Graph {
    let p = (4.0 / n as f64).min(0.5);
    gen::gnp_graph(n, p, 1.0, 2.0, seed)
}

/// Packed boolean adjacency rows (64 vertices per word).
fn bitset_rows(g: &Graph) -> Vec<Vec<u64>> {
    let n = g.vertex_count();
    let words = n.div_ceil(64);
    let mut rows = vec![vec![0u64; words]; n];
    for v in 0..n {
        rows[v][v / 64] |= 1 << (v % 64); // reflexive
    }
    for (s, d, _) in g.edges() {
        rows[s][d / 64] |= 1 << (d % 64);
    }
    rows
}

/// Baseline: breadth-first reachability from every vertex, with
/// word-parallel row unions — the boolean-matrix flavour cuBool applies.
pub fn baseline(g: &Graph) -> Matrix {
    let n = g.vertex_count();
    let adj = bitset_rows(g);
    let words = n.div_ceil(64);
    let mut reach = adj.clone();
    // Iterate to fixed point: reach[v] |= union of reach[u] over the
    // frontier; with row unions this is a semi-naive closure.
    let mut changed = true;
    while changed {
        changed = false;
        for v in 0..n {
            let mut updated = reach[v].clone();
            for w in 0..words {
                let mut bits = reach[v][w];
                while bits != 0 {
                    let u = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if u < n && u != v {
                        for x in 0..words {
                            updated[x] |= reach[u][x];
                        }
                    }
                }
            }
            if updated != reach[v] {
                reach[v] = updated;
                changed = true;
            }
        }
    }
    Matrix::from_fn(n, n, |r, c| {
        if reach[r][c / 64] >> (c % 64) & 1 == 1 {
            1.0
        } else {
            0.0
        }
    })
}

/// SIMD²-ized GTC: or-and closure.
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
    solve::closure(
        backend,
        OpKind::OrAnd,
        &g.reachability(),
        algorithm,
        convergence,
    )
    .expect("square adjacency")
}

#[cfg(test)]
mod tests {
    use super::*;
    use simd2::backend::ReferenceBackend;

    // Baseline-vs-SIMD² comparisons on both backends live in the
    // registry-driven sweep in `crate::harness`.

    #[test]
    fn baseline_reaches_transitively() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        let r = baseline(&g);
        assert_eq!(r[(0, 2)], 1.0, "two hops");
        assert_eq!(r[(2, 0)], 0.0);
        assert_eq!(r[(3, 3)], 1.0, "reflexive");
        assert_eq!(r[(0, 3)], 0.0);
    }

    #[test]
    fn closure_is_transitive_and_reflexive() {
        let g = generate(32, 7);
        let mut be = ReferenceBackend::new();
        let r = simd2(&mut be, &g, ClosureAlgorithm::Leyzorek, true).closure;
        let n = 32;
        for v in 0..n {
            assert_eq!(r[(v, v)], 1.0);
        }
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    if r[(a, b)] == 1.0 && r[(b, c)] == 1.0 {
                        assert_eq!(r[(a, c)], 1.0, "{a}->{b}->{c}");
                    }
                }
            }
        }
    }

    #[test]
    fn dense_graph_closes_fully() {
        let g = gen::gnp_graph(20, 0.4, 1.0, 2.0, 3);
        // High density almost surely yields one strongly connected
        // component; if so the closure is all ones.
        let r = baseline(&g);
        let all_ones = r.as_slice().iter().all(|&x| x == 1.0);
        let mut be = ReferenceBackend::new();
        let got = simd2(&mut be, &g, ClosureAlgorithm::Leyzorek, true).closure;
        assert_eq!(got, r);
        if all_ones {
            assert_eq!(r.density(0.0), 1.0);
        }
    }
}
