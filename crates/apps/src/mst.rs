//! Minimum spanning tree (MST) — min-max (minimax) closure.
//!
//! * Baseline: Kruskal's algorithm with a union-find forest (the cudaMST
//!   baseline's algorithm class; `O(E log E)`).
//! * SIMD²: the min-max closure yields all-pairs *bottleneck* distances;
//!   with distinct edge weights, an edge belongs to the MST exactly when
//!   its weight equals the bottleneck distance between its endpoints —
//!   the cycle property in matrix form.

use simd2::solve::{ClosureAlgorithm, ClosureResult};
use simd2::Backend;
use simd2_matrix::{Graph, Matrix};
use simd2_semiring::OpKind;

use crate::unionfind::UnionFind;

/// An MST result: the chosen edges (endpoint-sorted) and the total weight.
#[derive(Clone, Debug, PartialEq)]
pub struct MstResult {
    /// Undirected tree edges as `(u, v, w)` with `u < v`, sorted.
    pub edges: Vec<(usize, usize, f32)>,
    /// Sum of tree edge weights.
    pub total_weight: f64,
}

/// Workload generator: connected undirected graph whose edge weights are
/// a shuffled sequence of *distinct* integers (distinctness makes the MST
/// unique; integers keep fp16 runs bit-exact while they stay ≤ 2048).
pub fn generate(n: usize, extra_p: f64, seed: u64) -> Graph {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let base = simd2_matrix::gen::random_connected_undirected(n, extra_p, 1.0, 2.0, seed);
    // Re-weight each undirected pair with a unique integer.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (s, d, _) in base.edges() {
        if s < d {
            pairs.push((s, d));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xABCD);
    let mut weights: Vec<usize> = (1..=pairs.len()).collect();
    weights.shuffle(&mut rng);
    let mut g = Graph::new(n);
    for ((u, v), w) in pairs.into_iter().zip(weights) {
        g.add_undirected_edge(u, v, w as f32);
    }
    g
}

/// Baseline: Kruskal with union-find.
pub fn baseline(g: &Graph) -> MstResult {
    let mut edges: Vec<(usize, usize, f32)> = g.edges().filter(|&(u, v, _)| u < v).collect();
    edges.sort_by(|a, b| {
        a.2.partial_cmp(&b.2)
            .unwrap()
            .then(a.0.cmp(&b.0))
            .then(a.1.cmp(&b.1))
    });
    let mut uf = UnionFind::new(g.vertex_count());
    let mut tree = Vec::with_capacity(g.vertex_count().saturating_sub(1));
    let mut total = 0.0f64;
    for (u, v, w) in edges {
        if uf.union(u, v) {
            tree.push((u, v, w));
            total += f64::from(w);
        }
    }
    tree.sort_unstable_by_key(|e| (e.0, e.1));
    MstResult {
        edges: tree,
        total_weight: total,
    }
}

/// SIMD²-ized MST: min-max closure, then edge extraction by the cycle
/// property. Returns the MST and the closure statistics (the work the
/// performance model charges).
///
/// # Panics
///
/// Panics on internal shape errors.
pub fn simd2<B: Backend>(
    backend: &mut B,
    g: &Graph,
    algorithm: ClosureAlgorithm,
    convergence: bool,
) -> (MstResult, ClosureResult) {
    let adj = g.adjacency(OpKind::MinMax);
    let closure = simd2::solve::closure(backend, OpKind::MinMax, &adj, algorithm, convergence)
        .expect("square adjacency");
    let mst = extract_mst(g, &closure.closure);
    (mst, closure)
}

/// Extracts the MST from the bottleneck matrix: with distinct weights,
/// `(u, v) ∈ MST ⟺ w(u, v) == bottleneck(u, v)`.
pub fn extract_mst(g: &Graph, bottleneck: &Matrix) -> MstResult {
    let mut tree = Vec::new();
    let mut total = 0.0f64;
    for (u, v, w) in g.edges() {
        if u < v && bottleneck[(u, v)] == w {
            tree.push((u, v, w));
            total += f64::from(w);
        }
    }
    tree.sort_unstable_by_key(|e| (e.0, e.1));
    MstResult {
        edges: tree,
        total_weight: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simd2::backend::ReferenceBackend;

    // Baseline-vs-SIMD² comparisons on both backends live in the
    // registry-driven sweep in `crate::harness`.

    #[test]
    fn kruskal_produces_a_spanning_tree() {
        let g = generate(40, 0.1, 3);
        let mst = baseline(&g);
        assert_eq!(mst.edges.len(), 39, "n−1 edges");
        let mut uf = UnionFind::new(40);
        for &(u, v, _) in &mst.edges {
            assert!(uf.union(u, v), "tree edges never form cycles");
        }
        assert_eq!(uf.component_count(), 1, "spans all vertices");
    }

    #[test]
    fn bellman_ford_variant_agrees() {
        let g = generate(24, 0.2, 9);
        let want = baseline(&g);
        let mut be = ReferenceBackend::new();
        let (got, _) = simd2(&mut be, &g, ClosureAlgorithm::BellmanFord, false);
        assert_eq!(got, want);
    }

    #[test]
    fn kruskal_weight_is_minimal_under_edge_swaps() {
        // Swapping any non-tree edge in (and the cycle's max edge out)
        // must not reduce total weight — spot-check the optimum.
        let g = generate(16, 0.3, 7);
        let mst = baseline(&g);
        let tree_weight = mst.total_weight;
        // Any spanning tree built greedily from a different order is ≥.
        let mut alt_edges: Vec<(usize, usize, f32)> =
            g.edges().filter(|&(u, v, _)| u < v).collect();
        alt_edges.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap()); // worst-first
        let mut uf = UnionFind::new(16);
        let mut alt_total = 0.0f64;
        for (u, v, w) in alt_edges {
            if uf.union(u, v) {
                alt_total += f64::from(w);
            }
        }
        assert!(alt_total >= tree_weight);
    }

    #[test]
    fn forest_inputs_are_handled() {
        // Two disconnected cliques → a minimum spanning *forest*.
        let mut g = Graph::new(6);
        let mut w = 1.0;
        for &(a, b) in &[(0, 1), (1, 2), (0, 2)] {
            g.add_undirected_edge(a, b, w);
            w += 1.0;
        }
        for &(a, b) in &[(3, 4), (4, 5), (3, 5)] {
            g.add_undirected_edge(a, b, w);
            w += 1.0;
        }
        let mst = baseline(&g);
        assert_eq!(mst.edges.len(), 4, "two trees of 2 edges each");
        let mut be = ReferenceBackend::new();
        let (got, _) = simd2(&mut be, &g, ClosureAlgorithm::Leyzorek, true);
        assert_eq!(got, mst);
    }

    #[test]
    fn generator_weights_are_distinct() {
        let g = generate(20, 0.2, 11);
        let mut ws: Vec<u32> = g
            .edges()
            .filter(|&(u, v, _)| u < v)
            .map(|e| e.2 as u32)
            .collect();
        let before = ws.len();
        ws.sort_unstable();
        ws.dedup();
        assert_eq!(ws.len(), before);
    }
}
