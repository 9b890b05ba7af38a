//! SIMD²-extended GAMMA sparse accelerator (paper §6.5, future work).
//!
//! "A GAMMA PE uses \[an\] FP64 multiplier and adder, and an SIMD² GAMMA PE
//! will use two FP64 ALUs, one support\[ing\] the ⊗ op, and the other
//! support\[ing\] the ⊕ op. … in GAMMA, only 10% of the total area is due
//! to the FP64 MAC unit," so extending a *sparse* accelerator with SIMD²
//! costs proportionally less than extending a dense one.
//!
//! The functional behaviour of such an accelerator is exactly
//! [`Csr::spgemm`] under a chosen algebra; this module adds the
//! area estimate and a convenience wrapper for running closure iterations
//! on sparse adjacency matrices (e.g. APSP on sparse graphs).

use simd2_matrix::{Csr, Matrix};
use simd2_mxu::AreaModel;
use simd2_semiring::{OpKind, EXTENDED_OPS};

/// Fraction of a GAMMA PE's area occupied by its FP64 MAC unit.
pub const GAMMA_MAC_AREA_FRACTION: f64 = 0.10;

/// Relative area of a SIMD²-extended GAMMA PE over the baseline GAMMA PE.
///
/// Only the MAC unit grows (by the same combined-unit overhead the dense
/// SIMD² unit pays at 64-bit precision); the dominant sparse-traversal
/// machinery (fibertree walkers, merge networks, buffers) is untouched.
pub fn simd2_gamma_pe_area() -> f64 {
    let mac_overhead =
        AreaModel::full_simd2_at_precision(simd2_semiring::precision::Precision::Bits64)
            / AreaModel::mma_at_precision(simd2_semiring::precision::Precision::Bits64)
            - 1.0;
    1.0 + GAMMA_MAC_AREA_FRACTION * mac_overhead
}

/// Runs a sparse Bellman-Ford closure (`D ← D ⊕ (D ⊗ A)`) entirely in
/// CSR form — what an SIMD² GAMMA accelerator would execute for APSP on
/// extremely sparse graphs.
///
/// Returns the dense closure (for comparison against dense solvers) and
/// the number of spGEMM iterations executed.
///
/// # Panics
///
/// Panics if `adj` is not square or `op` is not a closure algebra.
pub fn sparse_closure(op: OpKind, adj: &Matrix, max_iters: usize) -> (Matrix, usize) {
    assert!(op.is_closure_algebra(), "{op} has no fixed-point closure");
    assert!(adj.is_square());
    let zero = op.no_edge_f32().expect("closure algebra");
    let a = Csr::from_dense(adj, zero).expect("no-edge sentinels are never NaN");
    let mut dist = a.clone();
    let mut iters = 0;
    for _ in 0..max_iters {
        let ext = dist.spgemm(op, &a);
        // D ⊕ ext, element-wise union in sparse form via a dense pass —
        // the accelerator would use a merge network here.
        let merged = {
            let d_dense = dist.to_dense(zero);
            let e_dense = ext.to_dense(zero);
            let out = Matrix::from_fn(d_dense.rows(), d_dense.cols(), |r, c| {
                op.reduce_f32(d_dense[(r, c)], e_dense[(r, c)])
            });
            Csr::from_dense(&out, zero).expect("no-edge sentinels are never NaN")
        };
        iters += 1;
        if merged == dist {
            break;
        }
        dist = merged;
    }
    (dist.to_dense(zero), iters)
}

/// The eight extension ops, exposed for sparse-accelerator sweeps.
pub fn supported_ops() -> [OpKind; 8] {
    EXTENDED_OPS
}

#[cfg(test)]
mod tests {
    use super::*;
    use simd2_matrix::gen;

    #[test]
    fn gamma_extension_is_cheap() {
        let area = simd2_gamma_pe_area();
        // ~5% total-PE overhead: 10% of the PE × ~52% MAC growth at FP64.
        assert!(area > 1.0 && area < 1.07, "{area}");
    }

    #[test]
    fn sparse_closure_matches_dense_floyd_warshall() {
        let g = gen::connected_gnp_graph(18, 0.12, 1.0, 9.0, 21);
        let adj = g.adjacency(OpKind::MinPlus);
        let (sparse, iters) = sparse_closure(OpKind::MinPlus, &adj, 64);
        // Dense oracle.
        let mut want = adj.clone();
        for k in 0..18 {
            for i in 0..18 {
                for j in 0..18 {
                    let cand = want[(i, k)] + want[(k, j)];
                    if cand < want[(i, j)] {
                        want[(i, j)] = cand;
                    }
                }
            }
        }
        assert_eq!(sparse, want);
        assert!(iters <= 20);
    }

    #[test]
    fn sparse_closure_or_and_reachability() {
        let g = gen::gnp_graph(14, 0.15, 1.0, 2.0, 5);
        let (closure, _) = sparse_closure(OpKind::OrAnd, &g.reachability(), 32);
        // Reachability is reflexive and includes all direct edges.
        for v in 0..14 {
            assert_eq!(closure[(v, v)], 1.0);
        }
        for (s, d, _) in g.edges() {
            assert_eq!(closure[(s, d)], 1.0);
        }
    }

    #[test]
    fn supported_ops_are_the_extensions() {
        assert_eq!(supported_ops().len(), 8);
        assert!(!supported_ops().contains(&OpKind::PlusMul));
    }
}
