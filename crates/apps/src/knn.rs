//! K-nearest neighbours (KNN) — plus-norm (pairwise squared L2).
//!
//! * Baseline: brute-force per-query distance scan with selection (the
//!   kNN-CUDA structure).
//! * SIMD²: the whole pairwise distance matrix via one `simd2.addnorm`
//!   matrix operation (`D[q][r] = Σ_d (Q[q,d] − R[d,r])²`), then top-k
//!   selection per row.

use simd2::{Backend, Plan, PlanBuilder};
use simd2_matrix::{gen, Matrix};
use simd2_semiring::OpKind;

/// Dimensionality of the KNN feature space used by the workloads
/// (kNN-CUDA-style high-dimensional descriptors).
pub const DIMS: usize = 128;

/// Neighbours per query.
pub const K: usize = 8;

/// Workload generator: `n` points in `[0, 1)^DIMS`, quantised to fp16 so
/// the reduced-precision path sees identical inputs.
pub fn generate(n: usize, seed: u64) -> Matrix {
    let mut pc = gen::point_cloud(n, DIMS, seed);
    simd2_semiring::precision::quantize_f16_slice(pc.as_mut_slice());
    pc
}

/// A KNN answer: for each query, the `k` nearest reference indices
/// (ascending by distance) and their squared distances.
#[derive(Clone, Debug, PartialEq)]
pub struct KnnResult {
    /// `indices[q]` = the k nearest reference indices for query `q`.
    pub indices: Vec<Vec<usize>>,
    /// `distances[q][i]` = squared distance of `indices[q][i]`.
    pub distances: Vec<Vec<f32>>,
}

/// The `k` candidates of `row` nearest in (distance, index) order, by
/// bounded selection: `best` holds the nearest seen so far in order, and
/// a candidate that does not beat its last entry — nearly every one —
/// costs a single comparison.
///
/// # Panics
///
/// Panics when a comparison meets a NaN distance.
fn top_k_of_row(row: &[f32], k: usize, skip: Option<usize>) -> (Vec<usize>, Vec<f32>) {
    let mut best: Vec<usize> = Vec::with_capacity(k.min(row.len()) + 1);
    for i in (0..row.len()).filter(|&i| Some(i) != skip) {
        // Candidates arrive in ascending index, so a tie goes to the entry
        // already held: `i` belongs after every entry not farther than it.
        let nearer = |&j: &usize| {
            row[i]
                .partial_cmp(&row[j])
                .expect("KNN distances are never NaN")
                .is_lt()
        };
        if best.len() == k && !best.last().is_some_and(nearer) {
            continue;
        }
        let at = best.partition_point(|j| !nearer(j));
        best.insert(at, i);
        best.truncate(k);
    }
    let dists = best.iter().map(|&i| row[i]).collect();
    (best, dists)
}

/// Baseline: brute-force scan — for each query point, compute the squared
/// distance to every reference point in fp32 and select the `k` smallest.
/// Self-matches are excluded (query set == reference set).
pub fn baseline(points: &Matrix, k: usize) -> KnnResult {
    let n = points.rows();
    let mut indices = Vec::with_capacity(n);
    let mut distances = Vec::with_capacity(n);
    let mut row = vec![0.0f32; n];
    for q in 0..n {
        let pq = points.row(q);
        for (r, slot) in row.iter_mut().enumerate() {
            let pr = points.row(r);
            let mut acc = 0.0f32;
            for d in 0..points.cols() {
                let diff = pq[d] - pr[d];
                acc += diff * diff;
            }
            *slot = acc;
        }
        let (idx, dst) = top_k_of_row(&row, k, Some(q));
        indices.push(idx);
        distances.push(dst);
    }
    KnnResult { indices, distances }
}

/// SIMD²-ized KNN: one `addnorm` matrix operation produces the full
/// pairwise distance matrix, followed by per-row top-k selection.
///
/// # Panics
///
/// Panics on internal shape errors.
pub fn simd2<B: Backend>(backend: &mut B, points: &Matrix, k: usize) -> KnnResult {
    let n = points.rows();
    // D[q][r] = Σ_d (A[q,d] − B[d,r])²  with  B = pointsᵀ.
    let bt = points.transposed();
    let c = Matrix::zeros(n, n);
    let dmat = backend
        .mmo(OpKind::PlusNorm, points, &bt, &c)
        .expect("shapes by construction");
    let mut indices = Vec::with_capacity(n);
    let mut distances = Vec::with_capacity(n);
    for q in 0..n {
        let (idx, dst) = top_k_of_row(dmat.row(q), k, Some(q));
        indices.push(idx);
        distances.push(dst);
    }
    KnnResult { indices, distances }
}

/// Like [`simd2()`], but also records the single `addnorm` matrix
/// operation as a replayable [`Plan`] (the per-row top-k selection is
/// the host-side epilogue the timing model prices separately).
///
/// # Panics
///
/// Panics on internal shape errors.
pub fn record<B: Backend>(backend: &mut B, points: &Matrix, k: usize) -> (KnnResult, Plan) {
    let mut rec = PlanBuilder::over(backend);
    let result = simd2(&mut rec, points, k);
    (result, rec.finish())
}

/// Recall of `candidate` against `truth`: the fraction of true k-nearest
/// neighbours the candidate also reports (order-insensitive) — the §5.1
/// quality-of-result metric for this app.
pub fn recall(truth: &KnnResult, candidate: &KnnResult) -> f64 {
    assert_eq!(truth.indices.len(), candidate.indices.len());
    let mut hit = 0usize;
    let mut total = 0usize;
    for (t, c) in truth.indices.iter().zip(&candidate.indices) {
        total += t.len();
        hit += t.iter().filter(|i| c.contains(i)).count();
    }
    if total == 0 {
        1.0
    } else {
        hit as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simd2::backend::ReferenceBackend;

    // Baseline-vs-SIMD² comparisons on both backends live in the
    // registry-driven sweep in `crate::harness`.

    #[test]
    fn baseline_finds_planted_neighbours() {
        // Three tight clusters: nearest neighbours stay within a cluster.
        let mut pts = Matrix::zeros(9, DIMS);
        for i in 0..9 {
            let center = (i / 3) as f32 * 10.0;
            for d in 0..DIMS {
                pts[(i, d)] = center + ((i % 3) as f32 + d as f32 * 0.001) * 0.01;
            }
        }
        let r = baseline(&pts, 2);
        for i in 0..9 {
            let cluster = i / 3;
            for &n in &r.indices[i] {
                assert_eq!(n / 3, cluster, "query {i} matched {n}");
            }
        }
    }

    #[test]
    fn distances_are_sorted_and_self_excluded() {
        let pts = generate(20, 9);
        let r = baseline(&pts, 5);
        for q in 0..20 {
            assert!(!r.indices[q].contains(&q), "self excluded");
            assert!(r.distances[q].windows(2).all(|w| w[0] <= w[1]), "sorted");
            assert_eq!(r.indices[q].len(), 5);
        }
    }

    /// What the selection must return: the whole candidate list sorted by
    /// (distance, index), cut to `k`.
    fn top_k_by_sorting(row: &[f32], k: usize, skip: Option<usize>) -> (Vec<usize>, Vec<f32>) {
        let mut order: Vec<usize> = (0..row.len()).filter(|&i| Some(i) != skip).collect();
        order.sort_by(|&a, &b| row[a].partial_cmp(&row[b]).unwrap().then(a.cmp(&b)));
        order.truncate(k);
        let dists = order.iter().map(|&i| row[i]).collect();
        (order, dists)
    }

    #[test]
    fn selection_equals_the_full_sort_on_ties_and_short_rows() {
        // Few distinct distances: ties everywhere, broken by index.
        let tied: Vec<f32> = (0..40).map(|i| ((i * 7) % 5) as f32).collect();
        let spread: Vec<f32> = (0..40).map(|i| ((i * 29) % 41) as f32 * 0.5).collect();
        let zeros = [0.0, -0.0, 0.0, -0.0, f32::INFINITY, 0.0];
        for row in [&tied[..], &spread[..], &zeros[..], &tied[..3], &[][..]] {
            let n = row.len();
            // `k` below, at and past the `n − 1` candidates a row has.
            for k in [
                0,
                1,
                2,
                8,
                n.saturating_sub(2),
                n.saturating_sub(1),
                n,
                n + 3,
            ] {
                for skip in [None, Some(0), Some(n / 2), Some(n.saturating_sub(1))] {
                    assert_eq!(
                        top_k_of_row(row, k, skip),
                        top_k_by_sorting(row, k, skip),
                        "n={n} k={k} skip={skip:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "never NaN")]
    fn selection_panics_on_a_nan_distance() {
        top_k_of_row(&[1.0, f32::NAN, 0.5], 2, None);
    }

    #[test]
    fn recall_metric_behaves() {
        let a = KnnResult {
            indices: vec![vec![1, 2], vec![0, 3]],
            distances: vec![vec![0.0; 2]; 2],
        };
        let b = KnnResult {
            indices: vec![vec![2, 9], vec![0, 3]],
            distances: vec![vec![0.0; 2]; 2],
        };
        assert_eq!(recall(&a, &a.clone()), 1.0);
        assert_eq!(recall(&a, &b), 0.75);
    }

    #[test]
    fn distance_matrix_is_symmetric_via_addnorm() {
        let pts = generate(24, 11);
        let bt = pts.transposed();
        let c = Matrix::zeros(24, 24);
        let d = ReferenceBackend::new()
            .mmo(OpKind::PlusNorm, &pts, &bt, &c)
            .unwrap();
        for i in 0..24 {
            assert!(d[(i, i)].abs() < 1e-5);
            for j in 0..24 {
                assert!((d[(i, j)] - d[(j, i)]).abs() < 1e-4);
            }
        }
    }
}
