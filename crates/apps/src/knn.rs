//! K-nearest neighbours (KNN) — plus-norm (pairwise squared L2).
//!
//! * Baseline: brute-force per-query distance scan with selection (the
//!   kNN-CUDA structure).
//! * SIMD²: the whole pairwise distance matrix via one `simd2.addnorm`
//!   matrix operation (`D[q][r] = Σ_d (Q[q,d] − R[d,r])²`), then top-k
//!   selection per row.

use simd2::Backend;
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

/// Groups [`top_k_of_row`] takes one minimum of: candidate `i` is in
/// group `i % GROUPS`, so one pass folds a whole run of `GROUPS`
/// candidates into the minima lane by lane, with no dependence between
/// lanes, and the bound pass tests a run with one OR of compares.
const GROUPS: usize = 64;

/// The `k` candidates of `row` nearest in (distance, index) order, by a
/// threshold pass. One branch-free pass takes the minimum of every
/// group of candidates ([`GROUPS`], interleaved). Where more than `k`
/// groups hold a candidate, at least `k + 1` of them hold an element no
/// farther than the `(k + 1)`-th smallest of those minima, so at least
/// `k` candidates other than `skip` are that near, and the `k` nearest
/// are among them — whatever the partition into groups. A second pass
/// collects every candidate at or below that bound — a handful on a
/// typical row: a run of `GROUPS` is turned into a compare mask, whose
/// set bits are pushed, only when one OR of compares over it says it
/// holds one, or a NaN — and only those are sorted.
///
/// # Panics
///
/// Panics when a candidate distance is NaN.
fn top_k_of_row(row: &[f32], k: usize, skip: Option<usize>) -> (Vec<usize>, Vec<f32>) {
    if k == 0 {
        return (Vec::new(), Vec::new());
    }
    let (runs, tail) = row.as_chunks::<GROUPS>();
    let mut minima = [f32::INFINITY; GROUPS];
    let mut fold = |run: &[f32]| {
        for (min, &x) in minima.iter_mut().zip(run) {
            // A NaN is never below: the collecting pass finds it.
            *min = if x < *min { x } else { *min };
        }
    };
    runs.iter().for_each(|run| fold(run));
    fold(tail);
    let groups = &mut minima[..row.len().min(GROUPS)];
    let bound = if groups.len() > k {
        *groups.select_nth_unstable_by(k, f32::total_cmp).1
    } else {
        f32::INFINITY
    };
    let mut best = Vec::new();
    let mut collect = |first: usize, run: &[f32]| {
        // At or below the bound, or NaN.
        let near = |x: f32| (x <= bound) | x.is_nan();
        if !run.iter().fold(false, |any, &x| any | near(x)) {
            return;
        }
        let mut mask = (0..)
            .zip(run)
            .fold(0u64, |mask, (j, &x)| mask | u64::from(near(x)) << j);
        while mask != 0 {
            let i = first + mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if Some(i) != skip {
                assert!(!row[i].is_nan(), "KNN distances are never NaN");
                best.push(i);
            }
        }
    };
    for (r, run) in runs.iter().enumerate() {
        collect(r * GROUPS, run);
    }
    collect(runs.len() * GROUPS, tail);
    // `±0` compare equal, as in the full sort: a tie goes by index.
    let nearer = |&a: &usize, &b: &usize| row[a].partial_cmp(&row[b]).map(|o| o.then(a.cmp(&b)));
    best.sort_unstable_by(|a, b| nearer(a, b).expect("collected distances are not NaN"));
    best.truncate(k);
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
        // 1024 candidates: ties within and across runs of 16 (each
        // run's minimum sits at its last index and again at the next
        // run's first, so groups share minima), `±0` and `∞` among them.
        let wide: Vec<f32> = (0..1024)
            .map(|i| match i % 16 {
                0 | 15 => ((i / 16 + i % 16 / 15) % 12) as f32,
                7 if i % 3 == 0 => -0.0,
                9 => f32::INFINITY,
                _ => 20.0 + ((i * 29) % 41) as f32,
            })
            .collect();
        let spread = |n: usize| -> Vec<f32> {
            (0..n)
                .map(|i| ((i * 7919) % 1009 / 3) as f32 * 0.25)
                .collect()
        };
        let (spread_1000, spread_129) = (spread(1000), spread(129));
        for row in [&wide[..], &spread_1000[..], &spread_129[..]] {
            for k in [1, 2, 8, 15, 16, 17, 63, 64, 65] {
                // The group that sets the bound, and its nearest candidate.
                let mut minima = [f32::INFINITY; GROUPS];
                for (i, &x) in row.iter().enumerate() {
                    minima[i % GROUPS] = minima[i % GROUPS].min(x);
                }
                let mut sorted = minima.to_vec();
                sorted.sort_by(f32::total_cmp);
                let at = sorted.get(k).map(|bound| {
                    let group = minima.iter().position(|m| m == bound).unwrap();
                    (group..row.len())
                        .step_by(GROUPS)
                        .find(|&i| row[i] == *bound)
                        .unwrap()
                });
                for skip in [None, Some(0), at, at.map(|i| i + 1), Some(row.len() - 1)] {
                    assert_eq!(
                        top_k_of_row(row, k, skip),
                        top_k_by_sorting(row, k, skip),
                        "n={} k={k} skip={skip:?}",
                        row.len()
                    );
                }
            }
        }
        // Lengths that are no whole number of runs, and rows holding no
        // more than `k` groups (every candidate is collected) or just
        // one more.
        for n in [9, 63, 64, 65, 70, 127, 130] {
            let row = spread(n);
            for k in [8, 9, 62, 63, 64, 65, 69, 70] {
                for skip in [None, Some(0), Some(n / 2), Some(n - 1)] {
                    assert_eq!(
                        top_k_of_row(&row, k, skip),
                        top_k_by_sorting(&row, k, skip),
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
