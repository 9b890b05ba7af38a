//! The Fig 13 pruning experiment, and a preset over the one engine.
//!
//! Sparse execution lives in the core engine: [`simd2::TiledBackend`]
//! measures each step's operands and lowers a sparse step to a row walk
//! itself (`simd2::backend`, DESIGN.md §8 and §12). What
//! is left here is
//!
//! * [`SparseTiledBackend`] — a newtype over `TiledBackend` that only
//!   spells a preset (an fp32-input unit unless reduced precision is
//!   asked for) under the names the repo benchmark's `sparse-mmo`
//!   workload was written against; new code constructs a
//!   `TiledBackend` directly, and the type goes when that workload is
//!   retargeted;
//! * the Fig 13 quality experiment — `A` forced through 2:4 magnitude
//!   pruning, losses measured honestly
//!   ([`SparseTiledBackend::mmo_pruned`], [`pruning_quality`]). It
//!   *changes the answer* when `A` is non-compliant, so it is not an
//!   engine path.

use simd2::{
    Backend, BackendError, Degrade, Health, MmoArgs, OpCount, Parallelism, RowCount, Schedule,
    TiledBackend,
};
use simd2_matrix::structured::{prune_2_4, Compressed24};
use simd2_matrix::{reference, Matrix, ShapeError};
use simd2_mxu::{PrecisionMode, Simd2Unit};
use simd2_semiring::OpKind;

/// [`TiledBackend`] over an fp32-input unit (fp16 with
/// [`with_reduced_precision`](Self::with_reduced_precision)), plus the
/// Fig 13 pruned-operand experiment. Every [`Backend`] method forwards
/// to the engine.
///
/// # Example
///
/// ```
/// use simd2::Backend;
/// use simd2_matrix::Matrix;
/// use simd2_semiring::OpKind;
/// use simd2_sparse::backend::SparseTiledBackend;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]); // violates 2:4
/// let b = Matrix::filled(4, 1, 1.0);
/// let c = Matrix::zeros(1, 1);
/// let mut be = SparseTiledBackend::new();
///
/// // The trait datapath is exact: no silent pruning.
/// let d = be.mmo(OpKind::PlusMul, &a, &b, &c)?;
/// assert_eq!(d[(0, 0)], 10.0);
///
/// // The Fig 13 experiment prunes `A` to 2:4 first: 3·1 + 4·1.
/// let d = be.mmo_pruned(OpKind::PlusMul, &a, &b, &c).unwrap();
/// assert_eq!(d[(0, 0)], 7.0);
/// assert_eq!(be.pruned_values(), 2);
/// # Ok::<(), simd2::BackendError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SparseTiledBackend {
    engine: TiledBackend,
    /// Operand values discarded by 2:4 pruning across all
    /// [`mmo_pruned`](Self::mmo_pruned) calls.
    pruned_values: u64,
}

impl Default for SparseTiledBackend {
    fn default() -> Self {
        Self {
            engine: TiledBackend::with_unit(Simd2Unit::with_precision(PrecisionMode::Fp32Input)),
            pruned_values: 0,
        }
    }
}

impl SparseTiledBackend {
    /// The engine over an fp32-input unit, sequential schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the engine's [`Parallelism`].
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.engine.set_parallelism(parallelism);
        self
    }

    /// Swaps in an fp16-input unit (`true`) or an fp32-input one — the
    /// unit's [`PrecisionMode`] is the engine's one spelling of operand
    /// precision.
    pub fn with_reduced_precision(mut self, reduced: bool) -> Self {
        let precision = if reduced {
            PrecisionMode::Fp16Input
        } else {
            PrecisionMode::Fp32Input
        };
        let parallelism = self.engine.parallelism();
        self.engine = TiledBackend::with_unit(Simd2Unit::with_precision(precision));
        self.engine.set_parallelism(parallelism);
        self
    }

    /// The engine's row-walk counters ([`TiledBackend::row_count`]).
    pub fn sparse_count(&self) -> RowCount {
        self.engine.row_count()
    }

    /// Operand values discarded by 2:4 pruning so far.
    pub fn pruned_values(&self) -> u64 {
        self.pruned_values
    }

    /// Executes `D = C ⊕ (A|₂:₄ ⊗ B)`: `A` is pruned to 2:4 structure
    /// (round-tripped through the compressed format, as the hardware
    /// would consume it), then the engine computes as usual on the
    /// decompressed operand (the sparse pipe computes the same values in
    /// half the cycles) — the Fig 13 experiment, which *changes the
    /// answer* when `A` is non-compliant and is therefore not part of
    /// the [`Backend`] contract.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when operand shapes are incompatible.
    pub fn mmo_pruned(
        &mut self,
        op: OpKind,
        a: &Matrix,
        b: &Matrix,
        c: &Matrix,
    ) -> Result<Matrix, ShapeError> {
        reference::check_mmo_shapes(a, b, c)?;
        let zero = op.no_edge_f32().unwrap_or(0.0);
        let stored = |m: &Matrix| m.as_slice().iter().filter(|&&x| x != zero).count();
        let compressed = Compressed24::compress(&prune_2_4(a, op), zero)
            .expect("prune_2_4 output is always compliant");
        self.pruned_values += (stored(a) - compressed.nnz()) as u64;
        Ok(self
            .engine
            .mmo(op, &compressed.decompress(), b, c)
            .expect("shapes were checked above"))
    }
}

impl Backend for SparseTiledBackend {
    fn name(&self) -> &'static str {
        self.engine.name()
    }

    fn precision(&self) -> PrecisionMode {
        self.engine.precision()
    }

    fn execute(&mut self, step: &MmoArgs<'_>, schedule: Schedule) -> Result<Matrix, BackendError> {
        self.engine.execute(step, schedule)
    }

    fn health(&self) -> Health {
        self.engine.health()
    }

    fn degrade(&mut self, rung: Degrade) -> bool {
        self.engine.degrade(rung)
    }

    fn op_count(&self) -> OpCount {
        self.engine.op_count()
    }

    fn reset_count(&mut self) {
        self.engine.reset_count();
    }
}

/// Quality of a sparse-pipe closure versus the dense solution: fraction
/// of entries that still agree exactly, and the worst deviation on the
/// finite entries — the §6.5 trade the paper leaves to pre-processing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PruningQuality {
    /// Fraction of matching entries (exact, including infinities).
    pub exact_match_fraction: f64,
    /// Worst absolute deviation over entries finite in both.
    pub max_finite_deviation: f32,
}

/// Compares a sparse-pipe result against the dense oracle.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn pruning_quality(dense: &Matrix, sparse: &Matrix) -> PruningQuality {
    assert_eq!(dense.shape(), sparse.shape());
    let mut matches = 0usize;
    let mut worst = 0.0f32;
    for (a, b) in dense.as_slice().iter().zip(sparse.as_slice()) {
        if a == b {
            matches += 1;
        } else if a.is_finite() && b.is_finite() {
            worst = worst.max((a - b).abs());
        } else {
            worst = f32::INFINITY;
        }
    }
    PruningQuality {
        exact_match_fraction: matches as f64 / dense.len() as f64,
        max_finite_deviation: worst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simd2_matrix::gen;
    use simd2_matrix::structured::is_2_4_compliant;
    use simd2_matrix::Graph;
    use simd2_semiring::ALL_OPS;

    #[test]
    fn dense_trait_path_is_bit_identical_to_reference() {
        // The preset is an fp32-input unit: every op's tile chain is the
        // reference loop bit for bit on operands fp16 would round.
        for (s, &op) in ALL_OPS.iter().enumerate() {
            let a = gen::random_operands_for(op, 9, 7, 100 + s as u64);
            let b = gen::random_operands_for(op, 7, 11, 200 + s as u64);
            let c = gen::random_operands_for(op, 9, 11, 300 + s as u64);
            let got = SparseTiledBackend::new().mmo(op, &a, &b, &c).unwrap();
            let want = reference::mmo(op, &a, &b, &c).unwrap();
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{op}");
        }
        // Everything else forwards to the engine.
        let mut be = SparseTiledBackend::new();
        assert_eq!(be.name(), TiledBackend::new().name());
        assert!(!be.reduced_precision());
        assert!(be.clone().with_reduced_precision(true).reduced_precision());
        let z = Matrix::zeros(2, 2);
        be.mmo(OpKind::PlusMul, &z, &z, &z).unwrap();
        assert_eq!(be.op_count().matrix_mmos, 1);
        assert_eq!(be.health(), TiledBackend::new().health());
        be.reset_count();
        assert_eq!(be.op_count(), OpCount::default());
        assert_eq!(be.sparse_count(), RowCount::default());
    }

    #[test]
    fn force_sequential_demotes_the_pool() {
        let mut be = SparseTiledBackend::new().with_parallelism(Parallelism::Threads(4));
        assert!(be.degrade(Degrade::ForceSequential));
        assert!(!be.degrade(Degrade::ForceSequential), "already sequential");
        // The preset survives a precision swap.
        let mut be = SparseTiledBackend::new()
            .with_parallelism(Parallelism::Threads(4))
            .with_reduced_precision(true);
        assert!(be.degrade(Degrade::ForceSequential));
    }

    #[test]
    fn pruning_count_is_reported() {
        let a = Matrix::filled(4, 8, 1.0); // every group violates 2:4
        let b = Matrix::filled(8, 4, 1.0);
        let c = Matrix::zeros(4, 4);
        let mut be = SparseTiledBackend::new();
        be.mmo_pruned(OpKind::PlusMul, &a, &b, &c).unwrap();
        // 4 rows × 2 groups × 2 pruned each.
        assert_eq!(be.pruned_values(), 16);
        assert_eq!(be.op_count().matrix_mmos, 1);
        assert!(be.op_count().tile_mmos > 0);
    }

    #[test]
    fn dense_compliant_inputs_pass_through_unchanged() {
        // A graph sparse enough to satisfy 2:4 naturally loses nothing.
        let g = gen::gnp_graph(32, 0.03, 1.0, 9.0, 3);
        let adj = g.adjacency(OpKind::MinPlus);
        if !is_2_4_compliant(&adj, f32::INFINITY) {
            return; // rare seed; the property is covered below anyway
        }
        let c = Matrix::filled(32, 32, f32::INFINITY);
        let mut sparse_be = SparseTiledBackend::new();
        let got = sparse_be
            .mmo_pruned(OpKind::MinPlus, &adj, &adj, &c)
            .unwrap();
        let want = simd2_matrix::reference::mmo(OpKind::MinPlus, &adj, &adj, &c).unwrap();
        assert_eq!(got, want);
        assert_eq!(sparse_be.pruned_values(), 0);
    }

    #[test]
    fn pruned_result_is_a_relaxation_for_min_plus() {
        // Dropping edges can only lengthen (or disconnect) shortest
        // paths — never shorten them.
        let g = gen::connected_gnp_graph(24, 0.4, 1.0, 9.0, 7);
        let adj = g.adjacency(OpKind::MinPlus);
        let c = Matrix::filled(24, 24, f32::INFINITY);
        let dense = simd2_matrix::reference::mmo(OpKind::MinPlus, &adj, &adj, &c).unwrap();
        let sparse = SparseTiledBackend::new()
            .mmo_pruned(OpKind::MinPlus, &adj, &adj, &c)
            .unwrap();
        for (d, s) in dense.as_slice().iter().zip(sparse.as_slice()) {
            assert!(s >= d, "pruning shortened a path: {s} < {d}");
        }
    }

    #[test]
    fn quality_metric_bounds() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let same = pruning_quality(&a, &a.clone());
        assert_eq!(same.exact_match_fraction, 1.0);
        assert_eq!(same.max_finite_deviation, 0.0);
        let b = Matrix::from_rows(&[&[1.0, 2.5]]);
        let q = pruning_quality(&a, &b);
        assert_eq!(q.exact_match_fraction, 0.5);
        assert_eq!(q.max_finite_deviation, 0.5);
        let inf = Matrix::from_rows(&[&[1.0, f32::INFINITY]]);
        assert_eq!(
            pruning_quality(&a, &inf).max_finite_deviation,
            f32::INFINITY
        );
    }

    #[test]
    fn compliant_graph_closure_is_bit_identical_on_the_sparse_pipe() {
        // A graph whose rows are 2:4-compliant by construction (diagonal
        // plus edges to v+1 and v+17: at most two entries per aligned
        // group) passes through pruning untouched, so the sparse pipe's
        // closure is bit-identical to the dense one — the regime the
        // paper's "inputs are pre-processed" assumption targets.
        let n = 48;
        let mut g = Graph::new(n);
        for v in 0..n {
            g.add_edge(v, (v + 1) % n, 1.0 + (v % 7) as f32);
            g.add_edge(v, (v + 17) % n, 2.0 + (v % 5) as f32);
        }
        let adj = g.adjacency(OpKind::MinPlus);
        assert!(is_2_4_compliant(&adj, f32::INFINITY));
        let run = |sparse: bool| {
            let mut dist = adj.clone();
            for _ in 0..n {
                let next = if sparse {
                    SparseTiledBackend::new()
                        .mmo_pruned(OpKind::MinPlus, &adj, &dist, &dist)
                        .unwrap()
                } else {
                    simd2_matrix::reference::mmo(OpKind::MinPlus, &adj, &dist, &dist).unwrap()
                };
                if next == dist {
                    break;
                }
                dist = next;
            }
            dist
        };
        let dense = run(false);
        let sparse = run(true);
        let q = pruning_quality(&dense, &sparse);
        assert_eq!(q.exact_match_fraction, 1.0);
        assert_eq!(q.max_finite_deviation, 0.0);
    }

    #[test]
    fn noncompliant_graph_closure_quality_is_measured_honestly() {
        // On a denser graph, 2:4 pruning drops real edges; distances can
        // only grow, and the quality metric reports how many pairs moved.
        let g = {
            let mut g = Graph::new(48);
            let base = gen::gnp_graph(48, 4.0 / 48.0, 2.0, 9.0, 11);
            for (s, d, w) in base.edges() {
                g.add_edge(s, d, w);
            }
            for v in 0..48 {
                g.add_edge(v, (v + 1) % 48, 1.0);
            }
            g
        };
        let adj = g.adjacency(OpKind::MinPlus);
        let run = |sparse: bool| {
            let mut dist = adj.clone();
            for _ in 0..48 {
                let next = if sparse {
                    SparseTiledBackend::new()
                        .mmo_pruned(OpKind::MinPlus, &adj, &dist, &dist)
                        .unwrap()
                } else {
                    simd2_matrix::reference::mmo(OpKind::MinPlus, &adj, &dist, &dist).unwrap()
                };
                if next == dist {
                    break;
                }
                dist = next;
            }
            dist
        };
        let dense = run(false);
        let sparse = run(true);
        let q = pruning_quality(&dense, &sparse);
        // The backbone (smallest weights) survives pruning, so everything
        // stays reachable; a meaningful fraction of distances still agree
        // and none improved.
        assert!(q.exact_match_fraction > 0.4, "{}", q.exact_match_fraction);
        assert!(q.max_finite_deviation.is_finite(), "no pair disconnected");
        // Distances never improve beyond fp16 operand-requantisation
        // noise (the sparse path quantises `dist` each iteration).
        for (d, sp) in dense.as_slice().iter().zip(sparse.as_slice()) {
            assert!(*sp >= d - 0.05 * d.abs(), "{sp} < {d}");
        }
    }
}
