//! The high-level SIMD² interface (paper §4, Figure 6).
//!
//! "These high-level functions allow the programmer to simply specify the
//! memory locations of datasets and implicitly handle the
//! tiling/partitioning of datasets and algorithms." Here each function
//! accepts whole matrices of arbitrary shape, tiles them to the hardware's
//! 16×16 granularity with algebra-appropriate padding, and streams the
//! tiles through the functional SIMD² backend.
//!
//! ```
//! use simd2::highlevel::simd2_minplus;
//! use simd2_matrix::Matrix;
//!
//! // One Bellman-Ford relaxation step on a 3-vertex graph.
//! let adj = Matrix::from_rows(&[
//!     &[0.0, 1.0, f32::INFINITY],
//!     &[f32::INFINITY, 0.0, 2.0],
//!     &[f32::INFINITY, f32::INFINITY, 0.0],
//! ]);
//! let d = simd2_minplus(&adj, &adj, &adj)?;
//! assert_eq!(d[(0, 2)], 3.0); // 0→1→2 discovered
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use simd2_matrix::Matrix;
use simd2_semiring::OpKind;

use crate::backend::{Backend, OpCount, Parallelism, TiledBackend};
use crate::error::BackendError;
use crate::plan::PlanBuilder;

/// A reusable high-level execution context: one tiled SIMD² engine, its
/// [`Parallelism`] setting, and its accumulated work counters.
///
/// The free functions ([`simd2_mmo`], [`simd2_minplus`], …) construct a
/// fresh sequential context per call; long-lived callers (solvers, app
/// kernels, benchmark harnesses) hold a context so the thread-count knob
/// is set once and counters aggregate across calls. Every setting is
/// bit-identical — parallelism only partitions independent output tiles.
///
/// # Example
///
/// ```
/// use simd2::highlevel::Simd2Context;
/// use simd2::Parallelism;
/// use simd2_matrix::Matrix;
/// use simd2_semiring::OpKind;
///
/// let mut ctx = Simd2Context::with_parallelism(Parallelism::Auto);
/// let a = Matrix::filled(32, 32, 1.0);
/// let c = Matrix::filled(32, 32, f32::INFINITY);
/// let d = ctx.mmo(OpKind::MinPlus, &a, &a, &c)?;
/// assert_eq!(d[(0, 0)], 2.0);
/// assert_eq!(ctx.op_count().matrix_mmos, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Simd2Context {
    backend: TiledBackend,
}

impl Simd2Context {
    /// A sequential context over the default fp16-input datapath.
    pub fn new() -> Self {
        Self::default()
    }

    /// A context with the given parallelism setting.
    pub fn with_parallelism(parallelism: Parallelism) -> Self {
        Self {
            backend: TiledBackend::with_parallelism(parallelism),
        }
    }

    /// The current parallelism setting.
    pub fn parallelism(&self) -> Parallelism {
        self.backend.parallelism()
    }

    /// Changes the parallelism of subsequent calls (results unchanged).
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.backend.set_parallelism(parallelism);
    }

    /// Starts recording a [`Plan`](crate::plan::Plan) over this
    /// context's backend: the returned builder is itself a [`Backend`],
    /// so any algorithm written against the trait (the closure solvers,
    /// the Figure-11 apps) runs unmodified while its MMO sequence is
    /// captured. Execution still happens eagerly underneath — outputs,
    /// counters and telemetry are identical to calling
    /// [`mmo`](Self::mmo) directly — and `finish()` yields the plan for
    /// replay, batching, ISA compilation, or timing-model export. To
    /// optimise it, hand the finished plan to
    /// [`PassPipeline::standard`](crate::PassPipeline::standard) and
    /// replay the result with
    /// [`PlanExecutor::run_optimized`](crate::PlanExecutor::run_optimized).
    ///
    /// # Example
    ///
    /// ```
    /// use simd2::{PlanExecutor, Simd2Context};
    /// use simd2::backend::Backend;
    /// use simd2_matrix::Matrix;
    /// use simd2_semiring::OpKind;
    ///
    /// let mut ctx = Simd2Context::new();
    /// let a = Matrix::filled(32, 32, 1.0);
    /// let c = Matrix::filled(32, 32, f32::INFINITY);
    /// let mut rec = ctx.record();
    /// let d = rec.mmo(OpKind::MinPlus, &a, &a, &c)?;
    /// let plan = rec.finish();
    /// assert_eq!(plan.step_count(), 1);
    /// // Replaying the plan reproduces the recorded result bit-for-bit.
    /// let replay = PlanExecutor::new().run(&plan, ctx.backend_mut())?;
    /// assert_eq!(replay.final_output(), Some(&d));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn record(&mut self) -> PlanBuilder<'_, TiledBackend> {
        PlanBuilder::over(&mut self.backend)
    }

    /// The underlying tiled backend, e.g. to replay a recorded plan on
    /// the same engine (counters keep aggregating).
    pub fn backend_mut(&mut self) -> &mut TiledBackend {
        &mut self.backend
    }

    /// Executes `D = C ⊕ (A ⊗ B)` with implicit tiling.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] when operand shapes are incompatible.
    pub fn mmo(
        &mut self,
        op: OpKind,
        a: &Matrix,
        b: &Matrix,
        c: &Matrix,
    ) -> Result<Matrix, BackendError> {
        self.backend.mmo(op, a, b, c)
    }

    /// Work counters accumulated across every call on this context.
    pub fn op_count(&self) -> OpCount {
        self.backend.op_count()
    }

    /// Resets the accumulated work counters.
    pub fn reset_count(&mut self) {
        self.backend.reset_count();
    }
}

/// Generic high-level entry point: `D = C ⊕ (A ⊗ B)` for any of the nine
/// operations, implicit tiling, fp16 operand semantics.
///
/// # Errors
///
/// Returns a [`BackendError`] when operand shapes are incompatible.
pub fn simd2_mmo(op: OpKind, a: &Matrix, b: &Matrix, c: &Matrix) -> Result<Matrix, BackendError> {
    Simd2Context::new().mmo(op, a, b, c)
}

macro_rules! highlevel_fn {
    ($(#[$doc:meta])* $name:ident, $op:expr) => {
        $(#[$doc])*
        ///
        /// # Errors
        ///
        /// Returns a [`BackendError`] when operand shapes are incompatible.
        pub fn $name(a: &Matrix, b: &Matrix, c: &Matrix) -> Result<Matrix, BackendError> {
            simd2_mmo($op, a, b, c)
        }
    };
}

highlevel_fn!(
    /// `D = C + A·B` — matrix-multiply-accumulate.
    simd2_mma,
    OpKind::PlusMul
);
highlevel_fn!(
    /// `D = C min (A minplus B)` — shortest-path relaxation (Figure 6).
    simd2_minplus,
    OpKind::MinPlus
);
highlevel_fn!(
    /// `D = C max (A maxplus B)` — critical-path relaxation.
    simd2_maxplus,
    OpKind::MaxPlus
);
highlevel_fn!(
    /// `D = C min (A minmul B)` — minimum-reliability relaxation.
    simd2_minmul,
    OpKind::MinMul
);
highlevel_fn!(
    /// `D = C max (A maxmul B)` — maximum-reliability relaxation.
    simd2_maxmul,
    OpKind::MaxMul
);
highlevel_fn!(
    /// `D = C min (A minmax B)` — minimax / spanning-tree relaxation.
    simd2_minmax,
    OpKind::MinMax
);
highlevel_fn!(
    /// `D = C max (A maxmin B)` — maximum-capacity relaxation.
    simd2_maxmin,
    OpKind::MaxMin
);
highlevel_fn!(
    /// `D = C ∨ (A orand B)` — transitive-closure step on boolean
    /// matrices encoded as `0.0`/`1.0`.
    simd2_orand,
    OpKind::OrAnd
);
highlevel_fn!(
    /// `D = C + Σₖ (Aᵢₖ − Bₖⱼ)²` — pairwise squared-L2 accumulation.
    simd2_addnorm,
    OpKind::PlusNorm
);

#[cfg(test)]
mod tests {
    use super::*;
    use simd2_matrix::reference;
    use simd2_semiring::ALL_OPS;

    #[test]
    fn named_functions_match_generic_entry() {
        let a = Matrix::from_fn(8, 8, |r, c| ((r + c) % 4) as f32 * 0.5);
        let b = Matrix::from_fn(8, 8, |r, c| ((r * c) % 3) as f32 * 0.25);
        type Hl = fn(&Matrix, &Matrix, &Matrix) -> Result<Matrix, BackendError>;
        let table: [(OpKind, Hl); 9] = [
            (OpKind::PlusMul, simd2_mma),
            (OpKind::MinPlus, simd2_minplus),
            (OpKind::MaxPlus, simd2_maxplus),
            (OpKind::MinMul, simd2_minmul),
            (OpKind::MaxMul, simd2_maxmul),
            (OpKind::MinMax, simd2_minmax),
            (OpKind::MaxMin, simd2_maxmin),
            (OpKind::OrAnd, simd2_orand),
            (OpKind::PlusNorm, simd2_addnorm),
        ];
        for (op, f) in table {
            let c = Matrix::filled(8, 8, op.reduce_identity_f32());
            assert_eq!(
                f(&a, &b, &c).unwrap(),
                simd2_mmo(op, &a, &b, &c).unwrap(),
                "{op}"
            );
        }
    }

    #[test]
    fn arbitrary_shapes_are_tiled_transparently() {
        // 17×23×31 is maximally ragged against the 16-wide tile.
        for op in ALL_OPS {
            let a = Matrix::from_fn(17, 31, |r, c| ((r * 31 + c) % 5) as f32 * 0.25 + 0.25);
            let b = Matrix::from_fn(31, 23, |r, c| ((r * 23 + c) % 7) as f32 * 0.125 + 0.125);
            let c = Matrix::filled(17, 23, op.reduce_identity_f32());
            let got = simd2_mmo(op, &a, &b, &c).unwrap();
            let want = reference::mmo(op, &a, &b, &c).unwrap();
            let tol = match op {
                OpKind::PlusMul | OpKind::PlusNorm => 1e-3,
                _ => 0.0,
            };
            assert!(got.max_abs_diff(&want).unwrap() <= tol, "{op}");
        }
    }

    #[test]
    fn shape_mismatch_errors() {
        let a = Matrix::zeros(4, 4);
        let b = Matrix::zeros(3, 4);
        let c = Matrix::zeros(4, 4);
        assert!(simd2_minplus(&a, &b, &c).is_err());
    }

    #[test]
    fn context_accumulates_counts_and_matches_free_functions() {
        let a = Matrix::from_fn(33, 17, |r, c| ((r + c) % 5) as f32);
        let b = Matrix::from_fn(17, 21, |r, c| ((r * c) % 3) as f32);
        let c = Matrix::filled(33, 21, f32::INFINITY);
        let mut ctx = Simd2Context::with_parallelism(Parallelism::Threads(4));
        assert_eq!(ctx.parallelism(), Parallelism::Threads(4));
        let d1 = ctx.mmo(OpKind::MinPlus, &a, &b, &c).unwrap();
        let d2 = ctx.mmo(OpKind::MinPlus, &a, &b, &c).unwrap();
        assert_eq!(d1, d2);
        assert_eq!(d1, simd2_minplus(&a, &b, &c).unwrap());
        assert_eq!(ctx.op_count().matrix_mmos, 2);
        ctx.reset_count();
        assert_eq!(ctx.op_count(), OpCount::default());
        ctx.set_parallelism(Parallelism::Sequential);
        assert_eq!(ctx.parallelism(), Parallelism::Sequential);
    }
}
