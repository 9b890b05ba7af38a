//! Which steps of the streaming and closure apps the engine row-walks,
//! and what a walk folds.
//!
//! No app declares anything: the engine measures every step's operands
//! (`rows::RowWalk::choose`) and walks where the walk-or-chain rule
//! (`rows::row_kernel`) says a row kernel beats the tile chain — every
//! step but or-and's, which all take the bit walk, whatever they store. Every
//! step, walked or not, must equal the same step on the forced tile
//! chain (a unit that is not coordinate-free, `pools/chain.rs`) and on
//! [`ReferenceBackend`] over the operands as the fp16 quantiser rounds
//! them, bit for bit, at one worker and at two (where it is checked
//! against the one-worker run's bits). The engine's `RowCount` is per
//! backend, so the probe reads its deltas one step at a time.
//!
//! `streaming::simd2` issues three step shapes at `n = 256`; for
//! min-plus the engine walks
//!
//! * `X ⊗ E` — a dense `X` row scattering the batch's `n / 8` new edges:
//!   a dense walk looks up only the `E` rows that store something, so
//!   the step folds exactly `256 × stored(E)` terms;
//! * `T ⊗ X` — `T`'s stored entries swept over `X`: `T` stores ≈ a
//!   tenth of its entries, inside the walk bound;
//! * the first two squarings that close the base graph, while they
//!   store few enough entries.
//!
//! The seven closure apps at `n = 256`, seed 2022, under Leyzorek: the
//! first step — the adjacency squared, a few percent full — walks on
//! the six float apps; the second walks on all but APLP, whose DAG
//! leaves the chain four pairs in five to skip, and MST, whose iterate
//! is already nearly full; the closing steps, nearly full, take the
//! chain. GTC's steps, like streaming BFS's, are all bit walks.

use simd2::backend::{MmoArgs, OpCount, Schedule, TiledBackend};
use simd2::solve::{self, ClosureAlgorithm};
use simd2::{Backend, BackendError, Parallelism};
use simd2_apps::{aplp, apsp, gtc, harness, mst, paths, streaming};
use simd2_matrix::{reference, Matrix};
use simd2_mxu::{PrecisionMode, Simd2Unit};
use simd2_semiring::precision::quantize_f16;
use simd2_semiring::OpKind;

#[path = "../../core/tests/pools/chain.rs"]
mod chain;
use chain::ChainOnly;

/// The three step shapes `streaming::simd2` issues, told apart by which
/// operands are the same matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    /// `X ⊗ X ⊕ X`: closing the base graph (every closure step too).
    Square,
    /// `FILL ⊕ (X ⊗ E)`.
    XE,
    /// `X ⊕ (T ⊗ X)`.
    TX,
}

/// What one step did on the engine.
struct Seen {
    shape: Shape,
    walked: bool,
    on_bits: bool,
    folded: u64,
    stored_b: u64,
}

/// Runs every step on the engine and checks its bits: against the
/// forced chain and the reference when `want` is empty (and then
/// records them), else against the `want` a first run recorded — the
/// same steps, whatever the worker count. Logs what the engine did.
struct Probe {
    engine: TiledBackend,
    chain: TiledBackend<ChainOnly>,
    want: Vec<Vec<u32>>,
    checking: bool,
    seen: Vec<Seen>,
}

impl Probe {
    fn new(workers: usize, want: Vec<Vec<u32>>) -> Self {
        let mut engine = TiledBackend::new();
        engine.set_parallelism(Parallelism::Threads(workers));
        Self {
            engine,
            chain: TiledBackend::with_unit(ChainOnly(Simd2Unit::new())),
            checking: !want.is_empty(),
            want,
            seen: Vec::new(),
        }
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn quantized(m: &Matrix) -> Matrix {
    Matrix::from_fn(m.rows(), m.cols(), |r, c| quantize_f16(m[(r, c)]))
}

impl Backend for Probe {
    fn name(&self) -> &'static str {
        "walk probe"
    }

    fn precision(&self) -> PrecisionMode {
        self.engine.precision()
    }

    fn execute(&mut self, step: &MmoArgs<'_>, schedule: Schedule) -> Result<Matrix, BackendError> {
        let before = self.engine.row_count();
        let got = self.engine.execute(step, schedule)?;
        let after = self.engine.row_count();
        let shape = if std::ptr::eq(step.a, step.b) {
            Shape::Square
        } else if std::ptr::eq(step.b, step.c) {
            Shape::TX
        } else {
            Shape::XE
        };
        let step_no = self.seen.len();
        if self.checking {
            assert_eq!(
                bits(&got),
                self.want[step_no],
                "step {step_no} ({shape:?}) vs the first run"
            );
        } else {
            let chain = self.chain.execute(step, schedule)?;
            assert_eq!(
                bits(&got),
                bits(&chain),
                "step {step_no} ({shape:?}) vs the chain"
            );
            let (qa, qb) = (quantized(step.a), quantized(step.b));
            let want = reference::mmo(step.op, &qa, &qb, step.c)?;
            assert_eq!(
                bits(&got),
                bits(&want),
                "step {step_no} ({shape:?}) vs the reference"
            );
            self.want.push(bits(&got));
        }
        let zero = step.op.no_edge_f32().expect("path algebra");
        self.seen.push(Seen {
            shape,
            walked: after.sparse_mmos > before.sparse_mmos,
            on_bits: after.bit_mmos > before.bit_mmos,
            folded: after.fma_terms - before.fma_terms,
            stored_b: step.b.as_slice().iter().filter(|&&x| x != zero).count() as u64,
        });
        Ok(got)
    }

    fn op_count(&self) -> OpCount {
        self.engine.op_count()
    }

    fn reset_count(&mut self) {
        self.engine.reset_count();
    }
}

#[test]
fn streaming_steps_walk_as_the_rule_says_and_fold_the_bits_of_the_chain() {
    const N: usize = 256;
    for op in [OpKind::MinPlus, OpKind::OrAnd] {
        let w = streaming::generate(op, N, 3, 7);
        let closure = streaming::baseline(&w);
        let mut want = Vec::new();
        for workers in [1, 2] {
            let mut probe = Probe::new(workers, std::mem::take(&mut want));
            let (got, stats) = streaming::simd2(&mut probe, &w);
            let ctx = format!("{op} at {workers} workers");
            assert!(stats.converged, "{ctx}");
            assert_eq!(bits(&got), bits(&closure), "{ctx}: the closure");
            assert_eq!(probe.seen.len(), stats.steps, "{ctx}");
            let count = |shape| probe.seen.iter().filter(|s| s.shape == shape).count();
            assert_eq!(count(Shape::XE), stats.rounds, "{ctx}");
            assert_eq!(count(Shape::TX), stats.rounds, "{ctx}");
            for (i, s) in probe.seen.iter().enumerate() {
                let ctx = format!("{ctx}, step {i} ({:?})", s.shape);
                assert_eq!(s.on_bits, op == OpKind::OrAnd, "{ctx}");
                // The squarings walk while they close few enough pairs.
                let walks = op == OpKind::MinPlus && (s.shape != Shape::Square || i < 2);
                assert_eq!(s.walked, walks, "{ctx}");
                if s.walked && s.shape == Shape::XE {
                    assert_eq!(s.folded, N as u64 * s.stored_b, "{ctx}");
                }
            }
            want = probe.want;
        }
    }
}

#[test]
fn closure_steps_walk_while_their_iterates_are_sparse() {
    let (n, seed) = (256, 2022);
    let apps = [
        (
            "APSP",
            OpKind::MinPlus,
            apsp::generate(n, seed).adjacency(OpKind::MinPlus),
        ),
        (
            "APLP",
            OpKind::MaxPlus,
            aplp::generate(n, seed).adjacency(OpKind::MaxPlus),
        ),
        (
            "MCP",
            OpKind::MaxMin,
            paths::generate_mcp(n, seed).adjacency(OpKind::MaxMin),
        ),
        (
            "MAXRP",
            OpKind::MaxMul,
            paths::generate_maxrp(n, seed).adjacency(OpKind::MaxMul),
        ),
        (
            "MINRP",
            OpKind::MinMul,
            paths::generate_minrp(n, seed).adjacency(OpKind::MinMul),
        ),
        (
            "MST",
            OpKind::MinMax,
            mst::generate(n, harness::MST_EXTRA_DENSITY, seed).adjacency(OpKind::MinMax),
        ),
        ("GTC", OpKind::OrAnd, gtc::generate(n, seed).reachability()),
    ];
    for (app, op, adjacency) in apps {
        let mut want = Vec::new();
        for workers in [1, 2] {
            let mut probe = Probe::new(workers, std::mem::take(&mut want));
            let result =
                solve::closure(&mut probe, op, &adjacency, ClosureAlgorithm::Leyzorek, true)
                    .unwrap();
            let ctx = format!("{app} at {workers} workers");
            assert_eq!(probe.seen.len(), result.stats.matrix_mmos, "{ctx}");
            assert!(probe.seen.len() >= 3, "{ctx}");
            let walked: Vec<bool> = probe.seen.iter().map(|s| s.walked).collect();
            let on_bits = probe
                .seen
                .iter()
                .all(|s| s.on_bits == (op == OpKind::OrAnd));
            assert!(
                on_bits,
                "{ctx}: or-and steps, and only they, take the bit walk"
            );
            let second = !matches!(app, "APLP" | "MST");
            let pattern: Vec<bool> = (0..walked.len())
                .map(|i| op != OpKind::OrAnd && (i == 0 || (i == 1 && second)))
                .collect();
            assert_eq!(walked, pattern, "{ctx}: which steps walk");
            want = probe.want;
        }
    }
}
