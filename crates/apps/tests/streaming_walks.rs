//! Which steps of the streaming apps the engine row-walks, and what a
//! walk folds.
//!
//! `streaming::simd2` declares `E` (a batch's `n / 8` new edges) and
//! `T = FILL ⊕ (X ⊗ E)` under CSR. At `n = 256` the walk-or-chain rule
//! (`rows::row_kernel`) walks:
//!
//! * `X ⊗ E` — a dense `X` row scattering `E`'s stored entries — for
//!   both algebras: a dense walk looks up only the `E` rows that store
//!   something, so the step folds exactly `256 × stored(E)` terms;
//! * `T ⊗ X` — `T`'s stored entries swept over `X` — for min-plus only:
//!   `T` stores ≈ a tenth of its entries, inside the float chains' walk
//!   bound and outside or-and's, whose chain folds bit masks;
//! * never the undeclared squarings that close the base graph.
//!
//! Every step, walked or not, must equal the same step undeclared on
//! the tile chain and on [`ReferenceBackend`] bit for bit, at one worker
//! and at two (where it is checked against the one-worker run's bits).
//! The engine's `RowCount` is per backend, so the probe reads its deltas
//! one step at a time.

use simd2::backend::{MmoArgs, OpCount, ReferenceBackend, Schedule, TiledBackend};
use simd2::{Backend, BackendError, Parallelism};
use simd2_apps::streaming;
use simd2_matrix::Matrix;
use simd2_mxu::PrecisionMode;
use simd2_semiring::OpKind;

/// The three step shapes `streaming::simd2` issues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    /// `X ⊗ X`, nothing declared: closing the base graph.
    Square,
    /// `X ⊗ E`, `E` declared.
    XE,
    /// `T ⊗ X`, `T` declared.
    TX,
}

/// What one step did on the declared side.
struct Seen {
    shape: Shape,
    walked: bool,
    folded: u64,
    stored_b: u64,
}

/// Runs every step declared on one engine and checks its bits: against
/// the step stripped of its declarations on a second engine and on the
/// reference when `want` is empty (and then records them there), else
/// against the `want` a first run recorded — the same steps, whatever
/// the worker count. Logs what the declared step did.
struct Probe {
    declared: TiledBackend,
    stripped: TiledBackend,
    reference: ReferenceBackend,
    want: Vec<Vec<u32>>,
    checking: bool,
    seen: Vec<Seen>,
}

impl Probe {
    fn new(workers: usize, want: Vec<Vec<u32>>) -> Self {
        let engine = || {
            let mut be = TiledBackend::new();
            be.set_parallelism(Parallelism::Threads(workers));
            be
        };
        Self {
            declared: engine(),
            stripped: engine(),
            reference: ReferenceBackend::new(),
            checking: !want.is_empty(),
            want,
            seen: Vec::new(),
        }
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

impl Backend for Probe {
    fn name(&self) -> &'static str {
        "streaming walk probe"
    }

    fn precision(&self) -> PrecisionMode {
        self.declared.precision()
    }

    fn execute(&mut self, step: &MmoArgs<'_>, schedule: Schedule) -> Result<Matrix, BackendError> {
        let before = self.declared.row_count();
        let got = self.declared.execute(step, schedule)?;
        let after = self.declared.row_count();
        let shape = match (step.reprs[0].is_dense(), step.reprs[1].is_dense()) {
            (true, true) => Shape::Square,
            (true, false) => Shape::XE,
            (false, true) => Shape::TX,
            (false, false) => unreachable!("the app declares one operand a step"),
        };
        let step_no = self.seen.len();
        if self.checking {
            assert_eq!(
                bits(&got),
                self.want[step_no],
                "step {step_no} ({shape:?}) vs the first run"
            );
        } else {
            // An undeclared step is the chain's own: the final closure
            // checks those against the reference.
            if shape != Shape::Square {
                let bare = MmoArgs::new(step.op, step.a, step.b, step.c);
                let chain = self.stripped.execute(&bare, schedule)?;
                assert_eq!(
                    bits(&got),
                    bits(&chain),
                    "step {step_no} ({shape:?}) vs the chain"
                );
                let reference = self.reference.execute(&bare, schedule)?;
                assert_eq!(
                    bits(&got),
                    bits(&reference),
                    "step {step_no} ({shape:?}) vs the reference"
                );
            }
            self.want.push(bits(&got));
        }
        let zero = step.op.no_edge_f32().expect("path algebra");
        self.seen.push(Seen {
            shape,
            walked: after.sparse_mmos > before.sparse_mmos,
            folded: after.fma_terms - before.fma_terms,
            stored_b: step.b.as_slice().iter().filter(|&&x| x != zero).count() as u64,
        });
        Ok(got)
    }

    fn op_count(&self) -> OpCount {
        self.declared.op_count()
    }

    fn reset_count(&mut self) {
        self.declared.reset_count();
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
                let walks = match s.shape {
                    Shape::Square => false,
                    Shape::XE => true,
                    Shape::TX => op == OpKind::MinPlus,
                };
                assert_eq!(s.walked, walks, "{ctx}");
                if s.walked && s.shape == Shape::XE {
                    assert_eq!(s.folded, N as u64 * s.stored_b, "{ctx}");
                }
            }
            want = probe.want;
        }
    }
}
