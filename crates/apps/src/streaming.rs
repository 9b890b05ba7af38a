//! Streaming graph updates — incremental closure maintenance with
//! sparse delta operands (the §6.5 sparsity story as a *workload*).
//!
//! A long-lived service rarely recomputes an all-pairs closure from
//! scratch: edges arrive in batches and the closure is *maintained*.
//! Each batch's delta adjacency `E` is extremely sparse (a handful of
//! new edges over `n²` cells), which is exactly the operand shape the
//! engine's row walks exist for. The update loop declares nothing: the
//! engine measures each step's operands and decides, step by step,
//! whether walking them sparse pays.
//!
//! # The update rule
//!
//! With `X` the current closure (diagonal at the combine identity) and
//! `E` the new-edge delta, each relaxation round executes two MMOs:
//!
//! ```text
//! T  = FILL ⊕ (X ⊗ E)     // best known path, then one new edge
//! X' = X    ⊕ (T ⊗ X)     // ... then the best known continuation
//! ```
//!
//! `T` is non-trivial only in the columns some new edge enters, so it
//! is sparse too. Round `t` covers every path using up to `t` new
//! edges (`X` keeps identity diagonals, so
//! shorter compositions are covered too); values move monotonically
//! under the reduction, hence the fixpoint is the closure of the
//! updated graph and the loop stops the first round `X'` equals `X`
//! bit for bit. Correctness is validated against a full
//! [`blocked_floyd_warshall`] recompute of the final graph.
//!
//! Two algebras are wired into the registry
//! ([`crate::AppKind::StreamingApsp`] and
//! [`crate::AppKind::StreamingBfs`]): min-plus distance maintenance and
//! or-and reachability maintenance — the same two ends of the algebra
//! spectrum the static APSP/GTC apps cover.

use simd2::{Backend, Plan, PlanBuilder};
use simd2_matrix::{gen, Matrix};
use simd2_semiring::OpKind;

use crate::apsp::blocked_floyd_warshall;

/// Default number of insertion batches for registry-driven runs.
pub const DEFAULT_BATCHES: usize = 3;

/// Relaxation rounds after which a batch gives up (each round doubles
/// the new-edge count a path may use, so real workloads converge in
/// `O(log |E_new|)` rounds — the cap only guards against bugs).
pub const MAX_ROUNDS: usize = 64;

/// A streaming workload: a base graph plus a sequence of edge-insertion
/// batches, all in adjacency form under one path algebra.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamingWorkload {
    /// The closure algebra (`MinPlus` or `OrAnd`).
    pub op: OpKind,
    /// Base adjacency (diagonal at the combine identity).
    pub base: Matrix,
    /// Per-batch delta adjacencies: new edge weights where an edge was
    /// inserted, the algebra's no-edge sentinel everywhere else.
    pub deltas: Vec<Matrix>,
}

impl StreamingWorkload {
    /// Problem dimension.
    pub fn dimension(&self) -> usize {
        self.base.rows()
    }

    /// Edges inserted across all batches (counted per non-sentinel
    /// delta cell).
    pub fn inserted_edges(&self) -> usize {
        let zero = self.op.no_edge_f32().expect("streaming op has no-edge");
        self.deltas
            .iter()
            .map(|d| d.as_slice().iter().filter(|&&v| v != zero).count())
            .sum()
    }

    /// The final adjacency with every batch folded in under the
    /// algebra's reduction (parallel edges resolve exactly like the
    /// graph generators resolve them).
    pub fn final_adjacency(&self) -> Matrix {
        let mut adj = self.base.clone();
        for delta in &self.deltas {
            for (cell, &e) in adj.as_mut_slice().iter_mut().zip(delta.as_slice()) {
                *cell = self.op.reduce_f32(*cell, e);
            }
        }
        adj
    }
}

/// splitmix64 — the deterministic stream the delta generator draws from.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Workload generator: a seeded base graph (average out-degree ≈ 4 plus
/// a Hamiltonian backbone so every pair is reachable) and `batches`
/// waves of `max(1, n/8)` random edge insertions.
///
/// Weights are small integers (backbone 4, inserted/base edges 1..=8),
/// so every finite min-plus distance stays an fp16-exact integer at the
/// dimensions the registry serves.
///
/// # Panics
///
/// Panics unless `op` is `MinPlus` or `OrAnd`.
pub fn generate(op: OpKind, n: usize, batches: usize, seed: u64) -> StreamingWorkload {
    assert!(
        matches!(op, OpKind::MinPlus | OpKind::OrAnd),
        "streaming workloads are defined for MinPlus and OrAnd, not {op}"
    );
    let zero = op.no_edge_f32().expect("path algebra");
    let p = (4.0 / n as f64).min(0.5);
    let mut g = match op {
        OpKind::MinPlus => gen::integer_weight_graph(n, p, 8, seed),
        _ => gen::gnp_graph(n, p, 1.0, 2.0, seed),
    };
    for v in 0..n {
        g.add_edge(v, (v + 1) % n, 4.0);
    }
    let base = g.adjacency(op);
    let per_batch = (n / 8).max(1);
    let deltas = (0..batches)
        .map(|batch| {
            let mut delta = Matrix::filled(n, n, zero);
            let mut placed = 0;
            let mut draw = 0u64;
            while placed < per_batch {
                let h = mix(seed ^ mix(batch as u64 + 1) ^ draw);
                draw += 1;
                let s = (h % n as u64) as usize;
                let d = ((h >> 16) % n as u64) as usize;
                if s == d {
                    continue;
                }
                let w = match op {
                    OpKind::MinPlus => 1.0 + ((h >> 32) % 8) as f32,
                    _ => 1.0,
                };
                delta[(s, d)] = op.reduce_f32(delta[(s, d)], w);
                placed += 1;
            }
            delta
        })
        .collect();
    StreamingWorkload { op, base, deltas }
}

/// Baseline oracle: a full [`blocked_floyd_warshall`] recompute over
/// the final (post-insertion) adjacency — the "throw the stream away
/// and re-close" strategy the incremental loop must match exactly.
pub fn baseline(w: &StreamingWorkload) -> Matrix {
    blocked_floyd_warshall(w.op, &w.final_adjacency(), 32)
}

/// Counters from one streaming run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamingStats {
    /// Insertion batches applied.
    pub batches: usize,
    /// MMOs spent closing the base graph (repeated squaring).
    pub closure_steps: usize,
    /// Relaxation rounds across all batches (two MMOs each).
    pub rounds: usize,
    /// Total MMOs executed (`closure_steps + 2 * rounds`).
    pub steps: usize,
    /// Whether every phase reached its bit-stable fixpoint within
    /// [`MAX_ROUNDS`].
    pub converged: bool,
}

fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// SIMD²-ized streaming closure: closes the base graph by repeated
/// squaring, then folds in each insertion batch with the two-MMO delta
/// relaxation of the [module docs](self).
///
/// # Panics
///
/// Panics on internal shape errors.
pub fn simd2<B: Backend>(backend: &mut B, w: &StreamingWorkload) -> (Matrix, StreamingStats) {
    let op = w.op;
    let zero = op.no_edge_f32().expect("streaming op has no-edge");
    let n = w.base.rows();
    let mut stats = StreamingStats {
        converged: true,
        ..StreamingStats::default()
    };

    // Phase 1: close the base graph (Leyzorek-style squaring; the
    // final confirming square doubles as the convergence witness).
    let mut x = w.base.clone();
    let mut settled = false;
    for _ in 0..MAX_ROUNDS {
        let next = backend.mmo(op, &x, &x, &x).expect("square operands");
        stats.closure_steps += 1;
        stats.steps += 1;
        let done = bits_equal(&next, &x);
        x = next;
        if done {
            settled = true;
            break;
        }
    }
    stats.converged &= settled;

    // Phase 2: stream the insertion batches.
    let fill = Matrix::filled(n, n, zero);
    for delta in &w.deltas {
        stats.batches += 1;
        let mut settled = false;
        for _ in 0..MAX_ROUNDS {
            // T = FILL ⊕ (X ⊗ E): finite only in columns a new edge
            // enters.
            let t = backend.mmo(op, &x, delta, &fill).expect("square operands");
            // X' = X ⊕ (T ⊗ X).
            let next = backend.mmo(op, &t, &x, &x).expect("square operands");
            stats.rounds += 1;
            stats.steps += 2;
            let done = bits_equal(&next, &x);
            x = next;
            if done {
                settled = true;
                break;
            }
        }
        stats.converged &= settled;
    }
    (x, stats)
}

/// Like [`simd2()`], but records the run's exact MMO sequence as a
/// replayable [`Plan`].
///
/// # Panics
///
/// Panics on internal shape errors.
pub fn record<B: Backend>(
    backend: &mut B,
    w: &StreamingWorkload,
) -> (Matrix, StreamingStats, Plan) {
    let mut rec = PlanBuilder::over(backend);
    let (x, stats) = simd2(&mut rec, w);
    (x, stats, rec.finish())
}

// The forced tile chain the tests hold the engine's walks to.
#[cfg(test)]
#[path = "../../core/tests/pools/chain.rs"]
mod chain;

#[cfg(test)]
mod tests {
    use super::chain::ChainOnly;
    use super::*;
    use simd2::backend::{ReferenceBackend, TiledBackend};
    use simd2::{Parallelism, PassPipeline, PlanExecutor};
    use simd2_mxu::{PrecisionMode, Simd2Unit};

    fn assert_bits(tag: &str, got: &Matrix, want: &Matrix) {
        assert_eq!(got.shape(), want.shape(), "{tag}");
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{tag} cell {i}: {g} vs {w}");
        }
    }

    #[test]
    fn generator_is_deterministic_and_inserts_edges() {
        let a = generate(OpKind::MinPlus, 32, 3, 7);
        let b = generate(OpKind::MinPlus, 32, 3, 7);
        assert_eq!(a, b);
        assert_eq!(a.deltas.len(), 3);
        assert!(a.inserted_edges() >= 3, "{}", a.inserted_edges());
        assert_ne!(a, generate(OpKind::MinPlus, 32, 3, 8));
    }

    #[test]
    fn incremental_minplus_matches_a_full_recompute() {
        let w = generate(OpKind::MinPlus, 40, 3, 11);
        let want = baseline(&w);
        let (got, stats) = simd2(&mut ReferenceBackend::new(), &w);
        assert!(stats.converged);
        assert_eq!(stats.batches, 3);
        assert!(stats.rounds >= 3, "every batch runs at least one round");
        assert_bits("minplus", &got, &want);
    }

    #[test]
    fn incremental_orand_matches_a_full_recompute() {
        let w = generate(OpKind::OrAnd, 40, 3, 5);
        let want = baseline(&w);
        let (got, stats) = simd2(&mut ReferenceBackend::new(), &w);
        assert!(stats.converged);
        assert_bits("orand", &got, &want);
    }

    #[test]
    fn integer_weights_stay_exact_on_the_fp16_tiled_backend() {
        for op in [OpKind::MinPlus, OpKind::OrAnd] {
            let w = generate(op, 48, 3, 42);
            let want = baseline(&w);
            let (got, stats) = simd2(&mut TiledBackend::new(), &w);
            assert!(stats.converged, "{op}");
            assert_bits("tiled", &got, &want);
        }
    }

    #[test]
    fn recorded_plan_carries_sparse_slots_and_replays_everywhere() {
        let w = generate(OpKind::MinPlus, 40, 3, 9);
        let mut rec_be = TiledBackend::new();
        let (got, stats, plan) = record(&mut rec_be, &w);
        assert!(stats.converged);
        assert!(rec_be.row_count().sparse_mmos > 0, "delta steps walk");
        assert_eq!(plan.step_count(), stats.steps);

        // The recorded plan replays bit-identically at every worker
        // count — its sparse steps on the row walks, the rest on the
        // tile chain.
        type Replayer = Box<dyn FnMut(&Plan) -> Matrix>;
        let mut targets: Vec<(&str, Replayer)> = vec![
            (
                "tiled sequential",
                Box::new(|p: &Plan| {
                    PlanExecutor::new()
                        .run(p, &mut TiledBackend::new())
                        .expect("replay")
                        .into_final_output()
                        .expect("non-empty")
                }),
            ),
            (
                "tiled, 4 workers",
                Box::new(|p: &Plan| {
                    PlanExecutor::new()
                        .run(
                            p,
                            &mut TiledBackend::with_parallelism(Parallelism::Threads(4)),
                        )
                        .expect("replay")
                        .into_final_output()
                        .expect("non-empty")
                }),
            ),
        ];
        for (tag, run) in &mut targets {
            assert_bits(tag, &run(&plan), &got);
        }

        // The pass pipeline never moves a bit of the final output.
        let optimized = PassPipeline::standard().run(plan).into_plan();
        for (tag, run) in &mut targets {
            assert_bits(&format!("optimized {tag}"), &run(&optimized), &got);
        }
    }

    #[test]
    fn declaring_the_deltas_never_moves_a_bit_and_walks_only_where_it_pays() {
        let fp32 = || TiledBackend::with_unit(Simd2Unit::with_precision(PrecisionMode::Fp32Input));
        for op in [OpKind::MinPlus, OpKind::OrAnd] {
            for n in [64, 128] {
                let w = generate(op, n, DEFAULT_BATCHES, 7);
                let tag = format!("{op} n={n}");
                let mut engine = TiledBackend::new();
                let (got, stats) = simd2(&mut engine, &w);
                assert!(stats.converged, "{tag}");
                let mut chain = TiledBackend::with_unit(ChainOnly(Simd2Unit::new()));
                let (want, _) = simd2(&mut chain, &w);
                assert_bits(&tag, &got, &want);
                assert_eq!(engine.op_count(), chain.op_count(), "{tag}");
                let (full, _) = simd2(&mut fp32(), &w);
                let (oracle, _) = simd2(&mut ReferenceBackend::new(), &w);
                assert_bits(&format!("{tag} fp32"), &full, &oracle);
                // The engine, not the app, decides: min-plus walks its
                // deltas; or-and's bit-mask chain folds every `T ⊗ X`
                // (`tests/streaming_walks.rs` pins every step at
                // `n = 256`).
                let walked = engine.row_count().sparse_mmos;
                if op == OpKind::MinPlus {
                    assert!(walked > 0, "{tag}");
                } else {
                    assert!(
                        walked <= (stats.closure_steps + stats.rounds) as u64,
                        "{tag}"
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_backend_actually_takes_its_csr_kernels() {
        let w = generate(OpKind::MinPlus, 40, 2, 3);
        let mut be = TiledBackend::new();
        let (got, _) = simd2(&mut be, &w);
        assert_bits("eager sparse", &got, &baseline(&w));
        let counts = be.row_count();
        assert!(
            counts.sparse_mmos > 0,
            "T ⊗ X must route through a compressed kernel: {counts:?}"
        );
        assert!(
            counts.skipped_terms > 0,
            "CSR execution skips annihilator terms: {counts:?}"
        );
    }
}
