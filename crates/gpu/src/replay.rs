//! Plan-replay adapter: drive the [`SmPipeline`]
//! cost model from a recorded sequence of matrix operations.
//!
//! The plan layer in `simd2` records every application's op sequence as
//! shape-level [`MmoTrace`] steps. This module lowers each step to the
//! same per-warp instruction streams the functional kernels execute
//! (load-C / stream-k / store-D over round-robin-partitioned output
//! tiles) and runs them through the cycle-level pipeline model — so the
//! timing layer prices the *recorded* algorithm instead of maintaining a
//! hand-written shadow of each app's iteration structure.
//!
//! `simd2-gpu` sits below `simd2` in the crate graph, so the adapter
//! consumes plain shape records rather than the plan type itself; the
//! plan layer produces them via its `traces()` accessor.

use serde::{Deserialize, Serialize};
use simd2_isa::{Dtype, Instruction, MatrixReg};
use simd2_semiring::OpKind;

use crate::sim::{PipelineStats, SmPipeline};

/// Hardware tile granularity of one ISA-level `simd2.mmo` (matches
/// `simd2_matrix::ISA_TILE`, restated here because the matrix crate sits
/// above this one).
const ISA_TILE: usize = 16;

/// The shape-level record of one matrix `D = C ⊕ (A ⊗ B)` step, as
/// recorded by a plan: the operation and the `m×n×k` geometry. This is
/// all the pipeline model needs — element *values* never affect issue
/// timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MmoTrace {
    /// Semiring operation of the step.
    pub op: OpKind,
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Reduction depth.
    pub k: usize,
}

impl MmoTrace {
    /// A trace record for one `m×n×k` operation.
    pub fn new(op: OpKind, m: usize, n: usize, k: usize) -> Self {
        Self { op, m, n, k }
    }

    /// Output tile count (`⌈m/16⌉ × ⌈n/16⌉`).
    pub fn output_tiles(&self) -> usize {
        self.m.div_ceil(ISA_TILE) * self.n.div_ceil(ISA_TILE)
    }

    /// Tile-level `mmo` count (`output_tiles × ⌈k/16⌉`).
    pub fn tile_mmos(&self) -> usize {
        self.output_tiles() * self.k.div_ceil(ISA_TILE)
    }

    /// Lowers the step to `warps` per-warp instruction streams: output
    /// tiles are dealt round-robin, each running the canonical load-C /
    /// stream-k / store-D loop over the padded `A | B | C/D` layout —
    /// the same streams the functional ISA backend executes, so the
    /// timing model prices exactly the instruction mix that ran.
    ///
    /// # Panics
    ///
    /// Panics if `warps == 0`.
    pub fn warp_programs(&self, warps: usize) -> Vec<Vec<Instruction>> {
        assert!(warps > 0, "a replay needs at least one warp");
        let pad = |x: usize| x.div_ceil(ISA_TILE) * ISA_TILE;
        let (mp, np, kp) = (pad(self.m), pad(self.n), pad(self.k));
        let (m_tiles, n_tiles, k_tiles) = (mp / ISA_TILE, np / ISA_TILE, kp / ISA_TILE);
        let (a_base, b_base) = (0usize, mp * kp);
        let c_base = b_base + kp * np;
        let (ra, rb, rc) = (MatrixReg::new(0), MatrixReg::new(1), MatrixReg::new(2));
        let mut programs = vec![Vec::new(); warps];
        for (idx, (ti, tj)) in (0..m_tiles)
            .flat_map(|ti| (0..n_tiles).map(move |tj| (ti, tj)))
            .enumerate()
        {
            let prog = &mut programs[idx % warps];
            let c_addr = (c_base + ti * ISA_TILE * np + tj * ISA_TILE) as u32;
            prog.push(Instruction::Load {
                dst: rc,
                dtype: Dtype::Fp32,
                addr: c_addr,
                ld: np as u32,
            });
            for tk in 0..k_tiles {
                let a_addr = (a_base + ti * ISA_TILE * kp + tk * ISA_TILE) as u32;
                let b_addr = (b_base + tk * ISA_TILE * np + tj * ISA_TILE) as u32;
                prog.push(Instruction::Load {
                    dst: ra,
                    dtype: Dtype::Fp16,
                    addr: a_addr,
                    ld: kp as u32,
                });
                prog.push(Instruction::Load {
                    dst: rb,
                    dtype: Dtype::Fp16,
                    addr: b_addr,
                    ld: np as u32,
                });
                prog.push(Instruction::Mmo {
                    op: self.op,
                    d: rc,
                    a: ra,
                    b: rb,
                    c: rc,
                });
            }
            prog.push(Instruction::Store {
                src: rc,
                addr: c_addr,
                ld: np as u32,
            });
        }
        programs
    }
}

/// Replays a recorded step sequence through the pipeline model: each
/// step is lowered to `warps` streams and drained in order (steps of a
/// replay are sequential — each reads its predecessors' outputs), and
/// the per-step statistics are summed into one [`PipelineStats`] whose
/// `cycles` is the end-to-end replay time.
///
/// # Panics
///
/// Panics if `warps == 0`.
pub fn simulate_trace(pipeline: &SmPipeline, traces: &[MmoTrace], warps: usize) -> PipelineStats {
    let mut total = PipelineStats::default();
    for trace in traces {
        let stats = pipeline.simulate(&trace.warp_programs(warps));
        total.cycles += stats.cycles;
        total.instructions += stats.instructions;
        total.mmos += stats.mmos;
        total.simd2_busy += stats.simd2_busy;
        total.lsu_busy += stats.lsu_busy;
        total.dependency_stalls += stats.dependency_stalls;
        total.structural_stalls += stats.structural_stalls;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_tile_arithmetic_matches_padding() {
        let t = MmoTrace::new(OpKind::MinPlus, 40, 40, 40);
        assert_eq!(t.output_tiles(), 9);
        assert_eq!(t.tile_mmos(), 27);
        let exact = MmoTrace::new(OpKind::PlusMul, 32, 16, 48);
        assert_eq!(exact.output_tiles(), 2);
        assert_eq!(exact.tile_mmos(), 6);
    }

    #[test]
    fn warp_programs_carry_the_full_instruction_mix() {
        let t = MmoTrace::new(OpKind::MaxPlus, 64, 64, 64);
        for warps in [1usize, 4, 8] {
            let programs = t.warp_programs(warps);
            assert_eq!(programs.len(), warps);
            let mmos: usize = programs
                .iter()
                .flatten()
                .filter(|i| matches!(i, Instruction::Mmo { .. }))
                .count();
            let stores: usize = programs
                .iter()
                .flatten()
                .filter(|i| matches!(i, Instruction::Store { .. }))
                .count();
            assert_eq!(mmos, t.tile_mmos(), "{warps} warps");
            assert_eq!(stores, t.output_tiles(), "{warps} warps");
        }
    }

    #[test]
    fn more_warps_drain_a_step_faster() {
        let t = MmoTrace::new(OpKind::MinPlus, 64, 64, 64);
        let p = SmPipeline::new();
        let one = p.simulate(&t.warp_programs(1));
        let eight = p.simulate(&t.warp_programs(8));
        assert_eq!(one.mmos, eight.mmos);
        assert!(
            eight.cycles < one.cycles,
            "{} vs {}",
            eight.cycles,
            one.cycles
        );
    }

    #[test]
    fn replay_sums_sequential_steps() {
        let p = SmPipeline::new();
        let steps = [
            MmoTrace::new(OpKind::MinPlus, 48, 48, 48),
            MmoTrace::new(OpKind::MinPlus, 48, 48, 48),
        ];
        let one = simulate_trace(&p, &steps[..1], 4);
        let two = simulate_trace(&p, &steps, 4);
        assert_eq!(two.mmos, 2 * one.mmos);
        assert_eq!(two.cycles, 2 * one.cycles);
        assert_eq!(two.instructions, 2 * one.instructions);
    }

    #[test]
    fn empty_replay_is_zero() {
        let stats = simulate_trace(&SmPipeline::new(), &[], 4);
        assert_eq!(stats, PipelineStats::default());
    }

    #[test]
    #[should_panic(expected = "at least one warp")]
    fn zero_warps_rejected() {
        let _ = MmoTrace::new(OpKind::MinPlus, 16, 16, 16).warp_programs(0);
    }
}
