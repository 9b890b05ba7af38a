//! Per-instruction cost model of the CUDA-core (vector) path.
//!
//! On the SIMD-core path, one inner-loop element step of
//! `D = C ⊕ (A ⊗ B)` issues the `⊗` instruction, the `⊕` instruction,
//! and the surrounding loop bookkeeping. Costs are expressed in *issue
//! slots*, where 1.0 slot = one full-rate (128-lane) instruction issue on
//! an Ampere-class SM. The model encodes the three effects §6.2 identifies:
//!
//! 1. **FMA fusion** — plus-mul (and the multiply-add inside plus-norm)
//!    fuses `⊗` and `⊕` into a single full-rate instruction, which is why
//!    those two ops gain the least from SIMD²;
//! 2. **the min/max and or/and structural hazard** — min and max share one
//!    ALU port (as do the boolean ops), so each issue occupies two
//!    full-rate slots, and a kernel whose combine *and* reduce both land on
//!    that port stalls hardest;
//! 3. **dependent-chain stalls** — the `⊕` reduction is a serial
//!    read-after-write chain on the accumulator; when it cannot fuse, the
//!    chain adds pipeline stall slots (worst when both operators contend
//!    for the same port).

use simd2_semiring::OpKind;

/// Issue slots of a single full-rate vector instruction.
pub const FULL_RATE_SLOT: f64 = 1.0;

/// Issue slots of an instruction on the shared min/max (or boolean) ALU
/// port — half throughput, hence two slots.
pub const SHARED_PORT_SLOT: f64 = 2.0;

/// Loop bookkeeping (address arithmetic, predicates, operand staging)
/// amortised per element step.
pub const LOOP_OVERHEAD_SLOTS: f64 = 0.55;

/// Slot breakdown of one CUDA-core element step for one operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CudaOpCost {
    /// Slots of the `⊗` instruction (0 when fused into the reduce).
    pub combine_slots: f64,
    /// Slots of the `⊕` instruction (0 when fused into the combine).
    pub reduce_slots: f64,
    /// Amortised loop bookkeeping.
    pub loop_overhead: f64,
    /// Dependent-chain stall penalty.
    pub hazard_stall: f64,
}

impl CudaOpCost {
    /// Total issue slots per element step.
    pub fn total_slots(&self) -> f64 {
        self.combine_slots + self.reduce_slots + self.loop_overhead + self.hazard_stall
    }
}

/// Slot cost of one element step of `op` on CUDA cores.
pub fn cuda_op_cost(op: OpKind) -> CudaOpCost {
    match op {
        // One fused multiply-add; no separate reduce instruction.
        OpKind::PlusMul => CudaOpCost {
            combine_slots: FULL_RATE_SLOT,
            reduce_slots: 0.0,
            loop_overhead: LOOP_OVERHEAD_SLOTS,
            hazard_stall: 0.0,
        },
        // Subtract, then fused multiply-add (square-and-accumulate).
        OpKind::PlusNorm => CudaOpCost {
            combine_slots: 2.0 * FULL_RATE_SLOT,
            reduce_slots: 0.0,
            loop_overhead: LOOP_OVERHEAD_SLOTS,
            hazard_stall: 0.0,
        },
        // Full-rate add, then min/max on the shared port; the unfused
        // reduce chain stalls on the accumulator.
        OpKind::MinPlus | OpKind::MaxPlus => CudaOpCost {
            combine_slots: FULL_RATE_SLOT,
            reduce_slots: SHARED_PORT_SLOT,
            loop_overhead: LOOP_OVERHEAD_SLOTS,
            hazard_stall: 2.95,
        },
        // Full-rate multiply, then min/max reduce.
        OpKind::MinMul | OpKind::MaxMul => CudaOpCost {
            combine_slots: FULL_RATE_SLOT,
            reduce_slots: SHARED_PORT_SLOT,
            loop_overhead: LOOP_OVERHEAD_SLOTS,
            hazard_stall: 1.95,
        },
        // Both operators land on the shared port — the structural hazard
        // the paper credits for the largest SIMD² wins (up to 15.8×).
        OpKind::MinMax | OpKind::MaxMin | OpKind::OrAnd => CudaOpCost {
            combine_slots: SHARED_PORT_SLOT,
            reduce_slots: SHARED_PORT_SLOT,
            loop_overhead: LOOP_OVERHEAD_SLOTS,
            hazard_stall: 3.35,
        },
    }
}

/// Slot cost of one element step under a *hypothetical fused-vector ISA*
/// (paper §6.2's future-work aside): every `⊕-⊗` pair gets a fused
/// two-input instruction the way multiply-add has FMA, eliminating the
/// second issue and the dependent-chain stall. Operations whose fused
/// form still lands on the shared min/max (or boolean) port remain
/// half-rate.
///
/// Under this ISA the SIMD² advantage shrinks to the raw throughput gap
/// — "up to 5.96× for larger matrix operations" — which is the paper's
/// argument that SIMD² has more headroom than further vector fusion.
pub fn cuda_op_cost_fused(op: OpKind) -> CudaOpCost {
    let combine_slots = match op {
        // Already fused today.
        OpKind::PlusMul => FULL_RATE_SLOT,
        OpKind::PlusNorm => 2.0 * FULL_RATE_SLOT, // sub + fused square-acc
        // One fused instruction on the shared min/max (boolean) port.
        _ => SHARED_PORT_SLOT,
    };
    CudaOpCost {
        combine_slots,
        reduce_slots: 0.0,
        loop_overhead: LOOP_OVERHEAD_SLOTS,
        hazard_stall: 0.0,
    }
}

/// Utilisation of a pipe as a function of the effective problem dimension
/// `n` (wave quantisation, pipeline fill, launch-grid granularity):
/// `n / (n + half_sat)`.
pub fn utilisation(n: f64, half_sat: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    n / (n + half_sat)
}

/// Effective (cube-root) dimension of an `m×n×k` operation, used as the
/// utilisation argument for rectangular shapes.
pub fn effective_dim(m: usize, n: usize, k: usize) -> f64 {
    ((m as f64) * (n as f64) * (k as f64)).cbrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simd2_semiring::ALL_OPS;

    #[test]
    fn fused_ops_are_cheapest() {
        let pm = cuda_op_cost(OpKind::PlusMul).total_slots();
        for op in ALL_OPS {
            assert!(cuda_op_cost(op).total_slots() >= pm, "{op}");
        }
        assert_eq!(pm, 1.55);
    }

    #[test]
    fn shared_port_ops_are_most_expensive() {
        let hazard = cuda_op_cost(OpKind::MinMax).total_slots();
        assert_eq!(cuda_op_cost(OpKind::MaxMin).total_slots(), hazard);
        assert_eq!(cuda_op_cost(OpKind::OrAnd).total_slots(), hazard);
        for op in ALL_OPS {
            assert!(cuda_op_cost(op).total_slots() <= hazard, "{op}");
        }
    }

    #[test]
    fn mirror_pairs_cost_the_same() {
        for (a, b) in [
            (OpKind::MinPlus, OpKind::MaxPlus),
            (OpKind::MinMul, OpKind::MaxMul),
            (OpKind::MinMax, OpKind::MaxMin),
        ] {
            assert_eq!(cuda_op_cost(a), cuda_op_cost(b));
        }
    }

    #[test]
    fn ordering_matches_paper_fig9() {
        // hazard pair > min/max-plus > min/max-mul > plus-norm > plus-mul
        let s = |op| cuda_op_cost(op).total_slots();
        assert!(s(OpKind::MinMax) > s(OpKind::MinPlus));
        assert!(s(OpKind::MinPlus) > s(OpKind::MinMul));
        assert!(s(OpKind::MinMul) > s(OpKind::PlusNorm));
        assert!(s(OpKind::PlusNorm) > s(OpKind::PlusMul));
    }

    #[test]
    fn fused_isa_shrinks_every_gap() {
        for op in ALL_OPS {
            let today = cuda_op_cost(op).total_slots();
            let fused = cuda_op_cost_fused(op).total_slots();
            assert!(fused <= today, "{op}");
            assert!(fused >= cuda_op_cost(OpKind::PlusMul).total_slots(), "{op}");
        }
        // §6.2: with fused vector ops the best case drops to ~5–6×
        // (2× lane ratio × 2.55 slots ≈ 5.1).
        let best = cuda_op_cost_fused(OpKind::MinMax).total_slots() * 2.0;
        assert!((4.5..=6.0).contains(&best), "{best}");
    }

    #[test]
    fn utilisation_ramps_and_saturates() {
        assert_eq!(utilisation(0.0, 100.0), 0.0);
        assert!(utilisation(100.0, 100.0) == 0.5);
        assert!(utilisation(4096.0, 200.0) > 0.95);
        assert!(utilisation(1024.0, 200.0) < utilisation(2048.0, 200.0));
    }

    #[test]
    fn effective_dim_is_cube_root() {
        assert_eq!(effective_dim(8, 8, 8), 8.0);
        let d = effective_dim(1024, 16, 16);
        assert!((d - 64.0).abs() < 1e-9);
    }
}
