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

/// Predicted relative cost of one whole `m×n×k` MMO step: the analytic
/// per-element issue-slot price of `op` ([`cuda_op_cost`]) times the
/// `m·n·k` multiply-reduce volume. A *relative* price signal for
/// comparing lowerings of one step (the plan optimizer's density
/// lowering sets it against [`predicted_sparse_mmo_cost`]), not a
/// wall-clock estimate — it deliberately ignores utilisation and launch
/// overheads, which are the same for every lowering of a step.
pub fn predicted_mmo_cost(op: OpKind, m: usize, n: usize, k: usize) -> f64 {
    cuda_op_cost(op).total_slots() * (m as f64) * (n as f64) * (k as f64)
}

/// Per-element traversal overhead of a compressed (CSR / Gustavson)
/// kernel relative to a dense sweep: index decode, gather addressing,
/// and the irregular-access penalty a sparse datapath pays on every
/// *stored* term. Calibrated against the Fig 14 observation that sparse
/// only overtakes dense in the ≳90% sparsity regime.
pub const SPARSE_TRAVERSAL_SLOTS: f64 = 2.4;

/// Fixed per-row slot cost of a Gustavson pass (row-pointer walk,
/// accumulator reset) charged once per `m·n` output element pair.
pub const SPARSE_ROW_OVERHEAD_SLOTS: f64 = 0.35;

/// Predicted relative cost of one whole `m×n×k` MMO step executed by a
/// compressed Gustavson kernel when the `A`/`B` operands carry stored
/// densities `density_a` / `density_b` (fractions in `[0, 1]` of
/// entries that differ from the algebra's no-edge value).
///
/// The multiply-reduce volume shrinks to the *surviving* term count —
/// `m·n·k · dₐ·d_b` in expectation, each term paying the dense slot
/// price plus [`SPARSE_TRAVERSAL_SLOTS`] — while every output element
/// still pays [`SPARSE_ROW_OVERHEAD_SLOTS`]. Same relative-price units
/// as [`predicted_mmo_cost`], so the two compare directly.
pub fn predicted_sparse_mmo_cost(
    op: OpKind,
    m: usize,
    n: usize,
    k: usize,
    density_a: f64,
    density_b: f64,
) -> f64 {
    let volume = (m as f64) * (n as f64) * (k as f64);
    let surviving = volume * density_a.clamp(0.0, 1.0) * density_b.clamp(0.0, 1.0);
    let per_term = cuda_op_cost(op).total_slots() + SPARSE_TRAVERSAL_SLOTS;
    surviving * per_term + (m as f64) * (n as f64) * SPARSE_ROW_OVERHEAD_SLOTS
}

/// The operand density below which the compressed Gustavson kernel is
/// predicted cheaper than the dense datapath for a square `n³` step of
/// `op` (both operands at the returned density). Found by bisection on
/// the monotone cost gap; returns a density in `[0, 1]`.
pub fn sparse_crossover_density(op: OpKind, n: usize) -> f64 {
    let dense = predicted_mmo_cost(op, n, n, n);
    let cheaper = |d: f64| predicted_sparse_mmo_cost(op, n, n, n, d, d) < dense;
    if !cheaper(0.0) {
        return 0.0;
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    if cheaper(hi) {
        return 1.0;
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if cheaper(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
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
    fn sparse_cost_scales_with_density() {
        let dense = predicted_mmo_cost(OpKind::MinPlus, 64, 64, 64);
        let d10 = predicted_sparse_mmo_cost(OpKind::MinPlus, 64, 64, 64, 0.1, 0.1);
        let d50 = predicted_sparse_mmo_cost(OpKind::MinPlus, 64, 64, 64, 0.5, 0.5);
        assert!(d10 < d50, "{d10} vs {d50}");
        assert!(d10 < dense, "very sparse beats dense: {d10} vs {dense}");
        // Fully dense operands through the compressed kernel pay the
        // traversal tax: strictly worse than the dense datapath.
        let d100 = predicted_sparse_mmo_cost(OpKind::MinPlus, 64, 64, 64, 1.0, 1.0);
        assert!(d100 > dense, "{d100} vs {dense}");
    }

    #[test]
    fn crossover_density_separates_the_regimes() {
        for op in ALL_OPS {
            let x = sparse_crossover_density(op, 256);
            assert!((0.0..=1.0).contains(&x), "{op}: {x}");
            if x > 0.0 && x < 1.0 {
                let below = predicted_sparse_mmo_cost(op, 256, 256, 256, x * 0.9, x * 0.9);
                let above = predicted_sparse_mmo_cost(
                    op,
                    256,
                    256,
                    256,
                    (x * 1.1).min(1.0),
                    (x * 1.1).min(1.0),
                );
                let dense = predicted_mmo_cost(op, 256, 256, 256);
                assert!(below < dense, "{op}");
                assert!(above > dense, "{op}");
            }
        }
        // The hazard-pair ops tolerate denser operands before sparse
        // loses (their dense slot price is higher), mirroring how the
        // Fig 14 crossover shifts with the algebra.
        assert!(
            sparse_crossover_density(OpKind::MinMax, 256)
                > sparse_crossover_density(OpKind::PlusMul, 256)
        );
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
