//! Kernel compilation: whole-matrix operations → per-warp SIMD²
//! instruction streams.
//!
//! A real SIMD² kernel launch (paper Figure 6) assigns each warp a set of
//! output tiles; every warp then runs the load-C / stream-k / store-D
//! loop over its tiles. This module performs that lowering so the same
//! program text can be (a) executed functionally on the warp-level
//! [`Executor`](simd2_isa::Executor) and (b) fed to the cycle-level
//! pipeline simulator in [`simd2_gpu::sim`] — closing the loop between
//! the programming model and the machine model.

use simd2_isa::{Dtype, ExecError, Instruction, MatrixReg};
use simd2_matrix::tiling::{self, TileGrid};
use simd2_matrix::{Matrix, ShapeError, ISA_TILE};
use simd2_semiring::OpKind;

use crate::error::BackendError;

/// Shared-memory layout of a compiled kernel: `A | B | C/D`, each padded
/// to tile multiples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelLayout {
    /// Padded dimensions `(m, n, k)`.
    pub padded: (usize, usize, usize),
    /// Element base address of `A`.
    pub a_base: usize,
    /// Element base address of `B`.
    pub b_base: usize,
    /// Element base address of `C`/`D` (updated in place).
    pub c_base: usize,
    /// Total shared-memory elements required.
    pub total_elements: usize,
}

impl KernelLayout {
    /// Computes the layout for an `m×n×k` operation.
    pub fn new(m: usize, n: usize, k: usize) -> Self {
        let pad = |x: usize| x.div_ceil(ISA_TILE) * ISA_TILE;
        let (mp, np, kp) = (pad(m), pad(n), pad(k));
        let a_base = 0;
        let b_base = mp * kp;
        let c_base = b_base + kp * np;
        Self {
            padded: (mp, np, kp),
            a_base,
            b_base,
            c_base,
            total_elements: c_base + mp * np,
        }
    }
}

/// A compiled whole-matrix kernel: one instruction stream per warp plus
/// the memory layout to stage operands with.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledKernel {
    /// The operation every `mmo` performs.
    pub op: OpKind,
    /// The unpadded `(m, n, k)` geometry the kernel was compiled for.
    pub shape: (usize, usize, usize),
    /// Memory layout the programs address into.
    pub layout: KernelLayout,
    /// Per-warp instruction streams.
    pub warp_programs: Vec<Vec<Instruction>>,
}

impl CompiledKernel {
    /// Total instructions across all warps.
    pub fn total_instructions(&self) -> usize {
        self.warp_programs.iter().map(Vec::len).sum()
    }

    /// Total `mmo` instructions (one per tile step).
    pub fn total_mmos(&self) -> usize {
        self.warp_programs
            .iter()
            .flatten()
            .filter(|i| matches!(i, Instruction::Mmo { .. }))
            .count()
    }
}

/// Lowers an `m×n×k` matrix operation to `warps` round-robin-partitioned
/// instruction streams.
///
/// With `k = 0` there is no operand tile to stream, but the result is
/// still `C ⊕ id`, and the ISA seeds an accumulator nowhere but inside
/// an `mmo`: each output tile then issues one over operand registers
/// filled with the op's inert padding ([`tiling::pad_values`]).
///
/// # Panics
///
/// Panics if `warps == 0`.
pub fn compile_mmo(op: OpKind, m: usize, n: usize, k: usize, warps: usize) -> CompiledKernel {
    assert!(warps > 0, "a kernel needs at least one warp");
    let layout = KernelLayout::new(m, n, k);
    let (_, np, kp) = layout.padded;
    let grid = TileGrid::new(m, n, k, ISA_TILE);
    let (ra, rb, rc) = (MatrixReg::new(0), MatrixReg::new(1), MatrixReg::new(2));
    let mmo = Instruction::Mmo {
        op,
        d: rc,
        a: ra,
        b: rb,
        c: rc,
    };
    let pad = tiling::pad_values(op);
    let mut warp_programs = vec![Vec::new(); warps];
    for (idx, (ti, tj)) in grid.output_coords().enumerate() {
        let prog = &mut warp_programs[idx % warps];
        let c_addr = (layout.c_base + ti * ISA_TILE * np + tj * ISA_TILE) as u32;
        prog.push(Instruction::Load {
            dst: rc,
            dtype: Dtype::Fp32,
            addr: c_addr,
            ld: np as u32,
        });
        for tk in 0..grid.k_tiles {
            let a_addr = (layout.a_base + ti * ISA_TILE * kp + tk * ISA_TILE) as u32;
            let b_addr = (layout.b_base + tk * ISA_TILE * np + tj * ISA_TILE) as u32;
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
            prog.push(mmo);
        }
        if grid.k_tiles == 0 {
            prog.extend([
                Instruction::Fill {
                    dst: ra,
                    value: pad.a,
                },
                Instruction::Fill {
                    dst: rb,
                    value: pad.b,
                },
                mmo,
            ]);
        }
        prog.push(Instruction::Store {
            src: rc,
            addr: c_addr,
            ld: np as u32,
        });
    }
    CompiledKernel {
        op,
        shape: (m, n, k),
        layout,
        warp_programs,
    }
}

/// Stages operands into a fresh shared-memory image per the kernel's
/// layout (padding with the algebra's inert values).
///
/// # Errors
///
/// Returns an [`ExecError`] if the layout does not fit the memory image
/// (cannot happen for layouts produced by [`KernelLayout::new`]).
pub fn stage_operands(
    kernel: &CompiledKernel,
    a: &Matrix,
    b: &Matrix,
    c: &Matrix,
) -> Result<simd2_isa::SharedMemory, ExecError> {
    let (mp, np, kp) = kernel.layout.padded;
    let pads = tiling::pad_values(kernel.op);
    let mut mem = simd2_isa::SharedMemory::new(kernel.layout.total_elements);
    let write = |mem: &mut simd2_isa::SharedMemory, base, ld, src: &Matrix, rows, cols, fill| {
        let padded = Matrix::from_fn(rows, cols, |r, cc| src.get(r, cc).unwrap_or(fill));
        mem.write_matrix(base, ld, &padded)
    };
    write(&mut mem, kernel.layout.a_base, kp, a, mp, kp, pads.a)?;
    write(&mut mem, kernel.layout.b_base, np, b, kp, np, pads.b)?;
    write(
        &mut mem,
        kernel.layout.c_base,
        np,
        c,
        mp,
        np,
        pads.accumulator,
    )?;
    Ok(mem)
}

/// Functionally executes a compiled kernel (all warps, in order) and
/// returns the unpadded output.
///
/// # Errors
///
/// Returns [`BackendError::Shape`] when the operand shapes disagree with
/// the kernel's geometry, and propagates executor faults.
pub fn execute_compiled(
    kernel: &CompiledKernel,
    a: &Matrix,
    b: &Matrix,
    c: &Matrix,
) -> Result<Matrix, BackendError> {
    simd2_matrix::reference::check_mmo_shapes(a, b, c)?;
    let (m, n, k) = kernel.shape;
    if a.shape() != (m, k) {
        return Err(ShapeError::new("A (kernel geometry)", (m, k), a.shape()).into());
    }
    if b.shape() != (k, n) {
        return Err(ShapeError::new("B (kernel geometry)", (k, n), b.shape()).into());
    }
    let mem = stage_operands(kernel, a, b, c)?;
    let mut exec = simd2_isa::Executor::new(mem);
    for prog in &kernel.warp_programs {
        exec.run(prog)?;
    }
    let (_, np, _) = kernel.layout.padded;
    let out = exec
        .memory()
        .read_matrix(kernel.layout.c_base, np, a.rows(), b.cols())?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simd2_gpu::SmPipeline;
    use simd2_matrix::{gen, reference};
    use simd2_semiring::ALL_OPS;

    #[test]
    fn compiled_kernel_matches_reference_for_all_ops() {
        for op in ALL_OPS {
            let (m, n, k) = (20, 35, 18); // ragged on purpose
            let a = gen::random_operands_for(op, m, k, 1);
            let b = gen::random_operands_for(op, k, n, 2);
            let c = Matrix::filled(m, n, op.reduce_identity_f32());
            let kernel = compile_mmo(op, m, n, k, 3);
            let got = execute_compiled(&kernel, &a, &b, &c).unwrap();
            let want = reference::mmo(op, &a, &b, &c).unwrap();
            let tol = match op {
                OpKind::PlusMul | OpKind::PlusNorm => 0.05,
                OpKind::MinMul | OpKind::MaxMul => 1e-3,
                _ => 1e-3,
            };
            let diff = got.max_abs_diff(&want).unwrap();
            assert!(diff <= tol, "{op}: {diff}");
        }
    }

    #[test]
    fn warp_partitioning_is_complete_and_balanced() {
        let kernel = compile_mmo(OpKind::MinPlus, 64, 64, 64, 4);
        // 4×4 output tiles, 4 k-tiles each.
        assert_eq!(kernel.total_mmos(), 16 * 4);
        // Round-robin: every warp gets 4 output tiles.
        for prog in &kernel.warp_programs {
            let stores = prog
                .iter()
                .filter(|i| matches!(i, Instruction::Store { .. }))
                .count();
            assert_eq!(stores, 4);
        }
        assert_eq!(kernel.total_instructions(), 16 * (1 + 3 * 4 + 1));
    }

    #[test]
    fn an_empty_k_still_seeds_every_output_tile() {
        // 2×3 output tiles, no operand tile: load C, fill the operand
        // registers with padding, one mmo, store.
        let kernel = compile_mmo(OpKind::OrAnd, 20, 35, 0, 2);
        assert_eq!(kernel.total_mmos(), 6);
        assert_eq!(kernel.total_instructions(), 6 * 5);
        let (a, b) = (Matrix::zeros(20, 0), Matrix::zeros(0, 35));
        let c = Matrix::from_fn(20, 35, |i, j| ((i + j) % 3) as f32 * 2.0);
        let got = execute_compiled(&kernel, &a, &b, &c).unwrap();
        let want = Matrix::from_fn(20, 35, |i, j| f32::from(c[(i, j)] != 0.0));
        assert_eq!(got, want);
    }

    #[test]
    fn more_warps_than_tiles_leaves_some_idle() {
        let kernel = compile_mmo(OpKind::OrAnd, 16, 16, 16, 8);
        let nonempty = kernel
            .warp_programs
            .iter()
            .filter(|p| !p.is_empty())
            .count();
        assert_eq!(nonempty, 1, "one output tile, one busy warp");
    }

    #[test]
    fn layout_is_tight_and_tile_aligned() {
        let l = KernelLayout::new(17, 33, 50);
        assert_eq!(l.padded, (32, 48, 64));
        assert_eq!(l.a_base, 0);
        assert_eq!(l.b_base, 32 * 64);
        assert_eq!(l.c_base, 32 * 64 + 64 * 48);
        assert_eq!(l.total_elements, 32 * 64 + 64 * 48 + 32 * 48);
    }

    #[test]
    fn compiled_kernels_drive_the_pipeline_simulator() {
        // The same streams run on the timing model: more warps → higher
        // tile-pipe utilisation for the same work.
        let one = compile_mmo(OpKind::MinPlus, 64, 64, 64, 1);
        let eight = compile_mmo(OpKind::MinPlus, 64, 64, 64, 8);
        let sim = SmPipeline::new();
        let s1 = sim.simulate(&one.warp_programs);
        let s8 = sim.simulate(&eight.warp_programs);
        assert_eq!(s1.mmos, s8.mmos);
        assert!(s8.cycles < s1.cycles, "{} vs {}", s8.cycles, s1.cycles);
        assert!(s8.simd2_utilization() > s1.simd2_utilization());
    }

    #[test]
    #[should_panic(expected = "at least one warp")]
    fn zero_warps_rejected() {
        let _ = compile_mmo(OpKind::MinPlus, 16, 16, 16, 0);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let kernel = compile_mmo(OpKind::MinPlus, 16, 16, 16, 1);
        let bad = Matrix::zeros(8, 8);
        assert!(execute_compiled(&kernel, &bad, &bad, &bad).is_err());
    }
}
