//! Warp-level executor for SIMD² programs.
//!
//! Models the architectural state a warp sees: a 1-D shared-memory
//! address space (element-addressed `f32` words), sixteen matrix registers
//! of 16×16 elements each, and a functional [`Simd2Unit`] executing `mmo`
//! instructions. Running a program yields both the final memory state and
//! an [`ExecStats`] instruction mix, which is the input the GPU timing
//! model charges cycles for — mirroring how the paper's validation flow
//! "collect\[s\] the statistics regarding the total amount of various matrix
//! operations and provide\[s\] the input for performance emulation" (§5.1).

use std::collections::BTreeMap;
use std::fmt;

use simd2_fault::abft::{self, AbftConfig, AbftViolation};
use simd2_fault::PlannedInjector;
use simd2_matrix::{Matrix, Tile, ISA_TILE};
use simd2_mxu::{PrecisionMode, Simd2Unit};
use simd2_semiring::precision::quantize_f16;
use simd2_semiring::OpKind;

use crate::{Dtype, Instruction, MATRIX_REG_COUNT};

/// Element-addressed shared-memory space backing `simd2.load`/`store`.
#[derive(Clone, Debug, PartialEq)]
pub struct SharedMemory {
    data: Vec<f32>,
}

impl SharedMemory {
    /// Allocates `elements` zero-initialised `f32` words.
    pub fn new(elements: usize) -> Self {
        Self {
            data: vec![0.0; elements],
        }
    }

    /// Size in elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the space is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Copies a matrix into memory at `addr` with leading dimension `ld`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::BadLeadingDimension`] when `ld` is narrower
    /// than a matrix row, and [`ExecError::OutOfBounds`] when the region
    /// does not fit.
    pub fn write_matrix(&mut self, addr: usize, ld: usize, m: &Matrix) -> Result<(), ExecError> {
        self.check_region(addr, ld, m.rows(), m.cols())?;
        for r in 0..m.rows() {
            let base = addr + r * ld;
            self.data[base..base + m.cols()].copy_from_slice(m.row(r));
        }
        Ok(())
    }

    /// Reads a `rows × cols` matrix from `addr` with leading dimension
    /// `ld`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::BadLeadingDimension`] when `ld` is narrower
    /// than a row, and [`ExecError::OutOfBounds`] when the region does
    /// not fit.
    pub fn read_matrix(
        &self,
        addr: usize,
        ld: usize,
        rows: usize,
        cols: usize,
    ) -> Result<Matrix, ExecError> {
        self.check_region(addr, ld, rows, cols)?;
        if rows == 0 || cols == 0 {
            return Ok(Matrix::zeros(rows, cols));
        }
        // Whole-row memcpy per row, mirroring `write_matrix`.
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            let base = addr + r * ld;
            data.extend_from_slice(&self.data[base..base + cols]);
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }

    /// Bounds-checks a `rows × cols` region at `addr` with leading
    /// dimension `ld` — the shared logic behind tile and matrix access.
    fn check_region(
        &self,
        addr: usize,
        ld: usize,
        rows: usize,
        cols: usize,
    ) -> Result<(), ExecError> {
        if rows == 0 || cols == 0 {
            return Ok(());
        }
        if rows > 1 && ld < cols {
            return Err(ExecError::BadLeadingDimension { ld });
        }
        let last = (rows - 1)
            .checked_mul(ld)
            .and_then(|x| x.checked_add(addr))
            .and_then(|x| x.checked_add(cols - 1))
            .unwrap_or(usize::MAX);
        if last >= self.data.len() {
            return Err(ExecError::OutOfBounds {
                addr,
                last,
                size: self.data.len(),
            });
        }
        Ok(())
    }

    fn check_tile(&self, addr: u32, ld: u32) -> Result<(), ExecError> {
        let addr = addr as usize;
        let ld = ld as usize;
        if ld < ISA_TILE {
            return Err(ExecError::BadLeadingDimension { ld });
        }
        self.check_region(addr, ld, ISA_TILE, ISA_TILE)
    }
}

/// Execution error: memory faults and detected silent corruption —
/// encoding-level errors are caught at decode/assemble time.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// Tile access past the end of shared memory.
    OutOfBounds {
        /// Base element address of the access.
        addr: usize,
        /// Last element address the tile would touch.
        last: usize,
        /// Shared memory size, elements.
        size: usize,
    },
    /// Leading dimension smaller than the tile side (rows would overlap).
    BadLeadingDimension {
        /// The offending leading dimension.
        ld: usize,
    },
    /// An `mmo` result failed its ABFT invariant check — the datapath
    /// produced a value the inputs cannot explain.
    SilentCorruption {
        /// The semiring operation that was executing.
        op: OpKind,
        /// Ordinal of the offending `mmo` within the run (0-based).
        mmo_index: u64,
        /// The invariant that failed.
        violation: AbftViolation,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfBounds { addr, last, size } => write!(
                f,
                "tile access at {addr} reaches element {last}, beyond shared memory size {size}"
            ),
            ExecError::BadLeadingDimension { ld } => {
                write!(
                    f,
                    "leading dimension {ld} is smaller than the 16-element tile row"
                )
            }
            ExecError::SilentCorruption {
                op,
                mmo_index,
                violation,
            } => {
                write!(
                    f,
                    "silent corruption detected at mmo #{mmo_index} ({op}): {violation}"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Instruction-mix statistics of one program run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecStats {
    /// `simd2.load` count.
    pub loads: u64,
    /// `simd2.store` count.
    pub stores: u64,
    /// `simd2.fill` count.
    pub fills: u64,
    /// `simd2.mmo` count per operation.
    pub mmos: BTreeMap<OpKind, u64>,
    /// Faults injected by an attached [`PlannedInjector`] during the run.
    pub faults_injected: u64,
    /// `mmo` results that passed ABFT verification.
    pub mmos_verified: u64,
}

impl ExecStats {
    /// Total `mmo` instructions across all operations.
    pub fn total_mmos(&self) -> u64 {
        self.mmos.values().sum()
    }

    /// Total instructions executed.
    pub fn total_instructions(&self) -> u64 {
        self.loads + self.stores + self.fills + self.total_mmos()
    }

    /// Elements moved between shared memory and the register file.
    pub fn elements_moved(&self) -> u64 {
        (self.loads + self.stores) * (ISA_TILE * ISA_TILE) as u64
    }

    /// Accumulates another run's statistics into this one (field-wise
    /// sum; per-op `mmo` counts merge by key). Backends that execute one
    /// program per matrix operation use this to keep cumulative totals.
    pub fn merge(&mut self, other: &ExecStats) {
        self.loads += other.loads;
        self.stores += other.stores;
        self.fills += other.fills;
        self.faults_injected += other.faults_injected;
        self.mmos_verified += other.mmos_verified;
        for (&op, &n) in &other.mmos {
            *self.mmos.entry(op).or_insert(0) += n;
        }
    }
}

/// The warp-level executor.
///
/// # Example
///
/// ```
/// use simd2_isa::{asm, Executor, SharedMemory};
/// use simd2_matrix::Matrix;
///
/// let mut mem = SharedMemory::new(1024);
/// mem.write_matrix(0, 16, &Matrix::filled(16, 16, 2.0))?;   // A
/// mem.write_matrix(256, 16, &Matrix::filled(16, 16, 3.0))?; // B
/// let prog = asm::parse(
///     "simd2.load.f16 %m0, [0], 16
///      simd2.load.f16 %m1, [256], 16
///      simd2.fill %m2, 0.0
///      simd2.mma %m2, %m0, %m1, %m2
///      simd2.store.f32 [512], %m2, 16",
/// )?;
/// let mut exec = Executor::new(mem);
/// let stats = exec.run(&prog)?;
/// assert_eq!(stats.total_mmos(), 1);
/// assert_eq!(exec.memory().read_matrix(512, 16, 16, 16)?[(0, 0)], 96.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Executor {
    memory: SharedMemory,
    regs: Vec<Tile<ISA_TILE>>,
    unit: Simd2Unit,
    injector: Option<PlannedInjector>,
    abft: Option<AbftConfig>,
}

impl Executor {
    /// Creates an executor over the given shared memory, with the default
    /// fp16-input datapath.
    pub fn new(memory: SharedMemory) -> Self {
        Self::with_unit(memory, Simd2Unit::new())
    }

    /// Creates an executor with an explicit unit configuration (e.g.
    /// fp32-input for precision ablations).
    pub fn with_unit(memory: SharedMemory, unit: Simd2Unit) -> Self {
        Self {
            memory,
            regs: vec![Tile::splat(0.0); MATRIX_REG_COUNT],
            unit,
            injector: None,
            abft: None,
        }
    }

    /// Attaches a fault injector: every subsequent `mmo` result and
    /// store passes through it. The injector keeps its site counters for
    /// the executor's lifetime, so re-running a program draws fresh
    /// faults.
    pub fn set_injector(&mut self, injector: PlannedInjector) {
        self.injector = Some(injector);
    }

    /// Detaches and returns the fault injector, with its accumulated
    /// site counters and fault log.
    pub fn take_injector(&mut self) -> Option<PlannedInjector> {
        self.injector.take()
    }

    /// The attached fault injector, if any (for telemetry).
    pub fn injector(&self) -> Option<&PlannedInjector> {
        self.injector.as_ref()
    }

    /// Enables ABFT verification of every `mmo` result. A failed check
    /// aborts the run with [`ExecError::SilentCorruption`].
    pub fn enable_verification(&mut self, config: AbftConfig) {
        self.abft = Some(config);
    }

    /// Disables ABFT verification.
    pub fn disable_verification(&mut self) {
        self.abft = None;
    }

    /// The shared memory (for reading results back).
    pub fn memory(&self) -> &SharedMemory {
        &self.memory
    }

    /// Mutable shared-memory access (for staging inputs between runs).
    pub fn memory_mut(&mut self) -> &mut SharedMemory {
        &mut self.memory
    }

    /// Current contents of a matrix register.
    pub fn reg(&self, index: usize) -> &Tile<ISA_TILE> {
        &self.regs[index]
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on an out-of-bounds tile access.
    pub fn step(&mut self, instr: Instruction, stats: &mut ExecStats) -> Result<(), ExecError> {
        match instr {
            Instruction::Fill { dst, value } => {
                self.regs[dst.index()] = Tile::splat(value);
                stats.fills += 1;
            }
            Instruction::Load {
                dst,
                dtype,
                addr,
                ld,
            } => {
                self.memory.check_tile(addr, ld)?;
                let (addr, ld) = (addr as usize, ld as usize);
                let quantise = matches!(
                    (dtype, self.unit.precision()),
                    (Dtype::Fp16, PrecisionMode::Fp16Input)
                );
                self.regs[dst.index()] = Tile::from_fn(|r, c| {
                    let v = self.memory.data[addr + r * ld + c];
                    if quantise {
                        quantize_f16(v)
                    } else {
                        v
                    }
                });
                stats.loads += 1;
            }
            Instruction::Mmo { op, d, a, b, c } => {
                let (ta, tb, tc) = (
                    self.regs[a.index()],
                    self.regs[b.index()],
                    self.regs[c.index()],
                );
                let mut result = self.unit.execute(op, &ta, &tb, &tc);
                if let Some(injector) = self.injector.as_mut() {
                    if injector
                        .inject_mmo(op, result.as_flat_mut(), ISA_TILE)
                        .is_some()
                    {
                        stats.faults_injected += 1;
                    }
                }
                if let Some(config) = self.abft {
                    if let Err(violation) =
                        abft::verify_tile(op, &self.unit, &ta, &tb, &tc, &result, &config)
                    {
                        return Err(ExecError::SilentCorruption {
                            op,
                            mmo_index: stats.total_mmos(),
                            violation,
                        });
                    }
                    stats.mmos_verified += 1;
                }
                self.regs[d.index()] = result;
                *stats.mmos.entry(op).or_insert(0) += 1;
            }
            Instruction::Store { src, addr, ld } => {
                self.memory.check_tile(addr, ld)?;
                let (addr, ld) = (addr as usize, ld as usize);
                let tile = self.regs[src.index()];
                for (r, c, v) in tile.iter() {
                    self.memory.data[addr + r * ld + c] = v;
                }
                if let Some(injector) = self.injector.as_mut() {
                    if injector.inject_store(&mut self.memory.data).is_some() {
                        stats.faults_injected += 1;
                    }
                }
                stats.stores += 1;
            }
        }
        Ok(())
    }

    /// Runs a whole program, returning its instruction-mix statistics.
    ///
    /// # Errors
    ///
    /// Stops at (and returns) the first memory fault.
    pub fn run(&mut self, program: &[Instruction]) -> Result<ExecStats, ExecError> {
        let mut stats = ExecStats::default();
        for &instr in program {
            self.step(instr, &mut stats)?;
        }
        Ok(stats)
    }

    /// Runs a program collecting a per-instruction trace — the disassembly
    /// plus a summary of each architectural effect, for debugging kernels.
    ///
    /// # Errors
    ///
    /// Stops at (and returns) the first memory fault; the trace up to the
    /// fault is discarded with it.
    pub fn run_traced(
        &mut self,
        program: &[Instruction],
    ) -> Result<(ExecStats, Vec<TraceEntry>), ExecError> {
        let mut stats = ExecStats::default();
        let mut trace = Vec::with_capacity(program.len());
        for (pc, &instr) in program.iter().enumerate() {
            self.step(instr, &mut stats)?;
            let effect = match instr {
                Instruction::Fill { dst, value } => {
                    format!("%m{} <- splat({value})", dst.index())
                }
                Instruction::Load { dst, addr, .. } => {
                    let t = &self.regs[dst.index()];
                    format!(
                        "%m{} <- mem[{addr}..] (t[0][0]={})",
                        dst.index(),
                        t.get(0, 0)
                    )
                }
                Instruction::Mmo { d, .. } => {
                    let t = &self.regs[d.index()];
                    format!("%m{} <- mmo (d[0][0]={})", d.index(), t.get(0, 0))
                }
                Instruction::Store { src, addr, .. } => {
                    format!("mem[{addr}..] <- %m{}", src.index())
                }
            };
            trace.push(TraceEntry { pc, instr, effect });
        }
        Ok((stats, trace))
    }
}

/// One line of an execution trace (see [`Executor::run_traced`]).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEntry {
    /// Program counter of the instruction.
    pub pc: usize,
    /// The instruction executed.
    pub instr: Instruction,
    /// A short summary of its architectural effect.
    pub effect: String,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>4}] {:<44} ; {}",
            self.pc,
            self.instr.to_string(),
            self.effect
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm;
    use crate::MatrixReg;
    use simd2_matrix::reference;

    fn exec_with_inputs(a: &Matrix, b: &Matrix, c: &Matrix, op: OpKind) -> (Matrix, ExecStats) {
        let mut mem = SharedMemory::new(4096);
        mem.write_matrix(0, 16, a).unwrap();
        mem.write_matrix(256, 16, b).unwrap();
        mem.write_matrix(512, 16, c).unwrap();
        let prog = vec![
            Instruction::Load {
                dst: MatrixReg::new(0),
                dtype: Dtype::Fp16,
                addr: 0,
                ld: 16,
            },
            Instruction::Load {
                dst: MatrixReg::new(1),
                dtype: Dtype::Fp16,
                addr: 256,
                ld: 16,
            },
            Instruction::Load {
                dst: MatrixReg::new(2),
                dtype: Dtype::Fp32,
                addr: 512,
                ld: 16,
            },
            Instruction::Mmo {
                op,
                d: MatrixReg::new(3),
                a: MatrixReg::new(0),
                b: MatrixReg::new(1),
                c: MatrixReg::new(2),
            },
            Instruction::Store {
                src: MatrixReg::new(3),
                addr: 768,
                ld: 16,
            },
        ];
        let mut exec = Executor::new(mem);
        let stats = exec.run(&prog).unwrap();
        (exec.memory().read_matrix(768, 16, 16, 16).unwrap(), stats)
    }

    #[test]
    fn mmo_matches_reference_for_all_ops() {
        // fp16-exact inputs so the ISA path agrees with the fp32 reference.
        let a = Matrix::from_fn(16, 16, |r, c| ((r * 16 + c) % 9) as f32 * 0.25);
        let b = Matrix::from_fn(16, 16, |r, c| ((r + 3 * c) % 7) as f32 * 0.5);
        for op in simd2_semiring::ALL_OPS {
            let c = Matrix::filled(16, 16, op.reduce_identity_f32());
            let (got, stats) = exec_with_inputs(&a, &b, &c, op);
            let want = reference::mmo(op, &a, &b, &c).unwrap();
            let tol = match op {
                OpKind::PlusMul | OpKind::PlusNorm => 1e-4,
                _ => 0.0,
            };
            assert!(got.max_abs_diff(&want).unwrap() <= tol, "{op}");
            assert_eq!(stats.total_mmos(), 1);
            assert_eq!(stats.loads, 3);
            assert_eq!(stats.stores, 1);
        }
    }

    #[test]
    fn f16_loads_quantise_f32_loads_do_not() {
        let mut mem = SharedMemory::new(1024);
        mem.write_matrix(0, 16, &Matrix::filled(16, 16, 0.1))
            .unwrap(); // not fp16-exact
        let prog = asm::parse(
            "simd2.load.f16 %m0, [0], 16
             simd2.load.f32 %m1, [0], 16",
        )
        .unwrap();
        let mut exec = Executor::new(mem);
        exec.run(&prog).unwrap();
        assert_eq!(exec.reg(0).get(0, 0), quantize_f16(0.1));
        assert_eq!(exec.reg(1).get(0, 0), 0.1);
    }

    #[test]
    fn fp32_unit_mode_disables_quantisation() {
        let mut mem = SharedMemory::new(1024);
        mem.write_matrix(0, 16, &Matrix::filled(16, 16, 0.1))
            .unwrap();
        let prog = asm::parse("simd2.load.f16 %m0, [0], 16").unwrap();
        let mut exec =
            Executor::with_unit(mem, Simd2Unit::with_precision(PrecisionMode::Fp32Input));
        exec.run(&prog).unwrap();
        assert_eq!(exec.reg(0).get(0, 0), 0.1);
    }

    #[test]
    fn fill_sets_whole_register() {
        let prog = asm::parse("simd2.fill %m7, -inf").unwrap();
        let mut exec = Executor::new(SharedMemory::new(256));
        let stats = exec.run(&prog).unwrap();
        assert!(exec.reg(7).iter().all(|(_, _, v)| v == f32::NEG_INFINITY));
        assert_eq!(stats.fills, 1);
    }

    #[test]
    fn strided_load_respects_leading_dimension() {
        // A 32-column matrix in memory; load the tile starting at column 16.
        let mut mem = SharedMemory::new(32 * 32);
        let big = Matrix::from_fn(32, 32, |r, c| (r * 32 + c) as f32);
        mem.write_matrix(0, 32, &big).unwrap();
        let prog = asm::parse("simd2.load.f16 %m0, [16], 32").unwrap();
        let mut exec = Executor::new(mem);
        exec.run(&prog).unwrap();
        assert_eq!(exec.reg(0).get(0, 0), quantize_f16(16.0));
        assert_eq!(exec.reg(0).get(1, 0), quantize_f16((32 + 16) as f32));
    }

    #[test]
    fn out_of_bounds_faults() {
        let mem = SharedMemory::new(100); // too small for any tile
        let prog = asm::parse("simd2.load.f16 %m0, [0], 16").unwrap();
        let mut exec = Executor::new(mem);
        match exec.run(&prog) {
            Err(ExecError::OutOfBounds { size: 100, .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn narrow_leading_dimension_faults() {
        let mem = SharedMemory::new(10_000);
        let prog = asm::parse("simd2.load.f16 %m0, [0], 8").unwrap();
        let mut exec = Executor::new(mem);
        assert_eq!(
            exec.run(&prog),
            Err(ExecError::BadLeadingDimension { ld: 8 })
        );
    }

    #[test]
    fn store_after_fault_does_not_happen() {
        let mut mem = SharedMemory::new(512);
        mem.write_matrix(0, 16, &Matrix::filled(16, 16, 1.0))
            .unwrap();
        let prog = asm::parse(
            "simd2.load.f16 %m0, [0], 16
             simd2.load.f16 %m1, [100000], 16
             simd2.store.f32 [256], %m0, 16",
        )
        .unwrap();
        let mut exec = Executor::new(mem);
        assert!(exec.run(&prog).is_err());
        // The store never executed.
        assert_eq!(
            exec.memory().read_matrix(256, 16, 16, 16).unwrap(),
            Matrix::zeros(16, 16)
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut mem = SharedMemory::new(2048);
        mem.write_matrix(0, 16, &Matrix::filled(16, 16, 1.0))
            .unwrap();
        let prog = asm::parse(
            "simd2.load.f16 %m0, [0], 16
             simd2.fill %m1, 0.0
             simd2.fill %m2, inf
             simd2.minplus %m2, %m0, %m0, %m2
             simd2.minplus %m2, %m0, %m0, %m2
             simd2.mma %m1, %m0, %m0, %m1
             simd2.store.f32 [512], %m2, 16",
        )
        .unwrap();
        let mut exec = Executor::new(mem);
        let stats = exec.run(&prog).unwrap();
        assert_eq!(stats.mmos[&OpKind::MinPlus], 2);
        assert_eq!(stats.mmos[&OpKind::PlusMul], 1);
        assert_eq!(stats.total_mmos(), 3);
        assert_eq!(stats.total_instructions(), 7);
        assert_eq!(stats.elements_moved(), 2 * 256);
    }

    #[test]
    fn traced_run_matches_plain_run() {
        let mut mem = SharedMemory::new(2048);
        mem.write_matrix(0, 16, &Matrix::filled(16, 16, 2.0))
            .unwrap();
        let prog = asm::parse(
            "simd2.load.f16 %m0, [0], 16
             simd2.fill %m1, inf
             simd2.minplus %m1, %m0, %m0, %m1
             simd2.store.f32 [512], %m1, 16",
        )
        .unwrap();
        let mut plain = Executor::new(mem.clone());
        let plain_stats = plain.run(&prog).unwrap();
        let mut traced = Executor::new(mem);
        let (traced_stats, trace) = traced.run_traced(&prog).unwrap();
        assert_eq!(plain_stats, traced_stats);
        assert_eq!(plain.memory(), traced.memory());
        assert_eq!(trace.len(), 4);
        assert_eq!(trace[0].pc, 0);
        assert!(trace[0].effect.contains("%m0 <- mem[0..]"));
        assert!(trace[2].effect.contains("mmo (d[0][0]=4"));
        assert!(trace[3].to_string().contains("simd2.store"));
    }

    #[test]
    fn traced_run_propagates_faults() {
        let mut exec = Executor::new(SharedMemory::new(16));
        let prog = asm::parse("simd2.load.f16 %m0, [0], 16").unwrap();
        assert!(exec.run_traced(&prog).is_err());
    }

    #[test]
    fn write_matrix_rejects_bad_regions() {
        let mut mem = SharedMemory::new(100);
        let m = Matrix::filled(4, 8, 1.0);
        assert_eq!(
            mem.write_matrix(0, 4, &m),
            Err(ExecError::BadLeadingDimension { ld: 4 })
        );
        assert!(matches!(
            mem.write_matrix(90, 8, &m),
            Err(ExecError::OutOfBounds { addr: 90, .. })
        ));
        // A failed write leaves memory untouched.
        assert_eq!(mem, SharedMemory::new(100));
        // Address arithmetic that would overflow is caught, not panicked.
        assert!(mem.write_matrix(usize::MAX - 3, usize::MAX, &m).is_err());
    }

    #[test]
    fn read_matrix_rejects_bad_regions() {
        let mem = SharedMemory::new(64);
        assert!(mem.read_matrix(0, 8, 8, 8).is_ok());
        assert!(matches!(
            mem.read_matrix(1, 8, 8, 8),
            Err(ExecError::OutOfBounds { .. })
        ));
        assert_eq!(
            mem.read_matrix(0, 4, 2, 8),
            Err(ExecError::BadLeadingDimension { ld: 4 })
        );
        // Degenerate empty reads succeed, even at out-of-range addresses
        // (a zero-element region touches no memory).
        assert_eq!(mem.read_matrix(0, 8, 0, 8).unwrap(), Matrix::zeros(0, 8));
        assert_eq!(
            mem.read_matrix(1 << 40, 8, 5, 0).unwrap(),
            Matrix::zeros(5, 0)
        );
    }

    mod faults {
        use super::*;
        use simd2_fault::{AbftConfig, FaultPlan, FaultPlanConfig, PlannedInjector};

        fn single_mmo_program(op: OpKind) -> Vec<Instruction> {
            vec![
                Instruction::Load {
                    dst: MatrixReg::new(0),
                    dtype: Dtype::Fp16,
                    addr: 0,
                    ld: 16,
                },
                Instruction::Load {
                    dst: MatrixReg::new(1),
                    dtype: Dtype::Fp16,
                    addr: 256,
                    ld: 16,
                },
                Instruction::Load {
                    dst: MatrixReg::new(2),
                    dtype: Dtype::Fp32,
                    addr: 512,
                    ld: 16,
                },
                Instruction::Mmo {
                    op,
                    d: MatrixReg::new(3),
                    a: MatrixReg::new(0),
                    b: MatrixReg::new(1),
                    c: MatrixReg::new(2),
                },
                Instruction::Store {
                    src: MatrixReg::new(3),
                    addr: 768,
                    ld: 16,
                },
            ]
        }

        fn staged_memory(op: OpKind) -> SharedMemory {
            let mut mem = SharedMemory::new(4096);
            let a = Matrix::from_fn(16, 16, |r, c| ((r * 7 + c * 3) % 11) as f32 * 0.25 - 1.0);
            let b = Matrix::from_fn(16, 16, |r, c| ((r * 5 + c) % 13) as f32 * 0.5 - 2.0);
            let c = Matrix::filled(16, 16, op.reduce_identity_f32());
            mem.write_matrix(0, 16, &a).unwrap();
            mem.write_matrix(256, 16, &b).unwrap();
            mem.write_matrix(512, 16, &c).unwrap();
            mem
        }

        #[test]
        fn clean_runs_pass_verification_for_all_ops() {
            for op in simd2_semiring::ALL_OPS {
                let mut exec = Executor::new(staged_memory(op));
                exec.enable_verification(AbftConfig::default());
                let stats = exec.run(&single_mmo_program(op)).unwrap();
                assert_eq!(stats.mmos_verified, 1, "{op}");
                assert_eq!(stats.faults_injected, 0);
            }
        }

        #[test]
        fn every_injected_tile_fault_is_detected_or_provably_benign() {
            // Tile-class faults only (bit flips, stuck lanes, reducer
            // NaN/Inf); rates high enough that many runs are struck.
            // Every program has one mmo at site 0, so the strike draw is
            // shared by all ops within a seed — sweep enough seeds that
            // plenty of them strike.
            let mut struck = 0u64;
            let mut detected = 0u64;
            for seed in 0..32u64 {
                let plan = FaultPlan::new(
                    FaultPlanConfig::new(seed)
                        .with_bit_flip_ppm(150_000)
                        .with_stuck_lane_ppm(150_000)
                        .with_transient_nan_ppm(150_000),
                );
                for op in simd2_semiring::ALL_OPS {
                    let prog = single_mmo_program(op);
                    let mut pristine = Executor::new(staged_memory(op));
                    pristine.run(&prog).unwrap();
                    let baseline = pristine.memory().read_matrix(768, 16, 16, 16).unwrap();

                    let mut exec = Executor::new(staged_memory(op));
                    exec.set_injector(PlannedInjector::new(plan));
                    exec.enable_verification(AbftConfig::default());
                    match exec.run(&prog) {
                        Ok(stats) => {
                            let got = exec.memory().read_matrix(768, 16, 16, 16).unwrap();
                            if stats.faults_injected == 0 {
                                assert_eq!(
                                    got, baseline,
                                    "{op} seed {seed}: fault-free run drifted"
                                );
                                continue;
                            }
                            struck += 1;
                            if op.reduce_is_idempotent() {
                                // Witness checks are exact: an undetected
                                // fault cannot have changed any value.
                                assert_eq!(
                                    got.max_abs_diff(&baseline).unwrap(),
                                    0.0,
                                    "{op} seed {seed}: undetected fault changed a value"
                                );
                            } else {
                                // Checksum tolerance bounds the escape: the
                                // result sum can drift by at most ~2·τ.
                                let sum = |m: &Matrix| -> f64 {
                                    m.as_slice().iter().map(|&v| f64::from(v)).sum()
                                };
                                let drift = (sum(&got) - sum(&baseline)).abs();
                                // Bound ≈ 2·τ for the largest-magnitude
                                // algebra here (plus-norm, mag ≈ 5e4).
                                assert!(
                                    drift <= 10.0,
                                    "{op} seed {seed}: undetected fault drifted checksum by {drift}"
                                );
                            }
                        }
                        Err(ExecError::SilentCorruption { op: eop, .. }) => {
                            assert_eq!(eop, op);
                            let injected = exec.injector().unwrap().injected();
                            assert!(
                                injected >= 1,
                                "detection without injection (false positive)"
                            );
                            struck += 1;
                            detected += 1;
                        }
                        Err(other) => panic!("{op} seed {seed}: unexpected {other}"),
                    }
                }
            }
            assert!(
                struck >= 40,
                "campaign too quiet: only {struck} struck runs"
            );
            assert!(detected >= struck / 2, "{detected}/{struck} detected");
        }

        #[test]
        fn store_faults_corrupt_only_logged_words() {
            use simd2_fault::FaultKind;
            for seed in 0..16u64 {
                let plan = FaultPlan::new(FaultPlanConfig::new(seed).with_mem_ppm(600_000));
                let op = OpKind::PlusMul;
                let prog = single_mmo_program(op);
                let mut pristine = Executor::new(staged_memory(op));
                pristine.run(&prog).unwrap();
                let mut exec = Executor::new(staged_memory(op));
                exec.set_injector(PlannedInjector::new(plan));
                exec.run(&prog).unwrap();
                let faulted_words: Vec<usize> = exec
                    .injector()
                    .unwrap()
                    .log()
                    .iter()
                    .filter_map(|e| match e.kind {
                        FaultKind::MemBitFlip { word, .. } => Some(word),
                        _ => None,
                    })
                    .collect();
                let clean = pristine.memory().read_matrix(0, 1, 1, 4096).unwrap();
                let dirty = exec.memory().read_matrix(0, 1, 1, 4096).unwrap();
                for w in 0..4096 {
                    let same = clean.row(0)[w].to_bits() == dirty.row(0)[w].to_bits();
                    if !same {
                        assert!(
                            faulted_words.contains(&w),
                            "seed {seed}: word {w} differs but no fault was logged there"
                        );
                    }
                }
            }
        }

        #[test]
        fn detection_reports_telemetry() {
            let plan = FaultPlan::new(FaultPlanConfig::new(0).with_transient_nan_ppm(1_000_000));
            let op = OpKind::PlusMul;
            let mut exec = Executor::new(staged_memory(op));
            exec.set_injector(PlannedInjector::new(plan));
            exec.enable_verification(AbftConfig::default());
            let err = exec.run(&single_mmo_program(op)).unwrap_err();
            match err {
                ExecError::SilentCorruption {
                    op: eop,
                    mmo_index,
                    violation,
                } => {
                    assert_eq!(eop, op);
                    assert_eq!(mmo_index, 0);
                    // A transient NaN/Inf is caught by the tripwire or the
                    // checksum, never misattributed to a witness.
                    let text = violation.to_string();
                    assert!(!text.is_empty());
                }
                other => panic!("expected corruption, got {other:?}"),
            }
            assert_eq!(exec.injector().unwrap().injected(), 1);
            // The same seed replays identically.
            let mut replay = Executor::new(staged_memory(op));
            replay.set_injector(PlannedInjector::new(plan));
            replay.enable_verification(AbftConfig::default());
            assert_eq!(replay.run(&single_mmo_program(op)).unwrap_err(), err);
        }

        #[test]
        fn retry_with_live_injector_can_recover() {
            // At a 40% tile fault rate a handful of retries almost surely
            // reaches a clean mmo site, because the injector's site
            // counter advances across runs.
            let plan = FaultPlan::new(FaultPlanConfig::new(3).with_bit_flip_ppm(400_000));
            let op = OpKind::PlusMul;
            let prog = single_mmo_program(op);
            let mut exec = Executor::new(staged_memory(op));
            exec.set_injector(PlannedInjector::new(plan));
            exec.enable_verification(AbftConfig::default());
            let mut succeeded = false;
            for _ in 0..32 {
                if exec.run(&prog).is_ok() {
                    succeeded = true;
                    break;
                }
            }
            assert!(succeeded, "no retry out of 32 recovered");
        }
    }

    #[test]
    fn memory_matrix_roundtrip() {
        let mut mem = SharedMemory::new(1000);
        let m = Matrix::from_fn(7, 9, |r, c| (r * 9 + c) as f32);
        mem.write_matrix(37, 20, &m).unwrap();
        assert_eq!(mem.read_matrix(37, 20, 7, 9).unwrap(), m);
        assert!(!mem.is_empty());
        assert_eq!(mem.len(), 1000);
    }
}
