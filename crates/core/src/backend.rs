//! Whole-matrix `D = C ⊕ (A ⊗ B)` execution backends.
//!
//! The evaluation framework (paper Figure 8) swaps the library that
//! implements the SIMD² API between a CUDA-core backend (correctness
//! validation, and the "SIMD² on CUDA cores" configuration) and a
//! Tensor-Core-emulation backend ("SIMD² with SIMD² units"). The
//! [`Backend`] trait is that seam; every backend also counts the tile
//! operations it performs, which is the statistic the performance model
//! charges cycles for.

use std::ops::Range;

use simd2_matrix::reference;
use simd2_matrix::tiling::TileGrid;
use simd2_matrix::{Matrix, ISA_TILE};
use simd2_mxu::{MmoUnit, PrecisionMode, Simd2Unit};
use simd2_semiring::simd::{self, KernelIsa, HALF_A_WORDS, HALF_B_WORDS};
use simd2_semiring::OpKind;

use simd2_fault::{AbftConfig, PlannedInjector};
use simd2_isa::{ExecStats, Executor};
use simd2_trace::{field, span, Counter, Tracer};

use crate::error::BackendError;
use crate::program::{compile_mmo, stage_operands};
use crate::repr::MatrixRef;

// The crate's one `unsafe` block — the lifetime erasure that hands a
// panel's borrowing task to a persistent worker — lives here; see its
// module docs for the argument.
mod chain;
#[allow(unsafe_code)]
mod pool;
mod rows;

use chain::{
    fit, pack, run_panel, strip_width, BStrip, ChainPanel, ChainPlan, ChainTally, PackScratch, Side,
};
use pool::Pool;
pub use rows::RowCount;
use rows::RowWalk;

/// Process-global whole-matrix mmo count (traced backends only).
static MATRIX_MMOS: Counter = Counter::new("core.matrix_mmos");
/// Process-global tile-level mmo count (traced backends only).
static TILE_MMOS: Counter = Counter::new("core.tile_mmos");
/// Process-global tile-load count (traced backends only).
static TILE_LOADS: Counter = Counter::new("core.tile_loads");
/// Process-global tile-store count (traced backends only).
static TILE_STORES: Counter = Counter::new("core.tile_stores");
/// Per-kernel-ISA completed whole-matrix mmo counts (traced backends
/// only) — which vector tier the datapath actually executed with.
static ISA_MMOS_AVX512: Counter = Counter::new("core.isa_mmos.avx512");
/// See [`ISA_MMOS_AVX512`].
static ISA_MMOS_AVX2: Counter = Counter::new("core.isa_mmos.avx2");
/// See [`ISA_MMOS_AVX512`].
static ISA_MMOS_SCALAR: Counter = Counter::new("core.isa_mmos.scalar");
/// Whole-matrix mmos that ran as an `A`-walk × dense-`B` sweep (traced
/// backends only).
static ROW_MMOS_SWEEP: Counter = Counter::new("core.row_mmos.sweep");
/// Whole-matrix mmos that ran as an `A`-walk × CSR-`B` scatter (traced
/// backends only).
static ROW_MMOS_SCATTER: Counter = Counter::new("core.row_mmos.scatter");
/// Whole-matrix or-and mmos that ran as the bit walk (traced backends
/// only).
static ROW_MMOS_BITS: Counter = Counter::new("core.row_mmos.bits");
/// The `core.isa_mmos.*` counter tracking `isa`.
fn isa_mmos_counter(isa: KernelIsa) -> &'static Counter {
    match isa {
        KernelIsa::Avx512 => &ISA_MMOS_AVX512,
        KernelIsa::Avx2 => &ISA_MMOS_AVX2,
        KernelIsa::Scalar => &ISA_MMOS_SCALAR,
    }
}

/// Running totals of the work a backend has performed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCount {
    /// Whole-matrix `mmo` invocations.
    pub matrix_mmos: u64,
    /// 16×16 tile-level operations (what one `simd2.mmo` instruction or
    /// one wmma call performs).
    pub tile_mmos: u64,
    /// Tile loads (operand movement).
    pub tile_loads: u64,
    /// Tile stores.
    pub tile_stores: u64,
}

impl OpCount {
    /// The *logical* tile traffic of `tile_rows` tile rows of `grid`
    /// (paper Figure 6): per output tile one `C` load, two operand loads
    /// and one tile mmo per `k` step, and one store — whichever walk
    /// computes the tiles, and whatever a host packs or skips to do it.
    fn of_tile_rows(grid: &TileGrid, tile_rows: usize) -> Self {
        let tiles = (tile_rows * grid.n_tiles) as u64;
        let k_tiles = grid.k_tiles as u64;
        Self {
            matrix_mmos: 0,
            tile_mmos: tiles * k_tiles,
            tile_loads: tiles * (1 + 2 * k_tiles),
            tile_stores: tiles,
        }
    }
}

impl std::ops::AddAssign for OpCount {
    fn add_assign(&mut self, rhs: Self) {
        self.matrix_mmos += rhs.matrix_mmos;
        self.tile_mmos += rhs.tile_mmos;
        self.tile_loads += rhs.tile_loads;
        self.tile_stores += rhs.tile_stores;
    }
}

/// Degree of worker parallelism a tiled backend uses for the output tile
/// grid.
///
/// Output tiles are mutually independent and the intra-tile reduction
/// order never changes, so every setting produces **bit-identical**
/// results — the knob trades wall-clock time only. Fault-injected units
/// run parallel too: their injectors address sites by tile *coordinate*,
/// not visit order, so the same plan strikes the same tiles under any
/// worker count and per-worker logs merge back deterministically; see
/// [`MmoUnit::shard`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Parallelism {
    /// Single-threaded reference execution order.
    #[default]
    Sequential,
    /// A fixed worker count (values below 1 are clamped to 1).
    Threads(usize),
    /// One worker per CPU the host reports
    /// ([`std::thread::available_parallelism`]).
    Auto,
}

impl Parallelism {
    /// Drops the setting to [`Parallelism::Sequential`]; whether that
    /// changed it.
    pub fn demote(&mut self) -> bool {
        std::mem::take(self) != Parallelism::Sequential
    }

    /// The number of workers this setting resolves to on this host.
    pub fn worker_count(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            }
        }
    }
}

/// How [`Backend::execute`] schedules its step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// The backend's configured schedule (its [`Parallelism`] setting).
    #[default]
    Configured,
    /// One thread, whatever the configuration — the recovery path after
    /// a [`BackendError::WorkerPanic`], where no worker can panic
    /// because none is spawned.
    Sequential,
}

impl Schedule {
    /// The number of workers a backend configured with `parallelism`
    /// runs this schedule on.
    pub fn worker_count(self, parallelism: Parallelism) -> usize {
        match self {
            Schedule::Configured => parallelism.worker_count(),
            Schedule::Sequential => 1,
        }
    }
}

/// What [`Backend::health`] reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Health {
    /// The instruction set the backend's tile kernel executes with
    /// (the scalar tier for backends without a selectable kernel).
    pub kernel_isa: KernelIsa,
    /// Fault-log entries evicted from the backend's bounded ring buffer
    /// (the `simd2-fault` injector `dropped` counter); zero for
    /// backends without an injector.
    pub fault_log_dropped: u64,
}

impl Default for Health {
    fn default() -> Self {
        Self {
            kernel_isa: KernelIsa::Scalar,
            fault_log_dropped: 0,
        }
    }
}

/// A degradation rung a resilience layer pulls through
/// [`Backend::degrade`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Degrade {
    /// Pin the tile kernel to this instruction set — the rung for
    /// repeated ABFT detections that implicate a vector tier.
    PinKernelIsa(KernelIsa),
    /// Permanently drop to the sequential schedule — the rung for
    /// repeated worker panics.
    ForceSequential,
}

/// A whole-matrix SIMD² operation engine.
///
/// The one thing a backend implements is [`execute`](Self::execute): one
/// `D = C ⊕ (A ⊗ B)` step under a [`Schedule`]. Configured or sequential
/// is an argument of that entry, so a wrapper that forwards it forwards
/// both; [`mmo`](Self::mmo) and [`mmo_ref`](Self::mmo_ref) are
/// conveniences over it that no implementor overrides.
///
/// Implementations must produce results equivalent to
/// [`simd2_matrix::reference::mmo`] up to the backend's declared
/// precision; this is checked by the validation framework and the
/// cross-backend tests.
pub trait Backend {
    /// Short human-readable backend name.
    fn name(&self) -> &'static str;

    /// The precision operands are rounded to on their way in.
    fn precision(&self) -> PrecisionMode;

    /// Whether operands are rounded below fp32.
    fn reduced_precision(&self) -> bool {
        self.precision() != PrecisionMode::Fp32Input
    }

    /// Executes one `D = C ⊕ (A ⊗ B)` step.
    ///
    /// The `schedule` is a hint, never a semantic change: the output and
    /// the counters must be **bit-identical** to running the step on one
    /// thread. The step is validated ([`MmoArgs::checked_grid`]) before
    /// it touches a datapath, so a malformed step is rejected without
    /// side effects.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Shape`] when operand shapes are
    /// incompatible, [`BackendError::Exec`] when the
    /// underlying engine faults, [`BackendError::Corruption`] when an
    /// enabled ABFT check detects a silently corrupted result, and
    /// [`BackendError::WorkerPanic`] when a worker thread panicked. A
    /// failed step contributes no counters.
    fn execute(&mut self, step: &MmoArgs<'_>, schedule: Schedule) -> Result<Matrix, BackendError>;

    /// Executes one `D = C ⊕ (A ⊗ B)` on the configured schedule.
    ///
    /// # Errors
    ///
    /// As [`execute`](Self::execute).
    fn mmo(
        &mut self,
        op: OpKind,
        a: &Matrix,
        b: &Matrix,
        c: &Matrix,
    ) -> Result<Matrix, BackendError> {
        self.execute(&MmoArgs::new(op, a, b, c), Schedule::Configured)
    }

    /// [`mmo`](Self::mmo) on borrowed operands. What a [`MatrixRef`]
    /// declares about its operand is ignored: the engine measures the
    /// operands itself.
    ///
    /// # Errors
    ///
    /// As [`execute`](Self::execute).
    fn mmo_ref(
        &mut self,
        op: OpKind,
        a: MatrixRef<'_>,
        b: MatrixRef<'_>,
        c: MatrixRef<'_>,
    ) -> Result<Matrix, BackendError> {
        self.mmo(op, a.matrix, b.matrix, c.matrix)
    }

    /// The backend's kernel tier and fault-log state. Wrappers forward
    /// it; backends with neither a selectable kernel nor an injector
    /// keep the default.
    fn health(&self) -> Health {
        Health::default()
    }

    /// Pulls a degradation rung. Returns whether the backend honoured
    /// it: a backend without that seam, or already on the rung's
    /// schedule, refuses (the default). Wrappers forward it.
    fn degrade(&mut self, rung: Degrade) -> bool {
        let _ = rung;
        false
    }

    /// Work counters accumulated so far.
    fn op_count(&self) -> OpCount;

    /// Resets the work counters.
    fn reset_count(&mut self);
}

/// Borrowed operands of one `D = C ⊕ (A ⊗ B)` step, as submitted to
/// [`Backend::execute`].
#[derive(Clone, Copy, Debug)]
pub struct MmoArgs<'a> {
    /// Semiring operation.
    pub op: OpKind,
    /// Left operand (`m×k`).
    pub a: &'a Matrix,
    /// Right operand (`k×n`).
    pub b: &'a Matrix,
    /// Accumulator (`m×n`).
    pub c: &'a Matrix,
}

impl<'a> MmoArgs<'a> {
    /// The step's args.
    pub fn new(op: OpKind, a: &'a Matrix, b: &'a Matrix, c: &'a Matrix) -> Self {
        Self { op, a, b, c }
    }

    /// The step's 16×16 tile grid, once its shapes pass
    /// [`check_mmo_operands`](crate::validate::check_mmo_operands) — the
    /// one gate every engine runs each step through before it touches a
    /// datapath, so a malformed step is rejected with the same
    /// [`BackendError`] on every backend and schedule.
    ///
    /// # Errors
    ///
    /// [`BackendError::Shape`].
    pub fn checked_grid(&self) -> Result<TileGrid, BackendError> {
        crate::validate::check_mmo_operands(self.op, self.a, self.b, self.c)?;
        Ok(TileGrid::new(
            self.a.rows(),
            self.b.cols(),
            self.a.cols(),
            ISA_TILE,
        ))
    }
}

/// Stringifies a worker's panic payload for [`BackendError::WorkerPanic`]
/// (the `String` / `&str` cases cover `panic!` and `assert!`).
fn panic_payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(other) => match other.downcast::<&'static str>() {
            Ok(s) => (*s).to_owned(),
            Err(_) => "non-string panic payload".to_owned(),
        },
    }
}

/// Emits the [`span::MMO`] begin event for a whole-matrix operation.
/// `isa` is the instruction set the backend's tile kernel executes with
/// (every worker of one mmo runs the same kernel tier).
fn begin_mmo(tracer: &Tracer, op: OpKind, grid: &TileGrid, workers: usize, isa: KernelIsa) {
    tracer.begin(
        span::MMO,
        &[
            field("op", op.name()),
            field("m", grid.m),
            field("n", grid.n),
            field("k", grid.k),
            field("workers", workers),
            field("isa", isa.name()),
        ],
    );
}

/// Emits the [`span::MMO`] end event for a *completed* whole-matrix mmo
/// and bumps the process-global work counters (including the per-ISA
/// `core.isa_mmos.*` counter) by the same delta, so traced span totals
/// and [`Backend::op_count`] advance in lock-step: a failed mmo
/// contributes to neither.
fn finish_mmo(tracer: &Tracer, op: OpKind, delta: OpCount, isa: KernelIsa) {
    if !tracer.enabled() {
        return;
    }
    MATRIX_MMOS.add(delta.matrix_mmos);
    TILE_MMOS.add(delta.tile_mmos);
    TILE_LOADS.add(delta.tile_loads);
    TILE_STORES.add(delta.tile_stores);
    isa_mmos_counter(isa).add(delta.matrix_mmos);
    tracer.end(
        span::MMO,
        &[
            field("op", op.name()),
            field("tile_mmos", delta.tile_mmos),
            field("tile_loads", delta.tile_loads),
            field("tile_stores", delta.tile_stores),
        ],
    );
}

/// Emits the [`span::TILE_PANEL`] summary for one executed row panel
/// (`rows` is the panel's height in elements). Sequential schedules
/// emit exactly one, covering the whole grid.
fn emit_tile_panel(tracer: &Tracer, panel_idx: usize, rows: usize, count: OpCount) {
    tracer.end(
        span::TILE_PANEL,
        &[
            field("panel", panel_idx),
            field("rows", rows),
            field("tile_mmos", count.tile_mmos),
            field("tile_loads", count.tile_loads),
            field("tile_stores", count.tile_stores),
        ],
    );
}

/// Plain-loop fp32 backend — the correctness oracle, standing in for the
/// cuASR/CUTLASS CUDA-core library of §5.1.
///
/// Tile counters are still maintained (as if the computation were
/// partitioned into 16×16 tiles) so both configurations report comparable
/// statistics.
#[derive(Clone, Debug, Default)]
pub struct ReferenceBackend {
    count: OpCount,
    tracer: Tracer,
}

impl ReferenceBackend {
    /// Creates the backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a telemetry tracer emitting [`span::MMO`] spans.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attaches a telemetry tracer (builder form).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The attached tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

impl Backend for ReferenceBackend {
    fn name(&self) -> &'static str {
        "reference (CUDA cores, fp32)"
    }

    fn precision(&self) -> PrecisionMode {
        PrecisionMode::Fp32Input
    }

    fn execute(&mut self, step: &MmoArgs<'_>, _schedule: Schedule) -> Result<Matrix, BackendError> {
        let grid = step.checked_grid()?;
        begin_mmo(&self.tracer, step.op, &grid, 1, KernelIsa::Scalar);
        let d = reference::mmo(step.op, step.a, step.b, step.c)?;
        let delta = OpCount {
            matrix_mmos: 1,
            ..OpCount::of_tile_rows(&grid, grid.m_tiles)
        };
        self.count += delta;
        finish_mmo(&self.tracer, step.op, delta, KernelIsa::Scalar);
        Ok(d)
    }

    fn op_count(&self) -> OpCount {
        self.count
    }

    fn reset_count(&mut self) {
        self.count = OpCount::default();
    }
}

/// Tiled functional SIMD²-unit backend — the one engine behind
/// `D = C ⊕ (A ⊗ B)`: partitions operands into 16×16 tiles and drives an
/// [`MmoUnit`] over them, with fp16 operand quantisation — the
/// functional semantics of the proposed hardware — and lowers a step
/// whose operands store few enough entries to a row walk that skips
/// their annihilator terms (`rows`: the 2:4 sparse pipe and spGEMM of
/// §6.5). Which lowering a step takes is the engine's business, measured
/// off the operands and read off the unit type (see [`Backend::execute`]
/// below); outputs and [`OpCount`]s never depend on it.
///
/// Operands are quantised where the unit's input stage does it — once,
/// as they are packed into tile-major scratch (or into a row walk's
/// compressed image) — and each output tile's
/// `k` loop is one [`MmoUnit::execute_chain`] call that keeps the
/// accumulator tile inside the unit (Figures 4(c) and 6); see
/// DESIGN.md §8. The unit is generic so the same loop runs over the
/// pristine [`Simd2Unit`] or a [`simd2_fault::FaultySimd2Unit`] whose
/// datapath injects faults.
///
/// With a [`Parallelism`] setting of `T` workers above one, units that
/// offer [`MmoUnit::shard`] execute the output tile grid as row panels:
/// one on the calling thread, the others on the backend's pool of
/// `T − 1` persistent threads, started by the first such MMO — a clone
/// starts without one, and [`Degrade::ForceSequential`] or dropping the
/// backend joins it. That is bit-identical to sequential execution
/// (tiles are independent; per-tile reduction order is unchanged), with
/// exact merged counters. Fault-injected units shard too:
/// coordinate-addressed injection makes the same plan strike the same
/// tiles under any worker count, and per-worker fault logs merge back in
/// the sequential visit order so the merged log equals the sequential
/// one. A panel panic never aborts the process — it surfaces as
/// [`BackendError::WorkerPanic`] after every other panel drains, and the
/// pool serves the next MMO.
#[derive(Debug)]
pub struct TiledBackend<U: MmoUnit = Simd2Unit> {
    unit: U,
    count: OpCount,
    row_count: RowCount,
    parallelism: Parallelism,
    tracer: Tracer,
    /// The workers beside the caller; `None` until a multi-worker MMO
    /// needs them.
    pool: Option<Pool>,
    scratch: PackScratch,
}

/// A clone shares no threads or scratch with its original: it starts
/// with no pool, and its first multi-worker MMO starts its own.
impl<U: MmoUnit + Clone> Clone for TiledBackend<U> {
    fn clone(&self) -> Self {
        Self {
            unit: self.unit.clone(),
            count: self.count,
            row_count: self.row_count,
            parallelism: self.parallelism,
            tracer: self.tracer.clone(),
            pool: None,
            scratch: PackScratch::default(),
        }
    }
}

// A single, non-generic `Default` impl so `TiledBackend::default()`
// still infers the default unit type.
impl Default for TiledBackend<Simd2Unit> {
    fn default() -> Self {
        Self::with_unit(Simd2Unit::default())
    }
}

impl TiledBackend<Simd2Unit> {
    /// Creates the backend with the default fp16-input unit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the backend with the default unit and the given
    /// parallelism setting.
    pub fn with_parallelism(parallelism: Parallelism) -> Self {
        let mut be = Self::default();
        be.set_parallelism(parallelism);
        be
    }
}

impl<U: MmoUnit> TiledBackend<U> {
    /// Creates the backend over a specific unit.
    pub fn with_unit(unit: U) -> Self {
        Self {
            unit,
            count: OpCount::default(),
            row_count: RowCount::default(),
            parallelism: Parallelism::default(),
            tracer: Tracer::off(),
            pool: None,
            scratch: PackScratch::default(),
        }
    }

    /// Attaches a telemetry tracer. Every subsequent [`Backend::mmo`]
    /// emits a [`span::MMO`] begin/end span plus one [`span::TILE_PANEL`]
    /// summary per executed panel (workers share the sink via cloned
    /// tracers); completed-work deltas also feed the process-global
    /// `core.*` counters. Span-derived totals equal
    /// [`Backend::op_count`] exactly: failed operations emit no end
    /// event and bump nothing.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attaches a telemetry tracer (builder form).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The attached tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The underlying unit (e.g. for fault telemetry).
    pub fn unit(&self) -> &U {
        &self.unit
    }

    /// The instruction set the unit's tile kernel executes with —
    /// reported in [`span::MMO`] begin spans as the `isa` field and
    /// accumulated per tier in the `core.isa_mmos.*` counters.
    pub fn kernel_isa(&self) -> KernelIsa {
        self.unit.kernel_isa()
    }

    /// Unwraps into the underlying unit.
    pub fn into_unit(self) -> U {
        self.unit
    }

    /// What the row walks have done so far — how many steps walked, and
    /// the terms they folded and skipped. Reset with
    /// [`Backend::reset_count`].
    pub fn row_count(&self) -> RowCount {
        self.row_count
    }

    /// The configured parallelism setting.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Sets the parallelism of subsequent [`Backend::mmo`] calls.
    ///
    /// Results are bit-identical across settings; units without a
    /// [`shard`](MmoUnit::shard) seam execute sequentially regardless. A
    /// new setting joins the pool of the old one.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        if parallelism != self.parallelism {
            self.pool = None;
        }
        self.parallelism = parallelism;
    }

    /// Starts the pool a `workers`-wide schedule runs on — at its first
    /// use, or again when the worker count changed — and wakes it, so
    /// that the workers' wake overlaps the caller's set-up of the step.
    fn wake_pool(&mut self, workers: usize) {
        if workers == 1 {
            return;
        }
        let pool = match &mut self.pool {
            Some(pool) if pool.threads() == workers - 1 => pool,
            slot => slot.insert(Pool::new(workers - 1)),
        };
        pool.wake();
    }
}

/// The one panel scheduler, whichever walk a step takes: each entry of
/// `work` is a contiguous panel of output tile rows
/// ([`TileGrid::row_panels`]) and the state its worker owns; `kernel`
/// computes a panel into its disjoint row slab of `d`. One panel runs
/// on the calling thread; several run through the backend's `pool`
/// ([`Pool::run`]: panel 0 on the calling thread, the others on the
/// workers), and a panic surfaces as [`BackendError::WorkerPanic`] with
/// the first panicked panel's index once every other panel has drained.
/// A completed panel emits its [`span::TILE_PANEL`] summary with its
/// logical [`OpCount`].
///
/// Returns each panel's result in panel order (`None` for a panicked
/// one) — the order the caller merges counters and shard state in, so
/// totals and fault logs do not depend on the worker count. Panels only
/// partition *independent* output rows and a walk folds each output
/// element in its one order, so neither do the bits of `d`.
fn run_panels<S: Send, T: Send>(
    pool: Option<&Pool>,
    tracer: &Tracer,
    grid: &TileGrid,
    d: &mut Matrix,
    work: impl Iterator<Item = (Range<usize>, S)>,
    kernel: impl Fn(S, Range<usize>, &mut [f32]) -> T + Sync,
) -> (Vec<Option<T>>, Option<BackendError>) {
    let kernel = &kernel;
    let mut rest: &mut [f32] = d.as_mut_slice();
    let mut tasks = Vec::new();
    for (panel_idx, (panel, state)) in work.enumerate() {
        let rows = grid.panel_rows(&panel).len();
        let (slab, tail) = std::mem::take(&mut rest).split_at_mut(rows * grid.n);
        rest = tail;
        let tracer = tracer.clone();
        tasks.push(move || {
            let count = OpCount::of_tile_rows(grid, panel.len());
            let result = kernel(state, panel, slab);
            emit_tile_panel(&tracer, panel_idx, rows, count);
            result
        });
    }
    // Disjoint-slab invariant: the panels partition 0..m_tiles
    // contiguously and `panel_rows` clips to the true height, so the
    // per-panel slabs must consume the whole of `D` — nothing is
    // left zero-initialised by a panel-split bug.
    assert!(
        rest.is_empty(),
        "row panels must cover every output row exactly once"
    );
    if tasks.len() <= 1 {
        return (tasks.into_iter().map(|task| Some(task())).collect(), None);
    }
    let pool = pool.expect("several panels come from several workers, who have a pool");
    let mut first_panic = None;
    let results = pool
        .run(tasks)
        .into_iter()
        .enumerate()
        .map(|(panel, outcome)| match outcome {
            Ok(result) => Some(result),
            Err(payload) => {
                first_panic.get_or_insert(BackendError::WorkerPanic {
                    panel,
                    payload: panic_payload_message(payload),
                });
                None
            }
        })
        .collect();
    (results, first_panic)
}

impl<U: MmoUnit + Send + Sync> TiledBackend<U> {
    /// The tile chain: several panels run on private unit shards, one
    /// per `B` strip each (see [`run_panel`]), whose state (fault logs)
    /// is absorbed once every panel is done — strip by strip, in panel order
    /// within a strip, the order one unit sweeping the whole grid visits
    /// tiles in, so merged fault logs equal the sequential schedule's; a
    /// surviving worker's shards are absorbed even when another
    /// panicked. One panel, or a unit that does not shard, runs on the
    /// parent unit. A single-strip grid's `B` strip is packed here, on
    /// the calling thread, while the pool's workers wake.
    fn run_chain(
        &mut self,
        step: &MmoArgs<'_>,
        grid: &TileGrid,
        workers: usize,
        d: &mut Matrix,
    ) -> Result<ChainTally, BackendError> {
        let width = strip_width(grid.k_tiles);
        let strips = grid.n_tiles.div_ceil(width);
        let strip_tiles = width.min(grid.n_tiles) * grid.k_tiles;
        let plan = ChainPlan::of(&self.unit, step);
        let (k_tiles, lanes) = (grid.k_tiles, plan.lanes);
        let mut panels = grid.row_panels(workers);
        let shard_panel = |_| (0..strips).map(|_| self.unit.shard()).collect();
        let mut shards: Vec<Vec<U>> = (panels.len() > 1)
            .then(|| panels.iter().map(shard_panel).collect())
            .flatten()
            .unwrap_or_default();
        if shards.is_empty() {
            panels = grid.row_panels(1);
        }
        let PackScratch { a, b } = &mut self.scratch;
        let a_rows = fit(a, panels.len(), k_tiles, lanes.words(HALF_A_WORDS));
        let b_bufs = if strips == 1 { 1 } else { panels.len() };
        let mut b_bufs = fit(b, b_bufs, strip_tiles, lanes.words(HALF_B_WORDS));
        let b_strips: Vec<BStrip<'_>> = if strips == 1 {
            let mut packed = b_bufs.next().expect("one shared strip");
            let (strip, dst) = (0..grid.n_tiles, packed.reborrow());
            pack(&self.unit, step, plan, Side::B, strip, k_tiles, dst);
            let view = packed.into_view();
            panels.iter().map(|_| BStrip::Shared(view)).collect()
        } else {
            b_bufs.map(BStrip::Own).collect()
        };
        let units: Vec<&mut [U]> = if shards.is_empty() {
            vec![std::slice::from_mut(&mut self.unit)]
        } else {
            shards.iter_mut().map(Vec::as_mut_slice).collect()
        };
        let states = units
            .into_iter()
            .zip(a_rows)
            .zip(b_strips)
            .map(|((units, a_row), b)| ChainPanel { units, a_row, b });
        let work = panels.into_iter().zip(states);
        let (done, panic) = run_panels(
            self.pool.as_ref(),
            &self.tracer,
            grid,
            d,
            work,
            |state, panel, slab| run_panel(state, step, grid, plan, panel, slab),
        );
        let mut survivors: Vec<std::vec::IntoIter<U>> = shards
            .into_iter()
            .zip(&done)
            .filter_map(|(shards, done)| done.map(|_| shards.into_iter()))
            .collect();
        for _ in 0..strips {
            for shards in &mut survivors {
                self.unit
                    .absorb(shards.next().expect("one shard per strip"));
            }
        }
        panic.map_or(Ok(()), Err)?;
        Ok(done.into_iter().flatten().sum())
    }

    /// A row walk: every panel folds its own output rows against the
    /// walk's shared `B` image; a completed step adds its term counters,
    /// merged in panel order.
    fn run_rows(
        &mut self,
        walk: &RowWalk<'_>,
        grid: &TileGrid,
        workers: usize,
        d: &mut Matrix,
    ) -> Result<(), BackendError> {
        let unit = &self.unit;
        let work = grid
            .row_panels(workers)
            .into_iter()
            .map(|panel| (panel, ()));
        let (terms, panic) = run_panels(
            self.pool.as_ref(),
            &self.tracer,
            grid,
            d,
            work,
            |(), panel, slab| walk.fold(unit, grid.panel_rows(&panel), slab),
        );
        panic.map_or(Ok(()), Err)?;
        walk.tally(&mut self.row_count, terms.into_iter().flatten());
        Ok(())
    }
}

impl<U: MmoUnit + Send + Sync> Backend for TiledBackend<U> {
    fn name(&self) -> &'static str {
        "SIMD2 units (tiled, fp16 operands)"
    }

    fn precision(&self) -> PrecisionMode {
        self.unit.precision()
    }

    /// Picks the step's walk from what the engine measures of the
    /// operands, then runs it over as many row panels as the schedule
    /// has workers (at most one per tile row):
    ///
    /// * a unit that is not [coordinate-free](MmoUnit::COORDINATE_FREE)
    ///   (it injects or probes at [`simd2_mxu::TileCoord`] sites, which
    ///   only the tile grid has) — the **tile chain**, unmeasured;
    /// * a coordinate-free unit — a **row walk** (`A`-walk × sweep or
    ///   scatter, by `B`'s stored density) when the operands store few
    ///   enough entries the walk may skip for a row kernel to beat the
    ///   chain (`rows::row_kernel`, the walk-or-chain rule, priced
    ///   against the tile pairs the chain would leave out), the tile
    ///   chain otherwise. A sample of a few rows settles a dense step.
    ///
    /// Every walk folds each output element from `C ⊕ id` in ascending
    /// `k`, so the output is the same bits; the step adds the grid's
    /// logical [`OpCount`] and emits the same spans whichever ran, and a
    /// row walk adds its term counters to
    /// [`row_count`](TiledBackend::row_count).
    fn execute(&mut self, step: &MmoArgs<'_>, schedule: Schedule) -> Result<Matrix, BackendError> {
        let grid = step.checked_grid()?;
        let workers = schedule.worker_count(self.parallelism);
        self.wake_pool(workers);
        self.unit.begin_matrix_mmo();
        let isa = self.unit.kernel_isa();
        begin_mmo(&self.tracer, step.op, &grid, workers, isa);
        let mut d = Matrix::zeros(grid.m, grid.n);
        let walk = U::COORDINATE_FREE
            .then(|| RowWalk::choose(&self.unit, step))
            .flatten();
        let tally = match &walk {
            Some(walk) => self
                .run_rows(walk, &grid, workers, &mut d)
                .map(|()| ChainTally::default())?,
            None => self.run_chain(step, &grid, workers, &mut d)?,
        };
        if self.tracer.enabled() {
            match &walk {
                Some(walk) if walk.on_bits() => ROW_MMOS_BITS.add(1),
                Some(walk) if walk.scatters() => ROW_MMOS_SCATTER.add(1),
                Some(_) => ROW_MMOS_SWEEP.add(1),
                None => {}
            }
            tally.record();
        }
        let delta = OpCount {
            matrix_mmos: 1,
            ..OpCount::of_tile_rows(&grid, grid.m_tiles)
        };
        self.count += delta;
        finish_mmo(&self.tracer, step.op, delta, isa);
        Ok(d)
    }

    fn health(&self) -> Health {
        Health {
            kernel_isa: self.unit.kernel_isa(),
            fault_log_dropped: self.unit.fault_dropped(),
        }
    }

    fn degrade(&mut self, rung: Degrade) -> bool {
        match rung {
            Degrade::PinKernelIsa(isa) => self.unit.repin_kernel(isa),
            Degrade::ForceSequential => {
                self.pool = None;
                self.parallelism.demote()
            }
        }
    }

    fn op_count(&self) -> OpCount {
        self.count
    }

    fn reset_count(&mut self) {
        self.count = OpCount::default();
        self.row_count = RowCount::default();
    }
}

/// ISA-level backend: emits a real SIMD² instruction stream per output
/// tile and runs it through the warp-level [`Executor`] — the deepest
/// (and slowest) path through the stack, used to validate that the ISA,
/// assembler and executor compose into correct whole-matrix results.
#[derive(Debug, Default)]
pub struct IsaBackend {
    count: OpCount,
    exec_stats: ExecStats,
    injector: Option<PlannedInjector>,
    abft: Option<AbftConfig>,
    tracer: Tracer,
}

impl IsaBackend {
    /// Creates the backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a telemetry tracer emitting [`span::MMO`] spans.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Attaches a telemetry tracer (builder form).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The attached tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Cumulative ISA-level execution statistics.
    pub fn exec_stats(&self) -> &ExecStats {
        &self.exec_stats
    }

    /// Installs a fault injector on the executor datapath. The injector
    /// persists across `mmo` calls (site counters keep advancing), so a
    /// retried operation sees fresh fault draws.
    pub fn set_injector(&mut self, injector: PlannedInjector) {
        self.injector = Some(injector);
    }

    /// Removes and returns the installed injector, e.g. to read its log.
    pub fn take_injector(&mut self) -> Option<PlannedInjector> {
        self.injector.take()
    }

    /// The installed injector, for telemetry.
    pub fn injector(&self) -> Option<&PlannedInjector> {
        self.injector.as_ref()
    }

    /// Enables per-instruction ABFT verification inside the executor;
    /// detections surface as [`BackendError::Corruption`].
    pub fn enable_verification(&mut self, config: AbftConfig) {
        self.abft = Some(config);
    }

    /// Disables ABFT verification.
    pub fn disable_verification(&mut self) {
        self.abft = None;
    }
}

impl Backend for IsaBackend {
    fn name(&self) -> &'static str {
        "SIMD2 ISA executor"
    }

    fn precision(&self) -> PrecisionMode {
        PrecisionMode::Fp16Input
    }

    /// Lowers the step to a one-warp kernel ([`compile_mmo`]: load C,
    /// stream the k tiles, store D, output tile by output tile), stages
    /// the operands and runs it through the warp-level executor.
    fn execute(&mut self, step: &MmoArgs<'_>, _schedule: Schedule) -> Result<Matrix, BackendError> {
        let grid = step.checked_grid()?;
        let MmoArgs { op, a, b, c, .. } = *step;
        // The executor drives a default `Simd2Unit`, so the datapath runs
        // on the process-wide selected kernel tier.
        let isa = simd::selected_isa();
        begin_mmo(&self.tracer, op, &grid, 1, isa);
        let kernel = compile_mmo(op, grid.m, grid.n, grid.k, 1);
        let mut exec = Executor::new(stage_operands(&kernel, a, b, c)?);
        if let Some(injector) = self.injector.take() {
            exec.set_injector(injector);
        }
        if let Some(config) = self.abft {
            exec.enable_verification(config);
        }
        let run = exec.run(&kernel.warp_programs[0]);
        // Recover the injector even on a detection, so its site counters
        // (and fault log) survive into the caller's retry.
        if let Some(injector) = exec.take_injector() {
            self.injector = Some(injector);
        }
        let stats = run?;
        let delta = OpCount {
            matrix_mmos: 1,
            tile_mmos: stats.total_mmos(),
            tile_loads: stats.loads,
            tile_stores: stats.stores,
        };
        self.count += delta;
        finish_mmo(&self.tracer, op, delta, isa);
        self.exec_stats.merge(&stats);
        let (_, np, _) = kernel.layout.padded;
        let d = exec
            .memory()
            .read_matrix(kernel.layout.c_base, np, grid.m, grid.n)?;
        Ok(d)
    }

    fn health(&self) -> Health {
        Health {
            fault_log_dropped: self.injector.as_ref().map_or(0, PlannedInjector::dropped),
            ..Health::default()
        }
    }

    fn op_count(&self) -> OpCount {
        self.count
    }

    fn reset_count(&mut self) {
        self.count = OpCount::default();
    }
}

#[cfg(test)]
mod tests {
    use super::chain::CHAIN_SKIPPED_PAIRS;
    use super::*;
    use simd2_matrix::gen;
    use simd2_matrix::Tile;
    use simd2_mxu::PrecisionMode;
    use simd2_semiring::precision::quantize_f16;
    use simd2_semiring::ALL_OPS;

    fn operands(op: OpKind, m: usize, n: usize, k: usize) -> (Matrix, Matrix, Matrix) {
        let mut a = gen::random_operands_for(op, m, k, 42);
        let mut b = gen::random_operands_for(op, k, n, 43);
        // Quantise inputs so the fp32 reference and the fp16 backends see
        // the same operand bits, and therefore agree exactly.
        for v in a.as_mut_slice() {
            *v = quantize_f16(*v);
        }
        for v in b.as_mut_slice() {
            *v = quantize_f16(*v);
        }
        let c = Matrix::filled(m, n, op.reduce_identity_f32());
        (a, b, c)
    }

    #[test]
    fn tiled_backend_matches_reference_all_ops() {
        for op in ALL_OPS {
            let (a, b, c) = operands(op, 20, 36, 52); // ragged shapes
            let want = ReferenceBackend::new().mmo(op, &a, &b, &c).unwrap();
            let got = TiledBackend::new().mmo(op, &a, &b, &c).unwrap();
            assert_eq!(got, want, "{op}");
        }
    }

    #[test]
    fn isa_backend_matches_tiled_backend() {
        for op in ALL_OPS {
            let (a, b, c) = operands(op, 18, 33, 17);
            let tiled = TiledBackend::new().mmo(op, &a, &b, &c).unwrap();
            let isa = IsaBackend::new().mmo(op, &a, &b, &c).unwrap();
            // Same unit, same tiling order ⇒ bit-identical.
            assert_eq!(tiled, isa, "{op}");
        }
    }

    #[test]
    fn tile_counts_match_grid_arithmetic() {
        let op = OpKind::MinPlus;
        let (a, b, c) = operands(op, 40, 40, 40);
        let mut be = TiledBackend::new();
        be.mmo(op, &a, &b, &c).unwrap();
        // 40 → 3 tiles per dim: 27 tile mmos, 9 output tiles.
        let count = be.op_count();
        assert_eq!(count.matrix_mmos, 1);
        assert_eq!(count.tile_mmos, 27);
        assert_eq!(count.tile_stores, 9);
        assert_eq!(count.tile_loads, 9 + 2 * 27);
        be.reset_count();
        assert_eq!(be.op_count(), OpCount::default());
    }

    #[test]
    fn isa_backend_counts_agree_with_tiled() {
        let op = OpKind::OrAnd;
        let (a, b, c) = operands(op, 32, 32, 32);
        let mut t = TiledBackend::new();
        let mut i = IsaBackend::new();
        t.mmo(op, &a, &b, &c).unwrap();
        i.mmo(op, &a, &b, &c).unwrap();
        assert_eq!(t.op_count().tile_mmos, i.op_count().tile_mmos);
        assert_eq!(t.op_count().tile_stores, i.op_count().tile_stores);
        assert_eq!(i.exec_stats().mmos[&op], 8);
    }

    #[test]
    fn parallel_backend_is_bit_identical_to_sequential() {
        for op in ALL_OPS {
            let (a, b, c) = operands(op, 70, 23, 37); // ragged, 5 tile rows
            let seq = TiledBackend::new().mmo(op, &a, &b, &c).unwrap();
            for workers in [2usize, 4, 8] {
                let mut be = TiledBackend::with_parallelism(Parallelism::Threads(workers));
                let par = be.mmo(op, &a, &b, &c).unwrap();
                // Bit-for-bit, not approx: same tiles, same reduction order.
                assert!(seq.bits_eq(&par), "{op} with {workers} workers");
            }
        }
    }

    #[test]
    fn parallel_counters_stay_exact() {
        let op = OpKind::MinPlus;
        let (a, b, c) = operands(op, 80, 48, 33);
        let sparse_a = sparse_operand(80, 33, f32::INFINITY, 0.2, 44);
        // One tile-chain step and one row-walked one.
        let run = |be: &mut TiledBackend| {
            be.mmo(op, &a, &b, &c).unwrap();
            be.mmo(op, &sparse_a, &b, &c).unwrap();
        };
        let mut seq = TiledBackend::new();
        run(&mut seq);
        assert_eq!(seq.row_count().sparse_mmos, 1);
        for workers in [2usize, 3, 8] {
            let mut par = TiledBackend::with_parallelism(Parallelism::Threads(workers));
            run(&mut par);
            assert_eq!(par.op_count(), seq.op_count(), "{workers} workers");
            assert_eq!(par.row_count(), seq.row_count(), "{workers} workers");
        }
    }

    #[test]
    fn parallelism_knob_roundtrips_and_auto_resolves() {
        let mut be = TiledBackend::new();
        assert_eq!(be.parallelism(), Parallelism::Sequential);
        be.set_parallelism(Parallelism::Threads(0));
        assert_eq!(be.parallelism().worker_count(), 1, "clamped to one worker");
        assert_eq!(Parallelism::Threads(4).worker_count(), 4);
        assert!(Parallelism::Auto.worker_count() >= 1);
        assert_eq!(Parallelism::Sequential.worker_count(), 1);
    }

    #[test]
    fn faulty_units_run_the_parallel_path_bit_identically() {
        use simd2_fault::{FaultPlan, FaultPlanConfig, FaultySimd2Unit, PlannedInjector};
        let op = OpKind::PlusMul;
        let (a, b, c) = operands(op, 70, 40, 40); // 5 tile rows
        let faulty = |threads| {
            let plan = FaultPlan::new(FaultPlanConfig::new(7).with_bit_flip_ppm(200_000));
            let unit = FaultySimd2Unit::new(Simd2Unit::new(), PlannedInjector::new(plan));
            let mut be = TiledBackend::with_unit(unit);
            be.set_parallelism(threads);
            let d = be.mmo(op, &a, &b, &c).unwrap();
            let log = be.unit().injector().log();
            let count = be.op_count();
            (d, log, count)
        };
        let (d_seq, log_seq, count_seq) = faulty(Parallelism::Sequential);
        for workers in [2usize, 3, 8] {
            let (d_par, log_par, count_par) = faulty(Parallelism::Threads(workers));
            // Coordinate-addressed sites: the same plan strikes the same
            // tiles regardless of panel assignment, logs merge in panel
            // order, counters merge exactly.
            assert_eq!(log_seq, log_par, "{workers} workers");
            assert_eq!(d_seq, d_par, "{workers} workers");
            assert_eq!(count_seq, count_par, "{workers} workers");
        }
        assert!(
            !log_seq.is_empty(),
            "campaign should have struck at this rate"
        );
    }

    #[test]
    fn faulty_unit_retry_draws_fresh_faults_on_the_parallel_path() {
        use simd2_fault::{FaultPlan, FaultPlanConfig, FaultySimd2Unit, PlannedInjector};
        let op = OpKind::MinPlus;
        let (a, b, c) = operands(op, 60, 30, 30);
        let plan = FaultPlan::new(FaultPlanConfig::new(11).with_transient_nan_ppm(300_000));
        let unit = FaultySimd2Unit::new(Simd2Unit::new(), PlannedInjector::new(plan));
        let mut be = TiledBackend::with_unit(unit);
        be.set_parallelism(Parallelism::Threads(4));
        let first = be.mmo(op, &a, &b, &c).unwrap();
        let second = be.mmo(op, &a, &b, &c).unwrap();
        // The matrix-mmo sequence number advances between calls, so the
        // second execution is an independent draw — at a 30% per-tile
        // rate on 16 output tiles the two strike sets differ.
        assert_ne!(
            first, second,
            "re-execution must see fresh transient faults"
        );
        assert_eq!(be.unit().injector().mmo_seq(), 2);
    }

    #[test]
    fn worker_panic_surfaces_as_error_not_abort() {
        use simd2_fault::{PanicProbeUnit, PANIC_PROBE_PAYLOAD};
        let op = OpKind::PlusMul;
        let (a, b, c) = operands(op, 70, 23, 37); // 5 tile rows
        let mut be = TiledBackend::with_unit(PanicProbeUnit::new(Simd2Unit::new(), 2));
        be.set_parallelism(Parallelism::Threads(4));
        let err = be.mmo(op, &a, &b, &c).unwrap_err();
        match &err {
            BackendError::WorkerPanic { panel, payload } => {
                // 5 tile rows over 4 workers: row 2 lands in panel 1.
                assert_eq!(*panel, 1);
                assert!(payload.starts_with(PANIC_PROBE_PAYLOAD), "{payload}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        // The backend stays usable: the sequential schedule (parent
        // unit, not a shard) completes the same operation.
        let d = be
            .execute(&MmoArgs::new(op, &a, &b, &c), Schedule::Sequential)
            .unwrap();
        let want = TiledBackend::new().mmo(op, &a, &b, &c).unwrap();
        assert_eq!(d, want);
        // So does its pool: the next configured step — two tile rows,
        // short of the probe's — runs its panels on the same workers.
        let (a, b, c) = operands(op, 32, 23, 37);
        let d = be.mmo(op, &a, &b, &c).unwrap();
        let want = TiledBackend::new().mmo(op, &a, &b, &c).unwrap();
        assert_eq!(bits(&d), bits(&want));
    }

    #[test]
    fn clones_driven_concurrently_each_match_the_sequential_answer() {
        let op = OpKind::MinPlus;
        let (a, b, c) = operands(op, 70, 23, 37); // 5 tile rows
        let want = bits(&TiledBackend::new().mmo(op, &a, &b, &c).unwrap());
        let mut original = TiledBackend::with_parallelism(Parallelism::Threads(4));
        assert_eq!(bits(&original.mmo(op, &a, &b, &c).unwrap()), want);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for mut be in [original.clone(), original.clone()] {
                let (start, want, operands) = (&start, &want, (&a, &b, &c));
                s.spawn(move || {
                    start.wait();
                    for _ in 0..20 {
                        let d = be.mmo(op, operands.0, operands.1, operands.2).unwrap();
                        assert_eq!(&bits(&d), want);
                    }
                });
            }
        });
    }

    #[test]
    fn worker_panic_contributes_no_completed_work_counters() {
        use simd2_fault::{PanicProbeUnit, PANIC_PROBE_PAYLOAD};
        let op = OpKind::MinPlus;
        let (a, b, c) = operands(op, 80, 32, 32); // 5 tile rows
        let mut be = TiledBackend::with_unit(PanicProbeUnit::new(Simd2Unit::new(), 0));
        be.set_parallelism(Parallelism::Threads(5));
        let err = be.mmo(op, &a, &b, &c).unwrap_err();
        assert!(err.is_worker_panic());
        assert!(err.to_string().contains(PANIC_PROBE_PAYLOAD));
        // A failed mmo contributes no completed-work counters.
        assert_eq!(be.op_count(), OpCount::default());
    }

    #[test]
    fn span_totals_equal_op_count_on_both_schedules() {
        use simd2_trace::RingSink;
        let op = OpKind::MaxMul;
        let (a, b, c) = operands(op, 70, 23, 37); // ragged, 5 tile rows
        let sparse_a = sparse_operand(70, 37, 0.0, 0.2, 45);
        for parallelism in [Parallelism::Sequential, Parallelism::Threads(4)] {
            let ring = RingSink::shared();
            let mut be =
                TiledBackend::with_parallelism(parallelism).with_tracer(Tracer::to(ring.clone()));
            be.mmo(op, &a, &b, &c).unwrap();
            // The second step is row-walked: same spans, same logical
            // counts.
            be.mmo(op, &sparse_a, &b, &c).unwrap();
            assert_eq!(be.row_count().sparse_mmos, 1);
            let events = ring.events();
            let sum = |span_name: &str, key: &str| -> u64 {
                events
                    .iter()
                    .filter(|e| e.span == span_name && e.kind == simd2_trace::EventKind::End)
                    .map(|e| e.u64(key).unwrap())
                    .sum()
            };
            let count = be.op_count();
            // Per-op (mmo spans) and per-worker (tile_panel spans)
            // totals both reproduce the OpCount merge exactly.
            for key in ["tile_mmos", "tile_loads", "tile_stores"] {
                let want = match key {
                    "tile_mmos" => count.tile_mmos,
                    "tile_loads" => count.tile_loads,
                    _ => count.tile_stores,
                };
                assert_eq!(sum(span::MMO, key), want, "{parallelism:?} mmo {key}");
                assert_eq!(
                    sum(span::TILE_PANEL, key),
                    want,
                    "{parallelism:?} tile_panel {key}"
                );
            }
            let mmo_ends = events
                .iter()
                .filter(|e| e.span == span::MMO && e.kind == simd2_trace::EventKind::End)
                .count() as u64;
            assert_eq!(mmo_ends, count.matrix_mmos);
            // Sequential schedules emit exactly one panel per mmo.
            if parallelism == Parallelism::Sequential {
                let panels = events.iter().filter(|e| e.span == span::TILE_PANEL).count();
                assert_eq!(panels, 2);
            }
        }
    }

    #[test]
    fn failed_mmo_emits_no_end_event() {
        use simd2_fault::PanicProbeUnit;
        use simd2_trace::RingSink;
        let op = OpKind::PlusMul;
        let (a, b, c) = operands(op, 70, 23, 37);
        let ring = RingSink::shared();
        let mut be = TiledBackend::with_unit(PanicProbeUnit::new(Simd2Unit::new(), 2))
            .with_tracer(Tracer::to(ring.clone()));
        be.set_parallelism(Parallelism::Threads(4));
        be.mmo(op, &a, &b, &c).unwrap_err();
        let events = ring.events();
        assert!(events
            .iter()
            .any(|e| e.span == span::MMO && e.kind == simd2_trace::EventKind::Begin));
        assert!(
            !events
                .iter()
                .any(|e| e.span == span::MMO && e.kind == simd2_trace::EventKind::End),
            "a panicked mmo must not report completed work"
        );
    }

    /// A seeded operand in `op`'s value domain with roughly
    /// `density` of its entries kept and the rest at `zero`.
    fn sparse_operand(rows: usize, cols: usize, zero: f32, density: f64, seed: u64) -> Matrix {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| {
            if rng.gen_bool(density) {
                rng.gen_range(0.5..9.5)
            } else {
                zero
            }
        })
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// The engine over an fp32-input unit: no rounding between a test's
    /// operands and its oracle.
    fn fp32_backend() -> TiledBackend {
        TiledBackend::with_unit(Simd2Unit::with_precision(PrecisionMode::Fp32Input))
    }

    /// The row counters of one or-and step: one bit walk.
    fn bit_walk() -> RowCount {
        RowCount {
            bit_mmos: 1,
            ..RowCount::default()
        }
    }

    /// The tile chain, forced: the engine over a unit at `precision`
    /// that is not coordinate-free, so it never row-walks a step.
    fn chain_at(precision: PrecisionMode) -> TiledBackend<CountingUnit> {
        TiledBackend::with_unit(CountingUnit {
            inner: Simd2Unit::with_precision(precision),
            visits: Vec::new(),
        })
    }

    #[test]
    fn every_sparse_kernel_is_bit_identical_to_the_dense_datapath() {
        // All ops with a no-edge annihilator (plus-norm has no sparse
        // lowering) × every walk × every operand precision × 1/2/4/8
        // workers: the forced tile chain's bits and `OpCount`, whether
        // the engine walked the step or found the chain faster.
        use simd2_matrix::structured::prune_2_4;
        let engine = |precision, workers| {
            let mut be = TiledBackend::with_unit(Simd2Unit::with_precision(precision));
            be.set_parallelism(Parallelism::Threads(workers));
            be
        };
        for precision in [
            PrecisionMode::Fp32Input,
            PrecisionMode::Fp16Input,
            PrecisionMode::Int8Input,
        ] {
            for (s, &op) in ALL_OPS.iter().enumerate() {
                let Some(zero) = op.no_edge_f32() else {
                    continue;
                };
                // Well below the walk-or-chain bound, and a fifth full,
                // below it (or-and takes the bit walk at both).
                let a = sparse_operand(37, 29, zero, 0.015, 400 + s as u64);
                let a_mid = sparse_operand(37, 29, zero, 0.2, 450 + s as u64);
                let a24 = prune_2_4(&a_mid, op);
                let a_third = sparse_operand(37, 29, zero, 0.3, 470 + s as u64);
                // Sparse enough to be scattered (the second with an
                // entry in every row); dense enough to be swept.
                let scattered = sparse_operand(29, 35, zero, 0.01, 500 + s as u64);
                let every_row = Matrix::from_fn(29, 35, |r, l| if l == r { 2.5 } else { zero });
                let swept = sparse_operand(29, 35, zero, 0.6, 550 + s as u64);
                let c = sparse_operand(37, 35, zero, 0.8, 600 + s as u64);
                // The last column: whether the float chains' ops walk
                // the leg. Beside the diagonal `B` the chain leaves out
                // two pairs in three, and beats the walks of a third-full
                // `A` — but max-mul's, whose pairs it never skips.
                // Or-and takes the bit walk on every leg.
                for (name, am, bm, walks) in [
                    ("sparse × swept", &a, &swept, true),
                    ("sparse × scattered", &a, &scattered, true),
                    ("fifth × swept", &a_mid, &swept, true),
                    (
                        "third × diagonal",
                        &a_third,
                        &every_row,
                        op == OpKind::MaxMul,
                    ),
                    ("2:4 × swept", &a24, &swept, true),
                    ("2:4 × scattered", &a24, &scattered, true),
                ] {
                    let mut chain = chain_at(precision);
                    let want = chain.mmo(op, am, bm, &c).unwrap();
                    for workers in [1usize, 2, 4, 8] {
                        let mut be = engine(precision, workers);
                        let got = be.mmo(op, am, bm, &c).unwrap();
                        let ctx = format!("{op} {precision:?} {name} {workers} workers");
                        assert_eq!(bits(&got), bits(&want), "{ctx}");
                        assert_eq!(be.op_count(), chain.op_count(), "{ctx}");
                        if op == OpKind::OrAnd {
                            assert_eq!(be.row_count(), bit_walk(), "{ctx}");
                            continue;
                        }
                        assert_eq!(be.row_count().sparse_mmos, u64::from(walks), "{ctx}");
                        assert_eq!(be.row_count().skipped_terms > 0, walks, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn structured_fast_path_is_bit_identical_to_dense() {
        use simd2_matrix::structured::prune_2_4;
        for op in [
            OpKind::PlusMul,
            OpKind::MinPlus,
            OpKind::MaxMul,
            OpKind::OrAnd,
        ] {
            let zero = op.no_edge_f32().unwrap();
            let b = sparse_operand(20, 9, zero, 0.9, 8);
            let c = sparse_operand(12, 9, zero, 0.9, 9);
            // A fifth full, a 2:4 operand walks; at the pattern's own
            // half, the chain folds it. Or-and takes the bit walk at both.
            for (density, walks) in [(0.2, true), (0.9, false)] {
                let a = prune_2_4(&sparse_operand(12, 20, zero, density, 7), op);
                let want = chain_at(PrecisionMode::Fp32Input)
                    .mmo(op, &a, &b, &c)
                    .unwrap();
                let mut be = fp32_backend();
                let got = be.mmo(op, &a, &b, &c).unwrap();
                assert_eq!(bits(&got), bits(&want), "{op} {density}");
                if op == OpKind::OrAnd {
                    assert_eq!(be.row_count(), bit_walk(), "{op} {density}");
                    continue;
                }
                assert_eq!(
                    be.row_count().sparse_mmos,
                    u64::from(walks),
                    "{op} {density}"
                );
            }
        }
    }

    #[test]
    fn sharded_panels_are_bit_identical_at_every_worker_count() {
        let op = OpKind::MinPlus;
        let zero = op.no_edge_f32().unwrap();
        let a = sparse_operand(33, 29, zero, 0.2, 42);
        let b = sparse_operand(29, 31, zero, 0.2, 43);
        let c = Matrix::filled(33, 31, zero);
        let mut seq = fp32_backend();
        let want = seq.mmo(op, &a, &b, &c).unwrap();
        assert_eq!(seq.row_count().sparse_mmos, 1);
        for workers in [1, 2, 4, 8] {
            let mut be = fp32_backend();
            be.set_parallelism(Parallelism::Threads(workers));
            let got = be.mmo(op, &a, &b, &c).unwrap();
            assert_eq!(bits(&got), bits(&want), "workers={workers}");
            // Panel-order merge keeps counters exact, not approximate.
            assert_eq!(be.row_count(), seq.row_count(), "workers={workers}");
            assert_eq!(be.op_count(), seq.op_count(), "workers={workers}");
        }
    }

    #[test]
    fn reduced_precision_keeps_sparse_and_dense_paths_aligned() {
        let op = OpKind::PlusMul;
        let a = sparse_operand(10, 14, 0.0, 0.2, 77);
        let b = sparse_operand(14, 6, 0.0, 0.4, 78);
        let c = sparse_operand(10, 6, 0.0, 1.0, 79);
        let mut be = TiledBackend::new();
        assert!(be.reduced_precision());
        let want = chain_at(PrecisionMode::Fp16Input)
            .mmo(op, &a, &b, &c)
            .unwrap();
        let got = be.mmo(op, &a, &b, &c).unwrap();
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(be.row_count().sparse_mmos, 1);
        assert_ne!(
            bits(&want),
            bits(&fp32_backend().mmo(op, &a, &b, &c).unwrap())
        );
    }

    #[test]
    fn term_accounting_is_exact_for_csr_a() {
        let op = OpKind::PlusMul;
        let a = sparse_operand(6, 10, 0.0, 0.2, 13);
        let b = sparse_operand(10, 4, 0.0, 1.0, 14);
        let c = Matrix::zeros(6, 4);
        let mut be = fp32_backend();
        be.mmo(op, &a, &b, &c).unwrap();
        let count = be.row_count();
        // Folded + skipped terms together tile the dense m·n·k space.
        assert_eq!(count.fma_terms + count.skipped_terms, 6 * 4 * 10);
        let nnz = a.as_slice().iter().filter(|&&x| x != 0.0).count() as u64;
        assert_eq!(count.fma_terms, nnz * 4);
        be.reset_count();
        assert_eq!(be.row_count(), RowCount::default());
    }

    #[test]
    fn a_step_with_nothing_to_skip_takes_the_tile_chain() {
        let op = OpKind::PlusMul;
        let a = sparse_operand(20, 24, 0.0, 0.3, 1);
        let dense_a = sparse_operand(20, 24, 0.0, 0.9, 3);
        let dense_b = sparse_operand(24, 18, 0.0, 0.9, 2);
        let c = Matrix::zeros(20, 18);
        let mut chain = chain_at(PrecisionMode::Fp32Input);
        let mut be = fp32_backend();
        // Two operands too dense to skip.
        let want = chain.mmo(op, &dense_a, &dense_b, &c).unwrap();
        let got = be.mmo(op, &dense_a, &dense_b, &c).unwrap();
        assert_eq!(bits(&got), bits(&want));
        // The value-domain rule walks `A` whole (an infinite `B` entry
        // makes `0 × b` a NaN), leaving nothing to skip.
        let mut hostile_b = dense_b.clone();
        hostile_b[(3, 5)] = f32::INFINITY;
        let want = chain.mmo(op, &a, &hostile_b, &c).unwrap();
        let got = be.mmo(op, &a, &hostile_b, &c).unwrap();
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(be.row_count(), RowCount::default());
        assert_eq!(be.op_count(), chain.op_count());
        // With every `B` entry finite, the same `A` walks.
        be.mmo(op, &a, &dense_b, &c).unwrap();
        assert_eq!(be.row_count().sparse_mmos, 1);
    }

    #[test]
    fn a_declared_step_is_walked_only_below_its_walk_or_chain_bound() {
        use simd2_trace::RingSink;
        // (op, size, which operand is sparse, a stored fraction the
        // engine walks, one it hands to the chain): the float chains
        // lose to a walk of a fifth-full `A` and, on an output wide
        // enough to pay for the row lookups, to a scatter of a
        // hundredth-full `B`. Or-and has no bound: it takes the bit walk
        // at every stored fraction (below).
        for (op, n, sparse_a, walked, chained) in [
            (OpKind::MinPlus, 64, true, Some(0.2), 0.5),
            (OpKind::PlusMul, 64, true, Some(0.2), 0.5),
            (OpKind::MinPlus, 256, false, Some(0.01), 0.05),
            (OpKind::MinPlus, 64, false, None, 0.01),
        ] {
            let zero = op.no_edge_f32().unwrap();
            let c = Matrix::filled(n, n, op.reduce_identity_f32());
            for (density, walks) in walked
                .map(|d| (d, true))
                .into_iter()
                .chain([(chained, false)])
            {
                let sparse = sparse_operand(n, n, zero, density, 21);
                let full = sparse_operand(n, n, zero, 1.0, 22);
                let (a, b) = if sparse_a {
                    (&sparse, &full)
                } else {
                    (&full, &sparse)
                };
                let mut chain = chain_at(PrecisionMode::Fp16Input);
                let want = chain.mmo(op, a, b, &c).unwrap();
                let mut be = TiledBackend::new().with_tracer(Tracer::to(RingSink::shared()));
                let got = be.mmo(op, a, b, &c).unwrap();
                let side = if sparse_a { "A" } else { "B" };
                let ctx = format!("{op} {side} at {density}");
                assert_eq!(bits(&got), bits(&want), "{ctx}");
                assert_eq!(be.op_count(), chain.op_count(), "{ctx}");
                assert_eq!(be.row_count().sparse_mmos, u64::from(walks), "{ctx}");
            }
        }
        // Or-and at the stored fractions its walk-or-chain bounds once
        // walked or chained at, either operand sparse: the bit walk.
        let op = OpKind::OrAnd;
        let c = Matrix::zeros(64, 64);
        for (density, sparse_a) in [(0.01, true), (0.12, true), (0.5, true), (0.01, false)] {
            let sparse = sparse_operand(64, 64, 0.0, density, 21);
            let full = sparse_operand(64, 64, 0.0, 1.0, 22);
            let (a, b) = if sparse_a {
                (&sparse, &full)
            } else {
                (&full, &sparse)
            };
            let mut chain = chain_at(PrecisionMode::Fp16Input);
            let want = chain.mmo(op, a, b, &c).unwrap();
            let mut be = TiledBackend::new();
            let got = be.mmo(op, a, b, &c).unwrap();
            let ctx = format!("{op} at {density}, sparse A: {sparse_a}");
            assert_eq!(bits(&got), bits(&want), "{ctx}");
            assert_eq!(be.op_count(), chain.op_count(), "{ctx}");
            assert_eq!(be.row_count(), bit_walk(), "{ctx}");
        }
    }

    #[test]
    fn injecting_and_probing_units_walk_a_declared_step_tile_by_tile() {
        use simd2_fault::{
            FaultPlan, FaultPlanConfig, FaultySimd2Unit, PanicProbeUnit, PlannedInjector,
        };
        use simd2_trace::RingSink;
        let op = OpKind::MinPlus;
        let (dense_a, b, c) = operands(op, 70, 40, 40); // 5 tile rows
                                                        // Sparse enough for a coordinate-free unit to walk.
        let a = sparse_operand(70, 40, f32::INFINITY, 0.05, 46);
        let mut walked = TiledBackend::new();
        walked.mmo(op, &a, &b, &c).unwrap();
        assert_eq!(walked.row_count().sparse_mmos, 1);
        // Same `D`, fault log and `OpCount` at every worker count, and
        // no row walk: the sites are `TileCoord`s.
        let faulty = |workers| {
            let plan = FaultPlan::new(FaultPlanConfig::new(7).with_bit_flip_ppm(200_000));
            let unit = FaultySimd2Unit::new(Simd2Unit::new(), PlannedInjector::new(plan));
            let mut be = TiledBackend::with_unit(unit).with_tracer(Tracer::to(RingSink::shared()));
            be.set_parallelism(Parallelism::Threads(workers));
            let d = be.mmo(op, &a, &b, &c).unwrap();
            assert_eq!(be.row_count(), RowCount::default());
            (d, be.unit().injector().log(), be.op_count())
        };
        let sequential = faulty(1);
        assert!(!sequential.1.is_empty(), "campaign should have struck");
        assert_eq!(sequential.2, walked.op_count());
        for workers in [2usize, 4] {
            assert_eq!(faulty(workers), sequential, "{workers} workers");
        }

        // The probe panics in the same panel of the same grid, whatever
        // the operands store.
        let probe = |a: &Matrix| {
            let mut be = TiledBackend::with_unit(PanicProbeUnit::new(Simd2Unit::new(), 2));
            be.set_parallelism(Parallelism::Threads(4));
            let err = be.mmo(op, a, &b, &c).unwrap_err();
            assert_eq!(be.op_count(), OpCount::default());
            match err {
                BackendError::WorkerPanic { panel, .. } => panel,
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
        };
        assert_eq!(probe(&a), 1);
        assert_eq!(probe(&a), probe(&dense_a));
    }

    #[test]
    fn row_walks_honour_the_schedule_and_both_degrade_rungs() {
        let op = OpKind::MinPlus;
        let zero = f32::INFINITY;
        let a = sparse_operand(70, 40, zero, 0.2, 5);
        let b = sparse_operand(40, 90, zero, 0.9, 6);
        let c = Matrix::filled(70, 90, zero);
        let step = MmoArgs::new(op, &a, &b, &c);
        let ring = simd2_trace::RingSink::shared();
        let mut be = TiledBackend::with_parallelism(Parallelism::Threads(4))
            .with_tracer(Tracer::to(ring.clone()));
        let panels = |ring: &simd2_trace::RingSink| {
            let n = ring
                .events()
                .iter()
                .filter(|e| e.span == span::TILE_PANEL)
                .count();
            ring.clear();
            n
        };
        let want = be.execute(&step, Schedule::Configured).unwrap();
        assert_eq!(panels(&ring), 4);
        let sequential = be.execute(&step, Schedule::Sequential).unwrap();
        assert_eq!(panels(&ring), 1);
        assert!(be.degrade(Degrade::PinKernelIsa(KernelIsa::Scalar)));
        let pinned = be.execute(&step, Schedule::Configured).unwrap();
        let begin = ring
            .events()
            .into_iter()
            .find(|e| e.span == span::MMO)
            .unwrap();
        assert_eq!(begin.str_value("isa"), Some(KernelIsa::Scalar.name()));
        assert!(be.degrade(Degrade::ForceSequential));
        ring.clear();
        let demoted = be.execute(&step, Schedule::Configured).unwrap();
        assert_eq!(panels(&ring), 1);
        for got in [sequential, pinned, demoted] {
            assert_eq!(bits(&got), bits(&want));
        }
        assert_eq!(be.row_count().sparse_mmos, 4);
    }

    /// A unit that records the tile coordinates it is handed — not
    /// coordinate-free, as a fault-injecting or probing unit is not.
    #[derive(Clone, Debug, Default)]
    struct CountingUnit {
        inner: Simd2Unit,
        visits: Vec<simd2_mxu::TileCoord>,
    }

    impl MmoUnit for CountingUnit {
        fn quantize_packed(&self, xs: &mut [f32]) {
            self.inner.quantize_operands(xs);
        }

        fn execute_packed_at(
            &mut self,
            coord: simd2_mxu::TileCoord,
            op: OpKind,
            a: &[f32],
            b: &[f32],
            acc: &mut Tile<ISA_TILE>,
        ) {
            self.visits.push(coord);
            self.inner.execute_chain(op, a, b, acc);
        }

        fn precision(&self) -> PrecisionMode {
            self.inner.precision()
        }

        fn shard(&self) -> Option<Self> {
            Some(Self {
                inner: self.inner,
                visits: Vec::new(),
            })
        }

        fn absorb(&mut self, shard: Self) {
            self.visits.extend(shard.visits);
        }
    }

    /// On block upper-triangular operands — every tile below the tile
    /// diagonal all `+∞`, as a DAG's min-plus closure iterates are — a
    /// unit that is not coordinate-free is handed every one of the grid's
    /// tile coordinates exactly once, while the engine over a
    /// coordinate-free unit leaves out every pair through such a tile,
    /// for the same bits at one and two workers: on a grid whose packed
    /// `B` is one shared strip, and on one each panel packs in strips.
    #[test]
    fn units_that_are_not_coordinate_free_visit_every_tile_pair() {
        let (op, zero) = (OpKind::MinPlus, f32::INFINITY);
        let dag = |rows: usize, cols: usize, seed| {
            let dense = gen::random_operands_for(op, rows, cols, seed);
            Matrix::from_fn(rows, cols, |r, c| {
                if r / ISA_TILE > c / ISA_TILE {
                    zero
                } else {
                    dense[(r, c)]
                }
            })
        };
        for (m, n, k, strips) in [(70, 60, 50, 1), (40, 260, 1040, 2)] {
            let (a, b, c) = (dag(m, k, 5), dag(k, n, 6), dag(m, n, 7));
            let grid = TileGrid::new(m, n, k, ISA_TILE);
            assert_eq!(grid.n_tiles.div_ceil(strip_width(grid.k_tiles)), strips);
            let triples = |outer: usize, mid: usize, inner: usize| {
                (0..outer).flat_map(move |x| {
                    (0..mid).flat_map(move |y| (0..inner).map(move |z| (x, y, z)))
                })
            };
            let skippable = triples(grid.m_tiles, grid.k_tiles, grid.n_tiles)
                .filter(|&(ti, tk, tj)| ti > tk || tk > tj)
                .count() as u64;
            assert!(skippable > 0);
            let mut every: Vec<_> = triples(grid.m_tiles, grid.n_tiles, grid.k_tiles)
                .map(|(ti, tj, tk)| simd2_mxu::TileCoord::new(ti, tj, tk))
                .collect();
            every.sort();
            let mut want = None;
            for workers in [1, 2] {
                let ctx = format!("{m}x{n}x{k}, {workers} workers");
                let mut be = TiledBackend::with_unit(CountingUnit::default());
                be.set_parallelism(Parallelism::Threads(workers));
                let visited = bits(&be.mmo(op, &a, &b, &c).unwrap());
                let want = want.get_or_insert(visited.clone());
                assert_eq!(&visited, want, "{ctx}");
                let mut visits = be.unit().visits.clone();
                assert_eq!(visits.len(), grid.tile_ops(), "{ctx}");
                visits.sort();
                assert_eq!(visits, every, "{ctx}");

                let skipped = CHAIN_SKIPPED_PAIRS.get();
                let mut be = TiledBackend::with_parallelism(Parallelism::Threads(workers))
                    .with_tracer(Tracer::to(simd2_trace::RingSink::shared()));
                let got = bits(&be.mmo(op, &a, &b, &c).unwrap());
                assert_eq!(&got, want, "{ctx}");
                // Other tests may add.
                assert!(CHAIN_SKIPPED_PAIRS.get() >= skipped + skippable, "{ctx}");
            }
        }
    }

    #[test]
    fn reference_backend_is_full_precision() {
        let mut be = ReferenceBackend::new();
        assert!(!be.reduced_precision());
        // 0.1 is not fp16-exact; the reference must not quantise it.
        let a = Matrix::filled(1, 1, 0.1);
        let b = Matrix::filled(1, 1, 1.0);
        let c = Matrix::zeros(1, 1);
        let d = be.mmo(OpKind::PlusMul, &a, &b, &c).unwrap();
        assert_eq!(d[(0, 0)], 0.1);
    }

    #[test]
    fn tiled_backend_quantises() {
        let mut be = TiledBackend::new();
        assert!(be.reduced_precision());
        let a = Matrix::filled(1, 1, 0.1);
        let b = Matrix::filled(1, 1, 1.0);
        let c = Matrix::zeros(1, 1);
        let d = be.mmo(OpKind::PlusMul, &a, &b, &c).unwrap();
        assert_eq!(d[(0, 0)], quantize_f16(0.1));
    }

    #[test]
    fn shape_errors_propagate() {
        let a = Matrix::zeros(4, 4);
        let b = Matrix::zeros(5, 4);
        let c = Matrix::zeros(4, 4);
        assert!(ReferenceBackend::new()
            .mmo(OpKind::PlusMul, &a, &b, &c)
            .is_err());
        let mut tiled = TiledBackend::with_parallelism(Parallelism::Threads(4));
        assert!(tiled.mmo(OpKind::PlusMul, &a, &b, &c).is_err());
        // Validation happens before the datapath: nothing was counted.
        assert_eq!(tiled.op_count(), OpCount::default());
        assert!(IsaBackend::new().mmo(OpKind::PlusMul, &a, &b, &c).is_err());
    }

    #[test]
    fn degradation_seams_pin_scalar_and_demote_to_sequential() {
        // Pinning the kernel to scalar must be honoured, observable, and
        // bit-identical (the vector tiers are already bit-identical to
        // scalar; the pin only changes which kernel executes).
        let mut be = TiledBackend::with_parallelism(Parallelism::Threads(4));
        let a = gen::random_operands_for(OpKind::PlusMul, 40, 40, 3);
        let b = gen::random_operands_for(OpKind::PlusMul, 40, 40, 4);
        let c = Matrix::zeros(40, 40);
        let before = be.mmo(OpKind::PlusMul, &a, &b, &c).unwrap();
        assert!(be.degrade(Degrade::PinKernelIsa(KernelIsa::Scalar)));
        assert_eq!(be.health().kernel_isa, KernelIsa::Scalar);
        assert_eq!(be.kernel_isa(), KernelIsa::Scalar); // inherent agrees
        assert!(
            be.degrade(Degrade::ForceSequential),
            "Threads(4) -> Sequential changes"
        );
        assert!(
            !be.degrade(Degrade::ForceSequential),
            "already sequential: refused"
        );
        assert_eq!(be.parallelism(), Parallelism::Sequential);
        let after = be.mmo(OpKind::PlusMul, &a, &b, &c).unwrap();
        assert_eq!(before, after);
        assert_eq!(
            be.health().fault_log_dropped,
            0,
            "pristine unit never drops"
        );
        // Backends without the seams refuse them.
        let mut oracle = ReferenceBackend::new();
        assert_eq!(oracle.health(), Health::default());
        assert!(!oracle.degrade(Degrade::PinKernelIsa(KernelIsa::Scalar)));
        assert!(!oracle.degrade(Degrade::ForceSequential));
    }

    #[test]
    fn backend_names_are_distinct() {
        let names = [
            ReferenceBackend::new().name(),
            TiledBackend::new().name(),
            IsaBackend::new().name(),
        ];
        assert_eq!(
            names.iter().collect::<std::collections::HashSet<_>>().len(),
            3
        );
    }
}
