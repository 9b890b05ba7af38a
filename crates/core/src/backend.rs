//! Whole-matrix `D = C ⊕ (A ⊗ B)` execution backends.
//!
//! The evaluation framework (paper Figure 8) swaps the library that
//! implements the SIMD² API between a CUDA-core backend (correctness
//! validation, and the "SIMD² on CUDA cores" configuration) and a
//! Tensor-Core-emulation backend ("SIMD² with SIMD² units"). The
//! [`Backend`] trait is that seam; every backend also counts the tile
//! operations it performs, which is the statistic the performance model
//! charges cycles for.

use simd2_matrix::reference;
use simd2_matrix::tiling::{self, TileGrid};
use simd2_matrix::{Matrix, ISA_TILE};
use simd2_mxu::Simd2Unit;
use simd2_semiring::simd::{KernelIsa, CHAIN_ELEMS as TILE_ELEMS};
use simd2_semiring::OpKind;

use simd2_fault::{AbftConfig, FaultInjector, MmoUnit};
use simd2_isa::{ExecStats, Executor};
use simd2_trace::{field, span, Counter, Tracer};

use crate::error::BackendError;
use crate::program::{compile_mmo, stage_operands};
use crate::repr::{MatrixRef, OperandRepr};

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
/// `D = C ⊕ (A ⊗ B)` step under a [`Schedule`]. Dense or declared
/// operands, configured or sequential are arguments of that entry, so a
/// wrapper that forwards it forwards all of them; [`mmo`](Self::mmo) and
/// [`mmo_ref`](Self::mmo_ref) are conveniences over it that no
/// implementor overrides.
///
/// Implementations must produce results equivalent to
/// [`simd2_matrix::reference::mmo`] up to the backend's declared
/// precision; this is checked by the validation framework and the
/// cross-backend tests.
pub trait Backend {
    /// Short human-readable backend name.
    fn name(&self) -> &'static str;

    /// Whether operands pass through fp16 (reduced precision).
    fn reduced_precision(&self) -> bool;

    /// Executes one `D = C ⊕ (A ⊗ B)` step.
    ///
    /// The step's representation declarations ([`MmoArgs::reprs`]) and
    /// the `schedule` are hints, never semantic changes: the output and
    /// the counters must be **bit-identical** to running the step
    /// all-dense on one thread. The step is validated
    /// ([`MmoArgs::checked_grid`]) before it touches a datapath, so a
    /// malformed step is rejected without side effects.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Shape`] when operand shapes are
    /// incompatible, [`BackendError::Repr`] when a declaration is
    /// invalid for the operation, [`BackendError::Exec`] when the
    /// underlying engine faults, [`BackendError::Corruption`] when an
    /// enabled ABFT check detects a silently corrupted result, and
    /// [`BackendError::WorkerPanic`] when a worker thread panicked. A
    /// failed step contributes no counters.
    fn execute(&mut self, step: &MmoArgs<'_>, schedule: Schedule) -> Result<Matrix, BackendError>;

    /// Executes one all-dense `D = C ⊕ (A ⊗ B)` on the configured
    /// schedule.
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
        self.mmo_ref(
            op,
            MatrixRef::dense(a),
            MatrixRef::dense(b),
            MatrixRef::dense(c),
        )
    }

    /// Executes one `D = C ⊕ (A ⊗ B)` with per-operand *representation*
    /// declarations ([`MatrixRef`]) — the seam that lets a recorded
    /// algorithm run unchanged while a lowering decision (dense, CSR,
    /// 2:4-structured) rides along with each operand. Backends without
    /// compressed kernels validate the declarations and run dense.
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
        let step = MmoArgs {
            op,
            a: a.matrix,
            b: b.matrix,
            c: c.matrix,
            reprs: [a.repr, b.repr, c.repr],
        };
        self.execute(&step, Schedule::Configured)
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
    /// Declared representation of `[a, b, c]` — dense unless the plan
    /// (or caller) lowered an operand to a sparse form. Backends
    /// without sparse kernels may ignore this: representation never
    /// changes the answer.
    pub reprs: [OperandRepr; 3],
}

impl<'a> MmoArgs<'a> {
    /// Dense-operand step args (the common case).
    pub fn new(op: OpKind, a: &'a Matrix, b: &'a Matrix, c: &'a Matrix) -> Self {
        Self {
            op,
            a,
            b,
            c,
            reprs: [OperandRepr::Dense; 3],
        }
    }

    /// The left operand as a [`MatrixRef`] with its declared repr.
    pub fn a_ref(&self) -> MatrixRef<'a> {
        MatrixRef::new(self.a, self.reprs[0])
    }

    /// The right operand as a [`MatrixRef`] with its declared repr.
    pub fn b_ref(&self) -> MatrixRef<'a> {
        MatrixRef::new(self.b, self.reprs[1])
    }

    /// The accumulator as a [`MatrixRef`] with its declared repr.
    pub fn c_ref(&self) -> MatrixRef<'a> {
        MatrixRef::new(self.c, self.reprs[2])
    }

    /// Whether every operand is declared dense.
    pub fn is_dense(&self) -> bool {
        self.reprs.iter().all(|r| r.is_dense())
    }

    /// The step's 16×16 tile grid, once its shapes and representation
    /// declarations pass
    /// [`check_mmo_operands_ref`](crate::validate::check_mmo_operands_ref)
    /// — the one gate every engine runs each step through before it
    /// touches a datapath, so a malformed step is rejected with the same
    /// [`BackendError`] on every backend and schedule.
    ///
    /// # Errors
    ///
    /// [`BackendError::Shape`] or [`BackendError::Repr`].
    pub fn checked_grid(&self) -> Result<TileGrid, BackendError> {
        crate::validate::check_mmo_operands_ref(self.op, self.a_ref(), self.b_ref(), self.c_ref())?;
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

/// Runs every task on its own scoped worker thread and joins them all —
/// the one place an engine spawns threads (the row panels of a dense or
/// a sparse step).
///
/// Returns each task's result in task order (`None` for a task that
/// panicked) and the first panic in task order as a
/// [`BackendError::WorkerPanic`] whose `panel` is the task's index.
/// Every worker is joined before this returns, panicked or not, so a
/// contained panic never aborts the process, leaks a thread, or loses a
/// surviving worker's result.
pub fn join_workers<T: Send>(
    tasks: Vec<impl FnOnce() -> T + Send>,
) -> (Vec<Option<T>>, Option<BackendError>) {
    let mut first_panic = None;
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = tasks.into_iter().map(|task| s.spawn(task)).collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(panel, handle)| match handle.join() {
                Ok(result) => Some(result),
                Err(payload) => {
                    first_panic.get_or_insert(BackendError::WorkerPanic {
                        panel,
                        payload: panic_payload_message(payload),
                    });
                    None
                }
            })
            .collect()
    });
    (results, first_panic)
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

    fn reduced_precision(&self) -> bool {
        false
    }

    fn execute(&mut self, step: &MmoArgs<'_>, _schedule: Schedule) -> Result<Matrix, BackendError> {
        let grid = step.checked_grid()?;
        begin_mmo(&self.tracer, step.op, &grid, 1, KernelIsa::Scalar);
        let d = reference::mmo(step.op, step.a, step.b, step.c)?;
        let delta = OpCount {
            matrix_mmos: 1,
            tile_mmos: grid.tile_ops() as u64,
            tile_loads: (2 * grid.tile_ops() + grid.output_tiles()) as u64,
            tile_stores: grid.output_tiles() as u64,
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

/// Tiled functional SIMD²-unit backend: partitions operands into 16×16
/// tiles and drives an [`MmoUnit`] over them, with fp16 operand
/// quantisation — the functional semantics of the proposed hardware.
///
/// Operands are quantised where the unit's input stage does it — once,
/// as they are packed into tile-major scratch — and each output tile's
/// `k` loop is one [`MmoUnit::execute_chain`] call that keeps the
/// accumulator tile inside the unit (Figures 4(c) and 6); see
/// DESIGN.md §8. The unit is generic so the same loop runs over the
/// pristine [`Simd2Unit`] or a [`simd2_fault::FaultySimd2Unit`] whose
/// datapath injects faults.
///
/// With a [`Parallelism`] setting above one worker, units that offer
/// [`MmoUnit::shard`] execute the output tile grid as row panels across
/// a scoped worker pool — bit-identical to sequential execution (tiles
/// are independent; per-tile reduction order is unchanged), with exact
/// merged counters. Fault-injected units shard too: coordinate-addressed
/// injection makes the same plan strike the same tiles under any worker
/// count, and per-worker fault logs merge back in the sequential visit
/// order so the merged log equals the sequential one. A worker panic
/// never aborts the process — it surfaces as
/// [`BackendError::WorkerPanic`] after every other worker drains.
#[derive(Clone, Debug)]
pub struct TiledBackend<U: MmoUnit = Simd2Unit> {
    unit: U,
    count: OpCount,
    parallelism: Parallelism,
    tracer: Tracer,
    /// Packed-operand scratch, one per worker that has ever run: taken
    /// on the dispatch thread, moved into the worker, returned after the
    /// join. Empty until the first MMO.
    scratch_pool: Vec<PackScratch>,
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
            parallelism: Parallelism::default(),
            tracer: Tracer::off(),
            scratch_pool: Vec::new(),
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

    /// The configured parallelism setting.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Sets the parallelism of subsequent [`Backend::mmo`] calls.
    ///
    /// Results are bit-identical across settings; units without a
    /// [`shard`](MmoUnit::shard) seam execute sequentially regardless.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.parallelism = parallelism;
    }
}

/// Bytes of packed `B` one worker keeps resident: the column strip is as
/// wide as this allows (at least one tile column). A byte budget, not a
/// knob — the right width is a property of the cache a strip must stay
/// in while a panel's rows sweep it, not of any workload, and with the
/// `A` row (16·k_pad floats) it bounds a worker's scratch near 1.1 MiB
/// whatever the operand sizes.
const B_STRIP_BYTES: usize = 1 << 20;

/// Width, in tile columns, of the packed `B` strips of a grid with
/// `k_tiles` reduction steps.
fn strip_width(k_tiles: usize) -> usize {
    (B_STRIP_BYTES / (k_tiles.max(1) * TILE_ELEMS * std::mem::size_of::<f32>())).max(1)
}

/// Number of `B` strips [`run_panel`] sweeps for `grid`.
fn strip_count(grid: &TileGrid) -> usize {
    grid.n_tiles.div_ceil(strip_width(grid.k_tiles))
}

/// One worker's packed-operand scratch: the quantised, padded,
/// tile-major `A` row panel and `B` column strip [`run_panel`] reads its
/// chains from. Owned by the backend and reused across MMOs; contents
/// are rewritten before every read, so a clone starts empty.
#[derive(Debug, Default)]
struct PackScratch {
    /// `k_tiles` tiles of one tile row of `A`, in `tk` order.
    a: Vec<f32>,
    /// For each tile column of the strip, its `k_tiles` tiles of `B` in
    /// `tk` order.
    b: Vec<f32>,
}

impl Clone for PackScratch {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// Packs the chain of tiles `coords` yields from `m` — padded with `fill`
/// first, then quantised by the unit's pack hook, the order the per-tile
/// path (`load_*_tile` → `execute`) applies them in — into `dst`, one
/// flat row-major tile after another.
fn pack_chain<U: MmoUnit>(
    unit: &U,
    m: &Matrix,
    fill: f32,
    coords: impl Iterator<Item = (usize, usize)>,
    dst: &mut [f32],
) {
    for ((tr, tc), tile) in coords.zip(dst.chunks_exact_mut(TILE_ELEMS)) {
        tiling::pack_tile::<ISA_TILE>(m, tr, tc, fill, tile);
    }
    unit.quantize_packed(dst);
}

/// Executes one output panel of the tile grid, writing results into the
/// panel's row slab of `D` and counting its own work (merged by the
/// caller so totals stay exact).
///
/// `B` is packed one column strip at a time and `A` one tile row at a
/// time, each exactly once per use; every output tile is then one
/// [`MmoUnit::execute_chain`] call over contiguous packed tiles, folding
/// into an accumulator tile read from `C` and stored straight into the
/// slab. Tiles are visited strip by strip, row-major within a strip.
///
/// `units` is either a single unit that executes every strip (the
/// sequential schedule) or one worker shard per strip (the row-panel
/// schedule, whose dispatcher absorbs shards strip-major so merged fault
/// logs keep the sequential visit order).
///
/// The counters stay the paper's *logical* tile traffic (Figure 6): one
/// `C` load, two operand loads per `tk` step and one store per output
/// tile — host pack traffic is not tile traffic.
fn run_panel<U: MmoUnit>(
    units: &mut [U],
    scratch: &mut PackScratch,
    op: OpKind,
    (a, b, c): (&Matrix, &Matrix, &Matrix),
    grid: &TileGrid,
    panel: std::ops::Range<usize>,
    slab: &mut [f32],
) -> OpCount {
    let row0 = grid.panel_rows(&panel).start;
    let pad = tiling::pad_values(op);
    let k_tiles = grid.k_tiles;
    let chain = k_tiles * TILE_ELEMS;
    let width = strip_width(k_tiles);
    scratch.a.resize(chain, 0.0);
    scratch.b.resize(width.min(grid.n_tiles) * chain, 0.0);
    let mut count = OpCount::default();
    for (s, tj0) in (0..grid.n_tiles).step_by(width).enumerate() {
        let strip = tj0..(tj0 + width).min(grid.n_tiles);
        let unit = &mut units[s.min(units.len() - 1)];
        let b_pack = &mut scratch.b[..strip.len() * chain];
        let b_coords = strip
            .clone()
            .flat_map(|tj| (0..k_tiles).map(move |tk| (tk, tj)));
        pack_chain(unit, b, pad.b, b_coords, b_pack);
        for ti in panel.clone() {
            pack_chain(
                unit,
                a,
                pad.a,
                (0..k_tiles).map(|tk| (ti, tk)),
                &mut scratch.a,
            );
            for tj in strip.clone() {
                let mut acc = tiling::load_c_tile::<ISA_TILE>(op, c, ti, tj);
                let b_chain = &b_pack[(tj - tj0) * chain..][..chain];
                unit.execute_chain((ti, tj), op, &scratch.a, b_chain, &mut acc);
                tiling::store_d_tile_in_panel(slab, row0, grid.n, &acc, ti, tj);
                count.tile_loads += 1 + 2 * k_tiles as u64;
                count.tile_mmos += k_tiles as u64;
                count.tile_stores += 1;
            }
        }
    }
    count
}

impl<U: MmoUnit + Send> TiledBackend<U> {
    /// The row-panel schedule of one step: output tile rows are split
    /// into one contiguous panel per worker ([`TileGrid::row_panels`]),
    /// each worker owns its panel's disjoint row slab of `d` and private
    /// unit shards, and per-worker [`OpCount`]s and shard state (fault
    /// logs) are merged after the join — shards strip by strip, in
    /// panel order within a strip, so merged fault logs are identical
    /// to the sequential schedule's. Panel assignment only partitions
    /// *independent* output tiles and each tile's k-loop runs in the
    /// exact sequential order, so the result is bit-identical to the
    /// sequential schedule. A surviving worker's shards are absorbed
    /// even when another panicked.
    fn run_row_panels(
        &mut self,
        step: &MmoArgs<'_>,
        grid: &TileGrid,
        panels: Vec<std::ops::Range<usize>>,
        shards: Vec<Vec<U>>,
        d: &mut Matrix,
    ) -> Result<OpCount, BackendError> {
        let (op, operands) = (step.op, (step.a, step.b, step.c));
        let mut rest: &mut [f32] = d.as_mut_slice();
        let mut tasks = Vec::with_capacity(panels.len());
        for (panel_idx, (panel, mut shards)) in panels.into_iter().zip(shards).enumerate() {
            let rows = grid.panel_rows(&panel);
            let (slab, tail) = std::mem::take(&mut rest).split_at_mut(rows.len() * grid.n);
            rest = tail;
            let tracer = self.tracer.clone();
            let mut scratch = self.scratch_pool.pop().unwrap_or_default();
            tasks.push(move || {
                let count = run_panel(&mut shards, &mut scratch, op, operands, grid, panel, slab);
                emit_tile_panel(&tracer, panel_idx, rows.len(), count);
                (count, shards, scratch)
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
        let (joined, panic) = join_workers(tasks);
        let mut total = OpCount::default();
        let mut survivors: Vec<std::vec::IntoIter<U>> = Vec::with_capacity(joined.len());
        for (count, shards, scratch) in joined.into_iter().flatten() {
            total += count;
            survivors.push(shards.into_iter());
            self.scratch_pool.push(scratch);
        }
        // Strip-major, panels in order within a strip: the order one unit
        // sweeping the whole grid visits tiles in.
        for _ in 0..strip_count(grid) {
            for shards in &mut survivors {
                self.unit
                    .absorb(shards.next().expect("one shard per strip"));
            }
        }
        panic.map_or(Ok(total), Err)
    }
}

impl<U: MmoUnit + Send> Backend for TiledBackend<U> {
    fn name(&self) -> &'static str {
        "SIMD2 units (tiled, fp16 operands)"
    }

    fn reduced_precision(&self) -> bool {
        self.unit.reduced_precision()
    }

    /// Runs the step as row panels when the schedule has more than one
    /// worker, the grid more than one tile row and the unit shards, else
    /// as a single panel on the parent unit — the same `run_panel`
    /// either way, so the two are bit-identical. Representation
    /// declarations are validated and then ignored: this engine has only
    /// the dense datapath.
    fn execute(&mut self, step: &MmoArgs<'_>, schedule: Schedule) -> Result<Matrix, BackendError> {
        let grid = step.checked_grid()?;
        let workers = schedule.worker_count(self.parallelism);
        self.unit.begin_matrix_mmo();
        let isa = self.unit.kernel_isa();
        begin_mmo(&self.tracer, step.op, &grid, workers, isa);
        let mut d = Matrix::zeros(grid.m, grid.n);
        // The row panels with one shard per `B` strip for each (see
        // `run_panel`), if panels are worth having and the unit shards.
        let sharded = (workers > 1 && grid.m_tiles > 1)
            .then(|| grid.row_panels(workers))
            .and_then(|panels| {
                let strips = strip_count(&grid);
                let shards: Option<Vec<Vec<U>>> = panels
                    .iter()
                    .map(|_| (0..strips).map(|_| self.unit.shard()).collect())
                    .collect();
                Some((panels, shards?))
            });
        let mut delta = match sharded {
            Some((panels, shards)) => self.run_row_panels(step, &grid, panels, shards, &mut d)?,
            None => {
                let mut scratch = self.scratch_pool.pop().unwrap_or_default();
                let count = run_panel(
                    std::slice::from_mut(&mut self.unit),
                    &mut scratch,
                    step.op,
                    (step.a, step.b, step.c),
                    &grid,
                    0..grid.m_tiles,
                    d.as_mut_slice(),
                );
                self.scratch_pool.push(scratch);
                emit_tile_panel(&self.tracer, 0, grid.m, count);
                count
            }
        };
        delta.matrix_mmos = 1;
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
            Degrade::ForceSequential => self.parallelism.demote(),
        }
    }

    fn op_count(&self) -> OpCount {
        self.count
    }

    fn reset_count(&mut self) {
        self.count = OpCount::default();
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
    injector: Option<Box<dyn FaultInjector>>,
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
    pub fn set_injector(&mut self, injector: Box<dyn FaultInjector>) {
        self.injector = Some(injector);
    }

    /// Removes and returns the installed injector, e.g. to read its log.
    pub fn take_injector(&mut self) -> Option<Box<dyn FaultInjector>> {
        self.injector.take()
    }

    /// The installed injector, for telemetry.
    pub fn injector(&self) -> Option<&dyn FaultInjector> {
        self.injector.as_deref()
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

    fn reduced_precision(&self) -> bool {
        true
    }

    /// Lowers the step to a one-warp kernel ([`compile_mmo`]: load C,
    /// stream the k tiles, store D, output tile by output tile), stages
    /// the operands and runs it through the warp-level executor.
    fn execute(&mut self, step: &MmoArgs<'_>, _schedule: Schedule) -> Result<Matrix, BackendError> {
        let grid = step.checked_grid()?;
        let MmoArgs { op, a, b, c, .. } = *step;
        // The executor drives a default `Simd2Unit`, so the datapath runs
        // on the process-wide selected kernel tier.
        let isa = Simd2Unit::new().kernel_isa();
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
            fault_log_dropped: self.injector.as_deref().map_or(0, FaultInjector::dropped),
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
    use super::*;
    use simd2_matrix::gen;
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
                assert!(
                    seq.as_slice()
                        .iter()
                        .zip(par.as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{op} with {workers} workers"
                );
            }
        }
    }

    #[test]
    fn parallel_counters_stay_exact() {
        let op = OpKind::MinPlus;
        let (a, b, c) = operands(op, 80, 48, 33);
        let mut seq = TiledBackend::new();
        seq.mmo(op, &a, &b, &c).unwrap();
        for workers in [2usize, 3, 8] {
            let mut par = TiledBackend::with_parallelism(Parallelism::Threads(workers));
            par.mmo(op, &a, &b, &c).unwrap();
            assert_eq!(par.op_count(), seq.op_count(), "{workers} workers");
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
        for parallelism in [Parallelism::Sequential, Parallelism::Threads(4)] {
            let ring = RingSink::shared();
            let mut be =
                TiledBackend::with_parallelism(parallelism).with_tracer(Tracer::to(ring.clone()));
            be.mmo(op, &a, &b, &c).unwrap();
            be.mmo(op, &a, &b, &c).unwrap();
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
